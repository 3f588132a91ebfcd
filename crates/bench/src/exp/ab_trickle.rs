//! Ablation — trickle grants vs naive lump-sum grants (§5.2.2).
//!
//! "If a SQL node does not receive enough tokens, it can exhibit
//! undesirable stop/start behavior, where it runs user queries at full
//! speed until it runs out of tokens, and then abruptly stops all user
//! queries while it waits for more tokens." Trickle grants convert the
//! same budget into a smooth reduced rate.
//!
//! Two clients consume over quota against the same server; one server
//! issues trickle grants (the implementation), the other is modified to
//! lump-grant whatever remains. We compare stall counts and the
//! variability of per-second work completed.

use crate::header;
use crdb_accounting::bucket::{BucketClient, BucketServer, ClientConfig, GrantResponse};
use crdb_util::time::SimTime;
use crdb_util::SqlInstanceId;

fn t(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

/// Runs 120 s of a 2000-token/s-demand client against a 1000-token/s
/// bucket, in 10 ms steps of 20 tokens each. Returns (long pauses,
/// per-window work, mean tokens/s, stddev across 100 ms windows).
///
/// The naive server grants whatever lump sum is available and *nothing*
/// when dry — the client then stops entirely until its next poll, the
/// stop/start behaviour §5.2.2 describes.
fn overload(trickle: bool) -> (u64, Vec<f64>, f64, f64) {
    let mut server = BucketServer::new(1.0); // 1000 tokens/s
    let mut client = BucketClient::new(SqlInstanceId(1), ClientConfig::default());
    let mut per_window = Vec::new(); // 100ms windows
    let mut window_work = 0.0;
    let mut pending_retry_at = 0.0f64;
    let mut long_pauses = 0u64;
    let mut last_progress = 0.0f64;
    for step in 0..12_000 {
        let now_s = step as f64 * 0.01;
        let now = t(now_s);
        if now_s >= pending_retry_at {
            let mut worked = false;
            match client.try_consume(now, 20.0) {
                Ok(()) => {
                    window_work += 20.0;
                    worked = true;
                }
                Err(_) => {
                    // Refill protocol.
                    let amount = client.refill_amount(now).max(40.0);
                    let unbilled = client.take_unbilled(now);
                    let grant = server.request(now, client.node(), amount, unbilled);
                    let grant = if trickle {
                        grant
                    } else {
                        match grant {
                            GrantResponse::Trickle { .. } => {
                                // Naive: lump out whatever remains (may be
                                // nothing, properly debited); the client
                                // re-polls in 250 ms when dry.
                                let avail = server.available(now).max(0.0);
                                match server.request(now, client.node(), avail, 0.0) {
                                    GrantResponse::Granted(x) => GrantResponse::Granted(x),
                                    other => other,
                                }
                            }
                            g => g,
                        }
                    };
                    client.apply_grant(now, grant);
                    match client.try_consume(now, 20.0) {
                        Ok(()) => {
                            window_work += 20.0;
                            worked = true;
                        }
                        Err(Some(w)) => pending_retry_at = now_s + w.as_secs_f64(),
                        Err(None) => pending_retry_at = now_s + 0.25,
                    }
                }
            }
            if worked {
                if now_s - last_progress >= 0.2 {
                    long_pauses += 1;
                }
                last_progress = now_s;
            }
        }
        if step % 10 == 9 {
            per_window.push(window_work);
            window_work = 0.0;
        }
    }
    let mean = per_window.iter().sum::<f64>() / per_window.len() as f64 * 10.0;
    let m = per_window.iter().sum::<f64>() / per_window.len() as f64;
    let var =
        per_window.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (per_window.len() - 1) as f64;
    (long_pauses, per_window, mean, var.sqrt())
}

pub fn run() {
    header("Ablation: trickle grants vs naive lump-sum grants under sustained overload");
    let (pauses_t, _, mean_t, sd_t) = overload(true);
    let (pauses_n, _, mean_n, sd_n) = overload(false);
    println!(
        "{:>12} {:>16} {:>18} {:>20}",
        "server", "pauses >=200ms", "tokens/s (mean)", "100ms-window stddev"
    );
    println!("{:>12} {pauses_t:>16} {mean_t:>18.0} {sd_t:>20.1}", "trickle");
    println!("{:>12} {pauses_n:>16} {mean_n:>18.0} {sd_n:>20.1}", "lump-sum");
    println!(
        "\nsmoothness gain: {:.1}x lower window stddev with trickle grants",
        sd_n / sd_t.max(1e-9)
    );
    println!("Both deliver ~the refill rate on average; trickle avoids stop/start.");
}
