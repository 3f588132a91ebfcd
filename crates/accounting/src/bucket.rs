//! The distributed per-tenant token bucket (§5.2.2).
//!
//! Quota state lives in one [`BucketServer`] per tenant (in production, a
//! row in a system table). The bucket refills at **1000 tokens/second per
//! vCPU of quota**, one token = one millisecond of estimated CPU. Each SQL
//! node runs a [`BucketClient`] that consumes from a local buffer and
//! periodically requests refills sized to its usage over the last 10
//! seconds.
//!
//! When the bucket runs dry the server stops granting lump sums and makes
//! **trickle grants**: a tokens/second rate the node may spend smoothly,
//! preventing the stop/start oscillation a naive empty-bucket policy
//! causes. The server aims for a statistical guarantee — the sum of active
//! trickle rates converges to the refill rate — by blending each node's
//! previous grant toward the fair share of currently-active requesters.

use std::collections::BTreeMap;
use std::time::Duration;

use crdb_util::bucket::TokenBucket;
use crdb_util::time::SimTime;
use crdb_util::SqlInstanceId;

/// Tokens per second granted per vCPU of quota (1 token = 1 ms eCPU).
pub const TOKENS_PER_SEC_PER_VCPU: f64 = 1000.0;

/// How long a trickle grant remains valid.
pub const TRICKLE_DURATION: Duration = Duration::from_secs(10);

/// A server response to a token request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GrantResponse {
    /// The full requested amount, available immediately.
    Granted(f64),
    /// The bucket is exhausted: spend at `rate` tokens/second for
    /// `valid_for`, then ask again.
    Trickle {
        /// Sustainable spend rate, tokens/second.
        rate: f64,
        /// Validity of this grant.
        valid_for: Duration,
    },
}

struct NodeGrantState {
    last_trickle_rate: f64,
    last_request_at: SimTime,
    /// Whether this node's last response was a trickle. Only trickling
    /// nodes participate in the fair-share split: a node that recently got
    /// a lump grant is not drawing on the refill stream, and counting it
    /// would dilute everyone else's share below the refill rate.
    trickling: bool,
}

/// The per-tenant quota server.
pub struct BucketServer {
    bucket: TokenBucket,
    refill_rate: f64,
    nodes: BTreeMap<SqlInstanceId, NodeGrantState>,
    /// Total tokens handed out (for billing/metrics).
    pub tokens_granted: f64,
}

impl BucketServer {
    /// Creates a server for a tenant with `quota_vcpus` of CPU quota.
    pub fn new(quota_vcpus: f64) -> Self {
        let rate = quota_vcpus * TOKENS_PER_SEC_PER_VCPU;
        // Allow a burst of up to 5 seconds of refill, mirroring the paper's
        // tolerance for temporary divergence.
        BucketServer {
            bucket: TokenBucket::new(rate, rate * 5.0),
            refill_rate: rate,
            nodes: BTreeMap::new(),
            tokens_granted: 0.0,
        }
    }

    /// The configured refill rate in tokens/second.
    pub fn refill_rate(&self) -> f64 {
        self.refill_rate
    }

    /// Handles one node request for `amount` tokens.
    ///
    /// `consumed_since_last` reports tokens the node spent out of a trickle
    /// allowance since its previous request; the server debits them here so
    /// trickled consumption draws down the shared bucket (this is what
    /// keeps the system in trickle mode under sustained overload).
    pub fn request(
        &mut self,
        now: SimTime,
        node: SqlInstanceId,
        amount: f64,
        consumed_since_last: f64,
    ) -> GrantResponse {
        self.gc_nodes(now);
        if consumed_since_last > 0.0 {
            self.bucket.take_debt(now, consumed_since_last);
            self.tokens_granted += consumed_since_last;
        }
        if self.bucket.try_take(now, amount).is_ok() {
            self.tokens_granted += amount;
            self.nodes.insert(
                node,
                NodeGrantState { last_trickle_rate: 0.0, last_request_at: now, trickling: false },
            );
            return GrantResponse::Granted(amount);
        }
        // Exhausted: trickle. Fair share over nodes actively *trickling* in
        // the window — nodes whose last response was a lump grant are not
        // competing for the refill stream and must not dilute the split;
        // converge by blending the node's previous rate toward fair share.
        let prev = self.nodes.get(&node).map(|s| s.last_trickle_rate).unwrap_or(0.0);
        let active = self
            .nodes
            .iter()
            .filter(|(id, s)| {
                **id != node
                    && s.trickling
                    && now.duration_since(s.last_request_at) < TRICKLE_DURATION
            })
            .count()
            + 1;
        let fair = self.refill_rate / active as f64;
        let rate = if prev > 0.0 { 0.5 * prev + 0.5 * fair } else { fair };
        self.nodes.insert(
            node,
            NodeGrantState { last_trickle_rate: rate, last_request_at: now, trickling: true },
        );
        // Trickled tokens are billed as the client consumes them, not here.
        GrantResponse::Trickle { rate, valid_for: TRICKLE_DURATION }
    }

    fn gc_nodes(&mut self, now: SimTime) {
        self.nodes.retain(|_, s| now.duration_since(s.last_request_at) < TRICKLE_DURATION * 3);
    }

    /// Currently available lump-sum tokens.
    pub fn available(&mut self, now: SimTime) -> f64 {
        self.bucket.available(now)
    }

    /// Sum of trickle rates currently active (for tests / metrics).
    pub fn active_trickle_rate(&self, now: SimTime) -> f64 {
        // Summed in instance order so the float total is reproducible.
        let mut rates: Vec<(SqlInstanceId, f64)> = self
            .nodes
            .iter()
            .filter(|(_, s)| {
                s.trickling && now.duration_since(s.last_request_at) < TRICKLE_DURATION
            })
            .map(|(id, s)| (*id, s.last_trickle_rate))
            .collect();
        rates.sort_by_key(|&(id, _)| id);
        rates.into_iter().map(|(_, v)| v).sum()
    }
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Target local buffer, in seconds of recent spend rate.
    pub buffer_seconds: f64,
    /// Window for the usage-rate estimate (paper: 10 s).
    pub usage_window: Duration,
    /// Floor for a refill request.
    pub min_request: f64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            buffer_seconds: 2.0,
            usage_window: Duration::from_secs(10),
            min_request: 100.0,
        }
    }
}

/// The SQL-node-side token consumer.
pub struct BucketClient {
    node: SqlInstanceId,
    config: ClientConfig,
    /// Local buffered tokens.
    buffer: f64,
    /// Active trickle: spend allowance accrues at `rate` until `until`.
    trickle: Option<(f64, SimTime)>,
    trickle_accrued_at: SimTime,
    /// Recent consumption samples for the usage-rate estimate.
    spent_window: Vec<(SimTime, f64)>,
    /// Trickle tokens accrued but not yet reported to the server.
    unbilled_trickle: f64,
    /// Tokens consumed in total.
    pub tokens_spent: f64,
    /// Times the client had to block (stop/start indicator, §5.2.2).
    pub stalls: u64,
}

impl BucketClient {
    /// Creates a client for one SQL node.
    pub fn new(node: SqlInstanceId, config: ClientConfig) -> Self {
        BucketClient {
            node,
            config,
            buffer: 0.0,
            trickle: None,
            trickle_accrued_at: SimTime::ZERO,
            spent_window: Vec::new(),
            unbilled_trickle: 0.0,
            tokens_spent: 0.0,
            stalls: 0,
        }
    }

    fn accrue_trickle(&mut self, now: SimTime) {
        if let Some((rate, until)) = self.trickle {
            let accrue_until = now.min(until);
            let dt = accrue_until.duration_since(self.trickle_accrued_at).as_secs_f64();
            if dt > 0.0 {
                self.buffer += rate * dt;
                self.unbilled_trickle += rate * dt;
                self.trickle_accrued_at = accrue_until;
            }
            if now >= until {
                self.trickle = None;
            }
        }
    }

    /// Recent spend rate (tokens/second over the usage window).
    pub fn usage_rate(&mut self, now: SimTime) -> f64 {
        let cutoff = self.config.usage_window;
        self.spent_window.retain(|(t, _)| now.duration_since(*t) < cutoff);
        let total: f64 = self.spent_window.iter().map(|(_, v)| v).sum();
        total / cutoff.as_secs_f64()
    }

    /// Attempts to spend `tokens`. On success the local buffer absorbs the
    /// charge; on failure returns how long until the active trickle covers
    /// it (`None` if the client has no trickle and must refill first).
    pub fn try_consume(&mut self, now: SimTime, tokens: f64) -> Result<(), Option<Duration>> {
        self.accrue_trickle(now);
        if self.buffer >= tokens {
            self.buffer -= tokens;
            self.tokens_spent += tokens;
            self.spent_window.push((now, tokens));
            return Ok(());
        }
        self.stalls += 1;
        match self.trickle {
            Some((rate, until)) if rate > 0.0 => {
                let needed = tokens - self.buffer;
                let wait = Duration::from_secs_f64(needed / rate);
                if now + wait <= until {
                    Err(Some(wait))
                } else {
                    Err(None) // trickle expires first: re-request
                }
            }
            _ => Err(None),
        }
    }

    /// Whether the client should ask the server for more tokens.
    pub fn needs_refill(&mut self, now: SimTime) -> bool {
        self.accrue_trickle(now);
        let rate = self.usage_rate(now).max(1.0);
        self.trickle.is_none() && self.buffer < rate * self.config.buffer_seconds * 0.5
    }

    /// The refill amount to request: enough to restore the buffer to
    /// `buffer_seconds` of the recent usage rate.
    pub fn refill_amount(&mut self, now: SimTime) -> f64 {
        let rate = self.usage_rate(now).max(1.0);
        (rate * self.config.buffer_seconds - self.buffer).max(self.config.min_request)
    }

    /// Applies a server response.
    pub fn apply_grant(&mut self, now: SimTime, grant: GrantResponse) {
        self.accrue_trickle(now);
        match grant {
            GrantResponse::Granted(tokens) => {
                self.buffer += tokens;
                self.trickle = None;
            }
            GrantResponse::Trickle { rate, valid_for } => {
                self.trickle = Some((rate, now + valid_for));
                self.trickle_accrued_at = now;
            }
        }
    }

    /// Trickle tokens accrued since the last report, to be sent with the
    /// next server request as `consumed_since_last` (resets the counter).
    pub fn take_unbilled(&mut self, now: SimTime) -> f64 {
        self.accrue_trickle(now);
        std::mem::take(&mut self.unbilled_trickle)
    }

    /// The node this client belongs to.
    pub fn node(&self) -> SqlInstanceId {
        self.node
    }

    /// Current buffered tokens.
    pub fn buffered(&self) -> f64 {
        self.buffer
    }

    /// Whether the client is currently operating under a trickle grant.
    pub fn is_trickling(&self) -> bool {
        self.trickle.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn full_grants_while_tokens_available() {
        let mut server = BucketServer::new(2.0); // 2000 tokens/s, 10k burst
        match server.request(t(0.0), SqlInstanceId(1), 500.0, 0.0) {
            GrantResponse::Granted(x) => assert_eq!(x, 500.0),
            other => panic!("expected full grant, got {other:?}"),
        }
    }

    #[test]
    fn exhaustion_switches_to_trickle_at_fair_share() {
        let mut server = BucketServer::new(1.0); // 1000/s, 5000 burst
                                                 // Drain the burst.
        assert!(matches!(
            server.request(t(0.0), SqlInstanceId(1), 5000.0, 0.0),
            GrantResponse::Granted(_)
        ));
        // Two nodes in sustained overload: each re-requests every second,
        // reporting the trickle tokens it consumed meanwhile.
        let mut rates = (0.0f64, 0.0f64);
        for i in 0..12 {
            let now = t(0.5 + i as f64);
            match server.request(now, SqlInstanceId(1), 1000.0, rates.0) {
                GrantResponse::Trickle { rate, .. } => rates.0 = rate,
                GrantResponse::Granted(_) => {}
            }
            match server.request(now, SqlInstanceId(2), 1000.0, rates.1) {
                GrantResponse::Trickle { rate, .. } => rates.1 = rate,
                GrantResponse::Granted(_) => {}
            }
        }
        assert!((rates.0 - 500.0).abs() < 60.0, "node1 fair share: {}", rates.0);
        assert!((rates.1 - 500.0).abs() < 60.0, "node2 fair share: {}", rates.1);
        let total = server.active_trickle_rate(t(12.0));
        assert!((total - 1000.0).abs() < 120.0, "sum of trickles = refill: {total}");
    }

    /// Regression: a node that recently received a *lump* grant must not be
    /// counted in the trickle fair-share denominator. Before the fix, a
    /// mixed population (one quiet lump-granted node + overloaded
    /// tricklers) split the refill rate three ways instead of two, so the
    /// sum of trickle rates under-shot the refill rate.
    #[test]
    fn lump_granted_nodes_do_not_dilute_fair_share() {
        let mut server = BucketServer::new(1.0); // 1000/s, 5000 burst
                                                 // Node 3 takes a modest lump grant and goes quiet.
        assert!(matches!(
            server.request(t(0.0), SqlInstanceId(3), 100.0, 0.0),
            GrantResponse::Granted(_)
        ));
        // Node 1 drains the rest of the burst.
        assert!(matches!(
            server.request(t(0.1), SqlInstanceId(1), 4900.0, 0.0),
            GrantResponse::Granted(_)
        ));
        // Node 1's first trickle: it is the only trickler, so it gets the
        // full refill rate — not refill/2 (node 3 is recent but lump).
        match server.request(t(0.5), SqlInstanceId(1), 1000.0, 0.0) {
            GrantResponse::Trickle { rate, .. } => {
                assert!((rate - 1000.0).abs() < 1.0, "sole trickler gets full rate: {rate}")
            }
            other => panic!("expected trickle, got {other:?}"),
        }
        // Node 2 joins the overload; node 3 stays quiet. The two tricklers
        // converge to refill/2 each and their sum to the refill rate.
        let mut rates = (1000.0f64, 0.0f64);
        for i in 1..=12 {
            let now = t(0.5 + i as f64 * 0.5);
            match server.request(now, SqlInstanceId(1), 1000.0, rates.0 * 0.5) {
                GrantResponse::Trickle { rate, .. } => rates.0 = rate,
                GrantResponse::Granted(_) => {}
            }
            match server.request(now, SqlInstanceId(2), 1000.0, rates.1 * 0.5) {
                GrantResponse::Trickle { rate, .. } => rates.1 = rate,
                GrantResponse::Granted(_) => {}
            }
        }
        assert!((rates.0 - 500.0).abs() < 60.0, "node1 fair share: {}", rates.0);
        assert!((rates.1 - 500.0).abs() < 60.0, "node2 fair share: {}", rates.1);
        let total = server.active_trickle_rate(t(7.0));
        assert!((total - 1000.0).abs() < 120.0, "sum of trickles = refill: {total}");
    }

    #[test]
    fn trickle_mode_persists_under_sustained_overload() {
        let mut server = BucketServer::new(1.0);
        assert!(matches!(
            server.request(t(0.0), SqlInstanceId(1), 5000.0, 0.0),
            GrantResponse::Granted(_)
        ));
        // One node consuming its full trickle each round: the reported
        // consumption keeps the bucket drained, so the server never flips
        // back to lump-sum grants mid-overload.
        let mut rate = 0.0;
        let mut trickle_rounds = 0;
        for i in 1..=20 {
            match server.request(t(i as f64), SqlInstanceId(1), 2000.0, rate) {
                GrantResponse::Trickle { rate: r, .. } => {
                    rate = r;
                    trickle_rounds += 1;
                }
                GrantResponse::Granted(_) => rate = 0.0,
            }
        }
        assert!(trickle_rounds >= 18, "stayed in trickle mode: {trickle_rounds}/20");
        assert!((rate - 1000.0).abs() < 100.0, "sole node gets full refill: {rate}");
    }

    #[test]
    fn client_spends_from_buffer_then_stalls() {
        let mut c = BucketClient::new(SqlInstanceId(1), ClientConfig::default());
        c.apply_grant(t(0.0), GrantResponse::Granted(100.0));
        assert!(c.try_consume(t(0.0), 60.0).is_ok());
        assert!(c.try_consume(t(0.0), 60.0).is_err(), "buffer exhausted");
        assert_eq!(c.stalls, 1);
        assert!((c.tokens_spent - 60.0).abs() < 1e-9);
    }

    #[test]
    fn trickle_accrues_smoothly() {
        let mut c = BucketClient::new(SqlInstanceId(1), ClientConfig::default());
        c.apply_grant(
            t(0.0),
            GrantResponse::Trickle { rate: 100.0, valid_for: Duration::from_secs(10) },
        );
        // Nothing yet.
        match c.try_consume(t(0.0), 50.0) {
            Err(Some(wait)) => assert!((wait.as_secs_f64() - 0.5).abs() < 1e-9),
            other => panic!("expected timed wait, got {other:?}"),
        }
        // After 1s, 100 tokens accrued.
        assert!(c.try_consume(t(1.0), 50.0).is_ok());
        assert!(c.try_consume(t(1.0), 50.0).is_ok());
        assert!(c.try_consume(t(1.0), 1.0).is_err());
    }

    #[test]
    fn trickle_expires() {
        let mut c = BucketClient::new(SqlInstanceId(1), ClientConfig::default());
        c.apply_grant(
            t(0.0),
            GrantResponse::Trickle { rate: 10.0, valid_for: Duration::from_secs(2) },
        );
        // At t=5 the trickle accrued only its 2 live seconds.
        assert!(c.try_consume(t(5.0), 20.0).is_ok());
        assert!(!c.is_trickling());
        // Asking to wait on an expired trickle reports "re-request".
        assert_eq!(c.try_consume(t(5.0), 100.0), Err(None));
    }

    #[test]
    fn usage_rate_reflects_recent_spend() {
        let mut c = BucketClient::new(SqlInstanceId(1), ClientConfig::default());
        c.apply_grant(t(0.0), GrantResponse::Granted(10_000.0));
        for i in 0..10 {
            c.try_consume(t(i as f64 * 0.1), 100.0).unwrap();
        }
        // 1000 tokens in the last second; window is 10s -> rate 100/s.
        let rate = c.usage_rate(t(1.0));
        assert!((rate - 100.0).abs() < 1.0, "{rate}");
        // Far future: window empty.
        assert_eq!(c.usage_rate(t(1000.0)), 0.0);
    }

    #[test]
    fn refill_protocol_roundtrip() {
        let mut server = BucketServer::new(4.0);
        let mut c = BucketClient::new(SqlInstanceId(7), ClientConfig::default());
        assert!(c.needs_refill(t(0.0)));
        let amount = c.refill_amount(t(0.0));
        let unbilled = c.take_unbilled(t(0.0));
        let grant = server.request(t(0.0), c.node(), amount, unbilled);
        c.apply_grant(t(0.0), grant);
        assert!(c.buffered() > 0.0);
        assert!(c.try_consume(t(0.0), 10.0).is_ok());
    }
}
