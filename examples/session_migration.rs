//! Dynamic session migration (§4.2.4).
//!
//! ```sh
//! cargo run --release --example session_migration
//! ```
//!
//! Opens a connection with session state (settings + prepared
//! statements), then retires the SQL node underneath it — as a rolling
//! upgrade would. The proxy serializes the idle session, revives it on a
//! fresh node with the revival token, and the client keeps working
//! without reconnecting or re-authenticating.

use std::cell::RefCell;
use std::rc::Rc;

use crdb_serverless_repro::core::{ServerlessCluster, ServerlessConfig};
use crdb_sim::{task, Sim};
use crdb_util::time::dur;
use crdb_util::RegionId;

fn main() {
    let sim = Sim::new(77);
    let mut config = ServerlessConfig::default();
    config.proxy.rebalance_interval = dur::secs(2);
    let cluster = ServerlessCluster::new(&sim, config);
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);

    // Connect and build up session state.
    let conn = Rc::new(RefCell::new(None));
    {
        let c = Rc::clone(&conn);
        cluster.connect(tenant, "192.0.2.4", "app", move |r| {
            *c.borrow_mut() = Some(r.expect("connect"));
        });
    }
    sim.run_for(dur::secs(5));
    let conn = conn.borrow().clone().unwrap();

    let run = |sql: &str| {
        let out = Rc::new(RefCell::new(None));
        let o = Rc::clone(&out);
        cluster.execute(&conn, sql, vec![], move |r| *o.borrow_mut() = Some(r));
        sim.run_for(dur::secs(10));
        let r = out.borrow_mut().take();
        r.unwrap().expect("ok")
    };
    run("CREATE TABLE counters (id INT PRIMARY KEY, n INT)");
    run("INSERT INTO counters VALUES (1, 0)");
    let node_before = conn.node();
    node_before.set_session_var(conn.session(), "application_name", "migrating-app").unwrap();
    node_before
        .prepare(conn.session(), "bump", "UPDATE counters SET n = n + 1 WHERE id = 1")
        .unwrap();
    println!("session established on {} (settings + prepared statements)", node_before.instance_id);

    // Retire the node (e.g. for an upgrade); the autoscaler starts a
    // replacement and the proxy migrates the idle session.
    cluster.registry.with_tenant(tenant, |e| {
        if let Some(pos) = e.nodes.iter().position(|n| Rc::ptr_eq(n, &node_before)) {
            let node = e.nodes.remove(pos);
            node.retire();
            e.draining.push((node, sim.now()));
        }
    });
    sim.run_for(dur::secs(30));

    let node_after = conn.node();
    println!(
        "session now on {} (migrated {} time(s); old node state: {:?})",
        node_after.instance_id,
        conn.migrations.get(),
        node_before.state()
    );
    assert!(!Rc::ptr_eq(&node_before, &node_after), "session moved");

    // The prepared statement traveled with the session.
    let out = Rc::new(RefCell::new(None));
    {
        let (o, node, session) = (Rc::clone(&out), Rc::clone(&node_after), conn.session());
        task::spawn(&sim, async move {
            *o.borrow_mut() = Some(node.execute_prepared(session, "bump", vec![]).await)
        });
    }
    sim.run_for(dur::secs(10));
    out.borrow_mut().take().unwrap().expect("prepared statement survived migration");
    let result = run("SELECT n FROM counters WHERE id = 1");
    println!("prepared statement executed after migration; counter = {}", result.rows[0][0]);
    println!("total proxy migrations: {}", cluster.proxy.migrations.get());
}
