//! TPC-C-lite.
//!
//! The schema and transaction mix of TPC-C at simulation scale: New-Order
//! (45%), Payment (43%), Order-Status (4%), Delivery (4%), Stock-Level
//! (4%). The stock configuration uses think time and ten workers per
//! warehouse (§6.6); the noisy-neighbor configuration runs one worker per
//! warehouse with no wait.

use std::cell::Cell;
use std::rc::Rc;

use crdb_sql::value::Datum;
use rand::Rng;

use crate::driver::{stmt_params, ScriptCtx, Step, TxnFactory};

/// Scale parameters (downscaled from 10 districts / 3000 customers /
/// 100000 items for simulation speed; ratios preserved).
#[derive(Debug, Clone)]
pub struct TpccConfig {
    /// Warehouses.
    pub warehouses: u64,
    /// Districts per warehouse.
    pub districts_per_warehouse: u64,
    /// Customers per district.
    pub customers_per_district: u64,
    /// Catalog items (stock is per warehouse × item).
    pub items: u64,
    /// Order lines per New-Order.
    pub order_lines: u64,
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 3,
            customers_per_district: 10,
            items: 50,
            order_lines: 5,
        }
    }
}

/// The DDL statements for the TPC-C-lite schema.
pub fn schema() -> Vec<&'static str> {
    vec![
        "CREATE TABLE warehouse (w_id INT PRIMARY KEY, w_name STRING, w_tax FLOAT, w_ytd FLOAT)",
        "CREATE TABLE district (d_w_id INT, d_id INT, d_name STRING, d_tax FLOAT, d_ytd FLOAT, \
         d_next_o_id INT, PRIMARY KEY (d_w_id, d_id))",
        "CREATE TABLE customer (c_w_id INT, c_d_id INT, c_id INT, c_name STRING, \
         c_balance FLOAT, c_ytd_payment FLOAT, c_payment_cnt INT, \
         PRIMARY KEY (c_w_id, c_d_id, c_id))",
        "CREATE TABLE item (i_id INT PRIMARY KEY, i_name STRING, i_price FLOAT)",
        "CREATE TABLE stock (s_w_id INT, s_i_id INT, s_quantity INT, s_ytd FLOAT, \
         s_order_cnt INT, PRIMARY KEY (s_w_id, s_i_id))",
        "CREATE TABLE orders (o_w_id INT, o_d_id INT, o_id INT, o_c_id INT, \
         o_ol_cnt INT, o_carrier_id INT, PRIMARY KEY (o_w_id, o_d_id, o_id))",
        "CREATE TABLE order_line (ol_w_id INT, ol_d_id INT, ol_o_id INT, ol_number INT, \
         ol_i_id INT, ol_quantity INT, ol_amount FLOAT, \
         PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number))",
    ]
}

/// The initial-load statements (multi-row inserts, batched).
pub fn load_statements(config: &TpccConfig) -> Vec<String> {
    let mut out = Vec::new();
    // Warehouses.
    for w in 1..=config.warehouses {
        out.push(format!("INSERT INTO warehouse VALUES ({w}, 'wh-{w}', 0.0{}, 0.0)", w % 10));
        for d in 1..=config.districts_per_warehouse {
            out.push(format!(
                "INSERT INTO district VALUES ({w}, {d}, 'd-{w}-{d}', 0.0{}, 0.0, 1)",
                d % 10
            ));
            let rows: Vec<String> = (1..=config.customers_per_district)
                .map(|c| format!("({w}, {d}, {c}, 'cust-{c}', 0.0, 0.0, 0)"))
                .collect();
            out.push(format!("INSERT INTO customer VALUES {}", rows.join(", ")));
        }
        let rows: Vec<String> = (1..=config.items)
            .map(|i| format!("({w}, {i}, {}, 0.0, 0)", 50 + (i * 7) % 50))
            .collect();
        out.push(format!("INSERT INTO stock VALUES {}", rows.join(", ")));
    }
    let rows: Vec<String> =
        (1..=config.items).map(|i| format!("({i}, 'item-{i}', {}.5)", 1 + (i * 13) % 99)).collect();
    out.push(format!("INSERT INTO item VALUES {}", rows.join(", ")));
    out
}

fn d(v: i64) -> Datum {
    Datum::Int(v)
}

/// Builds the New-Order transaction script for a random (w, d, c).
pub fn new_order(config: &TpccConfig, rng: &mut impl Rng) -> Rc<Vec<Step>> {
    let w = rng.gen_range(1..=config.warehouses) as i64;
    let dd = rng.gen_range(1..=config.districts_per_warehouse) as i64;
    let c = rng.gen_range(1..=config.customers_per_district) as i64;
    let items: Vec<i64> =
        (0..config.order_lines).map(|_| rng.gen_range(1..=config.items) as i64).collect();
    let qty: i64 = rng.gen_range(1..=10);

    let mut steps: Vec<Step> = vec![stmt_params("BEGIN", vec![])];
    steps.push(stmt_params("SELECT w_tax FROM warehouse WHERE w_id = $1", vec![d(w)]));
    steps.push(stmt_params(
        "SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2",
        vec![d(w), d(dd)],
    ));
    steps.push(stmt_params(
        "UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = $1 AND d_id = $2",
        vec![d(w), d(dd)],
    ));
    steps.push(stmt_params(
        "SELECT c_name, c_balance FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3",
        vec![d(w), d(dd), d(c)],
    ));
    // Insert the order using the fetched d_next_o_id (output of step 2).
    {
        let (w, dd, c, n) = (w, dd, c, items.len() as i64);
        steps.push(Box::new(move |ctx: &ScriptCtx| {
            let o_id = ctx
                .outputs
                .get(2)
                .and_then(|o| o.rows.first())
                .and_then(|r| r.get(1))
                .and_then(|v| v.as_i64())
                .unwrap_or(1);
            (
                "INSERT INTO orders VALUES ($1, $2, $3, $4, $5, 0)".to_string(),
                vec![d(w), d(dd), d(o_id), d(c), d(n)],
            )
        }));
    }
    for (n, &item) in items.iter().enumerate() {
        steps.push(stmt_params("SELECT i_price FROM item WHERE i_id = $1", vec![d(item)]));
        steps.push(stmt_params(
            "UPDATE stock SET s_quantity = s_quantity - $3, s_order_cnt = s_order_cnt + 1 \
             WHERE s_w_id = $1 AND s_i_id = $2",
            vec![d(w), d(item), d(qty)],
        ));
        let (w2, dd2, n2, item2, qty2) = (w, dd, n as i64 + 1, item, qty);
        steps.push(Box::new(move |ctx: &ScriptCtx| {
            let o_id = ctx
                .outputs
                .get(2)
                .and_then(|o| o.rows.first())
                .and_then(|r| r.get(1))
                .and_then(|v| v.as_i64())
                .unwrap_or(1);
            let price = ctx
                .outputs
                .iter()
                .rev()
                .find(|o| o.columns == vec!["i_price".to_string()])
                .and_then(|o| o.rows.first())
                .and_then(|r| r.first())
                .and_then(|v| v.as_f64())
                .unwrap_or(1.0);
            (
                "INSERT INTO order_line VALUES ($1, $2, $3, $4, $5, $6, $7)".to_string(),
                vec![
                    d(w2),
                    d(dd2),
                    d(o_id),
                    d(n2),
                    d(item2),
                    d(qty2),
                    Datum::Float(price * qty2 as f64),
                ],
            )
        }));
    }
    steps.push(stmt_params("COMMIT", vec![]));
    Rc::new(steps)
}

/// Builds the Payment transaction script.
pub fn payment(config: &TpccConfig, rng: &mut impl Rng) -> Rc<Vec<Step>> {
    let w = rng.gen_range(1..=config.warehouses) as i64;
    let dd = rng.gen_range(1..=config.districts_per_warehouse) as i64;
    let c = rng.gen_range(1..=config.customers_per_district) as i64;
    let amount = rng.gen_range(1.0..5000.0);
    Rc::new(vec![
        stmt_params("BEGIN", vec![]),
        stmt_params(
            "UPDATE warehouse SET w_ytd = w_ytd + $2 WHERE w_id = $1",
            vec![d(w), Datum::Float(amount)],
        ),
        stmt_params(
            "UPDATE district SET d_ytd = d_ytd + $3 WHERE d_w_id = $1 AND d_id = $2",
            vec![d(w), d(dd), Datum::Float(amount)],
        ),
        stmt_params(
            "UPDATE customer SET c_balance = c_balance - $4, c_ytd_payment = c_ytd_payment + $4, \
             c_payment_cnt = c_payment_cnt + 1 \
             WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3",
            vec![d(w), d(dd), d(c), Datum::Float(amount)],
        ),
        stmt_params("COMMIT", vec![]),
    ])
}

/// Builds the Order-Status transaction script (read-only).
pub fn order_status(config: &TpccConfig, rng: &mut impl Rng) -> Rc<Vec<Step>> {
    let w = rng.gen_range(1..=config.warehouses) as i64;
    let dd = rng.gen_range(1..=config.districts_per_warehouse) as i64;
    let c = rng.gen_range(1..=config.customers_per_district) as i64;
    Rc::new(vec![
        stmt_params("BEGIN", vec![]),
        stmt_params(
            "SELECT c_name, c_balance FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3",
            vec![d(w), d(dd), d(c)],
        ),
        stmt_params(
            "SELECT o_id, o_ol_cnt FROM orders WHERE o_w_id = $1 AND o_d_id = $2 \
             ORDER BY o_id DESC LIMIT 1",
            vec![d(w), d(dd)],
        ),
        stmt_params("COMMIT", vec![]),
    ])
}

/// Builds the Stock-Level transaction script (read-only range scan).
pub fn stock_level(config: &TpccConfig, rng: &mut impl Rng) -> Rc<Vec<Step>> {
    let w = rng.gen_range(1..=config.warehouses) as i64;
    let threshold = rng.gen_range(10..20);
    Rc::new(vec![
        stmt_params("BEGIN", vec![]),
        stmt_params(
            "SELECT COUNT(*) FROM stock WHERE s_w_id = $1 AND s_quantity < $2",
            vec![d(w), d(threshold)],
        ),
        stmt_params("COMMIT", vec![]),
    ])
}

/// Builds the Delivery transaction script (simplified: mark the oldest
/// order delivered).
pub fn delivery(config: &TpccConfig, rng: &mut impl Rng) -> Rc<Vec<Step>> {
    let w = rng.gen_range(1..=config.warehouses) as i64;
    let dd = rng.gen_range(1..=config.districts_per_warehouse) as i64;
    Rc::new(vec![
        stmt_params("BEGIN", vec![]),
        stmt_params(
            "SELECT o_id FROM orders WHERE o_w_id = $1 AND o_d_id = $2 AND o_carrier_id = 0 \
             ORDER BY o_id LIMIT 1",
            vec![d(w), d(dd)],
        ),
        Box::new({
            let (w, dd) = (w, dd);
            move |ctx: &ScriptCtx| match ctx.scalar(1).and_then(|v| v.as_i64()) {
                Some(o_id) => (
                    "UPDATE orders SET o_carrier_id = 7 WHERE o_w_id = $1 AND o_d_id = $2 \
                     AND o_id = $3"
                        .to_string(),
                    vec![d(w), d(dd), d(o_id)],
                ),
                None => ("SELECT 1".to_string(), vec![]),
            }
        }),
        stmt_params("COMMIT", vec![]),
    ])
}

/// A [`TxnFactory`] producing the standard TPC-C mix, seeded
/// deterministically per (seed, worker, iteration).
pub fn mix_factory(config: TpccConfig, seed: u64) -> TxnFactory {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let counter = Cell::new(0u64);
    Rc::new(move |worker| {
        let n = counter.get();
        counter.set(n + 1);
        let mut rng = SmallRng::seed_from_u64(
            seed ^ (worker as u64).wrapping_mul(0x9e37_79b9) ^ n.wrapping_mul(0x85eb_ca6b),
        );
        let roll: f64 = rng.gen();
        if roll < 0.45 {
            ("new_order".to_string(), new_order(&config, &mut rng))
        } else if roll < 0.88 {
            ("payment".to_string(), payment(&config, &mut rng))
        } else if roll < 0.92 {
            ("order_status".to_string(), order_status(&config, &mut rng))
        } else if roll < 0.96 {
            ("delivery".to_string(), delivery(&config, &mut rng))
        } else {
            ("stock_level".to_string(), stock_level(&config, &mut rng))
        }
    })
}

/// A factory producing only New-Order transactions (the noisy-neighbor
/// tight loop of §6.6 uses uncontended, CPU-heavy work).
pub fn new_order_only_factory(config: TpccConfig, seed: u64) -> TxnFactory {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let counter = Cell::new(0u64);
    Rc::new(move |worker| {
        let n = counter.get();
        counter.set(n + 1);
        let mut rng = SmallRng::seed_from_u64(
            seed ^ (worker as u64).wrapping_mul(0xc2b2_ae35) ^ n.wrapping_mul(0x27d4_eb2f),
        );
        ("new_order".to_string(), new_order(&config, &mut rng))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn schema_and_load_shape() {
        let cfg = TpccConfig::default();
        assert_eq!(schema().len(), 7);
        let load = load_statements(&cfg);
        // warehouses(2) × (1 + districts(3)×2) + 2 stock + 1 item batch
        assert!(load.len() > cfg.warehouses as usize * 4);
        assert!(load.iter().all(|s| s.starts_with("INSERT INTO")));
    }

    #[test]
    fn new_order_script_structure() {
        let cfg = TpccConfig::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let steps = new_order(&cfg, &mut rng);
        // BEGIN + 5 header statements + 3 per order line + COMMIT.
        assert_eq!(steps.len() as u64, 7 + 3 * cfg.order_lines);
        let ctx = ScriptCtx::default();
        let (sql, _) = steps[0](&ctx);
        assert_eq!(sql, "BEGIN");
        let (sql, _) = steps[steps.len() - 1](&ctx);
        assert_eq!(sql, "COMMIT");
    }

    #[test]
    fn mix_distribution_roughly_tpcc() {
        let factory = mix_factory(TpccConfig::default(), 42);
        let mut counts = std::collections::BTreeMap::new();
        for i in 0..1000 {
            let (label, _) = factory(i % 7);
            *counts.entry(label).or_insert(0) += 1;
        }
        let no = counts["new_order"] as f64 / 1000.0;
        let pay = counts["payment"] as f64 / 1000.0;
        assert!((no - 0.45).abs() < 0.05, "new_order {no}");
        assert!((pay - 0.43).abs() < 0.05, "payment {pay}");
        assert!(counts.len() == 5, "{counts:?}");
    }

    #[test]
    fn deterministic_scripts_per_seed() {
        let cfg = TpccConfig::default();
        let gen = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let steps = payment(&cfg, &mut rng);
            let ctx = ScriptCtx::default();
            steps.iter().map(|s| s(&ctx).0).collect::<Vec<_>>()
        };
        assert_eq!(gen(5), gen(5));
    }
}
