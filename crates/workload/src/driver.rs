//! The closed-loop workload driver.
//!
//! Workers own one connection each (mirroring client connection pools),
//! run transactions as *scripts* — sequences of statements where each
//! statement may depend on earlier results — retry on serialization
//! conflicts, sleep their think time, and repeat. Latencies and commit
//! counts feed the evaluation tables.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use crdb_sim::Sim;
use crdb_sql::coord::SqlError;
use crdb_sql::exec::QueryOutput;
use crdb_sql::value::Datum;
use crdb_util::time::{dur, SimTime};
use crdb_util::{Histogram, RetryPolicy};

/// Backoff before a conflicted transaction's first retry; it doubles per
/// retry.
const RETRY_BASE: Duration = Duration::from_millis(1);
/// Upper bound on one retry's backoff.
const RETRY_CAP: Duration = Duration::from_millis(64);

/// Anything that can execute SQL for a worker: the serverless path
/// (proxy + quota gate) or a dedicated engine.
pub trait SqlExecutor {
    /// Executes one statement on behalf of `worker`.
    fn exec(
        &self,
        worker: usize,
        sql: String,
        params: Vec<Datum>,
        cb: Box<dyn FnOnce(Result<QueryOutput, SqlError>)>,
    );
}

/// Results of earlier steps, available to later step builders.
#[derive(Default)]
pub struct ScriptCtx {
    /// Outputs of completed steps, in order.
    pub outputs: Vec<QueryOutput>,
}

impl ScriptCtx {
    /// First datum of the first row of step `i`'s output.
    pub fn scalar(&self, i: usize) -> Option<&Datum> {
        self.outputs.get(i).and_then(|o| o.rows.first()).and_then(|r| r.first())
    }
}

/// Builds one statement given prior results.
pub type Step = Box<dyn Fn(&ScriptCtx) -> (String, Vec<Datum>)>;

/// Runs a script (typically `BEGIN; …; COMMIT`) to completion.
pub fn run_script(
    executor: Rc<dyn SqlExecutor>,
    worker: usize,
    steps: Rc<Vec<Step>>,
    cb: Box<dyn FnOnce(Result<ScriptCtx, SqlError>)>,
) {
    fn advance(
        executor: Rc<dyn SqlExecutor>,
        worker: usize,
        steps: Rc<Vec<Step>>,
        mut ctx: ScriptCtx,
        idx: usize,
        cb: Box<dyn FnOnce(Result<ScriptCtx, SqlError>)>,
    ) {
        let Some(step) = steps.get(idx) else {
            cb(Ok(ctx));
            return;
        };
        let (sql, params) = step(&ctx);
        let ex2 = Rc::clone(&executor);
        let steps2 = Rc::clone(&steps);
        executor.exec(
            worker,
            sql,
            params,
            Box::new(move |result| match result {
                Ok(out) => {
                    ctx.outputs.push(out);
                    advance(ex2, worker, steps2, ctx, idx + 1, cb);
                }
                Err(e) => {
                    // Roll back any open transaction, then surface the
                    // error (the driver retries retryable ones).
                    let e = match e {
                        SqlError::Constraint(m) => {
                            SqlError::Constraint(format!("{m} [step {idx}]"))
                        }
                        other => other,
                    };
                    let ex3 = Rc::clone(&ex2);
                    ex3.exec(worker, "ROLLBACK".to_string(), vec![], Box::new(move |_| cb(Err(e))));
                }
            }),
        );
    }
    advance(executor, worker, steps, ScriptCtx::default(), 0, cb);
}

/// Driver configuration.
#[derive(Clone)]
pub struct DriverConfig {
    /// Number of closed-loop workers.
    pub workers: usize,
    /// Think time between transactions (`None` = no wait, §6.6's noisy
    /// configuration).
    pub think_time: Option<Duration>,
    /// Maximum retries per transaction on serialization conflicts.
    pub max_retries: u32,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig { workers: 4, think_time: Some(dur::ms(100)), max_retries: 10 }
    }
}

/// Aggregated transaction statistics.
pub struct TxnStats {
    /// Committed transactions.
    pub committed: RefCell<u64>,
    /// Transactions that exhausted retries (aborted).
    pub aborted: RefCell<u64>,
    /// Retry attempts performed.
    pub retries: RefCell<u64>,
    /// Transaction latency (nanoseconds), successful commits only.
    pub latency: RefCell<Histogram>,
    /// Committed count per transaction label.
    pub by_label: RefCell<std::collections::BTreeMap<String, u64>>,
    /// The most recent abort error (diagnostics).
    pub last_abort: RefCell<Option<String>>,
}

impl TxnStats {
    /// Empty stats.
    pub fn new() -> Rc<TxnStats> {
        Rc::new(TxnStats {
            committed: RefCell::new(0),
            aborted: RefCell::new(0),
            retries: RefCell::new(0),
            latency: RefCell::new(Histogram::new()),
            by_label: RefCell::new(Default::default()),
            last_abort: RefCell::new(None),
        })
    }

    /// Forgets everything recorded so far, so that what follows is
    /// measured on its own (a warm-up excluded from the window).
    pub fn reset(&self) {
        *self.committed.borrow_mut() = 0;
        *self.aborted.borrow_mut() = 0;
        *self.retries.borrow_mut() = 0;
        *self.latency.borrow_mut() = Histogram::new();
        self.by_label.borrow_mut().clear();
        *self.last_abort.borrow_mut() = None;
    }

    /// Committed transactions per minute with the given label — tpmC when
    /// the label is `new_order`.
    pub fn per_minute(&self, label: &str, elapsed: Duration) -> f64 {
        let n = self.by_label.borrow().get(label).copied().unwrap_or(0);
        n as f64 / elapsed.as_secs_f64() * 60.0
    }

    /// p50/p99 of commit latency in seconds.
    pub fn latency_quantiles(&self) -> (f64, f64) {
        let h = self.latency.borrow();
        (h.quantile(0.5) as f64 / 1e9, h.quantile(0.99) as f64 / 1e9)
    }
}

/// Produces the next transaction for a worker: a label and its steps.
pub type TxnFactory = Rc<dyn Fn(usize) -> (String, Rc<Vec<Step>>)>;

/// The closed-loop driver.
pub struct Driver {
    sim: Sim,
    executor: Rc<dyn SqlExecutor>,
    config: DriverConfig,
    factory: TxnFactory,
    /// Shared statistics.
    pub stats: Rc<TxnStats>,
    stop_at: RefCell<SimTime>,
}

impl Driver {
    /// Creates a driver.
    pub fn new(
        sim: &Sim,
        executor: Rc<dyn SqlExecutor>,
        config: DriverConfig,
        factory: TxnFactory,
    ) -> Rc<Driver> {
        Rc::new(Driver {
            sim: sim.clone(),
            executor,
            config,
            factory,
            stats: TxnStats::new(),
            stop_at: RefCell::new(SimTime::MAX),
        })
    }

    /// Starts all workers, stopping new transactions at `until`.
    pub fn run_until(self: &Rc<Self>, until: SimTime) {
        *self.stop_at.borrow_mut() = until;
        for w in 0..self.config.workers {
            self.worker_iteration(w, 0);
        }
    }

    fn worker_iteration(self: &Rc<Self>, worker: usize, attempt: u32) {
        if self.sim.now() >= *self.stop_at.borrow() {
            return;
        }
        let (label, steps) = (self.factory)(worker);
        let started = self.sim.now();
        let this = Rc::clone(self);
        run_script(
            Rc::clone(&self.executor),
            worker,
            steps,
            Box::new(move |result| match result {
                Ok(_) => {
                    *this.stats.committed.borrow_mut() += 1;
                    *this.stats.by_label.borrow_mut().entry(label).or_insert(0) += 1;
                    this.stats
                        .latency
                        .borrow_mut()
                        .record_duration(this.sim.now().duration_since(started));
                    this.schedule_next(worker);
                }
                Err(e) => {
                    let retry =
                        RetryPolicy::exponential(RETRY_BASE, RETRY_CAP, this.config.max_retries);
                    match retry.delay(attempt).filter(|_| e.is_retryable()) {
                        Some(backoff) => {
                            *this.stats.retries.borrow_mut() += 1;
                            let this2 = Rc::clone(&this);
                            this.sim.schedule_after(backoff, move || {
                                this2.worker_iteration(worker, attempt + 1);
                            });
                        }
                        None => {
                            *this.stats.aborted.borrow_mut() += 1;
                            *this.stats.last_abort.borrow_mut() = Some(e.to_string());
                            this.schedule_next(worker);
                        }
                    }
                }
            }),
        );
    }

    fn schedule_next(self: &Rc<Self>, worker: usize) {
        let this = Rc::clone(self);
        match self.config.think_time {
            Some(think) => {
                // Jitter ±50% so workers decorrelate.
                let jitter = self.sim.with_rng(|r| rand::Rng::gen_range(r, 0.5..1.5));
                let delay = Duration::from_secs_f64(think.as_secs_f64() * jitter);
                self.sim.schedule_after(delay, move || this.worker_iteration(worker, 0));
            }
            None => {
                // No wait: immediately issue the next transaction.
                self.sim.schedule_after(dur::us(1), move || this.worker_iteration(worker, 0));
            }
        }
    }
}

/// Convenience: a literal statement step.
pub fn stmt(sql: &str) -> Step {
    let sql = sql.to_string();
    Box::new(move |_| (sql.clone(), vec![]))
}

/// Convenience: a parameterized statement step with fixed params.
pub fn stmt_params(sql: &str, params: Vec<Datum>) -> Step {
    let sql = sql.to_string();
    Box::new(move |_| (sql.clone(), params.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An executor that records statements and completes after a delay.
    struct FakeExecutor {
        sim: Sim,
        log: RefCell<Vec<String>>,
        fail_nth: Option<usize>,
        calls: RefCell<usize>,
    }

    impl SqlExecutor for FakeExecutor {
        fn exec(
            &self,
            _worker: usize,
            sql: String,
            _params: Vec<Datum>,
            cb: Box<dyn FnOnce(Result<QueryOutput, SqlError>)>,
        ) {
            self.log.borrow_mut().push(sql);
            let n = {
                let mut c = self.calls.borrow_mut();
                *c += 1;
                *c
            };
            let fail = self.fail_nth == Some(n);
            self.sim.schedule_after(dur::ms(5), move || {
                if fail {
                    cb(Err(SqlError::Retry("injected".into())));
                } else {
                    cb(Ok(QueryOutput::default()));
                }
            });
        }
    }

    #[test]
    fn script_runs_steps_in_order() {
        let sim = Sim::new(1);
        let ex = Rc::new(FakeExecutor {
            sim: sim.clone(),
            log: RefCell::new(vec![]),
            fail_nth: None,
            calls: RefCell::new(0),
        });
        let steps: Rc<Vec<Step>> = Rc::new(vec![stmt("BEGIN"), stmt("SELECT 1"), stmt("COMMIT")]);
        let done = Rc::new(RefCell::new(false));
        let d = Rc::clone(&done);
        run_script(
            ex.clone(),
            0,
            steps,
            Box::new(move |r| {
                assert!(r.is_ok());
                *d.borrow_mut() = true;
            }),
        );
        sim.run_for(dur::secs(1));
        assert!(*done.borrow());
        assert_eq!(*ex.log.borrow(), vec!["BEGIN", "SELECT 1", "COMMIT"]);
    }

    #[test]
    fn script_error_rolls_back() {
        let sim = Sim::new(1);
        let ex = Rc::new(FakeExecutor {
            sim: sim.clone(),
            log: RefCell::new(vec![]),
            fail_nth: Some(2),
            calls: RefCell::new(0),
        });
        let steps: Rc<Vec<Step>> = Rc::new(vec![stmt("BEGIN"), stmt("SELECT 1"), stmt("COMMIT")]);
        let result = Rc::new(RefCell::new(None));
        let r = Rc::clone(&result);
        run_script(
            ex.clone(),
            0,
            steps,
            Box::new(move |res| {
                *r.borrow_mut() = Some(res.is_err());
            }),
        );
        sim.run_for(dur::secs(1));
        assert_eq!(*result.borrow(), Some(true));
        assert_eq!(ex.log.borrow().last().unwrap(), "ROLLBACK");
    }

    #[test]
    fn driver_retries_conflicts_and_counts() {
        let sim = Sim::new(1);
        let ex = Rc::new(FakeExecutor {
            sim: sim.clone(),
            log: RefCell::new(vec![]),
            fail_nth: Some(1), // first statement of the first txn conflicts
            calls: RefCell::new(0),
        });
        let factory: TxnFactory = Rc::new(|_| {
            ("work".to_string(), Rc::new(vec![stmt("BEGIN"), stmt("COMMIT")]) as Rc<Vec<Step>>)
        });
        let driver = Driver::new(
            &sim,
            ex,
            DriverConfig { workers: 1, think_time: Some(dur::ms(50)), max_retries: 3 },
            factory,
        );
        driver.run_until(SimTime::from_secs_f64(2.0));
        sim.run_until(SimTime::from_secs_f64(3.0));
        assert!(*driver.stats.retries.borrow() >= 1);
        assert!(*driver.stats.committed.borrow() > 5);
        assert_eq!(*driver.stats.aborted.borrow(), 0);
        let (p50, p99) = driver.stats.latency_quantiles();
        assert!(p50 > 0.0 && p99 >= p50);
        assert!(driver.stats.per_minute("work", dur::secs(2)) > 0.0);
    }

    #[test]
    fn no_wait_mode_is_tight_loop() {
        let sim = Sim::new(1);
        let ex = Rc::new(FakeExecutor {
            sim: sim.clone(),
            log: RefCell::new(vec![]),
            fail_nth: None,
            calls: RefCell::new(0),
        });
        let factory: TxnFactory =
            Rc::new(|_| ("x".to_string(), Rc::new(vec![stmt("SELECT 1")]) as Rc<Vec<Step>>));
        let driver = Driver::new(
            &sim,
            ex,
            DriverConfig { workers: 2, think_time: None, max_retries: 0 },
            factory,
        );
        driver.run_until(SimTime::from_secs_f64(1.0));
        sim.run_until(SimTime::from_secs_f64(1.5));
        // 2 workers, 5ms per txn, 1s: ~400 commits.
        let committed = *driver.stats.committed.borrow();
        assert!(committed > 300, "{committed}");
    }
}
