//! Engine-level hot-key stress: N workers hammer one row with
//! read-modify-write transactions under SERIALIZABLE and blocking waits,
//! in the two shapes the API gives a read-modify-write (CI runs both
//! cells in `--release`).
//!
//! With a plain `read` before the `update` this is the canonical deadlock
//! mill (long Shared lock, then the Exclusive upgrade): victims retry and
//! the run must merely complete.  With `read_for_update` the read takes a
//! U lock and the mill *cannot* turn — that cell asserts **zero**
//! deadlock victims.  Either way, with the event-driven wait-queues
//! every wait must end in a grant or a prompt verdict: at a sane deadline
//! there must be zero timeouts, and the final balance must equal the
//! number of committed increments exactly.

use critique_core::IsolationLevel;
use critique_engine::{Database, EngineConfig, TxnError};
use critique_storage::Row;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Returns the number of deadlock victims the run retried.
fn hammer(declare_intent: bool) -> u64 {
    const WORKERS: u64 = 8;
    const INCREMENTS_PER_WORKER: u64 = 20;

    let config = EngineConfig::new(IsolationLevel::Serializable)
        .blocking(20_000)
        .without_history();
    let db = Database::with_config(config);
    let setup = db.begin();
    let hot = setup
        .insert("accounts", Row::new().with("balance", 0))
        .unwrap();
    setup.commit().unwrap();

    let deadlocks = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            let db = db.clone();
            let deadlocks = Arc::clone(&deadlocks);
            scope.spawn(move || {
                for _ in 0..INCREMENTS_PER_WORKER {
                    // Retry the increment until it commits; only deadlock
                    // verdicts may send us around the loop again.  Victims
                    // back off briefly before retrying, as any real client
                    // would.
                    let mut attempts = 0;
                    loop {
                        attempts += 1;
                        assert!(attempts < 10_000, "increment livelocked");
                        let txn = db.begin();
                        let read = if declare_intent {
                            txn.read_for_update("accounts", hot)
                        } else {
                            txn.read("accounts", hot)
                        };
                        let result = read
                            .and_then(|row| {
                                let balance = row.and_then(|r| r.get_int("balance")).unwrap_or(0);
                                txn.update("accounts", hot, Row::new().with("balance", balance + 1))
                            })
                            .and_then(|()| txn.commit());
                        match result {
                            Ok(()) => break,
                            Err(TxnError::Deadlock) => {
                                deadlocks.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(std::time::Duration::from_micros(500));
                            }
                            Err(TxnError::LockTimeout) => {
                                panic!("a 20s deadline expired on the hot key: lost handoff")
                            }
                            Err(other) => panic!("unexpected error: {other:?}"),
                        }
                    }
                }
            });
        }
    });

    let expected = (WORKERS * INCREMENTS_PER_WORKER) as i64;
    let balance = db
        .read_committed("accounts", hot)
        .and_then(|r| r.get_int("balance"))
        .unwrap_or(-1);
    let deadlocks = deadlocks.load(Ordering::Relaxed);
    assert_eq!(
        balance, expected,
        "every committed increment lands exactly once ({deadlocks} deadlock retries)"
    );
    assert_eq!(db.locks_held(), 0, "no lock leaked");
    deadlocks
}

#[test]
fn hot_key_read_then_update_completes() {
    hammer(false);
}

#[test]
fn hot_key_read_for_update_has_zero_deadlock_victims() {
    assert_eq!(
        hammer(true),
        0,
        "U-lock reads leave nothing to deadlock on a single hot key"
    );
}
