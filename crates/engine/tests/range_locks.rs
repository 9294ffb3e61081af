//! Range-read locking behavior: interval predicate locks must let
//! transactions over provably disjoint key ranges of *one* table run
//! concurrently, while overlapping ranges still serialize.
//!
//! The first test is the deterministic regression for the table-granular
//! predicate domain this repo used to ship: `may_overlap` once answered
//! "same table?"; under that rule the second transaction below would
//! report `WouldBlock` even though the two `FOR UPDATE` ranges share no
//! key.  The stress test then shows the finer conflict test introduces no
//! new deadlocks on a hot table.

use critique_core::IsolationLevel;
use critique_engine::{Database, EngineConfig, TxnError};
use critique_storage::{KeyInterval, Row};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Seed `rows` tasks with `hours = i` and an ordered index on `hours`.
fn seed(db: &Database, rows: i64) {
    db.store().create_table("tasks");
    db.store().create_index("tasks", "hours");
    let setup = db.begin();
    for i in 0..rows {
        setup
            .insert("tasks", Row::new().with("hours", i).with("touched", 0))
            .unwrap();
    }
    setup.commit().unwrap();
}

#[test]
fn disjoint_range_for_update_reads_do_not_block() {
    // Fail-fast lock waits make the regression deterministic: any false
    // conflict surfaces as an immediate `WouldBlock`, not a stall.
    let db = Database::new(IsolationLevel::Serializable);
    seed(&db, 40);

    let low_writer = db.begin();
    let high_writer = db.begin();

    let low = low_writer
        .read_range_for_update("tasks", "hours", &KeyInterval::range(Some(0), Some(9)))
        .expect("the low range is uncontended");
    assert_eq!(low.len(), 10);

    // The point of the interval domain: [30, 39] shares no key with
    // [0, 9], so this must grant even though both locks are U mode on the
    // same table.  (The old table-granular domain blocked here.)
    let high = high_writer
        .read_range_for_update("tasks", "hours", &KeyInterval::range(Some(30), Some(39)))
        .expect("a disjoint range on the same table must not conflict");
    assert_eq!(high.len(), 10);

    // Both writers proceed to write inside their ranges and commit.
    for (id, _) in &low {
        low_writer
            .update("tasks", *id, Row::new().with("touched", 1))
            .unwrap();
    }
    for (id, _) in &high {
        high_writer
            .update("tasks", *id, Row::new().with("touched", 1))
            .unwrap();
    }

    // Overlap still bites: a range straddling the low writer's interval
    // reports its holder as the blocker instead of being granted.
    let overlapping = db.begin();
    let blocked =
        overlapping.read_range_for_update("tasks", "hours", &KeyInterval::range(Some(5), Some(34)));
    match blocked {
        Err(TxnError::WouldBlock { blockers }) => {
            assert!(!blockers.is_empty(), "the overlap names its holders");
        }
        other => panic!("an overlapping range must conflict, got {other:?}"),
    }

    low_writer.commit().unwrap();
    high_writer.commit().unwrap();
    assert_eq!(db.locks_held(), 0);
}

#[test]
fn unbounded_range_still_conflicts_with_every_bounded_one() {
    // The conservatism contract: a range with no extractable bound falls
    // back to the whole-table interval and conflicts with any bounded
    // range on the table.
    let db = Database::new(IsolationLevel::Serializable);
    seed(&db, 10);

    let bounded = db.begin();
    bounded
        .read_range_for_update("tasks", "hours", &KeyInterval::range(Some(0), Some(3)))
        .unwrap();

    let unbounded = db.begin();
    let outcome =
        unbounded.read_range_for_update("tasks", "hours", &KeyInterval::range(None, None));
    assert!(
        matches!(outcome, Err(TxnError::WouldBlock { .. })),
        "the whole-table fallback must conflict with a bounded holder"
    );
    drop(unbounded);
    bounded.commit().unwrap();
    assert_eq!(db.locks_held(), 0);
}

#[test]
fn hot_table_range_stress_no_new_deadlocks() {
    // Workers repeatedly lock and rewrite their own 10-key stripe of one
    // hot table.  Stripes are pairwise disjoint, so with interval locks
    // the workers never contend — no deadlock verdicts, no timeouts —
    // while the old table-granular domain would have serialized (and
    // upgrade-cycled) all of them.
    const WORKERS: i64 = 6;
    const ROUNDS: usize = 15;
    const STRIPE: i64 = 10;

    let config = EngineConfig::new(IsolationLevel::Serializable)
        .blocking(20_000)
        .without_history();
    let db = Database::with_config(config);
    seed(&db, WORKERS * STRIPE);

    let deadlocks = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for worker in 0..WORKERS {
            let db = db.clone();
            let deadlocks = Arc::clone(&deadlocks);
            scope.spawn(move || {
                let lo = worker * STRIPE;
                let range = KeyInterval::range(Some(lo), Some(lo + STRIPE - 1));
                for round in 0..ROUNDS {
                    let mut attempts = 0;
                    loop {
                        attempts += 1;
                        assert!(attempts < 10_000, "stripe write livelocked");
                        let txn = db.begin();
                        let result = txn
                            .read_range_for_update("tasks", "hours", &range)
                            .and_then(|rows| {
                                assert_eq!(rows.len(), STRIPE as usize);
                                for (id, _) in rows {
                                    txn.update(
                                        "tasks",
                                        id,
                                        Row::new().with("touched", round as i64 + 1),
                                    )?;
                                }
                                Ok(())
                            })
                            .and_then(|()| txn.commit());
                        match result {
                            Ok(()) => break,
                            Err(TxnError::Deadlock) => {
                                deadlocks.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(std::time::Duration::from_micros(500));
                            }
                            Err(TxnError::LockTimeout) => {
                                panic!("a 20s deadline expired on a disjoint stripe")
                            }
                            Err(other) => panic!("unexpected error: {other:?}"),
                        }
                    }
                }
            });
        }
    });

    assert_eq!(
        deadlocks.load(Ordering::Relaxed),
        0,
        "disjoint stripes have nothing to deadlock on"
    );
    assert_eq!(db.locks_held(), 0);
}
