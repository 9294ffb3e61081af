//! Threaded stress over the event-driven wait-queues: many workers hammer
//! one hot key with a read-modify-write, in the two lock shapes a
//! transaction can give it (CI runs both cells in `--release`:
//! `storm_shared_read…`, `storm_update_read…`, and the staged `cascade_…`
//! pair).
//!
//! The Shared-read cells assert the three properties the scheduler owes
//! even while upgrade deadlocks are possible:
//!
//! * **no timeouts at sane deadlines** — every wait ends in a grant or a
//!   deadlock verdict long before the generous deadline, because handoff
//!   is event-driven and deadlock detection runs at edge insertion;
//! * **victims are exactly the cycle-closing requests** — every reported
//!   cycle starts and ends with the victim's own transaction;
//! * **progress** — every transaction ends in a grant or a legitimate
//!   deadlock abort, never a stall.
//!
//! The Update-read cells assert the stronger property the U mode buys:
//! **zero deadlocks** — would-be upgraders serialise at the U
//! acquisition, and the U→X conversion has only plain Shared holders to
//! outwait (none in this workload), so no cycle can ever form on the hot
//! key.

use critique_lock::prelude::*;
use critique_storage::{RowId, TxnToken};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

struct StormOutcome {
    grants: u64,
    deadlocks: u64,
    timeouts: u64,
}

/// The hot-key read-modify-write storm: every transaction takes a read
/// lock of `read_mode` on one hot key, then upgrades it to Exclusive.
fn storm(read_mode: LockMode) -> StormOutcome {
    const WORKERS: u64 = 6;
    const TXNS_PER_WORKER: u64 = 25;
    const DEADLINE: Duration = Duration::from_secs(20);

    let lm = Arc::new(LockManager::new());
    let hot = || LockTarget::item("accounts", RowId(0));
    let timeouts = Arc::new(AtomicU64::new(0));
    let deadlocks = Arc::new(AtomicU64::new(0));
    let grants = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for worker in 0..WORKERS {
            let lm = Arc::clone(&lm);
            let timeouts = Arc::clone(&timeouts);
            let deadlocks = Arc::clone(&deadlocks);
            let grants = Arc::clone(&grants);
            scope.spawn(move || {
                for i in 0..TXNS_PER_WORKER {
                    let txn = TxnToken(1 + worker * TXNS_PER_WORKER + i);
                    let read = lm.acquire(txn, hot(), read_mode, &[], LockDuration::Long, DEADLINE);
                    match read {
                        Ok(()) => {}
                        Err(AcquireError::Deadlock { cycle }) => {
                            assert_eq!(cycle.first(), Some(&txn), "victim must close the cycle");
                            assert_eq!(cycle.last(), Some(&txn), "cycle must return to the victim");
                            deadlocks.fetch_add(1, Ordering::Relaxed);
                            lm.release_all(txn);
                            continue;
                        }
                        Err(AcquireError::Timeout) => {
                            timeouts.fetch_add(1, Ordering::Relaxed);
                            lm.release_all(txn);
                            continue;
                        }
                    }
                    // Give another worker time to grab its own read lock
                    // so the upgrades actually collide (they can only
                    // under Shared; an Update holder admits no second
                    // would-be upgrader in the first place).
                    std::thread::sleep(Duration::from_micros(300));
                    let upgrade = lm.acquire(
                        txn,
                        hot(),
                        LockMode::Exclusive,
                        &[],
                        LockDuration::Long,
                        DEADLINE,
                    );
                    match upgrade {
                        Ok(()) => {
                            grants.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(AcquireError::Deadlock { cycle }) => {
                            assert_eq!(cycle.first(), Some(&txn), "victim must close the cycle");
                            assert_eq!(cycle.last(), Some(&txn), "cycle must return to the victim");
                            assert!(
                                cycle.len() >= 3,
                                "a reported cycle names at least one other transaction: {cycle:?}"
                            );
                            deadlocks.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(AcquireError::Timeout) => {
                            timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    lm.release_all(txn);
                }
            });
        }
    });

    let outcome = StormOutcome {
        grants: grants.load(Ordering::Relaxed),
        deadlocks: deadlocks.load(Ordering::Relaxed),
        timeouts: timeouts.load(Ordering::Relaxed),
    };
    assert_eq!(
        outcome.timeouts, 0,
        "no wait may hit a 20s deadline on a hot key"
    );
    assert_eq!(
        outcome.grants + outcome.deadlocks,
        WORKERS * TXNS_PER_WORKER,
        "every transaction ends in a grant or a deadlock verdict"
    );
    assert!(
        outcome.grants > 0,
        "the hot key made progress through the storm"
    );
    // Everything was released: the manager is empty and no waiter leaked.
    assert_eq!(lm.total_held(), 0);
    assert_eq!(lm.queued_waiters(), 0);
    outcome
}

#[test]
fn storm_shared_read_then_upgrade_completes() {
    storm(LockMode::Shared);
}

#[test]
fn storm_update_read_has_zero_deadlocks() {
    let outcome = storm(LockMode::Update);
    assert_eq!(
        outcome.deadlocks, 0,
        "U-mode reads cannot upgrade-deadlock on a single hot key"
    );
}

/// The batch-grant cascade, reproduced deterministically: a holder
/// keeps X on the hot key while several read-modify-write transactions
/// park their **Shared** requests; the release then batch-grants every
/// compatible Shared in one sweep, and the readers' subsequent Exclusive
/// upgrades deadlock each other — at least one is victimised, every
/// victim is a genuine cycle-closer, and exactly one survivor upgrades.
#[test]
fn cascade_shared_read_victimises_batch_granted_readers() {
    const READERS: u64 = 3;
    let lm = Arc::new(LockManager::new());
    let hot = || LockTarget::item("accounts", RowId(0));
    assert!(lm
        .try_acquire(
            TxnToken(100),
            hot(),
            LockMode::Exclusive,
            &[],
            LockDuration::Long
        )
        .is_granted());

    let all_granted = Arc::new(Barrier::new(READERS as usize));
    let deadlocks = Arc::new(AtomicU64::new(0));
    let upgrades = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 1..=READERS {
            let lm = Arc::clone(&lm);
            let all_granted = Arc::clone(&all_granted);
            let deadlocks = Arc::clone(&deadlocks);
            let upgrades = Arc::clone(&upgrades);
            scope.spawn(move || {
                let txn = TxnToken(t);
                lm.acquire(
                    txn,
                    hot(),
                    LockMode::Shared,
                    &[],
                    LockDuration::Long,
                    Duration::from_secs(20),
                )
                .expect("the release batch-grants every parked Shared");
                // Hold until *every* reader owns its Shared lock: the
                // upgrades are now guaranteed to collide.
                all_granted.wait();
                match lm.acquire(
                    txn,
                    hot(),
                    LockMode::Exclusive,
                    &[],
                    LockDuration::Long,
                    Duration::from_secs(20),
                ) {
                    Ok(()) => {
                        upgrades.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(AcquireError::Deadlock { cycle }) => {
                        assert_eq!(cycle.first(), Some(&txn));
                        assert_eq!(cycle.last(), Some(&txn));
                        deadlocks.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(AcquireError::Timeout) => panic!("cascade wait hit its deadline"),
                }
                lm.release_all(txn);
            });
        }
        // Wait until every reader is parked, then release: one sweep
        // batch-grants all the compatible Shared requests at once.
        while lm.queued_waiters() < READERS as usize {
            std::thread::sleep(Duration::from_millis(1));
        }
        lm.release_all(TxnToken(100));
    });

    assert!(
        deadlocks.load(Ordering::Relaxed) >= 1,
        "three colliding upgrades must victimise at least one reader"
    );
    assert!(
        upgrades.load(Ordering::Relaxed) >= 1,
        "at least one reader survives the cascade and upgrades"
    );
    assert_eq!(
        deadlocks.load(Ordering::Relaxed) + upgrades.load(Ordering::Relaxed),
        READERS
    );
    assert_eq!(lm.total_held(), 0);
    assert_eq!(lm.queued_waiters(), 0);
}

/// The same staged scenario with the parked read-modify-write requests
/// in **Update** mode must produce zero victims: the release sweep grants exactly one U (U
/// conflicts with U), that holder upgrades against an empty field,
/// releases, and the queue drains strictly one upgrader at a time.
#[test]
fn cascade_update_read_has_zero_victims() {
    const READERS: u64 = 3;
    let lm = Arc::new(LockManager::new());
    let hot = || LockTarget::item("accounts", RowId(0));
    assert!(lm
        .try_acquire(
            TxnToken(100),
            hot(),
            LockMode::Exclusive,
            &[],
            LockDuration::Long
        )
        .is_granted());

    let upgrades = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 1..=READERS {
            let lm = Arc::clone(&lm);
            let upgrades = Arc::clone(&upgrades);
            scope.spawn(move || {
                let txn = TxnToken(t);
                lm.acquire(
                    txn,
                    hot(),
                    LockMode::Update,
                    &[],
                    LockDuration::Long,
                    Duration::from_secs(20),
                )
                .expect("every U request is eventually granted, one at a time");
                lm.acquire(
                    txn,
                    hot(),
                    LockMode::Exclusive,
                    &[],
                    LockDuration::Long,
                    Duration::from_secs(20),
                )
                .expect("a U→X conversion with no Shared holders waits for nothing");
                upgrades.fetch_add(1, Ordering::Relaxed);
                lm.release_all(txn);
            });
        }
        while lm.queued_waiters() < READERS as usize {
            std::thread::sleep(Duration::from_millis(1));
        }
        lm.release_all(TxnToken(100));
    });

    assert_eq!(
        upgrades.load(Ordering::Relaxed),
        READERS,
        "every U-mode reader upgrades; none is victimised"
    );
    assert_eq!(lm.total_held(), 0);
    assert_eq!(lm.queued_waiters(), 0);
}

#[test]
fn disjoint_keys_never_interfere_under_load() {
    const WORKERS: u64 = 4;
    const TXNS_PER_WORKER: u64 = 200;

    let lm = Arc::new(LockManager::new());
    std::thread::scope(|scope| {
        for worker in 0..WORKERS {
            let lm = Arc::clone(&lm);
            scope.spawn(move || {
                for i in 0..TXNS_PER_WORKER {
                    let txn = TxnToken(1 + worker * TXNS_PER_WORKER + i);
                    // Each worker owns its row: acquires must never block,
                    // so even a tiny deadline cannot expire.
                    lm.acquire(
                        txn,
                        LockTarget::item("accounts", RowId(worker)),
                        LockMode::Exclusive,
                        &[],
                        LockDuration::Long,
                        Duration::from_millis(50),
                    )
                    .expect("disjoint keys cannot conflict");
                    lm.release_all(txn);
                }
            });
        }
    });
    assert_eq!(lm.total_held(), 0);
    assert_eq!(lm.queued_waiters(), 0);
}
