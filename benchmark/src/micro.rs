//! Direct drives of single layers: fixed work through each layer's public
//! functions, outside any transaction.  They replay the requests the
//! workloads imply (the lock requests of `point_ser` and `range_ser`, the
//! index maintenance of `range_ser`'s load), so a change to one layer shows
//! here before it shows end to end.

use crate::driver::{bucket_between, TABLE};
use crate::gen::{Mix, Op};
use crate::spec::RANGE_SPAN;
use critique_lock::{LockDuration, LockManager, LockMode, LockTarget};
use critique_storage::{
    Ebr, MvStore, Row, RowId, RowPredicate, Timestamp, TxnToken, DEFAULT_SHARDS,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const LOCK_TXNS: usize = 20_000;
const HANDOFFS: u64 = 2_000;
const PINS: u32 = 1_000_000;
const INDEX_ROWS: u32 = 4_096;
const WAIT: Duration = Duration::from_secs(5);

/// A lock manager built the way `Database` builds its own.
fn lock_manager() -> LockManager {
    LockManager::with_shards(DEFAULT_SHARDS)
}

/// `point_ser`'s lock traffic on one thread: per transaction four long
/// Shared item locks, then `release_all`.  Nanoseconds per `acquire` and
/// per `release_all`.
pub fn item_locks(point: &Mix, seed: u64) -> (f64, f64) {
    let locks = lock_manager();
    let plans = point.stream(seed, 0, LOCK_TXNS);
    let mut acquire = Duration::ZERO;
    let mut release = Duration::ZERO;
    let mut acquired = 0u32;
    for (i, plan) in plans.iter().enumerate() {
        let txn = TxnToken(i as u64 + 1);
        let t0 = Instant::now();
        for op in plan.ops() {
            let (Op::Read(key) | Op::Rmw(key) | Op::Range(key)) = *op;
            locks
                .acquire(
                    txn,
                    LockTarget::item(TABLE, RowId(u64::from(key))),
                    LockMode::Shared,
                    &[],
                    LockDuration::Long,
                    WAIT,
                )
                .expect("an uncontended item lock");
            acquired += 1;
        }
        let t1 = Instant::now();
        locks.release_all(txn);
        acquire += t1 - t0;
        release += t1.elapsed();
    }
    (
        acquire.as_nanos() as f64 / f64::from(acquired),
        release.as_nanos() as f64 / plans.len() as f64,
    )
}

/// The predicate lock target `read_range` takes for a scan starting at `lo`.
fn scan_target(lo: i64) -> LockTarget {
    let hi = lo + i64::from(RANGE_SPAN) - 1;
    LockTarget::predicate(RowPredicate::new(TABLE, bucket_between(lo, hi)))
}

/// `range_ser`'s predicate traffic: long Shared interval locks taken while
/// 64 other transactions hold predicate locks on the same table.
/// Nanoseconds per `acquire`.
pub fn predicate_locks(range: &Mix, seed: u64) -> f64 {
    let locks = lock_manager();
    for holder in 0..64u64 {
        locks
            .acquire(
                TxnToken(holder + 1),
                scan_target(holder as i64 * 64),
                LockMode::Shared,
                &[],
                LockDuration::Long,
                WAIT,
            )
            .expect("a foreign predicate lock");
    }
    let plans = range.stream(seed, 0, LOCK_TXNS / 4);
    let mut acquire = Duration::ZERO;
    let mut acquired = 0u32;
    for (i, plan) in plans.iter().enumerate() {
        let txn = TxnToken(1_000 + i as u64);
        for op in plan.ops() {
            let Op::Range(lo) = *op else { continue };
            let t0 = Instant::now();
            locks
                .acquire(
                    txn,
                    scan_target(i64::from(lo)),
                    LockMode::Shared,
                    &[],
                    LockDuration::Long,
                    WAIT,
                )
                .expect("a compatible predicate lock");
            acquire += t0.elapsed();
            acquired += 1;
        }
        locks.release_all(txn);
    }
    acquire.as_nanos() as f64 / f64::from(acquired)
}

/// Two threads pass one Exclusive item lock back and forth.  The holder
/// waits until the other is parked on the wait queue, stamps the time and
/// releases; the waiter stamps the time its `acquire` returns.  The
/// difference is one direct handoff: release, grant, wake-up.
pub fn handoff_us() -> f64 {
    let locks = lock_manager();
    let base = Instant::now();
    let released_at = AtomicU64::new(0);
    let total_ns = AtomicU64::new(0);
    let target = || LockTarget::item(TABLE, RowId(0));
    let take = |txn| {
        locks
            .acquire(
                txn,
                target(),
                LockMode::Exclusive,
                &[],
                LockDuration::Long,
                WAIT,
            )
            .expect("the handed-off lock");
    };
    let player = |txn: TxnToken, first: bool| {
        if !first {
            take(txn);
            let now = base.elapsed().as_nanos() as u64;
            // Acquire pairs with the holder's Release store below.
            total_ns.fetch_add(now - released_at.load(Ordering::Acquire), Ordering::Relaxed);
        }
        let hand_over = || {
            while locks.queued_waiters() == 0 {
                std::hint::spin_loop();
            }
            released_at.store(base.elapsed().as_nanos() as u64, Ordering::Release);
            locks.release_all(txn);
        };
        for _ in 0..HANDOFFS {
            hand_over();
            take(txn);
            let now = base.elapsed().as_nanos() as u64;
            total_ns.fetch_add(now - released_at.load(Ordering::Acquire), Ordering::Relaxed);
        }
        // The second player's last acquire still needs one handoff; after
        // it nobody waits any more.
        if first {
            hand_over();
        } else {
            locks.release_all(txn);
        }
    };
    take(TxnToken(1));
    std::thread::scope(|scope| {
        scope.spawn(|| player(TxnToken(1), true));
        scope.spawn(|| player(TxnToken(2), false));
    });
    total_ns.load(Ordering::Relaxed) as f64 / (2 * HANDOFFS + 1) as f64 / 1e3
}

/// `Ebr::pin` plus the guard's drop, uncontended.
pub fn ebr_pin_ns() -> f64 {
    let ebr = Ebr::new();
    let t0 = Instant::now();
    for _ in 0..PINS {
        black_box(ebr.pin());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(PINS)
}

/// Microseconds per row to insert and commit into an `MvStore` table that
/// carries the ordered index, at `range_ser`'s table size.
pub fn index_add_us() -> f64 {
    let store = MvStore::with_shards(DEFAULT_SHARDS);
    store.create_index(TABLE, "bucket");
    let t0 = Instant::now();
    for i in 0..INDEX_ROWS {
        let writer = TxnToken(u64::from(i) + 1);
        store.insert(
            TABLE,
            writer,
            Row::new().with("balance", 100).with("bucket", i64::from(i)),
        );
        store.commit(writer, Timestamp(u64::from(i) + 1));
    }
    t0.elapsed().as_secs_f64() * 1e6 / f64::from(INDEX_ROWS)
}
