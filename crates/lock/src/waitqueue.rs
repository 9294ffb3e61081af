//! Event-driven FIFO wait-queues for contended locks.
//!
//! * every contended item or predicate lock keeps an **ordered queue** of
//!   `Waiter` handles, keyed by `QueueKey` (the item's hash bucket, or
//!   the table for predicate requests);
//! * a release **sweeps** the queues whose table it touched, in FIFO
//!   order, and installs grants *on the waiters' behalf* — a woken waiter
//!   finds the lock already held, it never re-runs the conflict scan;
//! * a waiter is woken only by a delivered verdict (grant or deadlock) or
//!   its own deadline.  It never re-polls the lock tables, and apart from
//!   a bounded look at its own verdict cell before it sleeps there is no
//!   timer anywhere in the wait path.
//!
//! The FIFO discipline of one sweep is specified by the pure function
//! [`sweep_plan`]: walk the queue front to back and grant every request
//! that conflicts neither with the currently granted locks nor with an
//! **earlier waiter that is still waiting**.  The hold-back half is what
//! makes the queue starvation-free — a compatible latecomer is never
//! granted past a conflicting predecessor, so the head of the queue is
//! always eligible and every release makes progress.  The lock manager's
//! real sweep runs the same control flow through [`sweep_scan`], with the
//! "conflicts with granted locks" half answered by the sharded lock
//! tables; the property tests model [`sweep_plan`] against a
//! single-threaded reference scheduler.

use crate::deadlock::WaitsForGraph;
use crate::mode::LockMode;
use crate::target::LockTarget;
use critique_core::locking::LockDuration;
use critique_storage::{Row, TxnToken};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One lock request as the FIFO discipline sees it: who is asking for
/// what.  This is the vocabulary of the pure [`sweep_plan`] specification;
/// the lock manager's internal `Waiter` carries the same fields plus the
/// parking machinery.
#[derive(Clone, Debug)]
pub struct QueuedRequest {
    /// The requesting transaction.
    pub txn: TxnToken,
    /// What the request covers.
    pub target: LockTarget,
    /// Requested mode.
    pub mode: LockMode,
    /// Row images backing item-vs-predicate conflict tests.
    pub images: Vec<Row>,
}

/// Whether two *requests* conflict: different transactions, incompatible
/// modes, overlapping targets.  (Granted-vs-requested conflicts use the
/// same test — a granted lock is just a request that succeeded.)
pub fn requests_conflict(a: &QueuedRequest, b: &QueuedRequest) -> bool {
    a.txn != b.txn
        && a.mode.conflicts_with(b.mode)
        && a.target.overlaps(&a.images, &b.target, &b.images)
}

/// The FIFO sweep over one queue of `len` requests, abstracted over how
/// conflicts are answered.  `conflicts(j, i)` must say whether the pending
/// requests at positions `j` and `i` conflict; `try_grant(i)` must attempt
/// to grant request `i` against the real (or model) lock state and return
/// `true` on success.  `try_grant` is only invoked for requests that are
/// not held back behind a conflicting earlier waiter that is still
/// waiting.  Returns the indices granted, in queue order.
pub fn sweep_scan<C, F>(len: usize, mut conflicts: C, mut try_grant: F) -> Vec<usize>
where
    C: FnMut(usize, usize) -> bool,
    F: FnMut(usize) -> bool,
{
    let mut granted: Vec<usize> = Vec::new();
    for i in 0..len {
        let held_back = (0..i)
            .filter(|j| !granted.contains(j))
            .any(|j| conflicts(j, i));
        if held_back {
            continue;
        }
        if try_grant(i) {
            granted.push(i);
        }
    }
    granted
}

/// The pure specification of one handoff sweep: which queued requests a
/// release may grant, given the locks still `held` after it.  Equals
/// [`sweep_scan`] with a model lock table: a request is grantable when it
/// conflicts with no held lock and no request granted earlier in this
/// sweep.  The property tests check this against a single-threaded
/// reference scheduler.
pub fn sweep_plan(held: &[QueuedRequest], queue: &[QueuedRequest]) -> Vec<usize> {
    let mut planned: Vec<usize> = Vec::new();
    sweep_scan(
        queue.len(),
        |j, i| requests_conflict(&queue[j], &queue[i]),
        |i| {
            let ok = !held.iter().any(|h| requests_conflict(h, &queue[i]))
                && !planned
                    .iter()
                    .any(|&g| requests_conflict(&queue[g], &queue[i]));
            if ok {
                planned.push(i);
            }
            ok
        },
    )
}

/// True when `req` is a **conversion** (upgrade) request: its transaction
/// already holds a granted lock on the same target, so granting `req`
/// strengthens an existing lock instead of adding a new holder.
pub fn is_conversion(held: &[QueuedRequest], req: &QueuedRequest) -> bool {
    held.iter()
        .any(|h| h.txn == req.txn && h.target == req.target)
}

/// The **upgrade-aware** effective order of a wait-queue: conversion
/// requests first (in arrival order among themselves), then everything
/// else (in arrival order).  Returns indices into `queue`.
///
/// This is the classic "conversions wait ahead of new requests" rule, and
/// it is what makes the sweep upgrade-aware: a sweep never grants a
/// parked Shared request while a conflicting queued upgrade (S→X or U→X)
/// on the same target is still waiting — granting it would add one more
/// holder the upgrade has to outwait, which is exactly how the
/// batch-grant cascade sustains itself.  (The rule orders the wait queue;
/// the manager's uncontended fast path never consults the queue.)
/// Because the rule is an *ordering* (not a refusal), no wakeup is lost: the
/// held-back request is simply behind the upgrade, and the retire/grant
/// of the upgrade re-sweeps the queue as usual.
pub fn conversion_first(held: &[QueuedRequest], queue: &[QueuedRequest]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..queue.len())
        .filter(|&i| is_conversion(held, &queue[i]))
        .collect();
    order.extend((0..queue.len()).filter(|&i| !is_conversion(held, &queue[i])));
    order
}

/// [`sweep_plan`] over the [`conversion_first`] effective order: the
/// upgrade-aware sweep the lock manager's release path instantiates.
/// Returns the granted indices into `queue` (original positions), in
/// grant order.
pub fn upgrade_aware_plan(held: &[QueuedRequest], queue: &[QueuedRequest]) -> Vec<usize> {
    let order = conversion_first(held, queue);
    let mut planned: Vec<usize> = Vec::new();
    sweep_scan(
        order.len(),
        |j, i| requests_conflict(&queue[order[j]], &queue[order[i]]),
        |i| {
            let idx = order[i];
            let ok = !held.iter().any(|h| requests_conflict(h, &queue[idx]))
                && !planned
                    .iter()
                    .any(|&g| requests_conflict(&queue[g], &queue[idx]));
            if ok {
                planned.push(idx);
            }
            ok
        },
    );
    planned
}

// ---------------------------------------------------------------------
// The runtime side: waiter handles and the wait-set.
// ---------------------------------------------------------------------

/// Waiters that precede `txn` in the given effective order and whose
/// pending request conflicts with `txn`'s — the discipline holds `txn`
/// behind them even once the current holders release, so they belong in
/// `txn`'s waits-for edges.  The caller supplies the order (the lock
/// manager passes the [`conversion_first`] view of the queue).
pub(crate) fn blockers_in_order(order: &[Arc<Waiter>], txn: TxnToken) -> Vec<TxnToken> {
    let Some(own) = order.iter().find(|w| w.txn == txn) else {
        return Vec::new();
    };
    let own_req = own.request();
    order
        .iter()
        .take_while(|w| w.txn != txn)
        .filter(|w| w.is_waiting() && requests_conflict(&w.request(), &own_req))
        .map(|w| w.txn)
        .collect()
}

/// Which queue a blocked request parks on.  Item requests queue under
/// their `(table, row)` hash bucket — hash collisions merely share a FIFO
/// — and predicate requests under their table, because a predicate covers
/// phantom rows that have no bucket.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) enum QueueKey {
    /// An item request's queue: the table plus the item's hash bucket.
    Item {
        /// Table of the contended item (sweeps select queues by table).
        table: String,
        /// The item's `(table, row)` hash.
        bucket: u64,
    },
    /// A predicate request's queue: one per table.
    Predicate {
        /// Table the predicate ranges over.
        table: String,
    },
}

impl QueueKey {
    pub(crate) fn table(&self) -> &str {
        match self {
            QueueKey::Item { table, .. } | QueueKey::Predicate { table } => table,
        }
    }
}

/// The verdict a parked waiter is woken with.
#[derive(Clone, Debug)]
pub(crate) enum Verdict {
    /// No verdict yet.
    Waiting,
    /// The lock has been installed on the waiter's behalf; return `Ok`.
    Granted,
    /// The waiter's pending request closed a deadlock cycle; return the
    /// cycle and abort.
    Victim(Vec<TxnToken>),
}

/// How long a blocked request watches its own verdict cell before it
/// sleeps on the condvar.  A lock handed to a *sleeping* thread stays
/// reserved for the whole wake-up (about 23 µs from release to the
/// waiter's `acquire` returning on the benchmark host, `lock.handoff_us`),
/// and anyone who needs it meanwhile parks behind it; holders are usually
/// a few microseconds from releasing, so waiting about two wake-ups' worth
/// catches almost every grant awake.
const SPIN_BEFORE_SLEEP: Duration = Duration::from_micros(50);

/// One blocked request: the request fields the FIFO discipline needs plus
/// a private mutex/condvar pair to park on.  Grants and deadlock verdicts
/// are *delivered* to the handle; the owning thread never re-scans.
pub(crate) struct Waiter {
    pub(crate) txn: TxnToken,
    pub(crate) target: LockTarget,
    pub(crate) mode: LockMode,
    pub(crate) images: Vec<Row>,
    pub(crate) duration: LockDuration,
    /// Written once, by the delivering thread; a delivery that lands
    /// between the owner's last look and its park is seen by the park
    /// itself, so no wakeup is lost.
    verdict: Mutex<Verdict>,
    wake: Condvar,
}

impl Waiter {
    pub(crate) fn new(
        txn: TxnToken,
        target: LockTarget,
        mode: LockMode,
        images: Vec<Row>,
        duration: LockDuration,
    ) -> Self {
        Waiter {
            txn,
            target,
            mode,
            images,
            duration,
            verdict: Mutex::new(Verdict::Waiting),
            wake: Condvar::new(),
        }
    }

    pub(crate) fn request(&self) -> QueuedRequest {
        QueuedRequest {
            txn: self.txn,
            target: self.target.clone(),
            mode: self.mode,
            images: self.images.clone(),
        }
    }

    /// The current verdict.
    pub(crate) fn verdict(&self) -> Verdict {
        self.verdict.lock().clone()
    }

    pub(crate) fn is_waiting(&self) -> bool {
        matches!(*self.verdict.lock(), Verdict::Waiting)
    }

    /// Deliver a final verdict (only the first delivery sticks).
    pub(crate) fn deliver(&self, verdict: Verdict) {
        let mut current = self.verdict.lock();
        if matches!(*current, Verdict::Waiting) {
            *current = verdict;
            self.wake.notify_all();
        }
    }

    /// Wait until a verdict lands or the deadline passes: watch the
    /// verdict cell for [`SPIN_BEFORE_SLEEP`], then sleep on the condvar.
    /// The caller re-reads the state under the wait-set mutex afterwards.
    pub(crate) fn park(&self, deadline: Instant) {
        let spin_until = (Instant::now() + SPIN_BEFORE_SLEEP).min(deadline);
        while Instant::now() < spin_until {
            if !self.is_waiting() {
                return;
            }
            std::hint::spin_loop();
        }
        let mut current = self.verdict.lock();
        while matches!(*current, Verdict::Waiting) {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            self.wake.wait_for(&mut current, deadline - now);
        }
    }
}

/// Every wait-queue plus the waits-for graph, behind one mutex.  The
/// mutex is touched only when a request actually blocks (the fast path is
/// gated by the lock-free `waiters` counter), so uncontended traffic
/// never sees it; under contention it serialises enqueue, verdict
/// delivery, and edge insertion, which is what makes "a grant, a deadlock
/// verdict, or the deadline" an exhaustive list of wake reasons.
pub(crate) struct WaitSet {
    waiters: AtomicUsize,
    inner: Mutex<WaitInner>,
}

pub(crate) struct WaitInner {
    queues: BTreeMap<QueueKey, VecDeque<Arc<Waiter>>>,
    /// The waits-for graph, updated incrementally: edges are inserted when
    /// a request blocks and refreshed when a sweep visits the waiter; they
    /// are removed when the waiter is granted, victimised, or retires.
    pub(crate) graph: WaitsForGraph,
}

impl WaitSet {
    pub(crate) fn new() -> Self {
        WaitSet {
            waiters: AtomicUsize::new(0),
            inner: Mutex::new(WaitInner {
                queues: BTreeMap::new(),
                graph: WaitsForGraph::new(),
            }),
        }
    }

    /// Lock-free gate for release paths: are any waiters parked at all?
    pub(crate) fn has_waiters(&self) -> bool {
        self.waiters.load(Ordering::SeqCst) > 0
    }

    pub(crate) fn lock(&self) -> parking_lot::MutexGuard<'_, WaitInner> {
        self.inner.lock()
    }

    /// Register a new waiter on its queue (FIFO: at the back).
    pub(crate) fn enqueue(&self, key: QueueKey, waiter: Arc<Waiter>) {
        let mut inner = self.inner.lock();
        inner.queues.entry(key).or_default().push_back(waiter);
        self.waiters.fetch_add(1, Ordering::SeqCst);
    }

    /// Remove `txn`'s waiter from `key`'s queue (grant, victim, retire).
    /// The caller holds the guard; the counter is adjusted here.
    pub(crate) fn dequeue(&self, inner: &mut WaitInner, key: &QueueKey, txn: TxnToken) {
        if let Some(queue) = inner.queues.get_mut(key) {
            let before = queue.len();
            queue.retain(|w| w.txn != txn);
            let removed = before - queue.len();
            if queue.is_empty() {
                inner.queues.remove(key);
            }
            if removed > 0 {
                self.waiters.fetch_sub(removed, Ordering::SeqCst);
            }
        }
    }
}

impl WaitInner {
    /// The queues a release on `tables` must sweep: every queue whose key
    /// ranges over one of the touched tables (conflicts never cross
    /// tables, so nothing else can have been unblocked).
    pub(crate) fn keys_for_tables<'a>(
        &self,
        tables: impl IntoIterator<Item = &'a String>,
    ) -> Vec<QueueKey> {
        let mut keys: Vec<QueueKey> = Vec::new();
        for table in tables {
            keys.extend(
                self.queues
                    .keys()
                    .filter(|k| k.table() == table.as_str())
                    .cloned(),
            );
        }
        keys.sort();
        keys.dedup();
        keys
    }

    /// Snapshot of one queue, front to back.
    pub(crate) fn queue(&self, key: &QueueKey) -> Vec<Arc<Waiter>> {
        self.queues
            .get(key)
            .map(|q| q.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Every parked waiter, across all queues, in queue order.
    pub(crate) fn all_waiters(&self) -> Vec<Arc<Waiter>> {
        self.queues.values().flatten().cloned().collect()
    }

    /// Number of parked waiters.
    pub(crate) fn waiter_count(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critique_storage::RowId;

    fn req(txn: u64, row: u64, mode: LockMode) -> QueuedRequest {
        QueuedRequest {
            txn: TxnToken(txn),
            target: LockTarget::item("t", RowId(row)),
            mode,
            images: Vec::new(),
        }
    }

    #[test]
    fn conflicting_requests_are_detected() {
        let a = req(1, 0, LockMode::Exclusive);
        let b = req(2, 0, LockMode::Shared);
        let c = req(2, 1, LockMode::Exclusive);
        assert!(requests_conflict(&a, &b));
        assert!(!requests_conflict(&a, &c)); // different row
        assert!(!requests_conflict(&a, &req(1, 0, LockMode::Exclusive))); // same txn
    }

    #[test]
    fn sweep_plan_grants_compatible_prefix() {
        // Two shared readers at the head are both granted; the exclusive
        // writer behind them is not.
        let queue = [
            req(1, 0, LockMode::Shared),
            req(2, 0, LockMode::Shared),
            req(3, 0, LockMode::Exclusive),
        ];
        assert_eq!(sweep_plan(&[], &queue), vec![0, 1]);
    }

    #[test]
    fn sweep_plan_never_overtakes_a_conflicting_predecessor() {
        // The shared reader behind the still-blocked exclusive writer is
        // held back even though it is compatible with the held lock.
        let held = [req(9, 0, LockMode::Shared)];
        let queue = [req(1, 0, LockMode::Exclusive), req(2, 0, LockMode::Shared)];
        assert_eq!(sweep_plan(&held, &queue), Vec::<usize>::new());
    }

    #[test]
    fn sweep_plan_grants_independent_items_past_a_blocked_head() {
        let held = [req(9, 0, LockMode::Exclusive)];
        let queue = [
            req(1, 0, LockMode::Exclusive),
            req(2, 1, LockMode::Exclusive),
        ];
        assert_eq!(sweep_plan(&held, &queue), vec![1]);
    }

    #[test]
    fn sweep_plan_head_is_always_eligible_when_holders_clear() {
        let queue = [
            req(1, 0, LockMode::Exclusive),
            req(2, 0, LockMode::Exclusive),
            req(3, 0, LockMode::Shared),
        ];
        // With nothing held, exactly the head wins (the rest conflict).
        assert_eq!(sweep_plan(&[], &queue), vec![0]);
    }

    #[test]
    fn conversion_requests_are_ordered_first() {
        let held = [req(2, 0, LockMode::Shared)];
        let queue = [
            req(3, 0, LockMode::Shared),
            req(2, 0, LockMode::Exclusive), // upgrade: txn 2 already holds S(x)
            req(4, 1, LockMode::Shared),
        ];
        assert!(!is_conversion(&held, &queue[0]));
        assert!(is_conversion(&held, &queue[1]));
        assert_eq!(conversion_first(&held, &queue), vec![1, 0, 2]);
    }

    #[test]
    fn upgrade_aware_plan_grants_the_conversion_not_the_reader() {
        // txn 2 holds S(x) and queued its X upgrade; a fresh reader queued
        // *ahead* of the upgrade.  The plain FIFO sweep would grant the
        // reader (compatible with the held S) and leave the upgrade with
        // one more holder to outwait — the cascade shape.  The
        // upgrade-aware sweep grants the conversion instead.
        let held = [req(2, 0, LockMode::Shared)];
        let queue = [req(3, 0, LockMode::Shared), req(2, 0, LockMode::Exclusive)];
        assert_eq!(sweep_plan(&held, &queue), vec![0]);
        assert_eq!(upgrade_aware_plan(&held, &queue), vec![1]);
    }

    #[test]
    fn shared_is_never_granted_while_a_conflicting_conversion_waits() {
        // Two S holders; one of them queued its upgrade, so the conversion
        // itself is still blocked — and the fresh reader must be held back
        // behind it rather than pile onto the held set.
        let held = [req(2, 0, LockMode::Shared), req(9, 0, LockMode::Shared)];
        let queue = [req(3, 0, LockMode::Shared), req(2, 0, LockMode::Exclusive)];
        assert_eq!(upgrade_aware_plan(&held, &queue), Vec::<usize>::new());
    }

    #[test]
    fn upgrade_aware_plan_without_conversions_is_the_plain_sweep() {
        let held = [req(9, 0, LockMode::Exclusive)];
        let queue = [
            req(1, 0, LockMode::Exclusive),
            req(2, 1, LockMode::Exclusive),
            req(3, 0, LockMode::Shared),
        ];
        assert_eq!(upgrade_aware_plan(&held, &queue), sweep_plan(&held, &queue));
    }

    #[test]
    fn update_mode_requests_conflict_asymmetrically() {
        let held_u = req(1, 0, LockMode::Update);
        let held_s = req(2, 0, LockMode::Shared);
        // A U request against held S is compatible; an S request against
        // held U is not (the first argument is the held/earlier side).
        assert!(!requests_conflict(&held_s, &req(1, 0, LockMode::Update)));
        assert!(requests_conflict(&held_u, &req(2, 0, LockMode::Shared)));
        assert!(requests_conflict(&held_u, &req(3, 0, LockMode::Update)));
    }

    #[test]
    fn waiter_verdict_delivery_is_first_write_wins() {
        let w = Waiter::new(
            TxnToken(1),
            LockTarget::item("t", RowId(0)),
            LockMode::Shared,
            Vec::new(),
            LockDuration::Long,
        );
        assert!(w.is_waiting());
        w.deliver(Verdict::Granted);
        w.deliver(Verdict::Victim(vec![TxnToken(1)]));
        assert!(matches!(w.verdict(), Verdict::Granted));
    }

    #[test]
    fn park_returns_immediately_once_a_verdict_has_landed() {
        let w = Waiter::new(
            TxnToken(1),
            LockTarget::item("t", RowId(0)),
            LockMode::Shared,
            Vec::new(),
            LockDuration::Long,
        );
        // The delivery raced ahead of the park: no sleep.
        w.deliver(Verdict::Granted);
        let start = Instant::now();
        w.park(Instant::now() + Duration::from_secs(5));
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
