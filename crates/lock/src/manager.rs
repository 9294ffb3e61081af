//! The lock manager: sharded item-lock tables plus per-table predicate
//! domains, with event-driven FIFO wait-queues for contended locks.
//!
//! The state is split three ways:
//!
//! * **item locks** live in `N` shards, each a mutex-protected hash table
//!   indexed by the `(table, row)` of the [`LockTarget`]; acquiring or
//!   releasing a row lock touches exactly one shard;
//! * **predicate locks** keep a **per-table domain** rather than living in
//!   any shard: a predicate covers phantom rows that do not exist yet and
//!   therefore have no shard, so the phantom-prevention check must see an
//!   insert no matter which shard its row hashes to.  The domain is an
//!   **ordered interval map** (`DomainMap`): predicates whose condition
//!   pins an integer interval on a column are keyed by that interval's
//!   lower bound, so a hinted predicate probe seeks its column's run in
//!   O(log n) and disjoint ranges never conflict, while whole-table
//!   fallbacks stay fully conservative.  An item grant on a table with a
//!   live predicate domain checks that domain under its mutex; a predicate
//!   grant scans every shard for conflicting item locks on its table;
//! * **blocked requests** park on the [`crate::waitqueue`] wait-set: one
//!   FIFO queue per contended lock, plus the waits-for graph, behind a
//!   single mutex that is touched only when a request actually blocks.
//!
//! Contended handoff is **event-driven**.  A blocked [`LockManager::acquire`]
//! enqueues a waiter handle and parks on the handle's own condvar; a
//! release sweeps the queues of the tables it touched in FIFO order and
//! installs each compatible grant on the waiter's behalf before waking
//! it.  The sweep is **upgrade-aware**:
//! queued conversion requests (a transaction strengthening a lock it
//! already holds on the same target — S→X or U→X) are swept ahead of
//! fresh requests, so the sweep never grants a parked Shared request
//! while a conflicting upgrade on the same target is still waiting.
//! Without that rule a release can batch-grant Shared to several parked
//! readers whose subsequent Exclusive upgrades deadlock each other — and
//! every fresh Shared grant in between adds one more holder the pending
//! upgrade must outwait, which is what made the cascade self-sustaining.
//! (The rule governs the wait queue only: a request that never blocked is
//! granted when it is compatible with the *held* set, conflicting parked
//! waiters notwithstanding.  The update-mode discipline does not rely on
//! sweep order for its guarantee: a held U refuses new Shared at the
//! held-lock check itself, so such readers are refused too.)
//! A parked waiter is woken only by
//! a delivered grant, a deadlock verdict, or its own deadline — there is no
//! re-poll timer anywhere in the wait path.  Deadlock detection is
//! incremental: waits-for edges are inserted the moment a request blocks
//! (and refreshed when a sweep visits the waiter), the cycle check runs on
//! insertion, and the request whose edges **close** a cycle is the victim.
//!
//! Grants stay atomic in the presence of sharding: a predicate acquisition
//! first publishes its table's domain and a provisional live-predicate
//! count (holding the domain mutex), then scans the shards in order; an
//! item acquisition that sees no live predicate locks for its table
//! re-checks the count *after* locking its shard and restarts through the
//! domain path if one appeared.  Whichever of the two ordered their
//! critical sections on the shard first is seen by the other, so a
//! conflicting pair can never both be granted — and a table with no
//! predicate history (or whose predicate locks have all been released)
//! costs item grants nothing beyond their own shard mutex.
//!
//! Lock order, outermost first: wait-set mutex → predicate domain mutex →
//! item shard mutex → waiter cell / transaction index partition.  Release
//! paths drop their shard/domain guards before taking the wait-set mutex.

use crate::mode::LockMode;
use crate::target::LockTarget;
use crate::waitqueue::{
    blockers_in_order, requests_conflict, sweep_scan, QueueKey, Verdict, WaitInner, WaitSet, Waiter,
};
use critique_core::locking::LockDuration;
use critique_storage::{KeyInterval, Row, RowId, TxnToken};
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default number of item-lock shards — tied to the store's shard count so
/// `LockManager::new()` and `MvStore::new()` stay in sync with the single
/// `EngineConfig::shards` setting.
pub const DEFAULT_LOCK_SHARDS: usize = critique_storage::DEFAULT_SHARDS;

/// One granted lock.
#[derive(Clone, Debug)]
struct HeldLock {
    holder: TxnToken,
    target: LockTarget,
    mode: LockMode,
    duration: LockDuration,
    /// Row images associated with an item lock (the values read, or the
    /// before/after images of a write) — used to evaluate conflicts against
    /// predicate locks.
    images: Vec<Row>,
}

impl HeldLock {
    fn conflicts(
        &self,
        txn: TxnToken,
        target: &LockTarget,
        mode: LockMode,
        images: &[Row],
    ) -> bool {
        self.holder != txn
            && self.mode.conflicts_with(mode)
            && self.target.overlaps(&self.images, target, images)
    }
}

/// Result of a non-blocking acquisition attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock was granted (or was already held).
    Granted,
    /// The request conflicts with locks held by these transactions.
    WouldBlock {
        /// Current holders of conflicting locks.
        holders: Vec<TxnToken>,
    },
}

impl LockOutcome {
    /// True if the lock was granted.
    pub fn is_granted(&self) -> bool {
        matches!(self, LockOutcome::Granted)
    }

    /// The conflicting holders, if the request would block.
    pub fn blockers(&self) -> &[TxnToken] {
        match self {
            LockOutcome::Granted => &[],
            LockOutcome::WouldBlock { holders } => holders,
        }
    }
}

/// Errors from a blocking acquisition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AcquireError {
    /// The requester's wait closed a deadlock cycle and it must abort.
    /// The cycle starts and ends with the victim itself.
    Deadlock {
        /// The cycle that was detected.
        cycle: Vec<TxnToken>,
    },
    /// The lock could not be acquired within the timeout.
    Timeout,
}

impl fmt::Display for AcquireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcquireError::Deadlock { cycle } => {
                write!(
                    f,
                    "deadlock victim; cycle of {} transactions",
                    cycle.len().saturating_sub(1)
                )
            }
            AcquireError::Timeout => write!(f, "lock wait timeout"),
        }
    }
}

impl std::error::Error for AcquireError {}

/// Item locks whose `(table, row)` hashes into this shard, bucketed by that
/// hash.  Buckets keep the full target, so hash collisions merely share a
/// bucket — conflict tests always re-check [`LockTarget::overlaps`].
#[derive(Default)]
struct ShardInner {
    buckets: HashMap<u64, Vec<HeldLock>>,
}

/// Ordering key for the lower bound of a bounded interval entry:
/// unbounded-below intervals sort before every finite bound.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum LoKey {
    NegInf,
    At(i64),
}

impl LoKey {
    fn of(interval: &KeyInterval) -> LoKey {
        match interval.lo() {
            None => LoKey::NegInf,
            Some(lo) => LoKey::At(lo),
        }
    }
}

/// One table's predicate locks, stored as an ordered interval map.
///
/// A predicate whose condition pins an integer interval on some column
/// ([`critique_storage::RowPredicate::index_hint`]) lives in `bounded`,
/// keyed by `(column, interval lower bound, insertion seq)`: an overlap
/// probe for another hinted request seeks to the column's run in O(log n)
/// and walks only the entries whose lower bound does not exceed the
/// probe's upper bound, pre-filtering by stored-interval intersection
/// before the full conflict test.  Skipping an entry this way is sound
/// because disjoint extracted intervals on a shared constrained column
/// prove the predicates disjoint (`RowPredicate::may_overlap`).
///
/// Everything else — whole-table fallbacks, non-integer conditions,
/// probes for item targets — takes the conservative path: `unbounded`
/// entries and cross-column bounded entries are always given the full
/// conflict test, so conservatism is preserved, never lost.
#[derive(Default)]
struct DomainMap {
    bounded: BTreeMap<(String, LoKey, u64), (KeyInterval, HeldLock)>,
    unbounded: Vec<HeldLock>,
    next_seq: u64,
}

impl DomainMap {
    fn len(&self) -> usize {
        self.bounded.len() + self.unbounded.len()
    }

    fn iter(&self) -> impl Iterator<Item = &HeldLock> {
        self.bounded
            .values()
            .map(|(_, held)| held)
            .chain(self.unbounded.iter())
    }

    fn hint(target: &LockTarget) -> Option<(String, KeyInterval)> {
        match target {
            LockTarget::Predicate(p) => p.index_hint(),
            LockTarget::Item { .. } => None,
        }
    }

    /// Insert with the same merge semantics as the shard buckets: a lock
    /// by the same holder on the same target strengthens in place.
    fn insert(&mut self, lock: HeldLock) {
        let same = |held: &HeldLock| held.holder == lock.holder && held.target == lock.target;
        if let Some(existing) = self.unbounded.iter_mut().find(|held| same(held)) {
            merge_into(existing, lock);
            return;
        }
        if let Some((_, existing)) = self.bounded.values_mut().find(|(_, held)| same(held)) {
            merge_into(existing, lock);
            return;
        }
        match Self::hint(&lock.target) {
            Some((column, interval)) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.bounded
                    .insert((column, LoKey::of(&interval), seq), (interval, lock));
            }
            None => self.unbounded.push(lock),
        }
    }

    fn retain<F: FnMut(&HeldLock) -> bool>(&mut self, mut keep: F) {
        self.bounded.retain(|_, entry| keep(&entry.1));
        self.unbounded.retain(|held| keep(held));
    }

    /// Push the holders of entries conflicting with the request onto
    /// `out`.  Hinted predicate probes prune the same-column bounded run
    /// by interval intersection; everything else gets the full test.
    fn probe(
        &self,
        txn: TxnToken,
        target: &LockTarget,
        mode: LockMode,
        images: &[Row],
        out: &mut Vec<TxnToken>,
    ) {
        match Self::hint(target) {
            Some((column, interval)) if !interval.is_int_empty() => {
                let lo = (column.clone(), LoKey::NegInf, 0u64);
                let hi = (
                    column.clone(),
                    LoKey::At(interval.hi().unwrap_or(i64::MAX)),
                    u64::MAX,
                );
                for (stored, held) in self.bounded.range(lo..=hi).map(|(_, entry)| entry) {
                    if stored.overlaps(&interval) && held.conflicts(txn, target, mode, images) {
                        out.push(held.holder);
                    }
                }
                // Bounded entries hinted on *other* columns may still range
                // over this probe's column — full conflict test, no pruning.
                for ((col, _, _), (_, held)) in self.bounded.iter() {
                    if col != &column && held.conflicts(txn, target, mode, images) {
                        out.push(held.holder);
                    }
                }
                for held in &self.unbounded {
                    if held.conflicts(txn, target, mode, images) {
                        out.push(held.holder);
                    }
                }
            }
            _ => {
                for held in self.iter() {
                    if held.conflicts(txn, target, mode, images) {
                        out.push(held.holder);
                    }
                }
            }
        }
    }
}

/// The predicate locks on one table.  Domains are created on the first
/// predicate *grant attempt* for a table and never removed.
#[derive(Default)]
struct TableDomain {
    inner: Mutex<DomainMap>,
    /// Lock-free gate for the item fast path: the number of predicate
    /// locks currently held on the table, bumped *provisionally* (before
    /// the shard scan) during a grant attempt and restored to the list
    /// length afterwards.  Item grants that read 0 while holding their
    /// shard mutex may skip the domain mutex entirely — see the ordering
    /// argument in [`LockManager::attempt_item`].
    live: AtomicUsize,
}

/// Where one transaction's locks live: the shards holding its item locks
/// and the tables where it holds predicate locks.  Entries may be stale
/// after partial releases (a listed shard that no longer holds any of the
/// transaction's locks) — release paths treat the index as a superset.
#[derive(Clone, Default)]
struct TxnIndex {
    shards: BTreeSet<usize>,
    tables: BTreeSet<String>,
}

type IndexPartition = Mutex<BTreeMap<TxnToken, TxnIndex>>;

/// The lock manager: sharded item-lock tables, per-table predicate
/// domains, event-driven FIFO wait-queues, and an incrementally maintained
/// waits-for graph for deadlock detection.
pub struct LockManager {
    shards: Box<[Mutex<ShardInner>]>,
    domains: RwLock<BTreeMap<String, Arc<TableDomain>>>,
    /// Process-wide count of live predicate locks (sum of every domain's
    /// `live`), maintained with the same provisional bump-before-scan
    /// protocol.  Item grants load this once instead of touching the
    /// `domains` RwLock — with no predicate activity anywhere (the common
    /// case on the hot path) an item grant costs one uncontended atomic
    /// load plus its own shard mutex.
    live_predicates: AtomicUsize,
    index: Box<[IndexPartition]>,
    wait: WaitSet,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::with_shards(DEFAULT_LOCK_SHARDS)
    }
}

fn item_key(table: &str, row: RowId) -> u64 {
    let mut hasher = DefaultHasher::new();
    table.hash(&mut hasher);
    row.0.hash(&mut hasher);
    hasher.finish()
}

fn queue_key(target: &LockTarget) -> QueueKey {
    match target {
        LockTarget::Item { table, row } => QueueKey::Item {
            table: table.clone(),
            bucket: item_key(table, *row),
        },
        LockTarget::Predicate(p) => QueueKey::Predicate {
            table: p.table.clone(),
        },
    }
}

fn merge_into(existing: &mut HeldLock, lock: HeldLock) {
    existing.mode = existing.mode.max(lock.mode);
    existing.duration = existing.duration.max(lock.duration);
    existing.images.extend(lock.images);
}

fn merge_or_push(locks: &mut Vec<HeldLock>, lock: HeldLock) {
    if let Some(existing) = locks
        .iter_mut()
        .find(|held| held.holder == lock.holder && held.target == lock.target)
    {
        merge_into(existing, lock);
    } else {
        locks.push(lock);
    }
}

fn sorted_holders(mut holders: Vec<TxnToken>) -> Vec<TxnToken> {
    holders.sort();
    holders.dedup();
    holders
}

impl LockManager {
    /// An empty lock manager with [`DEFAULT_LOCK_SHARDS`] shards.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty lock manager with an explicit shard count (clamped to at
    /// least 1).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        LockManager {
            shards: (0..shards)
                .map(|_| Mutex::new(ShardInner::default()))
                .collect(),
            domains: RwLock::new(BTreeMap::new()),
            live_predicates: AtomicUsize::new(0),
            index: (0..shards).map(|_| Mutex::new(BTreeMap::new())).collect(),
            wait: WaitSet::new(),
        }
    }

    /// Number of item-lock shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_index(&self, key: u64) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    fn domain(&self, table: &str) -> Option<Arc<TableDomain>> {
        self.domains.read().get(table).cloned()
    }

    fn domain_or_create(&self, table: &str) -> Arc<TableDomain> {
        if let Some(domain) = self.domain(table) {
            return domain;
        }
        let mut domains = self.domains.write();
        Arc::clone(domains.entry(table.to_string()).or_default())
    }

    fn index_partition(&self, txn: TxnToken) -> &IndexPartition {
        &self.index[(txn.0 % self.index.len() as u64) as usize]
    }

    fn register_shard(&self, txn: TxnToken, shard: usize) {
        self.index_partition(txn)
            .lock()
            .entry(txn)
            .or_default()
            .shards
            .insert(shard);
    }

    fn register_table(&self, txn: TxnToken, table: &str) {
        let mut partition = self.index_partition(txn).lock();
        let entry = partition.entry(txn).or_default();
        if !entry.tables.contains(table) {
            entry.tables.insert(table.to_string());
        }
    }

    // ------------------------------------------------------------------
    // Conflict checks and grants.
    // ------------------------------------------------------------------

    /// Attempt an item-lock grant.  `grant` selects between `try_acquire`
    /// (grant when conflict-free) and `conflicts_with` (check only).
    fn attempt_item(
        &self,
        txn: TxnToken,
        target: &LockTarget,
        mode: LockMode,
        images: &[Row],
        duration: LockDuration,
        grant: bool,
    ) -> Vec<TxnToken> {
        let LockTarget::Item { table, row } = target else {
            unreachable!("attempt_item called with a predicate target");
        };
        let key = item_key(table, *row);
        let shard = &self.shards[self.shard_index(key)];
        // The fast-path gate: the global live-predicate count first (one
        // uncontended atomic load, no `domains` RwLock touch), and only if
        // some predicate lock exists anywhere, this table's domain.
        let live_predicates = |manager: &Self| -> bool {
            manager.live_predicates.load(Ordering::SeqCst) > 0
                && manager
                    .domain(table)
                    .is_some_and(|d| d.live.load(Ordering::SeqCst) > 0)
        };
        loop {
            // Lock order: domain before shard, always.  When the table has
            // no *live* predicate locks we lock the shard alone, then
            // re-check under the shard mutex: a predicate grant attempt
            // publishes its provisional counts (global, then per-domain)
            // *before* scanning the shards, so whichever of the two
            // ordered its critical section on this shard first is visible
            // to the other — the conflicting pair can never both be
            // granted.
            if live_predicates(self) {
                // Re-fetch under the ordering-significant path: the domain
                // Arc must outlive its guard.
                let domain = self.domain(table).expect("domains are never removed");
                let domain_guard = domain.inner.lock();
                let mut shard_guard = shard.lock();
                return Self::check_and_grant_item(
                    &mut shard_guard,
                    Some(&domain_guard),
                    key,
                    txn,
                    target,
                    mode,
                    images,
                    duration,
                    grant,
                );
            }
            let mut shard_guard = shard.lock();
            if live_predicates(self) {
                drop(shard_guard);
                continue;
            }
            return Self::check_and_grant_item(
                &mut shard_guard,
                None,
                key,
                txn,
                target,
                mode,
                images,
                duration,
                grant,
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_and_grant_item(
        shard: &mut ShardInner,
        predicates: Option<&DomainMap>,
        key: u64,
        txn: TxnToken,
        target: &LockTarget,
        mode: LockMode,
        images: &[Row],
        duration: LockDuration,
        grant: bool,
    ) -> Vec<TxnToken> {
        let mut holders: Vec<TxnToken> = Vec::new();
        if let Some(bucket) = shard.buckets.get(&key) {
            holders.extend(
                bucket
                    .iter()
                    .filter(|held| held.conflicts(txn, target, mode, images))
                    .map(|held| held.holder),
            );
        }
        if let Some(predicates) = predicates {
            predicates.probe(txn, target, mode, images, &mut holders);
        }
        let holders = sorted_holders(holders);
        if grant && holders.is_empty() {
            merge_or_push(
                shard.buckets.entry(key).or_default(),
                HeldLock {
                    holder: txn,
                    target: target.clone(),
                    mode,
                    duration,
                    images: images.to_vec(),
                },
            );
        }
        holders
    }

    /// Attempt a predicate-lock grant: conflicts come from the table's
    /// domain (other predicates) and from item locks on the table in every
    /// shard.  A grant holds the domain mutex across the whole scan with
    /// the provisional `live` count already published, so no item grant on
    /// this table can slip past the scan front.  A check-only call
    /// (`grant == false`) never creates the domain and never bumps `live`
    /// — it must not pessimise future item grants on the table.
    fn attempt_predicate(
        &self,
        txn: TxnToken,
        target: &LockTarget,
        mode: LockMode,
        images: &[Row],
        duration: LockDuration,
        grant: bool,
    ) -> Vec<TxnToken> {
        let table = target.table();
        let domain = if grant {
            Some(self.domain_or_create(table))
        } else {
            self.domain(table)
        };
        let mut domain_guard = domain.as_ref().map(|d| d.inner.lock());
        let before_len = domain_guard.as_ref().map(|g| g.len()).unwrap_or(0);
        if grant {
            let domain = domain.as_ref().expect("grant path created the domain");
            // Provisional: divert concurrent item fast paths to the domain
            // mutex before we start scanning the shards — the global gate
            // first, then the per-table one.
            self.live_predicates.fetch_add(1, Ordering::SeqCst);
            domain.live.store(before_len + 1, Ordering::SeqCst);
        }
        let mut holders: Vec<TxnToken> = Vec::new();
        if let Some(guard) = domain_guard.as_ref() {
            guard.probe(txn, target, mode, images, &mut holders);
        }
        for shard in self.shards.iter() {
            let shard_guard = shard.lock();
            holders.extend(
                shard_guard
                    .buckets
                    .values()
                    .flatten()
                    .filter(|held| held.conflicts(txn, target, mode, images))
                    .map(|held| held.holder),
            );
        }
        let holders = sorted_holders(holders);
        if grant {
            let domain = domain.as_ref().expect("grant path created the domain");
            let guard = domain_guard.as_mut().expect("guard taken above");
            if holders.is_empty() {
                guard.insert(HeldLock {
                    holder: txn,
                    target: target.clone(),
                    mode,
                    duration,
                    images: images.to_vec(),
                });
            }
            // Settle the gates to the actual count (the provisional +1
            // goes away on refusal or merge, stays — as the new entry — on
            // a fresh grant).
            domain.live.store(guard.len(), Ordering::SeqCst);
            if guard.len() == before_len {
                self.live_predicates.fetch_sub(1, Ordering::SeqCst);
            }
        }
        holders
    }

    fn attempt(
        &self,
        txn: TxnToken,
        target: &LockTarget,
        mode: LockMode,
        images: &[Row],
        duration: LockDuration,
        grant: bool,
    ) -> Vec<TxnToken> {
        match target {
            LockTarget::Item { table, row } => {
                if grant {
                    self.register_shard(txn, self.shard_index(item_key(table, *row)));
                }
                self.attempt_item(txn, target, mode, images, duration, grant)
            }
            LockTarget::Predicate(_) => {
                if grant {
                    self.register_table(txn, target.table());
                }
                self.attempt_predicate(txn, target, mode, images, duration, grant)
            }
        }
    }

    /// Attempt to acquire a lock without blocking.
    pub fn try_acquire(
        &self,
        txn: TxnToken,
        target: LockTarget,
        mode: LockMode,
        images: &[Row],
        duration: LockDuration,
    ) -> LockOutcome {
        let holders = self.attempt(txn, &target, mode, images, duration, true);
        if holders.is_empty() {
            LockOutcome::Granted
        } else {
            LockOutcome::WouldBlock { holders }
        }
    }

    /// Acquire a lock, blocking until it is granted, the wait closes a
    /// deadlock cycle (the requester is then the victim), or `timeout`
    /// expires.
    ///
    /// A blocked request enqueues on its lock's FIFO wait-queue and parks
    /// on its own handle.  It is woken only by a grant installed on its
    /// behalf, a deadlock verdict, or the deadline — never by a timer.
    pub fn acquire(
        &self,
        txn: TxnToken,
        target: LockTarget,
        mode: LockMode,
        images: &[Row],
        duration: LockDuration,
        timeout: Duration,
    ) -> Result<(), AcquireError> {
        let deadline = Instant::now() + timeout;
        // Uncontended fast path: compatible with the *held* set means
        // granted, and the wait-set is never touched.
        if self
            .attempt(txn, &target, mode, images, duration, true)
            .is_empty()
        {
            return Ok(());
        }
        let key = queue_key(&target);
        let waiter = Arc::new(Waiter::new(
            txn,
            target.clone(),
            mode,
            images.to_vec(),
            duration,
        ));
        self.wait.enqueue(key.clone(), Arc::clone(&waiter));
        loop {
            let mut wait = self.wait.lock();
            // A sweep may have decided our request while we were off the
            // mutex (it dequeued us and cleared our edges before
            // delivering).
            match waiter.verdict() {
                Verdict::Granted => return Ok(()),
                Verdict::Victim(cycle) => return Err(AcquireError::Deadlock { cycle }),
                Verdict::Waiting => {}
            }
            // Re-attempt with the queue entry published and the wait-set
            // mutex held: a release between our last attempt and this one
            // has either already granted us (caught above) or is about to
            // sweep (serialised behind this mutex) — a wakeup can never
            // fall between the conflict check and the park.
            let holders = self.attempt(txn, &target, mode, images, duration, true);
            if holders.is_empty() {
                self.retire_waiter(&mut wait, &key, txn);
                return Ok(());
            }
            // Insert this request's waits-for edges: the conflicting
            // holders plus any queued waiter the effective order holds us
            // behind (earlier arrivals, and conversions even if they
            // arrived later).
            let mut blockers = holders;
            blockers.extend(self.queue_blockers(&wait, &key, txn));
            wait.graph.set_waits(txn, blockers);
            // Detect-on-insert: if these edges close a cycle, this request
            // is the cycle-closing one and therefore the victim.  Edges of
            // other parked waiters may predate grants that barged past
            // them, so when the quick check finds nothing and other
            // waiters exist, refresh the whole (small, bounded by the
            // thread count) waiter population and look again — with every
            // edge fresh at insertion time, a cycle is found the moment
            // its last wait begins.
            let mut cycle = wait.graph.find_cycle_from(txn);
            if cycle.is_none() && wait.waiter_count() > 1 {
                self.refresh_waiter_edges(&mut wait);
                cycle = wait.graph.find_cycle_from(txn);
            }
            if let Some(cycle) = cycle {
                self.retire_and_resweep(&mut wait, &key, txn, &target);
                return Err(AcquireError::Deadlock { cycle });
            }
            if Instant::now() >= deadline {
                self.retire_and_resweep(&mut wait, &key, txn, &target);
                return Err(AcquireError::Timeout);
            }
            drop(wait);
            waiter.park(deadline);
        }
    }

    /// The upgrade-aware effective order of `key`'s queue: conversion
    /// requests first (FIFO among themselves), then fresh requests (FIFO).
    /// This instantiates [`crate::waitqueue::conversion_first`] against
    /// the real lock tables; both the release sweep and the waits-for
    /// edges use it, so the *sweep* never grants a parked Shared request —
    /// and never considers it unblocked — while a conflicting queued
    /// upgrade on the same target is still waiting.  (The uncontended
    /// fast path does not consult the queue; under the U-lock discipline
    /// that is harmless, because a held U already refuses new Shared
    /// grants at the held-lock check itself.)
    fn ordered_queue(&self, wait: &WaitInner, key: &QueueKey) -> Vec<Arc<Waiter>> {
        let queue = wait.queue(key);
        if queue.is_empty() {
            return queue;
        }
        // A waiter is converting when its transaction already holds a lock
        // on exactly its own target.  Every target queued under an `Item`
        // key hashes to the key's bucket, so all their granted locks live
        // in one shard bucket; every target under a `Predicate` key lives
        // in the table's domain — either way one guard classifies the
        // whole queue.
        let converting: Vec<bool> = match key {
            QueueKey::Item { bucket, .. } => {
                let guard = self.shards[self.shard_index(*bucket)].lock();
                let held = guard.buckets.get(bucket).map(Vec::as_slice).unwrap_or(&[]);
                queue
                    .iter()
                    .map(|w| {
                        held.iter()
                            .any(|h| h.holder == w.txn && h.target == w.target)
                    })
                    .collect()
            }
            QueueKey::Predicate { table } => match self.domain(table) {
                Some(domain) => {
                    let guard = domain.inner.lock();
                    queue
                        .iter()
                        .map(|w| {
                            guard
                                .iter()
                                .any(|h| h.holder == w.txn && h.target == w.target)
                        })
                        .collect()
                }
                None => vec![false; queue.len()],
            },
        };
        let mut order: Vec<Arc<Waiter>> = Vec::with_capacity(queue.len());
        order.extend(
            queue
                .iter()
                .zip(&converting)
                .filter(|(_, &c)| c)
                .map(|(w, _)| Arc::clone(w)),
        );
        order.extend(
            queue
                .iter()
                .zip(&converting)
                .filter(|(_, &c)| !c)
                .map(|(w, _)| Arc::clone(w)),
        );
        order
    }

    /// The transactions whose *queued* requests precede `txn`'s in the
    /// effective order and conflict with it — they belong in `txn`'s
    /// waits-for edges alongside the current holders.
    fn queue_blockers(&self, wait: &WaitInner, key: &QueueKey, txn: TxnToken) -> Vec<TxnToken> {
        blockers_in_order(&self.ordered_queue(wait, key), txn)
    }

    /// Remove `txn`'s waiter and its waits-for edges (grant found on
    /// retry, timeout, or victimhood) under the wait-set guard.
    fn retire_waiter(&self, wait: &mut WaitInner, key: &QueueKey, txn: TxnToken) {
        self.wait.dequeue(wait, key, txn);
        wait.graph.clear_waits(txn);
    }

    /// Retire a waiter whose *request* is abandoned (timeout or deadlock
    /// victim), then re-sweep its queue: a follower may have been FIFO
    /// held-back only by the vanished request, and with no poll it would
    /// otherwise sleep until its own deadline.
    fn retire_and_resweep(
        &self,
        wait: &mut WaitInner,
        key: &QueueKey,
        txn: TxnToken,
        target: &LockTarget,
    ) {
        self.retire_waiter(wait, key, txn);
        let mut tables = BTreeSet::new();
        tables.insert(target.table().to_string());
        self.sweep_locked(wait, &tables);
    }

    /// Recompute the waits-for edges of every parked waiter from the real
    /// lock state (check-only attempts).  Called before a cycle verdict is
    /// trusted and by sweeps, so the incremental graph can never hold a
    /// stale edge long enough to fabricate or hide a deadlock.
    fn refresh_waiter_edges(&self, wait: &mut WaitInner) {
        // The effective order of a queue is the same for every waiter on
        // it; derive it once per key, not once per waiter.
        let mut orders: BTreeMap<QueueKey, Vec<Arc<Waiter>>> = BTreeMap::new();
        for waiter in wait.all_waiters() {
            if !waiter.is_waiting() {
                continue;
            }
            let mut blockers = self.attempt(
                waiter.txn,
                &waiter.target,
                waiter.mode,
                &waiter.images,
                waiter.duration,
                false,
            );
            let key = queue_key(&waiter.target);
            if !orders.contains_key(&key) {
                let order = self.ordered_queue(wait, &key);
                orders.insert(key.clone(), order);
            }
            blockers.extend(blockers_in_order(&orders[&key], waiter.txn));
            wait.graph.set_waits(waiter.txn, blockers);
        }
    }

    /// Hand released locks to waiters: sweep every queue on the touched
    /// tables in FIFO order.  Each eligible request is granted here, on
    /// the releasing thread, and the waiter is woken with the lock already
    /// installed.
    fn sweep(&self, tables: &BTreeSet<String>) {
        if !self.wait.has_waiters() {
            return;
        }
        let mut wait = self.wait.lock();
        self.sweep_locked(&mut wait, tables);
    }

    /// [`LockManager::sweep`] under an already-held wait-set guard.
    fn sweep_locked(&self, wait: &mut WaitInner, tables: &BTreeSet<String>) {
        let keys = wait.keys_for_tables(tables.iter());
        for key in keys {
            // Upgrade-aware effective order: conversions sweep first, so a
            // queued S→X or U→X upgrade is offered the lock before any
            // fresh Shared request that would otherwise pile onto the held
            // set it must outwait (the batch-grant cascade).
            let queue = self.ordered_queue(wait, &key);
            let requests: Vec<_> = queue.iter().map(|w| w.request()).collect();
            sweep_scan(
                queue.len(),
                |j, i| queue[j].is_waiting() && requests_conflict(&requests[j], &requests[i]),
                |i| {
                    let w = &queue[i];
                    if !w.is_waiting() {
                        return false;
                    }
                    let holders =
                        self.attempt(w.txn, &w.target, w.mode, &w.images, w.duration, true);
                    if holders.is_empty() {
                        self.retire_waiter(wait, &key, w.txn);
                        w.deliver(Verdict::Granted);
                        true
                    } else {
                        // Still blocked: refresh this waiter's edges; a
                        // refreshed edge set can close a cycle
                        // (detect-on-insert), in which case this pending
                        // request is the closer and the victim.
                        let mut blockers = holders;
                        // The sweep's own ordered snapshot is current
                        // (granted waiters are filtered by `is_waiting`),
                        // so the edges come from it instead of re-deriving
                        // the order per waiter.
                        blockers.extend(blockers_in_order(&queue, w.txn));
                        wait.graph.set_waits(w.txn, blockers);
                        if let Some(cycle) = wait.graph.find_cycle_from(w.txn) {
                            self.retire_waiter(wait, &key, w.txn);
                            w.deliver(Verdict::Victim(cycle));
                        }
                        false
                    }
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Releases.
    // ------------------------------------------------------------------

    /// Remove the locks of `txn` matching `remove` from every place the
    /// index says the transaction holds locks, then hand the freed locks
    /// to waiters via [`LockManager::sweep`].
    fn release_where<F>(&self, txn: TxnToken, take_index: bool, mut remove: F)
    where
        F: FnMut(&HeldLock) -> bool,
    {
        let index = {
            let mut partition = self.index_partition(txn).lock();
            if take_index {
                partition.remove(&txn)
            } else {
                // Clone the superset; stale entries cost one empty scan.
                partition.get(&txn).cloned()
            }
        };
        let Some(index) = index else {
            return;
        };
        // Tables a removed lock ranged over: conflicts never cross tables,
        // so these name exactly the wait-queues the sweep must visit.
        let mut touched_tables: BTreeSet<String> = BTreeSet::new();
        for &shard_idx in &index.shards {
            let mut guard = self.shards[shard_idx].lock();
            guard.buckets.retain(|_, bucket| {
                bucket.retain(|held| {
                    let gone = held.holder == txn && remove(held);
                    if gone {
                        touched_tables.insert(held.target.table().to_string());
                    }
                    !gone
                });
                !bucket.is_empty()
            });
        }
        for table in &index.tables {
            if let Some(domain) = self.domain(table) {
                let removed = {
                    let mut guard = domain.inner.lock();
                    let before = guard.len();
                    guard.retain(|held| !(held.holder == txn && remove(held)));
                    // Settle the item fast-path gates to the surviving
                    // count (under the domain mutex, like every other
                    // `live` mutation).
                    domain.live.store(guard.len(), Ordering::SeqCst);
                    before - guard.len()
                };
                if removed > 0 {
                    self.live_predicates.fetch_sub(removed, Ordering::SeqCst);
                    touched_tables.insert(table.clone());
                }
            }
        }
        // Event-driven handoff: grants are installed for the waiters
        // parked on the touched tables.  No condvar broadcast, no
        // waiter-side re-scan.  The waits-for edges of every visited
        // still-blocked waiter are re-derived from the real lock state in
        // the same pass: an edge set may lag reality between refreshes (a
        // grant can barge in while a waiter is parked), but every cycle
        // verdict is preceded by a full refresh, so lagging edges can
        // neither fabricate nor hide a deadlock.
        if !touched_tables.is_empty() {
            self.sweep(&touched_tables);
        }
    }

    /// Release every lock held by `txn` (commit or abort) and hand them to
    /// waiters.
    pub fn release_all(&self, txn: TxnToken) {
        self.release_where(txn, true, |_| true);
        if self.wait.has_waiters() {
            // Retire the transaction's node outright; the sweep above
            // already re-pointed any waiter that was blocked on it.
            self.wait.lock().graph.remove(txn);
        }
    }

    /// Release `txn`'s short-duration locks (called after each action at
    /// the levels whose profile uses short read locks).
    pub fn release_short(&self, txn: TxnToken) {
        self.release_where(txn, false, |held| held.duration == LockDuration::Short);
    }

    /// Release `txn`'s cursor-duration locks (the cursor moved or closed).
    /// A lock on `keep` (the new cursor position) is retained.
    pub fn release_cursor(&self, txn: TxnToken, keep: Option<&LockTarget>) {
        self.release_where(txn, false, |held| {
            held.duration == LockDuration::Cursor && Some(&held.target) != keep
        });
    }

    /// Release `txn`'s lock on `target` only if it is a cursor-duration
    /// lock (used when a cursor moves off a row: a lock that was meanwhile
    /// upgraded to long duration by an update must survive).
    pub fn release_cursor_target(&self, txn: TxnToken, target: &LockTarget) {
        self.release_one(txn, target, |held| held.duration == LockDuration::Cursor);
    }

    /// Release one specific lock held by `txn`.
    pub fn release_target(&self, txn: TxnToken, target: &LockTarget) {
        self.release_one(txn, target, |_| true);
    }

    /// Remove `txn`'s lock on `target`, if `also` agrees.  An item target
    /// names its shard and bucket, so the lock is taken straight from
    /// there and nothing else the transaction holds is visited (a load
    /// batch releases one phantom-guard lock per inserted row; going
    /// through [`LockManager::release_where`] made that quadratic in the
    /// batch size).  The transaction's index entry for the shard stays
    /// behind as a stale superset, which every index reader tolerates.
    /// Predicate targets keep the general path.
    fn release_one<F>(&self, txn: TxnToken, target: &LockTarget, also: F)
    where
        F: Fn(&HeldLock) -> bool,
    {
        let mine = |held: &HeldLock| held.holder == txn && &held.target == target && also(held);
        let LockTarget::Item { table, row } = target else {
            return self.release_where(txn, false, mine);
        };
        let key = item_key(table, *row);
        let released = {
            let mut shard = self.shards[self.shard_index(key)].lock();
            let Some(bucket) = shard.buckets.get_mut(&key) else {
                return;
            };
            let before = bucket.len();
            bucket.retain(|held| !mine(held));
            let released = bucket.len() < before;
            if bucket.is_empty() {
                shard.buckets.remove(&key);
            }
            released
        };
        if released && self.wait.has_waiters() {
            self.sweep(&BTreeSet::from([table.clone()]));
        }
    }

    // ------------------------------------------------------------------
    // Queries.
    // ------------------------------------------------------------------

    /// The transactions currently holding locks that would conflict with
    /// the given request.
    pub fn conflicts_with(
        &self,
        txn: TxnToken,
        target: &LockTarget,
        mode: LockMode,
        images: &[Row],
    ) -> Vec<TxnToken> {
        self.attempt(txn, target, mode, images, LockDuration::Short, false)
    }

    /// Number of requests currently parked on wait-queues.
    pub fn queued_waiters(&self) -> usize {
        if !self.wait.has_waiters() {
            return 0;
        }
        self.wait.lock().waiter_count()
    }

    /// Visit every lock currently held by `txn`.
    fn for_each_held<F>(&self, txn: TxnToken, mut visit: F)
    where
        F: FnMut(&HeldLock),
    {
        let index = {
            let partition = self.index_partition(txn).lock();
            partition.get(&txn).cloned()
        };
        let Some(index) = index else {
            return;
        };
        for &shard_idx in &index.shards {
            let guard = self.shards[shard_idx].lock();
            for held in guard.buckets.values().flatten() {
                if held.holder == txn {
                    visit(held);
                }
            }
        }
        for table in &index.tables {
            if let Some(domain) = self.domain(table) {
                let guard = domain.inner.lock();
                for held in guard.iter() {
                    if held.holder == txn {
                        visit(held);
                    }
                }
            }
        }
    }

    /// Number of locks currently held by `txn`.
    pub fn held_by(&self, txn: TxnToken) -> usize {
        let mut count = 0;
        self.for_each_held(txn, |_| count += 1);
        count
    }

    /// Total number of granted locks.
    pub fn total_held(&self) -> usize {
        let items: usize = self
            .shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .buckets
                    .values()
                    .map(|bucket| bucket.len())
                    .sum::<usize>()
            })
            .sum();
        let predicates: usize = self
            .domains
            .read()
            .values()
            .map(|domain| domain.inner.lock().len())
            .sum();
        items + predicates
    }

    /// True if `txn` holds a lock on `target` with at least the given mode.
    pub fn holds(&self, txn: TxnToken, target: &LockTarget, mode: LockMode) -> bool {
        let mut found = false;
        self.for_each_held(txn, |held| {
            found |= &held.target == target && held.mode.covers(mode);
        });
        found
    }
}

impl fmt::Debug for LockManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockManager")
            .field("shards", &self.shards.len())
            .field("held", &self.total_held())
            .field("waiters", &self.queued_waiters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critique_storage::{Condition, RowId, RowPredicate};
    use std::sync::Arc;

    fn item(row: u64) -> LockTarget {
        LockTarget::item("t", RowId(row))
    }

    #[test]
    fn shared_locks_are_compatible() {
        let lm = LockManager::new();
        assert!(lm
            .try_acquire(
                TxnToken(1),
                item(0),
                LockMode::Shared,
                &[],
                LockDuration::Long
            )
            .is_granted());
        assert!(lm
            .try_acquire(
                TxnToken(2),
                item(0),
                LockMode::Shared,
                &[],
                LockDuration::Long
            )
            .is_granted());
        assert_eq!(lm.total_held(), 2);
    }

    #[test]
    fn exclusive_conflicts_with_everything() {
        let lm = LockManager::new();
        assert!(lm
            .try_acquire(
                TxnToken(1),
                item(0),
                LockMode::Exclusive,
                &[],
                LockDuration::Long
            )
            .is_granted());
        let read = lm.try_acquire(
            TxnToken(2),
            item(0),
            LockMode::Shared,
            &[],
            LockDuration::Long,
        );
        assert_eq!(read.blockers(), &[TxnToken(1)]);
        let write = lm.try_acquire(
            TxnToken(2),
            item(0),
            LockMode::Exclusive,
            &[],
            LockDuration::Long,
        );
        assert!(!write.is_granted());
        // Different item is fine.
        assert!(lm
            .try_acquire(
                TxnToken(2),
                item(1),
                LockMode::Exclusive,
                &[],
                LockDuration::Long
            )
            .is_granted());
    }

    #[test]
    fn reacquisition_and_upgrade_by_the_same_transaction() {
        let lm = LockManager::new();
        assert!(lm
            .try_acquire(
                TxnToken(1),
                item(0),
                LockMode::Shared,
                &[],
                LockDuration::Short
            )
            .is_granted());
        assert!(lm
            .try_acquire(
                TxnToken(1),
                item(0),
                LockMode::Exclusive,
                &[],
                LockDuration::Long
            )
            .is_granted());
        assert_eq!(lm.held_by(TxnToken(1)), 1);
        assert!(lm.holds(TxnToken(1), &item(0), LockMode::Exclusive));
        // The upgraded lock now has long duration: release_short keeps it.
        lm.release_short(TxnToken(1));
        assert_eq!(lm.held_by(TxnToken(1)), 1);
    }

    #[test]
    fn upgrade_blocks_when_another_reader_holds_the_item() {
        let lm = LockManager::new();
        assert!(lm
            .try_acquire(
                TxnToken(1),
                item(0),
                LockMode::Shared,
                &[],
                LockDuration::Long
            )
            .is_granted());
        assert!(lm
            .try_acquire(
                TxnToken(2),
                item(0),
                LockMode::Shared,
                &[],
                LockDuration::Long
            )
            .is_granted());
        let upgrade = lm.try_acquire(
            TxnToken(1),
            item(0),
            LockMode::Exclusive,
            &[],
            LockDuration::Long,
        );
        assert_eq!(upgrade.blockers(), &[TxnToken(2)]);
    }

    #[test]
    fn release_all_unblocks_waiters() {
        let lm = LockManager::new();
        assert!(lm
            .try_acquire(
                TxnToken(1),
                item(0),
                LockMode::Exclusive,
                &[],
                LockDuration::Long
            )
            .is_granted());
        lm.release_all(TxnToken(1));
        assert_eq!(lm.total_held(), 0);
        assert!(lm
            .try_acquire(
                TxnToken(2),
                item(0),
                LockMode::Exclusive,
                &[],
                LockDuration::Long
            )
            .is_granted());
    }

    #[test]
    fn duration_specific_release() {
        let lm = LockManager::new();
        lm.try_acquire(
            TxnToken(1),
            item(0),
            LockMode::Shared,
            &[],
            LockDuration::Short,
        );
        lm.try_acquire(
            TxnToken(1),
            item(1),
            LockMode::Shared,
            &[],
            LockDuration::Cursor,
        );
        lm.try_acquire(
            TxnToken(1),
            item(2),
            LockMode::Exclusive,
            &[],
            LockDuration::Long,
        );
        assert_eq!(lm.held_by(TxnToken(1)), 3);
        lm.release_short(TxnToken(1));
        assert_eq!(lm.held_by(TxnToken(1)), 2);
        lm.release_cursor(TxnToken(1), None);
        assert_eq!(lm.held_by(TxnToken(1)), 1);
        lm.release_target(TxnToken(1), &item(2));
        assert_eq!(lm.held_by(TxnToken(1)), 0);
    }

    #[test]
    fn cursor_release_keeps_the_new_position() {
        let lm = LockManager::new();
        lm.try_acquire(
            TxnToken(1),
            item(0),
            LockMode::Shared,
            &[],
            LockDuration::Cursor,
        );
        lm.try_acquire(
            TxnToken(1),
            item(1),
            LockMode::Shared,
            &[],
            LockDuration::Cursor,
        );
        lm.release_cursor(TxnToken(1), Some(&item(1)));
        assert!(!lm.holds(TxnToken(1), &item(0), LockMode::Shared));
        assert!(lm.holds(TxnToken(1), &item(1), LockMode::Shared));
    }

    #[test]
    fn item_release_touches_one_bucket_and_hands_the_lock_on() {
        let lm = Arc::new(LockManager::with_shards(1));
        for row in 0..3 {
            lm.try_acquire(
                TxnToken(1),
                item(row),
                LockMode::Exclusive,
                &[],
                LockDuration::Long,
            );
        }
        // Another holder's lock on the same item, and this holder's other
        // locks, must survive; a cursor-only release must not take a lock
        // that has since become long.
        lm.try_acquire(
            TxnToken(2),
            item(3),
            LockMode::Shared,
            &[],
            LockDuration::Long,
        );
        lm.try_acquire(
            TxnToken(1),
            item(3),
            LockMode::Shared,
            &[],
            LockDuration::Cursor,
        );
        lm.release_cursor_target(TxnToken(1), &item(0));
        assert!(lm.holds(TxnToken(1), &item(0), LockMode::Exclusive));
        lm.release_cursor_target(TxnToken(1), &item(3));
        assert!(!lm.holds(TxnToken(1), &item(3), LockMode::Shared));
        assert!(lm.holds(TxnToken(2), &item(3), LockMode::Shared));

        // A parked waiter is granted by the release itself.
        let waiter = {
            let lm = Arc::clone(&lm);
            std::thread::spawn(move || {
                lm.acquire(
                    TxnToken(3),
                    item(1),
                    LockMode::Exclusive,
                    &[],
                    LockDuration::Long,
                    Duration::from_secs(10),
                )
            })
        };
        while lm.queued_waiters() == 0 {
            std::thread::yield_now();
        }
        lm.release_target(TxnToken(1), &item(1));
        assert_eq!(waiter.join().unwrap(), Ok(()));
        assert!(lm.holds(TxnToken(3), &item(1), LockMode::Exclusive));
        assert_eq!(lm.held_by(TxnToken(1)), 2);

        // Releasing something not held is a no-op.
        lm.release_target(TxnToken(1), &item(9));
        lm.release_all(TxnToken(1));
        lm.release_all(TxnToken(2));
        lm.release_all(TxnToken(3));
        assert_eq!(lm.total_held(), 0);
        assert!(lm.shards[0].lock().buckets.is_empty());
    }

    #[test]
    fn predicate_lock_blocks_matching_item_writes() {
        let lm = LockManager::new();
        let active = RowPredicate::new("employees", Condition::eq("active", true));
        assert!(lm
            .try_acquire(
                TxnToken(1),
                LockTarget::predicate(active),
                LockMode::Shared,
                &[],
                LockDuration::Long
            )
            .is_granted());

        // Inserting an active employee conflicts…
        let new_active = Row::new().with("active", true);
        let blocked = lm.try_acquire(
            TxnToken(2),
            LockTarget::item("employees", RowId(5)),
            LockMode::Exclusive,
            std::slice::from_ref(&new_active),
            LockDuration::Long,
        );
        assert_eq!(blocked.blockers(), &[TxnToken(1)]);

        // …but an inactive one does not.
        let inactive = Row::new().with("active", false);
        assert!(lm
            .try_acquire(
                TxnToken(2),
                LockTarget::item("employees", RowId(6)),
                LockMode::Exclusive,
                std::slice::from_ref(&inactive),
                LockDuration::Long,
            )
            .is_granted());
    }

    #[test]
    fn item_lock_blocks_matching_predicate_no_matter_the_shard() {
        // The phantom-prevention direction across shards: an exclusive item
        // lock (a write in flight) must block a predicate read even though
        // the predicate lives in the per-table domain and the item lock in
        // whatever shard its row hashed to.
        for shards in [1, 3, 16] {
            let lm = LockManager::with_shards(shards);
            let matching = Row::new().with("active", true);
            for row in 0..8 {
                assert!(lm
                    .try_acquire(
                        TxnToken(1),
                        LockTarget::item("employees", RowId(row)),
                        LockMode::Exclusive,
                        std::slice::from_ref(&matching),
                        LockDuration::Long,
                    )
                    .is_granted());
            }
            let active = RowPredicate::new("employees", Condition::eq("active", true));
            let blocked = lm.try_acquire(
                TxnToken(2),
                LockTarget::predicate(active),
                LockMode::Shared,
                &[],
                LockDuration::Long,
            );
            assert_eq!(blocked.blockers(), &[TxnToken(1)], "shards={shards}");
        }
    }

    #[test]
    fn disjoint_range_predicate_locks_grant_concurrently() {
        use critique_storage::Comparison;
        let lm = LockManager::new();
        let low = RowPredicate::new("tasks", Condition::compare("hours", Comparison::Lt, 5));
        let high = RowPredicate::new("tasks", Condition::compare("hours", Comparison::Gt, 100));
        // Both writers lock their own range exclusively: disjoint intervals
        // on the same table must not block each other.
        assert!(lm
            .try_acquire(
                TxnToken(1),
                LockTarget::predicate(low),
                LockMode::Exclusive,
                &[],
                LockDuration::Long
            )
            .is_granted());
        assert!(lm
            .try_acquire(
                TxnToken(2),
                LockTarget::predicate(high),
                LockMode::Exclusive,
                &[],
                LockDuration::Long
            )
            .is_granted());
        // An overlapping range still conflicts with both.
        let overlap = RowPredicate::new("tasks", Condition::compare("hours", Comparison::Ge, 0));
        let blocked = lm.try_acquire(
            TxnToken(3),
            LockTarget::predicate(overlap),
            LockMode::Exclusive,
            &[],
            LockDuration::Long,
        );
        let mut blockers = blocked.blockers().to_vec();
        blockers.sort_unstable();
        assert_eq!(blockers, vec![TxnToken(1), TxnToken(2)]);
        // And the conservative whole-table fallback conflicts too.
        let whole = lm.try_acquire(
            TxnToken(4),
            LockTarget::predicate(RowPredicate::whole_table("tasks")),
            LockMode::Exclusive,
            &[],
            LockDuration::Long,
        );
        assert!(!whole.is_granted());
        lm.release_all(TxnToken(1));
        lm.release_all(TxnToken(2));
        assert!(lm
            .try_acquire(
                TxnToken(4),
                LockTarget::predicate(RowPredicate::whole_table("tasks")),
                LockMode::Exclusive,
                &[],
                LockDuration::Long,
            )
            .is_granted());
    }

    #[test]
    fn bounded_predicate_lock_still_blocks_matching_item_writes() {
        use critique_storage::Comparison;
        let lm = LockManager::new();
        let low = RowPredicate::new("tasks", Condition::compare("hours", Comparison::Lt, 5));
        assert!(lm
            .try_acquire(
                TxnToken(1),
                LockTarget::predicate(low),
                LockMode::Exclusive,
                &[],
                LockDuration::Long
            )
            .is_granted());
        // A write whose image falls inside the locked interval conflicts…
        let inside = Row::new().with("hours", 3);
        let blocked = lm.try_acquire(
            TxnToken(2),
            LockTarget::item("tasks", RowId(1)),
            LockMode::Exclusive,
            std::slice::from_ref(&inside),
            LockDuration::Long,
        );
        assert_eq!(blocked.blockers(), &[TxnToken(1)]);
        // …one outside the interval does not.
        let outside = Row::new().with("hours", 50);
        assert!(lm
            .try_acquire(
                TxnToken(2),
                LockTarget::item("tasks", RowId(2)),
                LockMode::Exclusive,
                std::slice::from_ref(&outside),
                LockDuration::Long,
            )
            .is_granted());
    }

    #[test]
    fn blocking_acquire_times_out() {
        let lm = LockManager::new();
        lm.try_acquire(
            TxnToken(1),
            item(0),
            LockMode::Exclusive,
            &[],
            LockDuration::Long,
        );
        let err = lm
            .acquire(
                TxnToken(2),
                item(0),
                LockMode::Shared,
                &[],
                LockDuration::Long,
                Duration::from_millis(30),
            )
            .unwrap_err();
        assert_eq!(err, AcquireError::Timeout);
        // The timed-out waiter left no queue entry or graph node behind.
        assert_eq!(lm.queued_waiters(), 0);
    }

    #[test]
    fn blocking_acquire_succeeds_when_holder_releases() {
        let lm = Arc::new(LockManager::new());
        lm.try_acquire(
            TxnToken(1),
            item(0),
            LockMode::Exclusive,
            &[],
            LockDuration::Long,
        );

        let lm2 = Arc::clone(&lm);
        let waiter = std::thread::spawn(move || {
            lm2.acquire(
                TxnToken(2),
                item(0),
                LockMode::Shared,
                &[],
                LockDuration::Long,
                Duration::from_secs(5),
            )
        });
        std::thread::sleep(Duration::from_millis(20));
        lm.release_all(TxnToken(1));
        assert_eq!(waiter.join().unwrap(), Ok(()));
        assert!(lm.holds(TxnToken(2), &item(0), LockMode::Shared));
        assert_eq!(lm.queued_waiters(), 0);
    }

    #[test]
    fn direct_handoff_grants_waiters_in_fifo_order() {
        let lm = Arc::new(LockManager::new());
        lm.try_acquire(
            TxnToken(1),
            item(0),
            LockMode::Exclusive,
            &[],
            LockDuration::Long,
        );
        let order = Arc::new(Mutex::new(Vec::<u64>::new()));
        let mut handles = Vec::new();
        // Three exclusive waiters arrive in a staggered, known order.
        for t in [10u64, 11, 12] {
            let lm2 = Arc::clone(&lm);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                lm2.acquire(
                    TxnToken(t),
                    item(0),
                    LockMode::Exclusive,
                    &[],
                    LockDuration::Long,
                    Duration::from_secs(10),
                )
                .unwrap();
                order.lock().push(t);
                lm2.release_all(TxnToken(t));
            }));
            // Wait until the waiter is actually parked before starting the
            // next one, so arrival order is deterministic.
            while lm.queued_waiters() < (t - 9) as usize {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        lm.release_all(TxnToken(1));
        for handle in handles {
            handle.join().unwrap();
        }
        // Each release hands the lock to the longest-waiting request.
        assert_eq!(*order.lock(), vec![10, 11, 12]);
        assert_eq!(lm.queued_waiters(), 0);
        assert_eq!(lm.total_held(), 0);
    }

    #[test]
    fn follower_is_reswept_when_a_held_back_waiter_times_out() {
        // Holder keeps S(x).  W1 requests X(x) with a short deadline and
        // times out; W2 (S(x), compatible with the holder) was FIFO
        // held-back behind W1 and must be granted the moment W1's request
        // vanishes — not at W2's own deadline.
        let lm = Arc::new(LockManager::new());
        lm.try_acquire(
            TxnToken(1),
            item(0),
            LockMode::Shared,
            &[],
            LockDuration::Long,
        );
        let lm1 = Arc::clone(&lm);
        let w1 = std::thread::spawn(move || {
            lm1.acquire(
                TxnToken(2),
                item(0),
                LockMode::Exclusive,
                &[],
                LockDuration::Long,
                Duration::from_millis(100),
            )
        });
        while lm.queued_waiters() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let lm2 = Arc::clone(&lm);
        let start = Instant::now();
        let w2 = std::thread::spawn(move || {
            lm2.acquire(
                TxnToken(3),
                item(0),
                LockMode::Shared,
                &[],
                LockDuration::Long,
                Duration::from_secs(30),
            )
        });
        assert_eq!(w1.join().unwrap(), Err(AcquireError::Timeout));
        assert_eq!(w2.join().unwrap(), Ok(()));
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "W2 slept to its deadline: the retire did not re-sweep"
        );
        assert!(lm.holds(TxnToken(3), &item(0), LockMode::Shared));
    }

    #[test]
    fn deadlock_victim_is_the_cycle_closer() {
        let lm = Arc::new(LockManager::new());
        // T1 holds x, T2 holds y.
        lm.try_acquire(
            TxnToken(1),
            item(0),
            LockMode::Exclusive,
            &[],
            LockDuration::Long,
        );
        lm.try_acquire(
            TxnToken(2),
            item(1),
            LockMode::Exclusive,
            &[],
            LockDuration::Long,
        );

        // T1 waits for y on another thread; T2 then requests x, closing
        // the cycle — so T2 is the victim.
        let lm1 = Arc::clone(&lm);
        let t1 = std::thread::spawn(move || {
            lm1.acquire(
                TxnToken(1),
                item(1),
                LockMode::Exclusive,
                &[],
                LockDuration::Long,
                Duration::from_secs(5),
            )
        });
        while lm.queued_waiters() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let result = lm.acquire(
            TxnToken(2),
            item(0),
            LockMode::Exclusive,
            &[],
            LockDuration::Long,
            Duration::from_secs(5),
        );
        let Err(AcquireError::Deadlock { cycle }) = result else {
            panic!("expected a deadlock verdict, got {result:?}");
        };
        // The cycle is reported from the victim's own request: it starts
        // and ends with the cycle-closing transaction.
        assert_eq!(cycle.first(), Some(&TxnToken(2)));
        assert_eq!(cycle.last(), Some(&TxnToken(2)));
        assert!(cycle.contains(&TxnToken(1)));
        // After the victim aborts (releases its locks), T1 proceeds.
        lm.release_all(TxnToken(2));
        assert_eq!(t1.join().unwrap(), Ok(()));
    }

    #[test]
    fn upgrade_deadlock_is_detected_at_the_second_request() {
        let lm = Arc::new(LockManager::new());
        // Both transactions hold shared locks on the same item.
        for t in [1u64, 2] {
            assert!(lm
                .try_acquire(
                    TxnToken(t),
                    item(0),
                    LockMode::Shared,
                    &[],
                    LockDuration::Long
                )
                .is_granted());
        }
        // T1 requests the upgrade first and parks; T2's upgrade then
        // closes the cycle and is refused on the spot.
        let lm1 = Arc::clone(&lm);
        let t1 = std::thread::spawn(move || {
            lm1.acquire(
                TxnToken(1),
                item(0),
                LockMode::Exclusive,
                &[],
                LockDuration::Long,
                Duration::from_secs(5),
            )
        });
        while lm.queued_waiters() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let result = lm.acquire(
            TxnToken(2),
            item(0),
            LockMode::Exclusive,
            &[],
            LockDuration::Long,
            Duration::from_secs(5),
        );
        assert!(matches!(result, Err(AcquireError::Deadlock { .. })));
        lm.release_all(TxnToken(2));
        assert_eq!(t1.join().unwrap(), Ok(()));
        assert!(lm.holds(TxnToken(1), &item(0), LockMode::Exclusive));
    }

    #[test]
    fn shared_waiters_are_granted_together_but_never_past_a_writer() {
        let lm = Arc::new(LockManager::new());
        lm.try_acquire(
            TxnToken(1),
            item(0),
            LockMode::Exclusive,
            &[],
            LockDuration::Long,
        );
        // Queue: X(2), then S(3), S(4).  FIFO holds the readers behind
        // the writer even though they are compatible with each other.
        let mut handles = Vec::new();
        let order = Arc::new(Mutex::new(Vec::<u64>::new()));
        for (t, mode) in [
            (2u64, LockMode::Exclusive),
            (3, LockMode::Shared),
            (4, LockMode::Shared),
        ] {
            let lm2 = Arc::clone(&lm);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                lm2.acquire(
                    TxnToken(t),
                    item(0),
                    mode,
                    &[],
                    LockDuration::Long,
                    Duration::from_secs(10),
                )
                .unwrap();
                order.lock().push(t);
            }));
            while lm.queued_waiters() < (t - 1) as usize {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        lm.release_all(TxnToken(1));
        // The writer is granted alone first…
        while order.lock().first().copied() != Some(2) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(lm.queued_waiters(), 2, "readers held behind the writer");
        // …and its release grants both readers in one sweep.
        lm.release_all(TxnToken(2));
        for handle in handles {
            handle.join().unwrap();
        }
        let granted = order.lock().clone();
        assert_eq!(granted[0], 2);
        assert_eq!(lm.queued_waiters(), 0);
        assert!(lm.holds(TxnToken(3), &item(0), LockMode::Shared));
        assert!(lm.holds(TxnToken(4), &item(0), LockMode::Shared));
    }

    #[test]
    fn fast_path_overtakes_a_parked_writer() {
        let lm = Arc::new(LockManager::new());
        lm.try_acquire(
            TxnToken(1),
            item(0),
            LockMode::Shared,
            &[],
            LockDuration::Long,
        );
        let lm2 = Arc::clone(&lm);
        let writer = std::thread::spawn(move || {
            lm2.acquire(
                TxnToken(2),
                item(0),
                LockMode::Exclusive,
                &[],
                LockDuration::Long,
                Duration::from_secs(10),
            )
        });
        while lm.queued_waiters() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // A fresh reader is compatible with the held S and is granted
        // straight past the parked writer.
        lm.acquire(
            TxnToken(3),
            item(0),
            LockMode::Shared,
            &[],
            LockDuration::Long,
            Duration::from_secs(1),
        )
        .unwrap();
        assert!(lm.holds(TxnToken(3), &item(0), LockMode::Shared));
        lm.release_all(TxnToken(3));
        lm.release_all(TxnToken(1));
        assert_eq!(writer.join().unwrap(), Ok(()));
    }
}
