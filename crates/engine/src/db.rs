//! The database facade: one storage engine + one concurrency control
//! discipline + one recorded history.
//!
//! The storage engine is chosen by [`EngineConfig::with_backend`] and held
//! as a [`StorageBackend`] trait object: every scheduler in
//! [`crate::txn`] is backend-agnostic, and the isolation guarantees it
//! enforces must not depend on how versions are represented.

use crate::config::EngineConfig;
use crate::recorder::HistoryRecorder;
use crate::txn::Transaction;
use crate::watch::{WatchHub, Watcher};
use critique_core::locking::LockProfile;
use critique_core::IsolationLevel;
use critique_history::History;
use critique_lock::LockManager;
use critique_storage::{
    Condition, LowWaterMark, MvReadStats, MvStore, Row, RowId, RowPredicate, StorageBackend,
    Timestamp, TimestampOracle, TxnToken,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Who can still read what: the Start-Timestamps of the live multiversion
/// transactions, and the store's pruning horizon they hold back.
///
/// Section 4.2 lets a Snapshot Isolation transaction run "as long as the
/// snapshot data from its Start-Timestamp can be maintained"; this
/// registry is what maintains it.  Snapshot Isolation and Oracle Read
/// Consistency transactions are entered for their whole lifetime (every
/// Read Consistency statement timestamp is at or after the transaction's
/// start, so the start covers them all).  The locking levels read only
/// the chain head and are never entered, so with none of the others alive
/// the mark follows the clock and every chain collapses to the versions a
/// rollback or the next commit still needs.
pub(crate) struct ActiveSnapshots {
    /// A multiset, one entry per live transaction — a handful, so a
    /// vector that keeps its capacity beats an ordered map that allocates.
    starts: Mutex<Vec<Timestamp>>,
    /// The [`MvStore`]'s low-water mark; `None` on a backend that does
    /// not prune.
    mark: Option<Arc<LowWaterMark>>,
}

impl ActiveSnapshots {
    fn new(store: &dyn StorageBackend) -> Self {
        ActiveSnapshots {
            starts: Mutex::new(Vec::new()),
            // The same `as_any` route as `Database::mv_read_stats`: it
            // passes through decorators that forward `as_any`, which a
            // new `StorageBackend` method would not.
            mark: store
                .as_any()
                .downcast_ref::<MvStore>()
                .map(MvStore::low_water_mark),
        }
    }

    /// Take a snapshot: read the clock and enter the timestamp in one
    /// critical section.  [`ActiveSnapshots::publish_mark`] reads the
    /// clock inside the same mutex, so a mark is either computed after
    /// this entry (and sees it) or before it — and then this snapshot's
    /// timestamp, read later from a monotonic clock, is at or above that
    /// mark.  A snapshot can never lose its data to a committer that
    /// computed the mark in between.
    pub(crate) fn begin(&self, clock: &TimestampOracle) -> Timestamp {
        let mut starts = self.starts.lock();
        let start = clock.current();
        starts.push(start);
        start
    }

    fn remove(starts: &mut Vec<Timestamp>, start: Timestamp) {
        let at = starts
            .iter()
            .position(|s| *s == start)
            .expect("a snapshot is entered at begin and left exactly once");
        starts.swap_remove(at);
    }

    /// Leave without committing: the transaction that took `start` rolled
    /// back and will read no more.
    pub(crate) fn end(&self, start: Timestamp) {
        Self::remove(&mut self.starts.lock(), start);
    }

    /// Advance the store's mark to `min(oldest live snapshot, the clock)`.
    /// Every committer calls this after publishing its timestamp, still
    /// inside the commit sequence; a multiversion committer passes its own
    /// snapshot as `leaving` — it has done its last read — so that a lone
    /// writer's mark keeps up with its own commits.
    pub(crate) fn publish_mark(&self, clock: &TimestampOracle, leaving: Option<Timestamp>) {
        let Some(mark) = &self.mark else {
            // Nothing prunes on this backend; only the entry matters.
            if let Some(start) = leaving {
                self.end(start);
            }
            return;
        };
        let horizon = {
            let mut starts = self.starts.lock();
            if let Some(start) = leaving {
                Self::remove(&mut starts, start);
            }
            let now = clock.current();
            starts
                .iter()
                .copied()
                .min()
                .map_or(now, |oldest| oldest.min(now))
        };
        mark.advance(horizon);
    }
}

pub(crate) struct DbInner {
    pub(crate) config: EngineConfig,
    pub(crate) profile: Option<LockProfile>,
    pub(crate) store: Box<dyn StorageBackend>,
    pub(crate) locks: LockManager,
    pub(crate) ts: TimestampOracle,
    pub(crate) recorder: HistoryRecorder,
    /// Serialises the commit sequence (validate → reserve timestamp →
    /// stamp chains → publish).  With the store sharded, stamping is no
    /// longer atomic on its own; holding this lock across reserve+stamp
    /// keeps commits atomically visible to snapshot readers (publication
    /// happens only after every chain is stamped, in timestamp order) and
    /// makes the Snapshot Isolation First-Committer-Wins check atomic with
    /// the commit it guards.  Reads, writes, and aborts never take it.
    pub(crate) commit_seq: Mutex<()>,
    /// Commit-time change notification: the subscription registry and the
    /// durable-prefix staging queue.  The commit path stages change-sets
    /// under [`DbInner::commit_seq`] (so staging order is commit-timestamp
    /// order) and publishes them only after
    /// [`StorageBackend::flush_commit`] returns.
    pub(crate) watch: WatchHub,
    /// The live multiversion snapshots and the pruning horizon they hold.
    pub(crate) snapshots: ActiveSnapshots,
    next_txn: AtomicU64,
}

/// A database instance running every transaction at one isolation level.
///
/// `Database` is cheap to clone (it is an `Arc` underneath) and safe to
/// share across threads; the threaded benchmark drivers clone one instance
/// into each worker.
#[derive(Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

impl Database {
    /// Create a database running at `level` with the default configuration
    /// (non-blocking lock waits, history recording on).
    pub fn new(level: IsolationLevel) -> Self {
        Self::with_config(EngineConfig::new(level))
    }

    /// Create a database with an explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        // The only place a concrete backend is named is behind this
        // `BackendKind` constructor.
        let store = config.backend.build(
            config.shards,
            config.read_path,
            config.durability,
            config.group_commit,
        );
        Self::with_store(config, store)
    }

    /// Create a database over an existing storage backend — the recovery
    /// path: [`critique_storage::LogStore::recover`] rebuilds the store
    /// from its write-ahead directory, then a fresh database resumes on
    /// top of it.  `config.backend`/`config.durability` are kept for the
    /// record but do not re-build the store.  Callers resuming after a
    /// crash should follow up with [`Database::advance_clock_past`] so new
    /// commits outrank everything recovered.
    pub fn with_store(config: EngineConfig, store: Box<dyn StorageBackend>) -> Self {
        Database {
            inner: Arc::new(DbInner {
                profile: LockProfile::for_level(config.level),
                snapshots: ActiveSnapshots::new(&*store),
                store,
                locks: LockManager::with_shards(config.shards),
                ts: TimestampOracle::new(),
                recorder: HistoryRecorder::with_shards(config.record_history, config.shards),
                watch: WatchHub::new(),
                commit_seq: Mutex::new(()),
                next_txn: AtomicU64::new(1),
                config,
            }),
        }
    }

    /// Advance the timestamp oracle past `ts` (never backwards): recovery
    /// harnesses pass a recovered store's
    /// [`critique_storage::LogStore::last_commit_ts`] so the resumed clock
    /// outranks every recovered commit.
    pub fn advance_clock_past(&self, ts: critique_storage::Timestamp) {
        self.inner.ts.advance_past(ts);
    }

    /// The isolation level of this database.
    pub fn level(&self) -> IsolationLevel {
        self.inner.config.level
    }

    /// The configuration of this database.
    pub fn config(&self) -> EngineConfig {
        self.inner.config
    }

    /// Begin a new transaction.
    pub fn begin(&self) -> Transaction {
        // Relaxed: this counter is a pure id allocator.  `fetch_add` is
        // atomic at any ordering, so tokens are unique (and monotonic in
        // the counter's own modification order, which is all deadlock
        // victim selection needs); nothing synchronises *through* the
        // token, so no acquire/release edges are required.
        let token = TxnToken(self.inner.next_txn.fetch_add(1, Ordering::Relaxed));
        Transaction::new(Arc::clone(&self.inner), token)
    }

    /// The history of operations executed so far (across all transactions).
    pub fn recorded_history(&self) -> History {
        self.inner.recorder.history()
    }

    /// Forget the recorded history (useful between scenario phases; setup
    /// transactions would otherwise pollute phenomenon analysis).
    pub fn clear_history(&self) {
        self.inner.recorder.clear();
    }

    /// Read the latest committed version of a row, outside any transaction
    /// (used by workloads to check final state and constraints).
    pub fn read_committed(&self, table: &str, row: RowId) -> Option<Row> {
        self.inner.store.get_latest_committed(table, row)
    }

    /// Scan the latest committed rows matching a predicate, outside any
    /// transaction.
    pub fn scan_committed(&self, predicate: &RowPredicate) -> Vec<(RowId, Row)> {
        self.inner.store.scan_latest_committed(predicate)
    }

    /// Sum an integer column over the latest committed rows matching a
    /// predicate.
    pub fn sum_committed(&self, predicate: &RowPredicate, column: &str) -> i64 {
        self.scan_committed(predicate)
            .iter()
            .filter_map(|(_, row)| row.get_int(column))
            .sum()
    }

    /// Count the latest committed rows matching a predicate.
    pub fn count_committed(&self, predicate: &RowPredicate) -> usize {
        self.scan_committed(predicate).len()
    }

    /// Direct access to the underlying storage backend (read-only uses in
    /// tests and benches; transactions should go through
    /// [`Database::begin`]).
    pub fn store(&self) -> &dyn StorageBackend {
        &*self.inner.store
    }

    /// Number of locks currently held across all transactions.
    pub fn locks_held(&self) -> usize {
        self.inner.locks.total_held()
    }

    /// The [`MvStore`] read-path counters (stripe-lock acquisitions, epoch
    /// pins) of the store this database runs on — `None` on any other
    /// backend.  The workload drivers assert through this that a
    /// read-only run under the epoch path acquires zero stripe locks.
    pub fn mv_read_stats(&self) -> Option<Arc<MvReadStats>> {
        self.store()
            .as_any()
            .downcast_ref::<MvStore>()
            .map(MvStore::read_stats)
    }

    // ------------------------------------------------------------------
    // Commit-time change notification.
    // ------------------------------------------------------------------

    /// Watch one row: the returned [`Watcher`] receives one
    /// [`crate::watch::ChangeEvent`] per commit that changes `row`, with
    /// the committed before/after images and the commit timestamp, in
    /// commit order.  Aborted transactions never notify (see
    /// [`crate::watch`] for the isolation semantics).
    pub fn watch_key(&self, table: &str, row: RowId) -> Watcher {
        self.inner.watch.watch_key(table, row)
    }

    /// Watch every row of a table.  Each commit touching the table
    /// produces exactly one event carrying all of its in-table changes.
    pub fn watch_table(&self, table: &str) -> Watcher {
        self.inner.watch.watch_table(table)
    }

    /// Watch the rows of `table` matching `condition`.  A commit notifies
    /// when a changed row matches in its before *or* after image (so
    /// rows entering and leaving the predicate both fire), using the same
    /// [`Condition`] → [`critique_storage::KeyInterval`] extraction the
    /// interval predicate locks use to prune non-candidates cheaply.
    pub fn watch_predicate(&self, table: &str, condition: Condition) -> Watcher {
        self.inner.watch.watch_predicate(table, condition)
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("level", &self.inner.config.level)
            .field("lock_wait", &self.inner.config.lock_wait)
            .field("backend", &self.inner.store.backend_name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_hands_out_distinct_tokens() {
        let db = Database::new(IsolationLevel::Serializable);
        let t1 = db.begin();
        let t2 = db.begin();
        assert_ne!(t1.token(), t2.token());
        assert_eq!(db.level(), IsolationLevel::Serializable);
    }

    #[test]
    fn committed_readers_see_committed_data_only() {
        let db = Database::new(IsolationLevel::ReadCommitted);
        let t1 = db.begin();
        let id = t1
            .insert("accounts", Row::new().with("balance", 10))
            .unwrap();
        assert!(db.read_committed("accounts", id).is_none());
        t1.commit().unwrap();
        assert_eq!(
            db.read_committed("accounts", id)
                .unwrap()
                .get_int("balance"),
            Some(10)
        );
        let all = RowPredicate::whole_table("accounts");
        assert_eq!(db.sum_committed(&all, "balance"), 10);
        assert_eq!(db.count_committed(&all), 1);
    }

    #[test]
    fn clear_history_resets_recording() {
        let db = Database::new(IsolationLevel::Serializable);
        let t = db.begin();
        t.insert("t", Row::new().with("value", 1)).unwrap();
        t.commit().unwrap();
        assert!(!db.recorded_history().is_empty());
        db.clear_history();
        assert!(db.recorded_history().is_empty());
    }

    #[test]
    fn every_backend_serves_the_same_facade() {
        use crate::config::BackendKind;
        for backend in BackendKind::ALL {
            let db = Database::with_config(
                EngineConfig::new(IsolationLevel::Serializable).with_backend(backend),
            );
            assert_eq!(db.store().backend_name(), backend.label());
            let t1 = db.begin();
            let id = t1
                .insert("accounts", Row::new().with("balance", 10))
                .unwrap();
            t1.commit().unwrap();
            let all = RowPredicate::whole_table("accounts");
            assert_eq!(db.sum_committed(&all, "balance"), 10, "{backend}");
            assert_eq!(
                db.read_committed("accounts", id)
                    .unwrap()
                    .get_int("balance"),
                Some(10),
                "{backend}"
            );
            assert!(format!("{db:?}").contains(backend.label()));
        }
    }

    #[test]
    fn an_injected_mvstore_reports_its_read_pins() {
        let db = Database::with_store(
            EngineConfig::new(IsolationLevel::SnapshotIsolation),
            Box::new(MvStore::new()),
        );
        let stats = db
            .mv_read_stats()
            .expect("the counters travel with the store");
        let setup = db.begin();
        let id = setup.insert("t", Row::new().with("value", 1)).unwrap();
        setup.commit().unwrap();
        let before = stats.read_pins();
        let reader = db.begin();
        reader.read("t", id).unwrap();
        reader.commit().unwrap();
        assert!(stats.read_pins() > before, "the read pinned an epoch");

        let log = Database::with_config(
            EngineConfig::new(IsolationLevel::SnapshotIsolation)
                .with_backend(crate::config::BackendKind::LogStructured),
        );
        assert!(log.mv_read_stats().is_none());
    }

    #[test]
    fn cloned_handles_share_state() {
        let db = Database::new(IsolationLevel::SnapshotIsolation);
        let db2 = db.clone();
        let t = db.begin();
        let id = t.insert("t", Row::new().with("value", 7)).unwrap();
        t.commit().unwrap();
        assert_eq!(
            db2.read_committed("t", id).unwrap().get_int("value"),
            Some(7)
        );
        assert_eq!(db2.locks_held(), 0);
        assert!(format!("{db2:?}").contains("SnapshotIsolation"));
    }
}
