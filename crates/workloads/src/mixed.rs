//! A randomised, multi-threaded mixed workload.
//!
//! Section 4.2 of the paper argues qualitatively about Snapshot Isolation's
//! "optimistic" behaviour: read-only transactions never block and are never
//! blocked, readers do not block updates, but long-running update
//! transactions competing with short high-contention updates are likely to
//! lose First-Committer-Wins races and abort.  [`MixedWorkload`] provides a
//! parameterised workload (read/write mix, contention level, transaction
//! length, thread count) whose [`WorkloadStats`] make those claims
//! measurable; the `si_vs_locking` benchmark sweeps it across isolation
//! levels.

use critique_core::IsolationLevel;
use critique_engine::{
    BackendKind, Database, Durability, EngineConfig, GroupCommit, ReadPath, TxnError,
};
use critique_storage::{KeyInterval, Row, RowId, RowPredicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Parameters of the mixed workload.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MixedWorkload {
    /// Number of rows in the `accounts` table.
    pub accounts: usize,
    /// Fraction of transactions that only read.
    pub read_fraction: f64,
    /// Number of row operations per transaction.
    pub ops_per_txn: usize,
    /// Fraction of accesses directed at a single "hot" row (contention).
    pub hot_fraction: f64,
    /// Transactions issued by each worker thread.
    pub txns_per_thread: usize,
    /// Number of worker threads.
    pub threads: usize,
    /// Random seed (the workload is deterministic given the seed and the
    /// thread interleaving).
    pub seed: u64,
    /// Storage backend handed to [`EngineConfig::with_backend`]: the
    /// sharded version-chain store by default, or the log-structured
    /// engine.
    pub backend: BackendKind,
    /// Fraction of row operations issued as *range scans* over the
    /// ordered `bucket` index instead of point accesses.  Range reads go
    /// through [`critique_engine::Transaction::read_range`] (or the
    /// `FOR UPDATE` variant in update transactions), exercising the
    /// interval predicate locks at the locking levels.  `0.0` keeps the
    /// workload point-only.
    pub range_fraction: f64,
    /// Storage read discipline handed to
    /// [`EngineConfig::with_read_path`]: the epoch-pinned lock-free path
    /// (default), or the stripe-read-lock path.  Only the default backend
    /// honours it.
    pub read_path: ReadPath,
    /// Storage durability handed to [`EngineConfig::with_durability`]:
    /// ephemeral (default), or fsync'd write-ahead persistence on the
    /// log-structured backend.
    pub durability: Durability,
    /// Commit fsync scheduling handed to
    /// [`EngineConfig::with_group_commit`]: one fsync per writing commit
    /// (default), or batched behind a group-commit leader.  Only a
    /// durable log-structured backend honours it.
    pub group_commit: GroupCommit,
    /// Number of commit-time table watchers registered on `accounts`
    /// before the run (`0` = none).  With watchers attached, every
    /// committed writing transaction fans one [`critique_engine::ChangeEvent`]
    /// out to all of them on the commit path, and the run asserts the
    /// delivery contract afterwards: every watcher saw the same number of
    /// events, in strictly increasing commit-timestamp order.
    pub watchers: usize,
}

impl Default for MixedWorkload {
    fn default() -> Self {
        MixedWorkload {
            accounts: 64,
            read_fraction: 0.5,
            ops_per_txn: 4,
            hot_fraction: 0.2,
            txns_per_thread: 200,
            threads: 4,
            seed: 42,
            backend: BackendKind::default(),
            range_fraction: 0.0,
            read_path: ReadPath::default(),
            durability: Durability::default(),
            group_commit: GroupCommit::default(),
            watchers: 0,
        }
    }
}

/// Aggregate statistics from a workload run.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct WorkloadStats {
    /// Transactions that committed.
    pub committed: u64,
    /// Aborts caused by First-Committer-Wins (Snapshot Isolation).
    pub aborted_first_committer: u64,
    /// Aborts caused by deadlock victimhood.
    pub aborted_deadlock: u64,
    /// Aborts caused by lock-wait timeouts.
    pub aborted_timeout: u64,
    /// Reads executed (committed or not).
    pub reads: u64,
    /// Writes executed (committed or not).
    pub writes: u64,
    /// Change notifications each attached watcher received (`0` when the
    /// run had no watchers).  Every watcher of a run sees the same count —
    /// the run asserts it — so one number describes them all.
    pub notifications: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl WorkloadStats {
    /// Total aborted transactions.
    pub fn aborted(&self) -> u64 {
        self.aborted_first_committer + self.aborted_deadlock + self.aborted_timeout
    }

    /// Total attempted transactions.
    pub fn attempted(&self) -> u64 {
        self.committed + self.aborted()
    }

    /// Fraction of attempted transactions that aborted.
    pub fn abort_rate(&self) -> f64 {
        if self.attempted() == 0 {
            0.0
        } else {
            self.aborted() as f64 / self.attempted() as f64
        }
    }

    /// Committed transactions per second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            self.committed as f64
        } else {
            self.committed as f64 / secs
        }
    }

    fn merge(&mut self, other: &WorkloadStats) {
        self.committed += other.committed;
        self.aborted_first_committer += other.aborted_first_committer;
        self.aborted_deadlock += other.aborted_deadlock;
        self.aborted_timeout += other.aborted_timeout;
        self.reads += other.reads;
        self.writes += other.writes;
    }
}

impl MixedWorkload {
    /// This workload on a different storage backend.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// This workload with a different range-scan mix.
    pub fn with_range_fraction(mut self, range_fraction: f64) -> Self {
        self.range_fraction = range_fraction;
        self
    }

    /// This workload on a different storage read discipline.
    pub fn with_read_path(mut self, read_path: ReadPath) -> Self {
        self.read_path = read_path;
        self
    }

    /// This workload with a different storage durability mode.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// This workload with a different commit fsync scheduling.
    pub fn with_group_commit(mut self, group_commit: GroupCommit) -> Self {
        self.group_commit = group_commit;
        self
    }

    /// This workload with commit-time table watchers attached.
    pub fn with_watchers(mut self, watchers: usize) -> Self {
        self.watchers = watchers;
        self
    }

    /// Seed a database for this workload (every account starts at 100) and
    /// return it together with the row ids.
    pub fn seed_database(&self, level: IsolationLevel) -> (Database, Vec<RowId>) {
        let config = EngineConfig::new(level)
            .blocking(200)
            .without_history()
            .with_backend(self.backend)
            .with_read_path(self.read_path)
            .with_durability(self.durability)
            .with_group_commit(self.group_commit);
        let db = Database::with_config(config);
        // Every account carries an indexed `bucket` key (its seed ordinal)
        // so range operations have an ordered index to scan.
        db.store().create_table("accounts");
        db.store().create_index("accounts", "bucket");
        let setup = db.begin();
        let ids: Vec<RowId> = (0..self.accounts)
            .map(|i| {
                setup
                    .insert(
                        "accounts",
                        Row::new().with("balance", 100).with("bucket", i as i64),
                    )
                    .expect("seed insert")
            })
            .collect();
        setup.commit().expect("seed commit");
        (db, ids)
    }

    fn pick_account<'a>(&self, rng: &mut StdRng, ids: &'a [RowId]) -> &'a RowId {
        if rng.gen_bool(self.hot_fraction.clamp(0.0, 1.0)) {
            &ids[0]
        } else {
            &ids[rng.gen_range(0..ids.len())]
        }
    }

    fn run_one(&self, db: &Database, ids: &[RowId], rng: &mut StdRng, stats: &mut WorkloadStats) {
        let read_only = rng.gen_bool(self.read_fraction.clamp(0.0, 1.0));
        let txn = db.begin();
        let mut failed: Option<TxnError> = None;
        for _ in 0..self.ops_per_txn {
            // A range operation: scan a small bucket window through the
            // ordered index, and in update transactions rewrite the first
            // row it returns (an RMW over the locked interval).
            if self.range_fraction > 0.0 && rng.gen_bool(self.range_fraction.clamp(0.0, 1.0)) {
                let span = (self.accounts / 8).max(1) as i64;
                let lo = rng.gen_range(0..self.accounts) as i64;
                let range = KeyInterval::range(Some(lo), Some(lo + span - 1));
                let scanned = if read_only {
                    txn.read_range("accounts", "bucket", &range)
                } else {
                    txn.read_range_for_update("accounts", "bucket", &range)
                };
                stats.reads += 1;
                match scanned {
                    Ok(rows) => {
                        if !read_only {
                            if let Some((id, row)) = rows.first() {
                                let balance = row.get_int("balance").unwrap_or(100);
                                stats.writes += 1;
                                if let Err(e) = txn.update(
                                    "accounts",
                                    *id,
                                    Row::new().with("balance", balance + 1),
                                ) {
                                    failed = Some(e);
                                    break;
                                }
                            }
                        }
                    }
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
                continue;
            }
            let id = *self.pick_account(rng, ids);
            // An update transaction's read is the RMW pattern: declare the
            // write intent so would-be upgraders serialise at the read.
            let read = if read_only {
                txn.read("accounts", id)
            } else {
                txn.read_for_update("accounts", id)
            };
            stats.reads += 1;
            let balance = match read {
                Ok(row) => row.and_then(|r| r.get_int("balance")).unwrap_or(100),
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            };
            if !read_only {
                let delta: i64 = if rng.gen_bool(0.5) { 1 } else { -1 };
                stats.writes += 1;
                if let Err(e) =
                    txn.update("accounts", id, Row::new().with("balance", balance + delta))
                {
                    failed = Some(e);
                    break;
                }
            }
        }
        let outcome = match failed {
            None => txn.commit(),
            Some(e) => {
                if txn.is_active() {
                    let _ = txn.abort();
                }
                Err(e)
            }
        };
        match outcome {
            Ok(()) => stats.committed += 1,
            Err(TxnError::FirstCommitterConflict { .. }) => stats.aborted_first_committer += 1,
            Err(TxnError::Deadlock) => stats.aborted_deadlock += 1,
            Err(TxnError::LockTimeout) => stats.aborted_timeout += 1,
            Err(_) => stats.aborted_timeout += 1,
        }
    }

    /// Run the workload against a fresh database at `level`, using real
    /// threads and the blocking lock-wait policy.
    pub fn run(&self, level: IsolationLevel) -> WorkloadStats {
        let (db, ids) = self.seed_database(level);
        self.run_seeded(&db, &ids)
    }

    /// Run the workload's worker threads against an already-seeded
    /// database.  Split out of [`MixedWorkload::run`] so callers that need
    /// to inspect the database afterwards (the epoch read-path tests check
    /// [`Database::mv_read_stats`]) can keep hold of it.
    pub fn run_seeded(&self, db: &Database, ids: &[RowId]) -> WorkloadStats {
        // Fan-out mode: attach the table watchers before any worker
        // commits, so every watcher observes the identical stream.
        let watchers: Vec<_> = (0..self.watchers)
            .map(|_| db.watch_table("accounts"))
            .collect();
        let start = Instant::now();
        let mut totals = WorkloadStats::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|worker| {
                    let spec = *self;
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_add(worker as u64));
                        let mut stats = WorkloadStats::default();
                        for _ in 0..spec.txns_per_thread {
                            spec.run_one(db, ids, &mut rng, &mut stats);
                        }
                        stats
                    })
                })
                .collect();
            for handle in handles {
                totals.merge(&handle.join().expect("worker thread"));
            }
        });
        totals.elapsed = start.elapsed();
        // The delivery contract, asserted on every watched run: strictly
        // increasing commit timestamps, one event per notifying commit
        // (never more events than commits), and every watcher fanned the
        // same stream length.
        if let Some((first, rest)) = watchers.split_first() {
            let events = first.drain();
            for pair in events.windows(2) {
                assert!(
                    pair[0].commit_ts < pair[1].commit_ts,
                    "watcher delivery out of commit-timestamp order"
                );
            }
            assert!(
                events.len() as u64 <= totals.committed,
                "more notifications than committed transactions"
            );
            for other in rest {
                assert_eq!(
                    other.pending(),
                    events.len(),
                    "fan-out watchers must all see the same stream"
                );
            }
            totals.notifications = events.len() as u64;
        }
        totals
    }

    /// Run a long read-only "audit" transaction (summing every account)
    /// while `writers` short update transactions run to completion, and
    /// report whether the audit had to wait or abort.  This is the
    /// Section 4.2 claim that SI never blocks read-only transactions.
    pub fn long_reader_probe(&self, level: IsolationLevel) -> (bool, i64) {
        let (db, ids) = self.seed_database(level);
        let all = RowPredicate::whole_table("accounts");
        let expected: i64 = 100 * self.accounts as i64;

        let reader = db.begin();
        // Interleave: read half the table, let writers run, read the rest.
        let mut total = 0i64;
        let mut blocked = false;
        for id in ids.iter().take(self.accounts / 2) {
            match reader.read("accounts", *id) {
                Ok(row) => total += row.and_then(|r| r.get_int("balance")).unwrap_or(0),
                Err(_) => blocked = true,
            }
        }
        for id in ids.iter().skip(self.accounts / 2).take(4) {
            let w = db.begin();
            if let Ok(Some(row)) = w.read("accounts", *id) {
                let b = row.get_int("balance").unwrap_or(100);
                let _ = w.update("accounts", *id, Row::new().with("balance", b + 10));
            }
            let _ = w.commit();
        }
        for id in ids.iter().skip(self.accounts / 2) {
            match reader.read("accounts", *id) {
                Ok(row) => total += row.and_then(|r| r.get_int("balance")).unwrap_or(0),
                Err(_) => blocked = true,
            }
        }
        let _ = reader.commit();
        let _ = all;
        (blocked, total - expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MixedWorkload {
        MixedWorkload {
            accounts: 16,
            read_fraction: 0.5,
            ops_per_txn: 3,
            hot_fraction: 0.3,
            txns_per_thread: 30,
            threads: 3,
            seed: 7,
            ..MixedWorkload::default()
        }
    }

    #[test]
    fn workload_completes_on_every_backend() {
        for backend in BackendKind::ALL {
            let stats = small()
                .with_backend(backend)
                .run(IsolationLevel::Serializable);
            assert_eq!(stats.attempted(), 90, "{backend}");
            assert!(stats.committed > 0, "{backend}");
        }
    }

    #[test]
    fn durable_logstore_workload_completes() {
        let stats = small()
            .with_backend(BackendKind::LogStructured)
            .with_durability(Durability::Fsync)
            .run(IsolationLevel::Serializable);
        assert_eq!(stats.attempted(), 90);
        assert!(stats.committed > 0);
    }

    #[test]
    fn group_commit_workload_completes_durably() {
        let stats = small()
            .with_backend(BackendKind::LogStructured)
            .with_durability(Durability::Fsync)
            .with_group_commit(GroupCommit::On { window_micros: 100 })
            .run(IsolationLevel::Serializable);
        assert_eq!(stats.attempted(), 90);
        assert!(stats.committed > 0);
    }

    #[test]
    fn hot_key_rmw_workload_has_zero_deadlocks() {
        // Pure RMW traffic on one hot row: the U locks taken by
        // `read_for_update` serialise the would-be upgraders at the read,
        // so no deadlock is possible (a cycle would need either an upgrade
        // collision — impossible, only one U holder at a time — or a
        // second lock, and there is none).
        let mut spec = small();
        spec.read_fraction = 0.0;
        spec.hot_fraction = 1.0;
        let stats = spec.run(IsolationLevel::Serializable);
        assert_eq!(stats.attempted(), 90);
        assert_eq!(stats.aborted_deadlock, 0);
        assert!(stats.committed > 0);
    }

    #[test]
    fn range_mix_completes_on_every_backend_and_level() {
        let spec = small().with_range_fraction(0.4);
        for backend in BackendKind::ALL {
            for level in [
                IsolationLevel::ReadCommitted,
                IsolationLevel::SnapshotIsolation,
                IsolationLevel::Serializable,
            ] {
                let stats = spec.with_backend(backend).run(level);
                assert_eq!(stats.attempted(), 90, "{backend} at {level}");
                assert!(stats.committed > 0, "{backend} at {level}");
            }
        }
    }

    #[test]
    fn workload_completes_at_every_level() {
        for level in [
            IsolationLevel::ReadCommitted,
            IsolationLevel::RepeatableRead,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::Serializable,
        ] {
            let stats = small().run(level);
            assert_eq!(stats.attempted(), 90, "at {level}");
            assert!(stats.committed > 0, "at {level}");
            assert!(stats.reads > 0);
        }
    }

    #[test]
    fn fanout_watchers_all_observe_the_same_stream() {
        // A single write-only worker with a fleet of watchers: every
        // committed transaction must notify every watcher (the in-run
        // assertions check ordering and stream equality; here we check
        // the count is exact, since with one worker every commit writes).
        let mut spec = small();
        spec.read_fraction = 0.0;
        spec.threads = 1;
        let stats = spec.with_watchers(16).run(IsolationLevel::Serializable);
        assert_eq!(stats.attempted(), 30);
        assert_eq!(stats.notifications, stats.committed);
    }

    #[test]
    fn unwatched_runs_record_zero_notifications() {
        let stats = small().run(IsolationLevel::Serializable);
        assert_eq!(stats.notifications, 0);
    }

    #[test]
    fn snapshot_isolation_aborts_are_first_committer_wins_only() {
        let mut spec = small();
        spec.read_fraction = 0.0;
        spec.hot_fraction = 0.9; // heavy contention on one row
        let stats = spec.run(IsolationLevel::SnapshotIsolation);
        // Snapshot Isolation takes no locks, so the only abort reason is
        // First-Committer-Wins (whether any occur depends on how much the
        // worker threads actually overlap on this machine).
        assert_eq!(stats.aborted_deadlock, 0);
        assert_eq!(stats.aborted_timeout, 0);
        assert_eq!(
            stats.committed + stats.aborted_first_committer,
            stats.attempted()
        );
    }

    #[test]
    fn read_only_workload_never_aborts_under_snapshot_isolation() {
        let mut spec = small();
        spec.read_fraction = 1.0;
        let stats = spec.run(IsolationLevel::SnapshotIsolation);
        assert_eq!(stats.aborted(), 0);
        assert_eq!(stats.committed, stats.attempted());
        assert_eq!(stats.writes, 0);
    }

    #[test]
    fn long_reader_is_never_blocked_under_snapshot_isolation() {
        let (blocked, drift) = small().long_reader_probe(IsolationLevel::SnapshotIsolation);
        assert!(!blocked);
        // The audit sees the snapshot as of its start: no drift.
        assert_eq!(drift, 0);
    }

    #[test]
    fn long_reader_sees_drift_under_read_committed() {
        let (blocked, drift) = small().long_reader_probe(IsolationLevel::ReadCommitted);
        assert!(!blocked);
        // Each committed +10 update that lands in the second half of the
        // scan is visible: the audit total drifts away from the invariant.
        assert!(drift > 0);
    }

    #[test]
    fn read_only_run_takes_zero_stripe_locks_on_the_epoch_path() {
        // A read-only MixedWorkload run on the epoch path must record *zero*
        // read-path stripe-lock acquisitions (seeding writes take stripe
        // write locks, but those are not read-path acquisitions), while
        // pinning an epoch for every read.
        let mut spec = small();
        spec.read_fraction = 1.0;
        for level in [
            IsolationLevel::ReadCommitted,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::Serializable,
        ] {
            let (db, ids) = spec.seed_database(level);
            let stats = spec.run_seeded(&db, &ids);
            assert_eq!(stats.committed, stats.attempted(), "at {level}");
            let read_stats = db.mv_read_stats().expect("default backend has counters");
            assert_eq!(read_stats.read_lock_acquisitions(), 0, "at {level}");
            assert!(read_stats.read_pins() > 0, "at {level}");
        }
    }

    #[test]
    fn locked_read_path_counts_its_stripe_lock_acquisitions() {
        // Sanity check of the counter itself: the same read-only run on
        // the locked read path must show a nonzero acquisition count, or
        // the epoch path's zero would be vacuous.
        let mut spec = small().with_read_path(ReadPath::Locked);
        spec.read_fraction = 1.0;
        let (db, ids) = spec.seed_database(IsolationLevel::SnapshotIsolation);
        let stats = spec.run_seeded(&db, &ids);
        assert!(stats.committed > 0);
        let read_stats = db.mv_read_stats().expect("default backend has counters");
        assert!(read_stats.read_lock_acquisitions() > 0);
        assert!(read_stats.read_pins() > 0);
    }

    #[test]
    fn stats_arithmetic() {
        let stats = WorkloadStats {
            committed: 80,
            aborted_first_committer: 10,
            aborted_deadlock: 5,
            aborted_timeout: 5,
            reads: 300,
            writes: 150,
            notifications: 0,
            elapsed: Duration::from_secs(2),
        };
        assert_eq!(stats.aborted(), 20);
        assert_eq!(stats.attempted(), 100);
        assert!((stats.abort_rate() - 0.2).abs() < 1e-9);
        assert!((stats.throughput() - 40.0).abs() < 1e-9);
    }
}
