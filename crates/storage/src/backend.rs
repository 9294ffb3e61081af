//! The storage-backend abstraction: isolation levels are properties of
//! *histories*, not of any particular storage engine.
//!
//! The paper's Table 3/4 verdicts are statements about which operation
//! interleavings an isolation discipline admits.  Nothing in that argument
//! cares whether versions live in in-memory chains ([`MvStore`]) or in an
//! append-only log ([`crate::logstore::LogStore`]) — so the engine layer
//! talks to storage exclusively through [`StorageBackend`], and the
//! conformance exerciser replays the same seed matrix against every
//! implementation to prove the verdicts are backend-independent.
//!
//! The trait is the exact surface the schedulers consume:
//!
//! * **writes** install uncommitted versions (`insert` / `update` /
//!   `delete`) and are tracked per transaction (`writes_of`);
//! * **reads** pick a version by visibility rule — dirty (`*_latest_any`),
//!   committed (`*_latest_committed`), historical (`*_committed_as_of`),
//!   or Snapshot Isolation (`*_visible`: own uncommitted write first, else
//!   the committed state as of the start timestamp);
//! * **termination** stamps (`commit`) or discards (`abort`) a
//!   transaction's versions;
//! * **validation** asks the First-Committer-Wins and first-writer-wins
//!   questions of Sections 4.2/4.3 (`first_committer_conflict`,
//!   `has_foreign_uncommitted_on_writes`).
//!
//! Implementations must keep the *semantics* of these methods identical —
//! the differential property test (`tests/backend_equivalence.rs`) replays
//! random op sequences against every pair of backends and requires
//! bit-identical answers from every read surface.
//!
//! # Adding a third backend
//!
//! Implement [`StorageBackend`], add a [`BackendKind`] variant wiring its
//! constructor, and the engine, the workloads and the conformance
//! exerciser pick it up through configuration; extend the
//! differential test's backend list so equivalence is enforced from the
//! first commit.

use crate::logstore::{LogStore, LogStoreConfig};
use crate::predicate::{KeyInterval, RowPredicate};
use crate::row::{Row, RowId};
use crate::snapshot::Snapshot;
use crate::store::{MvStore, ReadPath, StorageError, TableName, WriteKind};
use crate::timestamp::{Timestamp, TxnToken};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::fmt;

/// Which version of each row a scan reads: the visibility rules of the
/// point reads, lifted into a parameter so the range scan needs a single
/// entry point instead of one method per rule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScanView {
    /// The most recent version regardless of commit state (a dirty read).
    LatestAny,
    /// The most recent committed version.
    LatestCommitted,
    /// The committed state as of a timestamp.
    CommittedAsOf(Timestamp),
    /// Snapshot Isolation visibility: the reader's own uncommitted write
    /// first, otherwise the state committed as of its start timestamp.
    Visible {
        /// The reading transaction.
        reader: TxnToken,
        /// The reader's start timestamp.
        start_ts: Timestamp,
    },
}

/// Sort a scan result into the pinned, backend-independent order:
/// ascending row id — or, when the table carries an ordered secondary
/// index, ascending `(index key, row id)` with unkeyed rows (missing or
/// non-integer values in the indexed column) after every keyed row.  Both
/// backends route every `scan_*` result through this one function, so the
/// differential tests can require order-identical output.
pub(crate) fn sort_scan_output(indexed_column: Option<&str>, rows: &mut [(RowId, Row)]) {
    match indexed_column {
        None => rows.sort_unstable_by_key(|(id, _)| *id),
        Some(column) => rows.sort_unstable_by(|(ia, ra), (ib, rb)| {
            let ka = ra.get_int(column);
            let kb = rb.get_int(column);
            (ka.is_none(), ka, *ia).cmp(&(kb.is_none(), kb, *ib))
        }),
    }
}

/// The storage surface the isolation schedulers run against.
///
/// All methods take `&self`: a backend is internally synchronised and
/// shared between worker threads.  The trait is object-safe — the engine
/// holds a `Box<dyn StorageBackend>` chosen at configuration time.
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Short stable name of this backend (`"mvstore"`, `"logstore"`, …) —
    /// used in bench labels and test diagnostics.
    fn backend_name(&self) -> &'static str;

    // ------------------------------------------------------------------
    // Tables.
    // ------------------------------------------------------------------

    /// Create a table if it does not already exist.
    fn create_table(&self, table: &str);

    /// All table names, in ascending order.
    fn tables(&self) -> Vec<TableName>;

    /// All row ids ever allocated in a table (whatever their visibility),
    /// in ascending order.
    fn row_ids(&self, table: &str) -> Vec<RowId>;

    // ------------------------------------------------------------------
    // Writes.
    // ------------------------------------------------------------------

    /// Insert a new row as an uncommitted version by `writer`, returning
    /// its id.  The table is created on demand; ids are allocated
    /// per-table, sequentially from 0.
    fn insert(&self, table: &str, writer: TxnToken, row: Row) -> RowId;

    /// Install a new uncommitted version of an existing row.
    fn update(
        &self,
        table: &str,
        writer: TxnToken,
        id: RowId,
        row: Row,
    ) -> Result<(), StorageError>;

    /// Install an uncommitted tombstone for an existing row.
    fn delete(&self, table: &str, writer: TxnToken, id: RowId) -> Result<(), StorageError>;

    // ------------------------------------------------------------------
    // Point reads.
    // ------------------------------------------------------------------

    /// The most recent version regardless of commit state (a dirty read).
    fn get_latest_any(&self, table: &str, id: RowId) -> Option<Row>;

    /// The most recent committed version.
    fn get_latest_committed(&self, table: &str, id: RowId) -> Option<Row>;

    /// The version committed as of `ts`.
    fn get_committed_as_of(&self, table: &str, id: RowId, ts: Timestamp) -> Option<Row>;

    /// Snapshot Isolation visibility: `reader`'s own uncommitted write if
    /// any, otherwise the version committed as of `start_ts`.
    fn get_visible(
        &self,
        table: &str,
        id: RowId,
        reader: TxnToken,
        start_ts: Timestamp,
    ) -> Option<Row>;

    // ------------------------------------------------------------------
    // Predicate scans.  Result order is pinned and backend-independent:
    // ascending row id, or — when the table carries an ordered secondary
    // index — ascending (index key, row id) with unkeyed rows last.
    // ------------------------------------------------------------------

    /// Scan the rows satisfying `predicate`, dirty reads included.
    fn scan_latest_any(&self, predicate: &RowPredicate) -> Vec<(RowId, Row)>;

    /// Scan the rows satisfying `predicate` in the latest committed state.
    fn scan_latest_committed(&self, predicate: &RowPredicate) -> Vec<(RowId, Row)>;

    /// Scan the committed state as of `ts`.
    fn scan_committed_as_of(&self, predicate: &RowPredicate, ts: Timestamp) -> Vec<(RowId, Row)>;

    /// Scan with Snapshot Isolation visibility.
    fn scan_visible(
        &self,
        predicate: &RowPredicate,
        reader: TxnToken,
        start_ts: Timestamp,
    ) -> Vec<(RowId, Row)>;

    // ------------------------------------------------------------------
    // Ordered secondary indexes and range scans.
    // ------------------------------------------------------------------

    /// Register an ordered secondary index over the integer values of
    /// `column` in `table`, creating the table on demand and backfilling
    /// every live version already stored.  A table carries at most one
    /// index; re-registering the same column is a no-op.  Call during
    /// setup, before concurrent traffic — maintenance afterwards is part
    /// of every write path.
    fn create_index(&self, table: &str, column: &str);

    /// The indexed column of `table`, if an index has been registered.
    fn indexed_column(&self, table: &str) -> Option<String>;

    /// Scan the rows whose `column` value is an integer inside `range`,
    /// each viewed through `view`.  Result order is pinned: ascending
    /// `(key, row id)`, identical across backends.  Rows lacking an
    /// integer value in `column` are never returned — a range addresses
    /// the integer key space.  When the registered index covers `column`
    /// it prunes the candidate set; otherwise the scan falls back to a
    /// full pass with identical results.
    fn scan_range(
        &self,
        table: &str,
        column: &str,
        range: &KeyInterval,
        view: ScanView,
    ) -> Vec<(RowId, Row)>;

    // ------------------------------------------------------------------
    // Transaction bookkeeping and validation.
    // ------------------------------------------------------------------

    /// The rows written so far by an in-flight transaction, in write order.
    fn writes_of(&self, writer: TxnToken) -> Vec<(TableName, RowId, WriteKind)>;

    /// The First-Committer-Wins check (Section 4.2): the first of
    /// `writer`'s written rows also written by a transaction that committed
    /// after `start_ts`, if any.
    fn first_committer_conflict(
        &self,
        writer: TxnToken,
        start_ts: Timestamp,
    ) -> Option<(TableName, RowId)>;

    /// True if any row written by `writer` currently has an uncommitted
    /// version installed by a *different* transaction.
    fn has_foreign_uncommitted_on_writes(&self, writer: TxnToken) -> bool;

    /// Commit all of `writer`'s versions at timestamp `ts`.
    fn commit(&self, writer: TxnToken, ts: Timestamp);

    /// Make `writer`'s commit durable, if the backend defers durability
    /// out of [`StorageBackend::commit`].  The engine calls this *after*
    /// releasing its commit-sequence lock, so a group-committing backend
    /// can park the caller behind one batched fsync without stalling
    /// other committers' timestamp allocation.  Default: no-op (in-memory
    /// backends, and durable ones that fsync inside `commit`).
    fn flush_commit(&self, _writer: TxnToken) {}

    /// Roll back all of `writer`'s uncommitted versions.
    fn abort(&self, writer: TxnToken);

    // ------------------------------------------------------------------
    // Snapshots and metrics.
    // ------------------------------------------------------------------

    /// A read-only snapshot view of the committed state as of `ts`.
    fn snapshot(&self, ts: Timestamp) -> Snapshot<'_>;

    /// Number of rows whose latest committed version exists (not deleted).
    fn committed_row_count(&self, table: &str) -> usize;

    /// Total number of live (non-aborted) versions the backend holds.
    fn version_count(&self) -> usize;

    /// Downcast hook: recovery and bench harnesses reach concrete-type
    /// surfaces (fsync counters, crash-point hooks) through the trait
    /// object the engine hands out.
    fn as_any(&self) -> &dyn Any;
}

/// [`MvStore`] is the reference implementation: the trait methods delegate
/// to its inherent methods one-for-one, so the sharded version-chain store
/// keeps its concrete API for direct users (tests, benches) while the
/// engine consumes it through the trait.
impl StorageBackend for MvStore {
    fn backend_name(&self) -> &'static str {
        "mvstore"
    }

    fn create_table(&self, table: &str) {
        MvStore::create_table(self, table)
    }

    fn tables(&self) -> Vec<TableName> {
        MvStore::tables(self)
    }

    fn row_ids(&self, table: &str) -> Vec<RowId> {
        MvStore::row_ids(self, table)
    }

    fn insert(&self, table: &str, writer: TxnToken, row: Row) -> RowId {
        MvStore::insert(self, table, writer, row)
    }

    fn update(
        &self,
        table: &str,
        writer: TxnToken,
        id: RowId,
        row: Row,
    ) -> Result<(), StorageError> {
        MvStore::update(self, table, writer, id, row)
    }

    fn delete(&self, table: &str, writer: TxnToken, id: RowId) -> Result<(), StorageError> {
        MvStore::delete(self, table, writer, id)
    }

    fn get_latest_any(&self, table: &str, id: RowId) -> Option<Row> {
        MvStore::get_latest_any(self, table, id)
    }

    fn get_latest_committed(&self, table: &str, id: RowId) -> Option<Row> {
        MvStore::get_latest_committed(self, table, id)
    }

    fn get_committed_as_of(&self, table: &str, id: RowId, ts: Timestamp) -> Option<Row> {
        MvStore::get_committed_as_of(self, table, id, ts)
    }

    fn get_visible(
        &self,
        table: &str,
        id: RowId,
        reader: TxnToken,
        start_ts: Timestamp,
    ) -> Option<Row> {
        MvStore::get_visible(self, table, id, reader, start_ts)
    }

    fn scan_latest_any(&self, predicate: &RowPredicate) -> Vec<(RowId, Row)> {
        MvStore::scan_latest_any(self, predicate)
    }

    fn scan_latest_committed(&self, predicate: &RowPredicate) -> Vec<(RowId, Row)> {
        MvStore::scan_latest_committed(self, predicate)
    }

    fn scan_committed_as_of(&self, predicate: &RowPredicate, ts: Timestamp) -> Vec<(RowId, Row)> {
        MvStore::scan_committed_as_of(self, predicate, ts)
    }

    fn scan_visible(
        &self,
        predicate: &RowPredicate,
        reader: TxnToken,
        start_ts: Timestamp,
    ) -> Vec<(RowId, Row)> {
        MvStore::scan_visible(self, predicate, reader, start_ts)
    }

    fn create_index(&self, table: &str, column: &str) {
        MvStore::create_index(self, table, column)
    }

    fn indexed_column(&self, table: &str) -> Option<String> {
        MvStore::indexed_column(self, table)
    }

    fn scan_range(
        &self,
        table: &str,
        column: &str,
        range: &KeyInterval,
        view: ScanView,
    ) -> Vec<(RowId, Row)> {
        MvStore::scan_range(self, table, column, range, view)
    }

    fn writes_of(&self, writer: TxnToken) -> Vec<(TableName, RowId, WriteKind)> {
        MvStore::writes_of(self, writer)
    }

    fn first_committer_conflict(
        &self,
        writer: TxnToken,
        start_ts: Timestamp,
    ) -> Option<(TableName, RowId)> {
        MvStore::first_committer_conflict(self, writer, start_ts)
    }

    fn has_foreign_uncommitted_on_writes(&self, writer: TxnToken) -> bool {
        MvStore::has_foreign_uncommitted_on_writes(self, writer)
    }

    fn commit(&self, writer: TxnToken, ts: Timestamp) {
        MvStore::commit(self, writer, ts)
    }

    fn abort(&self, writer: TxnToken) {
        MvStore::abort(self, writer)
    }

    fn snapshot(&self, ts: Timestamp) -> Snapshot<'_> {
        MvStore::snapshot(self, ts)
    }

    fn committed_row_count(&self, table: &str) -> usize {
        MvStore::committed_row_count(self, table)
    }

    fn version_count(&self) -> usize {
        MvStore::version_count(self)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Which storage engine a database instance runs on.
///
/// This is the configuration-level selector the engine, the workloads and
/// the conformance exerciser thread through: everything
/// above the [`StorageBackend`] trait is backend-agnostic, and this enum is
/// the single place a concrete constructor is named.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub enum BackendKind {
    /// The sharded in-memory version-chain store ([`MvStore`]) — the
    /// reference backend and the default.
    #[default]
    MvStore,
    /// The append-only log-structured store ([`LogStore`]): versioned
    /// records in log segments behind a per-table hash index, with
    /// watermark-triggered compaction.
    LogStructured,
}

/// Whether a backend persists committed state across a process kill.
///
/// Only the log-structured backend has a durable representation (a
/// directory of fsync'd write-ahead segment files — see
/// [`LogStore::open_durable`]); [`MvStore`] is an in-memory engine and
/// ignores the setting.  The default is [`Durability::Ephemeral`]; the
/// benchmark's `durable_rmw_rc` workload records what the fsync tax costs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub enum Durability {
    /// Everything lives in memory and dies with the process.
    #[default]
    Ephemeral,
    /// Mutations are framed into write-ahead files, fsync'd at every
    /// commit boundary and segment seal, and recoverable with
    /// [`LogStore::recover`].
    Fsync,
}

impl Durability {
    /// Short stable label (`"ephemeral"` / `"fsync"`).
    pub fn label(self) -> &'static str {
        match self {
            Durability::Ephemeral => "ephemeral",
            Durability::Fsync => "fsync",
        }
    }
}

impl fmt::Display for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How `Durability::Fsync` commits reach disk: one fsync per commit, or
/// batched behind a group-commit leader.
///
/// With group commit on, [`StorageBackend::commit`] only appends the
/// commit record; the following [`StorageBackend::flush_commit`] parks
/// the committer until a leader — the first committer in, after waiting
/// out `window_micros` for followers to enqueue — issues **one** fsync
/// covering the whole batch.  Ephemeral stores and [`MvStore`] ignore
/// the knob.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub enum GroupCommit {
    /// Every writing commit issues its own fsync before acknowledging.
    #[default]
    Off,
    /// Commit records are batched: a leader fsyncs once for every commit
    /// enqueued so far, after holding the window open for followers.
    On {
        /// How long the leader holds the batch open before flushing, in
        /// microseconds (0 = flush immediately; concurrent committers
        /// that arrive while the leader is busy still batch).
        window_micros: u64,
    },
}

impl GroupCommit {
    /// Short stable label (`"off"` / `"on"`).
    pub fn label(self) -> &'static str {
        match self {
            GroupCommit::Off => "off",
            GroupCommit::On { .. } => "on",
        }
    }
}

impl fmt::Display for GroupCommit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl BackendKind {
    /// Every selectable backend, in default-first order (the conformance
    /// exerciser and the differential tests iterate this).
    pub const ALL: [BackendKind; 2] = [BackendKind::MvStore, BackendKind::LogStructured];

    /// Short stable label (`"mvstore"` / `"logstore"`), matching
    /// [`StorageBackend::backend_name`] of the constructed engine.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::MvStore => "mvstore",
            BackendKind::LogStructured => "logstore",
        }
    }

    /// Construct the backend.  `shards` is the substrate shard count —
    /// honoured by both [`MvStore`] (version-chain stripes) and
    /// [`LogStore`] (hash-partitioned log shards).  [`MvStore`] honours
    /// `read_path`; it has no durable representation and ignores
    /// `durability` and `group_commit`.  The log-structured store has no
    /// epoch read path and ignores `read_path`; under
    /// [`Durability::Fsync`] it is rooted in a process-private temp
    /// directory of write-ahead files that is removed when the store
    /// drops ([`LogStore::open_durable_temp`]), and `group_commit`
    /// batches its commit fsyncs.  The conformance matrix's verdicts
    /// depend on none of the four.
    pub fn build(
        self,
        shards: usize,
        read_path: ReadPath,
        durability: Durability,
        group_commit: GroupCommit,
    ) -> Box<dyn StorageBackend> {
        match self {
            BackendKind::MvStore => Box::new(MvStore::with_read_path(shards, read_path)),
            BackendKind::LogStructured => {
                let config = LogStoreConfig {
                    shards,
                    group_commit,
                    ..LogStoreConfig::default()
                };
                Box::new(match durability {
                    Durability::Ephemeral => LogStore::with_config(config),
                    Durability::Fsync => LogStore::open_durable_temp(config).unwrap_or_else(|e| {
                        panic!("opening a durable log store in the temp directory failed: {e}")
                    }),
                })
            }
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kinds_build_their_engines() {
        for kind in BackendKind::ALL {
            let backend = kind.build(
                4,
                ReadPath::default(),
                Durability::default(),
                GroupCommit::default(),
            );
            assert_eq!(backend.backend_name(), kind.label());
            assert_eq!(kind.to_string(), kind.label());
            let id = backend.insert("t", TxnToken(1), Row::new().with("v", 1));
            backend.commit(TxnToken(1), Timestamp(1));
            assert_eq!(
                backend.get_latest_committed("t", id).unwrap().get_int("v"),
                Some(1),
                "{kind}"
            );
        }
        assert_eq!(BackendKind::default(), BackendKind::MvStore);
    }

    #[test]
    fn trait_object_round_trip_through_every_surface() {
        let store: Box<dyn StorageBackend> = Box::new(MvStore::new());
        let id = store.insert("accounts", TxnToken(1), Row::new().with("balance", 50));
        assert_eq!(store.writes_of(TxnToken(1)).len(), 1);
        store.commit(TxnToken(1), Timestamp(1));
        assert_eq!(store.tables(), vec!["accounts".to_string()]);
        assert_eq!(store.row_ids("accounts"), vec![id]);
        assert_eq!(store.committed_row_count("accounts"), 1);
        assert_eq!(store.version_count(), 1);
        let snap = store.snapshot(Timestamp(1));
        assert_eq!(
            snap.get("accounts", id).unwrap().get_int("balance"),
            Some(50)
        );
        store
            .update("accounts", TxnToken(2), id, Row::new().with("balance", 10))
            .unwrap();
        assert!(!store.has_foreign_uncommitted_on_writes(TxnToken(2)));
        store
            .update("accounts", TxnToken(3), id, Row::new().with("balance", 20))
            .unwrap();
        assert!(store.has_foreign_uncommitted_on_writes(TxnToken(2)));
        store.abort(TxnToken(3));
        store.abort(TxnToken(2));
        assert!(store.writes_of(TxnToken(2)).is_empty());
        assert!(store
            .first_committer_conflict(TxnToken(3), Timestamp(0))
            .is_none());
    }
}
