//! An append-only, log-structured storage backend.
//!
//! Where [`crate::store::MvStore`] keeps each row's versions in a chain
//! owned by that row, `LogStore` writes every versioned record into
//! **log segments** in arrival order and finds them again through a
//! **per-table hash index** mapping `row id → record positions` (oldest
//! first).  A row's "version chain" is therefore a *view* computed from
//! index pointers — the same visibility rules as the chain store, read
//! off a different representation, which is exactly the point: the
//! Table 3/4 isolation verdicts must not care.
//!
//! Mechanics:
//!
//! * **sharding** — the log is hash-partitioned into
//!   [`LogStoreConfig::shards`] shards, each with its own segments, hash
//!   index, and write-ahead file chain.  A record's shard is
//!   `fnv1a(table, row) % shards`, so every version of one row lives in
//!   one shard and per-row version order is shard-local.  Control frames
//!   (`Begin`/`Commit`/`Abort`/`CreateTable`/`CreateIndex`) always go to
//!   shard 0, which makes shard 0's chain the single serialization point
//!   for commit order;
//! * **append path** — `insert`/`update`/`delete` append one record
//!   (table, row id, writer, payload-or-tombstone) to the owning shard's
//!   open segment; a segment that reaches
//!   [`LogStoreConfig::segment_records`] is sealed and a fresh one
//!   opened.  Data records are never rewritten in place;
//! * **commit/abort** — commit resolves the writer's pending records to a
//!   commit timestamp; abort unlinks the writer's records from the index,
//!   leaving dead space in the owning shards;
//! * **compaction** — when a shard's dead (aborted) records cross
//!   [`LogStoreConfig::compact_watermark`], that shard's segments are
//!   rewritten without them and the index repointed, synchronously on the
//!   aborting caller's thread.  Committed versions are *never* dropped;
//! * **durability** (optional) — [`LogStore::open_durable`] roots the log
//!   in a directory of per-shard write-ahead chains
//!   (`wal-<shard>-<generation>-<sequence>.seg`) under one `MANIFEST`
//!   that names every shard's live generation atomically.  A commit
//!   fsyncs the writer's dirty data shards first, then appends its
//!   `Commit` frame to shard 0 and fsyncs that — so a durable `Commit`
//!   frame always covers durable data frames, in every shard.
//!   [`LogStore::recover`] replays shard chains in two passes (writes
//!   first, then the deferred `Commit`/`Abort` stream in shard-0 order),
//!   aborts writers whose commit record never made it, truncates each
//!   shard's torn final frame, and merges the shards back into one store;
//! * **group commit** (optional) — with [`GroupCommit::On`], commit only
//!   appends in memory and enqueues the commit record; the follow-up
//!   [`StorageBackend::flush_commit`] parks the committer until a leader
//!   (the first committer in, after holding the window open) emits the
//!   whole batch's `Commit` frames to shard 0 and issues **one** fsync
//!   for all of them.  Commit-frame order is the enqueue order, which the
//!   engine serialises under its commit-sequence lock, so recovery's
//!   replay order matches the history recorder's commit order.  A crash
//!   mid-batch loses exactly the unflushed tail: un-fsynced commit
//!   frames truncate away like any torn suffix.  A compaction rewrite
//!   racing the batch never persists a queued commit's state (see
//!   `LogStore::rewrite_shard`) — the batch's own fsync stays the one
//!   durability point.
//!
//! Concurrency and lock order: `registry → txns → shards (ascending) →
//! {durable, group, last_commit}`.  The registry (table metadata) and
//! transaction table are global; everything per-record is shard-local.

use crate::backend::{sort_scan_output, GroupCommit, ScanView, StorageBackend};
use crate::predicate::{KeyInterval, RowPredicate};
use crate::row::{Row, RowId};
use crate::snapshot::Snapshot;
use crate::store::{StorageError, TableName, WriteKind};
use crate::timestamp::{Timestamp, TxnToken};
use crate::value::ColumnValue;
use parking_lot::{Condvar, Mutex, RwLock};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Settings of the log-structured backend.
#[derive(Clone, Copy, Debug)]
pub struct LogStoreConfig {
    /// Records per segment; a full segment is sealed and a new one
    /// opened.  Clamped to at least 1.
    pub segment_records: usize,
    /// Dead (aborted) records tolerated in one shard before that shard is
    /// compacted.  Clamped to at least 1 — every abort checks the
    /// watermark, so compaction is always caller-driven, never a
    /// background task.
    pub compact_watermark: usize,
    /// Hash-partition count for the log + index (and the write-ahead
    /// chains of a durable store).  Clamped to at least 1.
    pub shards: usize,
    /// How `Durability::Fsync` commits reach disk: one fsync per commit,
    /// or batched behind a group-commit leader.
    pub group_commit: GroupCommit,
}

impl Default for LogStoreConfig {
    fn default() -> Self {
        LogStoreConfig {
            segment_records: 1024,
            compact_watermark: 4096,
            shards: 1,
            group_commit: GroupCommit::Off,
        }
    }
}

/// Position of a record within its shard: (segment index, offset).
type RecordPtr = (usize, usize);

/// One versioned record in the log.
struct LogRecord {
    table: Arc<str>,
    row: RowId,
    writer: TxnToken,
    /// What the write was (insert/update/delete) — mirrored into the
    /// write set at append time and needed again by the durable rewrite,
    /// which re-emits each surviving record as a self-contained frame.
    kind: WriteKind,
    /// Set when the writer commits; `None` while pending.
    commit_ts: Option<Timestamp>,
    /// Unlinked from the index by abort; reclaimed by compaction.
    aborted: bool,
    /// The record's integer value in the table's indexed column, stamped
    /// at append time (or backfilled by `create_index`) so abort can
    /// unhook the ordered index without looking at the payload.
    index_key: Option<i64>,
    /// The row contents; `None` is a tombstone.
    payload: Option<Row>,
}

/// A run of records; full segments are sealed and never appended to again.
#[derive(Default)]
struct Segment {
    records: Vec<LogRecord>,
    sealed: bool,
}

/// Global per-table metadata: interned name, the row-id allocator, and
/// the ordered index's column.  The per-row hash index lives in the
/// shards ([`ShardTable`]).
struct TableMeta {
    name: Arc<str>,
    next_row_id: u64,
    /// The ordered secondary index's column, once registered.
    indexed_column: Option<String>,
}

/// One shard's slice of a table's index.
#[derive(Default)]
struct ShardTable {
    /// Row id → positions of its live (non-aborted) records, oldest first.
    /// An entry outlives its records: a row whose only version was aborted
    /// keeps an empty slot, exactly like an empty version chain.
    rows: HashMap<RowId, Vec<RecordPtr>>,
    /// Ordered index slice: `(key, row id) → refcount` over every live
    /// record in this shard that carries that key — committed and
    /// uncommitted alike, so it can only over-approximate any one
    /// visibility rule.  `scan_range` re-checks the picked version.
    ordered: BTreeMap<(i64, RowId), usize>,
}

/// One shard's write-ahead chain: the open segment file of
/// `wal-<shard>-<gen>-<seq>.seg`, with absolute written/synced byte
/// counters so crash-simulation harnesses can ask exactly how much of the
/// open file is durable ([`LogStore::durable_file_tails`]).
struct ShardWal {
    dir: PathBuf,
    shard: usize,
    /// This shard's live generation; per-shard rewrite-on-compact bumps
    /// it (and the shared manifest) and deletes the previous generation.
    gen: u64,
    /// Sequence number of the open segment file within the generation.
    file_seq: u64,
    /// The open segment file, positioned at its end.
    file: File,
    /// Bytes written to the open file so far.
    written: u64,
    /// Bytes of the open file covered by an fsync.
    synced: u64,
}

/// One hash partition of the log: segments, index slices, and (for
/// durable stores) the shard's write-ahead chain.
#[derive(Default)]
struct LogShard {
    tables: HashMap<Arc<str>, ShardTable>,
    segments: Vec<Segment>,
    /// Aborted records awaiting compaction (per-shard watermark).
    dead: usize,
    /// Live (non-aborted) records in this shard.
    live: usize,
    /// This shard's write-ahead chain, when the store is durable.  `None`
    /// both for plain in-memory stores and *during recovery replay*,
    /// which is how replay reuses the ordinary mutation paths without
    /// re-emitting the frames it is reading.
    wal: Option<ShardWal>,
}

/// Global in-flight transaction state, shared across shards.
#[derive(Default)]
struct TxnTable {
    /// In-flight write sets, in write order (the input to commit, abort,
    /// and First-Committer-Wins).
    write_sets: BTreeMap<TxnToken, Vec<(Arc<str>, RowId, WriteKind)>>,
    /// Positions of each in-flight writer's uncommitted records, as
    /// (shard, pointer-within-shard) in append order.
    pending: HashMap<TxnToken, Vec<(usize, RecordPtr)>>,
}

/// Durable state shared by every shard: the directory, each shard's live
/// generation (mirrored in `MANIFEST`), and directory ownership.
struct DurableShared {
    dir: PathBuf,
    /// Per-shard live generations, indexed by shard.
    gens: Vec<u64>,
    /// Remove the whole directory when the store is dropped (set for
    /// engine-owned throwaway stores from [`LogStore::open_durable_temp`]).
    owns_dir: bool,
}

/// Group-commit coordination: the queue of commit records awaiting the
/// batched fsync, and who is currently flushing it.
#[derive(Default)]
struct GroupState {
    /// Commit records enqueued but not yet durably flushed, in commit
    /// order (the engine enqueues under its commit-sequence lock).
    queue: Vec<(TxnToken, Timestamp)>,
    /// Writers with an entry in `queue` or in the batch being flushed.
    queued: HashSet<TxnToken>,
    /// A leader is currently holding the window open / flushing.
    leader: bool,
    /// Test hook: batches are held open ([`LogStore::suspend_commit_flushes`])
    /// until [`LogStore::flush_held_commits`] releases them.
    hold: bool,
}

/// A control frame deferred by recovery's first pass: commits and aborts
/// replay only after every shard's `Write` frames are back, in the order
/// shard 0's chain recorded them.
enum DeferredControl {
    Commit(TxnToken, Timestamp),
    Abort(TxnToken),
}

/// The append-only log-structured store.  See the module docs for the
/// design; see [`StorageBackend`] for the semantics every method must
/// share with the chain store.
pub struct LogStore {
    config: LogStoreConfig,
    /// Table name → global metadata, sorted so `tables()` is deterministic.
    registry: RwLock<BTreeMap<Arc<str>, TableMeta>>,
    txns: Mutex<TxnTable>,
    shards: Vec<RwLock<LogShard>>,
    durable: Mutex<Option<DurableShared>>,
    /// Mirror of `durable.is_some()`, readable without the mutex (the
    /// append path checks it on every mutation).
    durable_on: AtomicBool,
    /// fsyncs issued so far (commit boundaries, seals, manifest swaps) —
    /// always-on, so the group-commit proof (`fsync_count` < committed
    /// transactions under a concurrent storm) is assertable.
    fsyncs: AtomicU64,
    /// Largest commit timestamp ever stamped (live or replayed); recovery
    /// harnesses advance the engine clock past it.
    last_commit: Mutex<Option<Timestamp>>,
    group: Mutex<GroupState>,
    group_cv: Condvar,
}

impl Default for LogStore {
    fn default() -> Self {
        Self::with_config(LogStoreConfig::default())
    }
}

impl LogStore {
    /// An empty log store with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty log store with explicit tuning knobs.
    pub fn with_config(config: LogStoreConfig) -> Self {
        let config = LogStoreConfig {
            segment_records: config.segment_records.max(1),
            compact_watermark: config.compact_watermark.max(1),
            shards: config.shards.max(1),
            group_commit: config.group_commit,
        };
        LogStore {
            shards: (0..config.shards)
                .map(|_| RwLock::new(LogShard::default()))
                .collect(),
            config,
            registry: RwLock::new(BTreeMap::new()),
            txns: Mutex::new(TxnTable::default()),
            durable: Mutex::new(None),
            durable_on: AtomicBool::new(false),
            fsyncs: AtomicU64::new(0),
            last_commit: Mutex::new(None),
            group: Mutex::new(GroupState::default()),
            group_cv: Condvar::new(),
        }
    }

    /// The configuration this store runs with.
    pub fn config(&self) -> LogStoreConfig {
        self.config
    }

    /// Number of segments currently in the log, summed over shards.
    pub fn segment_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().segments.len()).sum()
    }

    /// Dead (aborted, not yet compacted) records currently in the log.
    pub fn dead_record_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().dead).sum()
    }

    /// Largest commit timestamp ever stamped on a writing transaction
    /// (live or replayed).  Recovery harnesses advance the engine's
    /// timestamp oracle past this before resuming a workload.
    pub fn last_commit_ts(&self) -> Option<Timestamp> {
        *self.last_commit.lock()
    }

    /// fsyncs issued so far: commit boundaries, segment seals, and
    /// manifest swaps (0 for non-durable stores).  Always-on — the
    /// group-commit proof asserts this against the commit count.
    pub fn fsync_count(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// The write-ahead directory, when this store is durable.
    pub fn durable_dir(&self) -> Option<PathBuf> {
        self.durable.lock().as_ref().map(|d| d.dir.clone())
    }

    /// Largest live write-ahead generation across shards, when this
    /// store is durable (each shard's rewrite-on-compact bumps its own).
    pub fn durable_generation(&self) -> Option<u64> {
        self.durable
            .lock()
            .as_ref()
            .map(|d| d.gens.iter().copied().max().unwrap_or(0))
    }

    /// Every shard's live write-ahead generation, when durable.
    pub fn durable_generations(&self) -> Option<Vec<u64>> {
        self.durable.lock().as_ref().map(|d| d.gens.clone())
    }

    /// Crash-simulation hook: hold every group-commit batch open — a
    /// following [`StorageBackend::flush_commit`] returns immediately
    /// with the commit record still queued (acknowledged in process, not
    /// durable).  [`LogStore::flush_held_commits`] releases the batch.
    #[doc(hidden)]
    pub fn suspend_commit_flushes(&self) {
        self.group.lock().hold = true;
    }

    /// Crash-simulation hook: flush every held commit record (the batch
    /// fsync a suspended leader would have issued) and resume normal
    /// group flushing.
    #[doc(hidden)]
    pub fn flush_held_commits(&self) {
        let batch = {
            let mut group = self.group.lock();
            group.hold = false;
            std::mem::take(&mut group.queue)
        };
        // `flush_batch` retires the batch from `queued` itself (under
        // the control shard's lock — see its docs).
        self.flush_batch(&batch);
        self.group_cv.notify_all();
    }

    /// Crash-simulation hook: each shard's open write-ahead file and how
    /// many of its bytes are covered by an fsync.  A harness emulating
    /// power loss truncates each file to that length — everything beyond
    /// it was written but never synced, exactly what a crash loses.
    /// Sealed (rotated-away) files are always fully synced.
    #[doc(hidden)]
    pub fn durable_file_tails(&self) -> Vec<(PathBuf, u64)> {
        self.shards
            .iter()
            .filter_map(|s| {
                let shard = s.read();
                let wal = shard.wal.as_ref()?;
                Some((
                    wal.dir
                        .join(wal_file_name(wal.shard, wal.gen, wal.file_seq)),
                    wal.synced,
                ))
            })
            .collect()
    }

    /// The shard owning `(table, row)` — FNV-1a over the table bytes then
    /// the row id, so the routing is deterministic across processes (a
    /// recovery replays records into the same shards that wrote them).
    fn shard_of(&self, table: &str, row: RowId) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let mut hash: u64 = 0xcbf29ce484222325;
        for &byte in table.as_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100000001b3);
        }
        for &byte in &row.0.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100000001b3);
        }
        (hash % self.shards.len() as u64) as usize
    }

    // ------------------------------------------------------------------
    // Append path.
    // ------------------------------------------------------------------

    // One argument per field of the record being appended — splitting it
    // into a struct would just rename the call sites.
    #[allow(clippy::too_many_arguments)]
    fn append(
        &self,
        registry: &BTreeMap<Arc<str>, TableMeta>,
        txns: &mut TxnTable,
        table: Arc<str>,
        row: RowId,
        writer: TxnToken,
        payload: Option<Row>,
        kind: WriteKind,
    ) {
        let sid = self.shard_of(&table, row);
        let durable = self.durable_on.load(Ordering::Acquire);
        // The durable frame is built before the payload moves into the
        // record (and before the seal decision, so replay reproduces the
        // same file-vs-segment alignment).
        let write_frame = durable.then(|| {
            let encoded = payload.as_ref().map(encode_row);
            encode_write_frame(&table, row, writer, kind, None, encoded.as_deref())
        });
        if durable && !txns.write_sets.contains_key(&writer) {
            // The writer's first write: its Begin frame goes to the
            // control shard before any data frame exists anywhere.
            let mut control = self.shards[0].write();
            shard_emit(&mut control, &encode_begin_frame(writer));
        }
        let index_key = registry
            .get(&*table)
            .and_then(|meta| meta.indexed_column.as_deref())
            .and_then(|col| payload.as_ref().and_then(|r| r.get_int(col)));
        let mut guard = self.shards[sid].write();
        let shard = &mut *guard;
        if shard
            .segments
            .last()
            .is_none_or(|s| s.sealed || s.records.len() >= self.config.segment_records)
        {
            self.seal_shard_segment(shard);
            shard.segments.push(Segment::default());
        }
        if let Some(frame) = write_frame {
            shard_emit(shard, &frame);
        }
        let seg = shard.segments.len() - 1;
        let segment = shard
            .segments
            .last_mut()
            .expect("open segment just ensured");
        let ptr = (seg, segment.records.len());
        segment.records.push(LogRecord {
            table: Arc::clone(&table),
            row,
            writer,
            kind,
            commit_ts: None,
            aborted: false,
            index_key,
            payload,
        });
        shard.live += 1;
        let stable = shard.tables.entry(Arc::clone(&table)).or_default();
        stable.rows.entry(row).or_default().push(ptr);
        if let Some(key) = index_key {
            *stable.ordered.entry((key, row)).or_insert(0) += 1;
        }
        drop(guard);
        txns.pending.entry(writer).or_default().push((sid, ptr));
        txns.write_sets
            .entry(writer)
            .or_default()
            .push((table, row, kind));
    }

    /// Seal a shard's open segment (if any).  A durable store also seals
    /// on disk: the shard's write-ahead file is synced and a
    /// fresh one opened, so a sealed segment's frames are never appended
    /// to again.
    fn seal_shard_segment(&self, shard: &mut LogShard) {
        let Some(last) = shard.segments.len().checked_sub(1) else {
            return;
        };
        if shard.segments[last].sealed {
            return;
        }
        shard.segments[last].sealed = true;
        shard_rotate(shard, &self.fsyncs);
    }

    /// Intern `table` in the registry, emitting its `CreateTable` frame
    /// to the control shard on first sight of a durable store.
    fn intern(&self, registry: &mut BTreeMap<Arc<str>, TableMeta>, table: &str) -> Arc<str> {
        if let Some(meta) = registry.get(table) {
            return Arc::clone(&meta.name);
        }
        if self.durable_on.load(Ordering::Acquire) {
            let mut control = self.shards[0].write();
            shard_emit(&mut control, &encode_create_table_frame(table));
        }
        let name: Arc<str> = Arc::from(table);
        registry.insert(
            Arc::clone(&name),
            TableMeta {
                name: Arc::clone(&name),
                next_row_id: 0,
                indexed_column: None,
            },
        );
        name
    }

    // ------------------------------------------------------------------
    // Read path: a row's records viewed as a version chain.
    // ------------------------------------------------------------------

    fn read_row<F>(&self, table: &str, id: RowId, pick: F) -> Option<Row>
    where
        F: Fn(&LogShard, &[RecordPtr]) -> Option<Row>,
    {
        let shard = self.shards[self.shard_of(table, id)].read();
        let ptrs = shard.tables.get(table)?.rows.get(&id)?;
        pick(&shard, ptrs)
    }

    fn scan<F>(&self, predicate: &RowPredicate, pick: F) -> Vec<(RowId, Row)>
    where
        F: Fn(&LogShard, &[RecordPtr]) -> Option<Row>,
    {
        let indexed = {
            let registry = self.registry.read();
            match registry.get(predicate.table.as_str()) {
                Some(meta) => meta.indexed_column.clone(),
                None => return Vec::new(),
            }
        };
        let mut rows: Vec<(RowId, Row)> = Vec::new();
        for shard_lock in &self.shards {
            let shard = shard_lock.read();
            let Some(stable) = shard.tables.get(predicate.table.as_str()) else {
                continue;
            };
            rows.extend(stable.rows.iter().filter_map(|(id, ptrs)| {
                pick(&shard, ptrs)
                    .filter(|row| predicate.matches(&predicate.table, row))
                    .map(|row| (*id, row))
            }));
        }
        sort_scan_output(indexed.as_deref(), &mut rows);
        rows
    }

    /// Compaction: rewrite one shard's segments without dead records and
    /// repoint the index and pending sets.  Runs synchronously under the
    /// shard's write lock (the caller holds the registry and transaction
    /// table); other shards keep serving.
    fn compact_shard(
        &self,
        registry: &BTreeMap<Arc<str>, TableMeta>,
        txns: &mut TxnTable,
        sid: usize,
    ) {
        let mut guard = self.shards[sid].write();
        let shard = &mut *guard;
        let old_segments = std::mem::take(&mut shard.segments);
        let mut remap: HashMap<RecordPtr, RecordPtr> = HashMap::new();
        let mut segments: Vec<Segment> = Vec::new();
        for (old_seg, segment) in old_segments.into_iter().enumerate() {
            for (old_off, record) in segment.records.into_iter().enumerate() {
                if record.aborted {
                    continue;
                }
                if segments
                    .last()
                    .is_none_or(|s| s.records.len() >= self.config.segment_records)
                {
                    if let Some(full) = segments.last_mut() {
                        full.sealed = true;
                    }
                    segments.push(Segment::default());
                }
                let seg = segments.len() - 1;
                let target = segments.last_mut().expect("open segment just ensured");
                remap.insert((old_seg, old_off), (seg, target.records.len()));
                target.records.push(record);
            }
        }
        shard.segments = segments;
        shard.dead = 0;
        let repoint = |ptrs: &mut Vec<RecordPtr>| {
            for ptr in ptrs.iter_mut() {
                *ptr = *remap
                    .get(ptr)
                    .expect("index pointer names a record that compaction dropped — only aborted (unindexed) records may be dropped");
            }
        };
        for stable in shard.tables.values_mut() {
            for ptrs in stable.rows.values_mut() {
                repoint(ptrs);
            }
        }
        for ptrs in txns.pending.values_mut() {
            for entry in ptrs.iter_mut() {
                if entry.0 == sid {
                    entry.1 = *remap
                        .get(&entry.1)
                        .expect("pending pointer names a record that compaction dropped");
                }
            }
        }
        // A durable shard compacts on disk too: the dead frames the
        // repack just dropped from memory are still in this shard's
        // write-ahead chain, so rewrite it as a fresh generation.
        if shard.wal.is_some() {
            self.rewrite_shard(registry, shard, sid);
        }
    }

    /// Rewrite-on-compact for one shard: emit its post-compaction state
    /// as a fresh generation of write-ahead files (per-table metadata
    /// first, then every surviving record with its commit state inlined),
    /// fsync them, swap the shared manifest, and delete the shard's old
    /// generation.  A crash anywhere in between recovers consistently:
    /// the manifest names each shard's authoritative generation and
    /// recovery deletes the other ones' files.
    ///
    /// The control shard (0) carries one extra responsibility: its chain
    /// is the only home of `Commit` frames, including those covering
    /// records in *other* shards whose frames carry no inline commit
    /// state.  The rewrite therefore re-emits one `Commit` frame per
    /// distinct live committed (timestamp, writer) pair found in the data
    /// shards; replaying one against an already-stamped or absent write
    /// set is a no-op.
    ///
    /// Group-commit interplay: a writer in [`GroupState::queued`] has its
    /// commit timestamp stamped in memory but no durable `Commit` frame
    /// yet — its batch fsync is still pending.  Persisting that commit
    /// state here (a re-emitted `Commit` frame, or an inline
    /// `commit_ts`) would let a crash before the batch flush recover a
    /// commit whose `Write` frames in other shards were never synced — a
    /// torn commit.  The rewrite therefore emits such writers' records
    /// exactly as the live append path did: pending, resolved only by
    /// the batch's own durably-flushed `Commit` frame.  The snapshot of
    /// `queued` is race-free because [`LogStore::flush_batch`] retires a
    /// batch from `queued` while still holding the control shard's write
    /// lock (which this rewrite's caller holds for `sid == 0`), and
    /// because `commit`/`abort` (the compaction trigger) serialise on the
    /// transaction-table mutex, so no writer can join `queued` mid-
    /// rewrite.  For data shards the snapshot can only over-approximate
    /// (a batch may finish flushing concurrently), which merely defers
    /// those records' commit state to shard 0's durable `Commit` frame.
    fn rewrite_shard(
        &self,
        registry: &BTreeMap<Arc<str>, TableMeta>,
        shard: &mut LogShard,
        sid: usize,
    ) {
        let unflushed: HashSet<TxnToken> = self.group.lock().queued.clone();
        // Collect the commit pairs *before* taking the durable mutex:
        // shard read locks (ascending from this one) then `durable` is
        // the store-wide order, and a concurrent data-shard rewrite holds
        // its own shard lock while waiting on `durable`.
        let mut commit_pairs: BTreeSet<(Timestamp, TxnToken)> = BTreeSet::new();
        if sid == 0 {
            for other in self.shards.iter().skip(1) {
                let data = other.read();
                for segment in &data.segments {
                    for rec in &segment.records {
                        if !rec.aborted && !unflushed.contains(&rec.writer) {
                            if let Some(ts) = rec.commit_ts {
                                commit_pairs.insert((ts, rec.writer));
                            }
                        }
                    }
                }
            }
        }
        let mut durable_guard = self.durable.lock();
        let durable = durable_guard
            .as_mut()
            .expect("rewrite of a shard with a wal — the durable state is attached");
        let dir = durable.dir.clone();
        let gen = durable.gens[sid] + 1;
        let fail = |what: &str, e: io::Error| -> ! {
            panic!("durable rewrite (shard {sid}, generation {gen}): {what} failed: {e} — the previous generation is still authoritative, but compaction cannot proceed")
        };
        // Per-table metadata: the row-id allocator, the indexed column,
        // and this shard's ghost row slots (rows whose every record was
        // aborted) — nothing in the surviving record stream re-creates
        // these.
        let mut head = Vec::new();
        for (name, meta) in registry {
            let mut ghosts: Vec<RowId> = shard
                .tables
                .get(&**name)
                .map(|stable| {
                    stable
                        .rows
                        .iter()
                        .filter(|(_, ptrs)| ptrs.is_empty())
                        .map(|(id, _)| *id)
                        .collect()
                })
                .unwrap_or_default();
            ghosts.sort_unstable();
            head.extend_from_slice(&encode_table_meta_frame(
                name,
                meta.next_row_id,
                meta.indexed_column.as_deref(),
                &ghosts,
            ));
        }
        for &(ts, writer) in &commit_pairs {
            head.extend_from_slice(&encode_commit_frame(writer, ts));
        }
        // One file per in-memory segment, so the durable seal boundaries
        // track the in-memory ones; the open segment's file stays open.
        let mut last_file: Option<(File, u64, u64)> = None;
        let segment_count = shard.segments.len().max(1);
        for seg in 0..segment_count {
            let mut buf = std::mem::take(&mut head);
            if let Some(segment) = shard.segments.get(seg) {
                for rec in &segment.records {
                    let payload: Option<Vec<u8>> = rec.payload.as_ref().map(encode_row);
                    let inline_ts = rec.commit_ts.filter(|_| !unflushed.contains(&rec.writer));
                    buf.extend_from_slice(&encode_write_frame(
                        &rec.table,
                        rec.row,
                        rec.writer,
                        rec.kind,
                        inline_ts,
                        payload.as_deref(),
                    ));
                }
            }
            let path = dir.join(wal_file_name(sid, gen, seg as u64));
            let mut file = File::options()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
                .unwrap_or_else(|e| fail("creating a segment file", e));
            file.write_all(&buf)
                .unwrap_or_else(|e| fail("writing a segment file", e));
            file.sync_data()
                .unwrap_or_else(|e| fail("syncing a segment file", e));
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
            last_file = Some((file, seg as u64, buf.len() as u64));
        }
        durable.gens[sid] = gen;
        write_manifest(&dir, &durable.gens, self.config)
            .unwrap_or_else(|e| fail("swapping the manifest", e));
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        // This shard's old generation is garbage the moment the manifest
        // names the new one; recovery would delete leftovers, but don't
        // leave any.
        if let Ok(entries) = fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if parse_wal_name(name.to_str().unwrap_or(""))
                    .is_some_and(|(s, g, _)| s == sid && g != gen)
                {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        let (file, file_seq, written) = last_file.expect("at least one segment file was written");
        shard.wal = Some(ShardWal {
            dir,
            shard: sid,
            gen,
            file_seq,
            file,
            written,
            synced: written,
        });
    }

    // ------------------------------------------------------------------
    // Durable log: open / recover / replay.
    // ------------------------------------------------------------------

    /// Open (or recover) a durable log store rooted at `dir`.  A fresh
    /// directory gets a `MANIFEST` recording `config` and an empty first
    /// write-ahead file per shard; a directory that already holds a
    /// manifest is recovered via [`LogStore::recover`] (its manifest
    /// configuration wins — it is what the existing frames were written
    /// under).
    pub fn open_durable(dir: impl Into<PathBuf>, config: LogStoreConfig) -> io::Result<Self> {
        Self::open_durable_inner(dir.into(), config, false)
    }

    /// Open a durable store in a fresh process-private temp directory
    /// that is deleted when the store is dropped.  This is what the
    /// engine's durability knob uses: the fsync tax is real, the files
    /// are throwaway.
    pub fn open_durable_temp(config: LogStoreConfig) -> io::Result<Self> {
        static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "critique-durable-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        Self::open_durable_inner(dir, config, true)
    }

    fn open_durable_inner(
        dir: PathBuf,
        config: LogStoreConfig,
        owns_dir: bool,
    ) -> io::Result<Self> {
        fs::create_dir_all(&dir)?;
        if dir.join("MANIFEST").exists() {
            let store = Self::recover(&dir)?;
            store
                .durable
                .lock()
                .as_mut()
                .expect("recover attaches the durable state")
                .owns_dir = owns_dir;
            return Ok(store);
        }
        let store = Self::with_config(config);
        let gens = vec![0u64; store.shards.len()];
        write_manifest(&dir, &gens, store.config)?;
        for (sid, shard_lock) in store.shards.iter().enumerate() {
            let file = open_wal_file(&dir, sid, 0, 0)?;
            shard_lock.write().wal = Some(ShardWal {
                dir: dir.clone(),
                shard: sid,
                gen: 0,
                file_seq: 0,
                file,
                written: 0,
                synced: 0,
            });
        }
        *store.durable.lock() = Some(DurableShared {
            dir,
            gens,
            owns_dir,
        });
        store.durable_on.store(true, Ordering::Release);
        store.fsyncs.store(1, Ordering::Relaxed);
        Ok(store)
    }

    /// Recover a durable store from `dir`: read the manifest, replay each
    /// shard's live-generation write-ahead chain (deleting orphans a
    /// crashed rewrite left behind), merge the shards, abort every writer
    /// whose commit record never made it to disk, truncate each shard's
    /// torn final frame, and reopen the log for appending.
    ///
    /// Replay is two passes.  Pass A walks the shards in ascending order
    /// and applies every frame *except* `Commit`/`Abort`, which are
    /// collected in the order shard 0's chain recorded them.  Pass B then
    /// applies that deferred control stream — so a commit covering
    /// records in several shards stamps all of them no matter which shard
    /// replayed first, and the commit order recovery sees is exactly the
    /// order the group-commit leader (or the per-commit path) wrote.
    ///
    /// Torn-tail contract, per shard: a commit fsyncs its writer's data
    /// shards *before* appending and syncing the `Commit` frame in shard
    /// 0, so a complete durable `Commit` frame is always preceded by
    /// every durable `Write` frame it covers — dropping a shard's
    /// unterminated suffix can therefore lose pending writes (which
    /// recovery aborts anyway) but never a committed record.  A torn
    /// frame anywhere but a chain's final file is corruption and recovery
    /// refuses it.
    pub fn recover(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let (gens, config) = read_manifest(&dir)?;
        let store = Self::with_config(config);
        if gens.len() != store.shards.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "MANIFEST names {} shard generations but shards={}",
                    gens.len(),
                    store.shards.len()
                ),
            ));
        }
        let mut files: Vec<Vec<u64>> = vec![Vec::new(); store.shards.len()];
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some((sid, gen, seq)) = parse_wal_name(name.to_str().unwrap_or("")) else {
                continue;
            };
            if sid < files.len() && gen == gens[sid] {
                files[sid].push(seq);
            } else {
                // Orphan of a rewrite that crashed around its manifest
                // swap: the manifest decides which generation is real.
                fs::remove_file(entry.path())?;
            }
        }
        let mut deferred: Vec<DeferredControl> = Vec::new();
        let mut tails: Vec<u64> = vec![0; store.shards.len()];
        for (sid, seqs) in files.iter_mut().enumerate() {
            seqs.sort_unstable();
            // A shard's chain always exists on disk from the moment the
            // store opens (seq 0 is created with the manifest; a rewrite
            // writes seqs 0.. before swapping it) and only ever grows by
            // appending the next sequence number.  A wholly missing chain
            // or a gap in the middle is therefore a lost file — silently
            // replaying the remainder would turn it into data loss (or a
            // partially stamped commit), so refuse, like any other
            // corruption of a sealed file.
            if seqs.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "shard {sid}: no write-ahead files for live generation {}",
                        gens[sid]
                    ),
                ));
            }
            if let Some(missing) = (0..seqs.len() as u64).find(|i| seqs[*i as usize] != *i) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "shard {sid}: write-ahead chain of generation {} is missing {}",
                        gens[sid],
                        wal_file_name(sid, gens[sid], missing)
                    ),
                ));
            }
            for (i, &seq) in seqs.iter().enumerate() {
                let path = dir.join(wal_file_name(sid, gens[sid], seq));
                let bytes = fs::read(&path)?;
                let is_last = i + 1 == seqs.len();
                let valid = store.replay_frames(&bytes, is_last, &path, &mut deferred)?;
                if is_last {
                    tails[sid] = valid as u64;
                }
            }
        }
        // Pass B: the deferred control stream, in shard-0 chain order.
        for control in deferred {
            match control {
                DeferredControl::Commit(writer, ts) => store.commit(writer, ts),
                DeferredControl::Abort(writer) => store.abort(writer),
            }
        }
        // Writers with frames but no commit/abort record lost the crash.
        let losers: Vec<TxnToken> = store.txns.lock().write_sets.keys().copied().collect();
        for writer in losers {
            store.abort(writer);
        }
        // Truncate each shard's torn tail on disk and reopen for append.
        for (sid, seqs) in files.iter().enumerate() {
            let (file, file_seq, len) = match seqs.last() {
                Some(&seq) => {
                    let path = dir.join(wal_file_name(sid, gens[sid], seq));
                    let file = File::options().read(true).write(true).open(&path)?;
                    file.set_len(tails[sid])?;
                    file.sync_data()?;
                    drop(file);
                    (File::options().append(true).open(&path)?, seq, tails[sid])
                }
                None => (open_wal_file(&dir, sid, gens[sid], 0)?, 0, 0),
            };
            store.shards[sid].write().wal = Some(ShardWal {
                dir: dir.clone(),
                shard: sid,
                gen: gens[sid],
                file_seq,
                file,
                written: len,
                synced: len,
            });
        }
        *store.durable.lock() = Some(DurableShared {
            dir,
            gens,
            owns_dir: false,
        });
        store.durable_on.store(true, Ordering::Release);
        store.fsyncs.store(1, Ordering::Relaxed);
        Ok(store)
    }

    /// Replay one write-ahead file's frames, returning the length of the
    /// valid prefix.  An incomplete frame at the end of a chain's *final*
    /// file is a torn tail (dropped); anywhere else it is corruption.
    fn replay_frames(
        &self,
        bytes: &[u8],
        is_last: bool,
        path: &Path,
        deferred: &mut Vec<DeferredControl>,
    ) -> io::Result<usize> {
        let mut at = 0usize;
        while let Some(header) = bytes.get(at..at + 4) {
            let body_len = u32::from_le_bytes(header.try_into().expect("4-byte slice")) as usize;
            let Some(body) = bytes.get(at + 4..at + 4 + body_len) else {
                break;
            };
            self.replay_frame(body, deferred).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: frame at byte {at}: {e}", path.display()),
                )
            })?;
            at += 4 + body_len;
        }
        if at != bytes.len() && !is_last {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: torn frame at byte {at} of a sealed write-ahead file",
                    path.display()
                ),
            ));
        }
        Ok(at)
    }

    /// Apply one decoded frame through the ordinary mutation paths (no
    /// shard has its wal attached yet, so nothing is re-emitted).
    /// `Commit`/`Abort` frames are deferred to recovery's second pass.
    fn replay_frame(&self, body: &[u8], deferred: &mut Vec<DeferredControl>) -> Result<(), String> {
        let mut cur = FrameCursor { bytes: body, at: 0 };
        match cur.u8()? {
            FRAME_BEGIN => {
                // Informational: the writer's first Write frame re-opens
                // its write set.
                cur.u64()?;
            }
            FRAME_WRITE => {
                let writer = TxnToken(cur.u64()?);
                let table = cur.str()?;
                let row = RowId(cur.u64()?);
                let kind = write_kind_from_tag(cur.u8()?)?;
                let commit_ts = (cur.u8()? == 1)
                    .then(|| cur.u64())
                    .transpose()?
                    .map(Timestamp);
                let payload = if cur.u8()? == 1 {
                    let len = cur.u32()? as usize;
                    Some(decode_row(cur.take(len)?).ok_or("payload bytes do not decode as a row")?)
                } else {
                    None
                };
                self.replay_write(&table, row, writer, kind, payload, commit_ts);
            }
            FRAME_COMMIT => {
                let writer = TxnToken(cur.u64()?);
                let ts = Timestamp(cur.u64()?);
                deferred.push(DeferredControl::Commit(writer, ts));
            }
            FRAME_ABORT => {
                let writer = TxnToken(cur.u64()?);
                deferred.push(DeferredControl::Abort(writer));
            }
            FRAME_CREATE_TABLE => {
                let table = cur.str()?;
                self.create_table(&table);
            }
            FRAME_CREATE_INDEX => {
                let table = cur.str()?;
                let column = cur.str()?;
                self.create_index(&table, &column);
            }
            FRAME_TABLE_META => {
                let table = cur.str()?;
                let next_row_id = cur.u64()?;
                let indexed = (cur.u8()? == 1).then(|| cur.str()).transpose()?;
                let ghost_count = cur.u32()?;
                let mut ghosts = Vec::with_capacity(ghost_count as usize);
                for _ in 0..ghost_count {
                    ghosts.push(RowId(cur.u64()?));
                }
                let mut registry = self.registry.write();
                let name = self.intern(&mut registry, &table);
                let meta = registry.get_mut(&*name).expect("table just interned");
                meta.next_row_id = meta.next_row_id.max(next_row_id);
                // Merge, don't clobber: a data shard's metadata may have
                // been written before the index existed, but shard 0's
                // CreateIndex frame (replayed earlier in this pass) is
                // still authoritative.
                if indexed.is_some() {
                    meta.indexed_column = indexed;
                }
                drop(registry);
                for ghost in ghosts {
                    let sid = self.shard_of(&table, ghost);
                    let mut shard = self.shards[sid].write();
                    shard
                        .tables
                        .entry(Arc::clone(&name))
                        .or_default()
                        .rows
                        .entry(ghost)
                        .or_default();
                }
            }
            other => return Err(format!("unknown frame tag {other}")),
        }
        cur.expect_end()
    }

    /// Replay one `Write` frame.  Frames from the live append path carry
    /// no commit state (a deferred `Commit`/`Abort` frame resolves them
    /// in pass B); frames from a compaction rewrite inline it, so the
    /// pending bookkeeping the append path creates is immediately
    /// retired.
    fn replay_write(
        &self,
        table: &str,
        id: RowId,
        writer: TxnToken,
        kind: WriteKind,
        payload: Option<Row>,
        commit_ts: Option<Timestamp>,
    ) {
        let mut registry = self.registry.write();
        let name = self.intern(&mut registry, table);
        if matches!(kind, WriteKind::Insert) {
            let meta = registry.get_mut(&*name).expect("table just interned");
            meta.next_row_id = meta.next_row_id.max(id.0 + 1);
        }
        let mut txns = self.txns.lock();
        self.append(&registry, &mut txns, name, id, writer, payload, kind);
        if let Some(ts) = commit_ts {
            let (sid, ptr) = txns
                .pending
                .get_mut(&writer)
                .and_then(Vec::pop)
                .expect("append just pushed a pending pointer");
            if txns.pending.get(&writer).is_some_and(Vec::is_empty) {
                txns.pending.remove(&writer);
            }
            let writes = txns
                .write_sets
                .get_mut(&writer)
                .expect("append just pushed a write-set entry");
            writes.pop();
            if writes.is_empty() {
                txns.write_sets.remove(&writer);
            }
            self.shards[sid].write().segments[ptr.0].records[ptr.1].commit_ts = Some(ts);
            let mut last = self.last_commit.lock();
            if last.is_none_or(|t| t < ts) {
                *last = Some(ts);
            }
        }
    }

    // ------------------------------------------------------------------
    // Group commit.
    // ------------------------------------------------------------------

    /// Park until `writer`'s queued commit record is durably flushed —
    /// either by becoming the batch leader (first committer in holds the
    /// window open, emits every queued `Commit` frame, and issues one
    /// fsync) or by waiting a leader out.  Returns immediately when the
    /// writer has nothing queued, or when a crash-simulation hold is on.
    fn group_flush(&self, writer: TxnToken) {
        loop {
            let mut group = self.group.lock();
            if !group.queued.contains(&writer) {
                return;
            }
            if group.hold {
                // Crash-simulation hook: acknowledge without durability;
                // the held batch flushes via `flush_held_commits`.
                return;
            }
            if group.leader {
                self.group_cv.wait(&mut group);
                continue;
            }
            group.leader = true;
            drop(group);
            if let GroupCommit::On { window_micros } = self.config.group_commit {
                if window_micros > 0 {
                    std::thread::sleep(std::time::Duration::from_micros(window_micros));
                }
            }
            let batch = std::mem::take(&mut self.group.lock().queue);
            // `flush_batch` retires the batch from `queued` itself (under
            // the control shard's lock — see its docs).
            self.flush_batch(&batch);
            let mut group = self.group.lock();
            group.leader = false;
            self.group_cv.notify_all();
            // Loop: if this writer's record was in the batch it is no
            // longer queued and the next iteration returns.
        }
    }

    /// Durably flush one batch of commit records: fsync every dirty data
    /// shard (their `Write` frames must hit disk before any `Commit`
    /// frame covering them does), then append the batch's `Commit`
    /// frames to the control shard in enqueue order and fsync **once**.
    ///
    /// The batch is retired from [`GroupState::queued`] *while the
    /// control shard's write lock is still held*: a control-shard
    /// rewrite (`LogStore::rewrite_shard`) snapshots `queued` under
    /// that same lock to decide which commits are safe to persist, so
    /// "writer still queued" must mean "commit frame not yet durable" —
    /// clearing after releasing the lock would let a rewrite drop a
    /// durably-flushed commit from the chain it is replacing.
    fn flush_batch(&self, batch: &[(TxnToken, Timestamp)]) {
        if batch.is_empty() {
            return;
        }
        for shard_lock in self.shards.iter().skip(1) {
            shard_sync(&mut shard_lock.write(), &self.fsyncs);
        }
        let mut control = self.shards[0].write();
        for &(writer, ts) in batch {
            shard_emit(&mut control, &encode_commit_frame(writer, ts));
        }
        shard_sync(&mut control, &self.fsyncs);
        let mut group = self.group.lock();
        for (writer, _) in batch {
            group.queued.remove(writer);
        }
        drop(group);
        drop(control);
    }

    /// Whether `table` has a (possibly empty) version slot for `id` in
    /// its owning shard — the existence check behind `update`/`delete`.
    fn row_slot_exists(&self, table: &str, id: RowId) -> bool {
        let shard = self.shards[self.shard_of(table, id)].read();
        shard
            .tables
            .get(table)
            .is_some_and(|stable| stable.rows.contains_key(&id))
    }
}

// ---------------------------------------------------------------------
// Record access helpers (free functions so closures can borrow `LogShard`
// immutably while the store's methods hold the lock guard).
// ---------------------------------------------------------------------

fn record<'a>(shard: &'a LogShard, ptr: &RecordPtr) -> &'a LogRecord {
    &shard.segments[ptr.0].records[ptr.1]
}

fn is_tombstone(rec: &LogRecord) -> bool {
    rec.payload.is_none()
}

/// The most recent record regardless of commit state (dirty read).
fn latest_any(shard: &LogShard, ptrs: &[RecordPtr]) -> Option<Row> {
    ptrs.last().and_then(|p| record(shard, p).payload.clone())
}

/// The most recent committed record.
fn latest_committed(shard: &LogShard, ptrs: &[RecordPtr]) -> Option<Row> {
    ptrs.iter()
        .rev()
        .map(|p| record(shard, p))
        .find(|r| r.commit_ts.is_some())
        .and_then(|r| r.payload.clone())
}

/// The most recent record committed at or before `ts`.
fn committed_as_of<'a>(
    shard: &'a LogShard,
    ptrs: &[RecordPtr],
    ts: Timestamp,
) -> Option<&'a LogRecord> {
    ptrs.iter()
        .rev()
        .map(|p| record(shard, p))
        .find(|r| matches!(r.commit_ts, Some(c) if c <= ts))
}

/// Snapshot Isolation visibility (own uncommitted write first).
fn visible_for(
    shard: &LogShard,
    ptrs: &[RecordPtr],
    reader: TxnToken,
    start_ts: Timestamp,
) -> Option<Row> {
    ptrs.iter()
        .rev()
        .map(|p| record(shard, p))
        .find(|r| r.writer == reader && r.commit_ts.is_none())
        .or_else(|| committed_as_of(shard, ptrs, start_ts))
        .and_then(|r| r.payload.clone())
}

impl StorageBackend for LogStore {
    fn backend_name(&self) -> &'static str {
        "logstore"
    }

    fn create_table(&self, table: &str) {
        let mut registry = self.registry.write();
        self.intern(&mut registry, table);
    }

    fn tables(&self) -> Vec<TableName> {
        self.registry.read().keys().map(|k| k.to_string()).collect()
    }

    fn row_ids(&self, table: &str) -> Vec<RowId> {
        let mut ids: Vec<RowId> = Vec::new();
        for shard_lock in &self.shards {
            let shard = shard_lock.read();
            if let Some(stable) = shard.tables.get(table) {
                ids.extend(stable.rows.keys().copied());
            }
        }
        ids.sort_unstable();
        ids
    }

    fn insert(&self, table: &str, writer: TxnToken, row: Row) -> RowId {
        let (name, id) = {
            let mut registry = self.registry.write();
            let name = self.intern(&mut registry, table);
            let meta = registry.get_mut(&*name).expect("table just interned");
            let id = RowId(meta.next_row_id);
            meta.next_row_id += 1;
            (name, id)
        };
        let registry = self.registry.read();
        let mut txns = self.txns.lock();
        self.append(
            &registry,
            &mut txns,
            name,
            id,
            writer,
            Some(row),
            WriteKind::Insert,
        );
        id
    }

    fn update(
        &self,
        table: &str,
        writer: TxnToken,
        id: RowId,
        row: Row,
    ) -> Result<(), StorageError> {
        let registry = self.registry.read();
        let name = match registry.get(table) {
            Some(meta) => Arc::clone(&meta.name),
            None => return Err(StorageError::NoSuchTable(table.to_string())),
        };
        if !self.row_slot_exists(&name, id) {
            return Err(StorageError::NoSuchRow(table.to_string(), id));
        }
        let mut txns = self.txns.lock();
        self.append(
            &registry,
            &mut txns,
            name,
            id,
            writer,
            Some(row),
            WriteKind::Update,
        );
        Ok(())
    }

    fn delete(&self, table: &str, writer: TxnToken, id: RowId) -> Result<(), StorageError> {
        let registry = self.registry.read();
        let name = match registry.get(table) {
            Some(meta) => Arc::clone(&meta.name),
            None => return Err(StorageError::NoSuchTable(table.to_string())),
        };
        if !self.row_slot_exists(&name, id) {
            return Err(StorageError::NoSuchRow(table.to_string(), id));
        }
        let mut txns = self.txns.lock();
        self.append(
            &registry,
            &mut txns,
            name,
            id,
            writer,
            None,
            WriteKind::Delete,
        );
        Ok(())
    }

    fn get_latest_any(&self, table: &str, id: RowId) -> Option<Row> {
        self.read_row(table, id, latest_any)
    }

    fn get_latest_committed(&self, table: &str, id: RowId) -> Option<Row> {
        self.read_row(table, id, latest_committed)
    }

    fn get_committed_as_of(&self, table: &str, id: RowId, ts: Timestamp) -> Option<Row> {
        self.read_row(table, id, |shard, ptrs| {
            committed_as_of(shard, ptrs, ts).and_then(|r| r.payload.clone())
        })
    }

    fn get_visible(
        &self,
        table: &str,
        id: RowId,
        reader: TxnToken,
        start_ts: Timestamp,
    ) -> Option<Row> {
        self.read_row(table, id, |shard, ptrs| {
            visible_for(shard, ptrs, reader, start_ts)
        })
    }

    fn scan_latest_any(&self, predicate: &RowPredicate) -> Vec<(RowId, Row)> {
        self.scan(predicate, latest_any)
    }

    fn scan_latest_committed(&self, predicate: &RowPredicate) -> Vec<(RowId, Row)> {
        self.scan(predicate, latest_committed)
    }

    fn scan_committed_as_of(&self, predicate: &RowPredicate, ts: Timestamp) -> Vec<(RowId, Row)> {
        self.scan(predicate, |shard, ptrs| {
            committed_as_of(shard, ptrs, ts).and_then(|r| r.payload.clone())
        })
    }

    fn scan_visible(
        &self,
        predicate: &RowPredicate,
        reader: TxnToken,
        start_ts: Timestamp,
    ) -> Vec<(RowId, Row)> {
        self.scan(predicate, |shard, ptrs| {
            visible_for(shard, ptrs, reader, start_ts)
        })
    }

    fn create_index(&self, table: &str, column: &str) {
        let mut registry = self.registry.write();
        let name = self.intern(&mut registry, table);
        let meta = registry.get_mut(&*name).expect("table just interned");
        if meta.indexed_column.as_deref() == Some(column) {
            return;
        }
        meta.indexed_column = Some(column.to_string());
        if self.durable_on.load(Ordering::Acquire) {
            let mut control = self.shards[0].write();
            shard_emit(&mut control, &encode_create_index_frame(table, column));
        }
        // Backfill shard by shard: stamp every live record with its key
        // in the new column, then rebuild the shard's ordered slice from
        // those stamps.
        for shard_lock in &self.shards {
            let mut guard = shard_lock.write();
            let shard = &mut *guard;
            let Some(stable) = shard.tables.get(&*name) else {
                continue;
            };
            let ptrs: Vec<RecordPtr> = stable
                .rows
                .values()
                .flat_map(|v| v.iter().copied())
                .collect();
            let mut ordered: BTreeMap<(i64, RowId), usize> = BTreeMap::new();
            let mut stamped: Vec<(RecordPtr, Option<i64>)> = Vec::with_capacity(ptrs.len());
            for ptr in ptrs {
                let rec = record(shard, &ptr);
                let key = rec.payload.as_ref().and_then(|r| r.get_int(column));
                if let Some(key) = key {
                    *ordered.entry((key, rec.row)).or_insert(0) += 1;
                }
                stamped.push((ptr, key));
            }
            for (ptr, key) in stamped {
                shard.segments[ptr.0].records[ptr.1].index_key = key;
            }
            let stable = shard
                .tables
                .get_mut(&*name)
                .expect("shard table just probed");
            stable.ordered = ordered;
        }
    }

    fn indexed_column(&self, table: &str) -> Option<String> {
        self.registry
            .read()
            .get(table)
            .and_then(|meta| meta.indexed_column.clone())
    }

    fn scan_range(
        &self,
        table: &str,
        column: &str,
        range: &KeyInterval,
        view: ScanView,
    ) -> Vec<(RowId, Row)> {
        if range.is_int_empty() {
            return Vec::new();
        }
        let indexed = {
            let registry = self.registry.read();
            match registry.get(table) {
                Some(meta) => meta.indexed_column.clone(),
                None => return Vec::new(),
            }
        };
        let mut rows: Vec<(i64, RowId, Row)> = Vec::new();
        for shard_lock in &self.shards {
            let shard = shard_lock.read();
            let Some(stable) = shard.tables.get(table) else {
                continue;
            };
            let pick = |ptrs: &[RecordPtr]| -> Option<Row> {
                match view {
                    ScanView::LatestAny => latest_any(&shard, ptrs),
                    ScanView::LatestCommitted => latest_committed(&shard, ptrs),
                    ScanView::CommittedAsOf(ts) => {
                        committed_as_of(&shard, ptrs, ts).and_then(|r| r.payload.clone())
                    }
                    ScanView::Visible { reader, start_ts } => {
                        visible_for(&shard, ptrs, reader, start_ts)
                    }
                }
            };
            if indexed.as_deref() == Some(column) {
                // The ordered slice covers every live record in this
                // shard, so the probe can only over-approximate; the
                // picked version is re-checked.
                let lo = (range.lo().unwrap_or(i64::MIN), RowId(0));
                let hi = (range.hi().unwrap_or(i64::MAX), RowId(u64::MAX));
                let mut visited = HashSet::new();
                for &(_, id) in stable.ordered.range(lo..=hi).map(|(entry, _)| entry) {
                    if !visited.insert(id) {
                        continue;
                    }
                    if let Some(row) = stable.rows.get(&id).and_then(|ptrs| pick(ptrs)) {
                        if let Some(key) = row.get_int(column) {
                            if range.contains(key) {
                                rows.push((key, id, row));
                            }
                        }
                    }
                }
            } else {
                for (id, ptrs) in &stable.rows {
                    if let Some(row) = pick(ptrs) {
                        if let Some(key) = row.get_int(column) {
                            if range.contains(key) {
                                rows.push((key, *id, row));
                            }
                        }
                    }
                }
            }
        }
        rows.sort_unstable_by_key(|(key, id, _)| (*key, *id));
        rows.into_iter().map(|(_, id, row)| (id, row)).collect()
    }

    fn writes_of(&self, writer: TxnToken) -> Vec<(TableName, RowId, WriteKind)> {
        self.txns
            .lock()
            .write_sets
            .get(&writer)
            .map(|writes| {
                writes
                    .iter()
                    .map(|(table, id, kind)| (table.to_string(), *id, *kind))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn first_committer_conflict(
        &self,
        writer: TxnToken,
        start_ts: Timestamp,
    ) -> Option<(TableName, RowId)> {
        let writes: Vec<(Arc<str>, RowId)> = {
            let txns = self.txns.lock();
            let writes = txns.write_sets.get(&writer)?;
            writes
                .iter()
                .map(|(table, id, _)| (Arc::clone(table), *id))
                .collect()
        };
        for (table, id) in writes {
            let shard = self.shards[self.shard_of(&table, id)].read();
            let conflict = shard
                .tables
                .get(&*table)
                .and_then(|t| t.rows.get(&id))
                .expect("write-set entry names an indexed row — the append path indexes before recording")
                .iter()
                .map(|p| record(&shard, p))
                .any(|r| r.writer != writer && matches!(r.commit_ts, Some(c) if c > start_ts));
            if conflict {
                return Some((table.to_string(), id));
            }
        }
        None
    }

    fn has_foreign_uncommitted_on_writes(&self, writer: TxnToken) -> bool {
        let writes: Vec<(Arc<str>, RowId)> = {
            let txns = self.txns.lock();
            match txns.write_sets.get(&writer) {
                Some(writes) => writes
                    .iter()
                    .map(|(table, id, _)| (Arc::clone(table), *id))
                    .collect(),
                None => return false,
            }
        };
        writes.iter().any(|(table, id)| {
            let shard = self.shards[self.shard_of(table, *id)].read();
            shard
                .tables
                .get(&**table)
                .and_then(|t| t.rows.get(id))
                .expect("write-set entry names an indexed row — the append path indexes before recording")
                .iter()
                .map(|p| record(&shard, p))
                .any(|r| r.writer != writer && r.commit_ts.is_none())
        })
    }

    fn commit(&self, writer: TxnToken, ts: Timestamp) {
        let mut txns = self.txns.lock();
        let had_writes = txns.write_sets.remove(&writer).is_some();
        let pending = txns.pending.remove(&writer).unwrap_or_default();
        // Stamp shard by shard, ascending (the store-wide lock order).
        let mut by_shard: BTreeMap<usize, Vec<RecordPtr>> = BTreeMap::new();
        for (sid, ptr) in pending {
            by_shard.entry(sid).or_default().push(ptr);
        }
        for (&sid, ptrs) in &by_shard {
            let mut shard = self.shards[sid].write();
            for ptr in ptrs {
                let rec = &mut shard.segments[ptr.0].records[ptr.1];
                assert_eq!(
                    rec.writer, writer,
                    "commit({writer}): pending pointer resolves to a record owned by {} — the pending set and the log disagree",
                    rec.writer,
                );
                assert!(
                    rec.commit_ts.is_none(),
                    "commit({writer}): record at {ptr:?} is already committed at {:?} — a version must be stamped exactly once",
                    rec.commit_ts,
                );
                rec.commit_ts = Some(ts);
            }
        }
        if had_writes {
            {
                let mut last = self.last_commit.lock();
                if last.is_none_or(|t| t < ts) {
                    *last = Some(ts);
                }
            }
            // The commit boundary: the transaction is durable exactly
            // when its Commit frame (and, transitively, every data frame
            // it covers) is on disk.  Read-only commits (no write set)
            // touch nothing durable and pay no fsync.
            if self.durable_on.load(Ordering::Acquire) {
                match self.config.group_commit {
                    GroupCommit::Off => {
                        // Data shards first: a durable Commit frame must
                        // never cover un-synced Write frames, even when a
                        // concurrent committer's shard-0 fsync lands
                        // between our emit and our sync.
                        for &sid in by_shard.keys() {
                            if sid != 0 {
                                shard_sync(&mut self.shards[sid].write(), &self.fsyncs);
                            }
                        }
                        let mut control = self.shards[0].write();
                        shard_emit(&mut control, &encode_commit_frame(writer, ts));
                        shard_sync(&mut control, &self.fsyncs);
                    }
                    GroupCommit::On { .. } => {
                        // Enqueue only; the engine's follow-up
                        // `flush_commit` (outside its commit-sequence
                        // lock) parks behind the batch leader.  Enqueue
                        // order is commit order — the engine serialises
                        // calls to `commit`.
                        let mut group = self.group.lock();
                        group.queue.push((writer, ts));
                        group.queued.insert(writer);
                    }
                }
            }
        }
    }

    fn flush_commit(&self, writer: TxnToken) {
        if matches!(self.config.group_commit, GroupCommit::On { .. })
            && self.durable_on.load(Ordering::Acquire)
        {
            self.group_flush(writer);
        }
    }

    fn abort(&self, writer: TxnToken) {
        // Registry first: compaction (triggered below) snapshots table
        // metadata, and the store-wide order is registry → txns → shards.
        let registry = self.registry.read();
        let mut txns = self.txns.lock();
        txns.write_sets.remove(&writer);
        let pending = txns.pending.remove(&writer).unwrap_or_default();
        // No fsync: a writer with no durable Commit frame is aborted by
        // recovery anyway, so the Abort frame is an optimisation (it lets
        // replay reclaim the records) rather than a durability point.
        if !pending.is_empty() && self.durable_on.load(Ordering::Acquire) {
            let mut control = self.shards[0].write();
            shard_emit(&mut control, &encode_abort_frame(writer));
        }
        let mut by_shard: BTreeMap<usize, Vec<RecordPtr>> = BTreeMap::new();
        for (sid, ptr) in pending {
            by_shard.entry(sid).or_default().push(ptr);
        }
        let mut compact: Vec<usize> = Vec::new();
        for (&sid, ptrs) in &by_shard {
            let mut guard = self.shards[sid].write();
            let shard = &mut *guard;
            for ptr in ptrs {
                let rec = &mut shard.segments[ptr.0].records[ptr.1];
                assert!(
                    rec.commit_ts.is_none(),
                    "abort({writer}): record at {ptr:?} was already committed — commit and abort are mutually exclusive",
                );
                rec.aborted = true;
                // Unlink from the row's index entry; the (possibly empty)
                // entry itself stays, like an empty version chain.
                let table = Arc::clone(&rec.table);
                let row = rec.row;
                let index_key = rec.index_key;
                let stable = shard.tables.get_mut(&*table).expect(
                    "aborting an indexed record — the append path indexes before recording",
                );
                stable
                    .rows
                    .get_mut(&row)
                    .expect("aborting an indexed record — the append path indexes before recording")
                    .retain(|p| p != ptr);
                if let Some(key) = index_key {
                    if let Some(count) = stable.ordered.get_mut(&(key, row)) {
                        *count -= 1;
                        if *count == 0 {
                            stable.ordered.remove(&(key, row));
                        }
                    }
                }
                shard.dead += 1;
                shard.live -= 1;
            }
            if shard.dead >= self.config.compact_watermark {
                compact.push(sid);
            }
        }
        for sid in compact {
            self.compact_shard(&registry, &mut txns, sid);
        }
    }

    fn snapshot(&self, ts: Timestamp) -> Snapshot<'_> {
        Snapshot::new(self, ts)
    }

    fn committed_row_count(&self, table: &str) -> usize {
        self.shards
            .iter()
            .map(|shard_lock| {
                let shard = shard_lock.read();
                let Some(stable) = shard.tables.get(table) else {
                    return 0;
                };
                stable
                    .rows
                    .values()
                    .filter(|ptrs| {
                        ptrs.iter()
                            .rev()
                            .map(|p| record(&shard, p))
                            .find(|r| r.commit_ts.is_some())
                            .is_some_and(|r| !is_tombstone(r))
                    })
                    .count()
            })
            .sum()
    }

    fn version_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().live).sum()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl fmt::Debug for LogStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogStore")
            .field("shards", &self.shards.len())
            .field("segments", &self.segment_count())
            .field("live", &self.version_count())
            .field("dead", &self.dead_record_count())
            .field("tables", &self.registry.read().keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Drop for LogStore {
    fn drop(&mut self) {
        // A held or queued batch flushes before the files close: dropping
        // a store must not lose commits it acknowledged.
        let batch = std::mem::take(&mut self.group.lock().queue);
        self.flush_batch(&batch);
        let durable = self.durable.lock().take();
        if let Some(durable) = durable {
            self.durable_on.store(false, Ordering::Release);
            for shard_lock in &self.shards {
                if let Some(wal) = shard_lock.write().wal.take() {
                    // A clean drop leaves nothing to lose at recovery.
                    let _ = wal.file.sync_data();
                }
            }
            if durable.owns_dir {
                let _ = fs::remove_dir_all(&durable.dir);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Durable write-ahead layer: frame codec and file plumbing.
//
// A write-ahead file is a sequence of frames, each `[u32 LE body length]`
// followed by the body; a body is a one-byte tag followed by the tag's
// fields (u64/u32 little-endian, strings as u32 length + UTF-8, row
// payloads through `encode_row`).  The length prefix is what makes the
// torn-tail contract checkable: a frame is either wholly present or
// wholly absent.
// ---------------------------------------------------------------------

/// A transaction's first write (informational; replay reopens the write
/// set at the first `Write` frame).
const FRAME_BEGIN: u8 = 1;
/// One versioned record: writer, table, row, write kind, optional inline
/// commit timestamp (only in rewrite output), optional row payload
/// (absent = tombstone).
const FRAME_WRITE: u8 = 2;
/// Commit record: everything the writer appended is durable at this
/// timestamp.  Always in shard 0's chain; the per-commit path fsyncs
/// immediately after this frame, the group-commit leader after its
/// whole batch.
const FRAME_COMMIT: u8 = 3;
/// Abort record: the writer's records are dead (an optimisation for
/// replay — recovery aborts commit-less writers regardless).
const FRAME_ABORT: u8 = 4;
/// Table registration, in intern order.  Always in shard 0's chain.
const FRAME_CREATE_TABLE: u8 = 5;
/// Ordered secondary index registration; replay re-runs the backfill.
const FRAME_CREATE_INDEX: u8 = 6;
/// Per-table metadata at the head of a rewrite generation: row-id
/// allocator, indexed column, and the rewritten shard's ghost row slots,
/// none of which the surviving record stream re-creates.
const FRAME_TABLE_META: u8 = 7;

fn write_kind_tag(kind: WriteKind) -> u8 {
    match kind {
        WriteKind::Insert => 0,
        WriteKind::Update => 1,
        WriteKind::Delete => 2,
    }
}

fn write_kind_from_tag(tag: u8) -> Result<WriteKind, String> {
    match tag {
        0 => Ok(WriteKind::Insert),
        1 => Ok(WriteKind::Update),
        2 => Ok(WriteKind::Delete),
        other => Err(format!("unknown write-kind tag {other}")),
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Checked length-to-`u32` conversion for the codec's length fields: a
/// silent `as` truncation past 4 GiB would corrupt the log; fail loudly
/// instead.
fn frame_len(len: usize, what: &str) -> u32 {
    u32::try_from(len)
        .unwrap_or_else(|_| panic!("{what} of {len} bytes overflows the u32 frame length field"))
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, frame_len(s.len(), "frame string"));
    out.extend_from_slice(s.as_bytes());
}

/// Wrap a frame body in its length header.
fn frame(body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
    push_u32(&mut out, frame_len(body.len(), "frame body"));
    out.extend_from_slice(&body);
    out
}

fn encode_begin_frame(writer: TxnToken) -> Vec<u8> {
    let mut body = vec![FRAME_BEGIN];
    push_u64(&mut body, writer.0);
    frame(body)
}

fn encode_write_frame(
    table: &str,
    row: RowId,
    writer: TxnToken,
    kind: WriteKind,
    commit_ts: Option<Timestamp>,
    payload: Option<&[u8]>,
) -> Vec<u8> {
    let mut body = vec![FRAME_WRITE];
    push_u64(&mut body, writer.0);
    push_str(&mut body, table);
    push_u64(&mut body, row.0);
    body.push(write_kind_tag(kind));
    match commit_ts {
        Some(ts) => {
            body.push(1);
            push_u64(&mut body, ts.0);
        }
        None => body.push(0),
    }
    match payload {
        Some(bytes) => {
            body.push(1);
            push_u32(&mut body, frame_len(bytes.len(), "row payload"));
            body.extend_from_slice(bytes);
        }
        None => body.push(0),
    }
    frame(body)
}

fn encode_commit_frame(writer: TxnToken, ts: Timestamp) -> Vec<u8> {
    let mut body = vec![FRAME_COMMIT];
    push_u64(&mut body, writer.0);
    push_u64(&mut body, ts.0);
    frame(body)
}

fn encode_abort_frame(writer: TxnToken) -> Vec<u8> {
    let mut body = vec![FRAME_ABORT];
    push_u64(&mut body, writer.0);
    frame(body)
}

fn encode_create_table_frame(table: &str) -> Vec<u8> {
    let mut body = vec![FRAME_CREATE_TABLE];
    push_str(&mut body, table);
    frame(body)
}

fn encode_create_index_frame(table: &str, column: &str) -> Vec<u8> {
    let mut body = vec![FRAME_CREATE_INDEX];
    push_str(&mut body, table);
    push_str(&mut body, column);
    frame(body)
}

fn encode_table_meta_frame(
    table: &str,
    next_row_id: u64,
    indexed: Option<&str>,
    ghosts: &[RowId],
) -> Vec<u8> {
    let mut body = vec![FRAME_TABLE_META];
    push_str(&mut body, table);
    push_u64(&mut body, next_row_id);
    match indexed {
        Some(column) => {
            body.push(1);
            push_str(&mut body, column);
        }
        None => body.push(0),
    }
    push_u32(&mut body, frame_len(ghosts.len(), "ghost row list"));
    for ghost in ghosts {
        push_u64(&mut body, ghost.0);
    }
    frame(body)
}

/// Bounds-checked reader over one frame body.
struct FrameCursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> FrameCursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let slice = self
            .bytes
            .get(self.at..self.at + n)
            .ok_or_else(|| format!("frame body ends early at byte {}", self.at))?;
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4-byte slice"),
        ))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8-byte slice"),
        ))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map(str::to_string)
            .map_err(|_| "frame string is not UTF-8".to_string())
    }

    fn expect_end(&self) -> Result<(), String> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after frame body",
                self.bytes.len() - self.at
            ))
        }
    }
}

/// Append an encoded frame to a shard's open write-ahead file.  A no-op
/// when the shard has no wal attached (non-durable stores and recovery
/// replay); an append failure on a live durable store is fatal — the log
/// could no longer be the truth.
fn shard_emit(shard: &mut LogShard, frame: &[u8]) {
    if let Some(wal) = shard.wal.as_mut() {
        wal.file.write_all(frame).unwrap_or_else(|e| {
            panic!(
                "write-ahead append under {} failed: {e} — the log can no longer be the truth",
                wal.dir.display()
            )
        });
        wal.written += frame.len() as u64;
    }
}

/// Fsync a shard's open write-ahead file (the commit boundary), bumping
/// the store's always-on fsync counter.  Skipped when every written byte
/// is already covered — that dirty check is what lets a commit sync only
/// the data shards it actually touched, and the group-commit leader skip
/// shards the batch never wrote.
fn shard_sync(shard: &mut LogShard, fsyncs: &AtomicU64) {
    if let Some(wal) = shard.wal.as_mut() {
        if wal.written == wal.synced {
            return;
        }
        wal.file.sync_data().unwrap_or_else(|e| {
            panic!(
                "write-ahead fsync under {} failed: {e} — a reported commit might not be durable",
                wal.dir.display()
            )
        });
        wal.synced = wal.written;
        fsyncs.fetch_add(1, Ordering::Relaxed);
    }
}

/// Seal a shard's open write-ahead file (sync it if dirty) and open the
/// next one in the generation — the durable side of an in-memory segment
/// seal.
fn shard_rotate(shard: &mut LogShard, fsyncs: &AtomicU64) {
    let Some(wal) = shard.wal.as_mut() else {
        return;
    };
    if wal.written != wal.synced {
        wal.file.sync_data().unwrap_or_else(|e| {
            panic!(
                "write-ahead seal fsync under {} failed: {e} — a sealed segment might not be durable",
                wal.dir.display()
            )
        });
        wal.synced = wal.written;
        fsyncs.fetch_add(1, Ordering::Relaxed);
    }
    wal.file_seq += 1;
    wal.file = open_wal_file(&wal.dir, wal.shard, wal.gen, wal.file_seq).unwrap_or_else(|e| {
        panic!(
            "opening the next write-ahead file under {} failed: {e}",
            wal.dir.display()
        )
    });
    wal.written = 0;
    wal.synced = 0;
}

fn wal_file_name(shard: usize, gen: u64, seq: u64) -> String {
    format!("wal-{shard}-{gen}-{seq}.seg")
}

fn parse_wal_name(name: &str) -> Option<(usize, u64, u64)> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    let (shard, rest) = rest.split_once('-')?;
    let (gen, seq) = rest.split_once('-')?;
    Some((shard.parse().ok()?, gen.parse().ok()?, seq.parse().ok()?))
}

fn open_wal_file(dir: &Path, shard: usize, gen: u64, seq: u64) -> io::Result<File> {
    File::options()
        .append(true)
        .create(true)
        .open(dir.join(wal_file_name(shard, gen, seq)))
}

/// Write the manifest atomically: temp file, sync, rename over, then a
/// best-effort directory sync so the rename itself is on disk.  The
/// manifest names every shard's live generation in one record — a
/// crashed rewrite can therefore never leave half the shards on a new
/// generation: either the rename landed (all gens new) or it did not
/// (all gens old), and recovery deletes whichever side lost.
fn write_manifest(dir: &Path, gens: &[u64], config: LogStoreConfig) -> io::Result<()> {
    let gens_list = gens
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let group = match config.group_commit {
        GroupCommit::Off => "off".to_string(),
        GroupCommit::On { window_micros } => format!("on:{window_micros}"),
    };
    let body = format!(
        "gens={gens_list}\nshards={}\nsegment_records={}\ncompact_watermark={}\ngroup_commit={group}\n",
        config.shards,
        config.segment_records,
        config.compact_watermark,
    );
    let tmp = dir.join("MANIFEST.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(body.as_bytes())?;
    file.sync_data()?;
    drop(file);
    fs::rename(&tmp, dir.join("MANIFEST"))?;
    if let Ok(dirf) = File::open(dir) {
        let _ = dirf.sync_all();
    }
    Ok(())
}

fn read_manifest(dir: &Path) -> io::Result<(Vec<u64>, LogStoreConfig)> {
    let text = fs::read_to_string(dir.join("MANIFEST"))?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("MANIFEST: {what}"));
    let mut gens: Option<Vec<u64>> = None;
    let mut config = LogStoreConfig::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        match key {
            "gens" => {
                gens = Some(
                    value
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.parse().map_err(|_| bad("bad shard generation")))
                        .collect::<io::Result<Vec<u64>>>()?,
                );
            }
            "shards" => config.shards = value.parse().map_err(|_| bad("bad shards"))?,
            "segment_records" => {
                config.segment_records = value.parse().map_err(|_| bad("bad segment_records"))?;
            }
            "compact_watermark" => {
                config.compact_watermark =
                    value.parse().map_err(|_| bad("bad compact_watermark"))?;
            }
            "group_commit" => {
                config.group_commit = if value == "off" {
                    GroupCommit::Off
                } else if let Some(micros) = value.strip_prefix("on:") {
                    GroupCommit::On {
                        window_micros: micros
                            .parse()
                            .map_err(|_| bad("bad group_commit window"))?,
                    }
                } else {
                    return Err(bad("bad group_commit"));
                };
            }
            _ => {}
        }
    }
    Ok((gens.ok_or_else(|| bad("missing gens"))?, config))
}

// ---------------------------------------------------------------------
// Row codec (the offline serde shim does not serialise, so the frame
// format is hand-rolled: length-prefixed column names and tagged values).
// ---------------------------------------------------------------------

fn encode_row(row: &Row) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for (name, value) in row.columns() {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        match value {
            ColumnValue::Int(v) => {
                out.push(0);
                out.extend_from_slice(&v.to_le_bytes());
            }
            ColumnValue::Text(s) => {
                out.push(1);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            ColumnValue::Bool(b) => {
                out.push(2);
                out.push(u8::from(*b));
            }
            ColumnValue::Null => out.push(3),
        }
    }
    out
}

fn decode_row(bytes: &[u8]) -> Option<Row> {
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
        let slice = bytes.get(*at..*at + n)?;
        *at += n;
        Some(slice)
    };
    let take_u32 =
        |at: &mut usize| -> Option<u32> { Some(u32::from_le_bytes(take(at, 4)?.try_into().ok()?)) };
    let ncols = take_u32(&mut at)?;
    let mut row = Row::new();
    for _ in 0..ncols {
        let name_len = take_u32(&mut at)? as usize;
        let name = std::str::from_utf8(take(&mut at, name_len)?)
            .ok()?
            .to_string();
        let tag = *take(&mut at, 1)?.first()?;
        match tag {
            0 => {
                let v = i64::from_le_bytes(take(&mut at, 8)?.try_into().ok()?);
                row.set(&name, v);
            }
            1 => {
                let len = take_u32(&mut at)? as usize;
                let s = std::str::from_utf8(take(&mut at, len)?).ok()?.to_string();
                row.set(&name, s.as_str());
            }
            2 => {
                let b = *take(&mut at, 1)?.first()? != 0;
                row.set(&name, b);
            }
            3 => row.set(&name, ColumnValue::Null),
            _ => return None,
        }
    }
    (at == bytes.len()).then_some(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Condition, RowPredicate};

    fn balance_row(v: i64) -> Row {
        Row::new().with("balance", v)
    }

    fn tiny() -> LogStore {
        LogStore::with_config(LogStoreConfig {
            segment_records: 4,
            compact_watermark: 3,
            ..LogStoreConfig::default()
        })
    }

    fn tiny_sharded() -> LogStore {
        LogStore::with_config(LogStoreConfig {
            segment_records: 4,
            compact_watermark: 3,
            shards: 4,
            ..LogStoreConfig::default()
        })
    }

    #[test]
    fn insert_commit_read_cycle() {
        let store = LogStore::new();
        let id = store.insert("accounts", TxnToken(1), balance_row(50));
        assert!(store.get_latest_committed("accounts", id).is_none());
        assert_eq!(
            store
                .get_latest_any("accounts", id)
                .unwrap()
                .get_int("balance"),
            Some(50)
        );
        store.commit(TxnToken(1), Timestamp(1));
        assert_eq!(
            store
                .get_latest_committed("accounts", id)
                .unwrap()
                .get_int("balance"),
            Some(50)
        );
        assert_eq!(store.version_count(), 1);
        assert_eq!(store.committed_row_count("accounts"), 1);
    }

    #[test]
    fn update_requires_existing_row_and_table() {
        let store = LogStore::new();
        store.create_table("accounts");
        let err = store
            .update("accounts", TxnToken(1), RowId(99), balance_row(1))
            .unwrap_err();
        assert!(matches!(err, StorageError::NoSuchRow(_, _)));
        let err = store
            .update("missing", TxnToken(1), RowId(0), balance_row(1))
            .unwrap_err();
        assert!(matches!(err, StorageError::NoSuchTable(_)));
        let err = store.delete("missing", TxnToken(1), RowId(0)).unwrap_err();
        assert!(matches!(err, StorageError::NoSuchTable(_)));
    }

    #[test]
    fn abort_unlinks_versions_and_keeps_the_row_slot() {
        let store = LogStore::new();
        let id = store.insert("accounts", TxnToken(1), balance_row(100));
        store.commit(TxnToken(1), Timestamp(1));
        store
            .update("accounts", TxnToken(2), id, balance_row(999))
            .unwrap();
        store.abort(TxnToken(2));
        assert_eq!(
            store
                .get_latest_any("accounts", id)
                .unwrap()
                .get_int("balance"),
            Some(100)
        );
        assert!(store.writes_of(TxnToken(2)).is_empty());
        assert_eq!(store.version_count(), 1);

        // A row whose only version aborted keeps its (empty) slot: a later
        // update through the same id succeeds, exactly like an empty chain.
        let ghost = store.insert("accounts", TxnToken(3), balance_row(5));
        store.abort(TxnToken(3));
        assert!(store.get_latest_any("accounts", ghost).is_none());
        assert!(store.row_ids("accounts").contains(&ghost));
        store
            .update("accounts", TxnToken(4), ghost, balance_row(6))
            .unwrap();
        store.commit(TxnToken(4), Timestamp(2));
        assert_eq!(
            store
                .get_latest_committed("accounts", ghost)
                .unwrap()
                .get_int("balance"),
            Some(6)
        );
    }

    #[test]
    fn compaction_reclaims_aborted_records_and_preserves_reads() {
        let store = tiny();
        let id = store.insert("t", TxnToken(1), balance_row(1));
        store.commit(TxnToken(1), Timestamp(1));
        // Burn through aborted versions until the watermark trips.
        for round in 0..5u64 {
            let txn = TxnToken(10 + round);
            store.update("t", txn, id, balance_row(-1)).unwrap();
            store.update("t", txn, id, balance_row(-2)).unwrap();
            store.abort(txn);
        }
        assert!(
            store.dead_record_count() < 3,
            "watermark should have compacted: {} dead",
            store.dead_record_count()
        );
        store.update("t", TxnToken(99), id, balance_row(2)).unwrap();
        store.commit(TxnToken(99), Timestamp(5));
        assert_eq!(
            store
                .get_latest_committed("t", id)
                .unwrap()
                .get_int("balance"),
            Some(2)
        );
        // Historical reads survive compaction.
        assert_eq!(
            store
                .get_committed_as_of("t", id, Timestamp(1))
                .unwrap()
                .get_int("balance"),
            Some(1)
        );
        assert_eq!(store.version_count(), 2);
    }

    #[test]
    fn commit_spanning_segments_and_pending_remap() {
        let store = tiny();
        // One transaction writes enough to span several 4-record segments,
        // while another aborts in between to force a compaction that must
        // remap the first transaction's pending pointers.
        let id = store.insert("t", TxnToken(1), balance_row(0));
        store.commit(TxnToken(1), Timestamp(1));
        for i in 0..6 {
            store.update("t", TxnToken(2), id, balance_row(i)).unwrap();
        }
        for round in 0..3u64 {
            let txn = TxnToken(50 + round);
            store.update("t", txn, id, balance_row(-1)).unwrap();
            store.abort(txn); // third abort trips the watermark
        }
        assert!(store.segment_count() >= 1);
        store.commit(TxnToken(2), Timestamp(2));
        assert_eq!(
            store
                .get_latest_committed("t", id)
                .unwrap()
                .get_int("balance"),
            Some(5)
        );
        assert_eq!(store.version_count(), 7);
    }

    #[test]
    fn snapshot_and_predicate_scans() {
        let store = tiny();
        let active = RowPredicate::new("employees", Condition::eq("active", true));
        let e1 = store.insert("employees", TxnToken(1), Row::new().with("active", true));
        store.insert("employees", TxnToken(1), Row::new().with("active", false));
        store.commit(TxnToken(1), Timestamp(1));
        store.insert("employees", TxnToken(2), Row::new().with("active", true));

        let committed = store.scan_latest_committed(&active);
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].0, e1);
        assert_eq!(store.scan_latest_any(&active).len(), 2);
        assert_eq!(
            store.scan_visible(&active, TxnToken(3), Timestamp(1)).len(),
            1
        );
        assert_eq!(
            store.scan_visible(&active, TxnToken(2), Timestamp(1)).len(),
            2
        );

        store.commit(TxnToken(2), Timestamp(2));
        let snap1 = store.snapshot(Timestamp(1));
        assert_eq!(snap1.count(&active), 1);
        let snap2 = store.snapshot(Timestamp(2));
        assert_eq!(snap2.count(&active), 2);
    }

    #[test]
    fn first_committer_conflict_detection() {
        let store = LogStore::new();
        let id = store.insert("accounts", TxnToken(1), balance_row(100));
        store.commit(TxnToken(1), Timestamp(1));
        store
            .update("accounts", TxnToken(2), id, balance_row(120))
            .unwrap();
        store
            .update("accounts", TxnToken(3), id, balance_row(130))
            .unwrap();
        assert!(store.has_foreign_uncommitted_on_writes(TxnToken(2)));
        store.commit(TxnToken(2), Timestamp(2));
        assert_eq!(
            store.first_committer_conflict(TxnToken(3), Timestamp(1)),
            Some(("accounts".to_string(), id))
        );
        assert!(store
            .first_committer_conflict(TxnToken(9), Timestamp(0))
            .is_none());
    }

    #[test]
    fn sharded_store_routes_rows_and_pins_scan_order() {
        let store = tiny_sharded();
        let ids: Vec<RowId> = (0..12)
            .map(|i| store.insert("t", TxnToken(1), balance_row(i)))
            .collect();
        store.commit(TxnToken(1), Timestamp(1));
        // Rows are spread over more than one shard (FNV over 12 row ids
        // into 4 shards cannot land in one), yet the scan order is the
        // pinned backend-independent order.
        let populated = store
            .shards
            .iter()
            .filter(|s| s.read().tables.contains_key("t"))
            .count();
        assert!(populated > 1, "12 rows stayed in {populated} shard(s)");
        assert_eq!(store.row_ids("t"), ids);
        let scanned = store.scan_latest_committed(&RowPredicate::whole_table("t"));
        assert_eq!(
            scanned.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            ids,
            "scan order is ascending row id regardless of shard layout"
        );
        assert_eq!(store.committed_row_count("t"), 12);
        assert_eq!(store.version_count(), 12);

        // Cross-shard visibility plumbing: conflicts and aborts find the
        // owning shard.
        store
            .update("t", TxnToken(2), ids[3], balance_row(-1))
            .unwrap();
        assert!(!store.has_foreign_uncommitted_on_writes(TxnToken(2)));
        store
            .update("t", TxnToken(3), ids[3], balance_row(-2))
            .unwrap();
        assert!(store.has_foreign_uncommitted_on_writes(TxnToken(2)));
        store.commit(TxnToken(2), Timestamp(2));
        assert_eq!(
            store.first_committer_conflict(TxnToken(3), Timestamp(1)),
            Some(("t".to_string(), ids[3]))
        );
        store.abort(TxnToken(3));
        assert_eq!(
            store
                .get_latest_any("t", ids[3])
                .unwrap()
                .get_int("balance"),
            Some(-1)
        );
    }

    #[test]
    fn sharded_compaction_is_local_to_the_dirty_shard() {
        let store = tiny_sharded();
        let ids: Vec<RowId> = (0..8)
            .map(|i| store.insert("t", TxnToken(1), balance_row(i)))
            .collect();
        store.commit(TxnToken(1), Timestamp(1));
        let victim = ids[0];
        let vsid = store.shard_of("t", victim);
        let live_before: Vec<usize> = store.shards.iter().map(|s| s.read().live).collect();
        for round in 0..5u64 {
            let txn = TxnToken(10 + round);
            store.update("t", txn, victim, balance_row(-1)).unwrap();
            store.abort(txn);
        }
        assert!(
            store.dead_record_count() < 3,
            "the victim's shard should have compacted"
        );
        // Other shards were never repacked: their live counts are intact
        // and every row still reads back.
        for (sid, before) in live_before.iter().enumerate() {
            if sid != vsid {
                assert_eq!(store.shards[sid].read().live, *before, "shard {sid}");
            }
        }
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(
                store
                    .get_latest_committed("t", *id)
                    .unwrap()
                    .get_int("balance"),
                Some(i as i64)
            );
        }
    }

    #[test]
    fn ordered_index_backfills_and_tracks_writes() {
        let store = tiny();
        // Rows exist before the index: create_index must backfill.
        let a = store.insert("t", TxnToken(1), balance_row(30));
        let b = store.insert("t", TxnToken(1), balance_row(10));
        store.commit(TxnToken(1), Timestamp(1));
        store.create_index("t", "balance");
        assert_eq!(
            StorageBackend::indexed_column(&store, "t").as_deref(),
            Some("balance")
        );

        let all = store.scan_range(
            "t",
            "balance",
            &KeyInterval::everything(),
            ScanView::LatestCommitted,
        );
        assert_eq!(
            all.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![b, a],
            "ascending (key, row id) order"
        );
        let low = store.scan_range(
            "t",
            "balance",
            &KeyInterval::at_most(15),
            ScanView::LatestCommitted,
        );
        assert_eq!(low.len(), 1);
        assert_eq!(low[0].0, b);

        // Maintained through update/abort, including across segment seals.
        store.update("t", TxnToken(2), a, balance_row(5)).unwrap();
        let dirty = store.scan_range(
            "t",
            "balance",
            &KeyInterval::at_most(15),
            ScanView::LatestAny,
        );
        assert_eq!(
            dirty.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![a, b]
        );
        store.abort(TxnToken(2));
        let after = store.scan_range(
            "t",
            "balance",
            &KeyInterval::at_most(15),
            ScanView::LatestAny,
        );
        assert_eq!(after.iter().map(|(id, _)| *id).collect::<Vec<_>>(), vec![b]);

        // Plain scans over an indexed table come back in key order too.
        let pred = RowPredicate::whole_table("t");
        let scanned = store.scan_latest_committed(&pred);
        assert_eq!(
            scanned.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![b, a]
        );
    }

    #[test]
    fn scan_range_survives_compaction() {
        let store = LogStore::with_config(LogStoreConfig {
            segment_records: 4,
            compact_watermark: 2,
            ..LogStoreConfig::default()
        });
        store.create_index("t", "balance");
        let ids: Vec<RowId> = (0..6)
            .map(|i| store.insert("t", TxnToken(1), balance_row(i * 10)))
            .collect();
        store.commit(TxnToken(1), Timestamp(1));
        // Trip compaction with aborted updates.
        for round in 0..2u64 {
            let txn = TxnToken(20 + round);
            store.update("t", txn, ids[0], balance_row(-5)).unwrap();
            store.abort(txn);
        }
        assert_eq!(
            store.dead_record_count(),
            0,
            "watermark should have compacted"
        );
        let mid = store.scan_range(
            "t",
            "balance",
            &KeyInterval::range(Some(10), Some(30)),
            ScanView::LatestCommitted,
        );
        assert_eq!(
            mid.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![ids[1], ids[2], ids[3]]
        );
        // Historical view through the same entry point.
        let asof = store.scan_range(
            "t",
            "balance",
            &KeyInterval::everything(),
            ScanView::CommittedAsOf(Timestamp(1)),
        );
        assert_eq!(asof.len(), 6);
        // Empty interval is empty without touching the index.
        assert!(store
            .scan_range("t", "balance", &KeyInterval::empty(), ScanView::LatestAny)
            .is_empty());
        // Unindexed column falls back to a full pass with the same contract.
        let fallback = store.scan_range(
            "t",
            "missing",
            &KeyInterval::everything(),
            ScanView::LatestAny,
        );
        assert!(fallback.is_empty());
    }

    #[test]
    fn row_codec_round_trips() {
        let row = Row::new()
            .with("a", -42)
            .with("b", "héllo")
            .with("c", true)
            .with("d", ColumnValue::Null);
        assert_eq!(decode_row(&encode_row(&row)), Some(row));
        assert_eq!(decode_row(&encode_row(&Row::new())), Some(Row::new()));
        assert_eq!(decode_row(&[1, 2, 3]), None);
    }

    #[test]
    fn manifest_round_trips_sharded_config() {
        let dir = durable_dir("manifest");
        fs::create_dir_all(&dir).unwrap();
        let config = LogStoreConfig {
            segment_records: 9,
            compact_watermark: 17,
            shards: 3,
            group_commit: GroupCommit::On { window_micros: 250 },
        };
        write_manifest(&dir, &[4, 0, 7], config).unwrap();
        let (gens, read) = read_manifest(&dir).unwrap();
        assert_eq!(gens, vec![4, 0, 7]);
        assert_eq!(read.segment_records, 9);
        assert_eq!(read.compact_watermark, 17);
        assert_eq!(read.shards, 3);
        assert_eq!(read.group_commit, GroupCommit::On { window_micros: 250 });
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_names_round_trip() {
        assert_eq!(wal_file_name(2, 5, 9), "wal-2-5-9.seg");
        assert_eq!(parse_wal_name("wal-2-5-9.seg"), Some((2, 5, 9)));
        assert_eq!(parse_wal_name("wal-5-9.seg"), None, "old two-part names");
        assert_eq!(parse_wal_name("MANIFEST"), None);
    }

    #[test]
    fn row_ids_are_sequential_per_table_and_sorted() {
        let store = tiny();
        let a0 = store.insert("a", TxnToken(1), balance_row(0));
        let b0 = store.insert("b", TxnToken(1), balance_row(0));
        let a1 = store.insert("a", TxnToken(1), balance_row(0));
        assert_eq!((a0, b0, a1), (RowId(0), RowId(0), RowId(1)));
        assert_eq!(store.row_ids("a"), vec![RowId(0), RowId(1)]);
        assert_eq!(store.tables(), vec!["a".to_string(), "b".to_string()]);
        assert!(store.row_ids("missing").is_empty());
    }

    /// The census of log-store settings.  The destructure names every
    /// field with no `..`, so adding one cannot compile without coming
    /// here and saying why it exists: `segment_records` and
    /// `compact_watermark` size the log (the differential tests shrink
    /// them to force rollover and compaction), `shards` partitions it,
    /// `group_commit` schedules a durable store's fsyncs.
    #[test]
    fn config_defaults() {
        let LogStoreConfig {
            segment_records,
            compact_watermark,
            shards,
            group_commit,
        } = LogStoreConfig::default();
        assert_eq!(segment_records, 1024);
        assert_eq!(compact_watermark, 4096);
        assert_eq!(shards, 1);
        assert_eq!(group_commit, GroupCommit::Off);
    }

    #[test]
    fn debug_and_config_accessors() {
        let store = tiny();
        assert_eq!(store.config().segment_records, 4);
        assert_eq!(store.backend_name(), "logstore");
        let text = format!("{store:?}");
        assert!(text.contains("LogStore"));
    }

    fn durable_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "critique-logstore-test-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_empty_store_recovers_empty() {
        let dir = durable_dir("empty");
        drop(LogStore::open_durable(&dir, LogStoreConfig::default()).unwrap());
        let store = LogStore::recover(&dir).unwrap();
        assert!(store.tables().is_empty());
        let id = store.insert("t", TxnToken(1), balance_row(1));
        assert_eq!(id, RowId(0));
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_round_trip_recovers_committed_state_and_aborts_losers() {
        let dir = durable_dir("round-trip");
        let cfg = LogStoreConfig {
            segment_records: 4,
            compact_watermark: 64,
            ..LogStoreConfig::default()
        };
        let (a, b);
        {
            let store = LogStore::open_durable(&dir, cfg).unwrap();
            a = store.insert("accounts", TxnToken(1), balance_row(10));
            b = store.insert("accounts", TxnToken(1), balance_row(20));
            store.commit(TxnToken(1), Timestamp(5));
            store.create_index("accounts", "balance");
            store
                .update("accounts", TxnToken(2), a, balance_row(11))
                .unwrap();
            store.commit(TxnToken(2), Timestamp(7));
            store.delete("accounts", TxnToken(3), b).unwrap();
            store.commit(TxnToken(3), Timestamp(8));
            // Still in flight at the "crash": must be aborted by recovery.
            store
                .update("accounts", TxnToken(4), a, balance_row(999))
                .unwrap();
            assert!(store.fsync_count() >= 3, "each writing commit fsyncs");
        }
        let store = LogStore::recover(&dir).unwrap();
        assert_eq!(store.config().segment_records, 4, "manifest config wins");
        assert_eq!(
            store
                .get_latest_committed("accounts", a)
                .unwrap()
                .get_int("balance"),
            Some(11)
        );
        assert_eq!(
            store
                .get_committed_as_of("accounts", a, Timestamp(5))
                .unwrap()
                .get_int("balance"),
            Some(10),
            "historical reads survive recovery"
        );
        assert!(
            store.get_latest_committed("accounts", b).is_none(),
            "tombstone survives recovery"
        );
        assert_eq!(store.committed_row_count("accounts"), 1);
        assert!(
            store.writes_of(TxnToken(4)).is_empty(),
            "the commit-less writer lost the crash"
        );
        assert_eq!(
            store
                .get_latest_any("accounts", a)
                .unwrap()
                .get_int("balance"),
            Some(11),
            "the loser's record is unlinked"
        );
        assert_eq!(
            StorageBackend::indexed_column(&store, "accounts").as_deref(),
            Some("balance")
        );
        assert_eq!(
            store.scan_range(
                "accounts",
                "balance",
                &KeyInterval::everything(),
                ScanView::LatestCommitted,
            ),
            vec![(a, balance_row(11))],
            "the ordered index view is rebuilt"
        );
        assert_eq!(store.last_commit_ts(), Some(Timestamp(8)));
        // The row-id allocator continues where it left off, and a second
        // crash/recover cycle sees the post-recovery writes.
        let c = store.insert("accounts", TxnToken(9), balance_row(30));
        assert_eq!(c, RowId(2));
        store.commit(TxnToken(9), Timestamp(9));
        drop(store);
        let store = LogStore::recover(&dir).unwrap();
        assert_eq!(
            store
                .get_latest_committed("accounts", c)
                .unwrap()
                .get_int("balance"),
            Some(30)
        );
        assert_eq!(store.last_commit_ts(), Some(Timestamp(9)));
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_durable_round_trip_merges_shards() {
        let dir = durable_dir("sharded-round-trip");
        let cfg = LogStoreConfig {
            segment_records: 4,
            compact_watermark: 64,
            shards: 4,
            ..LogStoreConfig::default()
        };
        let ids: Vec<RowId>;
        {
            let store = LogStore::open_durable(&dir, cfg).unwrap();
            ids = (0..10)
                .map(|i| store.insert("accounts", TxnToken(1), balance_row(i)))
                .collect();
            store.commit(TxnToken(1), Timestamp(1));
            store.create_index("accounts", "balance");
            for (i, id) in ids.iter().enumerate().take(5) {
                let txn = TxnToken(10 + i as u64);
                store
                    .update("accounts", txn, *id, balance_row(100 + i as i64))
                    .unwrap();
                store.commit(txn, Timestamp(2 + i as u64));
            }
            // In flight at the crash.
            store
                .update("accounts", TxnToken(50), ids[9], balance_row(-1))
                .unwrap();
            // Every shard's chain exists on disk.
            for sid in 0..4 {
                assert!(
                    dir.join(wal_file_name(sid, 0, 0)).exists(),
                    "shard {sid} chain missing"
                );
            }
        }
        let store = LogStore::recover(&dir).unwrap();
        assert_eq!(store.config().shards, 4, "manifest pins the shard count");
        for (i, id) in ids.iter().enumerate() {
            let want = if i < 5 { 100 + i as i64 } else { i as i64 };
            assert_eq!(
                store
                    .get_latest_committed("accounts", *id)
                    .unwrap()
                    .get_int("balance"),
                Some(want),
                "row {i}"
            );
        }
        assert_eq!(store.last_commit_ts(), Some(Timestamp(6)));
        assert!(store.writes_of(TxnToken(50)).is_empty(), "loser aborted");
        assert_eq!(
            store
                .get_committed_as_of("accounts", ids[0], Timestamp(1))
                .unwrap()
                .get_int("balance"),
            Some(0),
            "pre-update history survives the cross-shard merge"
        );
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_on_compact_bounds_disk_and_recovers() {
        let dir = durable_dir("rewrite");
        let cfg = LogStoreConfig {
            segment_records: 4,
            compact_watermark: 3,
            ..LogStoreConfig::default()
        };
        let (id, ghost);
        {
            let store = LogStore::open_durable(&dir, cfg).unwrap();
            id = store.insert("t", TxnToken(1), balance_row(1));
            store.commit(TxnToken(1), Timestamp(1));
            ghost = store.insert("t", TxnToken(2), balance_row(5));
            store.abort(TxnToken(2));
            for round in 0..5u64 {
                let txn = TxnToken(10 + round);
                store.update("t", txn, id, balance_row(-1)).unwrap();
                store.update("t", txn, id, balance_row(-2)).unwrap();
                store.abort(txn);
            }
            let gen = store.durable_generation().unwrap();
            assert!(gen >= 1, "the watermark should have forced a rewrite");
            // Only the live generation's files remain on disk.
            for entry in fs::read_dir(&dir).unwrap() {
                let name = entry.unwrap().file_name();
                if let Some((s, g, _)) = parse_wal_name(name.to_str().unwrap()) {
                    assert_eq!(s, 0, "a single-shard store only writes shard 0");
                    assert_eq!(g, gen, "stale generation left behind: {name:?}");
                }
            }
            store.update("t", TxnToken(99), id, balance_row(2)).unwrap();
            store.commit(TxnToken(99), Timestamp(5));
        }
        let store = LogStore::recover(&dir).unwrap();
        assert_eq!(
            store
                .get_latest_committed("t", id)
                .unwrap()
                .get_int("balance"),
            Some(2)
        );
        assert_eq!(
            store
                .get_committed_as_of("t", id, Timestamp(1))
                .unwrap()
                .get_int("balance"),
            Some(1),
            "committed history survives the rewrite"
        );
        assert!(
            store.row_ids("t").contains(&ghost),
            "ghost row slots survive the rewrite via table metadata"
        );
        store
            .update("t", TxnToken(7), ghost, balance_row(6))
            .unwrap();
        store.commit(TxnToken(7), Timestamp(6));
        assert_eq!(
            store
                .get_latest_committed("t", ghost)
                .unwrap()
                .get_int("balance"),
            Some(6)
        );
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_rewrite_bumps_only_the_compacted_shard() {
        let dir = durable_dir("sharded-rewrite");
        let cfg = LogStoreConfig {
            segment_records: 4,
            compact_watermark: 3,
            shards: 4,
            ..LogStoreConfig::default()
        };
        let ids: Vec<RowId>;
        let victim_sid;
        {
            let store = LogStore::open_durable(&dir, cfg).unwrap();
            ids = (0..8)
                .map(|i| store.insert("t", TxnToken(1), balance_row(i)))
                .collect();
            store.commit(TxnToken(1), Timestamp(1));
            victim_sid = store.shard_of("t", ids[0]);
            for round in 0..5u64 {
                let txn = TxnToken(10 + round);
                store.update("t", txn, ids[0], balance_row(-1)).unwrap();
                store.abort(txn);
            }
            let gens = store.durable_generations().unwrap();
            assert!(
                gens[victim_sid] >= 1,
                "the dirty shard should have been rewritten: {gens:?}"
            );
            for (sid, gen) in gens.iter().enumerate() {
                if sid != victim_sid {
                    assert_eq!(*gen, 0, "shard {sid} was rewritten needlessly");
                }
            }
        }
        let store = LogStore::recover(&dir).unwrap();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(
                store
                    .get_latest_committed("t", *id)
                    .unwrap()
                    .get_int("balance"),
                Some(i as i64),
                "row {i} after the per-shard rewrite + recovery"
            );
        }
        assert_eq!(store.last_commit_ts(), Some(Timestamp(1)));
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }
}
