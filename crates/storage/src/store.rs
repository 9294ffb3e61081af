//! The multi-version store: tables of row version chains with an
//! epoch-pinned, lock-free read path.
//!
//! The store used to be a single `RwLock` around every table, then a set
//! of hash-partitioned shards each behind its own `RwLock`.  Sharding
//! removed the global chokepoint, but readers of a shard still serialised
//! against writers of the *same* shard — even though a version, once
//! published, never changes and visibility is decided purely by
//! timestamps.  This layout removes the read-side locks entirely:
//!
//! * a **table registry** is a grow-only lock-free list mapping each
//!   interned table name (`Arc<str>`) to its metadata; lookups walk it
//!   without locks, inserts serialise on one small mutex.  Row ids are
//!   allocated from a per-table atomic counter;
//! * each table owns a **chain directory** (`ChainDir`) — a jagged array
//!   of chunks installed by CAS and never moved, so a row id addresses a
//!   stable `RowSlot` holding the row's atomic version chain
//!   ([`ChainHead`]).  Readers resolve table → slot → chain with atomic
//!   loads only;
//! * **writers** still serialise per row through striped write locks
//!   (hash of `(table, row id)`), but publish every mutation with release
//!   stores: a new version is fully built before the head pointer moves,
//!   a commit stamp flips atomically, an abort splices nodes out and hands
//!   them to the epoch domain ([`Ebr`]) instead of freeing them;
//! * the same writers keep the store **stationary**: every
//!   `update`/`delete` cuts the row's chain below the newest version
//!   committed at or before the store's [`LowWaterMark`] and retires the
//!   tail (see *Version pruning* below) — no background thread, no timer;
//! * **readers** pin an epoch ([`Ebr::pin`]) for the duration of one
//!   operation and traverse chains through the pin — no stripe lock, no
//!   reference counting, wait-free in the common case.  Retired nodes are
//!   reclaimed only after every pinned epoch has advanced past them;
//! * the ordered secondary index per table is a sorted lock-free linked
//!   list (`OrderedIndex`) read under the same pins and mutated only
//!   under a per-table mutex, ordered *inside* the stripe lock;
//! * the per-transaction **write sets** live in their own partitions keyed
//!   by `TxnToken`, unchanged from the sharded layout.
//!
//! Two always-compiled counters ([`MvReadStats`]) make the core claims
//! assertable: `read_lock_acquisitions` stays zero on the epoch path
//! ("reads take no lock"), and the EBR domain's `reclaimed_while_pinned`
//! stays zero ("no use-after-free").  [`ReadPath::Locked`] takes stripe
//! read-locks on every read instead.
//!
//! # Version pruning
//!
//! Section 4.2 of the paper lets a Snapshot Isolation reader run "as long
//! as the snapshot data from its Start-Timestamp can be maintained" — which
//! read the other way round is the reclamation rule: per row, only the
//! newest version committed at or before the *oldest Start-Timestamp still
//! in use*, and everything newer, can ever be read again.  The store holds
//! that horizon as one monotonic [`LowWaterMark`]; whoever knows which
//! snapshots are live (the engine's active-snapshot registry) advances it,
//! and writers prune against it.  The invariants:
//!
//! * the **boundary** of a chain is its newest committed version with
//!   `commit_ts <= mark`; it and everything above it stay linked;
//! * an uncommitted version, or one committed after the mark, is never
//!   unlinked wherever it sits, so a row's last committed version
//!   (a tombstone included) always survives;
//! * the cut is a single release store of `next = null`; the detached
//!   nodes keep their own `next`, so a pinned reader already standing on
//!   them finishes a coherent walk, and they are freed through [`Ebr`]
//!   like aborted versions;
//! * a pruned version gives up its `OrderedIndex` reference *after* the
//!   unlink (the index stays a superset of every chain view) — or passes
//!   it to the version being installed when both carry the same key, which
//!   on an indexed table saves two O(rows) list walks per update;
//! * the mark starts at 0, which prunes nothing: a store nobody advances
//!   the mark of (every direct user in the tests, the time-travel reads)
//!   keeps every committed version forever, exactly as before.  Below an
//!   advanced mark, `*_committed_as_of` answers are no longer history.
//!
//! Bookkeeping surfaces (`version_count`, `committed_row_count`,
//! `row_ids`, `tables`) are lock-free in **both** modes: they are
//! final-state metrics, not visibility reads, so the locked baseline does
//! not need to tax them.

use crate::backend::{sort_scan_output, ScanView};
use crate::ebr::{Ebr, Guard, ReclamationStats};
use crate::predicate::{KeyInterval, RowPredicate};
use crate::row::{Row, RowId};
use crate::timestamp::{Timestamp, TxnToken};
use crate::version::ChainHead;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A table name.
pub type TableName = String;

/// Default number of write stripes (and write-set partitions).
pub const DEFAULT_SHARDS: usize = 16;

/// Which discipline point reads, scans and range scans use.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub enum ReadPath {
    /// Lock-free reads: pin an epoch, traverse atomic chains, never touch
    /// the write stripes.  The default.
    #[default]
    Epoch,
    /// The pre-epoch baseline: every row read additionally takes its
    /// stripe's read lock (and counts the acquisition), so the bench
    /// series can measure exactly what the locks cost.  Reclamation is
    /// still epoch-based — the lock is pure overhead, which is the point.
    Locked,
}

impl fmt::Display for ReadPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReadPath::Epoch => "epoch",
            ReadPath::Locked => "locked",
        })
    }
}

/// Always-compiled read-path counters, one set per store instance (never
/// global statics, so parallel tests cannot observe each other).  The
/// `epoch_stress` CI leg asserts them in release mode.
#[derive(Debug, Default)]
pub struct MvReadStats {
    read_lock_acquisitions: AtomicU64,
    read_pins: AtomicU64,
}

impl MvReadStats {
    /// Stripe read-locks taken by the read path so far.  Structurally zero
    /// under [`ReadPath::Epoch`] — the "reads take no lock" invariant.
    pub fn read_lock_acquisitions(&self) -> u64 {
        self.read_lock_acquisitions.load(Ordering::Relaxed)
    }

    /// Epoch pins taken by read operations so far (both read paths pin —
    /// reclamation is always epoch-based).
    pub fn read_pins(&self) -> u64 {
        self.read_pins.load(Ordering::Relaxed)
    }
}

/// The pruning horizon of an [`MvStore`]: no present or future reader will
/// ask for the state as of a timestamp below it, so writers may unlink
/// whatever only such a reader could reach (see *Version pruning* in the
/// module docs).  Monotonic; starts at 0, which prunes nothing.
///
/// The store only reads it.  Advancing it is the job of whoever tracks the
/// live snapshots — the engine takes the handle once
/// ([`MvStore::low_water_mark`]) and publishes `min(oldest active
/// Start-Timestamp, latest published commit)` after each commit.
#[derive(Debug, Default)]
pub struct LowWaterMark(AtomicU64);

impl LowWaterMark {
    /// Raise the mark to `to`; a lower value is ignored.  The caller
    /// promises that every reader below `to` has finished and none will
    /// start.
    pub fn advance(&self, to: Timestamp) {
        // The Release half pairs with the Acquire in `get`: the reads of
        // the snapshots that ended before the caller computed `to` happen
        // before any prune that acts on it.
        self.0.fetch_max(to.0, Ordering::AcqRel);
    }

    /// The current mark.
    pub fn get(&self) -> Timestamp {
        Timestamp(self.0.load(Ordering::Acquire))
    }
}

/// The kind of write a transaction performed on a row — used by the engine
/// to decide whether the write inserts into or mutates within a predicate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum WriteKind {
    /// A new row was created.
    Insert,
    /// An existing row's contents were replaced.
    Update,
    /// The row was deleted (tombstone installed).
    Delete,
}

/// Errors returned by the store.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StorageError {
    /// The referenced table does not exist.
    NoSuchTable(TableName),
    /// The referenced row does not exist in the table.
    NoSuchRow(TableName, RowId),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            StorageError::NoSuchRow(t, id) => write!(f, "no such row: {t}{id}"),
        }
    }
}

impl std::error::Error for StorageError {}

// ---------------------------------------------------------------------------
// Chain directory: row id → stable slot, through atomic loads only.
// ---------------------------------------------------------------------------

/// Slots per chunk 0; chunk `k` holds `64 << k` slots.
const BASE_CHUNK: u64 = 64;

/// Number of chunk pointers: `64 * (2^26 - 1)` ≈ 4.3 billion rows.
const SPINE: usize = 26;

/// One row's storage: its atomic version chain plus a "born" bit.
///
/// `born` records that the row id was handed out by [`MvStore::insert`];
/// it is set under the stripe lock and never cleared, so a row whose only
/// insert aborted still *exists* (its id appears in `row_ids`, updates
/// against it succeed) even though its chain is empty — exactly the
/// semantics the old map-of-chains layout had, which the log-structured
/// backend equivalence suite pins down.  Reads ignore the bit: an empty
/// chain answers `None` by itself.
#[derive(Default)]
struct RowSlot {
    born: AtomicBool,
    chain: ChainHead,
}

/// A jagged, grow-only directory of `RowSlot`s indexed by row id.
///
/// Chunk `k` (of `64 << k` slots, covering ids `64·(2^k − 1) ..`) is
/// allocated on first touch and installed with a CAS; chunks are never
/// moved or freed until the directory drops, so a `&RowSlot` obtained from
/// any load stays valid for the store's lifetime — that stability is what
/// lets readers hold slot references without pins or locks.
struct ChainDir {
    chunks: [AtomicPtr<RowSlot>; SPINE],
}

impl ChainDir {
    fn new() -> Self {
        ChainDir {
            chunks: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
        }
    }

    fn chunk_len(k: usize) -> usize {
        (BASE_CHUNK as usize) << k
    }

    /// Map a row id to its (chunk, offset) address.
    fn locate(id: u64) -> (usize, usize) {
        let bucket = id / BASE_CHUNK + 1;
        let k = (63 - bucket.leading_zeros()) as usize;
        let offset = (id - BASE_CHUNK * ((1u64 << k) - 1)) as usize;
        (k, offset)
    }

    /// The slot for `id`, if its chunk has been allocated.
    fn slot(&self, id: RowId) -> Option<&RowSlot> {
        let (k, offset) = Self::locate(id.0);
        if k >= SPINE {
            return None;
        }
        let chunk = self.chunks[k].load(Ordering::Acquire);
        if chunk.is_null() {
            return None;
        }
        // SAFETY: a non-null chunk pointer was published by `ensure_slot`'s
        // CAS over a fully initialised `Box<[RowSlot]>` of `chunk_len(k)`
        // slots and is never freed before `Drop` (&mut); `locate` keeps
        // `offset < chunk_len(k)` by construction.
        #[allow(unsafe_code)]
        Some(unsafe { &*chunk.add(offset) })
    }

    /// The slot for `id`, allocating its chunk if needed.
    fn ensure_slot(&self, id: RowId) -> &RowSlot {
        let (k, offset) = Self::locate(id.0);
        assert!(
            k < SPINE,
            "row id {} exceeds the chain directory capacity",
            id.0
        );
        let mut chunk = self.chunks[k].load(Ordering::Acquire);
        if chunk.is_null() {
            let fresh: Box<[RowSlot]> = (0..Self::chunk_len(k))
                .map(|_| RowSlot::default())
                .collect();
            let fresh = Box::into_raw(fresh) as *mut RowSlot;
            match self.chunks[k].compare_exchange(
                ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => chunk = fresh,
                Err(existing) => {
                    // SAFETY: `fresh` lost the race and was never published;
                    // this thread still uniquely owns the allocation, whose
                    // length is `chunk_len(k)` by construction.
                    #[allow(unsafe_code)]
                    unsafe {
                        drop(Box::from_raw(ptr::slice_from_raw_parts_mut(
                            fresh,
                            Self::chunk_len(k),
                        )));
                    }
                    chunk = existing;
                }
            }
        }
        // SAFETY: same publication/stability argument as `slot`.
        #[allow(unsafe_code)]
        unsafe {
            &*chunk.add(offset)
        }
    }

    /// Visit every allocated slot with id below `upto`, ascending.
    fn for_each_slot(&self, upto: u64, mut f: impl FnMut(u64, &RowSlot)) {
        let mut base = 0u64;
        for k in 0..SPINE {
            if base >= upto {
                break;
            }
            let len = Self::chunk_len(k) as u64;
            let chunk = self.chunks[k].load(Ordering::Acquire);
            if !chunk.is_null() {
                let count = len.min(upto - base);
                for i in 0..count {
                    // SAFETY: published chunk of `chunk_len(k)` slots (see
                    // `slot`); `i < len` bounds the offset.
                    #[allow(unsafe_code)]
                    let slot = unsafe { &*chunk.add(i as usize) };
                    f(base + i, slot);
                }
            }
            base += len;
        }
    }
}

impl Drop for ChainDir {
    fn drop(&mut self) {
        for k in 0..SPINE {
            let chunk = *self.chunks[k].get_mut();
            if !chunk.is_null() {
                // SAFETY: `&mut self` proves no reader holds a slot; each
                // published chunk is a `Box<[RowSlot]>` of `chunk_len(k)`
                // slots, freed exactly once here.
                #[allow(unsafe_code)]
                unsafe {
                    drop(Box::from_raw(ptr::slice_from_raw_parts_mut(
                        chunk,
                        Self::chunk_len(k),
                    )));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ordered secondary index: a sorted lock-free linked list.
// ---------------------------------------------------------------------------

/// One `(key, row id)` entry with a refcount: two versions of one row may
/// carry the same key, and an abort must not over-remove.
struct IndexNode {
    key: i64,
    id: RowId,
    refs: AtomicUsize,
    next: AtomicPtr<IndexNode>,
}

/// A table's ordered secondary index: a singly-linked list sorted by
/// `(key, row id)`, read lock-free under an epoch pin and mutated only
/// under its `write` mutex (acquired inside the row's stripe lock — the
/// lock order is always stripe → index).
///
/// The index covers every *live* version, committed or not, so it is a
/// superset of any one visibility view; range scans re-filter the picked
/// version precisely, making staleness towards "too many candidates"
/// harmless.  Unlinked nodes go to the EBR domain, never freed in place.
struct OrderedIndex {
    head: AtomicPtr<IndexNode>,
    write: Mutex<()>,
}

impl OrderedIndex {
    fn new() -> Self {
        OrderedIndex {
            head: AtomicPtr::new(ptr::null_mut()),
            write: Mutex::new(()),
        }
    }

    /// Add one reference to `(key, id)`, splicing a new node in sorted
    /// position if absent.  The node is fully built before the release
    /// store publishes it.
    fn add(&self, key: i64, id: RowId) {
        let _write = self.write.lock();
        let mut link: &AtomicPtr<IndexNode> = &self.head;
        loop {
            let cur = link.load(Ordering::Acquire);
            if !cur.is_null() {
                // SAFETY: reachable under the index write mutex; nodes are
                // unlinked and retired only by other holders of this mutex.
                #[allow(unsafe_code)]
                let node = unsafe { &*cur };
                if (node.key, node.id) < (key, id) {
                    link = &node.next;
                    continue;
                }
                if (node.key, node.id) == (key, id) {
                    node.refs.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            let fresh = Box::into_raw(Box::new(IndexNode {
                key,
                id,
                refs: AtomicUsize::new(1),
                next: AtomicPtr::new(cur),
            }));
            link.store(fresh, Ordering::Release);
            return;
        }
    }

    /// Drop one reference to `(key, id)`; the last reference unlinks the
    /// node and retires it to the EBR domain (an in-flight reader may
    /// still be standing on it).
    fn remove(&self, key: i64, id: RowId, ebr: &Ebr) {
        let _write = self.write.lock();
        let mut link: &AtomicPtr<IndexNode> = &self.head;
        loop {
            let cur = link.load(Ordering::Acquire);
            if cur.is_null() {
                return;
            }
            // SAFETY: reachable under the index write mutex (see `add`).
            #[allow(unsafe_code)]
            let node = unsafe { &*cur };
            if (node.key, node.id) == (key, id) {
                if node.refs.fetch_sub(1, Ordering::Relaxed) == 1 {
                    link.store(node.next.load(Ordering::Acquire), Ordering::Release);
                    ebr.retire(cur);
                }
                return;
            }
            if (node.key, node.id) > (key, id) {
                return;
            }
            link = &node.next;
        }
    }

    /// Unlink every entry and retire it (index rebuild).
    fn clear(&self, ebr: &Ebr) {
        let _write = self.write.lock();
        let mut cur = self.head.swap(ptr::null_mut(), Ordering::AcqRel);
        while !cur.is_null() {
            // SAFETY: unlinked in one swap under the write mutex; this
            // thread is the only one that can retire these nodes.  `next`
            // is read *before* retiring — retire may free immediately when
            // nothing is pinned.
            #[allow(unsafe_code)]
            let next = unsafe { (*cur).next.load(Ordering::Acquire) };
            ebr.retire(cur);
            cur = next;
        }
    }

    /// Visit every entry with `lo <= key <= hi`, ascending `(key, id)`,
    /// lock-free under the caller's pin.
    fn for_each_in_range(
        &self,
        lo: i64,
        hi: i64,
        _proof: &Guard<'_>,
        mut f: impl FnMut(i64, RowId),
    ) {
        let mut cur = self.head.load(Ordering::Acquire) as *const IndexNode;
        while !cur.is_null() {
            // SAFETY: non-null index pointers reference nodes published
            // with a release store and freed only through epoch
            // reclamation; the caller's pin (`_proof`) keeps every
            // reachable node alive for the walk.
            #[allow(unsafe_code)]
            let node = unsafe { &*cur };
            if node.key > hi {
                return;
            }
            if node.key >= lo {
                f(node.key, node.id);
            }
            cur = node.next.load(Ordering::Acquire);
        }
    }
}

impl Drop for OrderedIndex {
    fn drop(&mut self) {
        // `&mut self` proves no reader: retired nodes were unlinked first
        // and belong to the EBR domain, so everything reachable here is
        // owned by the list and freed exactly once.
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access (see above).
            #[allow(unsafe_code)]
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next.load(Ordering::Acquire);
        }
    }
}

// ---------------------------------------------------------------------------
// Table registry: a grow-only lock-free list of interned tables.
// ---------------------------------------------------------------------------

/// Per-table metadata: the interned name, the atomic row-id allocator, the
/// chain directory and the ordered index.  Row ids are handed out by
/// `fetch_add`, so concurrent inserters into the same table get distinct,
/// gap-free ids without any lock.
struct TableMeta {
    name: Arc<str>,
    next_row_id: AtomicU64,
    /// Column the table's ordered secondary index covers, if one has been
    /// registered: a `Box<Arc<str>>` behind an atomic pointer (`Arc<str>`
    /// is a fat pointer, so it is boxed to fit), read with one acquire
    /// load per scan — no lock, no per-read `Arc` clone.
    indexed_column: AtomicPtr<Arc<str>>,
    chains: ChainDir,
    index: OrderedIndex,
}

impl TableMeta {
    fn new(table: &str) -> Self {
        TableMeta {
            name: Arc::from(table),
            next_row_id: AtomicU64::new(0),
            indexed_column: AtomicPtr::new(ptr::null_mut()),
            chains: ChainDir::new(),
            index: OrderedIndex::new(),
        }
    }

    /// The indexed column, borrowed for the caller's pin — resolved once
    /// per scan call instead of a lock + `Arc` clone per call.
    fn indexed_column_ref<'g>(&self, _proof: &'g Guard<'_>) -> Option<&'g str> {
        let ptr = self.indexed_column.load(Ordering::Acquire);
        if ptr.is_null() {
            None
        } else {
            // SAFETY: a non-null pointer was published by
            // `set_indexed_column` over a fully built `Box<Arc<str>>`;
            // replacement retires the old box through the EBR domain, so
            // the caller's pin keeps this one alive.
            #[allow(unsafe_code)]
            Some(unsafe { &**ptr })
        }
    }

    /// Publish `column` as the indexed column, retiring the previous one.
    fn set_indexed_column(&self, column: &str, ebr: &Ebr) {
        let fresh = Box::into_raw(Box::new(Arc::<str>::from(column)));
        let old = self.indexed_column.swap(fresh, Ordering::AcqRel);
        if !old.is_null() {
            ebr.retire(old);
        }
    }
}

impl Drop for TableMeta {
    fn drop(&mut self) {
        let ptr = *self.indexed_column.get_mut();
        if !ptr.is_null() {
            // SAFETY: exclusive access; the box was published by
            // `set_indexed_column` and never freed (replacements retire
            // the *old* pointer, not this one).
            #[allow(unsafe_code)]
            unsafe {
                drop(Box::from_raw(ptr));
            }
        }
    }
}

/// One registry entry.  `next` is written once, before publication.
struct RegistryNode {
    meta: TableMeta,
    next: *const RegistryNode,
}

/// Interned table names → metadata: a grow-only lock-free singly-linked
/// list.  Lookups walk it with acquire loads; inserts serialise on the
/// `insert` mutex.  Nodes are never unlinked (tables are never dropped),
/// so a `&TableMeta` borrowed from `&self` stays valid for the store's
/// lifetime — readers resolve a table without pinning, locking, or
/// touching an `Arc` refcount.
struct Registry {
    head: AtomicPtr<RegistryNode>,
    insert: Mutex<()>,
}

impl Registry {
    fn new() -> Self {
        Registry {
            head: AtomicPtr::new(ptr::null_mut()),
            insert: Mutex::new(()),
        }
    }

    fn lookup(&self, table: &str) -> Option<&TableMeta> {
        let mut cur = self.head.load(Ordering::Acquire) as *const RegistryNode;
        while !cur.is_null() {
            // SAFETY: non-null registry pointers reference nodes published
            // with a release store and freed only in `Drop` (&mut), so the
            // `&self` borrow keeps them alive.
            #[allow(unsafe_code)]
            let node = unsafe { &*cur };
            if &*node.meta.name == table {
                return Some(&node.meta);
            }
            cur = node.next;
        }
        None
    }

    /// Look up the metadata for a table, creating it on first use.
    fn intern(&self, table: &str) -> &TableMeta {
        if let Some(meta) = self.lookup(table) {
            return meta;
        }
        let _insert = self.insert.lock();
        if let Some(meta) = self.lookup(table) {
            return meta;
        }
        let node = Box::into_raw(Box::new(RegistryNode {
            meta: TableMeta::new(table),
            next: self.head.load(Ordering::Acquire),
        }));
        self.head.store(node, Ordering::Release);
        // SAFETY: just published, freed only in `Drop` (see `lookup`).
        #[allow(unsafe_code)]
        unsafe {
            &(*node).meta
        }
    }

    fn for_each(&self, mut f: impl FnMut(&TableMeta)) {
        let mut cur = self.head.load(Ordering::Acquire) as *const RegistryNode;
        while !cur.is_null() {
            // SAFETY: same liveness argument as `lookup`.
            #[allow(unsafe_code)]
            let node = unsafe { &*cur };
            f(&node.meta);
            cur = node.next;
        }
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: `&mut self` proves no outstanding `&TableMeta`
            // borrows; each published node is freed exactly once.
            #[allow(unsafe_code)]
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next as *mut RegistryNode;
        }
    }
}

// ---------------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------------

/// One write performed by an in-flight transaction.  The table name is a
/// clone of the interned `Arc<str>` — recording a write allocates no new
/// `String`.
type OwnedWrite = (Arc<str>, RowId, WriteKind);

type WriteSet = BTreeMap<TxnToken, Vec<OwnedWrite>>;

/// One row of a write set being committed or rolled back: where it lives
/// and how many versions the transaction installed on it — which is what
/// lets [`ChainHead::commit`]/[`ChainHead::abort`] stop at the
/// transaction's own versions instead of walking the retained history.
struct WrittenRow {
    stripe: usize,
    table: Arc<str>,
    id: RowId,
    installed: usize,
}

/// Resolve one visibility rule against a chain under the caller's pin —
/// the four point reads and every scan funnel through this single match.
fn read_view<'g>(
    chain: &ChainHead,
    view: ScanView,
    proof: &'g Guard<'_>,
) -> Option<&'g crate::version::VersionNode> {
    match view {
        ScanView::LatestAny => chain.latest_any(proof),
        ScanView::LatestCommitted => chain.latest_committed(proof),
        ScanView::CommittedAsOf(ts) => chain.committed_as_of(ts, proof),
        ScanView::Visible { reader, start_ts } => chain.visible_for(reader, start_ts, proof),
    }
}

/// An in-memory multi-version row store with an epoch-pinned lock-free
/// read path.
///
/// All methods take `&self`; writers serialise per row on striped write
/// locks, readers pin an epoch and take no lock at all (see the module
/// docs).  The store can be shared between threads — the threaded
/// benchmark drivers rely on this — and operations on different rows
/// never contend.
pub struct MvStore {
    registry: Registry,
    /// Write stripes: `(table, row id)` hashes to the stripe whose write
    /// lock serialises mutations of that row.  Readers touch these only
    /// under [`ReadPath::Locked`].
    stripes: Box<[RwLock<()>]>,
    write_sets: Box<[Mutex<WriteSet>]>,
    ebr: Ebr,
    low_water: Arc<LowWaterMark>,
    read_path: ReadPath,
    stats: Arc<MvReadStats>,
}

impl Default for MvStore {
    fn default() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }
}

fn chain_hash(table: &str, id: RowId) -> u64 {
    let mut hasher = DefaultHasher::new();
    table.hash(&mut hasher);
    id.0.hash(&mut hasher);
    hasher.finish()
}

impl MvStore {
    /// An empty store with [`DEFAULT_SHARDS`] write stripes and the
    /// default (epoch) read path.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with an explicit stripe count (clamped to at least
    /// 1) and the default (epoch) read path.
    pub fn with_shards(shards: usize) -> Self {
        Self::with_read_path(shards, ReadPath::default())
    }

    /// An empty store with an explicit stripe count and read path.
    pub fn with_read_path(shards: usize, read_path: ReadPath) -> Self {
        let shards = shards.max(1);
        MvStore {
            registry: Registry::new(),
            stripes: (0..shards).map(|_| RwLock::new(())).collect(),
            write_sets: (0..shards).map(|_| Mutex::new(WriteSet::new())).collect(),
            ebr: Ebr::new(),
            low_water: Arc::new(LowWaterMark::default()),
            read_path,
            stats: Arc::new(MvReadStats::default()),
        }
    }

    /// Number of write stripes the store is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.stripes.len()
    }

    /// The read discipline this store was built with.
    pub fn read_path(&self) -> ReadPath {
        self.read_path
    }

    /// Shared handle to the read-path counters.
    pub fn read_stats(&self) -> Arc<MvReadStats> {
        Arc::clone(&self.stats)
    }

    /// Shared handle to the pruning horizon.  Until someone advances it
    /// the store prunes nothing.
    pub fn low_water_mark(&self) -> Arc<LowWaterMark> {
        Arc::clone(&self.low_water)
    }

    /// Snapshot of the epoch domain's reclamation counters.
    pub fn reclamation_stats(&self) -> ReclamationStats {
        self.ebr.stats()
    }

    /// Attempt an epoch advance and reclaim whatever grace periods have
    /// elapsed — lets quiescent callers (tests, shutdown) drain garbage.
    pub fn flush_reclamation(&self) {
        self.ebr.flush();
    }

    fn stripe_index(&self, table: &str, id: RowId) -> usize {
        (chain_hash(table, id) % self.stripes.len() as u64) as usize
    }

    fn stripe_for(&self, table: &str, id: RowId) -> &RwLock<()> {
        &self.stripes[self.stripe_index(table, id)]
    }

    fn write_set_for(&self, writer: TxnToken) -> &Mutex<WriteSet> {
        &self.write_sets[(writer.0 % self.write_sets.len() as u64) as usize]
    }

    /// Run one row read under the configured discipline: a no-op wrapper
    /// on the epoch path, a counted stripe read-lock on the baseline.
    fn with_read_discipline<R>(&self, table: &str, id: RowId, f: impl FnOnce() -> R) -> R {
        match self.read_path {
            ReadPath::Epoch => f(),
            ReadPath::Locked => {
                let _read = self.stripe_for(table, id).read();
                self.stats
                    .read_lock_acquisitions
                    .fetch_add(1, Ordering::Relaxed);
                f()
            }
        }
    }

    /// The indexed column of `table`, if an index has been registered.
    pub fn indexed_column(&self, table: &str) -> Option<String> {
        let guard = self.ebr.pin();
        self.registry
            .lookup(table)
            .and_then(|meta| meta.indexed_column_ref(&guard).map(|c| c.to_string()))
    }

    /// Register an ordered secondary index over the integer values of
    /// `column`, creating the table on demand and backfilling the keys of
    /// every live version already stored.  Setup-time API: concurrent
    /// writers racing the backfill may be missed — register indexes
    /// before traffic starts.
    pub fn create_index(&self, table: &str, column: &str) {
        let meta = self.registry.intern(table);
        let guard = self.ebr.pin();
        if meta.indexed_column_ref(&guard) == Some(column) {
            return;
        }
        meta.set_indexed_column(column, &self.ebr);
        meta.index.clear(&self.ebr);
        let upto = meta.next_row_id.load(Ordering::Acquire);
        let mut keys = Vec::new();
        meta.chains.for_each_slot(upto, |id, slot| {
            keys.clear();
            slot.chain.collect_int_keys(column, &guard, &mut keys);
            for &key in &keys {
                meta.index.add(key, RowId(id));
            }
        });
    }

    fn record_write(&self, writer: TxnToken, write: OwnedWrite) {
        self.write_set_for(writer)
            .lock()
            .entry(writer)
            .or_default()
            .push(write);
    }

    /// Create a table if it does not already exist.
    pub fn create_table(&self, table: &str) {
        self.registry.intern(table);
    }

    /// All table names, in ascending order.
    pub fn tables(&self) -> Vec<TableName> {
        let mut names = Vec::new();
        self.registry
            .for_each(|meta| names.push(meta.name.to_string()));
        names.sort_unstable();
        names
    }

    /// All row ids currently allocated in a table (whatever their
    /// visibility), in ascending order.
    pub fn row_ids(&self, table: &str) -> Vec<RowId> {
        let Some(meta) = self.registry.lookup(table) else {
            return Vec::new();
        };
        let mut ids = Vec::new();
        let upto = meta.next_row_id.load(Ordering::Acquire);
        meta.chains.for_each_slot(upto, |id, slot| {
            if slot.born.load(Ordering::Acquire) {
                ids.push(RowId(id));
            }
        });
        ids
    }

    /// Insert a new row as an uncommitted version by `writer`, returning
    /// its id.  The table is created on demand.
    pub fn insert(&self, table: &str, writer: TxnToken, row: Row) -> RowId {
        let meta = self.registry.intern(table);
        let key = {
            let guard = self.ebr.pin();
            meta.indexed_column_ref(&guard)
                .and_then(|col| row.get_int(col))
        };
        // Relaxed is enough: the id only needs to be unique, and the
        // stripe lock below orders the slot's publication.
        let id = RowId(meta.next_row_id.fetch_add(1, Ordering::Relaxed));
        {
            let _stripe = self.stripe_for(table, id).write();
            let slot = meta.chains.ensure_slot(id);
            slot.born.store(true, Ordering::Release);
            // Index before chain publication: the index stays a superset
            // of every chain view, so a concurrent range probe can never
            // miss a key whose version it would pick.
            if let Some(key) = key {
                meta.index.add(key, id);
            }
            slot.chain.install(writer, Some(row));
        }
        self.record_write(writer, (Arc::clone(&meta.name), id, WriteKind::Insert));
        id
    }

    /// Install a new uncommitted version of an existing row.
    pub fn update(
        &self,
        table: &str,
        writer: TxnToken,
        id: RowId,
        row: Row,
    ) -> Result<(), StorageError> {
        self.write_version(table, writer, id, Some(row), WriteKind::Update)
    }

    /// Install an uncommitted tombstone for an existing row.
    pub fn delete(&self, table: &str, writer: TxnToken, id: RowId) -> Result<(), StorageError> {
        self.write_version(table, writer, id, None, WriteKind::Delete)
    }

    fn write_version(
        &self,
        table: &str,
        writer: TxnToken,
        id: RowId,
        row: Option<Row>,
        kind: WriteKind,
    ) -> Result<(), StorageError> {
        let meta = self
            .registry
            .lookup(table)
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        let pruned = {
            let guard = self.ebr.pin();
            let indexed = meta.indexed_column_ref(&guard);
            let key_of = |row: Option<&Row>| indexed.and_then(|col| row?.get_int(col));
            let _stripe = self.stripe_for(table, id).write();
            let slot = meta
                .chains
                .slot(id)
                .filter(|slot| slot.born.load(Ordering::Acquire))
                .ok_or_else(|| StorageError::NoSuchRow(table.to_string(), id))?;
            // The writer's share of garbage collection: it holds the
            // stripe anyway, so it cuts off what no reader at or above the
            // low-water mark can reach.
            let pruned = slot.chain.prune(self.low_water.get());
            // Index before chain publication and after the unlink: the
            // index stays a superset of every chain view, so a concurrent
            // range probe can never miss a key whose version it would
            // pick.  A pruned version with the new version's key hands its
            // reference over — neither list walk happens.
            let mut add = key_of(row.as_ref());
            for version in pruned.versions() {
                match key_of(version.row()) {
                    Some(key) if Some(key) == add => add = None,
                    Some(key) => meta.index.remove(key, id, &self.ebr),
                    None => {}
                }
            }
            if let Some(key) = add {
                meta.index.add(key, id);
            }
            slot.chain.install(writer, row);
            pruned
        };
        // Stripe and pin are gone: retiring now delays neither other
        // writers of the stripe nor the epoch.
        pruned.retire(&self.ebr);
        self.record_write(writer, (Arc::clone(&meta.name), id, kind));
        Ok(())
    }

    /// One point read: pin, resolve table → slot, apply the visibility
    /// rule under the read discipline.
    fn point_read(&self, table: &str, id: RowId, view: ScanView) -> Option<Row> {
        let guard = self.ebr.pin();
        self.stats.read_pins.fetch_add(1, Ordering::Relaxed);
        let meta = self.registry.lookup(table)?;
        let slot = meta.chains.slot(id)?;
        self.with_read_discipline(table, id, || {
            read_view(&slot.chain, view, &guard).and_then(|v| v.row().cloned())
        })
    }

    /// Read the most recent version regardless of commit state (a dirty
    /// read).  Returns `None` if the row does not exist or its latest
    /// version is a tombstone.
    pub fn get_latest_any(&self, table: &str, id: RowId) -> Option<Row> {
        self.point_read(table, id, ScanView::LatestAny)
    }

    /// Read the most recent committed version.
    pub fn get_latest_committed(&self, table: &str, id: RowId) -> Option<Row> {
        self.point_read(table, id, ScanView::LatestCommitted)
    }

    /// Read the version committed as of `ts`.
    pub fn get_committed_as_of(&self, table: &str, id: RowId, ts: Timestamp) -> Option<Row> {
        self.point_read(table, id, ScanView::CommittedAsOf(ts))
    }

    /// Read with Snapshot Isolation visibility: `reader`'s own uncommitted
    /// write if any, otherwise the version committed as of `start_ts`.
    pub fn get_visible(
        &self,
        table: &str,
        id: RowId,
        reader: TxnToken,
        start_ts: Timestamp,
    ) -> Option<Row> {
        self.point_read(table, id, ScanView::Visible { reader, start_ts })
    }

    /// Walk the table's chain directory once, collect the matching rows,
    /// and merge into the pinned scan order (see [`sort_scan_output`]):
    /// ascending row id, or ascending (index key, row id) once the table
    /// carries an index.  The indexed-column handle is resolved once per
    /// call — one acquire load, shared by the sort — instead of a lock
    /// acquisition per call.
    fn scan(&self, predicate: &RowPredicate, view: ScanView) -> Vec<(RowId, Row)> {
        let guard = self.ebr.pin();
        self.stats.read_pins.fetch_add(1, Ordering::Relaxed);
        let Some(meta) = self.registry.lookup(predicate.table.as_str()) else {
            return Vec::new();
        };
        let indexed = meta.indexed_column_ref(&guard);
        let mut rows: Vec<(RowId, Row)> = Vec::new();
        let upto = meta.next_row_id.load(Ordering::Acquire);
        meta.chains.for_each_slot(upto, |id, slot| {
            let picked = self.with_read_discipline(&predicate.table, RowId(id), || {
                read_view(&slot.chain, view, &guard).and_then(|v| v.row().cloned())
            });
            if let Some(row) = picked {
                if predicate.matches(&predicate.table, &row) {
                    rows.push((RowId(id), row));
                }
            }
        });
        sort_scan_output(indexed, &mut rows);
        rows
    }

    /// Range scan over the integer key space of `column`: the rows whose
    /// picked version holds an `Int` value inside `range`, in ascending
    /// `(key, row id)` order.  When the table's ordered index covers
    /// `column` the candidate set comes from a lock-free index range walk
    /// (the index covers every live version, so it can only
    /// over-approximate — the picked version is always re-filtered
    /// precisely); otherwise the scan falls back to a full pass with
    /// identical results.
    pub fn scan_range(
        &self,
        table: &str,
        column: &str,
        range: &KeyInterval,
        view: ScanView,
    ) -> Vec<(RowId, Row)> {
        if range.is_int_empty() {
            return Vec::new();
        }
        let guard = self.ebr.pin();
        self.stats.read_pins.fetch_add(1, Ordering::Relaxed);
        let Some(meta) = self.registry.lookup(table) else {
            return Vec::new();
        };
        let pick = |id: RowId, slot: &RowSlot| -> Option<(i64, RowId, Row)> {
            let row = self.with_read_discipline(table, id, || {
                read_view(&slot.chain, view, &guard).and_then(|v| v.row().cloned())
            })?;
            let key = row.get_int(column).filter(|&key| range.contains(key))?;
            Some((key, id, row))
        };
        let mut rows: Vec<(i64, RowId, Row)> = Vec::new();
        if meta.indexed_column_ref(&guard) == Some(column) {
            let lo = range.lo().unwrap_or(i64::MIN);
            let hi = range.hi().unwrap_or(i64::MAX);
            let mut visited = HashSet::new();
            meta.index.for_each_in_range(lo, hi, &guard, |_, id| {
                // One row may carry several in-range keys across its
                // versions; visit it once.
                if !visited.insert(id) {
                    return;
                }
                if let Some(hit) = meta.chains.slot(id).and_then(|slot| pick(id, slot)) {
                    rows.push(hit);
                }
            });
        } else {
            let upto = meta.next_row_id.load(Ordering::Acquire);
            meta.chains.for_each_slot(upto, |id, slot| {
                if let Some(hit) = pick(RowId(id), slot) {
                    rows.push(hit);
                }
            });
        }
        rows.sort_unstable_by_key(|(key, id, _)| (*key, *id));
        rows.into_iter().map(|(_, id, row)| (id, row)).collect()
    }

    /// Scan the rows satisfying `predicate` in the latest committed state.
    pub fn scan_latest_committed(&self, predicate: &RowPredicate) -> Vec<(RowId, Row)> {
        self.scan(predicate, ScanView::LatestCommitted)
    }

    /// Scan the rows satisfying `predicate`, dirty reads included.
    pub fn scan_latest_any(&self, predicate: &RowPredicate) -> Vec<(RowId, Row)> {
        self.scan(predicate, ScanView::LatestAny)
    }

    /// Scan with Snapshot Isolation visibility.
    pub fn scan_visible(
        &self,
        predicate: &RowPredicate,
        reader: TxnToken,
        start_ts: Timestamp,
    ) -> Vec<(RowId, Row)> {
        self.scan(predicate, ScanView::Visible { reader, start_ts })
    }

    /// Scan the committed state as of `ts`.
    pub fn scan_committed_as_of(
        &self,
        predicate: &RowPredicate,
        ts: Timestamp,
    ) -> Vec<(RowId, Row)> {
        self.scan(predicate, ScanView::CommittedAsOf(ts))
    }

    /// The rows written so far by an in-flight transaction, in write order.
    pub fn writes_of(&self, writer: TxnToken) -> Vec<(TableName, RowId, WriteKind)> {
        self.write_set_for(writer)
            .lock()
            .get(&writer)
            .map(|writes| {
                writes
                    .iter()
                    .map(|(table, id, kind)| (table.to_string(), *id, *kind))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Snapshot of a transaction's write set with the interned names.
    fn owned_writes_of(&self, writer: TxnToken) -> Vec<OwnedWrite> {
        self.write_set_for(writer)
            .lock()
            .get(&writer)
            .cloned()
            .unwrap_or_default()
    }

    /// The chain a write-set entry names.  Chains are never removed, so a
    /// miss is a broken invariant, not an input error.
    fn written_slot(&self, writer: TxnToken, table: &str, id: RowId) -> (&TableMeta, &RowSlot) {
        self.registry
            .lookup(table)
            .and_then(|meta| Some((meta, meta.chains.slot(id)?)))
            .unwrap_or_else(|| {
                panic!(
                    "{writer}'s write set names {table}{id} but its version chain is gone — \
                     every recorded write installed a version, and chains must outlive every \
                     write-set reference"
                )
            })
    }

    /// The First-Committer-Wins check (Section 4.2): returns the first of
    /// `writer`'s written rows that was also written by a transaction that
    /// committed after `start_ts`, if any.  A non-`None` result means
    /// `writer` must abort rather than commit.
    ///
    /// Pruning cannot hide a conflict: it only unlinks versions committed
    /// at or before the low-water mark, and the mark never passes the
    /// Start-Timestamp of a live snapshot.
    pub fn first_committer_conflict(
        &self,
        writer: TxnToken,
        start_ts: Timestamp,
    ) -> Option<(TableName, RowId)> {
        let guard = self.ebr.pin();
        self.owned_writes_of(writer)
            .into_iter()
            .find(|(table, id, _)| {
                let (_, slot) = self.written_slot(writer, table, *id);
                slot.chain.committed_after(start_ts, writer, &guard)
            })
            .map(|(table, id, _)| (table.to_string(), id))
    }

    /// True if any row written by `writer` currently has an uncommitted
    /// version installed by a *different* transaction (used by
    /// first-writer-wins style schedulers).
    pub fn has_foreign_uncommitted_on_writes(&self, writer: TxnToken) -> bool {
        let guard = self.ebr.pin();
        self.owned_writes_of(writer).iter().any(|(table, id, _)| {
            let (_, slot) = self.written_slot(writer, table, *id);
            slot.chain.has_foreign_uncommitted(writer, &guard)
        })
    }

    /// Take `writer`'s write set and fold it into one entry per row,
    /// sorted by stripe, so commit/abort lock each stripe exactly once, in
    /// ascending order, and tell each chain how many versions to expect.
    fn take_written_rows(&self, writer: TxnToken) -> Vec<WrittenRow> {
        let writes = self
            .write_set_for(writer)
            .lock()
            .remove(&writer)
            .unwrap_or_default();
        let mut rows: Vec<WrittenRow> = writes
            .into_iter()
            .map(|(table, id, _)| WrittenRow {
                stripe: self.stripe_index(&table, id),
                table,
                id,
                installed: 1,
            })
            .collect();
        rows.sort_unstable_by(|a, b| (a.stripe, a.id, &*a.table).cmp(&(b.stripe, b.id, &*b.table)));
        rows.dedup_by(|again, first| {
            let same_row = again.id == first.id && again.table == first.table;
            if same_row {
                first.installed += again.installed;
            }
            same_row
        });
        rows
    }

    /// Commit all of `writer`'s versions at timestamp `ts`.
    pub fn commit(&self, writer: TxnToken, ts: Timestamp) {
        let rows = self.take_written_rows(writer);
        for in_stripe in rows.chunk_by(|a, b| a.stripe == b.stripe) {
            let _stripe = self.stripes[in_stripe[0].stripe].write();
            for row in in_stripe {
                let (_, slot) = self.written_slot(writer, &row.table, row.id);
                slot.chain.commit(writer, ts, row.installed);
            }
        }
    }

    /// Roll back all of `writer`'s uncommitted versions (before images
    /// become current again).  Unlinked versions are retired to the epoch
    /// domain — an in-flight lock-free reader may still be traversing
    /// them — and their index keys are rolled out *after* the unlink, so
    /// the index never under-covers the chain.
    pub fn abort(&self, writer: TxnToken) {
        let rows = self.take_written_rows(writer);
        let mut unlinked = Vec::new();
        {
            let guard = self.ebr.pin();
            for in_stripe in rows.chunk_by(|a, b| a.stripe == b.stripe) {
                let _stripe = self.stripes[in_stripe[0].stripe].write();
                for row in in_stripe {
                    let (meta, slot) = self.written_slot(writer, &row.table, row.id);
                    let removed = slot.chain.abort(writer, row.installed);
                    if let Some(col) = meta.indexed_column_ref(&guard) {
                        for key in removed.iter().filter_map(|v| v.row()?.get_int(col)) {
                            meta.index.remove(key, row.id, &self.ebr);
                        }
                    }
                    unlinked.extend(removed);
                }
            }
        }
        // Retired once the stripes and the pin are released, like pruned
        // versions in `write_version`.
        for version in unlinked {
            version.retire(&self.ebr);
        }
    }

    /// A read-only snapshot view of the committed state as of `ts`.
    pub fn snapshot(&self, ts: Timestamp) -> crate::snapshot::Snapshot<'_> {
        crate::snapshot::Snapshot::new(self, ts)
    }

    /// Number of rows whose latest committed version exists (i.e. not
    /// deleted) in `table`.
    pub fn committed_row_count(&self, table: &str) -> usize {
        let guard = self.ebr.pin();
        let Some(meta) = self.registry.lookup(table) else {
            return 0;
        };
        let mut count = 0;
        let upto = meta.next_row_id.load(Ordering::Acquire);
        meta.chains.for_each_slot(upto, |_, slot| {
            if slot
                .chain
                .latest_committed(&guard)
                .map(|v| !v.is_tombstone())
                .unwrap_or(false)
            {
                count += 1;
            }
        });
        count
    }

    /// Total number of live (linked) versions across all chains (storage
    /// footprint metric used by the benches).  Retired versions are
    /// excluded by construction — they are unreachable from every head.
    pub fn version_count(&self) -> usize {
        let guard = self.ebr.pin();
        let mut total = 0;
        self.registry.for_each(|meta| {
            let upto = meta.next_row_id.load(Ordering::Acquire);
            meta.chains.for_each_slot(upto, |_, slot| {
                total += slot.chain.len(&guard);
            });
        });
        total
    }
}

impl fmt::Debug for MvStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MvStore")
            .field("stripes", &self.stripes.len())
            .field("read_path", &self.read_path)
            .field("tables", &self.tables())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Condition, RowPredicate};

    fn balance_row(v: i64) -> Row {
        Row::new().with("balance", v)
    }

    #[test]
    fn insert_commit_read_cycle() {
        let store = MvStore::new();
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
    }

    #[test]
    fn update_requires_existing_row() {
        let store = MvStore::new();
        store.create_table("accounts");
        let err = store
            .update("accounts", TxnToken(1), RowId(99), balance_row(1))
            .unwrap_err();
        assert!(matches!(err, StorageError::NoSuchRow(_, _)));
        let err = store
            .update("missing", TxnToken(1), RowId(0), balance_row(1))
            .unwrap_err();
        assert!(matches!(err, StorageError::NoSuchTable(_)));
    }

    #[test]
    fn abort_restores_before_image() {
        let store = MvStore::new();
        let id = store.insert("accounts", TxnToken(1), balance_row(100));
        store.commit(TxnToken(1), Timestamp(1));
        store
            .update("accounts", TxnToken(2), id, balance_row(999))
            .unwrap();
        assert_eq!(
            store
                .get_latest_any("accounts", id)
                .unwrap()
                .get_int("balance"),
            Some(999)
        );
        store.abort(TxnToken(2));
        assert_eq!(
            store
                .get_latest_any("accounts", id)
                .unwrap()
                .get_int("balance"),
            Some(100)
        );
        assert!(store.writes_of(TxnToken(2)).is_empty());
    }

    #[test]
    fn snapshot_reads_ignore_later_commits() {
        let store = MvStore::new();
        let id = store.insert("accounts", TxnToken(1), balance_row(50));
        store.commit(TxnToken(1), Timestamp(1));
        store
            .update("accounts", TxnToken(2), id, balance_row(10))
            .unwrap();
        store.commit(TxnToken(2), Timestamp(5));

        assert_eq!(
            store
                .get_committed_as_of("accounts", id, Timestamp(1))
                .unwrap()
                .get_int("balance"),
            Some(50)
        );
        assert_eq!(
            store
                .get_committed_as_of("accounts", id, Timestamp(5))
                .unwrap()
                .get_int("balance"),
            Some(10)
        );
        assert_eq!(
            store
                .get_visible("accounts", id, TxnToken(9), Timestamp(2))
                .unwrap()
                .get_int("balance"),
            Some(50)
        );
    }

    #[test]
    fn deleted_rows_disappear_from_committed_reads() {
        let store = MvStore::new();
        let id = store.insert("accounts", TxnToken(1), balance_row(50));
        store.commit(TxnToken(1), Timestamp(1));
        store.delete("accounts", TxnToken(2), id).unwrap();
        store.commit(TxnToken(2), Timestamp(2));
        assert!(store.get_latest_committed("accounts", id).is_none());
        assert_eq!(store.committed_row_count("accounts"), 0);
        // Time travel still sees it.
        assert!(store
            .get_committed_as_of("accounts", id, Timestamp(1))
            .is_some());
    }

    #[test]
    fn predicate_scans_respect_visibility() {
        let store = MvStore::new();
        let active = RowPredicate::new("employees", Condition::eq("active", true));
        let e1 = store.insert("employees", TxnToken(1), Row::new().with("active", true));
        store.insert("employees", TxnToken(1), Row::new().with("active", false));
        store.commit(TxnToken(1), Timestamp(1));

        // T2 inserts a new active employee but has not committed.
        store.insert("employees", TxnToken(2), Row::new().with("active", true));

        let committed = store.scan_latest_committed(&active);
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].0, e1);

        let dirty = store.scan_latest_any(&active);
        assert_eq!(dirty.len(), 2);

        let si_view = store.scan_visible(&active, TxnToken(3), Timestamp(1));
        assert_eq!(si_view.len(), 1);
        let own_view = store.scan_visible(&active, TxnToken(2), Timestamp(1));
        assert_eq!(own_view.len(), 2);

        store.commit(TxnToken(2), Timestamp(2));
        assert_eq!(store.scan_committed_as_of(&active, Timestamp(1)).len(), 1);
        assert_eq!(store.scan_committed_as_of(&active, Timestamp(2)).len(), 2);
    }

    #[test]
    fn first_committer_conflict_detection() {
        let store = MvStore::new();
        let id = store.insert("accounts", TxnToken(1), balance_row(100));
        store.commit(TxnToken(1), Timestamp(1));

        // T2 and T3 both start at ts 1 and write the same row.
        store
            .update("accounts", TxnToken(2), id, balance_row(120))
            .unwrap();
        store
            .update("accounts", TxnToken(3), id, balance_row(130))
            .unwrap();
        // T2 commits first.
        store.commit(TxnToken(2), Timestamp(2));
        // T3 must now fail the first-committer-wins check.
        let conflict = store.first_committer_conflict(TxnToken(3), Timestamp(1));
        assert_eq!(conflict, Some(("accounts".to_string(), id)));
        // A transaction with no writes has no conflict.
        assert!(store
            .first_committer_conflict(TxnToken(9), Timestamp(0))
            .is_none());
    }

    #[test]
    fn foreign_uncommitted_write_detection() {
        let store = MvStore::new();
        let id = store.insert("accounts", TxnToken(1), balance_row(100));
        store.commit(TxnToken(1), Timestamp(1));
        store
            .update("accounts", TxnToken(2), id, balance_row(120))
            .unwrap();
        store
            .update("accounts", TxnToken(3), id, balance_row(130))
            .unwrap();
        assert!(store.has_foreign_uncommitted_on_writes(TxnToken(2)));
        assert!(store.has_foreign_uncommitted_on_writes(TxnToken(3)));
        store.abort(TxnToken(2));
        assert!(!store.has_foreign_uncommitted_on_writes(TxnToken(3)));
    }

    #[test]
    fn bookkeeping_counters() {
        let store = MvStore::new();
        assert_eq!(store.version_count(), 0);
        let id = store.insert("t", TxnToken(1), balance_row(1));
        store.commit(TxnToken(1), Timestamp(1));
        store.update("t", TxnToken(2), id, balance_row(2)).unwrap();
        store.commit(TxnToken(2), Timestamp(2));
        assert_eq!(store.version_count(), 2);
        assert_eq!(store.committed_row_count("t"), 1);
        assert_eq!(store.tables(), vec!["t".to_string()]);
        assert_eq!(store.row_ids("t"), vec![id]);
        assert!(store.row_ids("missing").is_empty());
    }

    #[test]
    fn row_ids_are_sequential_and_sorted_across_shards() {
        // With several stripes the writes scatter, but id allocation is a
        // per-table counter and row_ids() must come back sorted and
        // gap-free exactly like the single-map store.
        for shards in [1, 2, 7, 16] {
            let store = MvStore::with_shards(shards);
            assert_eq!(store.shard_count(), shards);
            let ids: Vec<RowId> = (0..40)
                .map(|_| store.insert("t", TxnToken(1), balance_row(0)))
                .collect();
            assert_eq!(ids, (0..40).map(RowId).collect::<Vec<_>>());
            assert_eq!(store.row_ids("t"), ids);
        }
    }

    #[test]
    fn row_id_allocation_is_per_table() {
        let store = MvStore::new();
        let a0 = store.insert("a", TxnToken(1), balance_row(0));
        let b0 = store.insert("b", TxnToken(1), balance_row(0));
        let a1 = store.insert("a", TxnToken(1), balance_row(0));
        assert_eq!((a0, b0, a1), (RowId(0), RowId(0), RowId(1)));
    }

    #[test]
    fn scans_merge_shards_in_row_id_order() {
        let store = MvStore::with_shards(4);
        for i in 0..32 {
            store.insert("t", TxnToken(1), balance_row(i));
        }
        store.commit(TxnToken(1), Timestamp(1));
        let all = RowPredicate::whole_table("t");
        let rows = store.scan_latest_committed(&all);
        assert_eq!(rows.len(), 32);
        for (i, (id, row)) in rows.iter().enumerate() {
            assert_eq!(*id, RowId(i as u64));
            assert_eq!(row.get_int("balance"), Some(i as i64));
        }
    }

    #[test]
    fn ordered_index_backfills_and_tracks_writes() {
        let store = MvStore::with_shards(4);
        // Rows exist before the index: create_index must backfill.
        let a = store.insert("t", TxnToken(1), balance_row(30));
        let b = store.insert("t", TxnToken(1), balance_row(10));
        store.commit(TxnToken(1), Timestamp(1));
        store.create_index("t", "balance");
        assert_eq!(store.indexed_column("t").as_deref(), Some("balance"));
        // Re-registering the same column is a no-op.
        store.create_index("t", "balance");

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
        assert_eq!(low.iter().map(|(id, _)| *id).collect::<Vec<_>>(), vec![b]);

        // Maintained through update/abort: an aborted rewrite of `a`'s key
        // must leave the index where it was.
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

        // Plain scans over an indexed table come back in key order too,
        // with unkeyed rows after every keyed one.
        let c = store.insert("t", TxnToken(3), Row::new().with("owner", "x"));
        store.commit(TxnToken(3), Timestamp(2));
        let pred = RowPredicate::whole_table("t");
        let scanned = store.scan_latest_committed(&pred);
        assert_eq!(
            scanned.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![b, a, c]
        );
    }

    #[test]
    fn scan_range_views_and_fallback_agree() {
        let store = MvStore::with_shards(4);
        store.create_index("t", "balance");
        let ids: Vec<RowId> = (0..6)
            .map(|i| store.insert("t", TxnToken(1), balance_row(i * 10)))
            .collect();
        store.commit(TxnToken(1), Timestamp(1));
        store
            .update("t", TxnToken(2), ids[0], balance_row(25))
            .unwrap();

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
        // The dirty view sees ids[0]'s uncommitted key move into range.
        let dirty = store.scan_range(
            "t",
            "balance",
            &KeyInterval::range(Some(10), Some(30)),
            ScanView::LatestAny,
        );
        assert_eq!(
            dirty.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![ids[1], ids[2], ids[0], ids[3]]
        );
        // SI visibility: the writer sees its own move, others do not.
        let writer_view = store.scan_range(
            "t",
            "balance",
            &KeyInterval::range(Some(10), Some(30)),
            ScanView::Visible {
                reader: TxnToken(2),
                start_ts: Timestamp(1),
            },
        );
        assert_eq!(writer_view.len(), 4);
        let other_view = store.scan_range(
            "t",
            "balance",
            &KeyInterval::range(Some(10), Some(30)),
            ScanView::Visible {
                reader: TxnToken(9),
                start_ts: Timestamp(1),
            },
        );
        assert_eq!(other_view.len(), 3);
        store.abort(TxnToken(2));

        // An unindexed column takes the full-pass fallback with the same
        // contract; an empty interval is empty either way.
        assert!(store
            .scan_range("t", "balance", &KeyInterval::empty(), ScanView::LatestAny)
            .is_empty());
        let fallback = store.scan_range(
            "t",
            "missing",
            &KeyInterval::everything(),
            ScanView::LatestAny,
        );
        assert!(fallback.is_empty());
    }

    #[test]
    fn single_shard_store_still_works() {
        let store = MvStore::with_shards(0); // clamped to 1
        assert_eq!(store.shard_count(), 1);
        let id = store.insert("t", TxnToken(1), balance_row(5));
        store.commit(TxnToken(1), Timestamp(1));
        assert_eq!(
            store
                .get_latest_committed("t", id)
                .unwrap()
                .get_int("balance"),
            Some(5)
        );
    }

    #[test]
    fn epoch_reads_take_no_stripe_locks() {
        let epoch = MvStore::new();
        let locked = MvStore::with_read_path(DEFAULT_SHARDS, ReadPath::Locked);
        assert_eq!(epoch.read_path(), ReadPath::Epoch);
        assert_eq!(locked.read_path(), ReadPath::Locked);
        for store in [&epoch, &locked] {
            store.create_index("t", "balance");
            let id = store.insert("t", TxnToken(1), balance_row(7));
            store.commit(TxnToken(1), Timestamp(1));
            assert_eq!(
                store
                    .get_latest_committed("t", id)
                    .unwrap()
                    .get_int("balance"),
                Some(7)
            );
            let pred = RowPredicate::whole_table("t");
            assert_eq!(store.scan_latest_committed(&pred).len(), 1);
            assert_eq!(
                store
                    .scan_range(
                        "t",
                        "balance",
                        &KeyInterval::everything(),
                        ScanView::LatestCommitted,
                    )
                    .len(),
                1
            );
        }
        let stats = epoch.read_stats();
        assert!(stats.read_pins() > 0, "epoch reads pin");
        assert_eq!(
            stats.read_lock_acquisitions(),
            0,
            "the epoch read path must never take a stripe lock"
        );
        let stats = locked.read_stats();
        assert!(
            stats.read_lock_acquisitions() > 0,
            "the locked baseline counts every stripe read-lock"
        );
    }

    #[test]
    fn aborted_versions_are_retired_not_leaked() {
        let store = MvStore::new();
        let id = store.insert("t", TxnToken(1), balance_row(1));
        store.commit(TxnToken(1), Timestamp(1));
        for i in 0..10 {
            store.update("t", TxnToken(2), id, balance_row(i)).unwrap();
        }
        store.abort(TxnToken(2));
        for _ in 0..4 {
            store.flush_reclamation();
        }
        let stats = store.reclamation_stats();
        assert_eq!(stats.retired, 10, "every unlinked version was retired");
        assert_eq!(stats.reclaimed, 10, "and reclaimed once quiescent");
        assert_eq!(stats.reclaimed_while_pinned, 0);
        assert_eq!(store.version_count(), 1);
    }

    /// Every `(key, row id)` entry of `table`'s ordered index, in order.
    fn index_entries(store: &MvStore, table: &str) -> Vec<(i64, RowId)> {
        let guard = store.ebr.pin();
        let meta = store.registry.lookup(table).expect("table exists");
        let mut entries = Vec::new();
        meta.index
            .for_each_in_range(i64::MIN, i64::MAX, &guard, |key, id| {
                entries.push((key, id))
            });
        entries
    }

    #[test]
    fn writers_prune_below_the_low_water_mark() {
        let store = MvStore::new();
        let id = store.insert("t", TxnToken(1), balance_row(0));
        store.commit(TxnToken(1), Timestamp(1));
        let mark = store.low_water_mark();
        for ts in 2..=5u64 {
            store
                .update("t", TxnToken(ts), id, balance_row(ts as i64))
                .unwrap();
            store.commit(TxnToken(ts), Timestamp(ts));
        }
        // Nobody advanced the mark: all five versions are still history.
        assert_eq!(store.version_count(), 5);
        assert_eq!(
            store
                .get_committed_as_of("t", id, Timestamp(2))
                .unwrap()
                .get_int("balance"),
            Some(2)
        );
        // The mark moves to 4 (and never back): the next writer keeps the
        // version a reader at 4 sees and everything newer.
        mark.advance(Timestamp(4));
        mark.advance(Timestamp(3));
        assert_eq!(mark.get(), Timestamp(4));
        store.update("t", TxnToken(6), id, balance_row(6)).unwrap();
        assert_eq!(store.version_count(), 3);
        for (ts, seen) in [(4, 4), (5, 5), (9, 5)] {
            assert_eq!(
                store
                    .get_visible("t", id, TxnToken(99), Timestamp(ts))
                    .unwrap()
                    .get_int("balance"),
                Some(seen)
            );
        }
        // Rollback after a prune restores the retained before-image.
        store.abort(TxnToken(6));
        assert_eq!(
            store.get_latest_any("t", id).unwrap().get_int("balance"),
            Some(5)
        );
        store.flush_reclamation();
        let stats = store.reclamation_stats();
        assert_eq!((stats.retired, stats.reclaimed), (4, 4));
        assert_eq!(stats.reclaimed_while_pinned, 0);
    }

    #[test]
    fn pruned_versions_roll_their_keys_out_of_the_index() {
        let store = MvStore::with_shards(4);
        store.create_index("t", "k");
        let keyed = |k: i64, v: i64| Row::new().with("k", k).with("v", v);
        let id = store.insert("t", TxnToken(1), keyed(0, 0));
        let bystander = store.insert("t", TxnToken(1), keyed(5, 0));
        store.commit(TxnToken(1), Timestamp(1));
        let mark = store.low_water_mark();
        let mut ts = 1u64;
        let mut write = |k: i64| {
            ts += 1;
            store
                .update("t", TxnToken(ts), id, keyed(k, ts as i64))
                .unwrap();
            store.commit(TxnToken(ts), Timestamp(ts));
            mark.advance(Timestamp(ts));
        };
        // 10k updates of one indexed row, the key mostly unchanged (the
        // pruned version hands its reference on) and sometimes moving.
        for i in 0..10_000 {
            write(10 + i / 7);
            assert!(index_entries(&store, "t").len() <= 3, "update {i}");
            assert_eq!(store.version_count(), 1 + 2);
        }
        // A leaked reference would keep a dead key's entry alive; a lost
        // one would drop an entry a linked version still needs.
        for _ in 0..2 {
            write(1_000_000);
        }
        assert_eq!(
            index_entries(&store, "t"),
            vec![(5, bystander), (1_000_000, id)]
        );
        for _ in 0..2 {
            write(2_000_000);
        }
        assert_eq!(
            index_entries(&store, "t"),
            vec![(5, bystander), (2_000_000, id)]
        );
        let all = store.scan_range(
            "t",
            "k",
            &KeyInterval::everything(),
            ScanView::LatestCommitted,
        );
        assert_eq!(
            all.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![bystander, id]
        );
        // A tombstone carries no key: the pruned key still rolls out.
        let tombstone = TxnToken(ts + 1);
        store.delete("t", tombstone, id).unwrap();
        store.commit(tombstone, Timestamp(ts + 1));
        assert_eq!(
            index_entries(&store, "t"),
            vec![(5, bystander), (2_000_000, id)],
            "the boundary below the tombstone keeps its entry"
        );
        // Backfilling another column sees only the retained versions.
        store.create_index("t", "v");
        assert_eq!(
            index_entries(&store, "t"),
            vec![(0, bystander), (ts as i64, id)]
        );
        store.flush_reclamation();
        assert_eq!(store.reclamation_stats().reclaimed_while_pinned, 0);
    }
}
