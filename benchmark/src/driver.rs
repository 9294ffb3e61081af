//! Set-up, the closed-loop clients, and the output checks — everything
//! that touches the engine goes through the public `Database` /
//! `Transaction` facade.

use crate::alloc;
use crate::gen::{Op, TxnPlan};
use crate::hist::Histogram;
use crate::span::{self, enter, Mode, SpanId, Trace};
use crate::spec::{
    Backend, Workload, KEY_WATCHERS, PREDICATE_WATCHERS, RANGE_SPAN, TABLE_WATCHERS,
};
use crate::traced::TracedBackend;
use critique_core::IsolationLevel;
use critique_engine::{
    BackendKind, Database, Durability, EngineConfig, GroupCommit, TxnError, Watcher,
};
use critique_storage::{
    Comparison, Condition, KeyInterval, LogStore, LogStoreConfig, MvStore, Row, RowId,
    RowPredicate, StorageBackend, StorageError,
};
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub const TABLE: &str = "accounts";
const INITIAL_BALANCE: i64 = 100;
/// A retryable abort is retried this many times inside one latency sample;
/// a transaction that loses once more has failed.  The issue proposed 10.
/// On `hot_rmw_ser` about one attempt in eight is an upgrade-deadlock
/// victim and a victim that retries at once loses again about one time in
/// three, so a few transactions in a million need more than 10 (the most
/// seen over 17 million was 16) and a benchmark workload may not fail an
/// operation.  Those transactions are counted (`engine.retries_over_10_per_k`,
/// `engine.retries_max`); at one loss in three, 100 in a row do not happen,
/// so a client that does reach the cap is starved or livelocked and fails.
const MAX_RETRIES: u32 = 100;
/// The retry cap the issue proposed; transactions beyond it are counted.
const PROPOSED_RETRIES: u32 = 10;
const LOCK_TIMEOUT_MS: u64 = 200;
const LOAD_BATCH: u32 = 1_000;
/// Planned transactions per client; the clients cycle through them.
pub const STREAM_TXNS: usize = 1 << 16;

/// The engine configuration of a workload: blocking lock waits, no history
/// recording, plus the backend settings the workload names.  Every other
/// knob keeps its default, so defaults are what gets measured.
pub fn engine_config(w: &Workload) -> EngineConfig {
    let config = EngineConfig::new(w.level)
        .blocking(LOCK_TIMEOUT_MS)
        .without_history();
    match w.backend {
        Backend::MvStore => config,
        Backend::Log => config.with_backend(BackendKind::LogStructured),
        Backend::DurableLog => config
            .with_backend(BackendKind::LogStructured)
            .with_durability(Durability::Fsync)
            .with_group_commit(GroupCommit::On { window_micros: 0 }),
    }
}

/// The search condition `lo <= bucket <= hi`.
pub fn bucket_between(lo: i64, hi: i64) -> Condition {
    Condition::compare("bucket", Comparison::Ge, lo).and(Condition::compare(
        "bucket",
        Comparison::Le,
        hi,
    ))
}

/// A write-ahead directory under the benchmark's `out/`, removed on drop.
struct WalDir(PathBuf);

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A loaded database ready to be driven.
pub struct Bench {
    pub db: Database,
    pub watchers: Vec<Watcher>,
    workload: &'static Workload,
    /// Logical transactions started on this database: where the hot set
    /// of a moving-hot-set workload is.
    started: AtomicU64,
    // Declared after `db`: the store closes its files before the
    // directory goes.
    _wal: Option<WalDir>,
}

fn fresh_wal_dir(out: &Path, workload: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    out.join(format!(
        "wal-{workload}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Open the database, create the table (and index), load the rows and
/// register the watchers: everything `setup_s` times.  `traced` puts the
/// [`TracedBackend`] decorator between engine and storage.
pub fn setup(w: &'static Workload, out: &Path, traced: bool) -> Bench {
    let config = engine_config(w);
    let wrap = |store: Box<dyn StorageBackend>| -> Box<dyn StorageBackend> {
        if traced {
            Box::new(TracedBackend::new(store))
        } else {
            store
        }
    };
    let (db, wal) = if w.backend == Backend::DurableLog {
        // `EngineConfig`'s own durable store lives in the system temp
        // directory; the benchmark must stay inside its checkout, so it
        // opens the same store (same shard count, same group commit) in
        // its own directory and hands it over.
        let dir = fresh_wal_dir(out, w.name);
        let store = LogStore::open_durable(
            &dir,
            LogStoreConfig {
                shards: config.shards,
                group_commit: config.group_commit,
                ..LogStoreConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("opening the write-ahead directory {dir:?} failed: {e}"));
        (
            Database::with_store(config, wrap(Box::new(store))),
            Some(WalDir(dir)),
        )
    } else if traced {
        // What `Database::with_config` would build, with the decorator
        // around it.
        let store: Box<dyn StorageBackend> = match w.backend {
            Backend::MvStore => Box::new(MvStore::with_read_path(config.shards, config.read_path)),
            _ => Box::new(LogStore::with_config(LogStoreConfig {
                shards: config.shards,
                ..LogStoreConfig::default()
            })),
        };
        (Database::with_store(config, wrap(store)), None)
    } else {
        (Database::with_config(config), None)
    };
    db.store().create_table(TABLE);
    if w.indexed {
        db.store().create_index(TABLE, "bucket");
    }
    let rows = w.table_rows();
    let mut next = 0u32;
    while next < rows {
        let txn = db.begin();
        for i in next..rows.min(next + LOAD_BATCH) {
            let id = txn
                .insert(
                    TABLE,
                    Row::new()
                        .with("balance", INITIAL_BALANCE)
                        .with("bucket", i64::from(i)),
                )
                .expect("loading a row");
            assert_eq!(id, RowId(u64::from(i)), "row ids are the load order");
        }
        txn.commit().expect("committing a load batch");
        next += LOAD_BATCH;
    }
    let mut watchers = Vec::new();
    if w.watchers {
        let rows = rows as usize;
        for i in 0..KEY_WATCHERS {
            let row = RowId((i * (rows / KEY_WATCHERS)) as u64);
            watchers.push(db.watch_key(TABLE, row));
        }
        for _ in 0..TABLE_WATCHERS {
            watchers.push(db.watch_table(TABLE));
        }
        for i in 0..PREDICATE_WATCHERS {
            let lo = (i * rows / PREDICATE_WATCHERS) as i64;
            let hi = ((i + 1) * rows / PREDICATE_WATCHERS) as i64 - 1;
            watchers.push(db.watch_predicate(TABLE, bucket_between(lo, hi)));
        }
    }
    Bench {
        db,
        watchers,
        workload: w,
        started: AtomicU64::new(0),
        _wal: wal,
    }
}

/// Index range of the table watchers within [`Bench::watchers`].
fn table_watchers() -> std::ops::Range<usize> {
    KEY_WATCHERS..KEY_WATCHERS + TABLE_WATCHERS
}

/// What one client did over its whole life (warm-up included) plus the
/// statistics of the measured window.
#[derive(Default)]
pub struct ClientStats {
    pub attempted: u64,
    pub committed: u64,
    pub failed: u64,
    /// Row increments of committed transactions.
    pub updates: u64,
    pub retries: u64,
    /// Most retries any one logical transaction needed.
    pub retries_max: u64,
    /// Committed logical transactions that needed more than
    /// [`PROPOSED_RETRIES`] retries.
    pub over_proposed_retries: u64,
    pub deadlocks: u64,
    pub fcw: u64,
    pub timeouts: u64,
    /// Range scans that did not return exactly the rows of their interval.
    pub bad_scans: u64,
    /// Summed `Database::locks_held()` before commit (count pass only).
    pub held_at_commit: u64,
    pub scan_rows: u64,
    /// Begin-to-commit-return latency of every logical transaction that
    /// began and committed inside the measured window, retries included.
    pub latency: Histogram,
    /// Those transactions counted by the slice they completed in.
    pub slices: Vec<u64>,
}

impl ClientStats {
    pub fn new(slices: usize) -> Self {
        ClientStats {
            slices: vec![0; slices],
            ..ClientStats::default()
        }
    }

    pub fn merge(&mut self, other: &ClientStats) {
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.failed += other.failed;
        self.updates += other.updates;
        self.retries += other.retries;
        self.retries_max = self.retries_max.max(other.retries_max);
        self.over_proposed_retries += other.over_proposed_retries;
        self.deadlocks += other.deadlocks;
        self.fcw += other.fcw;
        self.timeouts += other.timeouts;
        self.bad_scans += other.bad_scans;
        self.held_at_commit += other.held_at_commit;
        self.scan_rows += other.scan_rows;
        self.latency.merge(&other.latency);
        for (mine, theirs) in self.slices.iter_mut().zip(other.slices.iter()) {
            *mine += theirs;
        }
    }
}

/// Open a span only in the traced instantiation; the untraced one
/// compiles to the bare call.
macro_rules! spanned {
    ($traced:expr, $id:expr, $call:expr) => {{
        let _span = if $traced { Some(enter($id)) } else { None };
        $call
    }};
}

/// One attempt at a planned transaction: begin, the operations, commit.
fn attempt<const TRACED: bool, const PROBE: bool>(
    db: &Database,
    plan: &TxnPlan,
    key_base: u32,
    stats: &mut ClientStats,
) -> Result<(), TxnError> {
    let txn = spanned!(TRACED, SpanId::EngineBegin, db.begin());
    for op in plan.ops() {
        match *op {
            Op::Read(key) => {
                let row = spanned!(
                    TRACED,
                    SpanId::EngineRead,
                    txn.read(TABLE, RowId(u64::from(key_base + key)))
                )?;
                black_box(row);
            }
            Op::Rmw(key) => {
                let id = RowId(u64::from(key_base + key));
                let row = spanned!(TRACED, SpanId::EngineRead, txn.read_for_update(TABLE, id))?;
                let balance = row
                    .and_then(|r| r.get_int("balance"))
                    .ok_or_else(|| StorageError::NoSuchRow(TABLE.to_string(), id))
                    .map_err(TxnError::Storage)?;
                spanned!(
                    TRACED,
                    SpanId::EngineUpdate,
                    txn.update(TABLE, id, Row::new().with("balance", balance + 1))
                )?;
            }
            Op::Range(lo) => {
                let interval =
                    KeyInterval::range(Some(i64::from(lo)), Some(i64::from(lo + RANGE_SPAN - 1)));
                let rows = spanned!(
                    TRACED,
                    SpanId::EngineReadRange,
                    txn.read_range(TABLE, "bucket", &interval)
                )?;
                // Buckets are unique and never written, so at SERIALIZABLE
                // a scan returns exactly its interval's rows.
                if rows.len() != RANGE_SPAN as usize {
                    stats.bad_scans += 1;
                }
                stats.scan_rows += rows.len() as u64;
                black_box(rows);
            }
        }
    }
    if PROBE {
        stats.held_at_commit += db.locks_held() as u64;
    }
    spanned!(TRACED, SpanId::EngineCommit, txn.commit())
}

/// One logical transaction: a retryable abort (deadlock victim, lock
/// timeout, first-committer conflict) is retried inside the same latency
/// sample; it fails on exhausted retries or any other error.
fn logical_txn<const TRACED: bool, const PROBE: bool>(
    bench: &Bench,
    plan: &TxnPlan,
    stats: &mut ClientStats,
) -> bool {
    let root = if plan.is_read_only() {
        SpanId::TxnRo
    } else {
        SpanId::TxnRw
    };
    let _root = if TRACED { Some(enter(root)) } else { None };
    stats.attempted += 1;
    // Retries address the same rows as the first attempt.  Relaxed: the
    // counter only places the hot set and publishes nothing.
    let key_base = bench
        .workload
        .key_base(bench.started.fetch_add(1, Ordering::Relaxed));
    for retry in 0..=MAX_RETRIES {
        match attempt::<TRACED, PROBE>(&bench.db, plan, key_base, stats) {
            Ok(()) => {
                stats.retries_max = stats.retries_max.max(u64::from(retry));
                stats.over_proposed_retries += u64::from(retry > PROPOSED_RETRIES);
                stats.committed += 1;
                stats.updates += plan.updates();
                return true;
            }
            Err(TxnError::Deadlock) => stats.deadlocks += 1,
            Err(TxnError::LockTimeout) => stats.timeouts += 1,
            Err(TxnError::FirstCommitterConflict { .. }) => stats.fcw += 1,
            Err(_) => break,
        }
        stats.retries += 1;
    }
    stats.failed += 1;
    false
}

/// When the clients run: warm-up from `start`, then the measured window cut
/// into equal slices.
#[derive(Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub warmup: Duration,
    pub slice: Duration,
    pub slices: usize,
}

impl Schedule {
    /// Starting now: `warmup`, then `slices` slices of `slice` each.
    pub fn new(warmup: Duration, slice: Duration, slices: usize) -> Self {
        Schedule {
            start: Instant::now(),
            warmup,
            slice,
            slices,
        }
    }

    fn measure_from(&self) -> Instant {
        self.start + self.warmup
    }

    fn end(&self) -> Instant {
        self.measure_from() + self.measured()
    }

    pub fn measured(&self) -> Duration {
        self.slice * self.slices as u32
    }
}

/// The closed loop: the next transaction starts when the previous one
/// returned.  In the traced instantiation spans are recorded in the odd
/// slices only, so that a run carries its own untraced reference in the
/// even slices, interleaved with what it is compared against.
fn client_loop<const TRACED: bool>(
    bench: &Bench,
    plans: &[TxnPlan],
    schedule: &Schedule,
) -> ClientStats {
    let mut stats = ClientStats::new(schedule.slices);
    let from = schedule.measure_from();
    let end = schedule.end();
    let slice_of = |at: Instant| ((at - from).as_nanos() / schedule.slice.as_nanos()) as usize;
    let mut began = Instant::now();
    let mut next = 0usize;
    while began < end {
        if TRACED {
            let record = began < from || slice_of(began) % 2 == 1;
            span::set_mode(if record { Mode::Timed } else { Mode::Off });
        }
        let plan = &plans[next % plans.len()];
        next += 1;
        let committed = logical_txn::<TRACED, false>(bench, plan, &mut stats);
        let ended = Instant::now();
        if committed && began >= from && ended < end {
            stats.latency.record((ended - began).as_nanos() as u64);
            stats.slices[slice_of(ended)] += 1;
        }
        began = ended;
    }
    stats
}

/// What the subscriber thread saw.
pub struct SubscriberStats {
    pub events: u64,
    pub busy_ns: u64,
    pub queue_depth_max: u64,
    /// Events whose commit timestamp did not exceed their predecessor's.
    pub out_of_order: u64,
    /// Per table watcher: events received and a hash of their timestamps.
    pub table_streams: Vec<(u64, u64)>,
}

impl SubscriberStats {
    fn new() -> Self {
        SubscriberStats {
            events: 0,
            busy_ns: 0,
            queue_depth_max: 0,
            out_of_order: 0,
            table_streams: vec![(0, 0); TABLE_WATCHERS],
        }
    }
}

/// Drain every watcher once, checking each stream's order.
fn sweep(watchers: &[Watcher], last_ts: &mut [u64], stats: &mut SubscriberStats) -> u64 {
    let mut got = 0;
    let tables = table_watchers();
    for (i, watcher) in watchers.iter().enumerate() {
        let events = watcher.drain();
        stats.queue_depth_max = stats.queue_depth_max.max(events.len() as u64);
        for event in events {
            let ts = event.commit_ts.0;
            if ts <= last_ts[i] {
                stats.out_of_order += 1;
            }
            last_ts[i] = ts;
            if tables.contains(&i) {
                let (count, hash) = &mut stats.table_streams[i - tables.start];
                *count += 1;
                *hash = hash.wrapping_mul(0x0000_0100_0000_01B3) ^ ts;
            }
            got += 1;
        }
    }
    stats.events += got;
    got
}

/// Drain the watchers until `stop` is set and a whole sweep that began
/// after it found nothing.
fn subscriber(watchers: &[Watcher], stop: &AtomicBool) -> SubscriberStats {
    let mut stats = SubscriberStats::new();
    let mut last_ts = vec![0u64; watchers.len()];
    let began = Instant::now();
    loop {
        // Acquire pairs with the Release store made after every writer
        // has been joined: a sweep that starts after seeing `stop` sees
        // every event those writers published.
        let stopping = stop.load(Ordering::Acquire);
        let got = sweep(watchers, &mut last_ts, &mut stats);
        if got == 0 {
            if stopping {
                break;
            }
            std::thread::yield_now();
        }
    }
    stats.busy_ns = began.elapsed().as_nanos() as u64;
    stats
}

/// The result of driving one database for one window.
pub struct WindowOut {
    pub clients: ClientStats,
    pub subscriber: Option<SubscriberStats>,
    pub trace: Option<Trace>,
    /// Counted heap bytes the clients left live (count pass only).
    pub live_bytes: i64,
}

/// Run `clients` closed-loop client threads (plus the subscriber thread
/// when the bench has watchers) over `schedule`.  With `trace_base` set,
/// every thread records spans against that common time base.
pub fn run_window(
    bench: &Bench,
    streams: &[Vec<TxnPlan>],
    clients: usize,
    schedule: &Schedule,
    trace_base: Option<Instant>,
) -> WindowOut {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sub = (!bench.watchers.is_empty())
            .then(|| scope.spawn(|| subscriber(&bench.watchers, &stop)));
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let plans = &streams[c];
                scope.spawn(move || match trace_base {
                    Some(base) => {
                        span::install(Mode::Timed, c as u32, base);
                        let stats = client_loop::<true>(bench, plans, schedule);
                        (stats, Some(span::take()))
                    }
                    None => (client_loop::<false>(bench, plans, schedule), None),
                })
            })
            .collect();
        let mut merged = ClientStats::new(schedule.slices);
        let mut trace: Option<Trace> = None;
        for handle in handles {
            let (stats, client_trace) = handle.join().expect("a client thread panicked");
            merged.merge(&stats);
            if let Some(t) = client_trace {
                match trace.as_mut() {
                    Some(all) => all.merge(t),
                    None => trace = Some(t),
                }
            }
        }
        stop.store(true, Ordering::Release);
        let subscriber = sub.map(|h| h.join().expect("the subscriber thread panicked"));
        WindowOut {
            clients: merged,
            subscriber,
            trace,
            live_bytes: 0,
        }
    })
}

/// The timer-free count pass: one client, the first `txns` planned
/// transactions, spans counting allocations instead of reading the clock.
/// Watchers, if any, are drained afterwards on the same thread.
pub fn count_pass(bench: &Bench, plans: &[TxnPlan], txns: usize) -> WindowOut {
    let mut stats = ClientStats::new(0);
    span::install(Mode::Count, 0, Instant::now());
    let live_before = alloc::live_bytes();
    for plan in plans.iter().cycle().take(txns) {
        logical_txn::<true, true>(bench, plan, &mut stats);
    }
    let live_bytes = alloc::live_bytes() - live_before;
    let trace = span::take();
    let subscriber = (!bench.watchers.is_empty()).then(|| {
        let mut sub = SubscriberStats::new();
        let mut last_ts = vec![0u64; bench.watchers.len()];
        sweep(&bench.watchers, &mut last_ts, &mut sub);
        sub
    });
    WindowOut {
        clients: stats,
        subscriber,
        trace: Some(trace),
        live_bytes,
    }
}

/// The outcome of the output checks on one database.
#[derive(Default)]
pub struct Verdict {
    pub violations: Vec<String>,
    /// Increments missing from the final sum (READ COMMITTED permits the
    /// P4 lost update; the stronger levels must show none).
    pub lost_updates: u64,
}

/// Check what the database holds against what the clients were told.
/// `clients` is everything ever committed on this database after set-up;
/// `subscriber` everything its watchers delivered.
pub fn verify(
    w: &Workload,
    bench: &Bench,
    clients: &ClientStats,
    subscriber: Option<&SubscriberStats>,
) -> Verdict {
    let mut verdict = Verdict::default();
    let all = RowPredicate::whole_table(TABLE);
    let sum = bench.db.sum_committed(&all, "balance");
    let expected = INITIAL_BALANCE * i64::from(w.table_rows()) + clients.updates as i64;
    if sum > expected {
        verdict.violations.push(format!(
            "sum(balance) = {sum} exceeds the {expected} the committed updates account for"
        ));
    } else if sum < expected {
        verdict.lost_updates = (expected - sum) as u64;
        if w.level != IsolationLevel::ReadCommitted {
            verdict.violations.push(format!(
                "P4 lost update at {}: sum(balance) = {sum}, committed updates say {expected}",
                w.level.name()
            ));
        }
    }
    if bench.db.count_committed(&all) != w.table_rows() as usize {
        verdict
            .violations
            .push("the table lost or gained rows".to_string());
    }
    if clients.bad_scans > 0 {
        verdict.violations.push(format!(
            "{} range scans returned a wrong row count",
            clients.bad_scans
        ));
    }
    if bench.db.locks_held() != 0 {
        verdict
            .violations
            .push("locks are still held after every client finished".to_string());
    }
    if let Some(sub) = subscriber {
        if sub.out_of_order > 0 {
            verdict.violations.push(format!(
                "{} watcher events arrived out of commit-timestamp order",
                sub.out_of_order
            ));
        }
        // Every transaction of the watcher workload writes, so every
        // commit reaches every table watcher exactly once.
        for (i, stream) in sub.table_streams.iter().enumerate() {
            if *stream != (clients.committed, sub.table_streams[0].1) {
                verdict.violations.push(format!(
                    "table watcher {i} saw {} events (hash {:x}); {} commits, watcher 0 hash {:x}",
                    stream.0, stream.1, clients.committed, sub.table_streams[0].1
                ));
            }
        }
    }
    verdict
}

/// The result of the durability check.
pub struct Recovery {
    pub violations: Vec<String>,
    pub recover_us: f64,
    /// Commit timestamps the recovered store replayed.
    pub commits: u64,
}

/// Power-cut check: copy the write-ahead directory keeping of each open
/// file only the bytes an fsync covers, recover the copy, and require
/// every acknowledged commit's effect and no unacknowledged one.  All
/// clients have returned, so every commit on `bench` is acknowledged; one
/// extra transaction is left in flight with a poisoned write to play the
/// unacknowledged one.
pub fn check_durability(w: &Workload, bench: &Bench, out: &Path) -> Recovery {
    let mut violations = Vec::new();
    let log = bench
        .db
        .store()
        .as_any()
        .downcast_ref::<LogStore>()
        .expect("the durable workload runs on the log store");
    let doomed_row = RowId(0);
    let doomed = bench.db.begin();
    doomed
        .update(TABLE, doomed_row, Row::new().with("balance", -1))
        .expect("the in-flight write");
    let source = log.durable_dir().expect("a durable store has a directory");
    let tails = log.durable_file_tails();
    let copy = WalDir(fresh_wal_dir(out, "recovery"));
    let copied = (|| -> std::io::Result<()> {
        fs::create_dir_all(&copy.0)?;
        for entry in fs::read_dir(&source)? {
            let entry = entry?;
            let target = copy.0.join(entry.file_name());
            fs::copy(entry.path(), &target)?;
            if let Some((_, synced)) = tails.iter().find(|(path, _)| *path == entry.path()) {
                fs::OpenOptions::new()
                    .write(true)
                    .open(&target)?
                    .set_len(*synced)?;
            }
        }
        Ok(())
    })();
    if let Err(e) = copied {
        violations.push(format!("copying the write-ahead directory failed: {e}"));
    }
    let began = Instant::now();
    let recovered = LogStore::recover(&copy.0);
    let recover_us = began.elapsed().as_secs_f64() * 1e6;
    let mut commits = 0;
    match recovered {
        Err(e) => violations.push(format!("recovery failed: {e}")),
        Ok(recovered) => {
            commits = recovered.last_commit_ts().map_or(0, |ts| ts.0);
            if recovered.last_commit_ts() != log.last_commit_ts() {
                violations.push(format!(
                    "recovered up to commit {:?}, acknowledged up to {:?}",
                    recovered.last_commit_ts(),
                    log.last_commit_ts()
                ));
            }
            let mut differing = 0u64;
            for i in 0..w.table_rows() {
                let id = RowId(u64::from(i));
                if recovered.get_latest_committed(TABLE, id) != bench.db.read_committed(TABLE, id) {
                    differing += 1;
                }
            }
            if differing > 0 {
                violations.push(format!(
                    "{differing} rows differ between the recovered copy and the acknowledged state"
                ));
            }
            if recovered.get_latest_any(TABLE, doomed_row)
                != bench.db.read_committed(TABLE, doomed_row)
            {
                violations.push("an unacknowledged write was resurrected".to_string());
            }
        }
    }
    doomed.abort().expect("aborting the in-flight write");
    Recovery {
        violations,
        recover_us,
        commits,
    }
}

/// Resident and peak resident set size of this process, in bytes.
pub fn rss_bytes() -> (u64, u64) {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    };
    (field("VmRSS:"), field("VmHWM:"))
}
