//! One run of one workload: the timed run (tracing off, end-to-end
//! metrics) and the traced run (per-layer metrics).

use crate::alloc;
use crate::driver::{
    check_durability, count_pass, rss_bytes, run_window, setup, verify, Bench, ClientStats,
    Schedule, WindowOut, STREAM_TXNS,
};
use crate::gen::TxnPlan;
use crate::json::Value;
use crate::micro;
use crate::span::{ratio, Layer, SpanId, Trace, ALLOCS, BYTES, NS};
use crate::spec::{self, Backend, Workload, KEY_WATCHERS, PREDICATE_WATCHERS, TABLE_WATCHERS};
use crate::stats::{cv, median};
use critique_storage::{LogStore, MvStore};
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

const WARMUP: Duration = Duration::from_secs(1);
/// Slices of the measured window, kept to show how throughput moves
/// within a run (`bench.slice_cv`).
const SLICE: Duration = Duration::from_millis(500);
/// Set-up is repeated until it has run this often and for this long (the
/// smallest table loads in 40 ms), and the median is reported.
const MIN_SETUPS: usize = 3;
const MIN_SETUP_TIME: Duration = Duration::from_secs(1);
/// Bytes of caller payload per row update: the row key and the new balance.
const PAYLOAD_BYTES_PER_UPDATE: f64 = 16.0;

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub violations: Vec<String>,
    /// Lines for the human reader (stderr).
    pub notes: Vec<String>,
}

impl RunResult {
    /// The result line of the benchmark contract.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("correct", Value::from(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "metrics",
                Value::Object(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.to_string(),
                                Value::object([
                                    ("value", Value::from(*value)),
                                    ("unit", Value::from(*unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn streams(w: &Workload, seed: u64) -> Vec<Vec<TxnPlan>> {
    (0..w.clients)
        .map(|c| w.mix.stream(seed, c, STREAM_TXNS))
        .collect()
}

fn slices_of(measured: Duration) -> usize {
    ((measured.as_nanos() / SLICE.as_nanos()) as usize).max(1)
}

/// Committed transactions per second over the measured window.
///
/// The whole window, not a median of slices: committed versions are never
/// pruned and reads walk a row's chain, so every workload on `MvStore`
/// slows down as it runs.  A fast start leaves longer chains and a slower
/// finish, which evens the window total out from run to run, while the
/// middle slice of so steep a decline moves by a tenth between runs.
fn txn_per_s(stats: &ClientStats, schedule: &Schedule) -> f64 {
    stats.latency.len() as f64 / schedule.measured().as_secs_f64()
}

/// The `p`-quantile of the window's transaction latencies, in microseconds.
fn latency_us(stats: &ClientStats, p: f64, notes: &mut Vec<String>) -> f64 {
    let value = stats.latency.percentile(p).or_else(|| {
        notes.push(format!(
            "p{}: fewer than ten of the {} samples lie beyond it",
            p * 100.0,
            stats.latency.len()
        ));
        stats.latency.quantile(p)
    });
    value.unwrap_or(f64::NAN) / 1e3
}

/// The timed run: tracing off, the five end-to-end metrics.
pub fn timed(w: &'static Workload, seed: u64, seconds: u64, out: &Path) -> RunResult {
    let mut notes = Vec::new();
    let streams = streams(w, seed);
    let measured = Duration::from_secs(seconds);

    // The first set-up runs in the fresh process and is the one driven, so
    // the memory baseline has no earlier database's freed heap under it.
    let began = Instant::now();
    let bench = setup(w, out, false);
    let mut setups = vec![began.elapsed().as_secs_f64()];
    let (rss_before, _) = rss_bytes();

    let schedule = Schedule::new(WARMUP, SLICE, slices_of(measured));
    let window = run_window(&bench, &streams, w.clients, &schedule, None);
    let (rss_after, rss_peak) = rss_bytes();

    let stats = &window.clients;
    let verdict = verify(w, &bench, stats, window.subscriber.as_ref());
    let mut violations = verdict.violations;
    if w.backend == Backend::DurableLog {
        let recovery = check_durability(w, &bench, out);
        notes.push(format!(
            "durability: recovered {} commits in {:.0} us",
            recovery.commits, recovery.recover_us
        ));
        violations.extend(recovery.violations);
    }
    drop(bench);

    let mut spent = Duration::ZERO;
    while setups.len() < MIN_SETUPS || spent < MIN_SETUP_TIME {
        let began = Instant::now();
        let again = setup(w, out, false);
        let took = began.elapsed();
        setups.push(took.as_secs_f64());
        spent += took;
        drop(again);
    }

    let mem_per_txn = rss_after.saturating_sub(rss_before) as f64 / stats.committed.max(1) as f64;
    let metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("txn_s", txn_per_s(stats, &schedule), "1/s"),
        ("txn_p50_us", latency_us(stats, 0.5, &mut notes), "us"),
        ("txn_p99_us", latency_us(stats, 0.99, &mut notes), "us"),
        ("mem_bytes_per_txn", mem_per_txn, "B"),
    ];
    notes.push(format!(
        "{} set-ups; {} latency samples; peak RSS {} MiB; \
         {} retries ({} deadlock, {} first-committer, {} timeout; at most {} for one \
         transaction), {} lost updates",
        setups.len(),
        stats.latency.len(),
        rss_peak >> 20,
        stats.retries,
        stats.deadlocks,
        stats.fcw,
        stats.timeouts,
        stats.retries_max,
        verdict.lost_updates,
    ));
    notes.push(format!(
        "committed per {:?} slice: {:?}",
        schedule.slice, stats.slices
    ));
    RunResult {
        correct: violations.is_empty(),
        attempted: stats.attempted,
        failed: stats.failed,
        metrics,
        violations,
        notes,
    }
}

/// How a note marks a prediction the traced run did not bear out; the
/// whole-set run looks for it in its children's output.
pub const BROKEN: &str = "PREDICTION BROKEN";

/// What the README says a traced run of the baseline shows, checked
/// against the run's own figures.  A broken prediction does not fail the
/// run (a later change may well be meant to break one); `run.sh` on the
/// whole set lists them and exits non-zero.
fn predictions(w: &Workload, values: &[(&'static str, f64)]) -> Vec<(String, bool)> {
    let v = |name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no value computed for {name}"))
            .1
    };
    let mut out = vec![(
        format!(
            "own times add up to the root spans within 2 % (gap {:.4})",
            v("bench.attribution_gap_frac")
        ),
        v("bench.attribution_gap_frac") <= 0.02,
    )];
    let storage_us = v("store.share") * v("engine.txn_mean_us");
    match w.name {
        "point_si" => out.push((
            format!(
                "SNAPSHOT ISOLATION holds no lock at commit ({}) and waits for none \
                 ({:.2} us of a {:.2} us transaction)",
                v("lock.held_at_commit"),
                v("lock.wait_us_per_txn"),
                v("engine.txn_mean_us")
            ),
            v("lock.held_at_commit") == 0.0
                && v("lock.wait_us_per_txn").abs() <= 0.1 * v("engine.txn_mean_us"),
        )),
        "point_ser" => out.push((
            format!(
                "four long item locks are held at commit ({})",
                v("lock.held_at_commit")
            ),
            v("lock.held_at_commit") == 4.0,
        )),
        "hot_rmw_ser" => out.push((
            format!(
                "waiting for the other client ({:.2} us per transaction) costs more than \
                 storage ({storage_us:.2} us, share {:.3})",
                v("lock.wait_us_per_txn"),
                v("store.share")
            ),
            v("lock.wait_us_per_txn") > storage_us && v("store.share") < 0.25,
        )),
        "range_ser" => out.push((
            format!(
                "index walks and O(rows) index maintenance are most of a transaction \
                 (store.share {:.3}; a scan {:.1} us, an update {:.1} us)",
                v("store.share"),
                v("store.scan_range_us"),
                v("store.update_ns") / 1e3
            ),
            v("store.share") >= 0.5,
        )),
        "durable_rmw_rc" => out.push((
            format!(
                "flush_commit ({:.1} us) is at least half of the median transaction ({:.1} us)",
                v("logstore.flush_commit_us"),
                v("engine.txn_rw_p50_us")
            ),
            v("logstore.flush_commit_us") >= 0.5 * v("engine.txn_rw_p50_us"),
        )),
        "watch_fanout_rc" => out.push((
            format!(
                "the subscriptions are most of the commit ({:.1} us of {:.1} us)",
                v("watch.commit_extra_us"),
                v("engine.commit_self_ns") / 1e3
            ),
            v("watch.commit_extra_us") >= 0.5 * v("engine.commit_self_ns") / 1e3,
        )),
        _ => {}
    }
    out
}

/// Counters the stores keep, read through `Database::store()`.
#[derive(Clone, Copy, Default)]
struct StoreCounters {
    versions: u64,
    read_pins: u64,
    read_locks: u64,
    retired: u64,
    reclaimed: u64,
    deferrals: u64,
    fsyncs: u64,
    wal_bytes: u64,
    segments: u64,
    dead_records: u64,
}

fn store_counters(bench: &Bench) -> StoreCounters {
    let store = bench.db.store();
    let mut c = StoreCounters {
        versions: store.version_count() as u64,
        ..StoreCounters::default()
    };
    if let Some(mv) = store.as_any().downcast_ref::<MvStore>() {
        let reads = mv.read_stats();
        c.read_pins = reads.read_pins();
        c.read_locks = reads.read_lock_acquisitions();
        let ebr = mv.reclamation_stats();
        c.retired = ebr.retired;
        c.reclaimed = ebr.reclaimed;
        c.deferrals = ebr.deferrals;
    }
    if let Some(log) = store.as_any().downcast_ref::<LogStore>() {
        c.fsyncs = log.fsync_count();
        c.segments = log.segment_count() as u64;
        c.dead_records = log.dead_record_count() as u64;
        c.wal_bytes = log
            .durable_dir()
            .and_then(|dir| fs::read_dir(dir).ok())
            .map_or(0, |entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            });
    }
    c
}

/// The traced run: a window with the usual clients in which traced and
/// untraced slices alternate (`seconds` long), a traced single-client
/// window, the timer-free count pass, and the direct drives of single
/// layers.
pub fn traced(w: &'static Workload, seed: u64, seconds: u64, out: &Path) -> RunResult {
    let mut notes = Vec::new();
    let mut violations = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut tally = |out: &WindowOut| {
        attempted += out.clients.attempted;
        failed += out.clients.failed;
    };

    let began = Instant::now();
    let streams = streams(w, seed);
    let generator_ns = began.elapsed().as_nanos() as f64 / (w.clients * STREAM_TXNS) as f64;

    // The interleaved window: one window on the decorated database with the usual clients.
    // Spans are recorded in every second slice; the slices between them
    // are the untraced reference, so drift in the sandbox's speed hits
    // both alike.
    let base = Instant::now();
    let mut bench = setup(w, out, true);
    let before_window = store_counters(&bench);
    let measured = Duration::from_secs(seconds);
    let schedule = Schedule::new(WARMUP, SLICE, slices_of(measured) & !1);
    let window = run_window(&bench, &streams, w.clients, &schedule, Some(base));
    tally(&window);
    let after_window = store_counters(&bench);
    let window_verdict = verify(w, &bench, &window.clients, window.subscriber.as_ref());
    violations.extend(window_verdict.violations);

    // The single-client window: one client, no subscriptions, on the same database: what the same
    // operations cost with nobody to wait for and nobody to notify.  The
    // whole window is warm-up as far as the schedule goes, so that every
    // transaction of it is traced.
    bench.watchers.clear();
    let solo_schedule = Schedule::new(SLICE, SLICE, 0);
    let solo = run_window(&bench, &streams, 1, &solo_schedule, Some(base));
    tally(&solo);
    let mut on_traced_db = ClientStats::new(0);
    on_traced_db.merge(&window.clients);
    on_traced_db.merge(&solo.clients);
    violations.extend(verify(w, &bench, &on_traced_db, None).violations);
    drop(bench);

    // The count pass — fixed work, no timers, counts that repeat.
    let bench = setup(w, out, true);
    let before_count = store_counters(&bench);
    alloc::set_counting(true);
    let counted = count_pass(&bench, &streams[0], w.count_txns);
    alloc::set_counting(false);
    tally(&counted);
    let after_count = store_counters(&bench);
    violations.extend(verify(w, &bench, &counted.clients, counted.subscriber.as_ref()).violations);
    let recovery = (w.backend == Backend::DurableLog).then(|| check_durability(w, &bench, out));
    drop(bench);

    let t_window = window
        .trace
        .as_ref()
        .expect("the interleaved window is traced");
    let t_solo = solo
        .trace
        .as_ref()
        .expect("the single-client window is traced");
    let t_count = counted.trace.as_ref().expect("the count pass counts");
    let trace_path = out.join(format!("trace-{}.jsonl", w.name));
    let written = fs::File::create(&trace_path).and_then(|file| {
        let mut file = std::io::BufWriter::new(file);
        t_window.write_jsonl(&mut file)?;
        std::io::Write::flush(&mut file)
    });
    match written {
        Ok(()) => notes.push(format!(
            "{} spans of sampled transactions in {}",
            t_window.records.len(),
            trace_path.display()
        )),
        Err(e) => notes.push(format!("writing {} failed: {e}", trace_path.display())),
    }

    // Single layers driven directly.  A drive does not depend on the
    // workload it is made in, so each is made once, in the run of the
    // workload whose cell it should move, and reads 0 in the others.
    let drive = |target: &str, drive: &dyn Fn() -> f64| {
        if w.name == target {
            drive()
        } else {
            0.0
        }
    };
    let (acquire_item_ns, release_all_ns) = if w.name == "point_ser" {
        micro::item_locks(&w.mix, seed)
    } else {
        (0.0, 0.0)
    };

    let us = |ns: f64| ns / 1e3;
    let per_k = |n: u64| ratio(n * 1_000, window.clients.attempted);
    let count_txns = counted.clients.committed;
    let per_count_txn = |n: u64| ratio(n, count_txns);
    let root_ns = t_window.root_total(NS);
    let share = |layer| ratio(t_window.layer_own(layer, NS), root_ns);
    let owned: u64 = [Layer::Bench, Layer::Engine, Layer::Store]
        .iter()
        .map(|l| t_window.layer_own(*l, NS))
        .sum();
    // Own time of the engine calls that can wait for a lock: everything
    // but commit (which also carries the watcher fan-out).
    let pre_commit_own_per_txn = |t: &Trace| {
        let own = t.layer_own(Layer::Engine, NS) - t.of(SpanId::EngineCommit).own[NS];
        ratio(own, t.root_count())
    };
    let p50_us = |id: SpanId| us(t_window.hist[id as usize].percentile(0.5).unwrap_or(0.0));
    let mut all_txns = t_window.hist[SpanId::TxnRo as usize].clone();
    all_txns.merge(&t_window.hist[SpanId::TxnRw as usize]);
    let store_calls: u64 = SpanId::ALL
        .iter()
        .filter(|id| id.layer() == Layer::Store)
        .map(|id| t_count.of(*id).count)
        .sum();
    let versions = after_count.versions - before_count.versions;
    let retired = after_count.retired - before_count.retired;
    let commit_extra_ns = if w.watchers {
        t_window.mean_ns(SpanId::EngineCommit) - t_solo.mean_ns(SpanId::EngineCommit)
    } else {
        // No subscription exists, so there is nothing to take away.
        0.0
    };
    let subscribers = (KEY_WATCHERS + TABLE_WATCHERS + PREDICATE_WATCHERS) as f64;
    let logstore = |v: f64| {
        if w.backend == Backend::MvStore {
            0.0
        } else {
            v
        }
    };
    let wal_bytes = after_count.wal_bytes - before_count.wal_bytes;
    // Each traced (odd) slice against the mean of the untraced slices on
    // either side of it, so that a workload slowing down as it runs does
    // not read as tracing overhead.  The last slice has no right-hand
    // neighbour and is left out.
    let slices: Vec<f64> = window.clients.slices.iter().map(|n| *n as f64).collect();
    let untraced: Vec<f64> = slices.iter().copied().step_by(2).collect();
    let inner_traced = || (1..slices.len().saturating_sub(1)).step_by(2);
    let traced_sum: f64 = inner_traced().map(|i| slices[i]).sum();
    let reference_sum: f64 = inner_traced()
        .map(|i| (slices[i - 1] + slices[i + 1]) / 2.0)
        .sum();
    let window_sub = window.subscriber.as_ref();

    let values: Vec<(&'static str, f64)> = vec![
        ("engine.begin_ns", t_window.mean_ns(SpanId::EngineBegin)),
        (
            "engine.read_self_ns",
            t_window.mean_own_ns(SpanId::EngineRead),
        ),
        (
            "engine.update_self_ns",
            t_window.mean_own_ns(SpanId::EngineUpdate),
        ),
        (
            "engine.read_range_self_ns",
            t_window.mean_own_ns(SpanId::EngineReadRange),
        ),
        (
            "engine.commit_self_ns",
            t_window.mean_own_ns(SpanId::EngineCommit),
        ),
        ("engine.self_share", share(Layer::Engine)),
        (
            "engine.retries_per_txn",
            ratio(window.clients.retries, window.clients.attempted),
        ),
        (
            "engine.aborts_deadlock_per_k",
            per_k(window.clients.deadlocks),
        ),
        ("engine.aborts_fcw_per_k", per_k(window.clients.fcw)),
        (
            "engine.aborts_timeout_per_k",
            per_k(window.clients.timeouts),
        ),
        (
            "engine.retries_over_10_per_k",
            per_k(window.clients.over_proposed_retries),
        ),
        ("engine.retries_max", window.clients.retries_max as f64),
        (
            "engine.txn_mean_us",
            us(ratio(root_ns, t_window.root_count())),
        ),
        ("engine.txn_ro_p50_us", p50_us(SpanId::TxnRo)),
        ("engine.txn_rw_p50_us", p50_us(SpanId::TxnRw)),
        (
            "engine.txn_p999_us",
            us(all_txns.percentile(0.999).unwrap_or(0.0)),
        ),
        ("engine.lost_updates", window_verdict.lost_updates as f64),
        ("lock.acquire_item_ns", acquire_item_ns),
        ("lock.release_all_ns", release_all_ns),
        (
            "lock.acquire_predicate_ns",
            drive("range_ser", &|| micro::predicate_locks(&w.mix, seed)),
        ),
        ("lock.handoff_us", drive("hot_rmw_ser", &micro::handoff_us)),
        (
            "lock.wait_us_per_txn",
            us(pre_commit_own_per_txn(t_window) - pre_commit_own_per_txn(t_solo)),
        ),
        (
            "lock.held_at_commit",
            per_count_txn(counted.clients.held_at_commit),
        ),
        ("store.get_ns", t_window.mean_ns(SpanId::StoreGet)),
        ("store.update_ns", t_window.mean_ns(SpanId::StoreUpdate)),
        ("store.commit_ns", t_window.mean_ns(SpanId::StoreCommit)),
        ("store.fcw_check_ns", t_window.mean_ns(SpanId::StoreFcw)),
        ("store.abort_ns", t_window.mean_ns(SpanId::StoreAbort)),
        ("store.share", share(Layer::Store)),
        ("store.calls_per_txn", per_count_txn(store_calls)),
        (
            "store.scan_range_us",
            us(t_window.mean_ns(SpanId::StoreScanRange)),
        ),
        (
            "store.rows_per_scan",
            ratio(
                counted.clients.scan_rows,
                t_count.of(SpanId::StoreScanRange).count,
            ),
        ),
        (
            "store.index_add_us",
            drive("range_ser", &micro::index_add_us),
        ),
        ("store.versions_per_txn", per_count_txn(versions)),
        (
            "store.bytes_per_version",
            ratio(counted.live_bytes.max(0) as u64, versions),
        ),
        (
            "store.read_pins_per_txn",
            per_count_txn(after_count.read_pins - before_count.read_pins),
        ),
        (
            "store.read_lock_acq_per_txn",
            per_count_txn(after_count.read_locks - before_count.read_locks),
        ),
        ("ebr.pin_ns", drive("point_si", &micro::ebr_pin_ns)),
        ("ebr.retired_per_txn", per_count_txn(retired)),
        (
            "ebr.reclaimed_frac",
            ratio(after_count.reclaimed - before_count.reclaimed, retired),
        ),
        (
            "ebr.deferrals",
            (after_window.deferrals - before_window.deferrals) as f64,
        ),
        (
            "logstore.commit_ns",
            logstore(t_window.mean_ns(SpanId::StoreCommit)),
        ),
        (
            "logstore.flush_commit_us",
            logstore(us(t_window.mean_ns(SpanId::StoreFlushCommit))),
        ),
        (
            "logstore.commits_per_fsync",
            ratio(
                window.clients.committed,
                after_window.fsyncs - before_window.fsyncs,
            ),
        ),
        (
            "logstore.fsyncs_per_commit",
            per_count_txn(after_count.fsyncs - before_count.fsyncs),
        ),
        ("logstore.wal_bytes_per_commit", per_count_txn(wal_bytes)),
        (
            "logstore.write_amp",
            wal_bytes as f64 / (counted.clients.updates as f64 * PAYLOAD_BYTES_PER_UPDATE),
        ),
        ("logstore.segments", after_count.segments as f64),
        ("logstore.dead_records", after_window.dead_records as f64),
        (
            "logstore.recover_us_per_commit",
            recovery
                .as_ref()
                .map_or(0.0, |r| r.recover_us / r.commits.max(1) as f64),
        ),
        ("watch.commit_extra_us", us(commit_extra_ns)),
        (
            "watch.publish_ns_per_subscriber",
            commit_extra_ns / subscribers,
        ),
        (
            "watch.events_per_commit",
            counted
                .subscriber
                .as_ref()
                .map_or(0.0, |s| ratio(s.events, count_txns)),
        ),
        (
            "watch.drain_ns_per_event",
            window_sub.map_or(0.0, |s| ratio(s.busy_ns, s.events)),
        ),
        (
            "watch.queue_depth_max",
            window_sub.map_or(0.0, |s| s.queue_depth_max as f64),
        ),
        (
            "alloc.count_per_txn",
            per_count_txn(t_count.root_total(ALLOCS)),
        ),
        (
            "alloc.bytes_per_txn",
            per_count_txn(t_count.root_total(BYTES)),
        ),
        (
            "alloc.engine_count_per_txn",
            per_count_txn(t_count.layer_own(Layer::Engine, ALLOCS)),
        ),
        (
            "alloc.storage_count_per_txn",
            per_count_txn(t_count.layer_own(Layer::Store, ALLOCS)),
        ),
        (
            "bench.trace_overhead_frac",
            1.0 - traced_sum / reference_sum,
        ),
        ("bench.generator_ns_per_txn", generator_ns),
        ("bench.slice_cv", cv(&untraced)),
        ("bench.self_share", share(Layer::Bench)),
        (
            "bench.attribution_gap_frac",
            (owned as f64 - root_ns as f64).abs() / root_ns.max(1) as f64,
        ),
    ];
    if let Some(recovery) = recovery {
        violations.extend(recovery.violations);
    }
    for (claim, held) in predictions(w, &values) {
        let verdict = if held { "prediction held" } else { BROKEN };
        notes.push(format!("{verdict}: {claim}"));
    }

    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("no value computed for {}", m.name))
                .1;
            (m.name, value, m.unit)
        })
        .collect();
    notes.push(format!(
        "traced slices committed {traced_sum:.0}, their untraced neighbours {reference_sum:.0}; \
         count pass {count_txns} txns"
    ));
    notes.push(format!(
        "committed per {:?} slice (even untraced, odd traced): {:?}",
        SLICE, window.clients.slices
    ));
    RunResult {
        correct: violations.is_empty(),
        attempted,
        failed,
        metrics,
        violations,
        notes,
    }
}
