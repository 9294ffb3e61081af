//! What the benchmark is: the workloads (six gated, one not), the five
//! end-to-end metrics with their bounds, and the per-layer metrics with
//! the cell each should move.  `BENCHMARK.json` at
//! the repository root is this module printed (`--emit-spec`); a unit test
//! holds the two equal.

use crate::gen::{Mix, Shape};
use crate::json::Value;
use critique_core::IsolationLevel;

/// Seed used when `run.sh` is not given one.
pub const DEFAULT_SEED: u64 = 1995;
/// Measured seconds of one gated run (`BENCHMARK.json`'s `run_seconds`).
/// The sandbox's cores drift by a tenth in speed over seconds; a window
/// this long averages that out (5 s windows spread twice as wide).  What
/// is left is drift over minutes, which no window that fits a run removes.
pub const RUN_SECONDS: u64 = 15;
/// Measured seconds when `run.sh` runs the whole set once without
/// `--seconds`: short enough for all seven workloads, timed and traced, to
/// finish in two minutes, build included.  With `--repeat` the set runs
/// [`RUN_SECONDS`] windows, the ones the bounds were fixed for.
pub const SET_SECONDS: u64 = 4;

/// The subscriptions of the watcher workload: almost none of them matches
/// any one commit.
pub const KEY_WATCHERS: usize = 1024;
pub const TABLE_WATCHERS: usize = 16;
pub const PREDICATE_WATCHERS: usize = 64;

/// The storage settings a workload names; every other engine knob keeps
/// its default.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// The default in-memory `MvStore`.
    MvStore,
    /// `BackendKind::LogStructured`, in memory.
    Log,
    /// `BackendKind::LogStructured` with `Durability::Fsync` and
    /// `GroupCommit::On { window_micros: 0 }`: the flush policy is fixed
    /// and has no timer.
    DurableLog,
}

/// A hot set that moves through a larger table.  The generated keys
/// address `mix.rows` rows; after every `txns` logical transactions (of all
/// clients together) they address the next `mix.rows` rows.  Committed
/// versions are never pruned and `commit` / `abort` walk a row's whole
/// chain, so on a hot set that stays put the chain walk under the lock
/// soon costs more than the lock: 8 fixed rows went from 12 000 to
/// 1 300 txn/s within 15 s.  Moving on keeps the chains short (at most
/// `2 * txns / mix.rows` versions) and the window stationary, so that what
/// it measures is the contention.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HotSet {
    pub table_rows: u32,
    pub txns: u64,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so later changes are held to its bounds.
    pub gated: bool,
    pub level: IsolationLevel,
    pub backend: Backend,
    /// Ordered index on `bucket`.  Writes on an indexed table cost O(rows)
    /// (the index is a sorted linked list), so only the range workload
    /// carries one.
    pub indexed: bool,
    pub mix: Mix,
    /// `None`: the generated keys address the whole table.
    pub hot_set: Option<HotSet>,
    /// Closed-loop client threads; never more threads than the two cores.
    pub clients: usize,
    /// One of the two threads is a subscriber draining the watchers.
    pub watchers: bool,
    /// Logical transactions of the timer-free count pass.
    pub count_txns: usize,
}

pub const RANGE_SPAN: u32 = 32;

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "point_si",
        why: "SNAPSHOT ISOLATION point reads/RMWs over 100k rows: no locks taken, so store and ebr do the work and the lock manager is bypassed",
        gated: true,
        level: IsolationLevel::SnapshotIsolation,
        backend: Backend::MvStore,
        indexed: false,
        mix: Mix {
            rows: 100_000,
            ops_per_txn: 4,
            shape: Shape::Point { read_only_pct: 80 },
        },
        hot_set: None,
        clients: 2,
        watchers: false,
        count_txns: 20_000,
    },
    Workload {
        name: "point_ser",
        why: "the byte-identical stream at SERIALIZABLE: adds four long item locks and release_all per txn, the paper's 4.2 SI-vs-locking price",
        gated: true,
        level: IsolationLevel::Serializable,
        backend: Backend::MvStore,
        indexed: false,
        mix: Mix {
            rows: 100_000,
            ops_per_txn: 4,
            shape: Shape::Point { read_only_pct: 80 },
        },
        hot_set: None,
        clients: 2,
        watchers: false,
        count_txns: 20_000,
    },
    Workload {
        name: "hot_rmw_ser",
        why: "SERIALIZABLE RMWs by both clients on the same 8 rows, a hot set that moves on every 64 txns so version chains stay short: lock waits, handoff, upgrade deadlocks, retries dominate; storage is a tenth",
        gated: true,
        level: IsolationLevel::Serializable,
        backend: Backend::MvStore,
        indexed: false,
        mix: Mix {
            rows: 8,
            ops_per_txn: 2,
            shape: Shape::Rmw,
        },
        // 8 192 hot sets of 64 transactions: half a million transactions
        // before a row is visited again, several times what a run commits.
        hot_set: Some(HotSet {
            table_rows: 65_536,
            txns: 64,
        }),
        clients: 2,
        watchers: false,
        count_txns: 20_000,
    },
    Workload {
        name: "range_ser",
        why: "SERIALIZABLE 32-key range scans over an indexed 4096-row table: interval predicate locks and the ordered index, used by no other workload",
        gated: true,
        level: IsolationLevel::Serializable,
        backend: Backend::MvStore,
        indexed: true,
        mix: Mix {
            rows: 4_096,
            ops_per_txn: 4,
            shape: Shape::Range { span: RANGE_SPAN },
        },
        hot_set: None,
        clients: 2,
        watchers: false,
        count_txns: 20_000,
    },
    Workload {
        name: "log_rmw_rc",
        why: "READ COMMITTED RMWs on the in-memory log store, gated in place of the fsync'd durable_rmw_rc whose speed is the host disk's: segment append, hash index, txn table; MvStore changes should not move it",
        gated: true,
        level: IsolationLevel::ReadCommitted,
        backend: Backend::Log,
        indexed: false,
        mix: Mix {
            rows: 10_000,
            ops_per_txn: 2,
            shape: Shape::Rmw,
        },
        hot_set: None,
        clients: 2,
        watchers: false,
        count_txns: 20_000,
    },
    Workload {
        name: "watch_fanout_rc",
        why: "one READ COMMITTED writer, one subscriber draining 1104 key/table/predicate watchers that mostly do not match: the commit-path fan-out cost",
        gated: true,
        level: IsolationLevel::ReadCommitted,
        backend: Backend::MvStore,
        indexed: false,
        mix: Mix {
            rows: 10_000,
            ops_per_txn: 2,
            shape: Shape::Rmw,
        },
        hot_set: None,
        clients: 1,
        watchers: true,
        count_txns: 20_000,
    },
    // Not gated: its wall-clock figures are the host disk's.  On the box
    // the benchmark was sized on, the same binary committed 4 600, 2 800
    // and 600 txn/s within one hour as the virtual disk's fsync went from
    // 80 us to multi-millisecond stalls; no bound could hold that, and a
    // gate on it would reject changes for the weather.  `run.sh` still
    // runs it, checks its durability and prints every metric.
    Workload {
        name: "durable_rmw_rc",
        why: "the same RMWs with the log fsync'd and group-committed: WAL append, fsync and batch parking set the floor, lock/store changes should not move it",
        gated: false,
        level: IsolationLevel::ReadCommitted,
        backend: Backend::DurableLog,
        indexed: false,
        mix: Mix {
            rows: 10_000,
            ops_per_txn: 2,
            shape: Shape::Rmw,
        },
        hot_set: None,
        clients: 2,
        watchers: false,
        // Every single-client commit pays its own fsyncs; 20 000 of them
        // would not fit a run.
        count_txns: 2_000,
    },
];

impl Workload {
    /// Rows the table is loaded with.
    pub fn table_rows(&self) -> u32 {
        self.hot_set.map_or(self.mix.rows, |hot| hot.table_rows)
    }

    /// First row of the hot set for the `started`-th logical transaction on
    /// a database (0 where the keys address the whole table); a generated
    /// key is an offset from it.
    pub fn key_base(&self, started: u64) -> u32 {
        self.hot_set.map_or(0, |hot| {
            let sets = u64::from(hot.table_rows / self.mix.rows);
            (started / hot.txns % sets) as u32 * self.mix.rows
        })
    }
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The same five metrics on every workload.  The acceptance rule wants
/// every spread within a third of its bound.  Over four sets of ten runs on
/// the 2-core box the benchmark was sized on (the README has the tables)
/// the widest spreads were 12.1 % (`txn_s`), 11.6 % (`txn_p50_us`) and
/// 18.8 % (`txn_p99_us`), all in one set during which the host slowed by a
/// sixth within twenty minutes; in the three quieter sets they were 7.4,
/// 6.9 and 10.8 %.  So the three timing metrics sit at the largest bound
/// allowed, as `setup_s` must, and `mem_bytes_per_txn` (1.2 %) keeps the
/// 5 % the issue fixed.  The issue's 10 / 10 / 15 % would be inside this
/// sandbox's noise.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "mem_bytes_per_txn",
        unit: "B",
        better: Better::Lower,
        bound: 0.05,
    },
];

pub struct PerLayer {
    /// `<layer>.<metric>`: the prefix is the crate or module measured.
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end cell the metric should move, "[no move ...]" where
    /// the prediction is that it stays.  `BENCHMARK.json` has no field for
    /// it, so it is printed beside every traced value and a unit test
    /// holds the README's tables to it.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics, each with the end-to-end cell it should move.
pub const PER_LAYER: [PerLayer; 64] = [
    layer(
        "engine.begin_ns",
        "ns",
        Lower,
        "`txn_s`, `txn_p50_us` on `point_si`",
    ),
    layer(
        "engine.read_self_ns",
        "ns",
        Lower,
        "`txn_s`, `txn_p50_us` on `point_si` (dispatch only there; dispatch + item locks on `point_ser`); covers `read` and `read_for_update`",
    ),
    layer(
        "engine.update_self_ns",
        "ns",
        Lower,
        "same",
    ),
    layer(
        "engine.read_range_self_ns",
        "ns",
        Lower,
        "`txn_s` on `range_ser` (dispatch + interval predicate lock) [0 elsewhere]",
    ),
    layer(
        "engine.commit_self_ns",
        "ns",
        Lower,
        "`txn_s`, `txn_p50_us` on `point_ser` (`release_all`); on `watch_fanout_rc` it carries the fan-out",
    ),
    layer(
        "engine.self_share",
        "ratio",
        Lower,
        "share of root-span time that is engine own time: the most a faster engine and lock manager can save",
    ),
    layer(
        "engine.retries_per_txn",
        "1/txn",
        Lower,
        "`txn_s`, `txn_p99_us` on `hot_rmw_ser` [0 on the uncontended workloads]",
    ),
    layer(
        "engine.aborts_deadlock_per_k",
        "1/ktxn",
        Lower,
        "same",
    ),
    layer(
        "engine.aborts_fcw_per_k",
        "1/ktxn",
        Lower,
        "`txn_p99_us` on `point_si`",
    ),
    layer(
        "engine.aborts_timeout_per_k",
        "1/ktxn",
        Lower,
        "0 today; a lock wait of 200 ms would show here and in `txn_p99_us`",
    ),
    layer(
        "engine.retries_over_10_per_k",
        "1/ktxn",
        Lower,
        "transactions that would have failed under the issue's cap of 10 retries; `txn_p99_us` on `hot_rmw_ser` [0 elsewhere]",
    ),
    layer(
        "engine.retries_max",
        "count",
        Lower,
        "most retries one transaction needed; at 100 the operation fails",
    ),
    layer(
        "engine.txn_mean_us",
        "us",
        Lower,
        "mean root span; a `*.share` times this is that layer's microseconds per transaction",
    ),
    layer(
        "engine.txn_ro_p50_us",
        "us",
        Lower,
        "reported, not gated",
    ),
    layer(
        "engine.txn_rw_p50_us",
        "us",
        Lower,
        "reported, not gated",
    ),
    layer(
        "engine.txn_p999_us",
        "us",
        Lower,
        "reported, not gated",
    ),
    layer(
        "engine.lost_updates",
        "count",
        Lower,
        "P4 at READ COMMITTED (see Output checks); must be 0 elsewhere",
    ),
    layer(
        "lock.acquire_item_ns",
        "ns",
        Lower,
        "`txn_s` on `point_ser` [no move: `point_si`, `log_rmw_rc`]; driven in `point_ser`'s run, 0 in the others",
    ),
    layer(
        "lock.release_all_ns",
        "ns",
        Lower,
        "same",
    ),
    layer(
        "lock.acquire_predicate_ns",
        "ns",
        Lower,
        "`txn_s` on `range_ser`; driven in `range_ser`'s run with 64 foreign predicate locks held, 0 in the others",
    ),
    layer(
        "lock.handoff_us",
        "us",
        Lower,
        "`txn_s`, `txn_p99_us` on `hot_rmw_ser` (two threads pass one X lock; release to the waiter's `acquire` returning); driven in `hot_rmw_ser`'s run, 0 in the others",
    ),
    layer(
        "lock.wait_us_per_txn",
        "us",
        Lower,
        "`txn_s` on `hot_rmw_ser`: own time of the engine calls before commit, two clients minus one client on the same database; most of a transaction there [about 0 on `point_si`]",
    ),
    layer(
        "lock.held_at_commit",
        "count",
        Lower,
        "`Database::locks_held()` before commit; 0 on `point_si`, 4 on `point_ser` and `range_ser`, 2 on the RMW workloads",
    ),
    layer(
        "store.get_ns",
        "ns",
        Lower,
        "`txn_s` on `point_si` [small on `hot_rmw_ser`: `store.share` is a tenth there]",
    ),
    layer(
        "store.update_ns",
        "ns",
        Lower,
        "same; on `range_ser` it is the O(rows) index maintenance",
    ),
    layer(
        "store.commit_ns",
        "ns",
        Lower,
        "`txn_s` on `point_*`: it walks each written row's whole version chain, so it grows as a run goes on",
    ),
    layer(
        "store.fcw_check_ns",
        "ns",
        Lower,
        "`txn_s` on `point_si` only (First-Committer-Wins) [0 elsewhere]",
    ),
    layer(
        "store.abort_ns",
        "ns",
        Lower,
        "`txn_p99_us` on `hot_rmw_ser` (every deadlock victim rolls back)",
    ),
    layer(
        "store.share",
        "ratio",
        Lower,
        "share of root-span time spent in storage calls: the most a faster store can save",
    ),
    layer(
        "store.calls_per_txn",
        "1/txn",
        Lower,
        "`txn_s` everywhere",
    ),
    layer(
        "store.scan_range_us",
        "us",
        Lower,
        "`txn_s` on `range_ser` [0 elsewhere]",
    ),
    layer(
        "store.rows_per_scan",
        "count",
        Lower,
        "32 by construction; checks the scan",
    ),
    layer(
        "store.index_add_us",
        "us",
        Lower,
        "`setup_s`, `txn_s` on `range_ser` (insert + commit per row into an indexed 4 096-row `MvStore`); driven in `range_ser`'s run, 0 in the others",
    ),
    layer(
        "store.versions_per_txn",
        "1/txn",
        Lower,
        "`mem_bytes_per_txn` everywhere",
    ),
    layer(
        "store.bytes_per_version",
        "B",
        Lower,
        "same (counted live heap bytes per new version; on `watch_fanout_rc` undelivered events count too)",
    ),
    layer(
        "store.read_pins_per_txn",
        "1/txn",
        Lower,
        "`txn_p50_us` on `point_si` (`MvReadStats`)",
    ),
    layer(
        "store.read_lock_acq_per_txn",
        "1/txn",
        Lower,
        "0 under the default epoch read path",
    ),
    layer(
        "ebr.pin_ns",
        "ns",
        Lower,
        "`txn_p50_us` on `point_si` (direct `Ebr::pin` + drop); driven in `point_si`'s run, 0 in the others",
    ),
    layer(
        "ebr.retired_per_txn",
        "1/txn",
        Lower,
        "`mem_bytes_per_txn` (`MvStore::reclamation_stats`); 0 today, only aborts retire versions",
    ),
    layer(
        "ebr.reclaimed_frac",
        "ratio",
        Higher,
        "same",
    ),
    layer(
        "ebr.deferrals",
        "count",
        Lower,
        "same; over the two-client window",
    ),
    layer(
        "logstore.commit_ns",
        "ns",
        Lower,
        "`txn_s` on `log_rmw_rc`, `durable_rmw_rc` (held under the commit-sequence mutex) [0 on every `MvStore` workload]",
    ),
    layer(
        "logstore.flush_commit_us",
        "us",
        Lower,
        "`txn_p50_us` on `durable_rmw_rc`; at least half of it today",
    ),
    layer(
        "logstore.commits_per_fsync",
        "ratio",
        Higher,
        "`txn_s` on `durable_rmw_rc` (two-client window)",
    ),
    layer(
        "logstore.fsyncs_per_commit",
        "ratio",
        Lower,
        "same (count pass, one client; repeats exactly)",
    ),
    layer(
        "logstore.wal_bytes_per_commit",
        "B",
        Lower,
        "same",
    ),
    layer(
        "logstore.write_amp",
        "ratio",
        Lower,
        "WAL bytes per 16 B of caller payload (row key + new balance); `txn_s` on `durable_rmw_rc`",
    ),
    layer(
        "logstore.segments",
        "count",
        Lower,
        "`mem_bytes_per_txn` on the log workloads",
    ),
    layer(
        "logstore.dead_records",
        "count",
        Lower,
        "same; aborted records awaiting compaction",
    ),
    layer(
        "logstore.recover_us_per_commit",
        "us",
        Lower,
        "restart time, no gated cell: the durability check's `LogStore::recover` per commit replayed",
    ),
    layer(
        "watch.commit_extra_us",
        "us",
        Lower,
        "`txn_s`, `txn_p50_us` on `watch_fanout_rc`: mean `commit` span with the 1 104 subscriptions minus without, same database [0 elsewhere: no watcher is registered]",
    ),
    layer(
        "watch.publish_ns_per_subscriber",
        "ns",
        Lower,
        "the same per subscription",
    ),
    layer(
        "watch.events_per_commit",
        "count",
        Lower,
        "`mem_bytes_per_txn` on `watch_fanout_rc`",
    ),
    layer(
        "watch.drain_ns_per_event",
        "ns",
        Lower,
        "subscriber thread time per event received; no gated cell",
    ),
    layer(
        "watch.queue_depth_max",
        "count",
        Lower,
        "`mem_bytes_per_txn` on `watch_fanout_rc`: largest batch one `Watcher::drain` returned",
    ),
    layer(
        "alloc.count_per_txn",
        "1/txn",
        Lower,
        "`txn_s` on `point_*`, `mem_bytes_per_txn`",
    ),
    layer(
        "alloc.bytes_per_txn",
        "B",
        Lower,
        "same",
    ),
    layer(
        "alloc.engine_count_per_txn",
        "1/txn",
        Lower,
        "`txn_s` on `point_ser` (39 against 7 on `point_si`); inside engine calls, outside storage calls",
    ),
    layer(
        "alloc.storage_count_per_txn",
        "1/txn",
        Lower,
        "`txn_s` on `point_si`, `range_ser`; inside storage calls",
    ),
    layer(
        "bench.trace_overhead_frac",
        "ratio",
        Lower,
        "the harness: 1 - traced / untraced throughput, each traced slice against the two untraced slices around it",
    ),
    layer(
        "bench.generator_ns_per_txn",
        "ns",
        Lower,
        "the harness: off-the-clock cost of generating one planned transaction",
    ),
    layer(
        "bench.slice_cv",
        "ratio",
        Lower,
        "the harness: standard deviation over mean of the untraced slices' counts",
    ),
    layer(
        "bench.self_share",
        "ratio",
        Lower,
        "the harness: share of root-span time in no engine call",
    ),
    layer(
        "bench.attribution_gap_frac",
        "ratio",
        Lower,
        "the harness: |sum of own times - sum of root spans| / sum of root spans; 0 by construction",
    ),
];

/// Metrics the timer-free count pass alone decides; they must repeat
/// exactly from run to run of one seed.
pub const COUNT_PASS: [&str; 17] = [
    "lock.held_at_commit",
    "store.calls_per_txn",
    "store.rows_per_scan",
    "store.versions_per_txn",
    "store.bytes_per_version",
    "store.read_pins_per_txn",
    "store.read_lock_acq_per_txn",
    "ebr.retired_per_txn",
    "ebr.reclaimed_frac",
    "logstore.fsyncs_per_commit",
    "logstore.wal_bytes_per_commit",
    "logstore.write_amp",
    "watch.events_per_commit",
    "alloc.count_per_txn",
    "alloc.bytes_per_txn",
    "alloc.engine_count_per_txn",
    "alloc.storage_count_per_txn",
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let strings = |items: &[&str]| Value::Array(items.iter().map(|s| Value::from(*s)).collect());
    Value::object([
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| {
                        Value::object([("name", Value::from(w.name)), ("why", Value::from(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::object([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better.label())),
                            ("bound", Value::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::object([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_spec_stays_inside_the_benchmark_contract() {
        let mut names = BTreeSet::new();
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.gated).count()));
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.clients + usize::from(w.watchers) <= 2, "two cores");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        for m in &END_TO_END {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.name != "setup_s" || m.bound == widest);
        }
        assert!(PER_LAYER.len() <= 128);
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        for name in COUNT_PASS {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().to_string().len() < 64 * 1024);
    }

    #[test]
    fn point_si_and_point_ser_share_one_stream() {
        let si = workload("point_si").unwrap();
        let ser = workload("point_ser").unwrap();
        assert_eq!(si.mix, ser.mix);
        assert_eq!(si.mix.stream(7, 1, 1_000), ser.mix.stream(7, 1, 1_000));
    }

    #[test]
    fn the_hot_set_moves_on_every_64_transactions_and_stays_inside_the_table() {
        let hot = workload("hot_rmw_ser").unwrap();
        assert_eq!(hot.table_rows(), 65_536);
        assert_eq!(
            [0, 63, 64, 128].map(|started| hot.key_base(started)),
            [0, 0, 8, 16]
        );
        // After the last set it starts over.
        assert_eq!(hot.key_base(64 * (65_536 / 8)), 0);
        assert!((0..2_000_000)
            .step_by(997)
            .all(|started| hot.key_base(started) + hot.mix.rows <= hot.table_rows()));
        let whole = workload("point_si").unwrap();
        assert_eq!((whole.table_rows(), whole.key_base(12_345)), (100_000, 0));
    }

    #[test]
    fn the_committed_benchmark_json_is_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        // The file sits outside this package; a copy of the package alone
        // has nothing to compare against.
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        assert_eq!(crate::json::parse(&text).unwrap(), benchmark_json());
    }

    #[test]
    fn the_readme_names_every_metric_and_workload() {
        let readme = include_str!("../README.md");
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
        {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README lacks `{name}`"
            );
        }
        // The per-layer tables are this module's list, row for row.
        for m in &PER_LAYER {
            let row = format!("| `{}` | {} | {} |", m.name, m.unit, m.moves);
            assert!(readme.contains(&row), "README lacks the row {row}");
        }
    }
}
