//! # critique-bench
//!
//! Criterion benchmark harnesses for the reproduction.  Each paper artefact
//! has its own bench target:
//!
//! | Paper artefact | Bench target | What it measures / prints |
//! |---|---|---|
//! | Table 1 | `table1` | strict-vs-broad interpretation analysis of H1-H5 |
//! | Table 3 | `table3` | regenerating the P0-P3 matrix from executions |
//! | Table 4 | `table4` | regenerating the full anomaly matrix from executions |
//! | Figure 2 | `figure2` | computing the isolation hierarchy |
//! | Section 4.2 claims | `si_vs_locking` | throughput / abort-rate of SI vs locking levels under varying read mix and contention |
//! | substrate | `substrate` | lock manager, MVCC store, and history-analysis microbenchmarks |
//!
//! The benches also print the regenerated tables once per run, so
//! `cargo bench` doubles as the experiment driver behind `EXPERIMENTS.md`.

#![warn(missing_docs)]

use critique_core::IsolationLevel;
use critique_workloads::MixedWorkload;

/// The isolation levels compared in the throughput studies.
pub const THROUGHPUT_LEVELS: [IsolationLevel; 4] = [
    IsolationLevel::ReadCommitted,
    IsolationLevel::RepeatableRead,
    IsolationLevel::Serializable,
    IsolationLevel::SnapshotIsolation,
];

/// A small mixed workload sized for benchmarking (kept modest so
/// `cargo bench` completes quickly while still showing the qualitative
/// shape).
pub fn bench_workload(read_fraction: f64, hot_fraction: f64) -> MixedWorkload {
    MixedWorkload {
        accounts: 32,
        read_fraction,
        ops_per_txn: 4,
        hot_fraction,
        txns_per_thread: 50,
        threads: 4,
        seed: 99,
        ..MixedWorkload::default()
    }
}
