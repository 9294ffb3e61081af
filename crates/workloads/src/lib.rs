//! # critique-workloads
//!
//! Executable versions of the situations the paper uses to motivate and
//! differentiate isolation levels:
//!
//! * [`scenarios`] — one deterministic two-transaction interleaving per
//!   phenomenon column of Table 4 (dirty write, dirty read, cursor lost
//!   update, lost update, fuzzy read, ANSI phantom, predicate-constraint
//!   phantom, read skew, write skew).  Each runs against a
//!   [`critique_engine::Database`] at any isolation level and reports
//!   whether the anomalous *outcome* actually materialised — these are the
//!   rows/columns the harness uses to regenerate Table 4.
//! * [`bank`] — the H1/H2 bank-transfer fixtures (inconsistent analysis)
//!   and helpers shared by examples and benchmarks.
//! * [`mixed`] — a randomised multi-threaded workload (configurable
//!   read/write mix, contention, transaction length, range-scan share,
//!   backend and durability) with throughput and abort statistics, used
//!   by the Snapshot-Isolation-vs-locking benchmarks that back the
//!   qualitative claims of Section 4.2.
//! * [`recovery`] — the crash-point differential harness over the durable
//!   log store: kill a seeded workload mid-transaction, recover the
//!   write-ahead directory, replay the remainder, and require the suffix
//!   history to be byte-identical to an uncrashed control run.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod bank;
pub mod mixed;
pub mod recovery;
pub mod scenarios;

pub use crate::bank::BankFixture;
pub use crate::mixed::{MixedWorkload, WorkloadStats};
pub use crate::recovery::{DifferentialOutcome, PlannedOp, RecoveryWorkload};
pub use crate::scenarios::{AnomalyScenario, ScenarioOutcome, ScenarioResult};

/// Convenient glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::bank::BankFixture;
    pub use crate::mixed::{MixedWorkload, WorkloadStats};
    pub use crate::recovery::{DifferentialOutcome, PlannedOp, RecoveryWorkload};
    pub use crate::scenarios::{AnomalyScenario, ScenarioOutcome, ScenarioResult};
}
