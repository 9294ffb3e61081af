//! # critique-lock
//!
//! The lock manager behind the locking isolation levels of Table 2.
//!
//! Transactions request **Shared** (read), **Update** (read with declared
//! intent to write — the classic asymmetric U mode from the Gray locking
//! lineage), and **Exclusive** (write) locks on *data items* or on
//! *predicates* (Section 2.3).  Two locks by different transactions
//! conflict if they cover a common (possibly phantom) data item and their
//! modes conflict under the asymmetric compatibility matrix
//! ([`LockMode::conflicts_with`]).  The lock manager supports:
//!
//! * item locks and predicate locks, with item-vs-predicate conflicts
//!   decided against the row images supplied by the caller;
//! * short, cursor, and long durations (the engine releases short locks
//!   after each action, cursor locks when the cursor moves, long locks at
//!   commit/abort — the durations Table 2 varies);
//! * non-blocking [`LockManager::try_acquire`] for the deterministic
//!   interleaving driver, and blocking [`LockManager::acquire`] for the
//!   threaded workloads: blocked requests park on event-driven per-lock
//!   FIFO wait-queues ([`waitqueue`]) and are handed released locks
//!   directly, with incremental (detect-on-insert) waits-for deadlock
//!   detection — no re-poll timer anywhere in the wait path.
//!
//! ```
//! use critique_lock::prelude::*;
//! use critique_storage::prelude::*;
//!
//! let locks = LockManager::new();
//! let t1 = TxnToken(1);
//! let t2 = TxnToken(2);
//! let x = LockTarget::item("accounts", RowId(0));
//!
//! assert!(locks.try_acquire(t1, x.clone(), LockMode::Exclusive, &[], LockDuration::Long).is_granted());
//! // A conflicting request by another transaction must wait.
//! assert!(!locks.try_acquire(t2, x.clone(), LockMode::Shared, &[], LockDuration::Long).is_granted());
//! locks.release_all(t1);
//! assert!(locks.try_acquire(t2, x, LockMode::Shared, &[], LockDuration::Long).is_granted());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod deadlock;
pub mod manager;
pub mod mode;
pub mod target;
pub mod waitqueue;

pub use crate::deadlock::WaitsForGraph;
pub use crate::manager::{AcquireError, LockManager, LockOutcome, DEFAULT_LOCK_SHARDS};
pub use crate::mode::LockMode;
pub use crate::target::LockTarget;
pub use crate::waitqueue::{
    conversion_first, is_conversion, requests_conflict, sweep_plan, upgrade_aware_plan,
    QueuedRequest,
};
pub use critique_core::locking::LockDuration;

/// Convenient glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::deadlock::WaitsForGraph;
    pub use crate::manager::{AcquireError, LockManager, LockOutcome, DEFAULT_LOCK_SHARDS};
    pub use crate::mode::LockMode;
    pub use crate::target::LockTarget;
    pub use crate::waitqueue::{
        conversion_first, is_conversion, requests_conflict, sweep_plan, upgrade_aware_plan,
        QueuedRequest,
    };
    pub use critique_core::locking::LockDuration;
}
