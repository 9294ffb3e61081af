//! # critique-engine
//!
//! A transaction engine whose concurrency control is selected per database
//! instance, implementing every isolation type the paper characterises:
//!
//! * the **locking levels** of Table 2 — Degree 0, READ UNCOMMITTED,
//!   READ COMMITTED, Cursor Stability, REPEATABLE READ, SERIALIZABLE —
//!   executed directly from their [`critique_core::locking::LockProfile`]s
//!   against the [`critique_lock::LockManager`];
//! * **Snapshot Isolation** (Section 4.2): start-timestamp snapshot reads,
//!   reads never block, and First-Committer-Wins enforcement at commit;
//! * **Oracle Read Consistency** (Section 4.3): statement-level snapshots
//!   with long write locks (first-writer-wins).
//!
//! Every executed operation is recorded in a [`critique_history::History`],
//! so the phenomenon detectors in `critique-core` can be applied to what the
//! engine *actually did* — this is how the harness regenerates Tables 1, 3,
//! and 4 from observed behaviour instead of quoting the paper.
//!
//! ```
//! use critique_engine::prelude::*;
//! use critique_core::IsolationLevel;
//! use critique_storage::Row;
//!
//! let db = Database::new(IsolationLevel::SnapshotIsolation);
//! let admin = db.begin();
//! let acct = admin.insert("accounts", Row::new().with("balance", 100)).unwrap();
//! admin.commit().unwrap();
//!
//! let t1 = db.begin();
//! let balance = t1.read("accounts", acct).unwrap().unwrap().get_int("balance").unwrap();
//! t1.update("accounts", acct, Row::new().with("balance", balance - 40)).unwrap();
//! t1.commit().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod config;
pub mod cursor;
pub mod db;
pub mod error;
pub mod recorder;
pub mod txn;
pub mod watch;

pub use crate::config::{
    BackendKind, Durability, EngineConfig, GroupCommit, LockWaitPolicy, ReadPath,
};
pub use crate::cursor::CursorId;
pub use crate::db::Database;
pub use crate::error::TxnError;
pub use crate::txn::{Transaction, TxnStatus};
pub use crate::watch::{ChangeEvent, ChangeKind, RowChange, Watcher};

/// Convenient glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::config::{
        BackendKind, Durability, EngineConfig, GroupCommit, LockWaitPolicy, ReadPath,
    };
    pub use crate::cursor::CursorId;
    pub use crate::db::Database;
    pub use crate::error::TxnError;
    pub use crate::txn::{Transaction, TxnStatus};
    pub use crate::watch::{ChangeEvent, ChangeKind, RowChange, Watcher};
}
