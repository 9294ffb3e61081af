//! Engine configuration.

use critique_core::IsolationLevel;
pub use critique_storage::{BackendKind, Durability, GroupCommit, ReadPath};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// What to do when a lock request conflicts with locks held by other
/// transactions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum LockWaitPolicy {
    /// Return [`crate::TxnError::WouldBlock`] immediately.  This is what the
    /// deterministic interleaving driver uses: the harness decides whether
    /// to retry the operation after the blocker finishes.
    #[default]
    Fail,
    /// Block until the lock is granted, a deadlock makes this transaction
    /// the victim, or the timeout expires.  Used by the threaded
    /// throughput benchmarks.
    Block {
        /// Maximum time to wait for a single lock.
        timeout_ms: u64,
    },
}

impl LockWaitPolicy {
    /// The blocking timeout as a [`Duration`], if blocking.
    pub fn timeout(&self) -> Option<Duration> {
        match self {
            LockWaitPolicy::Fail => None,
            LockWaitPolicy::Block { timeout_ms } => Some(Duration::from_millis(*timeout_ms)),
        }
    }
}

/// Configuration of a [`crate::Database`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct EngineConfig {
    /// The isolation level every transaction of this database runs at.
    pub level: IsolationLevel,
    /// Lock wait behaviour (ignored by Snapshot Isolation reads, which
    /// never block).
    pub lock_wait: LockWaitPolicy,
    /// Record executed operations into a history (on by default; the
    /// throughput benchmarks switch it off to measure the schedulers
    /// themselves).
    pub record_history: bool,
    /// Number of shards the substrate is partitioned into: the store's
    /// version-chain shards, the lock manager's item-lock shards, and the
    /// history recorder's buffers.  `1` degenerates to a single
    /// global-lock layout; clamped to at least 1.
    pub shards: usize,
    /// Which storage engine the database runs on.  Every isolation
    /// scheduler talks to storage through the
    /// [`critique_storage::StorageBackend`] trait, so the choice changes
    /// the representation of versions — never the Table 3/4 verdicts (the
    /// conformance exerciser proves this per backend).
    pub backend: BackendKind,
    /// Which read discipline the default ([`BackendKind::MvStore`])
    /// backend uses: the epoch-pinned lock-free path (default) or the
    /// stripe-read-lock path.  The log-structured backend ignores it.
    pub read_path: ReadPath,
    /// Whether the storage backend persists to disk.  Ephemeral (default)
    /// keeps everything in memory; [`Durability::Fsync`] gives the
    /// log-structured backend a write-ahead directory with fsync on every
    /// commit boundary.  [`BackendKind::MvStore`] ignores it.
    pub durability: Durability,
    /// How a durable log-structured backend schedules its commit fsyncs:
    /// one per writing commit ([`GroupCommit::Off`], the default), or
    /// batched behind a group-commit leader that holds a window open and
    /// issues a single fsync for every committer that enqueued meanwhile.
    /// Ignored unless `durability` is [`Durability::Fsync`] and the
    /// backend is [`BackendKind::LogStructured`].
    pub group_commit: GroupCommit,
}

impl EngineConfig {
    /// Default configuration for a given isolation level: non-blocking lock
    /// waits, history recording enabled, default shard count.
    pub fn new(level: IsolationLevel) -> Self {
        EngineConfig {
            level,
            lock_wait: LockWaitPolicy::Fail,
            record_history: true,
            shards: critique_storage::DEFAULT_SHARDS,
            backend: BackendKind::default(),
            read_path: ReadPath::default(),
            durability: Durability::default(),
            group_commit: GroupCommit::default(),
        }
    }

    /// Switch to blocking lock waits with the given timeout.
    pub fn blocking(mut self, timeout_ms: u64) -> Self {
        self.lock_wait = LockWaitPolicy::Block { timeout_ms };
        self
    }

    /// Disable history recording.
    pub fn without_history(mut self) -> Self {
        self.record_history = false;
        self
    }

    /// Override the substrate shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Select the storage backend the database runs on.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Override the storage read discipline (MvStore only).
    pub fn with_read_path(mut self, read_path: ReadPath) -> Self {
        self.read_path = read_path;
        self
    }

    /// Override the storage durability mode (log-structured backend only).
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Override the commit fsync scheduling (durable log-structured
    /// backend only).
    pub fn with_group_commit(mut self, group_commit: GroupCommit) -> Self {
        self.group_commit = group_commit;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The census of engine settings.  The destructure names every field
    /// with no `..`, so adding one cannot compile without coming here and
    /// saying why it exists:
    ///
    /// * `level` — the paper's subject: which isolation level runs;
    /// * `lock_wait` — the deterministic interleaving driver needs
    ///   `Fail`, threaded callers need `Block`;
    /// * `record_history` — the phenomenon detectors need the history,
    ///   throughput runs cannot afford it;
    /// * `shards` — substrate partition count (store, lock table,
    ///   recorder);
    /// * `backend` — which of the two storage engines;
    /// * `read_path` — `MvStore`'s read discipline;
    /// * `durability`, `group_commit` — whether and how the log store
    ///   reaches disk.
    #[test]
    fn defaults() {
        let EngineConfig {
            level,
            lock_wait,
            record_history,
            shards,
            backend,
            read_path,
            durability,
            group_commit,
        } = EngineConfig::new(IsolationLevel::ReadCommitted);
        assert_eq!(level, IsolationLevel::ReadCommitted);
        assert_eq!(lock_wait, LockWaitPolicy::Fail);
        assert!(record_history);
        assert_eq!(shards, critique_storage::DEFAULT_SHARDS);
        assert_eq!(backend, BackendKind::MvStore);
        assert_eq!(read_path, ReadPath::Epoch);
        assert_eq!(durability, Durability::Ephemeral);
        assert_eq!(group_commit, GroupCommit::Off);
        assert_eq!(LockWaitPolicy::default(), LockWaitPolicy::Fail);
    }

    #[test]
    fn shard_override_is_clamped() {
        let cfg = EngineConfig::new(IsolationLevel::ReadCommitted).with_shards(0);
        assert_eq!(cfg.shards, 1);
        let cfg = EngineConfig::new(IsolationLevel::ReadCommitted).with_shards(4);
        assert_eq!(cfg.shards, 4);
    }

    #[test]
    fn builders() {
        let cfg = EngineConfig::new(IsolationLevel::Serializable)
            .blocking(250)
            .without_history();
        assert_eq!(cfg.lock_wait, LockWaitPolicy::Block { timeout_ms: 250 });
        assert_eq!(cfg.lock_wait.timeout(), Some(Duration::from_millis(250)));
        assert!(!cfg.record_history);
        assert_eq!(LockWaitPolicy::Fail.timeout(), None);
    }
}
