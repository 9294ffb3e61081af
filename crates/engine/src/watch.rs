//! Commit-time change notification: watchers with paper-grade isolation
//! semantics.
//!
//! A watcher is a **read-only observer**, so the phenomenon taxonomy of
//! Berenson et al. applies to its notification stream exactly as it does
//! to a transaction's reads:
//!
//! * **No P1 (dirty reads) for observers.** An event carries only
//!   *committed* values — the before image is the row as committed before
//!   the notifying transaction, the after image the row as it committed.
//!   Aborted transactions produce nothing: the change-set is collected
//!   inside the commit sequence, which an aborting transaction never
//!   enters.
//! * **Notification order ≡ commit order.** Change-sets are staged under
//!   the commit-sequence lock (so the staging order *is* the
//!   commit-timestamp order) and delivered by draining the queue strictly
//!   from the front. Every subscriber observes commits in the same total
//!   order the recorded history commits them in — the conformance
//!   exerciser holds the two orders byte-identical.
//! * **No notification before durability.** A staged change-set is
//!   published only after [`StorageBackend::flush_commit`] returns for its
//!   transaction. Under group commit ([`critique_storage::GroupCommit`])
//!   that is after the batch leader's fsync — so a batch that vanishes
//!   wholesale in a crash was also never announced to any observer.
//!
//! Three subscription scopes share the interval machinery the lock
//! manager already uses: a **key** watcher fires for one row, a **table**
//! watcher for any row of a table, and a **predicate** watcher for rows
//! matching a [`Condition`] — pruned by the same
//! [`Condition`] → [`KeyInterval`] extraction
//! ([`RowPredicate::index_hint`]) that backs interval predicate locks,
//! with the exact condition test as the final word.
//!
//! Delivery is synchronous and unbounded: the committer pushes matching
//! events into each subscriber's queue and returns. Subscribers whose
//! scope matches the whole change-set share one allocation (the queues
//! hold `Arc`s), so fanning a commit out to ten thousand table watchers
//! costs ten thousand pointer pushes, not ten thousand deep copies — the
//! benchmark's `watch_fanout_rc` workload measures the commit-path cost
//! of that walk.

use critique_storage::{
    Condition, KeyInterval, Row, RowId, RowPredicate, StorageBackend, Timestamp, TxnToken,
};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a committed transaction changed one row, judged on the *net*
/// committed images (a row inserted and deleted inside one transaction
/// nets out to nothing and is not reported).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangeKind {
    /// The row did not exist before this commit.
    Inserted,
    /// The row existed and its contents were replaced.
    Updated,
    /// The row existed and this commit removed it.
    Deleted,
}

impl std::fmt::Display for ChangeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ChangeKind::Inserted => "inserted",
            ChangeKind::Updated => "updated",
            ChangeKind::Deleted => "deleted",
        })
    }
}

/// One row's net committed change within one commit.
#[derive(Clone, Debug, PartialEq)]
pub struct RowChange {
    /// Table the row lives in.
    pub table: String,
    /// The row's identifier.
    pub row: RowId,
    /// Net effect of the commit on this row.
    pub kind: ChangeKind,
    /// The latest committed image *before* this commit (`None` for an
    /// insert). Never an uncommitted value.
    pub before: Option<Row>,
    /// The committed image *after* this commit (`None` for a delete).
    pub after: Option<Row>,
}

/// One notification: everything a single commit changed within one
/// subscription's scope. Each subscriber receives **at most one** event
/// per commit, in commit-timestamp order.
#[derive(Clone, Debug, PartialEq)]
pub struct ChangeEvent {
    /// The commit timestamp the changes became visible at.
    pub commit_ts: Timestamp,
    /// The committing transaction's token.
    pub txn: TxnToken,
    /// The in-scope row changes, in the transaction's first-write order.
    pub changes: Vec<RowChange>,
}

/// What a subscription observes.
#[derive(Clone, Debug)]
enum Scope {
    /// One row of one table.
    Key { table: String, row: RowId },
    /// Every row of one table.
    Table { table: String },
    /// Rows of one table matching a condition, pruned by the same
    /// interval extraction the predicate lock manager uses.
    Predicate {
        predicate: RowPredicate,
        hint: Option<(String, KeyInterval)>,
    },
}

impl Scope {
    fn matches(&self, change: &RowChange) -> bool {
        match self {
            Scope::Key { table, row } => change.table == *table && change.row == *row,
            Scope::Table { table } => change.table == *table,
            Scope::Predicate { predicate, hint } => {
                // Interval prune first: `index_hint` only names a column
                // whose interval excludes untyped rows, so an image whose
                // hinted value falls outside the interval cannot match
                // the condition — skip the exact test entirely when both
                // images are pruned. The exact test is the final word.
                if let Some((column, interval)) = hint {
                    let may = |img: &Option<Row>| {
                        img.as_ref()
                            .is_some_and(|r| interval.covers_value(r.get(column)))
                    };
                    if !may(&change.before) && !may(&change.after) {
                        return false;
                    }
                }
                let hit = |img: &Option<Row>| {
                    img.as_ref()
                        .is_some_and(|r| predicate.matches(&change.table, r))
                };
                hit(&change.before) || hit(&change.after)
            }
        }
    }

    fn describe(&self) -> String {
        match self {
            Scope::Key { table, row } => format!("{}.{}", table, row.0),
            Scope::Table { table } => format!("{table}.*"),
            Scope::Predicate { predicate, .. } => predicate.name(),
        }
    }
}

/// A subscriber's event queue: a plain FIFO with a condvar for blocking
/// receives. Events are reference-counted so a commit fanned out to many
/// whole-scope subscribers is allocated once and shared.
#[derive(Default)]
struct QueueState {
    events: VecDeque<Arc<ChangeEvent>>,
}

/// Take ownership of a queued event, cloning only when another queue
/// still shares it.
fn unshare(event: Arc<ChangeEvent>) -> ChangeEvent {
    Arc::try_unwrap(event).unwrap_or_else(|shared| (*shared).clone())
}

struct WatcherQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct Subscription {
    id: u64,
    scope: Scope,
    queue: Arc<WatcherQueue>,
}

/// A commit's change-set, staged under the commit-sequence lock and
/// published once the commit record is durable.
struct PendingCommit {
    txn: TxnToken,
    commit_ts: Timestamp,
    changes: Vec<RowChange>,
    /// Set once this commit's `flush_commit` has returned. The delivery
    /// drain only ever pops a *durable prefix*, so a commit whose fsync is
    /// still in flight blocks later (already durable) commits from being
    /// announced out of order.
    durable: AtomicBool,
}

struct HubCore {
    /// Registered-subscription count, read with one atomic load on every
    /// commit so a database with no watchers pays nothing.
    subscribers: AtomicUsize,
    subs: Mutex<Vec<Subscription>>,
    /// Staged change-sets in commit-timestamp order (staging happens
    /// under the commit-sequence lock, so push order *is* ts order).
    pending: Mutex<VecDeque<PendingCommit>>,
    /// Serialises draining: events enter subscriber queues in exactly the
    /// pending-queue order even when many committers race to publish.
    delivery: Mutex<()>,
    next_id: AtomicU64,
}

/// The per-database watcher registry and staging queue.
pub(crate) struct WatchHub {
    core: Arc<HubCore>,
}

/// The first half of change collection: rows and before-images captured
/// under the commit-sequence lock, *before* the store clears the write
/// set. Completed by [`WatchHub::finish_collect`] after the store commit
/// stamps the new versions.
pub(crate) struct StagedChanges {
    /// `(table, row, before-image)` in first-write order, deduplicated.
    rows: Vec<(String, RowId, Option<Row>)>,
}

impl WatchHub {
    pub(crate) fn new() -> Self {
        WatchHub {
            core: Arc::new(HubCore {
                subscribers: AtomicUsize::new(0),
                subs: Mutex::new(Vec::new()),
                pending: Mutex::new(VecDeque::new()),
                delivery: Mutex::new(()),
                next_id: AtomicU64::new(1),
            }),
        }
    }

    /// True when a commit should collect its change-set: at least one
    /// subscription exists. One atomic load — a database with no watchers
    /// pays nothing more on the commit path.
    fn wants_changes(&self) -> bool {
        self.core.subscribers.load(Ordering::Acquire) > 0
    }

    fn subscribe(&self, scope: Scope) -> Watcher {
        let id = self.core.next_id.fetch_add(1, Ordering::Relaxed);
        let queue = Arc::new(WatcherQueue {
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
        });
        let description = scope.describe();
        let mut subs = self.core.subs.lock();
        subs.push(Subscription {
            id,
            scope,
            queue: Arc::clone(&queue),
        });
        // Release pairs with the Acquire in `wants_changes`: a commit
        // sequence beginning after this store observes the subscription.
        self.core.subscribers.fetch_add(1, Ordering::Release);
        drop(subs);
        Watcher {
            core: Arc::clone(&self.core),
            id,
            queue,
            description,
        }
    }

    /// Capture the committing transaction's written rows with their
    /// before-images. Must run under the commit-sequence lock and before
    /// [`StorageBackend::commit`]: commit clears the write set, and the
    /// "latest committed" image only equals the true before-image while
    /// no later commit can interleave. Returns `None` (collecting
    /// nothing) when no subscription exists.
    pub(crate) fn begin_collect(
        &self,
        store: &dyn StorageBackend,
        writer: TxnToken,
    ) -> Option<StagedChanges> {
        if !self.wants_changes() {
            return None;
        }
        let mut rows: Vec<(String, RowId, Option<Row>)> = Vec::new();
        for (table, row, _) in store.writes_of(writer) {
            // The write set records every write op; the change-set is the
            // *net* per-row effect, so keep the first occurrence only.
            if rows.iter().any(|(t, r, _)| *t == table && *r == row) {
                continue;
            }
            let before = store.get_latest_committed(&table, row);
            rows.push((table, row, before));
        }
        Some(StagedChanges { rows })
    }

    /// Complete collection after [`StorageBackend::commit`] stamped the
    /// new versions (still under the commit-sequence lock): read the
    /// after-images, compute net change kinds, and stage the change-set
    /// for publication. Read-only commits and net no-ops stage nothing.
    pub(crate) fn finish_collect(
        &self,
        store: &dyn StorageBackend,
        staged: StagedChanges,
        txn: TxnToken,
        commit_ts: Timestamp,
    ) {
        let changes: Vec<RowChange> = staged
            .rows
            .into_iter()
            .filter_map(|(table, row, before)| {
                let after = store.get_latest_committed(&table, row);
                let kind = match (&before, &after) {
                    (None, Some(_)) => ChangeKind::Inserted,
                    (Some(_), Some(_)) => ChangeKind::Updated,
                    (Some(_), None) => ChangeKind::Deleted,
                    // Inserted and deleted inside one transaction: no net
                    // committed change, nothing to announce.
                    (None, None) => return None,
                };
                Some(RowChange {
                    table,
                    row,
                    kind,
                    before,
                    after,
                })
            })
            .collect();
        if changes.is_empty() {
            return;
        }
        self.core.pending.lock().push_back(PendingCommit {
            txn,
            commit_ts,
            changes,
            durable: AtomicBool::new(false),
        });
    }

    /// Mark `commit_ts` durable and deliver every durable-prefix commit
    /// to its matching subscribers. Called after
    /// [`StorageBackend::flush_commit`] returns — under group commit that
    /// is after the batch leader's fsync, so an unfsync'd batch that
    /// would vanish in a crash is never announced. Draining only the
    /// durable *prefix* keeps delivery in commit order even when
    /// committers reach this point out of timestamp order.
    pub(crate) fn publish(&self, commit_ts: Timestamp) {
        {
            let pending = self.core.pending.lock();
            if pending.is_empty() {
                return;
            }
            if let Some(commit) = pending.iter().find(|p| p.commit_ts == commit_ts) {
                commit.durable.store(true, Ordering::Release);
            }
        }
        let _delivery = self.core.delivery.lock();
        loop {
            let next = {
                let mut pending = self.core.pending.lock();
                match pending.front() {
                    Some(front) if front.durable.load(Ordering::Acquire) => pending.pop_front(),
                    _ => None,
                }
            };
            let Some(commit) = next else { break };
            self.deliver(&commit);
        }
    }

    fn deliver(&self, commit: &PendingCommit) {
        let subs = self.core.subs.lock();
        // Subscribers that match the whole change-set (every table watcher
        // during fan-out) share one allocation; partial matches get their
        // own filtered event.
        let mut full_event: Option<Arc<ChangeEvent>> = None;
        for sub in subs.iter() {
            let matched = commit
                .changes
                .iter()
                .filter(|change| sub.scope.matches(change))
                .count();
            if matched == 0 {
                continue;
            }
            let event = if matched == commit.changes.len() {
                Arc::clone(full_event.get_or_insert_with(|| {
                    Arc::new(ChangeEvent {
                        commit_ts: commit.commit_ts,
                        txn: commit.txn,
                        changes: commit.changes.clone(),
                    })
                }))
            } else {
                Arc::new(ChangeEvent {
                    commit_ts: commit.commit_ts,
                    txn: commit.txn,
                    changes: commit
                        .changes
                        .iter()
                        .filter(|change| sub.scope.matches(change))
                        .cloned()
                        .collect(),
                })
            };
            sub.queue.state.lock().events.push_back(event);
            sub.queue.ready.notify_all();
        }
    }

    /// Register a watcher on one row.
    pub(crate) fn watch_key(&self, table: &str, row: RowId) -> Watcher {
        self.subscribe(Scope::Key {
            table: table.to_string(),
            row,
        })
    }

    /// Register a watcher on every row of a table.
    pub(crate) fn watch_table(&self, table: &str) -> Watcher {
        self.subscribe(Scope::Table {
            table: table.to_string(),
        })
    }

    /// Register a watcher on the rows of `table` matching `condition`.
    pub(crate) fn watch_predicate(&self, table: &str, condition: Condition) -> Watcher {
        let predicate = RowPredicate::new(table, condition);
        let hint = predicate.index_hint();
        self.subscribe(Scope::Predicate { predicate, hint })
    }
}

/// A live subscription handle returned by [`crate::Database::watch_key`],
/// [`watch_table`](crate::Database::watch_table), and
/// [`watch_predicate`](crate::Database::watch_predicate).
///
/// Events accumulate in an unbounded FIFO until received; dropping the
/// watcher unregisters the subscription. A watcher observes every commit
/// whose commit sequence begins after the registration — each matching
/// commit produces exactly one [`ChangeEvent`], in commit-timestamp
/// order.
pub struct Watcher {
    core: Arc<HubCore>,
    id: u64,
    queue: Arc<WatcherQueue>,
    description: String,
}

impl Watcher {
    /// Pop the next pending event without blocking.
    pub fn try_recv(&self) -> Option<ChangeEvent> {
        self.queue.state.lock().events.pop_front().map(unshare)
    }

    /// Block until an event arrives or `timeout` elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<ChangeEvent> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.queue.state.lock();
        loop {
            if let Some(event) = state.events.pop_front() {
                return Some(unshare(event));
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            self.queue.ready.wait_for(&mut state, deadline - now);
        }
    }

    /// Pop every pending event at once.
    pub fn drain(&self) -> Vec<ChangeEvent> {
        self.queue
            .state
            .lock()
            .events
            .drain(..)
            .map(unshare)
            .collect()
    }

    /// Number of events waiting to be received.
    pub fn pending(&self) -> usize {
        self.queue.state.lock().events.len()
    }

    /// A human-readable description of the watched scope (`table.row`,
    /// `table.*`, or the predicate's display name).
    pub fn scope(&self) -> &str {
        &self.description
    }
}

impl Drop for Watcher {
    fn drop(&mut self) {
        let mut subs = self.core.subs.lock();
        if let Some(pos) = subs.iter().position(|sub| sub.id == self.id) {
            subs.swap_remove(pos);
            self.core.subscribers.fetch_sub(1, Ordering::Release);
        }
    }
}

impl std::fmt::Debug for Watcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watcher")
            .field("scope", &self.description)
            .field("pending", &self.pending())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn change(table: &str, row: u64, before: Option<Row>, after: Option<Row>) -> RowChange {
        let kind = match (&before, &after) {
            (None, Some(_)) => ChangeKind::Inserted,
            (Some(_), None) => ChangeKind::Deleted,
            _ => ChangeKind::Updated,
        };
        RowChange {
            table: table.to_string(),
            row: RowId(row),
            kind,
            before,
            after,
        }
    }

    #[test]
    fn key_scope_matches_exactly_one_row() {
        let scope = Scope::Key {
            table: "accounts".into(),
            row: RowId(3),
        };
        assert!(scope.matches(&change(
            "accounts",
            3,
            None,
            Some(Row::new().with("balance", 1))
        )));
        assert!(!scope.matches(&change(
            "accounts",
            4,
            None,
            Some(Row::new().with("balance", 1))
        )));
        assert!(!scope.matches(&change(
            "orders",
            3,
            None,
            Some(Row::new().with("balance", 1))
        )));
    }

    #[test]
    fn predicate_scope_fires_on_either_image() {
        let predicate = RowPredicate::new(
            "accounts",
            Condition::compare("balance", critique_storage::Comparison::Gt, 100),
        );
        let hint = predicate.index_hint();
        let scope = Scope::Predicate { predicate, hint };
        // Enters the predicate.
        assert!(scope.matches(&change(
            "accounts",
            1,
            Some(Row::new().with("balance", 50)),
            Some(Row::new().with("balance", 150)),
        )));
        // Leaves the predicate: the before image still matched.
        assert!(scope.matches(&change(
            "accounts",
            1,
            Some(Row::new().with("balance", 150)),
            Some(Row::new().with("balance", 50)),
        )));
        // Never inside the predicate.
        assert!(!scope.matches(&change(
            "accounts",
            1,
            Some(Row::new().with("balance", 10)),
            Some(Row::new().with("balance", 20)),
        )));
        // Wrong table.
        assert!(!scope.matches(&change(
            "orders",
            1,
            None,
            Some(Row::new().with("balance", 500)),
        )));
    }

    #[test]
    fn durable_prefix_blocks_out_of_order_publication() {
        let hub = WatchHub::new();
        let watcher = hub.watch_table("t");
        let ev = |ts: u64| {
            vec![change(
                "t",
                ts,
                None,
                Some(Row::new().with("value", ts as i64)),
            )]
        };
        hub.core.pending.lock().push_back(PendingCommit {
            txn: TxnToken(1),
            commit_ts: Timestamp(5),
            changes: ev(5),
            durable: AtomicBool::new(false),
        });
        hub.core.pending.lock().push_back(PendingCommit {
            txn: TxnToken(2),
            commit_ts: Timestamp(6),
            changes: ev(6),
            durable: AtomicBool::new(false),
        });
        // ts=6 becomes durable first: nothing may be delivered yet.
        hub.publish(Timestamp(6));
        assert_eq!(watcher.pending(), 0);
        // ts=5 becomes durable: both drain, in timestamp order.
        hub.publish(Timestamp(5));
        let events = watcher.drain();
        assert_eq!(
            events.iter().map(|e| e.commit_ts).collect::<Vec<_>>(),
            vec![Timestamp(5), Timestamp(6)]
        );
    }

    #[test]
    fn dropping_a_watcher_unregisters_it() {
        let hub = WatchHub::new();
        let watcher = hub.watch_key("t", RowId(0));
        assert!(hub.wants_changes());
        drop(watcher);
        assert!(!hub.wants_changes());
    }
}
