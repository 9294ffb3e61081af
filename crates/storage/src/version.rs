//! Version chains: the multi-version representation of a single row.
//!
//! Two representations live here:
//!
//! * [`VersionChain`] — the original `Vec`-backed chain (oldest first).  It
//!   remains the *reference model*: the shard-stress property tests replay
//!   the sharded store against a single-map model built on it, and its
//!   visibility methods are the executable specification the lock-free
//!   representation must match.
//! * [`ChainHead`] / [`VersionNode`] — the atomic-linked chain (newest
//!   first) the [`crate::store::MvStore`] read path traverses **without
//!   locks**.  Nodes are immutable after publication except for the commit
//!   stamp; writers mutate the links only under the owning stripe lock and
//!   hand unlinked nodes to [`crate::ebr::Ebr`] instead of freeing them.
//!
//! Two things unlink a node: rollback ([`ChainHead::abort`]) and
//! low-water-mark pruning ([`ChainHead::prune`]).  The pruning invariants,
//! which the reference model's [`VersionChain::prune`] states in safe code
//! and a property test holds the atomic chain to:
//!
//! * the **boundary** is the newest committed version with `commit_ts <=
//!   mark` — the one version a reader whose timestamp is at or above the
//!   mark can still need from that point down;
//! * nothing at or above the boundary is ever unlinked, and neither is an
//!   uncommitted version or one committed after the mark that sits below it
//!   (the cut moves down past the oldest such straggler), so a row's last
//!   committed version — tombstones included — always survives;
//! * the cut is one release store of `next = null` on the cut node; the
//!   detached tail's nodes keep their own `next`, so a pinned reader
//!   already standing on them finishes a coherent walk;
//! * a mark of 0 prunes nothing.
//!
//! The visibility rules are intentionally the same functions read off two
//! different orderings: `Vec` methods scan `versions.iter().rev()` (newest
//! first), the node methods walk `head → next` (also newest first), so
//! every `find`/`any` below has a one-to-one twin.

use crate::ebr::{Ebr, Guard};
use crate::row::Row;
use crate::timestamp::{Timestamp, TxnToken};
use serde::{Deserialize, Serialize};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// One version of a row.
///
/// `row == None` is a tombstone (the row was deleted by the writer).
/// `commit_ts == None` means the writing transaction has not yet committed;
/// aborting removes the version entirely.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Version {
    /// The transaction that installed this version.
    pub writer: TxnToken,
    /// The row contents, or `None` for a delete.
    pub row: Option<Row>,
    /// The writer's commit timestamp, once it has committed.
    pub commit_ts: Option<Timestamp>,
}

impl Version {
    /// True once the writing transaction has committed.
    pub fn is_committed(&self) -> bool {
        self.commit_ts.is_some()
    }

    /// True if this version deletes the row.
    pub fn is_tombstone(&self) -> bool {
        self.row.is_none()
    }
}

/// The ordered list of versions of one row, oldest first.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct VersionChain {
    versions: Vec<Version>,
}

impl VersionChain {
    /// An empty chain (a row that has never existed).
    pub fn new() -> Self {
        Self::default()
    }

    /// All versions, oldest first.
    pub fn versions(&self) -> &[Version] {
        &self.versions
    }

    /// Install a new uncommitted version by `writer`.
    pub fn install(&mut self, writer: TxnToken, row: Option<Row>) {
        self.versions.push(Version {
            writer,
            row,
            commit_ts: None,
        });
    }

    /// Mark all of `writer`'s versions as committed at `ts`.
    pub fn commit(&mut self, writer: TxnToken, ts: Timestamp) {
        for v in &mut self.versions {
            if v.writer == writer && v.commit_ts.is_none() {
                v.commit_ts = Some(ts);
            }
        }
    }

    /// Remove all uncommitted versions installed by `writer` (rollback —
    /// the before image, i.e. the previous committed version, becomes
    /// current again).
    pub fn abort(&mut self, writer: TxnToken) {
        self.versions
            .retain(|v| !(v.writer == writer && v.commit_ts.is_none()));
    }

    /// The most recent version regardless of commit status — what a reader
    /// with no read locks at Degree 0/1 would observe (dirty reads).
    pub fn latest_any(&self) -> Option<&Version> {
        self.versions.last()
    }

    /// The most recent committed version.
    pub fn latest_committed(&self) -> Option<&Version> {
        self.versions.iter().rev().find(|v| v.is_committed())
    }

    /// The most recent version committed at or before `ts` — the Snapshot
    /// Isolation read rule for a transaction whose Start-Timestamp is `ts`.
    pub fn committed_as_of(&self, ts: Timestamp) -> Option<&Version> {
        self.versions
            .iter()
            .rev()
            .find(|v| matches!(v.commit_ts, Some(c) if c <= ts))
    }

    /// The version visible to `reader` under Snapshot Isolation: its own
    /// most recent uncommitted version if it has written the row, otherwise
    /// the version committed as of `start_ts` ("the transaction's writes
    /// will also be reflected in this snapshot", Section 4.2).
    pub fn visible_for(&self, reader: TxnToken, start_ts: Timestamp) -> Option<&Version> {
        self.versions
            .iter()
            .rev()
            .find(|v| v.writer == reader && !v.is_committed())
            .or_else(|| self.committed_as_of(start_ts))
    }

    /// The committed row contents immediately before `writer`'s first
    /// uncommitted version — the before image a recovery system would
    /// restore on rollback.
    pub fn before_image(&self, writer: TxnToken) -> Option<&Version> {
        let first_own = self
            .versions
            .iter()
            .position(|v| v.writer == writer && !v.is_committed())?;
        self.versions[..first_own]
            .iter()
            .rev()
            .find(|v| v.is_committed())
    }

    /// True if any *other* transaction committed a version of this row with
    /// a commit timestamp strictly greater than `start_ts` — the
    /// First-Committer-Wins test of Section 4.2.
    pub fn committed_after(&self, start_ts: Timestamp, excluding: TxnToken) -> bool {
        self.versions
            .iter()
            .any(|v| v.writer != excluding && matches!(v.commit_ts, Some(c) if c > start_ts))
    }

    /// True if some transaction other than `writer` currently holds an
    /// uncommitted version of this row.
    pub fn has_foreign_uncommitted(&self, writer: TxnToken) -> bool {
        self.versions
            .iter()
            .any(|v| v.writer != writer && !v.is_committed())
    }

    /// Drop every version no reader at or above `low_water` can reach —
    /// the reference statement of [`ChainHead::prune`] (see the module docs
    /// for the invariants) — and return what was dropped, oldest first.
    pub fn prune(&mut self, low_water: Timestamp) -> Vec<Version> {
        match cut_point(
            self.versions.iter().enumerate().rev(),
            |(_, v)| v.commit_ts,
            low_water,
        ) {
            Some((cut, _)) => self.versions.drain(..cut).collect(),
            None => Vec::new(),
        }
    }

    /// Number of versions in the chain.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True if the chain holds no versions.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }
}

/// Where pruning at `low_water` cuts a chain walked newest first: the last
/// version to keep, after which everything is unreachable for a reader at
/// or above the mark.  That is the boundary (the first version committed
/// at or before the mark) or, if anything below the boundary is still
/// uncommitted or was committed after the mark, the oldest such straggler.
/// `None` when there is no boundary, and always for a mark of 0 ("prune
/// nothing" — `Timestamp(0)` is a legal commit stamp, so the comparison
/// alone would not say it).
fn cut_point<V: Copy>(
    newest_first: impl Iterator<Item = V>,
    commit_ts: impl Fn(V) -> Option<Timestamp>,
    low_water: Timestamp,
) -> Option<V> {
    if low_water == Timestamp(0) {
        return None;
    }
    let mut cut = None;
    for version in newest_first {
        let settled = matches!(commit_ts(version), Some(ts) if ts <= low_water);
        // Above the boundary only a settled version matters (it *is* the
        // boundary); below it only an unsettled one does.
        if settled == cut.is_none() {
            cut = Some(version);
        }
    }
    cut
}

/// Commit-stamp sentinel meaning "the writer has not committed".
/// `Timestamp(0)` is a valid stamp ("the beginning of time"), so the
/// sentinel sits at the other end of the range; the oracle never allocates
/// `u64::MAX`.
pub const UNSTAMPED: u64 = u64::MAX;

/// One version of a row in the atomic-linked representation.
///
/// Immutable after publication except for `commit_ts` (stamped once, by
/// the committing writer, with a release store) — that immutability is
/// what lets readers traverse the chain without locks.
pub struct VersionNode {
    /// The transaction that installed this version.
    pub writer: TxnToken,
    row: Option<Row>,
    /// [`UNSTAMPED`] until the writer commits, then the commit timestamp.
    commit_ts: AtomicU64,
    /// The next-older version, or null at the chain's tail.  Written only
    /// before publication (install) or under the stripe lock (unlink);
    /// a retired node's `next` is deliberately left intact so an in-flight
    /// reader standing on it keeps a coherent view of the older suffix.
    next: AtomicPtr<VersionNode>,
}

impl VersionNode {
    /// The row contents, or `None` for a tombstone.
    pub fn row(&self) -> Option<&Row> {
        self.row.as_ref()
    }

    /// The writer's commit timestamp, once it has committed.
    pub fn commit_ts(&self) -> Option<Timestamp> {
        match self.commit_ts.load(Ordering::Acquire) {
            UNSTAMPED => None,
            ts => Some(Timestamp(ts)),
        }
    }

    /// True once the writing transaction has committed.
    pub fn is_committed(&self) -> bool {
        self.commit_ts.load(Ordering::Acquire) != UNSTAMPED
    }

    /// True if this version deletes the row.
    pub fn is_tombstone(&self) -> bool {
        self.row.is_none()
    }

    /// Committed at or before `ts`?
    fn committed_as_of(&self, ts: Timestamp) -> bool {
        matches!(self.commit_ts(), Some(c) if c <= ts)
    }
}

impl std::fmt::Debug for VersionNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionNode")
            .field("writer", &self.writer)
            .field("commit_ts", &self.commit_ts())
            .field("tombstone", &self.is_tombstone())
            .finish()
    }
}

/// Iterate a chain from a head snapshot, newest first.
///
/// The `'g` lifetime is the caller's proof that every node reached stays
/// allocated for the duration of the walk: either an epoch [`Guard`]
/// borrowed for `'g` (lock-free readers) or the owning stripe lock held
/// exclusively (writers).  Constructing the iterator is the single place
/// that turns raw chain pointers into references.
struct ChainIter<'g> {
    cur: *const VersionNode,
    _life: PhantomData<&'g VersionNode>,
}

impl<'g> Iterator for ChainIter<'g> {
    type Item = &'g VersionNode;

    fn next(&mut self) -> Option<&'g VersionNode> {
        if self.cur.is_null() {
            return None;
        }
        // SAFETY: non-null chain pointers reference nodes published with a
        // release store and freed only through epoch reclamation; the `'g`
        // proof (epoch pin or exclusive stripe lock, see the struct docs)
        // guarantees no reclamation of reachable nodes during the walk.
        #[allow(unsafe_code)]
        let node = unsafe { &*self.cur };
        self.cur = node.next.load(Ordering::Acquire);
        Some(node)
    }
}

/// An unlinked uncommitted version handed back by [`ChainHead::abort`]:
/// unreachable from the chain head but possibly still referenced by
/// in-flight readers, so it must be [`UnlinkedVersion::retire`]d, never
/// dropped in place.
#[must_use = "unlinked versions must be retired to the EBR domain"]
pub struct UnlinkedVersion {
    ptr: *mut VersionNode,
}

impl UnlinkedVersion {
    /// The unlinked version's row contents (used to roll its keys out of
    /// the ordered index before the memory is surrendered).
    pub fn row(&self) -> Option<&Row> {
        // SAFETY: the node was just unlinked by the caller's exclusive
        // stripe-locked `abort` and has not been retired yet, so the
        // allocation is still live.
        #[allow(unsafe_code)]
        unsafe {
            (*self.ptr).row()
        }
    }

    /// Surrender the node to the reclamation domain.
    pub fn retire(self, ebr: &Ebr) {
        ebr.retire(self.ptr);
    }
}

/// The tail [`ChainHead::prune`] detached: a run of versions, newest first,
/// linked through their own untouched `next` pointers.  Unreachable from
/// the chain head but possibly still referenced by in-flight readers, so it
/// must be [`PrunedTail::retire`]d, never dropped in place (dropping it
/// leaks the nodes).
#[must_use = "pruned versions must be retired to the EBR domain"]
pub struct PrunedTail {
    head: *mut VersionNode,
}

impl PrunedTail {
    /// True if pruning detached nothing.
    pub fn is_empty(&self) -> bool {
        self.head.is_null()
    }

    /// The detached versions, newest first (used to roll their keys out of
    /// the ordered index before the memory is surrendered).
    pub fn versions(&self) -> impl Iterator<Item = &VersionNode> {
        // The `ChainIter` liveness proof here is ownership: the nodes were
        // detached under the stripe lock and stay allocated until
        // `retire(self)` consumes this handle.
        ChainIter {
            cur: self.head,
            _life: PhantomData,
        }
    }

    /// Surrender every detached node to the reclamation domain.
    pub fn retire(self, ebr: &Ebr) {
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: `cur` is a node of the tail this handle uniquely owns
            // (detached by the stripe-locked `prune`, not yet retired), so
            // the allocation is live.  `next` is read *before* the node is
            // retired — retire may free it at once when nothing is pinned —
            // and is never written after the detach, so the walk visits
            // each tail node exactly once and ends at the old chain end.
            #[allow(unsafe_code)]
            let next = unsafe { (*cur).next.load(Ordering::Acquire) };
            ebr.retire(cur);
            cur = next;
        }
    }
}

/// The atomic head of one row's version chain, newest version first.
///
/// Readers traverse it lock-free under an epoch [`Guard`]; every mutating
/// method documents its stripe-lock contract.  A null head is a row with
/// no versions (never written, or every write aborted).
pub struct ChainHead(AtomicPtr<VersionNode>);

impl Default for ChainHead {
    fn default() -> Self {
        Self::new()
    }
}

impl ChainHead {
    /// An empty chain.
    pub fn new() -> Self {
        ChainHead(AtomicPtr::new(std::ptr::null_mut()))
    }

    /// Snapshot the head pointer for one coherent traversal.
    fn snapshot<'g>(&self, _proof: &'g Guard<'_>) -> ChainIter<'g> {
        ChainIter {
            cur: self.0.load(Ordering::Acquire),
            _life: PhantomData,
        }
    }

    /// Writer-side traversal: requires the owning stripe lock held
    /// exclusively, which keeps every reachable node alive without a pin
    /// (unlinking requires the same lock).
    fn iter_exclusive(&self) -> ChainIter<'_> {
        ChainIter {
            cur: self.0.load(Ordering::Acquire),
            _life: PhantomData,
        }
    }

    /// Install a new uncommitted version at the head.
    ///
    /// Contract: the owning stripe lock is held exclusively.  The node is
    /// fully initialised (including its `next` link to the previous head)
    /// *before* the release store publishes it, so a reader sees either
    /// the old chain or the new node with a coherent tail — never a
    /// half-built node.
    pub fn install(&self, writer: TxnToken, row: Option<Row>) {
        let node = Box::into_raw(Box::new(VersionNode {
            writer,
            row,
            commit_ts: AtomicU64::new(UNSTAMPED),
            next: AtomicPtr::new(self.0.load(Ordering::Acquire)),
        }));
        self.0.store(node, Ordering::Release);
    }

    /// Stamp `writer`'s `installed` uncommitted versions with `ts`.
    ///
    /// Contract: the owning stripe lock is held exclusively, and
    /// `installed` is how many versions `writer` installed on this row and
    /// has not yet committed or aborted (its write set knows).  The walk
    /// stops at the last of them instead of visiting the retained history
    /// below.  The stamp is a release store; a concurrent lock-free reader
    /// observes each version flip from "uncommitted" to "committed at
    /// `ts`" atomically.
    pub fn commit(&self, writer: TxnToken, ts: Timestamp, installed: usize) {
        debug_assert_ne!(ts.0, UNSTAMPED, "u64::MAX is the unstamped sentinel");
        let own = self
            .iter_exclusive()
            .filter(|node| node.writer == writer && !node.is_committed());
        for node in own.take(installed) {
            node.commit_ts.store(ts.0, Ordering::Release);
        }
    }

    /// Unlink `writer`'s `installed` uncommitted versions (rollback: the
    /// before image becomes the head again) and return them for retirement.
    ///
    /// Contract: as for [`ChainHead::commit`].  Each unlink is a release
    /// store that splices the node out; the node's own `next` is left
    /// untouched so readers already standing on it still see the correct
    /// older suffix.  The returned nodes are unreachable from the head but
    /// must be retired, not dropped.
    pub fn abort(&self, writer: TxnToken, installed: usize) -> Vec<UnlinkedVersion> {
        let mut removed = Vec::with_capacity(installed);
        let mut link: &AtomicPtr<VersionNode> = &self.0;
        while removed.len() < installed {
            let cur = link.load(Ordering::Acquire);
            if cur.is_null() {
                break;
            }
            // SAFETY: `cur` is reachable from the chain under the caller's
            // exclusive stripe lock; only this thread can unlink or retire
            // reachable nodes right now.
            #[allow(unsafe_code)]
            let node = unsafe { &*cur };
            if node.writer == writer && !node.is_committed() {
                link.store(node.next.load(Ordering::Acquire), Ordering::Release);
                removed.push(UnlinkedVersion { ptr: cur });
                // `link` now addresses the spliced-in successor; re-test it.
            } else {
                link = &node.next;
            }
        }
        removed
    }

    /// Detach every version no reader at or above `low_water` can reach
    /// (the module docs list the invariants) and return the tail for
    /// retirement.
    ///
    /// Contract: the owning stripe lock is held exclusively.  The walk
    /// runs from the head to the boundary and over whatever is below it;
    /// since every write prunes, that is a version or two unless a
    /// long-lived snapshot is holding the mark back.
    pub fn prune(&self, low_water: Timestamp) -> PrunedTail {
        let cut = cut_point(self.iter_exclusive(), VersionNode::commit_ts, low_water);
        PrunedTail {
            // The cut: one release store (the stripe lock makes the
            // load/store pair atomic among writers), after which no
            // traversal that starts at the head reaches the tail.  Readers
            // already past the cut node keep walking the tail's own links.
            head: cut.map_or(std::ptr::null_mut(), |node| {
                let tail = node.next.load(Ordering::Acquire);
                if !tail.is_null() {
                    node.next.store(std::ptr::null_mut(), Ordering::Release);
                }
                tail
            }),
        }
    }

    /// The most recent version regardless of commit status (dirty read).
    pub fn latest_any<'g>(&self, proof: &'g Guard<'_>) -> Option<&'g VersionNode> {
        self.snapshot(proof).next()
    }

    /// The most recent committed version.
    pub fn latest_committed<'g>(&self, proof: &'g Guard<'_>) -> Option<&'g VersionNode> {
        self.snapshot(proof).find(|v| v.is_committed())
    }

    /// The most recent version committed at or before `ts`.
    pub fn committed_as_of<'g>(
        &self,
        ts: Timestamp,
        proof: &'g Guard<'_>,
    ) -> Option<&'g VersionNode> {
        self.snapshot(proof).find(|v| v.committed_as_of(ts))
    }

    /// Snapshot Isolation visibility: `reader`'s own newest uncommitted
    /// version, else the version committed as of `start_ts` — both passes
    /// over the *same* head snapshot, so the answer is one coherent view
    /// even while writers publish concurrently.
    pub fn visible_for<'g>(
        &self,
        reader: TxnToken,
        start_ts: Timestamp,
        _proof: &'g Guard<'_>,
    ) -> Option<&'g VersionNode> {
        let head = self.0.load(Ordering::Acquire);
        let own = ChainIter::<'g> {
            cur: head,
            _life: PhantomData,
        }
        .find(|v| v.writer == reader && !v.is_committed());
        own.or_else(|| {
            ChainIter::<'g> {
                cur: head,
                _life: PhantomData,
            }
            .find(|v| v.committed_as_of(start_ts))
        })
    }

    /// First-Committer-Wins: did any *other* transaction commit a version
    /// of this row strictly after `start_ts`?
    pub fn committed_after(
        &self,
        start_ts: Timestamp,
        excluding: TxnToken,
        proof: &Guard<'_>,
    ) -> bool {
        self.snapshot(proof)
            .any(|v| v.writer != excluding && matches!(v.commit_ts(), Some(c) if c > start_ts))
    }

    /// True if some transaction other than `writer` holds an uncommitted
    /// version of this row.
    pub fn has_foreign_uncommitted(&self, writer: TxnToken, proof: &Guard<'_>) -> bool {
        self.snapshot(proof)
            .any(|v| v.writer != writer && !v.is_committed())
    }

    /// Number of (linked, live) versions in the chain.  Unlinked/retired
    /// nodes are excluded by construction — they are unreachable.
    pub fn len(&self, proof: &Guard<'_>) -> usize {
        self.snapshot(proof).count()
    }

    /// True if the chain holds no versions.
    pub fn is_empty(&self) -> bool {
        self.0.load(Ordering::Acquire).is_null()
    }

    /// The integer `column` values of every linked version (any commit
    /// state) — the index backfill's source of truth.
    pub fn collect_int_keys(&self, column: &str, proof: &Guard<'_>, out: &mut Vec<i64>) {
        for node in self.snapshot(proof) {
            if let Some(key) = node.row().and_then(|r| r.get_int(column)) {
                out.push(key);
            }
        }
    }
}

impl Drop for ChainHead {
    fn drop(&mut self) {
        // `&mut self` proves exclusive access (the store is being dropped):
        // walk and free directly.  Retired nodes were unlinked first, so
        // they are unreachable here and owned by the EBR domain instead.
        let mut cur = *self.0.get_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access; each reachable node is owned by
            // the chain and freed exactly once.
            #[allow(unsafe_code)]
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next.load(Ordering::Acquire);
        }
    }
}

impl std::fmt::Debug for ChainHead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainHead").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(balance: i64) -> Row {
        Row::new().with("balance", balance)
    }

    #[test]
    fn install_commit_and_visibility() {
        let mut chain = VersionChain::new();
        chain.install(TxnToken(1), Some(row(50)));
        assert!(chain.latest_committed().is_none());
        assert_eq!(chain.latest_any().unwrap().writer, TxnToken(1));

        chain.commit(TxnToken(1), Timestamp(5));
        assert!(chain.latest_committed().unwrap().is_committed());
        assert!(chain.committed_as_of(Timestamp(4)).is_none());
        assert_eq!(
            chain
                .committed_as_of(Timestamp(5))
                .and_then(|v| v.row.as_ref())
                .and_then(|r| r.get_int("balance")),
            Some(50)
        );
    }

    #[test]
    fn snapshot_visibility_prefers_own_uncommitted_writes() {
        let mut chain = VersionChain::new();
        chain.install(TxnToken(1), Some(row(50)));
        chain.commit(TxnToken(1), Timestamp(1));
        chain.install(TxnToken(2), Some(row(10)));

        // T2 sees its own write; T3 (start ts 1) sees the committed 50.
        let t2_view = chain.visible_for(TxnToken(2), Timestamp(1)).unwrap();
        assert_eq!(t2_view.row.as_ref().unwrap().get_int("balance"), Some(10));
        let t3_view = chain.visible_for(TxnToken(3), Timestamp(1)).unwrap();
        assert_eq!(t3_view.row.as_ref().unwrap().get_int("balance"), Some(50));
    }

    #[test]
    fn snapshot_visibility_ignores_versions_committed_after_start() {
        let mut chain = VersionChain::new();
        chain.install(TxnToken(1), Some(row(50)));
        chain.commit(TxnToken(1), Timestamp(1));
        chain.install(TxnToken(2), Some(row(90)));
        chain.commit(TxnToken(2), Timestamp(5));

        // A reader that started at ts 2 still sees 50 (updates by
        // transactions committing after its start are invisible).
        let view = chain.visible_for(TxnToken(9), Timestamp(2)).unwrap();
        assert_eq!(view.row.as_ref().unwrap().get_int("balance"), Some(50));
        // A reader starting at ts 5 sees 90.
        let view = chain.visible_for(TxnToken(9), Timestamp(5)).unwrap();
        assert_eq!(view.row.as_ref().unwrap().get_int("balance"), Some(90));
    }

    #[test]
    fn abort_restores_the_before_image() {
        let mut chain = VersionChain::new();
        chain.install(TxnToken(1), Some(row(100)));
        chain.commit(TxnToken(1), Timestamp(1));
        chain.install(TxnToken(2), Some(row(200)));

        let before = chain.before_image(TxnToken(2)).unwrap();
        assert_eq!(before.row.as_ref().unwrap().get_int("balance"), Some(100));

        chain.abort(TxnToken(2));
        assert_eq!(chain.len(), 1);
        assert_eq!(
            chain
                .latest_any()
                .and_then(|v| v.row.as_ref())
                .and_then(|r| r.get_int("balance")),
            Some(100)
        );
    }

    #[test]
    fn tombstones_mark_deletes() {
        let mut chain = VersionChain::new();
        chain.install(TxnToken(1), Some(row(1)));
        chain.commit(TxnToken(1), Timestamp(1));
        chain.install(TxnToken(2), None);
        chain.commit(TxnToken(2), Timestamp(2));
        assert!(chain.latest_committed().unwrap().is_tombstone());
        // As of ts 1 the row still exists.
        assert!(!chain.committed_as_of(Timestamp(1)).unwrap().is_tombstone());
    }

    #[test]
    fn first_committer_wins_check() {
        let mut chain = VersionChain::new();
        chain.install(TxnToken(1), Some(row(100)));
        chain.commit(TxnToken(1), Timestamp(1));
        chain.install(TxnToken(2), Some(row(120)));
        chain.commit(TxnToken(2), Timestamp(5));

        // T3 started at ts 2; T2 committed at ts 5 > 2 — conflict.
        assert!(chain.committed_after(Timestamp(2), TxnToken(3)));
        // A transaction that started at ts 5 or later sees no conflict.
        assert!(!chain.committed_after(Timestamp(5), TxnToken(3)));
        // A transaction's own commit does not conflict with itself.
        assert!(!chain.committed_after(Timestamp(2), TxnToken(2)));
    }

    #[test]
    fn foreign_uncommitted_detection() {
        let mut chain = VersionChain::new();
        chain.install(TxnToken(1), Some(row(1)));
        assert!(chain.has_foreign_uncommitted(TxnToken(2)));
        assert!(!chain.has_foreign_uncommitted(TxnToken(1)));
        chain.commit(TxnToken(1), Timestamp(1));
        assert!(!chain.has_foreign_uncommitted(TxnToken(2)));
    }

    #[test]
    fn empty_chain_reports_nothing() {
        let chain = VersionChain::new();
        assert!(chain.is_empty());
        assert!(chain.latest_any().is_none());
        assert!(chain.latest_committed().is_none());
        assert!(chain.committed_as_of(Timestamp(10)).is_none());
        assert!(chain.before_image(TxnToken(1)).is_none());
    }

    // ------------------------------------------------------------------
    // The atomic-linked chain must answer every visibility question
    // exactly like the Vec reference above.
    // ------------------------------------------------------------------

    fn balance_of(node: Option<&VersionNode>) -> Option<i64> {
        node.and_then(|v| v.row())
            .and_then(|r| r.get_int("balance"))
    }

    #[test]
    fn atomic_chain_matches_vec_visibility() {
        let ebr = Ebr::new();
        let guard = ebr.pin();
        let head = ChainHead::new();
        assert!(head.is_empty());
        assert!(head.latest_any(&guard).is_none());

        head.install(TxnToken(1), Some(row(50)));
        assert!(head.latest_committed(&guard).is_none());
        assert_eq!(balance_of(head.latest_any(&guard)), Some(50));

        head.commit(TxnToken(1), Timestamp(1), 1);
        assert_eq!(balance_of(head.latest_committed(&guard)), Some(50));
        assert!(head.committed_as_of(Timestamp(0), &guard).is_none());

        head.install(TxnToken(2), Some(row(10)));
        // Own uncommitted write first; strangers see the snapshot.
        assert_eq!(
            balance_of(head.visible_for(TxnToken(2), Timestamp(1), &guard)),
            Some(10)
        );
        assert_eq!(
            balance_of(head.visible_for(TxnToken(3), Timestamp(1), &guard)),
            Some(50)
        );
        assert!(head.has_foreign_uncommitted(TxnToken(3), &guard));
        assert!(!head.has_foreign_uncommitted(TxnToken(2), &guard));

        head.commit(TxnToken(2), Timestamp(5), 1);
        assert_eq!(
            balance_of(head.committed_as_of(Timestamp(1), &guard)),
            Some(50)
        );
        assert_eq!(
            balance_of(head.committed_as_of(Timestamp(5), &guard)),
            Some(10)
        );
        assert!(head.committed_after(Timestamp(2), TxnToken(3), &guard));
        assert!(!head.committed_after(Timestamp(5), TxnToken(3), &guard));
        assert!(!head.committed_after(Timestamp(2), TxnToken(2), &guard));
        assert_eq!(head.len(&guard), 2);
    }

    #[test]
    fn atomic_chain_abort_unlinks_and_retires() {
        let ebr = Ebr::new();
        let head = ChainHead::new();
        head.install(TxnToken(1), Some(row(100)));
        head.commit(TxnToken(1), Timestamp(1), 1);
        head.install(TxnToken(2), Some(row(999)));
        head.install(TxnToken(2), None);

        let removed = head.abort(TxnToken(2), 2);
        assert_eq!(removed.len(), 2);
        // The unlinked rows are still readable until retired (the index
        // maintenance path depends on this).
        assert!(removed.iter().any(|v| v.row().is_none()));
        for v in removed {
            v.retire(&ebr);
        }

        let guard = ebr.pin();
        assert_eq!(head.len(&guard), 1);
        assert_eq!(balance_of(head.latest_any(&guard)), Some(100));
        drop(guard);
        for _ in 0..4 {
            ebr.flush();
        }
        let stats = ebr.stats();
        assert_eq!(stats.retired, 2);
        assert_eq!(stats.reclaimed, 2);
        assert_eq!(stats.reclaimed_while_pinned, 0);
    }

    #[test]
    fn atomic_chain_tombstones_and_drop() {
        let ebr = Ebr::new();
        let head = ChainHead::new();
        head.install(TxnToken(1), Some(row(1)));
        head.commit(TxnToken(1), Timestamp(1), 1);
        head.install(TxnToken(2), None);
        head.commit(TxnToken(2), Timestamp(2), 1);
        let guard = ebr.pin();
        assert!(head.latest_committed(&guard).unwrap().is_tombstone());
        assert!(!head
            .committed_as_of(Timestamp(1), &guard)
            .unwrap()
            .is_tombstone());
        let mut keys = Vec::new();
        head.collect_int_keys("balance", &guard, &mut keys);
        assert_eq!(keys, vec![1]);
        // Dropping the head frees both nodes (no leak under e.g. miri-less
        // sanity: simply must not crash or double-free).
        drop(guard);
        drop(head);
    }

    #[test]
    fn commit_and_abort_stop_at_the_installed_count() {
        let ebr = Ebr::new();
        let guard = ebr.pin();
        let head = ChainHead::new();
        head.install(TxnToken(1), Some(row(1)));
        head.install(TxnToken(1), Some(row(2)));
        head.install(TxnToken(2), Some(row(3)));
        head.install(TxnToken(1), Some(row(4)));
        // Told about two of its three versions, the newest two are stamped
        // and the walk never reaches the oldest.
        head.commit(TxnToken(1), Timestamp(7), 2);
        let stamps: Vec<_> = head.snapshot(&guard).map(|v| v.commit_ts()).collect();
        assert_eq!(
            stamps,
            vec![Some(Timestamp(7)), None, Some(Timestamp(7)), None]
        );
        let removed = head.abort(TxnToken(1), 1);
        assert_eq!(removed.len(), 1);
        assert_eq!(head.len(&guard), 3);
        for v in removed {
            v.retire(&ebr);
        }
        // An over-count is harmless: the walk ends with the chain.
        let removed = head.abort(TxnToken(2), 5);
        assert_eq!(removed.len(), 1);
        for v in removed {
            v.retire(&ebr);
        }
    }

    #[test]
    fn prune_cuts_below_the_boundary_and_keeps_stragglers() {
        let ebr = Ebr::new();
        let head = ChainHead::new();
        let stamps = |head: &ChainHead| {
            let guard = ebr.pin();
            let stamps: Vec<_> = head.snapshot(&guard).map(|v| v.commit_ts()).collect();
            stamps
        };
        let commit = |txn: u64, ts: u64| {
            head.install(TxnToken(txn), Some(row(ts as i64)));
            head.commit(TxnToken(txn), Timestamp(ts), 1);
        };
        commit(1, 1);
        commit(2, 2);
        head.install(TxnToken(9), Some(row(99)));
        commit(3, 3);
        commit(5, 5);
        let ts = |t| Some(Timestamp(t));
        assert_eq!(stamps(&head), vec![ts(5), ts(3), None, ts(2), ts(1)]);

        // Mark 0 prunes nothing, and neither does a mark with no boundary.
        assert!(head.prune(Timestamp(0)).is_empty());
        // Mark 4: the boundary is the version committed at 3, but txn 9's
        // uncommitted version below it must stay, and shields nothing
        // beneath itself: the cut lands on it.
        let tail = head.prune(Timestamp(4));
        assert_eq!(
            tail.versions().map(|v| v.commit_ts()).collect::<Vec<_>>(),
            vec![ts(2), ts(1)]
        );
        tail.retire(&ebr);
        assert_eq!(stamps(&head), vec![ts(5), ts(3), None]);
        assert!(head.prune(Timestamp(4)).is_empty());
        {
            let guard = ebr.pin();
            assert_eq!(
                balance_of(head.committed_as_of(Timestamp(4), &guard)),
                Some(3)
            );
            assert_eq!(
                balance_of(head.visible_for(TxnToken(9), Timestamp(4), &guard)),
                Some(99)
            );
        }
        // Its rollback finds it, and restores nothing pruning took.
        for v in head.abort(TxnToken(9), 1) {
            v.retire(&ebr);
        }
        // A mark past every commit keeps the newest committed version,
        // uncommitted versions above it or not.
        head.install(TxnToken(6), None);
        let tail = head.prune(Timestamp(50));
        assert_eq!(tail.versions().count(), 1);
        tail.retire(&ebr);
        assert_eq!(stamps(&head), vec![None, ts(5)]);
        ebr.flush();
        assert_eq!(ebr.stats().reclaimed, 4);
        assert_eq!(ebr.stats().reclaimed_while_pinned, 0);
    }

    // ------------------------------------------------------------------
    // Pruning, as a property: the Vec model states the rule in safe code,
    // the atomic chain must agree with it, and neither may change what a
    // reader at or above the mark sees.
    // ------------------------------------------------------------------

    use proptest::prelude::*;

    /// One chain-building step: `(kind, txn, tombstone)`.
    type Step = (u32, u64, bool);

    /// Apply a step to both representations; `owned` counts each
    /// transaction's uncommitted versions, as a write set would.
    fn apply(
        step: Step,
        model: &mut VersionChain,
        head: &ChainHead,
        owned: &mut [usize; 4],
        clock: &mut u64,
        ebr: &Ebr,
    ) {
        let (kind, txn, tombstone) = step;
        let token = TxnToken(txn);
        let mine = &mut owned[txn as usize];
        match kind {
            0 | 1 => {
                let image = (!tombstone).then(|| row(*clock as i64 * 10 + txn as i64));
                model.install(token, image.clone());
                head.install(token, image);
                *mine += 1;
            }
            2 => {
                *clock += 1;
                model.commit(token, Timestamp(*clock));
                head.commit(token, Timestamp(*clock), *mine);
                *mine = 0;
            }
            _ => {
                model.abort(token);
                for v in head.abort(token, *mine) {
                    v.retire(ebr);
                }
                *mine = 0;
            }
        }
    }

    /// Every answer a reader can get out of a chain at `ts`: the picked
    /// versions, and the First-Committer-Wins / first-writer-wins verdicts.
    fn answers(chain: &VersionChain, ts: Timestamp) -> (Vec<Option<Version>>, Vec<bool>) {
        let mut picked = vec![
            chain.latest_any().cloned(),
            chain.latest_committed().cloned(),
            chain.committed_as_of(ts).cloned(),
        ];
        let mut verdicts = Vec::new();
        for txn in 0..4 {
            picked.push(chain.visible_for(TxnToken(txn), ts).cloned());
            verdicts.push(chain.committed_after(ts, TxnToken(txn)));
            verdicts.push(chain.has_foreign_uncommitted(TxnToken(txn)));
        }
        (picked, verdicts)
    }

    fn as_versions(head: &ChainHead, guard: &Guard<'_>) -> Vec<Version> {
        let mut versions: Vec<Version> = head
            .snapshot(guard)
            .map(|node| Version {
                writer: node.writer,
                row: node.row().cloned(),
                commit_ts: node.commit_ts(),
            })
            .collect();
        versions.reverse();
        versions
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pruning_never_changes_what_a_reader_at_or_above_the_mark_sees(
            steps in proptest::collection::vec((0u32..4, 0u64..4, proptest::bool::ANY), 1..40),
            more in proptest::collection::vec((0u32..4, 0u64..4, proptest::bool::ANY), 0..10),
            mark in 0u64..16,
        ) {
            let ebr = Ebr::new();
            let head = ChainHead::new();
            let mut model = VersionChain::new();
            let mut owned = [0usize; 4];
            let mut clock = 0u64;
            for step in steps {
                apply(step, &mut model, &head, &mut owned, &mut clock, &ebr);
            }
            let low_water = Timestamp(mark.min(clock));
            let before = model.clone();

            let dropped = model.prune(low_water);
            let tail = head.prune(low_water);
            let mut detached: Vec<Version> = tail
                .versions()
                .map(|node| Version {
                    writer: node.writer,
                    row: node.row().cloned(),
                    commit_ts: node.commit_ts(),
                })
                .collect();
            detached.reverse();
            tail.retire(&ebr);
            prop_assert_eq!(&detached, &dropped);
            {
                let guard = ebr.pin();
                prop_assert_eq!(as_versions(&head, &guard), model.versions().to_vec());
            }

            // Only settled history goes (never an uncommitted version, never
            // one committed after the mark), the survivors are a suffix of
            // the old chain, and a chain with a committed version keeps one.
            // With the per-timestamp answers below unchanged from the mark
            // up, that suffix starts at or below the boundary.
            prop_assert!(dropped
                .iter()
                .all(|v| matches!(v.commit_ts, Some(c) if c <= low_water)));
            prop_assert_eq!(
                [dropped.as_slice(), model.versions()].concat(),
                before.versions().to_vec()
            );
            prop_assert_eq!(
                before.latest_committed().is_some(),
                model.latest_committed().is_some()
            );
            if mark == 0 {
                prop_assert!(dropped.is_empty());
            }
            for ts in low_water.0..=clock + 1 {
                prop_assert_eq!(answers(&before, Timestamp(ts)), answers(&model, Timestamp(ts)));
            }

            // The chains keep agreeing under further traffic (aborts below
            // the cut, commits of stragglers, another prune).
            for step in more {
                apply(step, &mut model, &head, &mut owned, &mut clock, &ebr);
            }
            let dropped_again = model.prune(Timestamp(clock));
            let tail = head.prune(Timestamp(clock));
            prop_assert_eq!(tail.versions().count(), dropped_again.len());
            tail.retire(&ebr);
            let guard = ebr.pin();
            prop_assert_eq!(as_versions(&head, &guard), model.versions().to_vec());
        }
    }
}
