//! Transactions: the per-isolation-level access paths.

use crate::cursor::{CursorId, CursorState};
use crate::db::DbInner;
use crate::error::TxnError;
use crate::LockWaitPolicy;
use critique_core::locking::{LockDuration, LockRequirement};
use critique_core::IsolationLevel;
use critique_lock::{AcquireError, LockMode, LockOutcome, LockTarget};
use critique_storage::{
    Comparison, Condition, KeyInterval, Row, RowId, RowPredicate, ScanView, Timestamp, TxnToken,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The lifecycle state of a transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum TxnStatus {
    /// Still running.
    Active,
    /// Successfully committed.
    Committed,
    /// Rolled back (voluntarily, as a deadlock/timeout victim, or by
    /// First-Committer-Wins).
    Aborted,
}

struct TxnState {
    status: TxnStatus,
    cursors: BTreeMap<CursorId, CursorState>,
    next_cursor: u64,
}

/// A transaction handle.
///
/// All operations are non-panicking and return [`TxnError`] on conflict;
/// under the default [`LockWaitPolicy::Fail`] policy a lock conflict leaves
/// the transaction active so the caller (the deterministic interleaving
/// driver) can retry the operation after the blocker finishes.
pub struct Transaction {
    db: Arc<DbInner>,
    token: TxnToken,
    start_ts: Timestamp,
    state: Mutex<TxnState>,
}

impl Transaction {
    pub(crate) fn new(db: Arc<DbInner>, token: TxnToken) -> Self {
        // The multiversion levels read as of a timestamp, so theirs is
        // entered in the registry that holds version pruning back; the
        // locking levels read the chain head and only record the clock.
        let start_ts = if db.config.level.is_multiversion() {
            db.snapshots.begin(&db.ts)
        } else {
            db.ts.current()
        };
        Transaction {
            db,
            token,
            start_ts,
            state: Mutex::new(TxnState {
                status: TxnStatus::Active,
                cursors: BTreeMap::new(),
                next_cursor: 0,
            }),
        }
    }

    /// The storage-level token identifying this transaction.
    pub fn token(&self) -> TxnToken {
        self.token
    }

    /// The start timestamp (the snapshot point under Snapshot Isolation).
    pub fn start_timestamp(&self) -> Timestamp {
        self.start_ts
    }

    /// The isolation level this transaction runs at.
    pub fn level(&self) -> IsolationLevel {
        self.db.config.level
    }

    /// Current lifecycle status.
    pub fn status(&self) -> TxnStatus {
        self.state.lock().status
    }

    /// True while the transaction may still issue operations.
    pub fn is_active(&self) -> bool {
        self.status() == TxnStatus::Active
    }

    fn ensure_active(&self) -> Result<(), TxnError> {
        if self.is_active() {
            Ok(())
        } else {
            Err(TxnError::AlreadyTerminated)
        }
    }

    // ------------------------------------------------------------------
    // Lock acquisition respecting the configured wait policy.
    // ------------------------------------------------------------------

    fn acquire(
        &self,
        target: LockTarget,
        mode: LockMode,
        images: &[Row],
        duration: LockDuration,
    ) -> Result<(), TxnError> {
        match self.db.config.lock_wait {
            LockWaitPolicy::Fail => {
                match self
                    .db
                    .locks
                    .try_acquire(self.token, target, mode, images, duration)
                {
                    LockOutcome::Granted => Ok(()),
                    LockOutcome::WouldBlock { holders } => {
                        Err(TxnError::WouldBlock { blockers: holders })
                    }
                }
            }
            LockWaitPolicy::Block { timeout_ms } => {
                match self.db.locks.acquire(
                    self.token,
                    target,
                    mode,
                    images,
                    duration,
                    Duration::from_millis(timeout_ms),
                ) {
                    Ok(()) => Ok(()),
                    Err(AcquireError::Deadlock { .. }) => {
                        self.rollback_internal();
                        Err(TxnError::Deadlock)
                    }
                    Err(AcquireError::Timeout) => {
                        self.rollback_internal();
                        Err(TxnError::LockTimeout)
                    }
                }
            }
        }
    }

    fn read_item_requirement(&self) -> LockRequirement {
        self.db
            .profile
            .map(|p| p.read_item)
            .unwrap_or(LockRequirement::NotRequired)
    }

    fn read_predicate_requirement(&self) -> LockRequirement {
        self.db
            .profile
            .map(|p| p.read_predicate)
            .unwrap_or(LockRequirement::NotRequired)
    }

    fn write_requirement(&self) -> LockRequirement {
        match self.db.config.level {
            // Oracle Read Consistency covers writes with long write locks
            // (first-writer-wins, Section 4.3).
            IsolationLevel::OracleReadConsistency => {
                LockRequirement::WellFormed(LockDuration::Long)
            }
            // Snapshot Isolation takes no locks; conflicts are resolved at
            // commit by First-Committer-Wins.
            IsolationLevel::SnapshotIsolation => LockRequirement::NotRequired,
            _ => self
                .db
                .profile
                .map(|p| p.write)
                .unwrap_or(LockRequirement::NotRequired),
        }
    }

    /// Acquire a read lock on an item if the level requires one.  `cursor`
    /// selects the cursor-duration variant used by FETCH.
    fn lock_for_read(
        &self,
        table: &str,
        row: RowId,
        cursor: bool,
    ) -> Result<LockDuration, TxnError> {
        match self.read_item_requirement() {
            LockRequirement::NotRequired => Ok(LockDuration::Short),
            LockRequirement::WellFormed(duration) => {
                let effective = match (duration, cursor) {
                    // Plain reads at Cursor Stability behave like READ
                    // COMMITTED (short locks); only FETCH holds the lock
                    // while the cursor is positioned on the row.
                    (LockDuration::Cursor, false) => LockDuration::Short,
                    (d, _) => d,
                };
                self.acquire(
                    LockTarget::item(table, row),
                    LockMode::Shared,
                    &[],
                    effective,
                )?;
                Ok(effective)
            }
        }
    }

    fn release_after_short_read(&self, duration: LockDuration) {
        if duration == LockDuration::Short && self.read_item_requirement().is_required() {
            self.db.locks.release_short(self.token);
        }
    }

    // ------------------------------------------------------------------
    // Reads.
    //
    // Routing: the multiversion levels (Snapshot Isolation, Oracle Read
    // Consistency) go straight to the storage backend's timestamped
    // visibility surface and take no item locks at all — on the default
    // MvStore backend that surface is the epoch-pinned lock-free read
    // path, so these reads touch neither the lock manager nor any store
    // stripe lock.  The locking levels acquire their Table 2 item locks
    // first and then read through the same storage surface.
    // ------------------------------------------------------------------

    /// Read a single row.  Returns `Ok(None)` if the row does not exist (or
    /// is deleted) in this transaction's view.
    pub fn read(&self, table: &str, row: RowId) -> Result<Option<Row>, TxnError> {
        self.ensure_active()?;
        let value = match self.db.config.level {
            IsolationLevel::SnapshotIsolation => {
                self.db
                    .store
                    .get_visible(table, row, self.token, self.start_ts)
            }
            IsolationLevel::OracleReadConsistency => {
                let stmt_ts = self.db.ts.current();
                self.db.store.get_visible(table, row, self.token, stmt_ts)
            }
            _ => {
                let duration = self.lock_for_read(table, row, false)?;
                let value = self.db.store.get_latest_any(table, row);
                self.db
                    .recorder
                    .read(self.token, table, row, value.as_ref());
                self.release_after_short_read(duration);
                return Ok(value);
            }
        };
        self.db
            .recorder
            .read(self.token, table, row, value.as_ref());
        Ok(value)
    }

    /// Read a single row with declared intent to write it (`SELECT … FOR
    /// UPDATE`).  At the locking levels the read takes an update-mode (U)
    /// lock held for the *write* duration, so at most one would-be
    /// upgrader holds the item at a time and the later U→X conversion
    /// waits only for plain Shared holders to drain — the S→X
    /// upgrade-deadlock cascade cannot form.  (The Table 2 shape, a
    /// Shared read lock upgraded to Exclusive at the write, is
    /// [`Transaction::read`] followed by [`Transaction::update`].)
    ///
    /// The multiversion levels (Snapshot Isolation, Oracle Read
    /// Consistency) take no read locks; their write conflicts are
    /// resolved by First-Committer-Wins / first-writer-wins as usual.
    pub fn read_for_update(&self, table: &str, row: RowId) -> Result<Option<Row>, TxnError> {
        self.ensure_active()?;
        let locking = !matches!(
            self.db.config.level,
            IsolationLevel::SnapshotIsolation | IsolationLevel::OracleReadConsistency
        );
        if !locking {
            return self.read(table, row);
        }
        // A declaration of write intent: the U lock lives as long as the
        // write lock it announces would (long at every level above
        // Degree 0), not as long as the level's plain read locks.
        let duration = match self.write_requirement() {
            LockRequirement::WellFormed(duration) => {
                self.acquire(
                    LockTarget::item(table, row),
                    LockMode::Update,
                    &[],
                    duration,
                )?;
                Some(duration)
            }
            LockRequirement::NotRequired => None,
        };
        let value = self.db.store.get_latest_any(table, row);
        self.db
            .recorder
            .read(self.token, table, row, value.as_ref());
        if duration == Some(LockDuration::Short) {
            self.db.locks.release_short(self.token);
        }
        Ok(value)
    }

    /// Read the set of rows satisfying a predicate (a `<search condition>`).
    pub fn read_where(&self, predicate: &RowPredicate) -> Result<Vec<(RowId, Row)>, TxnError> {
        self.ensure_active()?;
        let rows = match self.db.config.level {
            IsolationLevel::SnapshotIsolation => {
                self.db
                    .store
                    .scan_visible(predicate, self.token, self.start_ts)
            }
            IsolationLevel::OracleReadConsistency => {
                let stmt_ts = self.db.ts.current();
                self.db.store.scan_visible(predicate, self.token, stmt_ts)
            }
            _ => {
                let requirement = self.read_predicate_requirement();
                if let LockRequirement::WellFormed(duration) = requirement {
                    self.acquire(
                        LockTarget::predicate(predicate.clone()),
                        LockMode::Shared,
                        &[],
                        duration,
                    )?;
                }
                let rows = self.db.store.scan_latest_any(predicate);
                self.db.recorder.predicate_read(self.token, predicate);
                if requirement == LockRequirement::WellFormed(LockDuration::Short) {
                    self.db.locks.release_short(self.token);
                }
                return Ok(rows);
            }
        };
        self.db.recorder.predicate_read(self.token, predicate);
        Ok(rows)
    }

    /// The `<search condition>` equivalent of a key range: `lo <= column
    /// <= hi` with either bound optional.  This is what the range read
    /// paths lock and record, so the predicate domain sees a bounded
    /// interval it can index instead of a whole-table condition.
    fn range_condition(column: &str, range: &KeyInterval) -> Condition {
        match (range.lo(), range.hi()) {
            (None, None) => Condition::True,
            (Some(lo), None) => Condition::compare(column, Comparison::Ge, lo),
            (None, Some(hi)) => Condition::compare(column, Comparison::Le, hi),
            (Some(lo), Some(hi)) => Condition::compare(column, Comparison::Ge, lo)
                .and(Condition::compare(column, Comparison::Le, hi)),
        }
    }

    /// Read the rows whose `column` value lies in `range`, in (key, row id)
    /// order.  Semantically `read_where` with an interval condition, but
    /// the scan goes through [`StorageBackend::scan_range`] (the ordered
    /// index when one covers `column`) and the predicate lock taken at the
    /// locking levels carries the interval, so two transactions scanning
    /// disjoint ranges of the same table do not conflict.
    ///
    /// [`StorageBackend::scan_range`]: critique_storage::StorageBackend::scan_range
    pub fn read_range(
        &self,
        table: &str,
        column: &str,
        range: &KeyInterval,
    ) -> Result<Vec<(RowId, Row)>, TxnError> {
        self.ensure_active()?;
        let predicate = RowPredicate::new(table, Self::range_condition(column, range));
        let rows = match self.db.config.level {
            IsolationLevel::SnapshotIsolation => self.db.store.scan_range(
                table,
                column,
                range,
                ScanView::Visible {
                    reader: self.token,
                    start_ts: self.start_ts,
                },
            ),
            IsolationLevel::OracleReadConsistency => {
                let stmt_ts = self.db.ts.current();
                self.db.store.scan_range(
                    table,
                    column,
                    range,
                    ScanView::Visible {
                        reader: self.token,
                        start_ts: stmt_ts,
                    },
                )
            }
            _ => {
                let requirement = self.read_predicate_requirement();
                if let LockRequirement::WellFormed(duration) = requirement {
                    self.acquire(
                        LockTarget::predicate(predicate.clone()),
                        LockMode::Shared,
                        &[],
                        duration,
                    )?;
                }
                let rows = self
                    .db
                    .store
                    .scan_range(table, column, range, ScanView::LatestAny);
                self.db.recorder.predicate_read(self.token, &predicate);
                if requirement == LockRequirement::WellFormed(LockDuration::Short) {
                    self.db.locks.release_short(self.token);
                }
                return Ok(rows);
            }
        };
        self.db.recorder.predicate_read(self.token, &predicate);
        Ok(rows)
    }

    /// [`Transaction::read_range`] with declared intent to write the rows
    /// in the range (`SELECT … FOR UPDATE` over a key interval).  Mirrors
    /// [`Transaction::read_for_update`]: at the locking levels the
    /// interval predicate is locked in Update mode for the write duration
    /// — so two writers over provably disjoint ranges of one table proceed
    /// concurrently while overlapping ranges still serialize.
    pub fn read_range_for_update(
        &self,
        table: &str,
        column: &str,
        range: &KeyInterval,
    ) -> Result<Vec<(RowId, Row)>, TxnError> {
        self.ensure_active()?;
        let locking = !matches!(
            self.db.config.level,
            IsolationLevel::SnapshotIsolation | IsolationLevel::OracleReadConsistency
        );
        if !locking {
            return self.read_range(table, column, range);
        }
        let predicate = RowPredicate::new(table, Self::range_condition(column, range));
        let duration = match self.write_requirement() {
            LockRequirement::WellFormed(duration) => {
                self.acquire(
                    LockTarget::predicate(predicate.clone()),
                    LockMode::Update,
                    &[],
                    duration,
                )?;
                Some(duration)
            }
            LockRequirement::NotRequired => None,
        };
        let rows = self
            .db
            .store
            .scan_range(table, column, range, ScanView::LatestAny);
        self.db.recorder.predicate_read(self.token, &predicate);
        if duration == Some(LockDuration::Short) {
            self.db.locks.release_short(self.token);
        }
        Ok(rows)
    }

    /// Sum an integer column over the rows this transaction sees as
    /// satisfying the predicate.
    pub fn sum_where(&self, predicate: &RowPredicate, column: &str) -> Result<i64, TxnError> {
        Ok(self
            .read_where(predicate)?
            .iter()
            .filter_map(|(_, row)| row.get_int(column))
            .sum())
    }

    // ------------------------------------------------------------------
    // Writes.
    // ------------------------------------------------------------------

    fn visible_before_image(&self, table: &str, row: RowId) -> Option<Row> {
        match self.db.config.level {
            IsolationLevel::SnapshotIsolation => {
                self.db
                    .store
                    .get_visible(table, row, self.token, self.start_ts)
            }
            IsolationLevel::OracleReadConsistency => {
                let stmt_ts = self.db.ts.current();
                self.db.store.get_visible(table, row, self.token, stmt_ts)
            }
            _ => self.db.store.get_latest_any(table, row),
        }
    }

    /// Insert a new row, returning its id.
    pub fn insert(&self, table: &str, row: Row) -> Result<RowId, TxnError> {
        self.ensure_active()?;
        let write_req = self.write_requirement();
        if let LockRequirement::WellFormed(duration) = write_req {
            // Guard lock on a per-transaction phantom item: it only
            // conflicts with predicate locks whose condition the new row
            // satisfies, which is exactly the phantom-prevention test.
            let guard = LockTarget::item(table, RowId(u64::MAX - self.token.0));
            self.acquire(
                guard.clone(),
                LockMode::Exclusive,
                std::slice::from_ref(&row),
                duration,
            )?;
            let id = self.db.store.insert(table, self.token, row.clone());
            self.acquire(
                LockTarget::item(table, id),
                LockMode::Exclusive,
                std::slice::from_ref(&row),
                duration,
            )?;
            self.db.locks.release_target(self.token, &guard);
            self.db
                .recorder
                .write(self.token, table, id, None, Some(&row), false);
            if duration == LockDuration::Short {
                self.db.locks.release_short(self.token);
            }
            Ok(id)
        } else {
            let id = self.db.store.insert(table, self.token, row.clone());
            self.db
                .recorder
                .write(self.token, table, id, None, Some(&row), false);
            Ok(id)
        }
    }

    /// Update a row: the given columns are merged over the row as this
    /// transaction sees it (UPDATE … SET semantics).
    pub fn update(&self, table: &str, row: RowId, changes: Row) -> Result<(), TxnError> {
        self.write_row(table, row, changes, false)
    }

    fn write_row(
        &self,
        table: &str,
        row: RowId,
        changes: Row,
        through_cursor: bool,
    ) -> Result<(), TxnError> {
        self.ensure_active()?;
        let before = self.visible_before_image(table, row);
        let new_row = match &before {
            Some(b) => b.updated_with(&changes),
            None => changes,
        };
        if let LockRequirement::WellFormed(duration) = self.write_requirement() {
            let mut images = vec![new_row.clone()];
            if let Some(b) = &before {
                images.push(b.clone());
            }
            self.acquire(
                LockTarget::item(table, row),
                LockMode::Exclusive,
                &images,
                duration,
            )?;
            self.db
                .store
                .update(table, self.token, row, new_row.clone())?;
            self.db.recorder.write(
                self.token,
                table,
                row,
                before.as_ref(),
                Some(&new_row),
                through_cursor,
            );
            if duration == LockDuration::Short {
                self.db.locks.release_short(self.token);
            }
        } else {
            self.db
                .store
                .update(table, self.token, row, new_row.clone())?;
            self.db.recorder.write(
                self.token,
                table,
                row,
                before.as_ref(),
                Some(&new_row),
                through_cursor,
            );
        }
        Ok(())
    }

    /// Delete a row.
    pub fn delete(&self, table: &str, row: RowId) -> Result<(), TxnError> {
        self.ensure_active()?;
        let before = self.visible_before_image(table, row);
        if let LockRequirement::WellFormed(duration) = self.write_requirement() {
            let images: Vec<Row> = before.clone().into_iter().collect();
            self.acquire(
                LockTarget::item(table, row),
                LockMode::Exclusive,
                &images,
                duration,
            )?;
            self.db.store.delete(table, self.token, row)?;
            self.db
                .recorder
                .write(self.token, table, row, before.as_ref(), None, false);
            if duration == LockDuration::Short {
                self.db.locks.release_short(self.token);
            }
        } else {
            self.db.store.delete(table, self.token, row)?;
            self.db
                .recorder
                .write(self.token, table, row, before.as_ref(), None, false);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Cursors (Section 4.1).
    // ------------------------------------------------------------------

    /// Open a cursor over the rows satisfying `predicate`.
    pub fn open_cursor(&self, predicate: &RowPredicate) -> Result<CursorId, TxnError> {
        let rows = self.read_where(predicate)?;
        let mut state = self.state.lock();
        let id = CursorId(state.next_cursor);
        state.next_cursor += 1;
        state
            .cursors
            .insert(id, CursorState::new(predicate.table.clone(), rows));
        Ok(id)
    }

    /// FETCH the next row from a cursor.  Returns `Ok(None)` when the
    /// cursor is exhausted.
    pub fn fetch(&self, cursor: CursorId) -> Result<Option<(RowId, Row)>, TxnError> {
        self.ensure_active()?;
        let (table, next, captured, previous) = {
            let mut state = self.state.lock();
            let cur = state
                .cursors
                .get_mut(&cursor)
                .ok_or(TxnError::NoSuchCursor)?;
            if !cur.open {
                return Err(TxnError::NoSuchCursor);
            }
            let previous = cur
                .position
                .and_then(|p| cur.rows.get(p))
                .map(|(id, _)| *id);
            let next = cur.advance();
            let captured = cur
                .position
                .and_then(|p| cur.rows.get(p))
                .map(|(_, row)| row.clone());
            let table = cur.table.clone();
            let previous = previous.filter(|prev| {
                Some(*prev) != next && !Self::other_cursor_holds(&state, cursor, &table, *prev)
            });
            (table, next, captured, previous)
        };
        let Some(row_id) = next else {
            // Past the end: the cursor no longer holds its position lock.
            if let Some(prev) = previous {
                self.db
                    .locks
                    .release_cursor_target(self.token, &LockTarget::item(&table, prev));
            }
            return Ok(None);
        };
        let value = match self.db.config.level {
            // Snapshot Isolation keeps reading from the transaction's
            // snapshot; Read Consistency serves the value as of the Open
            // Cursor (Section 4.3).
            IsolationLevel::SnapshotIsolation => {
                self.db
                    .store
                    .get_visible(&table, row_id, self.token, self.start_ts)
            }
            IsolationLevel::OracleReadConsistency => captured,
            _ => {
                let duration = self.lock_for_read(&table, row_id, true)?;
                if duration == LockDuration::Cursor {
                    // The lock travels with the cursor: drop the previous
                    // row's cursor lock, keep the current one.
                    if let Some(prev) = previous {
                        self.db
                            .locks
                            .release_cursor_target(self.token, &LockTarget::item(&table, prev));
                    }
                }
                let value = self.db.store.get_latest_any(&table, row_id);
                self.db
                    .recorder
                    .cursor_read(self.token, &table, row_id, value.as_ref());
                self.release_after_short_read(duration);
                return Ok(value.map(|row| (row_id, row)));
            }
        };
        self.db
            .recorder
            .cursor_read(self.token, &table, row_id, value.as_ref());
        Ok(value.map(|row| (row_id, row)))
    }

    /// Update the row the cursor is currently positioned on (UPDATE …
    /// WHERE CURRENT OF).
    pub fn update_current(&self, cursor: CursorId, changes: Row) -> Result<(), TxnError> {
        self.ensure_active()?;
        let (table, row_id, captured) = {
            let state = self.state.lock();
            let cur = state.cursors.get(&cursor).ok_or(TxnError::NoSuchCursor)?;
            if !cur.open {
                return Err(TxnError::NoSuchCursor);
            }
            match cur.position.and_then(|p| cur.rows.get(p)) {
                Some((id, row)) => (cur.table.clone(), *id, row.clone()),
                None => return Err(TxnError::CursorNotPositioned),
            }
        };
        if self.db.config.level == IsolationLevel::OracleReadConsistency {
            // First-writer-wins at statement level: if another transaction
            // committed a newer version of the row after the cursor
            // captured it, the positioned update must restart instead of
            // overwriting the newer value.
            let current = self.db.store.get_latest_committed(&table, row_id);
            if current.as_ref() != Some(&captured) {
                return Err(TxnError::StaleCursor { table, row: row_id });
            }
        }
        self.write_row(&table, row_id, changes, true)
    }

    /// Close a cursor, releasing its position lock.
    pub fn close_cursor(&self, cursor: CursorId) -> Result<(), TxnError> {
        let mut state = self.state.lock();
        let cur = state
            .cursors
            .get_mut(&cursor)
            .ok_or(TxnError::NoSuchCursor)?;
        cur.open = false;
        let table = cur.table.clone();
        let position = cur
            .position
            .and_then(|p| cur.rows.get(p))
            .map(|(id, _)| *id);
        let release = position.filter(|id| !Self::other_cursor_holds(&state, cursor, &table, *id));
        drop(state);
        if let Some(id) = release {
            self.db
                .locks
                .release_cursor_target(self.token, &LockTarget::item(&table, id));
        }
        Ok(())
    }

    /// True when another open cursor of this transaction is currently
    /// positioned on the given row (its cursor lock must then be kept).
    fn other_cursor_holds(state: &TxnState, cursor: CursorId, table: &str, row: RowId) -> bool {
        state.cursors.iter().any(|(id, cur)| {
            *id != cursor
                && cur.open
                && cur.table == table
                && cur
                    .position
                    .and_then(|p| cur.rows.get(p))
                    .map(|(r, _)| *r == row)
                    .unwrap_or(false)
        })
    }

    // ------------------------------------------------------------------
    // Termination.
    // ------------------------------------------------------------------

    /// Commit.  Under Snapshot Isolation this runs the First-Committer-Wins
    /// check and aborts the transaction (returning
    /// [`TxnError::FirstCommitterConflict`]) if another transaction that
    /// committed during this one's execution interval wrote the same data.
    pub fn commit(&self) -> Result<(), TxnError> {
        self.ensure_active()?;
        let commit_ts;
        {
            // The commit sequence: validate, reserve a timestamp, stamp
            // every written chain, publish.  One committer at a time —
            // publication in timestamp order is what keeps a multi-row
            // commit atomically visible to snapshot readers even though
            // the chains live in different store shards; and running the
            // First-Committer-Wins check inside the same sequence means
            // two racing SI writers can never both pass it.
            let commit_guard = self.db.commit_seq.lock();
            if self.db.config.level == IsolationLevel::SnapshotIsolation {
                if let Some((table, row)) = self
                    .db
                    .store
                    .first_committer_conflict(self.token, self.start_ts)
                {
                    drop(commit_guard);
                    self.rollback_internal();
                    return Err(TxnError::FirstCommitterConflict { table, row });
                }
            }
            // Watcher change-set, first half: written rows and their
            // before-images, captured while the pre-commit state is still
            // the latest committed state (and before `store.commit`
            // clears the write set).  Collection under the commit
            // sequence is what makes staging order ≡ timestamp order, so
            // subscribers observe commits in exactly the history's commit
            // order.  An aborting transaction never reaches this point —
            // watchers are structurally free of P1.
            let staged = self.db.watch.begin_collect(&*self.db.store, self.token);
            commit_ts = self.db.ts.reserve();
            self.db.store.commit(self.token, commit_ts);
            if let Some(staged) = staged {
                self.db
                    .watch
                    .finish_collect(&*self.db.store, staged, self.token, commit_ts);
            }
            self.db.ts.publish(commit_ts);
            // With the commit visible, this transaction's own snapshot is
            // finished with; move the store's pruning horizon up to the
            // oldest one still alive.
            self.db.snapshots.publish_mark(&self.db.ts, self.snapshot());
        }
        // Outside the commit sequence: under group commit the store only
        // *enqueued* its commit record above, and this call parks until a
        // batch leader has fsynced it.  Parking outside the mutex is what
        // lets concurrent committers pile into one batch — the whole
        // point; the enqueue order under the mutex is what keeps the
        // durable commit-record order identical to the timestamp order.
        self.db.store.flush_commit(self.token);
        // Only now — with the commit record durable — may subscribers
        // hear about it: a group-commit batch that vanishes in a crash
        // was never announced.
        self.db.watch.publish(commit_ts);
        self.db.locks.release_all(self.token);
        self.db.recorder.commit(self.token);
        self.state.lock().status = TxnStatus::Committed;
        Ok(())
    }

    /// Roll back, restoring before images and releasing all locks.
    pub fn abort(&self) -> Result<(), TxnError> {
        self.ensure_active()?;
        self.rollback_internal();
        Ok(())
    }

    fn rollback_internal(&self) {
        let mut state = self.state.lock();
        if state.status != TxnStatus::Active {
            return;
        }
        state.status = TxnStatus::Aborted;
        drop(state);
        self.db.store.abort(self.token);
        self.db.locks.release_all(self.token);
        self.db.recorder.abort(self.token);
        if let Some(start) = self.snapshot() {
            self.db.snapshots.end(start);
        }
    }

    /// The registry entry this transaction made at begin, if its level
    /// reads as of a timestamp.  Left exactly once: by the commit sequence
    /// when it publishes the mark, or by rollback.
    fn snapshot(&self) -> Option<Timestamp> {
        self.db
            .config
            .level
            .is_multiversion()
            .then_some(self.start_ts)
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if self.is_active() {
            self.rollback_internal();
        }
    }
}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("token", &self.token)
            .field("level", &self.db.config.level)
            .field("start_ts", &self.start_ts)
            .field("status", &self.status())
            .finish()
    }
}
