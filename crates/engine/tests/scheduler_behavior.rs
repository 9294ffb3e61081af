//! Behavioural tests: each scheduler permits / prevents exactly the
//! phenomena the paper's Table 4 says it should, on the paper's own
//! scenarios.

use critique_core::{detect, IsolationLevel, Phenomenon};
use critique_engine::prelude::*;
use critique_storage::{Condition, Row, RowId, RowPredicate};

/// Create a database with one `accounts` table holding two rows `x` and
/// `y`, both with balance 50 (the setup of H1/H5), and return their ids.
fn bank(level: IsolationLevel) -> (Database, RowId, RowId) {
    let db = Database::new(level);
    let setup = db.begin();
    let x = setup
        .insert("accounts", Row::new().with("balance", 50))
        .unwrap();
    let y = setup
        .insert("accounts", Row::new().with("balance", 50))
        .unwrap();
    setup.commit().unwrap();
    db.clear_history();
    (db, x, y)
}

fn balance(db: &Database, row: RowId) -> i64 {
    db.read_committed("accounts", row)
        .unwrap()
        .get_int("balance")
        .unwrap()
}

// ---------------------------------------------------------------------
// Dirty writes (P0) and dirty reads (P1).
// ---------------------------------------------------------------------

#[test]
fn degree0_allows_dirty_writes() {
    let (db, x, _) = bank(IsolationLevel::Degree0);
    let t1 = db.begin();
    let t2 = db.begin();
    t1.update("accounts", x, Row::new().with("balance", 1))
        .unwrap();
    // Degree 0 holds only short write locks, so T2 may overwrite T1's
    // uncommitted write.
    t2.update("accounts", x, Row::new().with("balance", 2))
        .unwrap();
    t2.commit().unwrap();
    t1.commit().unwrap();
    assert!(detect::exhibits(&db.recorded_history(), Phenomenon::P0));
}

#[test]
fn read_uncommitted_prevents_dirty_writes_but_allows_dirty_reads() {
    let (db, x, _) = bank(IsolationLevel::ReadUncommitted);
    let t1 = db.begin();
    let t2 = db.begin();
    t1.update("accounts", x, Row::new().with("balance", 10))
        .unwrap();
    // Long write locks: the second writer blocks.
    let blocked = t2.update("accounts", x, Row::new().with("balance", 20));
    assert!(matches!(blocked, Err(TxnError::WouldBlock { .. })));
    // But reads take no locks, so T2 sees the uncommitted 10.
    let dirty = t2.read("accounts", x).unwrap().unwrap();
    assert_eq!(dirty.get_int("balance"), Some(10));
    t1.abort().unwrap();
    t2.commit().unwrap();
    let h = db.recorded_history();
    assert!(!detect::exhibits(&h, Phenomenon::P0));
    assert!(detect::exhibits(&h, Phenomenon::P1));
    assert!(detect::exhibits(&h, Phenomenon::A1));
}

#[test]
fn read_committed_prevents_dirty_reads() {
    let (db, x, _) = bank(IsolationLevel::ReadCommitted);
    let t1 = db.begin();
    let t2 = db.begin();
    t1.update("accounts", x, Row::new().with("balance", 10))
        .unwrap();
    // The read lock request conflicts with T1's long write lock.
    assert!(matches!(
        t2.read("accounts", x),
        Err(TxnError::WouldBlock { .. })
    ));
    t1.commit().unwrap();
    // After T1 commits the read goes through and sees committed data.
    assert_eq!(
        t2.read("accounts", x).unwrap().unwrap().get_int("balance"),
        Some(10)
    );
    t2.commit().unwrap();
    assert!(!detect::exhibits(&db.recorded_history(), Phenomenon::P1));
}

#[test]
fn snapshot_isolation_reads_never_block_and_never_see_dirty_data() {
    let (db, x, _) = bank(IsolationLevel::SnapshotIsolation);
    let t1 = db.begin();
    let t2 = db.begin();
    t1.update("accounts", x, Row::new().with("balance", 10))
        .unwrap();
    // T2 is not blocked and sees the committed snapshot value.
    assert_eq!(
        t2.read("accounts", x).unwrap().unwrap().get_int("balance"),
        Some(50)
    );
    t1.commit().unwrap();
    // Still 50: updates committed after T2's start are invisible, so the
    // read is repeatable and never observes uncommitted data.  (The raw
    // recorded history is multi-version; the single-valued structural
    // detectors are not applied to it — the semantic outcome is what the
    // paper's Table 4 row asserts.)
    assert_eq!(
        t2.read("accounts", x).unwrap().unwrap().get_int("balance"),
        Some(50)
    );
    t2.commit().unwrap();
}

// ---------------------------------------------------------------------
// Fuzzy reads (P2 / A2) and read skew (A5A).
// ---------------------------------------------------------------------

#[test]
fn read_committed_allows_fuzzy_reads_and_read_skew() {
    let (db, x, y) = bank(IsolationLevel::ReadCommitted);
    let t1 = db.begin();
    let t2 = db.begin();
    // T1 reads x = 50 (short lock, released immediately).
    assert_eq!(
        t1.read("accounts", x).unwrap().unwrap().get_int("balance"),
        Some(50)
    );
    // T2 transfers 40 from x to y and commits.
    t2.update("accounts", x, Row::new().with("balance", 10))
        .unwrap();
    t2.update("accounts", y, Row::new().with("balance", 90))
        .unwrap();
    t2.commit().unwrap();
    // T1 now reads y = 90: inconsistent total of 140 (the paper's H2).
    assert_eq!(
        t1.read("accounts", y).unwrap().unwrap().get_int("balance"),
        Some(90)
    );
    t1.commit().unwrap();
    let h = db.recorded_history();
    assert!(detect::exhibits(&h, Phenomenon::P2));
    assert!(detect::exhibits(&h, Phenomenon::A5A));
}

#[test]
fn repeatable_read_prevents_fuzzy_reads() {
    let (db, x, _) = bank(IsolationLevel::RepeatableRead);
    let t1 = db.begin();
    let t2 = db.begin();
    assert_eq!(
        t1.read("accounts", x).unwrap().unwrap().get_int("balance"),
        Some(50)
    );
    // T1 holds a long read lock on x, so T2's update blocks.
    assert!(matches!(
        t2.update("accounts", x, Row::new().with("balance", 10)),
        Err(TxnError::WouldBlock { .. })
    ));
    t1.commit().unwrap();
    t2.update("accounts", x, Row::new().with("balance", 10))
        .unwrap();
    t2.commit().unwrap();
    let h = db.recorded_history();
    assert!(!detect::exhibits(&h, Phenomenon::P2));
}

#[test]
fn snapshot_isolation_prevents_read_skew() {
    let (db, x, y) = bank(IsolationLevel::SnapshotIsolation);
    let t1 = db.begin();
    let t2 = db.begin();
    let seen_x = t1
        .read("accounts", x)
        .unwrap()
        .unwrap()
        .get_int("balance")
        .unwrap();
    t2.update("accounts", x, Row::new().with("balance", 10))
        .unwrap();
    t2.update("accounts", y, Row::new().with("balance", 90))
        .unwrap();
    t2.commit().unwrap();
    // T1 still sees the old, consistent pair: the total it observes is the
    // invariant 100, not the skewed 140 of the READ COMMITTED run.
    let seen_y = t1
        .read("accounts", y)
        .unwrap()
        .unwrap()
        .get_int("balance")
        .unwrap();
    assert_eq!(seen_x + seen_y, 100);
    t1.commit().unwrap();
}

#[test]
fn oracle_read_consistency_allows_read_skew_across_statements() {
    let (db, x, y) = bank(IsolationLevel::OracleReadConsistency);
    let t1 = db.begin();
    let t2 = db.begin();
    assert_eq!(
        t1.read("accounts", x).unwrap().unwrap().get_int("balance"),
        Some(50)
    );
    t2.update("accounts", x, Row::new().with("balance", 10))
        .unwrap();
    t2.update("accounts", y, Row::new().with("balance", 90))
        .unwrap();
    t2.commit().unwrap();
    // Each statement gets a fresh snapshot, so the second read sees 90.
    assert_eq!(
        t1.read("accounts", y).unwrap().unwrap().get_int("balance"),
        Some(90)
    );
    t1.commit().unwrap();
    assert!(detect::exhibits(&db.recorded_history(), Phenomenon::A5A));
}

// ---------------------------------------------------------------------
// Lost updates (P4 / P4C).
// ---------------------------------------------------------------------

#[test]
fn read_committed_loses_updates_like_h4() {
    let (db, x, _) = bank(IsolationLevel::ReadCommitted);
    let t1 = db.begin();
    let t2 = db.begin();
    let v1 = t1
        .read("accounts", x)
        .unwrap()
        .unwrap()
        .get_int("balance")
        .unwrap();
    let v2 = t2
        .read("accounts", x)
        .unwrap()
        .unwrap()
        .get_int("balance")
        .unwrap();
    t2.update("accounts", x, Row::new().with("balance", v2 + 20))
        .unwrap();
    t2.commit().unwrap();
    t1.update("accounts", x, Row::new().with("balance", v1 + 30))
        .unwrap();
    t1.commit().unwrap();
    // T2's +20 is lost: the final balance reflects only T1's +30.
    assert_eq!(balance(&db, x), 80);
    assert!(detect::exhibits(&db.recorded_history(), Phenomenon::P4));
}

#[test]
fn snapshot_isolation_first_committer_wins_prevents_lost_updates() {
    let (db, x, _) = bank(IsolationLevel::SnapshotIsolation);
    let t1 = db.begin();
    let t2 = db.begin();
    let v1 = t1
        .read("accounts", x)
        .unwrap()
        .unwrap()
        .get_int("balance")
        .unwrap();
    let v2 = t2
        .read("accounts", x)
        .unwrap()
        .unwrap()
        .get_int("balance")
        .unwrap();
    t2.update("accounts", x, Row::new().with("balance", v2 + 20))
        .unwrap();
    t2.commit().unwrap();
    t1.update("accounts", x, Row::new().with("balance", v1 + 30))
        .unwrap();
    let err = t1.commit().unwrap_err();
    assert!(matches!(err, TxnError::FirstCommitterConflict { .. }));
    assert_eq!(t1.status(), TxnStatus::Aborted);
    // T2's update survives.
    assert_eq!(balance(&db, x), 70);
    assert!(!detect::exhibits(&db.recorded_history(), Phenomenon::P4));
}

#[test]
fn repeatable_read_blocks_the_competing_writer() {
    let (db, x, _) = bank(IsolationLevel::RepeatableRead);
    let t1 = db.begin();
    let t2 = db.begin();
    t1.read("accounts", x).unwrap();
    t2.read("accounts", x).unwrap();
    // Both hold long read locks; T2's upgrade to a write lock blocks on T1.
    assert!(matches!(
        t2.update("accounts", x, Row::new().with("balance", 70)),
        Err(TxnError::WouldBlock { .. })
    ));
}

#[test]
fn cursor_stability_prevents_cursor_lost_updates() {
    let (db, x, _) = bank(IsolationLevel::CursorStability);
    let all = RowPredicate::whole_table("accounts");
    let t1 = db.begin();
    let c = t1.open_cursor(&all).unwrap();
    let (first_id, first) = t1.fetch(c).unwrap().unwrap();
    assert_eq!(first_id, x);
    // While the cursor is positioned on x, another transaction's update of
    // x blocks (this is exactly what prevents P4C).
    let t2 = db.begin();
    assert!(matches!(
        t2.update("accounts", x, Row::new().with("balance", 120)),
        Err(TxnError::WouldBlock { .. })
    ));
    // T1 updates through the cursor and commits; no update is lost.
    t1.update_current(
        c,
        Row::new().with("balance", first.get_int("balance").unwrap() + 30),
    )
    .unwrap();
    t1.commit().unwrap();
    t2.update("accounts", x, Row::new().with("balance", 120))
        .unwrap();
    t2.commit().unwrap();
    let h = db.recorded_history();
    assert!(!detect::exhibits(&h, Phenomenon::P4C));
}

#[test]
fn cursor_stability_lock_moves_with_the_cursor() {
    let (db, x, y) = bank(IsolationLevel::CursorStability);
    let all = RowPredicate::whole_table("accounts");
    let t1 = db.begin();
    let c = t1.open_cursor(&all).unwrap();
    t1.fetch(c).unwrap().unwrap(); // positioned on x
    t1.fetch(c).unwrap().unwrap(); // moves to y, releasing the lock on x
    let t2 = db.begin();
    t2.update("accounts", x, Row::new().with("balance", 5))
        .unwrap();
    assert!(matches!(
        t2.update("accounts", y, Row::new().with("balance", 5)),
        Err(TxnError::WouldBlock { .. })
    ));
    t1.close_cursor(c).unwrap();
    t2.update("accounts", y, Row::new().with("balance", 5))
        .unwrap();
    t2.commit().unwrap();
    t1.commit().unwrap();
}

#[test]
fn read_committed_cursorless_engines_lose_cursor_updates() {
    // The same scenario at READ COMMITTED: the cursor read takes only a
    // short lock, so T2's update proceeds and its increment is lost.
    let (db, x, _) = bank(IsolationLevel::ReadCommitted);
    let all = RowPredicate::whole_table("accounts");
    let t1 = db.begin();
    let c = t1.open_cursor(&all).unwrap();
    let (_, first) = t1.fetch(c).unwrap().unwrap();
    let t2 = db.begin();
    t2.update("accounts", x, Row::new().with("balance", 120))
        .unwrap();
    t2.commit().unwrap();
    t1.update_current(
        c,
        Row::new().with("balance", first.get_int("balance").unwrap() + 30),
    )
    .unwrap();
    t1.commit().unwrap();
    assert_eq!(balance(&db, x), 80);
    assert!(detect::exhibits(&db.recorded_history(), Phenomenon::P4C));
}

#[test]
fn oracle_read_consistency_rejects_stale_positioned_updates() {
    let (db, x, _) = bank(IsolationLevel::OracleReadConsistency);
    let all = RowPredicate::whole_table("accounts");
    let t1 = db.begin();
    let c = t1.open_cursor(&all).unwrap();
    t1.fetch(c).unwrap().unwrap();
    let t2 = db.begin();
    t2.update("accounts", x, Row::new().with("balance", 120))
        .unwrap();
    t2.commit().unwrap();
    // The positioned update sees that the row moved on and restarts
    // instead of blindly overwriting (first-writer-wins).
    let err = t1
        .update_current(c, Row::new().with("balance", 130))
        .unwrap_err();
    assert!(matches!(err, TxnError::StaleCursor { .. }));
    t1.commit().unwrap();
    assert_eq!(balance(&db, x), 120);
    assert!(!detect::exhibits(&db.recorded_history(), Phenomenon::P4C));
}

// ---------------------------------------------------------------------
// Phantoms (P3 / A3).
// ---------------------------------------------------------------------

fn employee_db(level: IsolationLevel) -> Database {
    let db = Database::new(level);
    let setup = db.begin();
    setup
        .insert(
            "employees",
            Row::new().with("active", true).with("value", 1),
        )
        .unwrap();
    setup
        .insert(
            "employees",
            Row::new().with("active", false).with("value", 1),
        )
        .unwrap();
    setup.commit().unwrap();
    db.clear_history();
    db
}

fn active_employees() -> RowPredicate {
    RowPredicate::new("employees", Condition::eq("active", true))
}

#[test]
fn repeatable_read_allows_phantoms() {
    let db = employee_db(IsolationLevel::RepeatableRead);
    let t1 = db.begin();
    let first = t1.read_where(&active_employees()).unwrap();
    assert_eq!(first.len(), 1);
    // The predicate read lock is short at REPEATABLE READ, so a concurrent
    // insert of a matching row is allowed.
    let t2 = db.begin();
    t2.insert(
        "employees",
        Row::new().with("active", true).with("value", 1),
    )
    .unwrap();
    t2.commit().unwrap();
    let second = t1.read_where(&active_employees()).unwrap();
    assert_eq!(second.len(), 2, "the phantom appears on re-read");
    t1.commit().unwrap();
    let h = db.recorded_history();
    assert!(detect::exhibits(&h, Phenomenon::P3));
    assert!(detect::exhibits(&h, Phenomenon::A3));
}

#[test]
fn serializable_prevents_phantoms_with_long_predicate_locks() {
    let db = employee_db(IsolationLevel::Serializable);
    let t1 = db.begin();
    assert_eq!(t1.read_where(&active_employees()).unwrap().len(), 1);
    let t2 = db.begin();
    // Inserting an active employee conflicts with T1's predicate lock.
    let blocked = t2.insert(
        "employees",
        Row::new().with("active", true).with("value", 1),
    );
    assert!(matches!(blocked, Err(TxnError::WouldBlock { .. })));
    // Inserting a non-matching row is fine.
    t2.insert(
        "employees",
        Row::new().with("active", false).with("value", 1),
    )
    .unwrap();
    t2.commit().unwrap();
    assert_eq!(t1.read_where(&active_employees()).unwrap().len(), 1);
    t1.commit().unwrap();
    assert!(!detect::exhibits(&db.recorded_history(), Phenomenon::P3));
}

#[test]
fn snapshot_isolation_has_no_ansi_phantoms() {
    let db = employee_db(IsolationLevel::SnapshotIsolation);
    let t1 = db.begin();
    assert_eq!(t1.read_where(&active_employees()).unwrap().len(), 1);
    let t2 = db.begin();
    t2.insert(
        "employees",
        Row::new().with("active", true).with("value", 1),
    )
    .unwrap();
    t2.commit().unwrap();
    // T1 re-reads the predicate and still sees the old set: no ANSI-style
    // phantom (A3), the "most remarkable" property of Remark 10.
    assert_eq!(t1.read_where(&active_employees()).unwrap().len(), 1);
    t1.commit().unwrap();
    // The broad phenomenon P3 still occurred in the interleaving (the
    // matching write happened while the reader was active) — the paper's
    // "Sometimes Possible" cell for Snapshot Isolation.
    assert!(detect::exhibits(&db.recorded_history(), Phenomenon::P3));
}

// ---------------------------------------------------------------------
// Write skew (A5B) and the H5 constraint violation.
// ---------------------------------------------------------------------

#[test]
fn snapshot_isolation_allows_write_skew() {
    let (db, x, y) = bank(IsolationLevel::SnapshotIsolation);
    let t1 = db.begin();
    let t2 = db.begin();
    let sum1 = t1
        .read("accounts", x)
        .unwrap()
        .unwrap()
        .get_int("balance")
        .unwrap()
        + t1.read("accounts", y)
            .unwrap()
            .unwrap()
            .get_int("balance")
            .unwrap();
    let sum2 = t2
        .read("accounts", x)
        .unwrap()
        .unwrap()
        .get_int("balance")
        .unwrap()
        + t2.read("accounts", y)
            .unwrap()
            .unwrap()
            .get_int("balance")
            .unwrap();
    // Each transaction withdraws 90, believing the constraint x + y > 0
    // still holds afterwards.
    t1.update("accounts", y, Row::new().with("balance", sum1 / 2 - 90))
        .unwrap();
    t2.update("accounts", x, Row::new().with("balance", sum2 / 2 - 90))
        .unwrap();
    t1.commit().unwrap();
    // Disjoint write sets: first-committer-wins does not fire.
    t2.commit().unwrap();
    assert!(balance(&db, x) + balance(&db, y) < 0, "constraint violated");
    assert!(detect::exhibits(&db.recorded_history(), Phenomenon::A5B));
}

#[test]
fn serializable_prevents_write_skew() {
    let (db, x, y) = bank(IsolationLevel::Serializable);
    let t1 = db.begin();
    let t2 = db.begin();
    t1.read("accounts", x).unwrap();
    t1.read("accounts", y).unwrap();
    t2.read("accounts", x).unwrap();
    t2.read("accounts", y).unwrap();
    // Long read locks make the crossing writes block.
    assert!(matches!(
        t1.update("accounts", y, Row::new().with("balance", -40)),
        Err(TxnError::WouldBlock { .. })
    ));
    assert!(matches!(
        t2.update("accounts", x, Row::new().with("balance", -40)),
        Err(TxnError::WouldBlock { .. })
    ));
    // The harness resolves this by aborting one of them; here we abort T2.
    t2.abort().unwrap();
    t1.update("accounts", y, Row::new().with("balance", -40))
        .unwrap();
    t1.commit().unwrap();
    assert!(balance(&db, x) + balance(&db, y) > 0);
    assert!(!detect::exhibits(&db.recorded_history(), Phenomenon::A5B));
}

// ---------------------------------------------------------------------
// Recovery / rollback, time travel, and the inconsistent-analysis total.
// ---------------------------------------------------------------------

#[test]
fn rollback_restores_before_images() {
    let (db, x, _) = bank(IsolationLevel::Serializable);
    let t1 = db.begin();
    t1.update("accounts", x, Row::new().with("balance", 999))
        .unwrap();
    t1.abort().unwrap();
    assert_eq!(balance(&db, x), 50);
    // A dropped active transaction is rolled back automatically.
    {
        let t2 = db.begin();
        t2.update("accounts", x, Row::new().with("balance", 777))
            .unwrap();
    }
    assert_eq!(balance(&db, x), 50);
}

#[test]
fn serializable_preserves_the_transfer_invariant() {
    // The H1 scenario executed at SERIALIZABLE: the reader either sees the
    // state before or after the transfer, never a total of 60.
    let (db, x, y) = bank(IsolationLevel::Serializable);
    let t1 = db.begin();
    t1.update("accounts", x, Row::new().with("balance", 10))
        .unwrap();
    let t2 = db.begin();
    assert!(matches!(
        t2.read("accounts", x),
        Err(TxnError::WouldBlock { .. })
    ));
    t1.update("accounts", y, Row::new().with("balance", 90))
        .unwrap();
    t1.commit().unwrap();
    let total = t2
        .read("accounts", x)
        .unwrap()
        .unwrap()
        .get_int("balance")
        .unwrap()
        + t2.read("accounts", y)
            .unwrap()
            .unwrap()
            .get_int("balance")
            .unwrap();
    assert_eq!(total, 100);
    t2.commit().unwrap();
}

#[test]
fn snapshot_isolation_supports_time_travel_reads() {
    let (db, x, y) = bank(IsolationLevel::SnapshotIsolation);
    // An old reader started before a flurry of updates still sees the
    // original state and is never blocked.
    let old_reader = db.begin();
    for i in 0..5 {
        let w = db.begin();
        w.update("accounts", x, Row::new().with("balance", 100 + i))
            .unwrap();
        w.commit().unwrap();
    }
    assert_eq!(
        old_reader
            .read("accounts", x)
            .unwrap()
            .unwrap()
            .get_int("balance"),
        Some(50)
    );
    assert_eq!(
        old_reader
            .read("accounts", y)
            .unwrap()
            .unwrap()
            .get_int("balance"),
        Some(50)
    );
    old_reader.commit().unwrap();
    assert_eq!(balance(&db, x), 104);
}

#[test]
fn operations_after_termination_are_rejected() {
    let (db, x, _) = bank(IsolationLevel::ReadCommitted);
    let t = db.begin();
    t.commit().unwrap();
    assert!(matches!(
        t.read("accounts", x),
        Err(TxnError::AlreadyTerminated)
    ));
    assert!(matches!(t.commit(), Err(TxnError::AlreadyTerminated)));
    assert!(matches!(t.abort(), Err(TxnError::AlreadyTerminated)));
}

#[test]
fn locking_serializable_histories_are_conflict_serializable() {
    let (db, x, y) = bank(IsolationLevel::Serializable);
    // A little workload of sequential transfers.
    for i in 0..5 {
        let t = db.begin();
        let bx = t
            .read("accounts", x)
            .unwrap()
            .unwrap()
            .get_int("balance")
            .unwrap();
        let by = t
            .read("accounts", y)
            .unwrap()
            .unwrap()
            .get_int("balance")
            .unwrap();
        t.update("accounts", x, Row::new().with("balance", bx - i))
            .unwrap();
        t.update("accounts", y, Row::new().with("balance", by + i))
            .unwrap();
        t.commit().unwrap();
    }
    let report = critique_history::conflict_serializable(&db.recorded_history());
    assert!(report.is_serializable());
}

// ---------------------------------------------------------------------
// The two read-modify-write shapes: `read` + `update` (the Table 2 S→X
// upgrade) and `read_for_update` + `update` (a U lock at the read).
// ---------------------------------------------------------------------

fn one_account(config: EngineConfig) -> (Database, RowId) {
    let db = Database::with_config(config);
    let setup = db.begin();
    let x = setup
        .insert("accounts", Row::new().with("balance", 50))
        .unwrap();
    setup.commit().unwrap();
    db.clear_history();
    (db, x)
}

#[test]
fn update_lock_serialises_would_be_upgraders_at_the_read() {
    let (db, x) = one_account(EngineConfig::new(IsolationLevel::Serializable));
    let t1 = db.begin();
    let t2 = db.begin();
    assert!(t1.read_for_update("accounts", x).unwrap().is_some());
    // A second read-for-update conflicts at the *read*: U vs U — the
    // collision that used to happen only later, as an upgrade deadlock.
    assert!(matches!(
        t2.read_for_update("accounts", x),
        Err(TxnError::WouldBlock { .. })
    ));
    // The asymmetric half: a held U admits no new Shared readers either,
    // so the pending upgrade cannot be starved by arriving readers.
    let t3 = db.begin();
    assert!(matches!(
        t3.read("accounts", x),
        Err(TxnError::WouldBlock { .. })
    ));
    // The U→X conversion itself has nothing to wait for.
    t1.update("accounts", x, Row::new().with("balance", 60))
        .unwrap();
    t1.commit().unwrap();
    assert!(t2.read_for_update("accounts", x).unwrap().is_some());
    assert_eq!(
        t2.read_for_update("accounts", x)
            .unwrap()
            .unwrap()
            .get_int("balance"),
        Some(60)
    );
}

#[test]
fn update_lock_is_granted_while_shared_readers_hold_the_item() {
    let (db, x) = one_account(EngineConfig::new(IsolationLevel::Serializable));
    let reader = db.begin();
    assert!(reader.read("accounts", x).unwrap().is_some());
    // U is compatible with held S: the updater announces itself while the
    // reader is still active…
    let updater = db.begin();
    assert!(updater.read_for_update("accounts", x).unwrap().is_some());
    // …but its X conversion waits for the reader to drain.
    assert!(matches!(
        updater.update("accounts", x, Row::new().with("balance", 70)),
        Err(TxnError::WouldBlock { .. })
    ));
    reader.commit().unwrap();
    updater
        .update("accounts", x, Row::new().with("balance", 70))
        .unwrap();
    updater.commit().unwrap();
    assert_eq!(balance(&db, x), 70);
}

#[test]
fn plain_reads_collide_only_at_the_upgrade() {
    let (db, x) = one_account(EngineConfig::new(IsolationLevel::Serializable));
    let t1 = db.begin();
    let t2 = db.begin();
    // Plain reads declare nothing: both are granted Shared, and the
    // collision happens later, at the first Exclusive upgrade.
    assert!(t1.read("accounts", x).unwrap().is_some());
    assert!(t2.read("accounts", x).unwrap().is_some());
    assert!(matches!(
        t1.update("accounts", x, Row::new().with("balance", 1)),
        Err(TxnError::WouldBlock { .. })
    ));
}

#[test]
fn multiversion_levels_take_no_lock_for_a_read_for_update() {
    for level in [
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::OracleReadConsistency,
    ] {
        let (db, x) = one_account(EngineConfig::new(level));
        let t1 = db.begin();
        let t2 = db.begin();
        // No read locks at the multiversion levels, FOR UPDATE or not.
        assert!(t1.read_for_update("accounts", x).unwrap().is_some());
        assert!(t2.read_for_update("accounts", x).unwrap().is_some());
        assert_eq!(db.locks_held(), 0, "{level}");
        let _ = t1.abort();
        let _ = t2.abort();
    }
}

/// Run the same read-modify-write on one row from two threads under
/// blocking lock waits, both holding their read lock before either
/// writes, and return how many of the two were deadlock victims.
fn rmw_pair_victims(level: IsolationLevel, declare_intent: bool) -> (Database, RowId, usize) {
    let (db, x) = one_account(EngineConfig::new(level).blocking(10_000));
    let both_have_read = std::sync::Barrier::new(2);
    let victims = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let txn = db.begin();
                    let read = if declare_intent {
                        // The second U request parks until the first
                        // holder commits, so the reads cannot rendezvous.
                        txn.read_for_update("accounts", x)
                    } else {
                        let read = txn.read("accounts", x);
                        both_have_read.wait();
                        read
                    };
                    let balance = read.unwrap().unwrap().get_int("balance").unwrap();
                    match txn.update("accounts", x, Row::new().with("balance", balance + 1)) {
                        Ok(()) => {
                            txn.commit().unwrap();
                            0
                        }
                        Err(TxnError::Deadlock) => 1,
                        Err(other) => panic!("unexpected {other:?}"),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rmw worker"))
            .sum()
    });
    (db, x, victims)
}

#[test]
fn read_then_update_pair_produces_exactly_one_deadlock_victim() {
    // The paper's upgrade deadlock: both hold S(x), both want X(x).  The
    // first upgrade parks behind the other's S; the second closes the
    // cycle and is the victim; the survivor's write commits.
    let (db, x, victims) = rmw_pair_victims(IsolationLevel::Serializable, false);
    assert_eq!(victims, 1);
    assert_eq!(balance(&db, x), 51);
    assert_eq!(db.locks_held(), 0);
}

#[test]
fn read_for_update_pair_serialises_with_zero_victims_at_every_locking_level() {
    for level in [
        IsolationLevel::Degree0,
        IsolationLevel::ReadUncommitted,
        IsolationLevel::ReadCommitted,
        IsolationLevel::CursorStability,
        IsolationLevel::RepeatableRead,
        IsolationLevel::Serializable,
    ] {
        let (db, x, victims) = rmw_pair_victims(level, true);
        assert_eq!(victims, 0, "{level}");
        assert_eq!(db.locks_held(), 0, "{level}");
        // Above Degree 0 the U lock lasts as long as the write lock it
        // announces, so the second RMW reads the first one's result.
        if level != IsolationLevel::Degree0 {
            assert_eq!(balance(&db, x), 52, "{level}");
        }
    }
}
