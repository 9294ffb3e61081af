//! HISTEX-style randomized conformance exerciser.
//!
//! For every storage backend, every isolation level, and every seed in the
//! fixed matrix, the exerciser interleaves a randomized mixed workload —
//! item reads, predicate reads, updates, inserts, deletes, cursor
//! open/fetch/positioned-update/close, voluntary aborts — over a pool of
//! concurrent transactions, records the history the engine actually
//! produced, and then holds that history against the paper's Tables 3
//! and 4:
//!
//! * **freedom**: the history must be free of exactly the phenomena the
//!   level must prevent ("Not Possible" cells);
//! * **distinguishability**: every level below SERIALIZABLE must, across
//!   the seed matrix, demonstrably exhibit at least one anomaly its row
//!   permits — a scheduler that silently ran everything serially would
//!   pass the freedom check while proving nothing;
//! * **backend independence**: isolation levels are properties of
//!   histories, not storage engines — the same (level, seed) cell must
//!   produce a byte-identical history whether versions live in the
//!   sharded chain store or the append-only log
//!   (`conformance_cross_backend_histories_identical`).
//!
//! A second matrix (`conformance_range_*`) re-runs the same driver in
//! *range mode*: interval scans over an ordered `bucket` index on
//! `accounts` plus a predicate-read/write mix on a second `employees`
//! table, with Table 3's phantom verdicts enforced per table by
//! projecting each history onto one table at a time.
//!
//! The interleaving is driven single-threaded through the deterministic
//! `LockWaitPolicy::Fail` driver: each step picks a random live
//! transaction and advances it one operation, retrying blocked operations
//! until their blockers finish (with a random abort as deadlock-breaker).
//! One seed therefore always produces byte-identical histories — CI runs
//! the same matrix in `--release`, per backend, and failures reproduce
//! exactly.
//!
//! The positional phenomenon detectors interpret the recorded total order
//! the way the paper's single-version shorthand does, which is sound for
//! the *locking* levels: every recorded operation really happened inside
//! the lock-mediated critical section it claims.  That includes P4C at
//! Cursor Stability now that cursors are generated: the cursor lock is
//! held from a fetch (`rc`) to the positioned write (`wc`), and the P4C
//! detector requires exactly that pair.  The multiversion levels
//! (Snapshot Isolation, Oracle Read Consistency) intentionally admit
//! positional patterns like `w1[x] … w2[x]` while preventing the actual
//! anomaly at the version level (Section 4.2), so for them the exerciser
//! instead checks value-level guarantees: every written value is globally
//! unique, so a read's value identifies its writer exactly — no reading a
//! writer that had not committed (dirty reads), snapshot read stability,
//! and First-Committer-Wins for overlapping committed writers.

use ansi_isolation_critique::prelude::*;
use critique_history::TxnOutcome;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The fixed seed matrix.  CI runs exactly these seeds; a failure report
/// names the seed, and re-running the test reproduces the history
/// byte-for-byte.
const SEEDS: [u64; 3] = [0xB5, 0x1995, 0xC0FFEE];

/// Levels exercised: every row of the paper's extended matrix.
const LEVELS: [IsolationLevel; 8] = IsolationLevel::ALL;

const SLOTS: usize = 5;
const TXNS_PER_RUN: usize = 48;
const MAX_STEPS: usize = 20_000;
const BLOCKED_RETRY_LIMIT: usize = 40;

/// One operation a transaction may attempt next.  Kept as data so a
/// blocked operation can be retried verbatim on a later step.
#[derive(Clone, Debug)]
enum PlannedOp {
    Read(RowId),
    PredicateRead(i64),
    Update(RowId, i64),
    Insert(i64, i64),
    Delete(RowId),
    OpenCursor(i64),
    Fetch,
    UpdateCurrent(i64),
    CloseCursor,
    Commit,
    Abort,
    // Range-mode traffic (`Exerciser::run_range`): interval scans over the
    // indexed `bucket` column of `accounts`, inserts that land inside a
    // scannable bucket, and a second predicate-read/write mix on the
    // `employees` table so predicates span two tables in one history.
    RangeRead(i64, i64),
    RangeInsert(i64, i64, i64),
    EmpPredicateRead(i64),
    EmpUpdate(RowId, i64),
    EmpInsert(i64, i64),
    EmpDelete(RowId),
}

struct Slot {
    txn: Transaction,
    ops_done: usize,
    ops_budget: usize,
    pending: Option<PlannedOp>,
    blocked_retries: usize,
    /// The transaction's cursor, if one is open.  A transaction opens at
    /// most one cursor in its lifetime and only scans forward — this is
    /// what makes the positional P4C detector sound at Cursor Stability
    /// (between `rc[x]` and `wc[x]` the cursor provably never left `x`).
    cursor: Option<CursorId>,
    cursor_spent: bool,
}

struct Exerciser {
    db: Database,
    rng: StdRng,
    rows: Vec<RowId>,
    /// Known `employees` rows (range mode only; empty otherwise).
    emp_rows: Vec<RowId>,
    next_value: i64,
    /// Route every update through a preceding `read_for_update` (the
    /// read-modify-write shape), so the engine takes U locks.  Off for the
    /// default matrix, on for the U-lock freedom matrix.
    rmw_reads: bool,
    /// Range mode: seed a `bucket` index on `accounts` plus a second
    /// `employees` table, and plan interval scans and multi-table
    /// predicate traffic instead of cursors.  Off for the default matrix
    /// so its histories stay byte-identical to earlier revisions.
    range_mode: bool,
}

impl Exerciser {
    fn run(level: IsolationLevel, seed: u64, backend: BackendKind) -> History {
        Self::run_configured(level, seed, backend, false, false)
    }

    /// The same deterministic driver with update-mode locks: every update
    /// is preceded by a `read_for_update`, and the engine takes U locks
    /// for it.  U locks may *reorder* the interleaving (a blocked read
    /// retries later), but they must never admit a forbidden phenomenon —
    /// that is what "U locks alter no isolation verdict" means.
    fn run_update_lock(level: IsolationLevel, seed: u64, backend: BackendKind) -> History {
        Self::run_configured(level, seed, backend, true, false)
    }

    /// The range/multi-table matrix: interval scans over an ordered index
    /// plus predicate traffic on a second table, so one history carries
    /// phantom material for *two* predicate domains at once.
    fn run_range(level: IsolationLevel, seed: u64, backend: BackendKind) -> History {
        Self::run_configured(level, seed, backend, false, true)
    }

    /// The watcher leg's driver: the standard deterministic matrix cell
    /// with a table watcher on `accounts` subscribed for the whole
    /// interleaving.  Returns the recorded history *and* the notification
    /// stream, so the tests can hold the stream against the history as
    /// one more projection with its own forbidden phenomena ("no
    /// notification for an aborted write" is P1 for subscribers).
    fn run_watched(
        level: IsolationLevel,
        seed: u64,
        backend: BackendKind,
    ) -> (History, Vec<ChangeEvent>) {
        Self::run_instrumented(level, seed, backend, false, false, true)
    }

    fn run_configured(
        level: IsolationLevel,
        seed: u64,
        backend: BackendKind,
        rmw_reads: bool,
        range_mode: bool,
    ) -> History {
        Self::run_instrumented(level, seed, backend, rmw_reads, range_mode, false).0
    }

    fn run_instrumented(
        level: IsolationLevel,
        seed: u64,
        backend: BackendKind,
        rmw_reads: bool,
        range_mode: bool,
        watch: bool,
    ) -> (History, Vec<ChangeEvent>) {
        let db = Database::with_config(EngineConfig::new(level).with_backend(backend));
        let mut ex = Exerciser {
            db,
            rng: StdRng::seed_from_u64(seed),
            rows: Vec::new(),
            emp_rows: Vec::new(),
            next_value: 1_000_000,
            rmw_reads,
            range_mode,
        };
        if range_mode {
            // Range scans route through the ordered index on `bucket`.
            ex.db.store().create_table("accounts");
            ex.db.store().create_index("accounts", "bucket");
        }
        // Seed rows across two predicate regions, every balance unique.
        let setup = ex.db.begin();
        for i in 0..8 {
            let value = ex.fresh_value();
            let mut row = Row::new().with("balance", value).with("region", i % 2);
            if range_mode {
                row = row.with("bucket", i);
            }
            let row = setup.insert("accounts", row).expect("seed insert");
            ex.rows.push(row);
        }
        if range_mode {
            // A second table with its own predicate regions (`dept`), so
            // multi-table predicate histories have material on both sides.
            for i in 0..8 {
                let value = ex.fresh_value();
                let row = setup
                    .insert(
                        "employees",
                        Row::new().with("balance", value).with("dept", i % 2),
                    )
                    .expect("seed insert");
                ex.emp_rows.push(row);
            }
        }
        setup.commit().expect("seed commit");
        ex.db.clear_history();
        // Subscribed after the seed commit, symmetric with clearing the
        // history: the watcher observes exactly the commits the recorded
        // history commits.
        let watcher = watch.then(|| ex.db.watch_table("accounts"));
        ex.interleave();
        let events = watcher.map(|w| w.drain()).unwrap_or_default();
        (ex.db.recorded_history(), events)
    }

    fn fresh_value(&mut self) -> i64 {
        self.next_value += 1;
        self.next_value
    }

    fn interleave(&mut self) {
        let mut slots: Vec<Option<Slot>> = (0..SLOTS).map(|_| None).collect();
        let mut remaining = TXNS_PER_RUN;
        for step in 0..MAX_STEPS {
            for slot in slots.iter_mut() {
                if slot.is_none() && remaining > 0 {
                    remaining -= 1;
                    *slot = Some(Slot {
                        txn: self.db.begin(),
                        ops_done: 0,
                        ops_budget: self.rng.gen_range(3..7usize),
                        pending: None,
                        blocked_retries: 0,
                        cursor: None,
                        cursor_spent: false,
                    });
                }
            }
            let live: Vec<usize> = (0..slots.len()).filter(|i| slots[*i].is_some()).collect();
            if live.is_empty() {
                return;
            }
            let pick = live[self.rng.gen_range(0..live.len())];
            let finished = {
                let slot = slots[pick].as_mut().expect("picked a live slot");
                // A transaction stuck behind blockers for too long is the
                // deadlock-breaker's victim.
                if slot.blocked_retries > BLOCKED_RETRY_LIMIT {
                    let _ = slot.txn.abort();
                    true
                } else {
                    let op = match slot.pending.take() {
                        Some(op) => op,
                        None => Self::plan(
                            &mut self.rng,
                            &self.rows,
                            &self.emp_rows,
                            &mut self.next_value,
                            slot,
                            self.range_mode,
                        ),
                    };
                    Self::execute(&mut self.rows, &mut self.emp_rows, slot, op, self.rmw_reads)
                }
            };
            if finished {
                slots[pick] = None;
            }
            let _ = step;
        }
        // Step budget exhausted (pathological seed): drain what is left.
        for slot in slots.iter_mut().filter_map(|s| s.as_mut()) {
            let _ = slot.txn.commit();
        }
    }

    fn plan(
        rng: &mut StdRng,
        rows: &[RowId],
        emp_rows: &[RowId],
        next_value: &mut i64,
        slot: &mut Slot,
        range_mode: bool,
    ) -> PlannedOp {
        if slot.ops_done >= slot.ops_budget {
            return if rng.gen_bool(0.9) {
                PlannedOp::Commit
            } else {
                PlannedOp::Abort
            };
        }
        if range_mode {
            // The range/multi-table mix: interval scans over `bucket`,
            // predicate reads and writes on both tables, no cursors.  The
            // dice split keeps enough predicate reads *and* enough inserts
            // and deletes on each table that phantoms materialise per
            // table at the permissive levels.
            let row = rows[rng.gen_range(0..rows.len())];
            let emp = emp_rows[rng.gen_range(0..emp_rows.len())];
            let dice = rng.gen_range(0..100u64);
            return if dice < 18 {
                PlannedOp::Read(row)
            } else if dice < 28 {
                PlannedOp::PredicateRead(rng.gen_range(0..2u64) as i64)
            } else if dice < 42 {
                // A three-bucket window; scannable buckets are 0..=9.
                let lo = rng.gen_range(0..8i64);
                PlannedOp::RangeRead(lo, lo + 2)
            } else if dice < 54 {
                PlannedOp::EmpPredicateRead(rng.gen_range(0..2u64) as i64)
            } else if dice < 66 {
                *next_value += 1;
                PlannedOp::Update(row, *next_value)
            } else if dice < 74 {
                *next_value += 1;
                PlannedOp::EmpUpdate(emp, *next_value)
            } else if dice < 82 {
                let region = rng.gen_range(0..2u64) as i64;
                let bucket = rng.gen_range(0..10i64);
                *next_value += 1;
                PlannedOp::RangeInsert(region, *next_value, bucket)
            } else if dice < 90 {
                let dept = rng.gen_range(0..2u64) as i64;
                *next_value += 1;
                PlannedOp::EmpInsert(dept, *next_value)
            } else if dice < 95 {
                PlannedOp::Delete(row)
            } else {
                PlannedOp::EmpDelete(emp)
            };
        }
        let row = rows[rng.gen_range(0..rows.len())];
        let region = rng.gen_range(0..2u64) as i64;
        let dice = rng.gen_range(0..100u64);
        if dice < 30 {
            PlannedOp::Read(row)
        } else if dice < 42 {
            PlannedOp::PredicateRead(region)
        } else if dice < 64 {
            *next_value += 1;
            PlannedOp::Update(row, *next_value)
        } else if dice < 72 {
            *next_value += 1;
            PlannedOp::Insert(region, *next_value)
        } else if dice < 78 {
            PlannedOp::Delete(row)
        } else if let Some(_cursor) = slot.cursor {
            // Drive the open cursor: mostly fetch forward, sometimes write
            // through the position, occasionally close.
            let sub = rng.gen_range(0..10u64);
            if sub < 5 {
                PlannedOp::Fetch
            } else if sub < 8 {
                *next_value += 1;
                PlannedOp::UpdateCurrent(*next_value)
            } else {
                PlannedOp::CloseCursor
            }
        } else if !slot.cursor_spent {
            PlannedOp::OpenCursor(region)
        } else {
            PlannedOp::Read(row)
        }
    }

    /// Run one operation; returns true when the transaction finished.
    fn execute(
        rows: &mut Vec<RowId>,
        emp_rows: &mut Vec<RowId>,
        slot: &mut Slot,
        op: PlannedOp,
        rmw_reads: bool,
    ) -> bool {
        enum Effect {
            None,
            NewRow(RowId),
            NewEmpRow(RowId),
            CursorOpened(CursorId),
            CursorClosed,
        }
        let result: Result<Effect, TxnError> = match &op {
            PlannedOp::Read(row) => slot.txn.read("accounts", *row).map(|_| Effect::None),
            PlannedOp::PredicateRead(region) => {
                let predicate = RowPredicate::new("accounts", Condition::eq("region", *region));
                slot.txn.read_where(&predicate).map(|_| Effect::None)
            }
            PlannedOp::Update(row, value) => {
                // In RMW mode the update declares itself at a read first,
                // which takes a U lock at the locking levels.  A blocked half leaves the whole op pending;
                // the retry re-runs both halves verbatim.
                let declared = if rmw_reads {
                    slot.txn.read_for_update("accounts", *row).map(|_| ())
                } else {
                    Ok(())
                };
                declared
                    .and_then(|()| {
                        slot.txn
                            .update("accounts", *row, Row::new().with("balance", *value))
                    })
                    .map(|_| Effect::None)
            }
            PlannedOp::Insert(region, value) => slot
                .txn
                .insert(
                    "accounts",
                    Row::new().with("balance", *value).with("region", *region),
                )
                .map(Effect::NewRow),
            PlannedOp::Delete(row) => slot.txn.delete("accounts", *row).map(|_| Effect::None),
            PlannedOp::OpenCursor(region) => {
                let predicate = RowPredicate::new("accounts", Condition::eq("region", *region));
                slot.txn.open_cursor(&predicate).map(Effect::CursorOpened)
            }
            PlannedOp::Fetch => {
                let cursor = slot.cursor.expect("fetch planned only with a cursor");
                slot.txn.fetch(cursor).map(|_| Effect::None)
            }
            PlannedOp::UpdateCurrent(value) => {
                let cursor = slot
                    .cursor
                    .expect("positioned update planned only with a cursor");
                slot.txn
                    .update_current(cursor, Row::new().with("balance", *value))
                    .map(|_| Effect::None)
            }
            PlannedOp::CloseCursor => {
                let cursor = slot.cursor.expect("close planned only with a cursor");
                slot.txn.close_cursor(cursor).map(|_| Effect::CursorClosed)
            }
            PlannedOp::RangeRead(lo, hi) => {
                let range = KeyInterval::range(Some(*lo), Some(*hi));
                slot.txn
                    .read_range("accounts", "bucket", &range)
                    .map(|_| Effect::None)
            }
            PlannedOp::RangeInsert(region, value, bucket) => slot
                .txn
                .insert(
                    "accounts",
                    Row::new()
                        .with("balance", *value)
                        .with("region", *region)
                        .with("bucket", *bucket),
                )
                .map(Effect::NewRow),
            PlannedOp::EmpPredicateRead(dept) => {
                let predicate = RowPredicate::new("employees", Condition::eq("dept", *dept));
                slot.txn.read_where(&predicate).map(|_| Effect::None)
            }
            PlannedOp::EmpUpdate(row, value) => {
                let declared = if rmw_reads {
                    slot.txn.read_for_update("employees", *row).map(|_| ())
                } else {
                    Ok(())
                };
                declared
                    .and_then(|()| {
                        slot.txn
                            .update("employees", *row, Row::new().with("balance", *value))
                    })
                    .map(|_| Effect::None)
            }
            PlannedOp::EmpInsert(dept, value) => slot
                .txn
                .insert(
                    "employees",
                    Row::new().with("balance", *value).with("dept", *dept),
                )
                .map(Effect::NewEmpRow),
            PlannedOp::EmpDelete(row) => slot.txn.delete("employees", *row).map(|_| Effect::None),
            PlannedOp::Commit => {
                // A First-Committer-Wins refusal still terminates the
                // transaction; either way the slot is done.
                let _ = slot.txn.commit();
                return true;
            }
            PlannedOp::Abort => {
                let _ = slot.txn.abort();
                return true;
            }
        };
        match result {
            Ok(effect) => {
                match effect {
                    Effect::NewRow(row) => rows.push(row),
                    Effect::NewEmpRow(row) => emp_rows.push(row),
                    Effect::CursorOpened(cursor) => {
                        slot.cursor = Some(cursor);
                        slot.cursor_spent = true;
                    }
                    Effect::CursorClosed => slot.cursor = None,
                    Effect::None => {}
                }
                slot.ops_done += 1;
                slot.blocked_retries = 0;
                false
            }
            Err(TxnError::WouldBlock { .. }) => {
                // Leave the operation pending; a later step retries it.
                slot.pending = Some(op);
                slot.blocked_retries += 1;
                false
            }
            // A row that never became visible (its inserter aborted), a
            // first-committer casualty, a cursor past its end or gone
            // stale, or similar: skip the operation or accept the abort.
            Err(
                TxnError::Storage(_)
                | TxnError::StaleCursor { .. }
                | TxnError::NoSuchCursor
                | TxnError::CursorNotPositioned,
            ) => {
                slot.ops_done += 1;
                slot.blocked_retries = 0;
                false
            }
            Err(_) => !slot.txn.is_active(),
        }
    }
}

/// The phenomena whose positional detectors are sound on histories
/// recorded at `level` — every "Not Possible" cell for the locking
/// levels, where the recorded total order is lock-mediated.
fn forbidden_positional(level: IsolationLevel) -> Vec<Phenomenon> {
    match level {
        // Multiversion levels: positional patterns over-report (see the
        // module docs); their guarantees are checked by value instead.
        IsolationLevel::SnapshotIsolation => Vec::new(),
        // Read Consistency takes real long write locks, so dirty writes
        // are positionally impossible; its read-side guarantees are
        // value-level.
        IsolationLevel::OracleReadConsistency => vec![Phenomenon::P0],
        _ => Phenomenon::ALL
            .into_iter()
            .filter(|p| tables::possibility(level, *p) == Possibility::NotPossible)
            .collect(),
    }
}

/// Map every uniquely-valued write to its writer and position.
fn writers_by_value(history: &History) -> BTreeMap<i64, (critique_history::TxnId, usize)> {
    let mut writers = BTreeMap::new();
    for (i, op) in history.ops().iter().enumerate() {
        if op.is_write() {
            if let Some(value) = op.value {
                writers.insert(value.0, (op.txn, i));
            }
        }
    }
    writers
}

/// No transaction ever observes a value whose writer had not committed by
/// the time of the read (sound for SI and Read Consistency because every
/// written value is globally unique).
fn assert_no_dirty_values(history: &History, context: &str) {
    let writers = writers_by_value(history);
    for (i, op) in history.ops().iter().enumerate() {
        if !op.is_read() {
            continue;
        }
        let Some(value) = op.value else { continue };
        let Some(&(writer, _)) = writers.get(&value.0) else {
            continue; // seed-phase value, cleared from the history
        };
        if writer == op.txn {
            continue;
        }
        let committed_before = history.outcome(writer) == TxnOutcome::Committed
            && history.termination_index(writer).is_some_and(|c| c < i);
        assert!(
            committed_before,
            "{context}: op {i} read value {} written by uncommitted {writer}\n{}",
            value.0,
            history.to_notation(),
        );
    }
}

/// Snapshot stability: a Snapshot Isolation transaction that reads the
/// same item twice sees the same value, unless it wrote the item itself in
/// between (in which case it sees its own write).
fn assert_snapshot_stability(history: &History, context: &str) {
    for txn in history.transactions() {
        let mut seen: BTreeMap<String, i64> = BTreeMap::new();
        for (i, op) in history.ops_of(txn) {
            let Some(item) = op.item() else { continue };
            let Some(value) = op.value else { continue };
            if op.is_write() {
                seen.insert(item.name().to_string(), value.0);
            } else if op.is_read() {
                match seen.get(item.name()) {
                    Some(&expected) => assert_eq!(
                        value.0,
                        expected,
                        "{context}: {txn} re-read {} at op {i} and saw a different value\n{}",
                        item.name(),
                        history.to_notation(),
                    ),
                    None => {
                        seen.insert(item.name().to_string(), value.0);
                    }
                }
            }
        }
    }
}

/// First-Committer-Wins: two committed transactions whose execution
/// intervals overlapped never both wrote the same item.
fn assert_first_committer_wins(history: &History, context: &str) {
    // Per item: committed writers with their (first-op, commit) interval.
    let mut spans: BTreeMap<String, Vec<(critique_history::TxnId, usize, usize)>> = BTreeMap::new();
    for (i, op) in history.ops().iter().enumerate() {
        if !op.is_write() || history.outcome(op.txn) != TxnOutcome::Committed {
            continue;
        }
        let Some(item) = op.item() else { continue };
        let commit = history
            .termination_index(op.txn)
            .expect("committed transaction has a terminator");
        let first = history
            .ops_of(op.txn)
            .first()
            .map(|(idx, _)| *idx)
            .expect("transaction has operations");
        let entry = spans.entry(item.name().to_string()).or_default();
        if !entry.iter().any(|(t, _, _)| *t == op.txn) {
            entry.push((op.txn, first, commit));
        }
        let _ = i;
    }
    for (item, writers) in &spans {
        for (a, pair) in writers.iter().enumerate() {
            for other in writers.iter().skip(a + 1) {
                let (t1, first1, commit1) = *pair;
                let (t2, first2, commit2) = *other;
                let overlap = first1 < commit2 && first2 < commit1;
                assert!(
                    !overlap,
                    "{context}: committed {t1} and {t2} both wrote {item} with overlapping \
                     execution intervals — First-Committer-Wins failed\n{}",
                    history.to_notation(),
                );
            }
        }
    }
}

/// Run the full (level × seed) matrix on one backend: every history free
/// of its forbidden phenomena, every sub-SERIALIZABLE level demonstrably
/// anomalous, and the weaker locking levels showing their *characteristic*
/// anomaly, not just any.
fn run_matrix(backend: BackendKind) {
    // code → which permitted anomalies materialised, per level.
    let mut evidence: BTreeMap<IsolationLevel, BTreeSet<&'static str>> = BTreeMap::new();
    for level in LEVELS {
        let mut permitted_seen: BTreeSet<&'static str> = BTreeSet::new();
        for seed in SEEDS {
            let history = Exerciser::run(level, seed, backend);
            let context = format!("[{backend}] {} seed {seed:#x}", level.name());
            assert!(
                !history.is_empty(),
                "{context}: the exerciser recorded nothing"
            );

            // Freedom: exactly the phenomena the level must prevent.
            for phenomenon in forbidden_positional(level) {
                let found = detect(&history, phenomenon);
                assert!(
                    found.is_empty(),
                    "{context}: forbidden {phenomenon} occurred: {}\n{}",
                    found[0],
                    history.to_notation(),
                );
            }
            match level {
                IsolationLevel::SnapshotIsolation => {
                    assert_no_dirty_values(&history, &context);
                    assert_snapshot_stability(&history, &context);
                    assert_first_committer_wins(&history, &context);
                }
                IsolationLevel::OracleReadConsistency => {
                    assert_no_dirty_values(&history, &context);
                }
                _ => {}
            }

            // Distinguishability bookkeeping: which permitted anomalies
            // actually showed up.
            for phenomenon in Phenomenon::ALL {
                if tables::possibility(level, phenomenon) != Possibility::NotPossible
                    && exhibits(&history, phenomenon)
                {
                    permitted_seen.insert(phenomenon.code());
                }
            }
        }
        evidence.insert(level, permitted_seen);
    }

    // Every level below SERIALIZABLE must have demonstrated at least one
    // anomaly its Table 3/4 row permits, and the weaker locking levels
    // must show their *characteristic* anomaly, not just any.
    for level in LEVELS {
        if level == IsolationLevel::Serializable {
            continue;
        }
        let seen = &evidence[&level];
        assert!(
            !seen.is_empty(),
            "[{backend}] {}: no permitted anomaly materialised across the seed matrix — \
             the run distinguishes nothing",
            level.name(),
        );
    }
    let must_show = [
        (IsolationLevel::Degree0, "P0"),
        (IsolationLevel::ReadUncommitted, "P1"),
        (IsolationLevel::ReadCommitted, "P2"),
        (IsolationLevel::CursorStability, "P2"),
        (IsolationLevel::RepeatableRead, "P3"),
        // SI forbids every ANSI anomaly; what remains observable is the
        // predicate-constraint phantom ("Sometimes Possible" in Table 4).
        (IsolationLevel::SnapshotIsolation, "P3"),
    ];
    for (level, code) in must_show {
        assert!(
            evidence[&level].contains(code),
            "[{backend}] {}: expected the seed matrix to exhibit its characteristic {code}; \
             saw {:?}",
            level.name(),
            evidence[&level],
        );
    }
}

#[test]
fn conformance_mvstore_matrix() {
    run_matrix(BackendKind::MvStore);
}

#[test]
fn conformance_logstore_matrix() {
    run_matrix(BackendKind::LogStructured);
}

fn run_determinism(backend: BackendKind) {
    for level in [
        IsolationLevel::Serializable,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::CursorStability,
    ] {
        let a = Exerciser::run(level, SEEDS[0], backend);
        let b = Exerciser::run(level, SEEDS[0], backend);
        assert_eq!(
            a.to_notation(),
            b.to_notation(),
            "[{backend}] same seed, same level, different history at {level}"
        );
    }
}

#[test]
fn conformance_mvstore_determinism_per_seed() {
    run_determinism(BackendKind::MvStore);
}

#[test]
fn conformance_logstore_determinism_per_seed() {
    run_determinism(BackendKind::LogStructured);
}

/// Isolation levels are properties of histories, not storage engines: the
/// deterministic driver must record a byte-identical history for every
/// (level, seed) cell no matter which backend holds the versions.
#[test]
fn conformance_cross_backend_histories_identical() {
    for level in LEVELS {
        for seed in SEEDS {
            let reference = Exerciser::run(level, seed, BackendKind::MvStore);
            let log = Exerciser::run(level, seed, BackendKind::LogStructured);
            assert_eq!(
                reference.to_notation(),
                log.to_notation(),
                "{} seed {seed:#x}: the log-structured backend diverged from the \
                 chain store",
                level.name(),
            );
        }
    }
}

/// The cursor extension must actually exercise P4C's ingredients at
/// Cursor Stability: cursor reads and positioned writes appear in the
/// recorded histories (the freedom check above then proves P4C absent).
///
/// Naming: CI's conformance job runs this file as a name-filtered matrix
/// (`conformance_mvstore` / `conformance_logstore` /
/// `conformance_cross_backend` / `conformance_range`) — every test here
/// must keep one of those prefixes or it silently drops out of the
/// release conformance gate.  This one checks both backends, so it rides
/// the cross_backend leg.
#[test]
fn conformance_cross_backend_cursor_ops_are_generated() {
    for backend in BackendKind::ALL {
        let mut cursor_reads = 0usize;
        let mut cursor_writes = 0usize;
        for seed in SEEDS {
            let history = Exerciser::run(IsolationLevel::CursorStability, seed, backend);
            let notation = history.to_notation();
            cursor_reads += notation.matches("rc").count();
            cursor_writes += notation.matches("wc").count();
        }
        assert!(
            cursor_reads > 0 && cursor_writes > 0,
            "[{backend}] the seed matrix generated no cursor traffic at Cursor Stability \
             (rc={cursor_reads}, wc={cursor_writes})"
        );
    }
}

/// "U locks alter no isolation verdict", made executable: the full
/// 8-level × 3-seed matrix re-run with every update declared at a
/// `read_for_update`.  Update-mode locks may
/// reorder the interleaving (a U conflict retries where a Shared grant
/// would have proceeded), so histories legitimately differ from the
/// default matrix — but they may only ever be *more* restrictive: every
/// "Not Possible" cell must stay impossible, the multiversion value-level
/// guarantees must hold untouched (SI and Read Consistency take no read
/// locks, FOR UPDATE or not), and the two storage backends must still
/// record byte-identical histories per (level, seed) cell.
///
/// Naming: rides CI's `cross_backend` conformance leg (see the note on
/// `conformance_cross_backend_cursor_ops_are_generated`).
#[test]
fn conformance_cross_backend_update_lock_alters_no_verdict() {
    for level in LEVELS {
        for seed in SEEDS {
            let reference = Exerciser::run_update_lock(level, seed, BackendKind::MvStore);
            let log = Exerciser::run_update_lock(level, seed, BackendKind::LogStructured);
            assert_eq!(
                reference.to_notation(),
                log.to_notation(),
                "{} seed {seed:#x}: backends diverged under update-mode locks",
                level.name(),
            );
            let context = format!("[update-lock] {} seed {seed:#x}", level.name());
            assert!(
                !reference.is_empty(),
                "{context}: the exerciser recorded nothing"
            );
            for phenomenon in forbidden_positional(level) {
                let found = detect(&reference, phenomenon);
                assert!(
                    found.is_empty(),
                    "{context}: U locks admitted forbidden {phenomenon}: {}\n{}",
                    found[0],
                    reference.to_notation(),
                );
            }
            match level {
                IsolationLevel::SnapshotIsolation => {
                    assert_no_dirty_values(&reference, &context);
                    assert_snapshot_stability(&reference, &context);
                    assert_first_committer_wins(&reference, &context);
                }
                IsolationLevel::OracleReadConsistency => {
                    assert_no_dirty_values(&reference, &context);
                }
                _ => {}
            }
        }
    }
}

/// The tables the range/multi-table matrix spreads its predicates over.
const RANGE_TABLES: [&str; 2] = ["accounts", "employees"];

/// Project a history onto one table: keep every terminator plus exactly
/// the item and predicate operations that touch `table`.  The recorder
/// names items `table.row` and predicates `table[condition]`, so string
/// prefixes identify the table unambiguously (no table name here is a
/// prefix of another).  Phenomenon detection on the projection yields the
/// per-table verdict: a phantom on `employees` cannot hide behind traffic
/// on `accounts` and vice versa.
fn table_projection(history: &History, table: &str) -> History {
    let item_prefix = format!("{table}.");
    let predicate_prefix = format!("{table}[");
    let ops = history
        .ops()
        .iter()
        .filter(|op| {
            op.kind.is_terminator()
                || op
                    .kind
                    .item()
                    .is_some_and(|item| item.name().starts_with(&item_prefix))
                || op
                    .kind
                    .predicate()
                    .is_some_and(|predicate| predicate.name().starts_with(&predicate_prefix))
        })
        .cloned()
        .collect();
    History::from_ops_unchecked(ops)
}

/// The range/multi-table conformance matrix: every (level, seed) cell run
/// with interval scans over the ordered `bucket` index and predicate
/// traffic on two tables, with the paper's verdicts enforced *per table*
/// — freedom on each table's projection at the restrictive levels, and
/// phantom evidence on **both** tables at the permissive ones.
fn run_range_matrix(backend: BackendKind) {
    let mut evidence: BTreeMap<IsolationLevel, BTreeSet<&'static str>> = BTreeMap::new();
    // level → tables whose projection exhibited a phantom somewhere in the
    // seed matrix.
    let mut phantoms: BTreeMap<IsolationLevel, BTreeSet<&'static str>> = BTreeMap::new();
    for level in LEVELS {
        let mut permitted_seen: BTreeSet<&'static str> = BTreeSet::new();
        let phantom_tables = phantoms.entry(level).or_default();
        for seed in SEEDS {
            let history = Exerciser::run_range(level, seed, backend);
            let context = format!("[{backend}] range {} seed {seed:#x}", level.name());
            assert!(
                !history.is_empty(),
                "{context}: the exerciser recorded nothing"
            );

            // Freedom on the whole history, then per table: a projection
            // can only remove cross-table interleavings, so any forbidden
            // phenomenon inside one table must also be absent there.
            for phenomenon in forbidden_positional(level) {
                let found = detect(&history, phenomenon);
                assert!(
                    found.is_empty(),
                    "{context}: forbidden {phenomenon} occurred: {}\n{}",
                    found[0],
                    history.to_notation(),
                );
                for table in RANGE_TABLES {
                    let projection = table_projection(&history, table);
                    let found = detect(&projection, phenomenon);
                    assert!(
                        found.is_empty(),
                        "{context}: forbidden {phenomenon} occurred in the {table} \
                         projection: {}\n{}",
                        found[0],
                        projection.to_notation(),
                    );
                }
            }
            match level {
                IsolationLevel::SnapshotIsolation => {
                    assert_no_dirty_values(&history, &context);
                    assert_snapshot_stability(&history, &context);
                    assert_first_committer_wins(&history, &context);
                }
                IsolationLevel::OracleReadConsistency => {
                    assert_no_dirty_values(&history, &context);
                }
                _ => {}
            }

            for phenomenon in Phenomenon::ALL {
                if tables::possibility(level, phenomenon) != Possibility::NotPossible
                    && exhibits(&history, phenomenon)
                {
                    permitted_seen.insert(phenomenon.code());
                }
            }
            if tables::possibility(level, Phenomenon::P3) != Possibility::NotPossible {
                for table in RANGE_TABLES {
                    if exhibits(&table_projection(&history, table), Phenomenon::P3) {
                        phantom_tables.insert(table);
                    }
                }
            }
        }
        evidence.insert(level, permitted_seen);
    }

    for level in LEVELS {
        if level == IsolationLevel::Serializable {
            continue;
        }
        assert!(
            !evidence[&level].is_empty(),
            "[{backend}] range {}: no permitted anomaly materialised across the seed \
             matrix — the run distinguishes nothing",
            level.name(),
        );
    }
    // The point of the multi-table mix: at the phantom-permitting locking
    // levels, the seed matrix shows phantoms *in each table's own
    // projection* — Table 3's P3 row holds (and fails to hold) per
    // predicate domain, not merely somewhere in the interleaved whole.
    for level in [
        IsolationLevel::ReadCommitted,
        IsolationLevel::RepeatableRead,
    ] {
        for table in RANGE_TABLES {
            assert!(
                phantoms[&level].contains(table),
                "[{backend}] range {}: expected a phantom in the {table} projection \
                 across the seed matrix; saw {:?}",
                level.name(),
                phantoms[&level],
            );
        }
    }
}

/// Naming: rides CI's `range` conformance leg (name filter
/// `conformance_range` — see the note on
/// `conformance_cross_backend_cursor_ops_are_generated`).
#[test]
fn conformance_range_mvstore_matrix() {
    run_range_matrix(BackendKind::MvStore);
}

#[test]
fn conformance_range_logstore_matrix() {
    run_range_matrix(BackendKind::LogStructured);
}

/// Backend independence holds for range traffic too: interval scans go
/// through each backend's own ordered-index implementation, yet the
/// recorded history per (level, seed) cell must stay byte-identical.
#[test]
fn conformance_range_cross_backend_histories_identical() {
    for level in LEVELS {
        for seed in SEEDS {
            let reference = Exerciser::run_range(level, seed, BackendKind::MvStore);
            let log = Exerciser::run_range(level, seed, BackendKind::LogStructured);
            assert_eq!(
                reference.to_notation(),
                log.to_notation(),
                "range {} seed {seed:#x}: the log-structured backend diverged from \
                 the chain store",
                level.name(),
            );
        }
    }
}

/// The range mix must actually generate its ingredients on every backend:
/// interval predicate reads over `bucket` on `accounts`, and predicate
/// reads against `employees` — otherwise the per-table verdicts above
/// prove nothing.
#[test]
fn conformance_range_traffic_is_generated() {
    for backend in BackendKind::ALL {
        let mut interval_reads = 0usize;
        let mut employee_reads = 0usize;
        for seed in SEEDS {
            let history = Exerciser::run_range(IsolationLevel::ReadCommitted, seed, backend);
            for op in history.ops() {
                let Some(predicate) = op.kind.predicate() else {
                    continue;
                };
                if predicate.name().starts_with("accounts[") && predicate.name().contains("bucket")
                {
                    interval_reads += 1;
                }
                if predicate.name().starts_with("employees[") {
                    employee_reads += 1;
                }
            }
        }
        assert!(
            interval_reads > 0 && employee_reads > 0,
            "[{backend}] the range matrix generated no multi-table range traffic \
             (interval={interval_reads}, employees={employee_reads})"
        );
    }
}

// ---------------------------------------------------------------------
// Watcher leg: the notification stream as one more history projection.
//
// A watcher is a read-only observer, so per the paper's taxonomy its
// stream has its own forbidden phenomena: carrying a value written by a
// transaction that did not commit is P1 (dirty read) for subscribers,
// and delivering events out of commit order would hand observers a
// history the engine never produced.  The leg runs the full level ×
// seed matrix on both backends with a table watcher subscribed and
// holds the stream against the recorded history.
// ---------------------------------------------------------------------

/// The recorder's transaction id for a notifying token (same mapping
/// `HistoryRecorder` uses).
fn event_txn(event: &ChangeEvent) -> critique_history::TxnId {
    critique_history::TxnId(u32::try_from(event.txn.0).unwrap_or(u32::MAX))
}

/// Render a notification stream to a canonical string: commit order,
/// commit timestamps, and per-change kinds and images all participate in
/// byte-identical comparisons.
fn render_stream(events: &[ChangeEvent]) -> String {
    events
        .iter()
        .map(|event| {
            let changes = event
                .changes
                .iter()
                .map(|change| {
                    format!(
                        "{}.{} {} {:?}->{:?}",
                        change.table,
                        change.row.0,
                        change.kind,
                        change.before.as_ref().and_then(|r| r.get_int("balance")),
                        change.after.as_ref().and_then(|r| r.get_int("balance")),
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!("{} c{} [{}]", event.commit_ts, event.txn.0, changes)
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn run_watch_matrix(backend: BackendKind) {
    let mut total_events = 0usize;
    let mut aborted_writers = 0usize;
    for level in LEVELS {
        for seed in SEEDS {
            let (history, events) = Exerciser::run_watched(level, seed, backend);
            let context = format!("[{backend}] watch {} seed {seed:#x}", level.name());
            let writers = writers_by_value(&history);

            // 1. No notification for an aborted write (P1 for
            //    subscribers): every event's transaction committed, its
            //    after images are its own committed writes, and its
            //    before images come from committed writers only.
            for event in &events {
                let txn = event_txn(event);
                assert_eq!(
                    history.outcome(txn),
                    TxnOutcome::Committed,
                    "{context}: notification for non-committed {txn}\n{}",
                    history.to_notation(),
                );
                for change in &event.changes {
                    if let Some(value) = change.after.as_ref().and_then(|r| r.get_int("balance")) {
                        if let Some(&(writer, _)) = writers.get(&value) {
                            // Committed state only — and at every level
                            // that forbids dirty writes (P0), the after
                            // image is the notifier's *own* write.  At
                            // Degree 0 two committed writers may overlap
                            // on one row, so only committedness holds.
                            assert_eq!(
                                history.outcome(writer),
                                TxnOutcome::Committed,
                                "{context}: after image {value} leaks uncommitted state \
                                 of {writer}\n{}",
                                history.to_notation(),
                            );
                            if tables::possibility(level, Phenomenon::P0)
                                == Possibility::NotPossible
                            {
                                assert_eq!(
                                    writer,
                                    txn,
                                    "{context}: after image {value} was written by {writer}, \
                                     not the notifying {txn}\n{}",
                                    history.to_notation(),
                                );
                            }
                        }
                    }
                    if let Some(value) = change.before.as_ref().and_then(|r| r.get_int("balance")) {
                        if let Some(&(writer, _)) = writers.get(&value) {
                            assert_eq!(
                                history.outcome(writer),
                                TxnOutcome::Committed,
                                "{context}: before image {value} leaks uncommitted state \
                                 of {writer}\n{}",
                                history.to_notation(),
                            );
                        }
                    }
                }
            }

            // 2. Notification order ≡ history commit order, byte for
            //    byte: the delivered sequence of commit terminators must
            //    equal the same transactions sorted by their terminator's
            //    position in the recorded history, and the carried commit
            //    timestamps must be strictly increasing.
            let delivered: Vec<critique_history::TxnId> = events.iter().map(event_txn).collect();
            let mut by_history = delivered.clone();
            by_history.sort_by_key(|txn| {
                history
                    .termination_index(*txn)
                    .unwrap_or_else(|| panic!("{context}: {txn} notified without a terminator"))
            });
            let render = |seq: &[critique_history::TxnId]| {
                seq.iter()
                    .map(|t| format!("c{}", t.0))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            assert_eq!(
                render(&delivered),
                render(&by_history),
                "{context}: notification order diverges from history commit order\n{}",
                history.to_notation(),
            );
            for pair in events.windows(2) {
                assert!(
                    pair[0].commit_ts < pair[1].commit_ts,
                    "{context}: commit timestamps not strictly increasing in the stream"
                );
            }

            // 3. Completeness: every committed transaction whose last
            //    write to some item was an insert or update (a valued
            //    write — its net effect on that item is necessarily
            //    visible) must have notified.  (A transaction whose every
            //    written item ends in a delete may have inserted it
            //    itself, netting to nothing; those are exempt here and
            //    pinned by the engine-level tests instead.)
            let delivered_set: BTreeSet<critique_history::TxnId> =
                delivered.iter().copied().collect();
            for txn in history.transactions() {
                if history.outcome(txn) != TxnOutcome::Committed {
                    continue;
                }
                let mut last_valued: BTreeMap<String, bool> = BTreeMap::new();
                for (_, op) in history.ops_of(txn) {
                    if op.is_write() {
                        if let Some(item) = op.item() {
                            last_valued.insert(item.name().to_string(), op.value.is_some());
                        }
                    }
                }
                if last_valued.values().any(|valued| *valued) {
                    assert!(
                        delivered_set.contains(&txn),
                        "{context}: committed writer {txn} produced no notification\n{}",
                        history.to_notation(),
                    );
                }
            }
            // Conversely, nothing notified without a write.
            for txn in &delivered_set {
                assert!(
                    history.ops_of(*txn).iter().any(|(_, op)| op.is_write()),
                    "{context}: read-only {txn} notified"
                );
            }

            total_events += events.len();
            aborted_writers += history
                .transactions()
                .into_iter()
                .filter(|txn| {
                    history.outcome(*txn) == TxnOutcome::Aborted
                        && history.ops_of(*txn).iter().any(|(_, op)| op.is_write())
                })
                .count();
        }
    }
    // The matrix must exercise both claims non-vacuously: notifications
    // actually flowed, and writers actually aborted (so "no notification
    // for an aborted write" had something to prove).
    assert!(
        total_events > 0,
        "[{backend}] the watch matrix delivered zero notifications"
    );
    assert!(
        aborted_writers > 0,
        "[{backend}] the watch matrix aborted no writers — the P1-freedom check is vacuous"
    );
}

#[test]
fn conformance_watch_mvstore_matrix() {
    run_watch_matrix(BackendKind::MvStore);
}

#[test]
fn conformance_watch_logstore_matrix() {
    run_watch_matrix(BackendKind::LogStructured);
}

/// Like histories, notification streams are properties of the schedule,
/// not the storage engine: the same (level, seed) cell must deliver a
/// byte-identical stream — commit timestamps, transaction ids, change
/// kinds, and images — on both backends.
#[test]
fn conformance_watch_cross_backend_streams_identical() {
    for level in LEVELS {
        for seed in SEEDS {
            let (_, mv) = Exerciser::run_watched(level, seed, BackendKind::MvStore);
            let (_, log) = Exerciser::run_watched(level, seed, BackendKind::LogStructured);
            assert_eq!(
                render_stream(&mv),
                render_stream(&log),
                "{} seed {seed:#x}: notification streams diverge across backends",
                level.name(),
            );
        }
    }
}

/// Subscribing a watcher must not perturb the engine: the recorded
/// history of a watched run is byte-identical to the unwatched run of
/// the same cell.
#[test]
fn conformance_watch_leaves_histories_untouched() {
    for level in [
        IsolationLevel::Serializable,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::ReadCommitted,
    ] {
        for seed in SEEDS {
            let unwatched = Exerciser::run(level, seed, BackendKind::MvStore);
            let (watched, _) = Exerciser::run_watched(level, seed, BackendKind::MvStore);
            assert_eq!(
                unwatched.to_notation(),
                watched.to_notation(),
                "{} seed {seed:#x}: watching changed the recorded history",
                level.name(),
            );
        }
    }
}
