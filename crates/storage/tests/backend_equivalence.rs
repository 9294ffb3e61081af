//! Differential conformance: every storage backend is semantically
//! interchangeable behind [`StorageBackend`].
//!
//! A property test replays identical random operation sequences against
//! the sharded chain store ([`MvStore`]) and the append-only log store
//! ([`LogStore`]) — the latter squeezed into tiny segments with an
//! aggressive compaction watermark so segment rollover and pointer
//! remapping are on the hot path — and then requires bit-identical answers
//! from every read surface: visible state at every timestamp and for every
//! reader, predicate scans, write sets, First-Committer-Wins verdicts,
//! foreign-uncommitted checks, and the bookkeeping counters.
//!
//! This is the contract that lets the isolation schedulers not care which
//! backend they run on: if these properties hold, the engine-level
//! conformance matrix *must* produce identical histories on both.

use critique_storage::prelude::*;
use proptest::prelude::*;

/// One step of a random schedule.  Decoded from the integer tuples the
/// proptest strategy generates.
#[derive(Clone, Copy, Debug)]
enum Step {
    Insert { table: usize, txn: u64, value: i64 },
    Update { table: usize, txn: u64, row: u64 },
    Delete { table: usize, txn: u64, row: u64 },
    Commit { txn: u64 },
    Abort { txn: u64 },
}

const TABLES: [&str; 2] = ["accounts", "employees"];

fn decode(kind: u32, table: u32, txn: u32, row: u32) -> Step {
    let table = (table % 2) as usize;
    let txn = u64::from(txn % 4) + 1;
    let row = u64::from(row % 8);
    match kind % 6 {
        0 | 1 => Step::Insert {
            table,
            txn,
            value: i64::from(kind) + row as i64,
        },
        2 | 3 => Step::Update { table, txn, row },
        4 => {
            if row % 2 == 0 {
                Step::Delete { table, txn, row }
            } else {
                Step::Commit { txn }
            }
        }
        _ => {
            if row % 2 == 0 {
                Step::Commit { txn }
            } else {
                Step::Abort { txn }
            }
        }
    }
}

/// Apply one step to a single backend, without comparisons (used by the
/// concurrent-reader property, where the two backends are replayed in
/// separate phases).
fn apply_one(step: Step, store: &dyn StorageBackend, next_ts: &mut u64) {
    match step {
        Step::Insert { table, txn, value } => {
            let row = Row::new()
                .with("balance", value)
                .with("owner", format!("t{txn}").as_str());
            store.insert(TABLES[table], TxnToken(txn), row);
        }
        Step::Update { table, txn, row } => {
            let _ = store.update(
                TABLES[table],
                TxnToken(txn),
                RowId(row),
                Row::new().with("balance", -(row as i64)),
            );
        }
        Step::Delete { table, txn, row } => {
            let _ = store.delete(TABLES[table], TxnToken(txn), RowId(row));
        }
        Step::Commit { txn } => {
            *next_ts += 1;
            store.commit(TxnToken(txn), Timestamp(*next_ts));
        }
        Step::Abort { txn } => {
            store.abort(TxnToken(txn));
        }
    }
}

/// Apply one step to both backends and check the write-path results agree.
fn apply(step: Step, a: &dyn StorageBackend, b: &dyn StorageBackend, next_ts: &mut u64) {
    match step {
        Step::Insert { table, txn, value } => {
            let row = Row::new()
                .with("balance", value)
                .with("owner", format!("t{txn}").as_str());
            let ia = a.insert(TABLES[table], TxnToken(txn), row.clone());
            let ib = b.insert(TABLES[table], TxnToken(txn), row);
            prop_assert_eq!(ia, ib, "insert row id");
        }
        Step::Update { table, txn, row } => {
            let new = Row::new().with("balance", -(row as i64));
            let ra = a.update(TABLES[table], TxnToken(txn), RowId(row), new.clone());
            let rb = b.update(TABLES[table], TxnToken(txn), RowId(row), new);
            prop_assert_eq!(&ra, &rb, "update outcome");
        }
        Step::Delete { table, txn, row } => {
            let ra = a.delete(TABLES[table], TxnToken(txn), RowId(row));
            let rb = b.delete(TABLES[table], TxnToken(txn), RowId(row));
            prop_assert_eq!(&ra, &rb, "delete outcome");
        }
        Step::Commit { txn } => {
            *next_ts += 1;
            a.commit(TxnToken(txn), Timestamp(*next_ts));
            b.commit(TxnToken(txn), Timestamp(*next_ts));
        }
        Step::Abort { txn } => {
            a.abort(TxnToken(txn));
            b.abort(TxnToken(txn));
        }
    }
}

/// Every read surface of both backends must agree exactly.
fn assert_equivalent(a: &dyn StorageBackend, b: &dyn StorageBackend, max_ts: u64) {
    let pair = format!("{} vs {}", a.backend_name(), b.backend_name());
    prop_assert_eq!(a.tables(), b.tables(), "tables ({})", &pair);
    prop_assert_eq!(
        a.version_count(),
        b.version_count(),
        "version_count ({})",
        &pair
    );

    for table in TABLES {
        let ids = a.row_ids(table);
        prop_assert_eq!(&ids, &b.row_ids(table), "row ids of {} ({})", table, &pair);
        prop_assert_eq!(
            a.committed_row_count(table),
            b.committed_row_count(table),
            "committed_row_count {} ({})",
            table,
            &pair
        );

        for id in ids {
            prop_assert_eq!(
                a.get_latest_any(table, id),
                b.get_latest_any(table, id),
                "latest_any {}{:?} ({})",
                table,
                id,
                &pair
            );
            prop_assert_eq!(
                a.get_latest_committed(table, id),
                b.get_latest_committed(table, id),
                "latest_committed {}{:?} ({})",
                table,
                id,
                &pair
            );
            for ts in 0..=max_ts {
                prop_assert_eq!(
                    a.get_committed_as_of(table, id, Timestamp(ts)),
                    b.get_committed_as_of(table, id, Timestamp(ts)),
                    "as_of ts{} {}{:?} ({})",
                    ts,
                    table,
                    id,
                    &pair
                );
            }
            for reader in 1..=4u64 {
                prop_assert_eq!(
                    a.get_visible(table, id, TxnToken(reader), Timestamp(max_ts)),
                    b.get_visible(table, id, TxnToken(reader), Timestamp(max_ts)),
                    "visible_for txn{} {}{:?} ({})",
                    reader,
                    table,
                    id,
                    &pair
                );
            }
        }

        // Scans agree, in order, on every visibility surface, including
        // predicate filtering and snapshots.
        let all = RowPredicate::whole_table(table);
        let negative = RowPredicate::new(table, Condition::compare("balance", Comparison::Lt, 0));
        for predicate in [&all, &negative] {
            prop_assert_eq!(
                a.scan_latest_any(predicate),
                b.scan_latest_any(predicate),
                "scan_latest_any {} ({})",
                table,
                &pair
            );
            prop_assert_eq!(
                a.scan_latest_committed(predicate),
                b.scan_latest_committed(predicate),
                "scan_latest_committed {} ({})",
                table,
                &pair
            );
            prop_assert_eq!(
                a.scan_visible(predicate, TxnToken(1), Timestamp(max_ts)),
                b.scan_visible(predicate, TxnToken(1), Timestamp(max_ts)),
                "scan_visible {} ({})",
                table,
                &pair
            );
        }
        for ts in [0, max_ts / 2, max_ts] {
            prop_assert_eq!(
                a.snapshot(Timestamp(ts)).scan(&all),
                b.snapshot(Timestamp(ts)).scan(&all),
                "snapshot scan ts{} {} ({})",
                ts,
                table,
                &pair
            );
        }

        // Range scans agree *in order* on every visibility surface — for
        // the table with an ordered index ("accounts") and for the
        // unindexed one (where scan_range falls back to filtering the full
        // scan) alike — and the shared order is the pinned (key, row id)
        // contract, not merely "both backends picked the same accident".
        prop_assert_eq!(
            a.indexed_column(table),
            b.indexed_column(table),
            "indexed_column {} ({})",
            table,
            &pair
        );
        let intervals = [
            KeyInterval::range(None, None),
            KeyInterval::range(Some(-8), Some(0)),
            KeyInterval::range(Some(0), None),
            KeyInterval::range(None, Some(3)),
        ];
        let views = [
            ScanView::LatestAny,
            ScanView::LatestCommitted,
            ScanView::CommittedAsOf(Timestamp(max_ts / 2)),
            ScanView::Visible {
                reader: TxnToken(1),
                start_ts: Timestamp(max_ts),
            },
        ];
        for interval in &intervals {
            for view in views {
                let ra = a.scan_range(table, "balance", interval, view);
                let rb = b.scan_range(table, "balance", interval, view);
                prop_assert_eq!(
                    &ra,
                    &rb,
                    "scan_range {} {:?} {:?} ({})",
                    table,
                    interval,
                    view,
                    &pair
                );
                let keys: Vec<(i64, RowId)> = ra
                    .iter()
                    .map(|(id, row)| (row.get_int("balance").expect("keyed row"), *id))
                    .collect();
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                prop_assert_eq!(
                    &keys,
                    &sorted,
                    "scan_range order {} {:?} {:?} ({})",
                    table,
                    interval,
                    view,
                    &pair
                );
                prop_assert!(
                    keys.iter().all(|(key, _)| interval.contains(*key)),
                    "scan_range bounds {} {:?} {:?} ({})",
                    table,
                    interval,
                    view,
                    &pair
                );
            }
        }
    }

    for txn in 1..=4u64 {
        prop_assert_eq!(
            a.writes_of(TxnToken(txn)),
            b.writes_of(TxnToken(txn)),
            "writes_of txn{} ({})",
            txn,
            &pair
        );
        prop_assert_eq!(
            a.has_foreign_uncommitted_on_writes(TxnToken(txn)),
            b.has_foreign_uncommitted_on_writes(TxnToken(txn)),
            "has_foreign_uncommitted txn{} ({})",
            txn,
            &pair
        );
        for ts in [0, max_ts / 2, max_ts] {
            prop_assert_eq!(
                a.first_committer_conflict(TxnToken(txn), Timestamp(ts)),
                b.first_committer_conflict(TxnToken(txn), Timestamp(ts)),
                "fcw txn{} ts{} ({})",
                txn,
                ts,
                &pair
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Identical op sequences leave the chain store and the log store in
    /// identical visible states — with the log store's segment size and
    /// compaction watermark randomised so rollover and remapping are
    /// exercised.
    #[test]
    fn logstore_matches_mvstore_semantics(
        steps in proptest::collection::vec((0u32..6, 0u32..2, 0u32..4, 0u32..8), 1..60),
        segment_records in 1usize..9,
        compact_watermark in 1usize..5,
        shards in 1u32..17,
    ) {
        let reference = MvStore::with_shards(shards as usize);
        let log = LogStore::with_config(LogStoreConfig {
            segment_records,
            compact_watermark,
            shards: shards as usize,
            ..LogStoreConfig::default()
        });
        // One table gets an ordered index, the other exercises the
        // unindexed scan_range fallback.
        for store in [&reference as &dyn StorageBackend, &log] {
            store.create_table(TABLES[0]);
            store.create_index(TABLES[0], "balance");
        }
        let mut next_ts = 0u64;
        for (kind, table, txn, row) in steps {
            apply(decode(kind, table, txn, row), &reference, &log, &mut next_ts);
        }
        assert_equivalent(&reference, &log, next_ts.max(1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent epoch-path readers never perturb the visible state: the
    /// same op sequence is replayed on the chain store *while* reader
    /// threads race every lock-free read surface (with a randomised
    /// interleaving: each reader starts after a randomly chosen step and
    /// spins a random number of rounds), then replayed quietly on the log
    /// store, and the two must still agree bit-for-bit everywhere.  The
    /// storm also proves the acceptance invariant on a live workload:
    /// racing epoch readers take zero stripe read-locks.
    #[test]
    fn epoch_readers_race_writers_without_perturbing_equivalence(
        steps in proptest::collection::vec((0u32..6, 0u32..2, 0u32..4, 0u32..8), 1..40),
        shards in 1u32..9,
        readers in 1usize..4,
        start_after in 0usize..40,
        rounds in 8u64..64,
    ) {
        use std::sync::atomic::{AtomicBool, Ordering};

        let reference = MvStore::with_shards(shards as usize);
        reference.create_table(TABLES[0]);
        reference.create_index(TABLES[0], "balance");

        let start_after = start_after.min(steps.len().saturating_sub(1));
        let stop = &AtomicBool::new(false);
        let started = &AtomicBool::new(false);
        let mut next_ts = 0u64;
        std::thread::scope(|scope| {
            let reference = &reference;
            for reader in 0..readers {
                scope.spawn(move || {
                    while !started.load(Ordering::Relaxed) && !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                    let mut spins = 0u64;
                    while !stop.load(Ordering::Relaxed) || spins < rounds {
                        for table in TABLES {
                            let all = RowPredicate::whole_table(table);
                            let _ = reference.scan_latest_committed(&all);
                            let _ = reference.scan_visible(
                                &all,
                                TxnToken(u64::MAX - reader as u64),
                                Timestamp(1 + spins % 16),
                            );
                            let _ = reference.get_latest_any(table, RowId(spins % 8));
                            let _ = reference.get_committed_as_of(
                                table,
                                RowId(spins % 8),
                                Timestamp(spins % 16),
                            );
                            let _ = reference.scan_range(
                                table,
                                "balance",
                                &KeyInterval::range(Some(-8), Some(8)),
                                ScanView::LatestCommitted,
                            );
                        }
                        spins += 1;
                    }
                });
            }
            for (i, &(kind, table, txn, row)) in steps.iter().enumerate() {
                if i == start_after {
                    started.store(true, Ordering::Relaxed);
                }
                apply_one(decode(kind, table, txn, row), reference, &mut next_ts);
            }
            started.store(true, Ordering::Relaxed);
            stop.store(true, Ordering::Relaxed);
        });

        // The racing readers ran entirely on the epoch path: no stripe
        // read-lock was ever taken.
        prop_assert_eq!(reference.read_stats().read_lock_acquisitions(), 0);
        prop_assert!(reference.read_stats().read_pins() > 0);

        // Quiet replay on the log store; the storm must not have changed
        // what the chain store ended up with.
        let log = LogStore::with_config(LogStoreConfig::default());
        log.create_table(TABLES[0]);
        log.create_index(TABLES[0], "balance");
        let mut log_ts = 0u64;
        for (kind, table, txn, row) in steps {
            apply_one(decode(kind, table, txn, row), &log, &mut log_ts);
        }
        assert_equivalent(&reference, &log, next_ts.max(1));
    }
}
