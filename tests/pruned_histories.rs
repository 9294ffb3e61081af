//! The paper's multiversion histories, executed while version pruning
//! runs underneath them.
//!
//! Every committer moves the store's low-water mark up to the oldest live
//! snapshot and every writer prunes below it, so a verdict that depended
//! on a version pruning had taken — a snapshot read, a
//! First-Committer-Wins check, a rollback — would be decided differently
//! here than the paper decides it.  (The conformance exerciser and the
//! scenario suite run with pruning on as well; these tests add the long
//! lives and the races those short histories do not have.)
//!
//! The storms are smaller in a debug build, where this file runs as part
//! of plain `cargo test`; CI re-runs it in release mode at full size.

use ansi_isolation_critique::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

const TABLE: &str = "accounts";

fn scaled(release: u64, debug: u64) -> u64 {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

fn database(level: IsolationLevel) -> Database {
    Database::with_config(EngineConfig::new(level).blocking(10_000).without_history())
}

/// `rows` accounts of 50 each, committed by one set-up transaction.
fn accounts(db: &Database, rows: u64) -> Vec<RowId> {
    let setup = db.begin();
    let ids = (0..rows)
        .map(|_| setup.insert(TABLE, Row::new().with("balance", 50)).unwrap())
        .collect();
    setup.commit().unwrap();
    ids
}

fn balance(txn: &Transaction, row: RowId) -> i64 {
    txn.read(TABLE, row)
        .unwrap()
        .expect("the account exists in every snapshot")
        .get_int("balance")
        .unwrap()
}

/// Move `amount` from `from` to `to` in one transaction, retrying on a
/// First-Committer-Wins abort.
fn transfer(db: &Database, from: RowId, to: RowId, amount: i64) {
    loop {
        let txn = db.begin();
        let (a, b) = (balance(&txn, from), balance(&txn, to));
        txn.update(TABLE, from, Row::new().with("balance", a - amount))
            .unwrap();
        txn.update(TABLE, to, Row::new().with("balance", b + amount))
            .unwrap();
        match txn.commit() {
            Ok(()) => return,
            Err(TxnError::FirstCommitterConflict { .. }) => continue,
            Err(other) => panic!("transfer failed: {other}"),
        }
    }
}

/// H1.SI with a long life: T1 reads x, ten thousand transfers commit and
/// prune underneath it, and T1 still reads y — and x again — from its
/// snapshot: r1[x0=50] … r1[y0=50], never the inconsistent 10/90 of H1.
/// (The transfers go round eight accounts so that no one chain — which
/// every read walks — carries all twenty thousand versions.)
#[test]
fn a_long_snapshot_reader_keeps_h1_si_consistent_under_ten_thousand_pruning_commits() {
    const ROWS: u64 = 8;
    let db = database(IsolationLevel::SnapshotIsolation);
    let ids = accounts(&db, ROWS);
    let (x, y) = (ids[0], ids[1]);
    let round = |i: u64, amount: i64| {
        let from = ids[(i % ROWS) as usize];
        let to = ids[((i + 1) % ROWS) as usize];
        transfer(&db, from, to, amount);
    };
    // History below the reader's snapshot, so there is something to prune.
    for i in 0..4 * ROWS {
        round(i, 1);
    }
    let before = db.store().version_count() as u64;
    assert!(before <= 3 * ROWS, "{before} versions of quiet rows");
    let all = RowPredicate::whole_table(TABLE);

    let t1 = db.begin();
    let x0 = balance(&t1, x);
    let y0 = balance(&t1, y);
    let commits = scaled(10_000, 2_000);
    for i in 0..commits {
        round(i, 40);
        if i % (commits / 8) == 0 {
            assert_eq!((balance(&t1, x), balance(&t1, y)), (x0, y0));
        }
    }
    // Everything committed since T1 began is still there for it to step
    // over; nothing older than its snapshot is.
    let held = db.store().version_count() as u64;
    assert!(held >= 2 * commits + ROWS, "{held} versions");
    assert!(held <= 2 * commits + before, "{held} versions");
    assert_eq!((balance(&t1, x), balance(&t1, y)), (x0, y0));
    assert_eq!(t1.sum_where(&all, "balance").unwrap(), 50 * ROWS as i64);
    t1.commit().unwrap();

    // T1 is gone: the next writes collapse the chains.
    for i in 0..2 * ROWS {
        round(i, 1);
    }
    let after = db.store().version_count() as u64;
    assert!(
        after <= 3 * ROWS,
        "{after} versions after the snapshot ended"
    );
    assert_eq!(db.sum_committed(&all, "balance"), 50 * ROWS as i64);
}

/// First-Committer-Wins needs only the versions committed after the
/// loser's Start-Timestamp, and the mark never passes a live
/// Start-Timestamp: a stale writer still loses, however much was pruned
/// below its snapshot, and its rollback restores the retained version.
#[test]
fn first_committer_wins_still_fires_across_a_pruned_over_commit() {
    let db = database(IsolationLevel::SnapshotIsolation);
    let x = accounts(&db, 1)[0];
    let bump = |by: i64| {
        let txn = db.begin();
        let now = balance(&txn, x);
        txn.update(TABLE, x, Row::new().with("balance", now + by))
            .unwrap();
        txn.commit().unwrap();
    };
    for _ in 0..50 {
        bump(1);
    }
    let stale = db.begin();
    assert_eq!(balance(&stale, x), 100);
    for _ in 0..50 {
        bump(1);
    }
    // Versions at or below the stale snapshot were pruned down to the one
    // it reads; the fifty above it are all retained.
    let versions = db.store().version_count();
    assert!((51..=52).contains(&versions), "{versions} versions");

    stale
        .update(TABLE, x, Row::new().with("balance", 0))
        .unwrap();
    assert_eq!(balance(&stale, x), 0, "its own write is in its snapshot");
    assert!(matches!(
        stale.commit(),
        Err(TxnError::FirstCommitterConflict { .. })
    ));
    assert_eq!(stale.status(), TxnStatus::Aborted);
    assert_eq!(
        db.read_committed(TABLE, x).unwrap().get_int("balance"),
        Some(150)
    );
    // A rollback publishes no mark; the next commit does, and the write
    // after it collapses the chain.
    bump(1);
    bump(1);
    assert!(db.store().version_count() <= 2);
}

/// Rollback after a prune: at a locking level the writer that aborts has
/// itself just pruned the row, and the before-image it restores is the
/// boundary version pruning always keeps.
#[test]
fn abort_after_a_prune_restores_the_retained_before_image() {
    for level in [
        IsolationLevel::ReadCommitted,
        IsolationLevel::Serializable,
        IsolationLevel::SnapshotIsolation,
    ] {
        let db = database(level);
        let x = accounts(&db, 1)[0];
        for i in 1..=20 {
            let txn = db.begin();
            txn.update(TABLE, x, Row::new().with("balance", 50 + i))
                .unwrap();
            txn.commit().unwrap();
        }
        let doomed = db.begin();
        doomed
            .update(TABLE, x, Row::new().with("balance", -1))
            .unwrap();
        doomed.delete(TABLE, x).unwrap();
        assert!(db.store().version_count() <= 4, "{level}");
        doomed.abort().unwrap();
        assert_eq!(
            db.read_committed(TABLE, x).unwrap().get_int("balance"),
            Some(70),
            "{level}"
        );
        let after = db.begin();
        assert_eq!(balance(&after, x), 70, "{level}");
        after.commit().unwrap();
        assert_eq!(db.store().version_count(), 1, "{level}");
    }
}

/// Oracle Read Consistency reads as of each statement's start, which is
/// never before the transaction's own: one long transaction keeps seeing
/// the latest committed counter while a writer thread commits and prunes.
#[test]
fn read_consistency_statements_see_the_latest_commit_mid_storm() {
    let db = database(IsolationLevel::OracleReadConsistency);
    let x = accounts(&db, 1)[0];
    let commits = scaled(5_000, 1_000) as i64;
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for _ in 0..commits {
                let txn = db.begin();
                let now = balance(&txn, x);
                txn.update(TABLE, x, Row::new().with("balance", now + 1))
                    .unwrap();
                txn.commit().unwrap();
            }
            done.store(true, Ordering::Release);
        });
        let reader = db.begin();
        let mut last = 50;
        while !done.load(Ordering::Acquire) {
            let floor = db.read_committed(TABLE, x).unwrap().get_int("balance");
            let seen = balance(&reader, x);
            assert!(
                seen >= last,
                "a statement went back in time: {seen} < {last}"
            );
            assert!(Some(seen) >= floor, "a statement missed a commit before it");
            last = seen;
        }
        assert_eq!(balance(&reader, x), 50 + commits);
        reader.commit().unwrap();
        writer.join().unwrap();
    });
    let txn = db.begin();
    txn.update(TABLE, x, Row::new().with("balance", 0)).unwrap();
    txn.commit().unwrap();
    assert!(db.store().version_count() <= 2);
}

/// The begin/publish race: a transaction that has read the clock but not
/// yet entered the registry must not lose its snapshot to a committer
/// computing the mark in between.  Readers begin as fast as they can
/// while writers commit and prune as fast as they can; a lost snapshot
/// reads a missing row or a sum that is not 100·rows.
#[test]
fn a_beginning_snapshot_never_loses_its_data_to_a_concurrent_mark() {
    const ROWS: u64 = 4;
    let db = database(IsolationLevel::SnapshotIsolation);
    let ids = accounts(&db, ROWS);
    let done = AtomicBool::new(false);
    let transfers = scaled(40_000, 4_000);
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let (db, ids) = (&db, &ids);
                scope.spawn(move || {
                    for i in 0..transfers {
                        let from = ids[((i + w) % ROWS) as usize];
                        let to = ids[((i + w + 1) % ROWS) as usize];
                        transfer(db, from, to, 1);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (db, ids, done) = (&db, &ids, &done);
                scope.spawn(move || {
                    let mut snapshots = 0u64;
                    while !done.load(Ordering::Acquire) {
                        let txn = db.begin();
                        let sum: i64 = ids.iter().map(|id| balance(&txn, *id)).sum();
                        assert_eq!(sum, 50 * ROWS as i64, "snapshot {snapshots} is torn");
                        txn.commit().unwrap();
                        snapshots += 1;
                    }
                    snapshots
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        done.store(true, Ordering::Release);
        for reader in readers {
            assert!(reader.join().unwrap() > 0);
        }
    });
    let all = RowPredicate::whole_table(TABLE);
    assert_eq!(db.sum_committed(&all, "balance"), 50 * ROWS as i64);
    for (i, id) in ids.iter().enumerate() {
        transfer(&db, *id, ids[(i + 1) % ids.len()], 1);
    }
    assert!(db.store().version_count() as u64 <= 3 * ROWS);
}

/// At a locking level nothing ever registers a snapshot, so the mark
/// follows the clock: under a million read-modify-writes by two clients
/// no chain ever holds more than two committed versions (plus the one
/// being written).
#[test]
fn a_locking_level_storm_keeps_two_committed_versions_per_row() {
    const ROWS: u64 = 8;
    for level in [IsolationLevel::ReadCommitted, IsolationLevel::Serializable] {
        let db = database(level);
        let ids = accounts(&db, ROWS);
        let updates = scaled(500_000, 10_000);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2u64)
                .map(|c| {
                    let (db, ids) = (&db, &ids);
                    scope.spawn(move || {
                        for i in 0..updates {
                            let id = ids[((i * (c + 1) + c) % ROWS) as usize];
                            let txn = db.begin();
                            let now = txn
                                .read_for_update(TABLE, id)
                                .unwrap()
                                .unwrap()
                                .get_int("balance")
                                .unwrap();
                            txn.update(TABLE, id, Row::new().with("balance", now + 1))
                                .unwrap();
                            txn.commit().unwrap();
                        }
                    })
                })
                .collect();
            let sampler = scope.spawn(|| {
                let mut most = 0;
                while !done.load(Ordering::Acquire) {
                    most = most.max(db.store().version_count() as u64);
                }
                most
            });
            for client in clients {
                client.join().unwrap();
            }
            done.store(true, Ordering::Release);
            // Two committed per row, and one uncommitted per client.
            let most = sampler.join().unwrap();
            assert!(most <= 2 * ROWS + 2, "{level}: {most} versions at once");
        });
        assert!(db.store().version_count() as u64 <= 2 * ROWS, "{level}");
        let all = RowPredicate::whole_table(TABLE);
        assert_eq!(
            db.sum_committed(&all, "balance"),
            (50 * ROWS + 2 * updates) as i64,
            "{level}: no update was lost"
        );
        assert_eq!(db.locks_held(), 0);
    }
}
