//! Version-pruning storm: writers keep the store stationary against a
//! moving low-water mark while readers hold a snapshot below it.
//!
//! The CI `epoch_stress` leg runs this file in release mode next to the
//! epoch-reclamation storm: pruning is the first thing that retires
//! committed versions on the writers' hot path, so a reader that could
//! lose its snapshot, or a version freed under a pin, shows here.
//!
//! What must hold:
//!
//! - with the mark advanced at every commit, the store never holds more
//!   than three versions per row, however long the storm runs;
//! - with a reader's snapshot holding the mark back, everything committed
//!   above the mark is retained, nothing else is, the reader's
//!   `get_visible`/`scan_visible` answers never change — and the chains
//!   collapse again once the mark is released;
//! - with the mark left at 0 nothing is ever pruned;
//! - in every case `reclaimed_while_pinned == 0` and, after a flush on the
//!   quiesced store, `reclaimed == retired`.

use critique_storage::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

const ROWS: u64 = 8;
const WRITERS: u64 = 2;
/// Fewer rounds in a debug build, where this file also runs under plain
/// `cargo test --workspace`.
const UPDATES_PER_WRITER: u64 = if cfg!(debug_assertions) {
    4_000
} else {
    100_000
};
/// While a snapshot holds the mark every write walks what has piled up
/// above it, so that phase is kept short enough to stay quick.
const UPDATES_UNDER_A_HELD_MARK: u64 = UPDATES_PER_WRITER / 20;

/// How far the storm's writers may push the low-water mark.
#[derive(Clone, Copy)]
enum Mark {
    /// Up to every commit: no snapshot is alive.
    Free,
    /// Never past this timestamp: a snapshot taken there is alive.
    HeldAt(Timestamp),
    /// Not at all: a store nobody told about its readers.
    Untouched,
}

fn seeded() -> (MvStore, TimestampOracle) {
    let store = MvStore::with_shards(4);
    let clock = TimestampOracle::new();
    for i in 0..ROWS {
        store.insert("t", TxnToken(1), Row::new().with("balance", i as i64));
    }
    store.commit(TxnToken(1), clock.next());
    (store, clock)
}

/// Two writers read-modify-write the same eight rows `updates` times
/// each, one abort in sixteen, advancing the mark as `mark` allows after
/// each commit.  A per-row mutex held to the end of the write stands in
/// for the engine's long write locks (without one, a writer stalled on an
/// uncommitted version shields whatever settles above it from pruning
/// until it finishes).  `during` runs on the calling thread until the
/// writers are done.  Returns the number of committed updates.
fn storm(
    store: &MvStore,
    clock: &TimestampOracle,
    first_token: u64,
    updates: u64,
    mark: Mark,
    during: impl FnOnce(&AtomicBool),
) -> u64 {
    let committed = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let low_water = store.low_water_mark();
    let row_locks: Vec<Mutex<()>> = (0..ROWS).map(|_| Mutex::new(())).collect();
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|writer| {
                let (committed, low_water, row_locks) = (&committed, &low_water, &row_locks);
                scope.spawn(move || {
                    for i in 0..updates {
                        let token = TxnToken(first_token + writer * updates + i);
                        let id = RowId((i + writer * 3) % ROWS);
                        let _write_lock = row_locks[id.0 as usize].lock().expect("no panics");
                        let balance = store
                            .get_latest_any("t", id)
                            .and_then(|row| row.get_int("balance"))
                            .expect("row exists");
                        let row = Row::new().with("balance", balance + 1);
                        store.update("t", token, id, row).expect("row exists");
                        if i % 16 == 15 {
                            store.abort(token);
                            continue;
                        }
                        let ts = clock.next();
                        store.commit(token, ts);
                        committed.fetch_add(1, Ordering::Relaxed);
                        match mark {
                            Mark::Free => low_water.advance(ts),
                            Mark::HeldAt(held) => low_water.advance(ts.min(held)),
                            Mark::Untouched => {}
                        }
                    }
                })
            })
            .collect();
        let stopper = scope.spawn(|| {
            for writer in writers {
                writer.join().expect("a writer panicked");
            }
            // Release: `during` sees everything the writers did once it
            // sees the flag.
            done.store(true, Ordering::Release);
        });
        during(&done);
        stopper.join().expect("the stopper panicked");
    });
    committed.load(Ordering::Relaxed)
}

fn assert_reclamation_is_clean(store: &MvStore) {
    store.flush_reclamation();
    let stats = store.reclamation_stats();
    assert_eq!(
        stats.reclaimed_while_pinned, 0,
        "a version was freed before its grace period elapsed"
    );
    assert_eq!(
        stats.reclaimed, stats.retired,
        "retired versions leaked past a full flush on a quiesced store"
    );
}

#[test]
fn a_free_mark_keeps_every_chain_at_three_versions_or_fewer() {
    let (store, clock) = seeded();
    let committed = storm(
        &store,
        &clock,
        100,
        UPDATES_PER_WRITER,
        Mark::Free,
        |done| {
            // Sampled while the writers run: the bound is not an end state.
            // A row at rest holds its boundary and the version the next write
            // will prune; a row being written holds one more.
            while !done.load(Ordering::Acquire) {
                let versions = store.version_count() as u64;
                assert!(versions <= 3 * ROWS, "{versions} versions on {ROWS} rows");
            }
        },
    );
    assert!(committed > 3 * ROWS);
    assert!(store.version_count() as u64 <= 3 * ROWS);
    assert!(store.reclamation_stats().retired >= committed - 3 * ROWS);
    assert_reclamation_is_clean(&store);
}

#[test]
fn a_held_snapshot_keeps_its_answers_and_the_chains_collapse_after_it() {
    let (store, clock) = seeded();
    // History to prune first, so the snapshot is not simply the load.
    storm(&store, &clock, 100, UPDATES_PER_WRITER, Mark::Free, |_| {});
    let before = store.version_count() as u64;
    assert!(before <= 3 * ROWS);

    let held = clock.current();
    let reader = TxnToken(u64::MAX);
    let whole_table = RowPredicate::whole_table("t");
    let snapshot = store.scan_visible(&whole_table, reader, held);
    assert_eq!(snapshot.len() as u64, ROWS);
    let retired_before = store.reclamation_stats().retired;

    let held_at = Mark::HeldAt(held);
    let updates = UPDATES_UNDER_A_HELD_MARK;
    let committed = storm(&store, &clock, 10_000_000, updates, held_at, |done| {
        let mut looks = 0u64;
        while !done.load(Ordering::Acquire) || looks == 0 {
            for (id, row) in &snapshot {
                assert_eq!(
                    store.get_visible("t", *id, reader, held).as_ref(),
                    Some(row)
                );
            }
            assert_eq!(store.scan_visible(&whole_table, reader, held), snapshot);
            looks += 1;
        }
    });
    // Chains grew only above the mark: every version committed after the
    // snapshot is still there, and below it nothing that was not there
    // when the snapshot was taken — of which only versions older than a
    // row's boundary were pruned (the rest of the retirements are the
    // aborted sixteenth).
    let versions = store.version_count() as u64;
    assert!(versions >= committed + ROWS, "{versions} of {committed}");
    assert!(versions <= committed + before, "{versions} of {committed}");
    let aborted = WRITERS * updates - committed;
    let pruned = store.reclamation_stats().retired - retired_before - aborted;
    assert!(pruned <= before - ROWS, "{pruned} pruned of {before}");
    assert_eq!(store.scan_visible(&whole_table, reader, held), snapshot);

    // The snapshot ends: one more pass over the rows and the count is
    // back where a free mark keeps it.
    store.low_water_mark().advance(clock.current());
    storm(
        &store,
        &clock,
        20_000_000,
        UPDATES_PER_WRITER,
        Mark::Free,
        |_| {},
    );
    assert!(store.version_count() as u64 <= 3 * ROWS);
    assert_reclamation_is_clean(&store);
}

#[test]
fn an_untouched_mark_prunes_nothing() {
    let (store, clock) = seeded();
    let updates = UPDATES_UNDER_A_HELD_MARK;
    let committed = storm(&store, &clock, 100, updates, Mark::Untouched, |_| {});
    assert_eq!(store.low_water_mark().get(), Timestamp(0));
    assert_eq!(store.version_count() as u64, ROWS + committed);
    // Only the aborted sixteenth was ever retired.
    assert_eq!(
        store.reclamation_stats().retired,
        WRITERS * updates - committed
    );
    // Time travel to the load still works.
    for i in 0..ROWS {
        assert_eq!(
            store
                .get_committed_as_of("t", RowId(i), Timestamp(1))
                .and_then(|row| row.get_int("balance")),
            Some(i as i64)
        );
    }
    assert_reclamation_is_clean(&store);
}
