//! End-to-end semantics of commit-time change notification.
//!
//! The invariants under test are the ones `crates/engine/src/watch.rs`
//! promises (and the conformance exerciser holds at scale):
//!
//! * events carry committed values only — aborted transactions notify
//!   nothing (P1-freedom for observers);
//! * exactly one event per matching commit, in commit-timestamp order,
//!   on both storage backends;
//! * predicate watchers fire on either image (rows entering *and*
//!   leaving the predicate);
//! * delivery composes with group commit (no event before the batch
//!   leader's fsync returns);
//! * a database with watchers disabled hands out inert subscriptions.

use critique_core::IsolationLevel;
use critique_engine::prelude::*;
use critique_storage::{Comparison, Condition, Row, RowId};

fn db_on(backend: BackendKind) -> Database {
    Database::with_config(EngineConfig::new(IsolationLevel::Serializable).with_backend(backend))
}

#[test]
fn committed_writes_notify_with_before_and_after_images() {
    for backend in BackendKind::ALL {
        let db = db_on(backend);
        let setup = db.begin();
        let id = setup
            .insert("accounts", Row::new().with("balance", 100))
            .unwrap();
        setup.commit().unwrap();

        let watcher = db.watch_key("accounts", id);
        let t = db.begin();
        t.update("accounts", id, Row::new().with("balance", 60))
            .unwrap();
        t.commit().unwrap();

        let event = watcher
            .try_recv()
            .unwrap_or_else(|| panic!("{backend}: committed update produced no notification"));
        assert_eq!(event.changes.len(), 1, "{backend}");
        let change = &event.changes[0];
        assert_eq!(change.kind, ChangeKind::Updated, "{backend}");
        assert_eq!(
            change.before.as_ref().and_then(|r| r.get_int("balance")),
            Some(100),
            "{backend}: before image must be the pre-commit committed value"
        );
        assert_eq!(
            change.after.as_ref().and_then(|r| r.get_int("balance")),
            Some(60),
            "{backend}"
        );
        assert!(watcher.try_recv().is_none(), "{backend}: exactly one event");
    }
}

#[test]
fn aborted_transactions_notify_nothing() {
    for backend in BackendKind::ALL {
        let db = db_on(backend);
        let setup = db.begin();
        let id = setup
            .insert("accounts", Row::new().with("balance", 100))
            .unwrap();
        setup.commit().unwrap();

        let key = db.watch_key("accounts", id);
        let table = db.watch_table("accounts");
        let predicate = db.watch_predicate("accounts", Condition::True);

        let t = db.begin();
        t.update("accounts", id, Row::new().with("balance", -1))
            .unwrap();
        t.abort().unwrap();

        // A dropped-while-active transaction rolls back too.
        let t = db.begin();
        t.update("accounts", id, Row::new().with("balance", -2))
            .unwrap();
        drop(t);

        for (name, w) in [("key", &key), ("table", &table), ("predicate", &predicate)] {
            assert_eq!(
                w.pending(),
                0,
                "{backend}: {name} watcher saw an aborted write"
            );
        }

        // The rolled-back value never leaks into a later event's images.
        let t = db.begin();
        t.update("accounts", id, Row::new().with("balance", 70))
            .unwrap();
        t.commit().unwrap();
        let event = key.try_recv().unwrap();
        assert_eq!(
            event.changes[0]
                .before
                .as_ref()
                .and_then(|r| r.get_int("balance")),
            Some(100),
            "{backend}: before image must skip aborted versions"
        );
    }
}

#[test]
fn insert_update_delete_report_net_kinds() {
    for backend in BackendKind::ALL {
        let db = db_on(backend);
        let watcher = db.watch_table("t");

        let t = db.begin();
        let id = t.insert("t", Row::new().with("value", 1)).unwrap();
        t.commit().unwrap();
        assert_eq!(
            watcher.try_recv().unwrap().changes[0].kind,
            ChangeKind::Inserted,
            "{backend}"
        );

        let t = db.begin();
        t.update("t", id, Row::new().with("value", 2)).unwrap();
        t.commit().unwrap();
        assert_eq!(
            watcher.try_recv().unwrap().changes[0].kind,
            ChangeKind::Updated,
            "{backend}"
        );

        let t = db.begin();
        t.delete("t", id).unwrap();
        t.commit().unwrap();
        let event = watcher.try_recv().unwrap();
        assert_eq!(event.changes[0].kind, ChangeKind::Deleted, "{backend}");
        assert_eq!(event.changes[0].after, None, "{backend}");

        // Insert + delete inside one transaction nets out to nothing.
        let t = db.begin();
        let ghost = t.insert("t", Row::new().with("value", 9)).unwrap();
        t.delete("t", ghost).unwrap();
        t.commit().unwrap();
        assert_eq!(
            watcher.pending(),
            0,
            "{backend}: net no-op commit must not notify"
        );
    }
}

#[test]
fn one_event_per_commit_in_commit_order() {
    for backend in BackendKind::ALL {
        let db = db_on(backend);
        let watcher = db.watch_table("accounts");
        let mut ids: Vec<RowId> = Vec::new();
        for i in 0..5 {
            let t = db.begin();
            ids.push(t.insert("accounts", Row::new().with("balance", i)).unwrap());
            // A multi-row commit still produces one event.
            if i == 3 {
                t.insert("accounts", Row::new().with("balance", 100 + i))
                    .unwrap();
            }
            t.commit().unwrap();
        }
        let events = watcher.drain();
        assert_eq!(events.len(), 5, "{backend}: one event per commit");
        let mut last = None;
        for event in &events {
            assert!(
                last.is_none_or(|prev| prev < event.commit_ts),
                "{backend}: commit timestamps must be strictly increasing"
            );
            last = Some(event.commit_ts);
        }
        assert_eq!(events[3].changes.len(), 2, "{backend}");
    }
}

#[test]
fn predicate_watchers_fire_on_rows_entering_and_leaving() {
    for backend in BackendKind::ALL {
        let db = db_on(backend);
        let setup = db.begin();
        let low = setup
            .insert("accounts", Row::new().with("balance", 10))
            .unwrap();
        let high = setup
            .insert("accounts", Row::new().with("balance", 500))
            .unwrap();
        setup.commit().unwrap();

        let rich = db.watch_predicate(
            "accounts",
            Condition::compare("balance", Comparison::Gt, 100),
        );

        // Stays below the threshold: no event.
        let t = db.begin();
        t.update("accounts", low, Row::new().with("balance", 20))
            .unwrap();
        t.commit().unwrap();
        assert_eq!(rich.pending(), 0, "{backend}");

        // Enters the predicate.
        let t = db.begin();
        t.update("accounts", low, Row::new().with("balance", 300))
            .unwrap();
        t.commit().unwrap();
        assert_eq!(rich.pending(), 1, "{backend}");
        assert_eq!(rich.try_recv().unwrap().changes[0].row, low);

        // Leaves the predicate: the before image matched, so it fires.
        let t = db.begin();
        t.update("accounts", high, Row::new().with("balance", 5))
            .unwrap();
        t.commit().unwrap();
        assert_eq!(rich.try_recv().unwrap().changes[0].row, high);

        // Other tables never leak in.
        let t = db.begin();
        t.insert("orders", Row::new().with("balance", 9999))
            .unwrap();
        t.commit().unwrap();
        assert_eq!(rich.pending(), 0, "{backend}");
    }
}

#[test]
fn group_commit_batches_notify_after_the_fsync() {
    // A durable log-structured database under group commit: the event
    // arrives only once `flush_commit` (the batch leader's fsync) has
    // returned — which `Transaction::commit` awaits, so observing the
    // event after `commit()` returns proves publication sits behind the
    // durability barrier rather than the in-memory stamp.
    let db = Database::with_config(
        EngineConfig::new(IsolationLevel::SnapshotIsolation)
            .with_backend(BackendKind::LogStructured)
            .with_durability(Durability::Fsync)
            .with_group_commit(GroupCommit::On { window_micros: 100 }),
    );
    let watcher = db.watch_table("t");
    let t = db.begin();
    t.insert("t", Row::new().with("value", 1)).unwrap();
    t.commit().unwrap();
    let event = watcher
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("durable group-commit batch must notify after its fsync");
    assert_eq!(event.changes.len(), 1);
}

#[test]
fn dropped_watchers_stop_receiving() {
    let db = db_on(BackendKind::MvStore);
    let keep = db.watch_table("t");
    let dropped = db.watch_table("t");
    drop(dropped);
    let t = db.begin();
    t.insert("t", Row::new().with("value", 1)).unwrap();
    t.commit().unwrap();
    assert_eq!(keep.pending(), 1);
}

#[test]
fn concurrent_committers_deliver_in_timestamp_order() {
    // Racing writers on both backends: every subscriber's stream must be
    // strictly increasing in commit timestamp with no gaps or duplicates
    // per commit, regardless of wake order after the commit lock.
    for backend in BackendKind::ALL {
        let db = Database::with_config(
            EngineConfig::new(IsolationLevel::SnapshotIsolation)
                .with_backend(backend)
                .blocking(2_000),
        );
        let watcher = db.watch_table("accounts");
        let threads = 4;
        let per_thread = 25;
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let db = db.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let t = db.begin();
                        t.insert(
                            "accounts",
                            Row::new().with("balance", (worker * per_thread + i) as i64),
                        )
                        .unwrap();
                        t.commit().unwrap();
                    }
                });
            }
        });
        let events = watcher.drain();
        assert_eq!(
            events.len(),
            threads * per_thread,
            "{backend}: one event per committed transaction"
        );
        for pair in events.windows(2) {
            assert!(
                pair[0].commit_ts < pair[1].commit_ts,
                "{backend}: delivery must follow commit-timestamp order"
            );
        }
    }
}
