//! Torn-tail recovery: the write-ahead log must tolerate a final frame
//! truncated at *any* byte boundary, dropping exactly the unterminated
//! suffix and never a committed record.
//!
//! The harness builds one write-ahead file from a known serial workload
//! (txn `k` commits value `k` at timestamp `k`), then recovers a copy of
//! the directory truncated at every prefix length.  Two invariants are
//! checked at each boundary:
//!
//! * **no committed record is lost** — if recovery reports
//!   `last_commit_ts == k`, every transaction `1..=k` is fully readable
//!   (latest value and each historical version);
//! * **exactly the suffix is dropped** — the recovered commit count is
//!   monotone in the prefix length, grows by at most one commit per
//!   byte, and reaches the full count at the untruncated length.

use critique_storage::{LogStore, LogStoreConfig, Row, RowId, StorageBackend, Timestamp, TxnToken};
use std::fs;
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "critique-torn-tail-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn balance_row(v: i64) -> Row {
    Row::new().with("balance", v)
}

/// Write the reference log: insert then N-1 updates of one row, each
/// committed at its own timestamp.  Returns the wal bytes and manifest.
fn build_reference_log(commits: u64) -> (Vec<u8>, Vec<u8>) {
    let dir = scratch_dir("reference");
    {
        let store = LogStore::open_durable(&dir, LogStoreConfig::default()).unwrap();
        let id = store.insert("t", TxnToken(1), balance_row(1));
        assert_eq!(id, RowId(0));
        store.commit(TxnToken(1), Timestamp(1));
        for k in 2..=commits {
            store
                .update("t", TxnToken(k), RowId(0), balance_row(k as i64))
                .unwrap();
            store.commit(TxnToken(k), Timestamp(k));
        }
    }
    let wal = fs::read(dir.join("wal-0-0-0.seg")).unwrap();
    let manifest = fs::read(dir.join("MANIFEST")).unwrap();
    let _ = fs::remove_dir_all(&dir);
    (wal, manifest)
}

#[test]
fn recovery_tolerates_a_torn_tail_at_every_byte_boundary() {
    const COMMITS: u64 = 12;
    let (wal, manifest) = build_reference_log(COMMITS);
    let dir = scratch_dir("truncate");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("MANIFEST"), &manifest).unwrap();

    let mut prev_commits = 0u64;
    for len in 0..=wal.len() {
        fs::write(dir.join("wal-0-0-0.seg"), &wal[..len]).unwrap();
        let store = LogStore::recover(&dir)
            .unwrap_or_else(|e| panic!("recovery at truncation {len} failed: {e}"));
        let recovered = store.last_commit_ts().map_or(0, |ts| ts.0);

        // Exactly the suffix is dropped: monotone, at most one commit per
        // extra byte (a commit frame completes at a single length).
        assert!(
            recovered >= prev_commits,
            "truncation {len}: commit count went backwards ({prev_commits} -> {recovered})"
        );
        assert!(
            recovered - prev_commits <= 1,
            "truncation {len}: {} commits appeared at one byte boundary",
            recovered - prev_commits
        );
        prev_commits = recovered;

        // Never a committed record lost: every covered transaction is
        // fully readable, latest and historically.
        if recovered > 0 {
            assert_eq!(
                store
                    .get_latest_committed("t", RowId(0))
                    .unwrap()
                    .get_int("balance"),
                Some(recovered as i64),
                "truncation {len}: latest committed value"
            );
            for k in 1..=recovered {
                assert_eq!(
                    store
                        .get_committed_as_of("t", RowId(0), Timestamp(k))
                        .unwrap()
                        .get_int("balance"),
                    Some(k as i64),
                    "truncation {len}: version committed at ts {k}"
                );
            }
        } else {
            assert!(store.get_latest_committed("t", RowId(0)).is_none());
        }

        // Whatever survived must itself recover identically: the torn
        // suffix was truncated away on disk, not just skipped in memory.
        drop(store);
        let again = LogStore::recover(&dir).unwrap();
        assert_eq!(
            again.last_commit_ts().map_or(0, |ts| ts.0),
            recovered,
            "truncation {len}: second recovery disagrees with the first"
        );
    }
    assert_eq!(
        prev_commits, COMMITS,
        "the untruncated log must recover every commit"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_frame_in_a_sealed_file_is_corruption() {
    // Two wal files (a sealed one and the open tail): a torn frame in the
    // *sealed* file is not a crash artefact — recovery must refuse it.
    let dir = scratch_dir("sealed-tear");
    {
        let store = LogStore::open_durable(
            &dir,
            LogStoreConfig {
                segment_records: 2,
                compact_watermark: 1024,
                ..LogStoreConfig::default()
            },
        )
        .unwrap();
        for k in 0..4u64 {
            store.insert("t", TxnToken(10 + k), balance_row(k as i64));
            store.commit(TxnToken(10 + k), Timestamp(1 + k));
        }
        assert!(store.segment_count() >= 2);
    }
    let sealed = dir.join("wal-0-0-0.seg");
    let bytes = fs::read(&sealed).unwrap();
    fs::write(&sealed, &bytes[..bytes.len() - 1]).unwrap();
    let err = LogStore::recover(&dir).expect_err("a torn sealed file must fail recovery");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_middle_file_in_a_chain_is_refused() {
    // A lost sealed file is corruption, not absent data: silently
    // replaying the rest of the chain would drop committed records
    // without a word.  Recovery must refuse the gap.
    let dir = scratch_dir("chain-gap");
    {
        let store = LogStore::open_durable(
            &dir,
            LogStoreConfig {
                segment_records: 2,
                ..LogStoreConfig::default()
            },
        )
        .unwrap();
        for k in 0..6u64 {
            store.insert("t", TxnToken(10 + k), balance_row(k as i64));
            store.commit(TxnToken(10 + k), Timestamp(1 + k));
        }
        assert!(store.segment_count() >= 3);
    }
    fs::remove_file(dir.join("wal-0-0-1.seg")).unwrap();
    let err = LogStore::recover(&dir).expect_err("a gapped chain must fail recovery");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wholly_missing_shard_chain_is_refused() {
    // Every shard's chain exists from the moment the store opens; a
    // shard with no files for its live generation lost them.  Treating
    // it as "no data" would silently erase that shard's committed rows.
    let dir = scratch_dir("missing-chain");
    {
        let store = LogStore::open_durable(
            &dir,
            LogStoreConfig {
                shards: 2,
                ..LogStoreConfig::default()
            },
        )
        .unwrap();
        for i in 0..4 {
            store.insert("t", TxnToken(1), balance_row(i));
        }
        store.commit(TxnToken(1), Timestamp(1));
    }
    fs::remove_file(dir.join("wal-1-0-0.seg")).unwrap();
    let err = LogStore::recover(&dir).expect_err("a missing shard chain must fail recovery");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_deletes_orphans_of_other_generations() {
    let dir = scratch_dir("orphans");
    {
        let store = LogStore::open_durable(&dir, LogStoreConfig::default()).unwrap();
        store.insert("t", TxnToken(1), balance_row(7));
        store.commit(TxnToken(1), Timestamp(1));
    }
    // A rewrite that crashed before its manifest swap leaves files of a
    // generation the manifest never names; a crashed re-shard can leave
    // files of a shard the manifest does not cover.
    fs::write(dir.join("wal-0-9-0.seg"), b"garbage from a dead rewrite").unwrap();
    fs::write(dir.join("wal-7-0-0.seg"), b"garbage from a dead re-shard").unwrap();
    let store = LogStore::recover(&dir).unwrap();
    assert_eq!(
        store
            .get_latest_committed("t", RowId(0))
            .unwrap()
            .get_int("balance"),
        Some(7)
    );
    assert!(
        !dir.join("wal-0-9-0.seg").exists(),
        "orphan must be deleted"
    );
    assert!(
        !dir.join("wal-7-0-0.seg").exists(),
        "out-of-range shard orphan must be deleted"
    );
    drop(store);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn one_shard_torn_tail_recovers_consistently_across_shards() {
    // The sharded layout's crash surface: one shard's open file loses its
    // un-synced tail while every other shard is clean.  Per-shard torn-tail
    // truncation plus the cross-shard commit merge must still produce a
    // consistent store — all committed transactions readable, the
    // commit-less writer aborted everywhere.
    let dir = scratch_dir("shard-tear");
    let cfg = LogStoreConfig {
        shards: 4,
        ..LogStoreConfig::default()
    };
    {
        let store = LogStore::open_durable(&dir, cfg).unwrap();
        for i in 0..8 {
            store.insert("t", TxnToken(1), balance_row(i));
        }
        store.commit(TxnToken(1), Timestamp(1));
        for k in 0..8u64 {
            store
                .update("t", TxnToken(2 + k), RowId(k), balance_row(100 + k as i64))
                .unwrap();
            store.commit(TxnToken(2 + k), Timestamp(2 + k));
        }
        // In flight at the crash, touching every row: every data shard's
        // open file ends in commit-less Write frames.
        for k in 0..8u64 {
            store
                .update("t", TxnToken(50), RowId(k), balance_row(-1))
                .unwrap();
        }
    }
    // Tear one data shard's tail mid-frame; the others stay clean.
    let torn = (1..4)
        .find(|sid| {
            let path = dir.join(format!("wal-{sid}-0-0.seg"));
            match fs::read(&path) {
                Ok(bytes) if !bytes.is_empty() => {
                    fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
                    true
                }
                _ => false,
            }
        })
        .expect("8 rows over 4 shards must populate a data shard");
    let store = LogStore::recover(&dir).unwrap();
    for k in 0..8u64 {
        assert_eq!(
            store
                .get_latest_committed("t", RowId(k))
                .unwrap()
                .get_int("balance"),
            Some(100 + k as i64),
            "row {k} after tearing shard {torn}"
        );
    }
    assert_eq!(store.last_commit_ts(), Some(Timestamp(9)));
    assert!(
        store.writes_of(TxnToken(50)).is_empty(),
        "the commit-less writer lost the crash in every shard"
    );
    // The recovered store recovers again to the same state: the torn
    // suffix was truncated on disk, not just skipped in memory.
    drop(store);
    let again = LogStore::recover(&dir).unwrap();
    assert_eq!(again.last_commit_ts(), Some(Timestamp(9)));
    assert_eq!(again.committed_row_count("t"), 8);
    drop(again);
    let _ = fs::remove_dir_all(&dir);
}
