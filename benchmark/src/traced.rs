//! `TracedBackend`: a [`StorageBackend`] decorator that opens a span around
//! every call the engine makes into storage.
//!
//! Injected with `Database::with_store`, it is the layer boundary between
//! `engine` and `store`/`logstore` as seen from outside both: an engine
//! span's own time is what is left after these child spans are taken out.
//! On a thread that is not recording, each call costs one thread-local
//! check.

use crate::span::{enter, SpanId};
use critique_storage::{
    KeyInterval, Row, RowId, RowPredicate, ScanView, Snapshot, StorageBackend, StorageError,
    TableName, Timestamp, TxnToken, WriteKind,
};
use std::any::Any;

#[derive(Debug)]
pub struct TracedBackend {
    inner: Box<dyn StorageBackend>,
}

impl TracedBackend {
    pub fn new(inner: Box<dyn StorageBackend>) -> Self {
        TracedBackend { inner }
    }
}

impl StorageBackend for TracedBackend {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn create_table(&self, table: &str) {
        self.inner.create_table(table)
    }

    fn tables(&self) -> Vec<TableName> {
        self.inner.tables()
    }

    fn row_ids(&self, table: &str) -> Vec<RowId> {
        self.inner.row_ids(table)
    }

    fn insert(&self, table: &str, writer: TxnToken, row: Row) -> RowId {
        let _span = enter(SpanId::StoreOther);
        self.inner.insert(table, writer, row)
    }

    fn update(
        &self,
        table: &str,
        writer: TxnToken,
        id: RowId,
        row: Row,
    ) -> Result<(), StorageError> {
        let _span = enter(SpanId::StoreUpdate);
        self.inner.update(table, writer, id, row)
    }

    fn delete(&self, table: &str, writer: TxnToken, id: RowId) -> Result<(), StorageError> {
        let _span = enter(SpanId::StoreOther);
        self.inner.delete(table, writer, id)
    }

    fn get_latest_any(&self, table: &str, id: RowId) -> Option<Row> {
        let _span = enter(SpanId::StoreGet);
        self.inner.get_latest_any(table, id)
    }

    fn get_latest_committed(&self, table: &str, id: RowId) -> Option<Row> {
        let _span = enter(SpanId::StoreGet);
        self.inner.get_latest_committed(table, id)
    }

    fn get_committed_as_of(&self, table: &str, id: RowId, ts: Timestamp) -> Option<Row> {
        let _span = enter(SpanId::StoreGet);
        self.inner.get_committed_as_of(table, id, ts)
    }

    fn get_visible(
        &self,
        table: &str,
        id: RowId,
        reader: TxnToken,
        start_ts: Timestamp,
    ) -> Option<Row> {
        let _span = enter(SpanId::StoreGet);
        self.inner.get_visible(table, id, reader, start_ts)
    }

    fn scan_latest_any(&self, predicate: &RowPredicate) -> Vec<(RowId, Row)> {
        let _span = enter(SpanId::StoreOther);
        self.inner.scan_latest_any(predicate)
    }

    fn scan_latest_committed(&self, predicate: &RowPredicate) -> Vec<(RowId, Row)> {
        let _span = enter(SpanId::StoreOther);
        self.inner.scan_latest_committed(predicate)
    }

    fn scan_committed_as_of(&self, predicate: &RowPredicate, ts: Timestamp) -> Vec<(RowId, Row)> {
        let _span = enter(SpanId::StoreOther);
        self.inner.scan_committed_as_of(predicate, ts)
    }

    fn scan_visible(
        &self,
        predicate: &RowPredicate,
        reader: TxnToken,
        start_ts: Timestamp,
    ) -> Vec<(RowId, Row)> {
        let _span = enter(SpanId::StoreOther);
        self.inner.scan_visible(predicate, reader, start_ts)
    }

    fn create_index(&self, table: &str, column: &str) {
        self.inner.create_index(table, column)
    }

    fn indexed_column(&self, table: &str) -> Option<String> {
        self.inner.indexed_column(table)
    }

    fn scan_range(
        &self,
        table: &str,
        column: &str,
        range: &KeyInterval,
        view: ScanView,
    ) -> Vec<(RowId, Row)> {
        let _span = enter(SpanId::StoreScanRange);
        self.inner.scan_range(table, column, range, view)
    }

    fn writes_of(&self, writer: TxnToken) -> Vec<(TableName, RowId, WriteKind)> {
        let _span = enter(SpanId::StoreWritesOf);
        self.inner.writes_of(writer)
    }

    fn first_committer_conflict(
        &self,
        writer: TxnToken,
        start_ts: Timestamp,
    ) -> Option<(TableName, RowId)> {
        let _span = enter(SpanId::StoreFcw);
        self.inner.first_committer_conflict(writer, start_ts)
    }

    fn has_foreign_uncommitted_on_writes(&self, writer: TxnToken) -> bool {
        let _span = enter(SpanId::StoreOther);
        self.inner.has_foreign_uncommitted_on_writes(writer)
    }

    fn commit(&self, writer: TxnToken, ts: Timestamp) {
        let _span = enter(SpanId::StoreCommit);
        self.inner.commit(writer, ts)
    }

    fn flush_commit(&self, writer: TxnToken) {
        let _span = enter(SpanId::StoreFlushCommit);
        self.inner.flush_commit(writer)
    }

    fn abort(&self, writer: TxnToken) {
        let _span = enter(SpanId::StoreAbort);
        self.inner.abort(writer)
    }

    fn snapshot(&self, ts: Timestamp) -> Snapshot<'_> {
        self.inner.snapshot(ts)
    }

    fn committed_row_count(&self, table: &str) -> usize {
        self.inner.committed_row_count(table)
    }

    fn version_count(&self) -> usize {
        self.inner.version_count()
    }

    /// The wrapped backend's concrete type, so `MvStore`/`LogStore`
    /// counters stay reachable through `Database::store()`.
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}
