//! Spans recorded from outside the engine, around the calls into each layer.
//!
//! Each client thread owns a [`Tracer`]: a span stack plus per-span-name
//! aggregates.  A span's *own* amount is its duration minus what its child
//! spans cover, so the own amounts of a transaction's spans add up to its
//! root span exactly.  The same arithmetic runs over three meters at once —
//! nanoseconds, allocation calls and allocated bytes — so the timed traced
//! run and the timer-free count pass share one implementation: the traced
//! run reads only the clock, the count pass only the allocator's counters.
//!
//! Every 64th transaction keeps its full spans in memory (name, start,
//! end, parent, transaction id); they are written out when the run ends.

use crate::alloc;
use crate::hist::Histogram;
use std::cell::RefCell;
use std::io::{self, Write};
use std::time::Instant;

/// The span names, grouped by the layer whose call they wrap.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum SpanId {
    /// Root span of a read-only logical transaction, retries included.
    TxnRo,
    /// Root span of a logical transaction that writes.
    TxnRw,
    EngineBegin,
    EngineRead,
    EngineUpdate,
    EngineReadRange,
    EngineCommit,
    StoreGet,
    StoreUpdate,
    StoreCommit,
    StoreFcw,
    StoreAbort,
    StoreScanRange,
    StoreFlushCommit,
    StoreWritesOf,
    StoreOther,
}

pub const SPANS: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// The benchmark's own loop: the part of a root span no engine call
    /// covers.
    Bench,
    Engine,
    Store,
}

impl SpanId {
    pub const ALL: [SpanId; SPANS] = [
        SpanId::TxnRo,
        SpanId::TxnRw,
        SpanId::EngineBegin,
        SpanId::EngineRead,
        SpanId::EngineUpdate,
        SpanId::EngineReadRange,
        SpanId::EngineCommit,
        SpanId::StoreGet,
        SpanId::StoreUpdate,
        SpanId::StoreCommit,
        SpanId::StoreFcw,
        SpanId::StoreAbort,
        SpanId::StoreScanRange,
        SpanId::StoreFlushCommit,
        SpanId::StoreWritesOf,
        SpanId::StoreOther,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpanId::TxnRo => "txn.read_only",
            SpanId::TxnRw => "txn.read_write",
            SpanId::EngineBegin => "engine.begin",
            SpanId::EngineRead => "engine.read",
            SpanId::EngineUpdate => "engine.update",
            SpanId::EngineReadRange => "engine.read_range",
            SpanId::EngineCommit => "engine.commit",
            SpanId::StoreGet => "store.get",
            SpanId::StoreUpdate => "store.update",
            SpanId::StoreCommit => "store.commit",
            SpanId::StoreFcw => "store.fcw_check",
            SpanId::StoreAbort => "store.abort",
            SpanId::StoreScanRange => "store.scan_range",
            SpanId::StoreFlushCommit => "store.flush_commit",
            SpanId::StoreWritesOf => "store.writes_of",
            SpanId::StoreOther => "store.other",
        }
    }

    pub fn layer(self) -> Layer {
        match self {
            SpanId::TxnRo | SpanId::TxnRw => Layer::Bench,
            SpanId::EngineBegin
            | SpanId::EngineRead
            | SpanId::EngineUpdate
            | SpanId::EngineReadRange
            | SpanId::EngineCommit => Layer::Engine,
            _ => Layer::Store,
        }
    }

    pub fn is_root(self) -> bool {
        self.layer() == Layer::Bench
    }
}

/// One reading of the three meters: nanoseconds, allocation calls,
/// allocated bytes.
pub type Reading = [u64; 3];
pub const NS: usize = 0;
pub const ALLOCS: usize = 1;
pub const BYTES: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    Off,
    /// Read the clock at span boundaries.
    Timed,
    /// Read the allocator's counters at span boundaries; no timers.
    Count,
}

/// Keep the full spans of every `SAMPLE_EVERY`-th transaction …
const SAMPLE_EVERY: u64 = 64;
/// … up to this many transactions per client, which bounds the trace file.
const MAX_SAMPLED_TXNS: u32 = 2048;

struct Open {
    id: SpanId,
    start: Reading,
    children: Reading,
    record: Option<u32>,
}

/// Per-span-name totals.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    /// Summed span amounts, children included.
    pub total: Reading,
    /// Summed own amounts: span minus its children.
    pub own: Reading,
}

/// A fully recorded span of a sampled transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    pub client: u32,
    pub txn: u64,
    pub id: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span among this client's records.
    pub parent: Option<u32>,
}

/// What one thread (or, merged, one run) recorded.
pub struct Trace {
    pub agg: [Agg; SPANS],
    /// Span durations per name (nanoseconds; filled in timed mode only).
    pub hist: Vec<Histogram>,
    pub records: Vec<SpanRecord>,
}

impl Trace {
    fn new() -> Self {
        Trace {
            agg: [Agg::default(); SPANS],
            hist: (0..SPANS).map(|_| Histogram::new()).collect(),
            records: Vec::new(),
        }
    }

    pub fn merge(&mut self, other: Trace) {
        for (mine, theirs) in self.agg.iter_mut().zip(other.agg.iter()) {
            mine.count += theirs.count;
            for m in 0..3 {
                mine.total[m] += theirs.total[m];
                mine.own[m] += theirs.own[m];
            }
        }
        for (mine, theirs) in self.hist.iter_mut().zip(other.hist.iter()) {
            mine.merge(theirs);
        }
        // Parent links index into the owning client's records; rebase them.
        let base = self.records.len() as u32;
        self.records.extend(other.records.into_iter().map(|mut r| {
            r.parent = r.parent.map(|p| p + base);
            r
        }));
    }

    pub fn of(&self, id: SpanId) -> &Agg {
        &self.agg[id as usize]
    }

    /// Summed own amount of every span of `layer`.
    pub fn layer_own(&self, layer: Layer, meter: usize) -> u64 {
        SpanId::ALL
            .iter()
            .filter(|id| id.layer() == layer)
            .map(|id| self.of(*id).own[meter])
            .sum()
    }

    /// Summed root spans: what the own amounts must add up to.
    pub fn root_total(&self, meter: usize) -> u64 {
        self.of(SpanId::TxnRo).total[meter] + self.of(SpanId::TxnRw).total[meter]
    }

    pub fn root_count(&self) -> u64 {
        self.of(SpanId::TxnRo).count + self.of(SpanId::TxnRw).count
    }

    /// Mean span duration in nanoseconds (0 when the span never ran).
    pub fn mean_ns(&self, id: SpanId) -> f64 {
        ratio(self.of(id).total[NS], self.of(id).count)
    }

    /// Mean own time in nanoseconds.
    pub fn mean_own_ns(&self, id: SpanId) -> f64 {
        ratio(self.of(id).own[NS], self.of(id).count)
    }

    /// One JSON object per line: `txn`, `client`, `span` (this line's
    /// index), `parent` (a line index or null), `name`, `start_ns`,
    /// `end_ns` — nanoseconds since the run's common time base.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (index, r) in self.records.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"txn\":{},\"client\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.txn,
                r.client,
                index,
                parent,
                r.id.name(),
                r.start_ns,
                r.end_ns
            )?;
        }
        Ok(())
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The span stack and aggregates of one thread.
pub struct Tracer {
    mode: Mode,
    base: Instant,
    client: u32,
    stack: Vec<Open>,
    txns: u64,
    sampled_txns: u32,
    sampling: bool,
    trace: Trace,
}

impl Tracer {
    pub fn new(mode: Mode, client: u32, base: Instant) -> Self {
        Tracer {
            mode,
            base,
            client,
            stack: Vec::with_capacity(8),
            txns: 0,
            sampled_txns: 0,
            sampling: false,
            trace: Trace::new(),
        }
    }

    fn reading(&self) -> Reading {
        match self.mode {
            Mode::Off => [0; 3],
            Mode::Timed => [self.base.elapsed().as_nanos() as u64, 0, 0],
            Mode::Count => [0, alloc::allocs(), alloc::allocated_bytes()],
        }
    }

    /// Open a span at `now`.  A root span starts a new transaction.
    pub fn open(&mut self, id: SpanId, now: Reading) {
        if id.is_root() {
            self.sampling = self.mode == Mode::Timed
                && self.txns.is_multiple_of(SAMPLE_EVERY)
                && self.sampled_txns < MAX_SAMPLED_TXNS;
            if self.sampling {
                self.sampled_txns += 1;
            }
        }
        let record = self.sampling.then(|| {
            let parent = self.stack.last().and_then(|open| open.record);
            self.trace.records.push(SpanRecord {
                client: self.client,
                txn: (u64::from(self.client) << 40) | self.txns,
                id,
                start_ns: now[NS],
                end_ns: now[NS],
                parent,
            });
            (self.trace.records.len() - 1) as u32
        });
        self.stack.push(Open {
            id,
            start: now,
            children: [0; 3],
            record,
        });
    }

    /// Close the innermost open span at `now`.
    pub fn close(&mut self, now: Reading) {
        let open = self.stack.pop().expect("close without a matching open");
        let agg = &mut self.trace.agg[open.id as usize];
        agg.count += 1;
        let span: Reading = std::array::from_fn(|m| now[m].saturating_sub(open.start[m]));
        for (m, amount) in span.iter().enumerate() {
            agg.total[m] += amount;
            agg.own[m] += amount.saturating_sub(open.children[m]);
        }
        if self.mode == Mode::Timed {
            self.trace.hist[open.id as usize].record(span[NS]);
        }
        if let Some(parent) = self.stack.last_mut() {
            for (child, amount) in parent.children.iter_mut().zip(span) {
                *child += amount;
            }
        }
        if let Some(index) = open.record {
            self.trace.records[index as usize].end_ns = now[NS];
        }
        if open.id.is_root() {
            self.txns += 1;
            self.sampling = false;
        }
    }

    pub fn into_trace(self) -> Trace {
        assert!(self.stack.is_empty(), "a span was left open");
        self.trace
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording on the calling thread.
pub fn install(mode: Mode, client: u32, base: Instant) {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new(mode, client, base)));
}

/// Switch the calling thread's tracer between recording and [`Mode::Off`]
/// without losing what it has recorded.  Only between transactions.
pub fn set_mode(mode: Mode) {
    TRACER.with(|t| {
        if let Some(tracer) = t.borrow_mut().as_mut() {
            assert!(tracer.stack.is_empty(), "mode switched inside a span");
            tracer.mode = mode;
        }
    });
}

/// Stop recording on the calling thread and hand back what it recorded.
pub fn take() -> Trace {
    TRACER
        .with(|t| t.borrow_mut().take())
        .map_or_else(Trace::new, Tracer::into_trace)
}

/// Closes its span when dropped.
pub struct Guard(bool);

/// Open a span on the calling thread, if it is recording.
#[inline]
pub fn enter(id: SpanId) -> Guard {
    TRACER.with(|t| {
        let mut slot = t.borrow_mut();
        match slot.as_mut() {
            Some(tracer) if tracer.mode != Mode::Off => {
                let now = tracer.reading();
                tracer.open(id, now);
                Guard(true)
            }
            _ => Guard(false),
        }
    })
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        if self.0 {
            TRACER.with(|t| {
                if let Some(tracer) = t.borrow_mut().as_mut() {
                    // Read the meters first so the bookkeeping below is
                    // not billed to the span being closed.
                    let now = tracer.reading();
                    tracer.close(now);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> Reading {
        [ns, 0, 0]
    }

    #[test]
    fn own_time_is_span_minus_children_and_sums_to_the_root() {
        let mut t = Tracer::new(Mode::Timed, 0, Instant::now());
        t.open(SpanId::TxnRw, at(0));
        t.open(SpanId::EngineRead, at(10));
        t.open(SpanId::StoreGet, at(12));
        t.close(at(20)); // store.get: 8
        t.close(at(25)); // engine.read: 15, own 7
        t.open(SpanId::EngineCommit, at(30));
        t.open(SpanId::StoreCommit, at(31));
        t.close(at(41)); // store.commit: 10
        t.open(SpanId::StoreFlushCommit, at(41));
        t.close(at(44)); // store.flush_commit: 3
        t.close(at(50)); // engine.commit: 20, own 7
        t.close(at(60)); // root: 60, own 60 - 15 - 20 = 25
        let trace = t.into_trace();
        assert_eq!(trace.of(SpanId::StoreGet).own[NS], 8);
        assert_eq!(trace.of(SpanId::EngineRead).total[NS], 15);
        assert_eq!(trace.of(SpanId::EngineRead).own[NS], 7);
        assert_eq!(trace.of(SpanId::EngineCommit).own[NS], 7);
        assert_eq!(trace.of(SpanId::TxnRw).own[NS], 25);
        assert_eq!(trace.layer_own(Layer::Store, NS), 21);
        assert_eq!(trace.layer_own(Layer::Engine, NS), 14);
        let own_sum = trace.layer_own(Layer::Bench, NS)
            + trace.layer_own(Layer::Engine, NS)
            + trace.layer_own(Layer::Store, NS);
        assert_eq!(own_sum, trace.root_total(NS));
        assert_eq!(trace.root_count(), 1);
        assert_eq!(trace.mean_ns(SpanId::StoreGet), 8.0);
        assert_eq!(trace.mean_ns(SpanId::StoreAbort), 0.0);
    }

    #[test]
    fn all_three_meters_use_the_same_arithmetic() {
        let mut t = Tracer::new(Mode::Count, 0, Instant::now());
        t.open(SpanId::TxnRw, [0, 100, 1_000]);
        t.open(SpanId::EngineUpdate, [0, 101, 1_064]);
        t.open(SpanId::StoreUpdate, [0, 103, 1_200]);
        t.close([0, 106, 1_500]);
        t.close([0, 107, 1_520]);
        t.close([0, 108, 1_600]);
        let trace = t.into_trace();
        assert_eq!(trace.of(SpanId::StoreUpdate).own[ALLOCS], 3);
        assert_eq!(trace.of(SpanId::EngineUpdate).own[ALLOCS], 3);
        assert_eq!(trace.of(SpanId::TxnRw).own[ALLOCS], 2);
        assert_eq!(trace.root_total(ALLOCS), 8);
        assert_eq!(trace.of(SpanId::StoreUpdate).own[BYTES], 300);
        assert_eq!(trace.root_total(BYTES), 600);
        // The count pass keeps no timings and samples no spans.
        assert_eq!(trace.hist[SpanId::TxnRw as usize].len(), 0);
        assert!(trace.records.is_empty());
    }

    #[test]
    fn every_64th_transaction_keeps_its_spans_with_parent_links() {
        let mut t = Tracer::new(Mode::Timed, 3, Instant::now());
        for txn in 0..130u64 {
            let base = txn * 100;
            t.open(SpanId::TxnRo, at(base));
            t.open(SpanId::EngineRead, at(base + 1));
            t.open(SpanId::StoreGet, at(base + 2));
            t.close(at(base + 3));
            t.close(at(base + 4));
            t.close(at(base + 5));
        }
        let trace = t.into_trace();
        assert_eq!(trace.records.len(), 9, "transactions 0, 64 and 128");
        let second = &trace.records[3..6];
        assert_eq!(second[0].id, SpanId::TxnRo);
        assert_eq!(second[0].parent, None);
        assert_eq!(second[1].parent, Some(3));
        assert_eq!(second[2].parent, Some(4));
        assert_eq!(second[2].start_ns, 6_402);
        assert_eq!(second[2].end_ns, 6_403);
        assert!(second
            .iter()
            .all(|r| r.txn == (3 << 40) | 64 && r.client == 3));
        assert_eq!(trace.hist[SpanId::TxnRo as usize].len(), 130);
    }

    #[test]
    fn merge_adds_aggregates_and_rebases_parent_links() {
        let one = |client| {
            let mut t = Tracer::new(Mode::Timed, client, Instant::now());
            t.open(SpanId::TxnRw, at(0));
            t.open(SpanId::EngineCommit, at(1));
            t.close(at(5));
            t.close(at(9));
            t.into_trace()
        };
        let mut merged = one(0);
        merged.merge(one(1));
        assert_eq!(merged.of(SpanId::EngineCommit).count, 2);
        assert_eq!(merged.of(SpanId::EngineCommit).total[NS], 8);
        assert_eq!(merged.root_total(NS), 18);
        assert_eq!(merged.records.len(), 4);
        assert_eq!(merged.records[3].parent, Some(2));
        let mut out = Vec::new();
        merged.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().nth(3).unwrap().contains("\"parent\":2"));
    }

    #[test]
    fn thread_local_guards_record_only_while_installed() {
        drop(enter(SpanId::StoreGet));
        assert_eq!(take().of(SpanId::StoreGet).count, 0);
        install(Mode::Timed, 0, Instant::now());
        {
            let _root = enter(SpanId::TxnRo);
            let _get = enter(SpanId::StoreGet);
        }
        let trace = take();
        assert_eq!(trace.of(SpanId::StoreGet).count, 1);
        assert_eq!(trace.of(SpanId::TxnRo).count, 1);
        drop(enter(SpanId::StoreGet));
        assert_eq!(take().of(SpanId::StoreGet).count, 0);
    }

    #[test]
    fn switching_off_keeps_what_was_recorded() {
        install(Mode::Timed, 0, Instant::now());
        drop(enter(SpanId::TxnRo));
        set_mode(Mode::Off);
        drop(enter(SpanId::TxnRo));
        set_mode(Mode::Timed);
        drop(enter(SpanId::TxnRo));
        assert_eq!(take().of(SpanId::TxnRo).count, 2);
    }
}
