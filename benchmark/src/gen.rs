//! Seeded, off-the-clock input generation.
//!
//! Every workload's operation stream is a pure function of `--seed`, built
//! before any clock starts; the engine only ever sees the generated
//! operations.  `point_si` and `point_ser` share one [`Mix`], so the two
//! isolation levels are driven by byte-identical streams.

/// SplitMix64 (Steele, Lea & Flood): a 64-bit state, full-period generator
/// that needs no warm-up, so nearby seeds still give unrelated streams.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// table sizes used here).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }
}

/// Most operations one planned transaction carries.
pub const MAX_OPS: usize = 4;

/// One operation of a planned transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// `read(row)`.
    Read(u32),
    /// `read_for_update(row)` then `update(row, balance + 1)`.
    Rmw(u32),
    /// `read_range(bucket, lo ..= lo + span - 1)`.
    Range(u32),
}

/// One planned logical transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TxnPlan {
    ops: [Op; MAX_OPS],
    len: u8,
}

impl TxnPlan {
    pub fn ops(&self) -> &[Op] {
        &self.ops[..usize::from(self.len)]
    }

    /// Number of rows this transaction increments when it commits.
    pub fn updates(&self) -> u64 {
        self.ops()
            .iter()
            .filter(|op| matches!(op, Op::Rmw(_)))
            .count() as u64
    }

    pub fn is_read_only(&self) -> bool {
        self.updates() == 0
    }
}

/// The shape of a workload's transactions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// `read_only_pct` % of transactions are all point reads, the rest all
    /// read-modify-writes.
    Point { read_only_pct: u32 },
    /// Every operation is a read-modify-write.
    Rmw,
    /// Operations alternate `read_range` over `span` keys with a point
    /// operation: a read in half the transactions, a read-modify-write in
    /// the other half.
    Range { span: u32 },
}

/// Everything the generator needs to know about a workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mix {
    pub rows: u32,
    pub ops_per_txn: usize,
    pub shape: Shape,
}

impl Mix {
    /// The operation stream of client `client` under `seed`.  Point keys are
    /// uniform over the table, distinct within one transaction and visited
    /// in ascending order — the usual client-side discipline against
    /// lock-order deadlocks.  Without it two clients that retry at once
    /// livelock on opposite-order plans (each retry re-creates the cycle
    /// before the other side has woken up), and what is left to measure is
    /// the engine's own behaviour: the Shared-to-Exclusive upgrade deadlock
    /// of two read-modify-writes on one row.
    pub fn stream(&self, seed: u64, client: usize, txns: usize) -> Vec<TxnPlan> {
        assert!((1..=MAX_OPS).contains(&self.ops_per_txn));
        assert!(self.rows as usize >= self.ops_per_txn);
        let mut rng = SplitMix64::new(seed ^ (client as u64 + 1).wrapping_mul(GOLDEN));
        (0..txns).map(|_| self.plan(&mut rng)).collect()
    }

    fn plan(&self, rng: &mut SplitMix64) -> TxnPlan {
        let writes = match self.shape {
            Shape::Point { read_only_pct } => rng.below(100) >= read_only_pct,
            Shape::Rmw => true,
            Shape::Range { .. } => rng.below(2) == 1,
        };
        // Distinct point keys, visited in ascending order.
        let is_range = |i: usize| matches!(self.shape, Shape::Range { .. }) && i.is_multiple_of(2);
        let points = (0..self.ops_per_txn).filter(|i| !is_range(*i)).count();
        let mut keys = [u32::MAX; MAX_OPS];
        for i in 0..points {
            keys[i] = loop {
                let key = rng.below(self.rows);
                if !keys[..i].contains(&key) {
                    break key;
                }
            };
        }
        keys[..points].sort_unstable();
        let mut next_key = keys.iter();
        let mut ops = [Op::Read(0); MAX_OPS];
        for (i, op) in ops.iter_mut().enumerate().take(self.ops_per_txn) {
            *op = match self.shape {
                Shape::Range { span } if is_range(i) => Op::Range(rng.below(self.rows - span + 1)),
                _ => {
                    let key = *next_key.next().expect("one key per point operation");
                    if writes {
                        Op::Rmw(key)
                    } else {
                        Op::Read(key)
                    }
                }
            };
        }
        TxnPlan {
            ops,
            len: self.ops_per_txn as u8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POINT: Mix = Mix {
        rows: 1000,
        ops_per_txn: 4,
        shape: Shape::Point { read_only_pct: 80 },
    };

    #[test]
    fn same_seed_gives_the_identical_stream() {
        assert_eq!(POINT.stream(7, 0, 500), POINT.stream(7, 0, 500));
        assert_ne!(POINT.stream(7, 0, 500), POINT.stream(8, 0, 500));
        assert_ne!(POINT.stream(7, 0, 500), POINT.stream(7, 1, 500));
    }

    #[test]
    fn point_mix_has_the_stated_read_only_share_and_distinct_keys() {
        let stream = POINT.stream(1, 0, 20_000);
        let read_only = stream.iter().filter(|p| p.is_read_only()).count();
        assert!((15_600..16_400).contains(&read_only), "{read_only}");
        for plan in &stream {
            assert_eq!(plan.ops().len(), 4);
            assert!(plan.updates() == 0 || plan.updates() == 4);
            let keys: Vec<u32> = plan
                .ops()
                .iter()
                .map(|op| match op {
                    Op::Read(k) | Op::Rmw(k) => *k,
                    Op::Range(_) => unreachable!(),
                })
                .collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
            assert!(keys.iter().all(|k| *k < 1000));
        }
    }

    #[test]
    fn hot_mix_writes_two_distinct_rows_of_eight() {
        let hot = Mix {
            rows: 8,
            ops_per_txn: 2,
            shape: Shape::Rmw,
        };
        for plan in hot.stream(3, 1, 5_000) {
            match plan.ops() {
                [Op::Rmw(a), Op::Rmw(b)] => assert!(a < b && *b < 8),
                other => panic!("unexpected plan {other:?}"),
            }
        }
    }

    #[test]
    fn range_mix_alternates_scans_and_stays_inside_the_table() {
        let range = Mix {
            rows: 4096,
            ops_per_txn: 4,
            shape: Shape::Range { span: 32 },
        };
        let stream = range.stream(5, 0, 4_000);
        let writers = stream.iter().filter(|p| !p.is_read_only()).count();
        assert!((1_800..2_200).contains(&writers), "{writers}");
        for plan in &stream {
            let ops = plan.ops();
            assert!(matches!(ops[0], Op::Range(lo) if lo + 32 <= 4096));
            assert!(matches!(ops[2], Op::Range(lo) if lo + 32 <= 4096));
            assert!(matches!(ops[1], Op::Read(_) | Op::Rmw(_)));
            assert_eq!(plan.updates() % 2, 0);
        }
    }

    #[test]
    fn below_is_uniform_enough_and_in_range() {
        let mut rng = SplitMix64::new(99);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.below(8) as usize] += 1;
        }
        assert!(
            counts.iter().all(|c| (9_500..10_500).contains(c)),
            "{counts:?}"
        );
    }
}
