//! Hand-rolled epoch-based reclamation (EBR): the memory-safety substrate
//! under the lock-free read path of [`crate::store::MvStore`].
//!
//! Multiversion reads never need to block — but once readers traverse
//! version chains without taking the shard lock, a writer that unlinks an
//! aborted or pruned version can no longer free it immediately: a reader
//! may still be half-way down the chain holding a pointer to it.  The
//! classic answer (Fraser's epoch scheme, the shape crossbeam-epoch
//! implements — we ship offline shims, so this is a from-scratch
//! implementation) is:
//!
//! * a **global epoch** counter that only ever advances;
//! * readers **pin** the current epoch in a shared slot for the duration of
//!   one operation and clear it when done — pinning is wait-free in the
//!   common case (one CAS on the thread's home slot);
//! * writers **retire** unlinked nodes onto a garbage bag tagged with the
//!   epoch current at retirement — the node is unreachable from the data
//!   structure, but not yet freed;
//! * a bag is **reclaimed** only once the global epoch has advanced **two
//!   steps** past its tag.  Advancing from `e` to `e + 1` requires every
//!   pinned slot to read exactly `e`, so by the time `tag + 2` is reached
//!   every reader that could have observed the node has unpinned.
//!
//! Why two steps is enough: a reader that can still hold a reference to a
//! retired node must have pinned *before* the node was unlinked, hence with
//! a slot value `v ≤ tag` (the global epoch is monotonic and the tag is
//! read after the unlink).  The advance `tag → tag + 1` may overlap that
//! reader (its slot can equal `tag`), but the advance `tag + 1 → tag + 2`
//! cannot happen until the reader's slot — frozen at `v ≤ tag ≠ tag + 1` —
//! is cleared.  On top of the epoch math, `Ebr::reclaim` refuses to free
//! any bag while *any* nonzero slot is at or before the bag's tag: slot
//! values can be transiently stale (a pin writes its claimed epoch before
//! re-verifying the global), so the conservative check defers the bag
//! rather than trusting the arithmetic alone.
//!
//! The counters exposed by [`Ebr::stats`] turn the safety argument into a
//! test invariant: `reclaimed_while_pinned` counts nodes freed before their
//! grace period elapsed and must stay **zero** (the reclamation storm test
//! asserts it), while `reclaim_deferrals` shows the conservative check
//! doing its job under contention.

use parking_lot::Mutex;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

/// Number of pin slots.  Far more than any test or bench drives; if every
/// slot is momentarily taken, [`Ebr::pin`] spins until one frees (slots are
/// held only for the duration of a single read operation).
const SLOTS: usize = 64;

/// Slot value meaning "unpinned".  The global epoch starts at 1 so a live
/// pin can never legitimately store 0.
const FREE: u64 = 0;

/// An atomic word on its own cache line: the pin slots, so readers
/// hammering different slots do not false-share — and the global epoch,
/// which every pin loads and which must not share a line with the
/// counters and the bag mutex that every retirement writes.
#[repr(align(64))]
struct Slot(AtomicU64);

/// One retired allocation: a type-erased pointer plus the monomorphised
/// drop function that frees it.
///
/// # Safety
///
/// `ptr` must come from `Box::into_raw` of the exact `T` that `drop_fn`
/// reconstructs — [`Ebr::retire`] is the only constructor and enforces it,
/// together with `T: Send` (the free may run on any thread).
struct Garbage {
    ptr: *mut (),
    drop_fn: unsafe fn(*mut ()),
}

// SAFETY: `Garbage` is only built by `Ebr::retire`, whose `T: Send` bound
// guarantees the pointee may be dropped from another thread; the raw
// pointer is owned (unlinked from every shared structure before retire).
#[allow(unsafe_code)]
unsafe impl Send for Garbage {}

/// Reconstruct and drop the `Box<T>` behind a retired pointer.
///
/// # Safety
///
/// `ptr` must be a `Box::into_raw(Box<T>)` for this exact `T`, not freed
/// before, and unreachable from any live reader (guaranteed by the epoch
/// grace period).
#[allow(unsafe_code)]
unsafe fn drop_box<T>(ptr: *mut ()) {
    drop(unsafe { Box::from_raw(ptr.cast::<T>()) });
}

/// Retired allocations tagged with the epoch current at retirement.
struct Bag {
    epoch: u64,
    items: Vec<Garbage>,
}

/// [`Ebr::retire`] attempts an epoch advance and a reclaim pass once per
/// this many retirements, not per node: with version pruning every update
/// retires, a pass scans all [`SLOTS`], and each advance dirties the
/// global epoch every reader loads.  A count, not a clock, so a
/// single-threaded run reclaims at exactly the same points every time.
///
/// Small on purpose.  A bag is freed in one burst on the path of whichever
/// writer's retirement triggers the pass, so the batch is also that
/// writer's pause and the unit in which memory goes back to the allocator:
/// on the `point_si` benchmark a batch of 64 doubled `txn_p99_us` over a
/// batch of 4 (the burst outruns malloc's per-thread cache and the freed
/// versions are cold by the time they are reused) for no throughput.
/// With two grace epochs plus the current one outstanding, the garbage
/// held back on a domain whose pins keep moving is about a dozen nodes.
const RETIRES_PER_COLLECT: usize = 4;

/// Number of garbage shards.  A retiring thread bags into — and reclaims
/// from — the shard its home slot selects, so writers on different threads
/// neither queue on one mutex nor free each other's garbage (which would
/// hand memory to a thread that did not allocate it and starve the one
/// that did of reuse).  Measured with two writers on disjoint rows, one
/// shared bag list cost each update about 400 ns.
const BAG_SHARDS: usize = 8;

/// One shard of garbage: its bags, the retirement count that paces its
/// collection passes, and its share of the counters — on a cache line of
/// its own, so a thread's retirements stay off every other thread's lines.
#[repr(align(64))]
#[derive(Default)]
struct BagShard {
    bags: Mutex<Bags>,
    retired: AtomicU64,
    reclaimed: AtomicU64,
}

#[derive(Default)]
struct Bags {
    list: Vec<Bag>,
    /// Retirements since the last collection attempt.
    since_collect: usize,
}

/// Monotonic counters describing reclamation behaviour — the observable
/// half of the safety argument.  All counts are cheap relaxed atomics and
/// always compiled (the `epoch_stress` CI leg asserts them in release
/// mode).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReclamationStats {
    /// Allocations handed to [`Ebr::retire`] so far.
    pub retired: u64,
    /// Retired allocations actually freed so far.
    pub reclaimed: u64,
    /// Times a grace-period-expired bag was kept because some slot still
    /// pinned an epoch at or before its tag (the conservative re-check).
    pub deferrals: u64,
    /// Allocations freed **before** their grace period elapsed.  This is
    /// the use-after-free invariant: it must always read zero, and the
    /// reclamation storm test asserts exactly that.
    pub reclaimed_while_pinned: u64,
}

/// An epoch-based reclamation domain.  One instance per [`crate::MvStore`]
/// (never a global static, so parallel tests cannot observe each other's
/// counters).
pub struct Ebr {
    /// The global epoch; starts at 1 and only advances.
    global: Slot,
    slots: Box<[Slot]>,
    shards: Box<[BagShard]>,
    deferrals: AtomicU64,
    reclaimed_while_pinned: AtomicU64,
}

impl Default for Ebr {
    fn default() -> Self {
        Self::new()
    }
}

/// Hands out stable per-thread home-slot hints so that a thread's pins
/// usually land on the same cache line without a hash of `ThreadId`.
static NEXT_HOME: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static HOME_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn home_slot() -> usize {
    HOME_SLOT.with(|h| {
        if h.get() == usize::MAX {
            h.set(NEXT_HOME.fetch_add(1, Ordering::Relaxed));
        }
        h.get()
    })
}

impl Ebr {
    /// A fresh domain with no pins and no garbage.
    pub fn new() -> Self {
        Ebr {
            global: Slot(AtomicU64::new(1)),
            slots: (0..SLOTS).map(|_| Slot(AtomicU64::new(FREE))).collect(),
            shards: (0..BAG_SHARDS).map(|_| BagShard::default()).collect(),
            deferrals: AtomicU64::new(0),
            reclaimed_while_pinned: AtomicU64::new(0),
        }
    }

    /// Pin the current epoch for the duration of the returned [`Guard`].
    ///
    /// Claims a free slot (home slot first, linear probe after), publishes
    /// the observed global epoch into it, and re-verifies the global did
    /// not advance in between — if it did, the slot is re-stamped with the
    /// newer epoch and re-verified.  Without the verify loop a reader could
    /// pin an epoch that reclamation already considers drained.
    pub fn pin(&self) -> Guard<'_> {
        let start = home_slot() % SLOTS;
        let mut epoch = self.global.0.load(Ordering::SeqCst);
        let slot = 'claim: loop {
            for probe in 0..SLOTS {
                let idx = (start + probe) % SLOTS;
                if self.slots[idx]
                    .0
                    .compare_exchange(FREE, epoch, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    break 'claim idx;
                }
            }
            std::hint::spin_loop();
            epoch = self.global.0.load(Ordering::SeqCst);
        };
        loop {
            fence(Ordering::SeqCst);
            let now = self.global.0.load(Ordering::SeqCst);
            if now == epoch {
                break;
            }
            epoch = now;
            self.slots[slot].0.store(epoch, Ordering::SeqCst);
        }
        Guard {
            ebr: self,
            slot,
            _not_send: PhantomData,
        }
    }

    /// Retire an owned, already-unlinked allocation.  The pointee is freed
    /// only after every epoch pinned at or before the current one has been
    /// released.
    ///
    /// Cheap enough for a writer's hot path: one short critical section to
    /// bag the node, and one advance-and-reclaim attempt every few
    /// retirements (`RETIRES_PER_COLLECT`).  Callers should retire *after*
    /// dropping their own locks and pins — a pin held across the call
    /// defers the very bag it feeds.
    ///
    /// The caller must guarantee `ptr` came from `Box::into_raw`, is
    /// unreachable from the shared structure (unlinked before this call),
    /// and is retired exactly once.
    pub fn retire<T: Send>(&self, ptr: *mut T) {
        let garbage = Garbage {
            ptr: ptr.cast::<()>(),
            drop_fn: drop_box::<T>,
        };
        let shard = &self.shards[home_slot() % BAG_SHARDS];
        let epoch = self.global.0.load(Ordering::SeqCst);
        let collect = {
            let mut bags = shard.bags.lock();
            match bags.list.iter_mut().find(|bag| bag.epoch == epoch) {
                Some(bag) => bag.items.push(garbage),
                None => {
                    let mut items = Vec::with_capacity(RETIRES_PER_COLLECT);
                    items.push(garbage);
                    bags.list.push(Bag { epoch, items });
                }
            }
            bags.since_collect += 1;
            let due = bags.since_collect >= RETIRES_PER_COLLECT;
            if due {
                bags.since_collect = 0;
            }
            due
        };
        shard.retired.fetch_add(1, Ordering::Relaxed);
        if collect {
            let oldest_pin = self.try_advance();
            self.reclaim(shard, oldest_pin);
        }
    }

    /// Repeatedly attempt an epoch advance and reclaim every bag whose
    /// grace period has elapsed, until a pass frees nothing more.  On a
    /// quiescent domain (no pins) this drains *all* garbage: each pass
    /// advances the global epoch by one, and a bag tagged at the current
    /// epoch needs two advances before its grace period has provably
    /// elapsed.  [`Ebr::retire`] only ever makes one paced pass over the
    /// retiring thread's own shard; this is for quiescent callers (tests,
    /// shutdown paths) that want the garbage gone without producing more.
    pub fn flush(&self) {
        // A bag retired this instant is tagged with the current global
        // epoch and becomes freeable only once the global is two ahead of
        // that tag, so two advance+reclaim passes are always attempted;
        // past that, keep going only while passes actually free garbage
        // (bounded: continuation requires `reclaimed` to grow, and it is
        // capped by `retired`).  On a quiescent domain this drains every
        // bag; with readers pinned, undrainable bags are simply kept.
        let reclaimed = || self.sum_over_shards(|shard| &shard.reclaimed);
        let mut passes = 0;
        loop {
            let before = reclaimed();
            let oldest_pin = self.try_advance();
            for shard in self.shards.iter() {
                self.reclaim(shard, oldest_pin);
            }
            passes += 1;
            if passes >= 2 && reclaimed() == before {
                return;
            }
        }
    }

    /// Advance the global epoch iff every pinned slot reads exactly the
    /// current epoch (a lost CAS race just means someone else advanced),
    /// and return the oldest epoch any slot pinned during the scan
    /// (`u64::MAX` if none) for the reclaim pass that follows.
    fn try_advance(&self) -> u64 {
        let epoch = self.global.0.load(Ordering::SeqCst);
        let mut oldest_pin = u64::MAX;
        let mut all_current = true;
        for slot in self.slots.iter() {
            let v = slot.0.load(Ordering::SeqCst);
            if v != FREE {
                oldest_pin = oldest_pin.min(v);
                all_current &= v == epoch;
            }
        }
        if all_current {
            let _ = self.global.0.compare_exchange(
                epoch,
                epoch + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
        oldest_pin
    }

    /// Free every bag of `shard` that is (a) two epochs behind the global
    /// and (b) older than `oldest_pin`, the oldest epoch the preceding
    /// slot scan saw pinned.  Bags failing (b) despite passing (a) are
    /// *deferred*, never freed — that conservatism is what keeps
    /// `reclaimed_while_pinned` structurally zero.  (The scan may be a
    /// moment old by now; a pin taken since reads an epoch newer than any
    /// bag (a) lets through, so it only ever errs towards deferring.)
    ///
    /// Bags leave the list one at a time under the mutex and are freed
    /// after it is dropped, so a retiring thread never waits behind a run
    /// of destructors.  `at` survives the unlocked stretches: a concurrent
    /// retire or reclaim may shift the list under it, which at worst skips
    /// a bag until the next pass or examines one twice.
    fn reclaim(&self, shard: &BagShard, oldest_pin: u64) {
        let global = self.global.0.load(Ordering::SeqCst);
        let mut at = 0;
        loop {
            let bag = {
                let mut bags = shard.bags.lock();
                loop {
                    let Some(bag) = bags.list.get(at) else {
                        return;
                    };
                    if bag.epoch + 2 > global {
                        at += 1;
                    } else if oldest_pin <= bag.epoch {
                        self.deferrals.fetch_add(1, Ordering::Relaxed);
                        at += 1;
                    } else {
                        break bags.list.swap_remove(at);
                    }
                }
            };
            let freed = bag.items.len() as u64;
            self.free_bag(bag, global);
            shard.reclaimed.fetch_add(freed, Ordering::Relaxed);
        }
    }

    /// Free one bag's items, accounting the safety invariant at the moment
    /// of the free: if the grace period had *not* elapsed this would be a
    /// use-after-free, and `reclaimed_while_pinned` records it instead of
    /// hiding it.  (The epoch is monotonic, so this re-check is race-free —
    /// unlike the slot scan, which can observe transiently stale claims and
    /// therefore only ever defers.)
    fn free_bag(&self, bag: Bag, global: u64) {
        if bag.epoch + 2 > global {
            self.reclaimed_while_pinned
                .fetch_add(bag.items.len() as u64, Ordering::Relaxed);
        }
        for garbage in bag.items {
            // SAFETY: `garbage` was built by `retire` from a uniquely-owned
            // `Box::into_raw` pointer, unlinked before retirement; the bag's
            // grace period has elapsed (checked by `reclaim`), so no pinned
            // reader can still hold a reference to the pointee.
            #[allow(unsafe_code)]
            unsafe {
                (garbage.drop_fn)(garbage.ptr)
            };
        }
    }

    fn sum_over_shards(&self, counter: impl Fn(&BagShard) -> &AtomicU64) -> u64 {
        self.shards
            .iter()
            .map(|shard| counter(shard).load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot of the reclamation counters.
    pub fn stats(&self) -> ReclamationStats {
        ReclamationStats {
            retired: self.sum_over_shards(|shard| &shard.retired),
            reclaimed: self.sum_over_shards(|shard| &shard.reclaimed),
            deferrals: self.deferrals.load(Ordering::Relaxed),
            reclaimed_while_pinned: self.reclaimed_while_pinned.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Ebr {
    fn drop(&mut self) {
        // `&mut self` proves no `Guard` borrows the domain, so every bag's
        // readers are gone regardless of epoch arithmetic; free directly.
        let bags = self
            .shards
            .iter()
            .flat_map(|shard| std::mem::take(&mut shard.bags.lock().list));
        for bag in bags {
            for garbage in bag.items {
                // SAFETY: same ownership contract as `free_bag`; exclusive
                // access (`&mut self`) rules out any live pin.
                #[allow(unsafe_code)]
                unsafe {
                    (garbage.drop_fn)(garbage.ptr)
                };
            }
        }
    }
}

impl std::fmt::Debug for Ebr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ebr")
            .field("global", &self.global.0.load(Ordering::SeqCst))
            .field("stats", &self.stats())
            .finish()
    }
}

/// Proof that the holding thread has an epoch pinned: lock-free readers
/// take one per operation and thread it (by reference) through every chain
/// traversal, tying the lifetime of the references they return to the pin.
///
/// Dropping the guard releases the slot.  Guards are intentionally neither
/// `Send` nor `Sync` — a pin protects the pinning thread only.
pub struct Guard<'a> {
    ebr: &'a Ebr,
    slot: usize,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.ebr.slots[self.slot].0.store(FREE, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for Guard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guard").field("slot", &self.slot).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// A retire payload whose drop is observable.
    struct DropFlag(Arc<AtomicUsize>);

    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn retired_garbage_is_freed_after_two_advances() {
        let ebr = Ebr::new();
        let drops = Arc::new(AtomicUsize::new(0));
        ebr.retire(Box::into_raw(Box::new(DropFlag(Arc::clone(&drops)))));
        // A lone retire triggers no collection pass; drain with flushes.
        ebr.flush();
        ebr.flush();
        ebr.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        let stats = ebr.stats();
        assert_eq!(stats.retired, 1);
        assert_eq!(stats.reclaimed, 1);
        assert_eq!(stats.reclaimed_while_pinned, 0);
    }

    #[test]
    fn a_pin_blocks_reclamation_until_released() {
        let ebr = Ebr::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let guard = ebr.pin();
        ebr.retire(Box::into_raw(Box::new(DropFlag(Arc::clone(&drops)))));
        for _ in 0..8 {
            ebr.flush();
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "a live pin at the retire epoch must hold the bag"
        );
        drop(guard);
        for _ in 0..4 {
            ebr.flush();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert_eq!(ebr.stats().reclaimed_while_pinned, 0);
    }

    #[test]
    fn dropping_the_domain_frees_outstanding_garbage() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let ebr = Ebr::new();
            for _ in 0..5 {
                ebr.retire(Box::into_raw(Box::new(DropFlag(Arc::clone(&drops)))));
            }
            // No flushing: some garbage likely still sits in bags.
        }
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn steady_retirement_reclaims_without_a_flush() {
        let ebr = Ebr::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let total = 8 * RETIRES_PER_COLLECT;
        for _ in 0..total {
            ebr.retire(Box::into_raw(Box::new(DropFlag(Arc::clone(&drops)))));
        }
        // One paced pass per RETIRES_PER_COLLECT retirements, each
        // advancing the epoch once: everything but the bags still inside
        // their two-epoch grace period has been freed along the way.
        let freed = drops.load(Ordering::SeqCst);
        assert!(freed >= total - 3 * RETIRES_PER_COLLECT, "freed {freed}");
        assert_eq!(ebr.stats().reclaimed as usize, freed);
        assert_eq!(ebr.stats().reclaimed_while_pinned, 0);
        ebr.flush();
        assert_eq!(drops.load(Ordering::SeqCst), total);
    }

    #[test]
    fn pins_are_reentrant_across_slots() {
        let ebr = Ebr::new();
        let g1 = ebr.pin();
        let g2 = ebr.pin();
        drop(g1);
        drop(g2);
        // All slots free again: an advance must succeed.
        let before = ebr.global.0.load(Ordering::SeqCst);
        ebr.try_advance();
        assert_eq!(ebr.global.0.load(Ordering::SeqCst), before + 1);
    }

    #[test]
    fn threaded_retire_storm_loses_nothing() {
        let ebr = Arc::new(Ebr::new());
        let drops = Arc::new(AtomicUsize::new(0));
        let total = 4 * 200;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let ebr = Arc::clone(&ebr);
                let drops = Arc::clone(&drops);
                scope.spawn(move || {
                    for _ in 0..200 {
                        let _guard = ebr.pin();
                        ebr.retire(Box::into_raw(Box::new(DropFlag(Arc::clone(&drops)))));
                    }
                });
            }
        });
        let stats = ebr.stats();
        assert_eq!(stats.retired, total);
        assert_eq!(stats.reclaimed_while_pinned, 0);
        drop(ebr);
        assert_eq!(drops.load(Ordering::SeqCst) as u64, total);
    }
}
