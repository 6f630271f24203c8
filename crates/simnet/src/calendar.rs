//! Bucketed calendar queue over predicted flow completion times.
//!
//! [`CalendarQueue`] keeps one entry per progressing flow, keyed by the
//! flow's absolute predicted due time and located by its arena slot.
//! Entries hash into `NUM_BUCKETS` fixed-width time buckets past a
//! moving `origin`; dues beyond the bucketed window land in an overflow
//! bin that is redistributed (with a fresh origin and width fitted to
//! the live due span) the first time the minimum query reaches it.
//!
//! The minimum query returns the entry with the smallest due time,
//! breaking exact ties by smallest flow id — the same winner an id-order
//! linear scan over the due table picks (Rust's `min_by` keeps the first
//! of equal elements), which is what keeps the calendar-backed and
//! scan-backed [`crate::fluid::FluidNetwork`] bit-identical. The query
//! memoizes its result; *any* mutation — including a capacity mutation
//! signalled via [`CalendarQueue::invalidate_min`], which cannot change
//! dues but marks the exact moment a stale memo would otherwise go
//! unnoticed — drops the memo and forces a re-derivation.

use crate::ids::FlowId;

/// Number of fixed-width time buckets (power of two, ~one cache line of
/// `Vec` headers per 64 buckets; minimum queries scan from a moving
/// first-occupied hint so empty prefixes cost nothing).
const NUM_BUCKETS: usize = 1024;

/// Bucket index sentinel for "not enqueued".
const ABSENT: u32 = u32::MAX;
/// Bucket index of the overflow bin.
const OVERFLOW: u32 = NUM_BUCKETS as u32;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    due: f64,
    slot: u32,
    id: FlowId,
}

impl Entry {
    /// `(due, id)` ordering: smaller due wins, ties to the smaller id.
    fn beats(&self, other: &Entry) -> bool {
        match self.due.total_cmp(&other.due) {
            core::cmp::Ordering::Less => true,
            core::cmp::Ordering::Greater => false,
            core::cmp::Ordering::Equal => self.id < other.id,
        }
    }
}

/// Calendar queue of `(due, slot, id)` entries; see the module docs.
#[derive(Debug, Clone)]
pub struct CalendarQueue {
    buckets: Vec<Vec<Entry>>,
    overflow: Vec<Entry>,
    /// `where_of[slot]` = bucket holding the slot's entry ([`ABSENT`] /
    /// [`OVERFLOW`] sentinels), grown on demand.
    where_of: Vec<u32>,
    origin: f64,
    width: f64,
    /// Index of the first possibly-occupied regular bucket.
    first: usize,
    /// Total enqueued entries (regular + overflow).
    len: usize,
    /// Memoized minimum, dropped on every mutation or invalidation.
    memo_min: Option<Option<(FlowId, f64)>>,
}

impl Default for CalendarQueue {
    fn default() -> CalendarQueue {
        CalendarQueue::new()
    }
}

impl CalendarQueue {
    /// Creates an empty queue with origin 0 and unit bucket width.
    pub fn new() -> CalendarQueue {
        CalendarQueue {
            buckets: vec![Vec::new(); NUM_BUCKETS],
            overflow: Vec::new(),
            where_of: Vec::new(),
            origin: 0.0,
            width: 1.0,
            first: NUM_BUCKETS,
            len: 0,
            memo_min: None,
        }
    }

    /// Number of enqueued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no flow is enqueued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops the memoized minimum so the next query re-derives it from
    /// the buckets. Dues are a function of rates, not capacities, so a
    /// capacity mutation cannot move them — but it is exactly the moment
    /// a stale memo would go unnoticed, so the fault path forces this
    /// unconditionally (DESIGN.md §10).
    pub fn invalidate_min(&mut self) {
        self.memo_min = None;
    }

    fn bucket_of(&self, due: f64) -> u32 {
        let rel = (due - self.origin) / self.width;
        if rel < 0.0 {
            // Below-origin dues share bucket 0: it is the first bucket,
            // so the min-in-first-nonempty-bucket invariant still holds.
            0
        } else if rel >= NUM_BUCKETS as f64 {
            OVERFLOW
        } else {
            rel as u32
        }
    }

    fn bucket_mut(&mut self, b: u32) -> &mut Vec<Entry> {
        if b == OVERFLOW {
            &mut self.overflow
        } else {
            &mut self.buckets[b as usize]
        }
    }

    /// Drops the memo if `removed` was the memoized winner. Removing any
    /// other entry cannot change the minimum, so the memo survives — the
    /// property that keeps steady-state `set`/`remove` churn from forcing
    /// a bucket rescan per event.
    fn memo_on_detach(&mut self, removed: Option<Entry>) {
        if let (Some(Some((mid, _))), Some(r)) = (&self.memo_min, &removed) {
            if r.id == *mid {
                self.memo_min = None;
            }
        }
    }

    /// Folds a just-inserted entry into the memo: the new minimum is the
    /// better of the old minimum and the new entry (same `(due, id)`
    /// total order as [`Self::compute_min`], so the memo stays exactly
    /// what a rescan would return).
    fn memo_on_insert(&mut self, e: Entry) {
        match &mut self.memo_min {
            Some(Some((mid, mdue))) => {
                let m = Entry {
                    due: *mdue,
                    slot: 0,
                    id: *mid,
                };
                if e.beats(&m) {
                    *mid = e.id;
                    *mdue = e.due;
                }
            }
            Some(None) => self.memo_min = Some(Some((e.id, e.due))),
            None => {}
        }
    }

    /// Upserts the entry for `slot`: a finite `due` (re)enqueues it, an
    /// infinite one removes it (a non-progressing flow has no predicted
    /// completion).
    pub fn set(&mut self, slot: u32, id: FlowId, due: f64) {
        let si = slot as usize;
        if si >= self.where_of.len() {
            self.where_of.resize(si + 1, ABSENT);
        }
        let removed = self.detach(slot);
        self.memo_on_detach(removed);
        if !due.is_finite() {
            return;
        }
        let b = self.bucket_of(due);
        if b != OVERFLOW {
            self.first = self.first.min(b as usize);
        }
        let e = Entry { due, slot, id };
        self.bucket_mut(b).push(e);
        self.where_of[si] = b;
        self.len += 1;
        self.memo_on_insert(e);
    }

    /// Removes `slot`'s entry if present.
    pub fn remove(&mut self, slot: u32) {
        if (slot as usize) < self.where_of.len() {
            let removed = self.detach(slot);
            self.memo_on_detach(removed);
        }
    }

    /// Reserves `where_of` room for `n` arena slots up front, so a run
    /// with a known flow population skips the growth doublings.
    pub fn reserve(&mut self, n: usize) {
        if self.where_of.len() < n {
            self.where_of.resize(n, ABSENT);
        }
    }

    fn detach(&mut self, slot: u32) -> Option<Entry> {
        let si = slot as usize;
        let b = self.where_of[si];
        if b == ABSENT {
            return None;
        }
        self.where_of[si] = ABSENT;
        let bucket = if b == OVERFLOW {
            &mut self.overflow
        } else {
            &mut self.buckets[b as usize]
        };
        // Unreachable from the public API: `where_of[slot]` names a bin
        // only while that bin holds the slot's one entry. `set` detaches
        // before it pushes and records the bin it pushed to, `detach`
        // clears the record as it removes the entry, and `refit` records
        // the new bin of every entry it moves; nothing else moves entries.
        let at = bucket
            .iter()
            .position(|e| e.slot == slot)
            .expect("where_of points at a bucket without the slot");
        let e = bucket.swap_remove(at);
        self.len -= 1;
        Some(e)
    }

    /// The earliest entry as `(flow id, absolute due)`, ties broken by
    /// smallest id. Lazily advances the first-occupied hint and
    /// redistributes the overflow bin when the minimum lives there.
    pub fn min(&mut self) -> Option<(FlowId, f64)> {
        if let Some(memo) = self.memo_min {
            return memo;
        }
        let answer = self.compute_min();
        self.memo_min = Some(answer);
        answer
    }

    fn compute_min(&mut self) -> Option<(FlowId, f64)> {
        if self.len == 0 {
            self.first = NUM_BUCKETS;
            return None;
        }
        loop {
            while self.first < NUM_BUCKETS && self.buckets[self.first].is_empty() {
                self.first += 1;
            }
            if self.first < NUM_BUCKETS {
                let bucket = &self.buckets[self.first];
                let mut best = bucket[0];
                for e in &bucket[1..] {
                    if e.beats(&best) {
                        best = *e;
                    }
                }
                return Some((best.id, best.due));
            }
            // Only the overflow bin is occupied: re-fit the window to the
            // live due span and redistribute, then rescan.
            self.refit();
        }
    }

    /// Re-origins the window at the smallest overflow due, fits the
    /// bucket width to the due span *and the live entry count*, and
    /// redistributes every entry.
    fn refit(&mut self) {
        debug_assert!(!self.overflow.is_empty());
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for e in &self.overflow {
            lo = lo.min(e.due);
            hi = hi.max(e.due);
        }
        self.origin = lo;
        let span = (hi - lo).max(0.0);
        // Aim for ~2 live entries per occupied bucket rather than
        // stretching every population across all 1024 buckets: minimum
        // scans walk empty buckets one at a time, so at a few hundred
        // live flows a span-fitted fixed-denominator width leaves the
        // window mostly vacuum. Twice the span still lies inside the
        // window, so near-future inserts stay bucketed.
        let occupied = self.len.clamp(1, NUM_BUCKETS / 2);
        let fitted = 2.0 * span / occupied as f64;
        // Never shrink the window below a quarter of its previous
        // extent. A cohort due at ~one instant has span ≈ 0; fitting
        // the width to it alone would produce a microscopic window that
        // every subsequent insert overflows, re-triggering a refit per
        // drain. Carrying the previous scale forward bounds successive
        // shrinks while genuine contractions still converge geometrically.
        let prev_floor = self.width * 0.25;
        self.width = fitted.max(prev_floor).max(1e-9);
        let pending = std::mem::take(&mut self.overflow);
        self.first = NUM_BUCKETS;
        for e in pending {
            let b = self.bucket_of(e.due);
            debug_assert_ne!(b, OVERFLOW, "refit left an entry in overflow");
            self.first = self.first.min(b as usize);
            self.where_of[e.slot as usize] = b;
            self.buckets[b as usize].push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_tracks_upserts_and_removals() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.min(), None);
        q.set(0, FlowId(10), 5.0);
        q.set(1, FlowId(11), 3.0);
        q.set(2, FlowId(12), 9.0);
        assert_eq!(q.min(), Some((FlowId(11), 3.0)));
        // Rate change pushes slot 1 later: slot 0 takes over.
        q.set(1, FlowId(11), 7.5);
        assert_eq!(q.min(), Some((FlowId(10), 5.0)));
        q.remove(0);
        assert_eq!(q.min(), Some((FlowId(11), 7.5)));
        // Infinite due == removal.
        q.set(1, FlowId(11), f64::INFINITY);
        assert_eq!(q.min(), Some((FlowId(12), 9.0)));
        q.remove(2);
        assert_eq!(q.min(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn exact_due_ties_break_to_smallest_id() {
        let mut q = CalendarQueue::new();
        q.set(3, FlowId(30), 2.0);
        q.set(1, FlowId(7), 2.0);
        q.set(2, FlowId(15), 2.0);
        assert_eq!(q.min(), Some((FlowId(7), 2.0)));
    }

    #[test]
    fn overflow_dues_are_refit_into_the_window() {
        let mut q = CalendarQueue::new();
        // Default window is [0, 1024): these all land in overflow.
        q.set(0, FlowId(0), 5_000_000.25);
        q.set(1, FlowId(1), 5_000_900.5);
        q.set(2, FlowId(2), 5_000_000.125);
        assert_eq!(q.min(), Some((FlowId(2), 5_000_000.125)));
        // Updates after the refit keep working (and exact dues survive).
        q.remove(2);
        assert_eq!(q.min(), Some((FlowId(0), 5_000_000.25)));
        q.set(3, FlowId(3), 5_000_000.062_5); // below the refit origin
        assert_eq!(q.min(), Some((FlowId(3), 5_000_000.062_5)));
    }

    #[test]
    fn invalidate_min_forces_rederivation() {
        let mut q = CalendarQueue::new();
        q.set(0, FlowId(0), 4.0);
        assert_eq!(q.min(), Some((FlowId(0), 4.0)));
        q.invalidate_min();
        assert_eq!(q.min(), Some((FlowId(0), 4.0)));
    }

    #[test]
    fn identical_due_after_refit_is_bitwise_preserved() {
        let mut q = CalendarQueue::new();
        let due = 123_456.789_012_345;
        q.set(0, FlowId(0), due);
        let (_, got) = q.min().unwrap();
        assert_eq!(got.to_bits(), due.to_bits());
    }
}
