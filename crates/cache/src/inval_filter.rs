//! The per-L1 invalidation filter (§4.2 of the paper).
//!
//! Modern GPU L1s are not coherent and the hierarchy is non-inclusive,
//! so the backward table tracks only the shared L2 precisely. When a
//! virtual page dies (FBT eviction or TLB shootdown), an invalidation
//! is broadcast to every L1. To avoid walking L1 tags, each L1 keeps a
//! small filter mapping virtual page → count of resident lines; a
//! filter hit conservatively flushes the whole L1 (cheap, because GPU
//! L1s are small, clean, and low-hit-rate), a filter miss discards the
//! request.

use gvc_engine::{Counter, FxHashMap};
use gvc_mem::{Asid, Vpn};
use serde::{Deserialize, Serialize};

/// Filter statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvalFilterStats {
    /// Invalidation requests checked.
    pub checks: Counter,
    /// Requests filtered out (page had no resident lines).
    pub filtered: Counter,
    /// Requests that forced a full L1 flush.
    pub flushes: Counter,
}

/// The invalidation filter (see [module docs](self)).
///
/// ```
/// use gvc_cache::InvalFilter;
/// use gvc_mem::{Asid, Vpn};
///
/// let mut f = InvalFilter::new();
/// f.line_filled(Asid(0), Vpn::new(7));
/// assert!(f.must_flush(Asid(0), Vpn::new(7)));
/// assert!(!f.must_flush(Asid(0), Vpn::new(8))); // filtered
/// ```
#[derive(Debug, Default)]
pub struct InvalFilter {
    counters: FxHashMap<(Asid, Vpn), u32>,
    max_occupancy: usize,
    stats: InvalFilterStats,
}

impl InvalFilter {
    /// Creates an empty filter.
    pub fn new() -> Self {
        InvalFilter::default()
    }

    /// Records that a line of `(asid, vpn)` was filled into the L1.
    pub fn line_filled(&mut self, asid: Asid, vpn: Vpn) {
        *self.counters.entry((asid, vpn)).or_insert(0) += 1;
        self.max_occupancy = self.max_occupancy.max(self.counters.len());
    }

    /// Records that a line of `(asid, vpn)` left the L1 (eviction).
    pub fn line_evicted(&mut self, asid: Asid, vpn: Vpn) {
        if let Some(c) = self.counters.get_mut(&(asid, vpn)) {
            *c -= 1;
            if *c == 0 {
                self.counters.remove(&(asid, vpn));
            }
        }
    }

    /// Checks an invalidation request: `true` means the page may have
    /// resident lines, so the caller must flush the L1 (and then call
    /// [`InvalFilter::clear`]); `false` means the request is filtered.
    pub fn must_flush(&mut self, asid: Asid, vpn: Vpn) -> bool {
        self.stats.checks.inc();
        if self.counters.contains_key(&(asid, vpn)) {
            self.stats.flushes.inc();
            true
        } else {
            self.stats.filtered.inc();
            false
        }
    }

    /// Clears all counters (after the full L1 flush).
    pub fn clear(&mut self) {
        self.counters.clear();
    }

    /// Number of pages currently tracked.
    pub fn occupancy(&self) -> usize {
        self.counters.len()
    }

    /// The filter's line count for `(asid, vpn)` — 0 when untracked.
    /// Correctness requires this never under-counts the L1's true
    /// per-page residency; the paranoid checker asserts exactly that.
    pub fn line_count(&self, asid: Asid, vpn: Vpn) -> u32 {
        self.counters.get(&(asid, vpn)).copied().unwrap_or(0)
    }

    /// Iterates over tracked pages and their line counts (diagnostics
    /// and invariants).
    pub fn iter(&self) -> impl Iterator<Item = ((Asid, Vpn), u32)> + '_ {
        self.counters.iter().map(|(&k, &c)| (k, c))
    }

    /// High-water mark of tracked pages (to size the real structure;
    /// the paper budgets ~1 KB per 32 KB L1).
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Statistics so far.
    pub fn stats(&self) -> InvalFilterStats {
        self.stats
    }

    /// Captures the filter's full state for checkpointing.
    pub fn snapshot(&self) -> InvalFilterSnapshot {
        let mut counters: Vec<(Asid, Vpn, u32)> = self
            .counters
            .iter()
            .map(|(&(a, v), &c)| (a, v, c))
            .collect();
        counters.sort_by_key(|&(a, v, _)| (a.0, v.raw()));
        InvalFilterSnapshot {
            counters,
            max_occupancy: self.max_occupancy as u64,
            stats: self.stats,
        }
    }

    /// Restores state captured by [`InvalFilter::snapshot`].
    pub fn restore(&mut self, snap: &InvalFilterSnapshot) {
        self.counters.clear();
        for &(a, v, c) in &snap.counters {
            self.counters.insert((a, v), c);
        }
        self.max_occupancy = snap.max_occupancy as usize;
        self.stats = snap.stats;
    }
}

/// Full serializable state of an [`InvalFilter`]
/// (see [`InvalFilter::snapshot`]). Counters are stored as
/// `(asid, vpn)`-sorted triples so serialization is deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvalFilterSnapshot {
    /// Tracked pages and their line counts, sorted by `(asid, vpn)`.
    pub counters: Vec<(Asid, Vpn, u32)>,
    /// High-water mark of tracked pages.
    pub max_occupancy: u64,
    /// Statistics so far.
    pub stats: InvalFilterStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_lines_per_page() {
        let mut f = InvalFilter::new();
        let (a, v) = (Asid(0), Vpn::new(1));
        f.line_filled(a, v);
        f.line_filled(a, v);
        f.line_evicted(a, v);
        assert!(f.must_flush(a, v), "one line still resident");
        f.line_evicted(a, v);
        assert!(!f.must_flush(a, v), "all lines gone: filtered");
        assert_eq!(f.stats().filtered.get(), 1);
        assert_eq!(f.stats().flushes.get(), 1);
    }

    #[test]
    fn eviction_of_untracked_page_is_harmless() {
        let mut f = InvalFilter::new();
        f.line_evicted(Asid(0), Vpn::new(9));
        assert_eq!(f.occupancy(), 0);
    }

    #[test]
    fn clear_resets_after_flush() {
        let mut f = InvalFilter::new();
        f.line_filled(Asid(0), Vpn::new(1));
        f.line_filled(Asid(0), Vpn::new(2));
        assert_eq!(f.occupancy(), 2);
        assert_eq!(f.max_occupancy(), 2);
        f.clear();
        assert_eq!(f.occupancy(), 0);
        assert_eq!(f.max_occupancy(), 2, "high-water mark survives");
        assert!(!f.must_flush(Asid(0), Vpn::new(1)));
    }

    #[test]
    fn asids_are_distinct() {
        let mut f = InvalFilter::new();
        f.line_filled(Asid(1), Vpn::new(5));
        assert!(!f.must_flush(Asid(2), Vpn::new(5)));
        assert!(f.must_flush(Asid(1), Vpn::new(5)));
    }
}
