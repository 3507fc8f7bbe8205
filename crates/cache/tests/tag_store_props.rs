//! Differential law for `SetAssocCache`: random operation sequences
//! drive the live tag store and a reference model side by side, and
//! every result, victim, statistic, `iter()` order and snapshot must
//! match after every step.
//!
//! The model is the plain semantics the store must keep: one `Vec` of
//! `(line, stamp)` per set, a use clock that every lookup and insert
//! advances, the first slot with the smallest stamp as the victim,
//! append on fill, and swap-remove on evict and invalidate. It shares
//! no code with the store.

use gvc_cache::{CacheConfig, CacheLine, CacheSlotSnapshot, CacheSnapshot, CacheStats};
use gvc_cache::{LineKey, SetAssocCache, WritePolicy};
use gvc_engine::Cycle;
use gvc_mem::{Asid, Perms, LINES_PER_PAGE, LINE_BYTES};
use proptest::prelude::*;

struct Model {
    config: CacheConfig,
    sets: Vec<Vec<(CacheLine, u64)>>,
    clock: u64,
    stats: CacheStats,
}

impl Model {
    fn new(config: CacheConfig) -> Self {
        Model {
            config,
            sets: vec![Vec::new(); config.sets()],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The set-index fold the cache documents: the ASID mixed in with
    /// an odd-constant multiply, the bank bits skipped.
    fn set_of(&self, key: LineKey) -> usize {
        let mix = (key.asid.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let folded = (key.line >> self.config.index_shift) ^ mix;
        (folded % self.sets.len() as u64) as usize
    }

    fn pos(&self, key: LineKey) -> (usize, Option<usize>) {
        let s = self.set_of(key);
        (s, self.sets[s].iter().position(|(l, _)| l.key == key))
    }

    fn lookup(&mut self, key: LineKey, now: Cycle) -> Option<CacheLine> {
        self.stats.lookups.inc();
        self.clock += 1;
        match self.pos(key) {
            (s, Some(i)) => {
                let slot = &mut self.sets[s][i];
                slot.1 = self.clock;
                slot.0.last_access = now;
                self.stats.hits.inc();
                Some(slot.0)
            }
            (_, None) => {
                self.stats.misses.inc();
                None
            }
        }
    }

    fn peek(&self, key: LineKey) -> Option<CacheLine> {
        match self.pos(key) {
            (s, Some(i)) => Some(self.sets[s][i].0),
            _ => None,
        }
    }

    fn mark_dirty(&mut self, key: LineKey) -> bool {
        match self.pos(key) {
            (s, Some(i)) => {
                self.sets[s][i].0.dirty = true;
                true
            }
            _ => false,
        }
    }

    fn insert(&mut self, key: LineKey, perms: Perms, dirty: bool, now: Cycle) -> Option<CacheLine> {
        self.clock += 1;
        let (s, found) = self.pos(key);
        if let Some(i) = found {
            let slot = &mut self.sets[s][i];
            slot.0.perms = perms;
            slot.0.dirty |= dirty;
            slot.0.last_access = now;
            slot.1 = self.clock;
            return None;
        }
        let mut victim = None;
        if self.sets[s].len() >= self.config.ways {
            let mut v = 0;
            for i in 1..self.sets[s].len() {
                if self.sets[s][i].1 < self.sets[s][v].1 {
                    v = i;
                }
            }
            let (line, _) = self.sets[s].swap_remove(v);
            self.stats.evictions.inc();
            if line.dirty {
                self.stats.writebacks.inc();
            }
            victim = Some(line);
        }
        self.stats.fills.inc();
        let line = CacheLine {
            key,
            perms,
            dirty,
            inserted_at: now,
            last_access: now,
        };
        self.sets[s].push((line, self.clock));
        victim
    }

    fn invalidate(&mut self, key: LineKey) -> Option<CacheLine> {
        let (s, i) = self.pos(key);
        let i = i?;
        self.stats.invalidations.inc();
        Some(self.sets[s].swap_remove(i).0)
    }

    fn invalidate_page(&mut self, asid: Asid, page: u64) -> Vec<CacheLine> {
        let mut removed = Vec::new();
        for set in &mut self.sets {
            let mut i = 0;
            while i < set.len() {
                if set[i].0.key.asid == asid && set[i].0.key.page() == page {
                    removed.push(set.swap_remove(i).0);
                } else {
                    i += 1;
                }
            }
        }
        self.stats.invalidations.add(removed.len() as u64);
        removed
    }

    fn flush(&mut self) -> Vec<CacheLine> {
        let removed: Vec<CacheLine> = self.iter().collect();
        self.sets.iter_mut().for_each(Vec::clear);
        self.stats.invalidations.add(removed.len() as u64);
        removed
    }

    fn iter(&self) -> impl Iterator<Item = CacheLine> + '_ {
        self.sets.iter().flatten().map(|(l, _)| *l)
    }

    fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            config: self.config,
            sets: self
                .sets
                .iter()
                .map(|set| {
                    set.iter()
                        .map(|&(line, last_use)| CacheSlotSnapshot { line, last_use })
                        .collect()
                })
                .collect(),
            use_clock: self.clock,
            stats: self.stats,
        }
    }
}

/// Geometries under test: the paper's L1 and L2 bank, a set count that
/// is not a power of two (the modulo index path), one fully
/// associative set, and a direct-mapped store.
fn geometry(pick: u64) -> CacheConfig {
    let custom = |sets: u64, ways: usize, index_shift| CacheConfig {
        bytes: sets * ways as u64 * LINE_BYTES,
        ways,
        policy: WritePolicy::WriteBackAllocate,
        index_shift,
    };
    match pick % 5 {
        0 => CacheConfig::gpu_l1(),
        1 => CacheConfig::gpu_l2_bank(),
        2 => custom(12, 4, 1),
        3 => custom(1, 8, 0),
        _ => custom(16, 1, 0),
    }
}

/// A key from 64 random bits, drawn so that sets fill and evict: a few
/// ASIDs, lines a multiple of the set count apart (so they share a
/// set), and now and then a line near the 2^48 packing limit.
fn key_from(bits: u64, config: CacheConfig) -> LineKey {
    let asid = Asid((bits & 3) as u16);
    let set_hint = (bits >> 2) & 3;
    let k = (bits >> 4) % (2 * config.ways as u64 + 1);
    let bank_bits = (bits >> 12) & ((1 << config.index_shift) - 1);
    let mut line = ((set_hint + k * config.sets() as u64) << config.index_shift) | bank_bits;
    if (bits >> 20).is_multiple_of(16) {
        line |= 1 << 47;
    }
    LineKey::new(asid, line)
}

fn perms_from(bits: u64) -> Perms {
    Perms::from_bits((bits >> 24) as u8)
}

proptest! {
    #[test]
    fn set_assoc_cache_matches_the_reference_model(
        geo in 0u64..5,
        ops in prop::collection::vec((0u8..12, any::<u64>()), 1..400),
    ) {
        let config = geometry(geo);
        let mut cache = SetAssocCache::new(config);
        let mut model = Model::new(config);
        let mut now = 0u64;
        for (step, &(op, bits)) in ops.iter().enumerate() {
            now += bits >> 60;
            let at = Cycle::new(now);
            let key = key_from(bits, config);
            match op {
                0..=2 => prop_assert_eq!(cache.lookup(key, at), model.lookup(key, at), "lookup {}", step),
                3 => prop_assert_eq!(cache.peek(key), model.peek(key), "peek {}", step),
                4..=6 => {
                    let dirty = bits >> 30 & 1 == 1;
                    let perms = perms_from(bits);
                    prop_assert_eq!(
                        cache.insert(key, perms, dirty, at),
                        model.insert(key, perms, dirty, at),
                        "insert victim {}", step
                    );
                }
                7 => prop_assert_eq!(cache.mark_dirty(key), model.mark_dirty(key), "mark_dirty {}", step),
                8 => prop_assert_eq!(cache.invalidate(key), model.invalidate(key), "invalidate {}", step),
                9 => {
                    let page = key.line / LINES_PER_PAGE;
                    prop_assert_eq!(
                        cache.invalidate_page(key.asid, page),
                        model.invalidate_page(key.asid, page),
                        "invalidate_page {}", step
                    );
                }
                10 => {
                    if bits % 8 == 0 {
                        prop_assert_eq!(cache.flush(), model.flush(), "flush {}", step);
                    }
                }
                _ => {
                    // Checkpoint round trip: continue on a fresh store
                    // restored from the snapshot.
                    let snap = cache.snapshot();
                    prop_assert_eq!(&snap, &model.snapshot(), "snapshot {}", step);
                    cache = SetAssocCache::new(config);
                    cache.restore(&snap);
                }
            }
            prop_assert_eq!(cache.stats(), model.stats, "stats {}", step);
            prop_assert_eq!(cache.len(), model.iter().count(), "len {}", step);
            prop_assert!(
                cache.iter().eq(model.iter()),
                "iter() order diverged at step {}", step
            );
        }
        prop_assert_eq!(cache.snapshot(), model.snapshot(), "final snapshot");
    }
}
