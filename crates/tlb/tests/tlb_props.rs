//! Differential law for `Tlb`: random operation sequences drive the
//! live TLB and a reference model side by side, and every result,
//! displaced entry, statistic, `iter()` order and snapshot must match
//! after every step.
//!
//! The model is the plain semantics the TLB must keep: one `Vec` of
//! `(key, entry, stamp)` per set, a use clock that every bounded
//! lookup and insert advances, the first slot with the smallest stamp
//! as the victim, append on fill, swap-remove on evict, and ordered
//! removal on invalidate; a reach sub-array is a nested fully
//! associative model probed first. It shares no code with the TLB.

use gvc_engine::{Cycle, FxHashMap};
use gvc_mem::{Asid, Perms, Ppn, Vpn};
use gvc_tlb::tlb::{Evicted, TlbSlotSnapshot, TlbStats};
use gvc_tlb::{Tlb, TlbConfig, TlbEntry, TlbKey, TlbOrganization, TlbSnapshot};
use proptest::prelude::*;

struct Model {
    config: TlbConfig,
    /// Empty for the infinite organization.
    sets: Vec<Vec<(TlbKey, TlbEntry, u64)>>,
    infinite: bool,
    ways: usize,
    unbounded: FxHashMap<TlbKey, TlbEntry>,
    clock: u64,
    stats: TlbStats,
    reach: Option<Box<Model>>,
}

impl Model {
    fn new(config: TlbConfig) -> Self {
        let (n_sets, ways) = match config.organization {
            TlbOrganization::FullyAssociative { entries } => (1, entries),
            TlbOrganization::SetAssociative { entries, ways } => (entries / ways, ways),
            TlbOrganization::Infinite => (0, 0),
        };
        Model {
            config,
            sets: vec![Vec::new(); n_sets],
            infinite: n_sets == 0,
            ways,
            unbounded: FxHashMap::default(),
            clock: 0,
            stats: TlbStats::default(),
            reach: config
                .reach
                .map(|r| Box::new(Model::new(TlbConfig::per_cu(r.entries)))),
        }
    }

    fn span(&self) -> Option<u64> {
        self.config.reach.map(|r| r.span)
    }

    fn reach_key(key: TlbKey, span: u64) -> (TlbKey, u64) {
        let off = key.vpn.raw() % span;
        (TlbKey::new(key.asid, Vpn::new(key.vpn.raw() - off)), off)
    }

    /// The set-index fold the TLB documents: the ASID mixed in with an
    /// odd-constant multiply.
    fn set_of(&self, key: TlbKey) -> usize {
        let n = self.sets.len() as u64;
        let mix = (key.asid.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((key.vpn.raw() ^ mix) % n) as usize
    }

    fn synth(e: TlbEntry, off: u64) -> TlbEntry {
        TlbEntry {
            ppn: Ppn::new(e.ppn.raw() + off),
            ..e
        }
    }

    fn lookup_tagged(&mut self, key: TlbKey) -> Option<(TlbEntry, bool)> {
        if let Some(span) = self.span() {
            let (rkey, off) = Self::reach_key(key, span);
            if let Some((e, _)) = self.reach.as_mut().unwrap().lookup_tagged(rkey) {
                return Some((Self::synth(e, off), true));
            }
        }
        self.stats.lookups.inc();
        let found = if self.infinite {
            self.unbounded.get(&key).copied()
        } else {
            self.clock += 1;
            let s = self.set_of(key);
            let clock = self.clock;
            self.sets[s]
                .iter_mut()
                .find(|(k, _, _)| *k == key)
                .map(|slot| {
                    slot.2 = clock;
                    slot.1
                })
        };
        if found.is_some() {
            self.stats.hits.inc();
        } else {
            self.stats.misses.inc();
        }
        found.map(|e| (e, false))
    }

    fn peek(&self, key: TlbKey) -> Option<TlbEntry> {
        if let Some(span) = self.span() {
            let (rkey, off) = Self::reach_key(key, span);
            if let Some(e) = self.reach.as_ref().unwrap().peek(rkey) {
                return Some(Self::synth(e, off));
            }
        }
        if self.infinite {
            return self.unbounded.get(&key).copied();
        }
        self.sets[self.set_of(key)]
            .iter()
            .find(|(k, _, _)| *k == key)
            .map(|s| s.1)
    }

    fn insert(&mut self, key: TlbKey, ppn: Ppn, perms: Perms, now: Cycle) -> Option<Evicted> {
        let entry = TlbEntry {
            ppn,
            perms,
            inserted_at: now,
        };
        if self.infinite {
            self.unbounded.insert(key, entry);
            return None;
        }
        self.clock += 1;
        let s = self.set_of(key);
        let (clock, ways) = (self.clock, self.ways);
        let set = &mut self.sets[s];
        if let Some(slot) = set.iter_mut().find(|(k, _, _)| *k == key) {
            slot.1 = entry;
            slot.2 = clock;
            return None;
        }
        let mut displaced = None;
        if set.len() >= ways {
            let mut v = 0;
            for i in 1..set.len() {
                if set[i].2 < set[v].2 {
                    v = i;
                }
            }
            let (k, e, _) = set.swap_remove(v);
            self.stats.evictions.inc();
            displaced = Some(Evicted {
                key: k,
                entry: e,
                evicted_at: now,
            });
        }
        set.push((key, entry, clock));
        displaced
    }

    fn insert_sized(
        &mut self,
        key: TlbKey,
        ppn: Ppn,
        perms: Perms,
        now: Cycle,
        span_backed: bool,
    ) -> Option<Evicted> {
        match self.span() {
            Some(span) if span_backed => {
                let (rkey, off) = Self::reach_key(key, span);
                self.reach
                    .as_mut()
                    .unwrap()
                    .insert(rkey, Ppn::new(ppn.raw() - off), perms, now)
            }
            _ => self.insert(key, ppn, perms, now),
        }
    }

    fn invalidate(&mut self, key: TlbKey) -> bool {
        let base = if self.infinite {
            self.unbounded.remove(&key).is_some()
        } else {
            let s = self.set_of(key);
            let set = &mut self.sets[s];
            let before = set.len();
            set.retain(|(k, _, _)| *k != key);
            set.len() != before
        };
        if base {
            self.stats.invalidations.inc();
        }
        let mut reach = false;
        if let Some(span) = self.span() {
            let (rkey, _) = Self::reach_key(key, span);
            reach = self.reach.as_mut().unwrap().invalidate(rkey);
        }
        base || reach
    }

    fn invalidate_asid(&mut self, asid: Asid) -> usize {
        let before = self.len();
        self.unbounded.retain(|k, _| k.asid != asid);
        for set in &mut self.sets {
            set.retain(|(k, _, _)| k.asid != asid);
        }
        let removed = before - self.len();
        self.stats.invalidations.add(removed as u64);
        removed + self.reach.as_mut().map_or(0, |r| r.invalidate_asid(asid))
    }

    fn len(&self) -> usize {
        self.unbounded.len() + self.sets.iter().map(Vec::len).sum::<usize>()
    }

    fn flush(&mut self) -> usize {
        let n = self.len();
        self.unbounded.clear();
        self.sets.iter_mut().for_each(Vec::clear);
        self.stats.invalidations.add(n as u64);
        n + self.reach.as_mut().map_or(0, |r| r.flush())
    }

    fn record_merged_miss(&mut self) {
        self.stats.lookups.inc();
        self.stats.misses.inc();
    }

    /// Bounded entries in set order; unbounded ones sorted (their map
    /// iteration order is not part of the contract).
    fn entries(&self) -> Vec<(TlbKey, TlbEntry)> {
        let mut unbounded: Vec<_> = self.unbounded.iter().map(|(k, e)| (*k, *e)).collect();
        unbounded.sort_by_key(|(k, _)| (k.asid.0, k.vpn.raw()));
        self.sets
            .iter()
            .flatten()
            .map(|&(k, e, _)| (k, e))
            .chain(unbounded)
            .collect()
    }

    fn snapshot(&self) -> TlbSnapshot {
        let mut unbounded: Vec<_> = self.unbounded.iter().map(|(k, e)| (*k, *e)).collect();
        unbounded.sort_by_key(|(k, _)| (k.asid.0, k.vpn.raw()));
        TlbSnapshot {
            config: self.config,
            sets: self
                .sets
                .iter()
                .map(|set| {
                    set.iter()
                        .map(|&(key, entry, last_use)| TlbSlotSnapshot {
                            key,
                            entry,
                            last_use,
                        })
                        .collect()
                })
                .collect(),
            unbounded,
            use_clock: self.clock,
            stats: self.stats,
            reach: self.reach.as_ref().map(|r| Box::new(r.snapshot())),
        }
    }
}

/// The live TLB's entries in the model's order (see [`Model::entries`]).
fn entries(tlb: &Tlb) -> Vec<(TlbKey, TlbEntry)> {
    let mut out: Vec<_> = tlb.iter().collect();
    if matches!(tlb.config().organization, TlbOrganization::Infinite) {
        out.sort_by_key(|(k, _)| (k.asid.0, k.vpn.raw()));
    }
    out
}

/// Organizations under test: the paper's fully associative per-CU TLB,
/// the shared 8-way TLB, a set count that is not a power of two (the
/// modulo index path), the infinite TLB, and a per-CU TLB with a
/// 2 MB-span reach sub-array and one with an 8-page span.
fn organization(pick: u64) -> TlbConfig {
    match pick % 6 {
        0 => TlbConfig::per_cu(32),
        1 => TlbConfig::shared(64),
        2 => TlbConfig {
            organization: TlbOrganization::SetAssociative {
                entries: 24,
                ways: 4,
            },
            reach: None,
        },
        3 => TlbConfig::infinite(),
        4 => TlbConfig::per_cu(8).with_reach(4, 512),
        _ => TlbConfig::shared(32).with_reach(2, 8),
    }
}

/// A key from random bits: a few ASIDs, VPNs in a window a little
/// larger than the TLB (so sets fill and evict) and spread over a few
/// reach spans, and now and then a VPN near the 2^48 packing limit.
fn key_from(bits: u64) -> TlbKey {
    let asid = Asid((bits & 3) as u16);
    let mut vpn = (bits >> 2) % 96 + ((bits >> 9) % 3) * 512;
    if (bits >> 20).is_multiple_of(16) {
        vpn |= 1 << 47;
    }
    TlbKey::new(asid, Vpn::new(vpn))
}

proptest! {
    #[test]
    fn tlb_matches_the_reference_model(
        org in 0u64..6,
        ops in prop::collection::vec((0u8..13, any::<u64>()), 1..300),
    ) {
        let config = organization(org);
        let mut tlb = Tlb::new(config);
        let mut model = Model::new(config);
        let mut now = 0u64;
        for (step, &(op, bits)) in ops.iter().enumerate() {
            now += bits >> 60;
            let at = Cycle::new(now);
            let key = key_from(bits);
            // Frames well above any in-span offset, so a reach fill's
            // base frame never underflows.
            let ppn = Ppn::new(4096 + (bits >> 32 & 0xFFFF));
            let perms = Perms::from_bits((bits >> 24) as u8);
            match op {
                0..=2 => prop_assert_eq!(
                    tlb.lookup_tagged(key, at),
                    model.lookup_tagged(key),
                    "lookup {}", step
                ),
                3 => prop_assert_eq!(tlb.peek(key), model.peek(key), "peek {}", step),
                4..=6 => prop_assert_eq!(
                    tlb.insert(key, ppn, perms, at),
                    model.insert(key, ppn, perms, at),
                    "insert {}", step
                ),
                7 => {
                    let span_backed = bits >> 31 & 1 == 1;
                    prop_assert_eq!(
                        tlb.insert_sized(key, ppn, perms, at, span_backed),
                        model.insert_sized(key, ppn, perms, at, span_backed),
                        "insert_sized {}", step
                    );
                }
                8 => prop_assert_eq!(tlb.invalidate(key), model.invalidate(key), "invalidate {}", step),
                9 => {
                    if bits % 4 == 0 {
                        prop_assert_eq!(
                            tlb.invalidate_asid(key.asid),
                            model.invalidate_asid(key.asid),
                            "invalidate_asid {}", step
                        );
                    }
                }
                10 => {
                    if bits % 8 == 0 {
                        prop_assert_eq!(tlb.flush(), model.flush(), "flush {}", step);
                    }
                }
                11 => {
                    tlb.record_merged_miss();
                    model.record_merged_miss();
                }
                _ => {
                    let snap = tlb.snapshot();
                    prop_assert_eq!(&snap, &model.snapshot(), "snapshot {}", step);
                    tlb = Tlb::new(config);
                    tlb.restore(&snap);
                }
            }
            prop_assert_eq!(tlb.stats(), model.stats, "stats {}", step);
            prop_assert_eq!(
                tlb.reach_stats(),
                model.reach.as_ref().map(|r| r.stats),
                "reach stats {}", step
            );
            prop_assert_eq!(tlb.len(), model.len(), "len {}", step);
            prop_assert_eq!(entries(&tlb), model.entries(), "iter() {}", step);
            prop_assert_eq!(
                tlb.iter_reach().collect::<Vec<_>>(),
                model.reach.as_ref().map_or(Vec::new(), |r| r.entries()),
                "iter_reach() {}", step
            );
        }
        prop_assert_eq!(tlb.snapshot(), model.snapshot(), "final snapshot");
    }
}
