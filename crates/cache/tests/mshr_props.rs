//! Differential law for `MshrFile`: random `check`/`pending`/`register`
//! sequences against a reference `FxHashMap<LineKey, Cycle>` model.
//!
//! The model states the file's current rules, including the two that
//! drop state: `check` removes a stale entry it probes, and `register`
//! prunes every entry completing at or before the new fill once the
//! map holds more than 4096 entries, whether or not those fills are
//! still in flight, the new fill included. `now` is not monotone here, so a fill can be
//! dropped while a later probe would still see it in flight: changing
//! that rule has to change this law too.

use gvc_cache::cache::MshrOutcome;
use gvc_cache::{LineKey, MshrFile, MshrSnapshot};
use gvc_engine::{Counter, Cycle, FxHashMap};
use gvc_mem::Asid;
use proptest::prelude::*;

/// The size above which `register` prunes.
const PRUNE_ABOVE: usize = 4096;

#[derive(Default)]
struct Model {
    inflight: FxHashMap<LineKey, Cycle>,
    latest_done: Cycle,
    merges: Counter,
    primaries: Counter,
}

impl Model {
    fn check(&mut self, key: LineKey, now: Cycle) -> MshrOutcome {
        if now < self.latest_done {
            if let Some(&done) = self.inflight.get(&key) {
                if done > now {
                    self.merges.inc();
                    return MshrOutcome::Merged { fill_done: done };
                }
                self.inflight.remove(&key);
            }
        }
        self.primaries.inc();
        MshrOutcome::Primary
    }

    fn pending(&self, key: LineKey, now: Cycle) -> Option<Cycle> {
        if now >= self.latest_done {
            return None;
        }
        self.inflight.get(&key).copied().filter(|&d| d > now)
    }

    fn register(&mut self, key: LineKey, fill_done: Cycle) {
        self.latest_done = self.latest_done.max(fill_done);
        self.inflight.insert(key, fill_done);
        if self.inflight.len() > PRUNE_ABOVE {
            self.inflight.retain(|_, &mut d| d > fill_done);
        }
    }

    fn snapshot(&self) -> MshrSnapshot {
        let mut inflight: Vec<(LineKey, Cycle)> =
            self.inflight.iter().map(|(&k, &c)| (k, c)).collect();
        inflight.sort_by_key(|(k, _)| (k.asid.0, k.line));
        MshrSnapshot {
            inflight,
            latest_done: self.latest_done,
            merges: self.merges,
            primaries: self.primaries,
        }
    }
}

/// A key from random bits: mostly a small hot set (so probes hit
/// registered fills), sometimes any line of any ASID up to the 2^48
/// packing limit.
fn key_from(bits: u64) -> LineKey {
    if bits & 7 == 0 {
        LineKey::new(Asid((bits >> 3) as u16), (bits >> 19) & ((1 << 45) - 1))
    } else {
        LineKey::new(Asid((bits >> 3 & 3) as u16), bits >> 5 & 63)
    }
}

proptest! {
    #[test]
    fn mshr_file_matches_the_reference_model(
        ops in prop::collection::vec((0u8..8, any::<u64>()), 1..200),
    ) {
        let mut mshr = MshrFile::new();
        let mut model = Model::default();
        // A clock that mostly advances but can step back.
        let mut now = 1_000u64;
        for (step, &(op, bits)) in ops.iter().enumerate() {
            let delta = bits >> 56;
            now = if bits >> 55 & 1 == 1 { now.saturating_sub(delta) } else { now + delta };
            let at = Cycle::new(now);
            let key = key_from(bits);
            match op {
                0..=2 => prop_assert_eq!(mshr.check(key, at), model.check(key, at), "check {}", step),
                3 => prop_assert_eq!(mshr.pending(key, at), model.pending(key, at), "pending {}", step),
                4 | 5 => {
                    let done = Cycle::new(now + (bits >> 40 & 511));
                    mshr.register(key, done);
                    model.register(key, done);
                }
                6 => {
                    // A burst of distinct fills, enough to cross the
                    // prune threshold within a few steps.
                    let mut x = bits | 1;
                    for i in 0..700u64 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = LineKey::new(Asid((x & 7) as u16), (x >> 3) & ((1 << 40) - 1));
                        let done = Cycle::new(now + i % 300);
                        mshr.register(k, done);
                        model.register(k, done);
                    }
                }
                _ => {
                    let snap = mshr.snapshot();
                    prop_assert_eq!(&snap, &model.snapshot(), "snapshot {}", step);
                    mshr = MshrFile::new();
                    mshr.restore(&snap);
                }
            }
            prop_assert_eq!(mshr.merges(), model.merges.get(), "merges {}", step);
            prop_assert_eq!(mshr.primaries(), model.primaries.get(), "primaries {}", step);
        }
        prop_assert_eq!(mshr.snapshot(), model.snapshot(), "final snapshot");
    }
}

#[test]
fn size_capped_prune_drops_fills_still_in_flight() {
    // The current rule, pinned so that changing it is a visible,
    // deliberate edit: once the map exceeds 4096 entries, registering
    // a fill that completes at cycle 10 drops every entry completing
    // at or before 10. That includes a fill still in flight at cycle 5,
    // which therefore no longer merges, and the fill just registered.
    let mut mshr = MshrFile::new();
    let victim = LineKey::new(Asid(1), 7);
    mshr.register(victim, Cycle::new(8));
    for line in 0..PRUNE_ABOVE as u64 - 1 {
        mshr.register(LineKey::new(Asid(2), line), Cycle::new(1_000));
    }
    assert_eq!(
        mshr.pending(victim, Cycle::new(5)),
        Some(Cycle::new(8)),
        "at the cap nothing is pruned"
    );
    let newest = LineKey::new(Asid(3), 0);
    mshr.register(newest, Cycle::new(10));
    assert_eq!(mshr.pending(victim, Cycle::new(5)), None);
    assert_eq!(mshr.pending(newest, Cycle::new(5)), None);
    assert_eq!(mshr.check(victim, Cycle::new(5)), MshrOutcome::Primary);
    assert_eq!(mshr.snapshot().inflight.len(), PRUNE_ABOVE - 1);
}
