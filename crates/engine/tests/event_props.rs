//! Property tests for the timing-wheel [`EventQueue`]: the laws below
//! pin the behaviors the wheel could silently break — FIFO ordering
//! among equal timestamps, past-timestamp clamping, arena node reuse
//! never aliasing a live event's payload, and events crossing from the
//! overflow heap into the wheel in `(at, seq)` order.

use gvc_engine::{Cycle, EventQueue};
use proptest::prelude::*;

/// Reference model: sort by (clamped time, schedule order). This is
/// the entire contract of the queue.
fn model_drain(times: &[u64]) -> Vec<(u64, usize)> {
    let now = 0u64;
    let mut pending: Vec<(u64, usize)> = Vec::new();
    for (seq, &t) in times.iter().enumerate() {
        // The model clamps eagerly against the time of the earliest
        // still-pending event only when pops interleave; here every
        // schedule happens before the first pop, so `now` stays 0.
        // Interleaved clamping is covered by its own law below.
        pending.push((t.max(now), seq));
    }
    pending.sort_by_key(|&(t, seq)| (t, seq));
    pending
}

proptest! {
    #[test]
    fn drains_in_time_order_with_fifo_ties(
        times in prop::collection::vec(0u64..50, 0..256),
    ) {
        // Heavy timestamp collisions (range 0..50, up to 256 events)
        // force the FIFO tie-break to carry the ordering.
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.schedule_at(Cycle::new(t), seq);
        }
        let drained: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.raw(), e)).collect();
        prop_assert_eq!(drained, model_drain(&times));
        prop_assert_eq!(q.scheduled_total(), times.len() as u64);
        prop_assert_eq!(q.clamped_past_total(), 0);
    }

    #[test]
    fn past_timestamps_clamp_to_now_and_are_counted(
        advance in 1u64..1_000,
        stale in prop::collection::vec(0u64..2_000, 1..64),
    ) {
        // Advance `now` by popping, then schedule a mix of stale and
        // future events: every stale one must fire exactly at `now`,
        // in FIFO order among themselves, and be counted.
        let mut q = EventQueue::new();
        q.schedule_at(Cycle::new(advance), usize::MAX);
        q.pop();
        prop_assert_eq!(q.now(), Cycle::new(advance));
        for (seq, &t) in stale.iter().enumerate() {
            q.schedule_at(Cycle::new(t), seq);
        }
        let expected_clamped = stale.iter().filter(|&&t| t < advance).count() as u64;
        prop_assert_eq!(q.clamped_past_total(), expected_clamped);
        let mut expected: Vec<(u64, usize)> = stale
            .iter()
            .enumerate()
            .map(|(seq, &t)| (t.max(advance), seq))
            .collect();
        expected.sort_by_key(|&(t, seq)| (t, seq));
        let drained: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.raw(), e)).collect();
        prop_assert_eq!(drained, expected);
    }

    #[test]
    fn slot_reuse_never_aliases_live_events(
        ops in prop::collection::vec((0u64..100, any::<bool>()), 1..512),
    ) {
        // Interleave schedules and pops so freed arena slots are
        // recycled while other events are still live, and check every
        // popped payload is the one scheduled with it (payload = unique
        // schedule id). An aliasing bug — a recycled slot clobbering a
        // live event — surfaces as a duplicate or missing id.
        let mut q = EventQueue::new();
        let mut next_id = 0u64;
        let mut live: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for &(dt, pop) in &ops {
            if pop {
                if let Some((_, id)) = q.pop() {
                    prop_assert!(live.remove(&id), "popped id {} not live", id);
                }
            } else {
                q.schedule_at(q.now() + gvc_engine::Duration::new(dt), next_id);
                live.insert(next_id);
                next_id += 1;
            }
        }
        while let Some((_, id)) = q.pop() {
            prop_assert!(live.remove(&id), "popped id {} not live", id);
        }
        prop_assert!(live.is_empty(), "events lost: {:?}", live);
    }

    #[test]
    fn drain_refill_drain_is_indistinguishable_from_fresh(
        first in prop::collection::vec(0u64..40, 1..64),
        second in prop::collection::vec(0u64..40, 1..64),
    ) {
        // After a full drain the arena is entirely on the free list;
        // a second batch must behave exactly like a fresh queue at the
        // same `now` — slot recycling leaves no residue.
        let mut q = EventQueue::new();
        for (seq, &t) in first.iter().enumerate() {
            q.schedule_at(Cycle::new(t), seq);
        }
        while q.pop().is_some() {}
        let resumed_at = q.now();

        let mut fresh = EventQueue::new();
        // Bring the fresh queue to the same `now`.
        fresh.schedule_at(resumed_at, usize::MAX);
        fresh.pop();

        for (seq, &t) in second.iter().enumerate() {
            q.schedule_at(Cycle::new(t), seq);
            fresh.schedule_at(Cycle::new(t), seq);
        }
        let a: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.raw(), e)).collect();
        let b: Vec<(u64, usize)> =
            std::iter::from_fn(|| fresh.pop()).map(|(t, e)| (t.raw(), e)).collect();
        prop_assert_eq!(a, b);
    }
}

/// One step of the differential law below.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Schedule `count` events at `now + delta` (a same-cycle burst
    /// when `count > 1`).
    Ahead {
        delta: u64,
        count: usize,
    },
    /// Schedule one event `back` cycles before `now` (clamped).
    Past {
        back: u64,
    },
    Pop,
}

impl Step {
    /// Decodes a generated `(kind, value, count)` triple, weighting the
    /// kinds so that offsets cover the 1024-cycle window, its end, and
    /// far past it.
    fn decode((kind, value, count): (u8, u64, usize)) -> Step {
        let few = 1 + count % 2;
        match kind {
            // Near future, inside the window.
            0..=2 => Step::Ahead {
                delta: value % 64,
                count: few,
            },
            // Straddling the window's end.
            3 | 4 => Step::Ahead {
                delta: 1000 + value % 100,
                count: few,
            },
            // Far past the window, into the overflow heap.
            5 | 6 => Step::Ahead {
                delta: value,
                count: few,
            },
            // A same-cycle burst.
            7 => Step::Ahead {
                delta: value % 2048,
                count: 4 + count,
            },
            8 => Step::Past {
                back: 1 + value % 5000,
            },
            _ => Step::Pop,
        }
    }
}

proptest! {
    #[test]
    fn matches_the_sorted_reference_model_step_by_step(
        steps in prop::collection::vec((0u8..14, 0u64..1_000_000, 0usize..12), 1..400),
    ) {
        // Reference model: pending `(at, seq)` pairs, popped in sorted
        // order; `seq` doubles as the payload. Checked after every step:
        // the popped event, `peek_time`, `len` and `now`.
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut schedule = |q: &mut EventQueue<u64>, model: &mut Vec<(u64, u64)>, now: u64, at: u64| {
            q.schedule_at(Cycle::new(at), seq);
            model.push((at.max(now), seq));
            seq += 1;
        };
        for &s in &steps {
            match Step::decode(s) {
                Step::Ahead { delta, count } => {
                    for _ in 0..count {
                        schedule(&mut q, &mut model, now, now + delta);
                    }
                }
                Step::Past { back } => {
                    schedule(&mut q, &mut model, now, now.saturating_sub(back));
                }
                Step::Pop => {
                    let expected = model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &k)| k)
                        .map(|(i, _)| i)
                        .map(|i| model.remove(i));
                    if let Some((at, _)) = expected {
                        now = at;
                    }
                    let got = q.pop().map(|(t, e)| (t.raw(), e));
                    prop_assert_eq!(got, expected);
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
            prop_assert_eq!(q.peek_time().map(Cycle::raw), model.iter().min().map(|&(t, _)| t));
            prop_assert_eq!(q.now().raw(), now);
        }
        prop_assert_eq!(q.scheduled_total(), seq);
        // Drain what is left: the tail must follow the model too.
        model.sort_unstable();
        let rest: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.raw(), e)).collect();
        prop_assert_eq!(rest, model);
    }
}

#[test]
fn arena_recycles_slots_instead_of_growing() {
    // Steady-state ping-pong: one live event at a time, thousands of
    // schedule/pop cycles. With slot recycling the queue never holds
    // more than one payload; the observable proxy is that every pop
    // returns the single live id (an unbounded arena would still pass
    // ordering laws, so this is a smoke check, not the alias law).
    let mut q = EventQueue::new();
    for i in 0u64..10_000 {
        q.schedule_at(Cycle::new(i), i);
        let (t, id) = q.pop().expect("event");
        assert_eq!((t.raw(), id), (i, i));
        assert!(q.is_empty());
    }
    assert_eq!(q.scheduled_total(), 10_000);
}
