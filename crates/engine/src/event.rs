//! A deterministic, tick-ordered event queue.
//!
//! [`EventQueue`] is a priority queue of `(Cycle, E)` pairs. Events pop in
//! nondecreasing time order; events scheduled for the same cycle pop in
//! the order they were scheduled (FIFO tie-breaking), which keeps
//! simulations fully deterministic.
//!
//! # Timing wheel
//!
//! Simulated events are mostly near-future: a wavefront wakes a few to a
//! few hundred cycles after it issues. So the queue is a timing wheel:
//! 1024 per-cycle FIFO slots covering `[now, now + 1024)`, a bitmap of the
//! non-empty slots, and an overflow heap for events at or beyond
//! `now + 1024`.
//!
//! * A schedule inside the window appends to its cycle's slot in O(1); a
//!   far-future one pushes onto the overflow heap, ordered by
//!   `(at, seq)` with `seq` the schedule count.
//! * A pop takes the head of the first non-empty slot at or after `now`
//!   (a scan of at most 16 bitmap words), or, with the wheel empty, the
//!   overflow heap's minimum. Once `now` has advanced, every overflow
//!   event that the window now covers moves into its slot, in `(at, seq)`
//!   order, before the pop returns.
//!
//! FIFO order within a cycle is exact, because a slot only ever receives
//! events in schedule order. An event for cycle `t` goes to the overflow
//! heap only while `t >= now + 1024`, and it moves into its slot at the
//! first pop that brings `t` inside the window, before any later schedule
//! could append to that slot directly. `now` never decreases, so every
//! overflow event for `t` was scheduled before every direct one.
//!
//! Payloads live in a node arena with an explicit free list; slots link
//! node indices and the overflow heap orders small `Copy` keys. Nodes
//! freed by [`EventQueue::pop`] are recycled by later schedules, so a
//! steady-state simulation stops touching the allocator entirely.

use crate::time::{Cycle, Duration};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles the wheel covers, starting at `now`.
const WINDOW: u64 = 1024;
/// Words of the occupied-slot bitmap.
const WORDS: usize = (WINDOW / 64) as usize;
/// End-of-list marker for node links.
const NIL: u32 = u32::MAX;

/// An overflow-heap entry: a small `Copy` ordering key plus the arena
/// node holding the payload.
#[derive(Debug, Clone, Copy)]
struct HeapKey {
    at: Cycle,
    seq: u64,
    node: u32,
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapKey {}
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `node` is deliberately not part of the order: `seq` is unique,
        // so (at, seq) is already a total order and FIFO tie-breaking
        // among equal timestamps follows from seq monotonicity.
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// An arena node: a payload (`None` while the node is free) and the
/// next node of its wheel slot.
#[derive(Debug)]
struct Node<E> {
    event: Option<E>,
    next: u32,
}

/// One wheel slot's FIFO, linked through [`Node::next`]. `tail` is
/// meaningful only while `head != NIL`.
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
}

/// A tick-ordered event queue with FIFO tie-breaking.
///
/// The queue tracks the current simulation time: [`EventQueue::now`]
/// advances to the timestamp of the most recently popped event. Events
/// may be scheduled at absolute times ([`schedule_at`]) or relative to
/// `now` ([`schedule_in`]).
///
/// Scheduling an event in the past (before `now`) would violate
/// causality, so [`schedule_at`] clamps such timestamps to `now` and
/// counts them in [`clamped_past_total`] — identically in debug and
/// release builds, so release never silently enqueues a stale
/// timestamp that a debug run would have rejected. Callers that want
/// past scheduling to be an error use [`try_schedule_at`].
///
/// [`schedule_at`]: EventQueue::schedule_at
/// [`schedule_in`]: EventQueue::schedule_in
/// [`try_schedule_at`]: EventQueue::try_schedule_at
/// [`clamped_past_total`]: EventQueue::clamped_past_total
///
/// # Example
///
/// ```
/// use gvc_engine::{Cycle, Duration, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule_at(Cycle::new(3), "wake");
/// while let Some((now, ev)) = q.pop() {
///     assert_eq!(now, Cycle::new(3));
///     assert_eq!(ev, "wake");
/// }
/// assert_eq!(q.now(), Cycle::new(3));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Payload arena, indexed by slot links and [`HeapKey::node`].
    nodes: Vec<Node<E>>,
    /// Free-node stack; reused LIFO so the arena stays compact.
    free: Vec<u32>,
    /// Slot `t % WINDOW` holds the events at cycle `t`, for every `t`
    /// in `[now, now + WINDOW)`.
    slots: Box<[Fifo]>,
    /// Bit `s` is set exactly when slot `s` is non-empty.
    occupied: [u64; WORDS],
    /// Events in the wheel.
    in_wheel: usize,
    /// Events at or beyond `now + WINDOW`.
    overflow: BinaryHeap<Reverse<HeapKey>>,
    now: Cycle,
    scheduled_total: u64,
    clamped_past: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: Vec::new(),
            slots: vec![
                Fifo {
                    head: NIL,
                    tail: NIL
                };
                WINDOW as usize
            ]
            .into_boxed_slice(),
            occupied: [0; WORDS],
            in_wheel: 0,
            overflow: BinaryHeap::new(),
            now: Cycle::ZERO,
            scheduled_total: 0,
            clamped_past: 0,
        }
    }

    /// The current simulation time: the timestamp of the most recently
    /// popped event (or [`Cycle::ZERO`] before any pop).
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// A timestamp before [`now`](Self::now) is clamped to `now` (the
    /// event fires immediately, never retroactively) and counted in
    /// [`clamped_past_total`](Self::clamped_past_total). Use
    /// [`try_schedule_at`](Self::try_schedule_at) to treat past
    /// scheduling as an error instead.
    pub fn schedule_at(&mut self, at: Cycle, event: E) {
        let at = if at < self.now {
            self.clamped_past += 1;
            self.now
        } else {
            at
        };
        let seq = self.scheduled_total;
        self.scheduled_total += 1;
        let node = match self.free.pop() {
            Some(i) => {
                let n = &mut self.nodes[i as usize];
                debug_assert!(n.event.is_none(), "free node was live");
                *n = Node {
                    event: Some(event),
                    next: NIL,
                };
                i
            }
            None => {
                // `NIL` ends slot lists, so it is never a node index.
                let i = u32::try_from(self.nodes.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("event arena overflow");
                self.nodes.push(Node {
                    event: Some(event),
                    next: NIL,
                });
                i
            }
        };
        if at.raw() - self.now.raw() < WINDOW {
            self.append(at, node);
        } else {
            self.overflow.push(Reverse(HeapKey { at, seq, node }));
        }
    }

    /// Schedules `event` at absolute time `at`, rejecting past
    /// timestamps.
    ///
    /// # Errors
    ///
    /// If `at` is before [`now`](Self::now), nothing is enqueued and
    /// the event is handed back so the caller can reschedule it.
    pub fn try_schedule_at(&mut self, at: Cycle, event: E) -> Result<(), E> {
        if at < self.now {
            return Err(event);
        }
        self.schedule_at(at, event);
        Ok(())
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the earliest event, advancing [`now`](Self::now) to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let (at, node) = match self.first_slot() {
            Some(s) => {
                let at = self.slot_time(s);
                let head = self.slots[s].head;
                let next = self.nodes[head as usize].next;
                self.slots[s].head = next;
                if next == NIL {
                    self.occupied[s / 64] &= !(1 << (s % 64));
                }
                self.in_wheel -= 1;
                (at, head)
            }
            // The wheel is empty, so the overflow minimum is next.
            None => {
                let Reverse(k) = self.overflow.pop()?;
                (k.at, k.node)
            }
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        // Move every overflow event the advanced window now covers into
        // its slot before any later schedule can append there.
        while let Some(&Reverse(k)) = self.overflow.peek() {
            if k.at.raw() - self.now.raw() >= WINDOW {
                break;
            }
            self.overflow.pop();
            self.append(k.at, k.node);
        }
        let event = self.nodes[node as usize]
            .event
            .take()
            .expect("queued node was free");
        self.free.push(node);
        Some((at, event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        match self.first_slot() {
            Some(s) => Some(self.slot_time(s)),
            None => self.overflow.peek().map(|Reverse(k)| k.at),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_wheel + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (a progress/telemetry metric).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// How many [`schedule_at`](Self::schedule_at) calls carried a
    /// timestamp before `now` and were clamped. Nonzero means a caller
    /// has a causality bug even if the simulation completed.
    pub fn clamped_past_total(&self) -> u64 {
        self.clamped_past
    }

    /// Appends `node` to the slot of cycle `at`, which must lie in
    /// `[now, now + WINDOW)`.
    fn append(&mut self, at: Cycle, node: u32) {
        let s = (at.raw() % WINDOW) as usize;
        let fifo = &mut self.slots[s];
        if fifo.head == NIL {
            fifo.head = node;
            self.occupied[s / 64] |= 1 << (s % 64);
        } else {
            self.nodes[fifo.tail as usize].next = node;
        }
        fifo.tail = node;
        self.in_wheel += 1;
    }

    /// The first non-empty slot at or after `now`'s, wrapping around
    /// the wheel once.
    fn first_slot(&self) -> Option<usize> {
        if self.in_wheel == 0 {
            return None;
        }
        let start = (self.now.raw() % WINDOW) as usize;
        let (w0, b0) = (start / 64, start % 64);
        let high = self.occupied[w0] & (!0u64 << b0);
        if high != 0 {
            return Some(w0 * 64 + high.trailing_zeros() as usize);
        }
        for i in 1..=WORDS {
            let w = (w0 + i) % WORDS;
            // The last word visited is `w0` again: only its bits below
            // `start`, the wrapped end of the window, remain.
            let bits = if i == WORDS {
                self.occupied[w] & !(!0u64 << b0)
            } else {
                self.occupied[w]
            };
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        unreachable!("in_wheel > 0 but no slot is occupied")
    }

    /// The cycle slot `s` holds: the one in `[now, now + WINDOW)`
    /// congruent to `s`.
    fn slot_time(&self, s: usize) -> Cycle {
        let start = self.now.raw() % WINDOW;
        self.now + Duration::new((s as u64 + WINDOW - start) % WINDOW)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycle::new(30), 3);
        q.schedule_at(Cycle::new(10), 1);
        q.schedule_at(Cycle::new(20), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(Cycle::new(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycle::new(5), ());
        assert_eq!(q.now(), Cycle::ZERO);
        q.pop();
        assert_eq!(q.now(), Cycle::new(5));
        q.schedule_in(Duration::new(10), ());
        assert_eq!(q.peek_time(), Some(Cycle::new(15)));
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(Cycle::new(1), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    // Deliberately NOT gated on cfg(debug_assertions): the clamp must
    // behave identically under --release, where the old debug_assert
    // silently enqueued the stale timestamp (ci.sh runs this crate's
    // tests in release too).
    #[test]
    fn past_scheduling_clamps_to_now_in_every_profile() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycle::new(10), "late");
        q.pop();
        assert_eq!(q.now(), Cycle::new(10));
        q.schedule_at(Cycle::new(5), "stale");
        assert_eq!(q.clamped_past_total(), 1);
        // The stale event fires at `now`, never in the past.
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (Cycle::new(10), "stale"));
        assert_eq!(q.now(), Cycle::new(10));
        // FIFO order among a clamped event and a genuine `now` event.
        q.schedule_at(Cycle::new(2), "first");
        q.schedule_at(Cycle::new(10), "second");
        assert_eq!(q.clamped_past_total(), 2);
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn try_schedule_at_rejects_past_timestamps() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycle::new(10), "x");
        q.pop();
        assert_eq!(q.try_schedule_at(Cycle::new(3), "stale"), Err("stale"));
        assert!(q.is_empty(), "rejected event is not enqueued");
        assert_eq!(q.clamped_past_total(), 0, "rejection is not a clamp");
        assert_eq!(q.try_schedule_at(Cycle::new(10), "ok"), Ok(()));
        assert_eq!(q.pop().unwrap().1, "ok");
    }

    #[test]
    fn overflow_events_keep_fifo_order_with_later_direct_schedules() {
        let mut q = EventQueue::new();
        // Beyond the window at schedule time: both go to the overflow
        // heap.
        q.schedule_at(Cycle::new(5000), "far-1");
        q.schedule_at(Cycle::new(5000), "far-2");
        q.schedule_at(Cycle::new(4500), "step");
        assert_eq!(q.pop().unwrap().1, "step");
        // 5000 is now inside the window: a direct schedule there must
        // still pop after the two scheduled before it.
        q.schedule_at(Cycle::new(5000), "near");
        assert_eq!(q.peek_time(), Some(Cycle::new(5000)));
        assert_eq!(q.len(), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["far-1", "far-2", "near"]);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycle::new(1), "a");
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.raw(), e), (1, "a"));
        q.schedule_in(Duration::new(2), "b");
        q.schedule_in(Duration::new(1), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }
}
