#![warn(missing_docs)]

//! Discrete-event simulation kernel and measurement primitives for the
//! `gvc` GPU virtual-caching simulator.
//!
//! This crate is the lowest layer of the workspace. It knows nothing about
//! GPUs, caches, or TLBs; it provides the machinery every timing model in
//! the workspace is built from:
//!
//! * [`time`] — strongly typed simulation time ([`Cycle`], [`Duration`]) and
//!   clock-frequency conversions.
//! * [`event`] — a deterministic, tick-ordered event queue
//!   ([`EventQueue`]) with FIFO tie-breaking: a timing wheel of 1024
//!   per-cycle FIFO slots over `[now, now + 1024)` plus an overflow heap
//!   for later events, which move into the wheel at the first pop that
//!   brings them inside the window. Same-cycle events pop in schedule
//!   order exactly, because every overflow event for a cycle was
//!   scheduled, and enters its slot, before any direct schedule there.
//! * [`port`] — resource-reservation models for bandwidth-limited
//!   structures: [`ThroughputPort`] (N accesses per cycle, FIFO service
//!   order) and [`TokenPort`] (bytes-per-cycle token bucket, used for DRAM).
//! * [`stats`] — counters, histograms, running moments, CDF builders, and
//!   the fixed-interval [`IntervalSampler`] used for the paper's
//!   "accesses per cycle per microsecond sample" measurements.
//! * [`rng`] — a seeded, deterministic random-number wrapper.
//! * [`lru`] — set-associative tag storage with LRU stamps
//!   ([`lru::SetStore`]) and its victim search, shared by every bounded
//!   cache and TLB.
//! * [`fxhash`] — a deterministic multiply-xor hasher ([`FxHashMap`])
//!   for simulator-internal maps keyed by trusted values.
//! * [`trace`] — cycle-attributed structured tracing ([`TraceSink`],
//!   [`TraceHandle`]): bounded span ring plus per-cause interval metrics,
//!   zero-cost when no sink is attached.
//!
//! # Timing model
//!
//! The workspace uses a *resource-reservation* timing style: a request
//! entering a component at cycle `t` reserves the component's next free
//! service slot at or after `t` and thereby learns its completion time
//! analytically. Queuing (serialization) delay emerges from slot
//! reservation, exactly like a FIFO queue in a classical event-driven
//! model, while keeping the hot path allocation-free. The [`EventQueue`]
//! is used where genuine reordering matters (wavefront wakeups, interval
//! sampling, shootdown arrival).
//!
//! # Example
//!
//! ```
//! use gvc_engine::event::EventQueue;
//! use gvc_engine::time::Cycle;
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule_at(Cycle::new(10), "b");
//! q.schedule_at(Cycle::new(5), "a");
//! assert_eq!(q.pop(), Some((Cycle::new(5), "a")));
//! assert_eq!(q.pop(), Some((Cycle::new(10), "b")));
//! assert_eq!(q.pop(), None);
//! ```

pub mod event;
pub mod fxhash;
pub mod lru;
pub mod port;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use event::EventQueue;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use port::{ThroughputPort, TokenPort};
pub use rng::{RngSnapshot, SimRng};
pub use stats::{
    Cdf, CountCdf, Counter, Histogram, IntervalSampler, IntervalSummary, RateAccum, RunningStats,
};
pub use time::{Cycle, Duration, Frequency};
pub use trace::{
    RequestAttribution, TraceCause, TraceEvent, TraceEventKind, TraceHandle, TraceSink,
};
