//! Live heap per wave: pins the streaming contract of wave programs.
//!
//! The op-stream pins (`op_stream.rs`) see what a wave yields, not what
//! it holds while it waits. A wave program builds one op per pull, so a
//! wave that has issued one op holds only its cursor — never the rest
//! of its op list or the lane vectors of ops it has not issued. This
//! test counts live heap bytes with a counting global allocator and
//! bounds them per wave, with every wave of a kernel started at once,
//! as the GPU's resident slots start them.

use gvc_workloads::{Scale, WorkloadId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes of the whole process. A statistic that publishes no
/// other data, so `Relaxed` suffices.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting live bytes in [`LIVE`].
struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// counter update touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (so from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract; `ptr` came
        // from `System` with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Upper bound on the live heap bytes per wave that pulling one op
/// from every wave adds to a built kernel. A started wave keeps only
/// its cursor, which is built with the kernel, so this stays near zero;
/// one wave's remaining op list alone (three or more lane vectors of
/// up to 32 addresses) exceeds it several times over.
const MAX_PULL_BYTES_PER_WAVE: isize = 64;

/// Upper bound on all live heap bytes per wave of a started first
/// kernel: its program list, each wave's boxed cursor, and the wave's
/// share of the frozen kernel state (which dominates when the kernel
/// has one wave, as `bc`'s first does).
const MAX_HELD_BYTES_PER_WAVE: isize = 1024;

/// Live heap bytes per wave of `id`'s first kernel: `(built, started)`,
/// once built and once every wave has issued one op, pulled
/// round-robin and dropped at once.
fn bytes_per_wave(id: WorkloadId) -> (isize, isize) {
    let mut w = gvc_workloads::build(id, Scale::test(), 42);
    let before = LIVE.load(Ordering::Relaxed);
    let mut kernel = w.source.next_kernel().expect("a first kernel");
    let built = LIVE.load(Ordering::Relaxed) - before;
    for wave in &mut kernel.waves {
        drop(wave.next().expect("every wave has an op"));
    }
    let started = LIVE.load(Ordering::Relaxed) - before;
    let waves = kernel.waves.len() as isize;
    (built / waves, started / waves)
}

// One test function, so no other test allocates on a parallel thread
// while the counter is read.
#[test]
fn a_started_wave_holds_only_its_cursor() {
    let mut over = Vec::new();
    for id in WorkloadId::all() {
        let (built, started) = bytes_per_wave(id);
        eprintln!("{id}: {built} B per wave built, {started} B started");
        if started - built > MAX_PULL_BYTES_PER_WAVE || started > MAX_HELD_BYTES_PER_WAVE {
            over.push(format!("{id}: {built} B built, {started} B started"));
        }
    }
    assert!(
        over.is_empty(),
        "started waves hold too much (bounds: {MAX_PULL_BYTES_PER_WAVE} B added by \
         the pulls, {MAX_HELD_BYTES_PER_WAVE} B in all, per wave): {}",
        over.join(", ")
    );
}
