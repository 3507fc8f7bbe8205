//! Layer probes: a workload's own coalesced line stream, replayed into
//! fresh (cold) instances of one layer at a time and timed at that
//! layer's public calls.
//!
//! The stream is drained in kernel order, each wave to completion, with
//! the CU set to the wave index mod `n_cus` and one access per cycle.
//! That is not `GpuSim`'s scheduled order, so the replay's hit and miss
//! counts differ from the run's: they are a host-cost probe and only
//! have to repeat exactly.

use gvc::{LineAccess, MemorySystem, SystemConfig};
use gvc_cache::{BankedCache, LineKey, SetAssocCache};
use gvc_engine::time::Cycle;
use gvc_gpu::coalescer::coalesce_into;
use gvc_gpu::{KernelSource, WaveOp};
use gvc_mem::{OsLite, Perms, Ppn};
use gvc_tlb::{Iommu, Tlb, TlbKey};
use std::hint::black_box;
use std::time::Instant;

/// Drains `source` into its coalesced line stream.
pub fn drain(source: &mut dyn KernelSource, n_cus: usize) -> Vec<LineAccess> {
    let mut stream = Vec::new();
    let mut lines = Vec::with_capacity(32);
    while let Some(kernel) = source.next_kernel() {
        for (i, program) in kernel.waves.into_iter().enumerate() {
            for op in program {
                let (addrs, is_write) = match op {
                    WaveOp::Read(a) => (a, false),
                    WaveOp::Write(a) => (a, true),
                    WaveOp::Scratch(_) | WaveOp::Compute(_) => continue,
                };
                coalesce_into(&addrs, &mut lines);
                for &vaddr in &lines {
                    stream.push(LineAccess {
                        cu: i % n_cus,
                        asid: kernel.asid,
                        vaddr,
                        is_write,
                        at: Cycle::new(stream.len() as u64),
                    });
                }
            }
        }
    }
    stream
}

/// `MemorySystem::access` over the whole stream on a fresh memory
/// system: host seconds and faulting accesses.
pub fn core(stream: &[LineAccess], os: &OsLite, cfg: SystemConfig) -> (f64, u64) {
    let mut mem = MemorySystem::new(cfg);
    let mut faults = 0;
    let t = Instant::now();
    for &a in stream {
        faults += u64::from(black_box(mem.access(a, os)).fault.is_some());
    }
    (t.elapsed().as_secs_f64(), faults)
}

/// Host time and event counts of the TLB-side replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct TlbProbe {
    /// Per-CU `Tlb::lookup`, plus `Tlb::insert` on each miss.
    pub lookup_s: f64,
    pub lookups: u64,
    pub misses: u64,
    /// `Iommu::translate` on each per-CU miss.
    pub translate_s: f64,
    pub walks: u64,
}

/// Replays the stream's pages through per-CU TLBs, then feeds the
/// per-CU misses to the shared IOMMU, each phase timed as a whole so
/// the clock reads stay outside the calls. A miss fills the per-CU TLB
/// with a placeholder frame: what it maps does not change the lookup's
/// host cost.
pub fn tlb(stream: &[LineAccess], os: &OsLite, cfg: SystemConfig) -> TlbProbe {
    let mut tlbs: Vec<Tlb> = (0..cfg.n_cus).map(|_| Tlb::new(cfg.per_cu_tlb)).collect();
    let mut missed = Vec::new();
    let t = Instant::now();
    for a in stream {
        let key = TlbKey::new(a.asid, a.vaddr.vpn());
        let tlb = &mut tlbs[a.cu];
        if black_box(tlb.lookup(key, a.at)).is_none() {
            tlb.insert(key, Ppn::new(key.vpn.raw()), Perms::READ_WRITE, a.at);
            missed.push((key, a.at));
        }
    }
    let lookup_s = t.elapsed().as_secs_f64();

    let mut iommu = Iommu::new(cfg.iommu);
    let t = Instant::now();
    for &(key, at) in &missed {
        black_box(iommu.translate(key.asid, key.vpn, at, os, None));
    }
    TlbProbe {
        lookup_s,
        lookups: stream.len() as u64,
        misses: missed.len() as u64,
        translate_s: t.elapsed().as_secs_f64(),
        walks: iommu.stats().walks.get(),
    }
}

/// Host time and event counts of the cache-side replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheProbe {
    /// Per-CU `SetAssocCache::lookup`, plus `insert` on a read miss.
    pub l1_s: f64,
    pub l1_lookups: u64,
    pub l1_misses: u64,
    /// `BankedCache::lookup`, plus `insert` on a miss, fed the L1
    /// misses.
    pub l2_s: f64,
    pub l2_misses: u64,
}

/// Replays the stream's lines (keyed by address space and virtual
/// line) through per-CU L1s with the design's geometry, then feeds the
/// L1 misses to the banked L2. Writes follow the L1's write-through,
/// no-allocate policy.
pub fn cache(stream: &[LineAccess], cfg: SystemConfig) -> CacheProbe {
    let mut l1s: Vec<SetAssocCache> = (0..cfg.n_cus).map(|_| SetAssocCache::new(cfg.l1)).collect();
    let mut missed = Vec::new();
    let t = Instant::now();
    for a in stream {
        let key = LineKey::new(a.asid, a.vaddr.line_index());
        let l1 = &mut l1s[a.cu];
        if black_box(l1.lookup(key, a.at)).is_none() {
            if !a.is_write {
                l1.insert(key, Perms::READ_WRITE, false, a.at);
            }
            missed.push((key, a.is_write, a.at));
        }
    }
    let l1_s = t.elapsed().as_secs_f64();

    let mut l2 = BankedCache::new(cfg.l2_bank, cfg.l2_banks, cfg.l2_port_width);
    let mut l2_misses = 0;
    let t = Instant::now();
    for &(key, is_write, at) in &missed {
        if black_box(l2.lookup(key, at)).is_none() {
            l2.insert(key, Perms::READ_WRITE, is_write, at);
            l2_misses += 1;
        }
    }
    CacheProbe {
        l1_s,
        l1_lookups: stream.len() as u64,
        l1_misses: missed.len() as u64,
        l2_s: t.elapsed().as_secs_f64(),
        l2_misses,
    }
}
