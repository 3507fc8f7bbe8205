#![warn(missing_docs)]

//! Synthetic re-implementations of the paper's fifteen evaluated
//! workloads (Table: Rodinia [12] + Pannotia [11]).
//!
//! The original benchmarks are CUDA/OpenCL programs; what the memory
//! system sees, though, is only their *address streams*. Each module
//! here re-implements one algorithm at exactly that level: the real
//! algorithm runs host-side over deterministic synthetic inputs
//! (power-law CSR graphs, dense matrices, grids), and every host
//! iteration emits a GPU kernel whose wavefronts issue the same
//! loads/stores — the same coalescing behaviour, divergence,
//! scratchpad staging, and data-dependent reuse — that the original
//! kernel would issue.
//!
//! Workload classes (the paper's grouping):
//!
//! * **Pannotia** (irregular graph analytics, high translation
//!   bandwidth): `bc`, `color_maxmin`, `color_max`, `fw`, `fw_block`,
//!   `mis`, `pagerank`, `pagerank_spmv`.
//! * **Rodinia** (traditional GPGPU): `kmeans`, `backprop`, `bfs`,
//!   `hotspot`, `lud`, `nw`, `pathfinder`.
//!
//! # Example
//!
//! ```
//! use gvc_workloads::{Scale, WorkloadId};
//! use gvc_gpu::{GpuConfig, GpuSim};
//! use gvc::SystemConfig;
//!
//! let mut w = gvc_workloads::build(WorkloadId::Bfs, Scale::test(), 42);
//! let sim = GpuSim::new(GpuConfig::default(), SystemConfig::vc_with_opt());
//! let report = sim.run(&mut *w.source, &mut w.os);
//! assert!(report.mem_instructions > 0);
//! ```

pub mod arrays;
pub mod dense;
pub mod gather;
pub mod graphs;
pub mod rodinia;

use gvc_gpu::{KernelSource, WaveOp, WaveProgram};
use gvc_mem::OsLite;
use serde::{Deserialize, Serialize};

/// Which benchmark suite a workload comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Suite {
    /// Irregular graph analytics (Che et al., IISWC'13).
    Pannotia,
    /// Traditional GPGPU kernels (Che et al., IISWC'09).
    Rodinia,
}

/// The paper's translation-bandwidth grouping (§5.2, Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BandwidthClass {
    /// Frequently saturates the shared IOMMU TLB.
    High,
    /// Leaves the IOMMU mostly idle.
    Low,
}

/// Identifies one of the fifteen evaluated workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum WorkloadId {
    Bc,
    ColorMaxmin,
    ColorMax,
    Fw,
    FwBlock,
    Mis,
    Pagerank,
    PagerankSpmv,
    Kmeans,
    Backprop,
    Bfs,
    Hotspot,
    Lud,
    Nw,
    Pathfinder,
}

impl WorkloadId {
    /// Every workload, in the paper's Figure 2 order (Pannotia then
    /// Rodinia).
    pub fn all() -> [WorkloadId; 15] {
        use WorkloadId::*;
        [
            Bc,
            ColorMaxmin,
            ColorMax,
            Fw,
            FwBlock,
            Mis,
            Pagerank,
            PagerankSpmv,
            Kmeans,
            Backprop,
            Bfs,
            Hotspot,
            Lud,
            Nw,
            Pathfinder,
        ]
    }

    /// The paper's high-translation-bandwidth subset (Figures 5, 9,
    /// 10).
    pub fn high_bandwidth() -> Vec<WorkloadId> {
        Self::all()
            .into_iter()
            .filter(|w| w.bandwidth_class() == BandwidthClass::High)
            .collect()
    }

    /// The workload's conventional name.
    pub fn name(self) -> &'static str {
        use WorkloadId::*;
        match self {
            Bc => "bc",
            ColorMaxmin => "color_maxmin",
            ColorMax => "color_max",
            Fw => "fw",
            FwBlock => "fw_block",
            Mis => "mis",
            Pagerank => "pagerank",
            PagerankSpmv => "pagerank_spmv",
            Kmeans => "kmeans",
            Backprop => "backprop",
            Bfs => "bfs",
            Hotspot => "hotspot",
            Lud => "lud",
            Nw => "nw",
            Pathfinder => "pathfinder",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::all().into_iter().find(|w| w.name() == name)
    }

    /// Which suite the workload belongs to.
    pub fn suite(self) -> Suite {
        use WorkloadId::*;
        match self {
            Bc | ColorMaxmin | ColorMax | Fw | FwBlock | Mis | Pagerank | PagerankSpmv => {
                Suite::Pannotia
            }
            Kmeans | Backprop | Bfs | Hotspot | Lud | Nw | Pathfinder => Suite::Rodinia,
        }
    }

    /// The paper's bandwidth classification (§5.2: `kmeans`,
    /// `backprop`, `hotspot`, `nw`, `pathfinder` are low-bandwidth).
    pub fn bandwidth_class(self) -> BandwidthClass {
        use WorkloadId::*;
        match self {
            Kmeans | Backprop | Hotspot | Nw | Pathfinder => BandwidthClass::Low,
            _ => BandwidthClass::High,
        }
    }
}

impl std::fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Problem-size scaling. All sizes are chosen so that at
/// [`Scale::paper`] the data footprint far exceeds per-CU TLB reach
/// (32 × 4 KB) and is comparable to or larger than the 2 MB L2,
/// matching the regime the paper studies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Multiplier on linear problem dimensions.
    pub factor: f64,
}

impl Scale {
    /// Full figure-generation scale.
    pub fn paper() -> Self {
        Scale { factor: 1.0 }
    }

    /// Quick scale for benches (~1/4 linear size).
    pub fn quick() -> Self {
        Scale { factor: 0.25 }
    }

    /// Tiny scale for unit/integration tests.
    pub fn test() -> Self {
        Scale { factor: 0.06 }
    }

    /// Scales `base`, clamping below at `min`.
    pub fn apply(&self, base: u64, min: u64) -> u64 {
        ((base as f64 * self.factor) as u64).max(min)
    }
}

// The scale factor is never NaN (all constructors use literals), so
// bit-pattern equality is a valid equivalence and can back a hash —
// letting Scale participate in the benchmark runner's memo-cache key.
impl Eq for Scale {}

impl std::hash::Hash for Scale {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.factor.to_bits().hash(state);
    }
}

/// A wave program that builds one op per pull: pull `i` (from 0)
/// returns `op(i)`, and the program ends at the first `None`.
///
/// Every workload's `next_kernel` returns its waves this way. `op`
/// captures the wave's cursor: its share of the state frozen at
/// `next_kernel` (shared `Arc`s, `Copy` arrays, chunk bounds) plus
/// per-wave scratch, such as the lanes of a gather round. Only the op
/// just pulled owns a lane `Vec`, so each is allocated and freed around
/// one issue. `op` advances nothing shared across waves: the scheduler
/// decides when each wave is pulled, and that order must not leak into
/// the op stream.
pub(crate) fn streamed_wave(
    mut op: impl FnMut(u32) -> Option<WaveOp> + Send + 'static,
) -> WaveProgram {
    let mut pull = 0;
    Box::new(std::iter::from_fn(move || {
        let next = op(pull);
        pull += 1;
        next
    }))
}

/// A ready-to-run workload: its private OS image (address spaces and
/// page tables) and the kernel stream.
pub struct Workload {
    /// The OS instance the workload's pages live in.
    pub os: OsLite,
    /// The kernel stream.
    pub source: Box<dyn KernelSource>,
}

/// Builds a workload instance. Deterministic in `(id, scale, seed)`.
pub fn build(id: WorkloadId, scale: Scale, seed: u64) -> Workload {
    build_thp(id, scale, seed, false)
}

/// Like [`build`], with the OS's transparent-huge-page placement
/// policy selectable: with `thp` set, allocations of 2 MB or more get
/// a 2 MB-aligned virtual start so their interior blocks are
/// promotable to large mappings (`gvc_mem::OsLite::promote_all`).
/// Virtual layout — and therefore every downstream address — depends
/// on the flag, so it is part of the determinism key:
/// `(id, scale, seed, thp)`.
pub fn build_thp(id: WorkloadId, scale: Scale, seed: u64, thp: bool) -> Workload {
    use WorkloadId::*;
    match id {
        Pagerank => graphs::pagerank::build(scale, seed, false, thp),
        PagerankSpmv => graphs::pagerank::build(scale, seed, true, thp),
        Bfs => graphs::bfs::build(scale, seed, thp),
        Bc => graphs::bc::build(scale, seed, thp),
        ColorMax => graphs::color::build(scale, seed, false, thp),
        ColorMaxmin => graphs::color::build(scale, seed, true, thp),
        Mis => graphs::mis::build(scale, seed, thp),
        Fw => dense::fw::build(scale, seed, false, thp),
        FwBlock => dense::fw::build(scale, seed, true, thp),
        Lud => dense::lud::build(scale, seed, thp),
        Kmeans => rodinia::kmeans::build(scale, seed, thp),
        Backprop => rodinia::backprop::build(scale, seed, thp),
        Hotspot => rodinia::hotspot::build(scale, seed, thp),
        Nw => rodinia::nw::build(scale, seed, thp),
        Pathfinder => rodinia::pathfinder::build(scale, seed, thp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_named() {
        assert_eq!(WorkloadId::all().len(), 15);
        for w in WorkloadId::all() {
            assert_eq!(WorkloadId::from_name(w.name()), Some(w));
            assert_eq!(w.to_string(), w.name());
        }
        assert_eq!(WorkloadId::from_name("nope"), None);
    }

    #[test]
    fn suites_partition_the_set() {
        let pannotia = WorkloadId::all()
            .into_iter()
            .filter(|w| w.suite() == Suite::Pannotia)
            .count();
        assert_eq!(pannotia, 8);
        assert_eq!(WorkloadId::high_bandwidth().len(), 10);
    }

    #[test]
    fn scale_clamps() {
        assert_eq!(Scale::test().apply(100, 32), 32);
        assert_eq!(Scale::paper().apply(100, 32), 100);
        assert_eq!(Scale::quick().apply(1000, 1), 250);
    }
}
