//! Kernels, wavefront programs, and the workload interface.
//!
//! A [`Kernel`] is a bag of wavefront programs (already flattened from
//! workgroups — this model has no barriers, which none of the
//! reproduced access patterns need). Each program lazily yields
//! [`WaveOp`]s: per-lane memory operations, scratchpad traffic, and
//! compute delays. Iterative workloads (BFS levels, PageRank sweeps)
//! implement [`KernelSource`] to emit one kernel per host-side
//! iteration.
//!
//! # Deferred waves
//!
//! The run loop pulls a wave's first op when the wave first issues and
//! each later op when the previous one completes, so a program added
//! with [`KernelBuilder::lazy_wave`] can build each op at its pull —
//! every workload in `gvc_workloads` does. A kernel then holds one
//! small cursor per wave rather than every wave's lane vectors, and a
//! lane vector lives only from its op's pull to its issue.
//!
//! The contract: one op is built per pull, only from state frozen when
//! [`KernelSource::next_kernel`] returned (shared `Arc`s, `Copy`
//! arrays, chunk bounds) and the wave's own cursor; no state is shared
//! across waves. The scheduler decides when each wave is pulled; if a
//! wave's ops read state another wave's pulls change, that schedule
//! order would leak into the op stream. [`KernelBuilder::wave`], an
//! eager op list, is the path for tests and hand-built kernels.

use gvc_mem::{Asid, VAddr};

/// One operation of a 32-lane wavefront.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaveOp {
    /// A gather/load: one optional address per active lane.
    Read(
        /// Per-lane byte addresses (inactive lanes omitted).
        Vec<VAddr>,
    ),
    /// A scatter/store: one optional address per active lane.
    Write(
        /// Per-lane byte addresses (inactive lanes omitted).
        Vec<VAddr>,
    ),
    /// Scratchpad traffic: `count` accesses that bypass the TLB and
    /// caches entirely (§2.1).
    Scratch(
        /// Number of scratchpad accesses.
        u32,
    ),
    /// ALU work: the wave is busy for this many cycles.
    Compute(
        /// Busy cycles.
        u32,
    ),
}

impl WaveOp {
    /// A load with the given lane addresses.
    pub fn read(addrs: Vec<VAddr>) -> Self {
        WaveOp::Read(addrs)
    }

    /// A store with the given lane addresses.
    pub fn write(addrs: Vec<VAddr>) -> Self {
        WaveOp::Write(addrs)
    }

    /// Scratchpad traffic.
    pub fn scratch(count: u32) -> Self {
        WaveOp::Scratch(count)
    }

    /// ALU work.
    pub fn compute(cycles: u32) -> Self {
        WaveOp::Compute(cycles)
    }
}

/// A lazily evaluated wavefront instruction stream.
pub type WaveProgram = Box<dyn Iterator<Item = WaveOp> + Send>;

/// One GPU kernel launch: a set of wavefront programs sharing an
/// address space.
pub struct Kernel {
    /// Kernel name (for reports).
    pub name: String,
    /// The launching process's address space.
    pub asid: Asid,
    /// The wavefronts to execute.
    pub waves: Vec<WaveProgram>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("name", &self.name)
            .field("asid", &self.asid)
            .field("waves", &self.waves.len())
            .finish()
    }
}

impl Kernel {
    /// Starts building a kernel.
    pub fn builder(name: impl Into<String>, asid: Asid) -> KernelBuilder {
        KernelBuilder {
            kernel: Kernel {
                name: name.into(),
                asid,
                waves: Vec::new(),
            },
        }
    }

    /// Wraps this single kernel as a [`KernelSource`].
    pub fn into_source(self) -> SingleKernel {
        SingleKernel { kernel: Some(self) }
    }
}

/// Builder for [`Kernel`].
pub struct KernelBuilder {
    kernel: Kernel,
}

impl KernelBuilder {
    /// Adds a wavefront with an eagerly specified op list — the path
    /// for tests and hand-built kernels. Workloads defer their op lists
    /// through [`KernelBuilder::lazy_wave`] (see the
    /// [module docs](self#deferred-waves)).
    pub fn wave(mut self, ops: Vec<WaveOp>) -> Self {
        self.kernel.waves.push(Box::new(ops.into_iter()));
        self
    }

    /// Adds a wavefront with a lazy program, pulled one op at a time
    /// from the wave's first issue on, each op just before it issues.
    pub fn lazy_wave(mut self, program: WaveProgram) -> Self {
        self.kernel.waves.push(program);
        self
    }

    /// Finishes the kernel.
    pub fn build(self) -> Kernel {
        self.kernel
    }
}

/// A source of kernels: iterative workloads emit one kernel per
/// host-side iteration (BFS level, PageRank sweep, FW pivot, ...).
pub trait KernelSource {
    /// The workload's name.
    fn name(&self) -> &str;

    /// The next kernel to launch, or `None` when the workload has run
    /// to completion.
    fn next_kernel(&mut self) -> Option<Kernel>;
}

/// A [`KernelSource`] yielding exactly one kernel.
pub struct SingleKernel {
    kernel: Option<Kernel>,
}

impl KernelSource for SingleKernel {
    fn name(&self) -> &str {
        self.kernel.as_ref().map_or("(done)", |k| &k.name)
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        self.kernel.take()
    }
}

/// A [`KernelSource`] draining a pre-built list of kernels.
pub struct KernelList {
    name: String,
    kernels: std::collections::VecDeque<Kernel>,
}

impl KernelList {
    /// Builds a source from a list of kernels.
    pub fn new(name: impl Into<String>, kernels: Vec<Kernel>) -> Self {
        KernelList {
            name: name.into(),
            kernels: kernels.into(),
        }
    }
}

impl KernelSource for KernelList {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        self.kernels.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_waves() {
        let k = Kernel::builder("k", Asid(0))
            .wave(vec![WaveOp::compute(1)])
            .wave(vec![WaveOp::scratch(4), WaveOp::compute(2)])
            .lazy_wave(Box::new(std::iter::once(WaveOp::compute(3))))
            .build();
        assert_eq!(k.waves.len(), 3);
        assert_eq!(k.name, "k");
        assert!(format!("{k:?}").contains("waves: 3"));
    }

    #[test]
    fn single_kernel_source_yields_once() {
        let k = Kernel::builder("once", Asid(0)).build();
        let mut src = k.into_source();
        assert_eq!(src.name(), "once");
        assert!(src.next_kernel().is_some());
        assert!(src.next_kernel().is_none());
        assert_eq!(src.name(), "(done)");
    }

    #[test]
    fn kernel_list_drains_in_order() {
        let mut src = KernelList::new(
            "seq",
            vec![
                Kernel::builder("a", Asid(0)).build(),
                Kernel::builder("b", Asid(0)).build(),
            ],
        );
        assert_eq!(src.next_kernel().unwrap().name, "a");
        assert_eq!(src.next_kernel().unwrap().name, "b");
        assert!(src.next_kernel().is_none());
    }

    #[test]
    fn wave_op_constructors() {
        assert_eq!(WaveOp::compute(5), WaveOp::Compute(5));
        assert_eq!(WaveOp::scratch(2), WaveOp::Scratch(2));
        let a = vec![VAddr::new(0x1000)];
        assert_eq!(WaveOp::read(a.clone()), WaveOp::Read(a.clone()));
        assert_eq!(WaveOp::write(a.clone()), WaveOp::Write(a));
    }
}
