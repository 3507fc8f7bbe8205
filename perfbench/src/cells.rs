//! What one benchmark cell is and how it runs: a workload × design
//! pair, built cold and simulated through the crates' public entry
//! points, then checked against the correctness gate.

use gvc::{MemorySystem, SystemConfig};
use gvc_gpu::{
    run_service, GpuConfig, GpuSim, Kernel, KernelSource, RunReport, ServiceConfig, ServiceReport,
    WaveOp, WaveProgram,
};
use gvc_workloads::{Scale, WorkloadId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The two designs every workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// Table 2 "Baseline 512": physical caches behind per-CU TLBs.
    Baseline512,
    /// Table 2 "VC With OPT": virtual caches with the FBT as a
    /// second-level TLB.
    VcWithOpt,
}

impl Design {
    pub const ALL: [Design; 2] = [Design::Baseline512, Design::VcWithOpt];

    pub fn name(self) -> &'static str {
        match self {
            Design::Baseline512 => "baseline_512",
            Design::VcWithOpt => "vc_with_opt",
        }
    }

    pub fn config(self) -> SystemConfig {
        match self {
            Design::Baseline512 => SystemConfig::baseline_512(),
            Design::VcWithOpt => SystemConfig::vc_with_opt(),
        }
    }
}

/// The benchmark's workloads (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    Divergent,
    Stencil,
    Tenants,
}

impl Bench {
    pub const ALL: [Bench; 3] = [Bench::Divergent, Bench::Stencil, Bench::Tenants];

    pub fn name(self) -> &'static str {
        match self {
            Bench::Divergent => "divergent",
            Bench::Stencil => "stencil",
            Bench::Tenants => "tenants",
        }
    }

    pub fn from_name(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The kernels a kernel workload runs; empty for `tenants`, which
    /// drives `run_service` instead.
    pub fn kernels(self) -> &'static [WorkloadId] {
        match self {
            Bench::Divergent => &[WorkloadId::Bfs, WorkloadId::Pagerank],
            Bench::Stencil => &[WorkloadId::Hotspot],
            Bench::Tenants => &[],
        }
    }

    /// Every cell of one repetition, kernels outermost.
    pub fn cells(self) -> Vec<Cell> {
        let mut cells = Vec::new();
        if self == Bench::Tenants {
            for design in Design::ALL {
                cells.push(Cell {
                    kernel: None,
                    design,
                });
            }
        }
        for &k in self.kernels() {
            for design in Design::ALL {
                cells.push(Cell {
                    kernel: Some(k),
                    design,
                });
            }
        }
        cells
    }
}

/// The `tenants` service shape. At paper scale: 64 tenants of 64 pages
/// each (16 MB combined, far beyond the 512-entry IOMMU TLB and the
/// 2 MB L2), 10 kernels × 32 waves × 32 accesses per tenant (655 k
/// accesses), churn every 7th completion, 25% writes.
pub fn service_config(scale: Scale, seed: u64) -> ServiceConfig {
    let scaled = |paper: u64| ((paper as f64 * scale.factor).round() as u64).max(1);
    ServiceConfig {
        tenants: scaled(64) as usize,
        kernels_per_tenant: scaled(10),
        waves_per_kernel: 32,
        accesses_per_wave: 32,
        pages_per_tenant: 64,
        churn_period: 7,
        write_fraction: 0.25,
        seed,
        ..ServiceConfig::default()
    }
}

/// One workload × design pair; `kernel: None` is the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    pub kernel: Option<WorkloadId>,
    pub design: Design,
}

impl Cell {
    pub fn name(&self) -> String {
        let w = self.kernel.map_or("service", WorkloadId::name);
        format!("{w}.{}", self.design.name())
    }
}

/// A cell's simulated result.
pub enum Report {
    Kernel(Box<RunReport>),
    Service(Box<ServiceReport>),
}

impl Report {
    /// Simulated line requests (kernels) or line accesses (service):
    /// the unit of work host time is normalised by.
    pub fn lines(&self) -> u64 {
        match self {
            Report::Kernel(r) => r.line_requests,
            Report::Service(r) => r.accesses,
        }
    }

    /// The full report as JSON, for exact traced-vs-untraced equality.
    pub fn to_json(&self) -> String {
        match self {
            Report::Kernel(r) => serde_json::to_string(r),
            Report::Service(r) => serde_json::to_string(r),
        }
        .expect("reports serialize")
    }

    /// The simulated fingerprint the correctness gate pins.
    pub fn fingerprint(&self) -> Vec<f64> {
        match self {
            Report::Kernel(r) => [
                r.cycles,
                r.line_requests,
                r.mem.iommu.requests.get(),
                r.mem.iommu.walks.get(),
                r.mem.l1.hits.get(),
                r.mem.l2.hits.get(),
                r.mem.dram_reads,
            ]
            .iter()
            .map(|&v| v as f64)
            .collect(),
            Report::Service(r) => vec![
                r.cycles as f64,
                r.accesses as f64,
                r.evictions as f64,
                r.context_switches as f64,
                r.p99_stall,
            ],
        }
    }

    /// Field names of [`Report::fingerprint`], in order.
    pub fn fingerprint_names(&self) -> &'static [&'static str] {
        match self {
            Report::Kernel(_) => &[
                "sim_cycles",
                "line_requests",
                "iommu_requests",
                "iommu_walks",
                "l1_hits",
                "l2_hits",
                "dram_reads",
            ],
            Report::Service(_) => &[
                "sim_cycles",
                "accesses",
                "evictions",
                "context_switches",
                "p99_stall",
            ],
        }
    }

    /// Everything the correctness gate finds wrong with this report:
    /// faults, truncation, a broken conservation law, and — when
    /// `pinned` is given — fingerprint fields that differ from it.
    pub fn problems(&self, pinned: Option<&[f64]>) -> Vec<String> {
        let mut out = Vec::new();
        match self {
            Report::Kernel(r) => {
                if r.faults > 0 {
                    out.push(format!("{} faulting accesses", r.faults));
                }
                if let Some(t) = r.truncated {
                    out.push(format!("truncated ({t:?})"));
                }
            }
            Report::Service(r) => {
                if r.faults > 0 {
                    out.push(format!("{} faulting accesses", r.faults));
                }
                if catch_unwind(AssertUnwindSafe(|| r.check_stall_conservation())).is_err() {
                    out.push("stall conservation violated".to_string());
                }
            }
        }
        if let Some(expected) = pinned {
            let got = self.fingerprint();
            for ((name, g), e) in self.fingerprint_names().iter().zip(&got).zip(expected) {
                if g != e {
                    out.push(format!("{name} = {g}, pinned {e}"));
                }
            }
            if got.len() != expected.len() {
                out.push("fingerprint length differs from the pinned one".to_string());
            }
        }
        out
    }
}

/// Host seconds one cell spent in each public call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Times {
    /// Cold `build_thp` (zero for the service).
    pub build_s: f64,
    /// `GpuSim::new` (kernels) or `MemorySystem::new` (service).
    pub new_s: f64,
    /// `GpuSim::run` or `run_service`.
    pub run_s: f64,
    /// Time inside `KernelSource::next_kernel` and every
    /// `WaveProgram::next` (traced runs only).
    pub gen_s: f64,
    /// `WaveOp`s the wave programs yielded (traced runs only).
    pub wave_ops: u64,
}

impl Times {
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.new_s
    }
}

/// Runs one cell on a fresh thread, so the workload crates'
/// thread-local memos (the power-law graph memo) start empty and every
/// build is cold. `Err` carries the panic message.
pub fn run(cell: Cell, scale: Scale, seed: u64, traced: bool) -> Result<(Times, Report), String> {
    std::thread::scope(|s| {
        s.spawn(|| match cell.kernel {
            Some(id) => run_kernel(id, cell.design, scale, seed, traced),
            None => run_tenants(cell.design, scale, seed),
        })
        .join()
    })
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panicked".to_string())
    })
}

fn run_kernel(
    id: WorkloadId,
    design: Design,
    scale: Scale,
    seed: u64,
    traced: bool,
) -> (Times, Report) {
    let mut times = Times::default();
    let t = Instant::now();
    let mut w = gvc_workloads::build_thp(id, scale, seed, false);
    times.build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sim = GpuSim::new(GpuConfig::default(), design.config());
    times.new_s = t.elapsed().as_secs_f64();
    let report = if traced {
        let mut source = TimedSource {
            inner: &mut *w.source,
        };
        let t = Instant::now();
        let report = sim.run(&mut source, &mut w.os);
        times.run_s = t.elapsed().as_secs_f64();
        times.gen_s = GEN_NS.get() as f64 * 1e-9;
        times.wave_ops = GEN_OPS.get();
        report
    } else {
        let t = Instant::now();
        let report = sim.run(&mut *w.source, &mut w.os);
        times.run_s = t.elapsed().as_secs_f64();
        report
    };
    (times, Report::Kernel(Box::new(report)))
}

fn run_tenants(design: Design, scale: Scale, seed: u64) -> (Times, Report) {
    let mut times = Times::default();
    // `run_service` builds its own OS and memory system inside the
    // timed call; the memory system's construction is what a service
    // pays before its first access, so it is timed on its own here.
    let t = Instant::now();
    let mem = MemorySystem::new(design.config());
    times.new_s = t.elapsed().as_secs_f64();
    drop(mem);
    let sc = service_config(scale, seed);
    let t = Instant::now();
    let report = run_service(&sc, design.config());
    times.run_s = t.elapsed().as_secs_f64();
    (times, Report::Service(Box::new(report)))
}

thread_local! {
    // Generation time and op count of the traced cell running on this
    // thread. Each cell runs on a fresh thread, so they start at zero.
    static GEN_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static GEN_OPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn add_gen_time(since: Instant) {
    GEN_NS.set(GEN_NS.get() + since.elapsed().as_nanos() as u64);
}

/// A [`KernelSource`] that times `next_kernel` and wraps every wave
/// program so its `next` is timed too. Observational only: the ops and
/// their order are the inner source's.
struct TimedSource<'a> {
    inner: &'a mut dyn KernelSource,
}

impl KernelSource for TimedSource<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        let t = Instant::now();
        let kernel = self.inner.next_kernel();
        add_gen_time(t);
        kernel.map(|mut k| {
            k.waves = k
                .waves
                .into_iter()
                .map(|inner| Box::new(TimedWave { inner }) as WaveProgram)
                .collect();
            k
        })
    }
}

struct TimedWave {
    inner: WaveProgram,
}

impl Iterator for TimedWave {
    type Item = WaveOp;

    fn next(&mut self) -> Option<WaveOp> {
        let t = Instant::now();
        let op = self.inner.next();
        add_gen_time(t);
        if op.is_some() {
            GEN_OPS.set(GEN_OPS.get() + 1);
        }
        op
    }
}
