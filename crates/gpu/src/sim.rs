//! The GPU run loop: wavefront scheduling over the memory system.
//!
//! Each CU keeps up to [`GpuConfig::max_waves_per_cu`] wavefronts
//! resident; a wave issues one op at a time through the CU's
//! single-issue port and sleeps until the op completes, so memory
//! latency is hidden exactly the way real GPUs hide it — by switching
//! among many resident waves. Coalesced line requests stream into a
//! [`gvc::MemorySystem`] configured as any of the paper's designs;
//! optional CPU coherence probes interleave with execution.

use crate::coalescer::{coalesce_into, CoalesceStats};
use crate::kernel::{KernelSource, WaveOp, WaveProgram};
use crate::service::Outstanding;
use gvc::{inject, InjectEvent, InjectPlan, InjectReport};
use gvc::{LineAccess, MemReport, MemorySystem, SystemConfig};
use gvc_engine::time::{Cycle, Duration};
use gvc_engine::{EventQueue, ThroughputPort, TraceCause, TraceHandle};
use gvc_mem::{OsLite, ProcessId};
use gvc_soc::{Probe, ProbeInjector, ProbeKind};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// GPU front-end configuration (Table 1 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Resident wavefronts per CU (execution contexts for latency
    /// hiding).
    pub max_waves_per_cu: usize,
    /// Base scratchpad access latency.
    pub scratch_latency: u64,
    /// Scratchpad accesses serviced per cycle (banking).
    pub scratch_per_cycle: u64,
    /// Host-side gap between kernel launches.
    pub kernel_launch_gap: u64,
    /// Fixed per-op issue overhead.
    pub issue_overhead: u64,
    /// Outstanding line requests per CU (L1 MSHR capacity): a request
    /// beyond this limit waits for the earliest outstanding one to
    /// complete. Bounds memory-level parallelism the way real GPU L1
    /// miss-handling hardware does.
    pub max_outstanding_per_cu: usize,
    /// Watchdog: stop the run once simulated time passes this many
    /// cycles (the report is marked [`Truncation::MaxCycles`] and
    /// carries partial stats). `None` disables the limit.
    pub max_cycles: Option<u64>,
    /// Watchdog: stop the run once this much wall-clock time has
    /// elapsed ([`Truncation::WallClock`]). Checked every few thousand
    /// scheduler pops, so the overrun is bounded but not zero. `None`
    /// disables the budget. Unlike `max_cycles`, this makes the *cut
    /// point* host-dependent — never enable it for runs whose output
    /// must be byte-reproducible.
    pub wall_budget_ms: Option<u64>,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            max_waves_per_cu: 16,
            scratch_latency: 4,
            scratch_per_cycle: 8,
            kernel_launch_gap: 1000,
            issue_overhead: 1,
            max_outstanding_per_cu: 64,
            max_cycles: None,
            wall_budget_ms: None,
        }
    }
}

/// Why a run stopped before its workload was exhausted (watchdog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Truncation {
    /// Simulated time passed [`GpuConfig::max_cycles`].
    MaxCycles,
    /// Wall-clock time passed [`GpuConfig::wall_budget_ms`].
    WallClock,
}

/// End-of-run report: front-end totals plus the memory system's
/// [`MemReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Memory-system design label.
    pub design: String,
    /// Total execution time in cycles (the figures' performance
    /// metric).
    pub cycles: u64,
    /// Kernels launched.
    pub kernels: u64,
    /// Wavefronts executed: counted at each wave's first issue, so a
    /// watchdog-truncated run counts only the waves that started.
    pub waves: u64,
    /// Memory instructions issued.
    pub mem_instructions: u64,
    /// Coalesced line requests issued.
    pub line_requests: u64,
    /// Mean line requests per memory instruction (divergence).
    pub requests_per_instruction: f64,
    /// Scratchpad operations.
    pub scratch_ops: u64,
    /// Compute operations.
    pub compute_ops: u64,
    /// Accesses that faulted (page/permission/synonym).
    pub faults: u64,
    /// Coherence probes delivered mid-run.
    pub probes_delivered: u64,
    /// `Some` when a watchdog cut the run short; all other fields then
    /// hold partial stats up to the cut point.
    pub truncated: Option<Truncation>,
    /// Fault-injection tally, when an [`InjectPlan`] was armed via
    /// [`SystemConfig::with_inject`].
    pub injected: Option<InjectReport>,
    /// The memory system's full report.
    pub mem: MemReport,
}

impl RunReport {
    /// Speedup of this run relative to `other` (other.cycles /
    /// self.cycles).
    pub fn speedup_over(&self, other: &RunReport) -> f64 {
        other.cycles as f64 / self.cycles.max(1) as f64
    }

    /// Execution time relative to `baseline` (self.cycles /
    /// baseline.cycles) — Figure 4's metric.
    pub fn relative_time_to(&self, baseline: &RunReport) -> f64 {
        self.cycles as f64 / baseline.cycles.max(1) as f64
    }
}

/// The GPU simulator (see [module docs](self)).
pub struct GpuSim {
    gpu: GpuConfig,
    mem: MemorySystem,
    probes: Option<ProbeInjector>,
    inject: Option<InjectPlan>,
    coalesce_stats: CoalesceStats,
    waves_total: u64,
    scratch_ops: u64,
    compute_ops: u64,
    faults: u64,
    probes_delivered: u64,
    trace: Option<TraceHandle>,
}

struct WaveState {
    program: WaveProgram,
    cu: usize,
    /// Whether the scheduler has pulled from this wave yet.
    started: bool,
}

#[derive(Debug, Clone, Copy)]
struct WaveReady(usize);

impl GpuSim {
    /// Builds a simulator with the given front end over a fresh memory
    /// system.
    pub fn new(gpu: GpuConfig, sys: SystemConfig) -> Self {
        GpuSim {
            gpu,
            inject: inject::plan_for(&sys),
            mem: MemorySystem::new(sys),
            probes: None,
            coalesce_stats: CoalesceStats::default(),
            waves_total: 0,
            scratch_ops: 0,
            compute_ops: 0,
            faults: 0,
            probes_delivered: 0,
            trace: None,
        }
    }

    /// Interleaves CPU coherence probes from `injector` with the run.
    pub fn with_probes(mut self, injector: ProbeInjector) -> Self {
        self.probes = Some(injector);
        self
    }

    /// Attaches a shared trace sink to the whole stack: the GPU front
    /// end opens each line request at wave issue (attributing coalescer
    /// admission), and the memory system and IOMMU continue the same
    /// request's cursor downstream. Keep a clone of the handle to read
    /// the sink after [`GpuSim::run`] consumes the simulator.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.mem.attach_trace(trace.clone());
        self.trace = Some(trace);
        self
    }

    /// Direct access to the memory system (pre-run configuration or
    /// post-run inspection before [`GpuSim::run`] consumes it).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Runs `source` to completion (or until a watchdog fires) and
    /// returns the report.
    ///
    /// `os` is mutable because injected page remaps
    /// ([`InjectEvent::Remap`]) migrate live pages through
    /// `OsLite::remap_page`; without injection the OS is only read.
    ///
    /// # Panics
    ///
    /// Panics if a kernel names a CU outside the configured range
    /// (never happens for kernels built against this config).
    pub fn run(mut self, source: &mut dyn KernelSource, os: &mut OsLite) -> RunReport {
        let workload = source.name().to_string();
        let n_cus = self.mem.config().n_cus;
        let mut now = Cycle::ZERO;
        if self.mem.config().transparent_huge_pages {
            // Transparent huge pages: promote every eligible aligned
            // 512-page block before the first instruction (Mosaic-style
            // allocation-time coalescing). Promotion order is the OS's
            // own deterministic space/VA order, so the memo-cache
            // contract (same config + workload → same report) holds.
            // The returned shootdowns are applied for coherence
            // discipline even though the machine is still cold.
            for sd in os.promote_all() {
                self.mem.apply_shootdown(&sd, now);
            }
        }
        let mut kernels = 0u64;
        let mut mem_instructions = 0u64;
        let mut line_requests = 0u64;
        let mut next_probe = self.probes.as_mut().and_then(|p| p.next_probe(Cycle::ZERO));
        let mut plan = self.inject.take();
        let mut truncated: Option<Truncation> = None;
        let mut pops = 0u64;
        // Scratch for per-instruction coalescing, reused across every
        // instruction of the run (a wavefront has at most 32 lanes).
        let mut lines: Vec<gvc_mem::VAddr> = Vec::with_capacity(32);
        let wall_deadline = self
            .gpu
            .wall_budget_ms
            .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
        // Wave wakeups. Every kernel drains it, and the next one starts
        // after the last pop, so one queue (and its node arena) serves
        // the whole run.
        let mut queue: EventQueue<WaveReady> = EventQueue::new();

        while let Some(kernel) = source.next_kernel() {
            kernels += 1;
            let start = now + Duration::new(self.gpu.kernel_launch_gap);
            let asid = kernel.asid;

            // Distribute waves round-robin over CUs.
            let mut waves: Vec<Option<WaveState>> = Vec::with_capacity(kernel.waves.len());
            let mut pending: Vec<VecDeque<usize>> = vec![VecDeque::new(); n_cus];
            for (i, program) in kernel.waves.into_iter().enumerate() {
                let cu = i % n_cus;
                waves.push(Some(WaveState {
                    program,
                    cu,
                    started: false,
                }));
                pending[cu].push_back(i);
            }
            let mut issue_ports: Vec<ThroughputPort> =
                (0..n_cus).map(|_| ThroughputPort::per_cycle(1)).collect();
            let mut outstanding: Vec<Outstanding> =
                (0..n_cus).map(|_| Outstanding::default()).collect();

            for cu_pending in pending.iter_mut() {
                for _ in 0..self.gpu.max_waves_per_cu {
                    match cu_pending.pop_front() {
                        Some(id) => queue.schedule_at(start, WaveReady(id)),
                        None => break,
                    }
                }
            }

            let mut kernel_end = start;
            while let Some((t, WaveReady(id))) = queue.pop() {
                // Watchdogs: cut the run rather than let a pathological
                // configuration (or an injected storm of them) spin
                // forever. Partial stats still flow into the report.
                pops += 1;
                if let Some(limit) = self.gpu.max_cycles {
                    if t.raw() > limit {
                        truncated = Some(Truncation::MaxCycles);
                        kernel_end = kernel_end.max(t);
                        break;
                    }
                }
                if pops.is_multiple_of(8192) {
                    if let Some(deadline) = wall_deadline {
                        if std::time::Instant::now() >= deadline {
                            truncated = Some(Truncation::WallClock);
                            kernel_end = kernel_end.max(t);
                            break;
                        }
                    }
                }

                // Deliver due coherence probes first.
                while let Some(p) = next_probe {
                    if p.at > t {
                        break;
                    }
                    self.mem.handle_probe(p);
                    self.probes_delivered += 1;
                    next_probe = self.probes.as_mut().and_then(|inj| inj.next_probe(p.at));
                }

                let state = waves[id].as_mut().expect("scheduled wave exists");
                if !state.started {
                    state.started = true;
                    self.waves_total += 1;
                }
                let cu = state.cu;
                match state.program.next() {
                    None => {
                        waves[id] = None;
                        kernel_end = kernel_end.max(t);
                        if let Some(next_id) = pending[cu].pop_front() {
                            queue.schedule_at(t, WaveReady(next_id));
                        }
                    }
                    Some(op) => {
                        let issue = issue_ports[cu].reserve(t);
                        let overhead = Duration::new(self.gpu.issue_overhead);
                        let ready_at = match op {
                            WaveOp::Compute(c) => {
                                self.compute_ops += 1;
                                issue + overhead + Duration::new(c as u64)
                            }
                            WaveOp::Scratch(n) => {
                                self.scratch_ops += n as u64;
                                let service = (n as u64).div_ceil(self.gpu.scratch_per_cycle);
                                issue + overhead + Duration::new(self.gpu.scratch_latency + service)
                            }
                            WaveOp::Read(ref addrs) | WaveOp::Write(ref addrs) => {
                                let is_write = matches!(op, WaveOp::Write(_));
                                coalesce_into(addrs, &mut lines);
                                self.coalesce_stats.record(addrs.len(), lines.len());
                                mem_instructions += 1;
                                line_requests += lines.len() as u64;
                                let mut done = issue + overhead;
                                let cap = self.gpu.max_outstanding_per_cu.max(1);
                                for (i, &line) in lines.iter().enumerate() {
                                    // One line request leaves the
                                    // coalescer per cycle, subject to
                                    // the MSHR admission limit.
                                    let at =
                                        outstanding[cu].admit(issue + Duration::new(i as u64), cap);
                                    if let Some(tr) = &self.trace {
                                        tr.begin_request(cu as u32, issue);
                                        tr.stage(TraceCause::Coalesce, at);
                                    }
                                    if let Some(p) = plan.as_mut() {
                                        p.observe(asid, line.vpn());
                                    }
                                    let res = self.mem.access(
                                        LineAccess {
                                            cu,
                                            asid,
                                            vaddr: line,
                                            is_write,
                                            at,
                                        },
                                        &*os,
                                    );
                                    if res.fault.is_some() {
                                        self.faults += 1;
                                    }
                                    outstanding[cu].track(res.done_at);
                                    done = done.max(res.done_at);
                                }
                                if let Some(p) = plan.as_mut() {
                                    if let Some(ev) = p.poll() {
                                        self.apply_inject(ev, p, os, t);
                                    }
                                }
                                done
                            }
                        };
                        queue.schedule_at(ready_at, WaveReady(id));
                    }
                }
            }
            now = kernel_end;
            if truncated.is_some() {
                break;
            }
        }

        if self.mem.config().paranoid {
            // End-of-run sweep: the whole run must leave the hierarchy
            // in an invariant-respecting state, not just each window.
            self.mem.check_invariants();
        }
        let mem = self.mem.finish(now);
        RunReport {
            workload,
            design: mem.design.clone(),
            cycles: now.raw(),
            kernels,
            waves: self.waves_total,
            mem_instructions,
            line_requests,
            requests_per_instruction: self.coalesce_stats.requests_per_instruction(),
            scratch_ops: self.scratch_ops,
            compute_ops: self.compute_ops,
            faults: self.faults,
            probes_delivered: self.probes_delivered,
            truncated,
            injected: plan.as_ref().map(InjectPlan::report),
            mem,
        }
    }

    /// Executes one injected event against the live hierarchy/OS and
    /// (under paranoid mode) re-verifies every invariant immediately,
    /// so a violation is pinned to the event that caused it.
    fn apply_inject(&mut self, ev: InjectEvent, plan: &mut InjectPlan, os: &mut OsLite, at: Cycle) {
        match ev {
            InjectEvent::Shootdown(sd) => {
                self.mem.apply_shootdown(&sd, at);
            }
            InjectEvent::ProbeBurst(targets) => {
                for tgt in targets {
                    let delivered = match os.translate(ProcessId(tgt.asid.0), tgt.vpn.base()) {
                        Some((pa, _)) => {
                            let kind = if tgt.invalidate {
                                ProbeKind::Invalidate
                            } else {
                                ProbeKind::Downgrade
                            };
                            let paddr = pa.ppn().line_addr(tgt.line);
                            self.mem.handle_probe(Probe { paddr, kind, at });
                            self.probes_delivered += 1;
                            true
                        }
                        None => false,
                    };
                    plan.record_probe(delivered);
                }
            }
            InjectEvent::FbtPressure { ways, window } => {
                self.mem.inject_fbt_pressure(ways, window);
            }
            InjectEvent::Remap { asid, vpn } => {
                let ok = match os.remap_page(ProcessId(asid.0), vpn) {
                    Ok(sd) => {
                        self.mem.apply_shootdown(&sd, at);
                        true
                    }
                    Err(_) => false,
                };
                plan.record_remap(ok);
            }
            InjectEvent::Splinter { asid, vpn } => {
                let ok = match os.splinter(ProcessId(asid.0), vpn) {
                    Ok(sd) => {
                        self.mem.apply_shootdown(&sd, at);
                        true
                    }
                    Err(_) => false,
                };
                plan.record_splinter(ok);
            }
        }
        if self.mem.config().paranoid {
            self.mem.check_invariants();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Kernel, KernelList};
    use gvc_mem::{Perms, VRange, PAGE_BYTES};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn setup(pages: u64) -> (OsLite, gvc_mem::ProcessId, VRange) {
        let mut os = OsLite::new(256 << 20);
        let pid = os.create_process();
        let r = os.mmap(pid, pages * PAGE_BYTES, Perms::READ_WRITE).unwrap();
        (os, pid, r)
    }

    /// The op lists of `waves` waves streaming through `r`.
    fn streaming_ops(r: &VRange, waves: usize, ops_per_wave: usize) -> Vec<Vec<WaveOp>> {
        (0..waves)
            .map(|w| {
                let mut ops = Vec::new();
                for o in 0..ops_per_wave {
                    let base = ((w * ops_per_wave + o) * 32 * 4) as u64 % (r.bytes() - 128);
                    let addrs: Vec<_> = (0..32)
                        .map(|l| r.addr_at((base + l * 4) % r.bytes()))
                        .collect();
                    ops.push(WaveOp::read(addrs));
                    ops.push(WaveOp::compute(4));
                }
                ops
            })
            .collect()
    }

    fn streaming_kernel(
        r: &VRange,
        asid: gvc_mem::Asid,
        waves: usize,
        ops_per_wave: usize,
    ) -> Kernel {
        let mut b = Kernel::builder("stream", asid);
        for ops in streaming_ops(r, waves, ops_per_wave) {
            b = b.wave(ops);
        }
        b.build()
    }

    /// A wave whose ops are handed over only when the scheduler first
    /// pulls from it; `runs` counts the generators that have run.
    fn deferred(ops: Vec<WaveOp>, runs: &Arc<AtomicUsize>) -> WaveProgram {
        let runs = Arc::clone(runs);
        Box::new(
            std::iter::once_with(move || {
                runs.fetch_add(1, Ordering::SeqCst);
                ops
            })
            .flatten(),
        )
    }

    /// Wraps a source and checks, at every `next_kernel` return, that
    /// exactly the earlier kernels' generators have run: none of the
    /// returned kernel's, and every one of the kernels before it.
    struct RunsAtReturn<S> {
        inner: S,
        runs: Arc<AtomicUsize>,
        waves_returned: usize,
    }

    impl<S: KernelSource> KernelSource for RunsAtReturn<S> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn next_kernel(&mut self) -> Option<Kernel> {
            let k = self.inner.next_kernel()?;
            assert_eq!(
                self.runs.load(Ordering::SeqCst),
                self.waves_returned,
                "a generator ran early, or an earlier wave never ran"
            );
            self.waves_returned += k.waves.len();
            Some(k)
        }
    }

    #[test]
    fn deferred_waves_run_once_at_first_issue() {
        let (mut os, pid, r) = setup(64);
        let (kernels, waves, ops_per_wave) = (3, 12, 6);
        let eager = || {
            let ks = (0..kernels)
                .map(|_| streaming_kernel(&r, pid.asid(), waves, ops_per_wave))
                .collect();
            KernelList::new("stream", ks)
        };
        let runs = Arc::new(AtomicUsize::new(0));
        let lazy = || {
            let ks = (0..kernels)
                .map(|_| {
                    let mut b = Kernel::builder("stream", pid.asid());
                    for ops in streaming_ops(&r, waves, ops_per_wave) {
                        b = b.lazy_wave(deferred(ops, &runs));
                    }
                    b.build()
                })
                .collect();
            KernelList::new("stream", ks)
        };
        let mut src = RunsAtReturn {
            inner: lazy(),
            runs: Arc::clone(&runs),
            waves_returned: 0,
        };
        assert_eq!(
            runs.load(Ordering::SeqCst),
            0,
            "built kernels ran a generator"
        );
        let sim = || GpuSim::new(GpuConfig::default(), SystemConfig::vc_with_opt());
        let deferred_rep = sim().run(&mut src, &mut os);
        assert_eq!(src.waves_returned, kernels * waves);
        assert_eq!(
            runs.load(Ordering::SeqCst),
            kernels * waves,
            "every generator runs exactly once"
        );
        let eager_rep = sim().run(&mut eager(), &mut os);
        assert_eq!(
            serde_json::to_string(&deferred_rep).unwrap(),
            serde_json::to_string(&eager_rep).unwrap(),
            "deferring a wave's ops must not change the run"
        );
    }

    #[test]
    fn runs_to_completion_and_counts() {
        let (mut os, pid, r) = setup(64);
        let k = streaming_kernel(&r, pid.asid(), 8, 10);
        let sim = GpuSim::new(GpuConfig::default(), SystemConfig::baseline_512());
        let rep = sim.run(&mut k.into_source(), &mut os);
        assert_eq!(rep.kernels, 1);
        assert_eq!(rep.waves, 8);
        assert_eq!(rep.mem_instructions, 80);
        assert!(rep.cycles > 0);
        assert_eq!(rep.faults, 0);
        assert!(rep.requests_per_instruction >= 1.0);
    }

    #[test]
    fn multiple_kernels_accumulate_time() {
        let (mut os, pid, r) = setup(16);
        let mk = || streaming_kernel(&r, pid.asid(), 2, 2);
        let one = GpuSim::new(GpuConfig::default(), SystemConfig::baseline_512())
            .run(&mut mk().into_source(), &mut os);
        let two = GpuSim::new(GpuConfig::default(), SystemConfig::baseline_512())
            .run(&mut KernelList::new("stream2", vec![mk(), mk()]), &mut os);
        assert_eq!(two.kernels, 2);
        assert!(two.cycles > one.cycles);
    }

    #[test]
    fn latency_hiding_beats_serial_execution() {
        let (mut os, pid, r) = setup(64);
        // 32 waves of divergent reads.
        let mk = |waves: usize| {
            let mut b = Kernel::builder("div", pid.asid());
            for w in 0..waves {
                let addrs: Vec<_> = (0..32)
                    .map(|l| r.addr_at(((w * 32 + l as usize) as u64 * 4096 + 64) % r.bytes()))
                    .collect();
                b = b.wave(vec![WaveOp::read(addrs)]);
            }
            b.build()
        };
        let unlimited = GpuConfig {
            max_outstanding_per_cu: usize::MAX,
            ..GpuConfig::default()
        };
        let wide = GpuSim::new(unlimited, SystemConfig::ideal_mmu())
            .run(&mut mk(32).into_source(), &mut os);
        let narrow_cfg = GpuConfig {
            max_waves_per_cu: 1,
            ..unlimited
        };
        let narrow = GpuSim::new(narrow_cfg, SystemConfig::ideal_mmu())
            .run(&mut mk(32).into_source(), &mut os);
        assert!(
            wide.cycles <= narrow.cycles,
            "more resident waves must not slow execution"
        );
    }

    #[test]
    fn scratch_and_compute_do_not_touch_memory() {
        let (mut os, pid, _r) = setup(1);
        let k = Kernel::builder("scratch", pid.asid())
            .wave(vec![
                WaveOp::scratch(64),
                WaveOp::compute(100),
                WaveOp::scratch(8),
            ])
            .build();
        let rep = GpuSim::new(GpuConfig::default(), SystemConfig::baseline_512())
            .run(&mut k.into_source(), &mut os);
        assert_eq!(rep.mem_instructions, 0);
        assert_eq!(rep.scratch_ops, 72);
        assert_eq!(rep.compute_ops, 1);
        assert_eq!(rep.mem.iommu.requests.get(), 0);
    }

    #[test]
    fn faulting_access_is_counted_but_does_not_hang() {
        let (mut os, pid, _r) = setup(1);
        let bad = vec![gvc_mem::VAddr::new(0xBAD_0000)];
        let k = Kernel::builder("fault", pid.asid())
            .wave(vec![WaveOp::read(bad)])
            .build();
        let rep = GpuSim::new(GpuConfig::default(), SystemConfig::baseline_512())
            .run(&mut k.into_source(), &mut os);
        assert_eq!(rep.faults, 1);
        assert_eq!(rep.mem.counters.page_faults.get(), 1);
    }

    #[test]
    fn probes_interleave_with_execution() {
        let (mut os, pid, r) = setup(8);
        let (pa, _) = os.translate(pid, r.start()).unwrap();
        let mut inj = ProbeInjector::new(3, 200.0);
        inj.add_target(pa.page_base(), PAGE_BYTES);
        let k = streaming_kernel(&r, pid.asid(), 16, 20);
        let rep = GpuSim::new(GpuConfig::default(), SystemConfig::vc_with_opt())
            .with_probes(inj)
            .run(&mut k.into_source(), &mut os);
        assert!(rep.probes_delivered > 0);
        assert_eq!(rep.mem.counters.probes.get(), rep.probes_delivered);
    }

    #[test]
    fn max_cycles_watchdog_truncates_with_partial_stats() {
        let (mut os, pid, r) = setup(64);
        let full = GpuSim::new(GpuConfig::default(), SystemConfig::baseline_512()).run(
            &mut streaming_kernel(&r, pid.asid(), 16, 40).into_source(),
            &mut os,
        );
        assert_eq!(full.truncated, None);
        let cfg = GpuConfig {
            max_cycles: Some(full.cycles / 2),
            ..GpuConfig::default()
        };
        let cut = GpuSim::new(cfg, SystemConfig::baseline_512()).run(
            &mut streaming_kernel(&r, pid.asid(), 16, 40).into_source(),
            &mut os,
        );
        assert_eq!(cut.truncated, Some(Truncation::MaxCycles));
        assert!(cut.cycles < full.cycles);
        assert!(
            cut.mem_instructions > 0 && cut.mem_instructions < full.mem_instructions,
            "truncated run should carry partial stats"
        );
    }

    #[test]
    fn truncated_run_counts_only_the_waves_that_issued() {
        // 512 waves outnumber the 16 CUs x 16 resident slots, so half
        // the run leaves waves that never issued.
        let (mut os, pid, r) = setup(64);
        let run = |cfg: GpuConfig, os: &mut OsLite| {
            GpuSim::new(cfg, SystemConfig::baseline_512()).run(
                &mut streaming_kernel(&r, pid.asid(), 512, 4).into_source(),
                os,
            )
        };
        let full = run(GpuConfig::default(), &mut os);
        assert_eq!(full.waves, 512);
        let cfg = GpuConfig {
            max_cycles: Some(full.cycles / 2),
            ..GpuConfig::default()
        };
        let cut = run(cfg, &mut os);
        assert_eq!(cut.truncated, Some(Truncation::MaxCycles));
        assert!(
            cut.waves > 0 && cut.waves < full.waves,
            "cut at half its cycles, the run counted {} of {} waves",
            cut.waves,
            full.waves
        );
    }

    #[test]
    fn wall_clock_watchdog_reports_truncation() {
        let (mut os, pid, r) = setup(64);
        let cfg = GpuConfig {
            wall_budget_ms: Some(0),
            ..GpuConfig::default()
        };
        let rep = GpuSim::new(cfg, SystemConfig::baseline_512()).run(
            &mut streaming_kernel(&r, pid.asid(), 32, 400).into_source(),
            &mut os,
        );
        // A zero budget has already expired at the first check; the
        // workload is big enough (>8192 pops) that the check fires.
        assert_eq!(rep.truncated, Some(Truncation::WallClock));
    }

    #[test]
    fn injection_fires_all_classes_and_stays_paranoid_clean() {
        let (mut os, pid, r) = setup(64);
        let sys = SystemConfig::vc_with_opt()
            .with_paranoid()
            .with_inject(gvc::InjectConfig::uniform(20_000, 7));
        let k = streaming_kernel(&r, pid.asid(), 16, 40);
        let rep = GpuSim::new(GpuConfig::default(), sys).run(&mut k.into_source(), &mut os);
        let inj = rep.injected.expect("plan was armed");
        assert!(inj.storms > 0, "no storms fired: {inj:?}");
        assert!(inj.probe_bursts > 0, "no probe bursts fired: {inj:?}");
        assert!(inj.pressure_windows > 0, "no pressure fired: {inj:?}");
        assert!(
            inj.remaps + inj.remaps_failed > 0,
            "no remaps attempted: {inj:?}"
        );
        assert_eq!(
            rep.mem.counters.fbt_pressure_windows.get(),
            inj.pressure_windows
        );
        assert_eq!(rep.mem.counters.probes.get(), rep.probes_delivered);
    }

    #[test]
    fn injection_is_deterministic_in_the_seed() {
        let run = |seed: u64| {
            let (mut os, pid, r) = setup(32);
            let sys = SystemConfig::vc_with_opt()
                .with_paranoid()
                .with_inject(gvc::InjectConfig::uniform(30_000, seed));
            let k = streaming_kernel(&r, pid.asid(), 8, 20);
            let rep = GpuSim::new(GpuConfig::default(), sys).run(&mut k.into_source(), &mut os);
            (
                rep.cycles,
                rep.faults,
                rep.probes_delivered,
                rep.injected.expect("armed"),
            )
        };
        assert_eq!(run(5), run(5), "same seed must replay byte-identically");
        assert_ne!(run(5), run(6), "seed does not reach the injectors");
    }

    #[test]
    fn transparent_huge_pages_promote_at_run_start() {
        let (mut os, pid, r) = setup(1024);
        assert_eq!(os.large_mapping_count(), 0);
        let k = streaming_kernel(&r, pid.asid(), 8, 10);
        let rep = GpuSim::new(GpuConfig::default(), SystemConfig::huge().with_paranoid())
            .run(&mut k.into_source(), &mut os);
        assert!(
            os.large_mapping_count() > 0,
            "a 1024-page region must contain at least one promotable \
             aligned block"
        );
        assert_eq!(rep.faults, 0);
        let reach = rep
            .mem
            .iommu_tlb_reach
            .expect("huge preset carries a size-aware shared TLB");
        assert!(
            reach.lookups.get() > 0,
            "no translation ever consulted the reach array"
        );
        assert!(rep.mem.per_cu_tlb_reach.is_some());
    }

    #[test]
    fn splinter_injection_demotes_huge_mappings() {
        let (mut os, pid, r) = setup(1024);
        let sys = SystemConfig::huge()
            .with_paranoid()
            .with_inject(gvc::InjectConfig::uniform(0, 13).with_splinter(50_000));
        let k = streaming_kernel(&r, pid.asid(), 16, 40);
        let rep = GpuSim::new(GpuConfig::default(), sys).run(&mut k.into_source(), &mut os);
        let inj = rep.injected.expect("splinter rate arms the plan");
        assert!(
            inj.splinters > 0,
            "no splinter landed on the promoted region: {inj:?}"
        );
        assert_eq!(rep.faults, 0, "demoted pages must still translate");
    }

    #[test]
    fn relative_metrics() {
        let (mut os, pid, r) = setup(32);
        let mk = || streaming_kernel(&r, pid.asid(), 4, 4);
        let a = GpuSim::new(GpuConfig::default(), SystemConfig::ideal_mmu())
            .run(&mut mk().into_source(), &mut os);
        let b = GpuSim::new(GpuConfig::default(), SystemConfig::baseline_512())
            .run(&mut mk().into_source(), &mut os);
        assert!(b.relative_time_to(&a) >= 1.0);
        assert!(a.speedup_over(&b) >= 1.0);
    }
}
