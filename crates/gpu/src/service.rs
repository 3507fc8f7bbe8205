//! Multi-tenant GPU service simulation (ROADMAP item 1).
//!
//! The paper evaluates one kernel in one or two address spaces; the
//! "GPU as a shared service" regime that SPARTA and Mosaic identify as
//! the scaling frontier instead churns hundreds of ASIDs through the
//! TLBs, the virtual caches, and the FBT. This module models that
//! regime on top of the existing hierarchy:
//!
//! * a deterministic, [`SimRng`]-forked **arrival process**: each
//!   tenant owns a private page table via [`OsLite`] and submits a
//!   stream of kernels separated by random think gaps;
//! * an MPS-style **time-slicing scheduler**: the whole CU array runs
//!   one tenant at a time for a configurable quantum, paying a fixed
//!   context-switch cost whenever the active address space changes;
//! * **tenant-lifecycle churn**: every [`ServiceConfig::churn_period`]
//!   kernel completions the completing tenant is evicted — its process
//!   destroyed, the full [`Shootdown::AllOf`] applied, its ASID
//!   recycled for the respawned tenant — which is exactly the path a
//!   stale translation or cache line would leak across tenants.
//!
//! Under paranoid mode every eviction is followed by
//! `MemorySystem::assert_no_asid_residue` (the cross-tenant isolation
//! check: no tenant may ever hit another tenant's lines) and the run
//! asserts the stall conservation law (per-tenant stall cycles sum to
//! the aggregate).
//!
//! Everything is replayed byte-identically from
//! [`ServiceConfig::seed`]: the simulation is single-threaded with a
//! global monotone clock, and every random draw comes from per-tenant
//! forks of one seeded generator.

use gvc::{inject, InjectEvent, InjectPlan, InjectReport};
use gvc::{LineAccess, MemorySystem, SystemConfig};
use gvc_engine::time::Cycle;
use gvc_engine::{CountCdf, SimRng};
use gvc_mem::{OsLite, Perms, ProcessId, VRange, LINE_BYTES, PAGE_BYTES};
use gvc_soc::{Probe, ProbeKind};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Shape of a multi-tenant service run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Number of tenants (each gets its own process/ASID).
    pub tenants: usize,
    /// Scheduler quantum in cycles: how long one tenant keeps the CU
    /// array before the scheduler rotates.
    pub quantum: u64,
    /// Fixed cost of switching the active address space (pipeline
    /// drain + state swap).
    pub context_switch_cycles: u64,
    /// Kernels each tenant submits over its lifetime.
    pub kernels_per_tenant: u64,
    /// Wavefronts per kernel.
    pub waves_per_kernel: u64,
    /// Coalesced line accesses per wavefront.
    pub accesses_per_wave: u64,
    /// 4 KB pages in each tenant's working set.
    pub pages_per_tenant: u64,
    /// Evict (destroy + full shootdown + respawn under the recycled
    /// ASID) the completing tenant every this many kernel completions
    /// across the service; `0` disables churn.
    pub churn_period: u64,
    /// Mean think time between a tenant's kernel completions and its
    /// next submission.
    pub mean_arrival_gap: u64,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// Outstanding line requests per CU (MSHR admission limit).
    pub max_outstanding_per_cu: usize,
    /// Master seed; all randomness derives from per-tenant forks.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            tenants: 16,
            quantum: 512,
            context_switch_cycles: 300,
            kernels_per_tenant: 3,
            waves_per_kernel: 4,
            accesses_per_wave: 32,
            pages_per_tenant: 24,
            churn_period: 7,
            mean_arrival_gap: 2_000,
            write_fraction: 0.25,
            max_outstanding_per_cu: 64,
            seed: 42,
        }
    }
}

/// Per-tenant service-level statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// The tenant's final ASID (recycled across its own evictions).
    pub asid: u16,
    /// Line accesses the tenant issued.
    pub accesses: u64,
    /// Total translation/memory stall cycles (completion − issue,
    /// summed over the tenant's accesses).
    pub stall_cycles: u64,
    /// p99 of the tenant's per-access stall latency.
    pub p99_stall: f64,
    /// Times this tenant was evicted and respawned.
    pub evictions: u64,
}

/// End-of-run report for one (tenant count × design) service cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Memory-system design label.
    pub design: String,
    /// Tenant count.
    pub tenants: usize,
    /// Scheduler quantum (cycles).
    pub quantum: u64,
    /// Total simulated cycles (last completion).
    pub cycles: u64,
    /// Line accesses across all tenants.
    pub accesses: u64,
    /// Aggregate throughput in accesses per kilocycle.
    pub throughput: f64,
    /// Sum of all tenants' stall cycles, accumulated independently of
    /// the per-tenant tallies (the conservation law's left-hand side).
    pub aggregate_stall_cycles: u64,
    /// p99 stall latency over every access of every tenant.
    pub p99_stall: f64,
    /// Jain's fairness index over per-tenant service rates
    /// (1.0 = perfectly fair).
    pub fairness: f64,
    /// Tenant evictions performed (churn).
    pub evictions: u64,
    /// Address-space context switches performed.
    pub context_switches: u64,
    /// Faulting accesses (should be 0 outside injection runs).
    pub faults: u64,
    /// Fault-injection tally when the design config armed a plan.
    pub injected: Option<InjectReport>,
    /// Per-tenant breakdown, indexed by tenant.
    pub per_tenant: Vec<TenantStats>,
}

impl ServiceReport {
    /// Asserts the stall conservation law: the independently accumulated
    /// aggregate equals the sum of the per-tenant tallies. Paranoid runs
    /// check this before returning; tests can re-assert on any report.
    ///
    /// # Panics
    ///
    /// Panics if a stall cycle was attributed to no tenant or to two.
    pub fn check_stall_conservation(&self) {
        let per_tenant: u64 = self.per_tenant.iter().map(|t| t.stall_cycles).sum();
        assert_eq!(
            per_tenant, self.aggregate_stall_cycles,
            "stall conservation: per-tenant sum != aggregate"
        );
        let accesses: u64 = self.per_tenant.iter().map(|t| t.accesses).sum();
        assert_eq!(
            accesses, self.accesses,
            "access conservation: per-tenant sum != aggregate"
        );
    }
}

/// Jain's fairness index over non-negative rates: `(Σx)² / (n·Σx²)`,
/// 1.0 when all rates are equal, approaching `1/n` under starvation.
pub(crate) fn jain_index(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        return 1.0;
    }
    let sum: f64 = rates.iter().sum();
    let sq: f64 = rates.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (rates.len() as f64 * sq)
}

/// Per-CU outstanding-request tracker (the L1 MSHR admission limit),
/// shared by [`crate::sim::GpuSim`], [`run_service`] and soak.
#[derive(Debug, Default)]
pub(crate) struct Outstanding {
    completions: BinaryHeap<Reverse<Cycle>>,
}

impl Outstanding {
    /// Admits a request arriving at `at` under `cap` outstanding
    /// requests; returns the (possibly delayed) admission time.
    pub(crate) fn admit(&mut self, at: Cycle, cap: usize) -> Cycle {
        while let Some(&Reverse(done)) = self.completions.peek() {
            if done <= at {
                self.completions.pop();
            } else {
                break;
            }
        }
        if self.completions.len() < cap {
            at
        } else {
            let Reverse(done) = self.completions.pop().expect("cap is at least 1");
            done.max(at)
        }
    }

    /// Records an admitted request completing at `done`.
    pub(crate) fn track(&mut self, done: Cycle) {
        self.completions.push(Reverse(done));
    }

    /// The outstanding completion times as a sorted vector (for
    /// checkpointing; the heap is behaviorally a multiset).
    pub(crate) fn to_sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.completions.iter().map(|&Reverse(c)| c.raw()).collect();
        v.sort_unstable();
        v
    }

    /// Rebuilds the admission heap from checkpointed completion times.
    pub(crate) fn from_sorted(times: &[u64]) -> Self {
        Outstanding {
            completions: times.iter().map(|&t| Reverse(Cycle::new(t))).collect(),
        }
    }
}

/// One tenant's live scheduling state.
struct Tenant {
    pid: ProcessId,
    region: VRange,
    rng: SimRng,
    /// Kernels not yet submitted.
    kernels_left: u64,
    /// Wavefronts left in the in-flight kernel (0 = between kernels).
    waves_left: u64,
    /// Accesses left in the in-flight wavefront.
    accesses_left: u64,
    /// Earliest cycle the next kernel may start (arrival gate).
    next_arrival: u64,
    accesses: u64,
    stall_cycles: u64,
    /// Exact per-access stall distribution (value → count).
    stalls: CountCdf,
    evictions: u64,
}

impl Tenant {
    /// Whether the tenant still has work (submitted or queued).
    fn has_work(&self) -> bool {
        self.kernels_left > 0 || self.waves_left > 0
    }

    /// Whether the tenant can issue at `now`.
    fn runnable(&self, now: u64) -> bool {
        self.waves_left > 0 || (self.kernels_left > 0 && self.next_arrival <= now)
    }
}

/// Runs the multi-tenant service scenario for one design and returns
/// its service-level report. `cfg.paranoid` additionally runs the
/// cross-tenant isolation check after every eviction and the stall
/// conservation law at the end.
///
/// # Panics
///
/// Panics if `sc.tenants` is 0 or exceeds the usable ASID namespace,
/// or on any paranoid-mode invariant violation.
pub fn run_service(sc: &ServiceConfig, sys: SystemConfig) -> ServiceReport {
    assert!(sc.tenants > 0, "a service needs at least one tenant");
    assert!(
        sc.tenants <= gvc_mem::os::MAX_PROCESSES,
        "tenant count exceeds the ASID namespace"
    );
    let paranoid = sys.paranoid;
    let n_cus = sys.n_cus;
    let mut plan = inject::plan_for(&sys);
    let mut mem = MemorySystem::new(sys);

    // Enough lazy physical memory for every tenant's working set plus
    // page-table nodes, with headroom for churn-respawned regions.
    let frames = sc.tenants as u64 * (sc.pages_per_tenant + 16) * 4 + 4096;
    let mut os = OsLite::new(frames * PAGE_BYTES);

    let root = SimRng::seeded(sc.seed);
    let mut tenants: Vec<Tenant> = (0..sc.tenants)
        .map(|i| {
            let mut rng = root.fork(i as u64 + 1);
            let pid = os
                .try_create_process()
                .expect("tenant count checked against the namespace");
            let region = os
                .mmap(pid, sc.pages_per_tenant * PAGE_BYTES, Perms::READ_WRITE)
                .expect("sized physical memory above");
            let first_arrival = rng.below(sc.mean_arrival_gap.max(1));
            Tenant {
                pid,
                region,
                rng,
                kernels_left: sc.kernels_per_tenant,
                waves_left: 0,
                accesses_left: 0,
                next_arrival: first_arrival,
                accesses: 0,
                stall_cycles: 0,
                stalls: CountCdf::new(),
                evictions: 0,
            }
        })
        .collect();

    let cap = sc.max_outstanding_per_cu.max(1);
    let mut outstanding: Vec<Outstanding> = (0..n_cus).map(|_| Outstanding::default()).collect();
    let mut now = 0u64;
    let mut end = 0u64;
    let mut active: Option<usize> = None;
    let mut completions = 0u64;
    let mut evictions = 0u64;
    let mut context_switches = 0u64;
    let mut faults = 0u64;
    let mut aggregate_stall = 0u64;
    let mut total_accesses = 0u64;

    loop {
        // Pick the next runnable tenant, round-robin from the last
        // active one; if every tenant with work is gated on an arrival,
        // jump the clock to the earliest gate.
        if !tenants.iter().any(Tenant::has_work) {
            break;
        }
        let start = active.map_or(0, |a| a + 1);
        let next = (0..sc.tenants)
            .map(|i| (start + i) % sc.tenants)
            .find(|&i| tenants[i].runnable(now));
        let Some(idx) = next else {
            now = tenants
                .iter()
                .filter(|t| t.has_work())
                .map(|t| t.next_arrival)
                .min()
                .expect("some tenant has work")
                .max(now + 1);
            continue;
        };
        if active.is_some() && active != Some(idx) {
            now += sc.context_switch_cycles;
            context_switches += 1;
        }
        active = Some(idx);

        let slice_end = now + sc.quantum;
        while now < slice_end {
            let t = &mut tenants[idx];
            if t.waves_left == 0 {
                if t.kernels_left == 0 || t.next_arrival > now {
                    break;
                }
                t.kernels_left -= 1;
                t.waves_left = sc.waves_per_kernel.max(1);
                t.accesses_left = sc.accesses_per_wave.max(1);
            }

            // Issue one coalesced line access for the active tenant.
            let lines = t.region.bytes() / LINE_BYTES;
            let offset = t.rng.below(lines) * LINE_BYTES;
            let cu = t.rng.below(n_cus as u64) as usize;
            let is_write = t.rng.chance(sc.write_fraction);
            let at = outstanding[cu].admit(Cycle::new(now + 1), cap);
            now = at.raw();
            let asid = t.pid.asid();
            if let Some(p) = plan.as_mut() {
                p.observe(asid, t.region.addr_at(offset).vpn());
            }
            let res = mem.access(
                LineAccess {
                    cu,
                    asid,
                    vaddr: t.region.addr_at(offset),
                    is_write,
                    at,
                },
                &os,
            );
            if res.fault.is_some() {
                faults += 1;
            }
            outstanding[cu].track(res.done_at);
            end = end.max(res.done_at.raw());
            let stall = res.done_at.raw() - at.raw();
            t.accesses += 1;
            t.stall_cycles += stall;
            t.stalls.push(stall);
            total_accesses += 1;
            aggregate_stall += stall;

            t.accesses_left -= 1;
            if t.accesses_left == 0 {
                t.waves_left -= 1;
                if t.waves_left > 0 {
                    t.accesses_left = sc.accesses_per_wave.max(1);
                } else {
                    // Kernel complete: schedule the next submission and
                    // run the churn policy.
                    completions += 1;
                    let gap = t.rng.range(1, 2 * sc.mean_arrival_gap.max(1));
                    t.next_arrival = now + gap;
                    if sc.churn_period > 0
                        && completions.is_multiple_of(sc.churn_period)
                        && t.kernels_left > 0
                    {
                        evict_and_respawn(
                            &mut tenants[idx],
                            &mut os,
                            &mut mem,
                            sc,
                            Cycle::new(now),
                            paranoid,
                        );
                        evictions += 1;
                    }
                }
            }

            if let Some(p) = plan.as_mut() {
                if let Some(ev) = p.poll() {
                    apply_inject(ev, p, &mut os, &mut mem, Cycle::new(now));
                    if paranoid {
                        mem.check_invariants();
                    }
                }
            }
        }
    }

    if paranoid {
        mem.check_invariants();
    }
    let end = end.max(now);
    let mem_report = mem.finish(Cycle::new(end));

    let mut all_stalls = CountCdf::new();
    let mut rates = Vec::with_capacity(sc.tenants);
    let per_tenant: Vec<TenantStats> = tenants
        .iter()
        .map(|t| {
            all_stalls.merge(&t.stalls);
            rates.push(t.accesses as f64 / (1.0 + t.stall_cycles as f64));
            TenantStats {
                asid: t.pid.asid().0,
                accesses: t.accesses,
                stall_cycles: t.stall_cycles,
                p99_stall: t.stalls.quantile(0.99),
                evictions: t.evictions,
            }
        })
        .collect();

    let report = ServiceReport {
        design: mem_report.design.clone(),
        tenants: sc.tenants,
        quantum: sc.quantum,
        cycles: end,
        accesses: total_accesses,
        throughput: total_accesses as f64 * 1000.0 / end.max(1) as f64,
        aggregate_stall_cycles: aggregate_stall,
        p99_stall: all_stalls.quantile(0.99),
        fairness: jain_index(&rates),
        evictions,
        context_switches,
        faults,
        injected: plan.as_ref().map(InjectPlan::report),
        per_tenant,
    };
    if paranoid {
        report.check_stall_conservation();
    }
    report
}

/// Destroys a tenant's process, applies the full shootdown, verifies
/// (under paranoid mode) that no state tagged with the dead ASID
/// survived, and respawns the tenant under the recycled ASID with a
/// fresh working set.
fn evict_and_respawn(
    t: &mut Tenant,
    os: &mut OsLite,
    mem: &mut MemorySystem,
    sc: &ServiceConfig,
    now: Cycle,
    paranoid: bool,
) {
    let dead = t.pid.asid();
    let sd = os.destroy_process(t.pid).expect("tenant process is live");
    mem.apply_shootdown(&sd, now);
    if paranoid {
        // The cross-tenant isolation check: anything still tagged with
        // the dead ASID is state the respawned tenant could hit.
        mem.assert_no_asid_residue(dead);
    }
    t.pid = os
        .try_create_process()
        .expect("the destroyed slot was just freed");
    debug_assert_eq!(t.pid.asid(), dead, "LIFO recycling reuses the dead ASID");
    t.region = os
        .mmap(t.pid, sc.pages_per_tenant * PAGE_BYTES, Perms::READ_WRITE)
        .expect("eviction freed at least the respawn's frames");
    t.evictions += 1;
}

/// Executes one injected event against the live hierarchy/OS (the
/// service-layer twin of the run loop's handler in [`crate::sim`]).
pub(crate) fn apply_inject(
    ev: InjectEvent,
    plan: &mut InjectPlan,
    os: &mut OsLite,
    mem: &mut MemorySystem,
    at: Cycle,
) {
    match ev {
        InjectEvent::Shootdown(sd) => {
            mem.apply_shootdown(&sd, at);
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
                        mem.handle_probe(Probe { paddr, kind, at });
                        true
                    }
                    None => false,
                };
                plan.record_probe(delivered);
            }
        }
        InjectEvent::FbtPressure { ways, window } => {
            mem.inject_fbt_pressure(ways, window);
        }
        InjectEvent::Remap { asid, vpn } => {
            let ok = match os.remap_page(ProcessId(asid.0), vpn) {
                Ok(sd) => {
                    mem.apply_shootdown(&sd, at);
                    true
                }
                Err(_) => false,
            };
            plan.record_remap(ok);
        }
        InjectEvent::Splinter { asid, vpn } => {
            let ok = match os.splinter(ProcessId(asid.0), vpn) {
                Ok(sd) => {
                    mem.apply_shootdown(&sd, at);
                    true
                }
                Err(_) => false,
            };
            plan.record_splinter(ok);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ServiceConfig {
        ServiceConfig {
            tenants: 4,
            quantum: 256,
            kernels_per_tenant: 2,
            waves_per_kernel: 2,
            accesses_per_wave: 16,
            pages_per_tenant: 8,
            churn_period: 3,
            mean_arrival_gap: 500,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn completes_all_work_and_conserves_stalls() {
        let rep = run_service(&small(), SystemConfig::vc_with_opt().with_paranoid());
        let expected = 4 * 2 * 2 * 16;
        assert_eq!(rep.accesses, expected);
        assert_eq!(rep.faults, 0);
        assert!(rep.cycles > 0);
        assert!(rep.evictions > 0, "churn must fire at this period");
        assert!(rep.context_switches > 0);
        assert!(rep.fairness > 0.0 && rep.fairness <= 1.0);
        rep.check_stall_conservation();
        for t in &rep.per_tenant {
            assert_eq!(t.accesses, expected / 4);
            assert!(t.p99_stall >= 0.0);
        }
    }

    #[test]
    fn byte_identical_replay_from_the_seed() {
        let a = run_service(&small(), SystemConfig::vc_with_opt());
        let b = run_service(&small(), SystemConfig::vc_with_opt());
        assert_eq!(a, b, "same seed must replay identically");
        let other = ServiceConfig { seed: 7, ..small() };
        let c = run_service(&other, SystemConfig::vc_with_opt());
        assert_ne!(a.p99_stall.to_bits(), c.p99_stall.to_bits());
    }

    #[test]
    fn every_design_survives_churn_under_paranoia() {
        for sys in [
            SystemConfig::ideal_mmu(),
            SystemConfig::baseline_512(),
            SystemConfig::vc_without_opt(),
            SystemConfig::vc_with_opt(),
            SystemConfig::l1_only_vc_32(),
        ] {
            let rep = run_service(&small(), sys.with_paranoid());
            assert_eq!(rep.faults, 0, "{}: unexpected faults", rep.design);
            rep.check_stall_conservation();
        }
    }

    #[test]
    fn quantum_zero_is_effectively_one_access_slices() {
        // A tiny quantum forces a context switch at nearly every slice;
        // the run must still complete and stay conservative.
        let sc = ServiceConfig {
            quantum: 1,
            ..small()
        };
        let rep = run_service(&sc, SystemConfig::baseline_512().with_paranoid());
        assert_eq!(rep.accesses, 4 * 2 * 2 * 16);
        assert!(rep.context_switches >= rep.evictions);
    }

    #[test]
    fn injection_runs_stay_clean() {
        let sys = SystemConfig::vc_with_opt()
            .with_paranoid()
            .with_inject(gvc::InjectConfig::uniform(5_000, 9));
        let sc = ServiceConfig {
            kernels_per_tenant: 4,
            ..small()
        };
        let rep = run_service(&sc, sys);
        assert!(rep.injected.is_some());
        rep.check_stall_conservation();
    }
}
