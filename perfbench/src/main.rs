//! Host-time benchmark of the gvc simulator: host ns per simulated line
//! request on three workloads, end to end and split by layer from
//! outside. See `README.md` beside this package for what each workload
//! and metric is for.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload divergent --seed 42 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod cells;
mod pinned;
mod replay;

use cells::{Bench, Cell, Design, Report, Times};
use gvc_gpu::{RunReport, ServiceReport};
use gvc_workloads::Scale;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The seed the pinned fingerprints belong to.
const DEFAULT_SEED: u64 = 42;

#[derive(Debug, Clone, Copy)]
struct Args {
    bench: Bench,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_pins: bool,
}

const USAGE: &str = "usage: perfbench --workload divergent|stencil|tenants [--seed N] \
                     [--seconds N] [--trace 0|1] [--print-pins]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut bench = None;
    let mut args = Args {
        bench: Bench::Divergent,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        print_pins: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--print-pins" {
            args.print_pins = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag}: missing value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                bench = Some(Bench::from_name(&value).ok_or(format!("--workload: {value}?"))?)
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace: 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.bench = bench.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.print_pins {
        print_pins(args.bench, args.seed);
        return;
    }
    let pins = (args.seed == DEFAULT_SEED).then(|| pinned::for_bench(args.bench.name()));
    let gate = Gate::new(pins);
    let budget = Duration::from_secs(args.seconds);
    let out = if args.trace {
        measure_traced(args.bench, Scale::paper(), args.seed, budget, gate)
    } else {
        measure(args.bench, Scale::paper(), args.seed, budget, gate)
    };
    for m in &out.metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{} repetitions (medians of seconds metrics are over these), seed {}, {} of {} operations failed",
        out.samples, args.seed, out.failed, out.attempted
    );
    println!("{}", out.to_json());
}

/// One named result.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// A run's result: the benchmark's output line.
#[derive(Debug)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Repetitions whose cells all passed the gate.
    samples: usize,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.samples > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The correctness gate: counts operations, and fails a cell that
/// panicked, faulted, was truncated, broke a conservation law, differs
/// from its pinned fingerprint (when pins are given) or from its own
/// fingerprint in an earlier repetition.
struct Gate {
    /// Pinned fingerprint per cell name; `None` skips the comparison.
    pins: Option<HashMap<String, Vec<f64>>>,
    attempted: u64,
    failed: u64,
    seen: HashMap<String, Vec<f64>>,
}

impl Gate {
    fn new(pins: Option<HashMap<String, Vec<f64>>>) -> Self {
        Gate {
            pins,
            attempted: 0,
            failed: 0,
            seen: HashMap::new(),
        }
    }

    fn check(
        &mut self,
        cell: Cell,
        result: Result<(Times, Report), String>,
    ) -> Option<(Times, Report)> {
        let name = cell.name();
        let (times, report) = match result {
            Ok(r) => r,
            Err(msg) => {
                self.record(&name, vec![format!("panicked: {msg}")]);
                return None;
            }
        };
        let mut problems = match &self.pins {
            None => report.problems(None),
            Some(pins) => match pins.get(&name) {
                Some(fp) => report.problems(Some(fp)),
                None => vec!["no pinned fingerprint".to_string()],
            },
        };
        self.repeats(&name, report.fingerprint(), &mut problems);
        self.record(&name, problems).then_some((times, report))
    }

    /// Flags `values` that differ from the first ones seen under `key`.
    fn repeats(&mut self, key: &str, values: Vec<f64>, problems: &mut Vec<String>) {
        match self.seen.get(key) {
            Some(first) if *first != values => problems.push(format!(
                "{values:?} differs from the first repetition's {first:?}"
            )),
            Some(_) => {}
            None => {
                self.seen.insert(key.to_string(), values);
            }
        }
    }

    /// Counts one operation; returns whether it passed.
    fn record(&mut self, what: &str, problems: Vec<String>) -> bool {
        self.attempted += 1;
        if problems.is_empty() {
            return true;
        }
        self.failed += 1;
        eprintln!("FAILED {what}: {}", problems.join("; "));
        false
    }
}

type CellResult = (Cell, Times, Report);

/// Runs every cell of `bench` once, one after another.
fn run_rep(
    bench: Bench,
    scale: Scale,
    seed: u64,
    traced: bool,
    gate: &mut Gate,
) -> Option<Vec<CellResult>> {
    let mut out = Vec::new();
    let mut ok = true;
    for cell in bench.cells() {
        match gate.check(cell, cells::run(cell, scale, seed, traced)) {
            Some((times, report)) => out.push((cell, times, report)),
            None => ok = false,
        }
    }
    ok.then_some(out)
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host ns per line over `cells` (all designs, or the given one).
fn ns_per_line(cells: &[CellResult], design: Option<Design>) -> f64 {
    let mine = cells
        .iter()
        .filter(|c| design.is_none_or(|d| c.0.design == d));
    let (s, lines) = mine.fold((0.0, 0u64), |(s, l), c| (s + c.1.run_s, l + c.2.lines()));
    ratio(s * 1e9, lines as f64)
}

/// The resident high-water mark of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Calls `rep` at least once, and again while one more call as long as
/// the last still ends within `budget`, so a run lasts about `budget`.
fn repeat_for(budget: Duration, mut rep: impl FnMut()) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        rep();
        if start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
}

/// The untraced run: repeats every cell for about `budget` and
/// reports the end-to-end metrics as medians over the repetitions.
fn measure(bench: Bench, scale: Scale, seed: u64, budget: Duration, mut gate: Gate) -> Outcome {
    let mut reps = Vec::new();
    repeat_for(budget, || {
        if let Some(rep) = run_rep(bench, scale, seed, false, &mut gate) {
            eprintln!(
                "repetition {}: {:.1} ns per line",
                reps.len(),
                ns_per_line(&rep, None)
            );
            reps.push(rep);
        }
    });
    let per_rep = |f: &dyn Fn(&[CellResult]) -> f64| median(reps.iter().map(|r| f(r)).collect());
    let mut metrics = vec![Metric {
        name: "ns_per_line".into(),
        value: per_rep(&|r| ns_per_line(r, None)),
        unit: "ns",
    }];
    for d in Design::ALL {
        metrics.push(Metric {
            name: format!("ns_per_line.{}", d.name()),
            value: per_rep(&|r| ns_per_line(r, Some(d))),
            unit: "ns",
        });
    }
    metrics.push(Metric {
        name: "setup_s".into(),
        value: per_rep(&|r| r.iter().map(|c| c.1.setup_s()).sum()),
        unit: "s",
    });
    metrics.push(Metric {
        name: "peak_rss_mb".into(),
        value: peak_rss_mb(),
        unit: "MB",
    });
    Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        samples: reps.len(),
        metrics,
    }
}

/// Pooled host time of the traced run, per design index.
#[derive(Debug, Default)]
struct Pool {
    traced_s: [f64; 2],
    gen_s: [f64; 2],
    traced_lines: [u64; 2],
    service_s: [f64; 2],
    service_lines: [u64; 2],
    untraced_s: [f64; 2],
    untraced_lines: [u64; 2],
    core_s: [f64; 2],
    core_accesses: [u64; 2],
    tlb: replay::TlbProbe,
    cache: replay::CacheProbe,
    /// Per repetition: summed cold builds and simulator constructions.
    build_s: Vec<f64>,
    new_s: Vec<f64>,
}

impl Pool {
    fn add_cells(&mut self, traced: &[CellResult], untraced: &[CellResult]) {
        for (cell, t, r) in traced {
            let d = cell.design as usize;
            if cell.kernel.is_some() {
                self.traced_s[d] += t.run_s;
                self.gen_s[d] += t.gen_s;
                self.traced_lines[d] += r.lines();
            } else {
                self.service_s[d] += t.run_s;
                self.service_lines[d] += r.lines();
            }
        }
        for (cell, t, r) in untraced {
            let d = cell.design as usize;
            self.untraced_s[d] += t.run_s;
            self.untraced_lines[d] += r.lines();
        }
        self.build_s.push(traced.iter().map(|c| c.1.build_s).sum());
        self.new_s.push(traced.iter().map(|c| c.1.new_s).sum());
    }

    fn add_replay(&mut self, r: &ReplayResult) {
        for d in 0..2 {
            self.core_s[d] += r.core_s[d];
            self.core_accesses[d] += r.accesses;
        }
        self.tlb.lookup_s += r.tlb.lookup_s;
        self.tlb.lookups += r.tlb.lookups;
        self.tlb.misses += r.tlb.misses;
        self.tlb.translate_s += r.tlb.translate_s;
        self.cache.l1_s += r.cache.l1_s;
        self.cache.l1_lookups += r.cache.l1_lookups;
        self.cache.l1_misses += r.cache.l1_misses;
        self.cache.l2_s += r.cache.l2_s;
    }
}

/// One kernel's layer probes.
struct ReplayResult {
    accesses: u64,
    core_s: [f64; 2],
    core_faults: [u64; 2],
    tlb: replay::TlbProbe,
    cache: replay::CacheProbe,
}

impl ReplayResult {
    /// The replay's deterministic counts, which must repeat exactly.
    fn counts(&self) -> Vec<f64> {
        [
            self.accesses,
            self.tlb.misses,
            self.tlb.walks,
            self.cache.l1_misses,
            self.cache.l2_misses,
        ]
        .iter()
        .map(|&v| v as f64)
        .collect()
    }
}

/// Builds `id` (untimed), drains its line stream and probes the core,
/// TLB and cache layers with it. The TLB and cache probes use the
/// baseline's geometry: per-CU TLBs exist only there.
fn replay_kernel(id: gvc_workloads::WorkloadId, scale: Scale, seed: u64) -> ReplayResult {
    let mut w = gvc_workloads::build_thp(id, scale, seed, false);
    let baseline = Design::Baseline512.config();
    let stream = replay::drain(&mut *w.source, baseline.n_cus);
    let mut core_s = [0.0; 2];
    let mut core_faults = [0; 2];
    for d in Design::ALL {
        (core_s[d as usize], core_faults[d as usize]) = replay::core(&stream, &w.os, d.config());
    }
    ReplayResult {
        accesses: stream.len() as u64,
        core_s,
        core_faults,
        tlb: replay::tlb(&stream, &w.os, baseline),
        cache: replay::cache(&stream, baseline),
    }
}

/// The traced run: every cell traced and untraced (alternating which
/// goes first), plus the layer replays, for about `budget`.
fn measure_traced(
    bench: Bench,
    scale: Scale,
    seed: u64,
    budget: Duration,
    mut gate: Gate,
) -> Outcome {
    let mut pool = Pool::default();
    let mut first: Option<Vec<CellResult>> = None;
    let mut samples = 0;
    repeat_for(budget, || {
        let traced_first = samples % 2 == 0;
        let first_pass = run_rep(bench, scale, seed, traced_first, &mut gate);
        let second_pass = run_rep(bench, scale, seed, !traced_first, &mut gate);
        let (traced, untraced) = if traced_first {
            (first_pass, second_pass)
        } else {
            (second_pass, first_pass)
        };
        let mut ok = true;
        if let (Some(t), Some(u)) = (&traced, &untraced) {
            for (a, b) in t.iter().zip(u) {
                let problems = if a.2.to_json() == b.2.to_json() {
                    vec![]
                } else {
                    vec!["traced report differs from the untraced one".to_string()]
                };
                ok &= gate.record(&format!("{} traced = untraced", a.0.name()), problems);
            }
        } else {
            ok = false;
        }
        let mut replays = Vec::new();
        for &id in bench.kernels() {
            let r = replay_kernel(id, scale, seed);
            let mut problems = Vec::new();
            if r.core_faults != [0, 0] {
                problems.push(format!("{:?} faulting replayed accesses", r.core_faults));
            }
            gate.repeats(&format!("replay.{id}"), r.counts(), &mut problems);
            ok &= gate.record(&format!("replay.{id}"), problems);
            replays.push(r);
        }
        if let (true, Some(t), Some(u)) = (ok, traced, untraced) {
            pool.add_cells(&t, &u);
            replays.iter().for_each(|r| pool.add_replay(r));
            first.get_or_insert(t);
            samples += 1;
        }
    });
    Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        samples,
        metrics: layer_metrics(&pool, first.as_deref().unwrap_or(&[])),
    }
}

/// The per-layer metrics: host time from `pool`, deterministic counts
/// from one repetition's traced reports. A metric a workload does not
/// exercise (the service counts on kernel workloads, the kernel layers
/// on `tenants`) reads 0.
fn layer_metrics(pool: &Pool, reports: &[CellResult]) -> Vec<Metric> {
    let mut m = Vec::new();
    let mut push =
        |name: String, value: f64, unit: &'static str| m.push(Metric { name, value, unit });
    let sum2 = |a: [f64; 2]| a[0] + a[1];
    let lines2 = |a: [u64; 2]| (a[0] + a[1]) as f64;
    let per_line = |s: f64, lines: f64| ratio(s * 1e9, lines);

    push(
        "workloads.build_s".into(),
        median(pool.build_s.clone()),
        "s",
    );
    let lines = lines2(pool.traced_lines);
    push(
        "workloads.gen_ns_per_line".into(),
        per_line(sum2(pool.gen_s), lines),
        "ns",
    );
    type Count = fn(&RunReport) -> u64;
    let kernel_sum = |d: Design, f: Count| -> f64 {
        reports
            .iter()
            .filter(|c| c.0.design == d)
            .map(|c| match &c.2 {
                Report::Kernel(r) => f(r) as f64,
                Report::Service(_) => 0.0,
            })
            .sum()
    };
    let wave_ops = reports
        .iter()
        .filter(|c| c.0.design == Design::Baseline512)
        .map(|c| c.1.wave_ops as f64)
        .sum();
    push("workloads.wave_ops".into(), wave_ops, "count");
    push("gpu.new_s".into(), median(pool.new_s.clone()), "s");

    // run = generation + self; frontend = self − the core replay's
    // per-access cost (an estimate: replay order is not the run's).
    let scopes: Vec<(String, Vec<usize>)> = std::iter::once((String::new(), vec![0, 1]))
        .chain(Design::ALL.map(|d| (format!(".{}", d.name()), vec![d as usize])))
        .collect();
    let pick = |a: &[f64; 2], ix: &[usize]| ix.iter().map(|&i| a[i]).sum::<f64>();
    let pick_n = |a: &[u64; 2], ix: &[usize]| ix.iter().map(|&i| a[i] as f64).sum::<f64>();
    let split: Vec<(&String, f64, f64, f64)> = scopes
        .iter()
        .map(|(suffix, ix)| {
            let l = pick_n(&pool.traced_lines, ix);
            let run = per_line(pick(&pool.traced_s, ix), l);
            let gen = per_line(pick(&pool.gen_s, ix), l);
            let core = per_line(pick(&pool.core_s, ix), pick_n(&pool.core_accesses, ix));
            (suffix, run, run - gen, core)
        })
        .collect();
    for (suffix, run, _, _) in &split {
        push(format!("gpu.run_ns_per_line{suffix}"), *run, "ns");
    }
    for (suffix, _, selfish, _) in &split {
        push(format!("gpu.self_ns_per_line{suffix}"), *selfish, "ns");
    }
    for (suffix, _, selfish, core) in &split {
        push(
            format!("gpu.frontend_ns_per_line{suffix}"),
            selfish - core,
            "ns",
        );
    }
    let base = Design::Baseline512;
    let front_end: [(&str, Count); 6] = [
        ("gpu.kernels", |r| r.kernels),
        ("gpu.waves", |r| r.waves),
        ("gpu.mem_instructions", |r| r.mem_instructions),
        ("gpu.line_requests", |r| r.line_requests),
        ("gpu.scratch_ops", |r| r.scratch_ops),
        ("gpu.compute_ops", |r| r.compute_ops),
    ];
    for (name, f) in front_end {
        push(name.into(), kernel_sum(base, f), "count");
    }
    for d in Design::ALL {
        push(
            format!("gpu.sim_cycles.{}", d.name()),
            kernel_sum(d, |r| r.cycles),
            "cycles",
        );
    }

    for (suffix, _, _, core) in &split {
        push(format!("core.access_ns{suffix}"), *core, "ns");
    }
    push(
        "core.accesses".into(),
        kernel_sum(base, |r| r.mem.counters.accesses.get()),
        "count",
    );
    let per_design: [(&str, Count, &'static str); 19] = [
        (
            "core.filtered_at_l1",
            |r| r.mem.counters.filtered_at_l1.get(),
            "count",
        ),
        (
            "core.filtered_at_l2",
            |r| r.mem.counters.filtered_at_l2.get(),
            "count",
        ),
        (
            "core.fbt.ft_lookups",
            |r| r.mem.fbt.map_or(0, |f| f.ft_lookups.get()),
            "count",
        ),
        (
            "core.fbt.bt_lookups",
            |r| r.mem.fbt.map_or(0, |f| f.bt_lookups.get()),
            "count",
        ),
        (
            "core.fbt.evictions",
            |r| r.mem.fbt.map_or(0, |f| f.evictions.get()),
            "count",
        ),
        (
            "core.synonyms_detected",
            |r| r.mem.counters.synonyms_detected.get(),
            "count",
        ),
        (
            "tlb.per_cu.lookups",
            |r| r.mem.per_cu_tlb.lookups.get(),
            "count",
        ),
        (
            "tlb.per_cu.misses",
            |r| r.mem.per_cu_tlb.misses.get(),
            "count",
        ),
        (
            "tlb.iommu.requests",
            |r| r.mem.iommu.requests.get(),
            "count",
        ),
        ("tlb.iommu.walks", |r| r.mem.iommu.walks.get(), "count"),
        (
            "tlb.iommu.serialization_cycles",
            |r| r.mem.iommu.serialization_cycles.get(),
            "cycles",
        ),
        ("tlb.pwc.hits", |r| r.mem.pwc.hits.get(), "count"),
        (
            "tlb.pwc.misses",
            |r| r.mem.pwc.lookups.get() - r.mem.pwc.hits.get(),
            "count",
        ),
        ("cache.l1.hits", |r| r.mem.l1.hits.get(), "count"),
        ("cache.l1.misses", |r| r.mem.l1.misses.get(), "count"),
        ("cache.l2.hits", |r| r.mem.l2.hits.get(), "count"),
        ("cache.l2.misses", |r| r.mem.l2.misses.get(), "count"),
        ("soc.dram.reads", |r| r.mem.dram_reads, "count"),
        ("soc.dram.writes", |r| r.mem.dram_writes, "count"),
    ];
    for (name, f, unit) in per_design {
        for d in Design::ALL {
            push(format!("{name}.{}", d.name()), kernel_sum(d, f), unit);
        }
    }
    let tlb = &pool.tlb;
    push(
        "tlb.lookup_ns".into(),
        per_line(tlb.lookup_s, tlb.lookups as f64),
        "ns",
    );
    push(
        "tlb.iommu_translate_ns".into(),
        per_line(tlb.translate_s, tlb.misses as f64),
        "ns",
    );
    let c = &pool.cache;
    push(
        "cache.l1_lookup_ns".into(),
        per_line(c.l1_s, c.l1_lookups as f64),
        "ns",
    );
    push(
        "cache.l2_lookup_ns".into(),
        per_line(c.l2_s, c.l1_misses as f64),
        "ns",
    );

    type Stat = fn(&ServiceReport) -> f64;
    let service = |d: Design, f: Stat| -> f64 {
        reports
            .iter()
            .filter(|c| c.0.design == d)
            .map(|c| match &c.2 {
                Report::Service(r) => f(r),
                Report::Kernel(_) => 0.0,
            })
            .sum()
    };
    let service_stats: [(&str, Stat, &str); 5] = [
        ("gpu.service.accesses", |r| r.accesses as f64, "count"),
        ("gpu.service.sim_cycles", |r| r.cycles as f64, "cycles"),
        (
            "gpu.service.context_switches",
            |r| r.context_switches as f64,
            "count",
        ),
        ("gpu.service.evictions", |r| r.evictions as f64, "count"),
        ("gpu.service.p99_stall_cycles", |r| r.p99_stall, "cycles"),
    ];
    for (name, f, unit) in service_stats {
        for d in Design::ALL {
            push(format!("{name}.{}", d.name()), service(d, f), unit);
        }
    }
    push(
        "gpu.service.run_ns_per_line".into(),
        per_line(sum2(pool.service_s), lines2(pool.service_lines)),
        "ns",
    );
    let traced = per_line(
        sum2(pool.traced_s) + sum2(pool.service_s),
        lines2(pool.traced_lines) + lines2(pool.service_lines),
    );
    let untraced = per_line(sum2(pool.untraced_s), lines2(pool.untraced_lines));
    push(
        "bench.trace_overhead_ns_per_line".into(),
        traced - untraced,
        "ns",
    );
    m
}

/// Prints the fingerprints of one repetition at `seed`, as entries of
/// the table in `pinned.rs`.
fn print_pins(bench: Bench, seed: u64) {
    let mut gate = Gate::new(None);
    let Some(rep) = run_rep(bench, Scale::paper(), seed, false, &mut gate) else {
        std::process::exit(1);
    };
    for (cell, _, report) in rep {
        println!(
            "    (\"{}\", \"{}\", &{:?}),",
            bench.name(),
            cell.name(),
            report.fingerprint()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |v: &Value, k: &str| match v {
            Value::Map(entries) => entries.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone()),
            _ => None,
        };
        let text_of = |v: Option<Value>| match v {
            Some(Value::Str(s)) => s,
            other => panic!("expected a string, got {other:?}"),
        };
        match field(&doc, key) {
            Some(Value::Seq(items)) => items
                .iter()
                .map(|m| (text_of(field(m, "name")), text_of(field(m, "unit"))))
                .collect(),
            other => panic!("{key}: expected a list, got {other:?}"),
        }
    }

    /// Checks that `out` holds exactly the `expected` metrics, each
    /// finite and with its declared unit, and prints as valid JSON.
    fn assert_complete(bench: Bench, out: &Outcome, expected: &[(String, String)]) {
        assert!(out.correct(), "{}: {out:?}", bench.name());
        let got: Vec<(String, String)> = out
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        assert_eq!(got, expected, "{}", bench.name());
        for m in &out.metrics {
            assert!(
                m.value.is_finite(),
                "{}: {} = {}",
                bench.name(),
                m.name,
                m.value
            );
        }
        let line: Value = serde_json::from_str(&out.to_json()).expect("output line parses");
        assert!(matches!(line, Value::Map(ref e) if e.len() == 4));
    }

    fn metric(out: &Outcome, name: &str) -> f64 {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    }

    #[test]
    fn every_declared_metric_is_printed_finite_with_its_unit() {
        let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
        for bench in Bench::ALL {
            let out = measure(bench, Scale::test(), 3, Duration::ZERO, Gate::new(None));
            assert_eq!(out.samples, 1);
            assert_complete(bench, &out, &e2e);
            let out = measure_traced(bench, Scale::test(), 3, Duration::ZERO, Gate::new(None));
            assert_complete(bench, &out, &layers);
        }
    }

    #[test]
    fn a_perturbed_pinned_fingerprint_is_a_failed_operation() {
        let bench = Bench::Tenants;
        let mut gate = Gate::new(None);
        let rep = run_rep(bench, Scale::test(), 42, false, &mut gate).expect("passes unpinned");
        let truth: HashMap<String, Vec<f64>> = rep
            .iter()
            .map(|(cell, _, report)| (cell.name(), report.fingerprint()))
            .collect();
        let mut gate = Gate::new(Some(truth.clone()));
        assert!(run_rep(bench, Scale::test(), 42, false, &mut gate).is_some());
        assert_eq!((gate.attempted, gate.failed), (2, 0));

        let cell = bench.cells()[0];
        let width = truth[&cell.name()].len();
        for field in 0..width {
            let mut pins = truth.clone();
            pins.get_mut(&cell.name()).expect("pinned")[field] += 1.0;
            let mut gate = Gate::new(Some(pins));
            assert!(run_rep(bench, Scale::test(), 42, false, &mut gate).is_none());
            assert_eq!((gate.attempted, gate.failed), (2, 1), "field {field}");
        }
        let mut gate = Gate::new(Some(HashMap::new()));
        assert!(run_rep(bench, Scale::test(), 42, false, &mut gate).is_none());
        assert_eq!(gate.failed, 2, "a cell without a pin fails");
    }

    #[test]
    fn run_time_is_generation_plus_self() {
        let out = measure_traced(
            Bench::Stencil,
            Scale::test(),
            42,
            Duration::ZERO,
            Gate::new(None),
        );
        let run = metric(&out, "gpu.run_ns_per_line");
        let split =
            metric(&out, "workloads.gen_ns_per_line") + metric(&out, "gpu.self_ns_per_line");
        assert!(run > 0.0);
        assert!((run - split).abs() <= 1e-9 * run, "{run} != {split}");
    }

    #[test]
    fn flags_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload stencil --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.bench, a.seed, a.seconds, a.trace),
            (Bench::Stencil, 7, 3, true)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload stencil --trace 2",
            "--seed 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
