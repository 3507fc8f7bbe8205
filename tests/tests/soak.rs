//! End-to-end tests for the long-horizon soak harness: the supervisor
//! recovery contract (kill-and-resume is byte-identical to an
//! uninterrupted run, at any checkpoint cadence and worker count), the
//! graceful-shutdown signal path, and the bounded-memory streaming
//! stats contract over a >1e9-simulated-cycle horizon.
//!
//! The signal latch is process-global, so every test that touches it
//! lives in ONE test function (`signal_truncation_paths`); the other
//! tests never arm or trigger it.

use gvc::SystemConfig;
use gvc_bench::figures::tenants::{self, TenantsSpec};
use gvc_bench::{signals, soak};
use gvc_gpu::{SoakConfig, SoakSim};
use gvc_workloads::Scale;
use soak::{FaultSpec, SoakOutcome, SoakSpec};

fn small_cfg() -> SoakConfig {
    SoakConfig {
        tenants: 2,
        quantum: 256,
        waves_per_kernel: 2,
        accesses_per_wave: 16,
        pages_per_tenant: 8,
        churn_period: 5,
        mean_arrival_gap: 800,
        epoch_cycles: 20_000,
        horizon_epochs: 5,
        ..SoakConfig::default()
    }
}

fn spec(designs: &[&str], dir: Option<String>) -> SoakSpec {
    SoakSpec {
        designs: designs.iter().map(|s| s.to_string()).collect(),
        cfg: small_cfg(),
        paranoid: true,
        state_dir: dir,
        ..SoakSpec::default()
    }
}

fn tmp_dir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("gvc_soak_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_str().expect("utf-8 temp dir").to_string()
}

/// Kill-and-resume across checkpoint cadences AND worker counts: the
/// figure a resumed 4-worker run assembles must be byte-identical to a
/// single-worker run that never stopped.
#[test]
fn kill_resume_is_byte_identical_across_cadences_and_jobs() {
    let designs = ["baseline", "vc", "vc-without-opt", "ideal"];
    let clean_serial = soak::collect(&spec(&designs, None)).expect("clean serial soak");
    assert_eq!(clean_serial.outcome, SoakOutcome::Completed);

    let mut parallel = spec(&designs, None);
    parallel.jobs = 4;
    let clean_parallel = soak::collect(&parallel).expect("clean parallel soak");
    assert_eq!(
        clean_parallel.figure, clean_serial.figure,
        "worker count leaked into the soak figure"
    );

    for cadence in [1u64, 3] {
        let dir = tmp_dir(&format!("cadence{cadence}"));
        let mut drill = spec(&designs, Some(dir.clone()));
        drill.checkpoint_every = cadence;
        drill.kill_after = Some(2);
        drill.jobs = 4;
        let killed = soak::collect(&drill).expect("crash drill");
        assert_eq!(killed.outcome, SoakOutcome::Killed { at_epoch: 2 });
        for d in &designs {
            assert!(
                std::path::Path::new(&soak::checkpoint_path(&dir, d)).exists(),
                "drill must leave a checkpoint for {d}"
            );
        }

        let mut resume = spec(&designs, Some(dir.clone()));
        resume.checkpoint_every = cadence;
        resume.jobs = 4;
        let resumed = soak::collect(&resume).expect("resume");
        assert_eq!(resumed.outcome, SoakOutcome::Completed);
        assert_eq!(
            resumed.figure, clean_serial.figure,
            "kill-and-resume at cadence {cadence} with 4 workers must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Crash and hang recovery: a run whose epochs panic or wedge (and are
/// restored from checkpoints with seeded backoff) ends with the exact
/// report of a fault-free run.
#[test]
fn fault_recovery_is_invisible_in_the_report() {
    let clean = soak::collect(&spec(&["vc"], None)).expect("clean soak");

    let mut crashy = spec(&["vc"], None);
    crashy.fault = Some(FaultSpec {
        epoch: 4,
        kills: 2,
        hang: false,
    });
    crashy.retries = 3;
    let recovered = soak::collect(&crashy).expect("crash recovery");
    assert_eq!(recovered.recoveries, 2);
    assert_eq!(
        recovered.figure, clean.figure,
        "crash recovery must be invisible"
    );

    // A hung epoch: the wall watchdog flags the overrun, the epoch is
    // discarded and re-run from the last checkpoint.
    let mut hung = spec(&["vc"], None);
    hung.fault = Some(FaultSpec {
        epoch: 2,
        kills: 1,
        hang: true,
    });
    // Generous budget: a real (debug-build, paranoid) epoch must fit
    // comfortably, or the retry would be flagged hung as well.
    hung.epoch_wall_ms = Some(2_000);
    let recovered = soak::collect(&hung).expect("hang recovery");
    assert_eq!(recovered.recoveries, 1);
    assert_eq!(
        recovered.figure, clean.figure,
        "hang recovery must be invisible"
    );
}

/// Everything that arms or trips the process-global signal latch, in
/// one function: latch mechanics, soak truncation (final checkpoint +
/// partial report + resume), and the tenants sweep's truncated prefix.
#[test]
fn signal_truncation_paths() {
    signals::reset();
    signals::install();
    assert!(!signals::triggered(), "latch must start clear");
    signals::trigger_for_test();
    assert!(signals::triggered(), "latch must latch");
    signals::reset();

    // A signal before the first epoch boundary: the soak stops at the
    // next boundary with a truncated partial report and a resumable
    // checkpoint on disk.
    let clean = soak::collect(&spec(&["vc"], None)).expect("clean soak");
    let dir = tmp_dir("signal");
    signals::trigger_for_test();
    let cut = soak::collect(&spec(&["vc"], Some(dir.clone()))).expect("truncated soak");
    signals::reset();
    assert_eq!(cut.outcome, SoakOutcome::Truncated);
    let fig = cut.figure.expect("truncated runs still emit a figure");
    assert!(fig.truncated);
    assert_eq!(fig.cells.len(), 1);
    assert!(fig.cells[0].truncated, "the cell itself is flagged");
    assert!(
        fig.cells[0].epochs < small_cfg().horizon_epochs,
        "a cut run reports fewer epochs than the horizon"
    );
    fig.cells[0].check_conservation();
    let ckpt_text = std::fs::read_to_string(soak::checkpoint_path(&dir, "vc"))
        .expect("final checkpoint written on truncation");
    // The serializer would turn NaN/inf into `null`, but the save path
    // guards the value tree first; the bare tokens must never appear.
    // (`inf` itself would collide with the `inflight` field names.)
    assert!(!ckpt_text.contains("NaN") && !ckpt_text.contains("Infinity"));
    // And the file must re-validate as a current-version checkpoint.
    assert!(soak::load_checkpoint(&soak::checkpoint_path(&dir, "vc"))
        .expect("valid checkpoint")
        .is_some());

    // Resuming the truncated run completes it byte-identically.
    let resumed = soak::collect(&spec(&["vc"], Some(dir.clone()))).expect("resume");
    assert_eq!(resumed.outcome, SoakOutcome::Completed);
    assert_eq!(
        resumed.figure, clean.figure,
        "signal-truncate-then-resume must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // The tenants sweep: a signal between cells yields the completed
    // prefix, flagged truncated, cell-for-cell identical to the full
    // sweep.
    let spec2 = TenantsSpec {
        tenant_counts: vec![2, 3],
        quantum: 128,
        designs: vec!["baseline".into(), "vc".into()],
        paranoid: false,
        jobs: 1,
    };
    let full = tenants::collect(&spec2, Scale::test(), 7);
    assert!(!full.truncated);
    assert_eq!(full.cells.len(), 4);
    signals::trigger_for_test();
    let cut = tenants::collect(&spec2, Scale::test(), 7);
    signals::reset();
    assert!(cut.truncated, "latched signal must truncate the sweep");
    assert!(cut.cells.len() < full.cells.len());
    assert_eq!(
        cut.cells[..],
        full.cells[..cut.cells.len()],
        "the truncated sweep is a byte-identical prefix"
    );
}

/// The headline robustness claim: a soak past 1e9 simulated cycles
/// under continuous fault injection, with paranoid sweeps at every
/// epoch boundary, finishing with bounded resident stats and exact
/// sample conservation through ~12 epoch spills.
#[test]
fn billion_cycle_injection_soak_stays_bounded_and_conserves() {
    let cfg = SoakConfig {
        tenants: 3,
        quantum: 512,
        waves_per_kernel: 2,
        accesses_per_wave: 16,
        pages_per_tenant: 8,
        churn_period: 9,
        mean_arrival_gap: 500_000,
        epoch_cycles: 100_000_000,
        horizon_epochs: 12,
        ..SoakConfig::default()
    };
    let sys = SystemConfig::vc_with_opt()
        .with_paranoid()
        .with_inject(gvc::InjectConfig::uniform(2_000, 13));
    let mut sim = SoakSim::new(&cfg, sys);

    // One epoch's worth of resident stats, plus slack for the partial
    // tail interval: the bound must not depend on how far we've run.
    let interval_bound = 2 * (cfg.epoch_cycles / 700 + 2) as usize;
    let mut max_resident_intervals = 0usize;
    while !sim.done() {
        sim.run_epoch(); // paranoid sweep at every boundary
        assert_eq!(
            sim.resident_epoch_samples(),
            0,
            "per-access samples must drain at every epoch boundary"
        );
        max_resident_intervals = max_resident_intervals.max(sim.resident_iommu_rate_intervals());
        // Checkpoints stay valid at every boundary of the long run.
        let ckpt = sim.snapshot();
        assert_eq!(ckpt.epoch, sim.epoch());
    }
    assert!(
        max_resident_intervals <= interval_bound,
        "resident IOMMU intervals grew with the horizon: {max_resident_intervals} > {interval_bound}"
    );

    let report = sim.finish();
    assert!(
        report.cycles >= 1_000_000_000,
        "horizon fell short: {} cycles",
        report.cycles
    );
    assert_eq!(report.epochs, 12);
    assert_eq!(report.epoch_curve.len(), 12, "one curve point per spill");
    assert!(report.accesses > 0);
    let injected = report.injected.as_ref().expect("injection was armed");
    assert!(
        injected.storms + injected.probe_bursts + injected.remaps > 0,
        "a billion-cycle storm must actually inject"
    );
    report.check_conservation();
}

/// 64-bit FNV-1a: a stable, dependency-free content fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Checkpoint guard: the exact bytes of a crash drill's on-disk
/// checkpoint at epoch 3, one per design. The fingerprints were taken
/// before the tag stores became set-contiguous and the miss maps moved
/// to packed keys, so they show that the storage layout behind
/// `CacheSnapshot`, `TlbSnapshot`, `MshrSnapshot` and the in-flight
/// translation maps leaves the checkpoint format unchanged. A
/// deliberate format or behavior change updates them; the failure
/// message prints the new values.
#[test]
fn crash_drill_checkpoint_bytes_are_pinned() {
    const PINNED: [(&str, u64); 2] = [
        ("baseline", 0x8386_9615_9d19_0493),
        ("vc", 0xaf68_34e0_c2a4_f792),
    ];
    let dir = tmp_dir("pinned_ckpt");
    let mut drill = spec(&["baseline", "vc"], Some(dir.clone()));
    drill.kill_after = Some(3);
    let killed = soak::collect(&drill).expect("crash drill");
    assert_eq!(killed.outcome, SoakOutcome::Killed { at_epoch: 3 });
    let got: Vec<(&str, u64)> = PINNED
        .iter()
        .map(|&(design, _)| {
            let path = soak::checkpoint_path(&dir, design);
            let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            (design, fnv1a(&bytes))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        got, PINNED,
        "checkpoint bytes drifted (got on the left, as FNV-1a per design)"
    );
}
