//! Op-stream pins: every workload's exact kernel and wave-op stream.
//!
//! `tests/tests/golden.rs` pins whole figures, so it sees a change to
//! a workload's ops only through simulated cycles and cannot say which
//! workload drifted. This test hashes the stream itself — every kernel
//! name, wave count and op, in order — at `Scale::test()`, seed 42, and
//! names the workload whose stream changed.
//!
//! A deliberate change to a workload's access pattern updates its pin;
//! the failure message prints the new value.

use gvc_gpu::WaveOp;
use gvc_workloads::{Scale, WorkloadId};

/// FNV-1a over explicit little-endian bytes: stable across Rust
/// releases and platforms, unlike `std`'s `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// Hashes the full op stream of `id` and counts its ops. With
/// `last_wave_first`, each kernel's waves are pulled last to first
/// (and hashed in kernel order), as a scheduler free to start any
/// wave first might.
fn stream_pin(id: WorkloadId, last_wave_first: bool) -> (u64, u64) {
    let mut w = gvc_workloads::build(id, Scale::test(), 42);
    let mut h = Fnv::new();
    let mut ops = 0u64;
    while let Some(kernel) = w.source.next_kernel() {
        h.bytes(kernel.name.as_bytes());
        h.u64(kernel.waves.len() as u64);
        let waves: Vec<Vec<WaveOp>> = if last_wave_first {
            let mut waves: Vec<_> = kernel
                .waves
                .into_iter()
                .rev()
                .map(Iterator::collect)
                .collect();
            waves.reverse();
            waves
        } else {
            kernel.waves.into_iter().map(Iterator::collect).collect()
        };
        for wave in waves {
            for op in wave {
                ops += 1;
                let is_write = matches!(op, WaveOp::Write(_));
                match op {
                    WaveOp::Read(addrs) | WaveOp::Write(addrs) => {
                        h.u64(if is_write { 2 } else { 1 });
                        h.u64(addrs.len() as u64);
                        for a in addrs {
                            h.u64(a.raw());
                        }
                    }
                    WaveOp::Scratch(n) => {
                        h.u64(3);
                        h.u64(n as u64);
                    }
                    WaveOp::Compute(c) => {
                        h.u64(4);
                        h.u64(c as u64);
                    }
                }
            }
            // Wave boundaries are part of the stream: a kernel whose
            // ops moved between waves must not hash the same.
            h.u64(u64::MAX);
        }
    }
    (h.0, ops)
}

/// `(workload, stream hash, op count)` at `Scale::test()`, seed 42.
const PINS: [(WorkloadId, u64, u64); 15] = [
    (WorkloadId::Bc, 0x0465_8603_0d17_da91, 5852),
    (WorkloadId::ColorMaxmin, 0x015e_1a7c_de35_49b7, 12346),
    (WorkloadId::ColorMax, 0x5a75_43ba_61d2_b29a, 16069),
    (WorkloadId::Fw, 0x2a91_fdd8_9f47_30d1, 80),
    (WorkloadId::FwBlock, 0xfb59_a52a_a8b3_6209, 24),
    (WorkloadId::Mis, 0xdb32_4715_b2d5_56dc, 5366),
    (WorkloadId::Pagerank, 0x0ee2_9765_2e46_d2bf, 4228),
    (WorkloadId::PagerankSpmv, 0xe777_f49b_0026_3a61, 5898),
    (WorkloadId::Kmeans, 0xc912_5699_f5af_ee3d, 2220),
    (WorkloadId::Backprop, 0xbc6f_e430_7930_5501, 1280),
    (WorkloadId::Bfs, 0x7f4a_4e8a_326c_022a, 15486),
    (WorkloadId::Hotspot, 0xcfda_31cc_eeaf_52a6, 5076),
    (WorkloadId::Lud, 0x3195_6aae_bb39_d9d2, 55),
    (WorkloadId::Nw, 0xd713_78a4_5642_aca0, 384),
    (WorkloadId::Pathfinder, 0x40f1_2021_d2da_b0e4, 144),
];

#[test]
fn every_workload_op_stream_matches_its_pin() {
    assert_eq!(
        PINS.map(|(id, _, _)| id),
        WorkloadId::all(),
        "one pin per workload, in registry order"
    );
    let drifted: Vec<String> = PINS
        .iter()
        .filter_map(|&(id, hash, ops)| {
            let got = stream_pin(id, false);
            (got != (hash, ops)).then(|| {
                format!(
                    "{id}: pinned ({hash:#018x}, {ops}), got ({:#018x}, {})",
                    got.0, got.1
                )
            })
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "op streams drifted:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn op_streams_do_not_depend_on_wave_pull_order() {
    for id in WorkloadId::all() {
        assert_eq!(
            stream_pin(id, true),
            stream_pin(id, false),
            "{id}: a wave's ops depend on which waves were pulled before it"
        );
    }
}
