//! `fw` and `fw_block` — Floyd–Warshall all-pairs shortest paths
//! (Pannotia).
//!
//! One kernel per pivot `k`: every 32×32 tile of the distance matrix
//! reads its own block (column-strided), the pivot row block
//! (coalesced) and pivot column block (strided), and writes back. The
//! blocked variant stages tiles in the scratchpad and reuses them
//! across a whole pivot *block*, cutting memory traffic by the block
//! factor — which is why `fw_block` stresses translation far less
//! than plain `fw`.

use super::Matrix;
use crate::arrays::DevArray;
use crate::{streamed_wave, Scale, Workload};
use gvc_gpu::kernel::{Kernel, KernelSource, WaveOp};
use gvc_mem::{Asid, OsLite};

/// Pivots per scratchpad-staged block in `fw_block`.
const BLOCK: u64 = 4;

struct FwSource {
    name: &'static str,
    asid: Asid,
    dist: Matrix,
    pivots: u64,
    next_pivot: u64,
    blocked: bool,
}

/// Op `i` of the wave updating tile `(tile_r, tile_c)` for pivot `k`,
/// or `None` past its last op.
fn tile_op(
    dist: Matrix,
    blocked: bool,
    k: u64,
    tile_r: u64,
    tile_c: u64,
    i: u32,
) -> Option<WaveOp> {
    Some(match (i, blocked) {
        // Own tile: strided row gather (32 rows).
        (0, _) => dist.col_read(tile_r, tile_c),
        // Pivot column block dist[i][k] (strided, reused per row).
        (1, _) => dist.col_read(tile_r, k),
        // Pivot row block dist[k][j] (coalesced).
        (2, _) => dist.row_read(k % dist.n, tile_c),
        // Stage in scratchpad and iterate BLOCK pivots there.
        (3, true) => WaveOp::scratch(32 * BLOCK as u32 * 4),
        (4, true) => WaveOp::compute(16 * BLOCK as u32),
        (3, false) => WaveOp::compute(16),
        // Write back (strided, like the read).
        (5, true) | (4, false) => dist.col_write(tile_r, tile_c),
        _ => return None,
    })
}

impl KernelSource for FwSource {
    fn name(&self) -> &str {
        self.name
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        if self.next_pivot >= self.pivots {
            return None;
        }
        let k = self.next_pivot;
        // fw: one sweep per pivot. fw_block: one sweep per BLOCK pivots.
        self.next_pivot += if self.blocked { BLOCK } else { 1 };
        let (dist, blocked) = (self.dist, self.blocked);
        let mut b = Kernel::builder(format!("{}_pivot{k}", self.name), self.asid);
        for tile_r in (0..dist.n).step_by(32) {
            for tile_c in (0..dist.n).step_by(32) {
                b = b.lazy_wave(streamed_wave(move |i| {
                    tile_op(dist, blocked, k, tile_r, tile_c, i)
                }));
            }
        }
        Some(b.build())
    }
}

/// Builds the workload. `blocked` selects `fw_block`.
pub fn build(scale: Scale, _seed: u64, blocked: bool, thp: bool) -> Workload {
    // Row length of 768 * 4 B = 3 KB: a 32-lane column access spans
    // ~24 pages, reproducing fw's extreme per-instruction divergence.
    let n = scale.apply(768, 64) & !31;
    let pivots = scale.apply(12, 4);
    let mut os = OsLite::new(512 << 20);
    os.set_huge_alignment(thp);
    let pid = os.create_process();
    let data = DevArray::alloc(&mut os, pid, n * n, 4);
    Workload {
        os,
        source: Box::new(FwSource {
            name: if blocked { "fw_block" } else { "fw" },
            asid: pid.asid(),
            dist: Matrix { data, n },
            pivots,
            next_pivot: 0,
            blocked,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_count(blocked: bool) -> (u64, u64) {
        let mut w = build(Scale::test(), 0, blocked, false);
        let mut kernels = 0;
        let mut mem_ops = 0u64;
        while let Some(k) = w.source.next_kernel() {
            kernels += 1;
            for wave in k.waves {
                mem_ops += wave
                    .filter(|o| matches!(o, WaveOp::Read(_) | WaveOp::Write(_)))
                    .count() as u64;
            }
        }
        (kernels, mem_ops)
    }

    #[test]
    fn blocked_variant_cuts_memory_traffic() {
        let (k_plain, ops_plain) = kernel_count(false);
        let (k_blocked, ops_blocked) = kernel_count(true);
        assert_eq!(k_plain, BLOCK * k_blocked);
        assert!(
            ops_blocked * 2 < ops_plain,
            "blocking must slash traffic: {ops_blocked} vs {ops_plain}"
        );
    }

    #[test]
    fn tiles_cover_the_matrix() {
        let mut w = build(Scale::test(), 0, false, false);
        let k = w.source.next_kernel().unwrap();
        let n = 64u64; // test scale: 768*0.06=46 -> max(64) & !31 = 64
        assert_eq!(k.waves.len() as u64, (n / 32) * (n / 32));
    }
}
