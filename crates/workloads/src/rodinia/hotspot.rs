//! `hotspot` — thermal simulation stencil (Rodinia).
//!
//! A 5-point stencil over a 2-D grid: three coalesced row reads, a
//! power-grid read, and a coalesced write per wave. Near-perfect
//! spatial locality; low translation demand.

use crate::arrays::DevArray;
use crate::{streamed_wave, Scale, Workload};
use gvc_gpu::kernel::{Kernel, KernelSource, WaveOp};
use gvc_mem::{Asid, OsLite, VAddr};

const ITERATIONS: u64 = 3;

struct HotspotSource {
    asid: Asid,
    temp_a: DevArray,
    temp_b: DevArray,
    power: DevArray,
    dim: u64,
    iter: u64,
}

/// Lane addresses of the 32-column block at `(r, c0)` of a `dim`-wide
/// grid.
fn row(arr: DevArray, dim: u64, r: u64, c0: u64) -> Vec<VAddr> {
    (c0..(c0 + 32).min(dim))
        .map(|c| arr.addr(r * dim + c))
        .collect()
}

impl KernelSource for HotspotSource {
    fn name(&self) -> &str {
        "hotspot"
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        if self.iter >= ITERATIONS {
            return None;
        }
        let (src, dst) = if self.iter.is_multiple_of(2) {
            (self.temp_a, self.temp_b)
        } else {
            (self.temp_b, self.temp_a)
        };
        self.iter += 1;
        let (power, dim) = (self.power, self.dim);
        let mut b = Kernel::builder(format!("hotspot_iter{}", self.iter), self.asid);
        for r in 1..dim - 1 {
            for c0 in (0..dim).step_by(32) {
                b = b.lazy_wave(streamed_wave(move |i| {
                    Some(match i {
                        // Rows r - 1, r and r + 1 of the source grid.
                        0..=2 => WaveOp::read(row(src, dim, r + i as u64 - 1, c0)),
                        3 => WaveOp::read(row(power, dim, r, c0)),
                        4 => WaveOp::compute(24),
                        5 => WaveOp::write(row(dst, dim, r, c0)),
                        _ => return None,
                    })
                }));
            }
        }
        Some(b.build())
    }
}

/// Builds the workload.
pub fn build(scale: Scale, _seed: u64, thp: bool) -> Workload {
    let dim = (scale.apply(512, 96) & !31).max(96);
    let mut os = OsLite::new(512 << 20);
    os.set_huge_alignment(thp);
    let pid = os.create_process();
    let temp_a = DevArray::alloc(&mut os, pid, dim * dim, 4);
    let temp_b = DevArray::alloc(&mut os, pid, dim * dim, 4);
    let power = DevArray::alloc(&mut os, pid, dim * dim, 4);
    Workload {
        os,
        source: Box::new(HotspotSource {
            asid: pid.asid(),
            temp_a,
            temp_b,
            power,
            dim,
            iter: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_shape() {
        let mut w = build(Scale::test(), 0, false);
        let k = w.source.next_kernel().unwrap();
        // 96x96 grid: (dim-2) rows x dim/32 col blocks.
        assert_eq!(k.waves.len(), 94 * 3);
        let mut kernels = 1;
        while w.source.next_kernel().is_some() {
            kernels += 1;
        }
        assert_eq!(kernels, ITERATIONS);
    }
}
