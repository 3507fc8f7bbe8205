//! `color_max` and `color_maxmin` — graph coloring (Pannotia).
//!
//! Jones–Plassmann style: every round, each uncolored vertex gathers
//! the random priorities of its uncolored neighbors; local maxima take
//! the round's color (`maxmin` also colors local minima, converging in
//! about half the rounds at twice the per-round gather traffic). The
//! host runs the real algorithm, so the active set shrinks exactly as
//! the real benchmark's would.

use crate::arrays::DevArray;
use crate::gather::{gather_kernel, hash_u32, GatherSpec};
use crate::graphs::Graph;
use crate::{Scale, Workload};
use gvc_gpu::kernel::{Kernel, KernelSource};
use gvc_mem::{Asid, OsLite};

const MAX_ROUNDS: usize = 12;

struct ColorSource {
    name: &'static str,
    asid: Asid,
    spec: GatherSpec,
    prio_arr: DevArray,
    color_arr: DevArray,
    prio: Vec<u32>,
    colored: Vec<bool>,
    maxmin: bool,
    round: usize,
}

impl ColorSource {
    /// One host-side coloring round; returns the vertices still
    /// uncolored at the round's start.
    fn advance(&mut self) -> Vec<u32> {
        let g = self.spec.graph.clone();
        let active: Vec<u32> = (0..g.n).filter(|&v| !self.colored[v as usize]).collect();
        let mut winners = Vec::new();
        for &v in &active {
            let mut is_max = true;
            let mut is_min = true;
            for &t in g.neighbors(v) {
                if t != v && !self.colored[t as usize] {
                    if self.prio[t as usize] >= self.prio[v as usize] {
                        is_max = false;
                    }
                    if self.prio[t as usize] <= self.prio[v as usize] {
                        is_min = false;
                    }
                }
            }
            if is_max || (self.maxmin && is_min) {
                winners.push(v);
            }
        }
        for v in winners {
            self.colored[v as usize] = true;
        }
        active
    }
}

impl KernelSource for ColorSource {
    fn name(&self) -> &str {
        self.name
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        if self.round >= MAX_ROUNDS || self.colored.iter().all(|&c| c) {
            return None;
        }
        let active = self.advance();
        if active.is_empty() {
            return None;
        }
        self.round += 1;
        let mut spec = self.spec.clone();
        spec.vertex_reads = vec![self.prio_arr];
        spec.gather = vec![self.prio_arr];
        if self.maxmin {
            // maxmin re-reads neighbor priorities for the min scan.
            spec.gather.push(self.prio_arr);
        }
        spec.vertex_writes = vec![self.color_arr];
        let name = format!("{}_round{}", self.name, self.round);
        Some(gather_kernel(name, self.asid, spec, active))
    }
}

/// Builds the workload. `maxmin` selects the two-sided variant.
pub fn build(scale: Scale, seed: u64, maxmin: bool, thp: bool) -> Workload {
    let n = scale.apply(32 * 1024, 2048) as u32;
    let graph = Graph::power_law_shared(n, 8, seed);
    let mut os = OsLite::new(512 << 20);
    os.set_huge_alignment(thp);
    let pid = os.create_process();
    let offsets = DevArray::alloc(&mut os, pid, n as u64 + 1, 4);
    let targets = DevArray::alloc(&mut os, pid, graph.edges(), 4);
    let prio_arr = DevArray::alloc(&mut os, pid, n as u64, 4);
    let color_arr = DevArray::alloc(&mut os, pid, n as u64, 4);
    let prio: Vec<u32> = (0..n).map(|v| hash_u32(v, seed as u32)).collect();
    let mut spec = GatherSpec::new(graph, offsets, targets);
    spec.max_rounds = 16;
    Workload {
        os,
        source: Box::new(ColorSource {
            name: if maxmin { "color_maxmin" } else { "color_max" },
            asid: pid.asid(),
            spec,
            prio_arr,
            color_arr,
            prio,
            colored: vec![false; n as usize],
            maxmin,
            round: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_shrink_the_active_set() {
        let mut w = build(Scale::test(), 2, false, false);
        let mut wave_counts = Vec::new();
        while let Some(k) = w.source.next_kernel() {
            wave_counts.push(k.waves.len());
            assert!(wave_counts.len() <= MAX_ROUNDS);
        }
        assert!(wave_counts.len() >= 2);
        assert!(
            wave_counts.last().unwrap() <= wave_counts.first().unwrap(),
            "active set must shrink: {wave_counts:?}"
        );
    }

    #[test]
    fn maxmin_converges_at_least_as_fast() {
        let rounds = |maxmin| {
            let mut w = build(Scale::test(), 2, maxmin, false);
            let mut c = 0;
            while w.source.next_kernel().is_some() {
                c += 1;
            }
            c
        };
        assert!(rounds(true) <= rounds(false));
    }
}
