//! `mis` — maximal independent set (Pannotia).
//!
//! Luby's algorithm: every round, live vertices gather their live
//! neighbors' random priorities; local maxima join the set and knock
//! their neighbors out with scattered status writes. The scattered
//! writes on top of the gathers make `mis` one of the paper's most
//! translation-hungry workloads.

use crate::arrays::DevArray;
use crate::gather::{gather_kernel, hash_u32, GatherSpec, Scatter};
use crate::graphs::Graph;
use crate::{Scale, Workload};
use gvc_gpu::kernel::{Kernel, KernelSource};
use gvc_mem::{Asid, OsLite};

const MAX_ROUNDS: usize = 12;

#[derive(Clone, Copy, PartialEq)]
enum State {
    Live,
    InSet,
    Removed,
}

struct MisSource {
    asid: Asid,
    spec: GatherSpec,
    prio_arr: DevArray,
    status_arr: DevArray,
    prio: Vec<u32>,
    state: Vec<State>,
    round: usize,
}

impl MisSource {
    fn advance(&mut self) -> (Vec<u32>, Vec<bool>) {
        let g = self.spec.graph.clone();
        let active: Vec<u32> = (0..g.n)
            .filter(|&v| self.state[v as usize] == State::Live)
            .collect();
        let mut joined = Vec::new();
        for &v in &active {
            let mut is_max = true;
            for &t in g.neighbors(v) {
                if t != v
                    && self.state[t as usize] == State::Live
                    && self.prio[t as usize] >= self.prio[v as usize]
                {
                    is_max = false;
                    break;
                }
            }
            if is_max {
                joined.push(v);
            }
        }
        // Mark winners and knock out their neighbors; remember which
        // vertices got removed this round (they receive the scattered
        // writes).
        let mut removed_now = vec![false; g.n as usize];
        for &v in &joined {
            self.state[v as usize] = State::InSet;
        }
        for &v in &joined {
            for &t in g.neighbors(v) {
                if self.state[t as usize] == State::Live {
                    self.state[t as usize] = State::Removed;
                    removed_now[t as usize] = true;
                }
            }
        }
        (active, removed_now)
    }
}

impl KernelSource for MisSource {
    fn name(&self) -> &str {
        "mis"
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        if self.round >= MAX_ROUNDS || self.state.iter().all(|&s| s != State::Live) {
            return None;
        }
        let (active, removed_now) = self.advance();
        if active.is_empty() {
            return None;
        }
        self.round += 1;
        let mut spec = self.spec.clone();
        spec.vertex_reads = vec![self.prio_arr, self.status_arr];
        spec.gather = vec![self.prio_arr];
        spec.vertex_writes = vec![self.status_arr];
        spec.scatter = Some(Scatter {
            array: self.status_arr,
            hit: removed_now,
        });
        let name = format!("mis_round{}", self.round);
        Some(gather_kernel(name, self.asid, spec, active))
    }
}

/// Builds the workload.
pub fn build(scale: Scale, seed: u64, thp: bool) -> Workload {
    let n = scale.apply(32 * 1024, 2048) as u32;
    let graph = Graph::power_law_shared(n, 8, seed);
    let mut os = OsLite::new(512 << 20);
    os.set_huge_alignment(thp);
    let pid = os.create_process();
    let offsets = DevArray::alloc(&mut os, pid, n as u64 + 1, 4);
    let targets = DevArray::alloc(&mut os, pid, graph.edges(), 4);
    let prio_arr = DevArray::alloc(&mut os, pid, n as u64, 4);
    let status_arr = DevArray::alloc(&mut os, pid, n as u64, 4);
    let prio: Vec<u32> = (0..n)
        .map(|v| hash_u32(v, (seed as u32) ^ 0x4D15))
        .collect();
    let mut spec = GatherSpec::new(graph, offsets, targets);
    spec.max_rounds = 16;
    Workload {
        os,
        source: Box::new(MisSource {
            asid: pid.asid(),
            spec,
            prio_arr,
            status_arr,
            prio,
            state: vec![State::Live; n as usize],
            round: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminates_with_scattered_writes() {
        let mut w = build(Scale::test(), 4, false);
        let mut rounds = 0;
        let mut scattered = 0usize;
        while let Some(k) = w.source.next_kernel() {
            rounds += 1;
            for wave in k.waves {
                scattered += wave
                    .filter(|op| matches!(op, gvc_gpu::kernel::WaveOp::Write(_)))
                    .count();
            }
            assert!(rounds <= MAX_ROUNDS);
        }
        assert!(rounds >= 2);
        assert!(scattered > 0, "knockout writes must appear");
    }
}
