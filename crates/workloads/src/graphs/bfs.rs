//! `bfs` (Rodinia-style level-synchronous breadth-first search).
//!
//! One kernel per BFS level. Like the Rodinia implementation, every
//! level scans the full vertex-mask array (coalesced, cheap) and the
//! frontier vertices expand their edge lists: divergent gathers of
//! neighbor distances and scattered writes for newly discovered
//! vertices. The real traversal runs host-side, so frontier sizes —
//! and therefore each level's burst shape — are data-exact.

use crate::arrays::DevArray;
use crate::gather::{Part, WalkCursor, LANES};
use crate::graphs::Graph;
use crate::{streamed_wave, Scale, Workload};
use gvc_gpu::kernel::{Kernel, KernelSource, WaveOp};
use gvc_mem::{Asid, OsLite};
use std::sync::Arc;

/// Everything a level's waves read, fixed at build: the traversal is
/// host-computed up front, so no level advances shared state.
struct Bfs {
    graph: Arc<Graph>,
    offsets: DevArray,
    targets: DevArray,
    mask: DevArray,
    dist: DevArray,
    level_of: Vec<u32>,
    max_rounds: u32,
}

impl Bfs {
    /// The next op of the wave sweeping vertices `chunk_base..+LANES`
    /// at BFS level `depth`, or `None` after its last. The wave's ops
    /// are, in order: the mask read over the whole chunk; then, if any
    /// vertex of the chunk is in the frontier, the offsets read over
    /// the frontier vertices and, per edge round (at most
    /// `max_rounds`), the targets read, the distance gather, the
    /// discovery writes (skipped when none is new) and every fourth
    /// round an ALU op; last `compute(2)`.
    fn sweep_op(&self, depth: u32, chunk_base: u32, cursor: &mut WalkCursor) -> Option<WaveOp> {
        let g = &self.graph;
        let chunk = chunk_base..(chunk_base + LANES).min(g.n);
        // Frontier membership at this depth is exactly
        // `level_of[v] == depth` — no set needed.
        let frontier = chunk
            .clone()
            .filter(|&v| self.level_of[v as usize] == depth);
        loop {
            let at = cursor.advance();
            let round = &cursor.round;
            match at {
                (Part::Head, 0) => {
                    if frontier.clone().next().is_none() {
                        cursor.skip_to_tail();
                    }
                    return Some(WaveOp::read(
                        chunk.map(|v| self.mask.addr(v as u64)).collect(),
                    ));
                }
                (Part::Head, _) => {
                    let offsets = frontier
                        .clone()
                        .map(|v| self.offsets.addr(v as u64))
                        .collect();
                    cursor.start_round(g, frontier, 0, self.max_rounds);
                    return Some(WaveOp::read(offsets));
                }
                (Part::Round, 0) => return Some(WaveOp::read(round.edge_addrs(self.targets))),
                (Part::Round, 1) => {
                    return Some(WaveOp::read(
                        round
                            .neighbors(g)
                            .map(|t| self.dist.addr(t as u64))
                            .collect(),
                    ))
                }
                (Part::Round, 2) => {
                    // Newly discovered exactly when its level is
                    // depth + 1 (host-computed ground truth).
                    let writes: Vec<_> = round
                        .neighbors(g)
                        .filter(|&t| self.level_of[t as usize] == depth + 1)
                        .map(|t| self.dist.addr(t as u64))
                        .collect();
                    if !writes.is_empty() {
                        return Some(WaveOp::write(writes));
                    }
                }
                (Part::Round, 3) => {
                    if (round.r + 1).is_multiple_of(4) {
                        return Some(WaveOp::compute(6));
                    }
                }
                (Part::Round, _) => {
                    let next = round.r + 1;
                    cursor.start_round(g, frontier.clone(), next, self.max_rounds);
                }
                (Part::Tail, 0) => return Some(WaveOp::compute(2)),
                (Part::Tail, _) => return None,
            }
        }
    }
}

struct BfsSource {
    asid: Asid,
    bfs: Arc<Bfs>,
    levels: usize,
    next_level: usize,
}

impl KernelSource for BfsSource {
    fn name(&self) -> &str {
        "bfs"
    }

    fn next_kernel(&mut self) -> Option<Kernel> {
        if self.next_level >= self.levels {
            return None;
        }
        let depth = self.next_level as u32;
        let mut b = Kernel::builder(format!("bfs_level{depth}"), self.asid);
        // Rodinia-style: sweep all vertices; frontier members expand.
        for chunk_base in (0..self.bfs.graph.n).step_by(LANES as usize) {
            let bfs = Arc::clone(&self.bfs);
            let mut cursor = WalkCursor::default();
            b = b.lazy_wave(streamed_wave(move |_| {
                bfs.sweep_op(depth, chunk_base, &mut cursor)
            }));
        }
        self.next_level += 1;
        Some(b.build())
    }
}

/// Builds the workload.
pub fn build(scale: Scale, seed: u64, thp: bool) -> Workload {
    let n = scale.apply(64 * 1024, 2048) as u32;
    let graph = Graph::power_law_shared(n, 8, seed);
    let mut os = OsLite::new(512 << 20);
    os.set_huge_alignment(thp);
    let pid = os.create_process();
    let offsets = DevArray::alloc(&mut os, pid, n as u64 + 1, 4);
    let targets = DevArray::alloc(&mut os, pid, graph.edges(), 4);
    let mask = DevArray::alloc(&mut os, pid, n as u64, 4);
    let dist = DevArray::alloc(&mut os, pid, n as u64, 4);
    // Root at the biggest hub so the traversal covers most vertices.
    let (level_of, levels) = graph.bfs_levels(0);
    Workload {
        os,
        source: Box::new(BfsSource {
            asid: pid.asid(),
            bfs: Arc::new(Bfs {
                graph,
                offsets,
                targets,
                mask,
                dist,
                level_of,
                max_rounds: 16,
            }),
            levels: levels.len(),
            next_level: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_kernel_per_level() {
        let mut w = build(Scale::test(), 3, false);
        let mut kernels = 0;
        while let Some(k) = w.source.next_kernel() {
            assert!(k.name.starts_with("bfs_level"));
            kernels += 1;
            assert!(kernels < 100, "BFS must terminate");
        }
        assert!(kernels >= 2, "power-law BFS has multiple levels");
    }

    #[test]
    fn discovery_writes_appear() {
        let mut w = build(Scale::test(), 3, false);
        let k = w.source.next_kernel().unwrap();
        let writes: usize = k
            .waves
            .into_iter()
            .flat_map(|p| p.collect::<Vec<_>>())
            .filter(|op| matches!(op, WaveOp::Write(_)))
            .count();
        assert!(writes > 0, "level 0 discovers the hub's neighbors");
    }
}
