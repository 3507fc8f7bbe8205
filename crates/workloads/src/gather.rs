//! The common neighbor-gather kernel shape shared by the graph
//! workloads.
//!
//! Pannotia's kernels all follow one template: a thread per vertex
//! reads per-vertex metadata (coalesced when vertex ids are
//! consecutive), then walks its edge list — loading edge targets and
//! *gathering* per-neighbor data. Because 32 lanes walk 32 different
//! edge lists into a power-law vertex set, each gather instruction
//! touches many lines on many pages: the memory divergence behind the
//! paper's Observation 2.

use crate::arrays::DevArray;
use crate::deferred_wave;
use crate::graphs::Graph;
use gvc_gpu::kernel::{Kernel, WaveOp};
use gvc_mem::{Asid, VAddr};
use std::sync::Arc;

/// Lanes per wavefront.
pub const LANES: u32 = 32;

/// The arrays a gather kernel touches.
#[derive(Clone)]
pub struct GatherSpec {
    /// The graph being traversed.
    pub graph: Arc<Graph>,
    /// CSR offsets array (one u32 per vertex).
    pub offsets: DevArray,
    /// CSR targets array (one u32 per edge).
    pub targets: DevArray,
    /// Arrays read per edge, indexed by the *neighbor* id (the
    /// divergent gathers: ranks, colors, priorities...).
    pub gather: Vec<DevArray>,
    /// Arrays read per edge, indexed by the edge number (SpMV matrix
    /// values...).
    pub edge_streams: Vec<DevArray>,
    /// Arrays read once per active vertex at wave start.
    pub vertex_reads: Vec<DevArray>,
    /// Arrays written once per active vertex at wave end.
    pub vertex_writes: Vec<DevArray>,
    /// Writes scattered to gathered neighbors (MIS removals...).
    pub scatter: Option<Scatter>,
    /// Cap on edge rounds per wave (truncates extreme hubs to bound
    /// kernel length; the locality effect of hubs is preserved).
    pub max_rounds: u32,
    /// Insert an ALU op every this many edge rounds.
    pub compute_every: u32,
}

/// A write scattered to gathered neighbors: each round writes
/// `array[t]` for every gathered neighbor `t` with `hit[t]` set.
#[derive(Clone)]
pub struct Scatter {
    /// The written array, indexed by neighbor id.
    pub array: DevArray,
    /// Which neighbors receive the write (one flag per vertex).
    pub hit: Vec<bool>,
}

impl GatherSpec {
    /// A minimal spec over `graph` with the given CSR arrays.
    pub fn new(graph: Arc<Graph>, offsets: DevArray, targets: DevArray) -> Self {
        GatherSpec {
            graph,
            offsets,
            targets,
            gather: Vec::new(),
            edge_streams: Vec::new(),
            vertex_reads: Vec::new(),
            vertex_writes: Vec::new(),
            scatter: None,
            max_rounds: 24,
            compute_every: 4,
        }
    }
}

/// One gather kernel over the `active` vertices, 32 per wave. Each
/// wave's ops are built by [`gather_wave`] at the wave's first issue,
/// from the spec and active list frozen here.
pub fn gather_kernel(name: String, asid: Asid, spec: GatherSpec, active: Vec<u32>) -> Kernel {
    let lanes = LANES as usize;
    let waves = active.len().div_ceil(lanes);
    let frozen = Arc::new((spec, active));
    let mut b = Kernel::builder(name, asid);
    for w in 0..waves {
        let frozen = Arc::clone(&frozen);
        b = b.lazy_wave(deferred_wave(move || {
            let (spec, active) = &*frozen;
            let chunk = &active[w * lanes..((w + 1) * lanes).min(active.len())];
            gather_wave(spec, chunk)
        }));
    }
    b.build()
}

/// Builds the op list of one gather wave over `chunk` (at most
/// [`LANES`] active vertices).
pub fn gather_wave(spec: &GatherSpec, chunk: &[u32]) -> Vec<WaveOp> {
    let g = &spec.graph;
    let rounds_cap = chunk
        .iter()
        .map(|&v| g.degree(v))
        .max()
        .unwrap_or(0)
        .min(spec.max_rounds) as usize;
    // Worst case per round: the targets read, every edge stream and
    // gather array, a scatter write, and a periodic compute op.
    let ops_per_round = 2 + spec.edge_streams.len() + spec.gather.len() + 1;
    let mut ops: Vec<WaveOp> = Vec::with_capacity(
        spec.vertex_reads.len() + spec.vertex_writes.len() + 2 + rounds_cap * ops_per_round,
    );
    // Per-vertex metadata reads.
    for arr in &spec.vertex_reads {
        ops.push(WaveOp::read(
            chunk.iter().map(|&v| arr.addr(v as u64)).collect(),
        ));
    }
    // CSR offsets (two loads in real code: off[v] and off[v+1];
    // they share lines, one read models both).
    ops.push(WaveOp::read(
        chunk.iter().map(|&v| spec.offsets.addr(v as u64)).collect(),
    ));

    let rounds = rounds_cap as u32;
    for r in 0..rounds {
        let mut tgt_addrs: Vec<VAddr> = Vec::with_capacity(chunk.len());
        let mut edge_idx: Vec<u64> = Vec::with_capacity(chunk.len());
        let mut neighbors: Vec<u32> = Vec::with_capacity(chunk.len());
        for &v in chunk {
            if r < g.degree(v) {
                let e = g.offsets[v as usize] as u64 + r as u64;
                tgt_addrs.push(spec.targets.addr(e));
                edge_idx.push(e);
                neighbors.push(g.targets[e as usize]);
            }
        }
        if tgt_addrs.is_empty() {
            break;
        }
        ops.push(WaveOp::read(tgt_addrs));
        for es in &spec.edge_streams {
            ops.push(WaveOp::read(edge_idx.iter().map(|&e| es.addr(e)).collect()));
        }
        for ga in &spec.gather {
            ops.push(WaveOp::read(
                neighbors.iter().map(|&t| ga.addr(t as u64)).collect(),
            ));
        }
        if let Some(sc) = &spec.scatter {
            let writes: Vec<VAddr> = neighbors
                .iter()
                .filter(|&&t| sc.hit[t as usize])
                .map(|&t| sc.array.addr(t as u64))
                .collect();
            if !writes.is_empty() {
                ops.push(WaveOp::write(writes));
            }
        }
        if spec.compute_every > 0 && (r + 1) % spec.compute_every == 0 {
            ops.push(WaveOp::compute(8));
        }
    }
    for arr in &spec.vertex_writes {
        ops.push(WaveOp::write(
            chunk.iter().map(|&v| arr.addr(v as u64)).collect(),
        ));
    }
    ops.push(WaveOp::compute(4));
    ops
}

/// A deterministic per-element hash for data-dependent write
/// decisions (keeps workloads reproducible without threading RNGs
/// through kernels).
pub fn hash_u32(x: u32, salt: u32) -> u32 {
    let mut z = (x as u64) << 32 | salt as u64;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvc_mem::OsLite;

    fn setup() -> (OsLite, GatherSpec) {
        let mut os = OsLite::new(64 << 20);
        let pid = os.create_process();
        let graph = Arc::new(Graph::uniform(256, 4, 9));
        let offsets = DevArray::alloc(&mut os, pid, graph.n as u64 + 1, 4);
        let targets = DevArray::alloc(&mut os, pid, graph.edges(), 4);
        let spec = GatherSpec::new(graph, offsets, targets);
        (os, spec)
    }

    #[test]
    fn one_wave_per_32_vertices() {
        let (_os, spec) = setup();
        let active: Vec<u32> = (0..100).collect();
        let k = gather_kernel("k".into(), Asid(0), spec, active);
        assert_eq!(k.waves.len(), 4);
    }

    #[test]
    fn kernel_waves_are_the_per_chunk_waves() {
        let (_os, spec) = setup();
        let active: Vec<u32> = (0..100).collect();
        let k = gather_kernel("k".into(), Asid(0), spec.clone(), active.clone());
        // Pull the waves last-first: a deferred wave's ops must not
        // depend on when, or in which order, the waves are pulled.
        let mut pulled: Vec<Vec<WaveOp>> =
            k.waves.into_iter().rev().map(Iterator::collect).collect();
        pulled.reverse();
        let direct: Vec<Vec<WaveOp>> = active.chunks(32).map(|c| gather_wave(&spec, c)).collect();
        assert_eq!(pulled, direct);
    }

    #[test]
    fn gather_arrays_produce_divergent_reads() {
        let (mut os, mut spec) = setup();
        let pid = gvc_mem::ProcessId(0);
        let ranks = DevArray::alloc(&mut os, pid, spec.graph.n as u64, 8);
        spec.gather.push(ranks);
        let active: Vec<u32> = (0..32).collect();
        let wave = gather_wave(&spec, &active);
        // offsets read + per-round (targets + rank gather) + computes + final.
        let reads = wave
            .iter()
            .filter(|op| matches!(op, WaveOp::Read(_)))
            .count();
        assert!(reads > 2 * 4, "4 rounds of (targets, gather) expected");
    }

    #[test]
    fn rounds_are_capped() {
        let (_os, mut spec) = setup();
        spec.max_rounds = 2;
        let active: Vec<u32> = (0..32).collect();
        let wave = gather_wave(&spec, &active);
        let target_reads = wave
            .iter()
            .filter(|op| matches!(op, WaveOp::Read(_)))
            .count();
        // offsets + at most 2 rounds of targets.
        assert!(target_reads <= 3);
    }

    #[test]
    fn scatter_writes_follow_the_hit_flags() {
        let (mut os, mut spec) = setup();
        let pid = gvc_mem::ProcessId(0);
        let flags = DevArray::alloc(&mut os, pid, spec.graph.n as u64, 4);
        let active: Vec<u32> = (0..64).collect();
        let writes = |spec: &GatherSpec| {
            active
                .chunks(32)
                .flat_map(|c| gather_wave(spec, c))
                .filter(|o| matches!(o, WaveOp::Write(_)))
                .count()
        };
        let n = spec.graph.n as usize;
        spec.scatter = Some(Scatter {
            array: flags,
            hit: vec![true; n],
        });
        assert!(writes(&spec) > 0);
        spec.scatter = Some(Scatter {
            array: flags,
            hit: vec![false; n],
        });
        assert_eq!(writes(&spec), 0);
    }

    #[test]
    fn hash_is_deterministic_and_spread() {
        assert_eq!(hash_u32(5, 1), hash_u32(5, 1));
        assert_ne!(hash_u32(5, 1), hash_u32(5, 2));
        let low = (0..1000)
            .filter(|&x| hash_u32(x, 0).is_multiple_of(2))
            .count();
        assert!((400..600).contains(&low));
    }
}
