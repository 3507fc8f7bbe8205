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
use crate::graphs::Graph;
use crate::streamed_wave;
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
/// wave streams the ops [`gather_wave`] lists, one per pull, from the
/// spec and active list frozen here.
pub fn gather_kernel(name: String, asid: Asid, spec: GatherSpec, active: Vec<u32>) -> Kernel {
    let lanes = LANES as usize;
    let waves = active.len().div_ceil(lanes);
    let frozen = Arc::new((spec, active));
    let mut b = Kernel::builder(name, asid);
    for w in 0..waves {
        let frozen = Arc::clone(&frozen);
        let mut cursor = WalkCursor::default();
        b = b.lazy_wave(streamed_wave(move |_| {
            let (spec, active) = &*frozen;
            let chunk = &active[w * lanes..((w + 1) * lanes).min(active.len())];
            gather_op(spec, chunk, &mut cursor)
        }));
    }
    b.build()
}

/// Builds the op list of one gather wave over `chunk` (at most
/// [`LANES`] active vertices): the ops its streamed wave yields.
pub fn gather_wave(spec: &GatherSpec, chunk: &[u32]) -> Vec<WaveOp> {
    let mut cursor = WalkCursor::default();
    std::iter::from_fn(|| gather_op(spec, chunk, &mut cursor)).collect()
}

/// The next op of the gather wave over `chunk` at `cursor`, or `None`
/// after its last. The wave's ops are, in order:
///
/// * a read of each `vertex_reads` array, then of the CSR offsets;
/// * per edge round (at most `max_rounds`), over the walking lanes: the
///   targets read, each edge-stream read, each gather read, the scatter
///   write (skipped when no lane hits), and every `compute_every`-th
///   round an ALU op;
/// * a write of each `vertex_writes` array, then `compute(4)`.
fn gather_op(spec: &GatherSpec, chunk: &[u32], cursor: &mut WalkCursor) -> Option<WaveOp> {
    let g = &spec.graph;
    let (n_streams, n_gathers) = (spec.edge_streams.len(), spec.gather.len());
    let per_vertex =
        |arr: &DevArray| -> Vec<_> { chunk.iter().map(|&v| arr.addr(v as u64)).collect() };
    loop {
        let (part, step) = cursor.advance();
        let round = &cursor.round;
        match part {
            Part::Head => {
                if let Some(arr) = spec.vertex_reads.get(step) {
                    return Some(WaveOp::read(per_vertex(arr)));
                }
                cursor.start_round(g, chunk.iter().copied(), 0, spec.max_rounds);
                // CSR offsets (two loads in real code: off[v] and
                // off[v+1]; they share lines, one read models both).
                return Some(WaveOp::read(per_vertex(&spec.offsets)));
            }
            Part::Round => match step {
                0 => return Some(WaveOp::read(round.edge_addrs(spec.targets))),
                s if s <= n_streams => {
                    return Some(WaveOp::read(round.edge_addrs(spec.edge_streams[s - 1])))
                }
                s if s <= n_streams + n_gathers => {
                    let ga = spec.gather[s - 1 - n_streams];
                    return Some(WaveOp::read(
                        round.neighbors(g).map(|t| ga.addr(t as u64)).collect(),
                    ));
                }
                s if s == n_streams + n_gathers + 1 => {
                    if let Some(sc) = &spec.scatter {
                        let writes: Vec<_> = round
                            .neighbors(g)
                            .filter(|&t| sc.hit[t as usize])
                            .map(|t| sc.array.addr(t as u64))
                            .collect();
                        if !writes.is_empty() {
                            return Some(WaveOp::write(writes));
                        }
                    }
                }
                s if s == n_streams + n_gathers + 2 => {
                    let every = spec.compute_every;
                    if every > 0 && (round.r + 1).is_multiple_of(every) {
                        return Some(WaveOp::compute(8));
                    }
                }
                _ => {
                    let next = round.r + 1;
                    cursor.start_round(g, chunk.iter().copied(), next, spec.max_rounds);
                }
            },
            Part::Tail => {
                return match spec.vertex_writes.get(step) {
                    Some(arr) => Some(WaveOp::write(per_vertex(arr))),
                    None if step == spec.vertex_writes.len() => Some(WaveOp::compute(4)),
                    None => None,
                };
            }
        }
    }
}

/// Which part of a neighbor-walking wave the next pull builds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Part {
    /// Ops before the first edge round.
    #[default]
    Head,
    /// The edge round in [`WalkCursor::round`].
    Round,
    /// Ops after the last edge round.
    Tail,
}

/// One edge round of a neighbor walk: in round `r`, each of the wave's
/// vertices with degree above `r` reads its `r`-th edge. The lanes are
/// held inline, so a started wave owns no heap block of its own.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EdgeRound {
    /// The round number.
    pub(crate) r: u32,
    /// The edge each walking lane reads; the first `lanes` are live.
    edges: [u32; LANES as usize],
    lanes: usize,
}

impl EdgeRound {
    /// Round `r` over `vertices` (at most [`LANES`]).
    fn new(g: &Graph, vertices: impl Iterator<Item = u32>, r: u32) -> Self {
        let mut round = EdgeRound {
            r,
            ..EdgeRound::default()
        };
        for v in vertices {
            if r < g.degree(v) {
                round.edges[round.lanes] = g.offsets[v as usize] + r;
                round.lanes += 1;
            }
        }
        round
    }

    /// The address in `arr`, indexed by edge, of each walking lane.
    pub(crate) fn edge_addrs(&self, arr: DevArray) -> Vec<VAddr> {
        self.edges[..self.lanes]
            .iter()
            .map(|&e| arr.addr(e as u64))
            .collect()
    }

    /// The neighbor each walking lane reaches.
    pub(crate) fn neighbors<'a>(&'a self, g: &'a Graph) -> impl Iterator<Item = u32> + 'a {
        self.edges[..self.lanes]
            .iter()
            .map(|&e| g.targets[e as usize])
    }
}

/// The position and round scratch of a wave that walks its vertices'
/// edge lists round by round (gather and BFS sweep waves).
#[derive(Debug, Default)]
pub(crate) struct WalkCursor {
    part: Part,
    /// Index of the next op within `part` (within the round, for
    /// [`Part::Round`]).
    step: usize,
    /// The current edge round's lanes.
    pub(crate) round: EdgeRound,
}

impl WalkCursor {
    /// The part and step of the op to build next; moves past it.
    pub(crate) fn advance(&mut self) -> (Part, usize) {
        let step = self.step;
        self.step += 1;
        (self.part, step)
    }

    /// Moves to edge round `r` over `vertices`, or to the tail when `r`
    /// reaches `cap` or none of them has degree above `r`.
    pub(crate) fn start_round(
        &mut self,
        g: &Graph,
        vertices: impl Iterator<Item = u32>,
        r: u32,
        cap: u32,
    ) {
        self.round = if r < cap {
            EdgeRound::new(g, vertices, r)
        } else {
            EdgeRound::default()
        };
        self.part = if self.round.lanes == 0 {
            Part::Tail
        } else {
            Part::Round
        };
        self.step = 0;
    }

    /// Moves to the tail, skipping the edge rounds.
    pub(crate) fn skip_to_tail(&mut self) {
        self.part = Part::Tail;
        self.step = 0;
    }
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
