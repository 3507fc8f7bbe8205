//! Simulated fingerprints of every cell at paper scale and the default
//! seed (42), in the field order of `Report::fingerprint`. Regenerate an
//! entry with `--print-pins` only when a change is meant to alter the
//! simulated result.

use std::collections::HashMap;

const PINNED: &[(&str, &str, &[f64])] = &[
    (
        "divergent",
        "bfs.baseline_512",
        &[
            596376.0, 934147.0, 330091.0, 2309.0, 394225.0, 600609.0, 38687.0,
        ],
    ),
    (
        "divergent",
        "bfs.vc_with_opt",
        &[
            152275.0, 934147.0, 38739.0, 704.0, 393437.0, 600169.0, 38739.0,
        ],
    ),
    (
        "divergent",
        "pagerank.baseline_512",
        &[
            711177.0, 672486.0, 197484.0, 448.0, 151738.0, 506392.0, 14300.0,
        ],
    ),
    (
        "divergent",
        "pagerank.vc_with_opt",
        &[
            142577.0, 672486.0, 14300.0, 448.0, 150938.0, 507155.0, 14300.0,
        ],
    ),
    (
        "stencil",
        "hotspot.baseline_512",
        &[87290.0, 122400.0, 36864.0, 2304.0, 33035.0, 612.0, 73536.0],
    ),
    (
        "stencil",
        "hotspot.vc_with_opt",
        &[80469.0, 122400.0, 73536.0, 768.0, 26589.0, 289.0, 73536.0],
    ),
    (
        "tenants",
        "service.baseline_512",
        &[1039354.0, 655360.0, 82.0, 1279.0, 526.0],
    ),
    (
        "tenants",
        "service.vc_with_opt",
        &[1039268.0, 655360.0, 82.0, 1279.0, 416.0],
    ),
];

/// The pinned fingerprints of workload `bench`, by cell name.
pub fn for_bench(bench: &str) -> HashMap<String, Vec<f64>> {
    PINNED
        .iter()
        .filter(|(b, _, _)| *b == bench)
        .map(|(_, cell, fp)| (cell.to_string(), fp.to_vec()))
        .collect()
}
