//! Property tests for the stats `merge()` operations: merging two
//! accumulators must be indistinguishable from accumulating the
//! concatenated sample stream on one accumulator.

use gvc_engine::{
    Cdf, CountCdf, Counter, Cycle, Duration, Histogram, IntervalSampler, RunningStats,
};
use proptest::prelude::*;

fn accumulate(xs: &[f64]) -> RunningStats {
    let mut s = RunningStats::new();
    for &x in xs {
        s.push(x);
    }
    s
}

proptest! {
    #[test]
    fn counter_merge_equals_single_stream(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let mut left = Counter::new();
        left.add(a);
        let mut right = Counter::new();
        right.add(b);
        left.merge(&right);
        prop_assert_eq!(left.get(), a + b);
    }

    #[test]
    fn running_stats_merge_equals_single_stream(
        xs in prop::collection::vec(-1000.0..1000.0f64, 0..64),
        split in 0usize..64,
    ) {
        let split = split.min(xs.len());
        let whole = accumulate(&xs);
        let mut left = accumulate(&xs[..split]);
        let right = accumulate(&xs[split..]);
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!(
            (left.population_std_dev() - whole.population_std_dev()).abs() < 1e-9
        );
        prop_assert_eq!(left.min(), whole.min());
        prop_assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn running_stats_merge_with_empty_is_identity(
        xs in prop::collection::vec(-50.0..50.0f64, 0..32),
    ) {
        let reference = accumulate(&xs);
        let mut with_empty = accumulate(&xs);
        with_empty.merge(&RunningStats::new());
        prop_assert_eq!(with_empty.count(), reference.count());
        prop_assert_eq!(with_empty.mean(), reference.mean());
        prop_assert_eq!(with_empty.population_std_dev(), reference.population_std_dev());

        let mut empty = RunningStats::new();
        empty.merge(&reference);
        prop_assert_eq!(empty.count(), reference.count());
        prop_assert_eq!(empty.mean(), reference.mean());
        prop_assert_eq!(empty.population_std_dev(), reference.population_std_dev());
    }

    #[test]
    fn histogram_merge_equals_single_stream(
        xs in prop::collection::vec(0u64..100_000, 0..64),
        split in 0usize..64,
    ) {
        let split = split.min(xs.len());
        let mut whole = Histogram::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = Histogram::new();
        for &x in &xs[..split] {
            left.record(x);
        }
        let mut right = Histogram::new();
        for &x in &xs[split..] {
            right.record(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert_eq!(left.buckets(), whole.buckets());
        prop_assert_eq!(left.mean(), whole.mean());
    }

    #[test]
    fn interval_sampler_merge_equals_single_stream(
        events in prop::collection::vec((0u64..5_000, 1u64..10), 0..64),
        split in 0usize..64,
    ) {
        let interval = Duration::new(100);
        let split = split.min(events.len());
        let mut whole = IntervalSampler::new(interval);
        for &(at, n) in &events {
            whole.record_n(Cycle::new(at), n);
        }
        let mut left = IntervalSampler::new(interval);
        for &(at, n) in &events[..split] {
            left.record_n(Cycle::new(at), n);
        }
        let mut right = IntervalSampler::new(interval);
        for &(at, n) in &events[split..] {
            right.record_n(Cycle::new(at), n);
        }
        left.merge(&right);
        prop_assert_eq!(left.total(), whole.total());
        let end = Cycle::new(5_000);
        let merged = left.finish(end);
        let reference = whole.finish(end);
        prop_assert_eq!(merged.intervals(), reference.intervals());
        prop_assert_eq!(merged.total(), reference.total());
        prop_assert_eq!(merged.mean_per_interval(), reference.mean_per_interval());
        prop_assert_eq!(merged.std_dev_per_interval(), reference.std_dev_per_interval());
        prop_assert_eq!(merged.max_per_interval(), reference.max_per_interval());
    }

    #[test]
    fn interval_sampler_order_does_not_matter(
        events in prop::collection::vec((0u64..5_000, 1u64..10), 0..64),
    ) {
        // Recording the same events in reverse (i.e. maximally
        // out-of-order) must produce the same summary: each event is
        // bucketed by its own timestamp.
        let interval = Duration::new(100);
        let mut fwd = IntervalSampler::new(interval);
        let mut rev = IntervalSampler::new(interval);
        for &(at, n) in &events {
            fwd.record_n(Cycle::new(at), n);
        }
        for &(at, n) in events.iter().rev() {
            rev.record_n(Cycle::new(at), n);
        }
        let end = Cycle::new(5_000);
        let a = fwd.finish(end);
        let b = rev.finish(end);
        prop_assert_eq!(a.total(), b.total());
        prop_assert_eq!(a.mean_per_interval(), b.mean_per_interval());
        prop_assert_eq!(a.std_dev_per_interval(), b.std_dev_per_interval());
        prop_assert_eq!(a.max_per_interval(), b.max_per_interval());
    }

    #[test]
    fn cdf_merge_equals_single_stream(
        xs in prop::collection::vec(0.0..1000.0f64, 1..64),
        split in 0usize..64,
        q in 0.0..1.0f64,
    ) {
        let split = split.min(xs.len());
        let mut whole = Cdf::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Cdf::new();
        for &x in &xs[..split] {
            left.push(x);
        }
        let mut right = Cdf::new();
        for &x in &xs[split..] {
            right.push(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.len(), whole.len());
        prop_assert_eq!(left.quantile(q), whole.quantile(q));
        prop_assert_eq!(left.fraction_at_or_below(500.0), whole.fraction_at_or_below(500.0));
    }
}

#[test]
fn merging_two_empty_running_stats_is_empty() {
    let mut a = RunningStats::new();
    a.merge(&RunningStats::new());
    assert_eq!(a.count(), 0);
    assert_eq!(a.mean(), 0.0);
    assert_eq!(a.population_std_dev(), 0.0);
    assert_eq!(a.min(), 0.0);
    assert_eq!(a.max(), 0.0);
}

/// The nearest-rank quantiles the service figures read, plus the ends.
const QS: [f64; 5] = [0.0, 0.5, 0.9, 0.99, 1.0];

/// Integer samples with many ties: values from a small range, then
/// occasionally a large one.
fn samples(raw: &[u64]) -> Vec<u64> {
    raw.iter()
        .map(|&r| if r % 16 == 0 { r >> 20 } else { r % 37 })
        .collect()
}

proptest! {
    #[test]
    fn count_cdf_quantile_equals_cdf_quantile(
        raw in prop::collection::vec(any::<u64>(), 1..300),
    ) {
        let xs = samples(&raw);
        let mut exact = CountCdf::new();
        let mut cdf = Cdf::new();
        for &x in &xs {
            exact.push(x);
            cdf.push(x as f64);
        }
        prop_assert_eq!(exact.len(), xs.len() as u64);
        for q in QS {
            prop_assert_eq!(exact.quantile(q).to_bits(), cdf.quantile(q).to_bits(), "q={}", q);
        }
    }

    #[test]
    fn count_cdf_merge_equals_single_stream(
        raw in prop::collection::vec(any::<u64>(), 0..300),
        tenants in 1usize..9,
    ) {
        // Split one stream round-robin over per-tenant builders, as the
        // service loop does, and merge them back.
        let xs = samples(&raw);
        let mut whole = CountCdf::new();
        let mut parts = vec![CountCdf::new(); tenants];
        for (i, &x) in xs.iter().enumerate() {
            whole.push(x);
            parts[i % tenants].push(x);
        }
        let mut merged = CountCdf::new();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(merged.len(), whole.len());
        for q in QS {
            prop_assert_eq!(merged.quantile(q).to_bits(), whole.quantile(q).to_bits(), "q={}", q);
        }
    }
}

#[test]
fn count_cdf_edge_cases_match_cdf() {
    let check = |xs: &[u64]| {
        let mut exact = CountCdf::new();
        let mut cdf = Cdf::new();
        for &x in xs {
            exact.push(x);
            cdf.push(x as f64);
        }
        for q in QS {
            assert_eq!(exact.quantile(q), cdf.quantile(q), "{xs:?} q={q}");
        }
    };
    check(&[]);
    check(&[7]);
    check(&[3, 3, 3, 3]);
    check(&[5, 1, 5, 1, 5]);
    check(&[0, u32::MAX as u64, 1 << 40]);
    let hundred: Vec<u64> = (1..=100).rev().collect();
    check(&hundred);
    assert!(CountCdf::new().is_empty());
    assert_eq!(CountCdf::new().quantile(0.99), 0.0);
}
