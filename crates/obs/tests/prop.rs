//! Property-based tests of the observability primitives: histogram merge
//! algebra, count and sum conservation across snapshot/merge, lossless
//! counter increments under the work-stealing pool, and concurrent sums
//! that equal the sequential one exactly.

use pmstack_obs::{Counter, Histogram, HistogramSnapshot};
use proptest::prelude::*;

/// Shared bucket bounds for the merge properties (strictly increasing).
const BOUNDS: &[f64] = &[0.01, 0.1, 1.0, 10.0];

fn observe_all(values: &[f64]) -> HistogramSnapshot {
    let h = Histogram::new(BOUNDS);
    for &v in values {
        h.observe(v);
    }
    h.snapshot()
}

proptest! {
    /// Merge is commutative and associative: counts and sums agree exactly.
    #[test]
    fn histogram_merge_is_commutative_and_associative(
        a in prop::collection::vec(0.0f64..100.0, 0..50),
        b in prop::collection::vec(0.0f64..100.0, 0..50),
        c in prop::collection::vec(0.0f64..100.0, 0..50),
    ) {
        let (sa, sb, sc) = (observe_all(&a), observe_all(&b), observe_all(&c));

        let ab = sa.merge(&sb).unwrap();
        let ba = sb.merge(&sa).unwrap();
        prop_assert_eq!(&ab.counts, &ba.counts);
        prop_assert_eq!(ab.total, ba.total);
        prop_assert_eq!(ab.sum_nanos, ba.sum_nanos);

        let ab_c = ab.merge(&sc).unwrap();
        let a_bc = sa.merge(&sb.merge(&sc).unwrap()).unwrap();
        prop_assert_eq!(&ab_c.counts, &a_bc.counts);
        prop_assert_eq!(ab_c.total, a_bc.total);
        prop_assert_eq!(ab_c.sum_nanos, a_bc.sum_nanos);
    }

    /// Merging conserves observations: the merged snapshot holds exactly
    /// the union of what the parts observed, bucket by bucket and in its
    /// sum, and the empty snapshot is the identity.
    #[test]
    fn merge_conserves_counts(
        parts in prop::collection::vec(
            prop::collection::vec(0.0f64..100.0, 0..40),
            1..5,
        ),
    ) {
        let snapshots: Vec<HistogramSnapshot> = parts.iter().map(|p| observe_all(p)).collect();
        let mut merged = HistogramSnapshot::empty(BOUNDS);
        for s in &snapshots {
            merged = merged.merge(s).unwrap();
        }
        let all: Vec<f64> = parts.iter().flatten().copied().collect();
        let direct = observe_all(&all);
        prop_assert_eq!(&merged.counts, &direct.counts);
        prop_assert_eq!(merged.total, direct.total);
        prop_assert_eq!(merged.total as usize, all.len());
        prop_assert_eq!(merged.sum_nanos, direct.sum_nanos);
    }

    /// A counter hammered from every pool worker loses no update: the
    /// final value is exactly tasks x increments-per-task.
    #[test]
    fn concurrent_counter_increments_are_lossless(
        tasks in 1usize..64,
        per_task in 1u64..200,
    ) {
        let counter = Counter::default();
        let items: Vec<usize> = (0..tasks).collect();
        // min_workers = 2 forces a real pool (and its steal path) even on
        // a single-hardware-thread host.
        pmstack_exec::par_map_indexed_min_workers(&items, 2, |_, _| {
            for _ in 0..per_task {
                counter.add(1);
            }
        });
        prop_assert_eq!(counter.get(), tasks as u64 * per_task);
    }
}

/// The `i`-th value thread `t` records: spread over every bucket, with
/// fractional nanoseconds so that each observation rounds.
fn value(t: usize, i: usize) -> f64 {
    ((t * 7919 + i * 104_729) % 1_000_003) as f64 * 1.200_000_7e-5
}

/// Thread `t`'s `per_thread` observations and counter adds.
fn record(h: &Histogram, c: &Counter, t: usize, per_thread: usize) {
    for i in 0..per_thread {
        h.observe(value(t, i));
        c.add((value(t, i) * 1e3).round() as u64);
    }
}

/// `threads` std threads each make `per_thread` observations and counter
/// adds on one shared histogram and counter, released together by a
/// barrier so that their adds overlap.
fn record_concurrently(threads: usize, per_thread: usize) -> (HistogramSnapshot, u64) {
    let (h, c) = (Histogram::new(BOUNDS), Counter::new());
    let start = std::sync::Barrier::new(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (h, c, start) = (&h, &c, &start);
            s.spawn(move || {
                start.wait();
                record(h, c, t, per_thread);
            });
        }
    });
    (h.snapshot(), c.get())
}

/// Concurrent observations lose nothing, and their sums are the bits a
/// single thread records, however the adds interleave: every accumulator
/// is an integer.
#[test]
fn concurrent_sums_equal_the_sequential_sum() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 20_000;
    let (h, c) = (Histogram::new(BOUNDS), Counter::new());
    for t in 0..THREADS {
        record(&h, &c, t, PER_THREAD);
    }
    let sequential = (h.snapshot(), c.get());
    let first = record_concurrently(THREADS, PER_THREAD);
    assert_eq!(first.0.total, (THREADS * PER_THREAD) as u64);
    assert_eq!(first.0.counts.iter().sum::<u64>(), first.0.total);
    assert_eq!(first, sequential);
    assert_eq!(record_concurrently(THREADS, PER_THREAD), first);
}
