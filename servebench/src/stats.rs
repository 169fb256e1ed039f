//! The benchmark's own arithmetic: percentiles and the tail choice,
//! failure accounting, span self time, and the max-rate ladder's backlog
//! test. Everything here is pure so the unit tests below can pin it.

/// Percentiles the tail metric may report, highest last.
pub const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples a tail percentile must leave beyond it.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank index of quantile `q` in a sorted sample of `n` values.
#[must_use]
pub fn rank_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "empty sample");
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Samples strictly after the nearest-rank position of `q`.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    n - 1 - rank_index(n, q)
}

/// The highest percentile on [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND_TAIL`] samples beyond it (the median when none does).
#[must_use]
pub fn tail_quantile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n > 0 && beyond(n, q) >= MIN_BEYOND_TAIL)
        .unwrap_or(TAIL_LADDER[0])
}

/// A percentile of an unsorted sample (non-finite values sort last).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank_index(sorted.len(), q)]
}

/// Median and tail of a sample, with the tail's percentile and the number
/// of samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Value at [`Summary::tail_q`].
    pub tail: f64,
    /// Percentile chosen by [`tail_quantile`].
    pub tail_q: f64,
    /// Samples strictly beyond the tail position.
    pub beyond_tail: usize,
}

/// Summarises a non-empty sample.
#[must_use]
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_q = tail_quantile(n);
    Summary {
        n,
        p50: sorted[rank_index(n, 0.5)],
        tail: sorted[rank_index(n, tail_q)],
        tail_q,
        beyond_tail: beyond(n, tail_q),
    }
}

/// Median of a non-empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of a sample (0 for an empty one).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Why requests of one served trace count as failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Failures {
    /// Requests no batch covered.
    pub unserved: usize,
    /// Requests covered by more than one batch.
    pub duplicated: usize,
    /// Requests whose latency is NaN or infinite.
    pub non_finite: usize,
    /// Requests whose prediction disagreed with the CPU reference.
    pub wrong: usize,
}

impl Failures {
    /// Failed requests; a request is counted once even when it fails
    /// several ways, so the total never exceeds `attempted`.
    #[must_use]
    pub fn total(&self, attempted: usize) -> usize {
        (self.unserved + self.duplicated + self.non_finite + self.wrong).min(attempted)
    }

    /// Adds another trace's failures.
    pub fn add(&mut self, other: &Failures) {
        self.unserved += other.unserved;
        self.duplicated += other.duplicated;
        self.non_finite += other.non_finite;
        self.wrong += other.wrong;
    }
}

/// Accounts a served trace of `n_requests`: batch `b` covers the next
/// `sizes[b]` requests in arrival order, and `latencies` holds one entry per
/// served request.
#[must_use]
pub fn serve_failures(n_requests: usize, sizes: &[usize], latencies: &[f64]) -> Failures {
    let mut served = vec![0u32; n_requests];
    let mut next = 0usize;
    let mut duplicated = 0usize;
    for &size in sizes {
        for r in next..next + size {
            match served.get_mut(r) {
                Some(c) => {
                    *c += 1;
                    if *c > 1 {
                        duplicated += 1;
                    }
                }
                // Past the end of the trace: a request served twice.
                None => duplicated += 1,
            }
        }
        next += size;
    }
    Failures {
        unserved: served.iter().filter(|&&c| c == 0).count(),
        duplicated,
        non_finite: latencies.iter().filter(|l| !l.is_finite()).count(),
        wrong: 0,
    }
}

/// Whether a served prediction is not within `tol` of the reference.
#[must_use]
pub fn mismatch(served: f32, reference: f32, tol: f32) -> bool {
    let d = (served - reference).abs();
    d.is_nan() || d >= tol
}

/// Requests whose served prediction is wrong; a missing or extra
/// prediction is wrong too.
#[must_use]
pub fn mismatches(served: &[f32], reference: &[f32], tol: f32) -> usize {
    served.len().abs_diff(reference.len())
        + served
            .iter()
            .zip(reference)
            .filter(|(a, b)| mismatch(**a, **b, tol))
            .count()
}

/// `failed / attempted` (0 when nothing was attempted).
#[must_use]
pub fn failed_frac(failed: usize, attempted: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// A timed interval on one clock (ns).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Start instant.
    pub start: f64,
    /// End instant (`>= start`).
    pub end: f64,
}

impl Span {
    /// Duration of the span.
    #[must_use]
    pub fn len(&self) -> f64 {
        self.end - self.start
    }
}

/// Self time of `parent`: its duration minus the part of its interval that
/// the union of `children` covers. Children may overlap each other or
/// extend past the parent; neither is counted twice or outside the parent,
/// so the result is never negative.
#[must_use]
pub fn self_time(parent: Span, children: &[Span]) -> f64 {
    let mut clipped: Vec<Span> = children
        .iter()
        .map(|c| Span {
            start: c.start.max(parent.start),
            end: c.end.min(parent.end),
        })
        .filter(|c| c.end > c.start)
        .collect();
    clipped.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut covered = 0.0;
    let mut cursor = parent.start;
    for c in clipped {
        let start = c.start.max(cursor);
        if c.end > start {
            covered += c.end - start;
            cursor = c.end;
        }
    }
    (parent.len() - covered).max(0.0)
}

/// Lays child durations end to end from `parent.start` (children replayed
/// outside the parent's interval are placed inside it in call order).
#[must_use]
pub fn sequential_children(parent: Span, durations: &[f64]) -> Vec<Span> {
    let mut t = parent.start;
    durations
        .iter()
        .map(|&d| {
            let s = Span {
                start: t,
                end: t + d,
            };
            t += d;
            s
        })
        .collect()
}

/// Whether a replayed trace's queue grew without bound: the mean queue wait
/// over the last quarter of batches exceeds twice that of the second quarter
/// by more than one mean execution time. A stable queue fluctuates around a
/// level; an overloaded one grows linearly with the trace.
#[must_use]
pub fn backlog_grows(queue_waits: &[f64], exec_times: &[f64]) -> bool {
    let n = queue_waits.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let second = mean(&queue_waits[q..2 * q]);
    let last = mean(&queue_waits[n - q..]);
    last > 2.0 * second + mean(exec_times)
}

/// Outcome of one rung of the max-rate ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rung {
    /// Offered rate (requests/µs).
    pub rate: f64,
    /// Tail latency at that rate (ns).
    pub tail_ns: f64,
    /// Whether the backlog grew.
    pub backlog: bool,
}

impl Rung {
    /// Meets the limit without a growing backlog.
    #[must_use]
    pub fn passes(&self, limit_ns: f64) -> bool {
        self.tail_ns <= limit_ns && !self.backlog
    }
}

/// Highest passing rung of an ascending `ladder`, probing by bisection:
/// `probe(i)` replays rung `i`. Rungs above the first failing rung past the
/// bottom are assumed to fail too (tail latency rises with load once the
/// device saturates). Returns `None` when the bottom rung fails.
pub fn max_passing_rung(
    n_rungs: usize,
    limit_ns: f64,
    mut probe: impl FnMut(usize) -> Rung,
) -> Option<Rung> {
    let bottom = probe(0);
    if !bottom.passes(limit_ns) {
        return None;
    }
    let (mut lo, mut best, mut hi) = (0usize, bottom, n_rungs);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let rung = probe(mid);
        if rung.passes(limit_ns) {
            lo = mid;
            best = rung;
        } else {
            hi = mid;
        }
    }
    Some(best)
}

/// `max / mean − 1` over per-device busy times (0 for one device or an
/// idle cluster).
#[must_use]
pub fn imbalance(busy: &[f64]) -> f64 {
    let m = mean(busy);
    if busy.len() < 2 || m <= 0.0 {
        return 0.0;
    }
    busy.iter().copied().fold(0.0, f64::max) / m - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_choice_leaves_at_least_ten_beyond() {
        // 20 000 samples: p99.9 leaves 20 beyond, p99.99 leaves 2.
        assert_eq!(tail_quantile(20_000), 0.999);
        assert_eq!(beyond(20_000, 0.999), 20);
        // Exactly ten beyond qualifies; nine does not.
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(beyond(1_000, 0.99), 10);
        assert_eq!(tail_quantile(999), 0.9);
        assert_eq!(beyond(999, 0.99), 9);
        // Tiny samples fall back to the median.
        assert_eq!(tail_quantile(5), 0.5);
        assert_eq!(tail_quantile(0), 0.5);
        for n in 1..3_000 {
            let q = tail_quantile(n);
            if q > 0.5 {
                assert!(beyond(n, q) >= MIN_BEYOND_TAIL, "n={n}");
            }
            if let Some(&next) = TAIL_LADDER.iter().find(|&&p| p > q) {
                assert!(beyond(n, next) < MIN_BEYOND_TAIL, "n={n} could use {next}");
            }
        }
    }

    #[test]
    fn summary_reports_the_tail_it_chose() {
        let values: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s.n, 1_000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.beyond_tail, 10);
    }

    #[test]
    fn clean_trace_has_no_failures() {
        let f = serve_failures(10, &[4, 4, 2], &[1.0; 10]);
        assert_eq!(f, Failures::default());
        assert_eq!(f.total(10), 0);
        assert_eq!(failed_frac(f.total(10), 10), 0.0);
    }

    #[test]
    fn injected_unserved_request_fails() {
        // Batches cover only nine of ten requests.
        let f = serve_failures(10, &[4, 5], &[1.0; 9]);
        assert_eq!(f.unserved, 1);
        assert_eq!(failed_frac(f.total(10), 10), 0.1);
    }

    #[test]
    fn injected_duplicate_and_non_finite_fail() {
        let f = serve_failures(4, &[3, 2], &[1.0, f64::NAN, f64::INFINITY, 2.0, 3.0]);
        assert_eq!(f.duplicated, 1);
        assert_eq!(f.non_finite, 2);
        assert_eq!(f.total(4), 3);
    }

    #[test]
    fn injected_mismatch_fails() {
        let reference = [0.5f32, 1.0, -2.0, 3.0];
        let mut served = reference;
        assert_eq!(mismatches(&served, &reference, 1e-3), 0);
        served[2] += 0.01;
        assert_eq!(mismatches(&served, &reference, 1e-3), 1);
        served[0] = f32::NAN;
        assert_eq!(mismatches(&served, &reference, 1e-3), 2);
        // A missing prediction is a mismatch too.
        assert_eq!(mismatches(&served[..3], &reference, 1e-3), 3);
        let mut f = serve_failures(4, &[4], &[1.0; 4]);
        f.wrong = mismatches(&served, &reference, 1e-3);
        assert_eq!(failed_frac(f.total(4), 4), 0.5);
    }

    #[test]
    fn failures_never_exceed_attempted() {
        let f = Failures {
            unserved: 3,
            duplicated: 0,
            non_finite: 3,
            wrong: 3,
        };
        assert_eq!(f.total(4), 4);
    }

    #[test]
    fn self_time_subtracts_covered_part_only() {
        let parent = Span {
            start: 0.0,
            end: 100.0,
        };
        assert_eq!(self_time(parent, &[]), 100.0);
        let kids = [
            Span {
                start: 10.0,
                end: 30.0,
            },
            Span {
                start: 50.0,
                end: 60.0,
            },
        ];
        assert_eq!(self_time(parent, &kids), 70.0);
        // Overlapping children are not subtracted twice.
        let overlap = [
            Span {
                start: 10.0,
                end: 40.0,
            },
            Span {
                start: 20.0,
                end: 50.0,
            },
        ];
        assert_eq!(self_time(parent, &overlap), 60.0);
        // Children past the parent's interval are clipped to it.
        let spill = [
            Span {
                start: -10.0,
                end: 5.0,
            },
            Span {
                start: 90.0,
                end: 150.0,
            },
        ];
        assert_eq!(self_time(parent, &spill), 85.0);
        // Children longer than the parent leave zero, never negative.
        let long = sequential_children(parent, &[60.0, 70.0]);
        assert_eq!(self_time(parent, &long), 0.0);
    }

    #[test]
    fn sequential_children_tile_from_parent_start() {
        let parent = Span {
            start: 5.0,
            end: 50.0,
        };
        let kids = sequential_children(parent, &[10.0, 0.0, 20.0]);
        assert_eq!(
            kids[0],
            Span {
                start: 5.0,
                end: 15.0
            }
        );
        assert_eq!(
            kids[2],
            Span {
                start: 15.0,
                end: 35.0
            }
        );
        assert_eq!(self_time(parent, &kids), 15.0);
    }

    #[test]
    fn backlog_test_separates_stable_from_growing_queues() {
        let exec = vec![10.0; 64];
        let stable: Vec<f64> = (0..64).map(|i| f64::from(i % 5)).collect();
        assert!(!backlog_grows(&stable, &exec));
        let growing: Vec<f64> = (0..64).map(|i| 4.0 * f64::from(i)).collect();
        assert!(backlog_grows(&growing, &exec));
        // A saturated-but-draining queue (rises then falls) is not growth.
        let hump: Vec<f64> = (0..64).map(|i| f64::from(32 - (i - 32i32).abs())).collect();
        assert!(!backlog_grows(&hump, &exec));
        // Too few batches to tell.
        assert!(!backlog_grows(&growing[..7], &exec[..7]));
    }

    #[test]
    fn ladder_finds_highest_passing_rung() {
        // Rungs 0..=6 pass; 7.. overload (backlog) or miss the limit.
        let probe = |i: usize| Rung {
            rate: i as f64,
            tail_ns: if i <= 8 { 50.0 } else { 500.0 },
            backlog: i >= 7,
        };
        let best = max_passing_rung(20, 100.0, probe).unwrap();
        assert_eq!(best.rate, 6.0);
        assert!(max_passing_rung(20, 10.0, probe).is_none());
        // Every rung passing returns the top one.
        let all = max_passing_rung(9, 100.0, |i| Rung {
            rate: i as f64,
            tail_ns: 1.0,
            backlog: false,
        });
        assert_eq!(all.unwrap().rate, 8.0);
    }

    #[test]
    fn imbalance_of_busy_devices() {
        assert_eq!(imbalance(&[5.0]), 0.0);
        assert_eq!(imbalance(&[1.0, 1.0]), 0.0);
        assert!((imbalance(&[3.0, 1.0]) - 0.5).abs() < 1e-12);
    }
}
