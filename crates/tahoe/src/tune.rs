//! Launch tuning (Algorithm 1 line 14: "Set the maximum number of threads to
//! hide latency, and set the number of blocks to maximize the occupancy").
//!
//! Block size trades occupancy against per-block resources: bigger blocks
//! amortize staging and widen reductions; smaller blocks raise residency.
//! The tuner evaluates the performance model over a candidate block-size
//! ladder for each strategy and keeps the cheapest — the grid size follows
//! from each strategy's geometry (one wave target, occupancy-aware).
//!
//! The engine runs the full sweep on every batch. It is a few microseconds
//! of closed-form model evaluation, well under 1% of a batch's host time
//! (DESIGN.md §2.16), so no decision is memoized. An optional
//! [`Calibrator`] rescales every prediction before comparison.

use tahoe_gpu_sim::MeasuredParams;

use crate::perfmodel::{predict, Calibrator, ModelInputs, Prediction};
use crate::strategy::{self, LaunchContext, Strategy};

/// Candidate block sizes (whole warps; clamped to the device limit).
pub const THREAD_CANDIDATES: [usize; 5] = [64, 128, 256, 512, 1024];

/// The model-predicted best block size for one strategy, with its
/// prediction. An optional calibrator is applied to every prediction before
/// comparison, so calibrated corrections can re-order the block-size ladder,
/// not just rescale the winner.
///
/// Returns `None` when the strategy is infeasible on this context.
#[must_use]
pub fn tune_strategy(
    strategy: Strategy,
    ctx: &LaunchContext<'_>,
    inputs: &ModelInputs,
    hw: &MeasuredParams,
    cal: Option<&Calibrator>,
) -> Option<(usize, Prediction)> {
    let mut best: Option<(usize, Prediction)> = None;
    for &threads in &THREAD_CANDIDATES {
        if threads > ctx.device.max_threads_per_block as usize {
            continue;
        }
        let candidate = LaunchContext {
            block_threads: threads,
            ..*ctx
        };
        let Some(geometry) = strategy::geometry(strategy, &candidate) else {
            continue;
        };
        let p = predict(strategy, inputs, hw, &geometry, ctx.device);
        let p = cal.map_or(p, |c| c.apply(p));
        if best
            .as_ref()
            .is_none_or(|(_, b)| p.total() < b.total())
        {
            best = Some((threads, p));
        }
    }
    best
}

/// One audited sweep entry: a `(strategy, block size)` candidate with its
/// prediction, or the reason the tuner skipped it.
#[derive(Clone, Debug)]
pub struct CandidateEval {
    /// Strategy the candidate belongs to.
    pub strategy: Strategy,
    /// Candidate threads per block.
    pub block_threads: usize,
    /// The model's prediction, or a static rejection reason.
    pub outcome: Result<Prediction, &'static str>,
}

/// Replays the exact sweep [`tune_all`] performs — every strategy crossed
/// with [`THREAD_CANDIDATES`], in that order — but keeps the rejected
/// candidates with their reasons instead of dropping them. Feeds the
/// decision audit (DESIGN.md §2.15); selection stays with `tune_all`, so
/// this runs only when telemetry is recording. Pass the calibrator the
/// selection used, so audited predictions match what it compared.
#[must_use]
pub fn sweep_candidates(
    ctx: &LaunchContext<'_>,
    inputs: &ModelInputs,
    hw: &MeasuredParams,
    cal: Option<&Calibrator>,
) -> Vec<CandidateEval> {
    let mut out = Vec::with_capacity(Strategy::ALL.len() * THREAD_CANDIDATES.len());
    for strategy in Strategy::ALL {
        for &threads in &THREAD_CANDIDATES {
            let outcome = if threads > ctx.device.max_threads_per_block as usize {
                Err("exceeds max threads per block")
            } else {
                let candidate = LaunchContext {
                    block_threads: threads,
                    ..*ctx
                };
                match strategy::geometry(strategy, &candidate) {
                    Some(geometry) => {
                        let p = predict(strategy, inputs, hw, &geometry, ctx.device);
                        Ok(cal.map_or(p, |c| c.apply(p)))
                    }
                    None => Err("geometry infeasible"),
                }
            };
            out.push(CandidateEval { strategy, block_threads: threads, outcome });
        }
    }
    out
}

/// Tunes every feasible strategy; returns `(strategy, block size,
/// prediction)` triples sorted cheapest-first.
#[must_use]
pub fn tune_all(
    ctx: &LaunchContext<'_>,
    inputs: &ModelInputs,
    hw: &MeasuredParams,
) -> Vec<(Strategy, usize, Prediction)> {
    tune_all_with(ctx, inputs, hw, None)
}

/// [`tune_all`] under an optional calibrator.
#[must_use]
pub fn tune_all_with(
    ctx: &LaunchContext<'_>,
    inputs: &ModelInputs,
    hw: &MeasuredParams,
    cal: Option<&Calibrator>,
) -> Vec<(Strategy, usize, Prediction)> {
    let mut out: Vec<(Strategy, usize, Prediction)> = Strategy::ALL
        .into_iter()
        .filter_map(|s| tune_strategy(s, ctx, inputs, hw, cal).map(|(t, p)| (s, t, p)))
        .collect();
    // `total_cmp` keeps the sort total even when a prediction goes
    // non-finite (a poisoned measured constant, a fitted scale gone wrong):
    // NaN sorts last instead of panicking the engine mid-batch.
    out.sort_by(|a, b| a.2.total().total_cmp(&b.2.total()));
    out
}

/// Always `false`: the engine memoizes no tuning decision. Exists only
/// because `servebench` calls it.
#[must_use]
pub fn tune_cache_enabled() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::testutil::{context, Fixture};
    use tahoe_gpu_sim::kernel::Detail;
    use tahoe_gpu_sim::measure;

    fn setup() -> (Fixture, ModelInputs, MeasuredParams) {
        let fx = Fixture::trained("letter");
        let inputs = ModelInputs::gather(&fx.device_forest, &fx.forest.stats(), &fx.samples);
        let hw = measure(&fx.device);
        (fx, inputs, hw)
    }

    #[test]
    fn tuned_threads_are_valid_block_sizes() {
        let (fx, inputs, hw) = setup();
        let ctx = context(&fx, Detail::Sampled(1));
        for (s, threads, _) in tune_all(&ctx, &inputs, &hw) {
            assert!(THREAD_CANDIDATES.contains(&threads), "{s}: {threads}");
            assert!(threads <= fx.device.max_threads_per_block as usize);
        }
    }

    #[test]
    fn tuned_prediction_never_worse_than_default() {
        let (fx, inputs, hw) = setup();
        let ctx = context(&fx, Detail::Sampled(1));
        for s in Strategy::ALL {
            let Some((_, tuned)) = tune_strategy(s, &ctx, &inputs, &hw, None) else {
                continue;
            };
            let default_geo = strategy::geometry(s, &ctx).expect("feasible");
            let default = predict(s, &inputs, &hw, &default_geo, ctx.device);
            assert!(
                tuned.total() <= default.total() * 1.000_001,
                "{s}: tuned {} > default {}",
                tuned.total(),
                default.total()
            );
        }
    }

    #[test]
    fn tune_all_is_sorted_and_covers_feasible_strategies() {
        let (fx, inputs, hw) = setup();
        let ctx = context(&fx, Detail::Sampled(1));
        let tuned = tune_all(&ctx, &inputs, &hw);
        assert!(tuned.len() >= 2, "shared data and direct are always feasible");
        for w in tuned.windows(2) {
            assert!(w[0].2.total() <= w[1].2.total());
        }
    }

    #[test]
    fn poisoned_candidate_does_not_panic_tune_all() {
        // A NaN measured constant poisons every prediction that touches it.
        // Selection must survive: `total_cmp` sorts NaN totals last, so the
        // engine keeps running on whichever candidates stayed finite.
        let (fx, inputs, hw) = setup();
        let ctx = context(&fx, Detail::Sampled(1));
        let poisoned = MeasuredParams {
            lat_gmem: f64::NAN,
            ..hw
        };
        let tuned = tune_all(&ctx, &inputs, &poisoned);
        assert!(!tuned.is_empty(), "the sweep itself must not panic");
        // NaN totals, if any, are ordered after every finite total.
        let first_nan = tuned
            .iter()
            .position(|(_, _, p)| p.total().is_nan())
            .unwrap_or(tuned.len());
        assert!(
            tuned[first_nan..].iter().all(|(_, _, p)| p.total().is_nan()),
            "NaN predictions sort last"
        );
        // The ranked sweep in perfmodel shares the fix.
        let ranked = crate::perfmodel::rank(&ctx, &inputs, &poisoned);
        assert!(!ranked.is_empty());
    }

    #[test]
    fn calibrated_tuning_scales_predictions() {
        use crate::perfmodel::calibrate::RECALIBRATE_INTERVAL;
        let (fx, inputs, hw) = setup();
        let ctx = context(&fx, Detail::Sampled(1));
        let baseline = tune_all(&ctx, &inputs, &hw);
        let mut cal = Calibrator::new();
        for _ in 0..RECALIBRATE_INTERVAL {
            cal.observe(Strategy::Direct, 100.0, 300.0);
        }
        assert!(cal.maybe_recalibrate());
        let calibrated = tune_all_with(&ctx, &inputs, &hw, Some(&cal));
        let raw_direct = baseline
            .iter()
            .find(|(s, _, _)| *s == Strategy::Direct)
            .map(|(_, _, p)| p.total());
        let cal_direct = calibrated
            .iter()
            .find(|(s, _, _)| *s == Strategy::Direct)
            .map(|(_, _, p)| p.total());
        if let (Some(raw), Some(scaled)) = (raw_direct, cal_direct) {
            assert!(
                (scaled - raw * cal.scale(Strategy::Direct)).abs() <= raw * 1e-9,
                "calibrated total is the raw total times the fitted scale"
            );
        }
    }

    #[test]
    fn sweep_covers_the_full_ladder_and_agrees_with_tune_strategy() {
        let (fx, inputs, hw) = setup();
        let ctx = context(&fx, Detail::Sampled(1));
        let sweep = sweep_candidates(&ctx, &inputs, &hw, None);
        assert_eq!(sweep.len(), Strategy::ALL.len() * THREAD_CANDIDATES.len());
        for s in Strategy::ALL {
            let best = sweep
                .iter()
                .filter(|c| c.strategy == s)
                .filter_map(|c| c.outcome.as_ref().ok().map(|p| (c.block_threads, p)))
                .min_by(|a, b| a.1.total().total_cmp(&b.1.total()));
            match tune_strategy(s, &ctx, &inputs, &hw, None) {
                Some((threads, p)) => {
                    let (bt, bp) = best.expect("tuned strategy must have feasible candidates");
                    assert_eq!(bt, threads, "{s}");
                    assert_eq!(bp.total().to_bits(), p.total().to_bits(), "{s}");
                }
                None => assert!(best.is_none(), "{s}"),
            }
        }
    }

    #[test]
    fn sweep_reports_rejection_reasons() {
        let (fx, inputs, hw) = setup();
        let mut ctx = context(&fx, Detail::Sampled(1));
        let mut tiny = ctx.device.clone();
        tiny.shared_mem_per_block = 64;
        tiny.shared_mem_per_sm = 64;
        tiny.max_threads_per_block = 512;
        ctx.device = &tiny;
        let sweep = sweep_candidates(&ctx, &inputs, &hw, None);
        assert!(sweep
            .iter()
            .filter(|c| c.block_threads > 512)
            .all(|c| c.outcome == Err("exceeds max threads per block")));
        assert!(sweep
            .iter()
            .filter(|c| c.strategy == Strategy::SharedForest && c.block_threads <= 512)
            .all(|c| c.outcome == Err("geometry infeasible")));
    }

    #[test]
    fn infeasible_strategy_returns_none() {
        let (fx, inputs, hw) = setup();
        let mut ctx = context(&fx, Detail::Sampled(1));
        let mut tiny = ctx.device.clone();
        tiny.shared_mem_per_block = 64;
        tiny.shared_mem_per_sm = 64;
        ctx.device = &tiny;
        assert!(tune_strategy(Strategy::SharedForest, &ctx, &inputs, &hw, None).is_none());
    }
}
