//! Launch tuning (Algorithm 1 line 14: "Set the maximum number of threads to
//! hide latency, and set the number of blocks to maximize the occupancy").
//!
//! Block size trades occupancy against per-block resources: bigger blocks
//! amortize staging and widen reductions; smaller blocks raise residency.
//! The tuner evaluates the performance model over a candidate block-size
//! ladder for each strategy and keeps the cheapest — the grid size follows
//! from each strategy's geometry (one wave target, occupancy-aware).
//!
//! The engine runs one sweep per batch, [`sweep_candidates`]: selection
//! takes [`ranked`] from it, and the decision audit records the same
//! candidates, so the audited ladder is exactly what selection compared.
//! The sweep is a few microseconds of closed-form model evaluation, well
//! under 1% of a batch's host time (DESIGN.md §2.16), so no decision is
//! memoized. An optional [`Calibrator`] rescales every prediction before
//! comparison.

use tahoe_gpu_sim::MeasuredParams;

use crate::perfmodel::{predict, Calibrator, ModelInputs, Prediction};
use crate::strategy::{self, LaunchContext, Strategy};

/// Candidate block sizes (whole warps; clamped to the device limit).
pub const THREAD_CANDIDATES: [usize; 5] = [64, 128, 256, 512, 1024];

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

/// Algorithm 1's search (lines 8–14): every strategy crossed with
/// [`THREAD_CANDIDATES`], strategy-major and in ladder order, each candidate
/// predicted by the §6 model under the optional calibrator or rejected with
/// its reason. [`ranked`] selects from it; the decision audit (DESIGN.md
/// §2.15) records it as is.
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

/// Each strategy's cheapest feasible block size from a sweep, strategies
/// sorted cheapest-first (Algorithm 1 line 15 takes the head). A candidate
/// must be strictly cheaper to displace an earlier one of its strategy, so
/// ties keep the smaller block on the ladder. The sort is stable (equal
/// totals keep [`Strategy::ALL`] order) and uses `total_cmp`, so it stays
/// total when a prediction goes non-finite (a poisoned measured constant, a
/// fitted scale gone wrong): NaN sorts last instead of panicking the engine
/// mid-batch.
#[must_use]
pub fn ranked(sweep: &[CandidateEval]) -> Vec<(Strategy, usize, Prediction)> {
    let mut out: Vec<(Strategy, usize, Prediction)> = Vec::with_capacity(Strategy::ALL.len());
    for c in sweep {
        let Ok(p) = c.outcome else { continue };
        match out.iter_mut().find(|(s, _, _)| *s == c.strategy) {
            Some(best) if p.total() < best.2.total() => *best = (c.strategy, c.block_threads, p),
            Some(_) => {}
            None => out.push((c.strategy, c.block_threads, p)),
        }
    }
    out.sort_by(|a, b| a.2.total().total_cmp(&b.2.total()));
    out
}

/// Tunes every feasible strategy, uncalibrated; returns `(strategy, block
/// size, prediction)` triples sorted cheapest-first.
#[must_use]
pub fn tune_all(
    ctx: &LaunchContext<'_>,
    inputs: &ModelInputs,
    hw: &MeasuredParams,
) -> Vec<(Strategy, usize, Prediction)> {
    ranked(&sweep_candidates(ctx, inputs, hw, None))
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
        for (s, _, tuned) in tune_all(&ctx, &inputs, &hw) {
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
        let calibrated = ranked(&sweep_candidates(&ctx, &inputs, &hw, Some(&cal)));
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
    fn ranked_takes_each_strategys_cheapest_candidate_from_the_full_ladder() {
        let (fx, inputs, hw) = setup();
        let ctx = context(&fx, Detail::Sampled(1));
        let sweep = sweep_candidates(&ctx, &inputs, &hw, None);
        assert_eq!(sweep.len(), Strategy::ALL.len() * THREAD_CANDIDATES.len());
        let tuned = ranked(&sweep);
        for s in Strategy::ALL {
            let best = sweep
                .iter()
                .filter(|c| c.strategy == s)
                .filter_map(|c| c.outcome.as_ref().ok().map(|p| (c.block_threads, p)))
                .min_by(|a, b| a.1.total().total_cmp(&b.1.total()));
            match tuned.iter().find(|(t, _, _)| *t == s) {
                Some(&(_, threads, p)) => {
                    let (bt, bp) = best.expect("tuned strategy must have feasible candidates");
                    assert_eq!(bt, threads, "{s}");
                    assert_eq!(bp.total().to_bits(), p.total().to_bits(), "{s}");
                }
                None => assert!(best.is_none(), "{s}"),
            }
        }
    }

    #[test]
    fn ranked_keeps_the_smaller_block_size_on_equal_totals() {
        let p = |strategy, t_gmem| Prediction {
            strategy,
            t_smem: 0.0,
            t_gmem,
            t_serial: 0.0,
            t_b_redu: 0.0,
            t_g_redu: 0.0,
        };
        let eval = |strategy, block_threads, t_gmem| CandidateEval {
            strategy,
            block_threads,
            outcome: Ok(p(strategy, t_gmem)),
        };
        let sweep = [
            eval(Strategy::SharedData, 64, 2.0),
            eval(Strategy::SharedData, 128, 2.0),
            eval(Strategy::SharedData, 256, 3.0),
            eval(Strategy::Direct, 64, 5.0),
            eval(Strategy::Direct, 128, 1.0),
            eval(Strategy::Direct, 256, 1.0),
        ];
        let tuned: Vec<(Strategy, usize)> = ranked(&sweep).iter().map(|&(s, t, _)| (s, t)).collect();
        assert_eq!(tuned, [(Strategy::Direct, 128), (Strategy::SharedData, 64)]);
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
    fn infeasible_strategy_is_not_ranked() {
        let (fx, inputs, hw) = setup();
        let mut ctx = context(&fx, Detail::Sampled(1));
        let mut tiny = ctx.device.clone();
        tiny.shared_mem_per_block = 64;
        tiny.shared_mem_per_sm = 64;
        ctx.device = &tiny;
        let tuned = tune_all(&ctx, &inputs, &hw);
        assert!(tuned.iter().all(|(s, _, _)| *s != Strategy::SharedForest));
        // Shared data and direct always remain.
        assert!(tuned.len() >= 2);
    }
}
