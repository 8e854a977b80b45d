//! The autotuner: score every candidate kernel on the timing model, keep
//! the winner.
//!
//! "Demystifying ARM SME" (see PAPERS.md) observes that the best blocking
//! and transfer strategy varies with the problem shape, so a single default
//! plan leaves performance behind. The tuner enumerates the candidates
//! exposed by [`sme_gemm::enumerate_candidates`] — block-plan kinds ×
//! ZA-transfer strategies × unroll factors × kernel schedules
//! (serial or software-pipelined), **plus the Neon backend** for
//! shapes its generator supports — generates each kernel, and scores it by
//! **simulated cycles** on the `sme-machine` timing model (one M4
//! performance core). Because the candidate set always contains the
//! default, the winner can never be slower than the untuned kernel in the
//! model; because it contains both engines, the winner lands on whichever
//! side of the Fig. 1 SME/Neon crossover the shape falls.
//!
//! Timing simulation dominates tuning cost, so an analytic pre-filter
//! ([`sme_gemm::prune_dominated_candidates`]) drops block plans that are
//! dominated on loads-per-k-step *and* microkernel count before anything
//! is generated.

use crate::store::{tune_key_any, PlanStore, TunedRecord};
use rayon::prelude::*;
use sme_gemm::{
    default_any_candidate, enumerate_any_candidates, generate_any_routed,
    prune_dominated_candidates, prune_dominated_widening_candidates, AnyGemmConfig, Backend,
    GemmError, PlanCandidate,
};

/// Knobs controlling how much of the candidate space the tuner explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunerOptions {
    /// Also try the non-default ZA transfer strategy.
    pub sweep_transfer: bool,
    /// Also try the non-default contraction-loop unroll factors.
    pub sweep_k_unroll: bool,
    /// Also score the Neon backend candidate, so the winner picks the
    /// faster engine for the shape (on by default).
    pub sweep_backends: bool,
    /// Also try the software-pipelined kernel schedule, which overlaps the
    /// next block's first packed loads with the current block's ZA store
    /// (on by default).
    pub sweep_schedule: bool,
    /// Prune analytically dominated SME candidates before simulating (on by
    /// default; disable to force the exhaustive sweep, e.g. when validating
    /// the pre-filter itself).
    pub prefilter: bool,
}

impl Default for TunerOptions {
    /// Explore the full candidate space (with the analytic pre-filter).
    fn default() -> Self {
        TunerOptions {
            sweep_transfer: true,
            sweep_k_unroll: true,
            sweep_backends: true,
            sweep_schedule: true,
            prefilter: true,
        }
    }
}

impl TunerOptions {
    /// Plan kinds and backends only — the cheapest useful sweep, used by
    /// doc examples and smoke tests.
    pub fn quick() -> Self {
        TunerOptions {
            sweep_transfer: false,
            sweep_k_unroll: false,
            sweep_schedule: false,
            ..TunerOptions::default()
        }
    }

    /// The full sweep without the analytic pre-filter (every candidate is
    /// generated and simulated).
    pub fn exhaustive() -> Self {
        TunerOptions {
            prefilter: false,
            ..TunerOptions::default()
        }
    }
}

/// The result of tuning one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOutcome {
    /// The normalized configuration the outcome is stored under.
    pub key: AnyGemmConfig,
    /// The winning candidate.
    pub winner: PlanCandidate,
    /// Simulated cycles of the winner.
    pub tuned_cycles: f64,
    /// Simulated cycles of the default candidate.
    pub default_cycles: f64,
    /// Number of candidates generated and simulated.
    pub candidates_tried: usize,
    /// Number of candidates the analytic pre-filter discarded without
    /// simulating.
    pub candidates_pruned: usize,
}

impl TuneOutcome {
    /// Modelled speed-up over the default plan (≥ 1).
    pub fn speedup(&self) -> f64 {
        if self.tuned_cycles == 0.0 {
            1.0
        } else {
            self.default_cycles / self.tuned_cycles
        }
    }

    /// The record to persist in a [`PlanStore`].
    pub fn record(&self) -> TunedRecord {
        TunedRecord {
            candidate: self.winner,
            tuned_cycles: self.tuned_cycles,
            default_cycles: self.default_cycles,
        }
    }
}

/// Tune one configuration of either datatype: generate and timing-simulate
/// every candidate (across both backends unless restricted), return the
/// cycle-count winner.
///
/// Candidates are simulated in parallel on the host (each on its own
/// single-core simulator instance); the winner is deterministic — ties are
/// broken towards the default candidate first and then towards the earlier
/// candidate in enumeration order. The analytic pre-filter applies to both
/// datatypes' SME block-plan spaces (the widening space grew the same
/// edge-bearing plan kinds as FP32 when the masked-tile path landed).
pub fn tune_any(cfg: &AnyGemmConfig, opts: &TunerOptions) -> Result<TuneOutcome, GemmError> {
    cfg.validate()?;
    let default = default_any_candidate(cfg);
    let enumerated: Vec<PlanCandidate> = enumerate_any_candidates(cfg)
        .into_iter()
        .filter(|c| {
            c.backend != Backend::Sme
                || ((opts.sweep_transfer || c.c_transfer == default.c_transfer)
                    && (opts.sweep_k_unroll || c.k_unroll == default.k_unroll)
                    && (opts.sweep_schedule || c.schedule == default.schedule))
        })
        .filter(|c| opts.sweep_backends || c.backend == default.backend)
        .collect();
    let candidates = match (opts.prefilter, cfg) {
        (true, AnyGemmConfig::Fp32(c)) => prune_dominated_candidates(c, enumerated.clone()),
        (true, AnyGemmConfig::WideningBf16(c)) => {
            prune_dominated_widening_candidates(c, enumerated.clone())
        }
        _ => enumerated.clone(),
    };
    let candidates_pruned = enumerated.len() - candidates.len();
    debug_assert!(candidates.contains(&default));

    let scored: Vec<Result<(PlanCandidate, f64), GemmError>> = candidates
        .par_iter()
        .map(|candidate| {
            let kernel = generate_any_routed(cfg, candidate)?;
            Ok((*candidate, kernel.model_stats().cycles))
        })
        .collect();

    let mut default_cycles = None;
    let mut best: Option<(PlanCandidate, f64)> = None;
    for result in scored {
        let (candidate, cycles) = result?;
        if candidate == default {
            default_cycles = Some(cycles);
        }
        let better = match &best {
            None => true,
            Some((best_candidate, best_cycles)) => {
                cycles < *best_cycles
                    || (cycles == *best_cycles
                        && candidate == default
                        && *best_candidate != default)
            }
        };
        if better {
            best = Some((candidate, cycles));
        }
    }
    let (winner, tuned_cycles) = best.expect("candidate set is never empty");
    let default_cycles = default_cycles.expect("default candidate is always enumerated");
    Ok(TuneOutcome {
        key: tune_key_any(cfg),
        winner,
        tuned_cycles,
        default_cycles,
        candidates_tried: candidates.len(),
        candidates_pruned,
    })
}

/// Tune a configuration of either datatype and persist the winner into
/// `store`. Returns the outcome.
pub fn tune_any_into_store(
    cfg: &AnyGemmConfig,
    opts: &TunerOptions,
    store: &mut PlanStore,
) -> Result<TuneOutcome, GemmError> {
    let outcome = tune_any(cfg, opts)?;
    store.insert_any(cfg, outcome.record());
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sme_gemm::{BLayout, GemmConfig, PlanKind};

    #[test]
    fn tuning_never_loses_to_the_default() {
        for cfg in [
            GemmConfig::abt(32, 32, 16),
            GemmConfig::abt(80, 16, 16),
            GemmConfig::ab(32, 32, 16),
        ] {
            let outcome = tune_any(&cfg.into(), &TunerOptions::default()).unwrap();
            assert!(
                outcome.tuned_cycles <= outcome.default_cycles,
                "{cfg}: tuned {} > default {}",
                outcome.tuned_cycles,
                outcome.default_cycles
            );
            assert!(outcome.speedup() >= 1.0);
            assert!(outcome.candidates_tried >= 2);
        }
    }

    #[test]
    fn quick_options_restrict_the_sweep() {
        let cfg = GemmConfig::abt(32, 32, 16);
        let quick = tune_any(&cfg.into(), &TunerOptions::quick()).unwrap();
        // Plan kinds and backends only: the winner keeps the config's knobs.
        assert_eq!(quick.winner.c_transfer, cfg.c_transfer);
        assert_eq!(quick.winner.k_unroll, cfg.k_unroll);
        let full = tune_any(&cfg.into(), &TunerOptions::default()).unwrap();
        assert!(full.candidates_tried > quick.candidates_tried);
        assert!(full.tuned_cycles <= quick.tuned_cycles);
        // The exhaustive sweep tries everything the pre-filter would prune.
        let exhaustive = tune_any(&cfg.into(), &TunerOptions::exhaustive()).unwrap();
        assert_eq!(exhaustive.candidates_pruned, 0);
        assert_eq!(
            exhaustive.candidates_tried,
            full.candidates_tried + full.candidates_pruned
        );
    }

    #[test]
    fn prefilter_prunes_without_changing_the_winner_across_a_shape_sweep() {
        // The satellite guarantee: the analytic pre-filter only discards
        // candidates that cannot win, so the pruned tuner and the
        // exhaustive tuner agree on every swept shape.
        let mut total_pruned = 0;
        for cfg in [
            GemmConfig::abt(16, 16, 16),
            GemmConfig::abt(32, 32, 16),
            GemmConfig::abt(48, 48, 32),
            GemmConfig::abt(64, 16, 32),
            GemmConfig::abt(16, 64, 32),
            GemmConfig::abt(64, 64, 64),
            GemmConfig::abt(80, 80, 16),
            GemmConfig::abt(96, 32, 16),
            GemmConfig::ab(48, 48, 16),
        ] {
            let pruned = tune_any(&cfg.into(), &TunerOptions::default()).unwrap();
            let exhaustive = tune_any(&cfg.into(), &TunerOptions::exhaustive()).unwrap();
            assert_eq!(
                pruned.winner, exhaustive.winner,
                "{cfg}: pre-filter changed the winner"
            );
            assert_eq!(
                pruned.tuned_cycles, exhaustive.tuned_cycles,
                "{cfg}: pre-filter changed the winning score"
            );
            assert!(pruned.candidates_tried <= exhaustive.candidates_tried);
            total_pruned += pruned.candidates_pruned;
        }
        assert!(
            total_pruned > 0,
            "the sweep must exercise actual pruning, not just agreement"
        );
    }

    #[test]
    fn cross_backend_tuning_finds_the_neon_crossover() {
        // Tiny shape: the ~110-cycle smstart/smstop + ZA-transfer overhead
        // dwarfs the work, so the Neon backend wins the argmin.
        let tiny = GemmConfig::abt(16, 4, 4);
        let outcome = tune_any(&tiny.into(), &TunerOptions::default()).unwrap();
        assert_eq!(outcome.winner.backend, Backend::Neon);
        assert!(outcome.tuned_cycles < outcome.default_cycles);

        // Large shape: SME saturates its outer-product advantage.
        let large = GemmConfig::abt(64, 64, 64);
        let outcome = tune_any(&large.into(), &TunerOptions::default()).unwrap();
        assert_eq!(outcome.winner.backend, Backend::Sme);

        // Disabling the backend sweep pins the tuner to SME.
        let sme_only = TunerOptions {
            sweep_backends: false,
            ..TunerOptions::default()
        };
        let outcome = tune_any(&tiny.into(), &sme_only).unwrap();
        assert_eq!(outcome.winner.backend, Backend::Sme);
    }

    #[test]
    fn pipelined_schedules_win_where_the_model_says_they_do() {
        use sme_gemm::KernelSchedule;
        // Multi-block shape: hoisting the next block's first packed loads
        // above the ZA store removes an exposed RAW stall, so the pipelined
        // twin scores strictly fewer simulated cycles and wins the argmin.
        let cfg = GemmConfig::abt(64, 64, 64);
        let outcome = tune_any(&cfg.into(), &TunerOptions::default()).unwrap();
        assert_eq!(outcome.winner.schedule, KernelSchedule::Pipelined);
        assert!(outcome.tuned_cycles < outcome.default_cycles);

        // Disabling the schedule sweep pins the tuner to the serial
        // schedule, which can only do worse (or tie).
        let serial_only = TunerOptions {
            sweep_schedule: false,
            ..TunerOptions::default()
        };
        let serial = tune_any(&cfg.into(), &serial_only).unwrap();
        assert_eq!(serial.winner.schedule, KernelSchedule::Serial);
        assert!(outcome.tuned_cycles <= serial.tuned_cycles);
    }

    #[test]
    fn tall_thin_shapes_prefer_matching_blockings() {
        // A 64×16 output fits one B64x16 accumulator exactly; the
        // heterogeneous default covers it the same way, so the winner must
        // be at least as good and use a plan with a single microkernel.
        let cfg = GemmConfig::abt(64, 16, 32);
        let outcome = tune_any(&cfg.into(), &TunerOptions::quick()).unwrap();
        let kernel = generate_any_routed(&cfg.into(), &outcome.winner).unwrap();
        let plan = kernel.plan().expect("SME wins this shape in the model");
        assert_eq!(plan.num_microkernels(), 1);
    }

    #[test]
    fn widening_shapes_tune_across_backends_and_never_lose() {
        use sme_gemm::WideningGemmConfig;
        // On the SME grid the outer-product engine wins and the winner can
        // only improve on the default.
        let dense: AnyGemmConfig = WideningGemmConfig::new(64, 64, 16).unwrap().into();
        let outcome = tune_any(&dense, &TunerOptions::default()).unwrap();
        assert_eq!(outcome.winner.backend, Backend::Sme);
        assert!(outcome.tuned_cycles <= outcome.default_cycles);
        assert!(outcome.candidates_tried >= 2);

        // Off the 32-grid both engines are real candidates now; the winner
        // still can only improve on the (SME) default.
        let thin: AnyGemmConfig = WideningGemmConfig::new(16, 4, 8).unwrap().into();
        let outcome = tune_any(&thin, &TunerOptions::default()).unwrap();
        assert!(outcome.tuned_cycles <= outcome.default_cycles);
        assert!(outcome.candidates_tried >= 2, "SME edge candidates score");

        // A dense-but-misaligned shape: the masked SME edge tiles beat the
        // Neon BFMMLA baseline outright.
        let edgy: AnyGemmConfig = WideningGemmConfig::new(48, 40, 64).unwrap().into();
        let outcome = tune_any(&edgy, &TunerOptions::default()).unwrap();
        assert_eq!(outcome.winner.backend, Backend::Sme);

        // Winners persist under the widening key.
        let mut store = PlanStore::new();
        let outcome = tune_any_into_store(&dense, &TunerOptions::quick(), &mut store).unwrap();
        assert_eq!(store.lookup_any(&dense).copied().unwrap(), outcome.record());
        let reloaded = PlanStore::from_json(&store.to_json()).unwrap();
        assert_eq!(reloaded.lookup_any(&dense).copied(), Some(outcome.record()));
    }

    #[test]
    fn widening_prefilter_prunes_without_changing_the_winner() {
        use sme_gemm::WideningGemmConfig;
        // The widening twin of the FP32 pre-filter guarantee, over shapes
        // with and without masked edges.
        let mut total_pruned = 0;
        for (m, n, k) in [
            (32, 32, 16),
            (64, 16, 32),
            (40, 40, 16),
            (48, 40, 8),
            (16, 4, 8),
        ] {
            let cfg: AnyGemmConfig = WideningGemmConfig::new(m, n, k).unwrap().into();
            let pruned = tune_any(&cfg, &TunerOptions::default()).unwrap();
            let exhaustive = tune_any(&cfg, &TunerOptions::exhaustive()).unwrap();
            assert_eq!(
                pruned.winner, exhaustive.winner,
                "{cfg}: pre-filter changed the winner"
            );
            assert_eq!(pruned.tuned_cycles, exhaustive.tuned_cycles);
            total_pruned += pruned.candidates_pruned;
        }
        assert!(total_pruned > 0, "the sweep must exercise actual pruning");
    }

    #[test]
    fn column_major_tuning_stays_on_the_panel_plan() {
        let cfg = GemmConfig::ab(48, 48, 16);
        let outcome = tune_any(&cfg.into(), &TunerOptions::default()).unwrap();
        assert_eq!(outcome.winner.kind, PlanKind::ColumnPanels);
        assert_eq!(cfg.b_layout, BLayout::ColMajor);
    }

    #[test]
    fn outcome_round_trips_through_the_store() {
        let cfg = GemmConfig::abt(48, 48, 16).into();
        let mut store = PlanStore::new();
        let outcome = tune_any_into_store(&cfg, &TunerOptions::quick(), &mut store).unwrap();
        let record = store.lookup_any(&cfg).copied().unwrap();
        assert_eq!(record, outcome.record());
        let reloaded = PlanStore::from_json(&store.to_json()).unwrap();
        assert_eq!(reloaded.lookup_any(&cfg).copied().unwrap(), record);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(tune_any(&GemmConfig::abt(0, 8, 8).into(), &TunerOptions::quick()).is_err());
    }
}
