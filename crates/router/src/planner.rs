//! Batch placement over the machine's real engine classes.
//!
//! The runtime's `BatchReport::makespan_cycles` models `n` *identical,
//! independent* cores — an assumption Fig. 1 explicitly debunks for SME:
//! the M4 has **two shared SME units** (one per cluster), so piling SME
//! groups onto ten "cores" projects speed-ups the silicon cannot deliver.
//! The planner replaces that projection with a placement over the engine
//! slots the machine actually has ([`MulticoreModel::sme_engine_slots`] /
//! [`MulticoreModel::private_engine_slots`]): SME-routed groups schedule
//! onto the two shared units, Neon-routed groups onto the ten private
//! cores, and the projected makespan is the slowest engine's finish time —
//! so a mixed batch genuinely overlaps the engine classes, which is the
//! whole point of routing part of the traffic to Neon.
//!
//! Placement uses a longest-processing-time greedy per engine class, with
//! each group's simulated performance-core cycles scaled by the target
//! slot's relative speed (an efficiency-cluster SME unit runs FP32 FMOPA
//! at ≈ 357/2009 of the performance-cluster unit; an efficiency core runs
//! Neon FMLA at ≈ 46/113 of a performance core). Ties in projected finish
//! time resolve to the **lowest-index** slot, so equally-loaded equal-speed
//! cores fill fastest-class-first and placement is deterministic.
//!
//! On top of the per-class placement, [`plan_batch_placed`] closes the
//! routing/placement loop: given each group's provisional route *and* the
//! simulated cost of the alternative backend, it spills marginal
//! SME-preferring groups (smallest SME-vs-Neon margin first) to idle
//! private cores whenever that strictly lowers the projected batch
//! makespan — the saturation-aware step `Router::dispatch` folds into
//! routing itself.

use sme_gemm::{AnyGemmConfig, Backend};
use sme_machine::multicore::{EngineSlot, MulticoreModel};

/// Where one dispatch group was placed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupPlacement {
    /// The group's configuration.
    pub config: AnyGemmConfig,
    /// The backend the group executed on (decides the engine class).
    pub backend: Backend,
    /// The group's simulated cycles on one performance core.
    pub cycles: f64,
    /// Index of the chosen slot within its engine class
    /// ([`PlacementPlan::sme_engines`] for SME groups,
    /// [`PlacementPlan::neon_engines`] for Neon groups).
    pub engine: usize,
}

/// The projected placement of one batch onto the machine's engine classes.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    /// The shared SME unit slots (cluster order).
    pub sme_engines: Vec<EngineSlot>,
    /// The private core slots (performance cores first).
    pub neon_engines: Vec<EngineSlot>,
    /// Per-group placements, in the batch report's group order.
    pub placements: Vec<GroupPlacement>,
    /// Projected finish time of each SME slot, in performance-core
    /// equivalent cycles.
    pub sme_engine_cycles: Vec<f64>,
    /// Projected finish time of each private core slot.
    pub neon_engine_cycles: Vec<f64>,
}

impl PlacementPlan {
    /// Projected finish time of the SME engine class (0 when no group is
    /// SME-routed).
    pub fn sme_makespan_cycles(&self) -> f64 {
        self.sme_engine_cycles.iter().fold(0.0, |a, &b| a.max(b))
    }

    /// Projected finish time of the private-core engine class.
    pub fn neon_makespan_cycles(&self) -> f64 {
        self.neon_engine_cycles.iter().fold(0.0, |a, &b| a.max(b))
    }

    /// Projected makespan of the whole batch: the engine classes run
    /// concurrently, so this is the slower class's finish time.
    pub fn makespan_cycles(&self) -> f64 {
        self.sme_makespan_cycles().max(self.neon_makespan_cycles())
    }

    /// Cycles of work placed on each engine class `(sme, neon)`.
    pub fn class_load_cycles(&self) -> (f64, f64) {
        let mut sme = 0.0;
        let mut neon = 0.0;
        for p in &self.placements {
            match p.backend {
                Backend::Sme => sme += p.cycles,
                Backend::Neon => neon += p.cycles,
            }
        }
        (sme, neon)
    }

    /// Host-side execution priority for each group (higher runs earlier).
    ///
    /// The contended class goes first, longest group first: SME groups in
    /// descending cycle order, then Neon groups in descending cycle order
    /// — the LPT order the projected makespan assumes, so simulated and
    /// host schedules agree. Returned per group, in the plan's group
    /// order.
    pub fn execution_priority(&self) -> Vec<f64> {
        // Offset SME groups past every possible Neon priority without
        // losing precision (any one group's cycles ≤ the batch total).
        let offset = 1.0 + self.placements.iter().map(|p| p.cycles).sum::<f64>();
        self.placements
            .iter()
            .map(|p| match p.backend {
                Backend::Sme => p.cycles + offset,
                Backend::Neon => p.cycles,
            })
            .collect()
    }
}

/// One routed group's cost picture, the input to [`plan_batch_placed`]:
/// the provisional route plus the simulated cost of flipping it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupCost {
    /// The group's configuration.
    pub config: AnyGemmConfig,
    /// The provisionally routed backend (the router's in-isolation pick).
    pub backend: Backend,
    /// The group's total simulated cycles on the provisional backend
    /// (performance-core equivalent, summed over the group's requests).
    pub cycles: f64,
    /// The group's total simulated cycles on the *other* backend, when
    /// known and supported — `None` pins the group to its provisional
    /// backend (a Neon-routed group, or an FP32 shape Neon cannot serve).
    pub alt_cycles: Option<f64>,
}

/// The outcome of placement-aware routing over one batch: the in-isolation
/// projection, the final (possibly rerouted) placement, and which groups
/// moved.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPlan {
    /// Placement of the batch with every group on its provisional backend
    /// (what route-in-isolation dispatch would have executed).
    pub isolated: PlacementPlan,
    /// The final placement after saturation-aware rerouting; this is the
    /// plan the dispatch executes. Its projected makespan is never worse
    /// than [`BatchPlan::isolated`]'s (reroutes are only kept when they
    /// strictly lower it).
    pub placement: PlacementPlan,
    /// Configurations spilled from SME to the private Neon cores, in the
    /// order the spills were accepted (smallest SME-vs-Neon margin first).
    pub rerouted: Vec<AnyGemmConfig>,
}

/// Place `(config, backend, cycles)` triples onto the machine's engine
/// slots with the per-class LPT greedy. Groups never split across slots:
/// each shares one kernel and working set, like the runtime's per-core
/// grouping.
fn plan_groups(groups: &[(AnyGemmConfig, Backend, f64)], model: &MulticoreModel) -> PlacementPlan {
    let sme_engines = model.sme_engine_slots();
    let neon_engines = model.private_engine_slots();
    let mut sme_cycles = vec![0.0f64; sme_engines.len()];
    let mut neon_cycles = vec![0.0f64; neon_engines.len()];

    // LPT: sort group indices by descending cycles (stable on ties).
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by(|&a, &b| {
        groups[b]
            .2
            .partial_cmp(&groups[a].2)
            .expect("cycles are finite")
    });

    let mut placements = vec![None; groups.len()];
    for index in order {
        let (config, backend, cycles) = groups[index];
        let (slots, loads) = match backend {
            Backend::Sme => (&sme_engines, &mut sme_cycles),
            Backend::Neon => (&neon_engines, &mut neon_cycles),
        };
        // Pick the slot with the earliest finish time after taking the
        // group (slower slots stretch the group by 1/speed). Ties go to
        // the lowest index, so equal fast cores fill front-first and the
        // placement is deterministic.
        let mut best = 0;
        let mut best_finish = loads[0] + cycles / slots[0].speed;
        for slot in 1..slots.len() {
            let finish = loads[slot] + cycles / slots[slot].speed;
            if finish < best_finish {
                best = slot;
                best_finish = finish;
            }
        }
        loads[best] = best_finish;
        placements[index] = Some(GroupPlacement {
            config,
            backend,
            cycles,
            engine: best,
        });
    }

    PlacementPlan {
        sme_engines,
        neon_engines,
        placements: placements
            .into_iter()
            .map(|p| p.expect("every group is placed"))
            .collect(),
        sme_engine_cycles: sme_cycles,
        neon_engine_cycles: neon_cycles,
    }
}

/// Placement-aware routing over one batch: place the provisional routes,
/// then spill marginal SME groups to the private Neon cores while that
/// strictly lowers the projected makespan.
///
/// Candidates are the SME-provisional groups with a known Neon cost
/// (`alt_cycles`), tried in ascending order of their SME-vs-Neon margin
/// (`alt_cycles − cycles`): the groups that lose the least by leaving the
/// shared units move first. Each spill is kept only if the re-planned
/// makespan strictly improves on the best so far, so the final projection
/// is never worse than route-in-isolation — when the SME class is not the
/// bottleneck, nothing moves.
pub fn plan_batch_placed(costs: &[GroupCost], model: &MulticoreModel) -> BatchPlan {
    let mut routed: Vec<(AnyGemmConfig, Backend, f64)> = costs
        .iter()
        .map(|c| (c.config, c.backend, c.cycles))
        .collect();
    let isolated = plan_groups(&routed, model);

    // Marginal-first candidate order over the spillable SME groups.
    let mut candidates: Vec<usize> = (0..costs.len())
        .filter(|&i| costs[i].backend == Backend::Sme && costs[i].alt_cycles.is_some())
        .collect();
    candidates.sort_by(|&a, &b| {
        let margin = |i: usize| costs[i].alt_cycles.expect("filtered") - costs[i].cycles;
        margin(a)
            .partial_cmp(&margin(b))
            .expect("margins are finite")
    });

    let mut best = isolated.clone();
    let mut rerouted = Vec::new();
    for index in candidates {
        let alt = costs[index].alt_cycles.expect("filtered");
        let previous = routed[index];
        routed[index] = (costs[index].config, Backend::Neon, alt);
        let candidate = plan_groups(&routed, model);
        if candidate.makespan_cycles() < best.makespan_cycles() {
            best = candidate;
            rerouted.push(costs[index].config);
        } else {
            routed[index] = previous;
        }
    }

    BatchPlan {
        isolated,
        placement: best,
        rerouted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sme_gemm::GemmConfig;
    use sme_machine::MachineConfig;
    use sme_runtime::{GemmRequest, GemmService};

    fn model() -> MulticoreModel {
        MulticoreModel::new(MachineConfig::apple_m4())
    }

    /// Place groups pinned to their routes (`alt_cycles: None`, so
    /// nothing spills) and return the placement.
    fn plan_pinned(groups: &[(AnyGemmConfig, Backend, f64)]) -> PlacementPlan {
        let costs: Vec<GroupCost> = groups
            .iter()
            .map(|&(config, backend, cycles)| GroupCost {
                config,
                backend,
                cycles,
                alt_cycles: None,
            })
            .collect();
        plan_batch_placed(&costs, &model()).placement
    }

    /// Dispatch a batch with a fixed routing function and place its groups
    /// on the routes they executed.
    fn plan_mixed(
        reqs: &[GemmRequest],
        neon: &(dyn Fn(&AnyGemmConfig) -> bool + Sync),
    ) -> PlacementPlan {
        let service = GemmService::new(32);
        let report = service
            .dispatch_routed(reqs, |cfg| {
                if neon(cfg) {
                    Backend::Neon
                } else {
                    Backend::Sme
                }
            })
            .expect("valid batch");
        let groups: Vec<(AnyGemmConfig, Backend, f64)> = report
            .per_config
            .iter()
            .map(|g| (g.config, g.backend, g.stats.cycles))
            .collect();
        plan_pinned(&groups)
    }

    #[test]
    fn sme_groups_spread_over_two_units_only() {
        // Four equal SME groups on a machine with two SME units: the
        // projected makespan cannot drop below half the serial time no
        // matter how many cores exist.
        let reqs: Vec<GemmRequest> = (0..4)
            .map(|i| GemmRequest::fp32(GemmConfig::abt(48, 48, 16 + 16 * i), i as u64))
            .collect();
        let plan = plan_mixed(&reqs, &|_| false);
        assert_eq!(plan.sme_engines.len(), 2);
        let (sme_load, neon_load) = plan.class_load_cycles();
        assert_eq!(neon_load, 0.0);
        assert!(plan.makespan_cycles() >= sme_load / 2.0);
        // The efficiency-cluster unit is ~5.6× slower, so the LPT should
        // keep most work on the performance-cluster unit.
        assert!(plan.sme_engine_cycles[0] > 0.0);
        assert!(plan.placements.iter().all(|p| p.engine < 2));
    }

    #[test]
    fn mixed_batches_overlap_engine_classes() {
        let sme_cfg = GemmConfig::abt(64, 64, 64);
        let neon_cfg = GemmConfig::abt(16, 4, 16);
        let reqs = [
            GemmRequest::fp32(sme_cfg, 1),
            GemmRequest::fp32(neon_cfg, 2),
        ];
        let plan = plan_mixed(&reqs, &|cfg| *cfg == neon_cfg.into());
        let (sme_load, neon_load) = plan.class_load_cycles();
        assert!(sme_load > 0.0 && neon_load > 0.0);
        // Classes run concurrently: the makespan is the max, not the sum.
        assert!(plan.makespan_cycles() < sme_load + neon_load);
        assert_eq!(
            plan.makespan_cycles(),
            plan.sme_makespan_cycles().max(plan.neon_makespan_cycles())
        );
        // The Neon group landed on a private core, the SME group on a unit.
        let neon_placement = plan
            .placements
            .iter()
            .find(|p| p.backend == Backend::Neon)
            .unwrap();
        assert!(neon_placement.engine < plan.neon_engines.len());
    }

    #[test]
    fn neon_groups_use_all_ten_cores() {
        // Ten distinct Neon-routed groups: each gets its own core slot, so
        // every per-core load stays below the serial total.
        let reqs: Vec<GemmRequest> = (0..10)
            .map(|i| GemmRequest::fp32(GemmConfig::abt(16, 4, 4 + 4 * i), i as u64))
            .collect();
        let plan = plan_mixed(&reqs, &|_| true);
        assert_eq!(plan.neon_engines.len(), 10);
        let used: std::collections::HashSet<usize> =
            plan.placements.iter().map(|p| p.engine).collect();
        assert!(used.len() >= 4, "LPT must spread across the fast cores");
        let (_, neon_load) = plan.class_load_cycles();
        assert!(plan.makespan_cycles() < neon_load);
    }

    #[test]
    fn empty_batches_plan_to_zero() {
        let plan = plan_mixed(&[], &|_| false);
        assert!(plan.placements.is_empty());
        assert_eq!(plan.makespan_cycles(), 0.0);
        assert_eq!(plan.class_load_cycles(), (0.0, 0.0));
    }

    #[test]
    fn slot_ties_break_to_the_lowest_index() {
        // Regression test for the `min_by` tie-break: one Neon group on an
        // idle machine sees four equally-idle equal-speed performance
        // cores (slots 0–3). `min_by` keeps the *last* minimum, so the
        // group used to land on slot 3; placement must be deterministic
        // and fill front-first.
        let cfg: AnyGemmConfig = GemmConfig::abt(16, 4, 8).into();
        let plan = plan_groups(&[(cfg, Backend::Neon, 100.0)], &model());
        assert_eq!(plan.placements[0].engine, 0);

        // Four equal groups fill slots 0..4 in order, not 3..=0 reversed.
        let groups: Vec<(AnyGemmConfig, Backend, f64)> =
            (0..4).map(|_| (cfg, Backend::Neon, 100.0)).collect();
        let plan = plan_groups(&groups, &model());
        let engines: Vec<usize> = plan.placements.iter().map(|p| p.engine).collect();
        assert_eq!(engines, vec![0, 1, 2, 3]);
    }

    #[test]
    fn saturated_sme_spills_marginal_groups_to_idle_cores() {
        // Six SME-provisional groups with near-SME Neon costs saturate the
        // two shared units; the private cores are idle. Spilling must
        // strictly lower the projected makespan and list the movers.
        let costs: Vec<GroupCost> = (0..6)
            .map(|i| GroupCost {
                config: GemmConfig::abt(32, 32, 8 * (i + 1)).into(),
                backend: Backend::Sme,
                cycles: 1000.0,
                alt_cycles: Some(1100.0),
            })
            .collect();
        let plan = plan_batch_placed(&costs, &model());
        assert!(
            plan.placement.makespan_cycles() < plan.isolated.makespan_cycles(),
            "placed {} must beat isolated {}",
            plan.placement.makespan_cycles(),
            plan.isolated.makespan_cycles()
        );
        assert!(!plan.rerouted.is_empty());
        let (sme_load, neon_load) = plan.placement.class_load_cycles();
        assert!(sme_load > 0.0, "SME keeps the rest");
        assert!(neon_load > 0.0, "some groups spilled");
    }

    #[test]
    fn unsaturated_sme_keeps_every_group() {
        // One SME group: the shared units are not the bottleneck relative
        // to flipping it onto Neon at a worse cost, so nothing moves and
        // the plans coincide.
        let costs = [GroupCost {
            config: GemmConfig::abt(64, 64, 64).into(),
            backend: Backend::Sme,
            cycles: 5000.0,
            alt_cycles: Some(20_000.0),
        }];
        let plan = plan_batch_placed(&costs, &model());
        assert_eq!(plan.placement, plan.isolated);
        assert!(plan.rerouted.is_empty());
        assert_eq!(plan.placement.placements[0].backend, Backend::Sme);
    }

    #[test]
    fn pinned_groups_never_move() {
        // alt_cycles = None marks a pinned group (Neon-routed, or a shape
        // Neon cannot compile): even under saturation it stays put.
        let costs: Vec<GroupCost> = (0..6)
            .map(|i| GroupCost {
                config: GemmConfig::abt(32, 32, 8 * (i + 1)).into(),
                backend: Backend::Sme,
                cycles: 1000.0,
                alt_cycles: None,
            })
            .collect();
        let plan = plan_batch_placed(&costs, &model());
        assert_eq!(plan.placement, plan.isolated);
        assert!(plan.rerouted.is_empty());
        assert!(plan
            .placement
            .placements
            .iter()
            .all(|p| p.backend == Backend::Sme));
    }

    #[test]
    fn marginal_groups_spill_first() {
        // Two spill candidates with different margins: the cheap-to-move
        // group (margin 10) must be accepted before the expensive one
        // (margin 5000) is even tried.
        let cheap: AnyGemmConfig = GemmConfig::abt(32, 32, 8).into();
        let dear: AnyGemmConfig = GemmConfig::abt(32, 32, 16).into();
        let costs = [
            GroupCost {
                config: dear,
                backend: Backend::Sme,
                cycles: 1000.0,
                alt_cycles: Some(6000.0),
            },
            GroupCost {
                config: cheap,
                backend: Backend::Sme,
                cycles: 1000.0,
                alt_cycles: Some(1010.0),
            },
            GroupCost {
                config: GemmConfig::abt(32, 32, 24).into(),
                backend: Backend::Sme,
                cycles: 1000.0,
                alt_cycles: None,
            },
        ];
        let plan = plan_batch_placed(&costs, &model());
        assert_eq!(plan.rerouted.first(), Some(&cheap));
        assert!(
            !plan.rerouted.contains(&dear),
            "the high-margin group should stay on SME"
        );
    }

    #[test]
    fn execution_order_runs_longest_sme_group_first() {
        let a: AnyGemmConfig = GemmConfig::abt(16, 4, 4).into();
        let b: AnyGemmConfig = GemmConfig::abt(32, 32, 8).into();
        let c: AnyGemmConfig = GemmConfig::abt(48, 48, 16).into();
        let plan = plan_pinned(&[
            (a, Backend::Neon, 9000.0),
            (b, Backend::Sme, 100.0),
            (c, Backend::Sme, 800.0),
        ]);
        // SME groups first (longest first), Neon last even though it is
        // the longest group overall.
        let priority = plan.execution_priority();
        assert!(priority[2] > priority[1] && priority[1] > priority[0]);
    }
}
