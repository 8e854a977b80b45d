//! Register-blocking strategies and block plans.
//!
//! The ZA array holds four 16×16 FP32 tiles, which the generator can arrange
//! as a 32×32, 16×64 or 64×16 accumulator block (§IV-B). A [`BlockPlan`]
//! covers the M×N iteration space of one GEMM with a set of
//! [`BlockInstance`]s, mixing strategies so that fewer microkernel
//! executions (and fewer A/B loads) are needed than with a single
//! homogeneous blocking — the Fig. 7 example needs seven heterogeneous
//! executions instead of nine to ten homogeneous ones.

use crate::config::{BLayout, Backend, GemmConfig, KernelSchedule, ZaTransferStrategy};
use serde::{Deserialize, Serialize};

/// Width/height of one ZA tile in FP32 elements on an SVL-512 machine.
pub const TILE: usize = 16;

/// One of the three register-blocking strategies of §IV-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegisterBlocking {
    /// 32×32 accumulator: 2×2 tiles, 64 A/B values loaded per update.
    B32x32,
    /// 16×64 accumulator: 1×4 tiles, 80 A/B values loaded per update.
    B16x64,
    /// 64×16 accumulator: 4×1 tiles, 80 A/B values loaded per update.
    B64x16,
}

impl RegisterBlocking {
    /// Accumulator rows (the M extent of the block).
    pub const fn rows(self) -> usize {
        match self {
            RegisterBlocking::B32x32 => 32,
            RegisterBlocking::B16x64 => 16,
            RegisterBlocking::B64x16 => 64,
        }
    }

    /// Accumulator columns (the N extent of the block).
    pub const fn cols(self) -> usize {
        match self {
            RegisterBlocking::B32x32 => 32,
            RegisterBlocking::B16x64 => 64,
            RegisterBlocking::B64x16 => 16,
        }
    }

    /// Number of 16-row groups (vectors of A loaded per k step).
    pub const fn row_groups(self) -> usize {
        self.rows() / TILE
    }

    /// Number of 16-column groups (vectors of B loaded per k step).
    pub const fn col_groups(self) -> usize {
        self.cols() / TILE
    }

    /// A and B elements loaded per accumulator update (the paper quotes 64
    /// for the 32×32 blocking and 80 for the other two).
    pub const fn loads_per_update(self) -> usize {
        self.rows() + self.cols()
    }

    /// ZA tile index used for row group `rg` and column group `cg`.
    ///
    /// The mapping follows Lst. 4: tiles are numbered down the rows first,
    /// then across the column groups, so that the tiles of one column group
    /// are consecutive (which lets the direct `ldr za`/`str za` transfer use
    /// its paired vector-index/address offset).
    pub fn tile_index(self, rg: usize, cg: usize) -> u8 {
        assert!(
            rg < self.row_groups(),
            "row group {rg} out of range for {self:?}"
        );
        assert!(
            cg < self.col_groups(),
            "column group {cg} out of range for {self:?}"
        );
        (cg * self.row_groups() + rg) as u8
    }

    /// All three strategies.
    pub const fn all() -> [RegisterBlocking; 3] {
        [
            RegisterBlocking::B32x32,
            RegisterBlocking::B16x64,
            RegisterBlocking::B64x16,
        ]
    }
}

/// One microkernel execution: a rectangle of C computed with one register
/// blocking (possibly masked when `rows`/`cols` are smaller than the
/// blocking's extent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockInstance {
    /// First row of C covered.
    pub row0: usize,
    /// First column of C covered.
    pub col0: usize,
    /// Rows actually computed (≤ `blocking.rows()`).
    pub rows: usize,
    /// Columns actually computed (≤ `blocking.cols()`).
    pub cols: usize,
    /// Register blocking used.
    pub blocking: RegisterBlocking,
}

impl BlockInstance {
    /// `true` if the block uses the blocking's full extent (no masking).
    pub fn is_full(&self) -> bool {
        self.rows == self.blocking.rows() && self.cols == self.blocking.cols()
    }

    /// Row groups actually touched (masked blocks may use fewer).
    pub fn active_row_groups(&self) -> usize {
        self.rows.div_ceil(TILE)
    }

    /// Column groups actually touched.
    pub fn active_col_groups(&self) -> usize {
        self.cols.div_ceil(TILE)
    }

    /// A and B elements loaded per k step for this block.
    pub fn loads_per_update(&self) -> usize {
        self.active_row_groups() * TILE + self.active_col_groups() * TILE
    }
}

/// A complete tiling of the M×N iteration space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockPlan {
    /// Problem rows.
    pub m: usize,
    /// Problem columns.
    pub n: usize,
    /// Microkernel executions in generation order.
    pub blocks: Vec<BlockInstance>,
}

impl BlockPlan {
    /// Number of microkernel executions.
    pub fn num_microkernels(&self) -> usize {
        self.blocks.len()
    }

    /// Total A/B elements loaded per contraction step, summed over blocks —
    /// the quantity the heterogeneous blocking minimises.
    pub fn loads_per_k_step(&self) -> usize {
        self.blocks.iter().map(|b| b.loads_per_update()).sum()
    }

    /// Verify that the plan covers every element of C exactly once.
    pub fn covers_exactly_once(&self) -> bool {
        let mut hit = vec![0u8; self.m * self.n];
        for b in &self.blocks {
            for c in b.col0..b.col0 + b.cols {
                for r in b.row0..b.row0 + b.rows {
                    if r >= self.m || c >= self.n {
                        return false;
                    }
                    hit[c * self.m + r] += 1;
                }
            }
        }
        hit.iter().all(|&h| h == 1)
    }

    /// Breakdown of block counts per strategy.
    pub fn strategy_histogram(&self) -> [(RegisterBlocking, usize); 3] {
        let mut out = [
            (RegisterBlocking::B32x32, 0),
            (RegisterBlocking::B16x64, 0),
            (RegisterBlocking::B64x16, 0),
        ];
        for b in &self.blocks {
            for entry in out.iter_mut() {
                if entry.0 == b.blocking {
                    entry.1 += 1;
                }
            }
        }
        out
    }
}

/// Build the heterogeneous plan of §IV-B for an `m × n` output.
///
/// The bulk of the matrix is covered with 32×32 blocks; a bottom strip of at
/// most 16 rows uses 16×64 blocks, a right strip of at most 16 columns uses
/// 64×16 blocks, and the corner uses a single masked block. Remainders
/// larger than 16 fall back to masked 32×32 blocks.
pub fn plan_heterogeneous(m: usize, n: usize) -> BlockPlan {
    let mut blocks = Vec::new();

    // Split each dimension into a "main" part covered by 32-wide blocks and
    // a remainder handled by the thin strategies (only when ≤ 16).
    let (m_main, m_rem) = split_main(m);
    let (n_main, n_rem) = split_main(n);

    // Main region: 32×32 blocks (masked at the main-region edge when the
    // remainder was folded into a 17–31 wide last block).
    for col0 in (0..n_main).step_by(32) {
        let cols = 32.min(n_main - col0);
        for row0 in (0..m_main).step_by(32) {
            let rows = 32.min(m_main - row0);
            blocks.push(BlockInstance {
                row0,
                col0,
                rows,
                cols,
                blocking: RegisterBlocking::B32x32,
            });
        }
    }

    // Bottom strip (≤ 16 rows): 16×64 blocks across the main columns.
    if m_rem > 0 {
        for col0 in (0..n_main).step_by(64) {
            let cols = 64.min(n_main - col0);
            blocks.push(BlockInstance {
                row0: m_main,
                col0,
                rows: m_rem,
                cols,
                blocking: RegisterBlocking::B16x64,
            });
        }
    }

    // Right strip (≤ 16 columns): 64×16 blocks down the main rows.
    if n_rem > 0 {
        for row0 in (0..m_main).step_by(64) {
            let rows = 64.min(m_main - row0);
            blocks.push(BlockInstance {
                row0,
                col0: n_main,
                rows,
                cols: n_rem,
                blocking: RegisterBlocking::B64x16,
            });
        }
    }

    // Corner (≤ 16 × ≤ 16): one heavily masked 64×16 block, as in Fig. 7.
    if m_rem > 0 && n_rem > 0 {
        blocks.push(BlockInstance {
            row0: m_main,
            col0: n_main,
            rows: m_rem,
            cols: n_rem,
            blocking: RegisterBlocking::B64x16,
        });
    }

    BlockPlan { m, n, blocks }
}

/// Split a dimension into a part covered by 32-wide blocks and a thin
/// remainder (≤ 16) handled by the 16-wide strategies. Remainders of 17–31
/// are folded into the last (masked) 32-wide block.
fn split_main(extent: usize) -> (usize, usize) {
    let rem = extent % 32;
    if rem == 0 || extent < 32 {
        if extent < 32 && extent > 16 {
            // A single masked 32-wide block covers 17..31.
            (extent, 0)
        } else if extent <= 16 && extent > 0 {
            (0, extent)
        } else {
            (extent, 0)
        }
    } else if rem <= 16 {
        (extent - rem, rem)
    } else {
        // 17..=31: cover with a masked 32×32 block instead of two thin ones.
        (extent, 0)
    }
}

/// Build a homogeneous plan that uses a single strategy everywhere (masked
/// at the edges) — the left-hand side of Fig. 7, used as the ablation
/// baseline.
pub fn plan_homogeneous(m: usize, n: usize, blocking: RegisterBlocking) -> BlockPlan {
    let mut blocks = Vec::new();
    for col0 in (0..n).step_by(blocking.cols()) {
        let cols = blocking.cols().min(n - col0);
        for row0 in (0..m).step_by(blocking.rows()) {
            let rows = blocking.rows().min(m - row0);
            blocks.push(BlockInstance {
                row0,
                col0,
                rows,
                cols,
                blocking,
            });
        }
    }
    BlockPlan { m, n, blocks }
}

/// Plan used when B is column-major and must be transposed panel by panel:
/// the N dimension is processed in panels of at most 32 columns (the width
/// of one transposed scratch panel, §IV-C), and within each panel the rows
/// are covered by (possibly masked) 32×32 blocks.
pub fn plan_column_panels(m: usize, n: usize) -> Vec<(usize, usize, BlockPlan)> {
    let mut panels = Vec::new();
    for col0 in (0..n).step_by(32) {
        let cols = 32.min(n - col0);
        let mut plan = plan_heterogeneous(m, cols);
        // Shift the panel-local plan to the panel's absolute columns.
        for b in &mut plan.blocks {
            b.col0 += col0;
        }
        plan.n = n;
        panels.push((col0, cols, plan));
    }
    panels
}

/// Identifier of one block-plan shape — the part of a tuning candidate that
/// selects how the M×N iteration space is tiled.
///
/// Unlike a concrete [`BlockPlan`], a `PlanKind` is a small copyable token
/// that can be persisted (the autotuner's plan store records kinds, not
/// block lists) and re-expanded deterministically with [`PlanKind::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlanKind {
    /// The default heterogeneous plan of §IV-B (Fig. 7).
    Heterogeneous,
    /// A homogeneous plan using a single register blocking everywhere.
    Homogeneous(RegisterBlocking),
    /// The panel-wise plan used for column-major B (§IV-C): 32-column
    /// panels, each tiled heterogeneously.
    ColumnPanels,
}

impl PlanKind {
    /// Expand the kind into a concrete plan for an `m × n` output.
    pub fn build(self, m: usize, n: usize) -> BlockPlan {
        match self {
            PlanKind::Heterogeneous => plan_heterogeneous(m, n),
            PlanKind::Homogeneous(blocking) => plan_homogeneous(m, n, blocking),
            PlanKind::ColumnPanels => {
                let mut blocks = Vec::new();
                for (_, _, panel_plan) in plan_column_panels(m, n) {
                    blocks.extend(panel_plan.blocks);
                }
                BlockPlan { m, n, blocks }
            }
        }
    }

    /// Stable textual name (used by the plan store's JSON format).
    pub fn name(self) -> &'static str {
        match self {
            PlanKind::Heterogeneous => "Heterogeneous",
            PlanKind::Homogeneous(RegisterBlocking::B32x32) => "Homogeneous32x32",
            PlanKind::Homogeneous(RegisterBlocking::B16x64) => "Homogeneous16x64",
            PlanKind::Homogeneous(RegisterBlocking::B64x16) => "Homogeneous64x16",
            PlanKind::ColumnPanels => "ColumnPanels",
        }
    }

    /// Inverse of [`PlanKind::name`].
    pub fn from_name(name: &str) -> Option<PlanKind> {
        match name {
            "Heterogeneous" => Some(PlanKind::Heterogeneous),
            "Homogeneous32x32" => Some(PlanKind::Homogeneous(RegisterBlocking::B32x32)),
            "Homogeneous16x64" => Some(PlanKind::Homogeneous(RegisterBlocking::B16x64)),
            "Homogeneous64x16" => Some(PlanKind::Homogeneous(RegisterBlocking::B64x16)),
            "ColumnPanels" => Some(PlanKind::ColumnPanels),
            _ => None,
        }
    }

    /// The kind the generator picks by default for a configuration.
    pub fn default_for(cfg: &GemmConfig) -> PlanKind {
        match cfg.b_layout {
            BLayout::RowMajor => PlanKind::Heterogeneous,
            BLayout::ColMajor => PlanKind::ColumnPanels,
        }
    }
}

/// One autotuning candidate: the execution backend, a block-plan shape and
/// the code-generation knobs the tuner may vary ([`ZaTransferStrategy`] and
/// the contraction-loop unroll factor).
///
/// The plan kind and knobs only steer SME code generation; a
/// [`Backend::Neon`] candidate carries the configuration's own knob values
/// (the Neon generator's 16×4 blocking is fixed), so exactly one Neon
/// candidate exists per configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlanCandidate {
    /// Which engine executes the kernel.
    pub backend: Backend,
    /// How the M×N iteration space is tiled (SME only).
    pub kind: PlanKind,
    /// How C blocks move between memory and the ZA array (SME only).
    pub c_transfer: ZaTransferStrategy,
    /// Contraction-loop unroll factor (1, 2 or 4; SME only).
    pub k_unroll: usize,
    /// Instruction schedule of the block sequence (SME only).
    pub schedule: KernelSchedule,
}

impl PlanCandidate {
    /// The candidate the generator would use for `cfg` with no tuning: the
    /// SME backend with the layout's default plan kind and the
    /// configuration's own knobs.
    pub fn default_for(cfg: &GemmConfig) -> PlanCandidate {
        PlanCandidate {
            backend: Backend::Sme,
            kind: PlanKind::default_for(cfg),
            c_transfer: cfg.c_transfer,
            k_unroll: cfg.k_unroll,
            schedule: cfg.schedule,
        }
    }

    /// The single Neon candidate for `cfg`, if the Neon generator supports
    /// the configuration (see [`crate::neon::neon_supports`]).
    pub fn neon_for(cfg: &GemmConfig) -> Option<PlanCandidate> {
        crate::neon::neon_supports(cfg).ok()?;
        Some(PlanCandidate {
            backend: Backend::Neon,
            ..PlanCandidate::default_for(cfg)
        })
    }

    /// Rewrite `cfg` with this candidate's code-generation knobs (the plan
    /// kind is applied separately, through the generator's plan override).
    pub fn apply(&self, cfg: &GemmConfig) -> GemmConfig {
        cfg.with_c_transfer(self.c_transfer)
            .with_k_unroll(self.k_unroll)
            .with_schedule(self.schedule)
    }
}

/// Enumerate the tuning candidates for a configuration.
///
/// The SME candidates are the cross product of plan kinds, ZA transfer
/// strategies and unroll factors valid for `cfg`:
///
/// * row-major B: the heterogeneous plan and all three homogeneous plans;
/// * column-major B: only [`PlanKind::ColumnPanels`] — the in-kernel
///   transposition requires the panel-wise plan, and
///   [`crate::generate_with_plan`] rejects overrides for this layout;
/// * both [`ZaTransferStrategy`] variants;
/// * unroll factors from {1, 2, 4} that divide `k` (the generator falls
///   back to unroll 1 for non-dividing factors, so enumerating them would
///   only duplicate the unroll-1 candidate).
///
/// When the Neon generator supports `cfg`, the single [`Backend::Neon`]
/// candidate is appended, so a tuner scoring this list compares across
/// engines (the Fig. 1 crossover).
///
/// The list always contains [`PlanCandidate::default_for`]`(cfg)`, so an
/// argmin over the candidates' scores can never be worse than the default.
pub fn enumerate_candidates(cfg: &GemmConfig) -> Vec<PlanCandidate> {
    let kinds: Vec<PlanKind> = match cfg.b_layout {
        BLayout::RowMajor => vec![
            PlanKind::Heterogeneous,
            PlanKind::Homogeneous(RegisterBlocking::B32x32),
            PlanKind::Homogeneous(RegisterBlocking::B16x64),
            PlanKind::Homogeneous(RegisterBlocking::B64x16),
        ],
        BLayout::ColMajor => vec![PlanKind::ColumnPanels],
    };
    let transfers = [ZaTransferStrategy::TwoStep, ZaTransferStrategy::Direct];
    let mut candidates = Vec::new();
    for &kind in &kinds {
        for &c_transfer in &transfers {
            for k_unroll in [1usize, 2, 4] {
                // Skip unrolls that do not divide k — the generator falls
                // back to unroll 1 for those, so they would duplicate the
                // unroll-1 candidate — but never drop the configuration's
                // own setting (so the default candidate is always present).
                if !cfg.k.is_multiple_of(k_unroll) && k_unroll != cfg.k_unroll {
                    continue;
                }
                candidates.push(PlanCandidate {
                    backend: Backend::Sme,
                    kind,
                    c_transfer,
                    k_unroll,
                    schedule: KernelSchedule::Serial,
                });
                // The pipelined schedule pairs with unroll 1 only: its
                // rotated loop body already interleaves two contraction
                // steps per trip.
                if k_unroll == 1 && pipeline_supported(cfg) {
                    candidates.push(PlanCandidate {
                        backend: Backend::Sme,
                        kind,
                        c_transfer,
                        k_unroll,
                        schedule: KernelSchedule::Pipelined,
                    });
                }
            }
        }
    }
    // A configuration may carry a schedule the support gate rejects (the
    // generator falls back to serial emission for it); keep the default
    // candidate present regardless, mirroring the unroll handling above.
    let default = PlanCandidate::default_for(cfg);
    if !candidates.contains(&default) {
        candidates.insert(0, default);
    }
    candidates.extend(PlanCandidate::neon_for(cfg));
    debug_assert!(candidates.contains(&PlanCandidate::default_for(cfg)));
    candidates
}

/// `true` if the generator can emit the software-pipelined schedule for
/// `cfg`: row-major B (the column-panel transpose path keeps its serial
/// schedule) and an even contraction depth, which the rotated two-step
/// loop body requires. The schedule additionally pairs with `k_unroll == 1`
/// only; [`enumerate_candidates`] enumerates it under unroll 1 and
/// [`crate::generate_with_plan`] falls back to serial emission elsewhere.
pub fn pipeline_supported(cfg: &GemmConfig) -> bool {
    cfg.b_layout == BLayout::RowMajor && cfg.k.is_multiple_of(2)
}

/// Analytic contraction-step cost of a plan, in performance-core cycles.
///
/// Per k step, every block issues one (possibly multi-vector) A load, one B
/// load and one FMOPA per active tile (Lst. 4). The load cost uses the
/// machine's calibrated per-strategy transfer rates — this is what makes
/// the pre-filter honest about the 4-register `ld1w` being ~1.8× faster
/// per element than the 2-register form, so a 64×16 blocking can beat a
/// 32×32 blocking despite loading more elements per step.
pub fn analytic_k_step_cycles(plan: &BlockPlan, machine: &sme_machine::MachineConfig) -> f64 {
    use sme_machine::OpKind;
    analytic_plan_step_cycles(
        plan,
        machine,
        machine.p_core.op(OpKind::SmeFmopaF32).interval(),
    )
}

/// Analytic contraction-**pair** cost of a widening plan, in
/// performance-core cycles — the BF16 twin of [`analytic_k_step_cycles`].
///
/// Per contraction pair every block issues one (possibly multi-vector)
/// packed-A load, one packed-B load and one widening BFMOPA per active
/// tile. The packed BF16 layout stores two elements per row and pair, so a
/// 16-lane group moves the same 64 bytes per load as in FP32 and the
/// shared load-cost model applies unchanged; only the outer-product issue
/// interval differs.
pub fn analytic_widening_k_pair_cycles(
    plan: &BlockPlan,
    machine: &sme_machine::MachineConfig,
) -> f64 {
    use sme_machine::OpKind;
    analytic_plan_step_cycles(
        plan,
        machine,
        machine.p_core.op(OpKind::SmeFmopaWide).interval(),
    )
}

/// Cycles one (possibly multi-vector) operand load spends moving `groups`
/// sixteen-lane vector groups of 64 bytes each: one load instruction
/// covers 1, 2 or 4 vectors (three groups round up to a four-register
/// load, mirroring the microkernel), at the machine's calibrated
/// per-strategy transfer rate. The packed BF16 pair layouts move the same
/// bytes per group, so the table serves both datatypes in the tuner's
/// analytic pre-filter.
pub fn group_load_cycles(groups: usize, machine: &sme_machine::MachineConfig) -> f64 {
    use sme_machine::OpKind;
    match groups {
        0 | 1 => 64.0 / machine.mem.rate(OpKind::LoadLd1Single),
        2 => 128.0 / machine.mem.rate(OpKind::LoadLd1Multi2),
        _ => 256.0 / machine.mem.rate(OpKind::LoadLd1Multi4),
    }
}

/// Shared core of the per-step plan costs: bandwidth-weighted operand
/// loads plus one outer product per active tile at `mopa_interval`.
fn analytic_plan_step_cycles(
    plan: &BlockPlan,
    machine: &sme_machine::MachineConfig,
    mopa_interval: f64,
) -> f64 {
    plan.blocks
        .iter()
        .map(|b| {
            group_load_cycles(b.active_row_groups(), machine)
                + group_load_cycles(b.active_col_groups(), machine)
                + (b.active_row_groups() * b.active_col_groups()) as f64 * mopa_interval
        })
        .sum()
}

/// Analytic pre-filter for tuning candidates: drop SME candidates whose
/// block plan is **dominated** within their knob group.
///
/// Timing-simulating a candidate costs orders of magnitude more than
/// expanding its plan, and for a fixed ZA-transfer strategy and unroll
/// factor the simulated cycle count grows with two quantities the plan
/// determines analytically: the per-contraction-step issue cost
/// ([`analytic_k_step_cycles`], covering loads-per-k-step weighted by the
/// load strategy's bandwidth plus the FMOPA issue slots) and the number of
/// microkernel executions ([`BlockPlan::num_microkernels`], each paying the
/// accumulator load/store and loop setup). A candidate that is no better
/// than another same-knob candidate on *both* metrics and strictly worse on
/// at least one therefore cannot win the argmin, and is pruned before
/// simulation. Costs are evaluated on the calibrated M4 model — the same
/// machine the tuner simulates on.
///
/// The default candidate and non-SME candidates are never pruned, so the
/// tuner's "never worse than the default" and cross-backend guarantees are
/// preserved.
pub fn prune_dominated_candidates(
    cfg: &GemmConfig,
    candidates: Vec<PlanCandidate>,
) -> Vec<PlanCandidate> {
    let machine = sme_machine::MachineConfig::default();
    prune_dominated_by(
        cfg.m,
        cfg.n,
        PlanCandidate::default_for(cfg),
        candidates,
        |plan| analytic_k_step_cycles(plan, &machine),
    )
}

/// Shared domination filter behind [`prune_dominated_candidates`] and
/// [`crate::widening::prune_dominated_widening_candidates`]: `step_cost`
/// supplies the datatype's per-contraction-step plan cost.
pub(crate) fn prune_dominated_by(
    m: usize,
    n: usize,
    default: PlanCandidate,
    candidates: Vec<PlanCandidate>,
    step_cost: impl Fn(&BlockPlan) -> f64,
) -> Vec<PlanCandidate> {
    let metrics: Vec<Option<(f64, usize)>> = candidates
        .iter()
        .map(|c| {
            (c.backend == Backend::Sme).then(|| {
                let plan = c.kind.build(m, n);
                (step_cost(&plan), plan.num_microkernels())
            })
        })
        .collect();
    candidates
        .iter()
        .enumerate()
        .filter(|(i, c)| {
            let Some((cost, microkernels)) = metrics[*i] else {
                return true; // non-SME candidates have no plan to compare
            };
            // Protect the default plan regardless of schedule: the analytic
            // cost model is schedule-blind, so a schedule twin of the default
            // must survive whenever the default does or the pre-filter would
            // hide pipelined wins from the timing sweep.
            let mut normalized = **c;
            normalized.schedule = default.schedule;
            if normalized == default {
                return true;
            }
            !candidates.iter().enumerate().any(|(j, other)| {
                j != *i
                    && other.backend == Backend::Sme
                    && other.c_transfer == c.c_transfer
                    && other.k_unroll == c.k_unroll
                    && other.schedule == c.schedule
                    && match metrics[j] {
                        Some((other_cost, other_microkernels)) => {
                            other_cost <= cost
                                && other_microkernels <= microkernels
                                && (other_cost < cost || other_microkernels < microkernels)
                        }
                        None => false,
                    }
            })
        })
        .map(|(_, c)| *c)
        .collect()
}

/// Pick the plan the generator uses for a configuration.
pub fn plan_for_config(cfg: &GemmConfig) -> BlockPlan {
    match cfg.b_layout {
        BLayout::RowMajor => plan_heterogeneous(cfg.m, cfg.n),
        BLayout::ColMajor => {
            let mut blocks = Vec::new();
            for (_, _, panel_plan) in plan_column_panels(cfg.m, cfg.n) {
                blocks.extend(panel_plan.blocks);
            }
            BlockPlan {
                m: cfg.m,
                n: cfg.n,
                blocks,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_geometry_matches_the_paper() {
        assert_eq!(RegisterBlocking::B32x32.loads_per_update(), 64);
        assert_eq!(RegisterBlocking::B16x64.loads_per_update(), 80);
        assert_eq!(RegisterBlocking::B64x16.loads_per_update(), 80);
        assert_eq!(RegisterBlocking::B32x32.row_groups(), 2);
        assert_eq!(RegisterBlocking::B32x32.col_groups(), 2);
        assert_eq!(RegisterBlocking::B16x64.col_groups(), 4);
        assert_eq!(RegisterBlocking::B64x16.row_groups(), 4);
    }

    #[test]
    fn tile_indices_are_consecutive_within_a_column_group() {
        let b = RegisterBlocking::B32x32;
        assert_eq!(b.tile_index(0, 0), 0);
        assert_eq!(b.tile_index(1, 0), 1);
        assert_eq!(b.tile_index(0, 1), 2);
        assert_eq!(b.tile_index(1, 1), 3);
        let b = RegisterBlocking::B64x16;
        assert_eq!(b.tile_index(3, 0), 3);
        let b = RegisterBlocking::B16x64;
        assert_eq!(b.tile_index(0, 3), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tile_index_bounds() {
        let _ = RegisterBlocking::B16x64.tile_index(1, 0);
    }

    #[test]
    fn figure_seven_example() {
        // M = N = 80: seven heterogeneous microkernel executions…
        let plan = plan_heterogeneous(80, 80);
        assert_eq!(plan.num_microkernels(), 7, "{:#?}", plan.blocks);
        assert!(plan.covers_exactly_once());
        let hist = plan.strategy_histogram();
        assert_eq!(hist[0], (RegisterBlocking::B32x32, 4));
        assert_eq!(hist[1], (RegisterBlocking::B16x64, 1));
        assert_eq!(hist[2], (RegisterBlocking::B64x16, 2));
        // …versus nine to ten with the homogeneous 32×32 blocking.
        let homogeneous = plan_homogeneous(80, 80, RegisterBlocking::B32x32);
        assert!(homogeneous.num_microkernels() >= 9);
        assert!(homogeneous.covers_exactly_once());
        assert!(plan.num_microkernels() < homogeneous.num_microkernels());
    }

    #[test]
    fn heterogeneous_plans_cover_every_size_exactly_once() {
        for m in [1, 5, 16, 17, 31, 32, 33, 48, 64, 80, 96, 100, 128, 130] {
            for n in [1, 7, 16, 20, 32, 40, 64, 80, 81, 96, 127, 128] {
                let plan = plan_heterogeneous(m, n);
                assert!(plan.covers_exactly_once(), "m={m} n={n}: {:?}", plan.blocks);
                // No block may be empty.
                assert!(plan.blocks.iter().all(|b| b.rows > 0 && b.cols > 0));
            }
        }
    }

    #[test]
    fn homogeneous_plans_cover_exactly_once() {
        for blocking in RegisterBlocking::all() {
            for (m, n) in [(80, 80), (33, 65), (16, 16), (130, 70)] {
                let plan = plan_homogeneous(m, n, blocking);
                assert!(plan.covers_exactly_once(), "{blocking:?} m={m} n={n}");
            }
        }
    }

    #[test]
    fn heterogeneous_never_needs_more_loads_than_homogeneous() {
        for (m, n) in [(80, 80), (96, 48), (64, 80), (112, 112), (48, 48)] {
            let het = plan_heterogeneous(m, n);
            let hom = plan_homogeneous(m, n, RegisterBlocking::B32x32);
            assert!(
                het.loads_per_k_step() <= hom.loads_per_k_step(),
                "m={m} n={n}: het {} hom {}",
                het.loads_per_k_step(),
                hom.loads_per_k_step()
            );
        }
    }

    #[test]
    fn column_panel_plans_are_32_wide_and_cover_everything() {
        let panels = plan_column_panels(100, 130);
        assert_eq!(panels.len(), 5);
        assert!(panels.iter().all(|(_, cols, _)| *cols <= 32));
        let mut blocks = Vec::new();
        for (_, _, p) in &panels {
            blocks.extend(p.blocks.clone());
        }
        let combined = BlockPlan {
            m: 100,
            n: 130,
            blocks,
        };
        assert!(combined.covers_exactly_once());
        // Every block stays within its panel.
        for (col0, cols, p) in &panels {
            for b in &p.blocks {
                assert!(b.col0 >= *col0 && b.col0 + b.cols <= col0 + cols);
            }
        }
    }

    #[test]
    fn config_plan_dispatches_on_layout() {
        let abt = plan_for_config(&GemmConfig::abt(80, 80, 8));
        assert_eq!(abt.num_microkernels(), 7);
        let ab = plan_for_config(&GemmConfig::ab(80, 80, 8));
        assert!(ab.covers_exactly_once());
        // Column panels: every block at most 32 columns wide.
        assert!(ab.blocks.iter().all(|b| b.cols <= 32));
    }

    #[test]
    fn masked_blocks_report_active_groups() {
        let b = BlockInstance {
            row0: 64,
            col0: 64,
            rows: 9,
            cols: 16,
            blocking: RegisterBlocking::B64x16,
        };
        assert!(!b.is_full());
        assert_eq!(b.active_row_groups(), 1);
        assert_eq!(b.active_col_groups(), 1);
        assert_eq!(b.loads_per_update(), 32);
    }

    #[test]
    fn plan_kinds_round_trip_names_and_build_valid_plans() {
        let kinds = [
            PlanKind::Heterogeneous,
            PlanKind::Homogeneous(RegisterBlocking::B32x32),
            PlanKind::Homogeneous(RegisterBlocking::B16x64),
            PlanKind::Homogeneous(RegisterBlocking::B64x16),
            PlanKind::ColumnPanels,
        ];
        for kind in kinds {
            assert_eq!(PlanKind::from_name(kind.name()), Some(kind));
            let plan = kind.build(80, 80);
            assert!(plan.covers_exactly_once(), "{kind:?}");
        }
        assert_eq!(PlanKind::from_name("NoSuchPlan"), None);
        assert_eq!(
            PlanKind::Heterogeneous.build(80, 80),
            plan_heterogeneous(80, 80)
        );
    }

    #[test]
    fn candidate_enumeration_covers_the_knob_space() {
        let abt = GemmConfig::abt(64, 64, 64);
        let candidates = enumerate_candidates(&abt);
        // 4 kinds × 2 transfers × 3 unrolls serial, plus a pipelined twin
        // of each unroll-1 candidate (4 kinds × 2 transfers; k = 64 is
        // even and B is row-major), plus the single Neon candidate
        // (64 % 16 == 0 and 64 % 4 == 0, so the Neon generator applies).
        assert_eq!(candidates.len(), 33);
        assert_eq!(
            candidates
                .iter()
                .filter(|c| c.schedule == KernelSchedule::Pipelined)
                .count(),
            8
        );
        assert!(candidates.contains(&PlanCandidate::default_for(&abt)));
        assert_eq!(
            candidates
                .iter()
                .filter(|c| c.backend == Backend::Neon)
                .count(),
            1
        );
        // All distinct.
        for (i, a) in candidates.iter().enumerate() {
            assert!(!candidates[i + 1..].contains(a));
        }

        // Column-major B: only the panel plan may be used, and the Neon
        // generator (row-major B only) contributes no candidate.
        let ab = GemmConfig::ab(64, 64, 64);
        let candidates = enumerate_candidates(&ab);
        assert_eq!(candidates.len(), 6);
        assert!(candidates.iter().all(|c| c.kind == PlanKind::ColumnPanels));
        assert!(candidates.iter().all(|c| c.backend == Backend::Sme));
        assert!(candidates.contains(&PlanCandidate::default_for(&ab)));

        // Ragged shapes are on the Neon grid too now (the single-lane
        // `ldr s`/`str s` tails made the Neon generator total over
        // row-major B), so they get a Neon candidate; column-major B is
        // still SME-only.
        let ragged = GemmConfig::abt(33, 47, 64);
        assert!(enumerate_candidates(&ragged)
            .iter()
            .any(|c| c.backend == Backend::Neon));
        assert!(PlanCandidate::neon_for(&ragged).is_some());
        assert_eq!(PlanCandidate::neon_for(&GemmConfig::ab(33, 47, 64)), None);

        // Non-dividing unrolls are dropped (they alias the unroll-1
        // kernel): k = 2 keeps {1, 2}, an odd k keeps only 1…
        let shallow = GemmConfig::abt(32, 32, 2);
        assert!(enumerate_candidates(&shallow)
            .iter()
            .all(|c| c.k_unroll <= 2));
        let odd = GemmConfig::abt(32, 32, 5);
        assert!(enumerate_candidates(&odd).iter().all(|c| c.k_unroll == 1));
        // …but never the configuration's own setting.
        let forced = GemmConfig::abt(32, 32, 2).with_k_unroll(4);
        assert!(enumerate_candidates(&forced).contains(&PlanCandidate::default_for(&forced)));
    }

    #[test]
    fn candidate_apply_rewrites_only_the_codegen_knobs() {
        let cfg = GemmConfig::abt(48, 48, 32);
        let candidate = PlanCandidate {
            backend: Backend::Sme,
            kind: PlanKind::Homogeneous(RegisterBlocking::B16x64),
            c_transfer: ZaTransferStrategy::Direct,
            k_unroll: 4,
            schedule: KernelSchedule::Serial,
        };
        let rewritten = candidate.apply(&cfg);
        assert_eq!(rewritten.c_transfer, ZaTransferStrategy::Direct);
        assert_eq!(rewritten.k_unroll, 4);
        assert_eq!((rewritten.m, rewritten.n, rewritten.k), (48, 48, 32));
        assert_eq!(rewritten.b_layout, cfg.b_layout);
    }

    #[test]
    fn dominated_candidates_are_pruned_but_default_and_neon_survive() {
        // 64×16 output: the B64x16 homogeneous plan covers it with one
        // unmasked block; B16x64 needs four heavily masked blocks and
        // B32x32 two — both dominated on analytic cost *and* microkernel
        // count, so they must be pruned.
        let cfg = GemmConfig::abt(64, 16, 32);
        let before = enumerate_candidates(&cfg);
        let after = prune_dominated_candidates(&cfg, before.clone());
        assert!(after.len() < before.len(), "something must be pruned");
        assert!(after.contains(&PlanCandidate::default_for(&cfg)));
        assert!(!after
            .iter()
            .any(|c| c.kind == PlanKind::Homogeneous(RegisterBlocking::B16x64)));
        // The sole Neon candidate is exempt from plan-based pruning.
        assert_eq!(
            before.iter().filter(|c| c.backend == Backend::Neon).count(),
            1
        );
        assert!(after.iter().any(|c| c.backend == Backend::Neon));
        // Pruning is per knob group: no surviving SME candidate is
        // dominated by another survivor with the same knobs.
        let machine = sme_machine::MachineConfig::default();
        for c in after.iter().filter(|c| c.backend == Backend::Sme) {
            let plan = c.kind.build(cfg.m, cfg.n);
            let (cost, mks) = (
                analytic_k_step_cycles(&plan, &machine),
                plan.num_microkernels(),
            );
            for other in after
                .iter()
                .filter(|o| *o != c && o.backend == Backend::Sme)
                .filter(|o| o.c_transfer == c.c_transfer && o.k_unroll == c.k_unroll)
            {
                let other_plan = other.kind.build(cfg.m, cfg.n);
                let (other_cost, other_mks) = (
                    analytic_k_step_cycles(&other_plan, &machine),
                    other_plan.num_microkernels(),
                );
                let dominated = other_cost <= cost
                    && other_mks <= mks
                    && (other_cost < cost || other_mks < mks);
                assert!(
                    !dominated || *c == PlanCandidate::default_for(&cfg),
                    "{c:?} is dominated by {other:?} but survived"
                );
            }
        }
    }

    #[test]
    fn small_sizes_use_single_masked_blocks() {
        let plan = plan_heterogeneous(10, 10);
        assert_eq!(plan.num_microkernels(), 1);
        assert!(plan.covers_exactly_once());
        let plan = plan_heterogeneous(20, 20);
        assert_eq!(
            plan.num_microkernels(),
            1,
            "17..31 folds into one masked 32x32 block"
        );
        assert!(plan.covers_exactly_once());
    }
}
