//! Budget-aware counter selection over the region tree (auto-probe).
//!
//! Solves the instrumentation plan for one compiled design as a
//! tree-knapsack: every candidate probe (the kernel-root cycle counter, one
//! module per event class, one cycle counter per source region) has a
//! hardware price, and the optimizer packs the highest-profit probes into a
//! user-given ALM budget. The nesting constraint — a child region's
//! counter is only selectable when its parent region is instrumented, so
//! the call-tree stays decodable — is enforced by construction: candidates
//! are ordered (tier, profit score desc, pre-order asc), region profits
//! are monotone along ancestor chains (see
//! [`crate::region::RegionTree`]), and selection takes a *prefix* of that
//! order, stopping at the first candidate the budget cannot afford. The
//! prefix rule also makes plans monotone across budgets: a smaller
//! budget's plan is always a subset of a larger one's.

use crate::cost::FitReport;
use crate::region::{RegionKind, RegionTree};

/// Default ALM budget of `--profile=auto` (about a third of the paper's
/// profiling-unit footprint class: room for the root counter, all six
/// event counters and a deep region hierarchy at 8 threads).
pub const DEFAULT_PROBE_BUDGET_ALMS: u32 = 2048;

/// How the profiling plan is chosen for a compile.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProbeMode {
    /// Hand-chosen fixed counter set (the paper's configuration, the repro
    /// binaries' `--profile=fixed` and their default); no plan is attached
    /// to the accelerator.
    #[default]
    Off,
    /// Derive the plan from the compiled design under an ALM budget
    /// (`--profile=auto[,budget=N]`).
    Auto {
        /// ALM budget for the probe hardware (counters only; the state
        /// tracker and flush engine are priced separately by
        /// `hls_profiling::overhead`).
        budget_alms: u32,
    },
}

impl ProbeMode {
    /// `Auto` with the default budget.
    pub fn auto() -> ProbeMode {
        ProbeMode::Auto {
            budget_alms: DEFAULT_PROBE_BUDGET_ALMS,
        }
    }
}

/// Per-counter hardware prices: what the optimizer budgets with, and the
/// counter component of the profiling unit's fit
/// (`hls_profiling::overhead::OverheadParams` embeds this struct).
#[derive(Clone, Debug)]
pub struct ProbeCostParams {
    /// Adder/valid-gating logic of one counter module.
    pub counter_alms_base: u32,
    /// Additional ALMs per thread source.
    pub counter_alms_per_thread: u32,
    /// Fixed registers of one counter module.
    pub counter_regs_base: u32,
    /// Aggregate registers per thread per counter.
    pub counter_regs_per_thread: u32,
}

impl Default for ProbeCostParams {
    fn default() -> Self {
        ProbeCostParams {
            counter_alms_base: 30,
            counter_alms_per_thread: 4,
            counter_regs_base: 20,
            counter_regs_per_thread: 12,
        }
    }
}

impl ProbeCostParams {
    /// ALMs of one counter module at `num_threads` sources.
    pub fn alms_per_counter(&self, num_threads: u32) -> u64 {
        self.counter_alms_base as u64 + self.counter_alms_per_thread as u64 * num_threads as u64
    }

    /// Registers of one counter module at `num_threads` sources.
    pub fn regs_per_counter(&self, num_threads: u32) -> u64 {
        self.counter_regs_base as u64 + self.counter_regs_per_thread as u64 * num_threads as u64
    }
}

/// One of the six event classes the paper's profiling unit counts, one
/// counter module each (§IV-B.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterClass {
    Stalls,
    IntOps,
    Flops,
    MemRead,
    MemWrite,
    LocalOps,
}

/// All event classes in selection priority order: stalls first (the
/// paper's central signal), then operation mix, then memory traffic.
pub const ALL_COUNTER_CLASSES: [CounterClass; 6] = [
    CounterClass::Stalls,
    CounterClass::IntOps,
    CounterClass::Flops,
    CounterClass::MemRead,
    CounterClass::MemWrite,
    CounterClass::LocalOps,
];

impl CounterClass {
    /// Stable lower-snake name (plan rendering, snapshot extras).
    pub fn name(self) -> &'static str {
        match self {
            CounterClass::Stalls => "stalls",
            CounterClass::IntOps => "int_ops",
            CounterClass::Flops => "flops",
            CounterClass::MemRead => "mem_read",
            CounterClass::MemWrite => "mem_write",
            CounterClass::LocalOps => "local_ops",
        }
    }
}

/// Which counter modules a profiling unit instantiates: a set of
/// [`CounterClass`]es, one bit each. The default is [`CounterSet::ALL`],
/// the paper's hand-chosen six; an auto-probe plan selects a prefix of
/// [`ALL_COUNTER_CLASSES`]. Iterates in that priority order.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CounterSet(u8);

impl CounterSet {
    /// No counter modules.
    pub const NONE: CounterSet = CounterSet(0);
    /// All six event classes.
    pub const ALL: CounterSet = CounterSet((1 << ALL_COUNTER_CLASSES.len()) - 1);

    /// This set plus `c`.
    pub const fn with(self, c: CounterClass) -> CounterSet {
        CounterSet(self.0 | 1 << c as u8)
    }

    /// True when `c` is instantiated (a mask test: the profiling unit asks
    /// this on every snooped signal).
    #[inline]
    pub const fn contains(self, c: CounterClass) -> bool {
        self.0 & (1 << c as u8) != 0
    }

    /// Number of instantiated counter modules.
    pub const fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// The classes in the set, in [`ALL_COUNTER_CLASSES`] order.
    pub fn iter(&self) -> CounterSetIter {
        let all: &'static [CounterClass] = &ALL_COUNTER_CLASSES;
        CounterSetIter {
            set: *self,
            rest: all.iter(),
        }
    }
}

/// Iterator over a [`CounterSet`]'s classes ([`CounterSet::iter`]).
pub struct CounterSetIter {
    set: CounterSet,
    rest: std::slice::Iter<'static, CounterClass>,
}

impl Iterator for CounterSetIter {
    type Item = &'static CounterClass;
    fn next(&mut self) -> Option<&'static CounterClass> {
        let set = self.set;
        self.rest.find(|&&c| set.contains(c))
    }
}

impl IntoIterator for &CounterSet {
    type Item = &'static CounterClass;
    type IntoIter = CounterSetIter;
    fn into_iter(self) -> CounterSetIter {
        self.iter()
    }
}

impl Default for CounterSet {
    fn default() -> Self {
        CounterSet::ALL
    }
}

impl std::fmt::Debug for CounterSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// One selected region probe (a flattened [`crate::region::Region`], kept
/// plan-local so a plan outlives the tree it was solved over).
#[derive(Clone, Debug)]
pub struct PlanRegion {
    /// Region id (pre-order over the region tree; 0 = kernel root).
    pub id: u16,
    /// Parent region id (`None` only for the root). Always itself selected.
    pub parent: Option<u16>,
    /// Nesting depth (root = 0).
    pub depth: u32,
    /// IR construct kind.
    pub kind: RegionKind,
    /// Slash-separated source path.
    pub label: String,
    /// Selection score the knapsack ranked this region by.
    pub score: u64,
}

/// The solved instrumentation plan of one compiled design.
#[derive(Clone, Debug)]
pub struct ProbePlan {
    /// The budget the plan was solved under.
    pub budget_alms: u32,
    /// Selected event-counter classes.
    pub counters: CounterSet,
    /// Selected regions in pre-order; the kernel root comes first whenever
    /// anything at all fits the budget.
    pub regions: Vec<PlanRegion>,
    /// Candidate regions the budget could not afford.
    pub skipped_regions: usize,
    /// Modeled ALMs of the selected probe hardware.
    pub cost_alms: u64,
    /// Modeled registers of the selected probe hardware.
    pub cost_regs: u64,
}

impl ProbePlan {
    /// True when `c` is a selected event class.
    pub fn has_counter(&self, c: CounterClass) -> bool {
        self.counters.contains(c)
    }

    /// True when every class of the hand-chosen default set is selected
    /// (the golden coverage criterion).
    pub fn covers_default_set(&self) -> bool {
        self.counters == CounterSet::ALL
    }

    /// The selected region with `id`, if any.
    pub fn region(&self, id: u16) -> Option<&PlanRegion> {
        self.regions.iter().find(|r| r.id == id)
    }

    /// Fit of the selected probe hardware alone (fmax is meaningless
    /// standalone and set to 0; combine with the design fit via
    /// [`FitReport::combine`] to re-derive it).
    pub fn fit(&self) -> FitReport {
        FitReport {
            alms: self.cost_alms,
            registers: self.cost_regs,
            dsps: 0,
            bram_kbits: 0,
            fmax_mhz: 0.0,
        }
    }

    /// Selected regions as (id, label) pairs for the Paraver `.pcf` event
    /// table (pre-order).
    pub fn pcf_regions(&self) -> Vec<(u16, String)> {
        self.regions
            .iter()
            .map(|r| (r.id, r.label.clone()))
            .collect()
    }

    /// Selected regions as (depth, label) pairs for the Paraver `.row`
    /// region hierarchy section (pre-order).
    pub fn row_regions(&self) -> Vec<(u32, String)> {
        self.regions
            .iter()
            .map(|r| (r.depth, r.label.clone()))
            .collect()
    }

    /// One-line summary for the repro binaries' stderr.
    pub fn summary(&self) -> String {
        format!(
            "auto-probe plan: {} event counters, {} regions ({} skipped), {} ALMs of {} budget",
            self.counters.count(),
            self.regions.len(),
            self.skipped_regions,
            self.cost_alms,
            self.budget_alms
        )
    }
}

/// Solve the budgeted plan for `tree`.
///
/// Candidates are priced uniformly (one counter module each) and ordered
/// in three tiers: the kernel-root cycle counter, then the six event
/// classes, then the remaining regions by (score desc, pre-order asc).
/// Selection is the longest affordable *prefix* of that order, which
/// yields both knapsack validity (ancestors precede descendants — region
/// scores are monotone along ancestor chains and ties break toward the
/// shallower pre-order index) and budget monotonicity (a smaller budget
/// selects a prefix of a larger budget's selection).
pub fn select(
    tree: &RegionTree,
    num_threads: u32,
    budget_alms: u32,
    params: &ProbeCostParams,
) -> ProbePlan {
    let alms_each = params.alms_per_counter(num_threads);
    let regs_each = params.regs_per_counter(num_threads);

    let mut region_order: Vec<&crate::region::Region> = tree.regions.iter().skip(1).collect();
    region_order.sort_by(|a, b| b.score.cmp(&a.score).then(a.id.cmp(&b.id)));

    let mut plan = ProbePlan {
        budget_alms,
        counters: CounterSet::NONE,
        regions: Vec::new(),
        skipped_regions: 0,
        cost_alms: 0,
        cost_regs: 0,
    };

    let afford = |plan: &mut ProbePlan| -> bool {
        if plan.cost_alms + alms_each > budget_alms as u64 {
            return false;
        }
        plan.cost_alms += alms_each;
        plan.cost_regs += regs_each;
        true
    };

    // Tier 0: the kernel-root cycle counter anchors the hierarchy.
    if !afford(&mut plan) {
        plan.skipped_regions = tree.regions.len();
        return plan;
    }
    let root = tree.region(0);
    plan.regions.push(PlanRegion {
        id: root.id,
        parent: root.parent,
        depth: root.depth,
        kind: root.kind,
        label: root.label.clone(),
        score: root.score,
    });

    // Tier 1: event-counter classes, fixed priority order.
    for &c in &ALL_COUNTER_CLASSES {
        if !afford(&mut plan) {
            plan.skipped_regions = region_order.len();
            return plan;
        }
        plan.counters = plan.counters.with(c);
    }

    // Tier 2: region cycle counters, highest profit first.
    for (i, r) in region_order.iter().enumerate() {
        if !afford(&mut plan) {
            plan.skipped_regions = region_order.len() - i;
            break;
        }
        plan.regions.push(PlanRegion {
            id: r.id,
            parent: r.parent,
            depth: r.depth,
            kind: r.kind,
            label: r.label.clone(),
            score: r.score,
        });
    }
    // Re-establish pre-order so downstream emission (`.pcf`, `.row`,
    // decode tables) iterates parents before children.
    plan.regions.sort_by_key(|r| r.id);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::Timing;
    use crate::region::RegionTree;
    use nymble_ir::{Kernel, KernelBuilder, MapDir, ScalarType, Type};

    fn nest_kernel(threads: u32) -> Kernel {
        let mut kb = KernelBuilder::new("nest", threads);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let c = kb.buffer("C", ScalarType::F32, MapDir::ToFrom);
        let acc = kb.var("acc", Type::F32);
        let rows = kb.c_i64(8);
        let cols = kb.c_i64(64);
        kb.for_range("i", rows, |kb, _i| {
            kb.for_range("j", cols, |kb, j| {
                let v = kb.load(a, j, Type::F32);
                let cur = kb.get(acc);
                let s = kb.add(cur, v);
                kb.set(acc, s);
            });
            kb.critical(|kb| {
                let zero = kb.c_i64(0);
                let cur = kb.load(c, zero, Type::F32);
                let mine = kb.get(acc);
                let s = kb.add(cur, mine);
                kb.store(c, zero, s);
            });
        });
        kb.finish()
    }

    fn tree(threads: u32) -> RegionTree {
        RegionTree::build(&nest_kernel(threads), &Timing::default())
    }

    #[test]
    fn counter_sets_iterate_in_priority_order() {
        assert_eq!(CounterSet::default(), CounterSet::ALL);
        assert_eq!(CounterSet::ALL.count(), 6);
        assert_eq!(CounterSet::NONE.count(), 0);
        let all: Vec<CounterClass> = CounterSet::ALL.iter().copied().collect();
        assert_eq!(all, ALL_COUNTER_CLASSES);
        let set = CounterSet::NONE
            .with(CounterClass::LocalOps)
            .with(CounterClass::Stalls);
        assert!(set.contains(CounterClass::Stalls) && !set.contains(CounterClass::Flops));
        assert_eq!(set.count(), 2);
        assert_eq!(format!("{set:?}"), "{Stalls, LocalOps}");
    }

    #[test]
    fn default_budget_selects_everything_on_small_designs() {
        let t = tree(2);
        let plan = select(
            &t,
            2,
            DEFAULT_PROBE_BUDGET_ALMS,
            &ProbeCostParams::default(),
        );
        assert!(plan.covers_default_set(), "{plan:?}");
        assert_eq!(plan.regions.len(), t.len());
        assert_eq!(plan.skipped_regions, 0);
        assert!(plan.cost_alms <= DEFAULT_PROBE_BUDGET_ALMS as u64);
        // 4 regions + 6 event counters, uniformly priced.
        let p = ProbeCostParams::default();
        assert_eq!(plan.cost_alms, 10 * p.alms_per_counter(2));
        assert_eq!(plan.cost_regs, 10 * p.regs_per_counter(2));
    }

    #[test]
    fn parents_always_selected_before_children() {
        let t = tree(4);
        let p = ProbeCostParams::default();
        let each = p.alms_per_counter(4);
        for budget in 0..=(12 * each as u32) {
            let plan = select(&t, 4, budget, &p);
            for r in &plan.regions {
                if let Some(parent) = r.parent {
                    assert!(
                        plan.region(parent).is_some(),
                        "budget {budget}: region {} selected without parent {parent}",
                        r.id
                    );
                }
            }
        }
    }

    #[test]
    fn plans_are_monotone_across_budgets() {
        let t = tree(4);
        let p = ProbeCostParams::default();
        let each = p.alms_per_counter(4) as u32;
        let mut prev: Option<ProbePlan> = None;
        for budget in (0..=12 * each).step_by(37) {
            let plan = select(&t, 4, budget, &p);
            if let Some(prev) = &prev {
                for c in &prev.counters {
                    assert!(plan.has_counter(*c), "budget {budget} lost counter {c:?}");
                }
                for r in &prev.regions {
                    assert!(
                        plan.region(r.id).is_some(),
                        "budget {budget} lost region {}",
                        r.id
                    );
                }
            }
            prev = Some(plan);
        }
    }

    #[test]
    fn tight_budget_prefers_root_then_stalls() {
        let t = tree(8);
        let p = ProbeCostParams::default();
        let each = p.alms_per_counter(8) as u32;
        // Exactly two counters' worth of budget: root + stalls.
        let plan = select(&t, 8, 2 * each, &p);
        assert_eq!(plan.regions.len(), 1);
        assert_eq!(plan.regions[0].id, 0);
        assert_eq!(plan.counters, CounterSet::NONE.with(CounterClass::Stalls));
        assert!(plan.skipped_regions > 0);
        // Zero budget: nothing at all.
        let empty = select(&t, 8, 0, &p);
        assert!(empty.regions.is_empty() && empty.counters == CounterSet::NONE);
        assert_eq!(empty.cost_alms, 0);
    }

    #[test]
    fn plan_fit_combines_into_the_design_fit() {
        let t = tree(2);
        let plan = select(
            &t,
            2,
            DEFAULT_PROBE_BUDGET_ALMS,
            &ProbeCostParams::default(),
        );
        let base = crate::compile(&nest_kernel(2), &crate::HlsConfig::default()).fit;
        let combined = base.combine(&plan.fit(), &crate::cost::CostParams::default());
        assert_eq!(combined.alms, base.alms + plan.cost_alms);
        assert!(combined.fmax_mhz <= base.fmax_mhz);
        let o = combined.overhead_vs(&base);
        assert!(o.alms_pct > 0.0 && o.alms_pct < 15.0, "{o:?}");
    }
}
