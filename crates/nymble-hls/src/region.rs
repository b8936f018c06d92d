//! Static region analysis over the compiled design (à la RealProbe).
//!
//! Walks the kernel IR in pre-order and extracts a hierarchical **region
//! tree**: kernel → loop nest → pipelined body / sequential section /
//! critical section / DMA transfer region. Each region is annotated with a
//! statically derived *profit* — its expected stall exposure, priced by the
//! static cost walker's symbolic mode (the walk behind [`crate::perf::model`])
//! — which the counter-selection optimizer in [`crate::probe`] trades
//! against the hardware cost of a per-region cycle counter.
//!
//! The tree is decodable: region ids are assigned in pre-order, every
//! region records its parent, and the labels form slash-separated paths
//! (`gemm/i/j`, `gemm/i/critical#0`, `gemm/preload:Ablk`), so a trace
//! consumer can reconstruct the call-tree nesting from the `.pcf`/`.row`
//! emission alone.

use crate::perf::{model_with_regions, pipeline_eligible, RegionProfit, Timing};
use nymble_ir::stmt::{Block, Stmt, Unroll};
use nymble_ir::Kernel;

/// What kind of IR construct a region corresponds to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionKind {
    /// The kernel body itself (always region id 0).
    Kernel,
    /// A non-unrolled loop whose body the scheduler pipelines.
    PipelinedLoop,
    /// A non-unrolled loop executed sequentially (contains an inner
    /// sequential region: loop, critical, barrier or DMA burst).
    SequentialLoop,
    /// A `critical` section (hardware-semaphore serialized).
    Critical,
    /// A `preload`/`write_back` DMA burst.
    Dma,
}

impl RegionKind {
    /// Stable lower-case name, as written into reports and `.pcf` labels.
    pub fn name(self) -> &'static str {
        match self {
            RegionKind::Kernel => "kernel",
            RegionKind::PipelinedLoop => "pipelined-loop",
            RegionKind::SequentialLoop => "sequential-loop",
            RegionKind::Critical => "critical",
            RegionKind::Dma => "dma",
        }
    }
}

/// One node of the region tree.
#[derive(Clone, Debug)]
pub struct Region {
    /// Pre-order id; 0 is always the kernel root.
    pub id: u16,
    /// Parent region id (`None` only for the root).
    pub parent: Option<u16>,
    /// Nesting depth (root = 0).
    pub depth: u32,
    /// IR construct this region wraps.
    pub kind: RegionKind,
    /// Slash-separated source path (`gemm/i/j`, `gemm/i/critical#0`).
    pub label: String,
    /// Statically derived stall exposure (all threads).
    pub profit: RegionProfit,
    /// Scalar selection score (see [`RegionProfit::score`]); when the
    /// analytic model cannot resolve the kernel's bounds this is a
    /// structural fallback that still decreases with nesting depth, so the
    /// optimizer's parent-before-child invariant holds either way.
    pub score: u64,
}

/// The hierarchical region tree of one compiled kernel.
#[derive(Clone, Debug)]
pub struct RegionTree {
    /// Regions in pre-order; `regions[0]` is the kernel root.
    pub regions: Vec<Region>,
    /// Whether profits came from the analytic model (`true`) or the
    /// structural depth fallback (`false`, e.g. scalar-argument bounds).
    pub analytic: bool,
}

/// Structural-fallback score: strictly decreasing with depth so ancestors
/// always outrank descendants, with plenty of headroom above any realistic
/// analytic score.
fn fallback_score(depth: u32) -> u64 {
    u64::MAX >> (2 * depth.min(30) + 1)
}

impl RegionTree {
    /// Extract the region tree of `kernel`, pricing profits under `p`
    /// (callers without a specific simulator configuration use
    /// [`Timing::default`], the defaults of `SimConfig`).
    pub fn build(kernel: &Kernel, p: &Timing) -> RegionTree {
        let priced = model_with_regions(kernel, p);
        let analytic = priced.is_some();
        let lookup = |s: &Stmt| -> RegionProfit {
            priced
                .as_ref()
                .and_then(|(_, m)| m.get(&(s as *const Stmt as usize)).copied())
                .unwrap_or_default()
        };

        let mut regions = Vec::new();
        let root_profit = match &priced {
            Some((m, _)) => RegionProfit {
                cycles: m.per_thread.iter().sum(),
                dram_bytes: m.dram_bytes,
                critical_cycles: m.critical_cycles,
                dma_cycles: m.dma_cycles,
            },
            None => RegionProfit::default(),
        };
        regions.push(Region {
            id: 0,
            parent: None,
            depth: 0,
            kind: RegionKind::Kernel,
            label: kernel.name.clone(),
            profit: root_profit,
            score: if analytic {
                root_profit.score(p.dram_bytes_per_cycle)
            } else {
                fallback_score(0)
            },
        });

        let mut w = Walker {
            kernel,
            bw: p.dram_bytes_per_cycle,
            analytic,
            regions,
            crit_seq: 0,
        };
        w.walk(&kernel.body, 0, 1, &kernel.name.clone(), &lookup);
        RegionTree {
            regions: w.regions,
            analytic,
        }
    }

    /// Number of regions (root included).
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True when only the root exists (straight-line kernel body).
    pub fn is_empty(&self) -> bool {
        self.regions.len() <= 1
    }

    /// The region with `id` (ids are dense pre-order indices).
    pub fn region(&self, id: u16) -> &Region {
        &self.regions[id as usize]
    }

    /// Direct children of `id`, in pre-order.
    pub fn children(&self, id: u16) -> impl Iterator<Item = &Region> {
        self.regions.iter().filter(move |r| r.parent == Some(id))
    }
}

struct Walker<'k> {
    kernel: &'k Kernel,
    bw: u32,
    analytic: bool,
    regions: Vec<Region>,
    /// Kernel-wide ordinal for critical sections (labels stay unique even
    /// when several criticals share one parent).
    crit_seq: u32,
}

impl Walker<'_> {
    fn push(
        &mut self,
        parent: u16,
        depth: u32,
        kind: RegionKind,
        label: String,
        profit: RegionProfit,
    ) -> u16 {
        let id = u16::try_from(self.regions.len()).expect("more than 65535 regions");
        let score = if self.analytic {
            profit.score(self.bw)
        } else {
            fallback_score(depth)
        };
        self.regions.push(Region {
            id,
            parent: Some(parent),
            depth,
            kind,
            label,
            profit,
            score,
        });
        id
    }

    fn walk(
        &mut self,
        block: &Block,
        parent: u16,
        depth: u32,
        path: &str,
        lookup: &dyn Fn(&Stmt) -> RegionProfit,
    ) {
        for s in block {
            match s {
                Stmt::For {
                    var, body, unroll, ..
                } => {
                    if *unroll == Unroll::Full {
                        // Unrolled loops dissolve into the parent's
                        // dataflow graph: no standalone hardware region.
                        continue;
                    }
                    let kind = if pipeline_eligible(body) {
                        RegionKind::PipelinedLoop
                    } else {
                        RegionKind::SequentialLoop
                    };
                    let label = format!("{path}/{}", self.kernel.var(*var).name);
                    let id = self.push(parent, depth, kind, label.clone(), lookup(s));
                    // A pipelined body is a leaf: its statements execute as
                    // one overlapped schedule, not as nested regions.
                    if kind == RegionKind::SequentialLoop {
                        self.walk(body, id, depth + 1, &label, lookup);
                    }
                }
                Stmt::Critical { body } => {
                    let label = format!("{path}/critical#{}", self.crit_seq);
                    self.crit_seq += 1;
                    let id = self.push(
                        parent,
                        depth,
                        RegionKind::Critical,
                        label.clone(),
                        lookup(s),
                    );
                    self.walk(body, id, depth + 1, &label, lookup);
                }
                Stmt::Preload { mem, .. } => {
                    let name = &self.kernel.local_mem(*mem).name;
                    let label = format!("{path}/preload:{name}");
                    self.push(parent, depth, RegionKind::Dma, label, lookup(s));
                }
                Stmt::WriteBack { mem, .. } => {
                    let name = &self.kernel.local_mem(*mem).name;
                    let label = format!("{path}/writeback:{name}");
                    self.push(parent, depth, RegionKind::Dma, label, lookup(s));
                }
                Stmt::If { then_b, else_b, .. } => {
                    // Branches are control flow, not regions; nested
                    // region-forming statements attach to the parent.
                    self.walk(then_b, parent, depth, path, lookup);
                    self.walk(else_b, parent, depth, path, lookup);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymble_ir::{KernelBuilder, MapDir, ScalarType, Type};

    fn nest_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("nest", 2);
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

    #[test]
    fn tree_shape_and_labels() {
        let k = nest_kernel();
        let t = RegionTree::build(&k, &Timing::default());
        assert!(t.analytic);
        let labels: Vec<&str> = t.regions.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["nest", "nest/i", "nest/i/j", "nest/i/critical#0"]);
        assert_eq!(t.region(0).kind, RegionKind::Kernel);
        assert_eq!(t.region(1).kind, RegionKind::SequentialLoop);
        assert_eq!(t.region(2).kind, RegionKind::PipelinedLoop);
        assert_eq!(t.region(3).kind, RegionKind::Critical);
        assert_eq!(t.region(2).parent, Some(1));
        assert_eq!(t.region(3).parent, Some(1));
        assert_eq!(t.children(1).count(), 2);
    }

    #[test]
    fn scores_decrease_down_the_tree() {
        let k = nest_kernel();
        let t = RegionTree::build(&k, &Timing::default());
        for r in &t.regions {
            if let Some(p) = r.parent {
                assert!(
                    t.region(p).score >= r.score,
                    "parent {} ({}) must outrank child {} ({})",
                    t.region(p).label,
                    t.region(p).score,
                    r.label,
                    r.score
                );
            }
        }
        assert!(t.region(3).profit.critical_cycles > 0);
    }

    #[test]
    fn unresolvable_bounds_fall_back_to_structural_scores() {
        let mut kb = KernelBuilder::new("dyn", 1);
        let n = kb.scalar_arg("N", ScalarType::I64);
        let bound = kb.arg(n);
        kb.for_range("i", bound, |kb, _i| {
            kb.critical(|_| {});
        });
        let k = kb.finish();
        let t = RegionTree::build(&k, &Timing::default());
        assert!(!t.analytic);
        assert_eq!(t.len(), 3);
        // Structural fallback still orders ancestors above descendants.
        assert!(t.region(0).score > t.region(1).score);
        assert!(t.region(1).score > t.region(2).score);
    }

    #[test]
    fn unrolled_loops_and_straight_line_bodies_form_no_regions() {
        let mut kb = KernelBuilder::new("flat", 1);
        let x = kb.var("x", Type::I32);
        let zero = kb.c_i64(0);
        let four = kb.c_i64(4);
        let one = kb.c_i64(1);
        kb.for_unrolled("v", zero, four, one, |kb, v| {
            let c = kb.cast(ScalarType::I32, v);
            let cur = kb.get(x);
            let s = kb.add(cur, c);
            kb.set(x, s);
        });
        let k = kb.finish();
        let t = RegionTree::build(&k, &Timing::default());
        assert!(t.is_empty(), "only the kernel root: {:?}", t.regions);
    }

    #[test]
    fn dma_bursts_become_leaf_regions() {
        let mut kb = KernelBuilder::new("dma", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let o = kb.buffer("O", ScalarType::F32, MapDir::From);
        let buf = kb.local_mem("Ablk", Type::F32, 16);
        let zero = kb.c_i64(0);
        let len = kb.c_i64(16);
        kb.preload(buf, a, zero, zero, len);
        let n = kb.c_i64(16);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load_local(buf, i, Type::F32);
            kb.store_local(buf, i, v);
        });
        kb.write_back(buf, o, zero, zero, len);
        let k = kb.finish();
        let t = RegionTree::build(&k, &Timing::default());
        let labels: Vec<&str> = t.regions.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            ["dma", "dma/preload:Ablk", "dma/i", "dma/writeback:Ablk"]
        );
        assert_eq!(t.region(1).kind, RegionKind::Dma);
        assert_eq!(t.region(3).kind, RegionKind::Dma);
    }
}
