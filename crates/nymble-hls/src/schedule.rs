//! Resource-constrained list scheduling and stage formation.
//!
//! Produces, per loop body, the two numbers that drive the cycle-level
//! execution model — pipeline **depth** (latency of one iteration) and
//! **initiation interval** (cycles between successive iterations entering the
//! pipeline) — plus the stage structure the profiling unit snoops and the
//! cost model prices.
//!
//! The initiation interval is `max(1, II_resource, II_recurrence)`:
//!
//! * `II_resource` — steady-state port pressure: with one Avalon read port
//!   per thread, a body issuing R external reads per iteration cannot beat
//!   `II = R` (the reason the paper's *Partial Vectorization* step helps:
//!   one 128-bit read replaces four 32-bit reads).
//! * `II_recurrence` — loop-carried dependences: `sum += a[k]*b[k]` cannot
//!   start the next accumulation before the adder finishes, pinning
//!   `II >= latency(FAdd)`.

use crate::dfg::{Dfg, NodeId};
use crate::op::{OpClass, Resource};
use std::collections::HashMap;

/// Resource capacities visible to one hardware thread's pipeline.
#[derive(Clone, Copy, Debug)]
pub struct ResourceLimits {
    /// Avalon read ports per thread (paper: 1).
    pub mem_read_ports: u32,
    /// Avalon write ports per thread (paper: 1).
    pub mem_write_ports: u32,
    /// Local BRAM port pairs per thread.
    pub local_ports: u32,
}

impl Default for ResourceLimits {
    fn default() -> Self {
        ResourceLimits {
            mem_read_ports: 1,
            mem_write_ports: 1,
            local_ports: 2,
        }
    }
}

impl ResourceLimits {
    fn capacity(&self, r: Resource) -> Option<u32> {
        match r {
            Resource::MemRead => Some(self.mem_read_ports),
            Resource::MemWrite => Some(self.mem_write_ports),
            Resource::LocalPort => Some(self.local_ports),
            // Operators are spatially instantiated (one unit per node), so
            // compute pools do not constrain the II.
            Resource::Fpu | Resource::IntMulDiv | Resource::Logic => None,
        }
    }
}

/// One pipeline stage: the set of operations starting at the same cycle.
/// Nymble's controller "orchestrates the execution at the granularity of
/// stages" (§III-B); stages containing VLOs become *reordering* stages in
/// Nymble-MT (they must hold per-thread contexts).
#[derive(Clone, Debug)]
pub struct Stage {
    /// Start cycle of this stage within the iteration schedule.
    pub cycle: u32,
    /// Nodes issuing in this stage (indices into the DFG).
    pub ops: Vec<u32>,
    /// Stage contains a variable-latency operation.
    pub has_vlo: bool,
    /// Thread-reordering enabled for this stage (Nymble-MT enables it
    /// exactly for VLO stages, §III-B).
    pub reordering: bool,
    /// Number of live values crossing out of this stage (context width
    /// proxy for the cost model).
    pub live_values: u32,
}

/// Schedule of one loop (or region) body.
#[derive(Clone, Debug)]
pub struct LoopSchedule {
    /// Start cycle per node.
    pub start: Vec<u32>,
    /// Latency of one full iteration (cycles through all stages).
    pub depth: u32,
    /// Initiation interval between successive iterations.
    pub ii: u32,
    /// Iteration latency with inner-region (inner loop / critical / burst)
    /// nodes priced at zero — the outer loop's *own* per-iteration work,
    /// used by the executor for loops whose inner regions are timed
    /// dynamically.
    pub overhead_depth: u32,
    /// Stage structure.
    pub stages: Vec<Stage>,
    /// External reads/writes issued per iteration (requests).
    pub ext_reads_per_iter: u32,
    pub ext_writes_per_iter: u32,
    /// The recurrence-II component (for reports/ablation).
    pub ii_recurrence: u32,
    /// The resource-II component.
    pub ii_resource: u32,
}

impl LoopSchedule {
    /// Number of reordering stages (drives the Nymble-MT context cost).
    pub fn reordering_stages(&self) -> usize {
        self.stages.iter().filter(|s| s.reordering).count()
    }

    /// Pipelined execution time of `trip` iterations, ignoring stalls:
    /// `depth + (trip-1) * ii`.
    pub fn pipelined_cycles(&self, trip: u64) -> u64 {
        if trip == 0 {
            return 0;
        }
        self.depth as u64 + (trip - 1) * self.ii as u64
    }
}

/// Is this node an inner-region placeholder timed dynamically by the
/// executor rather than statically by this schedule?
fn is_region(op: OpClass) -> bool {
    matches!(
        op,
        OpClass::InnerLoop | OpClass::CriticalRegion | OpClass::Burst
    )
}

/// List-schedule a DFG.
pub fn schedule(dfg: &Dfg, limits: &ResourceLimits) -> LoopSchedule {
    let n = dfg.nodes.len();
    let mut start = vec![0u32; n];
    let mut finish = vec![0u32; n];
    // start time with region nodes priced at 0 (for overhead_depth).
    let mut start0 = vec![0u32; n];
    let mut finish0 = vec![0u32; n];
    // Port usage per (resource, cycle).
    let mut usage: HashMap<(Resource, u32), u32> = HashMap::new();
    let mut res_uses: HashMap<Resource, u32> = HashMap::new();
    let (mut reads, mut writes) = (0u32, 0u32);

    for (i, node) in dfg.nodes.iter().enumerate() {
        let ready = node
            .deps
            .iter()
            .map(|d| finish[d.0 as usize])
            .max()
            .unwrap_or(0);
        let ready0 = node
            .deps
            .iter()
            .map(|d| finish0[d.0 as usize])
            .max()
            .unwrap_or(0);
        let res = node.op.resource();
        let mut t = ready;
        if let Some(cap) = limits.capacity(res) {
            // Vector memory ops still occupy one port slot (wide transfer).
            while *usage.get(&(res, t)).unwrap_or(&0) >= cap {
                t += 1;
            }
            *usage.entry((res, t)).or_default() += 1;
            *res_uses.entry(res).or_default() += 1;
        }
        start[i] = t;
        finish[i] = t + node.op.latency();
        start0[i] = ready0;
        finish0[i] = ready0
            + if is_region(node.op) {
                0
            } else {
                node.op.latency()
            };
        match node.op {
            OpClass::ExtLoad => reads += 1,
            OpClass::ExtStore => writes += 1,
            _ => {}
        }
    }

    let depth = finish.iter().copied().max().unwrap_or(0);
    let overhead_depth = finish0.iter().copied().max().unwrap_or(0);

    // Resource II: steady-state pressure on the capped pools.
    let ii_resource = res_uses
        .iter()
        .filter_map(|(r, uses)| limits.capacity(*r).map(|cap| uses.div_ceil(cap)))
        .max()
        .unwrap_or(1)
        .max(1);

    // Recurrence II: distance-1 carried edges def→use.
    let ii_recurrence = dfg
        .carried
        .iter()
        .map(|(def, use_)| {
            let d = def.0 as usize;
            let u = use_.0 as usize;
            finish[d].saturating_sub(start[u])
        })
        .max()
        .unwrap_or(0)
        .max(1);

    let ii = ii_resource.max(ii_recurrence);

    // Stage formation: group by start cycle.
    let mut by_cycle: HashMap<u32, Vec<u32>> = HashMap::new();
    for (i, s) in start.iter().enumerate() {
        by_cycle.entry(*s).or_default().push(i as u32);
    }
    let mut cycles: Vec<u32> = by_cycle.keys().copied().collect();
    cycles.sort_unstable();
    let stages: Vec<Stage> = cycles
        .into_iter()
        .map(|cy| {
            let ops = {
                let mut o = by_cycle.remove(&cy).unwrap();
                o.sort_unstable();
                o
            };
            let has_vlo = ops.iter().any(|&i| dfg.nodes[i as usize].op.is_vlo());
            // Live values: nodes started at or before this stage whose
            // results are consumed strictly after it.
            let live = dfg
                .nodes
                .iter()
                .enumerate()
                .filter(|(i, _)| start[*i] <= cy)
                .filter(|(i, _)| {
                    dfg.nodes
                        .iter()
                        .enumerate()
                        .any(|(j, nj)| start[j] > cy && nj.deps.contains(&NodeId(*i as u32)))
                })
                .count() as u32;
            Stage {
                cycle: cy,
                ops,
                has_vlo,
                reordering: has_vlo,
                live_values: live,
            }
        })
        .collect();

    LoopSchedule {
        start,
        depth,
        ii,
        overhead_depth,
        stages,
        ext_reads_per_iter: reads,
        ext_writes_per_iter: writes,
        ii_recurrence,
        ii_resource,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::lower_block;
    use nymble_ir::stmt::Stmt;
    use nymble_ir::validate::infer_types;
    use nymble_ir::{KernelBuilder, MapDir, ScalarType, Type};

    fn inner_body(k: &nymble_ir::Kernel) -> &Vec<Stmt> {
        match &k.body[0] {
            Stmt::For { body, .. } => body,
            _ => panic!("expected loop"),
        }
    }

    /// `sum += A[k] * B[k]` — recurrence II = FAdd latency, resource II = 2
    /// reads on 1 port. Overall II = max of the two.
    #[test]
    fn dot_product_ii() {
        let mut kb = KernelBuilder::new("dot", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let b = kb.buffer("B", ScalarType::F32, MapDir::To);
        let sum = kb.var("sum", Type::F32);
        let n = kb.c_i64(64);
        kb.for_range("k", n, |kb, i| {
            let av = kb.load(a, i, Type::F32);
            let bv = kb.load(b, i, Type::F32);
            let p = kb.mul(av, bv);
            let cur = kb.get(sum);
            let s = kb.add(cur, p);
            kb.set(sum, s);
        });
        let k = kb.finish();
        let dfg = lower_block(&k, &infer_types(&k).unwrap(), inner_body(&k));
        let sched = schedule(&dfg, &ResourceLimits::default());
        assert_eq!(sched.ext_reads_per_iter, 2);
        assert_eq!(sched.ii_resource, 2, "2 reads / 1 port");
        assert_eq!(
            sched.ii_recurrence,
            OpClass::FAdd.latency(),
            "accumulator recurrence"
        );
        assert_eq!(sched.ii, OpClass::FAdd.latency().max(2));
        assert!(sched.depth >= OpClass::ExtLoad.latency() + OpClass::FMul.latency());
    }

    /// Vectorizing the load (one 128-bit read) drops the resource II.
    #[test]
    fn vector_load_reduces_resource_ii() {
        let mut kb = KernelBuilder::new("vec", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let acc = kb.var("acc", Type::vector(ScalarType::F32, 4));
        let n = kb.c_i64(64);
        let v4 = Type::vector(ScalarType::F32, 4);
        kb.for_range("k", n, |kb, i| {
            let av = kb.load(a, i, v4);
            let cur = kb.get(acc);
            let s = kb.add(cur, av);
            kb.set(acc, s);
        });
        let k = kb.finish();
        let dfg = lower_block(&k, &infer_types(&k).unwrap(), inner_body(&k));
        let sched = schedule(&dfg, &ResourceLimits::default());
        assert_eq!(sched.ext_reads_per_iter, 1, "one wide read");
        assert_eq!(sched.ii_resource, 1);
    }

    #[test]
    fn vlo_stages_are_reordering() {
        let mut kb = KernelBuilder::new("r", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let x = kb.var("x", Type::F32);
        let n = kb.c_i64(4);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let c = kb.c_f32(2.0);
            let m = kb.mul(v, c);
            kb.set(x, m);
        });
        let k = kb.finish();
        let dfg = lower_block(&k, &infer_types(&k).unwrap(), inner_body(&k));
        let sched = schedule(&dfg, &ResourceLimits::default());
        assert_eq!(sched.reordering_stages(), 1, "exactly the load stage");
        let vlo_stage = sched.stages.iter().find(|s| s.has_vlo).unwrap();
        assert!(vlo_stage.reordering);
        // And the multiply stage is static.
        assert!(sched.stages.iter().any(|s| !s.has_vlo && !s.reordering));
    }

    #[test]
    fn pipelined_cycles_formula() {
        let s = LoopSchedule {
            start: vec![],
            depth: 10,
            ii: 2,
            overhead_depth: 10,
            stages: vec![],
            ext_reads_per_iter: 0,
            ext_writes_per_iter: 0,
            ii_recurrence: 1,
            ii_resource: 2,
        };
        assert_eq!(s.pipelined_cycles(0), 0);
        assert_eq!(s.pipelined_cycles(1), 10);
        assert_eq!(s.pipelined_cycles(100), 10 + 99 * 2);
    }

    #[test]
    fn empty_body_schedules() {
        let dfg = Dfg::default();
        let s = schedule(&dfg, &ResourceLimits::default());
        assert_eq!(s.depth, 0);
        assert_eq!(s.ii, 1);
        assert!(s.stages.is_empty());
    }

    /// Serializing port pressure: 3 reads with 1 port ⇒ II_res = 3; with 2
    /// ports ⇒ 2.
    #[test]
    fn port_capacity_scales_ii() {
        let mut kb = KernelBuilder::new("p", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let x = kb.var("x", Type::F32);
        let n = kb.c_i64(4);
        kb.for_range("i", n, |kb, i| {
            let v1 = kb.load(a, i, Type::F32);
            let one = kb.c_i64(1);
            let i1 = kb.add(i, one);
            let v2 = kb.load(a, i1, Type::F32);
            let two = kb.c_i64(2);
            let i2 = kb.add(i, two);
            let v3 = kb.load(a, i2, Type::F32);
            let s1 = kb.add(v1, v2);
            let s2 = kb.add(s1, v3);
            kb.set(x, s2);
        });
        let k = kb.finish();
        let dfg = lower_block(&k, &infer_types(&k).unwrap(), inner_body(&k));
        let one_port = schedule(&dfg, &ResourceLimits::default());
        assert_eq!(one_port.ii_resource, 3);
        let two_ports = schedule(
            &dfg,
            &ResourceLimits {
                mem_read_ports: 2,
                ..Default::default()
            },
        );
        assert_eq!(two_ports.ii_resource, 2);
    }
}
