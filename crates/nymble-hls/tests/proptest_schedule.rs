//! Property tests of the list scheduler over randomly generated DFGs:
//! dependences are respected, capacity limits are never exceeded within a
//! cycle, and the initiation-interval bounds hold.

use miniprop::{forall, Rng};
use nymble_hls::dfg::{Dfg, DfgNode, NodeId};
use nymble_hls::op::{OpClass, Resource};
use nymble_hls::schedule::{schedule, ResourceLimits};
use std::collections::HashMap;

const OP_CLASSES: [OpClass; 9] = [
    OpClass::IntAlu,
    OpClass::IntMul,
    OpClass::FAdd,
    OpClass::FMul,
    OpClass::Cast,
    OpClass::ExtLoad,
    OpClass::ExtStore,
    OpClass::LocalLoad,
    OpClass::LocalStore,
];

/// A random DAG: node i depends on a random subset of nodes < i.
fn arb_dfg(g: &mut Rng) -> Dfg {
    let n = g.range_usize(1, 40);
    let mut dfg = Dfg::default();
    for i in 0..n {
        let deps: Vec<NodeId> = if i == 0 {
            Vec::new()
        } else {
            let mut d: Vec<NodeId> = (0..g.range_usize(0, 3))
                .map(|_| NodeId(g.range_usize(0, i) as u32))
                .collect();
            d.sort_unstable();
            d.dedup();
            d
        };
        dfg.nodes.push(DfgNode {
            op: *g.pick(&OP_CLASSES),
            width: 1,
            deps,
        });
    }
    dfg
}

#[test]
fn dependences_are_respected() {
    forall(128, |g| {
        let dfg = arb_dfg(g);
        let limits = ResourceLimits::default();
        let s = schedule(&dfg, &limits);
        for (i, node) in dfg.nodes.iter().enumerate() {
            for d in &node.deps {
                let dep_finish = s.start[d.0 as usize] + dfg.nodes[d.0 as usize].op.latency();
                assert!(
                    s.start[i] >= dep_finish,
                    "node {} starts at {} before dep {:?} finishes at {}",
                    i,
                    s.start[i],
                    d,
                    dep_finish
                );
            }
        }
        assert!(s.ii >= 1);
        assert!(s.depth >= s.start.iter().copied().max().unwrap_or(0));
    });
}

#[test]
fn port_capacity_never_exceeded_in_a_cycle() {
    forall(128, |g| {
        let dfg = arb_dfg(g);
        let ports = g.range_u32(1, 3);
        let limits = ResourceLimits {
            mem_read_ports: ports,
            mem_write_ports: ports,
            local_ports: ports,
        };
        let s = schedule(&dfg, &limits);
        let mut usage: HashMap<(Resource, u32), u32> = HashMap::new();
        for (i, node) in dfg.nodes.iter().enumerate() {
            let r = node.op.resource();
            if matches!(
                r,
                Resource::MemRead | Resource::MemWrite | Resource::LocalPort
            ) {
                *usage.entry((r, s.start[i])).or_default() += 1;
            }
        }
        for ((r, cy), n) in usage {
            assert!(
                n <= ports,
                "{r:?} oversubscribed at cycle {cy}: {n} > {ports}"
            );
        }
    });
}

#[test]
fn ii_lower_bound_from_port_pressure() {
    forall(128, |g| {
        let dfg = arb_dfg(g);
        let limits = ResourceLimits::default();
        let s = schedule(&dfg, &limits);
        let reads = dfg.count(OpClass::ExtLoad) as u32;
        let writes = dfg.count(OpClass::ExtStore) as u32;
        assert!(s.ii >= reads.max(1).max(writes));
        assert_eq!(s.ext_reads_per_iter, reads);
        assert_eq!(s.ext_writes_per_iter, writes);
    });
}

#[test]
fn stages_cover_all_nodes_exactly_once() {
    forall(128, |g| {
        let dfg = arb_dfg(g);
        let s = schedule(&dfg, &ResourceLimits::default());
        let mut seen = vec![false; dfg.len()];
        for st in &s.stages {
            for &op in &st.ops {
                assert!(!seen[op as usize], "node {} in two stages", op);
                seen[op as usize] = true;
                assert_eq!(s.start[op as usize], st.cycle);
            }
            // Reordering exactly when a VLO is present.
            let has_vlo = st.ops.iter().any(|&o| dfg.nodes[o as usize].op.is_vlo());
            assert_eq!(st.has_vlo, has_vlo);
            assert_eq!(st.reordering, has_vlo);
        }
        assert!(seen.into_iter().all(|s| s), "every node must be staged");
    });
}

#[test]
fn more_ports_never_hurt() {
    forall(128, |g| {
        let dfg = arb_dfg(g);
        let one = schedule(
            &dfg,
            &ResourceLimits {
                mem_read_ports: 1,
                mem_write_ports: 1,
                local_ports: 1,
            },
        );
        let four = schedule(
            &dfg,
            &ResourceLimits {
                mem_read_ports: 4,
                mem_write_ports: 4,
                local_ports: 4,
            },
        );
        assert!(four.depth <= one.depth);
        assert!(four.ii <= one.ii);
    });
}

/// The resource-constrained minimum II of a modulo schedule: each ported
/// resource's per-iteration uses divided by its port count, rounded up.
fn resource_mii(dfg: &Dfg, limits: &ResourceLimits) -> u32 {
    let capacity = |r: Resource| match r {
        Resource::MemRead => Some(limits.mem_read_ports),
        Resource::MemWrite => Some(limits.mem_write_ports),
        Resource::LocalPort => Some(limits.local_ports),
        _ => None,
    };
    let mut uses: HashMap<Resource, u32> = HashMap::new();
    for n in &dfg.nodes {
        if capacity(n.op.resource()).is_some() {
            *uses.entry(n.op.resource()).or_default() += 1;
        }
    }
    uses.iter()
        .filter_map(|(r, u)| capacity(*r).map(|c| u.div_ceil(c)))
        .max()
        .unwrap_or(1)
        .max(1)
}

/// The list scheduler's II estimate is never below the modulo lower
/// bound (it may be above: it does not search), at any port count.
#[test]
fn list_ii_respects_modulo_lower_bound() {
    forall(96, |g| {
        let dfg = arb_dfg(g);
        let ports = g.range_u32(1, 4);
        let limits = ResourceLimits {
            mem_read_ports: ports,
            mem_write_ports: ports,
            local_ports: ports,
        };
        let list = schedule(&dfg, &limits);
        assert!(list.ii >= resource_mii(&dfg, &limits));
    });
}
