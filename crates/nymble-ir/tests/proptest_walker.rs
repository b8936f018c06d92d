//! Property tests of the semantic engine: the walker and the gold
//! interpreter agree with direct Rust evaluation for randomly generated
//! programs, and synchronization semantics hold under arbitrary shapes.

use miniprop::{forall, Rng};
use nymble_ir::interp::{Interpreter, LaunchArg};
use nymble_ir::{BinOp, KernelBuilder, MapDir, ScalarType, Type, Value};

/// A random straight-line integer expression over two inputs, evaluated in
/// parallel by the builder (IR) and directly in Rust.
#[derive(Clone, Debug)]
enum E {
    X,
    Y,
    Const(i32),
    Bin(BinOp, Box<E>, Box<E>),
}

const OPS: [BinOp; 8] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Min,
    BinOp::Max,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
];

fn arb_expr(g: &mut Rng, depth: usize) -> E {
    if depth == 0 || g.chance(35, 100) {
        match g.range_u32(0, 3) {
            0 => E::X,
            1 => E::Y,
            _ => E::Const(g.range_i64(-100, 100) as i32),
        }
    } else {
        E::Bin(
            *g.pick(&OPS),
            Box::new(arb_expr(g, depth - 1)),
            Box::new(arb_expr(g, depth - 1)),
        )
    }
}

fn eval_rust(e: &E, x: i64, y: i64) -> i64 {
    match e {
        E::X => x,
        E::Y => y,
        E::Const(c) => *c as i64,
        E::Bin(op, a, b) => {
            let (a, b) = (eval_rust(a, x, y), eval_rust(b, x, y));
            match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Min => a.min(b),
                BinOp::Max => a.max(b),
                BinOp::And => a & b,
                BinOp::Or => a | b,
                BinOp::Xor => a ^ b,
                _ => unreachable!(),
            }
        }
    }
}

fn lower(
    kb: &mut KernelBuilder,
    e: &E,
    x: nymble_ir::ExprId,
    y: nymble_ir::ExprId,
) -> nymble_ir::ExprId {
    match e {
        E::X => x,
        E::Y => y,
        E::Const(c) => kb.c_i64(*c as i64),
        E::Bin(op, a, b) => {
            let av = lower(kb, a, x, y);
            let bv = lower(kb, b, x, y);
            kb.bin(*op, av, bv)
        }
    }
}

#[test]
fn walker_matches_rust_eval() {
    forall(128, |g| {
        let e = arb_expr(g, 4);
        let x = g.range_i64(-1000, 1000);
        let y = g.range_i64(-1000, 1000);
        let mut kb = KernelBuilder::new("prop_expr", 1);
        let out = kb.buffer("OUT", ScalarType::I64, MapDir::From);
        let xa = kb.scalar_arg("X", ScalarType::I64);
        let ya = kb.scalar_arg("Y", ScalarType::I64);
        let xe = kb.arg(xa);
        let ye = kb.arg(ya);
        let r = lower(&mut kb, &e, xe, ye);
        let zero = kb.c_i64(0);
        kb.store(out, zero, r);
        let k = kb.finish();
        let result = Interpreter::run(
            &k,
            &[
                LaunchArg::Buffer(vec![Value::I64(0)]),
                LaunchArg::Scalar(Value::I64(x)),
                LaunchArg::Scalar(Value::I64(y)),
            ],
        );
        assert_eq!(
            result.buffers[0].get(0).unwrap().as_i64(),
            eval_rust(&e, x, y)
        );
    });
}

#[test]
fn loop_sum_matches_closed_form() {
    forall(128, |g| {
        let start = g.range_i64(-50, 50);
        let trip = g.range_i64(0, 100);
        let step = g.range_i64(1, 7);
        let end = start + trip * step;
        let mut kb = KernelBuilder::new("prop_loop", 1);
        let out = kb.buffer("OUT", ScalarType::I64, MapDir::From);
        let acc = kb.var("acc", Type::I64);
        let s = kb.c_i64(start);
        let e = kb.c_i64(end);
        let st = kb.c_i64(step);
        kb.for_each("i", s, e, st, |kb, i| {
            let cur = kb.get(acc);
            let sum = kb.add(cur, i);
            kb.set(acc, sum);
        });
        let a = kb.get(acc);
        let z = kb.c_i64(0);
        kb.store(out, z, a);
        let k = kb.finish();
        let result = Interpreter::run(&k, &[LaunchArg::Buffer(vec![Value::I64(0)])]);
        let expect: i64 = (0..trip).map(|n| start + n * step).sum();
        assert_eq!(result.buffers[0].get(0).unwrap().as_i64(), expect);
    });
}

#[test]
fn critical_reduction_is_exact_for_any_thread_count() {
    forall(64, |g| {
        let threads = g.range_u32(1, 9);
        let reps = g.range_i64(1, 20);
        // Each thread adds its (tid+1) to a shared cell `reps` times inside
        // a critical; the result is order-independent in integers.
        let mut kb = KernelBuilder::new("prop_crit", threads);
        let out = kb.buffer("OUT", ScalarType::I64, MapDir::ToFrom);
        let n = kb.c_i64(reps);
        kb.for_range("r", n, |kb, _| {
            kb.critical(|kb| {
                let z = kb.c_i64(0);
                let cur = kb.load(out, z, Type::I64);
                let tid = kb.thread_id();
                let tid64 = kb.cast(ScalarType::I64, tid);
                let one = kb.c_i64(1);
                let t1 = kb.add(tid64, one);
                let upd = kb.add(cur, t1);
                let z2 = kb.c_i64(0);
                kb.store(out, z2, upd);
            });
        });
        let k = kb.finish();
        let result = Interpreter::run(&k, &[LaunchArg::Buffer(vec![Value::I64(0)])]);
        let expect: i64 = (1..=threads as i64).sum::<i64>() * reps;
        assert_eq!(result.buffers[0].get(0).unwrap().as_i64(), expect);
    });
}

#[test]
fn vector_load_equals_scalar_loads() {
    forall(64, |g| {
        let len = g.range_usize(4, 64);
        let idx = (g.range_usize(0, 15) * 4).min(len - 4);
        let data: Vec<f32> = (0..len).map(|i| i as f32 * 0.5).collect();
        let mut kb = KernelBuilder::new("prop_vec", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
        let i = kb.c_i64(idx as i64);
        let v = kb.load(a, i, Type::vector(ScalarType::F32, 4));
        let mut sum = kb.lane(v, 0);
        for l in 1..4 {
            let lane = kb.lane(v, l);
            sum = kb.add(sum, lane);
        }
        let z = kb.c_i64(0);
        kb.store(out, z, sum);
        let k = kb.finish();
        let vals: Vec<Value> = data.iter().map(|&x| Value::F32(x)).collect();
        let result = Interpreter::run(
            &k,
            &[
                LaunchArg::Buffer(vals),
                LaunchArg::Buffer(vec![Value::F32(0.0)]),
            ],
        );
        let got = result.buffers[1].to_f32()[0];
        let expect: f32 = data[idx..idx + 4].iter().sum();
        assert!((got - expect).abs() < 1e-4);
    });
}

// ----- random typed expression DAGs against an independent oracle -------

use nymble_ir::interp::DynAccess;
use nymble_ir::tape::OpCounts;
use nymble_ir::{ArgId, ExprId, UnOp, VarId};

const SCALARS: [ScalarType; 4] = [
    ScalarType::I32,
    ScalarType::I64,
    ScalarType::F32,
    ScalarType::F64,
];

const ALL_BINOPS: [BinOp; 18] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Min,
    BinOp::Max,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Eq,
    BinOp::Ne,
];

const ALL_UNOPS: [UnOp; 4] = [UnOp::Neg, UnOp::Not, UnOp::Abs, UnOp::Sqrt];

/// Length of every input buffer and of the local memory.
const IN_LEN: u64 = 8;
/// Output slots reserved per root (room for a 4-lane store).
const SLOT: u64 = 4;

/// One oracle scalar.
#[derive(Clone, Copy, Debug)]
enum S {
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
}

impl S {
    fn ty(self) -> ScalarType {
        match self {
            S::I32(_) => ScalarType::I32,
            S::I64(_) => ScalarType::I64,
            S::F32(_) => ScalarType::F32,
            S::F64(_) => ScalarType::F64,
        }
    }
    fn i(self) -> i64 {
        match self {
            S::I32(v) => v as i64,
            S::I64(v) => v,
            S::F32(v) => v as i64,
            S::F64(v) => v as i64,
        }
    }
    fn f(self) -> f64 {
        match self {
            S::I32(v) => v as f64,
            S::I64(v) => v as f64,
            S::F32(v) => v as f64,
            S::F64(v) => v,
        }
    }
    fn truthy(self) -> bool {
        match self {
            S::F32(v) => v != 0.0,
            S::F64(v) => v != 0.0,
            o => o.i() != 0,
        }
    }
    fn int_of(ty: ScalarType, v: i64) -> S {
        match ty {
            ScalarType::I32 => S::I32(v as i32),
            ScalarType::I64 => S::I64(v),
            _ => unreachable!(),
        }
    }
    fn to_value(self) -> Value {
        match self {
            S::I32(v) => Value::I32(v),
            S::I64(v) => Value::I64(v),
            S::F32(v) => Value::F32(v),
            S::F64(v) => Value::F64(v),
        }
    }
    /// Bit-exact equality that treats every NaN as equal.
    fn same(self, v: &Value) -> bool {
        match (self, v) {
            (S::I32(a), Value::I32(b)) => a == *b,
            (S::I64(a), Value::I64(b)) => a == *b,
            (S::F32(a), Value::F32(b)) => (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits(),
            (S::F64(a), Value::F64(b)) => (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

fn o_binop(op: BinOp, a: S, b: S) -> S {
    if op.is_comparison() {
        let r = if a.ty().is_float() {
            let (x, y) = (a.f(), b.f());
            match op {
                BinOp::Lt => x < y,
                BinOp::Le => x <= y,
                BinOp::Gt => x > y,
                BinOp::Ge => x >= y,
                BinOp::Eq => x == y,
                _ => x != y,
            }
        } else {
            let (x, y) = (a.i(), b.i());
            match op {
                BinOp::Lt => x < y,
                BinOp::Le => x <= y,
                BinOp::Gt => x > y,
                BinOp::Ge => x >= y,
                BinOp::Eq => x == y,
                _ => x != y,
            }
        };
        return S::I32(r as i32);
    }
    match a {
        S::F32(x) => {
            let y = match b {
                S::F32(y) => y,
                o => o.f() as f32,
            };
            S::F32(match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Rem => x % y,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                _ => unreachable!("bitwise op on float"),
            })
        }
        S::F64(x) => {
            let y = b.f();
            S::F64(match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Rem => x % y,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                _ => unreachable!("bitwise op on float"),
            })
        }
        _ => {
            let (x, y) = (a.i(), b.i());
            let r = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div if y == 0 => 0,
                BinOp::Div => x.wrapping_div(y),
                BinOp::Rem if y == 0 => 0,
                BinOp::Rem => x.wrapping_rem(y),
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Shl => x.wrapping_shl(y as u32),
                BinOp::Shr => x.wrapping_shr(y as u32),
                _ => unreachable!(),
            };
            S::int_of(a.ty(), r)
        }
    }
}

fn o_unop(op: UnOp, a: S) -> S {
    match a {
        S::F32(_) | S::F64(_) => {
            let x = a.f();
            let r = match op {
                UnOp::Neg => -x,
                UnOp::Abs => x.abs(),
                UnOp::Sqrt => x.sqrt(),
                UnOp::Not => unreachable!("not on float"),
            };
            match a {
                S::F32(_) => S::F32(r as f32),
                _ => S::F64(r),
            }
        }
        _ => {
            let x = a.i();
            let r = match op {
                UnOp::Neg => x.wrapping_neg(),
                UnOp::Abs => x.wrapping_abs(),
                UnOp::Not => !x,
                UnOp::Sqrt => (x as f64).sqrt() as i64,
            };
            S::int_of(a.ty(), r)
        }
    }
}

fn o_cast(ty: ScalarType, a: S) -> S {
    match ty {
        ScalarType::I32 | ScalarType::I64 => S::int_of(ty, a.i()),
        ScalarType::F32 => S::F32(a.f() as f32),
        ScalarType::F64 => S::F64(a.f()),
    }
}

/// One generated node; operands index earlier nodes.
#[derive(Clone, Debug)]
enum N {
    Const(S),
    Arg(ScalarType),
    Tid,
    NumThreads,
    Var(ScalarType),
    Un(UnOp, usize),
    Bin(BinOp, usize, usize),
    Sel(usize, usize, usize),
    Cast(ScalarType, usize),
    /// External load of `lanes` elements of `ty` at element `idx`.
    Load(ScalarType, u8, u64),
    /// Local-memory (f32) load at element `idx`.
    LoadLocal(u64),
    Lane(usize, u8),
    Splat(usize),
}

struct Dag {
    nodes: Vec<(N, Type)>,
    /// Launch values of the scalar args and the constants the vars start
    /// with, one per scalar type (`SCALARS` order).
    args: [S; 4],
    var_init: [S; 4],
    /// Input buffer contents, one buffer per scalar type.
    inputs: [Vec<S>; 4],
    /// `(node, assign through a var first)` per root statement.
    roots: Vec<(usize, bool)>,
}

fn slot_of(t: ScalarType) -> usize {
    SCALARS.iter().position(|s| *s == t).unwrap()
}

fn edge_scalar(g: &mut Rng, t: ScalarType) -> S {
    let r = g.range_i64(-100, 100);
    match t {
        ScalarType::I32 => S::I32(*g.pick(&[i32::MIN, -1, 0, 1, 32, 33, i32::MAX, r as i32])),
        // i64::MIN is left out: today's `Abs` on it overflows in debug.
        // 2^60 + 2^36 + 1 rounds differently to f32 directly and via f64.
        ScalarType::I64 => S::I64(*g.pick(&[
            i32::MIN as i64,
            (1 << 60) + (1 << 36) + 1,
            -1,
            0,
            1,
            33,
            64,
            65,
            i64::MAX,
            r,
        ])),
        ScalarType::F32 => S::F32(*g.pick(&[
            f32::NAN,
            0.0,
            -0.0,
            3e9,
            -1.0,
            0.5,
            f32::INFINITY,
            r as f32 * 0.25,
        ])),
        ScalarType::F64 => S::F64(*g.pick(&[
            f64::NAN,
            0.0,
            -0.0,
            3e9,
            -1.0,
            0.5,
            f64::NEG_INFINITY,
            r as f64 * 0.25,
        ])),
    }
}

fn leaf(g: &mut Rng) -> (N, Type) {
    let t = *g.pick(&SCALARS);
    match g.range_u32(0, 7) {
        0 | 1 => (N::Const(edge_scalar(g, t)), Type::scalar(t)),
        2 => (N::Arg(t), Type::scalar(t)),
        3 => (N::Var(t), Type::scalar(t)),
        4 => {
            if g.bool() {
                (N::Tid, Type::I32)
            } else {
                (N::NumThreads, Type::I32)
            }
        }
        5 => {
            if t == ScalarType::F32 && g.bool() {
                (N::LoadLocal(g.range_u64(0, IN_LEN)), Type::F32)
            } else {
                (N::Load(t, 1, g.range_u64(0, IN_LEN)), Type::scalar(t))
            }
        }
        _ => (
            N::Load(ScalarType::F32, 4, g.range_u64(0, IN_LEN - 3)),
            Type::vector(ScalarType::F32, 4),
        ),
    }
}

/// A random earlier node satisfying `ok`, biased towards recent nodes so
/// chains grow deep and reused nodes become shared subexpressions.
fn pick_node(g: &mut Rng, nodes: &[(N, Type)], ok: impl Fn(usize, Type) -> bool) -> Option<usize> {
    let cands: Vec<usize> = (0..nodes.len()).filter(|&i| ok(i, nodes[i].1)).collect();
    if cands.is_empty() {
        return None;
    }
    let lo = cands.len().saturating_sub(6);
    Some(if g.chance(3, 4) {
        cands[g.range_usize(lo, cands.len())]
    } else {
        *g.pick(&cands)
    })
}

fn is_leaf(n: &N) -> bool {
    matches!(
        n,
        N::Const(_)
            | N::Arg(_)
            | N::Tid
            | N::NumThreads
            | N::Var(_)
            | N::Load(..)
            | N::LoadLocal(_)
    )
}

fn arb_dag(g: &mut Rng) -> Dag {
    let mut nodes: Vec<(N, Type)> = Vec::new();
    let size = g.range_usize(4, 24);
    while nodes.len() < size {
        let made = match g.range_u32(0, 9) {
            0 => None,
            1 => {
                let op = *g.pick(&ALL_UNOPS);
                pick_node(g, &nodes, |i, t| {
                    let float = t.scalar.is_float();
                    match op {
                        UnOp::Not => !float,
                        // Today's `Abs` overflows on i64::MIN in debug
                        // builds; leaves never hold it.
                        UnOp::Abs if t.scalar == ScalarType::I64 => is_leaf(&nodes[i].0),
                        _ => true,
                    }
                })
                .map(|a| (N::Un(op, a), nodes[a].1))
            }
            2..=4 => {
                let op = *g.pick(&ALL_BINOPS);
                let bitwise = matches!(
                    op,
                    BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
                );
                pick_node(g, &nodes, |_, t| !(bitwise && t.scalar.is_float())).and_then(|a| {
                    let ta = nodes[a].1;
                    let same = g.chance(2, 3);
                    pick_node(g, &nodes, |_, t| {
                        t.lanes == ta.lanes && (!same || t.scalar == ta.scalar)
                    })
                    .map(|b| {
                        let scalar = if op.is_comparison() {
                            ScalarType::I32
                        } else {
                            ta.scalar
                        };
                        (N::Bin(op, a, b), Type::vector(scalar, ta.lanes))
                    })
                })
            }
            5 => pick_node(g, &nodes, |_, t| t.lanes == 1).and_then(|c| {
                if g.chance(1, 3) {
                    // Two fresh loads as arms: both are issued, in order.
                    let t = *g.pick(&SCALARS);
                    for _ in 0..2 {
                        let idx = g.range_u64(0, IN_LEN);
                        nodes.push((N::Load(t, 1, idx), Type::scalar(t)));
                    }
                    let n = nodes.len();
                    return Some((N::Sel(c, n - 2, n - 1), Type::scalar(t)));
                }
                pick_node(g, &nodes, |_, _| true).and_then(|t| {
                    let tt = nodes[t].1;
                    pick_node(g, &nodes, |_, ty| ty == tt).map(|e| (N::Sel(c, t, e), tt))
                })
            }),
            6 => {
                let to = *g.pick(&SCALARS);
                pick_node(g, &nodes, |_, t| t.lanes == 1)
                    .map(|a| (N::Cast(to, a), Type::scalar(to)))
            }
            7 => pick_node(g, &nodes, |_, _| true).map(|a| {
                let t = nodes[a].1;
                let lane = g.range_u32(0, t.lanes as u32) as u8;
                (N::Lane(a, lane), Type::scalar(t.scalar))
            }),
            _ => pick_node(g, &nodes, |_, t| t.lanes == 1)
                .map(|a| (N::Splat(a), Type::vector(nodes[a].1.scalar, 4))),
        };
        nodes.push(made.unwrap_or_else(|| leaf(g)));
    }
    let n_roots = g.range_usize(1, 4);
    let roots = (0..n_roots)
        .map(|r| {
            // The last node is always a root, so every case ends deep.
            let node = if r == 0 {
                nodes.len() - 1
            } else {
                g.range_usize(0, nodes.len())
            };
            (node, g.bool())
        })
        .collect();
    let args = SCALARS.map(|t| edge_scalar(g, t));
    let var_init = SCALARS.map(|t| edge_scalar(g, t));
    let inputs = SCALARS.map(|t| (0..IN_LEN).map(|_| edge_scalar(g, t)).collect());
    Dag {
        nodes,
        args,
        var_init,
        inputs,
        roots,
    }
}

/// Kernel argument layout of a DAG kernel.
struct Layout {
    scalar_args: [ArgId; 4],
    inputs: [ArgId; 4],
    outputs: [ArgId; 4],
}

/// Build the kernel executing root statements `which` (plus the var
/// initialisation and the local-memory preload every kernel starts with).
fn build_dag_kernel(d: &Dag, which: &[usize]) -> (nymble_ir::Kernel, Layout) {
    let mut kb = KernelBuilder::new("prop_dag", 1);
    let scalar_args = SCALARS.map(|t| kb.scalar_arg("S", t));
    let inputs = SCALARS.map(|t| kb.buffer("IN", t, MapDir::To));
    let outputs = SCALARS.map(|t| kb.buffer("OUT", t, MapDir::From));
    let vars: Vec<VarId> = SCALARS
        .iter()
        .map(|t| kb.var("v", Type::scalar(*t)))
        .collect();
    let lm = kb.local_mem("L", Type::F32, IN_LEN);
    for (i, v) in vars.iter().enumerate() {
        let c = lower_const(&mut kb, d.var_init[i]);
        kb.set(*v, c);
    }
    let (z0, z1, n) = (kb.c_i64(0), kb.c_i64(0), kb.c_i64(IN_LEN as i64));
    kb.preload(lm, inputs[slot_of(ScalarType::F32)], z0, z1, n);

    let mut ids: Vec<ExprId> = Vec::with_capacity(d.nodes.len());
    for (node, ty) in &d.nodes {
        let id = match node {
            N::Const(s) => lower_const(&mut kb, *s),
            N::Arg(t) => kb.arg(scalar_args[slot_of(*t)]),
            N::Tid => kb.thread_id(),
            N::NumThreads => kb.num_threads_expr(),
            N::Var(t) => kb.get(vars[slot_of(*t)]),
            N::Un(op, a) => kb.un(*op, ids[*a]),
            N::Bin(op, a, b) => kb.bin(*op, ids[*a], ids[*b]),
            N::Sel(c, t, e) => kb.select(ids[*c], ids[*t], ids[*e]),
            N::Cast(t, a) => kb.cast(*t, ids[*a]),
            N::Load(t, _, idx) => {
                let i = kb.c_i64(*idx as i64);
                kb.load(inputs[slot_of(*t)], i, *ty)
            }
            N::LoadLocal(idx) => {
                let i = kb.c_i32(*idx as i32);
                kb.load_local(lm, i, Type::F32)
            }
            N::Lane(a, l) => kb.lane(ids[*a], *l),
            N::Splat(a) => kb.splat(ids[*a], 4),
        };
        ids.push(id);
    }
    for &r in which {
        let (node, via_var) = d.roots[r];
        let ty = d.nodes[node].1;
        let out = outputs[slot_of(ty.scalar)];
        let mut value = ids[node];
        if via_var {
            let v = kb.var("root", ty);
            kb.set(v, value);
            value = kb.get(v);
        }
        let idx = kb.c_i64((r as u64 * SLOT) as i64);
        kb.store(out, idx, value);
    }
    let k = kb.finish();
    (
        k,
        Layout {
            scalar_args,
            inputs,
            outputs,
        },
    )
}

fn lower_const(kb: &mut KernelBuilder, s: S) -> ExprId {
    match s {
        S::I32(v) => kb.c_i32(v),
        S::I64(v) => kb.c_i64(v),
        S::F32(v) => kb.c_f32(v),
        S::F64(v) => kb.c_f64(v),
    }
}

/// What the oracle predicts for one root statement.
struct Expect {
    lanes: Vec<S>,
    ops: OpCounts,
    /// External accesses `(input slot or output slot + 4, elem, lanes,
    /// is_write)` in issue order.
    accesses: Vec<(usize, u64, u64, bool)>,
}

/// Evaluate root statement `r` the way the datapath does: each node of the
/// statement's DAG once, operands first, left to right.
fn oracle(d: &Dag, r: usize) -> Expect {
    fn eval(d: &Dag, i: usize, memo: &mut [Option<Vec<S>>], e: &mut Expect) -> Vec<S> {
        if let Some(v) = &memo[i] {
            return v.clone();
        }
        let (node, ty) = &d.nodes[i];
        let lanes = ty.lanes as u64;
        let v: Vec<S> = match node {
            N::Const(s) => vec![*s],
            N::Arg(t) => vec![d.args[slot_of(*t)]],
            N::Tid => vec![S::I32(0)],
            N::NumThreads => vec![S::I32(1)],
            N::Var(t) => vec![d.var_init[slot_of(*t)]],
            N::Un(op, a) => {
                let av = eval(d, *a, memo, e);
                if d.nodes[*a].1.scalar.is_float() {
                    e.ops.flops += lanes;
                } else {
                    e.ops.int_ops += lanes;
                }
                av.into_iter().map(|x| o_unop(*op, x)).collect()
            }
            N::Bin(op, a, b) => {
                let av = eval(d, *a, memo, e);
                let bv = eval(d, *b, memo, e);
                if op.is_comparison() || !d.nodes[*a].1.scalar.is_float() {
                    e.ops.int_ops += lanes;
                } else {
                    e.ops.flops += lanes;
                }
                av.into_iter()
                    .zip(bv)
                    .map(|(x, y)| o_binop(*op, x, y))
                    .collect()
            }
            N::Sel(c, t, f) => {
                let cv = eval(d, *c, memo, e);
                let tv = eval(d, *t, memo, e);
                let fv = eval(d, *f, memo, e);
                e.ops.int_ops += lanes;
                if cv[0].truthy() {
                    tv
                } else {
                    fv
                }
            }
            N::Cast(t, a) => {
                let av = eval(d, *a, memo, e);
                e.ops.int_ops += 1;
                vec![o_cast(*t, av[0])]
            }
            N::Load(t, n, idx) => {
                e.ops.ext_loads += 1;
                e.accesses.push((slot_of(*t), *idx, *n as u64, false));
                let buf = &d.inputs[slot_of(*t)];
                (0..*n as u64).map(|l| buf[(idx + l) as usize]).collect()
            }
            N::LoadLocal(idx) => {
                e.ops.local_loads += 1;
                vec![d.inputs[slot_of(ScalarType::F32)][*idx as usize]]
            }
            N::Lane(a, l) => vec![eval(d, *a, memo, e)[*l as usize]],
            N::Splat(a) => vec![eval(d, *a, memo, e)[0]; 4],
        };
        memo[i] = Some(v.clone());
        v
    }
    let mut e = Expect {
        lanes: Vec::new(),
        ops: OpCounts::default(),
        accesses: Vec::new(),
    };
    let node = d.roots[r].0;
    let mut memo = vec![None; d.nodes.len()];
    e.lanes = eval(d, node, &mut memo, &mut e);
    let ty = d.nodes[node].1;
    e.accesses.push((
        4 + slot_of(ty.scalar),
        r as u64 * SLOT,
        ty.lanes as u64,
        true,
    ));
    e
}

fn launch(d: &Dag, l: &Layout, n_args: usize) -> Vec<LaunchArg> {
    let mut la = vec![LaunchArg::Scalar(Value::I32(0)); n_args];
    for (i, t) in SCALARS.iter().enumerate() {
        la[l.scalar_args[i].0 as usize] = LaunchArg::Scalar(d.args[i].to_value());
        la[l.inputs[i].0 as usize] =
            LaunchArg::Buffer(d.inputs[i].iter().map(|s| s.to_value()).collect());
        let zero = Value::zero(Type::scalar(*t));
        la[l.outputs[i].0 as usize] =
            LaunchArg::Buffer(vec![zero; (d.roots.len() as u64 * SLOT) as usize]);
    }
    la
}

#[test]
fn typed_dags_match_oracle_values_accesses_and_ops() {
    forall(256, |g| {
        let d = arb_dag(g);
        let all: Vec<usize> = (0..d.roots.len()).collect();
        let expects: Vec<Expect> = all.iter().map(|&r| oracle(&d, r)).collect();

        // Every root statement in one kernel: values and access order.
        let (k, l) = build_dag_kernel(&d, &all);
        let (res, trace) = Interpreter::run_traced(&k, &launch(&d, &l, k.args.len()));
        // The local-memory preload's burst comes first.
        let mut want_acc = vec![(slot_of(ScalarType::F32), 0, IN_LEN, false)];
        let mut want_ops = OpCounts::default();
        for (r, e) in expects.iter().enumerate() {
            let ty = d.nodes[d.roots[r].0].1;
            let out = &res.buffers[l.outputs[slot_of(ty.scalar)].0 as usize];
            for (lane, s) in e.lanes.iter().enumerate() {
                let got = out.get((r as u64 * SLOT) as usize + lane).unwrap();
                assert!(
                    s.same(&got),
                    "root {r} lane {lane}: oracle {s:?}, walker {got:?}\n{:?}",
                    d.nodes
                );
            }
            want_acc.extend(e.accesses.iter().copied());
            want_ops.add(e.ops);
        }
        let slot_arg = |slot: usize| {
            if slot < 4 {
                l.inputs[slot]
            } else {
                l.outputs[slot - 4]
            }
        };
        let got_acc: Vec<(ArgId, u64, u64, bool)> = trace
            .accesses
            .iter()
            .map(|a: &DynAccess| (a.buf, a.elem, a.lanes, a.is_write))
            .collect();
        let want_acc: Vec<(ArgId, u64, u64, bool)> = want_acc
            .into_iter()
            .map(|(s, e, n, w)| (slot_arg(s), e, n, w))
            .collect();
        assert_eq!(got_acc, want_acc, "access order\n{:?}", d.nodes);
        assert_eq!(res.ops, want_ops, "total op counts\n{:?}", d.nodes);

        // One root statement per kernel: that statement's own op counts.
        for (r, e) in expects.iter().enumerate() {
            let (k, l) = build_dag_kernel(&d, &[r]);
            let res = Interpreter::run(&k, &launch(&d, &l, k.args.len()));
            assert_eq!(res.ops, e.ops, "root {r} op counts\n{:?}", d.nodes);
        }
    });
}

/// An i64 → f32 conversion rounds through f64, in a cast and as the right
/// operand of f32 arithmetic; this value rounds differently when
/// converted directly, which random DAGs rarely reach.
#[test]
fn i64_to_f32_rounds_through_f64() {
    let x: i64 = (1 << 60) + (1 << 36) + 1;
    assert_ne!(
        x as f32, x as f64 as f32,
        "the value must tell the two apart"
    );
    let mut kb = KernelBuilder::new("round", 1);
    let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
    let c = kb.c_i64(x);
    let cast = kb.cast(ScalarType::F32, c);
    let zero_f = kb.c_f32(0.0);
    let sum = kb.add(zero_f, c);
    let (i0, i1) = (kb.c_i64(0), kb.c_i64(1));
    kb.store(out, i0, cast);
    kb.store(out, i1, sum);
    let k = kb.finish();
    let r = Interpreter::run(&k, &[LaunchArg::Buffer(vec![Value::F32(0.0); 2])]);
    let want = Value::F32(x as f64 as f32);
    assert_eq!(r.buffers[0].get(0), Some(want.clone()));
    assert_eq!(r.buffers[0].get(1), Some(want));
}
