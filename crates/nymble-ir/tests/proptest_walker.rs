//! Property tests of the semantic engine: the walker and the gold
//! interpreter agree with direct Rust evaluation for randomly generated
//! programs, and synchronization semantics hold under arbitrary shapes.

use miniprop::{forall, Rng};
use nymble_ir::interp::{buffer_as_f32, Interpreter, LaunchArg};
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
        assert_eq!(result.buffers[0][0].as_i64(), eval_rust(&e, x, y));
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
        assert_eq!(result.buffers[0][0].as_i64(), expect);
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
        assert_eq!(result.buffers[0][0].as_i64(), expect);
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
        let got = buffer_as_f32(&result.buffers[1])[0];
        let expect: f32 = data[idx..idx + 4].iter().sum();
        assert!((got - expect).abs() < 1e-4);
    });
}
