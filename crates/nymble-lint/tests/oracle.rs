//! Dynamic oracle: the untimed IR interpreter replays each fixture and the
//! trace (`DynTrace`) must agree with the static verdict.
//!
//! - lint-clean kernels show no observed cross-thread conflict and uniform
//!   barrier-arrival counts;
//! - the NL001 and NL003 fixtures exhibit a real conflicting access pair;
//! - the NL002 fixture arrives at the barrier a different number of times
//!   per thread (the interpreter releases barriers on the live-thread
//!   count, so divergence shows as non-uniform arrivals, not deadlock);
//! - the NL004 fixture faults at runtime.
//!
//! NL005/NL006 have no dynamic signature — a dead `map` clause wastes a
//! transfer but executes cleanly — which is exactly why they need a static
//! analyzer; the oracle confirms those fixtures run without incident.

use nymble_ir::interp::{DynTrace, Interpreter, LaunchArg};
use nymble_ir::{ArgKind, Kernel, ScalarType, Type, Value};

/// Build a generic launch for any fixture kernel: scalars get 1 (so uniform
/// flags take the branch) and buffers get 64 zeroed elements — comfortably
/// past every fixture's largest index.
fn generic_launch(k: &Kernel) -> Vec<LaunchArg> {
    k.args
        .iter()
        .map(|a| match a.kind {
            ArgKind::Scalar(st) => LaunchArg::Scalar(match st {
                ScalarType::I32 => Value::I32(1),
                ScalarType::I64 => Value::I64(1),
                ScalarType::F32 => Value::F32(1.0),
                ScalarType::F64 => Value::F64(1.0),
            }),
            ArgKind::Buffer { elem, .. } => {
                LaunchArg::Buffer(vec![Value::zero(Type::scalar(elem)); 64])
            }
        })
        .collect()
}

fn trace_of(k: &Kernel) -> DynTrace {
    Interpreter::run_traced(k, &generic_launch(k)).1
}

fn fixture(name: &str) -> Kernel {
    kernels::fixtures::all()
        .into_iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no fixture `{name}`"))
        .kernel
}

#[test]
fn lint_clean_fixtures_run_clean() {
    for f in kernels::fixtures::near_misses() {
        let report = nymble_lint::lint_kernel(&f.kernel);
        assert!(report.is_clean(), "{}", report.render_human());
        if f.perf {
            let perf = nymble_lint::perf_lint_kernel(&f.kernel);
            assert!(perf.is_clean(), "{}", perf.render_human());
        }
        let trace = trace_of(&f.kernel);
        assert!(
            trace.find_conflict().is_none(),
            "`{}`: statically clean but dynamically conflicting: {:?}",
            f.name,
            trace.find_conflict()
        );
        assert!(
            trace.barriers_uniform(),
            "`{}`: non-uniform barrier arrivals {:?}",
            f.name,
            trace.barrier_arrivals
        );
    }
}

#[test]
fn nl001_race_is_observed_dynamically() {
    let trace = trace_of(&fixture("nl001_race"));
    let (a, b) = trace.find_conflict().expect("the flagged race is real");
    assert_ne!(a.thread, b.thread);
    assert!(a.is_write || b.is_write);
    assert!(!(a.in_critical && b.in_critical));
}

#[test]
fn nl003_lost_update_is_observed_dynamically() {
    let trace = trace_of(&fixture("nl003_lost_update"));
    assert!(trace.find_conflict().is_some(), "unguarded RMW conflicts");
    // The guarded twin is quiet: every access pair meets inside `critical`.
    let guarded = trace_of(&fixture("nl003_critical"));
    assert!(guarded.find_conflict().is_none());
}

#[test]
fn nl002_divergence_shows_as_unequal_barrier_arrivals() {
    let trace = trace_of(&fixture("nl002_divergent"));
    assert!(
        !trace.barriers_uniform(),
        "only thread 0 reaches the barrier: {:?}",
        trace.barrier_arrivals
    );
    let uniform = trace_of(&fixture("nl002_uniform"));
    assert!(uniform.barriers_uniform(), "{:?}", uniform.barrier_arrivals);
}

#[test]
fn nl004_oob_faults_at_runtime() {
    let k = fixture("nl004_oob");
    let launch = generic_launch(&k);
    let fault = std::panic::catch_unwind(|| Interpreter::run_traced(&k, &launch));
    assert!(fault.is_err(), "the proven out-of-bounds store must fault");
}

#[test]
fn dead_map_clauses_have_no_dynamic_signature() {
    for name in ["nl005_dead_to", "nl006_dead_from"] {
        let trace = trace_of(&fixture(name));
        assert!(trace.find_conflict().is_none(), "{name}");
        assert!(trace.barriers_uniform(), "{name}");
    }
}

#[test]
fn shipped_gemm_oracle_agrees_with_the_lint() {
    // An 8×8 GEMM fits the generic 64-element buffers exactly. The naive
    // version's reduction is critical-guarded; the no-critical version owns
    // disjoint rows — both must replay without an observable conflict.
    use kernels::gemm::{self, GemmParams, GemmVersion};
    let p = GemmParams {
        dim: 8,
        threads: 2,
        vec: 4,
        block: 8,
    };
    for v in [GemmVersion::Naive, GemmVersion::NoCritical] {
        let k = gemm::build(v, &p);
        let report = nymble_lint::lint_kernel(&k);
        assert!(report.is_clean(), "{}", report.render_human());
        let trace = trace_of(&k);
        assert!(trace.find_conflict().is_none(), "{v:?}");
        assert!(trace.barriers_uniform(), "{v:?}");
    }
}

#[test]
fn nl001_sees_the_race_an_i32_shift_makes() {
    // `OUT[(i64)(tid << 32)] = 1.0` with the `I32` thread id: the shift
    // wraps to 0 at 32 bits, so both threads store element 0. The lint
    // must fold the index as the tape computes it, not as an i64 scale.
    let mut kb = nymble_ir::KernelBuilder::new("i32_shift_race", 2);
    let out = kb.buffer("OUT", ScalarType::F32, nymble_ir::MapDir::From);
    let tid = kb.thread_id();
    let by = kb.c_i32(32);
    let shifted = kb.bin(nymble_ir::BinOp::Shl, tid, by);
    let index = kb.cast(ScalarType::I64, shifted);
    let one = kb.c_f32(1.0);
    kb.store(out, index, one);
    let k = kb.finish();

    let trace = trace_of(&k);
    let (a, b) = trace.find_conflict().expect("both threads store OUT[0]");
    assert_eq!((a.elem, b.elem), (0, 0));
    let report = nymble_lint::lint_kernel(&k);
    assert!(
        report.codes().contains(&nymble_lint::Code::NL001),
        "{}",
        report.render_human()
    );
}
