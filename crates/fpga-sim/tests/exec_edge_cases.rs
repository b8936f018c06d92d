//! Executor edge cases and failure injection: degenerate kernels, extreme
//! configurations, and conditions the decoder/trace path must survive.

use fpga_sim::memimg::LaunchArg;
use fpga_sim::{Executor, NullSnoop, SimConfig, SimError, SimRun, StepStatus};
use nymble_hls::accel::{compile, HlsConfig};
use nymble_ir::{Kernel, KernelBuilder, MapDir, ScalarType, Type, Value};

fn run(kernel: &Kernel, sim: &SimConfig, launch: &[LaunchArg]) -> fpga_sim::RunResult {
    let acc = compile(kernel, &HlsConfig::default());
    Executor::run(kernel, &acc, sim, launch, &mut NullSnoop).expect("simulation failed")
}

#[test]
fn empty_kernel_terminates_immediately() {
    let kb = KernelBuilder::new("empty", 4);
    let k = kb.finish();
    let r = run(&k, &SimConfig::default().with_fast_launch(), &[]);
    assert!(r.total_cycles < 10_000);
    assert_eq!(r.stats.total_flops(), 0);
}

#[test]
fn zero_trip_loops_cost_almost_nothing() {
    let mut kb = KernelBuilder::new("zero_trip", 2);
    let a = kb.buffer("A", ScalarType::F32, MapDir::To);
    let x = kb.var("x", Type::F32);
    let zero = kb.c_i64(0);
    let end = kb.c_i64(0); // empty range
    let one = kb.c_i64(1);
    kb.for_each("i", zero, end, one, |kb, i| {
        let v = kb.load(a, i, Type::F32);
        kb.set(x, v);
    });
    let k = kb.finish();
    let r = run(
        &k,
        &SimConfig::default().with_fast_launch(),
        &[LaunchArg::Buffer(vec![Value::F32(0.0); 4])],
    );
    assert_eq!(r.stats.total(|t| t.bytes_read), 0, "no iteration ran");
    assert_eq!(r.stats.total(|t| t.iterations), 0);
}

#[test]
fn negative_step_loops_execute() {
    let mut kb = KernelBuilder::new("down", 1);
    let out = kb.buffer("OUT", ScalarType::I64, MapDir::From);
    let acc = kb.var("acc", Type::I64);
    let start = kb.c_i64(10);
    let end = kb.c_i64(0);
    let step = kb.c_i64(-2);
    kb.for_each("i", start, end, step, |kb, i| {
        let cur = kb.get(acc);
        let s = kb.add(cur, i);
        kb.set(acc, s);
    });
    let a = kb.get(acc);
    let z = kb.c_i64(0);
    kb.store(out, z, a);
    let k = kb.finish();
    let r = run(
        &k,
        &SimConfig::default().with_fast_launch(),
        &[LaunchArg::Buffer(vec![Value::I64(0)])],
    );
    assert_eq!(r.buffers[0].get(0).unwrap().as_i64(), 10 + 8 + 6 + 4 + 2);
}

#[test]
fn single_thread_critical_never_spins() {
    let mut kb = KernelBuilder::new("solo", 1);
    let out = kb.buffer("OUT", ScalarType::I32, MapDir::ToFrom);
    let n = kb.c_i64(10);
    kb.for_range("i", n, |kb, _| {
        kb.critical(|kb| {
            let z = kb.c_i64(0);
            let cur = kb.load(out, z, Type::I32);
            let one = kb.c_i32(1);
            let inc = kb.add(cur, one);
            let z2 = kb.c_i64(0);
            kb.store(out, z2, inc);
        });
    });
    let k = kb.finish();
    let r = run(
        &k,
        &SimConfig::default().with_fast_launch(),
        &[LaunchArg::Buffer(vec![Value::I32(0)])],
    );
    assert_eq!(r.buffers[0].get(0), Some(Value::I32(10)));
    // Without contention the only "spin" is the semaphore's bus round trip
    // on each acquire — never a queued wait.
    let sim = SimConfig::default();
    assert!(
        r.stats.per_thread[0].spin_cycles <= 10 * sim.sem_acquire_latency,
        "uncontended spins are bounded by the acquire round trip: {}",
        r.stats.per_thread[0].spin_cycles
    );
    assert!(r.stats.per_thread[0].critical_cycles > 0);
}

#[test]
fn zero_launch_interval_starts_all_threads_together() {
    let mut kb = KernelBuilder::new("sync_start", 4);
    let out = kb.buffer("OUT", ScalarType::I64, MapDir::From);
    let tid = kb.thread_id();
    let idx = kb.cast(ScalarType::I64, tid);
    let tid2 = kb.thread_id();
    let v = kb.cast(ScalarType::I64, tid2);
    kb.store(out, idx, v);
    let k = kb.finish();
    let sim = SimConfig {
        launch_interval: 0,
        ..Default::default()
    };
    let r = run(&k, &sim, &[LaunchArg::Buffer(vec![Value::I64(-1); 4])]);
    for t in &r.stats.per_thread {
        assert_eq!(t.start_cycle, 0);
    }
    for i in 0..4 {
        assert_eq!(r.buffers[0].get(i).unwrap().as_i64(), i as i64);
    }
}

#[test]
fn extreme_mshr_and_tiny_dram_still_correct() {
    // Pathological config: 1 MSHR, 1 byte/cycle DRAM, no line buffers —
    // slow but functionally identical.
    let mut kb = KernelBuilder::new("stress", 2);
    let a = kb.buffer("A", ScalarType::F32, MapDir::To);
    let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
    let sum = kb.var("sum", Type::F32);
    let tid = kb.thread_id();
    let my = kb.cast(ScalarType::I64, tid);
    let nt = kb.num_threads_expr();
    let nt64 = kb.cast(ScalarType::I64, nt);
    let end = kb.c_i64(32);
    kb.for_each("i", my, end, nt64, |kb, i| {
        let v = kb.load(a, i, Type::F32);
        let cur = kb.get(sum);
        let s = kb.add(cur, v);
        kb.set(sum, s);
    });
    let tid2 = kb.thread_id();
    let oidx = kb.cast(ScalarType::I64, tid2);
    let sv = kb.get(sum);
    kb.store(out, oidx, sv);
    let k = kb.finish();
    let slow = SimConfig {
        port_mshrs: 1,
        dram_bytes_per_cycle: 1,
        line_buffers: false,
        dram_latency: 200,
        ..SimConfig::default().with_fast_launch()
    };
    let fast = SimConfig::default().with_fast_launch();
    let data: Vec<Value> = (0..32).map(|i| Value::F32(i as f32)).collect();
    let mk = || {
        vec![
            LaunchArg::Buffer(data.clone()),
            LaunchArg::Buffer(vec![Value::F32(0.0); 2]),
        ]
    };
    let rs = run(&k, &slow, &mk());
    let rf = run(&k, &fast, &mk());
    assert_eq!(
        rs.buffers[1], rf.buffers[1],
        "timing must not change values"
    );
    assert!(
        rs.total_cycles > rf.total_cycles * 2,
        "pathological config must actually be slower: {} vs {}",
        rs.total_cycles,
        rf.total_cycles
    );
}

#[test]
fn invalid_config_is_reported_not_panicked() {
    let kb = KernelBuilder::new("cfg_check", 1);
    let k = kb.finish();
    let acc = compile(&k, &HlsConfig::default());
    let bad = SimConfig {
        seq_issue_width: 0,
        ..Default::default()
    };
    match Executor::run(&k, &acc, &bad, &[], &mut NullSnoop) {
        Err(SimError::InvalidConfig(msg)) => {
            assert!(
                msg.contains("seq_issue_width"),
                "message names the field: {msg}"
            );
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn sim_run_can_be_stepped_and_moved_across_threads() {
    // The re-entrant core is Send: build it here, drive it to completion on
    // another thread, and read the result back.
    let mut kb = KernelBuilder::new("stepped", 2);
    let out = kb.buffer("OUT", ScalarType::I64, MapDir::From);
    let tid = kb.thread_id();
    let idx = kb.cast(ScalarType::I64, tid);
    let v = kb.c_i64(7);
    kb.store(out, idx, v);
    let k = kb.finish();
    let acc = compile(&k, &HlsConfig::default());
    let sim = SimConfig::default().with_fast_launch();
    let launch = [LaunchArg::Buffer(vec![Value::I64(0); 2])];
    let run = SimRun::new(&k, &acc, &sim, &launch).expect("valid config");
    let result = std::thread::scope(|s| {
        s.spawn(move || {
            let mut run = run;
            let mut stats = fpga_sim::StatsSnoop::new(2);
            let mut steps = 0u64;
            while run.step(&mut stats).expect("no deadlock") == StepStatus::Running {
                steps += 1;
                assert!(steps < 1_000_000, "runaway simulation");
            }
            assert!(run.is_done());
            run.into_result(stats)
        })
        .join()
        .expect("worker thread panicked")
    });
    assert_eq!(result.buffers[0].get(0).unwrap().as_i64(), 7);
    assert_eq!(result.buffers[0].get(1), Some(Value::I64(7)));
}

#[test]
fn if_branches_take_different_paths_per_thread() {
    let mut kb = KernelBuilder::new("branchy", 2);
    let out = kb.buffer("OUT", ScalarType::I32, MapDir::From);
    let tid = kb.thread_id();
    let zero = kb.c_i32(0);
    let is_zero = kb.bin(nymble_ir::BinOp::Eq, tid, zero);
    let v = kb.var("v", Type::I32);
    kb.if_(
        is_zero,
        |kb| {
            let c = kb.c_i32(100);
            kb.set(v, c);
        },
        |kb| {
            let c = kb.c_i32(200);
            kb.set(v, c);
        },
    );
    let tid2 = kb.thread_id();
    let idx = kb.cast(ScalarType::I64, tid2);
    let vv = kb.get(v);
    kb.store(out, idx, vv);
    let k = kb.finish();
    let r = run(
        &k,
        &SimConfig::default().with_fast_launch(),
        &[LaunchArg::Buffer(vec![Value::I32(0); 2])],
    );
    assert_eq!(r.buffers[0].get(0), Some(Value::I32(100)));
    assert_eq!(r.buffers[0].get(1), Some(Value::I32(200)));
}
