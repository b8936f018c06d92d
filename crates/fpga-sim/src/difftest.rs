//! Differential property suite: the production stepper against one oracle.
//!
//! Generates structured-random valid kernels (loops, critical sections,
//! barriers, external and local memory traffic, preloader DMA, sequential
//! device-blocking loads, thread-dependent bounds) and drives each through
//! both steppers:
//!
//! * [`crate::SimRun::step`] — timing-wheel queue, one slice of a thread's
//!   events per call, the production core,
//! * [`crate::SimRun::step_legacy`] — the pre-refactor linear scan over
//!   thread states, one event per call, the oracle,
//!
//! asserting both produce *identical* snoop streams, total cycles, derived
//! statistics, device wake attributions and deadlock reports. The snooped
//! signal stream is the contract the whole profiling and trace pipeline is
//! built on, so the cores must agree bit-for-bit. Both must also leave the
//! same final buffers as the untimed gold interpreter
//! ([`nymble_ir::interp::Interpreter`]): timing never changes results.

use crate::config::SimConfig;
use crate::device::DeviceStats;
use crate::exec::{SimRun, StepStatus};
use crate::memimg::LaunchArg;
use crate::snoop::{Snoop, SnoopPair, StatsSnoop, ThreadState};
use nymble_hls::accel::{compile, HlsConfig};
use nymble_ir::interp::Interpreter;
use nymble_ir::{Buffer, Kernel, KernelBuilder, MapDir, ScalarType, Type, Value};

/// Deterministic split-mix style generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Every snoop signal, recorded verbatim.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Sig {
    State(u64, u32, ThreadState),
    Stall(u64, u32, u64),
    Ops(u64, u32, u64, u64, u64),
    Read(u64, u32, u64),
    Write(u64, u32, u64),
    Iter(u64, u32),
    End(u64),
}

#[derive(Default)]
struct Recorder {
    log: Vec<Sig>,
}

impl Snoop for Recorder {
    fn state_change(&mut self, t: u64, tid: u32, s: ThreadState) {
        self.log.push(Sig::State(t, tid, s));
    }
    fn stall(&mut self, t: u64, tid: u32, c: u64) {
        self.log.push(Sig::Stall(t, tid, c));
    }
    fn ops(&mut self, t: u64, tid: u32, i: u64, f: u64, l: u64) {
        self.log.push(Sig::Ops(t, tid, i, f, l));
    }
    fn mem_read(&mut self, t: u64, tid: u32, b: u64) {
        self.log.push(Sig::Read(t, tid, b));
    }
    fn mem_write(&mut self, t: u64, tid: u32, b: u64) {
        self.log.push(Sig::Write(t, tid, b));
    }
    fn iteration(&mut self, t: u64, tid: u32) {
        self.log.push(Sig::Iter(t, tid));
    }
    fn run_end(&mut self, t: u64) {
        self.log.push(Sig::End(t));
    }
}

/// One structured-random kernel plus matching launch arguments.
fn gen_kernel(rng: &mut Rng) -> (Kernel, Vec<LaunchArg>) {
    let threads = 1 + rng.below(4) as u32;
    let buf_len = 64usize;
    let mut kb = KernelBuilder::new("diff", threads);
    let a = kb.buffer("A", ScalarType::F32, MapDir::To);
    let out = kb.buffer("OUT", ScalarType::F32, MapDir::ToFrom);
    let acc_v = kb.var("acc", Type::F32);

    let segments = 1 + rng.below(3);
    for seg in 0..segments {
        match rng.below(7) {
            // Pipelined load-accumulate loop, unit or strided walk.
            0 | 1 => {
                let trip = 4 + rng.below(24) as i64;
                let stride = if rng.below(3) == 0 { 16 } else { 1 };
                let n = kb.c_i64(trip);
                kb.for_range("i", n, |kb, i| {
                    let s = kb.c_i64(stride);
                    let scaled = kb.mul(i, s);
                    let len = kb.c_i64(buf_len as i64);
                    let idx = kb.bin(nymble_ir::BinOp::Rem, scaled, len);
                    let v = kb.load(a, idx, Type::F32);
                    let cur = kb.get(acc_v);
                    let sum = kb.add(cur, v);
                    kb.set(acc_v, sum);
                });
            }
            // Loop of contended critical sections.
            2 => {
                let trip = 1 + rng.below(4) as i64;
                let n = kb.c_i64(trip);
                kb.for_range("c", n, |kb, _| {
                    kb.critical(|kb| {
                        let z = kb.c_i64(0);
                        let cur = kb.load(out, z, Type::F32);
                        let one = kb.c_f32(1.0);
                        let inc = kb.add(cur, one);
                        let z2 = kb.c_i64(0);
                        kb.store(out, z2, inc);
                    });
                });
            }
            // Barrier.
            3 => kb.barrier(),
            // Preloader DMA burst, then local reads that race the DMA
            // completion — exercises the DmaComplete device-wake path.
            4 => {
                let lm = kb.local_mem(&format!("pl{seg}"), Type::F32, 32);
                let src_off = kb.c_i64(rng.below(16) as i64);
                let dst_off = kb.c_i64(0);
                let burst = kb.c_i64(32);
                kb.preload(lm, a, src_off, dst_off, burst);
                let n = kb.c_i64(4 + rng.below(8) as i64);
                kb.for_range("p", n, |kb, j| {
                    let len = kb.c_i64(32);
                    let idx = kb.bin(nymble_ir::BinOp::Rem, j, len);
                    let v = kb.load_local(lm, idx, Type::F32);
                    let cur = kb.get(acc_v);
                    let sum = kb.add(cur, v);
                    kb.set(acc_v, sum);
                });
            }
            // Strided external loads in a region-bearing (non-pipelined)
            // loop: each load blocks the thread until its line fetch or
            // channel grant completes — the LineFetch / ChannelGrant
            // device-wake paths.
            5 => {
                let trip = 2 + rng.below(6) as i64;
                let n = kb.c_i64(trip);
                kb.for_range("s", n, |kb, i| {
                    let s16 = kb.c_i64(16);
                    let scaled = kb.mul(i, s16);
                    let len = kb.c_i64(buf_len as i64);
                    let idx = kb.bin(nymble_ir::BinOp::Rem, scaled, len);
                    let v = kb.load(a, idx, Type::F32);
                    let cur = kb.get(acc_v);
                    let sum = kb.add(cur, v);
                    kb.set(acc_v, sum);
                    // Inner loop keeps the outer loop statement-timed.
                    let m = kb.c_i64(4);
                    kb.for_range("t", m, |kb, _| {
                        let cur = kb.get(acc_v);
                        let one = kb.c_f32(1.0);
                        let s = kb.add(cur, one);
                        kb.set(acc_v, s);
                    });
                });
            }
            // Thread-dependent work then store.
            _ => {
                let tid = kb.thread_id();
                let tid64 = kb.cast(ScalarType::I64, tid);
                let c8 = kb.c_i64(8);
                let end = kb.mul(tid64, c8);
                kb.for_range("w", end, |kb, j| {
                    let len = kb.c_i64(buf_len as i64);
                    let idx = kb.bin(nymble_ir::BinOp::Rem, j, len);
                    let v = kb.load(a, idx, Type::F32);
                    let cur = kb.get(acc_v);
                    let sum = kb.add(cur, v);
                    kb.set(acc_v, sum);
                });
                let tid2 = kb.thread_id();
                let oidx = kb.cast(ScalarType::I64, tid2);
                let one = kb.c_i64(1);
                let oidx1 = kb.add(oidx, one);
                let av = kb.get(acc_v);
                kb.store(out, oidx1, av);
            }
        }
    }
    let k = kb.finish();
    let launch = vec![
        LaunchArg::Buffer((0..buf_len).map(|i| Value::F32(i as f32 * 0.25)).collect()),
        LaunchArg::Buffer(vec![Value::F32(0.0); threads as usize + 1]),
    ];
    (k, launch)
}

/// Random-ish but deterministic simulator configurations.
fn gen_config(rng: &mut Rng) -> SimConfig {
    SimConfig {
        launch_interval: [0, 200, 1000, 50_000][rng.below(4) as usize],
        port_mshrs: 1 + rng.below(2) as u32,
        line_buffers: rng.below(4) != 0,
        dram_latency: [40, 160][rng.below(2) as usize],
        ..Default::default()
    }
}

/// Which dispatch core to drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Core {
    /// Timing-wheel queue, one slice per call (`step`), the production core.
    Wheel,
    /// Pre-refactor linear-scan reference (`step_legacy`).
    Legacy,
}

/// Advance `sim` by one call of `core`'s stepper.
fn step_on<S: Snoop>(
    sim: &mut SimRun<'_>,
    snoop: &mut S,
    core: Core,
) -> Result<StepStatus, crate::SimError> {
    match core {
        Core::Wheel => sim.step(snoop),
        Core::Legacy => sim.step_legacy(snoop),
    }
}

/// Everything one run produces that the cores must agree on.
struct Observed {
    log: Vec<Sig>,
    cycles: u64,
    threads: Vec<crate::stats::ThreadStats>,
    devices: DeviceStats,
    buffers: Vec<Buffer>,
}

fn run_steps<S: Snoop>(sim: &mut SimRun<'_>, snoop: &mut S, core: Core) {
    let mut guard = 0u64;
    loop {
        if step_on(sim, snoop, core).expect("no deadlock") == StepStatus::Done {
            break;
        }
        guard += 1;
        assert!(guard < 10_000_000, "runaway differential run");
    }
}

/// Drive a fresh run on the given core; return everything observable.
fn drive(kernel: &Kernel, cfg: &SimConfig, launch: &[LaunchArg], core: Core) -> Observed {
    let accel = compile(kernel, &HlsConfig::default());
    let mut stats = StatsSnoop::new(kernel.num_threads);
    let mut rec = Recorder::default();
    let mut sim = SimRun::new(kernel, &accel, cfg, launch).expect("valid config");
    run_steps(&mut sim, &mut SnoopPair::new(&mut stats, &mut rec), core);
    let (cycles, devices) = (sim.total_cycles(), sim.device_stats());
    // The statistics were observed by `stats` in thread order; `into_result`
    // only needs a snoop to fold in, so it gets an empty one.
    let buffers = sim.into_result(StatsSnoop::new(kernel.num_threads)).buffers;
    Observed {
        log: rec.log,
        cycles,
        threads: stats.into_stats(),
        devices,
        buffers,
    }
}

#[test]
fn wheel_and_legacy_cores_agree_on_random_kernels() {
    let mut rng = Rng(0xC0FFEE);
    for case in 0..24 {
        let (kernel, launch) = gen_kernel(&mut rng);
        let cfg = gen_config(&mut rng);
        let wheel = drive(&kernel, &cfg, &launch, Core::Wheel);
        let legacy = drive(&kernel, &cfg, &launch, Core::Legacy);
        let gold = Interpreter::run(&kernel, &launch).buffers;
        assert_eq!(wheel.buffers, gold, "case {case}: wheel results != gold");
        assert_eq!(legacy.buffers, gold, "case {case}: legacy results != gold");
        assert_eq!(
            wheel.cycles, legacy.cycles,
            "case {case}: total cycles diverged (wheel {} vs legacy {})",
            wheel.cycles, legacy.cycles
        );
        assert_eq!(
            wheel.threads, legacy.threads,
            "case {case}: derived statistics diverged"
        );
        assert_eq!(
            wheel.devices, legacy.devices,
            "case {case}: device wake attribution diverged"
        );
        if wheel.log != legacy.log {
            let first = wheel
                .log
                .iter()
                .zip(legacy.log.iter())
                .position(|(x, y)| x != y)
                .unwrap_or(wheel.log.len().min(legacy.log.len()));
            panic!(
                "case {case}: snoop streams diverged at signal {first}: \
                 wheel {:?} vs legacy {:?} (lens {} vs {})",
                wheel.log.get(first),
                legacy.log.get(first),
                wheel.log.len(),
                legacy.log.len()
            );
        }
    }
}

#[test]
fn device_wakes_fire_and_are_attributed_identically_across_cores() {
    // Deterministic kernel touching all three device classes: a preloader
    // burst raced by local reads (DmaComplete), then strided external loads
    // from two threads in a region-bearing loop (LineFetch, and ChannelGrant
    // under cross-thread contention).
    let mut kb = KernelBuilder::new("devwake", 2);
    let a = kb.buffer("A", ScalarType::F32, MapDir::To);
    let out = kb.buffer("OUT", ScalarType::F32, MapDir::From);
    let lm = kb.local_mem("lm", Type::F32, 64);
    let acc_v = kb.var("acc", Type::F32);
    let z = kb.c_i64(0);
    let z2 = kb.c_i64(0);
    let burst = kb.c_i64(64);
    kb.preload(lm, a, z, z2, burst);
    // Immediate local read races the DMA.
    let one = kb.c_i64(1);
    let v0 = kb.load_local(lm, one, Type::F32);
    kb.set(acc_v, v0);
    // Strided, region-bearing loop of blocking external loads.
    let n = kb.c_i64(8);
    kb.for_range("s", n, |kb, i| {
        let s16 = kb.c_i64(16);
        let scaled = kb.mul(i, s16);
        let len = kb.c_i64(512);
        let idx = kb.bin(nymble_ir::BinOp::Rem, scaled, len);
        let v = kb.load(a, idx, Type::F32);
        let cur = kb.get(acc_v);
        let sum = kb.add(cur, v);
        kb.set(acc_v, sum);
        let m = kb.c_i64(2);
        kb.for_range("t", m, |kb, _| {
            let cur = kb.get(acc_v);
            let c = kb.c_f32(1.0);
            let s = kb.add(cur, c);
            kb.set(acc_v, s);
        });
    });
    let tid = kb.thread_id();
    let oidx = kb.cast(ScalarType::I64, tid);
    let av = kb.get(acc_v);
    kb.store(out, oidx, av);
    let k = kb.finish();
    let launch = [
        LaunchArg::Buffer((0..512).map(|i| Value::F32(i as f32)).collect()),
        LaunchArg::Buffer(vec![Value::F32(0.0); 2]),
    ];
    let cfg = SimConfig::default().with_fast_launch();
    let wheel = drive(&k, &cfg, &launch, Core::Wheel);
    assert!(
        wheel.devices.dma_wakes > 0,
        "local read must block on the DMA: {:?}",
        wheel.devices
    );
    assert!(
        wheel.devices.line_fetch_wakes > 0,
        "strided loads must block on line fetches: {:?}",
        wheel.devices
    );
    assert!(wheel.devices.blocked_cycles > 0);
    let legacy = drive(&k, &cfg, &launch, Core::Legacy);
    assert_eq!(wheel.devices, legacy.devices);
    assert_eq!(wheel.cycles, legacy.cycles);
    assert_eq!(wheel.log, legacy.log);
}

#[test]
fn event_core_matches_legacy_on_barrier_with_early_finishers() {
    // Thread-dependent pre-barrier work plus an early-exit pattern: thread 0
    // does nothing before the barrier, others loop. Exercises the
    // finished-thread barrier re-check on both cores.
    let mut kb = KernelBuilder::new("bar_early", 3);
    let out = kb.buffer("OUT", ScalarType::I32, MapDir::ToFrom);
    let tid = kb.thread_id();
    let tid64 = kb.cast(ScalarType::I64, tid);
    let c32 = kb.c_i64(32);
    let n = kb.mul(tid64, c32);
    let acc_v = kb.var("acc", Type::I32);
    kb.for_range("i", n, |kb, _| {
        let cur = kb.get(acc_v);
        let one = kb.c_i32(1);
        let s = kb.add(cur, one);
        kb.set(acc_v, s);
    });
    kb.barrier();
    let tid2 = kb.thread_id();
    let idx = kb.cast(ScalarType::I64, tid2);
    let av = kb.get(acc_v);
    kb.store(out, idx, av);
    let k = kb.finish();
    let launch = [LaunchArg::Buffer(vec![Value::I32(0); 3])];
    let cfg = SimConfig::default().with_fast_launch();
    let wheel = drive(&k, &cfg, &launch, Core::Wheel);
    let legacy = drive(&k, &cfg, &launch, Core::Legacy);
    assert_eq!(wheel.cycles, legacy.cycles);
    assert_eq!(wheel.log, legacy.log);
}

#[test]
fn semaphore_grant_mid_slice_matches_legacy() {
    // Three threads launched together contend for the semaphore, then run a
    // pipelined load loop. Each release re-queues the FIFO grantee at its
    // grant time while the releasing thread runs on into its loop, so the
    // production core must notice the newly queued thread: a dispatcher that
    // keeps the queue minimum it read before the grant runs the releaser
    // past the grantee and reorders the snoop stream.
    let mut kb = KernelBuilder::new("grant_mid_slice", 3);
    let a = kb.buffer("A", ScalarType::F32, MapDir::To);
    let out = kb.buffer("OUT", ScalarType::I32, MapDir::ToFrom);
    let acc_v = kb.var("acc", Type::F32);
    let rounds = kb.c_i64(4);
    kb.for_range("r", rounds, |kb, _| {
        kb.critical(|kb| {
            let z = kb.c_i64(0);
            let cur = kb.load(out, z, Type::I32);
            let one = kb.c_i32(1);
            let inc = kb.add(cur, one);
            let z2 = kb.c_i64(0);
            kb.store(out, z2, inc);
        });
        let n = kb.c_i64(32);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(acc_v);
            let sum = kb.add(cur, v);
            kb.set(acc_v, sum);
        });
    });
    let k = kb.finish();
    let launch = [
        LaunchArg::Buffer((0..32).map(|i| Value::F32(i as f32)).collect()),
        LaunchArg::Buffer(vec![Value::I32(0)]),
    ];
    let cfg = SimConfig {
        launch_interval: 0,
        ..Default::default()
    };
    let wheel = drive(&k, &cfg, &launch, Core::Wheel);
    let legacy = drive(&k, &cfg, &launch, Core::Legacy);
    assert_eq!(wheel.buffers, legacy.buffers);
    assert_eq!(wheel.buffers, Interpreter::run(&k, &launch).buffers);
    assert_eq!(
        wheel.buffers[1].get(0),
        Some(Value::I32(12)),
        "3 threads × 4 increments"
    );
    assert_eq!(wheel.cycles, legacy.cycles);
    assert_eq!(wheel.log, legacy.log);
}

#[test]
fn deadlock_reports_are_identical_and_sorted() {
    // A barrier inside a critical section deadlocks every thread. The
    // builder's validation (rightly) refuses to construct this, so forge it
    // by moving a top-level barrier into the critical body after `finish` —
    // exactly the class of broken kernel the deadlock report is for.
    let mut kb = KernelBuilder::new("dl", 2);
    let x = kb.var("x", Type::I32);
    kb.critical(|kb| {
        let one = kb.c_i32(1);
        kb.set(x, one);
    });
    kb.barrier();
    let mut k = kb.finish();
    let barrier = k.body.pop().expect("barrier stmt");
    assert!(matches!(barrier, nymble_ir::stmt::Stmt::Barrier));
    match k.body.last_mut().expect("critical stmt") {
        nymble_ir::stmt::Stmt::Critical { body } => body.push(barrier),
        other => panic!("expected critical, got {other:?}"),
    }
    let accel = compile(&k, &HlsConfig::default());
    let cfg = SimConfig::default().with_fast_launch();
    let run_to_deadlock = |core: Core| -> crate::SimError {
        let mut sim = SimRun::new(&k, &accel, &cfg, &[]).expect("valid");
        let mut snoop = crate::NullSnoop;
        loop {
            match step_on(&mut sim, &mut snoop, core) {
                Ok(StepStatus::Done) => panic!("expected deadlock"),
                Ok(StepStatus::Running) => continue,
                Err(e) => break e,
            }
        }
    };
    let wheel = run_to_deadlock(Core::Wheel);
    assert_eq!(
        wheel,
        run_to_deadlock(Core::Legacy),
        "deadlock reports must not depend on core"
    );
    let crate::SimError::Deadlock { waiting } = &wheel else {
        panic!("expected deadlock, got {wheel:?}");
    };
    // Sorted by thread id and carrying actionable resource details.
    let ids: Vec<u32> = waiting.iter().map(|b| b.thread).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted);
    let text = wheel.to_string();
    assert!(
        text.contains("waiting at barrier (1/2 arrived)"),
        "barrier detail missing: {text}"
    );
    assert!(
        text.contains("waiting on semaphore held by thread"),
        "semaphore detail missing: {text}"
    );
}
