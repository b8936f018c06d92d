//! Golden pins of the static cost models.
//!
//! Every number the no-simulation path derives for a kernel is pinned here:
//! the static cost walker's symbolic model (`nymble_hls::perf::model`, the
//! pricing behind perf-lint), the per-region profits (`region_profits`,
//! keyed by pre-order statement index and name), the region tree's profits
//! and selection scores, the auto-probe plan, and the analytic estimate
//! (`fpga_sim::analytic::estimate_with_image`, the same walker over the
//! compiled schedules). The
//! kernels cover GEMM v1–v5 over a grid of sizes and thread counts, π,
//! seeded SpMV, the extra kernels, every lint fixture and one small kernel
//! per kind of expression that makes loop iterations price differently
//! (see `nymble_ir::loops::var_steers_cost`), so a change to the walker
//! that moves any estimate fails here with a readable line diff. Two more
//! tests pin the intended differences between the walker's loop sources.
//! Regenerate intentionally with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release -p bench --test static_models_golden
//! ```

use bench::{
    f32_buffer, gemm_launch, gemm_sim_config, pi_launch, pi_sim_config, spmv_launch,
    spmv_sim_config,
};
use fpga_sim::memimg::{LaunchArg, MemImage};
use fpga_sim::SimConfig;
use kernels::gemm::{self, GemmParams, GemmVersion};
use kernels::pi::{self, PiParams};
use kernels::reference;
use kernels::spmv::{self, Csr};
use nymble_hls::accel::{compile, HlsConfig};
use nymble_hls::perf::{self, pipeline_eligible, region_profits, LoopSource, Timing};
use nymble_hls::{ProbeMode, RegionTree};
use nymble_ir::loops::LoopMap;
use nymble_ir::stmt::{visit_stmts, Unroll};
use nymble_ir::{ArgKind, BinOp, Kernel, KernelBuilder, MapDir, ScalarType, Stmt, Type, Value};
use std::fmt::Write as _;
use std::path::PathBuf;

struct Case {
    name: String,
    kernel: Kernel,
    launch: Vec<LaunchArg>,
    sim: SimConfig,
}

fn gemm_cases() -> Vec<Case> {
    let mut out = Vec::new();
    for dim in [16, 32, 48, 64, 128] {
        for threads in [1, 2, 4, 8, 16] {
            let p = GemmParams {
                dim,
                threads,
                ..GemmParams::default()
            };
            if p.validate().is_err() {
                continue;
            }
            let launch = gemm_launch(&p);
            for v in GemmVersion::ALL {
                let kernel = gemm::build(v, &p);
                out.push(Case {
                    name: format!("{}_d{dim}_t{threads}", kernel.name),
                    kernel,
                    launch: launch.clone(),
                    sim: gemm_sim_config(),
                });
            }
        }
    }
    out
}

/// Scalars get 1 and buffers 64 zeroed elements: enough for every
/// fixture's indices (the same launch the lint oracle replays).
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

fn other_cases() -> Vec<Case> {
    let mut out = Vec::new();
    let pi_p = PiParams {
        steps: 1_000_000,
        threads: 8,
        bs: 8,
    };
    out.push(Case {
        name: "pi".into(),
        kernel: pi::build(&pi_p),
        launch: pi_launch(&pi_p),
        sim: pi_sim_config(),
    });
    let m = Csr::random(2048, 2048, 16, 1);
    for t in [8, 64] {
        out.push(Case {
            name: format!("spmv_2048_t{t}"),
            kernel: spmv::build(m.rows as i64, t),
            launch: spmv_launch(&m),
            sim: spmv_sim_config(),
        });
    }
    let side = 64;
    let n = 4096;
    let grid = reference::gen_matrix(side, 1);
    let vec_a = f32_buffer(&grid[..n]);
    let unit: Vec<f32> = grid[..n].iter().map(|x| (x + 1.0) / 2.0).collect();
    let zeros = |len: usize| f32_buffer(&vec![0.0; len]);
    let extras = [
        (
            kernels::extra::vecadd(n as i64, 8),
            vec![vec_a.clone(), vec_a.clone(), zeros(n)],
        ),
        (
            kernels::extra::dot(n as i64, 8),
            vec![vec_a.clone(), vec_a.clone(), zeros(1)],
        ),
        (
            kernels::extra::jacobi(side as i64, 8),
            vec![f32_buffer(&grid), zeros(grid.len())],
        ),
        (
            kernels::extra::histogram(n as i64, 16, 8),
            vec![
                f32_buffer(&unit),
                LaunchArg::Buffer(vec![Value::I32(0); 16]),
            ],
        ),
        (kernels::reduction::build(n as i64, 8), vec![vec_a]),
    ];
    for (kernel, launch) in extras {
        out.push(Case {
            name: kernel.name.clone(),
            kernel,
            launch,
            sim: gemm_sim_config(),
        });
    }
    for f in kernels::fixtures::all() {
        out.push(Case {
            name: format!("fixture_{}", f.name),
            launch: generic_launch(&f.kernel),
            kernel: f.kernel,
            sim: gemm_sim_config(),
        });
    }
    for kernel in steering_kernels() {
        out.push(Case {
            name: format!("steer_{}", kernel.name),
            launch: generic_launch(&kernel),
            kernel,
            sim: gemm_sim_config(),
        });
    }
    out
}

/// One short sequential loop per steering rule, in which only that kind
/// of expression reads the induction variable `i`: each prices differently
/// per iteration, so pricing any of them as body × trip moves a pin.
fn steering_kernels() -> Vec<Kernel> {
    let f32 = Type::F32;
    let mut out = Vec::new();

    // An `If` condition: only the first three iterations serialize.
    let mut kb = KernelBuilder::new("guard", 2);
    let c = kb.buffer("C", ScalarType::F32, MapDir::ToFrom);
    let n = kb.c_i64(8);
    kb.for_range("i", n, |kb, i| {
        let three = kb.c_i64(3);
        let lt = kb.bin(BinOp::Lt, i, three);
        kb.if_then(lt, |kb| {
            kb.critical(|kb| {
                let z = kb.c_i64(0);
                let cur = kb.load(c, z, f32);
                let one = kb.c_f32(1.0);
                let s = kb.add(cur, one);
                kb.store(c, z, s);
            });
        });
    });
    out.push(kb.finish());

    // An inner loop's bound: a triangular nest.
    let mut kb = KernelBuilder::new("triangle", 2);
    let a = kb.buffer("A", ScalarType::F32, MapDir::To);
    let acc = kb.var("acc", f32);
    let n = kb.c_i64(8);
    kb.for_range("i", n, |kb, i| {
        kb.for_range("j", i, |kb, j| {
            let v = kb.load(a, j, f32);
            let cur = kb.get(acc);
            let s = kb.add(cur, v);
            kb.set(acc, s);
        });
    });
    out.push(kb.finish());

    // A burst length.
    let mut kb = KernelBuilder::new("burst", 2);
    let a = kb.buffer("A", ScalarType::F32, MapDir::To);
    let l = kb.local_mem("L", f32, 16);
    let n = kb.c_i64(8);
    kb.for_range("i", n, |kb, i| {
        let z = kb.c_i64(0);
        let one = kb.c_i64(1);
        let len = kb.add(i, one);
        kb.preload(l, a, z, z, len);
    });
    out.push(kb.finish());

    // External indices: the inner loop's load stride grows with `i`...
    let mut kb = KernelBuilder::new("load_stride", 2);
    let a = kb.buffer("A", ScalarType::F32, MapDir::To);
    let acc = kb.var("acc", f32);
    let n = kb.c_i64(8);
    kb.for_range("i", n, |kb, i| {
        let m = kb.c_i64(64);
        kb.for_range("j", m, |kb, j| {
            let idx = kb.mul(i, j);
            let v = kb.load(a, idx, f32);
            let cur = kb.get(acc);
            let s = kb.add(cur, v);
            kb.set(acc, s);
        });
    });
    out.push(kb.finish());

    // ...and so does its store stride.
    let mut kb = KernelBuilder::new("store_stride", 2);
    let c = kb.buffer("C", ScalarType::F32, MapDir::From);
    let n = kb.c_i64(8);
    kb.for_range("i", n, |kb, i| {
        let m = kb.c_i64(64);
        kb.for_range("j", m, |kb, j| {
            let idx = kb.mul(i, j);
            let v = kb.c_f32(1.0);
            kb.store(c, idx, v);
        });
    });
    out.push(kb.finish());
    out
}

/// Stable name of every region-forming statement, keyed by its address:
/// `<pre-order index>:<mnemonic>:<loop variable or local memory>`.
fn stmt_keys(k: &Kernel) -> Vec<(usize, String)> {
    let mut keys = Vec::new();
    let mut idx = 0usize;
    visit_stmts(&k.body, &mut |s| {
        let name = match s {
            Stmt::For { var, .. } => k.var(*var).name.clone(),
            Stmt::Preload { mem, .. } | Stmt::WriteBack { mem, .. } => {
                k.local_mem(*mem).name.clone()
            }
            _ => String::new(),
        };
        keys.push((
            s as *const Stmt as usize,
            format!("{idx}:{}:{name}", s.mnemonic()),
        ));
        idx += 1;
    });
    keys
}

fn render(c: &Case) -> String {
    let p = Timing::default();
    let k = &c.kernel;
    let mut out = format!("== {}\n", c.name);
    match perf::model(k, &p) {
        Some(m) => writeln!(
            out,
            "model total={} dram={} critical={} per_thread={:?}",
            m.total_cycles, m.dram_bytes, m.critical_cycles, m.per_thread
        ),
        None => writeln!(out, "model none"),
    }
    .unwrap();
    match region_profits(k, &p) {
        Some(profits) => {
            for (addr, key) in stmt_keys(k) {
                if let Some(r) = profits.get(&addr) {
                    writeln!(
                        out,
                        "profit {key} cycles={} dram={} critical={} dma={}",
                        r.cycles, r.dram_bytes, r.critical_cycles, r.dma_cycles
                    )
                    .unwrap();
                }
            }
        }
        None => out.push_str("profits none\n"),
    }
    let hls = HlsConfig {
        probe: ProbeMode::auto(),
        ..HlsConfig::default()
    };
    let accel = compile(k, &hls);
    writeln!(out, "tree analytic={}", accel.regions.analytic).unwrap();
    for r in &accel.regions.regions {
        writeln!(
            out,
            "region {} {} parent={:?} cycles={} dram={} critical={} dma={} score={}",
            r.label,
            r.kind.name(),
            r.parent,
            r.profit.cycles,
            r.profit.dram_bytes,
            r.profit.critical_cycles,
            r.profit.dma_cycles,
            r.score
        )
        .unwrap();
    }
    let plan = accel.probe_plan.as_ref().expect("auto plan");
    let counters: Vec<&str> = plan.counters.iter().map(|c| c.name()).collect();
    let regions: Vec<u16> = plan.regions.iter().map(|r| r.id).collect();
    writeln!(
        out,
        "plan counters={counters:?} regions={regions:?} skipped={} alms={} regs={}",
        plan.skipped_regions, plan.cost_alms, plan.cost_regs
    )
    .unwrap();
    let (mem, scalars) = MemImage::new(k, &c.launch);
    match fpga_sim::analytic::estimate_with_image(k, &accel, &c.sim, &scalars, &mem) {
        Some(r) => writeln!(
            out,
            "analytic total={} bound={} dram={} critical={} per_thread={:?}",
            r.total_cycles, r.bound, r.dram_bytes, r.critical_cycles, r.per_thread
        ),
        None => writeln!(out, "analytic none"),
    }
    .unwrap();
    out
}

fn check_golden(file: &str, cases: Vec<Case>) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(file);
    let got: String = cases.iter().map(render).collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    let mut case = "";
    for (w, g) in want.lines().zip(got.lines()) {
        if let Some(name) = w.strip_prefix("== ") {
            case = name;
        }
        assert_eq!(
            w,
            g,
            "static cost model output for `{case}` drifted from {}; if intentional, \
             regenerate with UPDATE_GOLDEN=1",
            path.display()
        );
    }
    assert_eq!(
        want.lines().count(),
        got.lines().count(),
        "{} lists a different set of cases",
        path.display()
    );
}

#[test]
fn gemm_static_models_match_golden() {
    check_golden("static_models_gemm.txt", gemm_cases());
}

#[test]
fn other_static_models_match_golden() {
    check_golden("static_models_other.txt", other_cases());
}

/// An enclosing region never scores below a region nested in it, on every
/// kernel of the corpus, so the probe optimizer's parent-before-child
/// order ranks by real stall exposure. DMA-bound kernels (`burst`, blocked
/// GEMM) are the case to watch: their DMA time must count at the root too.
#[test]
fn region_scores_never_rise_from_parent_to_child() {
    let mut edges = 0;
    for c in gemm_cases().into_iter().chain(other_cases()) {
        let tree = RegionTree::build(&c.kernel, &Timing::default());
        for r in &tree.regions {
            if let Some(p) = r.parent {
                let parent = tree.region(p);
                assert!(
                    parent.score >= r.score,
                    "`{}`: {} scores {} below its child {} at {}",
                    c.name,
                    parent.label,
                    parent.score,
                    r.label,
                    r.score
                );
                edges += 1;
            }
        }
    }
    assert!(edges > 500, "corpus covers {edges} parent-child edges");
}

/// The whole corpus, each kernel with its compiled design.
fn compiled_corpus() -> Vec<(Case, nymble_hls::Accelerator)> {
    gemm_cases()
        .into_iter()
        .chain(other_cases())
        .map(|c| {
            let accel = compile(&c.kernel, &HlsConfig::default());
            (c, accel)
        })
        .collect()
}

/// The symbolic source decides pipelining structurally; the compiled
/// schedule decides it from the lowered DFG. They agree on every
/// non-unrolled loop of the corpus.
#[test]
fn structural_eligibility_matches_the_scheduled_loop_mode() {
    let mut loops = 0;
    for (c, accel) in compiled_corpus() {
        let map = LoopMap::build(&c.kernel);
        visit_stmts(&c.kernel.body, &mut |s| {
            if let Stmt::For { body, unroll, .. } = s {
                if *unroll != Unroll::Full {
                    let id = map.id_of(s);
                    assert_eq!(
                        pipeline_eligible(body),
                        accel.pipelined(id).is_some(),
                        "`{}` loop {id:?}",
                        c.name
                    );
                    loops += 1;
                }
            }
        });
    }
    assert!(loops > 800, "corpus covers {loops} loops");
}

/// Only the scheduled source prices restart contention: naive GEMM's
/// per-thread strided walks re-enter their pipelined loop once per output
/// element, π has no independent miss stream, and no kernel prices any
/// contention symbolically. Read from the walker's summed contention, not
/// from totals (the sources' II and depth differ too).
#[test]
fn restart_contention_is_priced_by_the_scheduled_source_only() {
    let scheduled = |c: &Case, accel: &nymble_hls::Accelerator| {
        let (mem, scalars) = MemImage::new(&c.kernel, &c.launch);
        perf::estimate(
            &c.kernel,
            LoopSource::Scheduled(accel),
            &c.sim.timing(),
            &scalars,
            Some(mem.buffers()),
        )
        .map(|m| m.contention)
    };
    let corpus = compiled_corpus();
    let named = |name: &str| {
        corpus
            .iter()
            .find(|(c, _)| c.name == name)
            .unwrap_or_else(|| panic!("`{name}` in the corpus"))
    };
    let (gemm, gemm_accel) = named("gemm_naive_d16_t4");
    assert!(scheduled(gemm, gemm_accel).expect("resolvable") > 0);
    let (pi, pi_accel) = named("pi");
    assert_eq!(scheduled(pi, pi_accel), Some(0));
    for (c, _) in &corpus {
        if let Some(m) = perf::model(&c.kernel, &c.sim.timing()) {
            assert_eq!(m.contention, 0, "`{}` symbolic contention", c.name);
        }
    }
}
