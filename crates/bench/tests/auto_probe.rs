//! End-to-end checks of the `--profile=auto` pipeline: the knapsack plan
//! covers the hand-chosen counter set at the default budget, the emitted
//! `.pcf`/`.row` bundle sections are golden across budgets (with the
//! smaller-budget plan a subset of the larger), instrumenting a design is
//! observationally free (identical simulated behaviour), and the region
//! attribution reconciles with the whole-kernel cycle count.

use bench::{
    gemm_launch, gemm_sim_config, run_profiled_with, spmv_launch, spmv_sim_config, BenchError,
    ProfiledRun,
};
use fpga_sim::memimg::LaunchArg;
use fpga_sim::SimConfig;
use hls_profiling::ProfilingConfig;
use kernels::gemm::{self, GemmParams, GemmVersion};
use kernels::pi::{self, PiParams};
use kernels::spmv::{self, Csr};
use nymble_hls::{AccelCache, HlsConfig, ProbeMode, ProbePlan, DEFAULT_PROBE_BUDGET_ALMS};
use nymble_ir::Kernel;

fn auto_hls(budget_alms: u32) -> HlsConfig {
    HlsConfig {
        probe: ProbeMode::Auto { budget_alms },
        ..HlsConfig::default()
    }
}

fn run_auto(
    kernel: &Kernel,
    sim: &SimConfig,
    launch: &[LaunchArg],
    budget_alms: u32,
) -> ProfiledRun {
    run_profiled_with(
        &AccelCache::new(),
        kernel,
        &auto_hls(budget_alms),
        sim,
        &ProfilingConfig::default(),
        launch,
    )
    .expect("auto-probe run failed")
}

fn small_gemm() -> GemmParams {
    GemmParams {
        dim: 16,
        threads: 2,
        vec: 4,
        block: 8,
    }
}

#[test]
fn default_budget_plan_covers_the_hand_chosen_set_on_every_case_study() {
    // Acceptance criterion: GEMM v1–v5 plus π at the default budget select
    // 100% of the hand-chosen counter classes, and the modeled cost fits
    // the budget per the cost model.
    let cache = AccelCache::new();
    let hls = auto_hls(DEFAULT_PROBE_BUDGET_ALMS);
    let p = small_gemm();
    let mut kernels: Vec<Kernel> = GemmVersion::ALL
        .iter()
        .map(|&v| gemm::build(v, &p))
        .collect();
    kernels.push(pi::build(&PiParams {
        steps: 64_000,
        threads: 4,
        bs: 8,
    }));
    for kernel in &kernels {
        let accel = cache.get_or_compile(kernel, &hls);
        let plan = accel
            .probe_plan
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no plan under ProbeMode::Auto", kernel.name));
        assert!(
            plan.covers_default_set(),
            "{}: default budget must cover the hand-chosen counter set, got {:?}",
            kernel.name,
            plan.counters
        );
        assert!(
            plan.cost_alms <= u64::from(plan.budget_alms),
            "{}: plan cost {} exceeds budget {}",
            kernel.name,
            plan.cost_alms,
            plan.budget_alms
        );
        assert!(
            !plan.regions.is_empty(),
            "{}: no regions probed",
            kernel.name
        );
    }
}

/// Read the `.pcf`/`.row` pair a bundle write produced.
fn bundle_sections(stem: &std::path::Path) -> (String, String) {
    let pcf = std::fs::read_to_string(stem.with_extension("pcf")).expect("read .pcf");
    let row = std::fs::read_to_string(stem.with_extension("row")).expect("read .row");
    (pcf, row)
}

fn assert_golden_bundle(run: &ProfiledRun, stem: &std::path::Path) {
    let plan = run.accel.probe_plan.as_ref().expect("auto plan");
    run.trace.write_bundle(stem).expect("write bundle");
    let (pcf, row) = bundle_sections(stem);
    // Every planned region appears as a typed event in the .pcf and as a
    // hierarchy line in the .row — that is what lets Paraver (and
    // `diagnose`) name a source region for a record.
    for region in &plan.regions {
        assert!(
            pcf.contains(&format!("Region: {}", region.label)),
            "{stem:?}: .pcf lacks region {:?}",
            region.label
        );
    }
    assert!(
        row.contains("LEVEL REGION SIZE"),
        "{stem:?}: .row lacks the region level"
    );
    let parsed = paraver::row::parse_regions(&row);
    assert_eq!(
        parsed,
        plan.row_regions(),
        "{stem:?}: .row hierarchy must round-trip the plan"
    );
}

fn assert_plan_subset(small: &ProbePlan, large: &ProbePlan) {
    for c in &small.counters {
        assert!(
            large.has_counter(*c),
            "counter {c:?} lost at the larger budget"
        );
    }
    for r in &small.regions {
        assert!(
            large.region(r.id).is_some(),
            "region {} ({:?}) lost at the larger budget",
            r.id,
            r.label
        );
    }
    assert!(small.cost_alms <= large.cost_alms);
}

#[test]
fn gemm_bundles_are_golden_and_monotone_across_budgets() {
    let p = small_gemm();
    let kernel = gemm::build(GemmVersion::Naive, &p);
    let sim = gemm_sim_config();
    let launch = gemm_launch(&p);
    // ~2 items at 38 ALMs/item vs the full default selection.
    let tight = run_auto(&kernel, &sim, &launch, 96);
    let full = run_auto(&kernel, &sim, &launch, DEFAULT_PROBE_BUDGET_ALMS);
    let dir = tempdir("auto_probe_gemm");
    assert_golden_bundle(&tight, &dir.join("gemm_b96"));
    assert_golden_bundle(&full, &dir.join("gemm_bdefault"));
    assert_plan_subset(
        tight.accel.probe_plan.as_ref().unwrap(),
        full.accel.probe_plan.as_ref().unwrap(),
    );
    assert!(full.accel.probe_plan.as_ref().unwrap().covers_default_set());
}

#[test]
fn spmv_bundles_are_golden_and_monotone_across_budgets() {
    let matrix = Csr::random(64, 64, 4, 5);
    let kernel = spmv::build(matrix.rows as i64, 2);
    let sim = spmv_sim_config();
    let launch = spmv_launch(&matrix);
    let tight = run_auto(&kernel, &sim, &launch, 96);
    let full = run_auto(&kernel, &sim, &launch, DEFAULT_PROBE_BUDGET_ALMS);
    let dir = tempdir("auto_probe_spmv");
    assert_golden_bundle(&tight, &dir.join("spmv_b96"));
    assert_golden_bundle(&full, &dir.join("spmv_bdefault"));
    assert_plan_subset(
        tight.accel.probe_plan.as_ref().unwrap(),
        full.accel.probe_plan.as_ref().unwrap(),
    );
}

#[test]
fn auto_probing_is_observationally_free() {
    // The probes tap the same snoop signals the state recorder already
    // watches; instrumenting a design must not change what the simulator
    // computes. Compare an auto-probed run against the fixed default on
    // every observable except the trace's extra region records.
    let p = small_gemm();
    let kernel = gemm::build(GemmVersion::Naive, &p);
    let sim = gemm_sim_config();
    let launch = gemm_launch(&p);
    let fixed = run_profiled_with(
        &AccelCache::new(),
        &kernel,
        &HlsConfig::default(),
        &sim,
        &ProfilingConfig::default(),
        &launch,
    )
    .expect("fixed run failed");
    let auto = run_auto(&kernel, &sim, &launch, DEFAULT_PROBE_BUDGET_ALMS);
    assert_eq!(fixed.result.total_cycles, auto.result.total_cycles);
    assert_eq!(fixed.result.buffers, auto.result.buffers);
    for (f, a) in fixed
        .result
        .stats
        .per_thread
        .iter()
        .zip(&auto.result.stats.per_thread)
    {
        assert_eq!(f.start_cycle, a.start_cycle);
        assert_eq!(f.end_cycle, a.end_cycle);
    }
    // The state stream — the paper's Fig. 2 view — is byte-identical; the
    // bundles legitimately differ only in the added region event records.
    let states = |run: &ProfiledRun| -> paraver::Records {
        run.trace
            .records
            .iter()
            .filter(|r| matches!(r, paraver::Record::State { .. }))
            .collect()
    };
    assert_eq!(states(&fixed), states(&auto));
}

#[test]
fn region_attribution_reconciles_with_the_whole_kernel_cycle_count() {
    // Acceptance criterion: per-region attributed cycles reconcile with
    // the whole-kernel cycle count within 10% on the cycle simulator.
    let p = small_gemm();
    let kernel = gemm::build(GemmVersion::Naive, &p);
    let sim = gemm_sim_config();
    let launch = gemm_launch(&p);
    let run = run_auto(&kernel, &sim, &launch, DEFAULT_PROBE_BUDGET_ALMS);
    let plan = run.accel.probe_plan.as_ref().expect("auto plan");
    let att = hls_profiling::attribute_regions(&run.accel.regions, plan, &run.trace);
    let root = att
        .iter()
        .find(|a| a.parent.is_none())
        .expect("root region");
    assert_eq!(root.cycles, run.trace.meta.duration.max(1));
    let coverage = hls_profiling::diagnose::attribution_coverage(&att);
    assert!(
        (coverage - 1.0).abs() <= 0.10,
        "attributed cycles cover {:.1}% of the kernel; must reconcile within 10%",
        coverage * 100.0
    );
    assert!(
        hls_profiling::hottest_region(&att).is_some_and(|h| h.depth > 0),
        "attribution must name a sub-kernel source region"
    );
}

#[test]
fn a_budget_that_selects_nothing_is_a_typed_error_not_a_panic() {
    // Below the price of a single item (~38 ALMs at 2 threads) the plan is
    // empty; the harness must refuse with the typed profiling error the
    // CLI surfaces as exit(2), not panic inside the profiling unit.
    let p = small_gemm();
    let kernel = gemm::build(GemmVersion::Naive, &p);
    let res = run_profiled_with(
        &AccelCache::new(),
        &kernel,
        &auto_hls(10),
        &gemm_sim_config(),
        &ProfilingConfig::default(),
        &gemm_launch(&p),
    );
    match res {
        Err(BenchError::Profiling(e)) => assert!(e.to_string().contains("selects nothing")),
        Err(other) => panic!("expected a profiling config error, got {other}"),
        Ok(_) => panic!("a 10-ALM budget must be refused"),
    }
}

/// Per-test scratch directory under the target dir.
fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bench_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
