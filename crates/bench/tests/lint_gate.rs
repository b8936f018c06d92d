//! The `--lint` gate must be *observationally free*: the analyzer runs
//! before the sweep compiles anything and never touches the compiled
//! artifact, so a GEMM sweep gated at `Deny` must produce byte-identical
//! trace bundles and an identical result table to the same sweep gated at
//! `Off`.

use bench::sweep::{gemm_sweep, gemm_table, GemmSweepConfig};
use bench::{gemm_sim_config, lint_gate};
use hls_profiling::{PipelineConfig, ProfilingConfig};
use kernels::gemm::{self, GemmParams, GemmVersion};
use nymble_hls::HlsConfig;
use nymble_lint::LintLevel;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A process-unique scratch directory (no wall-clock in the name so test
/// output stays reproducible).
fn test_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "hls-paraver-lint-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).expect("create test dir");
    d
}

/// Map of file name → contents for every bundle file under `dir`.
fn bundle_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read bundle dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        files.insert(name, std::fs::read(&path).expect("read bundle file"));
    }
    files
}

const PARAMS: GemmParams = GemmParams {
    dim: 16,
    threads: 2,
    vec: 4,
    block: 8,
};

/// Gate the sweep's kernels at `lint`, then describe the sweep.
fn sweep_cfg(lint: LintLevel, out: PathBuf) -> GemmSweepConfig {
    let kernels: Vec<_> = GemmVersion::ALL
        .iter()
        .map(|&v| gemm::build(v, &PARAMS))
        .collect();
    lint_gate(&kernels.iter().collect::<Vec<_>>(), lint).expect("GEMM v1–v5 lint clean");
    GemmSweepConfig {
        params: PARAMS,
        hls: HlsConfig::default(),
        sim: gemm_sim_config(),
        prof: ProfilingConfig::default(),
        pipeline: PipelineConfig::default(),
        out: Some(out),
        jobs: 2,
    }
}

#[test]
fn lint_deny_and_off_produce_identical_bundles_and_tables() {
    let mut baseline: Option<(String, BTreeMap<String, Vec<u8>>)> = None;
    for lint in [LintLevel::Off, LintLevel::Deny] {
        let out = test_dir(lint.as_str());
        let sweep = gemm_sweep(&sweep_cfg(lint, out.clone()));
        for (v, r) in &sweep.runs {
            assert!(r.outcome.is_ok(), "lint={lint}: {} failed", v.name());
        }
        let table = gemm_table(&sweep);
        let bundles = bundle_bytes(&out);
        assert_eq!(bundles.len(), GemmVersion::ALL.len() * 3);
        match &baseline {
            None => baseline = Some((table, bundles)),
            Some((base_table, base_bundles)) => {
                assert_eq!(base_table, &table, "lint level changed the table");
                assert_eq!(
                    base_bundles, &bundles,
                    "lint level changed a trace bundle byte"
                );
            }
        }
        std::fs::remove_dir_all(&out).ok();
    }
}

#[test]
fn shipped_kernels_pass_the_deny_gate() {
    // The acceptance bar of the lint feature: GEMM v1–v5 and π are clean.
    let kernels: Vec<_> = GemmVersion::ALL
        .iter()
        .map(|&v| gemm::build(v, &PARAMS))
        .chain(std::iter::once(kernels::pi::build(
            &kernels::pi::PiParams {
                steps: 1024,
                threads: 2,
                bs: 8,
            },
        )))
        .collect();
    lint_gate(&kernels.iter().collect::<Vec<_>>(), LintLevel::Deny)
        .expect("all shipped kernels lint clean under deny");
}

#[test]
fn deny_gate_turns_a_racy_kernel_into_a_failed_row() {
    use nymble_ir::{KernelBuilder, MapDir, ScalarType};
    // Both threads write OUT[0..8): NL001 under deny.
    let mut kb = KernelBuilder::new("racy", 2);
    let out_buf = kb.buffer("OUT", ScalarType::F32, MapDir::From);
    let n = kb.c_i64(8);
    kb.for_range("i", n, |kb, i| {
        let one = kb.c_f32(1.0);
        kb.store(out_buf, i, one);
    });
    let k = kb.finish();
    let err = lint_gate(&[&k], LintLevel::Deny).expect_err("deny rejects the race");
    assert!(err.contains("NL001"), "gate names the code: {err}");
    // The same kernel passes with the gate off.
    lint_gate(&[&k], LintLevel::Off).expect("off never fails");
}
