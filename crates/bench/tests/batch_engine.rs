//! Determinism guarantees of the parallel batch engine: the §V-C GEMM
//! sweep and the §V-D π sweep must produce **byte-identical** trace bundles
//! (`.prv`/`.pcf`/`.row`) and identical result tables at `--jobs 1`, `2`
//! and `8` — worker scheduling must never leak into any observable output.
//! The bundles of a tiny GEMM and π sweep are also pinned by digest, so a
//! change anywhere on the trace path (record, decode, sort, write) that
//! moves a single byte fails here.

use bench::sweep::{gemm_sweep, pi_sweep, GemmSweepConfig, PiSweepConfig};
use bench::{gemm_sim_config, pi_sim_config};
use hls_profiling::{PipelineConfig, ProfilingConfig};
use kernels::gemm::{GemmParams, GemmVersion};
use nymble_hls::HlsConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A process-unique scratch directory (no wall-clock in the name so test
/// output stays reproducible).
fn test_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "hls-paraver-det-{}-{}-{}",
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

fn assert_identical_bundles(baseline: &BTreeMap<String, Vec<u8>>, dir: &Path, jobs: usize) {
    let got = bundle_bytes(dir);
    assert_eq!(
        baseline.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "jobs={jobs} produced a different bundle file set"
    );
    for (name, bytes) in baseline {
        assert_eq!(
            bytes, &got[name],
            "jobs={jobs}: {name} differs from the serial run byte-for-byte"
        );
    }
}

const JOBS_LEVELS: [usize; 3] = [1, 2, 8];

#[test]
fn gemm_sweep_is_deterministic_across_worker_counts() {
    let threads = 2;
    let sim = gemm_sim_config();
    let mut baseline: Option<(String, BTreeMap<String, Vec<u8>>)> = None;
    for jobs in JOBS_LEVELS {
        let out = test_dir("gemm");
        let sweep = gemm_sweep(&GemmSweepConfig {
            params: GemmParams {
                dim: 16,
                threads,
                vec: 4,
                block: 8,
            },
            hls: HlsConfig::default(),
            sim: sim.clone(),
            prof: ProfilingConfig::default(),
            pipeline: PipelineConfig::default(),
            out: Some(out.clone()),
            jobs,
        });
        for (v, r) in &sweep.runs {
            assert!(r.outcome.is_ok(), "jobs={jobs}: {} failed", v.name());
        }
        assert_eq!(
            sweep.cache.misses as usize,
            GemmVersion::ALL.len(),
            "jobs={jobs}: every version compiled exactly once"
        );
        let table = sweep.table;
        let bundles = bundle_bytes(&out);
        assert_eq!(
            bundles.len(),
            GemmVersion::ALL.len() * 3,
            "one .prv/.pcf/.row triple per version"
        );
        match &baseline {
            None => baseline = Some((table, bundles)),
            Some((base_table, base_bundles)) => {
                assert_eq!(base_table, &table, "jobs={jobs}: table text differs");
                assert_identical_bundles(base_bundles, &out, jobs);
            }
        }
        std::fs::remove_dir_all(&out).ok();
    }
}

#[test]
fn pi_sweep_is_deterministic_across_worker_counts() {
    let sim = pi_sim_config();
    let mut baseline: Option<(String, BTreeMap<String, Vec<u8>>)> = None;
    for jobs in JOBS_LEVELS {
        let out = test_dir("pi");
        let sweep = pi_sweep(&PiSweepConfig {
            steps: vec![20_000, 50_000, 100_000],
            threads: 2,
            bs: 8,
            hls: HlsConfig::default(),
            sim: sim.clone(),
            prof: ProfilingConfig {
                sampling_period: 5_000,
                ..Default::default()
            },
            pipeline: PipelineConfig::default(),
            out: Some(out.clone()),
            jobs,
        });
        for (steps, r) in &sweep.runs {
            assert!(r.outcome.is_ok(), "jobs={jobs}: {steps} failed");
        }
        assert_eq!(
            sweep.cache.misses, 1,
            "jobs={jobs}: the π kernel compiles once for all problem sizes"
        );
        let table = sweep.table;
        let bundles = bundle_bytes(&out);
        assert_eq!(bundles.len(), 3 * 3, "one bundle triple per step count");
        match &baseline {
            None => baseline = Some((table, bundles)),
            Some((base_table, base_bundles)) => {
                assert_eq!(base_table, &table, "jobs={jobs}: table text differs");
                assert_identical_bundles(base_bundles, &out, jobs);
            }
        }
        std::fs::remove_dir_all(&out).ok();
    }
}

#[test]
fn oversubscribed_pool_matches_a_serial_run() {
    // Eight workers share two problem sizes at a fine sampling period: the
    // tables must equal a serial run's.
    let sim = gemm_sim_config();
    let cfg = |jobs| PiSweepConfig {
        steps: vec![30_000, 60_000],
        threads: 2,
        bs: 8,
        hls: HlsConfig::default(),
        sim: sim.clone(),
        prof: ProfilingConfig {
            sampling_period: 1_000,
            ..Default::default()
        },
        pipeline: PipelineConfig::default(),
        out: None,
        jobs,
    };
    let serial = pi_sweep(&cfg(1));
    let oversub = pi_sweep(&cfg(8));
    assert_eq!(serial.table, oversub.table);
}

/// FNV-1a, 64-bit: a dependency-free digest for pinning bundle bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Compare every bundle file under `dir` against `golden` (name, digest)
/// pairs, listing all mismatches at once.
fn assert_golden_digests(dir: &Path, golden: &[(&str, u64)]) {
    let got: Vec<(String, u64)> = bundle_bytes(dir)
        .into_iter()
        .map(|(name, bytes)| (name, fnv1a64(&bytes)))
        .collect();
    let want: Vec<(String, u64)> = golden.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    let render = |v: &[(String, u64)]| {
        v.iter()
            .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
            .collect::<String>()
    };
    assert!(
        got == want,
        "bundle digests moved; got:\n{}want:\n{}",
        render(&got),
        render(&want)
    );
}

const GEMM_GOLDEN: &[(&str, u64)] = &[
    ("gemm_16_gemm_blocked.pcf", 0x7afa3577445dca3d),
    ("gemm_16_gemm_blocked.prv", 0x34b97f70f8cc3a83),
    ("gemm_16_gemm_blocked.row", 0x626dc9241062ac6a),
    ("gemm_16_gemm_dbuf.pcf", 0x7afa3577445dca3d),
    ("gemm_16_gemm_dbuf.prv", 0xba79141f9e503cda),
    ("gemm_16_gemm_dbuf.row", 0xf961b594d5adb485),
    ("gemm_16_gemm_naive.pcf", 0x7afa3577445dca3d),
    ("gemm_16_gemm_naive.prv", 0x110649f9b5aa4363),
    ("gemm_16_gemm_naive.row", 0xf6917588a22f2419),
    ("gemm_16_gemm_nocrit.pcf", 0x7afa3577445dca3d),
    ("gemm_16_gemm_nocrit.prv", 0xde77f7587c4c9013),
    ("gemm_16_gemm_nocrit.row", 0xb918d1c78fd15c57),
    ("gemm_16_gemm_vec.pcf", 0x7afa3577445dca3d),
    ("gemm_16_gemm_vec.prv", 0x7436cc17fecbf14f),
    ("gemm_16_gemm_vec.row", 0xf96de5c9225f9c5c),
];

const PI_GOLDEN: &[(&str, u64)] = &[
    ("pi_20000.pcf", 0x7afa3577445dca3d),
    ("pi_20000.prv", 0xb267a43611ce30b0),
    ("pi_20000.row", 0x7a5db459668ad1e8),
    ("pi_50000.pcf", 0x7afa3577445dca3d),
    ("pi_50000.prv", 0xc0d55ff7dfe4d038),
    ("pi_50000.row", 0x7a5db459668ad1e8),
];

#[test]
fn gemm_sweep_bundles_match_golden_digests() {
    let out = test_dir("gemm-golden");
    let sweep = gemm_sweep(&GemmSweepConfig {
        params: GemmParams {
            dim: 16,
            threads: 2,
            vec: 4,
            block: 8,
        },
        hls: HlsConfig::default(),
        sim: gemm_sim_config(),
        prof: ProfilingConfig::default(),
        pipeline: PipelineConfig::default(),
        out: Some(out.clone()),
        jobs: 2,
    });
    for (v, r) in &sweep.runs {
        assert!(r.outcome.is_ok(), "{} failed", v.name());
    }
    assert_golden_digests(&out, GEMM_GOLDEN);
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn pi_sweep_bundles_match_golden_digests() {
    let out = test_dir("pi-golden");
    let sweep = pi_sweep(&PiSweepConfig {
        steps: vec![20_000, 50_000],
        threads: 2,
        bs: 8,
        hls: HlsConfig::default(),
        sim: pi_sim_config(),
        prof: ProfilingConfig {
            sampling_period: 5_000,
            ..Default::default()
        },
        pipeline: PipelineConfig::default(),
        out: Some(out.clone()),
        jobs: 2,
    });
    for (steps, r) in &sweep.runs {
        assert!(r.outcome.is_ok(), "{steps} failed");
    }
    assert_golden_digests(&out, PI_GOLDEN);
    std::fs::remove_dir_all(&out).ok();
}
