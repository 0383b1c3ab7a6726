//! The benchmark's own tests: deterministic inputs, legal metric
//! names, the metric sets each run emits, and cross-checks that catch
//! tampered results.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use megsim_core::frame_cache;
use megsim_core::MegsimConfig;
use megsim_perfbench::flows::{self, RigShape};
use megsim_perfbench::host::{self, Clock};
use megsim_perfbench::report::valid_name;
use megsim_perfbench::setup::{prepare, Inputs};
use megsim_perfbench::spans::Spans;
use megsim_perfbench::{run, InputSpec, Options, Workload, END_TO_END, PER_LAYER, TIME_SPANS};
use megsim_timing::FrameStats;

/// The frame cache, the disk store and the thread count are process
/// globals: tests that run flows take turns.
static GLOBALS: Mutex<()> = Mutex::new(());

const TINY: InputSpec = InputSpec {
    aliases: &["hcr", "bbr1"],
    instances: 2,
    scale: 0.0125,
    campaigns_per_trace: 2,
};

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn tiny_inputs(name: &str, seed: u64) -> Inputs {
    prepare(&scratch(name), &TINY, seed, &Spans::new()).expect("tiny inputs")
}

/// Every input file's bytes, traces first, then the manifest.
fn input_bytes(inputs: &Inputs) -> Vec<Vec<u8>> {
    let mut files: Vec<Vec<u8>> = inputs
        .traces
        .iter()
        .map(|t| fs::read(&t.path).expect("trace"))
        .collect();
    files.push(fs::read(inputs.manifest.as_ref().expect("manifest")).expect("manifest"));
    files
}

#[test]
fn the_same_seed_gives_byte_identical_inputs() {
    let a = input_bytes(&tiny_inputs("same-a", 7));
    let b = input_bytes(&tiny_inputs("same-b", 7));
    assert_eq!(a.len(), TINY.aliases.len() * TINY.instances + 1);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_give_different_inputs() {
    let a = input_bytes(&tiny_inputs("diff-a", 7));
    let b = input_bytes(&tiny_inputs("diff-b", 8));
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_ne!(x, y, "input file {i} does not depend on the seed");
    }
}

#[test]
fn every_metric_name_and_unit_is_legal_and_used_once() {
    let all: Vec<_> = END_TO_END.iter().chain(&PER_LAYER).collect();
    for m in &all {
        assert!(
            valid_name(m.name) && m.name.len() <= 64,
            "bad name {:?}",
            m.name
        );
        assert!(
            m.name.as_bytes()[0].is_ascii_alphanumeric(),
            "bad start {:?}",
            m.name
        );
        assert!(
            m.unit.len() <= 16
                && m.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
            "bad unit {:?}",
            m.unit
        );
        assert!(matches!(m.better, "higher" | "lower"));
        assert_eq!(
            all.iter().filter(|o| o.name == m.name).count(),
            1,
            "{} twice",
            m.name
        );
    }
    assert!(!valid_name("bad name") && !valid_name("") && !valid_name("a/b"));
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.split_whitespace().collect();
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!(
            r#"{{"name":"{}","unit":"{}","better":"{}""#,
            m.name, m.unit, m.better
        );
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(compact.contains(&format!(r#"{{"name":"{}","why":"#, w.name())));
    }
    let declared = compact.matches(r#"{"name":"#).count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}

#[test]
fn a_probing_clock_scales_by_the_host_and_a_plain_one_does_not() {
    for threads in [1, 2] {
        let probe = host::host_seconds(threads);
        assert!(probe.is_finite() && probe > 0.0, "{probe}");
    }
    let mut plain = Clock::new(None, 1);
    let (out, secs, as_timed) = plain.time(|| 7);
    assert_eq!((out, secs), (7, as_timed));
    let mut probing = Clock::new(Some(2), 3);
    for _ in 0..2 {
        let ((), secs, as_timed) = probing.time(|| std::thread::sleep(Duration::from_millis(2)));
        assert!(as_timed >= 0.002, "{as_timed}");
        assert!(secs.is_finite() && secs > 0.0 && secs != as_timed, "{secs}");
    }
}

/// Runs every workload on tiny inputs, untraced and traced.
#[test]
fn each_workload_emits_exactly_its_metrics_and_no_failures() {
    let _turn = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload,
                inputs: TINY,
                seed: 3,
                seconds: 1e-3,
                trace,
                work_dir: scratch(&format!("run-{}-{trace}", workload.name())),
            };
            let outcome = run(&opts).expect("the run completes");
            let what = format!("{} trace={trace}", workload.name());
            assert!(
                outcome.correct && outcome.failed == 0,
                "{what}: failed checks"
            );
            assert!(outcome.attempted > 0, "{what}");
            let names: Vec<_> = outcome.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<_> = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            }
            .iter()
            .map(|m| m.name)
            .collect();
            assert_eq!(names, expected, "{what}");
            assert!(
                outcome.metrics.iter().all(|m| m.value.is_finite()),
                "{what}"
            );
            if !trace {
                assert!(
                    outcome.metrics.iter().all(|m| m.value > 0.0),
                    "{what}: a zero metric"
                );
                continue;
            }
            let value = |name: &str| {
                outcome
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value)
            };
            let spans: f64 =
                TIME_SPANS.iter().map(|s| value(s)).sum::<f64>() + value("timing.frame_s");
            let total = value("trace.total_s");
            assert!(value("trace.unattributed_s") >= 0.0, "{what}");
            assert!(
                (spans + value("trace.unattributed_s") - total).abs() <= 1e-9 * total.max(1.0),
                "{what}: spans do not sum to the total"
            );
            assert!(
                !opts.work_dir.exists(),
                "{what}: work directory left behind"
            );
        }
    }
}

#[test]
fn tampered_results_fail_the_cross_checks() {
    let _turn = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let inputs = tiny_inputs("tamper", 5);
    let trace = &inputs.traces[0].path;

    let config = MegsimConfig::default().with_seed(9);
    let mut gt = flows::ground_truth(trace, &config).expect("ground truth");
    let full = flows::full_run(trace, false).expect("full run");
    assert!(gt.matches_full_run(&full, &config));
    gt.estimate.estimated.cycles += 1;
    assert!(
        !gt.matches_full_run(&full, &config),
        "a tampered estimate passed the ground-truth check"
    );

    let manifest = inputs.manifest.as_ref().expect("manifest");
    let store = scratch("tamper-store");
    frame_cache::clear();
    let cold = flows::batch(manifest, &store, None).expect("cold batch");
    frame_cache::clear();
    let mut rerun = flows::batch(manifest, &store, None).expect("batch from disk");
    assert!(
        rerun.tiers.disk_hits() > 0,
        "the re-run did not read the store"
    );
    assert!(cold.mismatches(&rerun).is_empty());
    let (name, result) = rerun.results.iter_mut().next().expect("a campaign");
    let name = name.clone();
    result.as_mut().expect("campaign ran").estimated.cycles += 1;
    assert_eq!(cold.mismatches(&rerun), vec![name]);

    let full = flows::warm(trace, RigShape::SfrShared, usize::MAX).expect("warm run");
    let threads = megsim_exec::thread_count();
    megsim_exec::set_threads(1);
    let mut prefix = flows::warm(trace, RigShape::SfrShared, 4).expect("prefix");
    megsim_exec::set_threads(threads);
    assert!(flows::prefix_matches(&prefix.stats, &full.stats));
    prefix.stats[1].memory.l2.hits += 1;
    assert!(!flows::prefix_matches(&prefix.stats, &full.stats));
}

/// The ground-truth check simulates the full run again rather than
/// reading the representatives the estimate left in the frame cache: a
/// cache holding wrong statistics for them fools a cached full run but
/// not the check's.
#[test]
fn the_ground_truth_check_does_not_read_the_frame_cache() {
    let _turn = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let inputs = tiny_inputs("uncached", 6);
    let trace = &inputs.traces[0].path;
    let config = MegsimConfig::default().with_seed(4);
    frame_cache::clear();
    let gt = flows::ground_truth(trace, &config).expect("ground truth");
    let truth = flows::full_run(trace, false).expect("full run");

    frame_cache::clear();
    let (frames, _) =
        flows::collect_representatives(trace, &gt.estimate.selection).expect("representatives");
    let shaders = flows::TraceFrames::open(trace, None)
        .expect("trace")
        .shaders();
    let fp = frame_cache::stats_config_fingerprint(&flows::default_gpu(), &shaders);
    for frame in frames.values() {
        frame_cache::stats_or_else(fp, frame, || FrameStats {
            cycles: 1,
            ..FrameStats::default()
        });
    }
    let cached = flows::full_run(trace, true).expect("cached full run");
    assert!(
        !gt.matches_full_run(&cached, &config),
        "the poisoned cache was not read by a cached full run"
    );
    let uncached = flows::full_run(trace, false).expect("uncached full run");
    assert_eq!(uncached, truth);
    assert!(gt.matches_full_run(&uncached, &config));
    frame_cache::clear();
}
