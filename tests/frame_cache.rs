//! The content-addressed frame cache is a pure wall-clock optimization:
//! every pipeline output must be **bit-identical** with the cache on or
//! off, cold or warm, at any worker-pool thread count — and a warm
//! re-run must actually hit.
//!
//! The cache-enabled flag, the cache contents and the worker-pool size
//! are process-global, so every test here holds [`SERIAL`] while it
//! runs: parallel test functions toggling them would race each other.

use std::sync::{Mutex, MutexGuard};

use megsim_core::evaluate::{
    characterize_sequence, evaluate_megsim, simulate_representatives,
    simulate_representatives_multi, simulate_sequence,
};
use megsim_core::frame_cache;
use megsim_core::pipeline::{select_representatives, MegsimConfig};
use megsim_timing::{DispatchMode, FrameStats, GpuConfig, MultiGpuConfig, Topology};
use megsim_workloads::by_alias;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Everything the flow produces, flattened for exact comparison.
#[derive(PartialEq, Debug)]
struct FlowArtifacts {
    features: Vec<f64>,
    per_frame: Vec<FrameStats>,
    representatives: Vec<(usize, usize)>,
    rep_stats: Vec<FrameStats>,
    estimated: FrameStats,
}

fn run_flow() -> FlowArtifacts {
    let workload = by_alias("pvz", 0.01, 42).expect("known alias"); // 50 frames
    let gpu = GpuConfig::small(192, 192);
    let config = MegsimConfig::default();
    let matrix = characterize_sequence(workload.iter_frames(), workload.shaders(), &gpu, &config);
    let per_frame = simulate_sequence(workload.iter_frames(), workload.shaders(), &gpu);
    let run = evaluate_megsim(&matrix, &per_frame, &config);
    let rep_stats = simulate_representatives(
        |i| workload.frame(i),
        &run.selection,
        workload.shaders(),
        &gpu,
    );
    FlowArtifacts {
        features: matrix.rows.as_slice().to_vec(),
        per_frame,
        representatives: run
            .selection
            .representatives
            .iter()
            .map(|r| (r.frame_index, r.cluster_size))
            .collect(),
        rep_stats,
        estimated: run.estimated,
    }
}

#[test]
fn cache_state_and_thread_count_never_change_results() {
    let _serial = serial();
    let mut runs = Vec::new();
    for enabled in [false, true] {
        for threads in [1usize, 8] {
            frame_cache::set_enabled(enabled);
            frame_cache::clear();
            megsim_exec::set_threads(threads);
            runs.push(((enabled, threads), run_flow()));
        }
    }

    let ((_, _), baseline) = &runs[0];
    for ((enabled, threads), r) in &runs[1..] {
        assert_eq!(
            baseline, r,
            "pipeline output differs with cache={enabled} at {threads} threads"
        );
    }

    // A cold enabled run already hits: the representatives simulated
    // standalone were cached during the full-sequence pass.
    frame_cache::set_enabled(true);
    frame_cache::clear();
    let cold = run_flow();
    let report = frame_cache::report();
    assert!(
        report.stats_hits > 0,
        "representative re-simulation should hit the stats cache: {}",
        report.summary()
    );
    assert!(report.stats_entries > 0 && report.activity_entries > 0);

    // A warm re-run hits on both caches and still matches bit-for-bit.
    let warm = run_flow();
    assert_eq!(&cold, &warm, "warm cache run diverged from cold run");
    let report = frame_cache::report();
    assert!(
        report.activity_hits > 0,
        "warm characterization should hit the activity cache: {}",
        report.summary()
    );
    assert!(report.hit_rate() > 0.0);

    megsim_exec::set_threads(0);
    frame_cache::set_enabled(true);
    frame_cache::clear();
}

#[test]
fn rig_representatives_are_cached_under_rig_shaped_keys() {
    let _serial = serial();
    frame_cache::set_enabled(true);
    frame_cache::clear();
    // One thread: every lookup runs on this thread, so its tier counts
    // are exactly this test's.
    megsim_exec::set_threads(1);
    let workload = by_alias("pvz", 0.01, 42).expect("known alias"); // 50 frames
    let gpu = GpuConfig::small(192, 192);
    let config = MegsimConfig::default();
    let matrix = characterize_sequence(workload.iter_frames(), workload.shaders(), &gpu, &config);
    let selection = select_representatives(&matrix, &config);
    let reps = selection.representatives.len() as u64;
    let single =
        || simulate_representatives(|i| workload.frame(i), &selection, workload.shaders(), &gpu);
    let rig = |multi| {
        simulate_representatives_multi(
            |i| workload.frame(i),
            &selection,
            workload.shaders(),
            &gpu,
            multi,
        )
    };
    let sfr = MultiGpuConfig::new(2, DispatchMode::SplitFrame, Topology::Shared);
    frame_cache::take_thread_counts();

    // A cold N = 2 SFR run computes; the repeat is served from memory.
    let cold = rig(sfr);
    let computed = frame_cache::take_thread_counts();
    assert!(computed.stats_computed > 0 && computed.stats_memory + computed.stats_computed == reps);
    let warm = rig(sfr);
    let counts = frame_cache::take_thread_counts();
    assert_eq!(
        warm, cold,
        "memory-tier SFR stats differ from computed ones"
    );
    assert_eq!((counts.stats_memory, counts.stats_computed), (reps, 0));

    // The single-GPU key never returns the SFR result…
    let single_stats = single();
    let counts = frame_cache::take_thread_counts();
    assert_eq!(counts.stats_computed, computed.stats_computed);
    assert_ne!(
        single_stats, cold,
        "a 2-GPU SFR frame is not a single-GPU frame"
    );
    // …and the SFR key never returns the single-GPU result.
    frame_cache::clear();
    assert_eq!(single(), single_stats);
    frame_cache::take_thread_counts();
    assert_eq!(rig(sfr), cold);
    assert_eq!(
        frame_cache::take_thread_counts().stats_computed,
        computed.stats_computed
    );

    // Every N = 1 rig shape is the single GPU and hits its entries.
    for dispatch in [DispatchMode::AlternateFrame, DispatchMode::SplitFrame] {
        for topology in [Topology::Shared, Topology::Private] {
            let stats = rig(MultiGpuConfig::new(1, dispatch, topology));
            let counts = frame_cache::take_thread_counts();
            assert_eq!(stats, single_stats, "{dispatch:?} {topology:?}");
            assert_eq!(
                (counts.stats_memory, counts.stats_computed),
                (reps, 0),
                "{dispatch:?} {topology:?} N=1 missed the single-GPU entries"
            );
        }
    }

    megsim_exec::set_threads(0);
    frame_cache::clear();
}
