//! End-to-end drivers tying the whole toolchain together: functional
//! characterization, full cycle-level simulation, MEGsim selection and
//! accuracy evaluation — the §IV/§V experimental flow.
//!
//! Frames are embarrassingly parallel once each one gets its own GPU
//! state, so the heavy passes ([`characterize_sequence`],
//! [`simulate_sequence`], [`simulate_representatives_multi`]) fan out
//! across frames on the `megsim-exec` worker pool. Every frame's result
//! depends only on its index, so outputs are bit-identical at any
//! thread count. The warm-cache ground truth
//! ([`simulate_sequence_multi`]) is order-dependent but still overlaps
//! rendering with timing through a bounded ordered pipeline.
//!
//! Timing runs on one engine, the [`MultiGpu`] rig, and a single GPU is
//! its N = 1 shape ([`MultiGpuConfig::single`]). So
//! [`simulate_sequence_multi`] is the one body for warm sequences and
//! [`simulate_representatives_multi`] the one body for fresh-rig
//! representatives; [`simulate_sequence_warm`] and
//! [`simulate_representatives`] are their single-GPU adapters.
//!
//! The sequence passes consume their frames through a bounded
//! [`megsim_exec::iter_pipeline`] rather than collecting them first, so
//! a streaming source — `megsim-gl`'s frame-granular trace
//! decoder — flows through decode → render → timing with only a
//! window of frames resident, regardless of trace length.
//!
//! The same independence makes per-frame results memoizable: the
//! parallel passes consult the content-addressed [`crate::frame_cache`]
//! so a frame that reappears — across random-sampling trials, repeated
//! sweeps, or representative re-simulation — is simulated once. A
//! representative's key is the rig shape's
//! ([`frame_cache::rig_stats_config_fingerprint`]): the single-GPU key
//! for every N = 1 rig, the rig configuration mixed in for N > 1. Warm
//! sequences never use the cache (their results depend on simulation
//! order, not just frame content).

use megsim_funcsim::{RenderConfig, Renderer};
use megsim_gfx::draw::Frame;
use megsim_gfx::shader::ShaderTable;
use megsim_timing::{FrameStats, Gpu, GpuConfig, MultiGpu, MultiGpuConfig, MultiGpuReport};

use megsim_cluster::PointMatrix;

use crate::estimate::{estimate_totals, metric_errors, sequence_totals, MetricErrors};
use crate::features::{characterize_frame, FeatureMatrix};
use crate::frame_cache;
use crate::pipeline::{
    select_representatives, MegsimConfig, Selection, StreamClusterConfig, StreamFold,
    StreamSelection,
};

/// How many frames the streaming passes let the source (e.g. a trace
/// decoder) run ahead of the slowest stage. Frames are the large
/// buffered intermediate, so the window stays modest while still
/// keeping every worker fed.
const STREAM_PIPELINE_DEPTH: usize = 16;

/// Fast functional characterization pass (paper §III-B): renders every
/// frame functionally (in parallel across frames) and returns the
/// `N × D` feature matrix.
///
/// Frames are pulled off the iterator incrementally and never
/// materialized as a whole sequence: a streaming source (a trace
/// decoder) is characterized in O(window) frame memory, and only the
/// feature rows are kept.
pub fn characterize_sequence(
    frames: impl Iterator<Item = Frame> + Send,
    shaders: &ShaderTable,
    gpu_config: &GpuConfig,
    config: &MegsimConfig,
) -> FeatureMatrix {
    let mut matrix = FeatureMatrix {
        rows: PointMatrix::new(shaders.vertex_count() + shaders.fragment_count() + 1),
        vscv_len: shaders.vertex_count(),
        fscv_len: shaders.fragment_count(),
    };
    characterize_rows(frames, shaders, gpu_config, config, |row| {
        matrix.rows.push_row(row);
    });
    matrix
}

/// True single-pass MEGsim selection: frames flow decoder → functional
/// characterization → online clusterer in one bounded pipeline, and the
/// whole-sequence barrier of the two-pass flow (materialize the feature
/// matrix, then cluster it) disappears.
///
/// This is the characterization pass of [`characterize_sequence`] with
/// each frame's feature row folded — in strict arrival order, on the
/// caller thread — into the running §III-C group masses and the
/// [`megsim_cluster::StreamClusterer`] instead of a matrix. Peak
/// feature memory is the clusterer's reservoir plus one mini-batch
/// plus the pipeline window, independent of sequence length.
///
/// With `stream.reservoir_capacity == 0` the returned selection is
/// **bitwise** what [`characterize_sequence`] +
/// [`crate::pipeline::select_representatives`] produce, at any thread
/// count — the oracle the proptest suite and the CI determinism matrix
/// pin.
///
/// # Panics
///
/// Panics if the sequence is empty.
pub fn characterize_stream(
    frames: impl Iterator<Item = Frame> + Send,
    shaders: &ShaderTable,
    gpu_config: &GpuConfig,
    config: &MegsimConfig,
    stream: &StreamClusterConfig,
) -> StreamSelection {
    let mut fold = StreamFold::new(
        shaders.vertex_count(),
        shaders.fragment_count(),
        config,
        stream,
    );
    characterize_rows(frames, shaders, gpu_config, config, |row| fold.push(row));
    fold.finish()
}

/// The one characterization pass behind [`characterize_sequence`] and
/// [`characterize_stream`]: frames render (through the content-addressed
/// activity cache) and characterize on the worker pool, pure per frame,
/// and `fold` receives each feature row on the caller thread in strict
/// frame order, via [`megsim_exec::iter_pipeline`].
fn characterize_rows(
    frames: impl Iterator<Item = Frame> + Send,
    shaders: &ShaderTable,
    gpu_config: &GpuConfig,
    config: &MegsimConfig,
    mut fold: impl FnMut(&[f64]),
) {
    let render_config = RenderConfig {
        viewport: gpu_config.viewport,
        mode: gpu_config.render_mode,
    };
    let renderer = Renderer::new(render_config);
    let config_fp = frame_cache::activity_config_fingerprint(&render_config, shaders);
    megsim_exec::iter_pipeline(
        frames,
        STREAM_PIPELINE_DEPTH,
        |_, f: Frame| {
            let activity = frame_cache::activity_or_else(config_fp, &f, || {
                renderer.frame_activity(&f, shaders)
            });
            characterize_frame(&activity, shaders, &config.characterization)
        },
        |_, row| fold(&row),
    );
}

/// Full cycle-level simulation of a sequence (the paper's ground truth),
/// returning per-frame statistics.
///
/// Every frame is simulated on its own freshly reset GPU (cold caches),
/// which makes frames independent and lets them fan out across the
/// worker pool — and makes a frame's statistics identical whether it is
/// simulated here or standalone via [`simulate_representatives`]. For
/// the old warm-cache sequential semantics use
/// [`simulate_sequence_warm`].
pub fn simulate_sequence(
    frames: impl Iterator<Item = Frame> + Send,
    shaders: &ShaderTable,
    gpu_config: &GpuConfig,
) -> Vec<FrameStats> {
    let renderer = Renderer::new(RenderConfig {
        viewport: gpu_config.viewport,
        mode: gpu_config.render_mode,
    });
    let config_fp = frame_cache::stats_config_fingerprint(gpu_config, shaders);
    let mut stats = Vec::new();
    megsim_exec::iter_pipeline(
        frames,
        STREAM_PIPELINE_DEPTH,
        |_, f: Frame| {
            frame_cache::stats_or_else(config_fp, &f, || {
                simulate_fresh(&renderer, &f, shaders, gpu_config, MultiGpuConfig::single())
            })
        },
        |_, s| stats.push(s),
    );
    stats
}

/// How many rendered traces the warm pipeline buffers ahead of the
/// timing model. Traces are the large intermediate here, so the window
/// is kept smaller than [`STREAM_PIPELINE_DEPTH`]; it only needs to
/// cover render-time jitter.
const WARM_PIPELINE_DEPTH: usize = 4;

/// Cycle-level simulation with memory-hierarchy state warmed across
/// frames on a single GPU — the ground-truth semantics for cache-warm-up
/// studies: [`simulate_sequence_multi`] on the single-GPU rig.
///
/// Timing is inherently order-dependent (one GPU state threads through
/// every frame), but functional rendering is not, so rendering
/// overlaps timing and the results are bit-identical to
/// [`simulate_sequence_warm_sequential`] at every thread count.
pub fn simulate_sequence_warm(
    frames: impl Iterator<Item = Frame> + Send,
    shaders: &ShaderTable,
    gpu_config: &GpuConfig,
) -> Vec<FrameStats> {
    simulate_sequence_multi(frames, shaders, gpu_config, MultiGpuConfig::single()).0
}

/// The plain single-threaded warm loop — the pipelined
/// [`simulate_sequence_warm`] is asserted bit-identical to this.
pub fn simulate_sequence_warm_sequential(
    frames: impl Iterator<Item = Frame>,
    shaders: &ShaderTable,
    gpu_config: &GpuConfig,
) -> Vec<FrameStats> {
    let renderer = Renderer::new(RenderConfig {
        viewport: gpu_config.viewport,
        mode: gpu_config.render_mode,
    });
    let mut gpu = Gpu::new(gpu_config.clone());
    let mut stats: Vec<FrameStats> = frames
        .map(|f| {
            let trace = renderer.render_frame(&f, shaders);
            gpu.simulate_frame(&trace, shaders)
        })
        .collect();
    drain_idle_l2(gpu.drain_l2(), &mut stats);
    stats
}

/// End-of-sequence L2 drain: attributes the `writebacks` of the lines
/// still dirty when the device goes idle to the last frame.
fn drain_idle_l2(writebacks: u64, stats: &mut [FrameStats]) {
    if let Some(last) = stats.last_mut() {
        last.memory.l2.writebacks += writebacks;
    }
}

/// Warm-state cycle-level simulation of a sequence on an N-GPU rig
/// ([`MultiGpu`]): frames are dispatched whole (alternate-frame) or as
/// tile bands (split-frame) across `multi.gpus` instances over a shared
/// or private memory topology, with interconnect transfers to the
/// display GPU modeled per link.
///
/// The source stage pulls (e.g. decodes) frame `N + 2` while frame
/// `N + 1` renders on the worker pool and frame `N` runs through the
/// rig, via [`megsim_exec::iter_pipeline`]. The rig consumes traces
/// strictly in frame order on the caller thread, so results are
/// bit-identical at every thread count — and the frame sequence is
/// never materialized, so a streaming trace decoder replays in
/// O(window) frame memory. At the end of the sequence the device goes
/// idle and every back end's L2 drains: the remaining dirty lines are
/// written back and counted on the last frame's L2 counters
/// (idle-time writebacks). The rig's cumulative [`MultiGpuReport`]
/// (frames per GPU, link traffic) is returned alongside the per-frame
/// statistics.
pub fn simulate_sequence_multi(
    frames: impl Iterator<Item = Frame> + Send,
    shaders: &ShaderTable,
    gpu_config: &GpuConfig,
    multi: MultiGpuConfig,
) -> (Vec<FrameStats>, MultiGpuReport) {
    let renderer = Renderer::new(RenderConfig {
        viewport: gpu_config.viewport,
        mode: gpu_config.render_mode,
    });
    let mut rig = MultiGpu::new(gpu_config.clone(), multi);
    let mut stats = Vec::new();
    megsim_exec::iter_pipeline(
        frames,
        WARM_PIPELINE_DEPTH,
        |_, f: Frame| renderer.render_frame(&f, shaders),
        |_, trace| stats.push(rig.simulate_frame(&trace, shaders)),
    );
    drain_idle_l2(rig.drain_l2(), &mut stats);
    (stats, rig.report())
}

/// Simulates only the selected representative frames on *fresh* N-GPU
/// rigs — the MEGsim deployment story, on any rig shape: each
/// representative frame is dispatched through the rig exactly as frame
/// 0 of a sequence would be, and its statistics are scaled by cluster
/// size to estimate the full-sequence totals. Representatives are
/// independent, so they fan out on the worker pool. Returns each
/// representative's statistics, in selection order.
///
/// Results go through the content-addressed frame cache under the rig
/// shape's key ([`frame_cache::rig_stats_config_fingerprint`]): every
/// single-GPU rig shares the single-GPU entries, and a cached result
/// of one N > 1 shape is never returned for another.
pub fn simulate_representatives_multi(
    frame_of: impl Fn(usize) -> Frame + Sync,
    selection: &Selection,
    shaders: &ShaderTable,
    gpu_config: &GpuConfig,
    multi: MultiGpuConfig,
) -> Vec<FrameStats> {
    let renderer = Renderer::new(RenderConfig {
        viewport: gpu_config.viewport,
        mode: gpu_config.render_mode,
    });
    let config_fp = frame_cache::rig_stats_config_fingerprint(gpu_config, &multi, shaders);
    megsim_exec::par_map_indexed(&selection.representatives, |_, rep| {
        let frame = frame_of(rep.frame_index);
        frame_cache::stats_or_else(config_fp, &frame, || {
            simulate_fresh(&renderer, &frame, shaders, gpu_config, multi)
        })
    })
}

/// [`simulate_representatives_multi`] on single GPUs — what a real
/// MEGsim deployment runs instead of the full sequence.
pub fn simulate_representatives(
    frame_of: impl Fn(usize) -> Frame + Sync,
    selection: &Selection,
    shaders: &ShaderTable,
    gpu_config: &GpuConfig,
) -> Vec<FrameStats> {
    simulate_representatives_multi(
        frame_of,
        selection,
        shaders,
        gpu_config,
        MultiGpuConfig::single(),
    )
}

/// Renders `frame` and simulates it on a fresh (cold) rig of shape
/// `multi` — the unit of the frame-parallel passes.
fn simulate_fresh(
    renderer: &Renderer,
    frame: &Frame,
    shaders: &ShaderTable,
    gpu_config: &GpuConfig,
    multi: MultiGpuConfig,
) -> FrameStats {
    let trace = renderer.render_frame(frame, shaders);
    MultiGpu::new(gpu_config.clone(), multi).simulate_frame(&trace, shaders)
}

/// Result of one full MEGsim accuracy experiment on one workload.
#[derive(Debug, Clone)]
pub struct MegsimRun {
    /// The clustering outcome.
    pub selection: Selection,
    /// MEGsim's estimated sequence totals.
    pub estimated: FrameStats,
    /// Ground-truth sequence totals.
    pub actual: FrameStats,
    /// Relative errors of the four Fig. 7 metrics.
    pub errors: MetricErrors,
}

impl MegsimRun {
    /// Frames MEGsim simulates.
    pub fn frames_simulated(&self) -> usize {
        self.selection.k()
    }

    /// Table III reduction factor.
    pub fn reduction_factor(&self) -> f64 {
        self.selection.reduction_factor()
    }
}

/// Evaluates MEGsim against an already-simulated ground truth: selects
/// representatives from `matrix`, estimates totals from the per-frame
/// statistics and computes the Fig. 7 errors.
///
/// # Panics
///
/// Panics if `matrix` and `per_frame` disagree in length.
pub fn evaluate_megsim(
    matrix: &FeatureMatrix,
    per_frame: &[FrameStats],
    config: &MegsimConfig,
) -> MegsimRun {
    assert_eq!(
        matrix.frames(),
        per_frame.len(),
        "feature matrix and statistics disagree in frame count"
    );
    let selection = select_representatives(matrix, config);
    let estimated = estimate_totals(&selection.representatives, |i| &per_frame[i]);
    let actual = sequence_totals(per_frame);
    let errors = metric_errors(&estimated, &actual);
    MegsimRun {
        selection,
        estimated,
        actual,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megsim_workloads::{build, BENCHMARKS};

    /// End-to-end smoke test on a miniature benchmark.
    #[test]
    fn megsim_beats_one_percent_error_on_a_small_sequence() {
        let info = &BENCHMARKS[5]; // jjo (cheap 2-D game)
        let workload = build(info, 0.04, 11); // 200 frames
        let gpu_config = GpuConfig::small(256, 256);
        let megsim = MegsimConfig::default().with_seed(3);
        let matrix = characterize_sequence(
            workload.iter_frames(),
            workload.shaders(),
            &gpu_config,
            &megsim,
        );
        let per_frame = simulate_sequence(workload.iter_frames(), workload.shaders(), &gpu_config);
        let run = evaluate_megsim(&matrix, &per_frame, &megsim);
        assert!(run.frames_simulated() < workload.frames() / 2);
        assert!(run.reduction_factor() > 2.0);
        assert!(
            run.errors.cycles < 0.05,
            "cycles error = {}",
            run.errors.cycles
        );
        // At this miniature scale (200 frames, 256x256 target) the DRAM
        // counts are small and cache-state dependent, so the memory
        // metrics carry more noise than the full-scale Fig. 7 runs.
        assert!(run.errors.max() < 0.30, "max error = {:?}", run.errors);
    }

    #[test]
    fn single_gpu_rig_sequence_is_the_warm_ground_truth() {
        use megsim_timing::{DispatchMode, MultiGpuConfig, Topology};
        let info = &BENCHMARKS[5]; // jjo
        let workload = build(info, 0.01, 4); // 50 frames
        let gpu_config = GpuConfig::small(192, 192);
        let warm = simulate_sequence_warm(workload.iter_frames(), workload.shaders(), &gpu_config);
        for dispatch in [DispatchMode::AlternateFrame, DispatchMode::SplitFrame] {
            for topology in [Topology::Shared, Topology::Private] {
                let (stats, report) = simulate_sequence_multi(
                    workload.iter_frames(),
                    workload.shaders(),
                    &gpu_config,
                    MultiGpuConfig::new(1, dispatch, topology),
                );
                assert_eq!(stats, warm, "{dispatch:?} {topology:?} N=1");
                assert_eq!(report.transfers(), 0);
            }
        }
    }

    #[test]
    fn multi_gpu_representative_estimate_tracks_the_rig_ground_truth() {
        use megsim_timing::{DispatchMode, MultiGpuConfig, Topology};
        let info = &BENCHMARKS[5]; // jjo
        let workload = build(info, 0.02, 8); // 100 frames
        let gpu_config = GpuConfig::small(192, 192);
        let megsim = MegsimConfig::default().with_seed(3);
        let matrix = characterize_sequence(
            workload.iter_frames(),
            workload.shaders(),
            &gpu_config,
            &megsim,
        );
        let selection = select_representatives(&matrix, &megsim);
        let multi = MultiGpuConfig::new(2, DispatchMode::SplitFrame, Topology::Shared);
        let (per_frame, report) = simulate_sequence_multi(
            workload.iter_frames(),
            workload.shaders(),
            &gpu_config,
            multi,
        );
        assert!(report.transfers() > 0, "worker band pixels must cross");
        let rep_stats = simulate_representatives_multi(
            |i| workload.frame(i),
            &selection,
            workload.shaders(),
            &gpu_config,
            multi,
        );
        let estimated = {
            let mut est = FrameStats::default();
            for (stats, rep) in rep_stats.iter().zip(&selection.representatives) {
                est.merge(&stats.scaled(rep.cluster_size as u64));
            }
            est
        };
        let actual = sequence_totals(&per_frame);
        let errors = metric_errors(&estimated, &actual);
        // Cold representative rigs vs a warm, shared-topology striped
        // sequence: the reps miss both cache warm-up and cross-GPU
        // contention, so the error is far looser than the single-GPU
        // bound — the PR 10 accuracy table quantifies this gap per
        // topology. The assertion only fences the regime.
        assert!(errors.cycles < 0.6, "cycles error = {}", errors.cycles);
        assert!(estimated.cycles > 0 && actual.cycles > 0);
    }

    #[test]
    fn single_pass_exact_stream_matches_the_two_pass_pipeline() {
        let info = &BENCHMARKS[5]; // jjo
        let workload = build(info, 0.02, 8); // 100 frames
        let gpu_config = GpuConfig::small(192, 192);
        let megsim = MegsimConfig::default().with_seed(13);
        let matrix = characterize_sequence(
            workload.iter_frames(),
            workload.shaders(),
            &gpu_config,
            &megsim,
        );
        let batch = select_representatives(&matrix, &megsim);
        let streamed = characterize_stream(
            workload.iter_frames(),
            workload.shaders(),
            &gpu_config,
            &megsim,
            &StreamClusterConfig::exact(),
        );
        assert_eq!(streamed.selection, batch);
    }

    #[test]
    fn single_pass_bounded_stream_is_fenced_and_sane() {
        let info = &BENCHMARKS[5]; // jjo
        let workload = build(info, 0.02, 8); // 100 frames
        let gpu_config = GpuConfig::small(192, 192);
        let megsim = MegsimConfig::default().with_seed(13);
        let streamed = characterize_stream(
            workload.iter_frames(),
            workload.shaders(),
            &gpu_config,
            &megsim,
            &StreamClusterConfig::default()
                .with_reservoir_capacity(40)
                .with_batch_size(20),
        );
        assert!(
            streamed.peak_rows_retained <= 40 + 20,
            "peak = {}",
            streamed.peak_rows_retained
        );
        assert_eq!(streamed.selection.labels.len(), workload.frames());
        let total: usize = streamed
            .selection
            .representatives
            .iter()
            .map(|r| r.cluster_size)
            .sum();
        assert_eq!(total, workload.frames());
    }

    #[test]
    fn representative_resimulation_is_close_to_full_run_values() {
        let info = &BENCHMARKS[6]; // pvz
        let workload = build(info, 0.01, 4); // 50 frames
        let gpu_config = GpuConfig::small(192, 192);
        let megsim = MegsimConfig::default();
        let matrix = characterize_sequence(
            workload.iter_frames(),
            workload.shaders(),
            &gpu_config,
            &megsim,
        );
        let per_frame = simulate_sequence(workload.iter_frames(), workload.shaders(), &gpu_config);
        let run = evaluate_megsim(&matrix, &per_frame, &megsim);
        let rep_stats = simulate_representatives(
            |i| workload.frame(i),
            &run.selection,
            workload.shaders(),
            &gpu_config,
        );
        // Each frame now gets a fresh GPU in both the full run and the
        // standalone representative run, so the two estimates agree
        // exactly, not just approximately.
        let mut est = FrameStats::default();
        for (stats, rep) in rep_stats.iter().zip(&run.selection.representatives) {
            est.merge(&stats.scaled(rep.cluster_size as u64));
        }
        assert_eq!(est, run.estimated);
        let errors = metric_errors(&est, &run.actual);
        assert!(errors.cycles < 0.10, "cycles error = {}", errors.cycles);
    }
}
