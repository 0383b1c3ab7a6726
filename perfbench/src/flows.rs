//! The workloads' flows, each in two forms.
//!
//! The *untraced* form calls the library's composite entry points
//! exactly as the `megsim` command does (`characterize_sequence`,
//! `select_representatives`, `simulate_representatives`,
//! `simulate_sequence`, `simulate_sequence_warm`,
//! `simulate_sequence_multi`, `run_batch`). The *traced* form spells
//! the same steps out from the layers' public functions, with a span
//! around each call. It mirrors the library bodies step for step, so
//! both forms produce bit-identical results; the traced run checks
//! that they do.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{self, File};
use std::io::BufReader;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use megsim_cluster::search_clusters;
use megsim_core::frame_cache::{self, TierCounts};
use megsim_core::{
    characterize_sequence, estimate_totals, evaluate_megsim, feature_matrix, metric_errors,
    normalize, parse_manifest, run_batch, select_representatives, sequence_totals,
    simulate_representatives, simulate_sequence, simulate_sequence_multi, simulate_sequence_warm,
    FeatureMatrix, MegsimConfig, MetricErrors, Representative, Selection,
};
use megsim_funcsim::{FrameActivity, RenderConfig, RenderMode, Renderer};
use megsim_gfx::draw::Frame;
use megsim_gfx::shader::ShaderTable;
use megsim_gl::{FrameIter, TraceError};
use megsim_timing::{
    DispatchMode, FrameStats, Gpu, GpuConfig, MultiGpu, MultiGpuConfig, MultiGpuReport, Topology,
};

use crate::spans::Spans;

/// Frames the streaming passes let the decoder run ahead (the
/// library's sequence-pass window).
const STREAM_DEPTH: usize = 16;
/// Rendered traces the warm passes buffer ahead of timing (the
/// library's warm-pipeline window).
const WARM_DEPTH: usize = 4;

/// A trace file replayed frame by frame, parking the first decode
/// error for [`TraceFrames::finish`] — the shape `megsim` feeds its
/// passes. With spans attached, every frame pulled is charged to
/// `gl.decode_s`.
pub struct TraceFrames<'s> {
    iter: FrameIter<BufReader<File>>,
    error: Option<TraceError>,
    spans: Option<&'s Spans>,
}

impl<'s> TraceFrames<'s> {
    /// Opens `path` and decodes its shader prelude.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be read or its header is malformed.
    pub fn open(path: &Path, spans: Option<&'s Spans>) -> Result<Self, String> {
        let start = Instant::now();
        let file = File::open(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let iter =
            FrameIter::new(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(spans) = spans {
            spans.add_seconds("gl.decode_s", start.elapsed().as_secs_f64());
        }
        Ok(Self {
            iter,
            error: None,
            spans,
        })
    }

    /// The shader library from the trace prelude.
    pub fn shaders(&self) -> ShaderTable {
        self.iter.shaders().clone()
    }

    /// Surfaces the parked decode error, if the stream ended on one.
    ///
    /// # Errors
    ///
    /// The first decode or replay error of the stream.
    pub fn finish(self, path: &Path) -> Result<(), String> {
        match self.error {
            Some(e) => Err(format!("{}: {e}", path.display())),
            None => Ok(()),
        }
    }
}

impl Iterator for TraceFrames<'_> {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        let start = Instant::now();
        let next = self.iter.next();
        if let Some(spans) = self.spans {
            spans.add_seconds("gl.decode_s", start.elapsed().as_secs_f64());
        }
        match next? {
            Ok(frame) => {
                if let Some(spans) = self.spans {
                    spans.count("gl.decode_frames", 1.0);
                }
                Some(frame)
            }
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

/// The single-GPU configuration every workload but warm-rig uses (the
/// `megsim` default).
pub fn default_gpu() -> GpuConfig {
    GpuConfig::mali450_like()
}

fn renderer_for(gpu: &GpuConfig) -> Renderer {
    Renderer::new(RenderConfig {
        viewport: gpu.viewport,
        mode: gpu.render_mode,
    })
}

/// Second decode pass of `megsim estimate`: keeps only the selected
/// representatives' frames. Returns them and the number of frames
/// decoded (the pass stops after the last representative).
pub fn collect_representatives(
    path: &Path,
    selection: &Selection,
) -> Result<(HashMap<usize, Frame>, usize), String> {
    let wanted: HashSet<usize> = selection
        .representatives
        .iter()
        .map(|r| r.frame_index)
        .collect();
    let mut out = HashMap::with_capacity(wanted.len());
    let mut frames = TraceFrames::open(path, None)?;
    let mut decoded = 0;
    for (i, frame) in frames.by_ref().enumerate() {
        decoded += 1;
        if wanted.contains(&i) {
            out.insert(i, frame);
            if out.len() == wanted.len() {
                break;
            }
        }
    }
    frames.finish(path)?;
    Ok((out, decoded))
}

/// Scales each representative's statistics by its cluster size and
/// sums them: MEGsim's estimate of the sequence totals.
pub fn scale_representatives(rep_stats: &[FrameStats], selection: &Selection) -> FrameStats {
    let mut estimated = FrameStats::default();
    for (stats, rep) in rep_stats.iter().zip(&selection.representatives) {
        estimated.merge(&stats.scaled(rep.cluster_size as u64));
    }
    estimated
}

/// Mean relative errors, in percent, over a set of estimates.
pub fn mean_error_pct(errors: &[MetricErrors]) -> [f64; 4] {
    let n = errors.len().max(1) as f64;
    let mut out = [0.0; 4];
    for e in errors {
        out[0] += e.cycles;
        out[1] += e.dram_accesses;
        out[2] += e.l2_accesses;
        out[3] += e.tile_cache_accesses;
    }
    out.map(|v| v * 100.0 / n)
}

// --- estimate -------------------------------------------------------

/// The outcome of `megsim estimate <trace>`: what the cross-checks
/// compare. The feature matrix is kept only as a digest, so the results
/// the benchmark holds on to stay small beside the program's own
/// memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Frames in the trace.
    pub frames: usize,
    /// Representatives chosen.
    pub selection: Selection,
    /// Scaled representative totals.
    pub estimated: FrameStats,
    /// Digest of every bit of the feature matrix.
    pub matrix_digest: u128,
}

impl Estimate {
    fn new(matrix: &FeatureMatrix, selection: Selection, estimated: FrameStats) -> Self {
        let mut digest = frame_cache::Fingerprint::new();
        for row in matrix.rows.iter_rows() {
            for v in row {
                digest.write_u64(v.to_bits());
            }
        }
        Estimate {
            frames: matrix.frames(),
            selection,
            estimated,
            matrix_digest: digest.finish(),
        }
    }
}

/// An estimate with the matrix and shaders the ground truth reuses.
struct Characterized {
    estimate: Estimate,
    matrix: FeatureMatrix,
    shaders: ShaderTable,
}

/// `megsim estimate <trace>`: streaming characterization, BIC k-means,
/// a second decode pass for the representatives, their simulation on
/// fresh GPUs, and scaling.
///
/// # Errors
///
/// Fails if the trace cannot be read or decoded.
pub fn estimate(path: &Path, config: &MegsimConfig) -> Result<Estimate, String> {
    characterized(path, config).map(|c| c.estimate)
}

fn characterized(path: &Path, config: &MegsimConfig) -> Result<Characterized, String> {
    let gpu = default_gpu();
    let mut frames = TraceFrames::open(path, None)?;
    let shaders = frames.shaders();
    let matrix = characterize_sequence(&mut frames, &shaders, &gpu, config);
    frames.finish(path)?;
    let selection = select_representatives(&matrix, config);
    let (reps, _) = collect_representatives(path, &selection)?;
    let rep_stats = simulate_representatives(|i| reps[&i].clone(), &selection, &shaders, &gpu);
    let estimated = scale_representatives(&rep_stats, &selection);
    Ok(Characterized {
        estimate: Estimate::new(&matrix, selection, estimated),
        matrix,
        shaders,
    })
}

/// [`estimate`] with a span around every layer call.
///
/// # Errors
///
/// As [`estimate`].
pub fn estimate_traced(
    path: &Path,
    config: &MegsimConfig,
    spans: &Spans,
) -> Result<Estimate, String> {
    characterized_traced(path, config, spans).map(|c| c.estimate)
}

fn characterized_traced(
    path: &Path,
    config: &MegsimConfig,
    spans: &Spans,
) -> Result<Characterized, String> {
    let gpu = default_gpu();
    let mut frames = TraceFrames::open(path, Some(spans))?;
    let shaders = frames.shaders();
    let renderer = renderer_for(&gpu);
    let config_fp = spans.span("frame_cache.fingerprint_s", || {
        frame_cache::activity_config_fingerprint(renderer.config(), &shaders)
    });
    let mut activities = Vec::new();
    spans.parallel(|| {
        megsim_exec::iter_pipeline(
            &mut frames,
            STREAM_DEPTH,
            |_, f: Frame| cached_activity(spans, config_fp, &f, &renderer, &shaders),
            |_, activity| activities.push(activity),
        )
    });
    frames.finish(path)?;
    let matrix = spans.span("core.characterize_s", || {
        feature_matrix(activities.iter(), &shaders, &config.characterization)
    });
    let selection = select_traced(&matrix, config, spans);
    spans.count("cluster.k", selection.k() as f64);
    spans.count("cluster.bic_probes", selection.bic_scores.len() as f64);
    let (reps, decoded) =
        spans.span("gl.decode_s", || collect_representatives(path, &selection))?;
    spans.count("gl.decode_frames", decoded as f64);
    let stats_fp = spans.span("frame_cache.fingerprint_s", || {
        frame_cache::stats_config_fingerprint(&gpu, &shaders)
    });
    let rep_stats = spans.parallel(|| {
        megsim_exec::par_map_indexed(&selection.representatives, |_, rep| {
            let frame = reps[&rep.frame_index].clone();
            cached_stats(
                spans,
                stats_fp,
                &frame,
                &renderer,
                &shaders,
                &gpu,
                "timing.reps_s",
            )
        })
    });
    let estimated = scale_representatives(&rep_stats, &selection);
    Ok(Characterized {
        estimate: Estimate::new(&matrix, selection, estimated),
        matrix,
        shaders,
    })
}

/// `select_representatives` step by step: normalization is charged to
/// `core.characterize_s`, the BIC search and representative pick to
/// `cluster.search_s`.
fn select_traced(matrix: &FeatureMatrix, config: &MegsimConfig, spans: &Spans) -> Selection {
    let data = spans.span("core.characterize_s", || normalize(matrix, &config.weights));
    spans.span("cluster.search_s", || {
        let found = search_clusters(&data, &config.search);
        let reps = found.clustering.representatives(&data);
        let sizes = found.clustering.cluster_sizes();
        Selection {
            representatives: reps
                .into_iter()
                .zip(sizes)
                .map(|(frame_index, cluster_size)| Representative {
                    frame_index,
                    cluster_size,
                })
                .collect(),
            labels: found.clustering.labels,
            bic_scores: found.bic_scores,
        }
    })
}

/// A frame-cache activity lookup: the render runs only on a miss and is
/// charged to `funcsim.activity_s`; the rest of the lookup
/// (fingerprint, tier walk, insert) to `frame_cache.fingerprint_s`.
fn cached_activity(
    spans: &Spans,
    config_fp: u128,
    frame: &Frame,
    renderer: &Renderer,
    shaders: &ShaderTable,
) -> FrameActivity {
    let start = Instant::now();
    let mut render_s = 0.0;
    let activity = frame_cache::activity_or_else(config_fp, frame, || {
        let t = Instant::now();
        let activity = renderer.frame_activity(frame, shaders);
        render_s = t.elapsed().as_secs_f64();
        spans.count("funcsim.activity_frames", 1.0);
        spans.count("funcsim.fragments_shaded", activity.fragments_shaded as f64);
        activity
    });
    spans.add_seconds("funcsim.activity_s", render_s);
    spans.add_seconds(
        "frame_cache.fingerprint_s",
        start.elapsed().as_secs_f64() - render_s,
    );
    activity
}

/// A frame-cache stats lookup: on a miss the frame renders
/// (`funcsim.trace_s`) and runs on a fresh GPU (`timing_span`).
fn cached_stats(
    spans: &Spans,
    config_fp: u128,
    frame: &Frame,
    renderer: &Renderer,
    shaders: &ShaderTable,
    gpu_config: &GpuConfig,
    timing_span: &'static str,
) -> FrameStats {
    let start = Instant::now();
    let mut inner_s = 0.0;
    let stats = frame_cache::stats_or_else(config_fp, frame, || {
        let t0 = Instant::now();
        let trace = renderer.render_frame(frame, shaders);
        let t1 = Instant::now();
        let mut gpu = Gpu::new(gpu_config.clone());
        let stats = gpu.simulate_frame(&trace, shaders);
        let t2 = Instant::now();
        spans.add_seconds("funcsim.trace_s", (t1 - t0).as_secs_f64());
        spans.add_seconds(timing_span, (t2 - t1).as_secs_f64());
        inner_s = (t2 - t0).as_secs_f64();
        count_render(spans, &stats.activity);
        count_simulated(spans, &stats);
        stats
    });
    spans.add_seconds(
        "frame_cache.fingerprint_s",
        start.elapsed().as_secs_f64() - inner_s,
    );
    stats
}

/// Counts one frame rendered into a timing trace.
fn count_render(spans: &Spans, activity: &FrameActivity) {
    spans.count("funcsim.trace_frames", 1.0);
    spans.count("funcsim.fragments_shaded", activity.fragments_shaded as f64);
}

/// Counts one frame's exact simulated work.
fn count_simulated(spans: &Spans, s: &FrameStats) {
    spans.count("timing.frames", 1.0);
    spans.count("timing.sim_cycles", s.cycles as f64);
    spans.count("mem.l2_accesses", s.l2_accesses() as f64);
    spans.count("mem.l2_hits", s.memory.l2.hits as f64);
    spans.count("mem.dram_accesses", s.dram_accesses() as f64);
    spans.count("mem.dram_row_hits", s.memory.dram.row_hits as f64);
    spans.count("mem.tile_cache_accesses", s.tile_cache_accesses() as f64);
}

// --- ground-truth ---------------------------------------------------

/// The outcome of `megsim estimate --ground-truth <trace>`.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// The representative estimate.
    pub estimate: Estimate,
    /// Fig. 7 errors of the estimate against full simulation.
    pub errors: MetricErrors,
    /// The feature matrix, which `evaluate_megsim` selects from.
    pub matrix: FeatureMatrix,
}

impl GroundTruth {
    /// The cross-check against a full run simulated apart from the
    /// flow (see [`full_run`]): `evaluate_megsim` on it selects the same
    /// representatives, and its estimate from the full-run frames equals
    /// the scaled representative estimate, bit for bit, with the same
    /// errors. Fresh GPUs make a representative's statistics the same
    /// whether it runs alone or in the full pass.
    pub fn matches_full_run(&self, full_run: &[FrameStats], config: &MegsimConfig) -> bool {
        if full_run.len() != self.matrix.frames() {
            return false;
        }
        let run = evaluate_megsim(&self.matrix, full_run, config);
        run.selection == self.estimate.selection
            && run.estimated == self.estimate.estimated
            && run.errors == self.errors
    }
}

/// Per-frame statistics of a full fresh-GPU-per-frame simulation of a
/// trace (`simulate_sequence`). With `cached` false the host frame
/// cache is switched off for the call, so every frame, the
/// representatives an estimate has cached included, is simulated again.
///
/// # Errors
///
/// Fails if the trace cannot be read or decoded.
pub fn full_run(path: &Path, cached: bool) -> Result<Vec<FrameStats>, String> {
    let enabled = frame_cache::is_enabled();
    frame_cache::set_enabled(enabled && cached);
    let run = (|| {
        let mut frames = TraceFrames::open(path, None)?;
        let shaders = frames.shaders();
        let per_frame = simulate_sequence(&mut frames, &shaders, &default_gpu());
        frames.finish(path)?;
        Ok(per_frame)
    })();
    frame_cache::set_enabled(enabled);
    run
}

/// `megsim estimate --ground-truth <trace>`: the estimate, then a full
/// frame-parallel cycle-level simulation of every frame on fresh GPUs
/// (the representatives served from the frame cache, as the command
/// runs it) and the Fig. 7 errors.
///
/// # Errors
///
/// Fails if the trace cannot be read or decoded.
pub fn ground_truth(path: &Path, config: &MegsimConfig) -> Result<GroundTruth, String> {
    let Characterized {
        estimate, matrix, ..
    } = characterized(path, config)?;
    let per_frame = full_run(path, true)?;
    let errors = evaluate_megsim(&matrix, &per_frame, config).errors;
    Ok(GroundTruth {
        estimate,
        errors,
        matrix,
    })
}

/// [`ground_truth`] with a span around every layer call.
///
/// # Errors
///
/// As [`ground_truth`].
pub fn ground_truth_traced(
    path: &Path,
    config: &MegsimConfig,
    spans: &Spans,
) -> Result<GroundTruth, String> {
    let Characterized {
        estimate,
        matrix,
        shaders,
    } = characterized_traced(path, config, spans)?;
    let gpu = default_gpu();
    let renderer = renderer_for(&gpu);
    let shaders = &shaders;
    let mut frames = TraceFrames::open(path, Some(spans))?;
    let stats_fp = spans.span("frame_cache.fingerprint_s", || {
        frame_cache::stats_config_fingerprint(&gpu, shaders)
    });
    let mut per_frame = Vec::new();
    spans.parallel(|| {
        megsim_exec::iter_pipeline(
            &mut frames,
            STREAM_DEPTH,
            |_, f: Frame| {
                cached_stats(
                    spans,
                    stats_fp,
                    &f,
                    &renderer,
                    shaders,
                    &gpu,
                    "timing.fullsim_s",
                )
            },
            |_, s| per_frame.push(s),
        )
    });
    frames.finish(path)?;
    // `evaluate_megsim` selects again from the matrix, then scales the
    // full-run frames of the representatives.
    let selection = select_traced(&matrix, config, spans);
    let estimated = estimate_totals(&selection.representatives, |i| &per_frame[i]);
    let errors = metric_errors(&estimated, &sequence_totals(&per_frame));
    Ok(GroundTruth {
        estimate,
        errors,
        matrix,
    })
}

// --- warm-rig -------------------------------------------------------

/// One simulated GPU set-up of the warm-rig workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RigShape {
    /// One GPU, tile-based rendering.
    Tbr,
    /// One GPU, tile-based deferred rendering.
    Tbdr,
    /// One GPU, immediate-mode rendering.
    Imr,
    /// Two GPUs, split-frame dispatch, one shared L2 + DRAM.
    SfrShared,
    /// Two GPUs, alternate-frame dispatch, private memory each.
    AfrPrivate,
}

impl RigShape {
    /// Every shape, in run order.
    pub const ALL: [RigShape; 5] = [
        RigShape::Tbr,
        RigShape::Tbdr,
        RigShape::Imr,
        RigShape::SfrShared,
        RigShape::AfrPrivate,
    ];

    /// The shape warm-rig runs its `i`-th trace on: the traces take the
    /// shapes in turn, so every shape runs and each trace is simulated
    /// once per pass.
    pub fn for_trace(i: usize) -> RigShape {
        RigShape::ALL[i % RigShape::ALL.len()]
    }

    /// The timing span this shape's frames are charged to.
    pub fn timing_span(self) -> &'static str {
        match self {
            RigShape::Tbr => "timing.tbr_s",
            RigShape::Tbdr => "timing.tbdr_s",
            RigShape::Imr => "timing.imr_s",
            RigShape::SfrShared => "timing.rig_sfr_s",
            RigShape::AfrPrivate => "timing.rig_afr_s",
        }
    }

    /// The per-GPU configuration.
    pub fn gpu(self) -> GpuConfig {
        let mut gpu = default_gpu();
        gpu.render_mode = match self {
            RigShape::Tbdr => RenderMode::TileBasedDeferred,
            RigShape::Imr => RenderMode::Immediate,
            _ => RenderMode::TileBased,
        };
        gpu
    }

    /// The rig, for the multi-GPU shapes.
    pub fn rig(self) -> Option<MultiGpuConfig> {
        match self {
            RigShape::SfrShared => Some(MultiGpuConfig::new(
                2,
                DispatchMode::SplitFrame,
                Topology::Shared,
            )),
            RigShape::AfrPrivate => Some(MultiGpuConfig::new(
                2,
                DispatchMode::AlternateFrame,
                Topology::Private,
            )),
            _ => None,
        }
    }
}

/// One warm sequence: per-frame statistics plus the rig's interconnect
/// totals (zero on one GPU).
#[derive(Debug, Clone, PartialEq)]
pub struct WarmRun {
    /// Per-frame statistics, caches warm across frames.
    pub stats: Vec<FrameStats>,
    /// Interconnect line transfers.
    pub link_transfers: u64,
    /// Interconnect busy cycles.
    pub link_busy_cycles: u64,
}

fn warm_run(stats: Vec<FrameStats>, report: Option<MultiGpuReport>) -> WarmRun {
    WarmRun {
        stats,
        link_transfers: report.as_ref().map_or(0, MultiGpuReport::transfers),
        link_busy_cycles: report.as_ref().map_or(0, MultiGpuReport::busy_cycles),
    }
}

/// Simulates the first `limit` frames of a trace as one warm sequence
/// on `shape` (`simulate_sequence_warm`, or `simulate_sequence_multi`
/// for a rig).
///
/// # Errors
///
/// Fails if the trace cannot be read or decoded.
pub fn warm(path: &Path, shape: RigShape, limit: usize) -> Result<WarmRun, String> {
    let mut frames = TraceFrames::open(path, None)?;
    let shaders = frames.shaders();
    let gpu = shape.gpu();
    let source = frames.by_ref().take(limit);
    let run = match shape.rig() {
        None => warm_run(simulate_sequence_warm(source, &shaders, &gpu), None),
        Some(rig) => {
            let (stats, report) = simulate_sequence_multi(source, &shaders, &gpu, rig);
            warm_run(stats, Some(report))
        }
    };
    frames.finish(path)?;
    Ok(run)
}

/// The warm-rig cross-check: a prefix of a sequence simulated on its
/// own (at 1 thread) matches the full run frame for frame. The prefix's
/// last frame carries its own end-of-sequence L2 drain, so it is left
/// out of the compare.
pub fn prefix_matches(prefix: &[FrameStats], full: &[FrameStats]) -> bool {
    let n = prefix.len().saturating_sub(1);
    n > 0 && full.len() >= n && prefix[..n] == full[..n]
}

/// [`warm`] over the whole trace with a span around every layer call:
/// rendering on the workers (`funcsim.trace_s`) overlaps the timing
/// model on this thread (the shape's timing span).
///
/// # Errors
///
/// As [`warm`].
pub fn warm_traced(path: &Path, shape: RigShape, spans: &Spans) -> Result<WarmRun, String> {
    let mut frames = TraceFrames::open(path, Some(spans))?;
    let shaders = frames.shaders();
    let gpu = shape.gpu();
    let renderer = renderer_for(&gpu);
    let timing = shape.timing_span();
    let render = |_: usize, f: Frame| {
        let trace = spans.span("funcsim.trace_s", || renderer.render_frame(&f, &shaders));
        count_render(spans, &trace.activity);
        trace
    };
    let mut stats = Vec::new();
    let (writebacks, report) = match shape.rig() {
        None => {
            let mut gpu = Gpu::new(gpu);
            spans.parallel(|| {
                megsim_exec::iter_pipeline(&mut frames, WARM_DEPTH, render, |_, trace| {
                    stats.push(spans.span(timing, || gpu.simulate_frame(&trace, &shaders)));
                })
            });
            (spans.span(timing, || gpu.drain_l2()), None)
        }
        Some(rig) => {
            let mut rig = MultiGpu::new(gpu, rig);
            spans.parallel(|| {
                megsim_exec::iter_pipeline(&mut frames, WARM_DEPTH, render, |_, trace| {
                    stats.push(spans.span(timing, || rig.simulate_frame(&trace, &shaders)));
                })
            });
            (spans.span(timing, || rig.drain_l2()), Some(rig.report()))
        }
    };
    frames.finish(path)?;
    if let Some(last) = stats.last_mut() {
        last.memory.l2.writebacks += writebacks;
    }
    for s in &stats {
        count_simulated(spans, s);
    }
    let run = warm_run(stats, report);
    spans.count("mem.link_transfers", run.link_transfers as f64);
    spans.count("mem.link_busy_cycles", run.link_busy_cycles as f64);
    Ok(run)
}

// --- batch ----------------------------------------------------------

/// One pass of `megsim batch` over the manifest.
#[derive(Debug)]
pub struct BatchPass {
    /// Each campaign's estimate (or error), by campaign name.
    pub results: BTreeMap<String, Result<Estimate, String>>,
    /// Frame-cache tiers that served the pass.
    pub tiers: TierCounts,
    /// Store records after the pass.
    pub records: u64,
    /// Store segments after the pass.
    pub segments: u64,
    /// Disk reads the store served in the pass.
    pub reads_served: u64,
}

impl BatchPass {
    /// The batch cross-check: campaigns of `self` whose result in
    /// `other` is missing, failed or different (empty when all match).
    pub fn mismatches(&self, other: &BatchPass) -> Vec<String> {
        self.results
            .iter()
            .filter(|(name, mine)| match (mine, other.results.get(*name)) {
                (Ok(mine), Some(Ok(theirs))) => mine != theirs,
                _ => true,
            })
            .map(|(name, _)| name.clone())
            .collect()
    }
}

/// One `megsim batch <manifest>` with a disk store under `store_dir`:
/// opens the store (reading what earlier passes wrote), runs every
/// campaign, seals what the pass wrote and detaches the store. The
/// memory tier is left as the caller set it.
///
/// # Errors
///
/// Fails if the manifest cannot be read or parsed, or the store cannot
/// be opened or flushed.
pub fn batch(
    manifest: &Path,
    store_dir: &Path,
    spans: Option<&Spans>,
) -> Result<BatchPass, String> {
    let jobs = read_manifest(manifest)?;
    let base = manifest.parent().unwrap_or(Path::new("."));
    maybe_span(spans, "store.open_s", || {
        frame_cache::set_store_dir(store_dir)
    })
    .map_err(|e| format!("cannot open the store: {e}"))?;
    let (results, tiers) = run_campaigns(base, &jobs, spans);
    let flushed = maybe_span(spans, "store.flush_s", frame_cache::flush_store);
    let stats = frame_cache::store_stats().unwrap_or_default();
    frame_cache::detach_store();
    flushed.map_err(|e| format!("store flush failed: {e}"))?;
    Ok(BatchPass {
        results,
        tiers,
        records: stats.records,
        segments: stats.segments,
        reads_served: stats.reads_served,
    })
}

/// The campaigns of a batch manifest.
///
/// # Errors
///
/// Fails if the manifest cannot be read or parsed.
pub fn read_manifest(manifest: &Path) -> Result<Vec<megsim_core::BatchJob>, String> {
    let text = fs::read_to_string(manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    parse_manifest(&text).map_err(|e| format!("{}: {e}", manifest.display()))
}

/// One `run_batch` over `jobs` (estimate campaigns, traces relative to
/// `base`). Returns each campaign's estimate and the tiers that served
/// the pass.
pub fn run_campaigns(
    base: &Path,
    jobs: &[megsim_core::BatchJob],
    spans: Option<&Spans>,
) -> (BTreeMap<String, Result<Estimate, String>>, TierCounts) {
    let results = Mutex::new(BTreeMap::new());
    let campaign = |job: &megsim_core::BatchJob| {
        let path = base.join(&job.trace);
        let config = MegsimConfig::default().with_seed(job.seed);
        let out = match spans {
            Some(s) => estimate_traced(&path, &config, s),
            None => estimate(&path, &config),
        };
        let summary = match &out {
            Ok(e) => Ok(format!(
                "{}/{} frames, {} cycles",
                e.selection.k(),
                e.frames,
                e.estimated.cycles
            )),
            Err(e) => Err(e.clone()),
        };
        results
            .lock()
            .expect("a campaign panicked")
            .insert(job.name.clone(), out);
        summary
    };
    let report = maybe_span_parallel(spans, || run_batch(jobs, campaign));
    (
        results.into_inner().expect("a campaign panicked"),
        report.totals(),
    )
}

/// Runs `f`, under a span when tracing.
fn maybe_span<T>(spans: Option<&Spans>, layer: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.span(layer, f),
        None => f(),
    }
}

/// Runs `f`, as a parallel phase when tracing.
fn maybe_span_parallel<T>(spans: Option<&Spans>, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.parallel(f),
        None => f(),
    }
}

/// Bytes of the files directly in `dir` (0 if it cannot be listed).
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
