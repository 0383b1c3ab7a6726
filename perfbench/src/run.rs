//! Running a workload: set-up, the measured loop, the cross-checks and
//! the traced run.

use std::path::{Path, PathBuf};
use std::time::Instant;

use megsim_core::frame_cache::{self, FrameCacheReport, TierCounts};
use megsim_core::{characterize_sequence, simulate_representatives, MegsimConfig};

use crate::flows::{
    self, default_gpu, mean_error_pct, BatchPass, Estimate, GroundTruth, RigShape, TraceFrames,
    WarmRun,
};
use crate::host::{self, Clock};
use crate::report::{self, Metric, Stamp};
use crate::setup::{derive_seed, prepare, InputSpec, Inputs};
use crate::spans::Spans;
use crate::{Workload, END_TO_END, PER_LAYER, TIME_SPANS, TIMING_SPANS};

/// Frames of the warm-rig 1-thread prefix cross-check.
const PREFIX_FRAMES: usize = 8;
/// Traces the traced run's thread-scaling stages run on.
const SCALING_TRACES: usize = 2;
/// Host probes after each set-up of an untraced run.
const SETUP_PROBES: usize = 3;
/// Host probes in each reading around a batch pass.
const BATCH_PROBES: usize = 9;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// The inputs it generates (the workload's own unless a test
    /// shrinks them).
    pub inputs: InputSpec,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Scratch directory for traces, manifest and store (emptied and
    /// removed by the run).
    pub work_dir: PathBuf,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// What the results are stamped with.
    pub stamp: Stamp,
    /// No operation failed and every check held.
    pub correct: bool,
    /// Operations attempted (trace flows, campaigns, cross-checks).
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// The end-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

/// Counts operations and failed checks.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }

    fn op<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|e| {
                self.failed += 1;
                eprintln!("operation failed: {e}");
            })
            .ok()
    }
}

/// What one pass of a workload's flow produced.
enum PassOutput {
    GroundTruths(Vec<Option<GroundTruth>>),
    /// Per trace, on its [`RigShape::for_trace`] shape.
    Warm(Vec<Option<WarmRun>>),
    Batch(Option<BatchPass>),
}

/// One timed unit of a pass: a trace's flow (the whole manifest on
/// batch).
#[derive(Debug, Clone, Copy)]
struct Unit {
    frames: usize,
    /// Seconds at the reference host speed (as timed when the pass was
    /// not probed).
    secs: f64,
    /// Seconds as timed.
    as_timed: f64,
}

/// The timed units of a pass.
type Units = Vec<Unit>;

/// One measured iteration: the cold pass and the re-runs.
struct Iteration {
    cold: Units,
    reruns: Vec<Units>,
    /// The cold pass's output.
    output: PassOutput,
    /// The last re-run's output.
    last: PassOutput,
    tiers: TierCounts,
}

/// Frames per second over a run's iterations: each unit's median time
/// (`secs` of it) across the iterations, summed, divides the frames of
/// one pass. A
/// burst of host noise thus costs one unit one sample, not a whole
/// pass.
fn throughput(iterations: &[Units], secs: fn(&Unit) -> f64) -> f64 {
    let units = iterations.first().map_or(0, Vec::len);
    let mut frames = 0;
    let mut seconds = 0.0;
    for u in 0..units {
        frames += iterations[0][u].frames;
        seconds += median(&mut iterations.iter().map(|it| secs(&it[u])).collect::<Vec<_>>());
    }
    frames as f64 / seconds
}

/// The workload's run context.
struct Ctx<'a> {
    workload: Workload,
    spec: InputSpec,
    inputs: &'a Inputs,
    config: MegsimConfig,
    store_dir: PathBuf,
    /// Threads the host probes run on, if the passes are probed.
    probe_threads: Option<usize>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn tiers_of(delta: &FrameCacheReport) -> TierCounts {
    TierCounts {
        activity_memory: delta.activity_hits,
        activity_disk: delta.activity_disk_hits,
        activity_shared: delta.activity_shared_hits,
        activity_computed: delta.activity_misses,
        stats_memory: delta.stats_hits,
        stats_disk: delta.stats_disk_hits,
        stats_shared: delta.stats_shared_hits,
        stats_computed: delta.stats_misses,
    }
}

/// Runs `f` and returns the frame-cache tiers that served it.
fn with_tiers<T>(f: impl FnOnce() -> T) -> (T, TierCounts) {
    let before = frame_cache::report();
    let out = f();
    (out, tiers_of(&frame_cache::report().delta_since(&before)))
}

impl Ctx<'_> {
    /// One pass of the flow over every input, timing each trace (the
    /// whole manifest on batch), and the frame-cache tiers that served
    /// it. A batch pass starts from an empty memory tier, so it is
    /// served by the store and what it computes.
    fn pass(&self, spans: Option<&Spans>, ledger: &mut Ledger) -> (PassOutput, Units, TierCounts) {
        let traces = &self.inputs.traces;
        let mut units = Units::new();
        // A batch pass is one long unit: its readings take more probes.
        let probes = match self.workload {
            Workload::Batch => BATCH_PROBES,
            Workload::GroundTruth | Workload::WarmRig => 1,
        };
        let mut clock = Clock::new(self.probe_threads, probes);
        let (output, tiers) = match self.workload {
            Workload::GroundTruth => with_tiers(|| {
                PassOutput::GroundTruths(
                    traces
                        .iter()
                        .map(|t| {
                            let (out, secs, as_timed) = clock.time(|| match spans {
                                Some(s) => flows::ground_truth_traced(&t.path, &self.config, s),
                                None => flows::ground_truth(&t.path, &self.config),
                            });
                            units.push(Unit {
                                frames: t.frames,
                                secs,
                                as_timed,
                            });
                            ledger.op(out)
                        })
                        .collect(),
                )
            }),
            Workload::WarmRig => with_tiers(|| {
                PassOutput::Warm(
                    traces
                        .iter()
                        .enumerate()
                        .map(|(i, t)| {
                            let shape = RigShape::for_trace(i);
                            let (out, secs, as_timed) = clock.time(|| match spans {
                                Some(s) => flows::warm_traced(&t.path, shape, s),
                                None => flows::warm(&t.path, shape, usize::MAX),
                            });
                            units.push(Unit {
                                frames: t.frames,
                                secs,
                                as_timed,
                            });
                            ledger.op(out)
                        })
                        .collect(),
                )
            }),
            Workload::Batch => {
                let manifest = self
                    .inputs
                    .manifest
                    .as_deref()
                    .expect("batch inputs have a manifest");
                frame_cache::clear();
                let (out, secs, as_timed) =
                    clock.time(|| flows::batch(manifest, &self.store_dir, spans));
                let frames =
                    traces.iter().map(|t| t.frames).sum::<usize>() * self.spec.campaigns_per_trace;
                units.push(Unit {
                    frames,
                    secs,
                    as_timed,
                });
                let pass = ledger.op(out);
                for result in pass.iter().flat_map(|p| p.results.values()) {
                    ledger.op(result.as_ref().map(drop).map_err(Clone::clone));
                }
                let tiers = pass.as_ref().map_or_else(TierCounts::default, |p| p.tiers);
                (PassOutput::Batch(pass), tiers)
            }
        };
        (output, units, tiers)
    }

    /// A cold pass (host frame cache and store empty) and the re-runs,
    /// each checked against the cold pass. `before_pass` runs ahead of
    /// every pass.
    fn iteration(
        &self,
        spans: Option<&Spans>,
        ledger: &mut Ledger,
        before_pass: &mut dyn FnMut(&mut Ledger),
    ) -> Iteration {
        frame_cache::clear();
        let _ = std::fs::remove_dir_all(&self.store_dir);
        before_pass(ledger);
        let (output, cold, mut tiers) = self.pass(spans, ledger);
        let mut reruns = Vec::new();
        let mut last = None;
        for _ in 0..self.workload.reruns() {
            before_pass(ledger);
            let (rerun, units, rerun_tiers) = self.pass(spans, ledger);
            tiers.merge(&rerun_tiers);
            self.check_same(&output, &rerun, "re-run", ledger);
            reruns.push(units);
            last = Some(rerun);
        }
        Iteration {
            cold,
            reruns,
            output,
            last: last.expect("at least one re-run"),
            tiers,
        }
    }

    /// An untimed pass over the first trace of every game (their
    /// campaigns on batch) ahead of the measured loop: a process's first
    /// pass runs slower while its heap grows. Its operations count like
    /// any other.
    fn warm_up(&self, ledger: &mut Ledger) {
        let traces = self
            .inputs
            .traces
            .iter()
            .enumerate()
            .step_by(self.spec.instances);
        match self.workload {
            Workload::GroundTruth => {
                for (_, t) in traces {
                    ledger.op(flows::ground_truth(&t.path, &self.config));
                }
            }
            Workload::WarmRig => {
                for (i, t) in traces {
                    ledger.op(flows::warm(&t.path, RigShape::for_trace(i), usize::MAX));
                }
            }
            Workload::Batch => {
                let manifest = self.inputs.manifest.as_deref().expect("batch manifest");
                let base = manifest.parent().unwrap_or(Path::new("."));
                let Some(jobs) = ledger.op(flows::read_manifest(manifest)) else {
                    return;
                };
                let first: Vec<_> = traces.map(|(_, t)| t.path.clone()).collect();
                let jobs: Vec<_> = jobs
                    .into_iter()
                    .filter(|job| first.contains(&base.join(&job.trace)))
                    .collect();
                let (results, _) = flows::run_campaigns(base, &jobs, None);
                for result in results.into_values() {
                    ledger.op(result.map(drop));
                }
            }
        }
        frame_cache::clear();
    }

    /// Two passes over the same inputs produced identical results.
    fn check_same(&self, a: &PassOutput, b: &PassOutput, what: &str, ledger: &mut Ledger) {
        let aliases = self.inputs.traces.iter().map(|t| t.alias);
        let mut same = |ok: bool, alias: &str| {
            ledger.check(ok, || {
                format!("{alias}: the {what} differs from the first pass")
            });
        };
        match (a, b) {
            (PassOutput::GroundTruths(x), PassOutput::GroundTruths(y)) => {
                for ((x, y), alias) in x.iter().zip(y).zip(aliases) {
                    if let (Some(x), Some(y)) = (x, y) {
                        same(x.estimate == y.estimate && x.errors == y.errors, alias);
                    }
                }
            }
            (PassOutput::Warm(x), PassOutput::Warm(y)) => {
                for ((x, y), alias) in x.iter().zip(y).zip(aliases) {
                    if let (Some(x), Some(y)) = (x, y) {
                        same(x == y, alias);
                    }
                }
            }
            (PassOutput::Batch(x), PassOutput::Batch(y)) => {
                if let (Some(x), Some(y)) = (x, y) {
                    let differ = x.mismatches(y);
                    same(differ.is_empty(), &format!("campaigns {differ:?}"));
                }
            }
            _ => unreachable!("passes of one workload"),
        }
    }

    /// Checks on a pass's final output, run once outside the measured
    /// loop: for ground-truth, every trace's full run simulated again
    /// with the frame cache off; for warm-rig, a short prefix of every
    /// sequence re-simulated at 1 thread.
    fn check_output(&self, output: &PassOutput, ledger: &mut Ledger) {
        let traces = &self.inputs.traces;
        match output {
            PassOutput::GroundTruths(gts) => {
                for (t, gt) in traces.iter().zip(gts) {
                    let Some(gt) = gt else { continue };
                    if let Some(full) = ledger.op(flows::full_run(&t.path, false)) {
                        ledger.check(gt.matches_full_run(&full, &self.config), || {
                            format!(
                                "{}: the scaled representatives differ from evaluate_megsim's \
                                 estimate on an uncached full run",
                                t.path.display()
                            )
                        });
                    }
                }
            }
            PassOutput::Warm(runs) => {
                for (i, (t, run)) in traces.iter().zip(runs).enumerate() {
                    if let Some(run) = run {
                        self.check_prefix(&t.path, RigShape::for_trace(i), run, ledger);
                    }
                }
            }
            PassOutput::Batch(_) => {}
        }
    }

    /// A short prefix re-simulated at 1 thread gives the same frame
    /// statistics as the N-thread run. The prefix's last frame carries
    /// the end-of-sequence L2 drain, so it is left out of the compare.
    fn check_prefix(&self, path: &Path, shape: RigShape, run: &WarmRun, ledger: &mut Ledger) {
        let threads = megsim_exec::thread_count();
        megsim_exec::set_threads(1);
        let prefix = flows::warm(path, shape, PREFIX_FRAMES);
        megsim_exec::set_threads(threads);
        if let Some(prefix) = ledger.op(prefix) {
            ledger.check(flows::prefix_matches(&prefix.stats, &run.stats), || {
                format!(
                    "{}: {shape:?} 1-thread prefix differs from the {threads}-thread run",
                    path.display()
                )
            });
        }
    }
}

/// Stage time at 1 thread ÷ at N, per stage (0 where the workload
/// does not run the stage).
#[derive(Debug, Default)]
struct Scaling {
    characterize: f64,
    fullsim: f64,
    reps: f64,
    warm: f64,
    batch: f64,
}

/// Times `stage` at 1 thread and at `threads`, each from an empty host
/// frame cache, and returns their ratio.
fn scaling(threads: usize, mut stage: impl FnMut()) -> f64 {
    let mut at = |n: usize| {
        megsim_exec::set_threads(n);
        frame_cache::clear();
        let ((), secs) = timed(&mut stage);
        secs
    };
    let one = at(1);
    let many = at(threads);
    megsim_exec::set_threads(threads);
    one / many
}

impl Ctx<'_> {
    /// The traced run's thread-scaling stages on the first traces.
    fn scaling(&self, output: &PassOutput, threads: usize) -> Scaling {
        let traces = &self.inputs.traces[..SCALING_TRACES.min(self.inputs.traces.len())];
        let gpu = default_gpu();
        let mut out = Scaling::default();
        match output {
            PassOutput::GroundTruths(gts) => {
                out.characterize = scaling(threads, || {
                    for t in traces {
                        let _ = characterize(&t.path, &self.config);
                    }
                });
                let reps: Vec<_> = traces
                    .iter()
                    .zip(gts)
                    .filter_map(|(t, gt)| {
                        let selection = &gt.as_ref()?.estimate.selection;
                        let (frames, _) =
                            flows::collect_representatives(&t.path, selection).ok()?;
                        let shaders = TraceFrames::open(&t.path, None).ok()?.shaders();
                        Some((selection, frames, shaders))
                    })
                    .collect();
                out.reps = scaling(threads, || {
                    for (selection, frames, shaders) in &reps {
                        simulate_representatives(|i| frames[&i].clone(), selection, shaders, &gpu);
                    }
                });
                out.fullsim = scaling(threads, || {
                    for t in traces {
                        let _ = flows::full_run(&t.path, true);
                    }
                });
            }
            PassOutput::Warm(_) => {
                out.warm = scaling(threads, || {
                    let _ = flows::warm(&traces[0].path, RigShape::Tbr, usize::MAX);
                });
            }
            PassOutput::Batch(_) => {
                let manifest = self.inputs.manifest.as_deref().expect("batch manifest");
                let jobs = flows::read_manifest(manifest).unwrap_or_default();
                let base = manifest.parent().unwrap_or(Path::new("."));
                let per_trace = self.spec.campaigns_per_trace;
                let jobs = &jobs[..(per_trace * traces.len()).min(jobs.len())];
                out.batch = scaling(threads, || {
                    flows::run_campaigns(base, jobs, None);
                });
            }
        }
        out
    }
}

/// Table III reduction (trace frames ÷ frames MEGsim simulates) over
/// every estimate of a pass, and the mean Fig. 7 errors in percent
/// where the pass ran full simulation (zeros elsewhere).
fn accuracy(output: &PassOutput) -> (f64, [f64; 4]) {
    let mut frames = 0;
    let mut simulated = 0;
    let mut errors = Vec::new();
    let mut add = |e: &Estimate| {
        frames += e.frames;
        simulated += e.selection.k();
    };
    match output {
        PassOutput::GroundTruths(gts) => {
            for gt in gts.iter().flatten() {
                add(&gt.estimate);
                errors.push(gt.errors);
            }
        }
        PassOutput::Batch(Some(pass)) => pass.results.values().flatten().for_each(&mut add),
        PassOutput::Warm(_) | PassOutput::Batch(None) => {}
    }
    let reduction = if simulated > 0 {
        frames as f64 / simulated as f64
    } else {
        0.0
    };
    let errors = if errors.is_empty() {
        [0.0; 4]
    } else {
        mean_error_pct(&errors)
    };
    (reduction, errors)
}

/// The streaming characterization pass of a trace.
fn characterize(path: &Path, config: &MegsimConfig) -> Result<megsim_core::FeatureMatrix, String> {
    let mut frames = TraceFrames::open(path, None)?;
    let shaders = frames.shaders();
    let matrix = characterize_sequence(&mut frames, &shaders, &default_gpu(), config);
    frames.finish(path)?;
    Ok(matrix)
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// Fails only if the inputs cannot be generated (an unwritable work
/// directory); failing operations are counted in the outcome instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    megsim_exec::set_threads(nproc);
    let threads = megsim_exec::thread_count();
    let stamp = Stamp {
        rev: report::git_rev(Path::new(".")),
        nproc,
        threads,
        seed: opts.seed,
        scale: opts.inputs.scale,
        profile: env!("PERFBENCH_PROFILE"),
        rustflags: env!("PERFBENCH_RUSTFLAGS"),
    };
    let input_dir = opts.work_dir.join("inputs");
    let result = if opts.trace {
        traced_run(opts, &input_dir, threads)
    } else {
        untraced_run(opts, &input_dir, threads)
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let (ledger, metrics) = result?;
    Ok(Outcome {
        stamp,
        correct: ledger.failed == 0,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
    })
}

fn setup(opts: &Options, dir: &Path, spans: &Spans) -> Result<Inputs, String> {
    let _ = std::fs::remove_dir_all(dir);
    prepare(dir, &opts.inputs, opts.seed, spans)
}

fn ctx<'a>(opts: &Options, inputs: &'a Inputs, probe_threads: Option<usize>) -> Ctx<'a> {
    Ctx {
        workload: opts.workload,
        spec: opts.inputs,
        inputs,
        config: MegsimConfig::default().with_seed(derive_seed(opts.seed, 0)),
        store_dir: opts.work_dir.join("store"),
        probe_threads,
    }
}

fn untraced_run(
    opts: &Options,
    dir: &Path,
    threads: usize,
) -> Result<(Ledger, Vec<Metric>), String> {
    // `setup_s` is the median of set-ups spread over the whole run: one
    // makes the inputs, and one more runs ahead of every pass, writing
    // the same files again. Each is scaled by the median of a few
    // probes after it.
    let mut setups = Vec::new();
    let mut setups_as_timed = Vec::new();
    let mut set_up = || {
        let (made, secs) = timed(|| setup(opts, dir, &Spans::new()));
        setups.push(secs * host::REFERENCE_S / host::reading(threads, SETUP_PROBES));
        setups_as_timed.push(secs);
        made
    };
    let inputs = set_up()?;
    let ctx = ctx(opts, &inputs, Some(threads));
    let mut ledger = Ledger::default();
    let mut before_pass = |ledger: &mut Ledger| {
        ledger.op(set_up());
    };

    ctx.warm_up(&mut ledger);

    let start = Instant::now();
    let mut cold = Vec::new();
    let mut reruns = Vec::new();
    // Iterations run while at least half of the next one is expected
    // to fit in `--seconds`.
    let last = loop {
        let (it, it_s) = timed(|| ctx.iteration(None, &mut ledger, &mut before_pass));
        let secs = |units: &Units| units.iter().map(|u| u.as_timed).sum::<f64>();
        eprintln!(
            "iteration {}: cold {:.3} s, re-runs {:?} s",
            cold.len() + 1,
            secs(&it.cold),
            it.reruns
                .iter()
                .map(|r| (secs(r) * 1e3).round() / 1e3)
                .collect::<Vec<_>>(),
        );
        cold.push(it.cold);
        reruns.extend(it.reruns);
        if start.elapsed().as_secs_f64() + it_s / 2.0 > opts.seconds {
            break it.output;
        }
    };
    ctx.check_output(&last, &mut ledger);
    eprintln!(
        "{}: {} iterations; as timed: frames_per_s {:.3}, rerun_frames_per_s {:.3}, setup_s {:.5}",
        opts.workload.name(),
        cold.len(),
        throughput(&cold, |u| u.as_timed),
        throughput(&reruns, |u| u.as_timed),
        median(&mut setups_as_timed),
    );
    let values = [
        throughput(&cold, |u| u.secs),
        throughput(&reruns, |u| u.secs),
        median(&mut setups),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| Metric {
            name: def.name,
            value,
            unit: def.unit,
        })
        .collect();
    Ok((ledger, metrics))
}

/// The traced run: an untraced set-up and iteration, the same traced,
/// then the thread-scaling stages.
fn traced_run(opts: &Options, dir: &Path, threads: usize) -> Result<(Ledger, Vec<Metric>), String> {
    let mut ledger = Ledger::default();
    let start = Instant::now();
    let inputs = setup(opts, dir, &Spans::new())?;
    report::reset_peak_rss();
    let plain = ctx(opts, &inputs, None).iteration(None, &mut ledger, &mut |_| {});
    let peak_rss = report::peak_rss_mib();
    let untraced_s = start.elapsed().as_secs_f64();

    let spans = Spans::new();
    let start = Instant::now();
    let inputs = setup(opts, dir, &spans)?;
    let ctx = ctx(opts, &inputs, None);
    let traced = ctx.iteration(Some(&spans), &mut ledger, &mut |_| {});
    let total_s = start.elapsed().as_secs_f64();
    ctx.check_same(&plain.output, &traced.output, "traced run", &mut ledger);
    ctx.check_output(&traced.output, &mut ledger);
    let (reduction, errors) = accuracy(&traced.output);

    let attributed = spans.attributed();
    let unattributed_s = total_s - attributed;
    ledger.check(unattributed_s >= 0.0, || {
        format!("layer spans ({attributed} s) exceed the traced total ({total_s} s)")
    });
    let scaling = ctx.scaling(&traced.output, threads);

    let timing_s: f64 = TIMING_SPANS.iter().map(|s| spans.seconds(s)).sum();
    let cycles = spans.counter("timing.sim_cycles");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let tiers = traced.tiers;
    // Store figures are the last re-run's: every record written, and
    // the reads a pass from disk served.
    let batch = match &traced.last {
        PassOutput::Batch(Some(pass)) => Some(pass),
        _ => None,
    };
    let store_bytes = flows::dir_bytes(&ctx.store_dir);
    let store = |f: fn(&BatchPass) -> u64| batch.map_or(0.0, |pass| f(pass) as f64);
    let value = |name: &str| -> f64 {
        match name {
            "reduction_factor" => reduction,
            "cycles_err_pct" => errors[0],
            "dram_err_pct" => errors[1],
            "l2_err_pct" => errors[2],
            "tile_err_pct" => errors[3],
            "peak_rss_mb" => peak_rss,
            "gl.trace_bytes" => inputs.traces.iter().map(|t| t.bytes as f64).sum(),
            "timing.frame_s" => timing_s,
            "timing.host_ns_per_sim_kcycle" => ratio(timing_s * 1e9, cycles / 1e3),
            "mem.l2_hit_rate" => ratio(
                spans.counter("mem.l2_hits"),
                spans.counter("mem.l2_accesses"),
            ),
            "mem.dram_row_hit_rate" => ratio(
                spans.counter("mem.dram_row_hits"),
                spans.counter("mem.dram_accesses"),
            ),
            "exec.threads" => threads as f64,
            "exec.characterize_scaling" => scaling.characterize,
            "exec.fullsim_scaling" => scaling.fullsim,
            "exec.reps_scaling" => scaling.reps,
            "exec.warm_scaling" => scaling.warm,
            "exec.batch_scaling" => scaling.batch,
            "frame_cache.lookups" => tiers.lookups() as f64,
            "frame_cache.mem_hits" => (tiers.activity_memory + tiers.stats_memory) as f64,
            "frame_cache.shared_hits" => (tiers.activity_shared + tiers.stats_shared) as f64,
            "frame_cache.disk_hits" => (tiers.activity_disk + tiers.stats_disk) as f64,
            "frame_cache.computed" => (tiers.activity_computed + tiers.stats_computed) as f64,
            "frame_cache.hit_rate" => tiers.hit_rate(),
            "store.records" => store(|p| p.records),
            "store.segments" => store(|p| p.segments),
            "store.reads_served" => store(|p| p.reads_served),
            "store.dir_bytes" => store_bytes as f64,
            "trace.total_s" => total_s,
            "trace.unattributed_s" => unattributed_s,
            "trace.overhead_s" => total_s - untraced_s,
            n if TIME_SPANS.contains(&n) || TIMING_SPANS.contains(&n) => spans.seconds(n),
            n => spans.counter(n),
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|def| Metric {
            name: def.name,
            value: value(def.name),
            unit: def.unit,
        })
        .collect();
    Ok((ledger, metrics))
}
