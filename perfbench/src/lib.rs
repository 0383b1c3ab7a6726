//! # megsim-perfbench
//!
//! The MEGsim end-to-end benchmark: three closed-loop workloads
//! (`ground-truth`, `warm-rig`, `batch`), end-to-end
//! metrics from an untraced run and per-layer metrics from a separate
//! traced run. See `README.md` beside this package for the metric
//! table and how to compare two commits.

pub mod flows;
pub mod host;
pub mod report;
pub mod run;
pub mod setup;
pub mod spans;

pub use run::{run, Options, Outcome};
pub use setup::InputSpec;

/// One metric the benchmark emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, emitted by every workload's untraced run.
pub const END_TO_END: [MetricDef; 3] = [
    m("frames_per_s", "frames/s", "higher"),
    m("rerun_frames_per_s", "frames/s", "higher"),
    m("setup_s", "s", "lower"),
];

/// Per-layer metrics, emitted by every workload's traced run (0 where
/// the workload does not run the layer). The selection, accuracy and
/// host-memory figures lead: a user sees them, but they move with the
/// seed's inputs far more than any end-to-end bound allows.
pub const PER_LAYER: [MetricDef; 59] = [
    m("reduction_factor", "x", "higher"),
    m("cycles_err_pct", "%", "lower"),
    m("dram_err_pct", "%", "lower"),
    m("l2_err_pct", "%", "lower"),
    m("tile_err_pct", "%", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("workloads.generate_s", "s", "lower"),
    m("gl.encode_s", "s", "lower"),
    m("gl.trace_bytes", "bytes", "lower"),
    m("gl.decode_s", "s", "lower"),
    m("gl.decode_frames", "count", "lower"),
    m("funcsim.activity_s", "s", "lower"),
    m("funcsim.activity_frames", "count", "lower"),
    m("funcsim.trace_s", "s", "lower"),
    m("funcsim.trace_frames", "count", "lower"),
    m("funcsim.fragments_shaded", "count", "lower"),
    m("core.characterize_s", "s", "lower"),
    m("cluster.search_s", "s", "lower"),
    m("cluster.k", "count", "lower"),
    m("cluster.bic_probes", "count", "lower"),
    m("timing.frame_s", "s", "lower"),
    m("timing.frames", "count", "lower"),
    m("timing.sim_cycles", "cycles", "lower"),
    m("timing.host_ns_per_sim_kcycle", "ns", "lower"),
    m("timing.reps_s", "s", "lower"),
    m("timing.tbr_s", "s", "lower"),
    m("timing.tbdr_s", "s", "lower"),
    m("timing.imr_s", "s", "lower"),
    m("timing.rig_sfr_s", "s", "lower"),
    m("timing.rig_afr_s", "s", "lower"),
    m("mem.l2_accesses", "count", "lower"),
    m("mem.l2_hit_rate", "ratio", "higher"),
    m("mem.dram_accesses", "count", "lower"),
    m("mem.dram_row_hit_rate", "ratio", "higher"),
    m("mem.tile_cache_accesses", "count", "lower"),
    m("mem.link_transfers", "count", "lower"),
    m("mem.link_busy_cycles", "cycles", "lower"),
    m("exec.threads", "count", "higher"),
    m("exec.characterize_scaling", "x", "higher"),
    m("exec.fullsim_scaling", "x", "higher"),
    m("exec.reps_scaling", "x", "higher"),
    m("exec.warm_scaling", "x", "higher"),
    m("exec.batch_scaling", "x", "higher"),
    m("frame_cache.lookups", "count", "lower"),
    m("frame_cache.mem_hits", "count", "higher"),
    m("frame_cache.shared_hits", "count", "higher"),
    m("frame_cache.disk_hits", "count", "higher"),
    m("frame_cache.computed", "count", "lower"),
    m("frame_cache.hit_rate", "ratio", "higher"),
    m("frame_cache.fingerprint_s", "s", "lower"),
    m("store.open_s", "s", "lower"),
    m("store.flush_s", "s", "lower"),
    m("store.records", "count", "lower"),
    m("store.segments", "count", "lower"),
    m("store.reads_served", "count", "higher"),
    m("store.dir_bytes", "bytes", "lower"),
    m("trace.total_s", "s", "lower"),
    m("trace.unattributed_s", "s", "lower"),
    m("trace.overhead_s", "s", "lower"),
];

/// The layer spans that partition a traced run's wall time (with
/// `trace.unattributed_s`). `timing.frame_s` is the sum of the
/// `timing.*` spans, split by phase in `timing.reps_s`, `timing.tbr_s`
/// and the others.
pub const TIME_SPANS: [&str; 10] = [
    "workloads.generate_s",
    "gl.encode_s",
    "gl.decode_s",
    "funcsim.activity_s",
    "funcsim.trace_s",
    "core.characterize_s",
    "cluster.search_s",
    "frame_cache.fingerprint_s",
    "store.open_s",
    "store.flush_s",
];

/// Timing-model spans, one per phase the model runs in. The full
/// simulation of the ground-truth workload has no metric of its own; it
/// is the rest of `timing.frame_s`.
pub const TIMING_SPANS: [&str; 7] = [
    "timing.reps_s",
    "timing.fullsim_s",
    "timing.tbr_s",
    "timing.tbdr_s",
    "timing.imr_s",
    "timing.rig_sfr_s",
    "timing.rig_afr_s",
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `megsim estimate --ground-truth` on every game's trace.
    GroundTruth,
    /// Warm sequences in TBR, TBDR, IMR and on two 2-GPU rigs.
    WarmRig,
    /// `megsim batch` of estimate campaigns with a disk store, cold
    /// then re-run from disk.
    Batch,
}

/// Every game of the suite.
const ALL_GAMES: &[&str] = &["asp", "bbr1", "bbr2", "hcr", "hwh", "jjo", "pvz", "spd"];

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::GroundTruth, Workload::WarmRig, Workload::Batch];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GroundTruth => "ground-truth",
            Workload::WarmRig => "warm-rig",
            Workload::Batch => "batch",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The inputs the workload generates from its seed: short,
    /// independently seeded traces, nine a game (six on batch),
    /// which average out how much work one seed's content asks for (see
    /// `README.md`). Batch keeps traces twice as long, so each campaign
    /// clusters more frames; it is as steady at that length.
    pub fn inputs(self) -> InputSpec {
        let (instances, scale, campaigns_per_trace) = match self {
            Workload::GroundTruth | Workload::WarmRig => (9, 0.00625, 0),
            Workload::Batch => (6, 0.0125, 2),
        };
        InputSpec {
            aliases: ALL_GAMES,
            instances,
            scale,
            campaigns_per_trace,
        }
    }

    /// Re-runs after each cold pass of an iteration. A warm-rig re-run
    /// repeats the cold pass's work (it bypasses the frame cache), so
    /// one is enough. The cache-served re-runs of the other workloads
    /// are short, so three cost little and steady their median.
    pub fn reruns(self) -> usize {
        match self {
            Workload::WarmRig => 1,
            Workload::GroundTruth | Workload::Batch => 3,
        }
    }
}
