//! Benchmark inputs: the games' recorded traces and the batch manifest,
//! all derived from the workload seed.
//!
//! The program under test sees only these files. The same seed always
//! writes byte-identical files, and another seed different ones.

use std::fs;
use std::path::{Path, PathBuf};

use megsim_gl::{encode_with_version, record_sequence, FORMAT_VERSION};

use crate::spans::Spans;

/// What one workload generates.
#[derive(Debug, Clone, Copy)]
pub struct InputSpec {
    /// Game aliases (`megsim_workloads::by_alias`), one trace each.
    pub aliases: &'static [&'static str],
    /// Independently seeded copies of each game: more copies average
    /// out how much work one seed's content happens to ask for.
    pub instances: usize,
    /// Frame-count scale of every game (`by_alias`; at least 16 frames
    /// a trace).
    pub scale: f64,
    /// Clustering seeds per trace in the batch manifest (0 = no
    /// manifest).
    pub campaigns_per_trace: usize,
}

/// One recorded trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Game alias.
    pub alias: &'static str,
    /// Trace file, `<alias>-<instance>.mglt`.
    pub path: PathBuf,
    /// Frames in the trace.
    pub frames: usize,
    /// Trace file size.
    pub bytes: u64,
}

/// Everything a workload runs on.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The recorded traces, game by game, instance by instance.
    pub traces: Vec<Trace>,
    /// The batch manifest, when the spec asks for one. Its trace paths
    /// are relative to the manifest's directory.
    pub manifest: Option<PathBuf>,
}

/// Derived seed `index` of a run with workload seed `seed` (clustering
/// seeds and game-instance seeds).
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0x632B_E59B_D9B4_E019))
        >> 16
}

/// Index space of the game-instance seeds, apart from the clustering
/// seeds' small indices.
const INSTANCE_SEEDS: u64 = 1 << 32;

/// Generates every game of `spec` with `seed`, records and encodes its
/// trace into `dir` (default wire format, as `megsim record` writes),
/// and writes the batch manifest. Generation and encoding are charged
/// to `workloads.generate_s` and `gl.encode_s` on `spans`.
///
/// # Errors
///
/// Fails on an unknown alias or a file that cannot be written.
pub fn prepare(dir: &Path, spec: &InputSpec, seed: u64, spans: &Spans) -> Result<Inputs, String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut traces = Vec::with_capacity(spec.aliases.len());
    for &alias in spec.aliases {
        for instance in 0..spec.instances {
            let game_seed = derive_seed(seed, INSTANCE_SEEDS + instance as u64);
            let (workload, frames) = spans
                .span("workloads.generate_s", || {
                    let workload = megsim_workloads::by_alias(alias, spec.scale, game_seed)?;
                    let frames = workload.generate_frames();
                    Some((workload, frames))
                })
                .ok_or_else(|| format!("unknown game alias '{alias}'"))?;
            let bytes = spans.span("gl.encode_s", || {
                let stream = record_sequence(workload.shaders(), &frames);
                encode_with_version(&stream, FORMAT_VERSION).expect("the default version encodes")
            });
            let path = dir.join(trace_file(alias, instance));
            fs::write(&path, &bytes)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            traces.push(Trace {
                alias,
                path,
                frames: frames.len(),
                bytes: bytes.len() as u64,
            });
        }
    }
    let manifest = if spec.campaigns_per_trace > 0 {
        let path = dir.join("manifest.txt");
        fs::write(&path, manifest_text(spec, seed))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Some(path)
    } else {
        None
    };
    Ok(Inputs { traces, manifest })
}

fn trace_file(alias: &str, instance: usize) -> String {
    format!("{alias}-{instance}.mglt")
}

/// The batch manifest: one `estimate` campaign per (trace, clustering
/// seed), in the grammar `megsim batch` reads.
fn manifest_text(spec: &InputSpec, seed: u64) -> String {
    let mut text = String::from("# megsim-perfbench batch manifest\n");
    for alias in spec.aliases {
        for instance in 0..spec.instances {
            let trace = trace_file(alias, instance);
            for c in 0..spec.campaigns_per_trace {
                let s = derive_seed(seed, c as u64);
                text.push_str(&format!(
                    "{alias}-{instance}-c{c} estimate {trace} seed={s}\n"
                ));
            }
        }
    }
    text
}
