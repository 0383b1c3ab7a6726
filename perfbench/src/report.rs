//! Result output: the stamp every result carries, host peak memory and
//! the final JSON line.

use std::fmt::Write as _;
use std::path::Path;

/// A measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A JSON number with every digit Rust prints for the `f64`
/// (non-finite values, which JSON cannot carry, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// What every result is stamped with.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Commit of the checkout, or `unknown` outside a git work tree.
    pub rev: String,
    /// Cores the host offers (`available_parallelism`).
    pub nproc: usize,
    /// Worker threads the run used.
    pub threads: usize,
    /// Workload seed.
    pub seed: u64,
    /// Frame scale of the generated games.
    pub scale: f64,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// Rust flags of the build (the workspace sets
    /// `-C target-cpu=native` in `.cargo/config.toml`).
    pub rustflags: &'static str,
}

impl Stamp {
    /// One JSON line, `{"stamp": {...}}`.
    pub fn json(&self, workload: &str, trace: bool) -> String {
        format!(
            "{{\"stamp\": {{\"workload\": \"{workload}\", \"trace\": {trace}, \"rev\": \"{}\", \
             \"nproc\": {}, \"threads\": {}, \"seed\": {}, \"scale\": {}, \"profile\": \"{}\", \
             \"rustflags\": \"{}\"}}}}",
            escape(&self.rev),
            self.nproc,
            self.threads,
            self.seed,
            self.scale,
            self.profile,
            escape(self.rustflags)
        )
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The commit checked out in `root`, read from `root/.git` (no process
/// is spawned and no parent directory is searched).
pub fn git_rev(root: &Path) -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = root.join(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Restarts the kernel's peak-RSS count for this process, so the next
/// [`peak_rss_mib`] covers only what runs after it. Returns whether the
/// kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0 where
/// the kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
