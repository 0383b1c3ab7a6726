//! `megsim-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one MEGsim benchmark workload from the root of a checkout and
//! prints, as its last line, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.

use std::path::PathBuf;
use std::process::ExitCode;

use megsim_perfbench::{report, run, Options, Workload, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: megsim-perfbench --workload <ground-truth|warm-rig|batch> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Scratch space for generated inputs, inside the working directory.
const WORK_DIR: &str = ".perfbench-work";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e.to_string()))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("must be a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        inputs: workload.inputs(),
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir: PathBuf::from(WORK_DIR),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("megsim-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("megsim-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let defs = if opts.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!("{}", outcome.stamp.json(opts.workload.name(), opts.trace));
    for (m, def) in outcome.metrics.iter().zip(defs) {
        println!(
            "{:<34} {:>18.6} {:<8} ({} is better)",
            m.name, m.value, m.unit, def.better
        );
    }
    println!(
        "{}",
        report::result_json(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
