//! The gaat benchmark: one command that runs a workload through the
//! workspace's public API, checks its outputs, and prints every metric
//! by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload strong_charmd_512 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer ones
//! and the run also writes its host-time spans to
//! `perfbench/out/spans-<workload>-seed<n>.json`. `--smoke` shrinks every
//! workload for the self-test. See `perfbench/README.md` for the
//! workloads and the layer map.

mod charm;
mod report;
mod spans;
mod sweep;
mod world;

use std::process::ExitCode;

use report::{result_line, Tally, END_TO_END, PER_LAYER};
use spans::Spans;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StrongCharmd512,
    WeakFattreeCharmh64,
    SweepFaults,
}

impl Workload {
    const ALL: [(Workload, &'static str); 3] = [
        (Workload::StrongCharmd512, "strong_charmd_512"),
        (Workload::WeakFattreeCharmh64, "weak_fattree_charmh_64"),
        (Workload::SweepFaults, "sweep_faults"),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|w| w.0 == self)
            .expect("every workload is listed")
            .1
    }
}

/// Checked command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Args {
    /// Repetitions a run makes even when they outlast `seconds`: enough
    /// for a median, or one untraced + traced pair in a traced run.
    pub fn min_reps(&self) -> usize {
        match (self.trace, self.smoke) {
            (true, _) => 1,
            (false, true) => 2,
            (false, false) => 3,
        }
    }
}

const USAGE: &str = "usage: perfbench --workload <strong_charmd_512|weak_fattree_charmh_64|\
                     sweep_faults> --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {val:?}");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.iter().find(|w| w.1 == val);
                workload = Some(w.ok_or_else(|| bad("unknown workload"))?.0);
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Peak resident set of this process so far, from `/proc`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output of a short command, or `"unknown"`.
fn command_output(cmd: &mut std::process::Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were measured; numbers are only
/// comparable between runs with the same host block.
fn host_block(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    // The commit of the checkout the benchmark was built from; git must
    // not look above it (a copied checkout has no `.git`).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a subdirectory of the repository");
    let mut git = std::process::Command::new("git");
    git.arg("-C").arg(root).args(["rev-parse", "HEAD"]);
    if let Some(above) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    let mut rustc = std::process::Command::new(rustc);
    rustc.arg("--version");
    format!(
        "\"nproc\": {nproc}, \"cpu\": {}, \"commit\": {}, \"rustc\": {}, \"size\": {}",
        report::json_str(&cpu),
        report::json_str(&command_output(&mut git)),
        report::json_str(&command_output(&mut rustc)),
        report::json_str(if args.smoke { "smoke" } else { "full" }),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let header = format!(
        "\"workload\": {}, \"seed\": {}, \"trace\": {}, \"host\": {{{}}}",
        report::json_str(args.workload.name()),
        args.seed,
        args.trace,
        host_block(&args)
    );
    println!("{{{header}}}");

    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let root = spans.open("workload");
    let values = match args.workload {
        Workload::StrongCharmd512 | Workload::WeakFattreeCharmh64 => {
            charm::run(&args, &mut spans, &mut tally)
        }
        Workload::SweepFaults => sweep::run(&args, &mut spans, &mut tally),
    };
    spans.close(root);

    if args.trace {
        eprintln!("perfbench: host self time by span");
        for (name, count, self_s) in spans.self_times() {
            eprintln!("  {name:<26} {count:>6} {self_s:>10.4} s");
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "spans-{}-seed{}.json",
                args.workload.name(),
                args.seed
            ));
        if let Err(e) = spans.write(&path, &header) {
            tally.error(format!("writing {}: {e}", path.display()));
        }
    }
    let specs = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", result_line(&tally, specs, &values));
    ExitCode::SUCCESS
}
