//! # gaat-bench — figure-regeneration harness
//!
//! One function per figure of the paper's evaluation (Figs. 6–9), each
//! returning tabular rows that the `figures` binary renders as CSV and
//! ASCII tables and that the workspace integration tests assert shape
//! properties on.
//!
//! All runs are deterministic given their seeds; the paper's
//! three-trial averages map to three RNG seeds.

#![warn(missing_docs)]

pub mod ablation;
pub mod figures;
pub mod harness;
pub mod protocols;
pub mod throttle;

pub use figures::{fig6, fig7a, fig7b, fig7c, fig8, fig9, headline, weak_dims};
pub use harness::{best_per_point, Effort, Row, Variant};

/// Value of a bench binary's `--out PATH` flag, or `default` when the
/// flag is absent. A flag with no value, or whose value looks like
/// another flag (`--out --smoke`), prints an error and exits with code
/// 2: falling back would overwrite the committed JSON with whatever this
/// run measured.
pub fn out_path(args: &[String], default: &str) -> String {
    parse_out(args, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

fn parse_out(args: &[String], default: &str) -> Result<String, String> {
    let Some(i) = args.iter().position(|a| a == "--out") else {
        return Ok(default.to_string());
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(v.clone()),
        Some(v) => Err(format!("--out needs a path, got the flag {v:?}")),
        None => Err("--out needs a path".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_out;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn out_flag_takes_a_path_or_fails() {
        let d = "BENCH.json";
        assert_eq!(parse_out(&args(&["bin"]), d).unwrap(), d);
        assert_eq!(parse_out(&args(&["bin", "--smoke"]), d).unwrap(), d);
        assert_eq!(
            parse_out(&args(&["bin", "--out", "/tmp/b.json", "--smoke"]), d).unwrap(),
            "/tmp/b.json"
        );
        assert!(parse_out(&args(&["bin", "--smoke", "--out"]), d).is_err());
        assert!(parse_out(&args(&["bin", "--out", "--smoke"]), d).is_err());
    }
}
