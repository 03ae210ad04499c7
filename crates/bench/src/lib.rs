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

/// Splice `"key": obj` into the JSON object stored at `path` and return
/// the new text: the top-level `key` block is replaced in place if
/// present, otherwise appended as the last key (a missing file starts
/// from an empty object). Every other block is kept verbatim, so bench
/// binaries that share one JSON file (`net_speed`, `coll_speed` and
/// `lb_speed` in `BENCH_net.json`) can each be re-run alone. Expects the
/// layout those binaries write: each top-level key starts a line at a
/// two-space indent, and nested lines are indented deeper.
pub fn merge_block(path: &str, key: &str, obj: &str) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_else(|_| "{}".to_string());
    splice_block(&text, key, obj).unwrap_or_else(|| panic!("{path} is not a JSON object"))
}

fn splice_block(text: &str, key: &str, obj: &str) -> Option<String> {
    let body = text.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut blocks: Vec<String> = Vec::new();
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        match blocks.last_mut() {
            Some(b) if !line.starts_with("  \"") => {
                b.push('\n');
                b.push_str(line);
            }
            _ => blocks.push(line.to_string()),
        }
    }
    let head = format!("  \"{key}\":");
    let named = format!("{head} {obj}");
    let mut out: Vec<&str> = blocks
        .iter()
        .map(|b| b.trim_end().trim_end_matches(','))
        .collect();
    match out.iter().position(|b| b.starts_with(&head)) {
        Some(i) => out[i] = &named,
        None => out.push(&named),
    }
    Some(format!("{{\n{}\n}}\n", out.join(",\n")))
}

#[cfg(test)]
mod tests {
    use super::{parse_out, splice_block};

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn splice_replaces_only_the_named_block() {
        let text =
            "{\n  \"a\": 1,\n  \"coll\": {\n    \"x\": [1, 2]\n  },\n  \"lb\": {\"z\": 2}\n}\n";
        // A block in the middle is replaced; the later `lb` key stays.
        assert_eq!(
            splice_block(text, "coll", "{\"x\": 9}").unwrap(),
            "{\n  \"a\": 1,\n  \"coll\": {\"x\": 9},\n  \"lb\": {\"z\": 2}\n}\n"
        );
        // Re-splicing the last block reproduces the file byte for byte.
        assert_eq!(splice_block(text, "lb", "{\"z\": 2}").unwrap(), text);
        assert_eq!(
            splice_block(text, "new", "3").unwrap(),
            "{\n  \"a\": 1,\n  \"coll\": {\n    \"x\": [1, 2]\n  },\n  \"lb\": {\"z\": 2},\n  \"new\": 3\n}\n"
        );
        assert_eq!(splice_block("{}", "k", "1").unwrap(), "{\n  \"k\": 1\n}\n");
        assert!(splice_block("[1]", "k", "1").is_none());
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
