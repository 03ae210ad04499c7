//! Regenerate the paper's evaluation figures.
//!
//! ```text
//! cargo run --release -p gaat-bench --bin figures -- [--fig all|6|7|7a|7b|7c|8|9|ablations|headline]
//!                                                    [--effort quick|standard|full]
//!                                                    [--out results]
//! ```
//!
//! Each figure is written as `results/figN.csv` and printed as an ASCII
//! table; Fig. 9 additionally prints the graph-execution speedups. The
//! `full` effort matches the paper's scale (512 nodes, 100 iterations,
//! 3 seeds) and takes a long time; `standard` (default) reproduces every
//! qualitative claim in minutes. `headline` (not part of `all`) runs the
//! 512-node Charm-D spot check at a fixed size whatever the effort. An
//! unknown flag or value exits with code 2.

use std::path::PathBuf;

use gaat_bench::harness::{print_table, write_csv};
use gaat_bench::{
    ablation, best_per_point, fig6, fig7a, fig7b, fig7c, fig8, fig9, headline, Effort,
};

/// Values `--fig` accepts; `7` selects 7a, 7b and 7c.
const FIGS: [&str; 10] = [
    "all",
    "6",
    "7",
    "7a",
    "7b",
    "7c",
    "8",
    "9",
    "ablations",
    "headline",
];
/// Values `--effort` accepts.
const EFFORTS: [&str; 3] = ["quick", "standard", "full"];

/// The `--fig` and `--effort` values (defaults `all` and `standard`),
/// checked against the lists above. `--out` is read by
/// [`gaat_bench::out_path`]; its value is skipped here.
fn parse_args(args: &[String]) -> Result<(String, String), String> {
    let (mut fig, mut effort) = ("all".to_string(), "standard".to_string());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let (value, valid): (&mut String, &[&str]) = match flag.as_str() {
            "--fig" => (&mut fig, &FIGS),
            "--effort" => (&mut effort, &EFFORTS),
            "--out" => {
                it.next();
                continue;
            }
            other => return Err(format!("unknown argument {other:?}")),
        };
        match it.next() {
            Some(v) if valid.contains(&v.as_str()) => *value = v.clone(),
            Some(v) => {
                return Err(format!(
                    "unknown {flag} value {v:?}; valid: {}",
                    valid.join(", ")
                ))
            }
            None => return Err(format!("{flag} needs one of: {}", valid.join(", "))),
        }
    }
    Ok((fig, effort))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = PathBuf::from(gaat_bench::out_path(&args, "results"));
    let (fig, effort_name) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    let effort = match effort_name.as_str() {
        "quick" => Effort::quick(),
        "full" => Effort::full(),
        _ => Effort::standard(),
    };

    println!(
        "effort={effort_name}: iters={} warmup={} max_nodes={} odfs={:?} seeds={:?}",
        effort.iters, effort.warmup, effort.max_nodes, effort.odfs, effort.seeds
    );
    println!("machine model: {:?}", gaat_rt::MachineConfig::summit(1));

    let want = |name: &str| {
        fig == name || (fig == "all" && name != "headline") || (fig == "7" && name.starts_with('7'))
    };

    if want("6") {
        let rows = fig6(&effort);
        write_csv(&out.join("fig6.csv"), &rows).expect("write fig6.csv");
        print_table(
            "Fig 6 — Charm-H host-staging, before vs after optimizations (6a weak 1536^3/node, 6b strong 3072^3)",
            &rows,
        );
    }
    if want("7a") {
        let rows = fig7a(&effort);
        write_csv(&out.join("fig7a.csv"), &rows).expect("write fig7a.csv");
        print_table("Fig 7a — weak scaling, 1536^3 per node (all ODFs)", &rows);
        print_table("Fig 7a — best ODF per point", &best_per_point(&rows));
    }
    if want("7b") {
        let rows = fig7b(&effort);
        write_csv(&out.join("fig7b.csv"), &rows).expect("write fig7b.csv");
        print_table("Fig 7b — weak scaling, 192^3 per node (all ODFs)", &rows);
        print_table("Fig 7b — best ODF per point", &best_per_point(&rows));
    }
    if want("7c") {
        let rows = fig7c(&effort);
        write_csv(&out.join("fig7c.csv"), &rows).expect("write fig7c.csv");
        print_table("Fig 7c — strong scaling, 3072^3 global (all ODFs)", &rows);
        print_table("Fig 7c — best ODF per point", &best_per_point(&rows));
    }
    if want("8") {
        let rows = fig8(&effort);
        write_csv(&out.join("fig8.csv"), &rows).expect("write fig8.csv");
        print_table("Fig 8 — kernel fusion on Charm-D, strong 768^3", &rows);
    }
    if want("9") {
        let rows = fig9(&effort);
        write_csv(&out.join("fig9.csv"), &rows).expect("write fig9.csv");
        print_table("Fig 9 — graph execution on Charm-D, strong 768^3", &rows);
        println!("\n=== Fig 9 — speedup from graphs (baseline / graphs) ===");
        for (series, nodes, speedup) in gaat_bench::figures::fig9_speedups(&rows) {
            println!("  {series:<22} {nodes:>4} nodes: {speedup:.2}x");
        }
    }
    if want("ablations") {
        let mut rows = Vec::new();
        rows.extend(ablation::comm_priority(&effort, 8.min(effort.max_nodes)));
        rows.extend(ablation::pipeline_threshold_sweep(&effort));
        rows.extend(ablation::ampi_virtualization(
            &effort,
            4.min(effort.max_nodes),
        ));
        write_csv(&out.join("ablations.csv"), &rows).expect("write ablations.csv");
        print_table("Ablations — stream priority & protocol threshold", &rows);

        let (ch, gm) = ablation::channel_vs_gpu_messaging(96 << 10, 20);
        println!("\n=== Ablation — Channel API vs GPU Messaging API (96 KiB device ping-pong) ===");
        println!("  Channel API       : {ch:.1} us/hop");
        println!(
            "  GPU Messaging API : {gm:.1} us/hop   ({:.2}x slower)",
            gm / ch
        );

        let (sync_us, async_us) = ablation::sync_vs_async_completion(4, 16, 50);
        println!("\n=== Ablation — Fig 4: completion detection (4 chares on one PE) ===");
        println!("  synchronous  : {sync_us:.1} us makespan");
        println!(
            "  asynchronous : {async_us:.1} us makespan ({:.2}x faster)",
            sync_us / async_us
        );
    }
    if want("headline") {
        let rows = headline();
        write_csv(&out.join("headline.csv"), &rows).expect("write headline.csv");
        print_table(
            "Headline — Charm-D strong scaling 3072^3 to 512 nodes (3,072 GPUs), 15 iterations",
            &rows,
        );
    }
    println!("\nCSV written under {}", out.display());
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn parse(a: &[&str]) -> Result<(String, String), String> {
        parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn fig_and_effort_take_known_names_or_fail() {
        let ok = |f: &str, e: &str| Ok((f.to_string(), e.to_string()));
        assert_eq!(parse(&[]), ok("all", "standard"));
        assert_eq!(
            parse(&["--fig", "headline", "--out", "/tmp/r", "--effort", "quick"]),
            ok("headline", "quick")
        );
        assert_eq!(parse(&["--fig", "7"]), ok("7", "standard"));
        let err = parse(&["--fig", "10"]).unwrap_err();
        assert!(err.contains("\"10\"") && err.contains("headline"), "{err}");
        assert!(parse(&["--fig"]).is_err());
        assert!(parse(&["--effort", "huge"]).is_err());
        assert!(parse(&["--figs", "6"]).is_err());
    }
}
