//! Sweep-engine benchmark: batch throughput, the world-reuse overhead
//! ablation, and the prefix-fork ablation, written to
//! `BENCH_sweep.json`.
//!
//! Four parts:
//!
//! - A sanity pin (exit code 1 on failure): a mixed grid swept at
//!   workers 1, 2, and 4 must produce identical per-scenario
//!   fingerprints, and those must match standalone one-off runs.
//! - `sweep`: scenarios/sec draining a Jacobi3D grid with world reuse
//!   on, plus the per-scenario wall/setup breakdown.
//! - `reuse_overhead`: the same grid with reuse off (a fresh engine
//!   allocation per scenario) vs on; reuse must cut mean per-scenario
//!   setup overhead by >= 25%. A miss is *flagged instead of failed*
//!   when the ThrottleGuard suspects host thermal throttling, since the
//!   comparison is then biased.
//! - `fork`: a fault-sweep-shaped grid (drop rate × onset axes that
//!   diverge late in the timeline) swept fork-off vs fork-on. The
//!   fingerprints must be identical (exit code 1 on mismatch — the
//!   fork cell's CI pin); throughput, each arm the median of three
//!   alternating sweeps, must be >= 2x (throttle-flagged, not failed,
//!   like the reuse cell).
//!
//! Usage: `sweep_speed [--smoke] [--out PATH]`

use gaat_jacobi3d::{CommMode, Dims, Placement};
use gaat_rt::MachineConfig;
use gaat_sim::{FaultPlan, SimDuration, SimTime};
use gaat_sweep::{run_standalone, run_sweep, ScenarioGrid, SweepOptions, SweepReport, Workload};

fn base_machine() -> MachineConfig {
    let mut machine = MachineConfig::validation(2, 2);
    machine.faults = FaultPlan {
        seed: 42,
        drop_prob: 0.0,
        ..FaultPlan::none()
    };
    machine.ucx.reliability.enabled = true;
    machine
}

/// The throughput grid: Jacobi3D over seeds × ODF × placement × loss.
fn throughput_grid(smoke: bool) -> ScenarioGrid {
    let mut grid = ScenarioGrid::new(base_machine());
    grid.workloads.push(Workload::Jacobi {
        global: Dims::cube(8),
        iters: 4,
        warmup: 1,
        comm: CommMode::HostStaging,
    });
    grid.seeds = (1..=if smoke { 8 } else { 128 }).collect();
    grid.odfs = vec![1, 2];
    grid.placements = vec![Placement::Packed, Placement::RoundRobin];
    grid.drop_rates = vec![0.0, 0.05];
    grid
}

/// Fingerprint agreement: workers {1, 2, 4} against each other, then
/// against standalone runs of every scenario. The full (non-smoke) run
/// does this on a >1000-scenario grid including a stalling retries-off
/// arm; smoke shrinks the seed axis.
fn sanity_pin(smoke: bool) -> (bool, bool, usize) {
    let mut grid = throughput_grid(smoke);
    if smoke {
        grid.seeds = vec![1, 2];
    }
    grid.retries = vec![true, false];
    grid.filter = Some(|sc| sc.retries || sc.drop_rate > 0.0);
    let scenarios = grid.expand();

    let mut opts = SweepOptions::new();
    let mut prints = Vec::new();
    for workers in [1, 2, 4] {
        opts.workers = workers;
        match run_sweep(&scenarios, &opts) {
            Ok(r) => prints.push(r.fingerprints()),
            Err(_) => return (false, false, scenarios.len()),
        }
    }
    let workers_match = prints[1] == prints[0] && prints[2] == prints[0];
    let standalone_match = scenarios
        .iter()
        .zip(&prints[0])
        .all(|(sc, fp)| run_standalone(sc).fingerprint() == *fp);
    (workers_match, standalone_match, scenarios.len())
}

/// The fork ablation grid: scenarios within a machine seed differ only
/// in drop rate and fault onset, with onsets deep into the ~1.39 ms
/// timeline (83%+ shared prefix), so one executed prefix serves eight
/// branches. This is the fault-sweep shape the tentpole targets.
fn fork_grid(smoke: bool) -> ScenarioGrid {
    let t = |us: u64| SimTime::ZERO + SimDuration::from_us(us);
    let mut grid = ScenarioGrid::new(base_machine());
    grid.workloads.push(Workload::Jacobi {
        global: Dims::cube(8),
        iters: 8,
        warmup: 1,
        comm: CommMode::HostStaging,
    });
    grid.seeds = (1..=if smoke { 2 } else { 8 }).collect();
    grid.odfs = vec![2];
    grid.drop_rates = vec![0.0, 0.02, 0.05, 0.10];
    grid.fault_onsets = vec![t(1150), t(1300)];
    grid
}

struct ForkCell {
    scenarios: usize,
    groups: usize,
    snapshots: usize,
    forked: usize,
    declined: usize,
    snapshot_ns: u64,
    restore_ns: u64,
    nofork_per_sec: f64,
    fork_per_sec: f64,
    speedup: f64,
    fingerprints_match: bool,
}

/// Sweeps per arm of the fork ablation. The arms alternate, so a slow
/// spell of the host lands on both, and each arm is timed by its median
/// sweep.
const FORK_REPS: usize = 3;

/// Sweep the fork grid with prefix memoization off, then on,
/// `FORK_REPS` times, comparing fingerprints and median throughput.
fn fork_ablation(smoke: bool) -> ForkCell {
    let scenarios = fork_grid(smoke).expand();
    let mut opts = SweepOptions::new();
    let mut walls = [Vec::new(), Vec::new()];
    let mut runs: Vec<SweepReport> = Vec::new();
    for _ in 0..FORK_REPS {
        for (arm, fork) in [false, true].into_iter().enumerate() {
            opts.fork = fork;
            let report = run_sweep(&scenarios, &opts).expect("no sweep I/O configured");
            walls[arm].push(report.wall.as_secs_f64());
            runs.push(report);
        }
    }
    let median = |w: &mut Vec<f64>| {
        w.sort_by(f64::total_cmp);
        w[w.len() / 2]
    };
    let nofork_per_sec = scenarios.len() as f64 / median(&mut walls[0]);
    let fork_per_sec = scenarios.len() as f64 / median(&mut walls[1]);
    let nofork = &runs[0];
    let fork = &runs[1];
    let fingerprints_match = runs
        .iter()
        .all(|r| r.fingerprints() == nofork.fingerprints());
    ForkCell {
        scenarios: scenarios.len(),
        groups: fork.fork.groups,
        snapshots: fork.fork.snapshots_taken,
        forked: fork.fork.scenarios_forked,
        declined: fork.fork.declined,
        snapshot_ns: fork.fork.snapshot_ns / fork.fork.snapshots_taken.max(1) as u64,
        restore_ns: fork.fork.restore_ns / fork.fork.scenarios_forked.max(1) as u64,
        nofork_per_sec,
        fork_per_sec,
        speedup: fork_per_sec / nofork_per_sec,
        fingerprints_match,
    }
}

struct SweepNumbers {
    scenarios: usize,
    workers: usize,
    wall_s: f64,
    per_sec: f64,
    mean_wall_ns: f64,
    mean_setup_ns: f64,
    reused: u64,
}

fn numbers(report: &SweepReport) -> SweepNumbers {
    let n = report.records.len();
    SweepNumbers {
        scenarios: n,
        workers: report.workers,
        wall_s: report.wall.as_secs_f64(),
        per_sec: n as f64 / report.wall.as_secs_f64(),
        mean_wall_ns: report.records.iter().map(|r| r.wall_ns as f64).sum::<f64>() / n as f64,
        mean_setup_ns: report
            .records
            .iter()
            .map(|r| r.setup_ns as f64)
            .sum::<f64>()
            / n as f64,
        reused: report.slots.reused,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = gaat_bench::out_path(&args, "BENCH_sweep.json");

    let mut guard = gaat_bench::throttle::ThrottleGuard::open(if smoke { 2 } else { 5 });

    let (pin_workers, pin_standalone, pin_scenarios) = sanity_pin(smoke);
    let pin_pass = pin_workers && pin_standalone;

    let scenarios = throughput_grid(smoke).expand();
    let mut opts = SweepOptions::new();
    let reuse = numbers(&run_sweep(&scenarios, &opts).expect("no sweep I/O configured"));
    opts.reuse_worlds = false;
    let fresh = numbers(&run_sweep(&scenarios, &opts).expect("no sweep I/O configured"));
    let fork = fork_ablation(smoke);
    guard.close();

    // How much of the per-scenario setup cost (engine allocation +
    // machine + application construction) world reuse removes.
    let reduction = 1.0 - reuse.mean_setup_ns / fresh.mean_setup_ns;
    let target = 0.25;
    let reuse_pass = reduction >= target;
    let flagged = !reuse_pass && guard.throttle_suspected();

    let fork_target = 2.0;
    let fork_speed_pass = fork.speedup >= fork_target;
    let fork_flagged = !fork_speed_pass && guard.throttle_suspected();
    let fork_pass = fork.fingerprints_match && fork_speed_pass;

    let mut obj = String::new();
    obj.push_str("{\n");
    obj.push_str(&format!("  \"smoke\": {smoke},\n"));
    obj.push_str(&format!(
        "  \"sanity_pin\": {{\"scenarios\": {pin_scenarios}, \"workers_match\": {pin_workers}, \"standalone_match\": {pin_standalone}, \"pass\": {pin_pass}}},\n"
    ));
    obj.push_str(&format!(
        "  \"sweep\": {{\"scenarios\": {}, \"workers\": {}, \"wall_s\": {:.6}, \"scenarios_per_sec\": {:.1}, \"mean_wall_ns\": {:.0}, \"mean_setup_ns\": {:.0}, \"worlds_reused\": {}}},\n",
        reuse.scenarios,
        reuse.workers,
        reuse.wall_s,
        reuse.per_sec,
        reuse.mean_wall_ns,
        reuse.mean_setup_ns,
        reuse.reused
    ));
    obj.push_str(&format!(
        "  \"reuse_overhead\": {{\"fresh_setup_ns\": {:.0}, \"reuse_setup_ns\": {:.0}, \"fresh_scenarios_per_sec\": {:.1}, \"reduction\": {:.3}, \"target\": {target}, \"pass\": {reuse_pass}, \"flagged\": {flagged}}},\n",
        fresh.mean_setup_ns, reuse.mean_setup_ns, fresh.per_sec, reduction
    ));
    obj.push_str(&format!(
        "  \"fork\": {{\"scenarios\": {}, \"groups\": {}, \"snapshots\": {}, \"forked\": {}, \"declined\": {}, \"snapshot_ns\": {}, \"restore_ns\": {}, \"nofork_scenarios_per_sec\": {:.1}, \"fork_scenarios_per_sec\": {:.1}, \"speedup\": {:.2}, \"fingerprints_match\": {}, \"target\": {fork_target}, \"pass\": {fork_pass}, \"flagged\": {fork_flagged}}},\n",
        fork.scenarios,
        fork.groups,
        fork.snapshots,
        fork.forked,
        fork.declined,
        fork.snapshot_ns,
        fork.restore_ns,
        fork.nofork_per_sec,
        fork.fork_per_sec,
        fork.speedup,
        fork.fingerprints_match,
    ));
    obj.push_str(&format!(
        "  \"steady_state\": {}\n}}\n",
        guard.json_object()
    ));

    println!(
        "sanity_pin     {} scenarios: workers {} standalone {}  {}",
        pin_scenarios,
        pin_workers,
        pin_standalone,
        if pin_pass { "OK" } else { "FAIL" }
    );
    println!(
        "sweep          {} scenarios on {} workers in {:.2}s  ({:.0} scenarios/sec, {} worlds recycled)",
        reuse.scenarios, reuse.workers, reuse.wall_s, reuse.per_sec, reuse.reused
    );
    println!(
        "setup          fresh {:.1} us/scenario  reuse {:.1} us/scenario  reduction {:.0}%  {}",
        fresh.mean_setup_ns / 1e3,
        reuse.mean_setup_ns / 1e3,
        reduction * 100.0,
        if reuse_pass {
            "OK"
        } else if flagged {
            "FLAGGED (throttle suspected)"
        } else {
            "FAIL"
        }
    );
    println!(
        "fork           {} scenarios, {} groups: {:.0} -> {:.0} scenarios/sec ({:.2}x, fingerprints {})  {}",
        fork.scenarios,
        fork.groups,
        fork.nofork_per_sec,
        fork.fork_per_sec,
        fork.speedup,
        if fork.fingerprints_match {
            "match"
        } else {
            "DIFFER"
        },
        if fork_pass {
            "OK"
        } else if fork_flagged {
            "FLAGGED (throttle suspected)"
        } else {
            "FAIL"
        }
    );
    println!(
        "steady-state drift {:.3}x{}",
        guard.slowdown_ratio(),
        if guard.throttle_suspected() {
            "  ** thermal throttle suspected — numbers are biased **"
        } else {
            ""
        }
    );
    std::fs::write(&out, obj).expect("write BENCH_sweep.json");
    println!("wrote {out}");
    if !pin_pass {
        eprintln!("sanity pin failed: sweep outcomes depend on worker count or differ from standalone runs");
        std::process::exit(1);
    }
    if !reuse_pass && !flagged {
        eprintln!(
            "reuse overhead check failed: {:.0}% reduction < {:.0}% target",
            reduction * 100.0,
            target * 100.0
        );
        std::process::exit(1);
    }
    // Fingerprint equality is a correctness pin, never throttle-excused;
    // the throughput half of the fork cell follows the reuse cell's
    // flagged-not-failed rule.
    if !fork.fingerprints_match {
        eprintln!("fork cell failed: forked sweep fingerprints differ from the unforked sweep");
        std::process::exit(1);
    }
    if !fork_speed_pass && !fork_flagged {
        eprintln!(
            "fork speedup check failed: {:.2}x < {fork_target:.1}x target",
            fork.speedup
        );
        std::process::exit(1);
    }
}
