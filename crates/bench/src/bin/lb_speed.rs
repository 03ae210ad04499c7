//! Adaptive load-balancer benchmark + CI gate, tracked from PR 10.
//!
//! The headline robustness experiment: a Jacobi3D run on a two-node
//! fat-tree machine where one GPU straggles (4x throttle) and the
//! hottest inter-node link degrades to quarter capacity. Four cells,
//! spliced into `BENCH_net.json` under `"lb_speed"`:
//!
//! - `fault_free`: no faults, balancer off — the ideal makespan.
//! - `static`: faults on, balancer off — what the faults cost a
//!   placement frozen at startup.
//! - `greedy`: faults on, sensor-blind greedy policy — the ablation
//!   (it cannot see stragglers or link heat, so it has little to act on).
//! - `adaptive`: faults on, closed-loop policy — EWMA load meters,
//!   straggler factors, and fabric distress feed the periodic planner.
//!
//! The degraded link is self-calibrated: the fault-free probe run
//! reports its hottest link, and that is the one the fault plan
//! degrades.
//!
//! Sanity pin (exit code 1 on failure):
//!
//! - the adaptive run recovers at least 20% of the static-vs-fault-free
//!   makespan gap;
//! - a small real-buffer trio of the same scenario shape (the headline
//!   cells run phantom buffers for speed) checksums bit-identically
//!   across fault-free / static / adaptive, with at least one
//!   migration applied (rollbacks must not perturb the math);
//! - the adaptive cell replays bit-identically (same seed, two runs);
//! - a sweep of the {off, adaptive} policy pair fingerprints
//!   identically at pool workers 1, 2, and 4.
//!
//! Wall-clock numbers (host-side plan/apply latency) are flagged, not
//! failed, when the ThrottleGuard suspects host thermal throttling;
//! the pins above are all virtual-time or bit-equality checks and are
//! never excused.
//!
//! Usage: `lb_speed [--smoke] [--out PATH]`

use std::time::Instant;

use gaat_jacobi3d::{charm, CommMode, Dims, JacobiConfig};
use gaat_rt::{LbPolicy, LbStats, MachineConfig};
use gaat_sim::{FaultPlan, LinkFault, LinkFaultKind, SimDuration, SimTime, StragglerWindow};
use gaat_sweep::{run_sweep, ScenarioGrid, SweepOptions, Workload};

/// The GPU that straggles in the faulted cells.
const STRAGGLER_DEVICE: usize = 2;
/// Its duration multiplier while the window is open.
const STRAGGLER_SLOWDOWN: f64 = 4.0;
/// Capacity factor for the degraded link.
const LINK_DEGRADE: f64 = 0.25;
/// Minimum fraction of the static-vs-fault-free gap the adaptive run
/// must claw back.
const MIN_RECOVERY: f64 = 0.20;

struct Cell {
    name: &'static str,
    total_ns: u64,
    checksum: Option<f64>,
    entries: u64,
    lb: LbStats,
    wall_s: f64,
}

/// The machine every cell shares: two fat-tree nodes, jitter off for
/// comparable cells, reliable transport on (the balancer migrates over
/// it, and the transport must be identical across cells).
fn base_machine() -> MachineConfig {
    let mut machine = MachineConfig::summit_fattree(2);
    machine.net.jitter = 0.0;
    machine.ucx.reliability.enabled = true;
    machine
}

/// The fault plan for the degraded cells: one throttled GPU for the
/// whole run plus the (probed) hottest link at quarter capacity.
fn fault_plan(hot_link: Option<u32>) -> FaultPlan {
    let mut faults = FaultPlan::none();
    faults.stragglers.push(StragglerWindow {
        device: STRAGGLER_DEVICE,
        from: SimTime::ZERO,
        until: SimTime::ZERO + SimDuration::from_ms(60_000),
        slowdown: STRAGGLER_SLOWDOWN,
    });
    if let Some(link) = hot_link {
        faults.link_faults.push(LinkFault {
            at: SimTime::ZERO,
            link,
            kind: LinkFaultKind::Degrade(LINK_DEGRADE),
        });
    }
    faults
}

fn config(faults: FaultPlan, policy: LbPolicy, period: SimDuration, smoke: bool) -> JacobiConfig {
    let mut machine = base_machine();
    machine.faults = faults;
    machine.lb.policy = policy;
    machine.lb.period = period;
    // Each applied plan is a global rollback, so demand a sizeable
    // projected win before paying for one.
    machine.lb.hysteresis_pct = 15;
    machine.lb.budget = 2;
    let mut cfg = JacobiConfig::new(machine, Dims::cube(192));
    cfg.comm = CommMode::HostStaging;
    cfg.odf = 2;
    cfg.iters = if smoke { 12 } else { 16 };
    cfg.warmup = 2;
    if cfg.machine.lb.enabled() {
        cfg.checkpoint_every = 1;
    }
    cfg
}

fn run_cell(name: &'static str, cfg: JacobiConfig) -> (Cell, Option<u32>) {
    let (mut sim, ids, sh) = charm::build(cfg);
    let start = Instant::now();
    let r = charm::run(&mut sim, &ids, &sh);
    let wall_s = start.elapsed().as_secs_f64();
    let hot = sim.machine.fabric.stats().hottest_link.map(|l| l.0);
    (
        Cell {
            name,
            total_ns: r.total.as_ns(),
            checksum: r.checksum,
            entries: r.entries,
            lb: sim.machine.lb_stats(),
            wall_s,
        },
        hot,
    )
}

/// Solution-correctness pin: a small real-buffer instance of the same
/// scenario shape (throttled GPU + degraded link), run fault-free,
/// static, and adaptive. The headline cells run phantom buffers for
/// speed, so this trio is where actual field data flows through the
/// migration rollbacks — all three final-field checksums must be
/// bit-equal, and the adaptive run must actually migrate (otherwise
/// the pin would not be exercising the rollback path at all).
fn solutions_identical(hot_link: Option<u32>) -> bool {
    let run = |faults: FaultPlan, policy: LbPolicy, period: SimDuration| {
        let mut machine = base_machine();
        machine.real_buffers = true;
        machine.faults = faults;
        machine.lb.policy = policy;
        machine.lb.period = period;
        machine.lb.hysteresis_pct = 15;
        machine.lb.budget = 2;
        let mut cfg = JacobiConfig::new(machine, Dims::cube(48));
        cfg.comm = CommMode::HostStaging;
        cfg.odf = 2;
        cfg.iters = 6;
        cfg.warmup = 1;
        if cfg.machine.lb.enabled() {
            cfg.checkpoint_every = 1;
        }
        let (mut sim, ids, sh) = charm::build(cfg);
        let r = charm::run(&mut sim, &ids, &sh);
        (
            r.checksum.expect("real buffers yield a checksum"),
            sim.machine.lb_stats().migrations,
        )
    };
    let (ideal, _) = run(FaultPlan::none(), LbPolicy::Off, SimDuration::ZERO);
    let period = SimDuration::from_us(200);
    let (frozen, _) = run(fault_plan(hot_link), LbPolicy::Off, SimDuration::ZERO);
    let (balanced, migrations) = run(fault_plan(hot_link), LbPolicy::Adaptive, period);
    frozen == ideal && balanced == ideal && migrations > 0
}

/// Pool-worker determinism: the degraded scenario under {off, adaptive}
/// policies swept at 1, 2, and 4 workers must fingerprint identically.
fn workers_match(hot_link: Option<u32>, period: SimDuration, smoke: bool) -> bool {
    let mut machine = base_machine();
    machine.faults = fault_plan(hot_link);
    machine.lb.period = period;
    let mut grid = ScenarioGrid::new(machine);
    grid.workloads.push(Workload::Jacobi {
        global: Dims::cube(192),
        iters: if smoke { 12 } else { 16 },
        warmup: 2,
        comm: CommMode::HostStaging,
    });
    grid.odfs = vec![2];
    grid.lb_policies = vec![LbPolicy::Off, LbPolicy::Adaptive];
    let scenarios = grid.expand();
    let mut opts = SweepOptions::new();
    let mut prints = Vec::new();
    for workers in [1, 2, 4] {
        opts.workers = workers;
        let rep = run_sweep(&scenarios, &opts).expect("no sweep I/O configured");
        prints.push(rep.fingerprints());
    }
    prints[1] == prints[0] && prints[2] == prints[0]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = gaat_bench::out_path(&args, "BENCH_net.json");

    let mut guard = gaat_bench::throttle::ThrottleGuard::open(if smoke { 2 } else { 5 });

    // Probe: the fault-free run yields the ideal makespan, the LB tick
    // period (about one tick per iteration), and the hottest link for
    // the degradation fault — all virtual-time quantities, so the
    // calibration is deterministic.
    let (fault_free, hot_link) = run_cell(
        "fault_free",
        config(FaultPlan::none(), LbPolicy::Off, SimDuration::ZERO, smoke),
    );
    let iters = if smoke { 12 } else { 16 };
    let period = SimDuration::from_ns(fault_free.total_ns / iters);

    let (static_cell, _) = run_cell(
        "static",
        config(
            fault_plan(hot_link),
            LbPolicy::Off,
            SimDuration::ZERO,
            smoke,
        ),
    );
    let (greedy, _) = run_cell(
        "greedy",
        config(fault_plan(hot_link), LbPolicy::Greedy, period, smoke),
    );
    let (adaptive, _) = run_cell(
        "adaptive",
        config(fault_plan(hot_link), LbPolicy::Adaptive, period, smoke),
    );
    // Replay pin: the closed loop is a pure function of the seed.
    let (replay, _) = run_cell(
        "adaptive",
        config(fault_plan(hot_link), LbPolicy::Adaptive, period, smoke),
    );
    let replay_identical = replay.total_ns == adaptive.total_ns
        && replay.checksum == adaptive.checksum
        && replay.entries == adaptive.entries
        && replay.lb.migrations == adaptive.lb.migrations;

    let solutions_identical = solutions_identical(hot_link);

    let gap = static_cell.total_ns.saturating_sub(fault_free.total_ns) as f64;
    let recovered = static_cell.total_ns.saturating_sub(adaptive.total_ns) as f64;
    let recovery = if gap > 0.0 { recovered / gap } else { 0.0 };

    let pool_match = workers_match(hot_link, period, smoke);
    guard.close();

    let pass = recovery >= MIN_RECOVERY && replay_identical && solutions_identical && pool_match;

    let cells = [&fault_free, &static_cell, &greedy, &adaptive];
    let mut obj = String::new();
    obj.push_str("{\n");
    obj.push_str(&format!("    \"smoke\": {smoke},\n"));
    obj.push_str(&format!(
        "    \"scenario\": {{\"straggler_device\": {STRAGGLER_DEVICE}, \"straggler_slowdown\": {STRAGGLER_SLOWDOWN}, \"degraded_link\": {}, \"link_capacity_factor\": {LINK_DEGRADE}, \"lb_period_ns\": {}}},\n",
        hot_link.map(|l| l.to_string()).unwrap_or_else(|| "null".to_string()),
        period.as_ns(),
    ));
    obj.push_str("    \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        obj.push_str(&format!(
            "      {{\"name\": \"{}\", \"total_ns\": {}, \"checksum\": {}, \"entries\": {}, \"lb_rounds\": {}, \"lb_applied\": {}, \"migrations\": {}, \"plan_us_per_round\": {:.2}, \"apply_us_per_round\": {:.2}, \"wall_s\": {:.6}}}{}\n",
            c.name,
            c.total_ns,
            c.checksum.map(|x| format!("{x}")).unwrap_or_else(|| "null".to_string()),
            c.entries,
            c.lb.rounds,
            c.lb.applied,
            c.lb.migrations,
            c.lb.plan_host_ns as f64 / 1e3 / c.lb.rounds.max(1) as f64,
            c.lb.apply_host_ns as f64 / 1e3 / c.lb.applied.max(1) as f64,
            c.wall_s,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    obj.push_str("    ],\n");
    obj.push_str(&format!(
        "    \"sanity_pin\": {{\"recovery\": {recovery:.3}, \"min_recovery\": {MIN_RECOVERY}, \"replay_identical\": {replay_identical}, \"solutions_identical\": {solutions_identical}, \"workers_match\": {pool_match}, \"pass\": {pass}}},\n",
    ));
    obj.push_str(&format!("    \"steady_state\": {}\n", guard.json_object()));
    obj.push_str("  }");

    for c in &cells {
        println!(
            "{:<11} total {:>12} ns  lb {:>2} rounds / {:>2} applied / {:>2} migrations  plan {:>6.1} us/round",
            c.name,
            c.total_ns,
            c.lb.rounds,
            c.lb.applied,
            c.lb.migrations,
            c.lb.plan_host_ns as f64 / 1e3 / c.lb.rounds.max(1) as f64,
        );
    }
    println!(
        "recovery     {:.1}% of the static-vs-fault-free gap (gap {} ns, clawed back {} ns; floor {:.0}%)",
        100.0 * recovery,
        gap as u64,
        recovered as u64,
        100.0 * MIN_RECOVERY,
    );
    println!(
        "pins         replay_identical={replay_identical} solutions_identical={solutions_identical} workers_match={pool_match}"
    );
    if guard.throttle_suspected() {
        println!(
            "steady-state drift {:.3}x  ** thermal throttle suspected — wall-clock latencies are biased (virtual-time pins unaffected) **",
            guard.slowdown_ratio()
        );
    }

    let json = gaat_bench::merge_block(&out, "lb_speed", &obj);
    std::fs::write(&out, json).expect("write BENCH JSON");
    println!("wrote {out}");
    if !pass {
        eprintln!(
            "lb_speed sanity pin failed: recovery {:.3} (need >= {MIN_RECOVERY}), replay {replay_identical}, solutions {solutions_identical}, workers {pool_match}",
            recovery
        );
        std::process::exit(1);
    }
}
