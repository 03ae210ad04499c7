//! The `sweep_faults` workload: a grid of short real-buffer worlds with
//! message loss and the reliable transport on, drained by the sweep
//! pool with world reuse and prefix forking.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gaat_jacobi3d::{charm, CommMode, Dims, Reference};
use gaat_rt::{MachineConfig, Simulation};
use gaat_sim::{FaultPlan, SimDuration, SimTime};
use gaat_sweep::{run_sweep, Scenario, ScenarioGrid, ScenarioRecord, SweepOptions, Workload};

use crate::report::{median, quantile, ratio, Tally, Values};
use crate::spans::Spans;
use crate::world;
use crate::Args;

const GRID: usize = 24;
const JACOBI_ITERS: (usize, usize) = (1, 9);
const SWEEP3D_SWEEPS: (usize, usize) = (2, 8);
const TRAIN_PARAMS: usize = 64 * 1024;
const TRAIN_STEPS: usize = 4;
const DROP_RATES: [f64; 3] = [0.0, 0.01, 0.05];
/// Loss arms here: before the shortest fault-free makespan of the grid,
/// so every lossy cell sees drops (checked by the dead-axis guard), and
/// late enough that the prefix before it is worth forking.
const FAULT_ONSET_US: u64 = 50;
/// Sweep pool threads: one, so the drain does not contend with itself
/// for the cores of a small host.
const WORKERS: usize = 1;

/// Seeds per grid: each seeds both the machine and the fault plan.
fn seeds(args: &Args) -> Vec<u64> {
    let n: u64 = if args.smoke { 2 } else { 16 };
    (1..=n).map(|i| args.seed * 1000 + i).collect()
}

fn grid(args: &Args, traced: bool) -> ScenarioGrid {
    let mut machine = MachineConfig::validation(2, 2);
    machine.seed = args.seed;
    machine.trace = traced;
    machine.faults = FaultPlan {
        seed: args.seed,
        ..FaultPlan::none()
    };
    machine.ucx.reliability.enabled = true;
    let global = Dims::cube(GRID);
    let jacobi = |comm| Workload::Jacobi {
        global,
        warmup: JACOBI_ITERS.0,
        iters: JACOBI_ITERS.1,
        comm,
    };
    let mut g = ScenarioGrid::new(machine);
    g.workloads = vec![
        jacobi(CommMode::GpuAware),
        jacobi(CommMode::HostStaging),
        Workload::Sweep3d {
            global,
            warmup: SWEEP3D_SWEEPS.0,
            sweeps: SWEEP3D_SWEEPS.1,
        },
        Workload::Train {
            params: TRAIN_PARAMS,
            steps: TRAIN_STEPS,
        },
    ];
    // One seed axis feeds both the machine seed (jitter salt) and the
    // fault seed (which messages drop): the grid crosses the two axes
    // and the filter keeps the diagonal.
    let s = seeds(args);
    g.seeds = s.clone();
    g.fault_seeds = s;
    g.filter = Some(|sc| sc.seed == sc.fault_seed);
    g.odfs = vec![1, 4];
    g.drop_rates = DROP_RATES.to_vec();
    g.fault_onsets = vec![SimTime::ZERO + SimDuration::from_us(FAULT_ONSET_US)];
    g
}

/// A Jacobi scenario's grid and total iteration count: what its final
/// field, and so its checksum, depends on.
type JacobiKey = (usize, usize, usize, usize);

fn jacobi_key(sc: &Scenario) -> Option<JacobiKey> {
    match sc.workload {
        Workload::Jacobi {
            global,
            iters,
            warmup,
            ..
        } => Some((global.x, global.y, global.z, iters + warmup)),
        _ => None,
    }
}

/// The sequential reference's squared norm for every Jacobi workload.
fn reference_norms(scenarios: &[Scenario]) -> BTreeMap<JacobiKey, u64> {
    let mut out = BTreeMap::new();
    for key in scenarios.iter().filter_map(jacobi_key) {
        out.entry(key).or_insert_with(|| {
            let (x, y, z, iters) = key;
            let mut r = Reference::new(Dims::new(x, y, z));
            r.run(iters);
            r.norm2().to_bits()
        });
    }
    out
}

/// The simulated outcome of a record: everything but wall-clock fields.
fn outcome(r: &ScenarioRecord) -> [u64; 12] {
    [
        r.ok as u64,
        r.stalled,
        r.makespan_ns,
        r.unit_ns,
        r.checksum.map_or(0, f64::to_bits),
        r.entries,
        r.net_messages,
        r.net_bytes,
        r.net_drops,
        r.net_retransmits,
        r.ucx_retransmits,
        r.ucx_timeouts,
    ]
}

struct SweepRep {
    run_s: f64,
    setup_s: f64,
    report: gaat_sweep::SweepReport,
}

fn sweep_rep(args: &Args, traced: bool, spans: &mut Spans) -> Option<SweepRep> {
    let span = spans.open(if traced { "rep.traced" } else { "rep" });
    let out = catch_unwind(AssertUnwindSafe(|| {
        let (scenarios, _) = spans.time("ScenarioGrid::expand", || grid(args, traced).expand());
        let mut opts = SweepOptions::new();
        opts.workers = WORKERS;
        let (report, run_s) = spans.time("run_sweep", || run_sweep(&scenarios, &opts));
        let report = report.expect("no output files, so nothing to fail writing");
        let setup_s = report.records.iter().map(|r| r.setup_ns).sum::<u64>() as f64 / 1e9;
        SweepRep {
            run_s,
            setup_s,
            report,
        }
    }));
    spans.close(span);
    out.ok()
}

/// Check one sweep against the references and the first sweep: every
/// scenario must finish, every Jacobi checksum must be bit-equal to the
/// sequential reference, and every simulated outcome must repeat.
fn check_sweep(
    rep: &SweepRep,
    scenarios: &[Scenario],
    norms: &BTreeMap<JacobiKey, u64>,
    first: &mut Option<Vec<[u64; 12]>>,
    tally: &mut Tally,
) -> u64 {
    let mut mismatches = 0;
    let outs: Vec<[u64; 12]> = rep.report.records.iter().map(outcome).collect();
    for (i, (r, sc)) in rep.report.records.iter().zip(scenarios).enumerate() {
        let want = jacobi_key(sc).map(|k| norms[&k]);
        let sum_ok = want.is_none_or(|w| r.checksum.map(f64::to_bits) == Some(w));
        if !sum_ok {
            mismatches += 1;
        }
        let same = first.as_ref().is_none_or(|f| f[i] == outs[i]);
        tally.attempt(r.ok && sum_ok && same, || {
            format!(
                "{}: ok={} checksum_matches={sum_ok} repeats={same}",
                r.label, r.ok
            )
        });
    }
    if first.is_none() {
        *first = Some(outs);
    }
    mismatches
}

/// Dead-axis guard: every lossy drop-rate cell, summed over its seeds,
/// must record drops, or the drop axis measured nothing.
fn check_axes(records: &[ScenarioRecord], scenarios: &[Scenario], tally: &mut Tally) {
    let mut cells: Vec<(String, u64)> = Vec::new();
    for (r, sc) in records.iter().zip(scenarios) {
        if sc.drop_rate == 0.0 {
            continue;
        }
        let comm = match sc.workload {
            Workload::Jacobi { comm, .. } => format!(" {comm:?}"),
            _ => String::new(),
        };
        let key = format!(
            "{}{comm} odf={} drop={}",
            sc.workload.name(),
            sc.odf,
            sc.drop_rate
        );
        match cells.iter_mut().find(|c| c.0 == key) {
            Some(c) => c.1 += r.net_drops,
            None => cells.push((key, r.net_drops)),
        }
    }
    for (key, drops) in cells {
        if drops == 0 {
            tally.error(format!("dead drop axis: {key} recorded no drops"));
        }
    }
}

/// Re-run every scenario on its own through the public build and run
/// functions, to read the layers the sweep records do not carry. Each
/// replay must reproduce its sweep record.
fn replay(
    scenarios: &[Scenario],
    records: &[ScenarioRecord],
    spans: &mut Spans,
    tally: &mut Tally,
) -> (Values, f64) {
    let mut total = Values::default();
    let mut sends = 0.0;
    let mut engine_s = 0.0;
    let span = spans.open("replay");
    for (sc, rec) in scenarios.iter().zip(records) {
        let res = catch_unwind(AssertUnwindSafe(|| replay_one(sc)));
        let Ok((sim, got, run_s)) = res else {
            tally.attempt(false, || format!("{}: replay panicked", sc.label()));
            continue;
        };
        engine_s += run_s;
        let mut c = world::counters(&sim);
        c.extend(&world::busy(&sim));
        world::accumulate(&mut total, &c, scenarios.len());
        sends += world::ucx_sends(&sim);
        let same = got == outcome(rec);
        tally.attempt(same, || {
            format!(
                "{}: standalone replay differs from the sweep record",
                sc.label()
            )
        });
    }
    spans.close(span);
    world::finish_ratios(&mut total, sends);
    (total, engine_s)
}

/// Build and run one scenario standalone with tracing on; returns the
/// world, its outcome in record form, and the engine's host seconds.
fn replay_one(sc: &Scenario) -> (Simulation, [u64; 12], f64) {
    let mut machine = sc.machine.clone();
    machine.trace = true;
    let sim0 = Simulation::new(machine.clone());
    let (sim, makespan, unit, checksum, run_s) = match sc.workload {
        Workload::Jacobi { .. } => {
            let mut cfg = sc.jacobi_config();
            cfg.machine = machine;
            let (mut sim, ids, sh) = charm::build_in(sim0, cfg);
            let t = Instant::now();
            let (res, _) = charm::run_tolerant(&mut sim, &ids, &sh);
            let run_s = t.elapsed().as_secs_f64();
            let r = res.expect("replay drained");
            (sim, r.total, r.time_per_iter, r.checksum, run_s)
        }
        Workload::Sweep3d {
            global,
            sweeps,
            warmup,
        } => {
            let mut cfg = gaat_sweep3d::SweepConfig::new(machine, global);
            cfg.odf = sc.odf;
            cfg.sweeps = sweeps;
            cfg.warmup = warmup;
            let (mut sim, ids, sh) = gaat_sweep3d::build_in(sim0, cfg);
            let t = Instant::now();
            let r = gaat_sweep3d::run(&mut sim, &ids, &sh);
            let run_s = t.elapsed().as_secs_f64();
            gaat_sweep3d::validate_against_reference(&sim, &ids, &sh);
            (sim, r.total, r.time_per_sweep, None, run_s)
        }
        Workload::Train { params, steps } => {
            let mut cfg = gaat_dptrain::TrainConfig::new(machine, params);
            cfg.steps = steps;
            let (mut sim, ids, sh) = gaat_dptrain::train::build_train_in(sim0, cfg);
            let t = Instant::now();
            let r = gaat_dptrain::run_train(&mut sim, &ids, &sh);
            let run_s = t.elapsed().as_secs_f64();
            gaat_dptrain::validate_train(&sim, &ids, &sh);
            (sim, r.total, r.time_per_step, None, run_s)
        }
        Workload::Moe { .. } => unreachable!("the grid has no MoE workload"),
    };
    let net = sim.machine.fabric.stats();
    let ucx = sim.machine.ucx.stats();
    let got = [
        1,
        0,
        makespan.as_ns(),
        unit.as_ns(),
        checksum.map_or(0, f64::to_bits),
        sim.machine.stats().entries,
        net.messages,
        net.bytes,
        net.drops,
        net.retransmits,
        ucx.retransmits,
        ucx.timeouts,
    ];
    (sim, got, run_s)
}

/// Run the workload for `args.seconds` and return its metrics.
pub fn run(args: &Args, spans: &mut Spans, tally: &mut Tally) -> Values {
    let scenarios = grid(args, false).expand();
    let norms = reference_norms(&scenarios);
    let start = Instant::now();
    let mut plain: Vec<SweepRep> = Vec::new();
    let mut traced_s: Vec<f64> = Vec::new();
    let mut first: Option<Vec<[u64; 12]>> = None;
    let mut mismatches = None;
    let mut reps = 0;
    loop {
        reps += 1;
        match sweep_rep(args, false, spans) {
            Some(r) => {
                let m = check_sweep(&r, &scenarios, &norms, &mut first, tally);
                mismatches.get_or_insert(m);
                plain.push(r);
            }
            None => tally.attempt(false, || "sweep panicked".to_string()),
        }
        if args.trace {
            match sweep_rep(args, true, spans) {
                Some(r) => {
                    check_sweep(&r, &scenarios, &norms, &mut first, tally);
                    traced_s.push(r.run_s);
                }
                None => tally.attempt(false, || "traced sweep panicked".to_string()),
            }
        }
        if reps >= args.min_reps() && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let mut v = Values::default();
    let Some(rep0) = plain.first() else {
        return v;
    };
    check_axes(&rep0.report.records, &scenarios, tally);
    let run_s: Vec<f64> = plain.iter().map(|r| r.run_s).collect();
    if !args.trace {
        v.set("run_s", median(&run_s));
        let setup: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
        v.set("setup_s", median(&setup));
        let units: Vec<f64> = rep0
            .report
            .records
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.unit_ns as f64 / 1e3)
            .collect();
        v.set(
            "sim_us_per_iter",
            ratio(units.iter().sum(), units.len() as f64),
        );
        v.set("peak_rss_mb", crate::peak_rss_mb());
        return v;
    }

    let (layers, engine_s) = replay(&scenarios, &rep0.report.records, spans, tally);
    v.extend(&layers);
    v.set("sim.events_per_s", ratio(v.get("sim.events"), engine_s));
    v.set(
        "jacobi3d.checksum_mismatches",
        mismatches.unwrap_or(0) as f64,
    );

    let n = scenarios.len() as f64;
    let wall_ms: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.report.records.iter().map(|x| x.wall_ns as f64 / 1e6))
        .collect();
    let fork = plain
        .iter()
        .fold(gaat_sweep::ForkStats::default(), |mut a, r| {
            a.merge(&r.report.fork);
            a
        });
    let (prepared, reused) = plain.iter().fold((0, 0), |a, r| {
        (a.0 + r.report.slots.prepared, a.1 + r.report.slots.reused)
    });
    let setup_us: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.report.records.iter().map(|x| x.setup_ns as f64 / 1e3))
        .collect();
    let reps = plain.len() as f64;
    v.set("sweep.scenarios", n);
    v.set("sweep.scenarios_per_s", n / median(&run_s));
    v.set("sweep.scenario_ms_p50", median(&wall_ms));
    v.set("sweep.scenario_ms_p99", quantile(&wall_ms, 0.99));
    v.set("sweep.scenario_samples", wall_ms.len() as f64);
    v.set("sweep.reuse_frac", ratio(reused as f64, prepared as f64));
    v.set(
        "sweep.fork_frac",
        ratio(fork.scenarios_forked as f64, n * reps),
    );
    v.set(
        "sweep.snapshot_us_mean",
        ratio(fork.snapshot_ns as f64 / 1e3, fork.snapshots_taken as f64),
    );
    v.set(
        "sweep.restore_us_mean",
        ratio(fork.restore_ns as f64 / 1e3, fork.scenarios_forked as f64),
    );
    v.set("sweep.declined", fork.declined as f64 / reps);
    let stalled: u64 = rep0.report.records.iter().map(|r| r.stalled).sum();
    v.set("sweep.stalled", stalled as f64);
    v.set(
        "sweep.setup_us_mean",
        ratio(setup_us.iter().sum(), setup_us.len() as f64),
    );
    if !traced_s.is_empty() {
        v.set(
            "trace.overhead_frac",
            median(&traced_s) / median(&run_s) - 1.0,
        );
    }
    v
}
