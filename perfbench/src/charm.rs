//! The two single-world Jacobi3D workloads: `strong_charmd_512` (the
//! paper's headline strong-scaling point, GPU-aware) and
//! `weak_fattree_charmh_64` (host staging contending on a fat tree).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gaat_jacobi3d::{charm, CommMode, Dims, JacobiConfig};
use gaat_rt::{MachineConfig, Simulation};

use crate::report::{median, ratio, Tally, Values};
use crate::spans::Spans;
use crate::world;
use crate::{Args, Workload};

/// The experiment a workload runs, made from the seed.
fn config(args: &Args) -> JacobiConfig {
    let smoke = args.smoke;
    let (machine, global, comm, warmup, iters) = match args.workload {
        Workload::StrongCharmd512 => {
            let nodes = if smoke { 8 } else { 512 };
            let global = Dims::cube(if smoke { 768 } else { 3072 });
            let (warmup, iters) = if smoke { (1, 1) } else { (1, 3) };
            let m = MachineConfig::summit(nodes);
            (m, global, CommMode::GpuAware, warmup, iters)
        }
        Workload::WeakFattreeCharmh64 => {
            // `weak_dims(1536, nodes)` of the figure harness: a 1536^3
            // block per node, doubling z, y, x in turn.
            let (nodes, global) = if smoke {
                (4, Dims::new(1536, 3072, 3072))
            } else {
                (64, Dims::cube(6144))
            };
            let (warmup, iters) = if smoke { (1, 1) } else { (2, 12) };
            let m = MachineConfig::summit_fattree(nodes);
            (m, global, CommMode::HostStaging, warmup, iters)
        }
        Workload::SweepFaults => unreachable!("not a single-world workload"),
    };
    let mut machine = machine;
    machine.seed = args.seed;
    let mut cfg = JacobiConfig::new(machine, global);
    cfg.comm = comm;
    cfg.odf = 2;
    cfg.warmup = warmup;
    cfg.iters = iters;
    cfg
}

/// One repetition's outcome.
struct Rep {
    setup_s: f64,
    build_s: f64,
    run_s: f64,
    /// Simulated counters plus `sim_us_per_iter`; `None` when the run
    /// stalled or panicked.
    counters: Option<Values>,
    busy: Values,
    ucx_sends: f64,
}

/// `Simulation::new` plus `charm::build_in`, each under its own span;
/// returns the world and the set-up and build seconds.
fn build(cfg: &JacobiConfig, spans: &mut Spans) -> (World, f64, f64) {
    let t0 = Instant::now();
    let (sim, _) = spans.time("Simulation::new", || Simulation::new(cfg.machine.clone()));
    let (world, build_s) = spans.time("charm::build_in", || charm::build_in(sim, cfg.clone()));
    (world, t0.elapsed().as_secs_f64(), build_s)
}

type World = (
    Simulation,
    Vec<gaat_rt::ChareId>,
    std::sync::Arc<charm::Shared>,
);

/// Set up a world and drop it without running: more set-up samples per
/// run than full repetitions give, for a steady `setup_s` median.
fn setup_only(cfg: &JacobiConfig, spans: &mut Spans) -> Option<f64> {
    let span = spans.open("setup_only");
    let out = catch_unwind(AssertUnwindSafe(|| {
        let (world, setup_s, _) = build(cfg, spans);
        spans.time("drop_world", || drop(world));
        setup_s
    }));
    spans.close(span);
    out.ok()
}

/// Build, run to quiescence and read one world. Every call into the
/// program gets its own span.
fn rep(cfg: &JacobiConfig, traced: bool, spans: &mut Spans) -> Option<Rep> {
    let mut cfg = cfg.clone();
    cfg.machine.trace = traced;
    let span = spans.open(if traced { "rep.traced" } else { "rep" });
    let out = catch_unwind(AssertUnwindSafe(|| {
        let ((mut sim, ids, sh), setup_s, build_s) = build(&cfg, spans);
        let t1 = Instant::now();
        spans.time("charm::start", || charm::start(&mut sim, &ids));
        let ((res, stalled), _) = spans.time("charm::finish_tolerant", || {
            charm::finish_tolerant(&mut sim, &ids, &sh)
        });
        let run_s = t1.elapsed().as_secs_f64();
        let read = spans.open("read_counters");
        let counters = res.map(|r| {
            let mut c = world::counters(&sim);
            c.set("sim_us_per_iter", r.time_per_iter.as_ns() as f64 / 1e3);
            c
        });
        if stalled > 0 {
            eprintln!("perfbench: {stalled} blocks stalled");
        }
        let busy = world::busy(&sim);
        let ucx_sends = world::ucx_sends(&sim);
        spans.close(read);
        spans.time("drop_world", || drop(sim));
        Rep {
            setup_s,
            build_s,
            run_s,
            counters,
            busy,
            ucx_sends,
        }
    }));
    spans.close(span);
    out.ok()
}

/// Set-up-only worlds built per run, on top of the full repetitions.
const SETUP_SAMPLES: usize = 50;

/// Run the workload for `args.seconds` and return its metrics.
pub fn run(args: &Args, spans: &mut Spans, tally: &mut Tally) -> Values {
    let cfg = config(args);
    let start = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut first: Option<Values> = None;
    if !args.trace {
        for _ in 0..SETUP_SAMPLES {
            let s = setup_only(&cfg, spans);
            tally.attempt(s.is_some(), || "set-up panicked".to_string());
            setups.extend(s);
        }
    }
    // Untraced repetitions until the time is used up (at least
    // `min_reps`); the traced run alternates untraced and traced ones so
    // both see the same host conditions.
    let mut reps = 0;
    loop {
        reps += 1;
        let r = rep(&cfg, false, spans);
        check(r.as_ref(), &mut first, "untraced", tally);
        plain.extend(r.filter(|r| r.counters.is_some()));
        if args.trace {
            let r = rep(&cfg, true, spans);
            check(r.as_ref(), &mut first, "traced", tally);
            traced.extend(r.filter(|r| r.counters.is_some()));
        }
        if reps >= args.min_reps() && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let mut v = Values::default();
    let Some(rep0) = plain.first() else {
        return v;
    };
    let counters = rep0
        .counters
        .as_ref()
        .expect("only drained repetitions are kept");
    let run_s: Vec<f64> = plain.iter().map(|r| r.run_s).collect();
    if !args.trace {
        setups.extend(plain.iter().map(|r| r.setup_s));
        v.set("run_s", median(&run_s));
        v.set("setup_s", median(&setups));
        v.set("sim_us_per_iter", counters.get("sim_us_per_iter"));
        v.set("peak_rss_mb", crate::peak_rss_mb());
        return v;
    }
    for spec in crate::report::PER_LAYER {
        v.set(spec.name, counters.get(spec.name));
    }
    world::finish_ratios(&mut v, rep0.ucx_sends);
    let events = v.get("sim.events");
    v.set("sim.events_per_s", events / median(&run_s));
    let build: Vec<f64> = plain.iter().map(|r| r.build_s).collect();
    v.set("jacobi3d.build_s", median(&build));
    if let Some(t) = traced.first() {
        v.extend(&t.busy);
        let tr: Vec<f64> = traced.iter().map(|r| r.run_s).collect();
        v.set(
            "trace.overhead_frac",
            ratio(median(&tr), median(&run_s)) - 1.0,
        );
    }
    v
}

/// Count one repetition: it fails if the run panicked or stalled, or if
/// its simulated counters differ from the first repetition's.
fn check(r: Option<&Rep>, first: &mut Option<Values>, what: &str, tally: &mut Tally) {
    let Some(c) = r.and_then(|r| r.counters.as_ref()) else {
        tally.attempt(false, || format!("{what} repetition did not drain"));
        return;
    };
    match first {
        None => {
            *first = Some(c.clone());
            tally.attempt(true, String::new);
        }
        Some(f) => tally.attempt(f == c, || {
            format!("{what} repetition's simulated counters differ from the first run's")
        }),
    }
}
