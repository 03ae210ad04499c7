//! The request-driven sweep executor: a work queue drained by a pool of
//! std threads, each owning one reusable [`WorldSlot`]. The same pool
//! serves [`run_batch`]. Every planned unit, a single scenario or a
//! prefix group, runs through one path: a single is a group of one that
//! never pauses or snapshots.
//!
//! Determinism argument, in full:
//!
//! 1. Every scenario runs in its *own* single-machine simulation, fully
//!    determined by its `MachineConfig` (seed, fault plan, topology)
//!    and workload parameters. Nothing about one scenario's execution
//!    reads another's state.
//! 2. World-slot reuse is bit-invisible ([`gaat_sim::Sim::reset`]
//!    restores a fresh engine's observable state; pinned by the
//!    world-reuse test), so it does not matter *which* slot — with
//!    *whatever* history — a scenario lands on.
//! 3. The shared route table replays exactly what each fabric would
//!    derive itself (`gaat-topo`'s `RouteTable` is built by replaying
//!    `try_route`), so sharing immutable topology state is also
//!    bit-invisible.
//! 4. Workers claim units by atomic fetch-add, so worker count and
//!    dequeue order only permute *completion order*. Records carry
//!    their scenario's stable grid index; the report re-sorts by index,
//!    and wall-clock metadata is excluded from fingerprints.
//!
//! Hence: fingerprints from a sweep at any worker count equal each
//! other and equal standalone single-run invocations of the same
//! scenarios. `crates/sweep/tests/determinism_sweep.rs` pins this.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use gaat_jacobi3d::charm;
use gaat_net::SharedTopology;
use gaat_rt::{Simulation, SlotStats, WorldSlot};
use gaat_sim::{SimDuration, SimTime};

use crate::fork::{self, ForkStats, Unit};
use crate::grid::{Scenario, Workload};
use crate::record::{AggregateRow, ScenarioRecord};

/// How to drain a scenario queue.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; 0 = host parallelism.
    pub workers: usize,
    /// Recycle each worker's engine between scenarios (the fast path;
    /// off = build a fresh world per run, for overhead measurement).
    pub reuse_worlds: bool,
    /// Analyze the scenario list into prefix groups (see [`fork`]) and
    /// run each group's shared prefix once, snapshotting at the
    /// divergence instant and forking the branches from the snapshot.
    /// Bit-invisible in the records — pinned against the unforked path
    /// — and off for anything the planner cannot prove shareable.
    pub fork: bool,
    /// Resume a partial sweep: re-read `jsonl` (if it exists), keep
    /// every intact record whose index and label match this scenario
    /// list, and run only the missing scenarios. The file is rewritten
    /// with the kept records first, so a corrupt tail line from a kill
    /// mid-write is dropped rather than appended after.
    pub resume: bool,
    /// Stream one JSON record per completed scenario here, flushed per
    /// line so a killed sweep keeps everything finished so far.
    pub jsonl: Option<PathBuf>,
    /// Write the end-of-sweep aggregate summary here as CSV.
    pub csv: Option<PathBuf>,
}

impl SweepOptions {
    /// Defaults plus world reuse and prefix-fork sharing on (the normal
    /// configuration).
    pub fn new() -> Self {
        SweepOptions {
            reuse_worlds: true,
            fork: true,
            ..Default::default()
        }
    }
}

/// Everything a finished sweep produced, in scenario-index order.
#[derive(Debug)]
pub struct SweepReport {
    /// One record per scenario, sorted by grid index.
    pub records: Vec<ScenarioRecord>,
    /// Wall time of the whole drain.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
    /// Merged world-slot counters across workers.
    pub slots: SlotStats,
    /// Merged prefix-fork counters across workers (all zero when
    /// [`SweepOptions::fork`] is off or nothing was shareable).
    pub fork: ForkStats,
    /// Scenarios satisfied from the resumed JSONL instead of executed.
    pub resumed: usize,
}

impl SweepReport {
    /// Per-scenario fingerprints in index order (the cross-worker-count
    /// comparison key).
    pub fn fingerprints(&self) -> Vec<u64> {
        self.records
            .iter()
            .map(ScenarioRecord::fingerprint)
            .collect()
    }

    /// Records folded by group (everything but the seed axis), in
    /// first-appearance order.
    pub fn aggregate(&self) -> Vec<AggregateRow> {
        let mut rows: Vec<AggregateRow> = Vec::new();
        for r in &self.records {
            let row = match rows.iter_mut().find(|g| g.group == r.group) {
                Some(row) => row,
                None => {
                    rows.push(AggregateRow {
                        group: r.group.clone(),
                        ..Default::default()
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            // Accumulate sums first; normalized below.
            row.count += 1;
            row.stalled += r.stalled;
            row.mean_wall_ns += r.wall_ns as f64;
            if r.ok {
                row.ok += 1;
                row.mean_makespan_ns += r.makespan_ns as f64;
                row.mean_unit_ns += r.unit_ns as f64;
            }
        }
        for row in &mut rows {
            row.mean_wall_ns /= row.count as f64;
            if row.ok > 0 {
                row.mean_makespan_ns /= row.ok as f64;
                row.mean_unit_ns /= row.ok as f64;
            }
        }
        rows
    }

    /// The aggregate as a printable table.
    pub fn aggregate_table(&self) -> String {
        let mut out = format!(
            "{:<55} {:>5} {:>5} {:>7} {:>12} {:>10}\n",
            "group", "runs", "ok", "stalled", "makespan_us", "unit_us"
        );
        for row in self.aggregate() {
            out.push_str(&format!(
                "{:<55} {:>5} {:>5} {:>7} {:>12.1} {:>10.2}\n",
                row.group,
                row.count,
                row.ok,
                row.stalled,
                row.mean_makespan_ns / 1e3,
                row.mean_unit_ns / 1e3,
            ));
        }
        out
    }
}

/// Drain `scenarios` across a worker pool and collect every record.
/// Per-scenario outcomes are independent of `opts.workers` and of
/// dequeue order (see the module docs for the argument); only the
/// wall-clock metadata fields vary.
pub fn run_sweep(scenarios: &[Scenario], opts: &SweepOptions) -> std::io::Result<SweepReport> {
    let start = Instant::now();
    let workers = pool_size(opts.workers);

    // One immutable topology/route table per unique machine shape,
    // built up front and shared behind `Arc`s by every worker.
    let mut shapes: Vec<SharedTopology> = Vec::new();
    for sc in scenarios {
        if !shapes
            .iter()
            .any(|t| t.matches(sc.machine.nodes, &sc.machine.net))
        {
            shapes.push(SharedTopology::build(sc.machine.nodes, &sc.machine.net));
        }
    }

    // Resume: harvest intact records from a previous partial JSONL.
    // A record is trusted only if it parses, its stored fingerprint
    // matches the recomputed one, and its index/label agree with this
    // scenario list (guarding against resuming a different grid).
    let mut slots_out: Vec<Option<ScenarioRecord>> = vec![None; scenarios.len()];
    let mut resumed = 0usize;
    let partial = opts.jsonl.as_ref().filter(|_| opts.resume);
    if let Some(text) = partial.and_then(|p| std::fs::read_to_string(p).ok()) {
        for mut rec in text.lines().filter_map(ScenarioRecord::from_jsonl) {
            let i = rec.index;
            if i < scenarios.len() && rec.label == scenarios[i].label() && slots_out[i].is_none() {
                rec.group = scenarios[i].group();
                slots_out[i] = Some(rec);
                resumed += 1;
            }
        }
    }
    let skip: Vec<bool> = slots_out.iter().map(Option::is_some).collect();
    let units = fork::plan(scenarios, opts.fork, &skip);

    let mut jsonl = match &opts.jsonl {
        Some(p) => Some(BufWriter::new(File::create(p)?)),
        None => None,
    };
    // Rewriting (rather than appending to) the file on resume drops any
    // corrupt tail line; the kept records come back first.
    if let Some(w) = jsonl.as_mut() {
        for rec in slots_out.iter().flatten() {
            writeln!(w, "{}", rec.jsonl())?;
        }
        w.flush()?;
    }

    // Stream each record out the moment its unit lands, so a killed
    // sweep keeps every completed one.
    let mut write_err: Option<std::io::Error> = None;
    let mut fork_stats = ForkStats::default();
    let slots = drain(
        &units,
        workers,
        &shapes,
        |slot, unit| run_unit(slot, scenarios, unit, opts.reuse_worlds),
        |_, (recs, fs)| {
            fork_stats.merge(&fs);
            for rec in recs {
                if let (Some(w), None) = (jsonl.as_mut(), &write_err) {
                    if let Err(e) = writeln!(w, "{}", rec.jsonl()).and_then(|()| w.flush()) {
                        write_err = Some(e);
                    }
                }
                let idx = rec.index;
                slots_out[idx] = Some(rec);
            }
        },
    );
    if let Some(e) = write_err {
        return Err(e);
    }

    let records: Vec<ScenarioRecord> = slots_out
        .into_iter()
        .map(|r| r.expect("every scenario produces exactly one record"))
        .collect();
    let report = SweepReport {
        records,
        wall: start.elapsed(),
        workers,
        slots,
        fork: fork_stats,
        resumed,
    };
    if let Some(p) = &opts.csv {
        let mut w = BufWriter::new(File::create(p)?);
        writeln!(w, "{}", AggregateRow::csv_header())?;
        for row in report.aggregate() {
            writeln!(w, "{}", row.csv())?;
        }
        w.flush()?;
    }
    Ok(report)
}

/// Run one scenario standalone, on a throwaway slot with no engine or
/// topology reuse — the reference path the determinism test compares
/// sweep records against.
pub fn run_standalone(sc: &Scenario) -> ScenarioRecord {
    let (mut recs, _) = run_unit(
        &mut WorldSlot::new(),
        std::slice::from_ref(sc),
        &Unit::Single(0),
        false,
    );
    recs.pop().expect("a single yields one record")
}

/// Drain an arbitrary job list across a pool of worker threads, each
/// owning one reusable [`WorldSlot`] — the pool underneath
/// [`run_sweep`], exposed so other harnesses (the figure generator, the
/// examples) can recycle worlds instead of hand-rolling serial loops.
/// Results come back in job order. `workers == 0` uses host
/// parallelism.
pub fn run_batch<J, R, F>(jobs: &[J], workers: usize, f: F) -> (Vec<R>, SlotStats)
where
    J: Sync,
    R: Send,
    F: Fn(&mut WorldSlot, &J) -> R + Sync,
{
    let workers = pool_size(workers).min(jobs.len().max(1));
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(jobs.len()).collect();
    let slots = drain(jobs, workers, &[], f, |i, r| out[i] = Some(r));
    let results = out
        .into_iter()
        .map(|r| r.expect("every job produces exactly one result"))
        .collect();
    (results, slots)
}

/// Worker threads for a requested count; 0 = host parallelism.
fn pool_size(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        workers
    }
}

/// The one worker pool: `workers` threads, each owning one reusable
/// [`WorldSlot`] with `shapes` pre-installed, claim jobs by atomic
/// fetch-add. `sink` runs on the calling thread and receives each
/// `(job index, result)` as it lands. Returns the slots' merged
/// counters.
fn drain<J, R>(
    jobs: &[J],
    workers: usize,
    shapes: &[SharedTopology],
    work: impl Fn(&mut WorldSlot, &J) -> R + Sync,
    mut sink: impl FnMut(usize, R),
) -> SlotStats
where
    J: Sync,
    R: Send,
{
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots = SlotStats::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                let (next, work) = (&next, &work);
                s.spawn(move || {
                    let mut slot = WorldSlot::new();
                    for t in shapes {
                        slot.install_topology(t.clone());
                    }
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() || tx.send((i, work(&mut slot, &jobs[i]))).is_err() {
                            break;
                        }
                    }
                    slot.stats()
                })
            })
            .collect();
        drop(tx);
        for (i, r) in rx {
            sink(i, r);
        }
        for h in handles {
            let st = h.join().expect("pool worker panicked");
            slots.prepared += st.prepared;
            slots.reused += st.reused;
        }
    });
    slots
}

/// A record with identity filled in and every outcome field zeroed.
fn base_record(sc: &Scenario) -> ScenarioRecord {
    ScenarioRecord {
        index: sc.index,
        group: sc.group(),
        label: sc.label(),
        ok: true,
        ..Default::default()
    }
}

/// Copy the machine's end-of-run counters into the record.
fn seal_record(rec: &mut ScenarioRecord, sim: &Simulation) {
    let net = sim.machine.fabric.stats();
    let ucx = sim.machine.ucx.stats();
    rec.entries = sim.machine.stats().entries;
    rec.net_messages = net.messages;
    rec.net_bytes = net.bytes;
    rec.net_drops = net.drops;
    rec.net_retransmits = net.retransmits;
    rec.ucx_retransmits = ucx.retransmits;
    rec.ucx_timeouts = ucx.timeouts;
    rec.ucx_duplicates = ucx.duplicates;
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Run one planned unit on `slot`: the only place that special-cases a
/// workload, by supplying its three steps to [`Runner::run`]. Returns
/// the unit's records and what forking it did.
fn run_unit(
    slot: &mut WorldSlot,
    scenarios: &[Scenario],
    unit: &Unit,
    reuse: bool,
) -> (Vec<ScenarioRecord>, ForkStats) {
    let (members, divergence) = match unit {
        Unit::Single(i) => (std::slice::from_ref(i), None),
        Unit::Group {
            members,
            divergence,
        } => (members.as_slice(), Some(*divergence)),
    };
    let mut r = Runner {
        slot,
        scenarios,
        reuse,
        fork: ForkStats::default(),
    };
    let recs = match scenarios[members[0]].workload {
        Workload::Jacobi { .. } => r.run(
            members,
            divergence,
            &|sim0, sc| charm::build_in(sim0, sc.jacobi_config()),
            &|sim, ids| charm::start(sim, ids),
            &|sim, ids, sh, rec| match charm::finish_tolerant(sim, ids, sh) {
                (Some(res), _) => {
                    rec.makespan_ns = res.total.as_ns();
                    rec.unit_ns = res.time_per_iter.as_ns();
                    rec.checksum = res.checksum;
                }
                (None, stalled) => {
                    rec.ok = false;
                    rec.stalled = stalled as u64;
                    rec.makespan_ns = sim.sim.now().as_ns();
                }
            },
        ),
        Workload::Sweep3d {
            global,
            sweeps,
            warmup,
        } => r.run(
            members,
            divergence,
            &|sim0, sc| {
                let mut cfg = gaat_sweep3d::SweepConfig::new(sc.machine.clone(), global);
                cfg.odf = sc.odf;
                cfg.sweeps = sweeps;
                cfg.warmup = warmup;
                gaat_sweep3d::build_in(sim0, cfg)
            },
            &|sim, ids| gaat_sweep3d::start(sim, ids),
            &|sim, ids, sh, rec| {
                let r = gaat_sweep3d::finish(sim, ids, sh);
                rec.makespan_ns = r.total.as_ns();
                rec.unit_ns = r.time_per_sweep.as_ns();
            },
        ),
        // The ML proxies never fork (see `Workload::forks`), and their
        // runners broadcast the start entry themselves.
        Workload::Train { params, steps } => r.run(
            members,
            divergence,
            &|sim0, sc| {
                let mut cfg = gaat_dptrain::TrainConfig::new(sc.machine.clone(), params);
                cfg.steps = steps;
                gaat_dptrain::train::build_train_in(sim0, cfg)
            },
            &|_, _| {},
            &|sim, ids, sh, rec| {
                let r = gaat_dptrain::run_train(sim, ids, sh);
                rec.makespan_ns = r.total.as_ns();
                rec.unit_ns = r.time_per_step.as_ns();
                rec.coll_bytes = r.coll_stats.bytes;
                rec.coll_chunks = r.coll_stats.chunks;
            },
        ),
        Workload::Moe {
            tokens,
            hidden,
            rounds,
        } => r.run(
            members,
            divergence,
            &|sim0, sc| {
                let mut cfg = gaat_dptrain::MoeConfig::new(sc.machine.clone(), tokens, hidden);
                cfg.rounds = rounds;
                gaat_dptrain::moe::build_moe_in(sim0, cfg)
            },
            &|_, _| {},
            &|sim, ids, sh, rec| {
                let r = gaat_dptrain::run_moe(sim, ids, sh);
                rec.makespan_ns = r.total.as_ns();
                rec.unit_ns = r.time_per_round.as_ns();
                rec.coll_bytes = r.dispatch_stats.bytes + r.combine_stats.bytes;
                rec.coll_chunks = r.dispatch_stats.chunks + r.combine_stats.chunks;
            },
        ),
    };
    (recs, r.fork)
}

/// What every run of one unit shares: the worker's slot, the scenario
/// list, the reuse switch, and the fork counters it accumulates.
struct Runner<'a> {
    slot: &'a mut WorldSlot,
    scenarios: &'a [Scenario],
    reuse: bool,
    fork: ForkStats,
}

impl Runner<'_> {
    /// Build the first member's world (`build`) and start it (`start`,
    /// the initial broadcast). A single (`divergence == None`) finishes
    /// live. A group runs the shared prefix to just before
    /// `divergence`, snapshots, finishes the first member live, then
    /// finishes every other member from a restore of the snapshot with
    /// its own stochastic fault plan swapped in. `finish` drains a run
    /// and folds its outcome into the record. If the world declines to
    /// snapshot, the first member still finishes live (the prefix ran
    /// under its exact config) and the rest run as singles —
    /// correctness never depends on the fork succeeding.
    fn run<Ids, Sh>(
        &mut self,
        members: &[usize],
        divergence: Option<SimTime>,
        build: &dyn Fn(Simulation, &Scenario) -> (Simulation, Ids, Sh),
        start: &dyn Fn(&mut Simulation, &Ids),
        finish: &dyn Fn(&mut Simulation, &Ids, &Sh, &mut ScenarioRecord),
    ) -> Vec<ScenarioRecord> {
        let t0 = Instant::now();
        let sc0 = &self.scenarios[members[0]];
        let reused_world = self.reuse && self.slot.stats().prepared > 0;
        let sim0 = if self.reuse {
            self.slot.prepare(sc0.machine.clone())
        } else {
            Simulation::new(sc0.machine.clone())
        };
        let (mut sim, ids, sh) = build(sim0, sc0);
        let setup_ns = ns_since(t0);
        start(&mut sim, &ids);
        let snap = divergence.and_then(|d| {
            self.fork.groups += 1;
            // Events at exactly the divergence instant may already
            // observe the late fields, so the pause lands one tick
            // before it.
            sim.run_until(d - SimDuration::from_ns(1));
            let st = Instant::now();
            let snap = sim.snapshot();
            if snap.is_some() {
                self.fork.snapshots_taken += 1;
                self.fork.snapshot_ns += ns_since(st);
                self.fork.scenarios_forked += members.len() - 1;
            } else {
                self.fork.declined += members.len() - 1;
            }
            snap
        });

        let finish_branch = |sim: &mut Simulation, sc: &Scenario, setup_ns: u64, reused: bool| {
            let mut rec = base_record(sc);
            rec.setup_ns = setup_ns;
            rec.reused_world = reused;
            finish(sim, &ids, &sh, &mut rec);
            seal_record(&mut rec, sim);
            rec
        };

        let mut out = Vec::with_capacity(members.len());
        out.push(finish_branch(&mut sim, sc0, setup_ns, reused_world));
        // A group member's clock stops before the branches take over its
        // world; a single's also covers parking the world.
        if divergence.is_some() {
            out[0].wall_ns = ns_since(t0);
        }
        if let Some(snap) = &snap {
            for &m in &members[1..] {
                let bt = Instant::now();
                sim.restore(snap);
                let restore_ns = ns_since(bt);
                self.fork.restore_ns += restore_ns;
                let sc = &self.scenarios[m];
                sim.set_stochastic_faults(sc.machine.faults.clone());
                let mut rec = finish_branch(&mut sim, sc, restore_ns, true);
                rec.wall_ns = ns_since(bt);
                out.push(rec);
            }
        }
        if self.reuse {
            self.slot.retire(sim);
        }
        if divergence.is_none() {
            out[0].wall_ns = ns_since(t0);
        }
        if snap.is_none() {
            for &m in &members[1..] {
                out.extend(self.run(&[m], None, build, start, finish));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::run_batch;

    #[test]
    fn run_batch_returns_every_result_in_job_order() {
        let jobs: Vec<usize> = (0..20).collect();
        for workers in [1, 3] {
            let (out, slots) = run_batch(&jobs, workers, |_, &i| i * 2);
            assert_eq!(out, jobs.iter().map(|i| i * 2).collect::<Vec<_>>());
            assert_eq!(slots.prepared, 0, "no job prepared a world");
        }
    }
}
