//! Per-layer readout of a finished world through its public counters:
//! `sim.stats()`, `fabric.stats()`, `ucx.stats()`, `Device::stats()`,
//! `Pe::stats`, `machine.stats()`, and the tracers when tracing is on.

use gaat_rt::Simulation;

use crate::report::{ratio, Values};

/// The simulated counters of a drained world. They are a pure function
/// of the inputs, so they must repeat exactly across repetitions and
/// between traced and untraced runs.
pub fn counters(sim: &Simulation) -> Values {
    let mut v = Values::default();
    let s = sim.sim.stats();
    v.set("sim.events", s.events_executed as f64);
    v.set("sim.peak_pending", s.peak_pending as f64);

    let net = sim.machine.fabric.stats();
    let solver = net.solver;
    v.set("topo.recomputes", solver.recomputes as f64);
    v.set("topo.touched_flows", solver.touched_flows as f64);
    v.set("topo.touched_links", solver.touched_links as f64);
    v.set(
        "topo.rate_updates_avoided",
        solver.rate_updates_avoided as f64,
    );
    v.set("net.messages", net.messages as f64);
    v.set("net.bytes", net.bytes as f64);
    v.set("net.inter_bytes", net.inter_bytes as f64);
    v.set("net.control_messages", net.control_messages as f64);
    v.set("net.peak_link_flows", net.peak_link_flows as f64);
    v.set("net.max_link_utilization", net.max_link_utilization);
    v.set("net.drops", net.drops as f64);

    let ucx = sim.machine.ucx.stats();
    v.set("ucx.gpudirect", ucx.gpudirect as f64);
    v.set("ucx.active_messages", ucx.active_messages as f64);
    v.set("ucx.retransmits", ucx.retransmits as f64);
    v.set("ucx.timeouts", ucx.timeouts as f64);
    v.set("ucx.duplicates", ucx.duplicates as f64);

    for d in &sim.machine.devices {
        let g = d.stats();
        v.add("gpu.kernels", g.kernels as f64);
        v.add("gpu.completions", g.completions as f64);
        v.add("gpu.memcpys", g.memcpys as f64);
        v.add("gpu.memcpy_bytes", g.memcpy_bytes as f64);
    }

    let m = sim.machine.stats();
    v.set("rt.entries", m.entries as f64);
    v.set("rt.sends", m.sends as f64);
    let now = sim.now();
    let npes = sim.machine.pes.len();
    for (p, pe) in sim.machine.pes.iter().enumerate() {
        v.add("rt.high_priority", pe.stats.high_priority as f64);
        v.add("rt.pe_cpu_us", pe.stats.cpu_time.as_ns() as f64 / 1e3);
        v.add(
            "rt.cpu_utilization",
            sim.machine.pe_utilization(p, now) / npes as f64,
        );
    }
    v
}

/// Protocol-level sends: every message the transport chose a protocol
/// for, plus active messages.
pub fn ucx_sends(sim: &Simulation) -> f64 {
    let u = sim.machine.ucx.stats();
    (u.eager + u.rendezvous + u.gpudirect + u.pipelined + u.active_messages) as f64
}

/// Fill the ratios that only make sense once counters are summed over
/// every world a workload ran.
pub fn finish_ratios(v: &mut Values, ucx_sends: f64) {
    let fpr = ratio(v.get("topo.touched_flows"), v.get("topo.recomputes"));
    v.set("topo.flows_per_recompute", fpr);
    let rf = ratio(v.get("ucx.retransmits"), ucx_sends);
    v.set("ucx.retransmit_frac", rf);
}

/// Simulated busy time per layer from the PE, device and fabric
/// tracers (zero when the world ran untraced).
pub fn busy(sim: &Simulation) -> Values {
    let us = |d: gaat_sim::SimDuration| d.as_ns() as f64 / 1e3;
    let mut v = Values::default();
    for s in sim.machine.tracer.summary() {
        if s.category == "pe" {
            v.add("rt.entry_busy_us", us(s.total));
        }
    }
    for d in &sim.machine.devices {
        for s in d.tracer.summary() {
            match s.category {
                "kernel" | "graph" => v.add("gpu.kernel_busy_us", us(s.total)),
                "memcpy" => v.add("gpu.dma_busy_us", us(s.total)),
                _ => {}
            }
        }
    }
    for s in sim.machine.fabric.tracer.summary() {
        v.add("net.link_busy_us", us(s.total));
    }
    v
}

/// Fold one world's counters into a workload total: counts add, high
/// water marks take the max, utilization averages over `worlds`.
pub fn accumulate(total: &mut Values, one: &Values, worlds: usize) {
    const MAXED: [&str; 3] = [
        "sim.peak_pending",
        "net.peak_link_flows",
        "net.max_link_utilization",
    ];
    for spec in crate::report::PER_LAYER {
        let x = one.get(spec.name);
        if MAXED.contains(&spec.name) {
            total.max(spec.name, x);
        } else if spec.name == "rt.cpu_utilization" {
            total.add(spec.name, x / worlds as f64);
        } else {
            total.add(spec.name, x);
        }
    }
}
