//! Collective-performance benchmark, tracked from the gaat-coll PR
//! onward. Merged into `BENCH_net.json` under the `coll_speed` key
//! (net_speed owns the rest of the file; this bench preserves it).
//!
//! Four parts:
//!
//! - A sanity pin (exit code 1 on failure): ring and tree allreduce and
//!   an MoE dispatch/combine round on a small validation machine must
//!   match their sequential scalar references bit for bit.
//! - `allreduce`: algorithm (ring/tree) × topology (flat/fat-tree)
//!   sweep on 4 Summit nodes — bus bandwidth, round time, and the
//!   fabric's link counters. Under spine contention ring's neighbour
//!   traffic and tree's incast behave measurably differently.
//! - `moe_alltoall`: the skew-routed MoE dispatch/combine under
//!   topology × placement. The hot experts concentrate incast, so
//!   Packed (hot experts share one node) and RoundRobin separate on the
//!   fat tree — the placement signal a uniform alltoall cannot show.
//! - `dptrain_overlap`: data-parallel training step time for the full
//!   overlapped step vs compute-only vs comm-only vs serialized
//!   (overlap off), demonstrating communication hiding.
//!
//! Usage: `coll_speed [--smoke] [--out PATH]`

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gaat_coll::{
    build, payload_bytes, run, validate_against_reference, Algorithm, CollAppConfig, CollOp,
    RankPlacement,
};
use gaat_dptrain::moe::{build_moe, moe_payload_bytes, run_moe, validate_moe, MoeConfig};
use gaat_dptrain::{TrainConfig, TrainMode};
use gaat_rt::MachineConfig;

/// One allreduce sweep cell.
struct AllreduceCell {
    algorithm: &'static str,
    topology: &'static str,
    round_ns: u64,
    bus_gbps: f64,
    inter_bytes: u64,
    max_link_utilization: f64,
    wall_s: f64,
}

fn allreduce_cell(alg: Algorithm, topology: &'static str, smoke: bool) -> AllreduceCell {
    let mut machine = if topology == "fattree" {
        MachineConfig::summit_fattree(4)
    } else {
        MachineConfig::summit(4)
    };
    machine.net.jitter = 0.0;
    let count = if smoke { 1 << 18 } else { 1 << 22 };
    let mut cfg = CollAppConfig::new(machine, CollOp::AllReduce, alg, count);
    cfg.rounds = if smoke { 2 } else { 6 };
    cfg.warmup = 1;
    let ranks = cfg.effective_ranks();
    let start = Instant::now();
    let (mut sim, ids, sh) = build(cfg);
    let res = run(&mut sim, &ids, &sh);
    let wall_s = start.elapsed().as_secs_f64();
    let stats = sim.machine.fabric.stats();
    AllreduceCell {
        algorithm: match alg {
            Algorithm::Ring => "ring",
            Algorithm::Tree => "tree",
        },
        topology,
        round_ns: res.time_per_round.as_ns(),
        bus_gbps: res.bus_bandwidth(
            CollOp::AllReduce,
            ranks,
            payload_bytes(CollOp::AllReduce, ranks, count),
        ) / 1e9,
        inter_bytes: stats.inter_bytes,
        max_link_utilization: stats.max_link_utilization,
        wall_s,
    }
}

/// One MoE placement-ablation cell.
struct MoeCell {
    topology: &'static str,
    placement: &'static str,
    round_ns: u64,
    payload_bytes: u64,
    inter_bytes: u64,
    peak_link_flows: u32,
    max_link_utilization: f64,
    wall_s: f64,
}

fn moe_cell(topology: &'static str, placement: RankPlacement, smoke: bool) -> MoeCell {
    let mut machine = if topology == "fattree" {
        MachineConfig::summit_fattree(4)
    } else {
        MachineConfig::summit(4)
    };
    machine.net.jitter = 0.0;
    let (tokens, hidden) = if smoke { (256, 64) } else { (2048, 256) };
    let mut cfg = MoeConfig::new(machine, tokens, hidden);
    // One node's worth of hot experts drawing most tokens: Packed puts
    // them all behind one leaf, RoundRobin spreads the incast.
    cfg.hot_experts = cfg.machine.pes_per_node;
    cfg.hot_frac = 0.7;
    cfg.placement = placement;
    cfg.rounds = if smoke { 1 } else { 4 };
    cfg.warmup = 1;
    let start = Instant::now();
    let (mut sim, ids, sh) = build_moe(cfg);
    let res = run_moe(&mut sim, &ids, &sh);
    let wall_s = start.elapsed().as_secs_f64();
    let stats = sim.machine.fabric.stats();
    MoeCell {
        topology,
        placement: match placement {
            RankPlacement::Packed => "packed",
            RankPlacement::RoundRobin => "round_robin",
        },
        round_ns: res.time_per_round.as_ns(),
        payload_bytes: moe_payload_bytes(&sh),
        inter_bytes: stats.inter_bytes,
        peak_link_flows: stats.peak_link_flows,
        max_link_utilization: stats.max_link_utilization,
        wall_s,
    }
}

/// Training overlap measurement: the same step, decomposed.
struct OverlapResult {
    full_ns: u64,
    compute_ns: u64,
    comm_ns: u64,
    serial_ns: u64,
    /// Fraction of the comm time hidden under compute.
    comm_hidden: f64,
    pass: bool,
}

fn overlap_cells(smoke: bool) -> OverlapResult {
    let step = |mode: TrainMode, overlap: bool| {
        let params = if smoke { 1 << 18 } else { 1 << 22 };
        let mut cfg = TrainConfig::new(MachineConfig::summit(2), params);
        cfg.machine.net.jitter = 0.0;
        cfg.mode = mode;
        cfg.overlap = overlap;
        // Enough arithmetic per parameter that compute and comm are the
        // same order of magnitude — otherwise there is nothing to hide.
        cfg.intensity = 1024;
        cfg.buckets = 8;
        cfg.chunk = 1 << 14;
        cfg.steps = if smoke { 2 } else { 4 };
        cfg.warmup = 1;
        gaat_dptrain::train::train(cfg).time_per_step.as_ns()
    };
    let full_ns = step(TrainMode::Full, true);
    let compute_ns = step(TrainMode::ComputeOnly, true);
    let comm_ns = step(TrainMode::CommOnly, true);
    let serial_ns = step(TrainMode::Full, false);
    let comm_hidden = if comm_ns > 0 {
        (compute_ns + comm_ns).saturating_sub(full_ns) as f64 / comm_ns as f64
    } else {
        0.0
    };
    OverlapResult {
        full_ns,
        compute_ns,
        comm_ns,
        serial_ns,
        comm_hidden,
        pass: full_ns < compute_ns + comm_ns,
    }
}

/// Bit-identity pin on a small validation machine. Each closure panics
/// on divergence; `catch_unwind` turns that into a pass/fail bit.
fn sanity_pin() -> (bool, bool, bool) {
    let allreduce = |alg: Algorithm| {
        let mut cfg =
            CollAppConfig::new(MachineConfig::validation(2, 3), CollOp::AllReduce, alg, 501);
        cfg.chunk = 37;
        cfg.rounds = 2;
        cfg.warmup = 1;
        let (mut sim, ids, sh) = build(cfg);
        run(&mut sim, &ids, &sh);
        validate_against_reference(&sim, &ids, &sh)
    };
    let ring = catch_unwind(AssertUnwindSafe(|| allreduce(Algorithm::Ring) > 0)).unwrap_or(false);
    let tree = catch_unwind(AssertUnwindSafe(|| allreduce(Algorithm::Tree) > 0)).unwrap_or(false);
    let moe = catch_unwind(AssertUnwindSafe(|| {
        let mut cfg = MoeConfig::new(MachineConfig::validation(2, 3), 33, 5);
        cfg.hot_frac = 0.7;
        cfg.chunk = 11;
        let (mut sim, ids, sh) = build_moe(cfg);
        run_moe(&mut sim, &ids, &sh);
        validate_moe(&sim, &ids, &sh) > 0
    }))
    .unwrap_or(false);
    (ring, tree, moe)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = gaat_bench::out_path(&args, "BENCH_net.json");

    let mut guard = gaat_bench::throttle::ThrottleGuard::open(if smoke { 2 } else { 5 });

    let (pin_ring, pin_tree, pin_moe) = sanity_pin();
    let pin_pass = pin_ring && pin_tree && pin_moe;

    let allreduce = vec![
        allreduce_cell(Algorithm::Ring, "flat", smoke),
        allreduce_cell(Algorithm::Tree, "flat", smoke),
        allreduce_cell(Algorithm::Ring, "fattree", smoke),
        allreduce_cell(Algorithm::Tree, "fattree", smoke),
    ];
    let moe = vec![
        moe_cell("flat", RankPlacement::Packed, smoke),
        moe_cell("flat", RankPlacement::RoundRobin, smoke),
        moe_cell("fattree", RankPlacement::Packed, smoke),
        moe_cell("fattree", RankPlacement::RoundRobin, smoke),
    ];
    let overlap = overlap_cells(smoke);
    guard.close();

    let mut obj = String::new();
    obj.push_str("{\n");
    obj.push_str(&format!("    \"smoke\": {smoke},\n"));
    obj.push_str(&format!(
        "    \"sanity_pin\": {{\"ring_allreduce\": {pin_ring}, \"tree_allreduce\": {pin_tree}, \"moe\": {pin_moe}, \"pass\": {pin_pass}}},\n"
    ));
    obj.push_str("    \"allreduce\": [\n");
    for (i, c) in allreduce.iter().enumerate() {
        obj.push_str(&format!(
            "      {{\"algorithm\": \"{}\", \"topology\": \"{}\", \"round_ns\": {}, \"bus_gbps\": {:.3}, \"inter_bytes\": {}, \"max_link_utilization\": {:.4}, \"wall_s\": {:.6}}}{}\n",
            c.algorithm,
            c.topology,
            c.round_ns,
            c.bus_gbps,
            c.inter_bytes,
            c.max_link_utilization,
            c.wall_s,
            if i + 1 < allreduce.len() { "," } else { "" }
        ));
    }
    obj.push_str("    ],\n");
    obj.push_str("    \"moe_alltoall\": [\n");
    for (i, c) in moe.iter().enumerate() {
        obj.push_str(&format!(
            "      {{\"topology\": \"{}\", \"placement\": \"{}\", \"round_ns\": {}, \"payload_bytes\": {}, \"inter_bytes\": {}, \"peak_link_flows\": {}, \"max_link_utilization\": {:.4}, \"wall_s\": {:.6}}}{}\n",
            c.topology,
            c.placement,
            c.round_ns,
            c.payload_bytes,
            c.inter_bytes,
            c.peak_link_flows,
            c.max_link_utilization,
            c.wall_s,
            if i + 1 < moe.len() { "," } else { "" }
        ));
    }
    obj.push_str("    ],\n");
    obj.push_str(&format!(
        "    \"dptrain_overlap\": {{\"full_ns\": {}, \"compute_ns\": {}, \"comm_ns\": {}, \"serial_ns\": {}, \"comm_hidden\": {:.3}, \"pass\": {}}},\n",
        overlap.full_ns,
        overlap.compute_ns,
        overlap.comm_ns,
        overlap.serial_ns,
        overlap.comm_hidden,
        overlap.pass
    ));
    obj.push_str(&format!(
        "    \"steady_state\": {}\n  }}",
        guard.json_object()
    ));

    println!(
        "sanity_pin     ring {} tree {} moe {}  {}",
        pin_ring,
        pin_tree,
        pin_moe,
        if pin_pass { "OK" } else { "FAIL" }
    );
    for c in &allreduce {
        println!(
            "allreduce {:<5} {:<8} round {:>12} ns  bus {:>8.2} GB/s  inter {:>12} B  max_util {:.3}",
            c.algorithm, c.topology, c.round_ns, c.bus_gbps, c.inter_bytes, c.max_link_utilization
        );
    }
    for c in &moe {
        println!(
            "moe      {:<8} {:<12} round {:>12} ns  inter {:>12} B  peak_flows {:>3}  max_util {:.3}",
            c.topology, c.placement, c.round_ns, c.inter_bytes, c.peak_link_flows, c.max_link_utilization
        );
    }
    println!(
        "overlap        full {} ns  compute {} ns  comm {} ns  serial {} ns  comm hidden {:.0}%  {}",
        overlap.full_ns,
        overlap.compute_ns,
        overlap.comm_ns,
        overlap.serial_ns,
        overlap.comm_hidden * 100.0,
        if overlap.pass { "OK" } else { "FAIL" }
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
    let json = gaat_bench::merge_block(&out, "coll_speed", &obj);
    std::fs::write(&out, json).expect("write BENCH_net.json");
    println!("wrote {out}");
    if !pin_pass {
        eprintln!("sanity pin failed: a collective diverged from its scalar reference");
        std::process::exit(1);
    }
    if !overlap.pass {
        eprintln!("overlap check failed: full step did not beat compute + comm");
        std::process::exit(1);
    }
}
