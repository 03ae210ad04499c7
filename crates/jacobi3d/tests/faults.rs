//! Fault-injection validation for the task-runtime Jacobi3D.
//!
//! With the reliable transport on, deterministic message loss must be
//! invisible to the numerics: the solver converges to the exact same
//! field as the fault-free run (and the sequential reference), only
//! later. Without retries, loss stalls the iteration. A PE failure is
//! recovered from buddy checkpoints and still matches the reference
//! bit for bit.

use gaat_jacobi3d::{charm, CommMode, Dims, JacobiConfig};
use gaat_rt::{MachineConfig, Simulation};
use gaat_sim::{FaultPlan, PeFault, SimTime};

fn faulty_cfg(comm: CommMode, drop_prob: f64, retries: bool) -> JacobiConfig {
    let mut machine = MachineConfig::validation(2, 2);
    machine.faults = FaultPlan {
        seed: 42,
        drop_prob,
        ..FaultPlan::none()
    };
    machine.ucx.reliability.enabled = retries;
    let mut cfg = JacobiConfig::new(machine, Dims::cube(8));
    cfg.iters = 4;
    cfg.warmup = 1;
    cfg.odf = 2;
    cfg.comm = comm;
    cfg
}

fn assert_quiesced(sim: &Simulation) {
    assert_eq!(sim.machine.ucx.in_flight(), 0, "transfers leak");
    assert_eq!(sim.machine.ucx.stashed(), 0, "tokens/timers leak");
}

#[test]
fn lossy_host_staging_converges_bit_identically() {
    let cfg = faulty_cfg(CommMode::HostStaging, 0.1, true);
    let (mut sim, ids, sh) = charm::build(cfg);
    charm::run(&mut sim, &ids, &sh);
    let st = sim.machine.ucx.stats();
    assert!(st.retransmits > 0, "the drop plan should force retransmits");
    assert_eq!(st.peers_dead, 0, "no peer should be declared dead");
    assert_quiesced(&sim);
    charm::validate_against_reference(&sim, &ids, &sh);
}

#[test]
fn lossy_gpu_aware_converges_bit_identically() {
    let cfg = faulty_cfg(CommMode::GpuAware, 0.02, true);
    let (mut sim, ids, sh) = charm::build(cfg);
    charm::run(&mut sim, &ids, &sh);
    let st = sim.machine.ucx.stats();
    assert!(st.retransmits > 0, "the drop plan should force retransmits");
    assert_quiesced(&sim);
    charm::validate_against_reference(&sim, &ids, &sh);
}

#[test]
fn lossy_run_costs_time_but_not_correctness() {
    let clean = faulty_cfg(CommMode::HostStaging, 0.0, true);
    let lossy = faulty_cfg(CommMode::HostStaging, 0.1, true);
    let (mut s0, ids0, sh0) = charm::build(clean);
    let r0 = charm::run(&mut s0, &ids0, &sh0);
    let (mut s1, ids1, sh1) = charm::build(lossy);
    let r1 = charm::run(&mut s1, &ids1, &sh1);
    assert_eq!(r0.checksum, r1.checksum, "loss must not change the field");
    assert!(
        r1.total > r0.total,
        "retransmits cost time: {} vs {}",
        r1.total,
        r0.total
    );
}

#[test]
fn lossy_without_retries_fails_to_complete() {
    let cfg = faulty_cfg(CommMode::HostStaging, 0.05, false);
    let (mut sim, ids, _sh) = charm::build(cfg);
    {
        let Simulation { sim, machine, .. } = &mut sim;
        machine.broadcast(sim, &ids, charm::E_START, 0);
    }
    sim.run();
    let unfinished = ids
        .iter()
        .filter(|&&id| {
            sim.machine
                .chare_as::<charm::BlockChare>(id)
                .done_at
                .is_none()
        })
        .count();
    assert!(
        unfinished > 0,
        "silent message loss must stall at least one block"
    );
}

#[test]
fn pe_failure_recovers_from_checkpoints() {
    // Fault-free pass to learn the completion time, then kill a PE at
    // 60% of it — past the first full checkpoint wave.
    let mut cfg = faulty_cfg(CommMode::HostStaging, 0.0, true);
    cfg.checkpoint_every = 2;
    let (mut sim0, ids0, sh0) = charm::build(cfg.clone());
    let r0 = charm::run(&mut sim0, &ids0, &sh0);
    assert!(sim0.machine.stats().checkpoints_stored > 0);

    cfg.machine.faults.pe_failures = vec![PeFault {
        at: SimTime::ZERO + r0.total.mul_f64(0.6),
        pe: 1,
    }];
    let (mut sim, ids, sh) = charm::build(cfg);
    let r = charm::run(&mut sim, &ids, &sh);
    let st = sim.machine.stats();
    assert_eq!(st.pe_failures, 1);
    assert_eq!(st.recoveries, 1);
    assert_eq!(st.chares_restored as usize, ids.len());
    assert!(!sim.machine.pe_alive(1));
    assert!(sim.machine.incarnation() > 0);
    // Redoing rolled-back iterations costs time.
    assert!(r.total > r0.total, "{} vs {}", r.total, r0.total);
    assert_quiesced(&sim);
    charm::validate_against_reference(&sim, &ids, &sh);
    // Recovery golden: the rollback path (teardown, refugee placement,
    // restore, resume broadcast) must replay bit for bit.
    assert_eq!(r.total.as_ns(), 1_255_336);
    assert_eq!(r.entries, 375);
    assert_eq!(st.migrations, 2);
    assert_eq!(st.chares_restored, 8);
    assert_eq!(st.checkpoints_stored, 32);
    assert_eq!(
        r.checksum.map(f64::to_bits),
        Some(4_672_450_907_109_998_747)
    );
}

#[test]
fn pe_failure_before_first_checkpoint_stalls_instead_of_panicking() {
    // Kill a PE at 5% of the fault-free makespan: before the first
    // checkpoint wave, so no chare holds a snapshot to roll back to.
    let mut cfg = faulty_cfg(CommMode::HostStaging, 0.0, true);
    cfg.checkpoint_every = 2;
    let (mut sim0, ids0, sh0) = charm::build(cfg.clone());
    let r0 = charm::run(&mut sim0, &ids0, &sh0);

    cfg.machine.faults.pe_failures = vec![PeFault {
        at: SimTime::ZERO + r0.total.mul_f64(0.05),
        pe: 1,
    }];
    let (mut sim, ids, sh) = charm::build(cfg);
    let (result, stalled) = charm::run_tolerant(&mut sim, &ids, &sh);
    assert!(result.is_none(), "a lost cut cannot finish the run");
    assert!(stalled > 0, "blocks waiting on the dead PE must stall");
    let st = sim.machine.stats();
    assert_eq!(st.pe_failures, 1);
    assert_eq!(st.recoveries, 0, "no cut, no rollback");
    assert_eq!(st.chares_restored, 0);
    assert_eq!(sim.machine.incarnation(), 0, "the world was left as it is");
}

#[test]
fn same_fault_seed_replays_identically() {
    let fingerprint = || {
        let cfg = faulty_cfg(CommMode::HostStaging, 0.1, true);
        let (mut sim, ids, sh) = charm::build(cfg);
        let r = charm::run(&mut sim, &ids, &sh);
        let st = sim.machine.ucx.stats();
        (
            r.total,
            r.checksum,
            r.entries,
            st.retransmits,
            st.duplicates,
        )
    };
    assert_eq!(fingerprint(), fingerprint(), "same seed, same trajectory");
}

#[test]
#[should_panic(expected = "post-recovery migration requires host-staging, non-graph config")]
fn gpu_aware_pe_failure_is_rejected_at_build() {
    // A migrated block cannot rebuild its channels, so a GPU-aware run
    // with PE failures armed must fail when it is built, not mid-run.
    let mut cfg = faulty_cfg(CommMode::GpuAware, 0.0, true);
    cfg.checkpoint_every = 2;
    cfg.machine.faults.pe_failures = vec![PeFault {
        at: SimTime::from_ns(100_000),
        pe: 1,
    }];
    let _ = charm::build(cfg);
}
