//! The MPI version of Jacobi3D (paper Fig. 1): one rank per PE/GPU,
//! nonblocking halo exchange with `Waitall`, and blocking
//! stream-synchronize between GPU phases — the classic structure whose
//! lost overlap motivates the task-runtime approach.
//!
//! Variants: host staging (MPI-H) vs CUDA-aware (MPI-D), and the optional
//! *manual overlap* pattern from Fig. 1b (interior update overlapped with
//! the halo exchange) as an extension.

use std::sync::Arc;

use gaat_mpi::Mpi;
use gaat_rt::{Callback, Chare, ChareId, Ctx, EntryId, Envelope, MemLoc, Op, Simulation, StreamId};
use gaat_sim::SimTime;

use crate::app::{CommMode, Fusion, JacobiConfig, Placement, RunResult, SyncMode};
use crate::block::{self, Block, BlockOwner, Halo};
use crate::geom::Decomp;
use crate::kernels;

/// Begin execution.
pub const E_START: EntryId = EntryId(0);
/// Request-completion callbacks (routed to [`Mpi::on_request_done`]).
pub const E_REQ: EntryId = EntryId(1);
/// Pack kernels done (post stream-sync).
pub const E_PACKED: EntryId = EntryId(2);
/// D2H staging done (host-staging mode).
pub const E_STAGED: EntryId = EntryId(3);
/// Waitall finished.
pub const E_COMM_DONE: EntryId = EntryId(4);
/// Update done; iteration boundary.
pub const E_ITER_DONE: EntryId = EntryId(5);

/// Immutable run-wide parameters.
#[derive(Debug)]
pub struct MpiShared {
    /// The experiment.
    pub cfg: JacobiConfig,
    /// One block per rank.
    pub decomp: Decomp,
}

/// One MPI rank owning one block.
pub struct JacobiRank {
    mpi: Mpi,
    sh: Arc<MpiShared>,
    block: Block,
    /// Neighbour rank across each face.
    neighbors: [Option<usize>; 6],
    stream: StreamId,
    iter: usize,
    /// Warm-up completion time.
    pub warm_at: Option<SimTime>,
    /// Final completion time.
    pub done_at: Option<SimTime>,
}

impl JacobiRank {
    fn host_staging(&self) -> bool {
        self.sh.cfg.comm == CommMode::HostStaging
    }

    fn interior_cells(&self) -> usize {
        let d = self.block.dims;
        d.x.saturating_sub(2) * d.y.saturating_sub(2) * d.z.saturating_sub(2)
    }

    /// Blocking wait on the GPU stream — except under AMPI-style
    /// virtualization, where the user-level thread yields (asynchronous
    /// detection) so co-located ranks keep the PE busy.
    fn gpu_wait(&self, ctx: &mut Ctx<'_>, resume: EntryId) {
        let me = ctx.me();
        if self.sh.cfg.virtual_ranks > 1 {
            ctx.hapi(self.stream, Callback::to(me, resume));
        } else {
            ctx.stream_sync(self.stream, Callback::to(me, resume));
        }
    }

    /// Phase 1: pack all faces, then synchronize.
    fn step_pack(&mut self, ctx: &mut Ctx<'_>) {
        for f in self.block.faces() {
            let spec = self.block.pack(&ctx.machine.cfg.gpu, self.block.cur, f);
            ctx.launch(self.stream, Op::kernel(spec));
        }
        self.gpu_wait(ctx, E_PACKED);
    }

    /// Phase 2 (host staging only): D2H all faces, then synchronize.
    fn step_stage_out(&mut self, ctx: &mut Ctx<'_>) {
        for f in self.block.faces() {
            let b = &self.block;
            ctx.launch(
                self.stream,
                Op::d2h(b.halo(Halo::Send, f), b.halo(Halo::SendHost, f)),
            );
        }
        self.gpu_wait(ctx, E_STAGED);
    }

    /// Phase 3: post all sends and receives, optionally overlap the
    /// interior update, then wait for everything.
    fn step_comm(&mut self, ctx: &mut Ctx<'_>) {
        let device = ctx.device();
        let (send, recv) = if self.host_staging() {
            (Halo::SendHost, Halo::RecvHost)
        } else {
            (Halo::Send, Halo::Recv)
        };
        for f in self.block.faces() {
            let nb = self.neighbors[f.index()].expect("active face");
            let loc = |which| MemLoc {
                device,
                range: self.block.halo(which, f),
            };
            let (sloc, rloc) = (loc(send), loc(recv));
            // Tag = the *sender's* face index, so my receive across face f
            // matches the neighbour's send from f.opposite().
            self.mpi.irecv(ctx, nb, f.opposite().index() as u64, rloc);
            self.mpi.isend(ctx, nb, f.index() as u64, sloc);
        }
        if self.sh.cfg.overlap {
            // Manual overlap (Fig. 1b): the interior does not depend on
            // halo data.
            let work = kernels::update_work(&ctx.machine.cfg.gpu, self.interior_cells());
            ctx.launch(
                self.stream,
                Op::kernel(gaat_rt::KernelSpec::phantom("update_interior", work)),
            );
        }
        self.mpi.wait_all(ctx, E_COMM_DONE, self.iter as u64);
    }

    /// Phase 4: stage in (host mode), unpack, update the block (exterior
    /// only under manual overlap), then synchronize into the iteration
    /// boundary.
    fn step_update(&mut self, ctx: &mut Ctx<'_>) {
        let (b, cur) = (&self.block, self.block.cur);
        for f in b.faces() {
            if self.host_staging() {
                ctx.launch(
                    self.stream,
                    Op::h2d(b.halo(Halo::RecvHost, f), b.halo(Halo::Recv, f)),
                );
            }
            let spec = b.unpack(&ctx.machine.cfg.gpu, cur, f);
            ctx.launch(self.stream, Op::kernel(spec));
        }
        let mut spec = b.update(&ctx.machine.cfg.gpu, cur);
        if self.sh.cfg.overlap {
            // Only the exterior remains to be charged; the functional
            // effect is still the full sweep (the interior phantom kernel
            // carried none).
            let exterior = b.dims.count() - self.interior_cells();
            spec.name = "update_exterior";
            spec.work = kernels::update_work(&ctx.machine.cfg.gpu, exterior);
        }
        ctx.launch(self.stream, Op::kernel(spec));
        self.gpu_wait(ctx, E_ITER_DONE);
    }
}

impl Chare for JacobiRank {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        match env.entry {
            E_START => self.step_pack(ctx),
            E_REQ => self.mpi.on_request_done(ctx, env),
            E_PACKED => {
                if self.host_staging() {
                    self.step_stage_out(ctx);
                } else {
                    self.step_comm(ctx);
                }
            }
            E_STAGED => self.step_comm(ctx),
            E_COMM_DONE => self.step_update(ctx),
            E_ITER_DONE => {
                self.block.cur = 1 - self.block.cur;
                self.iter += 1;
                if self.iter == self.sh.cfg.warmup {
                    self.warm_at = Some(ctx.start_time());
                }
                if self.iter >= self.sh.cfg.total_iters() {
                    self.done_at = Some(ctx.start_time());
                } else {
                    self.step_pack(ctx);
                }
            }
            other => panic!("unknown entry {other:?}"),
        }
    }
}

impl BlockOwner for JacobiRank {
    fn block(&self) -> &Block {
        &self.block
    }

    fn times(&self) -> (Option<SimTime>, Option<SimTime>) {
        (self.warm_at, self.done_at)
    }
}

/// Build the MPI Jacobi3D simulation: one rank per PE.
pub fn build(cfg: JacobiConfig) -> (Simulation, Vec<ChareId>, Arc<MpiShared>) {
    let sim = Simulation::new(cfg.machine.clone());
    build_in(sim, cfg)
}

/// [`build`] into a caller-provided engine (a recycled
/// [`gaat_rt::WorldSlot`] world), so batched sweeps can reuse engines
/// across MPI-variant runs exactly as they do for the task runtime.
///
/// Panics if a knob only the task-runtime version reads (`odf`,
/// `fusion`, `graphs`, `sync`, `placement`, `comm_priority`,
/// `compute_norm`, `checkpoint_every`) is off its default.
pub fn build_in(
    mut sim: Simulation,
    cfg: JacobiConfig,
) -> (Simulation, Vec<ChareId>, Arc<MpiShared>) {
    cfg.validate();
    assert_eq!(
        cfg.odf, 1,
        "the MPI versions always run one rank per PE (use the task runtime for ODF > 1, \
         or virtual_ranks for AMPI-style virtualization)"
    );
    assert!(
        cfg.fusion == Fusion::None
            && !cfg.graphs
            && cfg.sync == SyncMode::Optimized
            && cfg.placement == Placement::Packed
            && cfg.comm_priority == 2
            && !cfg.compute_norm
            && cfg.checkpoint_every == 0,
        "the MPI versions ignore fusion, graphs, sync, placement, comm_priority, \
         compute_norm and checkpoint_every; leave them at their defaults"
    );
    let pes = cfg.machine.total_pes();
    let nranks = pes * cfg.virtual_ranks;
    let decomp = Decomp::new(cfg.global, nranks);
    let (host, real) = (cfg.comm == CommMode::HostStaging, cfg.machine.real_buffers);
    let sh = Arc::new(MpiShared {
        cfg: cfg.clone(),
        decomp,
    });

    // Pre-allocate per-rank GPU resources (the factory below cannot touch
    // the machine while `create_ranks` holds it).
    let mut pre = Vec::with_capacity(nranks);
    for rank in 0..nranks {
        let coord = sh.decomp.coord_of(rank);
        let device = &mut sim.machine.devices[rank / cfg.virtual_ranks];
        let block = Block::alloc(&mut device.mem, &sh.decomp, coord, host, real);
        let mut neighbors = [None; 6];
        for f in block.faces() {
            let n = sh.decomp.neighbor(coord, f).expect("active");
            neighbors[f.index()] = Some(sh.decomp.index_of(n));
        }
        let stream = device.create_stream(1);
        pre.push((block, neighbors, stream));
    }

    for d in &sim.machine.devices {
        d.assert_memory_fits();
    }

    let (sh2, mut pre) = (sh.clone(), pre.into_iter());
    let ids = gaat_mpi::create_ranks(
        &mut sim,
        nranks,
        cfg.virtual_ranks,
        E_REQ,
        move |_rank, mpi| {
            let (block, neighbors, stream) = pre.next().expect("one factory call per rank");
            JacobiRank {
                mpi,
                sh: sh2.clone(),
                block,
                neighbors,
                stream,
                iter: 0,
                warm_at: (sh2.cfg.warmup == 0).then_some(SimTime::ZERO),
                done_at: None,
            }
        },
    );
    (sim, ids, sh)
}

/// Run a built MPI simulation and collect the result.
pub fn run(sim: &mut Simulation, ids: &[ChareId], sh: &MpiShared) -> RunResult {
    gaat_mpi::start_all(sim, ids, E_START);
    let outcome = sim.run();
    assert_eq!(outcome, gaat_rt::RunOutcome::Drained, "should quiesce");
    block::fold_result::<JacobiRank>(sim, ids, &sh.cfg, None)
}

/// Sum of squares of the final field (`None` in phantom mode),
/// reconstructed in global order so it is bit-comparable across variants
/// and decompositions.
pub fn checksum(sim: &Simulation, ids: &[ChareId], sh: &MpiShared) -> Option<f64> {
    block::checksum::<JacobiRank>(sim, ids, &sh.cfg)
}

/// Bit-exact comparison of every rank's final block against the
/// sequential reference.
pub fn validate_against_reference(sim: &Simulation, ids: &[ChareId], sh: &MpiShared) -> usize {
    block::validate::<JacobiRank>(sim, ids, &sh.cfg)
}
