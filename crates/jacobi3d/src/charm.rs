//! The task-runtime (Charm++-style) version of Jacobi3D.
//!
//! Each block of the global grid is a chare. An iteration is driven
//! entirely by completion messages (no blocking anywhere):
//!
//! 1. `E_PACKED` / `E_POST_ITER` — the single host-device sync point per
//!    iteration (HAPI callback after the packing kernels): swap the
//!    in/out pointers, post channel receives (GPU-aware) and sends.
//! 2. Halo arrivals (`E_ARRIVED` from channels, `E_RECV_HALO` as
//!    host-staged runtime messages) enqueue per-face unpack kernels,
//!    unless a fused-unpack strategy or graph execution defers them.
//! 3. When all halos have arrived *and* all sends have completed
//!    (`all_halos`), the update kernel and the next iteration's packs are
//!    enqueued — or a single captured graph is launched — ending with the
//!    next sync point.
//!
//! The `SyncMode::Original` variant reproduces the paper's
//! pre-optimization baseline: an extra host-device sync after the update
//! and a single stream for transfers and (un)packing (Fig. 6).

use std::sync::Arc;

use gaat_gpu::{CudaEventId, Device, GpuTimingModel, GraphBuilder, NodeIndex};
use gaat_rt::{
    create_channel, Callback, ChannelEnd, Chare, ChareId, ChareSnapshot, Ctx, DeviceId, EntryId,
    Envelope, GraphId, KernelSpec, MemLoc, Op, Simulation, StreamId, WhenSet,
};
use gaat_sim::SimTime;

use crate::app::{CommMode, Fusion, GraphStrategy, JacobiConfig, RunResult, SyncMode};
use crate::block::{self, Block, BlockOwner, Halo};
use crate::geom::{place_chare, Decomp, Face, FACES};

/// Begin execution (injected at t = 0).
pub const E_START: EntryId = EntryId(0);
/// Packing kernels finished (HAPI) — no pointer swap (start / original).
pub const E_PACKED: EntryId = EntryId(1);
/// Update + packs finished (HAPI / graph) — swap and start next exchange.
pub const E_POST_ITER: EntryId = EntryId(2);
/// Update finished (original sync mode's extra sync point).
pub const E_UPDATE_DONE: EntryId = EntryId(3);
/// A channel receive completed (refnum = face index).
pub const E_ARRIVED: EntryId = EntryId(4);
/// A channel send completed (refnum = face index).
pub const E_SEND_DONE: EntryId = EntryId(5);
/// A D2H staging copy completed (host-staging mode; refnum = face index).
pub const E_STAGED: EntryId = EntryId(6);
/// A host-staged halo message arrived (refnum = iteration).
pub const E_RECV_HALO: EntryId = EntryId(7);
/// The final-norm reduction result (delivered to block 0).
pub const E_NORM: EntryId = EntryId(8);
/// Restart after a failure recovery (refnum = the recovery epoch, i.e.
/// the iteration count every block rolled back to).
pub const E_RESUME: EntryId = EntryId(9);

/// Host-staged halo payload.
#[derive(Clone)]
pub struct HaloMsg {
    /// The *receiver's* face this halo belongs to.
    pub face: Face,
    /// Functional payload (None in phantom mode).
    pub data: Option<Vec<f64>>,
}

/// Immutable run-wide parameters shared by all block chares.
#[derive(Debug)]
pub struct Shared {
    /// The experiment.
    pub cfg: JacobiConfig,
    /// Block decomposition (PEs × ODF blocks).
    pub decomp: Decomp,
    /// Reducer id for the final-norm reduction.
    pub norm_reducer: u64,
    /// Chare receiving the reduction result.
    pub root: ChareId,
    /// Participants in the reduction.
    pub nblocks: usize,
}

/// One block of the grid.
#[derive(Clone)]
pub struct BlockChare {
    sh: Arc<Shared>,
    block: Block,
    neighbors: [Option<ChareId>; 6],
    channels: [Option<ChannelEnd>; 6],
    streams: Streams,
    graphs: Option<[GraphId; 2]>,
    iter: usize,
    arrived: usize,
    sends_done: usize,
    pending: WhenSet,
    /// Device holding this block's buffers (tracked so a post-recovery
    /// resume can detect migration and re-provision).
    dev: DeviceId,
    /// Snapshot handed over by [`Chare::restore`], applied at `E_RESUME`
    /// (restore has no machine access, so device memory is written then).
    resume: Option<ChareSnapshot>,
    /// Time this block finished its warm-up iterations.
    pub warm_at: Option<SimTime>,
    /// Time this block finished all iterations.
    pub done_at: Option<SimTime>,
    /// Final-norm reduction result (set on the root block only).
    pub norm_result: Option<f64>,
}

/// The streams and events a block drives its device with.
#[derive(Clone, Copy)]
struct Streams {
    comp: StreamId,
    comm: StreamId,
    d2h: StreamId,
    h2d: StreamId,
    ev_unpacks: CudaEventId,
    ev_update: CudaEventId,
    /// Per-face H2D-done events (host staging only).
    ev_face: [Option<CudaEventId>; 6],
}

impl Streams {
    /// Compute runs at low priority; communication-related work at
    /// `comm_priority` (paper §III-A). The original scheme uses a single
    /// transfer stream; the optimized one splits D2H and H2D.
    fn create(device: &mut Device, cfg: &JacobiConfig, block: &Block) -> Streams {
        let mut ev_face = [None; 6];
        if cfg.comm == CommMode::HostStaging {
            for f in block.faces() {
                ev_face[f.index()] = Some(device.create_event());
            }
        }
        let comp = device.create_stream(0);
        let prio = cfg.comm_priority;
        let comm = device.create_stream(prio);
        let (d2h, h2d) = match cfg.sync {
            SyncMode::Original => (comm, comm),
            SyncMode::Optimized => (device.create_stream(prio), device.create_stream(prio)),
        };
        Streams {
            comp,
            comm,
            d2h,
            h2d,
            ev_unpacks: device.create_event(),
            ev_update: device.create_event(),
            ev_face,
        }
    }
}

/// One iteration's kernel DAG at parity `p`, in graph node order: hand
/// each node's spec, priority class and dependencies to `node`, which
/// returns the node's index. Unpacks and packs run at the communication
/// priority, the update at class 0.
fn iteration_dag(
    cfg: &JacobiConfig,
    block: &Block,
    t: &GpuTimingModel,
    p: usize,
    mut node: impl FnMut(KernelSpec, usize, &[NodeIndex]) -> NodeIndex,
) {
    let class = cfg.comm_priority;
    if cfg.fusion == Fusion::C {
        node(block.fused_all(t, p), 0, &[]);
        return;
    }
    let mut unpacks = [NodeIndex(0); 6];
    let mut n = 0;
    if cfg.fusion == Fusion::B {
        unpacks[0] = node(block.unpack_fused(t, p), class, &[]);
        n = 1;
    } else {
        for f in block.faces() {
            unpacks[n] = node(block.unpack(t, p, f), class, &[]);
            n += 1;
        }
    }
    let update = node(block.update(t, p), 0, &unpacks[..n]);
    if cfg.fusion == Fusion::None {
        for f in block.faces() {
            node(block.pack(t, 1 - p, f), class, &[update]);
        }
    } else {
        node(block.pack_fused(t, 1 - p), class, &[update]);
    }
}

impl BlockChare {
    /// Launch the kernel `spec` builds from this block on `stream`.
    fn launch(
        &self,
        ctx: &mut Ctx<'_>,
        stream: StreamId,
        spec: impl FnOnce(&Block, &GpuTimingModel) -> KernelSpec,
    ) {
        let spec = spec(&self.block, &ctx.machine.cfg.gpu);
        ctx.launch(stream, Op::kernel(spec));
    }

    // ---- iteration driving ----------------------------------------------

    /// Enqueue this iteration's pack kernels (reading `u[p_src]`) and the
    /// HAPI sync point delivering `done` when they complete.
    fn enqueue_packs(&self, ctx: &mut Ctx<'_>, p_src: usize, done: Callback) {
        let comm = self.streams.comm;
        if self.sh.cfg.fusion == Fusion::None {
            for f in self.block.faces() {
                self.launch(ctx, comm, |b, t| b.pack(t, p_src, f));
            }
        } else {
            // C only reaches here for the very first iteration, where
            // there is nothing to fuse the packs *into*.
            self.launch(ctx, comm, |b, t| b.pack_fused(t, p_src));
        }
        ctx.hapi(comm, done);
    }

    /// Crossed an iteration boundary: swap the solution buffers, advance
    /// the counter, record timings, maybe checkpoint; false = run
    /// complete, stop issuing work.
    fn on_iteration_boundary(&mut self, ctx: &mut Ctx<'_>) -> bool {
        self.block.cur = 1 - self.block.cur;
        self.iter += 1;
        self.arrived = 0;
        self.sends_done = 0;
        if self.iter == self.sh.cfg.warmup {
            self.warm_at = Some(ctx.start_time());
        }
        if self.iter >= self.sh.cfg.total_iters() {
            self.done_at = Some(ctx.start_time());
            if self.sh.cfg.compute_norm {
                self.contribute_norm(ctx);
            }
            return false;
        }
        let every = self.sh.cfg.checkpoint_every;
        if every > 0 && self.iter.is_multiple_of(every) {
            // Serialize the iteration count and the interior of the
            // current solution. Ghost cells are excluded — the restart
            // re-runs the halo exchange before the next update reads them.
            let mut floats = Vec::new();
            self.block
                .read_interior(&ctx.machine.devices[self.dev.0].mem, |_, v| floats.push(v));
            let snap = ChareSnapshot {
                ints: vec![self.iter as i64],
                floats,
            };
            ctx.store_checkpoint(self.iter as u64, snap);
        }
        true
    }

    /// Re-create device-side resources on the PE's device after a
    /// migration forced by failure recovery (the old device's allocations
    /// are stranded — acceptable in the model, where device memory is
    /// only accounted at build time). Channels and graphs are per-device
    /// and not rebuilt, so [`build_in`] only arms recovery for
    /// host-staging, non-graph configurations.
    fn reprovision(&mut self, ctx: &mut Ctx<'_>) {
        let dev = ctx.device();
        let device = &mut ctx.machine.devices[dev.0];
        let (sh, cur) = (&self.sh, self.block.cur);
        let real = sh.cfg.machine.real_buffers;
        // The initial field `alloc` writes is never read: the restore
        // overwrites the interior of `u[cur]`, and the next update all of
        // `u[1 - cur]`'s.
        self.block = Block::alloc(&mut device.mem, &sh.decomp, self.block.coord, true, real);
        self.block.cur = cur;
        self.streams = Streams::create(device, &sh.cfg, &self.block);
        self.dev = dev;
    }

    /// Contribute this block's squared norm to the global reduction (the
    /// convergence-monitoring pattern; exercises the runtime's reduction
    /// path from inside the application).
    fn contribute_norm(&mut self, ctx: &mut Ctx<'_>) {
        // Host-side evaluation of the local norm (a real application would
        // launch a reduction kernel; the charge approximates that).
        ctx.compute(gaat_sim::SimDuration::from_us(5));
        let mut local = 0.0;
        self.block
            .read_interior(&ctx.machine.devices[self.dev.0].mem, |_, v| local += v * v);
        let cb = Callback::to(self.sh.root, E_NORM);
        ctx.contribute(self.sh.norm_reducer, 0, local, self.sh.nblocks, cb);
    }

    /// Post receives and sends for the current iteration's halo exchange.
    /// The arrival/send counters are reset at the iteration *transition*
    /// (not here): a fast neighbour's halo may land before our own packs
    /// complete, and it must be counted, not wiped.
    fn begin_exchange(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        match self.sh.cfg.comm {
            CommMode::GpuAware => {
                let device = ctx.device();
                for f in self.block.faces() {
                    let i = f.index();
                    let loc = |which| MemLoc {
                        device,
                        range: self.block.halo(which, f),
                    };
                    let (recv, send) = (loc(Halo::Recv), loc(Halo::Send));
                    let mut ch = self.channels[i].take().expect("channel wired");
                    ch.recv(ctx, recv, Callback::to_ref(me, E_ARRIVED, i as u64));
                    ch.send(ctx, send, Callback::to_ref(me, E_SEND_DONE, i as u64));
                    self.channels[i] = Some(ch);
                }
            }
            CommMode::HostStaging => {
                // Stage each face to the host; E_STAGED per face sends the
                // runtime message.
                for f in self.block.faces() {
                    let b = &self.block;
                    let op = Op::d2h(b.halo(Halo::Send, f), b.halo(Halo::SendHost, f));
                    ctx.launch(self.streams.d2h, op);
                    let staged = Callback::to_ref(me, E_STAGED, f.index() as u64);
                    ctx.hapi(self.streams.d2h, staged);
                }
                // Early halos parked for this iteration?
                let iter = self.iter as u64;
                while let Some(env) = self.pending.take(E_RECV_HALO, iter) {
                    self.handle_staged_halo(ctx, env);
                }
            }
        }
        self.check_exchange_complete(ctx);
    }

    /// A host-staged halo for the *current* iteration: H2D + unpack.
    fn handle_staged_halo(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let msg = env.take::<HaloMsg>();
        let f = msg.face;
        let host = self.block.halo(Halo::RecvHost, f);
        // Functional landing of the payload into the host staging buffer.
        if let Some(data) = &msg.data {
            ctx.machine.devices[self.dev.0].mem.write(host, data);
        }
        let h2d = Op::h2d(host, self.block.halo(Halo::Recv, f));
        let s = self.streams;
        match self.sh.cfg.sync {
            // Single transfer/(un)pack stream: order alone suffices.
            SyncMode::Original => ctx.launch(s.comm, h2d),
            SyncMode::Optimized => {
                let ev = s.ev_face[f.index()].expect("active");
                ctx.gpu_event_reset(ev);
                ctx.launch(s.h2d, h2d);
                ctx.launch_light(s.h2d, Op::record(ev));
                ctx.launch_light(s.comm, Op::wait(ev));
            }
        }
        let cur = self.block.cur;
        self.launch(ctx, s.comm, |b, t| b.unpack(t, cur, f));
        self.arrived += 1;
    }

    fn check_exchange_complete(&mut self, ctx: &mut Ctx<'_>) {
        let n = self.block.faces().count();
        if self.arrived == n && self.sends_done == n {
            self.all_halos(ctx);
        }
    }

    /// Every halo arrived and every send completed: run the back half of
    /// the iteration on the GPU.
    fn all_halos(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        let p = self.block.cur;
        let last = self.iter + 1 >= self.sh.cfg.total_iters();
        let s = self.streams;

        if let Some(graphs) = self.graphs {
            // Halo exchange followed by one graph launch (paper §III-D2).
            let g = match self.sh.cfg.graph_strategy {
                GraphStrategy::TwoGraphs => graphs[p],
                GraphStrategy::UpdateParams => {
                    // Re-parameterize every node for this parity — the
                    // costly alternative the paper rejects.
                    let t = ctx.machine.cfg.gpu.clone();
                    let mut n = 0;
                    iteration_dag(&self.sh.cfg, &self.block, &t, p, |spec, _, _| {
                        ctx.update_graph_kernel(graphs[0], n, spec);
                        n += 1;
                        NodeIndex(n - 1)
                    });
                    graphs[0]
                }
            };
            ctx.launch_graph(s.comp, g, Callback::to(me, E_POST_ITER));
            return;
        }

        match (self.sh.cfg.sync, self.sh.cfg.fusion) {
            (SyncMode::Optimized, Fusion::C) => {
                // One kernel for unpacks + update + packs.
                self.launch(ctx, s.comp, |b, t| b.fused_all(t, p));
                ctx.hapi(s.comp, Callback::to(me, E_POST_ITER));
            }
            (SyncMode::Optimized, fusion) => {
                ctx.gpu_event_reset(s.ev_unpacks);
                ctx.gpu_event_reset(s.ev_update);
                if fusion == Fusion::B {
                    self.launch(ctx, s.comm, |b, t| b.unpack_fused(t, p));
                }
                ctx.launch_light(s.comm, Op::record(s.ev_unpacks));
                ctx.launch_light(s.comp, Op::wait(s.ev_unpacks));
                self.launch(ctx, s.comp, |b, t| b.update(t, p));
                if last {
                    ctx.hapi(s.comp, Callback::to(me, E_POST_ITER));
                } else {
                    ctx.launch_light(s.comp, Op::record(s.ev_update));
                    ctx.launch_light(s.comm, Op::wait(s.ev_update));
                    self.enqueue_packs(ctx, 1 - p, Callback::to(me, E_POST_ITER));
                }
            }
            (SyncMode::Original, _) => {
                // Extra sync point after the update (pre-optimization).
                ctx.gpu_event_reset(s.ev_unpacks);
                ctx.launch_light(s.comm, Op::record(s.ev_unpacks));
                ctx.launch_light(s.comp, Op::wait(s.ev_unpacks));
                self.launch(ctx, s.comp, |b, t| b.update(t, p));
                ctx.hapi(s.comp, Callback::to(me, E_UPDATE_DONE));
            }
        }
    }
}

impl Chare for BlockChare {
    fn receive(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        match env.entry {
            E_START => {
                // Pack the initial field and enter the exchange loop.
                self.enqueue_packs(ctx, self.block.cur, Callback::to(ctx.me(), E_PACKED));
            }
            E_PACKED => self.begin_exchange(ctx),
            E_POST_ITER => {
                if self.on_iteration_boundary(ctx) {
                    self.begin_exchange(ctx);
                }
            }
            E_UPDATE_DONE => {
                // Original sync scheme: swap after the post-update sync,
                // then pack in a separate phase.
                if self.on_iteration_boundary(ctx) {
                    self.enqueue_packs(ctx, self.block.cur, Callback::to(ctx.me(), E_PACKED));
                }
            }
            E_ARRIVED => {
                if !(self.sh.cfg.fusion.defers_unpack() || self.sh.cfg.graphs) {
                    let (f, cur) = (FACES[env.refnum as usize], self.block.cur);
                    self.launch(ctx, self.streams.comm, |b, t| b.unpack(t, cur, f));
                }
                self.arrived += 1;
                self.check_exchange_complete(ctx);
            }
            E_SEND_DONE => {
                self.sends_done += 1;
                self.check_exchange_complete(ctx);
            }
            E_STAGED => {
                // Host-staging: the face's D2H completed; ship the halo as
                // a runtime message.
                let face = FACES[env.refnum as usize];
                let staged = self.block.halo(Halo::SendHost, face);
                let data = ctx.machine.devices[self.dev.0].mem.read(staged);
                let to = self.neighbors[face.index()].expect("active face has neighbor");
                let msg = HaloMsg {
                    face: face.opposite(),
                    data,
                };
                ctx.send(
                    to,
                    Envelope::new(E_RECV_HALO, msg)
                        .with_refnum(self.iter as u64)
                        .with_bytes(staged.len as u64 * 8),
                );
                self.sends_done += 1;
                self.check_exchange_complete(ctx);
            }
            E_NORM => {
                self.norm_result = Some(env.take::<f64>());
            }
            E_RECV_HALO => {
                if env.refnum == self.iter as u64 && self.arrived < self.block.faces().count() {
                    self.handle_staged_halo(ctx, env);
                    self.check_exchange_complete(ctx);
                } else {
                    // A neighbour running ahead: park until we catch up.
                    self.pending.deposit(env);
                }
            }
            E_RESUME => {
                let snap = self.resume.take().expect("restore() ran before E_RESUME");
                let epoch = env.refnum as usize;
                assert_eq!(
                    snap.ints[0] as usize, epoch,
                    "block restored from a different epoch than the recovery line"
                );
                self.iter = epoch;
                self.arrived = 0;
                self.sends_done = 0;
                self.pending = WhenSet::new();
                self.done_at = None;
                if ctx.device() != self.dev {
                    self.reprovision(ctx);
                }
                // Land the checkpointed interior into the current
                // solution buffer; ghosts are refreshed by the exchange
                // the restart re-runs.
                let mut floats = snap.floats.iter();
                self.block
                    .write_interior(&mut ctx.machine.devices[self.dev.0].mem, |_| {
                        *floats.next().expect("checkpoint covers the interior")
                    });
                // Unpack cost of the restore, then rejoin the loop the
                // same way E_START enters it: pack and exchange.
                ctx.compute(gaat_sim::SimDuration::from_us(10));
                self.enqueue_packs(ctx, self.block.cur, Callback::to(ctx.me(), E_PACKED));
            }
            other => panic!("unknown entry {other:?}"),
        }
    }

    fn restore(&mut self, snap: ChareSnapshot) {
        self.resume = Some(snap);
    }

    fn fork(&self) -> Option<Box<dyn Chare>> {
        // All block state is plain data (ids, counters, parked envelopes);
        // device buffers live in the machine's memory pools, which the
        // world fork deep-copies alongside this clone.
        Some(Box::new(self.clone()))
    }
}

impl BlockOwner for BlockChare {
    fn block(&self) -> &Block {
        &self.block
    }

    fn times(&self) -> (Option<SimTime>, Option<SimTime>) {
        (self.warm_at, self.done_at)
    }
}

/// Build the whole Charm-style Jacobi3D simulation: machine, chares,
/// buffers, streams, channels, and (optionally) graphs. Returns the
/// simulation, the chare ids, and the shared parameters.
pub fn build(cfg: JacobiConfig) -> (Simulation, Vec<ChareId>, Arc<Shared>) {
    let sim = Simulation::new(cfg.machine.clone());
    build_in(sim, cfg)
}

/// Like [`build`], but constructing the application inside a
/// caller-provided simulation — typically one prepared by a
/// `gaat_rt::WorldSlot`, so the engine's heap allocations are recycled
/// across a sweep. The simulation must have been built from
/// `cfg.machine` (same shape, seed, and fault plan).
///
/// Panics on a configuration this version cannot run: an MPI-only knob
/// (`overlap`, `virtual_ranks`) off its default, or PE failures or the
/// LB armed without checkpoints or on a GPU-aware or graph
/// configuration, whose channels and graphs a migrated block cannot
/// rebuild.
pub fn build_in(mut sim: Simulation, cfg: JacobiConfig) -> (Simulation, Vec<ChareId>, Arc<Shared>) {
    cfg.validate();
    assert!(
        !cfg.overlap && cfg.virtual_ranks == 1,
        "the task-runtime version ignores overlap and virtual_ranks; leave them at their defaults"
    );
    let recovery = !cfg.machine.faults.pe_failures.is_empty() || cfg.machine.lb.enabled();
    if recovery {
        assert!(
            cfg.checkpoint_every > 0,
            "PE failures or the adaptive LB are armed but checkpointing is off"
        );
        assert!(
            cfg.comm == CommMode::HostStaging && !cfg.graphs,
            "post-recovery migration requires host-staging, non-graph config"
        );
    }
    debug_assert_eq!(sim.machine.cfg.total_pes(), cfg.machine.total_pes());
    let pes = cfg.machine.total_pes();
    let nblocks = pes * cfg.odf;
    let decomp = Decomp::new(cfg.global, nblocks);
    let (host, real) = (cfg.comm == CommMode::HostStaging, cfg.machine.real_buffers);
    let norm_reducer = sim.machine.create_reducer();
    let base = sim.machine.chare_count();
    let ids: Vec<ChareId> = (0..nblocks).map(|i| ChareId(base + i)).collect();
    let sh = Arc::new(Shared {
        cfg: cfg.clone(),
        decomp,
        norm_reducer,
        root: ids[0],
        nblocks,
    });

    for bi in 0..nblocks {
        let coord = sh.decomp.coord_of(bi);
        let pe = place_chare(bi, nblocks, pes, cfg.placement);
        let dev = sim.machine.pe_device(pe);
        let device = &mut sim.machine.devices[dev.0];
        let block = Block::alloc(&mut device.mem, &sh.decomp, coord, host, real);
        let streams = Streams::create(device, &cfg, &block);
        let graphs = cfg.graphs.then(|| build_graphs(&cfg, &block, device));
        let mut neighbors = [None; 6];
        for f in block.faces() {
            let n = sh.decomp.neighbor(coord, f).expect("active face");
            neighbors[f.index()] = Some(ids[sh.decomp.index_of(n)]);
        }
        let chare = BlockChare {
            sh: sh.clone(),
            block,
            neighbors,
            channels: Default::default(),
            streams,
            graphs,
            iter: 0,
            arrived: 0,
            sends_done: 0,
            pending: WhenSet::new(),
            dev,
            resume: None,
            warm_at: (cfg.warmup == 0).then_some(SimTime::ZERO),
            done_at: None,
            norm_result: None,
        };
        let id = sim.machine.create_chare(pe, Box::new(chare));
        assert_eq!(id, ids[bi]);
    }

    for d in &sim.machine.devices {
        d.assert_memory_fits();
    }

    if recovery {
        sim.machine.set_recovery_resume(ids.clone(), E_RESUME);
    }

    // Wire channels (GPU-aware mode).
    if cfg.comm == CommMode::GpuAware {
        for bi in 0..nblocks {
            let coord = sh.decomp.coord_of(bi);
            for f in sh.decomp.active_faces(coord) {
                let n = sh.decomp.neighbor(coord, f).expect("active");
                let ni = sh.decomp.index_of(n);
                if bi < ni {
                    let (ea, eb) = create_channel(&mut sim.machine, ids[bi], ids[ni]);
                    set_channel(&mut sim.machine, ids[bi], f, ea);
                    set_channel(&mut sim.machine, ids[ni], f.opposite(), eb);
                }
            }
        }
    }

    (sim, ids, sh)
}

fn set_channel(m: &mut gaat_rt::Machine, id: ChareId, f: Face, end: ChannelEnd) {
    let any = m.chare_for_setup(id);
    let block = any.downcast_mut::<BlockChare>().expect("block chare");
    block.channels[f.index()] = Some(end);
}

/// Capture a block's two per-parity iteration graphs.
fn build_graphs(cfg: &JacobiConfig, block: &Block, device: &mut Device) -> [GraphId; 2] {
    let t = device.timing.clone();
    [0, 1].map(|p| {
        let mut b = GraphBuilder::new();
        iteration_dag(cfg, block, &t, p, |spec, class, deps| {
            b.kernel(spec, class, deps)
        });
        device.register_graph(b.build())
    })
}

/// Run a built simulation to completion and collect the result; panics
/// if any block stalls.
pub fn run(sim: &mut Simulation, ids: &[ChareId], sh: &Shared) -> RunResult {
    match run_tolerant(sim, ids, sh) {
        (Some(r), _) => r,
        (None, stalled) => panic!("{stalled} blocks stalled before finishing"),
    }
}

/// Start the application and run to quiescence, tolerating stalls: with
/// the reliable transport off and message drops armed, a block that
/// loses a halo message parks forever and the queue drains early.
/// Returns the result if every block finished, plus the stalled-block
/// count. This is the sweep engine's runner — a drop-rate axis must not
/// abort the whole grid.
pub fn run_tolerant(
    sim: &mut Simulation,
    ids: &[ChareId],
    sh: &Shared,
) -> (Option<RunResult>, usize) {
    start(sim, ids);
    finish_tolerant(sim, ids, sh)
}

/// Tree-broadcast `E_START` to every block without running the engine
/// (the `block_proxy.run()` of the paper's Fig. 3; startup is outside
/// the timed region, but the costs are real). The sweep memoizer needs
/// the start and the drain as separate steps so it can pause at a
/// fault-onset instant, snapshot the world, and fork; [`run_tolerant`]
/// is exactly `start` + [`finish_tolerant`].
pub fn start(sim: &mut Simulation, ids: &[ChareId]) {
    let Simulation { sim, machine, .. } = sim;
    machine.broadcast(sim, ids, E_START, 0);
}

/// Drain an already-started run to quiescence and collect, tolerating
/// stalls (see [`run_tolerant`]). Also the second half of a forked
/// branch: after a [`Simulation::restore`] the broadcast is already in
/// the replayed event state, so the branch resumes here directly.
pub fn finish_tolerant(
    sim: &mut Simulation,
    ids: &[ChareId],
    sh: &Shared,
) -> (Option<RunResult>, usize) {
    let outcome = sim.run();
    assert_eq!(
        outcome,
        gaat_rt::RunOutcome::Drained,
        "simulation should quiesce"
    );
    let stalled = ids
        .iter()
        .filter(|&&id| sim.machine.chare_as::<BlockChare>(id).done_at.is_none())
        .count();
    if stalled > 0 {
        return (None, stalled);
    }
    let norm = sh.cfg.compute_norm.then(|| {
        let root = sim.machine.chare_as::<BlockChare>(sh.root);
        root.norm_result.expect("norm reduction completed")
    });
    let result = block::fold_result::<BlockChare>(sim, ids, &sh.cfg, norm);
    (Some(result), 0)
}

/// Sum of squares of the final field (`None` in phantom mode). The field
/// is reconstructed in global order first, so the checksum is independent
/// of the decomposition and bit-comparable across variants.
pub fn checksum(sim: &Simulation, ids: &[ChareId], sh: &Shared) -> Option<f64> {
    block::checksum::<BlockChare>(sim, ids, &sh.cfg)
}

/// Compare every block's final field against the sequential reference,
/// bit-for-bit. Returns the number of cells compared.
pub fn validate_against_reference(sim: &Simulation, ids: &[ChareId], sh: &Shared) -> usize {
    block::validate::<BlockChare>(sim, ids, &sh.cfg)
}
