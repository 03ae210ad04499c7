//! One block of the Jacobi3D grid, shared by the task-runtime and MPI
//! versions: its two ghosted solution buffers, its per-face halo
//! buffers, and the kernel specs that pack, unpack and update it.
//!
//! A stream launch and a captured graph node are two ways to execute the
//! same spec, so both come from the builders here. Parity `p` names the
//! solution buffer an iteration reads: unpacks land in `u[p]`, the
//! update reads `u[p]` and writes `u[1 - p]`, and a pack reads whichever
//! buffer it is given.
//!
//! The run-level folds both versions share (checksum, validation against
//! the reference, the [`RunResult`]) read blocks through `BlockOwner`.

use gaat_gpu::{GpuTimingModel, MemoryPool};
use gaat_rt::{BufRange, BufferId, Chare, ChareId, KernelSpec, Simulation, Space};
use gaat_sim::SimTime;

use crate::app::{JacobiConfig, RunResult};
use crate::geom::{Decomp, Dims, Face, FACES};
use crate::kernels;
use crate::reference::{initial_value, Reference};

/// One buffer per face; `None` on faces without a neighbour.
type Halos = [Option<BufferId>; 6];

/// Which of a face's four halo buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halo {
    /// Device buffer the pack kernel fills.
    Send,
    /// Device buffer the unpack kernel drains.
    Recv,
    /// Host staging copy of `Send` (host staging only).
    SendHost,
    /// Host staging copy of `Recv` (host staging only).
    RecvHost,
}

/// A block's buffers and its position in the global grid.
#[derive(Debug, Clone)]
pub struct Block {
    /// Block coordinate in the decomposition.
    pub coord: (usize, usize, usize),
    /// Interior extents.
    pub dims: Dims,
    /// Global coordinate of the first interior cell.
    pub origin: (usize, usize, usize),
    /// The two solution buffers (in/out, swapped every iteration).
    pub u: [BufferId; 2],
    /// Index into `u` of the current solution.
    pub cur: usize,
    /// Halo buffers, indexed by [`Halo`].
    halos: [Halos; 4],
}

impl Block {
    /// Allocate block `coord`'s buffers in `mem` — the two solution
    /// buffers, then per active face the device send and receive halos
    /// and, with `host`, their host staging copies — and write the
    /// initial field into `u[0]`.
    pub fn alloc(
        mem: &mut MemoryPool,
        decomp: &Decomp,
        coord: (usize, usize, usize),
        host: bool,
        real: bool,
    ) -> Block {
        let dims = decomp.block_dims(coord);
        let len = kernels::ghosted_len(dims);
        let u = [
            mem.alloc(Space::Device, len, real),
            mem.alloc(Space::Device, len, real),
        ];
        let mut halos = [[None; 6]; 4];
        for f in decomp.active_faces(coord) {
            let (cells, i) = (f.area(dims), f.index());
            halos[Halo::Send as usize][i] = Some(mem.alloc(Space::Device, cells, real));
            halos[Halo::Recv as usize][i] = Some(mem.alloc(Space::Device, cells, real));
            if host {
                halos[Halo::SendHost as usize][i] = Some(mem.alloc(Space::Host, cells, real));
                halos[Halo::RecvHost as usize][i] = Some(mem.alloc(Space::Host, cells, real));
            }
        }
        let block = Block {
            coord,
            dims,
            origin: decomp.block_origin(coord),
            u,
            cur: 0,
            halos,
        };
        block.write_interior(mem, |(x, y, z)| initial_value(x, y, z));
        block
    }

    /// The faces with a neighbour, in [`FACES`] order.
    pub fn faces(&self) -> impl Iterator<Item = Face> {
        let send = self.halos[Halo::Send as usize];
        FACES.into_iter().filter(move |f| send[f.index()].is_some())
    }

    /// The whole `which` halo buffer of face `f`.
    pub fn halo(&self, which: Halo, f: Face) -> BufRange {
        let buf = self.halos[which as usize][f.index()].expect("active face with this halo");
        BufRange::whole(buf, f.area(self.dims))
    }

    /// Cells per face (0 on faces without a neighbour), for the fused
    /// work models.
    fn face_cells(&self) -> [usize; 6] {
        let mut cells = [0; 6];
        for f in self.faces() {
            cells[f.index()] = f.area(self.dims);
        }
        cells
    }

    // ---- kernel specs --------------------------------------------------

    /// Pack face `f` of `u[p]` into its send halo.
    pub fn pack(&self, t: &GpuTimingModel, p: usize, f: Face) -> KernelSpec {
        let (u, h, d) = (self.u[p], self.halo(Halo::Send, f).buf, self.dims);
        let work = kernels::copy_work(t, f.area(d));
        KernelSpec::with_func("pack", work, move |m| kernels::pack(m, u, h, d, f))
    }

    /// Unpack face `f`'s receive halo into the ghosts of `u[p]`.
    pub fn unpack(&self, t: &GpuTimingModel, p: usize, f: Face) -> KernelSpec {
        let (u, h, d) = (self.u[p], self.halo(Halo::Recv, f).buf, self.dims);
        let work = kernels::copy_work(t, f.area(d));
        KernelSpec::with_func("unpack", work, move |m| kernels::unpack(m, u, h, d, f))
    }

    /// Relax `u[p]` into `u[1 - p]`.
    pub fn update(&self, t: &GpuTimingModel, p: usize) -> KernelSpec {
        let (uin, uout, d) = (self.u[p], self.u[1 - p], self.dims);
        let work = kernels::update_work(t, d.count());
        KernelSpec::with_func("update", work, move |m| kernels::update(m, uin, uout, d))
    }

    /// Every face's pack of `u[p]` in one kernel (fusion A and B).
    pub fn pack_fused(&self, t: &GpuTimingModel, p: usize) -> KernelSpec {
        let (u, send, d) = (self.u[p], self.halos[Halo::Send as usize], self.dims);
        let work = kernels::fused_copy_work(t, &self.face_cells());
        KernelSpec::with_func("pack_fused", work, move |m| {
            for (f, h) in active(&send) {
                kernels::pack(m, u, h, d, f);
            }
        })
    }

    /// Every face's unpack into `u[p]` in one kernel (fusion B).
    pub fn unpack_fused(&self, t: &GpuTimingModel, p: usize) -> KernelSpec {
        let (u, recv, d) = (self.u[p], self.halos[Halo::Recv as usize], self.dims);
        let work = kernels::fused_copy_work(t, &self.face_cells());
        KernelSpec::with_func("unpack_fused", work, move |m| {
            for (f, h) in active(&recv) {
                kernels::unpack(m, u, h, d, f);
            }
        })
    }

    /// Unpacks into `u[p]`, the update, and the packs of `u[1 - p]` in
    /// one kernel (fusion C).
    pub fn fused_all(&self, t: &GpuTimingModel, p: usize) -> KernelSpec {
        let (uin, uout, d) = (self.u[p], self.u[1 - p], self.dims);
        let [send, recv] = [Halo::Send, Halo::Recv].map(|h| self.halos[h as usize]);
        let work = kernels::fused_all_work(t, d.count(), &self.face_cells());
        KernelSpec::with_func("fused_all", work, move |m| {
            for (f, h) in active(&recv) {
                kernels::unpack(m, uin, h, d, f);
            }
            kernels::update(m, uin, uout, d);
            for (f, h) in active(&send) {
                kernels::pack(m, uout, h, d, f);
            }
        })
    }

    // ---- interior access ---------------------------------------------

    /// Visit every interior cell in z-y-x order as (global coordinates,
    /// index into a ghosted buffer).
    fn each_cell(&self, mut f: impl FnMut((usize, usize, usize), usize)) {
        let (d, o) = (self.dims, self.origin);
        for z in 1..=d.z {
            for y in 1..=d.y {
                for x in 1..=d.x {
                    f(
                        (o.0 + x - 1, o.1 + y - 1, o.2 + z - 1),
                        kernels::idx(d, x, y, z),
                    );
                }
            }
        }
    }

    /// Hand every interior cell of the current solution to `f` with its
    /// global coordinates, in z-y-x order; `None` in phantom mode.
    pub fn read_interior(
        &self,
        mem: &MemoryPool,
        mut f: impl FnMut((usize, usize, usize), f64),
    ) -> Option<()> {
        let s = mem.get(self.u[self.cur]).as_slice()?;
        self.each_cell(|g, i| f(g, s[i]));
        Some(())
    }

    /// Set every interior cell of the current solution to `value` of its
    /// global coordinates, in z-y-x order; a no-op in phantom mode.
    pub fn write_interior(
        &self,
        mem: &mut MemoryPool,
        mut value: impl FnMut((usize, usize, usize)) -> f64,
    ) {
        if let Some(s) = mem.get_mut(self.u[self.cur]).as_mut_slice() {
            self.each_cell(|g, i| s[i] = value(g));
        }
    }
}

/// The (face, buffer) pairs of the faces with a neighbour.
fn active(halos: &Halos) -> impl Iterator<Item = (Face, BufferId)> + '_ {
    FACES
        .into_iter()
        .zip(halos)
        .filter_map(|(f, h)| Some((f, (*h)?)))
}

/// A chare that owns one [`Block`]: a task-runtime block or an MPI rank.
pub(crate) trait BlockOwner: Chare {
    /// The block.
    fn block(&self) -> &Block;
    /// When the block finished its warm-up and all its iterations.
    fn times(&self) -> (Option<SimTime>, Option<SimTime>);
}

/// Every owner in `ids` with the memory pool of its current device.
fn owners<'a, T: BlockOwner>(
    sim: &'a Simulation,
    ids: &'a [ChareId],
) -> impl Iterator<Item = (&'a T, &'a MemoryPool)> + 'a {
    ids.iter().map(move |&id| {
        let dev = sim.machine.pe_device(sim.machine.pe_of(id));
        (
            sim.machine.chare_as::<T>(id),
            &sim.machine.devices[dev.0].mem,
        )
    })
}

/// Sum of squares of the final field (`None` in phantom mode). The field
/// is reconstructed in global order first, so the checksum is independent
/// of the decomposition and bit-comparable across variants.
pub(crate) fn checksum<T: BlockOwner>(
    sim: &Simulation,
    ids: &[ChareId],
    cfg: &JacobiConfig,
) -> Option<f64> {
    if !cfg.machine.real_buffers {
        return None;
    }
    let g = cfg.global;
    let mut field = vec![0.0f64; g.count()];
    for (owner, mem) in owners::<T>(sim, ids) {
        owner
            .block()
            .read_interior(mem, |(x, y, z), v| field[(z * g.y + y) * g.x + x] = v)?;
    }
    Some(field.iter().map(|v| v * v).sum())
}

/// Compare every block's final field against the sequential reference,
/// bit for bit. Returns the number of cells compared.
pub(crate) fn validate<T: BlockOwner>(
    sim: &Simulation,
    ids: &[ChareId],
    cfg: &JacobiConfig,
) -> usize {
    let mut reference = Reference::new(cfg.global);
    reference.run(cfg.total_iters());
    let mut compared = 0;
    for (owner, mem) in owners::<T>(sim, ids) {
        owner
            .block()
            .read_interior(mem, |(x, y, z), got| {
                let want = reference.at(x, y, z);
                assert_eq!(got, want, "cell ({x},{y},{z}): {got} != {want}");
                compared += 1;
            })
            .expect("validation needs real buffers");
    }
    compared
}

/// Fold a drained run in which every block finished into a
/// [`RunResult`].
pub(crate) fn fold_result<T: BlockOwner>(
    sim: &Simulation,
    ids: &[ChareId],
    cfg: &JacobiConfig,
    reduced_norm: Option<f64>,
) -> RunResult {
    let (mut warm, mut done) = (SimTime::ZERO, SimTime::ZERO);
    for &id in ids {
        let (w, d) = sim.machine.chare_as::<T>(id).times();
        warm = warm.max(w.expect("block warmed up"));
        done = done.max(d.expect("block finished"));
    }
    let devices = &sim.machine.devices;
    let pes = sim.machine.pes.len();
    let cpu_utilization = (0..pes)
        .map(|p| sim.machine.pe_utilization(p, done))
        .sum::<f64>()
        / pes as f64;
    RunResult {
        time_per_iter: done.since(warm) / cfg.iters as u64,
        total: done.since(SimTime::ZERO),
        warm_at: warm,
        checksum: checksum::<T>(sim, ids, cfg),
        entries: sim.machine.stats().entries,
        kernels: devices.iter().map(|d| d.stats().kernels).sum(),
        graph_launches: devices.iter().map(|d| d.stats().graph_launches).sum(),
        cpu_utilization,
        reduced_norm,
    }
}
