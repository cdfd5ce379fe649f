//! [`MultiFab`]: the core data container — one fab per box of a
//! [`BoxArray`], distributed over ranks by a [`DistributionMapping`].
//!
//! In a real MPI run each rank allocates only its own fabs; this
//! reproduction holds every fab in one address space (there is no MPI here)
//! but keeps the ownership information, and `fill_boundary` returns a
//! [`CommTrace`] recording exactly which rank pairs exchanged how many bytes.
//! The `exastro-machine` cluster simulator charges its network model from
//! these traces, so the communication volumes behind the weak-scaling
//! figures come from the *actual* ghost-exchange pattern of the real data.

use crate::boxarray::BoxArray;
use crate::distribution::DistributionMapping;
use crate::fab::{Array4Mut, FArrayBox};
use crate::geometry::Geometry;
use exastro_parallel::{
    par_each_mut, par_each_mut_bounded, par_index_each, par_map_fold, IndexBox, IntVect, Profiler,
    Real, TaskClass, TaskGraph, TaskLabel, WorkerPool, SPACEDIM,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// One point-to-point message in a communication trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// A record of the communication performed by one collective operation.
#[derive(Clone, Debug, Default)]
pub struct CommTrace {
    /// Off-rank messages (src != dst).
    pub messages: Vec<Message>,
    /// Bytes moved between boxes on the same rank (no network cost).
    pub local_bytes: u64,
}

impl CommTrace {
    /// Total bytes crossing the network.
    pub fn network_bytes(&self) -> u64 {
        self.messages.iter().map(|m| m.bytes).sum()
    }

    /// Merge another trace into this one.
    pub fn merge(&mut self, other: &CommTrace) {
        self.messages.extend_from_slice(&other.messages);
        self.local_bytes += other.local_bytes;
    }

    /// Bytes sent by each rank (length `nranks`).
    pub fn bytes_sent_per_rank(&self, nranks: usize) -> Vec<u64> {
        let mut out = vec![0u64; nranks];
        for m in &self.messages {
            out[m.src] += m.bytes;
        }
        out
    }
}

/// Which ghost zones of each fab an exchange fills.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GhostShape {
    /// The whole halo: the valid box grown by `ngrow` in every direction,
    /// edges and corners included.
    Full,
    /// Only the two slabs along direction `d`, `vb.grow_dir(d, ngrow) \ vb`:
    /// all that a dimensionally split sweep along `d` reads.
    Slabs(usize),
}

impl GhostShape {
    /// The box whose ghost zones (those outside `vb`) this shape fills.
    fn fill_box(self, vb: IndexBox, ngrow: i32) -> IndexBox {
        match self {
            GhostShape::Full => vb.grow(ngrow),
            GhostShape::Slabs(d) => vb.grow_dir(d, ngrow),
        }
    }
}

/// One planned ghost-zone copy: fill `region` (destination index space) of
/// fab `dst` from fab `src`, reading `iv - shift` (periodic image shift).
#[derive(Clone, Copy, Debug)]
struct GhostOp {
    src: usize,
    dst: usize,
    region: IndexBox,
    shift: IntVect,
}

/// An in-flight ghost exchange: the first phase of the two-phase comm API.
///
/// Produced by [`MultiFab::post_fill_boundary`] (planned **and** packed — the
/// MPI-isend analogue) or, planned only, inside a [`HaloGraph`], which stages
/// packing and unpacking as tasks. Carries the partial [`CommTrace`], priced
/// at planning time: the exchange pattern depends only on the box layout, so
/// the trace is complete before any data moves and is byte-identical to the
/// bulk-synchronous trace.
///
/// Completion paths:
/// * [`PendingComm::wait`] — pack anything still pending, unpack every ghost
///   region into the target multifab, return the trace. `post` + `wait` is
///   exactly the one-shot `fill_boundary`.
/// * [`HaloGraph::run`] — pack ops and per-fab unpacks become graph nodes
///   with ghost-exchange edges, and the trace is returned once every op has
///   completed.
///
/// Buffers are individually locked so graph tasks can pack/unpack disjoint
/// ops concurrently; per-destination unpacks apply ops in planning order, so
/// the result is bit-identical under any legal schedule.
#[must_use = "an unfinished exchange fills no ghosts and loses its CommTrace"]
pub struct PendingComm {
    ops: Vec<GhostOp>,
    bufs: Vec<Mutex<Vec<Real>>>,
    packed: Vec<AtomicBool>,
    /// Op indices targeting each destination fab, in planning order.
    per_dst: Vec<Vec<usize>>,
    trace: CommTrace,
    ba: BoxArray,
    ncomp: usize,
    ngrow: i32,
    shape: GhostShape,
}

impl PendingComm {
    /// The partial trace carried by this exchange (complete at post time).
    pub fn trace(&self) -> &CommTrace {
        &self.trace
    }

    /// Pack op `o`'s buffer by reading source-fab data through `read`
    /// (`read(iv, c)` must return fab `src`'s value at `iv`, a *valid* zone
    /// of the source box). Safe to call concurrently for distinct ops.
    fn pack_op<F: Fn(IntVect, usize) -> Real>(&self, o: usize, read: F) {
        let op = &self.ops[o];
        let mut buf = self.bufs[o].lock().unwrap();
        buf.clear();
        for c in 0..self.ncomp {
            for iv in op.region.iter() {
                buf.push(read(iv - op.shift, c));
            }
        }
        self.packed[o].store(true, Ordering::Release);
    }

    /// Unpack every op targeting fab `fab_index`, in planning order, through
    /// `write(iv, c, value)`. All of the fab's incoming ops must already be
    /// packed (the graph's ghost-exchange edges guarantee it). Safe to call
    /// concurrently for distinct fabs.
    fn unpack_fab<F: FnMut(IntVect, usize, Real)>(&self, fab_index: usize, mut write: F) {
        for &oi in &self.per_dst[fab_index] {
            debug_assert!(
                self.packed[oi].load(Ordering::Acquire),
                "unpacking op {oi} before it was packed"
            );
            let op = &self.ops[oi];
            let buf = self.bufs[oi].lock().unwrap();
            let mut idx = 0;
            for c in 0..self.ncomp {
                for iv in op.region.iter() {
                    write(iv, c, buf[idx]);
                    idx += 1;
                }
            }
        }
    }

    /// Phase two: complete the exchange into `mf` (normally the multifab
    /// that posted it, but any multifab on the same box layout works — the
    /// low-Mach driver completes into its advection snapshot). Ops not yet
    /// packed are packed from `mf`'s current valid data; every ghost region
    /// is then unpacked in planning order. Returns the full trace.
    #[must_use = "the CommTrace prices this exchange in the machine model; merge it into the step trace"]
    pub fn wait(self, mf: &mut MultiFab) -> CommTrace {
        assert_eq!(self.ba, mf.ba, "wait() target has a different box layout");
        assert_eq!(self.ncomp, mf.ncomp, "wait() target ncomp mismatch");
        assert_eq!(self.ngrow, mf.ngrow, "wait() target ngrow mismatch");
        for (o, op) in self.ops.iter().enumerate() {
            if !self.packed[o].load(Ordering::Acquire) {
                let sfab = &mf.fabs[op.src];
                self.pack_op(o, |iv, c| sfab.get(iv, c));
            }
        }
        // Unpack in parallel over destination fabs (disjoint mutable
        // access). The cap is *computed* — fabs with pending ops — and can
        // be 0 on an exchange with no ghost traffic.
        let cap = self.per_dst.iter().filter(|v| !v.is_empty()).count();
        let pending = &self;
        par_each_mut_bounded(WorkerPool::global(), &mut mf.fabs, cap, |fi, dfab| {
            pending.unpack_fab(fi, |iv, c, v| dfab.set(iv, c, v));
        });
        self.trace
    }

    /// Complete a fully staged exchange (every op packed and unpacked by
    /// graph tasks) and return the trace.
    #[must_use = "the CommTrace prices this exchange in the machine model; merge it into the step trace"]
    fn finish(self) -> CommTrace {
        debug_assert!(
            self.packed.iter().all(|p| p.load(Ordering::Acquire)),
            "finish() with unpacked ops: the graph missed pack tasks"
        );
        self.trace
    }
}

/// A same-fab dependency of a [`HaloStage`] task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HaloDep {
    /// The fab's `pack` task, which reads the fab's pre-step valid zones.
    Pack,
    /// The fab's `unpack` task, after which its ghosts are filled.
    Unpack,
    /// The fab's task in an earlier compute stage (index into the stages).
    Stage(usize),
}

/// One per-fab compute stage of a [`HaloGraph`]: the span-name prefix of
/// its tasks and the same-fab tasks each one waits on, in edge order.
#[derive(Clone, Copy, Debug)]
pub struct HaloStage {
    /// Task-name prefix (`"{name}.f{fab}"`).
    pub name: &'static str,
    /// Same-fab predecessors.
    pub after: &'static [HaloDep],
}

/// What task `t` of a [`HaloGraph`] does.
enum HaloTask {
    Pack(usize),
    Unpack(usize),
    Stage(usize, usize),
    Barrier,
}

/// The ghost-exchange step graph both drivers build on: one
/// [`TaskGraph`] per exchange, with the exchange itself staged as tasks and
/// the driver's per-fab compute stages hung off it.
///
/// Task ids by block (`n` = number of fabs, `S` = number of stages):
///
/// | task            | id              | work                                  | depends on                    |
/// |-----------------|-----------------|---------------------------------------|-------------------------------|
/// | `pack f`        | `f`             | pack every op with src = f            | —                             |
/// | `unpack f`      | `n + f`         | unpack f's ghosts, physical BC        | `pack s` for each sender s    |
/// | `{stage}.f`     | `(2 + s) n + f` | the driver's stage `s` on fab f       | the stage's [`HaloDep`]s      |
/// | `barrier`       | `(2 + S) n`     | nothing (bulk-synchronous mode only)  | every `unpack`                |
///
/// With `overlap` the graph is *free*: a stage-0 task with no dependencies
/// runs while halos are in flight. Without it, one no-op barrier task waits
/// on every unpack and gates every stage-0 task — bulk-synchronous stepping
/// as `2n` extra edges on the same graph, not a second code path. Both
/// schedules compute the same arithmetic into disjoint slots, so they are
/// bit-identical.
pub struct HaloGraph {
    pending: PendingComm,
    graph: TaskGraph,
    packs_of: Vec<Vec<usize>>,
    stages: &'static [HaloStage],
    nfabs: usize,
}

impl HaloGraph {
    /// Plan `mf`'s ghost exchange for the ghost zones `shape` covers and
    /// build its graph: pack and unpack tasks with sender edges, then
    /// `stages`, then (unless `overlap`) the barrier.
    pub fn new(
        mf: &MultiFab,
        geom: &Geometry,
        shape: GhostShape,
        stages: &'static [HaloStage],
        overlap: bool,
    ) -> Self {
        let n = mf.nfabs();
        let pending = mf.plan_fill_boundary(geom, shape);
        let mut packs_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut senders_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (o, op) in pending.ops.iter().enumerate() {
            packs_of[op.src].push(o);
            senders_of[op.dst].push(op.src);
        }
        let mut g = TaskGraph::new();
        for _ in 0..n {
            g.add_task();
        }
        for senders in &mut senders_of {
            senders.sort_unstable();
            senders.dedup();
            g.add_task_after(senders);
        }
        for stage in stages {
            for f in 0..n {
                let after: Vec<usize> = stage
                    .after
                    .iter()
                    .map(|d| match *d {
                        HaloDep::Pack => f,
                        HaloDep::Unpack => n + f,
                        HaloDep::Stage(s) => (2 + s) * n + f,
                    })
                    .collect();
                g.add_task_after(&after);
            }
        }
        if !overlap && n > 0 {
            let barrier = g.add_task_after(&(n..2 * n).collect::<Vec<_>>());
            for f in 0..n {
                g.add_edge(barrier, 2 * n + f);
            }
        }
        HaloGraph {
            pending,
            graph: g,
            packs_of,
            stages,
            nfabs: n,
        }
    }

    fn task(&self, t: usize) -> HaloTask {
        let n = self.nfabs;
        if t >= (2 + self.stages.len()) * n {
            return HaloTask::Barrier;
        }
        match (t / n, t % n) {
            (0, f) => HaloTask::Pack(f),
            (1, f) => HaloTask::Unpack(f),
            (k, f) => HaloTask::Stage(k - 2, f),
        }
    }

    /// Run the graph on the global pool under `label` and return the
    /// exchange's trace. Pack tasks read fab f's valid zones through
    /// `views[f]`; unpack tasks write its ghosts there and apply `bc` to
    /// the ghost zones of the planned shape; `compute(stage, f)` runs every
    /// stage task.
    pub fn run<F: Fn(usize, usize) + Sync>(
        self,
        label: &str,
        views: &[Array4Mut<'_>],
        geom: &Geometry,
        bc: &BcSpec,
        compute: F,
    ) -> CommTrace {
        assert_eq!(views.len(), self.nfabs, "one exchange view per fab");
        let pend = &self.pending;
        self.graph
            .run_labeled(
                WorkerPool::global(),
                self.nfabs.max(1),
                label,
                |t| match self.task(t) {
                    HaloTask::Pack(f) => TaskLabel::new(format!("pack.f{f}"), TaskClass::Comm),
                    HaloTask::Unpack(f) => TaskLabel::new(format!("unpack.f{f}"), TaskClass::Comm),
                    HaloTask::Stage(s, f) => {
                        TaskLabel::new(format!("{}.f{f}", self.stages[s].name), TaskClass::Compute)
                    }
                    HaloTask::Barrier => TaskLabel::new("barrier", TaskClass::Other),
                },
                |t| match self.task(t) {
                    HaloTask::Pack(f) => {
                        let v = &views[f];
                        for &o in &self.packs_of[f] {
                            pend.pack_op(o, |iv, c| v.at(iv.x(), iv.y(), iv.z(), c));
                        }
                    }
                    HaloTask::Unpack(f) => {
                        let v = &views[f];
                        pend.unpack_fab(f, |iv, c, x| v.set(iv.x(), iv.y(), iv.z(), c, x));
                        let fill = pend.shape.fill_box(pend.ba.get(f), pend.ngrow);
                        apply_physical_bc(v, fill, geom, bc);
                    }
                    HaloTask::Stage(s, f) => compute(s, f),
                    HaloTask::Barrier => {}
                },
            )
            .expect("halo graph is a DAG by construction");
        self.pending.finish()
    }
}

/// Physical boundary condition kinds for non-periodic domain faces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcKind {
    /// Handled by periodic ghost exchange; `fill_physical_bc` skips the face.
    Periodic,
    /// Zero-gradient extrapolation (copy the nearest interior zone).
    Outflow,
    /// Mirror symmetry; components registered as odd flip sign.
    Reflect,
}

/// Boundary-condition specification for a state: a kind per (dimension,
/// side), plus the set of components that are odd under reflection in a
/// given dimension (normal velocities/momenta).
#[derive(Clone, Debug)]
pub struct BcSpec {
    /// `kind[d][0]` is the low face of dimension `d`, `kind[d][1]` the high.
    pub kind: [[BcKind; 2]; SPACEDIM],
    /// `(component, dimension)` pairs that flip sign under reflection in
    /// that dimension.
    pub reflect_odd: Vec<(usize, usize)>,
}

impl BcSpec {
    /// All faces the same kind, no odd components.
    pub fn uniform(kind: BcKind) -> Self {
        BcSpec {
            kind: [[kind; 2]; SPACEDIM],
            reflect_odd: Vec::new(),
        }
    }

    /// All faces outflow.
    pub fn outflow() -> Self {
        Self::uniform(BcKind::Outflow)
    }

    /// All faces periodic (ghost fill handles everything).
    pub fn periodic() -> Self {
        Self::uniform(BcKind::Periodic)
    }

    fn is_odd(&self, comp: usize, dim: usize) -> bool {
        self.reflect_odd.iter().any(|&(c, d)| c == comp && d == dim)
    }
}

/// A distributed multi-component field at one refinement level.
#[derive(Clone, Debug)]
pub struct MultiFab {
    ba: BoxArray,
    dm: DistributionMapping,
    ncomp: usize,
    ngrow: i32,
    fabs: Vec<FArrayBox>,
}

impl MultiFab {
    /// Allocate a zero-filled multifab: `ncomp` components on every box of
    /// `ba`, each grown by `ngrow` ghost zones.
    pub fn new(ba: BoxArray, dm: DistributionMapping, ncomp: usize, ngrow: i32) -> Self {
        assert_eq!(ba.len(), dm.len(), "box array and distribution must agree");
        assert!(ngrow >= 0);
        let fabs = ba
            .iter()
            .map(|b| FArrayBox::new(b.grow(ngrow), ncomp))
            .collect();
        MultiFab {
            ba,
            dm,
            ncomp,
            ngrow,
            fabs,
        }
    }

    /// Single-rank convenience constructor.
    pub fn local(ba: BoxArray, ncomp: usize, ngrow: i32) -> Self {
        let dm = DistributionMapping::all_local(&ba);
        MultiFab::new(ba, dm, ncomp, ngrow)
    }

    /// The box array.
    pub fn box_array(&self) -> &BoxArray {
        &self.ba
    }

    /// The distribution mapping.
    pub fn dist_map(&self) -> &DistributionMapping {
        &self.dm
    }

    /// Components per zone.
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Ghost zones per side.
    pub fn ngrow(&self) -> i32 {
        self.ngrow
    }

    /// Number of fabs (= boxes).
    pub fn nfabs(&self) -> usize {
        self.fabs.len()
    }

    /// Valid (ghost-free) box of fab `i`.
    pub fn valid_box(&self, i: usize) -> IndexBox {
        self.ba.get(i)
    }

    /// Grown (ghosted) box of fab `i`.
    pub fn grown_box(&self, i: usize) -> IndexBox {
        self.ba.get(i).grow(self.ngrow)
    }

    /// Fab `i`, immutable.
    pub fn fab(&self, i: usize) -> &FArrayBox {
        &self.fabs[i]
    }

    /// Fab `i`, mutable.
    pub fn fab_mut(&mut self, i: usize) -> &mut FArrayBox {
        &mut self.fabs[i]
    }

    /// Mutable access to several fabs at once is impossible through indices;
    /// physics code iterates instead. This yields `(index, valid box)` pairs
    /// in deterministic order — the analogue of AMReX's `MFIter`.
    pub fn iter_boxes(&self) -> impl Iterator<Item = (usize, IndexBox)> + '_ {
        (0..self.fabs.len()).map(|i| (i, self.ba.get(i)))
    }

    /// One kernel view per fab, all live at once — what the task-graph
    /// scheduler hands its box tasks so that (for example) fab 3's unpack
    /// can write ghosts while fab 5's interior kernel reads valid zones.
    /// Callers own the disjointness argument: concurrent tasks must touch
    /// disjoint `(zone, component)` slots (see [`Array4Mut`]).
    pub fn fab_views_mut(&mut self) -> Vec<Array4Mut<'_>> {
        self.fabs.iter_mut().map(|f| f.array_mut()).collect()
    }

    /// Total bytes of payload across all fabs.
    pub fn bytes(&self) -> u64 {
        self.fabs.iter().map(|f| f.bytes()).sum()
    }

    /// Set every zone (including ghosts) of component `comp` to `v`.
    pub fn set_val(&mut self, comp: usize, v: Real) {
        par_each_mut(&mut self.fabs, |_i, f| f.set_val(comp, v));
    }

    /// Set every zone of every component to `v`.
    pub fn set_val_all(&mut self, v: Real) {
        par_each_mut(&mut self.fabs, |_i, f| f.set_val_all(v));
    }

    /// Value at zone `iv`, component `comp`, searching the valid regions.
    /// Panics if no box contains `iv`. Intended for tests and diagnostics.
    pub fn value_at(&self, iv: IntVect, comp: usize) -> Real {
        for (i, b) in self.iter_boxes() {
            if b.contains(iv) {
                return self.fabs[i].get(iv, comp);
            }
        }
        panic!("zone {iv:?} not in any valid box");
    }

    /// `self[c] += a * other[c]` over valid regions, for each component.
    pub fn saxpy(&mut self, a: Real, other: &MultiFab) {
        assert_eq!(self.ba, other.ba);
        assert_eq!(self.ncomp, other.ncomp);
        let ba = &self.ba;
        let ncomp = self.ncomp;
        par_each_mut(&mut self.fabs, |i, fab| {
            let vb = ba.get(i);
            for c in 0..ncomp {
                for iv in vb.iter() {
                    let v = fab.get(iv, c) + a * other.fabs[i].get(iv, c);
                    fab.set(iv, c, v);
                }
            }
        });
    }

    /// Copy all components from `other` (same box array) over valid regions.
    pub fn copy_from(&mut self, other: &MultiFab) {
        assert_eq!(self.ba, other.ba);
        assert_eq!(self.ncomp, other.ncomp);
        let ba = &self.ba;
        let ncomp = self.ncomp;
        par_each_mut(&mut self.fabs, |i, fab| {
            let vb = ba.get(i);
            fab.copy_from(&other.fabs[i], vb, 0, 0, ncomp);
        });
    }

    /// Parallel copy from a multifab on a *different* box array covering the
    /// same index space: copies over every intersection. Returns the
    /// communication trace.
    pub fn copy_from_other_ba(&mut self, other: &MultiFab, comp: usize, ncomp: usize) -> CommTrace {
        let mut trace = CommTrace::default();
        for di in 0..self.fabs.len() {
            let dvb = self.ba.get(di);
            for si in 0..other.fabs.len() {
                let svb = other.ba.get(si);
                let isect = dvb.intersection(&svb);
                if isect.is_empty() {
                    continue;
                }
                self.fabs[di].copy_from(&other.fabs[si], isect, comp, comp, ncomp);
                let bytes = isect.num_zones() as u64 * ncomp as u64 * 8;
                let (sr, dr) = (other.dm.owner(si), self.dm.owner(di));
                if sr == dr {
                    trace.local_bytes += bytes;
                } else {
                    trace.messages.push(Message {
                        src: sr,
                        dst: dr,
                        bytes,
                    });
                }
            }
        }
        trace
    }

    /// Fill ghost zones of every fab from the valid regions of neighbouring
    /// fabs, honouring periodic boundaries. Returns the communication trace.
    ///
    /// This is the nearest-neighbour exchange that dominates Castro's MPI
    /// time at scale (Figure 2); the trace feeds the machine model. The call
    /// is now a thin wrapper over the two-phase surface:
    /// [`MultiFab::post_fill_boundary`] followed by [`PendingComm::wait`].
    /// Overlapping callers use the two phases directly and run interior
    /// kernels between them.
    #[must_use = "the CommTrace prices this exchange in the machine model; merge it into the step trace"]
    pub fn fill_boundary(&mut self, geom: &Geometry) -> CommTrace {
        self.post_fill_boundary(geom).wait(self)
    }

    /// Plan the ghost exchange of the zones `shape` covers without moving
    /// any data: compute the copy ops, allocate (empty) pack buffers, and
    /// price the traffic. The returned [`PendingComm`] carries the partial
    /// [`CommTrace`].
    ///
    /// [`HaloGraph`] stages the planned ops as graph tasks; plain two-phase
    /// callers want [`MultiFab::post_fill_boundary`].
    #[must_use = "the plan holds the exchange state; wait() or finish() it"]
    fn plan_fill_boundary(&self, geom: &Geometry, shape: GhostShape) -> PendingComm {
        let _prof = Profiler::region("fill_boundary");
        let mut ops = Vec::new();
        if self.ngrow > 0 {
            let shifts = geom.periodic_shifts();
            for dst in 0..self.fabs.len() {
                let vbox = self.ba.get(dst);
                let fill = shape.fill_box(vbox, self.ngrow);
                for src in 0..self.fabs.len() {
                    let svb = self.ba.get(src);
                    for &shift in &shifts {
                        if src == dst && shift == IntVect::zero() {
                            continue;
                        }
                        let image = svb.shift(shift);
                        let isect = fill.intersection(&image);
                        if isect.is_empty() {
                            continue;
                        }
                        // Only fill true ghost zones, never the valid region.
                        for region in isect.difference(&vbox) {
                            ops.push(GhostOp {
                                src,
                                dst,
                                region,
                                shift,
                            });
                        }
                    }
                }
            }
        }
        // Price the exchange now: the plan (not the data) determines the
        // traffic, so the partial trace is complete at post time and is
        // deterministic in planning order.
        let mut trace = CommTrace::default();
        let mut ghost_zones = 0u64;
        for op in &ops {
            let n = op.region.num_zones() as usize;
            ghost_zones += n as u64;
            let bytes = (n * self.ncomp * 8) as u64;
            let (sr, dr) = (self.dm.owner(op.src), self.dm.owner(op.dst));
            if sr == dr {
                trace.local_bytes += bytes;
            } else {
                trace.messages.push(Message {
                    src: sr,
                    dst: dr,
                    bytes,
                });
            }
        }
        Profiler::record_zones(ghost_zones);
        let ncomp = self.ncomp;
        let bufs = ops
            .iter()
            .map(|op| Mutex::new(Vec::with_capacity(op.region.num_zones() as usize * ncomp)))
            .collect();
        let packed = ops.iter().map(|_| AtomicBool::new(false)).collect();
        let mut per_dst: Vec<Vec<usize>> = vec![Vec::new(); self.fabs.len()];
        for (oi, op) in ops.iter().enumerate() {
            per_dst[op.dst].push(oi);
        }
        PendingComm {
            ops,
            bufs,
            packed,
            per_dst,
            trace,
            ba: self.ba.clone(),
            ncomp,
            ngrow: self.ngrow,
            shape,
        }
    }

    /// Phase one of the ghost exchange: plan the copies and pack every
    /// send buffer from the *current* valid data — the analogue of posting
    /// MPI isends, whose buffers capture the data at post time. The state
    /// may then be mutated (interior kernels) before [`PendingComm::wait`]
    /// unpacks the ghosts.
    #[must_use = "dropping a posted exchange loses the ghost fill; call wait()"]
    pub fn post_fill_boundary(&self, geom: &Geometry) -> PendingComm {
        let pending = self.plan_fill_boundary(geom, GhostShape::Full);
        let fabs = &self.fabs;
        let pref = &pending;
        par_index_each(pending.ops.len(), pending.ops.len(), |o| {
            let sfab = &fabs[pref.ops[o].src];
            pref.pack_op(o, |iv, c| sfab.get(iv, c));
        });
        pending
    }

    /// Fill ghost zones that lie outside the problem domain on non-periodic
    /// faces, according to `bc`. Call after [`MultiFab::fill_boundary`].
    pub fn fill_physical_bc(&mut self, geom: &Geometry, bc: &BcSpec) {
        if self.ngrow == 0 {
            return;
        }
        for i in 0..self.fabs.len() {
            let fill = self.grown_box(i);
            apply_physical_bc(&self.fabs[i].array_mut(), fill, geom, bc);
        }
    }

    /// Max |value| of `comp` over all valid regions.
    ///
    /// Like every reduction below, per-fab partials are computed in parallel
    /// on the worker pool and folded serially in fab order, so results are
    /// bitwise identical run to run (and to the old serial loops).
    pub fn norm_inf(&self, comp: usize) -> Real {
        par_map_fold(
            self.fabs.len(),
            0.0,
            |i| self.fabs[i].norm_inf(self.ba.get(i), comp),
            Real::max,
        )
    }

    /// L1 norm (sum of |value|) of `comp` over valid regions.
    pub fn norm_l1(&self, comp: usize) -> Real {
        par_map_fold(
            self.fabs.len(),
            0.0,
            |i| {
                self.ba
                    .get(i)
                    .iter()
                    .map(|iv| self.fabs[i].get(iv, comp).abs())
                    .sum::<Real>()
            },
            |a, b| a + b,
        )
    }

    /// L2 norm of `comp` over valid regions.
    pub fn norm_l2(&self, comp: usize) -> Real {
        par_map_fold(
            self.fabs.len(),
            0.0,
            |i| {
                self.ba
                    .get(i)
                    .iter()
                    .map(|iv| {
                        let v = self.fabs[i].get(iv, comp);
                        v * v
                    })
                    .sum::<Real>()
            },
            |a, b| a + b,
        )
        .sqrt()
    }

    /// Sum of `comp` over valid regions.
    pub fn sum(&self, comp: usize) -> Real {
        par_map_fold(
            self.fabs.len(),
            0.0,
            |i| self.fabs[i].sum(self.ba.get(i), comp),
            |a, b| a + b,
        )
    }

    /// Minimum of `comp` over valid regions.
    pub fn min(&self, comp: usize) -> Real {
        par_map_fold(
            self.fabs.len(),
            Real::INFINITY,
            |i| {
                self.ba
                    .get(i)
                    .iter()
                    .map(|iv| self.fabs[i].get(iv, comp))
                    .fold(Real::INFINITY, Real::min)
            },
            Real::min,
        )
    }

    /// Maximum of `comp` over valid regions.
    pub fn max(&self, comp: usize) -> Real {
        par_map_fold(
            self.fabs.len(),
            Real::NEG_INFINITY,
            |i| {
                self.ba
                    .get(i)
                    .iter()
                    .map(|iv| self.fabs[i].get(iv, comp))
                    .fold(Real::NEG_INFINITY, Real::max)
            },
            Real::max,
        )
    }

    /// Dot product of component `comp` with the same component of `other`
    /// over valid regions.
    pub fn dot(&self, other: &MultiFab, comp: usize) -> Real {
        assert_eq!(self.ba, other.ba);
        par_map_fold(
            self.fabs.len(),
            0.0,
            |i| {
                self.ba
                    .get(i)
                    .iter()
                    .map(|iv| self.fabs[i].get(iv, comp) * other.fabs[i].get(iv, comp))
                    .sum::<Real>()
            },
            |a, b| a + b,
        )
    }
}

/// Apply physical boundary conditions to the ghost zones of `fill` (the
/// fab's grown box, or the slab box of a [`GhostShape::Slabs`] exchange)
/// through a kernel view — the per-fab body of
/// [`MultiFab::fill_physical_bc`], shared with the [`HaloGraph`] unpack
/// tasks, which fold the physical fill into their own node (disjoint
/// slots: each fab's BC only touches that fab's ghost zones).
///
/// Within one fab the writes are ordered (corner ghosts read zones filled by
/// an earlier dimension's pass), so a task must call this serially, after
/// the fab's ghost ops are unpacked — the same ordering the bulk-synchronous
/// path uses. A slab box reaches past the domain only along its own
/// direction, and every slab zone there mirrors or copies a valid zone, so
/// it gets the same bits as the full fill gives it.
fn apply_physical_bc(arr: &Array4Mut<'_>, fill: IndexBox, geom: &Geometry, bc: &BcSpec) {
    let ncomp = arr.ncomp();
    let domain = geom.domain();
    for d in 0..SPACEDIM {
        for side in 0..2 {
            let kind = bc.kind[d][side];
            if kind == BcKind::Periodic || geom.periodic()[d] {
                continue;
            }
            // Ghost region beyond this domain face, clipped to fill.
            let region = if side == 0 {
                if fill.lo()[d] >= domain.lo()[d] {
                    continue;
                }
                let mut hi = fill.hi();
                hi[d] = domain.lo()[d] - 1;
                IndexBox::new(fill.lo(), hi)
            } else {
                if fill.hi()[d] <= domain.hi()[d] {
                    continue;
                }
                let mut lo = fill.lo();
                lo[d] = domain.hi()[d] + 1;
                IndexBox::new(lo, fill.hi())
            };
            if region.is_empty() {
                continue;
            }
            for c in 0..ncomp {
                let sign = if kind == BcKind::Reflect && bc.is_odd(c, d) {
                    -1.0
                } else {
                    1.0
                };
                for iv in region.iter() {
                    let mut siv = iv;
                    match kind {
                        BcKind::Outflow => {
                            siv[d] = siv[d].clamp(domain.lo()[d], domain.hi()[d]);
                            // Clamp the transverse dims into the fab
                            // too, for corner ghosts.
                        }
                        BcKind::Reflect => {
                            siv[d] = if side == 0 {
                                2 * domain.lo()[d] - 1 - siv[d]
                            } else {
                                2 * domain.hi()[d] + 1 - siv[d]
                            };
                        }
                        BcKind::Periodic => unreachable!(),
                    }
                    // Transverse corner zones may still be outside
                    // the fab's coverage after mirroring; clamp to
                    // the fill box (those zones were filled by the
                    // pass over their own dimension).
                    for t in 0..SPACEDIM {
                        siv[t] = siv[t].clamp(fill.lo()[t], fill.hi()[t]);
                    }
                    if siv == iv {
                        continue;
                    }
                    let v = arr.at(siv[0], siv[1], siv[2], c) * sign;
                    arr.set(iv[0], iv[1], iv[2], c, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CoordSys;

    fn periodic_geom(n: i32) -> Geometry {
        Geometry::cube(n, 1.0, true)
    }

    /// Fill a multifab with a globally defined function of the zone index
    /// (periodic-aware reference available analytically).
    fn fill_linear(mf: &mut MultiFab) {
        for i in 0..mf.nfabs() {
            let vb = mf.valid_box(i);
            for iv in vb.iter() {
                let v = (iv.x() + 100 * iv.y() + 10_000 * iv.z()) as Real;
                mf.fab_mut(i).set(iv, 0, v);
            }
        }
    }

    #[test]
    fn fill_boundary_interior_ghosts_match_neighbors() {
        let geom = periodic_geom(16);
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mut mf = MultiFab::local(ba, 1, 2);
        fill_linear(&mut mf);
        let _ = mf.fill_boundary(&geom);
        // Every interior ghost zone must equal the valid value of the box
        // that owns that zone.
        for i in 0..mf.nfabs() {
            let vb = mf.valid_box(i);
            let gb = mf.grown_box(i);
            for iv in gb.iter() {
                if vb.contains(iv) || !geom.domain().contains(iv) {
                    continue;
                }
                let expect = (iv.x() + 100 * iv.y() + 10_000 * iv.z()) as Real;
                assert_eq!(mf.fab(i).get(iv, 0), expect, "ghost {iv:?} of fab {i}");
            }
        }
    }

    #[test]
    fn fill_boundary_periodic_wraps() {
        let geom = periodic_geom(8);
        let ba = BoxArray::decompose(geom.domain(), 8, 8); // single box
        let mut mf = MultiFab::local(ba, 1, 1);
        fill_linear(&mut mf);
        let _ = mf.fill_boundary(&geom);
        // Ghost at i = -1 must equal valid at i = 7.
        let g = mf.fab(0).get(IntVect::new(-1, 3, 4), 0);
        let v = mf.fab(0).get(IntVect::new(7, 3, 4), 0);
        assert_eq!(g, v);
        // Corner ghost wraps in all three dims.
        let g = mf.fab(0).get(IntVect::new(8, 8, 8), 0);
        let v = mf.fab(0).get(IntVect::new(0, 0, 0), 0);
        assert_eq!(g, v);
    }

    #[test]
    fn fill_boundary_is_idempotent() {
        let geom = periodic_geom(16);
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mut mf = MultiFab::local(ba, 2, 2);
        fill_linear(&mut mf);
        let _ = mf.fill_boundary(&geom);
        let snapshot: Vec<Vec<Real>> = (0..mf.nfabs()).map(|i| mf.fab(i).data().to_vec()).collect();
        let _ = mf.fill_boundary(&geom);
        for i in 0..mf.nfabs() {
            assert_eq!(mf.fab(i).data(), &snapshot[i][..], "fab {i} changed");
        }
    }

    #[test]
    fn fill_boundary_trace_counts_ranks() {
        let geom = periodic_geom(32);
        let ba = BoxArray::decompose(geom.domain(), 16, 16); // 8 boxes
        let dm = DistributionMapping::new(&ba, 4, DistStrategy::RoundRobin);
        let mut mf = MultiFab::new(ba, dm, 1, 1);
        let trace = mf.fill_boundary(&geom);
        assert!(!trace.messages.is_empty());
        assert!(trace.local_bytes > 0);
        for m in &trace.messages {
            assert_ne!(m.src, m.dst);
            assert!(m.src < 4 && m.dst < 4);
            assert!(m.bytes > 0);
        }
        // Ghost width 1, 8 boxes of 16^3: each box face region is 16x16x1
        // plus edges/corners; total network+local bytes must equal the total
        // ghost-fill volume, which is the same for every box: grown minus
        // valid = 18^3 - 16^3 zones.
        let per_box = (18i64.pow(3) - 16i64.pow(3)) as u64 * 8;
        assert_eq!(trace.network_bytes() + trace.local_bytes, per_box * 8);
    }

    use crate::distribution::DistStrategy;

    #[test]
    fn outflow_bc_copies_nearest_interior() {
        let geom = Geometry::cube(8, 1.0, false);
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mut mf = MultiFab::local(ba, 1, 2);
        fill_linear(&mut mf);
        let _ = mf.fill_boundary(&geom);
        mf.fill_physical_bc(&geom, &BcSpec::outflow());
        // Ghost at i=-1 and i=-2 equal interior i=0 value.
        for gi in [-1, -2] {
            assert_eq!(
                mf.fab(0).get(IntVect::new(gi, 3, 3), 0),
                mf.fab(0).get(IntVect::new(0, 3, 3), 0)
            );
        }
        // High side similarly.
        assert_eq!(
            mf.fab(0).get(IntVect::new(9, 3, 3), 0),
            mf.fab(0).get(IntVect::new(7, 3, 3), 0)
        );
    }

    #[test]
    fn reflect_bc_mirrors_and_flips_odd() {
        let geom = Geometry::cube(8, 1.0, false);
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mut mf = MultiFab::local(ba, 2, 2);
        for iv in geom.domain().iter() {
            mf.fab_mut(0).set(iv, 0, (iv.x() + 1) as Real); // even comp
            mf.fab_mut(0).set(iv, 1, (iv.x() + 1) as Real); // odd comp (x-mom)
        }
        let bc = BcSpec {
            kind: [[BcKind::Reflect; 2]; SPACEDIM],
            reflect_odd: vec![(1, 0)],
        };
        mf.fill_physical_bc(&geom, &bc);
        // Ghost i=-1 mirrors i=0; i=-2 mirrors i=1.
        assert_eq!(mf.fab(0).get(IntVect::new(-1, 3, 3), 0), 1.0);
        assert_eq!(mf.fab(0).get(IntVect::new(-2, 3, 3), 0), 2.0);
        assert_eq!(mf.fab(0).get(IntVect::new(-1, 3, 3), 1), -1.0);
        assert_eq!(mf.fab(0).get(IntVect::new(-2, 3, 3), 1), -2.0);
        // High face: ghost i=8 mirrors i=7.
        assert_eq!(mf.fab(0).get(IntVect::new(8, 3, 3), 0), 8.0);
        assert_eq!(mf.fab(0).get(IntVect::new(8, 3, 3), 1), -8.0);
    }

    #[test]
    fn two_phase_post_wait_matches_one_shot() {
        let geom = periodic_geom(16);
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mut sync = MultiFab::local(ba.clone(), 2, 2);
        fill_linear(&mut sync);
        let mut overlapped = sync.clone();
        let t1 = sync.fill_boundary(&geom);
        // Post, then mutate the valid data *between* the phases: the packed
        // buffers must carry post-time values (MPI isend semantics), so the
        // ghosts still reflect the pre-mutation state.
        let pending = overlapped.post_fill_boundary(&geom);
        let t2 = pending.wait(&mut overlapped);
        for i in 0..sync.nfabs() {
            assert_eq!(sync.fab(i).data(), overlapped.fab(i).data(), "fab {i}");
        }
        // Identical traces: same messages, same local volume.
        assert_eq!(t1.messages, t2.messages);
        assert_eq!(t1.local_bytes, t2.local_bytes);
    }

    #[test]
    fn post_buffers_capture_data_at_post_time() {
        let geom = periodic_geom(8);
        let ba = BoxArray::decompose(geom.domain(), 8, 8); // single box
        let mut mf = MultiFab::local(ba, 1, 1);
        fill_linear(&mut mf);
        let pending = mf.post_fill_boundary(&geom);
        // Overwrite the valid data after posting: the ghost fill must still
        // deliver the *posted* values.
        let expect = mf.fab(0).get(IntVect::new(7, 3, 4), 0);
        mf.fab_mut(0).set(IntVect::new(7, 3, 4), 0, -999.0);
        let _ = pending.wait(&mut mf);
        assert_eq!(mf.fab(0).get(IntVect::new(-1, 3, 4), 0), expect);
    }

    #[test]
    fn plan_then_staged_pack_unpack_matches_one_shot() {
        // Staged through the halo graph, free and with the barrier, the
        // exchange plus physical BC fills exactly what the one-shot calls do.
        const STAGES: [HaloStage; 2] = [
            HaloStage {
                name: "a",
                after: &[],
            },
            HaloStage {
                name: "b",
                after: &[HaloDep::Unpack, HaloDep::Stage(0)],
            },
        ];
        let bc = BcSpec::outflow();
        for geom in [periodic_geom(16), Geometry::cube(16, 1.0, false)] {
            let ba = BoxArray::decompose(geom.domain(), 8, 8);
            let mut reference = MultiFab::local(ba, 2, 2);
            fill_linear(&mut reference);
            let mut free_edges = 0;
            for overlap in [true, false] {
                let mut mf = reference.clone();
                let n = mf.nfabs();
                let halo = HaloGraph::new(&mf, &geom, GhostShape::Full, &STAGES, overlap);
                assert!(!halo.pending.ops.is_empty());
                if overlap {
                    assert_eq!(halo.graph.len(), 4 * n);
                    free_edges = halo.graph.num_edges();
                } else {
                    // One barrier task: n edges in from the unpacks, n out to
                    // the first stage.
                    assert_eq!(halo.graph.len(), 4 * n + 1);
                    assert_eq!(halo.graph.num_edges(), free_edges + 2 * n);
                }
                let ran = std::sync::atomic::AtomicUsize::new(0);
                let views = mf.fab_views_mut();
                let trace = halo.run("test.halo", &views, &geom, &bc, |_, _| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
                drop(views);
                assert_eq!(ran.into_inner(), 2 * n);
                let mut one_shot = reference.clone();
                let t = one_shot.fill_boundary(&geom);
                one_shot.fill_physical_bc(&geom, &bc);
                for i in 0..n {
                    assert_eq!(one_shot.fab(i).data(), mf.fab(i).data(), "fab {i}");
                }
                assert_eq!(t.messages, trace.messages);
                assert_eq!(t.local_bytes, trace.local_bytes);
            }
        }
    }

    #[test]
    fn slab_halo_fills_only_its_direction_slabs() {
        // A slab-shaped exchange writes exactly the ghost zones of
        // vb.grow_dir(d, 2) \ vb, with the bits the one-shot full fill plus
        // physical BC put there; every other ghost keeps its sentinel and
        // the trace prices only the slab zones the exchange copies.
        const STAGES: [HaloStage; 1] = [HaloStage {
            name: "a",
            after: &[HaloDep::Unpack],
        }];
        const SENTINEL: Real = -7.25;
        let bc = BcSpec::outflow();
        for periodic in [true, false] {
            let geom = Geometry::cube(16, 1.0, periodic);
            let ba = BoxArray::decompose(geom.domain(), 8, 8);
            let dm = DistributionMapping::new(&ba, 2, DistStrategy::Sfc);
            let mut reference = MultiFab::new(ba, dm, 2, 2);
            reference.set_val_all(SENTINEL);
            fill_linear(&mut reference);
            let mut full = reference.clone();
            let _ = full.fill_boundary(&geom);
            full.fill_physical_bc(&geom, &bc);
            let mut messages = 0;
            for d in 0..SPACEDIM {
                for overlap in [true, false] {
                    let mut mf = reference.clone();
                    let halo = HaloGraph::new(&mf, &geom, GhostShape::Slabs(d), &STAGES, overlap);
                    let views = mf.fab_views_mut();
                    let trace = halo.run("test.slab", &views, &geom, &bc, |_, _| {});
                    drop(views);
                    let mut copied = 0u64;
                    for i in 0..mf.nfabs() {
                        let vb = mf.valid_box(i);
                        let slab = vb.grow_dir(d, 2);
                        for iv in mf.grown_box(i).iter().filter(|iv| !vb.contains(*iv)) {
                            let in_slab = slab.contains(iv);
                            for c in 0..2 {
                                let want = if in_slab {
                                    full.fab(i).get(iv, c)
                                } else {
                                    SENTINEL
                                };
                                assert_eq!(
                                    mf.fab(i).get(iv, c).to_bits(),
                                    want.to_bits(),
                                    "d {d} periodic {periodic} overlap {overlap} fab {i} {iv:?} c {c}"
                                );
                            }
                            // Slab zones past a non-periodic face come from
                            // the physical BC, not the exchange.
                            if in_slab && (periodic || geom.domain().contains(iv)) {
                                copied += 1;
                            }
                        }
                    }
                    assert_eq!(
                        trace.network_bytes() + trace.local_bytes,
                        copied * 2 * 8,
                        "d {d} periodic {periodic} overlap {overlap}"
                    );
                    messages += trace.messages.len();
                }
            }
            assert!(messages > 0, "the two ranks must exchange along some d");
        }
    }

    #[test]
    fn wait_can_target_a_clone_on_the_same_layout() {
        let geom = periodic_geom(16);
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mut mf = MultiFab::local(ba, 1, 2);
        fill_linear(&mut mf);
        let mut reference = mf.clone();
        let _ = reference.fill_boundary(&geom);
        // Post from mf, complete into a clone (the low-Mach driver's
        // advection-snapshot pattern).
        let pending = mf.post_fill_boundary(&geom);
        let mut old = mf.clone();
        let _ = pending.wait(&mut old);
        for i in 0..mf.nfabs() {
            assert_eq!(old.fab(i).data(), reference.fab(i).data(), "fab {i}");
        }
    }

    #[test]
    fn trace_merge_accumulates_across_phases() {
        let geom = periodic_geom(16);
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mut mf = MultiFab::local(ba, 1, 1);
        let mut total = CommTrace::default();
        let t1 = mf.fill_boundary(&geom);
        total.merge(&t1);
        let t2 = mf.fill_boundary(&geom);
        total.merge(&t2);
        assert_eq!(total.local_bytes, t1.local_bytes + t2.local_bytes);
        assert_eq!(
            total.network_bytes(),
            t1.network_bytes() + t2.network_bytes()
        );
        assert_eq!(total.messages.len(), t1.messages.len() + t2.messages.len());
    }

    #[test]
    fn norms_and_reductions() {
        let geom = periodic_geom(8);
        let ba = BoxArray::decompose(geom.domain(), 4, 4);
        let mut mf = MultiFab::local(ba, 1, 1);
        mf.set_val(0, -2.0);
        let n = geom.domain().num_zones() as Real;
        assert_eq!(mf.sum(0), -2.0 * n);
        assert_eq!(mf.norm_l1(0), 2.0 * n);
        assert_eq!(mf.norm_inf(0), 2.0);
        assert!((mf.norm_l2(0) - (4.0 * n).sqrt()).abs() < 1e-12);
        assert_eq!(mf.min(0), -2.0);
        assert_eq!(mf.max(0), -2.0);
        let other = mf.clone();
        assert_eq!(mf.dot(&other, 0), 4.0 * n);
    }

    #[test]
    fn saxpy_and_copy() {
        let ba = BoxArray::decompose(IndexBox::cube(8), 4, 4);
        let mut a = MultiFab::local(ba.clone(), 2, 0);
        let mut b = MultiFab::local(ba, 2, 0);
        a.set_val(0, 1.0);
        a.set_val(1, 2.0);
        b.set_val(0, 10.0);
        b.set_val(1, 20.0);
        a.saxpy(0.5, &b);
        assert_eq!(a.max(0), 6.0);
        assert_eq!(a.max(1), 12.0);
        a.copy_from(&b);
        assert_eq!(a.max(0), 10.0);
    }

    #[test]
    fn parallel_copy_between_box_arrays() {
        let domain = IndexBox::cube(16);
        let ba1 = BoxArray::decompose(domain, 8, 8);
        let ba2 = BoxArray::decompose(domain, 4, 4);
        let mut src = MultiFab::local(ba1, 1, 0);
        for i in 0..src.nfabs() {
            let vb = src.valid_box(i);
            for iv in vb.iter() {
                src.fab_mut(i)
                    .set(iv, 0, (iv.x() * iv.y() + iv.z()) as Real);
            }
        }
        let mut dst = MultiFab::local(ba2, 1, 0);
        let trace = dst.copy_from_other_ba(&src, 0, 1);
        assert_eq!(trace.local_bytes, domain.num_zones() as u64 * 8);
        for iv in domain.iter() {
            assert_eq!(dst.value_at(iv, 0), (iv.x() * iv.y() + iv.z()) as Real);
        }
    }

    #[test]
    fn nonperiodic_geometry_does_not_wrap() {
        let geom = Geometry::new(
            IndexBox::cube(8),
            [0.0; 3],
            [1.0; 3],
            [false; 3],
            CoordSys::Cartesian,
        );
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mut mf = MultiFab::local(ba, 1, 1);
        fill_linear(&mut mf);
        let before = mf.fab(0).get(IntVect::new(-1, 0, 0), 0);
        let _ = mf.fill_boundary(&geom);
        // No periodic images: domain-boundary ghosts are untouched.
        assert_eq!(mf.fab(0).get(IntVect::new(-1, 0, 0), 0), before);
    }
}
