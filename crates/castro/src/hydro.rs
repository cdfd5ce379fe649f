//! The compressible hydrodynamics solver: dimensionally split
//! piecewise-linear (MUSCL) Godunov with HLLC fluxes.
//!
//! Two kernel structures are provided, reproducing the §III refactor:
//!
//! * [`KernelStructure::Legacy`] — the pre-GPU CPU structure: slopes for
//!   *all* zones are computed in a first loop and staged in a scratch
//!   array, then a second loop reads two staged slopes per face. Fewer
//!   flops, bigger memory footprint.
//! * [`KernelStructure::Flat`] — the GPU port: one loop over faces in which
//!   each face *redundantly recomputes* the two slopes it needs. More
//!   total flops, no slope array, embarrassingly parallel per face. (The
//!   paper found this faster even on CPUs, "due largely to decreasing the
//!   memory footprint".)
//!
//! Both structures produce bitwise-identical fluxes (a test asserts this).
//! They are two task bodies inside the same step graph, not two code
//! paths. All scratch storage is drawn from an [`Arena`], so the
//! pool-allocator ablation measures exactly the allocation churn this
//! module generates.
//!
//! ## Communication overlap
//!
//! Each sweep's faces split into an **interior** set, whose 4-zone stencil
//! lies entirely in valid data, and a **boundary band** (the outermost two
//! face layers per side along the sweep dimension), which reads ghost
//! zones. Every sweep runs as one dependency graph on the worker pool,
//! built on the shared [`HaloGraph`] skeleton: ghost packs and unpacks are
//! tasks, `interior` kernels have nothing to wait for, and `band` kernels
//! fire per box as soon as that box's ghosts have been unpacked. Legacy is
//! a body variant of the same tasks: `interior` computes primitives on the
//! valid box, and `band` stages slopes over the valid box grown by one
//! along the sweep and computes every face flux.
//!
//! A split sweep along `d` reads only the two 2-deep ghost slabs along `d`,
//! never an edge or corner ghost. Each sweep's exchange therefore moves
//! only those slabs ([`GhostShape::Slabs`]), and its primitive scratch
//! covers only `vb.grow_dir(d, 2)`. For an 8³ box that is 4.75× fewer
//! ghost zones than the full 2-deep halo and 2.25× less scratch to zero.
//!
//! [`Hydro::overlap`] only chooses the edges. Bulk-synchronous stepping is
//! the same graph plus one no-op barrier task that waits on every unpack
//! and gates every `interior`. The schedule is free to reorder; the results
//! are bit-identical either way because every task writes disjoint slots
//! and every face computes the same arithmetic on the same inputs (tests
//! digest both).
//!
//! Castro proper uses an unsplit corner-transport-upwind scheme with PPM;
//! the dimensional splitting used here is a documented simplification
//! (DESIGN.md) that preserves the stencil shape, the per-zone kernel
//! economics, and second-order convergence on smooth flow.

use crate::riemann::hllc;
use crate::state::{cons_to_prim, Floors, Primitive, StateLayout};
use exastro_amr::{
    Array4Mut, BcSpec, CommTrace, FArrayBox, Geometry, GhostShape, HaloDep, HaloGraph, HaloStage,
    IndexBox, IntVect, MultiFab,
};
use exastro_microphysics::{Eos, Species};
use exastro_parallel::{par_map_fold, Arena, ExecSpace, KernelProfile, Real};

/// Which loop structure the sweep kernels use (§III ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelStructure {
    /// Staged slope arrays + second loop (pre-GPU structure).
    Legacy,
    /// Fused per-face recomputation (GPU-ready structure).
    Flat,
}

/// Primitive-variable component indices within the scratch fab.
struct Q;
impl Q {
    const RHO: usize = 0;
    const U: usize = 1; // normal velocity is rotated per sweep
    const P: usize = 4;
    const E: usize = 5;
    const C: usize = 6;
    const FS: usize = 7;
    fn ncomp(nspec: usize) -> usize {
        Self::FS + nspec
    }
}

/// Hydro options.
#[derive(Clone, Debug)]
pub struct Hydro {
    /// CFL number.
    pub cfl: Real,
    /// Kernel structure (see module docs).
    pub structure: KernelStructure,
    /// Overlap ghost exchange with interior compute. Every sweep runs as
    /// the same task graph for either structure; `false` adds the barrier
    /// that makes every unpack finish before any interior kernel starts
    /// (bulk-synchronous stepping, bit-identical results).
    pub overlap: bool,
    /// State floors.
    pub floors: Floors,
}

impl Default for Hydro {
    fn default() -> Self {
        Hydro {
            cfl: 0.5,
            structure: KernelStructure::Flat,
            overlap: true,
            floors: Floors::default(),
        }
    }
}

/// Face fluxes of one sweep for one fab: `ncomp` conserved fluxes plus the
/// face normal velocity (for the −p∇·u internal-energy source) as the last
/// component.
pub struct SweepFluxes {
    /// One flux fab per state fab; face-indexed box (hi + 1 in the sweep
    /// dimension).
    pub fabs: Vec<FArrayBox>,
    /// Sweep dimension.
    pub dim: usize,
}

/// The full face box of `vb` along `dim`: every valid zone's low face plus
/// one extra layer for the last zone's high face.
fn face_box(vb: IndexBox, dim: usize) -> IndexBox {
    let mut hi = vb.hi();
    hi[dim] += 1;
    IndexBox::new(vb.lo(), hi)
}

/// The faces of `vb` along `dim` whose reconstruction stencil (zones
/// `iv − 2e .. iv + e`) lies entirely in valid data: `iv_d ∈ [lo+2, hi−1]`.
/// `None` when the box is too narrow (< 4 zones) to have any.
fn interior_faces(vb: IndexBox, dim: usize) -> Option<IndexBox> {
    let mut lo = vb.lo();
    let mut hi = vb.hi();
    lo[dim] += 2;
    hi[dim] -= 1;
    (lo[dim] <= hi[dim]).then(|| IndexBox::new(lo, hi))
}

/// The boundary-band face boxes of `vb` along `dim` — the faces whose
/// stencil reads ghost zones. Up to two boxes (low side, high side),
/// clipped so that together with [`interior_faces`] they tile
/// [`face_box`] disjointly for any box width (including 1–3 zone boxes).
fn band_faces(vb: IndexBox, dim: usize) -> Vec<IndexBox> {
    let (l, h) = (vb.lo()[dim], vb.hi()[dim]);
    let mut out = Vec::with_capacity(2);
    // Low band: faces lo and lo+1, clipped to the face box.
    let mut blo = vb.lo();
    let mut bhi = vb.hi();
    bhi[dim] = (l + 1).min(h + 1);
    out.push(IndexBox::new(blo, bhi));
    // High band: faces hi and hi+1, minus any overlap with the low band.
    blo[dim] = (l + 2).max(h);
    bhi[dim] = h + 1;
    if blo[dim] <= bhi[dim] {
        out.push(IndexBox::new(blo, bhi));
    }
    out
}

/// The two ghost-zone slabs (2 deep along `dim`, valid extent transverse)
/// whose primitives the band faces read: exactly the zones the sweep's
/// [`GhostShape::Slabs`] exchange fills. Transverse ghosts are *not*
/// included: a dimensionally split sweep never reads them.
fn ghost_slabs(vb: IndexBox, dim: usize) -> [IndexBox; 2] {
    let mut llo = vb.lo();
    let mut lhi = vb.hi();
    llo[dim] = vb.lo()[dim] - 2;
    lhi[dim] = vb.lo()[dim] - 1;
    let lo_slab = IndexBox::new(llo, lhi);
    let mut hlo = vb.lo();
    let mut hhi = vb.hi();
    hlo[dim] = vb.hi()[dim] + 1;
    hhi[dim] = vb.hi()[dim] + 2;
    [lo_slab, IndexBox::new(hlo, hhi)]
}

/// Monotonized-central limited slope.
#[inline]
fn mc_slope(vm: Real, v0: Real, vp: Real) -> Real {
    let dc = 0.5 * (vp - vm);
    let dl = 2.0 * (v0 - vm);
    let dr = 2.0 * (vp - v0);
    if dl * dr <= 0.0 {
        0.0
    } else {
        dc.abs().min(dl.abs()).min(dr.abs()) * dc.signum()
    }
}

/// The sweep kernels keep a zone's state and a face's traced species in
/// fixed-size stack arrays; more species than they hold must fail loudly
/// rather than alias the last slot.
fn assert_species_bound(layout: &StateLayout) {
    assert!(
        layout.nspec <= StateLayout::MAX_SPEC,
        "{} species exceed the hydro bound of {}",
        layout.nspec,
        StateLayout::MAX_SPEC
    );
}

/// Registers-per-thread estimate for the flux kernel; the flat kernel holds
/// two traced states plus slopes in thread-local storage.
fn flux_kernel_profile(nspec: usize, structure: KernelStructure) -> KernelProfile {
    let regs = match structure {
        KernelStructure::Flat => 120 + 6 * nspec as u32,
        KernelStructure::Legacy => 80 + 4 * nspec as u32,
    };
    let cost = match structure {
        KernelStructure::Flat => 1.1,   // redundant slope flops
        KernelStructure::Legacy => 1.4, // extra memory traffic dominates
    };
    KernelProfile::new(cost, regs)
}

impl Hydro {
    /// CFL-limited timestep over all fabs. Each fab is one task on the
    /// global worker pool; the per-fab limits fold in fab order.
    pub fn estimate_dt(
        &self,
        state: &MultiFab,
        layout: &StateLayout,
        eos: &dyn Eos,
        species: &[Species],
        geom: &Geometry,
        ex: &ExecSpace,
    ) -> Real {
        assert_species_bound(layout);
        let dx = geom.dx();
        let ncomp = layout.ncomp();
        let floors = self.floors;
        let layout = *layout;
        let min_dt = par_map_fold(
            state.nfabs(),
            Real::INFINITY,
            |f| {
                let arr = state.fab(f).array();
                let max_speed = ex.par_reduce_max(state.valid_box(f), |i, j, k| {
                    let mut u = [0.0; StateLayout::MAX_COMP];
                    for c in 0..ncomp {
                        u[c] = arr.at(i, j, k, c);
                    }
                    let q = cons_to_prim(&u[..ncomp], &layout, eos, species, &floors);
                    let mut s: Real = 0.0;
                    for d in 0..3 {
                        s = s.max((q.vel[d].abs() + q.cs) / dx[d] * dx[0]);
                    }
                    s
                });
                if max_speed > 0.0 {
                    dx[0] / max_speed
                } else {
                    Real::INFINITY
                }
            },
            Real::min,
        );
        self.cfl * min_dt
    }

    /// Compute primitives on `region` zones, reading conserved data through
    /// `sarr` and writing into the scratch view `qarr`. Pointwise, so any
    /// partition of a region computes the same values as one full pass.
    #[allow(clippy::too_many_arguments)]
    fn primitives_region(
        &self,
        sarr: &Array4Mut<'_>,
        region: IndexBox,
        layout: &StateLayout,
        eos: &dyn Eos,
        species: &[Species],
        ex: &ExecSpace,
        qarr: &Array4Mut<'_>,
    ) {
        let ncomp = layout.ncomp();
        let floors = self.floors;
        let layout = *layout;
        let profile = KernelProfile::new(3.0, 180); // EOS Newton inversion is heavy
        ex.par_for_prof(region, &profile, |i, j, k| {
            let mut u = [0.0; StateLayout::MAX_COMP];
            for c in 0..ncomp {
                u[c] = sarr.at(i, j, k, c);
            }
            let q = cons_to_prim(&u[..ncomp], &layout, eos, species, &floors);
            qarr.set(i, j, k, Q::RHO, q.rho);
            qarr.set(i, j, k, Q::U, q.vel[0]);
            qarr.set(i, j, k, Q::U + 1, q.vel[1]);
            qarr.set(i, j, k, Q::U + 2, q.vel[2]);
            qarr.set(i, j, k, Q::P, q.p);
            qarr.set(i, j, k, Q::E, q.e);
            qarr.set(i, j, k, Q::C, q.cs);
            let inv = 1.0 / u[StateLayout::RHO].max(floors.small_dens);
            for s in 0..layout.nspec {
                qarr.set(
                    i,
                    j,
                    k,
                    Q::FS + s,
                    (u[layout.spec(s)] * inv).clamp(0.0, 1.0),
                );
            }
        });
    }

    /// Solve the face Riemann problems on `faces` and store fluxes into
    /// `farr`. With `slopes` (legacy structure) staged slopes are read
    /// back; otherwise each face recomputes its own (flat structure).
    #[allow(clippy::too_many_arguments)]
    fn flux_region(
        &self,
        faces: IndexBox,
        qarr: &Array4Mut<'_>,
        slopes: Option<&Array4Mut<'_>>,
        farr: &Array4Mut<'_>,
        dim: usize,
        dtdx: Real,
        layout: &StateLayout,
        ex: &ExecSpace,
        profile: &KernelProfile,
    ) {
        let e = IntVect::dim_vec(dim);
        let floors = self.floors;
        let nspec = layout.nspec;
        let layout = *layout;
        ex.par_for_prof(faces, profile, |i, j, k| {
            let iv = IntVect::new(i, j, k);
            let (ql, qr) = trace_pair(qarr, iv, e, dim, dtdx, nspec, slopes, &floors);
            write_flux(farr, i, j, k, &ql, &qr, dim, &layout);
        });
    }

    /// Conservative update of `vb` from face fluxes, plus the −p∇·u
    /// internal-energy source and the density floor.
    #[allow(clippy::too_many_arguments)]
    fn update_region(
        &self,
        vb: IndexBox,
        farr: &Array4Mut<'_>,
        qarr: &Array4Mut<'_>,
        uarr: &Array4Mut<'_>,
        dim: usize,
        dtdx: Real,
        layout: &StateLayout,
        ex: &ExecSpace,
        profile: &KernelProfile,
    ) {
        let e = IntVect::dim_vec(dim);
        let ncomp = layout.ncomp();
        let small_dens = self.floors.small_dens;
        ex.par_for_prof(vb, profile, |i, j, k| {
            let (ip, jp, kp) = (i + e.x(), j + e.y(), k + e.z());
            for c in 0..ncomp {
                if c == StateLayout::TEMP {
                    continue;
                }
                let du = -dtdx * (farr.at(ip, jp, kp, c) - farr.at(i, j, k, c));
                uarr.add(i, j, k, c, du);
            }
            // −p ∇·u source for the auxiliary internal energy.
            let pc = qarr.at(i, j, k, Q::P);
            let div_u = farr.at(ip, jp, kp, ncomp) - farr.at(i, j, k, ncomp);
            uarr.add(i, j, k, StateLayout::EINT, -dtdx * pc * div_u);
            // Density floor.
            if uarr.at(i, j, k, StateLayout::RHO) < small_dens {
                uarr.set(i, j, k, StateLayout::RHO, small_dens);
            }
        });
    }

    /// One directional sweep as a [`HaloGraph`]: the ghost exchange of the
    /// two slabs along `dim` is staged as pack/unpack tasks and the sweep's
    /// kernels hang off it as three per-fab stages (`n` = number of fabs):
    ///
    /// | task        | Flat body                            | Legacy body                                     | depends on                       |
    /// |-------------|--------------------------------------|-------------------------------------------------|----------------------------------|
    /// | `interior f`| primitives on valid, interior fluxes | primitives on valid                             | — (the barrier if not `overlap`) |
    /// | `band f`    | slab primitives, band fluxes         | slab primitives, staged slopes, every face flux | `unpack f`, `interior f`         |
    /// | `update f`  | conservative update of f             | conservative update of f                        | `interior f`, `band f`, `pack f` |
    ///
    /// `update f` waits on `pack f` because the pack reads f's valid zones;
    /// the ghost-exchange buffers must capture pre-update data exactly as
    /// an MPI isend would. Legacy stages its slopes in `band` because the
    /// slopes of the zones next to the box faces read ghosts.
    #[allow(clippy::too_many_arguments)]
    fn sweep_graph(
        &self,
        state: &mut MultiFab,
        dim: usize,
        dt: Real,
        geom: &Geometry,
        layout: &StateLayout,
        eos: &dyn Eos,
        species: &[Species],
        bc: &BcSpec,
        ex: &ExecSpace,
        arena: &dyn Arena,
    ) -> (SweepFluxes, CommTrace) {
        const STAGES: [HaloStage; 3] = [
            HaloStage {
                name: "interior",
                after: &[],
            },
            HaloStage {
                name: "band",
                after: &[HaloDep::Unpack, HaloDep::Stage(0)],
            },
            HaloStage {
                name: "update",
                after: &[HaloDep::Stage(0), HaloDep::Stage(1), HaloDep::Pack],
            },
        ];
        assert!(state.ngrow() >= 2, "hydro needs two ghost zones");
        let n = state.nfabs();
        let nq = Q::ncomp(layout.nspec);
        let nflux = layout.ncomp() + 1;
        let dtdx = dt / geom.dx()[dim];
        let profile = flux_kernel_profile(layout.nspec, self.structure);
        let legacy = self.structure == KernelStructure::Legacy;

        let vbs: Vec<IndexBox> = (0..n).map(|i| state.valid_box(i)).collect();
        // Primitives on the valid box and the two ghost slabs along the
        // sweep: no face stencil reaches a transverse ghost.
        let qregions: Vec<IndexBox> = vbs.iter().map(|vb| vb.grow_dir(dim, 2)).collect();
        let mut qbufs: Vec<_> = qregions
            .iter()
            .map(|r| arena.alloc(r.num_zones() as usize * nq))
            .collect();
        // Legacy slope staging: every zone whose slope a face reads, i.e.
        // the valid box grown by one along the sweep.
        let sregions: Vec<IndexBox> = if legacy {
            vbs.iter().map(|vb| vb.grow_dir(dim, 1)).collect()
        } else {
            Vec::new()
        };
        let mut sbufs: Vec<_> = sregions
            .iter()
            .map(|r| arena.alloc(r.num_zones() as usize * nq))
            .collect();
        let mut flux_fabs: Vec<FArrayBox> = vbs
            .iter()
            .map(|vb| FArrayBox::new(face_box(*vb, dim), nflux))
            .collect();

        // Plan after the scratch allocations: planning first moved the flux
        // fabs on the heap and cost ~0.5 ms of allocator time per 32³ Sedov
        // step (measured on a 2-core x86-64 host).
        let halo = HaloGraph::new(state, geom, GhostShape::Slabs(dim), &STAGES, self.overlap);
        let trace = {
            let svs = state.fab_views_mut();
            let qvs: Vec<Array4Mut<'_>> = qbufs
                .iter_mut()
                .zip(&qregions)
                .map(|(b, r)| Array4Mut::from_slice(b, *r, nq))
                .collect();
            let slvs: Vec<Array4Mut<'_>> = sbufs
                .iter_mut()
                .zip(&sregions)
                .map(|(b, r)| Array4Mut::from_slice(b, *r, nq))
                .collect();
            let fvs: Vec<Array4Mut<'_>> = flux_fabs.iter_mut().map(|f| f.array_mut()).collect();
            let dim_name = ["x", "y", "z"][dim];
            halo.run(
                &format!("hydro.sweep.{dim_name}"),
                &svs,
                geom,
                bc,
                |stage, f| match stage {
                    0 => {
                        self.primitives_region(&svs[f], vbs[f], layout, eos, species, ex, &qvs[f]);
                        if let Some(faces) = interior_faces(vbs[f], dim).filter(|_| !legacy) {
                            self.flux_region(
                                faces, &qvs[f], None, &fvs[f], dim, dtdx, layout, ex, &profile,
                            );
                        }
                    }
                    1 => {
                        for slab in ghost_slabs(vbs[f], dim) {
                            self.primitives_region(
                                &svs[f], slab, layout, eos, species, ex, &qvs[f],
                            );
                        }
                        if legacy {
                            // Stage limited slopes (extra footprint), then a
                            // second loop reads two of them back per face.
                            let e = IntVect::dim_vec(dim);
                            let (qarr, slarr) = (&qvs[f], &slvs[f]);
                            ex.par_for_prof(sregions[f], &profile, |i, j, k| {
                                for c in 0..nq {
                                    let vm = qarr.at(i - e.x(), j - e.y(), k - e.z(), c);
                                    let v0 = qarr.at(i, j, k, c);
                                    let vp = qarr.at(i + e.x(), j + e.y(), k + e.z(), c);
                                    slarr.set(i, j, k, c, mc_slope(vm, v0, vp));
                                }
                            });
                            self.flux_region(
                                face_box(vbs[f], dim),
                                qarr,
                                Some(slarr),
                                &fvs[f],
                                dim,
                                dtdx,
                                layout,
                                ex,
                                &profile,
                            );
                        } else {
                            for faces in band_faces(vbs[f], dim) {
                                self.flux_region(
                                    faces, &qvs[f], None, &fvs[f], dim, dtdx, layout, ex, &profile,
                                );
                            }
                        }
                    }
                    _ => {
                        self.update_region(
                            vbs[f], &fvs[f], &qvs[f], &svs[f], dim, dtdx, layout, ex, &profile,
                        );
                    }
                },
            )
        };
        (
            SweepFluxes {
                fabs: flux_fabs,
                dim,
            },
            trace,
        )
    }

    /// A full hydro step: three directional sweeps, each one task graph
    /// with its own ghost exchange (see the module docs). Returns
    /// per-dimension fluxes for refluxing and the step's communication
    /// trace for the machine model.
    #[allow(clippy::too_many_arguments)]
    pub fn advance(
        &self,
        state: &mut MultiFab,
        dt: Real,
        geom: &Geometry,
        layout: &StateLayout,
        eos: &dyn Eos,
        species: &[Species],
        bc: &BcSpec,
        ex: &ExecSpace,
        arena: &dyn Arena,
    ) -> (Vec<SweepFluxes>, CommTrace) {
        assert_species_bound(layout);
        let mut fluxes = Vec::with_capacity(3);
        let mut trace = CommTrace::default();
        for dim in 0..3 {
            let (fx, t) =
                self.sweep_graph(state, dim, dt, geom, layout, eos, species, bc, ex, arena);
            trace.merge(&t);
            fluxes.push(fx);
        }
        (fluxes, trace)
    }
}

/// Reconstruct and half-step-trace the left/right primitive states at the
/// face `iv` (between zones `iv − e` and `iv`), rotated so component 0 is
/// the face-normal velocity. If `slopes` is provided (legacy structure)
/// staged slopes are used; otherwise they are recomputed inline (flat).
#[allow(clippy::too_many_arguments)]
#[inline]
fn trace_pair(
    q: &Array4Mut<'_>,
    iv: IntVect,
    e: IntVect,
    dim: usize,
    dtdx: Real,
    nspec: usize,
    slopes: Option<&Array4Mut<'_>>,
    floors: &Floors,
) -> (TracedState, TracedState) {
    let zl = iv - e;
    let zr = iv;
    let ql = trace_one(q, zl, e, dim, dtdx, nspec, 0.5, slopes, floors);
    let qr = trace_one(q, zr, e, dim, dtdx, nspec, -0.5, slopes, floors);
    (ql, qr)
}

/// A traced face state: rotated primitive plus species.
struct TracedState {
    /// Rotated primitive (`vel[0]` is the face normal).
    prim: Primitive,
    /// Species mass fractions (the first `nspec` slots).
    x: [Real; StateLayout::MAX_SPEC],
}

/// Trace zone `z`'s state to its face at `side` (+0.5 = high face, −0.5 =
/// low face) over a half step.
#[allow(clippy::too_many_arguments)]
#[inline]
fn trace_one(
    q: &Array4Mut<'_>,
    z: IntVect,
    e: IntVect,
    dim: usize,
    dtdx: Real,
    nspec: usize,
    side: Real,
    slopes: Option<&Array4Mut<'_>>,
    floors: &Floors,
) -> TracedState {
    let at = |iv: IntVect, c: usize| q.at(iv.x(), iv.y(), iv.z(), c);
    let slope = |c: usize| -> Real {
        match slopes {
            Some(s) => s.at(z.x(), z.y(), z.z(), c),
            None => mc_slope(at(z - e, c), at(z, c), at(z + e, c)),
        }
    };
    // Cell-centred values.
    let rho = at(z, Q::RHO);
    let un = at(z, Q::U + dim);
    let p = at(z, Q::P);
    let ei = at(z, Q::E);
    let cs = at(z, Q::C);
    // Limited slopes.
    let d_rho = slope(Q::RHO);
    let d_un = slope(Q::U + dim);
    let d_p = slope(Q::P);
    let d_e = slope(Q::E);
    // Half-step primitive-variable evolution: dq/dt = −A(q) ∂q/∂x.
    let half = 0.5 * dtdx;
    let rho_t = -(un * d_rho + rho * d_un);
    let un_t = -(un * d_un + d_p / rho.max(1e-300));
    let p_t = -(un * d_p + rho * cs * cs * d_un);
    let e_t = -(un * d_e + p / rho.max(1e-300) * d_un);
    // Floors keep the traced state physical through the star/vacuum
    // interfaces of the collision problem; when a traced value would fall
    // below its floor, the zone-centred value is used instead (local
    // first-order fallback).
    let rho_tr = rho + side * d_rho + half * rho_t;
    let p_tr = p + side * d_p + half * p_t;
    let e_tr = ei + side * d_e + half * e_t;
    let fallback = rho_tr < floors.small_dens || p_tr < floors.small_pres || e_tr <= 0.0;
    let mut prim = if fallback {
        Primitive {
            rho: rho.max(floors.small_dens),
            vel: [0.0; 3],
            p: p.max(floors.small_pres),
            e: ei.max(1e-300),
            cs,
        }
    } else {
        Primitive {
            rho: rho_tr,
            vel: [0.0; 3],
            p: p_tr,
            e: e_tr,
            cs,
        }
    };
    let (side, half) = if fallback { (0.0, 0.0) } else { (side, half) };
    prim.vel[0] = un + side * d_un + half * un_t;
    // Transverse velocities and species advect passively.
    for (slot, t) in [(1usize, (dim + 1) % 3), (2usize, (dim + 2) % 3)] {
        let v = at(z, Q::U + t);
        let d_v = slope(Q::U + t);
        prim.vel[slot] = v + side * d_v + half * (-(un * d_v));
    }
    // Approximate traced sound speed via frozen Γ₁.
    let gam1 = cs * cs * rho / p.max(1e-300);
    prim.cs = (gam1 * prim.p / prim.rho).sqrt();
    let mut x = [0.0; StateLayout::MAX_SPEC];
    for s in 0..nspec {
        let xv = at(z, Q::FS + s);
        let d_x = slope(Q::FS + s);
        x[s] = (xv + side * d_x + half * (-(un * d_x))).clamp(0.0, 1.0);
    }
    TracedState { prim, x }
}

/// Solve the face Riemann problem and store the (un-rotated) conserved
/// fluxes plus the face normal velocity in the flux fab.
#[inline]
#[allow(clippy::too_many_arguments)]
fn write_flux(
    farr: &Array4Mut<'_>,
    i: i32,
    j: i32,
    k: i32,
    ql: &TracedState,
    qr: &TracedState,
    dim: usize,
    layout: &StateLayout,
) {
    let f = hllc(&ql.prim, &qr.prim);
    let ncomp = layout.ncomp();
    farr.set(i, j, k, StateLayout::RHO, f.mass);
    // Rotate momenta back: mom[0] is normal (dim), mom[1] is (dim+1)%3...
    farr.set(i, j, k, StateLayout::MX + dim, f.mom[0]);
    farr.set(i, j, k, StateLayout::MX + (dim + 1) % 3, f.mom[1]);
    farr.set(i, j, k, StateLayout::MX + (dim + 2) % 3, f.mom[2]);
    farr.set(i, j, k, StateLayout::EDEN, f.energy);
    farr.set(i, j, k, StateLayout::EINT, f.eint);
    farr.set(i, j, k, StateLayout::TEMP, 0.0);
    let xs = if f.upwind_left { &ql.x } else { &qr.x };
    for s in 0..layout.nspec {
        farr.set(i, j, k, layout.spec(s), f.mass * xs[s]);
    }
    // Face normal velocity for the −p∇·u source: mass flux / upwind rho is
    // a decent contact-speed proxy, clamped to the local signal speed to
    // stay bounded at near-vacuum faces.
    let rho_up = if f.upwind_left {
        ql.prim.rho
    } else {
        qr.prim.rho
    };
    let vmax = ql.prim.vel[0].abs().max(qr.prim.vel[0].abs()) + ql.prim.cs.max(qr.prim.cs);
    let uface = (f.mass / rho_up.max(1e-300)).clamp(-vmax, vmax);
    farr.set(i, j, k, ncomp, uface);
}

#[cfg(test)]
mod tests {
    use super::*;
    use exastro_amr::{BcKind, BoxArray, DistributionMapping};
    use exastro_microphysics::network::Network;
    use exastro_microphysics::{CBurn2, Composition, GammaLaw};
    use exastro_parallel::PoolArena;

    /// Build a pseudo-1D Sod shock tube along `dim`.
    fn sod_state(n: i32, dim: usize) -> (Geometry, MultiFab, StateLayout, GammaLaw) {
        let mut size = IntVect::splat(4);
        size[dim] = n;
        let domain = IndexBox::sized(size);
        let mut hi = [1e-2; 3];
        hi[dim] = 1.0;
        let mut periodic = [true; 3];
        periodic[dim] = false;
        let geom = Geometry::new(
            domain,
            [0.0; 3],
            hi,
            periodic,
            exastro_amr::CoordSys::Cartesian,
        );
        let ba = BoxArray::decompose(domain, n.max(8), 4);
        let dm = DistributionMapping::all_local(&ba);
        let layout = StateLayout::new(2);
        let mut state = MultiFab::new(ba, dm, layout.ncomp(), 2);
        let eos = GammaLaw { gamma: 1.4 };
        let net = CBurn2::new();
        let comp = Composition::from_mass_fractions(net.species(), &[1.0, 0.0]);
        for i in 0..state.nfabs() {
            let vb = state.valid_box(i);
            for iv in vb.iter() {
                let x = geom.cell_center(iv)[dim];
                let (rho, p) = if x < 0.5 { (1.0, 1.0) } else { (0.125, 0.1) };
                let e = eos.e_from_p(rho, p);
                let t = eos.t_from_e(rho, e, &comp, 1e3);
                let fab = state.fab_mut(i);
                fab.set(iv, StateLayout::RHO, rho);
                fab.set(iv, StateLayout::EDEN, rho * e);
                fab.set(iv, StateLayout::EINT, rho * e);
                fab.set(iv, StateLayout::TEMP, t);
                fab.set(iv, layout.spec(0), rho);
            }
        }
        (geom, state, layout, eos)
    }

    fn run_sod(
        structure: KernelStructure,
        nsteps: usize,
        dim: usize,
    ) -> (Geometry, MultiFab, StateLayout) {
        let (geom, mut state, layout, eos) = sod_state(128, dim);
        let net = CBurn2::new();
        let hydro = Hydro {
            cfl: 0.4,
            structure,
            overlap: true,
            floors: Floors::dimensionless(),
        };
        let ex = ExecSpace::Serial;
        let arena = PoolArena::new(None);
        let mut bc = BcSpec::outflow();
        // Periodic transverse dims handled by fill_boundary.
        bc.kind[(dim + 1) % 3] = [BcKind::Periodic; 2];
        bc.kind[(dim + 2) % 3] = [BcKind::Periodic; 2];
        for _ in 0..nsteps {
            let dt = hydro.estimate_dt(&state, &layout, &eos, net.species(), &geom, &ex);
            assert!(dt > 0.0 && dt.is_finite());
            let _ = hydro.advance(
                &mut state,
                dt.min(1e-2),
                &geom,
                &layout,
                &eos,
                net.species(),
                &bc,
                &ex,
                &arena,
            );
        }
        (geom, state, layout)
    }

    #[test]
    fn face_split_tiles_face_box_for_all_widths() {
        for width in 1..=6 {
            for dim in 0..3 {
                let mut hi = IntVect::splat(3);
                hi[dim] = width - 1;
                let vb = IndexBox::new(IntVect::splat(0), hi);
                let fb = face_box(vb, dim);
                let mut covered = vec![0u32; fb.num_zones() as usize];
                let mark = |covered: &mut Vec<u32>, bx: IndexBox| {
                    for (n, iv) in fb.iter().enumerate() {
                        if bx.contains(iv) {
                            covered[n] += 1;
                        }
                    }
                };
                if let Some(ib) = interior_faces(vb, dim) {
                    mark(&mut covered, ib);
                }
                for bb in band_faces(vb, dim) {
                    mark(&mut covered, bb);
                }
                assert!(
                    covered.iter().all(|&c| c == 1),
                    "width {width} dim {dim}: interior+band must tile faces exactly once: {covered:?}"
                );
            }
        }
    }

    #[test]
    fn ghost_slabs_are_outside_and_two_deep() {
        let vb = IndexBox::new(IntVect::splat(0), IntVect::new(7, 3, 3));
        let [lo, hi] = ghost_slabs(vb, 0);
        assert_eq!(lo.lo().x(), -2);
        assert_eq!(lo.hi().x(), -1);
        assert_eq!(hi.lo().x(), 8);
        assert_eq!(hi.hi().x(), 9);
        // Transverse extent stays the valid extent (no corner ghosts).
        assert_eq!(lo.lo().y(), 0);
        assert_eq!(lo.hi().y(), 3);
    }

    #[test]
    fn sod_tube_structure_is_correct() {
        // After some evolution: shock moving right, contact behind it,
        // rarefaction on the left; density stays within [0.125, 1.0] up to
        // small overshoots; total mass in the tube is conserved until waves
        // reach the boundary.
        let (geom, state, layout) = run_sod(KernelStructure::Flat, 40, 0);
        let _ = layout;
        let rho_min = state.min(StateLayout::RHO);
        let rho_max = state.max(StateLayout::RHO);
        assert!(rho_min > 0.1, "min rho {rho_min}");
        assert!(rho_max < 1.05, "max rho {rho_max}");
        // Momentum generated is positive (flow toward low pressure).
        assert!(state.sum(StateLayout::MX) > 0.0);
        // The density at the far right is still the ambient value (shock
        // hasn't reached the wall), left end still 1.0.
        let probe_r = IntVect::new(126, 2, 2);
        let probe_l = IntVect::new(1, 2, 2);
        assert!((state.value_at(probe_r, StateLayout::RHO) - 0.125).abs() < 1e-6);
        assert!((state.value_at(probe_l, StateLayout::RHO) - 1.0).abs() < 1e-6);
        let _ = geom;
    }

    #[test]
    fn flat_and_legacy_agree_bitwise() {
        let (_, sf, _) = run_sod(KernelStructure::Flat, 10, 0);
        let (_, sl, _) = run_sod(KernelStructure::Legacy, 10, 0);
        for i in 0..sf.nfabs() {
            let vb = sf.valid_box(i);
            for iv in vb.iter() {
                for c in 0..sf.ncomp() {
                    let a = sf.fab(i).get(iv, c);
                    let b = sl.fab(i).get(iv, c);
                    assert!(a == b, "structure mismatch at {iv:?} comp {c}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn overlapped_and_sync_paths_agree_bitwise() {
        // Many boxes, fully periodic, smooth multi-dimensional flow: the
        // task-graph schedule must reproduce the bulk-synchronous answer
        // bit for bit, fluxes and traces included.
        let run = |overlap: bool| {
            let geom = Geometry::cube(16, 1.0, true);
            let ba = BoxArray::decompose(geom.domain(), 4, 4);
            let layout = StateLayout::new(2);
            let mut state = MultiFab::local(ba, layout.ncomp(), 2);
            let eos = GammaLaw { gamma: 1.4 };
            let net = CBurn2::new();
            let comp = Composition::from_mass_fractions(net.species(), &[0.7, 0.3]);
            for i in 0..state.nfabs() {
                let vb = state.valid_box(i);
                for iv in vb.iter() {
                    let x = geom.cell_center(iv);
                    let tp = 2.0 * std::f64::consts::PI;
                    let rho = 1.0 + 0.2 * (tp * x[0]).sin() * (tp * x[1]).cos();
                    let u = 0.3 * (tp * x[2]).sin();
                    let v = 0.2 * (tp * x[0]).cos();
                    let p = 1.0 + 0.1 * (tp * x[1]).sin();
                    let e = eos.e_from_p(rho, p);
                    let t = eos.t_from_e(rho, e, &comp, 1e3);
                    let ke = 0.5 * rho * (u * u + v * v);
                    let fab = state.fab_mut(i);
                    fab.set(iv, StateLayout::RHO, rho);
                    fab.set(iv, StateLayout::MX, rho * u);
                    fab.set(iv, StateLayout::MX + 1, rho * v);
                    fab.set(iv, StateLayout::EDEN, rho * e + ke);
                    fab.set(iv, StateLayout::EINT, rho * e);
                    fab.set(iv, StateLayout::TEMP, t);
                    fab.set(iv, layout.spec(0), 0.7 * rho);
                    fab.set(iv, layout.spec(1), 0.3 * rho);
                }
            }
            let hydro = Hydro {
                cfl: 0.4,
                structure: KernelStructure::Flat,
                overlap,
                floors: Floors::dimensionless(),
            };
            let ex = ExecSpace::Serial;
            let arena = PoolArena::new(None);
            let bc = BcSpec::periodic();
            let mut trace = CommTrace::default();
            for _ in 0..3 {
                let dt = hydro.estimate_dt(&state, &layout, &eos, net.species(), &geom, &ex);
                let (_, t) = hydro.advance(
                    &mut state,
                    dt,
                    &geom,
                    &layout,
                    &eos,
                    net.species(),
                    &bc,
                    &ex,
                    &arena,
                );
                trace.merge(&t);
            }
            (state, trace)
        };
        let (so, to) = run(true);
        let (ss, ts) = run(false);
        assert!(so.nfabs() > 8, "want many boxes to stress the graph");
        for i in 0..so.nfabs() {
            let vb = so.valid_box(i);
            for iv in vb.iter() {
                for c in 0..so.ncomp() {
                    let a = so.fab(i).get(iv, c);
                    let b = ss.fab(i).get(iv, c);
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "overlap mismatch fab {i} {iv:?} comp {c}: {a} vs {b}"
                    );
                }
            }
        }
        // The comm trace is priced at plan time and must match exactly.
        assert_eq!(to.network_bytes(), ts.network_bytes());
        assert_eq!(to.local_bytes, ts.local_bytes);
        assert_eq!(to.messages.len(), ts.messages.len());
    }

    #[test]
    fn sweeps_are_direction_symmetric() {
        // The same 1-D problem run along x, y, and z gives identical
        // profiles.
        let (ga, sa, _) = run_sod(KernelStructure::Flat, 10, 0);
        let (_, sb, _) = run_sod(KernelStructure::Flat, 10, 1);
        let (_, sc, _) = run_sod(KernelStructure::Flat, 10, 2);
        for i in 0..128 {
            let a = sa.value_at(IntVect::new(i, 2, 2), StateLayout::RHO);
            let b = sb.value_at(IntVect::new(2, i, 2), StateLayout::RHO);
            let c = sc.value_at(IntVect::new(2, 2, i), StateLayout::RHO);
            assert!((a - b).abs() < 1e-12, "x vs y at {i}: {a} {b}");
            assert!((a - c).abs() < 1e-12, "x vs z at {i}: {a} {c}");
        }
        let _ = ga;
    }

    #[test]
    fn periodic_advection_conserves_everything() {
        // Uniform flow in a fully periodic box: conserved quantities must
        // not drift.
        let geom = Geometry::cube(16, 1.0, true);
        let ba = BoxArray::decompose(geom.domain(), 8, 4);
        let layout = StateLayout::new(2);
        let mut state = MultiFab::local(ba, layout.ncomp(), 2);
        let eos = GammaLaw { gamma: 1.4 };
        let net = CBurn2::new();
        let comp = Composition::from_mass_fractions(net.species(), &[0.5, 0.5]);
        for i in 0..state.nfabs() {
            let vb = state.valid_box(i);
            for iv in vb.iter() {
                let x = geom.cell_center(iv);
                // Smooth density ripple advected by uniform velocity.
                let rho = 1.0 + 0.1 * (2.0 * std::f64::consts::PI * x[0]).sin();
                let u = 1.0;
                let p = 1.0;
                let e = eos.e_from_p(rho, p);
                let t = eos.t_from_e(rho, e, &comp, 1e3);
                let fab = state.fab_mut(i);
                fab.set(iv, StateLayout::RHO, rho);
                fab.set(iv, StateLayout::MX, rho * u);
                fab.set(iv, StateLayout::EDEN, rho * e + 0.5 * rho * u * u);
                fab.set(iv, StateLayout::EINT, rho * e);
                fab.set(iv, StateLayout::TEMP, t);
                fab.set(iv, layout.spec(0), 0.5 * rho);
                fab.set(iv, layout.spec(1), 0.5 * rho);
            }
        }
        let mass0 = state.sum(StateLayout::RHO);
        let mom0 = state.sum(StateLayout::MX);
        let en0 = state.sum(StateLayout::EDEN);
        let sp0 = state.sum(layout.spec(0));
        let hydro = Hydro {
            floors: Floors::dimensionless(),
            ..Default::default()
        };
        let ex = ExecSpace::Serial;
        let arena = PoolArena::new(None);
        let bc = BcSpec::periodic();
        for _ in 0..10 {
            let dt = hydro.estimate_dt(&state, &layout, &eos, net.species(), &geom, &ex);
            let _ = hydro.advance(
                &mut state,
                dt,
                &geom,
                &layout,
                &eos,
                net.species(),
                &bc,
                &ex,
                &arena,
            );
        }
        assert!((state.sum(StateLayout::RHO) / mass0 - 1.0).abs() < 1e-12);
        assert!((state.sum(StateLayout::MX) / mom0 - 1.0).abs() < 1e-12);
        assert!((state.sum(StateLayout::EDEN) / en0 - 1.0).abs() < 1e-11);
        assert!((state.sum(layout.spec(0)) / sp0 - 1.0).abs() < 1e-12);
        // Positivity throughout.
        assert!(state.min(StateLayout::RHO) > 0.5);
    }

    #[test]
    #[should_panic(expected = "17 species exceed the hydro bound of 16")]
    fn more_species_than_the_bound_panic_instead_of_aliasing() {
        // The face kernels hold species in MAX_SPEC stack slots; a 17th
        // species used to take species 15's mass fraction in its flux.
        let geom = Geometry::cube(8, 1.0, true);
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let layout = StateLayout::new(StateLayout::MAX_SPEC + 1);
        let mut state = MultiFab::local(ba, layout.ncomp(), 2);
        state.set_val_all(1.0);
        let net = CBurn2::new();
        let _ = Hydro::default().advance(
            &mut state,
            1e-3,
            &geom,
            &layout,
            &GammaLaw { gamma: 1.4 },
            net.species(),
            &BcSpec::periodic(),
            &ExecSpace::Serial,
            &PoolArena::new(None),
        );
    }

    #[test]
    fn pool_arena_sees_hydro_scratch_churn() {
        let arena = PoolArena::new(None);
        let (geom, mut state, layout, eos) = sod_state(32, 0);
        let net = CBurn2::new();
        let hydro = Hydro {
            floors: Floors::dimensionless(),
            ..Default::default()
        };
        let ex = ExecSpace::Serial;
        let mut bc = BcSpec::outflow();
        bc.kind[1] = [BcKind::Periodic; 2];
        bc.kind[2] = [BcKind::Periodic; 2];
        for _ in 0..3 {
            let _ = hydro.advance(
                &mut state,
                1e-3,
                &geom,
                &layout,
                &eos,
                net.species(),
                &bc,
                &ex,
                &arena,
            );
        }
        let s = arena.stats();
        assert!(s.allocs >= 9, "3 steps × 3 sweeps of scratch: {}", s.allocs);
        // After warm-up, allocations are pool hits.
        assert!(
            s.pool_hits >= s.allocs - 4,
            "hits {} of {}",
            s.pool_hits,
            s.allocs
        );
    }
}
