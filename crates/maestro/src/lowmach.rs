//! The low-Mach-number advance: advection, buoyancy, reactions, and the
//! divergence projection.
//!
//! MAESTROeX filters sound waves analytically: the velocity is constrained
//! to (approximately) divergence-free by a global *projection* — an
//! elliptic solve performed with multigrid — while the thermodynamics ride
//! on the hydrostatic base state. The timestep is set by the *fluid*
//! velocity, not the sound speed, allowing steps orders of magnitude larger
//! than a compressible code's (§II). The cost profile of one step is
//! exactly the paper's §IV-B description: zone-local reactions plus a
//! communication-heavy multigrid solve, "approximately equally balanced" at
//! one node.

use crate::base_state::{rho_from_p_t, BaseState};
use exastro_amr::{
    Array4Mut, BcKind, BcSpec, CommTrace, Geometry, GhostShape, HaloDep, HaloGraph, HaloStage,
    IndexBox, IntVect, MultiFab, Real, SPACEDIM,
};
use exastro_microphysics::{
    BurnFailure, BurnFaultConfig, BurnTally, BurnerConfig, Composition, Eos, Network, RetryLadder,
    SolverChoice, ZoneBurn,
};
use exastro_parallel::Profiler;
use exastro_resilience::recovery::{write_emergency, RecoveryOptions};
use exastro_resilience::snapshot::Clock;
use exastro_resilience::stepper::{StepFailure, StepOutcome, Stepper};
use exastro_solvers::{MgBc, MgOptions, MgStats, Multigrid};
use exastro_telemetry::{StepMetrics, StepRecorder};
use std::path::PathBuf;
use std::time::Instant;

/// Component indices of the low-Mach state.
#[derive(Clone, Copy, Debug)]
pub struct LmLayout {
    /// Number of species.
    pub nspec: usize,
}

impl LmLayout {
    /// x-velocity.
    pub const U: usize = 0;
    /// y-velocity.
    pub const V: usize = 1;
    /// z-velocity.
    pub const W: usize = 2;
    /// Temperature.
    pub const TEMP: usize = 3;
    /// Density (diagnostic; re-derived from p₀ and T each step).
    pub const RHO: usize = 4;
    /// First species mass fraction.
    pub const FS: usize = 5;

    /// Layout for `nspec` species.
    pub fn new(nspec: usize) -> Self {
        LmLayout { nspec }
    }

    /// Total components.
    pub fn ncomp(&self) -> usize {
        Self::FS + self.nspec
    }

    /// Species component index.
    pub fn spec(&self, k: usize) -> usize {
        Self::FS + k
    }
}

/// Statistics from one low-Mach step.
#[derive(Clone, Debug, Default)]
pub struct LmStepStats {
    /// Multigrid projection statistics.
    pub projection: Option<MgStats>,
    /// Total burner integrator steps (reaction cost proxy).
    pub burn_steps: u64,
    /// Total Newton iterations over all burned zones.
    pub burn_newton_iters: u64,
    /// Burn retry-ladder attempts beyond the first, summed over zones.
    pub burn_retries: u64,
    /// Zones that needed at least one retry to burn.
    pub burn_recovered: u64,
    /// Zones whose winning rung was relaxed-tolerance.
    pub burn_recovered_relaxed: u64,
    /// Zones whose winning rung was subcycling.
    pub burn_recovered_subcycle: u64,
    /// Zones rescued by the §VI outlier-offload rung.
    pub burn_offloaded: u64,
    /// Peak temperature after the step.
    pub max_temp: Real,
    /// Peak vertical velocity.
    pub max_w: Real,
    /// Communication performed by the step (advection ghost exchange plus
    /// the projection's velocity/potential fills), merged across phases.
    pub comm: CommTrace,
}

/// A violation found by the low-Mach post-step validator.
#[derive(Clone, Debug, PartialEq)]
pub enum LmStateViolation {
    /// A state component is NaN or infinite.
    NonFinite {
        /// Component index in the state layout.
        comp: usize,
        /// The first offending zone.
        zone: IntVect,
    },
    /// Density at or below zero.
    NegativeDensity {
        /// The offending density value.
        rho: Real,
        /// The first offending zone.
        zone: IntVect,
    },
    /// Temperature at or below zero.
    NegativeTemperature {
        /// The offending temperature value.
        t: Real,
        /// The first offending zone.
        zone: IntVect,
    },
    /// Species mass fractions drifted away from ΣX = 1.
    SpeciesDrift {
        /// The observed |ΣX − 1|.
        drift: Real,
        /// The first offending zone.
        zone: IntVect,
    },
}

impl std::fmt::Display for LmStateViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LmStateViolation::NonFinite { comp, zone } => {
                write!(f, "non-finite value in component {comp} at {zone:?}")
            }
            LmStateViolation::NegativeDensity { rho, zone } => {
                write!(f, "non-positive density {rho:.3e} at {zone:?}")
            }
            LmStateViolation::NegativeTemperature { t, zone } => {
                write!(f, "non-positive temperature {t:.3e} at {zone:?}")
            }
            LmStateViolation::SpeciesDrift { drift, zone } => {
                write!(f, "|ΣX − 1| = {drift:.3e} at {zone:?}")
            }
        }
    }
}

/// Why one attempted low-Mach step could not be accepted. On `Err` the
/// state is tainted and must be restored from a pre-step snapshot
/// ([`Maestro::advance_safe`] does that).
#[derive(Debug)]
pub enum LmStepError {
    /// One or more reaction zones exhausted the retry ladder.
    Burn(Vec<BurnFailure>),
    /// The post-step validator rejected the state.
    Invalid(LmStateViolation),
}

impl std::fmt::Display for LmStepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LmStepError::Burn(fails) => {
                write!(f, "{} reaction zone(s) failed all retries", fails.len())?;
                if let Some(first) = fails.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            LmStepError::Invalid(v) => write!(f, "post-step validation failed: {v}"),
        }
    }
}

impl std::error::Error for LmStepError {}

/// An unrecoverable low-Mach step: the state is left restored to its
/// pre-step contents and an emergency checkpoint (with the base state in
/// the auxiliary arrays) is written when configured.
#[derive(Debug)]
pub struct LmDriverError {
    /// The error from the final attempt.
    pub error: LmStepError,
    /// Step attempts made (1 initial + retries).
    pub rejections: u32,
    /// The smallest `dt` attempted before giving up.
    pub dt_floor: Real,
    /// Path of the emergency checkpoint, if one was written.
    pub emergency_checkpoint: Option<PathBuf>,
}

impl std::fmt::Display for LmDriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "low-Mach step unrecoverable after {} attempt(s) (dt floor {:.3e}): {}",
            self.rejections, self.dt_floor, self.error
        )?;
        if let Some(p) = &self.emergency_checkpoint {
            write!(f, " [emergency checkpoint: {}]", p.display())?;
        }
        Ok(())
    }
}

impl std::error::Error for LmDriverError {}

/// The low-Mach solver.
pub struct Maestro<'a> {
    /// State layout.
    pub layout: LmLayout,
    /// EOS.
    pub eos: &'a dyn Eos,
    /// Reaction network.
    pub net: &'a dyn Network,
    /// Hydrostatic base state.
    pub base: BaseState,
    /// Advective CFL number.
    pub cfl: Real,
    /// Enable reactions.
    pub do_burn: bool,
    /// Skip burning below this temperature.
    pub burn_min_temp: Real,
    /// Burn failure-recovery ladder.
    pub ladder: RetryLadder,
    /// Newton linear-solver policy for the burn (dense or sparse).
    pub burn_solver: SolverChoice,
    /// Deterministic burn fault injection (tests / CI smoke).
    pub burn_faults: Option<BurnFaultConfig>,
    /// Lane width of the batched SoA burn path (see
    /// [`exastro_microphysics::batch`]); width < 2 keeps every zone on the
    /// scalar retry ladder.
    pub burn_batch_width: usize,
    /// Overlap the advection ghost exchange with stencil-interior
    /// advection. The advect step is one task graph either way; `false`
    /// adds the barrier that makes every unpack finish before any interior
    /// advection starts (bulk-synchronous, bit-identical results).
    pub overlap: bool,
    /// Step-rejection policy and emergency-checkpoint destination.
    pub recovery: RecoveryOptions,
    /// Per-step metrics recorder; inert until a sink is attached via
    /// [`StepRecorder::attach_sink`].
    pub telemetry: StepRecorder,
}

impl<'a> Maestro<'a> {
    /// Boundary conditions: periodic laterally, solid walls vertically
    /// (normal velocity reflects odd).
    pub fn bc(&self) -> BcSpec {
        let mut bc = BcSpec {
            kind: [[BcKind::Periodic; 2]; SPACEDIM],
            reflect_odd: vec![(LmLayout::W, 2)],
        };
        bc.kind[2] = [BcKind::Reflect; 2];
        bc
    }

    /// Advective CFL timestep — sound speed does *not* appear.
    pub fn estimate_dt(&self, state: &MultiFab, geom: &Geometry) -> Real {
        let dx = geom.min_dx();
        let mut vmax: Real = 1e-10;
        for (i, vb) in state.iter_boxes() {
            for iv in vb.iter() {
                for d in 0..3 {
                    vmax = vmax.max(state.fab(i).get(iv, LmLayout::U + d).abs());
                }
            }
        }
        self.cfl * dx / vmax
    }

    /// Recompute the density from the base pressure and local (T, X): the
    /// low-Mach equation of state constraint.
    pub fn enforce_density(&self, state: &mut MultiFab, geom: &Geometry) {
        let _ = geom;
        let nspec = self.layout.nspec;
        let mut x = [0.0; 32];
        assert!(nspec <= x.len(), "{nspec} species exceed {}", x.len());
        for i in 0..state.nfabs() {
            let vb = state.valid_box(i);
            for iv in vb.iter() {
                let kz = iv.z().clamp(0, self.base.nz() as i32 - 1) as usize;
                let t = state.fab(i).get(iv, LmLayout::TEMP);
                for s in 0..nspec {
                    x[s] = state.fab(i).get(iv, self.layout.spec(s)).clamp(0.0, 1.0);
                }
                let comp = Composition::from_mass_fractions(self.net.species(), &x[..nspec]);
                let rho_old = state.fab(i).get(iv, LmLayout::RHO).max(1e-6);
                let rho = rho_from_p_t(self.base.p0[kz], t, &comp, self.eos, rho_old);
                state.fab_mut(i).set(iv, LmLayout::RHO, rho);
            }
        }
    }

    /// The zones of `vb` whose 1-zone upwind stencil lies entirely in valid
    /// data — advection there needs no ghosts. `None` when the box is too
    /// narrow (< 3 zones in some dimension) to have any.
    fn stencil_interior(vb: IndexBox) -> Option<IndexBox> {
        (0..3)
            .all(|d| vb.hi()[d] - vb.lo()[d] >= 2)
            .then(|| vb.grow(-1))
    }

    /// Upwind-advect the zones of `vb` selected by `include`, reading
    /// pre-step data from the snapshot view `ov` and writing the state view
    /// `sv`. Pointwise in the destination zone, so any partition of the
    /// valid box computes identical updates — the `interior` and `boundary`
    /// tasks share this body, so any split of the box is bit-identical.
    fn advect_view_zones<F: Fn(IntVect) -> bool>(
        &self,
        sv: &Array4Mut<'_>,
        ov: &Array4Mut<'_>,
        vb: IndexBox,
        geom: &Geometry,
        dt: Real,
        include: F,
    ) {
        let dx = geom.dx();
        let ncomp = self.layout.ncomp();
        let mut buf = [0.0; 40];
        assert!(
            ncomp <= buf.len(),
            "{ncomp} components exceed {}",
            buf.len()
        );
        for iv in vb.iter() {
            if !include(iv) {
                continue;
            }
            let upd = &mut buf[..ncomp];
            upd.fill(0.0);
            for d in 0..3 {
                let e = IntVect::dim_vec(d);
                let vel = ov.at(iv.x(), iv.y(), iv.z(), LmLayout::U + d);
                for (c, u) in upd.iter_mut().enumerate() {
                    let lo = iv - e;
                    let hi = iv + e;
                    let grad = if vel >= 0.0 {
                        ov.at(iv.x(), iv.y(), iv.z(), c) - ov.at(lo.x(), lo.y(), lo.z(), c)
                    } else {
                        ov.at(hi.x(), hi.y(), hi.z(), c) - ov.at(iv.x(), iv.y(), iv.z(), c)
                    };
                    *u -= vel * grad / dx[d] * dt;
                }
            }
            for (c, u) in upd.iter().enumerate() {
                let v = sv.at(iv.x(), iv.y(), iv.z(), c) + u;
                sv.set(iv.x(), iv.y(), iv.z(), c, v);
            }
        }
    }

    /// Exchange + first-order upwind advection of all components by the
    /// cell velocity, as one [`HaloGraph`] so the overlap is *measured*,
    /// not assumed: per fab, `pack` (Comm) captures send buffers from the
    /// pre-step snapshot, `unpack` (Comm) completes the exchange into the
    /// snapshot's ghosts and applies physical BCs, `interior` (Compute)
    /// advects all stencil-interior zones with no dependencies (free to run
    /// while halos are in flight), and `boundary` (Compute) advects the
    /// remaining zones after `unpack`, then syncs the state's own ghosts to
    /// the snapshot's (the projection's velocity copy reads them). Without
    /// [`Maestro::overlap`] a barrier task holds every `interior` until all
    /// unpacks are done; the result is bit-identical either way. With graph
    /// tracing enabled the schedule lands in
    /// [`exastro_telemetry::graphtrace`] under the label `lowmach.advect`.
    fn advect_graph(
        &self,
        state: &mut MultiFab,
        geom: &Geometry,
        bc: &BcSpec,
        dt: Real,
    ) -> CommTrace {
        const STAGES: [HaloStage; 2] = [
            HaloStage {
                name: "interior",
                after: &[],
            },
            HaloStage {
                name: "boundary",
                after: &[HaloDep::Unpack],
            },
        ];
        let n = state.nfabs();
        let ncomp = self.layout.ncomp();
        let halo = HaloGraph::new(state, geom, GhostShape::Full, &STAGES, self.overlap);
        let mut old = state.clone();
        let vbs: Vec<IndexBox> = (0..n).map(|i| state.valid_box(i)).collect();
        let gbs: Vec<IndexBox> = (0..n).map(|i| state.grown_box(i)).collect();
        let svs = state.fab_views_mut();
        // The exchange reads and fills the snapshot, which holds the same
        // pre-advect values a one-shot fill would exchange.
        let ovs = old.fab_views_mut();
        halo.run("lowmach.advect", &ovs, geom, bc, |stage, f| {
            let interior = Self::stencil_interior(vbs[f]);
            let in_interior = |iv: IntVect| interior.is_some_and(|ib| ib.contains(iv));
            if stage == 0 {
                if interior.is_some() {
                    self.advect_view_zones(&svs[f], &ovs[f], vbs[f], geom, dt, in_interior);
                }
                return;
            }
            self.advect_view_zones(&svs[f], &ovs[f], vbs[f], geom, dt, |iv| !in_interior(iv));
            // Restore the ghost picture of a one-shot fill: pre-advect
            // exchanged-and-bc'd values.
            let (sv, ov) = (&svs[f], &ovs[f]);
            for iv in gbs[f].iter() {
                if vbs[f].contains(iv) {
                    continue;
                }
                for c in 0..ncomp {
                    sv.set(iv.x(), iv.y(), iv.z(), c, ov.at(iv.x(), iv.y(), iv.z(), c));
                }
            }
        })
    }

    /// Buoyancy source: `w += −g (ρ − ρ₀)/ρ dt`.
    fn buoyancy(&self, state: &mut MultiFab, dt: Real) {
        for i in 0..state.nfabs() {
            let vb = state.valid_box(i);
            for iv in vb.iter() {
                let kz = iv.z().clamp(0, self.base.nz() as i32 - 1) as usize;
                let rho = state.fab(i).get(iv, LmLayout::RHO).max(1e-12);
                let drho = rho - self.base.rho0[kz];
                let dw = -self.base.grav * drho / rho * dt;
                let w = state.fab(i).get(iv, LmLayout::W) + dw;
                state.fab_mut(i).set(iv, LmLayout::W, w);
            }
        }
    }

    /// Project the velocity onto the (approximately) divergence-free space:
    /// solve `∇²φ = ∇·U / dt`, then `U −= dt ∇φ`. This is the global
    /// multigrid solve that dominates MAESTROeX communication at scale.
    pub fn project(&self, state: &mut MultiFab, geom: &Geometry, dt: Real) -> (MgStats, CommTrace) {
        let ba = state.box_array().clone();
        let dm = state.dist_map().clone();
        let mut rhs = MultiFab::new(ba.clone(), dm.clone(), 1, 0);
        let mut vel = MultiFab::new(ba.clone(), dm.clone(), 3, 1);
        for i in 0..state.nfabs() {
            let gb = state.grown_box(i);
            for iv in gb.iter() {
                for d in 0..3 {
                    vel.fab_mut(i)
                        .set(iv, d, state.fab(i).get(iv, LmLayout::U + d));
                }
            }
        }
        let mut comm = vel.fill_boundary(geom);
        let velbc = BcSpec {
            kind: {
                let mut k = [[BcKind::Periodic; 2]; SPACEDIM];
                k[2] = [BcKind::Reflect; 2];
                k
            },
            reflect_odd: vec![(2, 2)],
        };
        vel.fill_physical_bc(geom, &velbc);
        let dx = geom.dx();
        let mut total = 0.0;
        for i in 0..rhs.nfabs() {
            let vb = rhs.valid_box(i);
            for iv in vb.iter() {
                let mut div = 0.0;
                for d in 0..3 {
                    let e = IntVect::dim_vec(d);
                    div += (vel.fab(i).get(iv + e, d) - vel.fab(i).get(iv - e, d)) / (2.0 * dx[d]);
                }
                rhs.fab_mut(i).set(iv, 0, div / dt);
                total += div / dt;
            }
        }
        // Remove the nullspace component (periodic/Neumann solvability).
        let mean = total / geom.domain().num_zones() as Real;
        for i in 0..rhs.nfabs() {
            let vb = rhs.valid_box(i);
            for iv in vb.iter() {
                let v = rhs.fab(i).get(iv, 0) - mean;
                rhs.fab_mut(i).set(iv, 0, v);
            }
        }
        let mut phi = MultiFab::new(ba, dm, 1, 1);
        let mg = Multigrid::poisson(
            [MgBc::Periodic, MgBc::Periodic, MgBc::Neumann],
            MgOptions {
                tol_rel: 1e-9,
                max_cycles: 40,
                ..Default::default()
            },
        );
        let stats = mg.solve(&mut phi, &rhs, geom);
        let phi_trace = phi.fill_boundary(geom);
        comm.merge(&phi_trace);
        // Neumann ghosts at the walls.
        let phibc = BcSpec {
            kind: {
                let mut k = [[BcKind::Periodic; 2]; SPACEDIM];
                k[2] = [BcKind::Outflow; 2];
                k
            },
            reflect_odd: vec![],
        };
        phi.fill_physical_bc(geom, &phibc);
        for i in 0..state.nfabs() {
            let vb = state.valid_box(i);
            for iv in vb.iter() {
                for d in 0..3 {
                    let e = IntVect::dim_vec(d);
                    let grad =
                        (phi.fab(i).get(iv + e, 0) - phi.fab(i).get(iv - e, 0)) / (2.0 * dx[d]);
                    let v = state.fab(i).get(iv, LmLayout::U + d) - dt * grad;
                    state.fab_mut(i).set(iv, LmLayout::U + d, v);
                }
            }
        }
        (stats, comm)
    }

    /// React every zone for `dt` (temperature and composition evolve at
    /// constant local density), with failed zones retried through the
    /// configured [`RetryLadder`]. Zone ids follow the sweep order over all
    /// valid zones — including skipped cold zones — so they are identical
    /// between the two Strang halves, which makes fault injection and
    /// failure reports reproducible.
    fn react(&self, state: &mut MultiFab, dt: Real) -> Result<BurnTally, Vec<BurnFailure>> {
        let burner = BurnerConfig {
            solver: self.burn_solver,
            ladder: self.ladder.clone(),
            faults: self.burn_faults.clone(),
            batch_width: self.burn_batch_width,
            ..Default::default()
        }
        .build_batched(self.net, self.eos);
        let nspec = self.layout.nspec;
        let mut totals = BurnTally::default();
        let mut failures: Vec<BurnFailure> = Vec::new();
        // Gather pass: every zone above the cutoff, with sweep-order ids.
        let mut zones: Vec<ZoneBurn> = Vec::new();
        let mut sites: Vec<(usize, IntVect)> = Vec::new();
        let mut zone_id: u64 = 0;
        for i in 0..state.nfabs() {
            let vb = state.valid_box(i);
            for iv in vb.iter() {
                let id = zone_id;
                zone_id += 1;
                let t = state.fab(i).get(iv, LmLayout::TEMP);
                if t < self.burn_min_temp {
                    continue;
                }
                let rho = state.fab(i).get(iv, LmLayout::RHO).max(1e-12);
                let mut x = vec![0.0; nspec];
                for s in 0..nspec {
                    x[s] = state.fab(i).get(iv, self.layout.spec(s)).clamp(0.0, 1.0);
                }
                zones.push(ZoneBurn {
                    zone: id,
                    rho,
                    t0: t,
                    x0: x,
                });
                sites.push((i, iv));
            }
        }
        // Burn through the SoA batches, scatter back in input order.
        for ((i, iv), res) in sites.into_iter().zip(burner.burn_all(&zones, dt)) {
            match res {
                Ok(rec) => {
                    totals.record(&rec);
                    state.fab_mut(i).set(iv, LmLayout::TEMP, rec.outcome.t);
                    for s in 0..nspec {
                        state
                            .fab_mut(i)
                            .set(iv, self.layout.spec(s), rec.outcome.x[s]);
                    }
                }
                // Keep sweeping: report every hard zone, not just the
                // first one found.
                Err(f) => failures.push(*f),
            }
        }
        if failures.is_empty() {
            Ok(totals)
        } else {
            Err(failures)
        }
    }

    /// Check the post-step state for physical sanity: every component
    /// finite, density and temperature positive, ΣX within `species_tol`
    /// of one. Returns the first violation in sweep order.
    pub fn validate_state(
        &self,
        state: &MultiFab,
        species_tol: Real,
    ) -> Result<(), LmStateViolation> {
        let ncomp = self.layout.ncomp();
        let nspec = self.layout.nspec;
        for (i, vb) in state.iter_boxes() {
            for iv in vb.iter() {
                for c in 0..ncomp {
                    let v = state.fab(i).get(iv, c);
                    if !v.is_finite() {
                        return Err(LmStateViolation::NonFinite { comp: c, zone: iv });
                    }
                }
                let rho = state.fab(i).get(iv, LmLayout::RHO);
                if rho <= 0.0 {
                    return Err(LmStateViolation::NegativeDensity { rho, zone: iv });
                }
                let t = state.fab(i).get(iv, LmLayout::TEMP);
                if t <= 0.0 {
                    return Err(LmStateViolation::NegativeTemperature { t, zone: iv });
                }
                let mut sum = 0.0;
                for s in 0..nspec {
                    sum += state.fab(i).get(iv, self.layout.spec(s));
                }
                let drift = (sum - 1.0).abs();
                if drift > species_tol {
                    return Err(LmStateViolation::SpeciesDrift { drift, zone: iv });
                }
            }
        }
        Ok(())
    }

    /// One full low-Mach step with Strang-split reactions.
    ///
    /// On `Err` the state is **tainted** — partially advanced — and must be
    /// restored from a pre-step snapshot; [`Maestro::advance_safe`] wraps
    /// this call in exactly that snapshot/restore transaction.
    pub fn advance(
        &self,
        state: &mut MultiFab,
        geom: &Geometry,
        dt: Real,
    ) -> Result<LmStepStats, LmStepError> {
        let _prof = Profiler::region("maestro_advance");
        let mut stats = LmStepStats::default();
        let bc = self.bc();
        if self.do_burn {
            let _r = Profiler::region("react");
            let t = self.react(state, 0.5 * dt).map_err(LmStepError::Burn)?;
            stats.burn_steps += t.total_steps;
            stats.burn_newton_iters += t.newton_iters;
            stats.burn_retries += t.retries;
            stats.burn_recovered += t.recovered;
            stats.burn_recovered_relaxed += t.recovered_relaxed;
            stats.burn_recovered_subcycle += t.recovered_subcycle;
            stats.burn_offloaded += t.offloaded;
        }
        {
            let _r = Profiler::region("enforce_density");
            self.enforce_density(state, geom);
        }
        {
            let _r = Profiler::region("advect");
            let trace = self.advect_graph(state, geom, &bc, dt);
            stats.comm.merge(&trace);
            self.buoyancy(state, dt);
        }
        let (proj, proj_comm) = {
            let _r = Profiler::region("project");
            self.project(state, geom, dt)
        };
        stats.comm.merge(&proj_comm);
        stats.projection = Some(proj);
        if self.do_burn {
            let _r = Profiler::region("react");
            let t = self.react(state, 0.5 * dt).map_err(LmStepError::Burn)?;
            stats.burn_steps += t.total_steps;
            stats.burn_newton_iters += t.newton_iters;
            stats.burn_retries += t.retries;
            stats.burn_recovered += t.recovered;
            stats.burn_recovered_relaxed += t.recovered_relaxed;
            stats.burn_recovered_subcycle += t.recovered_subcycle;
            stats.burn_offloaded += t.offloaded;
        }
        {
            let _r = Profiler::region("enforce_density");
            self.enforce_density(state, geom);
        }
        {
            let _r = Profiler::region("validate");
            self.validate_state(state, self.recovery.species_tol)
                .map_err(LmStepError::Invalid)?;
        }
        stats.max_temp = state.max(LmLayout::TEMP);
        stats.max_w = state
            .max(LmLayout::W)
            .abs()
            .max(state.min(LmLayout::W).abs());
        Ok(stats)
    }

    /// Advance one step **transactionally**: snapshot the state, attempt
    /// the step, and on any [`LmStepError`] restore the snapshot and retry
    /// with `dt` cut by [`RecoveryOptions::dt_cut`], up to
    /// [`RecoveryOptions::max_rejections`] attempts. Returns the stats and
    /// the `dt` actually taken.
    ///
    /// If every attempt fails the state is left **restored to its pre-step
    /// contents**, an emergency checkpoint — carrying the base state in its
    /// auxiliary arrays, so the run resumes bit-exact — is written when
    /// [`RecoveryOptions::emergency_dir`] is set, and a structured
    /// [`LmDriverError`] is returned — never a panic.
    pub fn advance_safe(
        &self,
        state: &mut MultiFab,
        geom: &Geometry,
        dt: Real,
    ) -> Result<(LmStepStats, Real), Box<LmDriverError>> {
        let mut try_dt = dt;
        let attempts = self.recovery.max_rejections.max(1);
        let mut last_err = None;
        // Wall clock for the whole transaction, rejected attempts included.
        let step_start = self.telemetry.is_active().then(Instant::now);
        for attempt in 0..attempts {
            let snapshot = state.clone();
            match self.advance(state, geom, try_dt) {
                Ok(stats) => {
                    if let Some(t0) = step_start {
                        self.record_step_metrics(state, &stats, try_dt, t0, attempt);
                    }
                    return Ok((stats, try_dt));
                }
                Err(e) => {
                    *state = snapshot;
                    last_err = Some(e);
                    let _r = Profiler::region("step_reject");
                    Profiler::record_retries(1);
                    if attempt + 1 < attempts {
                        try_dt *= self.recovery.dt_cut;
                    }
                }
            }
        }
        let emergency_checkpoint = self.recovery.emergency_dir.as_deref().and_then(|dir| {
            let snap = crate::restart::snapshot_run(
                geom,
                state,
                &self.base,
                Clock {
                    step: 0,
                    time: 0.0,
                    dt: try_dt,
                },
                &self.layout,
            );
            write_emergency(dir, &snap).ok()
        });
        Err(Box::new(LmDriverError {
            error: last_err.expect("at least one attempt was made"),
            rejections: attempts,
            dt_floor: try_dt,
            emergency_checkpoint,
        }))
    }

    /// Build and emit the [`StepMetrics`] record for one accepted step.
    /// The low-Mach driver owns no arena, so arena occupancy reads zero.
    fn record_step_metrics(
        &self,
        state: &MultiFab,
        stats: &LmStepStats,
        dt: Real,
        step_start: Instant,
        rejections: u32,
    ) {
        let wall_ns = step_start.elapsed().as_nanos() as u64;
        let zones: u64 = (0..state.nfabs())
            .map(|i| state.valid_box(i).num_zones() as u64)
            .sum();
        self.telemetry.record(StepMetrics {
            driver: "maestro".to_string(),
            dt,
            wall_ns,
            zones,
            newton_iters: stats.burn_newton_iters,
            bdf_steps: stats.burn_steps,
            burn_retries: stats.burn_retries,
            recovered_relaxed: stats.burn_recovered_relaxed,
            recovered_subcycle: stats.burn_recovered_subcycle,
            recovered_offload: stats.burn_offloaded,
            step_rejections: rejections as u64,
            ..Default::default()
        });
    }
}

impl Stepper for Maestro<'_> {
    fn estimate_dt(&self, state: &MultiFab, geom: &Geometry) -> Real {
        Maestro::estimate_dt(self, state, geom)
    }

    fn step(
        &mut self,
        state: &mut MultiFab,
        geom: &Geometry,
        dt: Real,
    ) -> Result<StepOutcome, StepFailure> {
        self.advance_safe(state, geom, dt)
            .map(|(stats, dt_taken)| StepOutcome {
                dt_taken,
                comm: stats.comm,
            })
            .map_err(|e| StepFailure::new(e.to_string()))
    }

    fn take_recorder(&mut self) -> exastro_telemetry::StepRecorder {
        std::mem::take(&mut self.telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bubble::*;
    use exastro_amr::{BoxArray, DistStrategy, DistributionMapping, IndexBox};
    use exastro_microphysics::{CBurn2, StellarEos};

    fn bubble_setup(n: i32) -> (Geometry, MultiFab, Maestro<'static>, LmLayout) {
        // Statics so the Maestro driver can borrow for 'static in tests.
        use std::sync::OnceLock;
        static EOS: StellarEos = StellarEos;
        static NET: OnceLock<CBurn2> = OnceLock::new();
        let net = NET.get_or_init(CBurn2::new);
        let geom = Geometry::new(
            IndexBox::cube(n),
            [0.0; 3],
            [3.6e7; 3],
            [true, true, false],
            exastro_amr::CoordSys::Cartesian,
        );
        let ba = BoxArray::decompose(geom.domain(), (n / 2).max(8), 4);
        let dm = DistributionMapping::new(&ba, 2, DistStrategy::Sfc);
        let layout = LmLayout::new(2);
        let mut state = MultiFab::new(ba, dm, layout.ncomp(), 1);
        let base = init_bubble(
            &mut state,
            &geom,
            &layout,
            &EOS,
            net,
            &BubbleParams::default(),
        );
        let maestro = bubble_maestro(&EOS, net, base);
        (geom, state, maestro, layout)
    }

    #[test]
    fn overlapped_and_sync_advect_agree_bitwise() {
        // The overlapped path must be a pure scheduling change: every bit of
        // the state (valid AND ghost zones -- the projection reads ghosts)
        // and every byte of the comm ledger must match the bulk-synchronous
        // path after several steps.
        let (geom, sync_state, mut maestro, _l) = bubble_setup(16);
        let mut sync_state = sync_state;
        let mut ovl_state = sync_state.clone();
        maestro.overlap = false;
        let mut sync_comm = CommTrace::default();
        for _ in 0..3 {
            let st = maestro.advance(&mut sync_state, &geom, 2e-4).unwrap();
            sync_comm.merge(&st.comm);
        }
        maestro.overlap = true;
        let mut ovl_comm = CommTrace::default();
        for _ in 0..3 {
            let st = maestro.advance(&mut ovl_state, &geom, 2e-4).unwrap();
            ovl_comm.merge(&st.comm);
        }
        for i in 0..sync_state.nfabs() {
            for iv in sync_state.grown_box(i).iter() {
                for c in 0..sync_state.ncomp() {
                    let a = sync_state.fab(i).get(iv, c);
                    let b = ovl_state.fab(i).get(iv, c);
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "bit divergence at fab {i} zone {iv:?} comp {c}: {a} vs {b}"
                    );
                }
            }
        }
        assert!(
            sync_comm.network_bytes() > 0,
            "fixture must exchange off-rank"
        );
        assert_eq!(sync_comm.network_bytes(), ovl_comm.network_bytes());
        assert_eq!(sync_comm.local_bytes, ovl_comm.local_bytes);
    }

    #[test]
    fn projection_kills_divergence() {
        let (geom, mut state, maestro, _l) = bubble_setup(16);
        // Seed a strongly divergent velocity field.
        for i in 0..state.nfabs() {
            let vb = state.valid_box(i);
            for iv in vb.iter() {
                let x = geom.cell_center(iv);
                state
                    .fab_mut(i)
                    .set(iv, LmLayout::U, (x[0] / 3.6e7).sin() * 1e5);
                state
                    .fab_mut(i)
                    .set(iv, LmLayout::V, (x[1] / 1.2e7).cos() * 1e5);
                state.fab_mut(i).set(iv, LmLayout::W, 0.0);
            }
        }
        let div_before = divergence_norm(&state, &geom);
        let (stats, comm) = maestro.project(&mut state, &geom, 1.0);
        assert!(
            comm.network_bytes() > 0,
            "SFC layout must exchange off-rank"
        );
        let div_after = divergence_norm(&state, &geom);
        assert!(stats.converged, "projection multigrid must converge");
        // This is an *approximate* (cell-centred) projection, as in
        // MAESTROeX: the central-difference divergence is not the exact
        // adjoint of the 5-point Laplacian, so one application damps
        // rather than annihilates the divergence.
        assert!(
            div_after < 0.45 * div_before,
            "divergence {div_before} -> {div_after}"
        );
    }

    fn divergence_norm(state: &MultiFab, geom: &Geometry) -> Real {
        let mut vel = MultiFab::new(state.box_array().clone(), state.dist_map().clone(), 3, 1);
        for i in 0..state.nfabs() {
            let gb = state.grown_box(i);
            for iv in gb.iter() {
                for d in 0..3 {
                    vel.fab_mut(i)
                        .set(iv, d, state.fab(i).get(iv, LmLayout::U + d));
                }
            }
        }
        let _ = vel.fill_boundary(geom);
        let dx = geom.dx();
        let mut norm = 0.0;
        for i in 0..vel.nfabs() {
            let vb = vel.valid_box(i);
            for iv in vb.iter() {
                // Skip wall-adjacent zones (one-sided stencils there).
                if iv.z() == 0 || iv.z() == geom.domain().hi().z() {
                    continue;
                }
                let mut div = 0.0;
                for d in 0..3 {
                    let e = IntVect::dim_vec(d);
                    div += (vel.fab(i).get(iv + e, d) - vel.fab(i).get(iv - e, d)) / (2.0 * dx[d]);
                }
                norm += div * div;
            }
        }
        norm.sqrt()
    }

    #[test]
    fn timestep_is_advective_not_acoustic() {
        let (geom, mut state, maestro, _l) = bubble_setup(16);
        // Velocities ~ 1e5 cm/s; sound speed in WD material ~ 1e8-9 cm/s.
        for i in 0..state.nfabs() {
            let vb = state.valid_box(i);
            for iv in vb.iter() {
                state.fab_mut(i).set(iv, LmLayout::U, 1e5);
            }
        }
        let dt = maestro.estimate_dt(&state, &geom);
        let dx = geom.min_dx();
        let dt_acoustic = dx / 5e8;
        assert!(
            dt > 100.0 * dt_acoustic,
            "low-Mach dt {dt} should dwarf acoustic dt {dt_acoustic}"
        );
    }

    #[test]
    fn bubble_heats_burns_and_rises() {
        let (geom, mut state, maestro, layout) = bubble_setup(16);
        let d0 = bubble_diagnostics(&state, &geom, &layout, 6e8);
        assert!(d0.max_temp > 8.9e8, "initial bubble present");
        assert_eq!(d0.max_ash, 0.0);
        let mut height_trace = vec![d0.bubble_height];
        for _ in 0..6 {
            let dt = maestro.estimate_dt(&state, &geom).min(5e-3);
            let stats = maestro.advance(&mut state, &geom, dt).unwrap();
            assert!(stats.projection.as_ref().unwrap().cycles > 0);
            height_trace.push(bubble_diagnostics(&state, &geom, &layout, 6e8).bubble_height);
        }
        let d1 = bubble_diagnostics(&state, &geom, &layout, 6e8);
        // Carbon has started to burn into ash and the bubble temperature
        // has increased.
        assert!(d1.max_ash > 1e-10, "ash {}", d1.max_ash);
        // First-order upwind advection diffuses the peak; burning offsets
        // it only partially at these conditions.
        assert!(d1.max_temp >= d0.max_temp * 0.9);
        // Upward motion developed.
        assert!(d1.max_w > 0.0, "bubble must develop upward velocity");
        assert!(
            height_trace.last().unwrap() >= &height_trace[0],
            "bubble should not sink: {height_trace:?}"
        );
    }

    #[test]
    fn injected_burn_faults_recover_through_the_ladder() {
        use exastro_microphysics::{BdfErrorKind, BurnFaultConfig};
        let (geom, mut state, mut maestro, layout) = bubble_setup(16);
        maestro.burn_faults = Some(BurnFaultConfig {
            seed: 7,
            rate: 1.0,
            rungs_to_fail: 1,
            error: BdfErrorKind::MaxSteps,
        });
        let dt = maestro.estimate_dt(&state, &geom).min(5e-3);
        let stats = maestro.advance(&mut state, &geom, dt).unwrap();
        // Every burning zone failed once and recovered on the first retry.
        assert!(stats.burn_recovered > 0, "no zones recovered");
        assert_eq!(stats.burn_retries, stats.burn_recovered);
        // Recovered state stays physical.
        maestro
            .validate_state(&state, maestro.recovery.species_tol)
            .unwrap();
        let _ = layout;
    }

    #[test]
    fn unrecoverable_faults_restore_state_and_checkpoint() {
        use exastro_microphysics::{BdfErrorKind, BurnFaultConfig};
        let (geom, mut state, mut maestro, _layout) = bubble_setup(16);
        maestro.burn_faults = Some(BurnFaultConfig {
            seed: 11,
            rate: 1.0,
            rungs_to_fail: 99, // beyond the ladder: never recovers
            error: BdfErrorKind::SingularMatrix,
        });
        let dir = std::env::temp_dir().join(format!("exastro-lm-emrg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        maestro.recovery = RecoveryOptions {
            max_rejections: 2,
            ..RecoveryOptions::default()
        }
        .with_emergency_dir(&dir);
        let before = state.clone();
        let err = maestro.advance_safe(&mut state, &geom, 1e-3).unwrap_err();
        assert!(matches!(err.error, LmStepError::Burn(ref f) if !f.is_empty()));
        assert_eq!(err.rejections, 2);
        assert!(err.dt_floor < 1e-3);
        // The state was restored to its pre-step contents...
        for (i, vb) in state.iter_boxes() {
            for iv in vb.iter() {
                for c in 0..maestro.layout.ncomp() {
                    assert_eq!(
                        state.fab(i).get(iv, c).to_bits(),
                        before.fab(i).get(iv, c).to_bits()
                    );
                }
            }
        }
        // ...and an emergency checkpoint with the base state landed on disk.
        let path = err.emergency_checkpoint.expect("emergency checkpoint");
        assert!(path.is_dir());
        let snap = exastro_resilience::CheckpointManager::new(&dir)
            .unwrap()
            .resume()
            .unwrap();
        let base = crate::restart::restore_base_state(&snap).expect("base state in aux arrays");
        assert_eq!(base.rho0, maestro.base.rho0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quiescent_atmosphere_stays_quiescent() {
        // No bubble: a hydrostatic atmosphere under buoyancy + projection
        // should develop only tiny velocities.
        use std::sync::OnceLock;
        static EOS: StellarEos = StellarEos;
        static NET: OnceLock<CBurn2> = OnceLock::new();
        let net = NET.get_or_init(CBurn2::new);
        let geom = Geometry::new(
            IndexBox::cube(16),
            [0.0; 3],
            [3.6e7; 3],
            [true, true, false],
            exastro_amr::CoordSys::Cartesian,
        );
        let ba = BoxArray::decompose(geom.domain(), 8, 4);
        let layout = LmLayout::new(2);
        let mut state = MultiFab::new(
            ba,
            DistributionMapping::all_local(&BoxArray::decompose(geom.domain(), 8, 4)),
            layout.ncomp(),
            1,
        );
        let params = BubbleParams {
            t_bubble: 6e8, // no perturbation
            ..Default::default()
        };
        let base = init_bubble(&mut state, &geom, &layout, &EOS, net, &params);
        let maestro = bubble_maestro(&EOS, net, base);
        for _ in 0..3 {
            maestro.advance(&mut state, &geom, 1e-3).unwrap();
        }
        // Buoyancy residual from the discrete hydrostatic base is small:
        // velocities stay far below the convective scale (~1e6 cm/s).
        let wmax = state
            .max(LmLayout::W)
            .abs()
            .max(state.min(LmLayout::W).abs());
        assert!(wmax < 1e4, "spurious velocity {wmax}");
    }
}
