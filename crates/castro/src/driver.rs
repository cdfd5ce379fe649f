//! The Castro time-advance driver: Strang-split burning, hydrodynamics,
//! gravity sources, and the non-subcycled AMR advance with refluxing.

use crate::burn::{burn_state, BurnOptions, BurnStats};
use crate::gravity::{Gravity, GravityField, GravityMode};
use crate::hydro::{Hydro, SweepFluxes};
use crate::state::{density_velocity_energy, StateLayout};
use exastro_amr::{
    average_down, fill_patch_two_levels, BcSpec, CommTrace, FluxRegister, Geometry, Hierarchy,
    IndexBox, IntVect, MultiFab, Real,
};
use exastro_microphysics::{BurnFailure, Composition, Eos, Network};
use exastro_parallel::{par_index_each, Arena, ExecSpace, PoolArena, Profiler};
use exastro_resilience::recovery::{write_emergency, RecoveryOptions};
use exastro_resilience::snapshot::{Clock, Snapshot};
use exastro_resilience::stepper::{StepFailure, StepOutcome, Stepper};
use exastro_telemetry::{StepMetrics, StepRecorder};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Per-step statistics.
#[derive(Clone, Debug, Default)]
pub struct StepStats {
    /// Burning statistics (both Strang halves combined).
    pub burn: BurnStats,
    /// Whether the gravity multigrid ran and converged.
    pub gravity_converged: Option<bool>,
    /// Maximum temperature after the step.
    pub max_temp: Real,
    /// Maximum density after the step.
    pub max_dens: Real,
    /// Communication performed by the step (hydro ghost exchanges plus the
    /// gravity solve's own fills), merged across phases.
    pub comm: CommTrace,
}

/// A violation found by the post-step state validator.
#[derive(Clone, Debug, PartialEq)]
pub enum StateViolation {
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
    /// Total or internal energy below zero.
    NegativeEnergy {
        /// The offending energy value.
        e: Real,
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

impl std::fmt::Display for StateViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateViolation::NonFinite { comp, zone } => {
                write!(f, "non-finite value in component {comp} at {zone:?}")
            }
            StateViolation::NegativeDensity { rho, zone } => {
                write!(f, "non-positive density {rho:.3e} at {zone:?}")
            }
            StateViolation::NegativeEnergy { e, zone } => {
                write!(f, "negative energy {e:.3e} at {zone:?}")
            }
            StateViolation::SpeciesDrift { drift, zone } => {
                write!(f, "|ΣX − 1| = {drift:.3e} at {zone:?}")
            }
        }
    }
}

/// Why one attempted step could not be accepted. On `Err` the state passed
/// to [`Castro::advance_level`] is tainted (partially advanced) and must be
/// restored from a pre-step snapshot — [`Castro::advance_level_safe`] does
/// exactly that.
#[derive(Debug)]
pub enum StepError {
    /// One or more burn zones exhausted the retry ladder.
    Burn(Vec<BurnFailure>),
    /// The post-step validator rejected the state.
    Invalid(StateViolation),
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Burn(fails) => {
                write!(f, "{} burn zone(s) failed all retries", fails.len())?;
                if let Some(first) = fails.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            StepError::Invalid(v) => write!(f, "post-step validation failed: {v}"),
        }
    }
}

impl std::error::Error for StepError {}

/// A step that stayed unrecoverable through the whole rejection loop. The
/// driver leaves the state restored to its pre-step contents, writes an
/// emergency checkpoint when [`RecoveryOptions::emergency_dir`] is set,
/// and returns this instead of aborting the process.
#[derive(Debug)]
pub struct DriverError {
    /// The error from the final attempt.
    pub error: StepError,
    /// Step attempts made (1 initial + retries).
    pub rejections: u32,
    /// The smallest `dt` attempted before giving up.
    pub dt_floor: Real,
    /// Path of the emergency checkpoint, if one was written.
    pub emergency_checkpoint: Option<PathBuf>,
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step unrecoverable after {} attempt(s) (dt floor {:.3e}): {}",
            self.rejections, self.dt_floor, self.error
        )?;
        if let Some(p) = &self.emergency_checkpoint {
            write!(f, " [emergency checkpoint: {}]", p.display())?;
        }
        Ok(())
    }
}

impl std::error::Error for DriverError {}

/// The Castro simulation object for one problem.
pub struct Castro<'a> {
    /// State layout (defines nspec).
    pub layout: StateLayout,
    /// Equation of state.
    pub eos: &'a dyn Eos,
    /// Reaction network (used when `burn` is set).
    pub net: &'a dyn Network,
    /// Hydro solver options.
    pub hydro: Hydro,
    /// Gravity solver.
    pub gravity: Gravity,
    /// Burning options; `None` disables reactions.
    pub burn: Option<BurnOptions>,
    /// Physical boundary conditions.
    pub bc: BcSpec,
    /// Execution space for kernels.
    pub ex: ExecSpace,
    /// Scratch arena.
    pub arena: Arc<dyn Arena>,
    /// Step-rejection policy and emergency-checkpoint destination.
    pub recovery: RecoveryOptions,
    /// Per-step metrics recorder; inert until a sink is attached via
    /// [`StepRecorder::attach_sink`].
    pub telemetry: StepRecorder,
}

impl<'a> Castro<'a> {
    /// A driver with sensible defaults: flat kernels, pool arena, serial
    /// execution, no gravity, no burning, outflow boundaries.
    pub fn new(eos: &'a dyn Eos, net: &'a dyn Network) -> Self {
        Castro {
            layout: StateLayout::new(net.nspec()),
            eos,
            net,
            hydro: Hydro::default(),
            gravity: Gravity {
                mode: GravityMode::Off,
                ..Default::default()
            },
            burn: None,
            bc: BcSpec::outflow(),
            ex: ExecSpace::Serial,
            arena: Arc::new(PoolArena::new(None)),
            recovery: RecoveryOptions::default(),
            telemetry: StepRecorder::new(),
        }
    }

    /// CFL timestep for a level.
    pub fn estimate_dt(&self, state: &MultiFab, geom: &Geometry) -> Real {
        self.hydro.estimate_dt(
            state,
            &self.layout,
            self.eos,
            self.net.species(),
            geom,
            &self.ex,
        )
    }

    /// Recompute temperature and re-sync the advected internal energy from
    /// the conservative total energy (post-hydro EOS sync). Per zone: the
    /// species are renormalized against advection drift, then one
    /// `T(ρ, e)` solve runs, seeded with the stored temperature floored at
    /// `small_temp`. Fabs run in parallel on the global worker pool; each
    /// zone is independent, so the result does not depend on scheduling.
    pub fn sync_temperature(&self, state: &mut MultiFab) {
        let layout = self.layout;
        let ncomp = layout.ncomp();
        let floors = self.hydro.floors;
        let species = self.net.species();
        let eos = self.eos;
        assert!(
            ncomp <= StateLayout::MAX_COMP,
            "{ncomp} state components exceed {}",
            StateLayout::MAX_COMP
        );
        let vbs: Vec<IndexBox> = (0..state.nfabs()).map(|i| state.valid_box(i)).collect();
        let views = state.fab_views_mut();
        par_index_each(views.len(), usize::MAX, |f| {
            let v = &views[f];
            let (mut u, mut x) = ([0.0; StateLayout::MAX_COMP], [0.0; StateLayout::MAX_SPEC]);
            for iv in vbs[f].iter() {
                let (i, j, k) = (iv.x(), iv.y(), iv.z());
                for c in 0..ncomp {
                    u[c] = v.at(i, j, k, c);
                }
                let (rho, _, e) = density_velocity_energy(&u[..ncomp], &floors);
                let mut xsum = 0.0;
                for s in 0..layout.nspec {
                    xsum += (u[layout.spec(s)] / rho).max(0.0);
                }
                for s in 0..layout.nspec {
                    let c = layout.spec(s);
                    if xsum > 0.0 {
                        u[c] = rho * ((u[c] / rho).max(0.0) / xsum);
                        v.set(i, j, k, c, u[c]);
                    }
                    x[s] = u[c] / rho;
                }
                let comp = Composition::from_mass_fractions(species, &x[..layout.nspec]);
                let t_guess = u[StateLayout::TEMP].max(floors.small_temp);
                let t = eos.t_from_e(rho, e, &comp, t_guess);
                v.set(i, j, k, StateLayout::TEMP, t.max(floors.small_temp));
                v.set(i, j, k, StateLayout::EINT, rho * e);
            }
        });
    }

    /// Validate the post-step state: every component finite, density and
    /// total energy positive, internal energy non-negative, and ΣX within
    /// `species_tol` of unity. Returns the *first* violation in sweep
    /// order (deterministic), or `Ok(())` for a healthy state.
    pub fn validate_state(
        &self,
        state: &MultiFab,
        species_tol: Real,
    ) -> Result<(), StateViolation> {
        let layout = self.layout;
        for i in 0..state.nfabs() {
            let vb = state.valid_box(i);
            let fab = state.fab(i);
            for iv in vb.iter() {
                for c in 0..layout.ncomp() {
                    if !fab.get(iv, c).is_finite() {
                        return Err(StateViolation::NonFinite { comp: c, zone: iv });
                    }
                }
                let rho = fab.get(iv, StateLayout::RHO);
                if rho <= 0.0 {
                    return Err(StateViolation::NegativeDensity { rho, zone: iv });
                }
                let eden = fab.get(iv, StateLayout::EDEN);
                if eden <= 0.0 {
                    return Err(StateViolation::NegativeEnergy { e: eden, zone: iv });
                }
                let eint = fab.get(iv, StateLayout::EINT);
                if eint < 0.0 {
                    return Err(StateViolation::NegativeEnergy { e: eint, zone: iv });
                }
                let mut xsum = 0.0;
                for s in 0..layout.nspec {
                    xsum += fab.get(iv, layout.spec(s)) / rho;
                }
                let drift = (xsum - 1.0).abs();
                if drift > species_tol {
                    return Err(StateViolation::SpeciesDrift { drift, zone: iv });
                }
            }
        }
        Ok(())
    }

    /// Advance one level by `dt`: Strang burn half, hydro sweeps, gravity
    /// source, EOS sync, Strang burn half, post-step validation. Returns
    /// step statistics and the hydro fluxes (for refluxing).
    ///
    /// On `Err` the state has been partially advanced and must be restored
    /// from a pre-step snapshot before continuing —
    /// [`Castro::advance_level_safe`] wraps this call in exactly that
    /// snapshot/restore transaction.
    pub fn advance_level(
        &self,
        state: &mut MultiFab,
        geom: &Geometry,
        dt: Real,
    ) -> Result<(StepStats, Vec<SweepFluxes>), StepError> {
        let _prof = Profiler::region("castro_advance");
        let mut stats = StepStats::default();
        if let Some(burn_opts) = &self.burn {
            let _r = Profiler::region("burn");
            let b = burn_state(
                state,
                0.5 * dt,
                self.net,
                self.eos,
                &self.layout,
                burn_opts,
                &self.ex,
                geom,
            )
            .map_err(StepError::Burn)?;
            stats.burn = b;
        }
        let fluxes = {
            let _r = Profiler::region("hydro");
            let (fluxes, comm) = self.hydro.advance(
                state,
                dt,
                geom,
                &self.layout,
                self.eos,
                self.net.species(),
                &self.bc,
                &self.ex,
                self.arena.as_ref(),
            );
            stats.comm.merge(&comm);
            fluxes
        };
        if self.gravity.mode != GravityMode::Off {
            let _r = Profiler::region("gravity");
            let field: GravityField = self.gravity.solve(state, geom);
            stats.gravity_converged = field.mg.as_ref().map(|m| m.converged);
            stats.comm.merge(&field.comm);
            Gravity::apply_source(state, &field, dt, &self.ex);
        }
        {
            let _r = Profiler::region("sync_temperature");
            self.sync_temperature(state);
        }
        if let Some(burn_opts) = &self.burn {
            let _r = Profiler::region("burn");
            let b = burn_state(
                state,
                0.5 * dt,
                self.net,
                self.eos,
                &self.layout,
                burn_opts,
                &self.ex,
                geom,
            )
            .map_err(StepError::Burn)?;
            stats.burn.merge(&b);
            stats.burn.skipped -= b.skipped; // halves see the same zones
        }
        {
            let _r = Profiler::region("validate");
            self.validate_state(state, self.recovery.species_tol)
                .map_err(StepError::Invalid)?;
        }
        stats.max_temp = state.max(StateLayout::TEMP);
        stats.max_dens = state.max(StateLayout::RHO);
        Ok((stats, fluxes))
    }

    /// Advance one level **transactionally**: snapshot the state, attempt
    /// the step, and on any [`StepError`] (burn-ladder exhaustion, a
    /// mid-step CFL violation through a strengthening shock — the collision
    /// problem does this at contact — or any validator rejection) restore
    /// the snapshot and retry with `dt` cut by [`RecoveryOptions::dt_cut`],
    /// up to [`RecoveryOptions::max_rejections`] attempts. Returns the
    /// stats and the `dt` actually taken.
    ///
    /// If every attempt fails the state is left **restored to its pre-step
    /// contents**, an emergency checkpoint is written (when
    /// [`RecoveryOptions::emergency_dir`] is set), and a structured
    /// [`DriverError`] is returned — never a panic.
    pub fn advance_level_safe(
        &self,
        state: &mut MultiFab,
        geom: &Geometry,
        dt: Real,
    ) -> Result<(StepStats, Real), Box<DriverError>> {
        let mut try_dt = dt;
        let attempts = self.recovery.max_rejections.max(1);
        let mut last_err = None;
        // Wall clock for the whole transaction, rejected attempts included:
        // telemetry should charge the step with what it actually cost.
        let step_start = self.telemetry.is_active().then(Instant::now);
        for attempt in 0..attempts {
            let snapshot = state.clone();
            match self.advance_level(state, geom, try_dt) {
                Ok((stats, _fluxes)) => {
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
        let emergency_checkpoint =
            self.recovery.emergency_dir.as_deref().and_then(|dir| {
                write_emergency(dir, &self.snapshot_level(state, geom, try_dt)).ok()
            });
        Err(Box::new(DriverError {
            error: last_err.expect("at least one attempt was made"),
            rejections: attempts,
            dt_floor: try_dt,
            emergency_checkpoint,
        }))
    }

    /// Build and emit the [`StepMetrics`] record for one accepted step.
    fn record_step_metrics(
        &self,
        state: &MultiFab,
        stats: &StepStats,
        dt: Real,
        step_start: Instant,
        rejections: u32,
    ) {
        let wall_ns = step_start.elapsed().as_nanos() as u64;
        let zones: u64 = (0..state.nfabs())
            .map(|i| state.valid_box(i).num_zones() as u64)
            .sum();
        let arena = self.arena.stats();
        self.telemetry.record(StepMetrics {
            driver: "castro".to_string(),
            dt,
            wall_ns,
            zones,
            newton_iters: stats.burn.newton_iters,
            bdf_steps: stats.burn.total_steps,
            burn_retries: stats.burn.retries,
            recovered_relaxed: stats.burn.recovered_relaxed,
            recovered_subcycle: stats.burn.recovered_subcycle,
            recovered_offload: stats.burn.offloaded,
            step_rejections: rejections as u64,
            arena_live_bytes: arena.bytes_live,
            arena_peak_bytes: arena.bytes_peak,
            ..Default::default()
        });
    }

    /// Package the (pre-step) level state as a resilience snapshot for the
    /// emergency-checkpoint path.
    fn snapshot_level(&self, state: &MultiFab, geom: &Geometry, dt: Real) -> Snapshot {
        Snapshot::single_level(
            geom.clone(),
            state.clone(),
            Clock {
                step: 0,
                time: 0.0,
                dt,
            },
            crate::restart::variable_names(&self.layout),
        )
    }

    /// Advance a two-level (or more) hierarchy without subcycling: all
    /// levels take the same `dt`; conservation across coarse–fine
    /// boundaries is repaired by refluxing and the coarse data under fine
    /// grids is replaced by the averaged-down fine solution.
    ///
    /// Propagates the first level's [`StepError`]; as with
    /// [`Castro::advance_level`], the states are tainted on `Err`.
    pub fn advance_hierarchy(
        &self,
        hier: &Hierarchy,
        states: &mut [MultiFab],
        dt: Real,
    ) -> Result<Vec<StepStats>, StepError> {
        assert_eq!(states.len(), hier.nlevels());
        let mut all_stats = Vec::new();
        // Fill fine-level ghosts from coarse data before anything moves.
        let fill_prof = Profiler::region("fill_patch");
        for l in 1..hier.nlevels() {
            let (coarse, fine) = states.split_at_mut(l);
            let cg = hier.level(l - 1).geom.clone();
            let fg = hier.level(l).geom.clone();
            fill_patch_two_levels(
                &mut fine[0],
                &fg,
                &mut coarse[l - 1],
                &cg,
                hier.level(l).ratio_to_coarser,
                &self.bc,
            );
        }
        drop(fill_prof);
        // Advance each level, collecting fluxes.
        let mut fluxes_per_level = Vec::new();
        for l in 0..hier.nlevels() {
            let geom = hier.level(l).geom.clone();
            let (stats, fluxes) = self.advance_level(&mut states[l], &geom, dt)?;
            all_stats.push(stats);
            fluxes_per_level.push(fluxes);
        }
        // Reflux coarse levels against their fine level.
        let _reflux_prof = Profiler::region("reflux");
        for l in (1..hier.nlevels()).rev() {
            let ratio = hier.level(l).ratio_to_coarser;
            let fine_ba = hier.level(l).ba.clone();
            let mut fr = FluxRegister::new(&fine_ba, ratio, self.layout.ncomp());
            let cgeom = &hier.level(l - 1).geom;
            let fgeom = &hier.level(l).geom;
            let cdx = cgeom.dx();
            let fdx = fgeom.dx();
            // One face-flux buffer, reused by both loops.
            let mut f = vec![0.0; self.layout.ncomp()];
            // Coarse fluxes on interface faces.
            for sweep in &fluxes_per_level[l - 1] {
                let d = sweep.dim;
                for fab in &sweep.fabs {
                    let fb = fab.index_box();
                    for iv in fb.iter() {
                        if fr.is_interface(d, iv) {
                            for (c, fc) in f.iter_mut().enumerate() {
                                *fc = fab.get(iv, c);
                            }
                            fr.crse_add(d, iv, &f, 1.0);
                        }
                    }
                }
            }
            // Fine fluxes, averaged onto coarse faces. Scale: the reflux
            // formula uses dt/dx_coarse; fine flux contributions represent
            // the same dt, so the area average (handled inside fine_add)
            // with unit scale is correct for a non-subcycled advance.
            for sweep in &fluxes_per_level[l] {
                let d = sweep.dim;
                for fab in &sweep.fabs {
                    let fb = fab.index_box();
                    for iv in fb.iter() {
                        // Only faces on the coarse-fine interface matter;
                        // fine_add maps to the parent coarse face and
                        // ignores non-interface faces.
                        for (c, fc) in f.iter_mut().enumerate() {
                            *fc = fab.get(iv, c);
                        }
                        fr.fine_add(d, iv, &f, 1.0);
                    }
                }
            }
            let _ = fdx;
            fr.reflux(
                &mut states[l - 1],
                &fine_ba,
                [dt / cdx[0], dt / cdx[1], dt / cdx[2]],
            );
            // Average the fine solution down over the covered coarse zones.
            let (coarse, fine) = states.split_at_mut(l);
            average_down(&fine[0], &mut coarse[l - 1], ratio);
        }
        Ok(all_stats)
    }

    /// Tag zones for refinement: temperature above `t_thresh` or density
    /// above `rho_thresh`, evaluated on `state`'s level.
    pub fn tag_zones(&self, state: &MultiFab, t_thresh: Real, rho_thresh: Real) -> Vec<IntVect> {
        let mut tags = Vec::new();
        for (i, vb) in state.iter_boxes() {
            for iv in vb.iter() {
                if state.fab(i).get(iv, StateLayout::TEMP) > t_thresh
                    || state.fab(i).get(iv, StateLayout::RHO) > rho_thresh
                {
                    tags.push(iv);
                }
            }
        }
        tags
    }

    /// Total mass over the valid region.
    pub fn total_mass(&self, state: &MultiFab, geom: &Geometry) -> Real {
        state.sum(StateLayout::RHO) * geom.cell_volume()
    }

    /// Total energy (ρE integrated).
    pub fn total_energy(&self, state: &MultiFab, geom: &Geometry) -> Real {
        state.sum(StateLayout::EDEN) * geom.cell_volume()
    }
}

impl Stepper for Castro<'_> {
    fn estimate_dt(&self, state: &MultiFab, geom: &Geometry) -> Real {
        Castro::estimate_dt(self, state, geom)
    }

    fn step(
        &mut self,
        state: &mut MultiFab,
        geom: &Geometry,
        dt: Real,
    ) -> Result<StepOutcome, StepFailure> {
        self.advance_level_safe(state, geom, dt)
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
