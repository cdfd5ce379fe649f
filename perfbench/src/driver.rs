//! The two single-driver workloads: `sedov` and `wd_collision`.
//!
//! A run repeats one *job* until the window closes: build the seeded
//! initial state and the driver (set-up), take a fixed number of steps
//! through `Castro::advance_level_safe`, and write a checkpoint through
//! `CheckpointManager::write` every few steps, as `examples/restart.rs`
//! does. Every job of a run starts from the same inputs, so every job must
//! end on the same digest, and each measured step covers the same physical
//! window whatever the speed of the host.
//!
//! The traced run alternates untraced jobs with jobs whose steps are
//! composed from the layers' public functions (`burn_state`,
//! `Hydro::advance`, `Gravity::solve` + `apply_source`,
//! `Castro::sync_temperature`, `Castro::validate_state`), each timed from
//! outside. The composed trajectory must end on the untraced digest.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use exastro_amr::{
    BcSpec, BoxArray, CommTrace, CoordSys, DistStrategy, DistributionMapping, Geometry, IndexBox,
    MultiFab,
};
use exastro_castro::{
    burn_state, init_collision, init_sedov, measure_shock_radius, sedov_shock_radius,
    snapshot_level, BurnOptions, BurnStats, Castro, CollisionParams, Floors, Gravity, GravityMode,
    SedovParams, StateLayout,
};
use exastro_microphysics::{Aprox13, CBurn2, Eos, GammaLaw, Network, StellarEos};
use exastro_resilience::{digest_multifab, CheckpointManager, Clock};
use exastro_telemetry::MemorySink;

use crate::stats::{mean, median, ratio, tail};
use crate::{digest, host, Counters, Outcome, Rng, RunOpts};

/// Which single-driver problem to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Problem {
    /// γ-law Sedov blast: no burn, no gravity.
    Sedov,
    /// Head-on white-dwarf collision: aprox13, monopole gravity, stellar EOS.
    WdCollision,
}

impl Problem {
    /// Zones per side of the cubic domain.
    fn resolution(self) -> i32 {
        match self {
            Problem::Sedov => 32,
            Problem::WdCollision => 16,
        }
    }

    /// Accepted steps per job.
    fn steps_per_job(self) -> u64 {
        match self {
            Problem::Sedov => 12,
            // The burn cost doubles every step as contact nears: nine steps
            // keep a job short enough that a run holds more than ten jobs,
            // so the step tail always falls among copies of the last step.
            Problem::WdCollision => 9,
        }
    }

    /// Steps between checkpoints.
    fn ckpt_every(self) -> u64 {
        match self {
            Problem::Sedov => 4,
            Problem::WdCollision => 3,
        }
    }

    /// The dt cap the service applies to the same scenario.
    fn dt_cap(self) -> f64 {
        match self {
            Problem::Sedov => 2e-3,
            Problem::WdCollision => f64::INFINITY,
        }
    }
}

/// The generated inputs of one run.
#[derive(Clone, Debug)]
enum Inputs {
    Sedov(SedovParams),
    Wd(CollisionParams),
}

impl Inputs {
    /// Small seeded perturbations of the fiducial problem: the seed changes
    /// the numbers the program sees, not the kind of work it does.
    fn generate(problem: Problem, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, problem as u64 + 1);
        match problem {
            Problem::Sedov => Inputs::Sedov(SedovParams {
                energy: 1.0 + 0.05 * rng.symmetric(),
                rho0: 1.0 + 0.05 * rng.symmetric(),
                deposit_zones: 2.5 + 0.2 * rng.symmetric(),
                ..Default::default()
            }),
            Problem::WdCollision => Inputs::Wd(CollisionParams {
                // The burn cost doubles every step or so as contact nears,
                // so the approach speed (which sets the contact time) moves
                // by at most 0.1%.
                v_approach: 6e8 * (1.0 + 0.001 * rng.symmetric()),
                t_wd: 1e7 * (1.0 + 0.1 * rng.symmetric()),
                x_c12: 0.5 + 0.005 * rng.symmetric(),
                separation: 3.0,
                ..Default::default()
            }),
        }
    }

    fn digest(&self) -> u64 {
        let values = match self {
            Inputs::Sedov(p) => [p.energy, p.rho0, p.deposit_zones, p.gamma, p.p0],
            Inputs::Wd(p) => [p.v_approach, p.t_wd, p.x_c12, p.separation, p.rho_c],
        };
        digest(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
    }
}

/// The stateless physics a job borrows.
struct Physics {
    gamma_law: GammaLaw,
    stellar: StellarEos,
    net: Box<dyn Network>,
}

impl Physics {
    fn new(problem: Problem) -> Physics {
        Physics {
            gamma_law: GammaLaw::monatomic(),
            stellar: StellarEos,
            net: match problem {
                Problem::Sedov => Box::new(CBurn2::new()),
                Problem::WdCollision => Box::new(Aprox13::new()),
            },
        }
    }

    fn eos(&self, problem: Problem) -> &dyn Eos {
        match problem {
            Problem::Sedov => &self.gamma_law,
            Problem::WdCollision => &self.stellar,
        }
    }
}

/// One job's driver, state and checkpoint manager.
struct Job<'a> {
    castro: Castro<'a>,
    geom: Geometry,
    state: MultiFab,
    mgr: CheckpointManager,
    records: Arc<MemorySink>,
    mass0: f64,
    energy0: f64,
}

/// Set-up: the seeded initial state, the configured driver, and the
/// checkpoint manager.
fn setup<'a>(problem: Problem, phys: &'a Physics, inputs: &Inputs, dir: &Path) -> Job<'a> {
    let n = problem.resolution();
    let layout = StateLayout::new(phys.net.nspec());
    let geom = match inputs {
        Inputs::Sedov(_) => Geometry::cube(n, 1.0, false),
        Inputs::Wd(p) => {
            let half = 2.5 * p.radius;
            Geometry::new(
                IndexBox::cube(n),
                [-half; 3],
                [half; 3],
                [false; 3],
                CoordSys::Cartesian,
            )
        }
    };
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    // Two simulated ranks, so ghost exchange crosses rank boundaries.
    let dm = DistributionMapping::new(&ba, 2, DistStrategy::Sfc);
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 2);
    let mut castro = Castro::new(phys.eos(problem), &*phys.net);
    castro.bc = BcSpec::outflow();
    match inputs {
        Inputs::Sedov(p) => {
            init_sedov(&mut state, &geom, &layout, &phys.gamma_law, p);
            castro.hydro.cfl = 0.4;
            castro.hydro.floors = Floors::dimensionless();
        }
        Inputs::Wd(p) => {
            init_collision(&mut state, &geom, &layout, &phys.stellar, &*phys.net, p);
            castro.hydro.cfl = 0.2;
            castro.gravity = Gravity {
                mode: GravityMode::Monopole,
                n_bins: 256,
            };
            castro.burn = Some(BurnOptions {
                min_temp: 5e8,
                min_dens: 1e4,
                ..Default::default()
            });
        }
    }
    let records = Arc::new(MemorySink::new());
    castro.telemetry.attach_sink(records.clone());
    let mgr = CheckpointManager::new(dir)
        .expect("create checkpoint directory")
        .keep_last(2);
    let mass0 = castro.total_mass(&state, &geom);
    let energy0 = castro.total_energy(&state, &geom);
    Job {
        castro,
        geom,
        state,
        mgr,
        records,
        mass0,
        energy0,
    }
}

/// The timed layers of a composed step, in report order.
#[derive(Clone, Copy)]
enum Layer {
    EstimateDt,
    Snapshot,
    Burn,
    Hydro,
    Gravity,
    EosSync,
    Validate,
}

const LAYERS: [(Layer, &str); 7] = [
    (Layer::EstimateDt, "castro.estimate_dt"),
    (Layer::Snapshot, "amr.snapshot"),
    (Layer::Burn, "castro.burn"),
    (Layer::Hydro, "castro.hydro"),
    (Layer::Gravity, "castro.gravity"),
    (Layer::EosSync, "castro.eos_sync"),
    (Layer::Validate, "castro.validate"),
];

/// Self times of the layers, summed over composed steps.
#[derive(Default)]
struct LayerTimes {
    ns: [u64; 7],
    step_ns: u64,
    steps: u64,
}

impl LayerTimes {
    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.ns[layer as usize] += t0.elapsed().as_nanos() as u64;
        r
    }
}

/// Work done by one job.
#[derive(Default)]
struct JobWork {
    burn: BurnStats,
    max_zone_bdf_steps: u64,
    comm: CommTrace,
    attempts: u64,
    rejections: u64,
}

/// What one job measured.
struct JobResult {
    setup_s: f64,
    latency_s: f64,
    step_ms: Vec<f64>,
    ckpt_ms: Vec<f64>,
    ckpt_bytes: u64,
    digest: u32,
    work: JobWork,
    error: Option<String>,
    checks: Vec<String>,
}

/// Run one job; `layers` composes and times the step when set.
fn run_job(
    problem: Problem,
    phys: &Physics,
    inputs: &Inputs,
    dir: &Path,
    steps: u64,
    mut layers: Option<&mut LayerTimes>,
) -> JobResult {
    let t_job = Instant::now();
    let mut job = setup(problem, phys, inputs, dir);
    let setup_s = t_job.elapsed().as_secs_f64();
    let layout = job.castro.layout;
    let mut clock = Clock::default();
    let mut step_ms = Vec::with_capacity(steps as usize);
    let mut ckpt_ms = Vec::new();
    let mut ckpt_bytes = 0;
    let mut work = JobWork::default();
    let mut error = None;
    while clock.step < steps {
        let t0 = Instant::now();
        let result = match layers.as_deref_mut() {
            None => untraced_step(&job.castro, &mut job.state, &job.geom, problem, &mut work),
            Some(lt) => composed_step(
                &job.castro,
                &mut job.state,
                &job.geom,
                problem,
                lt,
                &mut work,
            ),
        };
        let wall = t0.elapsed();
        match result {
            Ok(dt) => {
                clock.time += dt;
                clock.dt = dt;
            }
            Err(e) => {
                error = Some(e);
                break;
            }
        }
        if let Some(lt) = layers.as_deref_mut() {
            lt.step_ns += wall.as_nanos() as u64;
            lt.steps += 1;
        }
        step_ms.push(wall.as_secs_f64() * 1e3);
        clock.step += 1;
        if clock.step % problem.ckpt_every() == 0 {
            let snap = snapshot_level(&job.geom, &job.state, clock, &layout);
            let t0 = Instant::now();
            let written = job.mgr.write(&snap);
            ckpt_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match written {
                Ok(_) => ckpt_bytes += snap.payload_bytes(),
                Err(e) => {
                    error = Some(format!("checkpoint write: {e}"));
                    break;
                }
            }
        }
    }
    let latency_s = t_job.elapsed().as_secs_f64();
    if layers.is_none() {
        // The driver's own step records carry the rejected attempts.
        for r in job.records.snapshot() {
            work.attempts += 1 + r.step_rejections;
            work.rejections += r.step_rejections;
        }
    }
    let checks = check_job(inputs, &job, clock);
    JobResult {
        setup_s,
        latency_s,
        step_ms,
        ckpt_ms,
        ckpt_bytes,
        digest: digest_multifab(&job.state),
        work,
        error,
        checks,
    }
}

/// One step through the public transactional entry point.
fn untraced_step(
    c: &Castro<'_>,
    state: &mut MultiFab,
    geom: &Geometry,
    problem: Problem,
    work: &mut JobWork,
) -> Result<f64, String> {
    let dt = c.estimate_dt(state, geom).min(problem.dt_cap());
    let (stats, dt) = c.advance_level_safe(state, geom, dt).map_err(|e| {
        // A step that failed every attempt leaves no step record.
        work.attempts += e.rejections as u64;
        work.rejections += e.rejections as u64;
        e.to_string()
    })?;
    accumulate(work, &stats.burn, &stats.comm);
    Ok(dt)
}

fn accumulate(work: &mut JobWork, burn: &BurnStats, comm: &CommTrace) {
    work.max_zone_bdf_steps = work.max_zone_bdf_steps.max(burn.max_steps);
    work.burn.merge(burn);
    work.comm.merge(comm);
}

/// One step composed from the layers' public functions, with the same
/// snapshot/restore/dt-cut transaction `advance_level_safe` runs.
fn composed_step(
    c: &Castro<'_>,
    state: &mut MultiFab,
    geom: &Geometry,
    problem: Problem,
    lt: &mut LayerTimes,
    work: &mut JobWork,
) -> Result<f64, String> {
    let mut dt = lt.time(Layer::EstimateDt, || {
        c.estimate_dt(state, geom).min(problem.dt_cap())
    });
    let attempts = c.recovery.max_rejections.max(1);
    let mut last = String::new();
    for attempt in 0..attempts {
        work.attempts += 1;
        let snapshot = lt.time(Layer::Snapshot, || state.clone());
        match composed_attempt(c, state, geom, dt, lt) {
            Ok((burn, comm)) => {
                accumulate(work, &burn, &comm);
                // The driver's post-step reductions: left unattributed.
                std::hint::black_box((state.max(StateLayout::TEMP), state.max(StateLayout::RHO)));
                return Ok(dt);
            }
            Err(e) => {
                *state = snapshot;
                work.rejections += 1;
                last = e;
                if attempt + 1 < attempts {
                    dt *= c.recovery.dt_cut;
                }
            }
        }
    }
    Err(format!("step unrecoverable: {last}"))
}

fn composed_attempt(
    c: &Castro<'_>,
    state: &mut MultiFab,
    geom: &Geometry,
    dt: f64,
    lt: &mut LayerTimes,
) -> Result<(BurnStats, CommTrace), String> {
    let mut burn = BurnStats::default();
    let mut comm = CommTrace::default();
    let burn_half = |state: &mut MultiFab, lt: &mut LayerTimes, opts: &BurnOptions| {
        lt.time(Layer::Burn, || {
            burn_state(state, 0.5 * dt, c.net, c.eos, &c.layout, opts, &c.ex, geom)
        })
        .map_err(|f| format!("{} burn zone(s) failed all retries", f.len()))
    };
    if let Some(opts) = &c.burn {
        burn = burn_half(state, lt, opts)?;
    }
    let (fluxes, hydro_comm) = lt.time(Layer::Hydro, || {
        c.hydro.advance(
            state,
            dt,
            geom,
            &c.layout,
            c.eos,
            c.net.species(),
            &c.bc,
            &c.ex,
            c.arena.as_ref(),
        )
    });
    drop(fluxes);
    comm.merge(&hydro_comm);
    if c.gravity.mode != GravityMode::Off {
        let field = lt.time(Layer::Gravity, || {
            let field = c.gravity.solve(state, geom);
            Gravity::apply_source(state, &field, dt, &c.ex);
            field
        });
        comm.merge(&field.comm);
    }
    lt.time(Layer::EosSync, || c.sync_temperature(state));
    if let Some(opts) = &c.burn {
        let b = burn_half(state, lt, opts)?;
        burn.merge(&b);
        burn.skipped -= b.skipped; // both halves see the same zones
    }
    lt.time(Layer::Validate, || {
        c.validate_state(state, c.recovery.species_tol)
    })
    .map_err(|v| format!("post-step validation failed: {v}"))?;
    Ok((burn, comm))
}

/// Relative mass drift above which a Sedov job fails (outflow boundaries
/// never see the blast, so mass is conserved to round-off).
const SEDOV_MASS_TOL: f64 = 1e-10;
/// Relative total-energy drift above which a Sedov job fails.
const SEDOV_ENERGY_TOL: f64 = 1e-6;
/// Relative shock-radius error against the similarity solution above
/// which a Sedov job fails.
const SEDOV_RADIUS_TOL: f64 = 0.10;

/// The per-job correctness checks.
fn check_job(inputs: &Inputs, job: &Job<'_>, clock: Clock) -> Vec<String> {
    let mut fails = Vec::new();
    if let Err(v) = job
        .castro
        .validate_state(&job.state, job.castro.recovery.species_tol)
    {
        fails.push(format!("final state invalid: {v}"));
    }
    if let Inputs::Sedov(p) = inputs {
        let mass = job.castro.total_mass(&job.state, &job.geom);
        let energy = job.castro.total_energy(&job.state, &job.geom);
        let dm = ((mass - job.mass0) / job.mass0).abs();
        let de = ((energy - job.energy0) / job.energy0).abs();
        if dm.is_nan() || dm > SEDOV_MASS_TOL {
            fails.push(format!("sedov mass drift {dm:.3e} > {SEDOV_MASS_TOL:.0e}"));
        }
        if de.is_nan() || de > SEDOV_ENERGY_TOL {
            fails.push(format!(
                "sedov energy drift {de:.3e} > {SEDOV_ENERGY_TOL:.0e}"
            ));
        }
        let r = measure_shock_radius(&job.state, &job.geom, p);
        let r_exact = sedov_shock_radius(p, clock.time);
        let err = (r / r_exact - 1.0).abs();
        if err.is_nan() || err > SEDOV_RADIUS_TOL {
            fails.push(format!(
                "sedov shock radius {r:.4} vs analytic {r_exact:.4} at t={:.4}: error {err:.3} > {SEDOV_RADIUS_TOL}",
                clock.time
            ));
        }
    }
    fails
}

/// Run the `sedov` or `wd_collision` workload.
pub fn run(problem: Problem, opts: &RunOpts) -> Outcome {
    let inputs = Inputs::generate(problem, opts.seed);
    let phys = Physics::new(problem);
    let steps = problem.steps_per_job();
    let zones = (problem.resolution() as f64).powi(3);
    let mut out = Outcome {
        input_digest: inputs.digest(),
        ..Default::default()
    };
    out.notes.push(format!("inputs: {inputs:?}"));
    let mut job_no = 0usize;
    let mut next_dir = || {
        job_no += 1;
        opts.work_dir.join(format!("job-{job_no:04}"))
    };

    // Warm-up: lazy set-up (worker pool, rate tables) and caches, untimed.
    let warm = run_job(problem, &phys, &inputs, &next_dir(), 2, None);
    out.check(warm.error.is_none(), || {
        format!("warm-up: {:?}", warm.error)
    });

    let mut untraced: Vec<JobResult> = Vec::new();
    let mut traced: Vec<JobResult> = Vec::new();
    let mut layers = LayerTimes::default();
    let mut counters = Counters::default();
    let t_run = Instant::now();
    loop {
        if !untraced.is_empty() && t_run.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        untraced.push(run_job(problem, &phys, &inputs, &next_dir(), steps, None));
        if opts.trace {
            let dir = next_dir();
            let job =
                counters.count(|| run_job(problem, &phys, &inputs, &dir, steps, Some(&mut layers)));
            traced.push(job);
        }
    }

    // Checks over every job of the run.
    let gold = untraced[0].digest;
    for (kind, jobs) in [("untraced", &untraced), ("traced", &traced)] {
        for (i, j) in jobs.iter().enumerate() {
            if let Some(e) = &j.error {
                out.failures.push(format!("{kind} job {i}: {e}"));
            }
            for c in &j.checks {
                out.failures.push(format!("{kind} job {i}: {c}"));
            }
            out.check(j.digest == gold, || {
                format!(
                    "{kind} job {i} digest {:08x} != first job {gold:08x}",
                    j.digest
                )
            });
        }
    }

    let jobs: Vec<&JobResult> = if opts.trace {
        traced.iter().collect()
    } else {
        untraced.iter().collect()
    };
    out.attempted = jobs.iter().map(|j| j.work.attempts).sum::<u64>().max(1);
    out.failed = jobs
        .iter()
        .map(|j| j.work.rejections + j.error.is_some() as u64)
        .sum();
    out.notes.push(format!(
        "error_rate: {} rejected of {} step attempts = {:.4}",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted as f64
    ));

    // Exact work counts of the first measured job (identical across jobs).
    let first = jobs[0];
    let w = &first.work;
    for (k, v) in [
        ("burn.zones", w.burn.zones),
        ("burn.skipped", w.burn.skipped),
        ("burn.bdf_steps", w.burn.total_steps),
        ("burn.newton_iters", w.burn.newton_iters),
        ("burn.retries", w.burn.retries),
        ("burn.max_zone_bdf_steps", w.max_zone_bdf_steps),
        ("ghost.messages", w.comm.messages.len() as u64),
        ("ghost.bytes", w.comm.network_bytes() + w.comm.local_bytes),
        ("step.attempts", w.attempts),
        ("checkpoint.bytes", first.ckpt_bytes),
    ] {
        out.work.insert(k.to_string(), v);
    }

    if opts.trace {
        // Every traced job does the same work, so the counter totals split
        // evenly.
        let per_job = |total: u64| total / traced.len() as u64;
        for (k, v) in [
            ("graph.tasks", counters.graph_tasks),
            ("graph.runs", counters.graph_runs),
            ("burn.batch_zones", counters.batch_zones),
            ("burn.dropouts", counters.batch_dropouts),
        ] {
            out.work.insert(k.to_string(), per_job(v));
        }
        per_layer(&mut out, &untraced, &traced, &layers, &counters, steps);
    } else {
        let step_ms: Vec<f64> = untraced
            .iter()
            .flat_map(|j| j.step_ms.iter().copied())
            .collect();
        let latencies: Vec<f64> = untraced.iter().map(|j| j.latency_s).collect();
        let mut setups: Vec<f64> = untraced.iter().map(|j| j.setup_s).collect();
        setups.extend(extra_setups(problem, &phys, &inputs, &mut next_dir));
        let (step_tail, step_pct) = tail(&step_ms);
        let (lat_tail, lat_pct) = tail(&latencies);
        // Medians over jobs, so that a burst of host noise in one job does
        // not move the run.
        let job_rates: Vec<f64> = untraced
            .iter()
            .map(|j| zones * j.step_ms.len() as f64 / (j.step_ms.iter().sum::<f64>() * 1e3))
            .collect();
        out.metric("zones_per_us", median(&job_rates), "zones/us");
        out.metric("step_ms_p50", median(&step_ms), "ms");
        out.metric("step_ms_tail", step_tail, "ms");
        out.metric("jobs_per_hour", 3600.0 / median(&latencies), "1/h");
        out.metric("job_latency_s_p50", median(&latencies), "s");
        out.metric("job_latency_s_tail", lat_tail, "s");
        // A dedicated driver runs one tenant at the highest priority: all of
        // its jobs are high-priority jobs.
        out.metric("high_latency_s_p50", median(&latencies), "s");
        out.metric("setup_s", median(&setups), "s");
        out.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
        out.notes.push(format!(
            "samples: {} steps (step_ms_tail = p{step_pct:.1}), {} jobs of {steps} steps \
             (job_latency_s_tail = p{lat_pct:.1}), {} set-ups",
            step_ms.len(),
            untraced.len(),
            setups.len()
        ));
    }
    out
}

/// Extra set-ups (state, driver, checkpoint manager) so that `setup_s` is
/// a median of several whatever the job count.
const SETUP_REPEATS: usize = 8;

fn extra_setups(
    problem: Problem,
    phys: &Physics,
    inputs: &Inputs,
    next_dir: &mut impl FnMut() -> std::path::PathBuf,
) -> Vec<f64> {
    (0..SETUP_REPEATS)
        .map(|_| {
            let dir = next_dir();
            let t0 = Instant::now();
            let job = setup(problem, phys, inputs, &dir);
            let s = t0.elapsed().as_secs_f64();
            drop(job);
            s
        })
        .collect()
}

/// Unattributed share of the composed step above which the layer spans
/// are taken to have missed real work.
const MAX_UNATTRIBUTED_SHARE: f64 = 0.10;

fn per_layer(
    out: &mut Outcome,
    untraced: &[JobResult],
    traced: &[JobResult],
    lt: &LayerTimes,
    counters: &Counters,
    steps_per_job: u64,
) {
    let steps = lt.steps.max(1) as f64;
    let wall_ns = lt.step_ns as f64;
    let attributed: u64 = lt.ns.iter().sum();
    out.check(attributed <= lt.step_ns, || {
        format!(
            "layer self times {attributed} ns exceed the composed step wall {} ns",
            lt.step_ns
        )
    });
    // With the layers inside the step wall, the remainder reconciles the
    // layer self times with the wall exactly.
    let unattributed = lt.step_ns.saturating_sub(attributed);
    let unattributed_share = unattributed as f64 / wall_ns;
    out.check(unattributed_share <= MAX_UNATTRIBUTED_SHARE, || {
        format!("unattributed share {unattributed_share:.3} > {MAX_UNATTRIBUTED_SHARE}")
    });
    for (layer, name) in LAYERS {
        let ns = lt.ns[layer as usize] as f64;
        out.metric(&format!("{name}.ms_per_step"), ns / steps / 1e6, "ms");
        out.metric(&format!("{name}.share"), ns / wall_ns, "frac");
    }
    out.metric(
        "step.unattributed.ms_per_step",
        unattributed as f64 / steps / 1e6,
        "ms",
    );
    out.metric("step.unattributed.share", unattributed_share, "frac");

    let jobs = traced.len() as f64;
    let per_step = |total: u64| total as f64 / (jobs * steps_per_job as f64);
    let burn = {
        let mut b = BurnStats::default();
        for j in traced {
            b.merge(&j.work.burn);
        }
        b
    };
    let comm_msgs: u64 = traced
        .iter()
        .map(|j| j.work.comm.messages.len() as u64)
        .sum();
    let comm_bytes: u64 = traced
        .iter()
        .map(|j| j.work.comm.network_bytes() + j.work.comm.local_bytes)
        .sum();
    out.metric(
        "amr.ghost.messages_per_step",
        per_step(comm_msgs),
        "count/step",
    );
    out.metric("amr.ghost.bytes_per_step", per_step(comm_bytes), "B/step");
    out.metric(
        "parallel.graph.tasks_per_step",
        per_step(counters.graph_tasks),
        "count/step",
    );
    out.metric(
        "parallel.graph.runs_per_step",
        per_step(counters.graph_runs),
        "count/step",
    );
    out.metric(
        "microphysics.burn.zones",
        per_step(burn.zones),
        "count/step",
    );
    out.metric(
        "microphysics.burn.skipped",
        per_step(burn.skipped),
        "count/step",
    );
    out.metric(
        "microphysics.burn.bdf_steps",
        per_step(burn.total_steps),
        "count/step",
    );
    out.metric(
        "microphysics.burn.newton_iters",
        per_step(burn.newton_iters),
        "count/step",
    );
    out.metric(
        "microphysics.burn.newton_per_bdf_step",
        ratio(burn.newton_iters as f64, burn.total_steps as f64),
        "ratio",
    );
    let max_zone = traced
        .iter()
        .map(|j| j.work.max_zone_bdf_steps)
        .max()
        .unwrap_or(0);
    out.metric(
        "microphysics.burn.imbalance",
        ratio(
            max_zone as f64,
            ratio(burn.total_steps as f64, burn.zones as f64),
        ),
        "ratio",
    );
    out.metric(
        "microphysics.burn.retries",
        per_step(burn.retries),
        "count/step",
    );
    out.metric(
        "microphysics.batch_lane_frac",
        ratio(
            counters.batch_zones as f64,
            (counters.batch_zones + counters.batch_dropouts) as f64,
        ),
        "frac",
    );
    out.metric(
        "microphysics.dropouts",
        per_step(counters.batch_dropouts),
        "count/step",
    );

    let ckpt_ms: Vec<f64> = traced
        .iter()
        .flat_map(|j| j.ckpt_ms.iter().copied())
        .collect();
    let ckpt_bytes: u64 = traced.iter().map(|j| j.ckpt_bytes).sum();
    let writes = ckpt_ms.len() as f64;
    out.metric("resilience.checkpoint.ms", mean(&ckpt_ms), "ms");
    out.metric(
        "resilience.checkpoint.bytes",
        ratio(ckpt_bytes as f64, writes),
        "B",
    );
    out.metric(
        "resilience.checkpoint.mb_per_s",
        ratio(ckpt_bytes as f64 / 1e6, ckpt_ms.iter().sum::<f64>() / 1e3),
        "MB/s",
    );

    let untraced_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|j| j.step_ms.iter().copied())
        .collect();
    let traced_ms: Vec<f64> = traced
        .iter()
        .flat_map(|j| j.step_ms.iter().copied())
        .collect();
    out.metric(
        "telemetry.trace_overhead_frac",
        mean(&traced_ms) / mean(&untraced_ms) - 1.0,
        "frac",
    );
    out.notes.push(format!(
        "traced: {} composed jobs, {} untraced jobs interleaved; digests agree: {}",
        traced.len(),
        untraced.len(),
        traced.iter().all(|j| j.digest == untraced[0].digest)
    ));
}
