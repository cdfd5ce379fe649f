//! The `campaign` workload: a seeded multi-tenant backlog through the
//! service.
//!
//! Each campaign builds a service (two nodes, so two slices run on the two
//! cores), submits a fixed backlog of mixed tenants across all four
//! scenarios and networks, injects a high-priority wave after a fixed tick
//! count, and ticks until the queue drains, under a seeded node-fault
//! model at the chaos bench's moderate rate. Campaigns repeat until the
//! window closes. The seed draws the submission order, the priority
//! classes and the fault schedule; the multiset of job specs and the
//! round-by-round interleaving are fixed, so the work per campaign and the
//! shape of the queue stay comparable across seeds.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use exastro_machine::{NodeFaultConfig, NodeFaultModel};
use exastro_service::{
    EventKind, JobOutcome, JobRecord, JobSpec, MemoryEventSink, NetChoice, PriorityClass, Scenario,
    Service, ServiceConfig, ServiceReport,
};

use crate::stats::{mean, median, ratio, tail};
use crate::{digest, host, Counters, Outcome, Rng, RunOpts};

/// Nodes in the service's rank pool: one 1-node slice per core.
const NODES: usize = 2;
/// Ticks after which the high-priority wave arrives.
const WAVE_TICK: u64 = 12;
/// Upper bound on ticks per campaign (a wedged queue fails the run).
const MAX_TICKS: u64 = 100_000;

/// One tenant template: `count` identical jobs of this spec.
struct Template {
    scenario: Scenario,
    network: NetChoice,
    resolution: i32,
    steps: u64,
    nodes: usize,
    count: usize,
}

const fn t(
    scenario: Scenario,
    network: NetChoice,
    resolution: i32,
    steps: u64,
    nodes: usize,
    count: usize,
) -> Template {
    Template {
        scenario,
        network,
        resolution,
        steps,
        nodes,
        count,
    }
}

/// The backlog: every scenario, every network, and reacting-bubble
/// tenants on triple_alpha whose hot zones drop out of the batch burner.
const BACKLOG: &[Template] = &[
    t(Scenario::SedovBlast, NetChoice::CBurn2, 12, 6, 1, 3),
    t(Scenario::SedovBlast, NetChoice::Iso7, 12, 4, 1, 3),
    t(Scenario::SedovBlast, NetChoice::CBurn2, 16, 4, 2, 3),
    t(Scenario::WdCollision, NetChoice::Aprox13, 8, 3, 1, 3),
    t(Scenario::WdCollision, NetChoice::CBurn2, 8, 4, 1, 3),
    t(Scenario::XrbFlame, NetChoice::TripleAlpha, 8, 4, 1, 3),
    t(Scenario::XrbFlame, NetChoice::Iso7, 8, 4, 1, 3),
    t(Scenario::XrbFlame, NetChoice::Aprox13, 8, 3, 1, 3),
    t(Scenario::ReactingBubble, NetChoice::TripleAlpha, 8, 2, 1, 3),
    t(Scenario::ReactingBubble, NetChoice::CBurn2, 8, 4, 1, 3),
];

/// The high-priority wave injected at [`WAVE_TICK`].
const WAVE: &[Template] = &[
    t(Scenario::SedovBlast, NetChoice::CBurn2, 12, 4, 1, 4),
    t(Scenario::XrbFlame, NetChoice::TripleAlpha, 8, 4, 1, 4),
];

fn spec(t: &Template, priority: PriorityClass) -> JobSpec {
    JobSpec {
        scenario: t.scenario,
        network: t.network,
        resolution: t.resolution,
        nodes: t.nodes,
        steps: t.steps,
        priority,
        ..Default::default()
    }
}

/// Interleave the templates' copies round by round, in a seeded template
/// order each round, so that every seed spreads each kind of job evenly
/// through the queue. Round `r` takes class `classes[r % classes.len()]`,
/// so each class holds the same copies of every template whatever the
/// seed.
fn interleave(templates: &[Template], classes: &[PriorityClass], rng: &mut Rng) -> Vec<JobSpec> {
    let rounds = templates.iter().map(|t| t.count).max().unwrap_or(0);
    let mut out = Vec::new();
    for round in 0..rounds {
        let mut order: Vec<&Template> = templates.iter().filter(|t| round < t.count).collect();
        rng.shuffle(&mut order);
        let class = classes[round % classes.len()];
        out.extend(order.into_iter().map(|t| spec(t, class)));
    }
    out
}

/// The seeded inputs of the `n`-th campaign of a run. Campaigns of one run
/// draw different orders and fault schedules, so that a run averages over
/// several; a traced campaign shares the inputs of the untraced one it
/// pairs with.
struct Inputs {
    backlog: Vec<JobSpec>,
    wave: Vec<JobSpec>,
    fault_seed: u64,
}

impl Inputs {
    fn generate(seed: u64, n: u64) -> Inputs {
        let mut rng = Rng::new(seed, 0xCA3_0000 + n);
        // Two normal jobs per batch job: with the wave, the median job
        // latency falls inside the normal class rather than on the boundary
        // between two classes.
        use PriorityClass::{Batch, High, Normal};
        let backlog = interleave(BACKLOG, &[Normal, Normal, Batch], &mut rng);
        let wave = interleave(WAVE, &[High], &mut rng);
        Inputs {
            backlog,
            wave,
            fault_seed: fault_seed(&mut rng),
        }
    }

    fn digest(&self) -> u64 {
        let mut key = format!("{:x}", self.fault_seed);
        for s in self.backlog.iter().chain(&self.wave) {
            key += &format!(
                "/{}{}{}{}{:?}",
                s.scenario, s.network, s.resolution, s.steps, s.priority
            );
        }
        digest(key.bytes())
    }
}

/// A fault schedule drawn from `rng` conditioned on exactly
/// [`FAULT_KILLS`] node failures within [`FAULT_HORIZON_S`] simulated
/// seconds (about one campaign), so that every campaign carries the same
/// failure load and only its timing varies.
fn fault_seed(rng: &mut Rng) -> u64 {
    loop {
        let candidate = rng.next_u64();
        let mut model = NodeFaultModel::new(fault_config(candidate), NODES);
        model.advance(FAULT_HORIZON_S);
        if model.kills() == FAULT_KILLS {
            return candidate;
        }
    }
}

/// Node failures every campaign's fault schedule carries.
const FAULT_KILLS: u64 = 2;
/// Simulated seconds over which [`FAULT_KILLS`] is counted.
const FAULT_HORIZON_S: f64 = 0.18;

/// The fault model at the chaos bench's moderate rate: node MTBF about 25×
/// a job's runtime, repairs land, no stragglers.
fn fault_config(seed: u64) -> NodeFaultConfig {
    NodeFaultConfig {
        seed,
        node_mtbf_s: 0.100,
        repair_s: Some(0.020),
        straggler_mtbf_s: f64::INFINITY,
        ..Default::default()
    }
}

/// The service configuration: queue bound at least the backlog plus wave.
fn config(inputs: &Inputs, dir: &Path, events: Option<Arc<MemoryEventSink>>) -> ServiceConfig {
    ServiceConfig {
        nodes: NODES,
        queue_bound: inputs.backlog.len() + inputs.wave.len() + 8,
        quarantine_limit: 10,
        idle_tick_sim_us: 2_000.0,
        faults: Some(fault_config(inputs.fault_seed)),
        ckpt_root: dir.join("ckpt"),
        jsonl_dir: Some(dir.join("steps")),
        events: events.map(|e| e as Arc<dyn exastro_service::EventSink>),
        ..Default::default()
    }
}

/// What one campaign measured.
struct CampaignResult {
    setup_s: f64,
    /// Wall of the tick loop (wave submission included), seconds.
    run_s: f64,
    submit_us: Vec<f64>,
    tick_ms: Vec<f64>,
    report: ServiceReport,
    /// Simulated seconds the service's fault-model clock advanced (modeled).
    sim_s: f64,
    /// Per-job step walls by scenario, milliseconds.
    step_ms: BTreeMap<&'static str, Vec<f64>>,
    bdf_steps: u64,
    newton_iters: u64,
    burn_retries: u64,
    job_steps: u64,
    checkpoint_events: u64,
    errors: Vec<String>,
}

fn run_campaign(inputs: &Inputs, dir: &Path, traced: bool) -> CampaignResult {
    let _ = std::fs::remove_dir_all(dir);
    let events = traced.then(|| Arc::new(MemoryEventSink::new()));
    let mut errors = Vec::new();
    let t_setup = Instant::now();
    let mut svc = Service::new(config(inputs, dir, events.clone()));
    let mut submit_us = Vec::with_capacity(inputs.backlog.len() + inputs.wave.len());
    let mut submit = |svc: &mut Service, spec: &JobSpec, errors: &mut Vec<String>| {
        let t0 = Instant::now();
        let r = svc.submit(spec.clone());
        submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if let Err(e) = r {
            errors.push(format!("submit refused: {e}"));
        }
    };
    for spec in &inputs.backlog {
        submit(&mut svc, spec, &mut errors);
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let mut tick_ms = Vec::new();
    let mut ticks = 0u64;
    loop {
        if ticks == WAVE_TICK {
            for spec in &inputs.wave {
                submit(&mut svc, spec, &mut errors);
            }
        }
        let t0 = Instant::now();
        let busy = svc.tick();
        tick_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        ticks += 1;
        if (!busy && ticks > WAVE_TICK) || ticks >= MAX_TICKS {
            break;
        }
    }
    let run_s = t_run.elapsed().as_secs_f64();
    if ticks >= MAX_TICKS {
        errors.push(format!("campaign did not drain in {MAX_TICKS} ticks"));
    }
    let report = svc.report();
    let sim_s = svc.sim_clock_s();

    // Per-job step records from the per-job JSONL streams.
    let mut step_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut bdf_steps, mut newton_iters, mut burn_retries, mut job_steps) = (0, 0, 0, 0);
    for rec in &report.jobs {
        let path = dir.join("steps").join(format!("{}.steps.jsonl", rec.id));
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for line in text.lines() {
                    let wall_ns = json_u64(line, "wall_ns");
                    step_ms
                        .entry(rec.scenario.name())
                        .or_default()
                        .push(wall_ns as f64 / 1e6);
                    bdf_steps += json_u64(line, "bdf_steps");
                    newton_iters += json_u64(line, "newton_iters");
                    burn_retries += json_u64(line, "burn_retries");
                    job_steps += 1;
                }
            }
            Err(e) => errors.push(format!("read {}: {e}", path.display())),
        }
    }
    let checkpoint_events = events.map_or(0, |e| {
        e.snapshot()
            .iter()
            .filter(|ev| ev.kind == EventKind::Checkpoint)
            .count() as u64
    });
    drop(svc);
    let _ = std::fs::remove_dir_all(dir);
    CampaignResult {
        setup_s,
        run_s,
        submit_us,
        tick_ms,
        report,
        sim_s,
        step_ms,
        bdf_steps,
        newton_iters,
        burn_retries,
        job_steps,
        checkpoint_events,
        errors,
    }
}

/// An unsigned integer field of a flat JSON object line (0 if absent).
fn json_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    line.find(&pat)
        .map(|i| &line[i + pat.len()..])
        .and_then(|rest| {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0)
}

/// Identity of a spec for the preempt ≡ solo contract: jobs that share it
/// must end on the same digest whatever happened to them on the way.
fn spec_key(r: &JobRecord) -> String {
    format!(
        "{}/{}/{}^3/{}n/{}steps",
        r.scenario, r.network, r.resolution, r.nodes, r.steps_requested
    )
}

/// The per-campaign checks.
fn check_campaign(
    out: &mut Outcome,
    c: &CampaignResult,
    n: usize,
    digests: &mut BTreeMap<String, u32>,
) {
    for e in &c.errors {
        out.failures.push(format!("campaign {n}: {e}"));
    }
    let r = &c.report;
    out.check(
        r.failed == 0 && r.quarantined == 0 && r.rejected == 0,
        || {
            format!(
                "campaign {n}: {} failed, {} quarantined, {} refused",
                r.failed, r.quarantined, r.rejected
            )
        },
    );
    out.check(r.completed as u64 == r.submitted, || {
        format!(
            "campaign {n}: {} of {} jobs completed",
            r.completed, r.submitted
        )
    });
    out.check(r.queue_peak <= r.queue_bound, || {
        format!("campaign {n}: queue over its bound")
    });
    for rec in &r.jobs {
        out.check(rec.steps_done == rec.steps_requested, || {
            format!(
                "campaign {n}: {} ran {} of {} steps",
                rec.id, rec.steps_done, rec.steps_requested
            )
        });
        // Steps lost to a node failure are run again and recorded again.
        let records_ok = if rec.recoveries == 0 {
            rec.step_records == rec.steps_done
        } else {
            rec.step_records >= rec.steps_done
        };
        out.check(records_ok, || {
            format!(
                "campaign {n}: {} wrote {} step records for {} steps after {} recovery(ies)",
                rec.id, rec.step_records, rec.steps_done, rec.recoveries
            )
        });
        let key = spec_key(rec);
        let gold = *digests.entry(key.clone()).or_insert(rec.final_digest);
        out.check(rec.final_digest == gold, || {
            format!(
                "campaign {n}: {} ({key}, {} preemption(s), {} recovery(ies)) ended on {:08x}, \
                 another job of the same spec on {gold:08x}",
                rec.id, rec.preemptions, rec.recoveries, rec.final_digest
            )
        });
    }
}

/// Run the `campaign` workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let first_inputs = Inputs::generate(opts.seed, 1);
    let mut out = Outcome {
        input_digest: first_inputs.digest(),
        ..Default::default()
    };
    out.notes.push(format!(
        "inputs: {} backlog jobs + {} high-priority jobs at tick {WAVE_TICK} per campaign, \
         first fault seed {:#x}",
        first_inputs.backlog.len(),
        first_inputs.wave.len(),
        first_inputs.fault_seed
    ));
    let mut n = 0usize;
    let mut next_dir = || {
        n += 1;
        opts.work_dir.join(format!("campaign-{n:04}"))
    };

    // Warm-up campaign: lazy set-up and caches, untimed but checked.
    let mut digests = BTreeMap::new();
    let warm = run_campaign(&Inputs::generate(opts.seed, 0), &next_dir(), false);
    check_campaign(&mut out, &warm, 0, &mut digests);

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut probes: Vec<Counters> = Vec::new();
    let t_run = Instant::now();
    loop {
        if !untraced.is_empty() && t_run.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        let pair = untraced.len() as u64 + 1;
        let inputs = Inputs::generate(opts.seed, pair);
        untraced.push(run_campaign(&inputs, &next_dir(), false));
        if opts.trace {
            let dir = next_dir();
            let mut counters = Counters::default();
            traced.push(counters.count(|| run_campaign(&inputs, &dir, true)));
            probes.push(counters);
        }
    }
    for (i, c) in untraced.iter().chain(&traced).enumerate() {
        check_campaign(&mut out, c, i + 1, &mut digests);
    }

    let measured = if opts.trace { &traced } else { &untraced };
    out.attempted = measured
        .iter()
        .map(|c| c.report.submitted)
        .sum::<u64>()
        .max(1);
    out.failed = measured
        .iter()
        .map(|c| (c.report.rejected as usize + c.report.failed + c.report.quarantined) as u64)
        .sum();
    out.notes.push(format!(
        "error_rate: {} refused, failed or quarantined of {} submitted jobs = {:.4}",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted as f64
    ));
    out.notes.push(format!(
        "modeled (exastro-machine simulated clock, not a host measurement): {:?} s per campaign, \
         node failures {:?}",
        measured
            .iter()
            .map(|c| (c.sim_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        measured
            .iter()
            .map(|c| c.report.node_failures)
            .collect::<Vec<_>>()
    ));

    let first = &measured[0];
    for (k, v) in [
        ("service.preemptions", first.report.preemptions),
        ("service.recoveries", first.report.recoveries),
        ("service.node_failures", first.report.node_failures),
        ("service.job_steps", first.job_steps),
        ("burn.bdf_steps", first.bdf_steps),
        ("burn.newton_iters", first.newton_iters),
    ] {
        out.work.insert(k.to_string(), v);
    }
    if let Some(p) = probes.first() {
        for (k, v) in [
            ("service.checkpoints", p.ckpt_calls),
            ("service.checkpoint_events", first.checkpoint_events),
            ("burn.batch_zones", p.batch_zones),
            ("burn.dropouts", p.batch_dropouts),
            ("graph.tasks", p.graph_tasks),
        ] {
            out.work.insert(k.to_string(), v);
        }
    }

    if opts.trace {
        per_layer(&mut out, &untraced, &traced, &probes);
    } else {
        let setups = extra_setups(&first_inputs, &mut next_dir);
        end_to_end(&mut out, &untraced, setups);
    }
    out
}

/// Extra set-ups (service construction plus backlog submission, never
/// ticked) so that `setup_s` is a median of several.
const SETUP_REPEATS: usize = 8;

fn extra_setups(inputs: &Inputs, next_dir: &mut impl FnMut() -> std::path::PathBuf) -> Vec<f64> {
    (0..SETUP_REPEATS)
        .map(|_| {
            let dir = next_dir();
            let t0 = Instant::now();
            let mut svc = Service::new(config(inputs, &dir, None));
            for spec in &inputs.backlog {
                // Refusals surface in the measured campaigns' checks.
                let _ = svc.submit(spec.clone());
            }
            let s = t0.elapsed().as_secs_f64();
            drop(svc);
            let _ = std::fs::remove_dir_all(&dir);
            s
        })
        .collect()
}

fn job_latencies(cs: &[CampaignResult], class: Option<PriorityClass>) -> Vec<f64> {
    cs.iter()
        .flat_map(|c| c.report.jobs.iter())
        .filter(|j| matches!(j.outcome, JobOutcome::Completed))
        .filter(|j| class.is_none_or(|k| j.priority == k))
        .map(|j| j.latency_s)
        .collect()
}

fn all_step_ms(cs: &[CampaignResult]) -> Vec<f64> {
    cs.iter()
        .flat_map(|c| c.step_ms.values().flatten().copied())
        .collect()
}

fn end_to_end(out: &mut Outcome, cs: &[CampaignResult], mut setups: Vec<f64>) {
    // Rates are medians over campaigns, so that a burst of host noise in
    // one campaign does not move the run.
    let rate = |per_campaign: &dyn Fn(&CampaignResult) -> f64| -> f64 {
        median(
            &cs.iter()
                .map(|c| per_campaign(c) / c.run_s)
                .collect::<Vec<_>>(),
        )
    };
    let zone_steps = |c: &CampaignResult| -> f64 {
        c.report
            .jobs
            .iter()
            .filter(|j| matches!(j.outcome, JobOutcome::Completed))
            .map(|j| (j.zones * j.steps_done) as f64)
            .sum()
    };
    let step_ms = all_step_ms(cs);
    let latencies = job_latencies(cs, None);
    let high = job_latencies(cs, Some(PriorityClass::High));
    setups.extend(cs.iter().map(|c| c.setup_s));
    let (step_tail, step_pct) = tail(&step_ms);
    let (lat_tail, lat_pct) = tail(&latencies);
    out.metric("zones_per_us", rate(&|c| zone_steps(c) / 1e6), "zones/us");
    out.metric("step_ms_p50", median(&step_ms), "ms");
    out.metric("step_ms_tail", step_tail, "ms");
    out.metric(
        "jobs_per_hour",
        rate(&|c| 3600.0 * c.report.completed as f64),
        "1/h",
    );
    out.metric("job_latency_s_p50", median(&latencies), "s");
    out.metric("job_latency_s_tail", lat_tail, "s");
    out.metric("high_latency_s_p50", median(&high), "s");
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    out.notes.push(format!(
        "job latency p50 by class (s): batch {:.3}, normal {:.3}, high {:.3}",
        median(&job_latencies(cs, Some(PriorityClass::Batch))),
        median(&job_latencies(cs, Some(PriorityClass::Normal))),
        median(&high),
    ));
    out.notes.push(format!(
        "campaign walls (s): {:?}",
        cs.iter()
            .map(|c| (c.run_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "samples: {} campaigns, {} job steps (step_ms_tail = p{step_pct:.1}), {} jobs \
         (job_latency_s_tail = p{lat_pct:.1}), {} high-priority jobs, {} set-ups",
        cs.len(),
        step_ms.len(),
        latencies.len(),
        high.len(),
        setups.len()
    ));
}

fn per_layer(
    out: &mut Outcome,
    untraced: &[CampaignResult],
    traced: &[CampaignResult],
    probes: &[Counters],
) {
    let sum = |f: &dyn Fn(&Counters) -> u64| probes.iter().map(f).sum::<u64>();
    let job_steps = traced.iter().map(|c| c.job_steps).sum::<u64>().max(1) as f64;
    let per_step = |v: u64| v as f64 / job_steps;
    let campaigns = traced.len() as f64;

    // The campaign's step is one service tick across both cores. Job steps
    // and checkpoint I/O are the attributed core-time; the rest of the
    // tick's core-time (scheduling, placement, idle cores) is unattributed.
    let lanes = NODES.min(host::nproc()) as f64;
    let tick_ms: Vec<f64> = traced
        .iter()
        .flat_map(|c| c.tick_ms.iter().copied())
        .collect();
    let core_ms = lanes * tick_ms.iter().sum::<f64>();
    let step_core_ms: f64 = all_step_ms(traced).iter().sum();
    let ckpt_ms = sum(&|p| p.ckpt_ns) as f64 / 1e6;
    let unattributed_ms = core_ms - step_core_ms - ckpt_ms;
    out.check(unattributed_ms >= 0.0, || {
        format!(
            "job steps and checkpoints ({:.1} ms) exceed the ticks' core-time ({core_ms:.1} ms)",
            step_core_ms + ckpt_ms
        )
    });
    out.metric(
        "step.unattributed.ms_per_step",
        unattributed_ms / tick_ms.len() as f64,
        "ms",
    );
    out.metric("step.unattributed.share", unattributed_ms / core_ms, "frac");

    out.metric(
        "parallel.graph.tasks_per_step",
        per_step(sum(&|p| p.graph_tasks)),
        "count/step",
    );
    out.metric(
        "parallel.graph.runs_per_step",
        per_step(sum(&|p| p.graph_runs)),
        "count/step",
    );
    let bdf: u64 = traced.iter().map(|c| c.bdf_steps).sum();
    let newton: u64 = traced.iter().map(|c| c.newton_iters).sum();
    out.metric("microphysics.burn.bdf_steps", per_step(bdf), "count/step");
    out.metric(
        "microphysics.burn.newton_iters",
        per_step(newton),
        "count/step",
    );
    out.metric(
        "microphysics.burn.newton_per_bdf_step",
        ratio(newton as f64, bdf as f64),
        "ratio",
    );
    out.metric(
        "microphysics.burn.retries",
        per_step(traced.iter().map(|c| c.burn_retries).sum()),
        "count/step",
    );
    let (bz, bd) = (sum(&|p| p.batch_zones), sum(&|p| p.batch_dropouts));
    out.metric(
        "microphysics.batch_lane_frac",
        ratio(bz as f64, (bz + bd) as f64),
        "frac",
    );
    out.metric("microphysics.dropouts", per_step(bd), "count/step");

    let (calls, bytes) = (sum(&|p| p.ckpt_calls), sum(&|p| p.ckpt_bytes));
    out.metric(
        "resilience.checkpoint.ms",
        ratio(ckpt_ms, calls as f64),
        "ms",
    );
    out.metric(
        "resilience.checkpoint.bytes",
        ratio(bytes as f64, calls as f64),
        "B",
    );
    out.metric(
        "resilience.checkpoint.mb_per_s",
        ratio(bytes as f64 / 1e6, ckpt_ms / 1e3),
        "MB/s",
    );

    let (tick_tail, _) = tail(&tick_ms);
    let submit_us: Vec<f64> = traced
        .iter()
        .flat_map(|c| c.submit_us.iter().copied())
        .collect();
    out.metric("service.tick.ms_p50", median(&tick_ms), "ms");
    out.metric("service.tick.ms_tail", tick_tail, "ms");
    out.metric("service.submit.us_p50", median(&submit_us), "us");
    for class in [
        PriorityClass::Batch,
        PriorityClass::Normal,
        PriorityClass::High,
    ] {
        let waits: Vec<f64> = traced
            .iter()
            .flat_map(|c| c.report.queue_wait_by_class.iter())
            .filter(|w| w.class == class)
            .map(|w| w.p50_s)
            .collect();
        out.metric(
            &format!("service.queue_wait.{}.s_p50", class.name()),
            median(&waits),
            "s",
        );
    }
    let per_campaign =
        |f: &dyn Fn(&CampaignResult) -> u64| traced.iter().map(f).sum::<u64>() as f64 / campaigns;
    out.metric(
        "service.rank_utilization",
        mean(
            &traced
                .iter()
                .map(|c| c.report.rank_utilization)
                .collect::<Vec<_>>(),
        ),
        "frac",
    );
    out.metric(
        "service.preemptions",
        per_campaign(&|c| c.report.preemptions),
        "count",
    );
    out.metric(
        "service.checkpoints",
        sum(&|p| p.ckpt_calls) as f64 / campaigns,
        "count",
    );
    out.metric(
        "service.recoveries",
        per_campaign(&|c| c.report.recoveries),
        "count",
    );
    out.metric(
        "service.node_failures",
        per_campaign(&|c| c.report.node_failures),
        "count",
    );

    let scen = |s: Scenario| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|c| c.step_ms.get(s.name()).into_iter().flatten().copied())
            .collect()
    };
    let castro: Vec<f64> = [
        Scenario::SedovBlast,
        Scenario::WdCollision,
        Scenario::XrbFlame,
    ]
    .into_iter()
    .flat_map(scen)
    .collect();
    out.metric("castro.job_step_ms_p50", median(&castro), "ms");
    for s in [
        Scenario::SedovBlast,
        Scenario::WdCollision,
        Scenario::XrbFlame,
    ] {
        out.metric(
            &format!("castro.job_step_ms_p50.{}", s.name()),
            median(&scen(s)),
            "ms",
        );
    }
    out.metric(
        "maestro.job_step_ms_p50",
        median(&scen(Scenario::ReactingBubble)),
        "ms",
    );

    out.metric(
        "telemetry.trace_overhead_frac",
        mean(&all_step_ms(traced)) / mean(&all_step_ms(untraced)) - 1.0,
        "frac",
    );
    out.notes.push(format!(
        "traced: {} traced campaigns, {} untraced interleaved",
        traced.len(),
        untraced.len()
    ));
}
