//! The exastro repository benchmark.
//!
//! Three closed-loop workloads drive the stack through its public entry
//! points only (`Castro::advance_level_safe`, `Service::submit`/`tick`/
//! `report`, `CheckpointManager::write`):
//!
//! * [`driver`] — `sedov` (γ-law blast, hydro + EOS re-sync dominated) and
//!   `wd_collision` (aprox13 + monopole gravity, burn dominated), one
//!   Castro driver each;
//! * [`campaign`] — a seeded multi-tenant backlog through the service,
//!   with a high-priority wave and a node-fault model.
//!
//! An untraced run reports the end-to-end metrics; a traced run (`trace`)
//! composes the Castro step from the layers' public functions, times each
//! layer from outside, and reports the per-layer metrics. Every run checks
//! the program's outputs and reports a failure instead of numbers when a
//! check fails.

pub mod campaign;
pub mod driver;
pub mod host;
pub mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// What one benchmark run is asked to do.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Workload seed: the only source of the generated inputs.
    pub seed: u64,
    /// Measurement window, seconds. At least one job runs even when the
    /// window is shorter.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics from an untraced one.
    pub trace: bool,
    /// Scratch directory for checkpoints and step streams; removed by the
    /// caller after the run.
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Result of one run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Correctness-check failures; empty means every check passed.
    pub failures: Vec<String>,
    /// Operations attempted (step attempts, or submitted jobs).
    pub attempted: u64,
    /// Operations that failed (rejected step attempts, or refused, failed
    /// and quarantined jobs).
    pub failed: u64,
    /// Reported metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Exact work counts of the run, normalised per job so that two runs
    /// of one seed compare equal whatever the window.
    pub work: BTreeMap<String, u64>,
    /// Digest of the generated inputs (differs between seeds).
    pub input_digest: u64,
    /// Human-readable context lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Append a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record a check: a false `ok` adds `what` to the failures.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. A run that failed a check reports no numbers.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        if self.correct() {
            let body: Vec<String> = self
                .metrics
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name,
                        json_number(m.value),
                        m.unit
                    )
                })
                .collect();
            out.push_str(&body.join(", "));
        }
        out.push_str("}}");
        out
    }
}

/// A finite float as a JSON number with all its digits (`0` for a
/// non-finite value, which the checks reject before printing).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// SplitMix64: the seeded generator behind every generated input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn symmetric(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// FNV-1a over `bytes` (input digests).
pub fn digest(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Program counters read around traced work: the `graph.*` and
/// `burn.batch.*` counters (which count only while telemetry is enabled)
/// and the always-on profiler's `io/checkpoint` region (writes and
/// restores).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Task-graph tasks run.
    pub graph_tasks: u64,
    /// Task-graph runs.
    pub graph_runs: u64,
    /// Zones that completed in a batch-burner lane.
    pub batch_zones: u64,
    /// Zones that dropped out of a batch to the scalar ladder.
    pub batch_dropouts: u64,
    /// Checkpoint writes and restores.
    pub ckpt_calls: u64,
    /// Wall time in checkpoint writes and restores, ns.
    pub ckpt_ns: u64,
    /// Checkpoint payload bytes.
    pub ckpt_bytes: u64,
}

impl Counters {
    /// The current totals.
    pub fn read() -> Counters {
        use exastro_telemetry::counter_get;
        let mut c = Counters {
            graph_tasks: counter_get("graph.tasks"),
            graph_runs: counter_get("graph.runs"),
            batch_zones: counter_get("burn.batch.zones"),
            batch_dropouts: counter_get("burn.batch.dropouts"),
            ..Default::default()
        };
        for (path, r) in exastro_parallel::Profiler::snapshot() {
            if path == "io/checkpoint" || path.ends_with("/io/checkpoint") {
                c.ckpt_calls += r.calls;
                c.ckpt_ns += r.wall_ns;
                c.ckpt_bytes += r.bytes;
            }
        }
        c
    }

    /// Run `f` with telemetry enabled and add the counts it made to `self`.
    pub fn count<R>(&mut self, f: impl FnOnce() -> R) -> R {
        exastro_telemetry::Telemetry::enable();
        let before = Counters::read();
        let r = f();
        let after = Counters::read();
        exastro_telemetry::Telemetry::disable();
        self.graph_tasks += after.graph_tasks - before.graph_tasks;
        self.graph_runs += after.graph_runs - before.graph_runs;
        self.batch_zones += after.batch_zones - before.batch_zones;
        self.batch_dropouts += after.batch_dropouts - before.batch_dropouts;
        self.ckpt_calls += after.ckpt_calls - before.ckpt_calls;
        self.ckpt_ns += after.ckpt_ns - before.ckpt_ns;
        self.ckpt_bytes += after.ckpt_bytes - before.ckpt_bytes;
        r
    }
}

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("zones_per_us", "zones/us"),
    ("step_ms_p50", "ms"),
    ("step_ms_tail", "ms"),
    ("jobs_per_hour", "1/h"),
    ("job_latency_s_p50", "s"),
    ("job_latency_s_tail", "s"),
    ("high_latency_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("castro.estimate_dt.ms_per_step", "ms"),
    ("castro.estimate_dt.share", "frac"),
    ("amr.snapshot.ms_per_step", "ms"),
    ("amr.snapshot.share", "frac"),
    ("castro.burn.ms_per_step", "ms"),
    ("castro.burn.share", "frac"),
    ("castro.hydro.ms_per_step", "ms"),
    ("castro.hydro.share", "frac"),
    ("castro.gravity.ms_per_step", "ms"),
    ("castro.gravity.share", "frac"),
    ("castro.eos_sync.ms_per_step", "ms"),
    ("castro.eos_sync.share", "frac"),
    ("castro.validate.ms_per_step", "ms"),
    ("castro.validate.share", "frac"),
    ("step.unattributed.ms_per_step", "ms"),
    ("step.unattributed.share", "frac"),
    ("amr.ghost.messages_per_step", "count/step"),
    ("amr.ghost.bytes_per_step", "B/step"),
    ("parallel.graph.tasks_per_step", "count/step"),
    ("parallel.graph.runs_per_step", "count/step"),
    ("microphysics.burn.zones", "count/step"),
    ("microphysics.burn.skipped", "count/step"),
    ("microphysics.burn.bdf_steps", "count/step"),
    ("microphysics.burn.newton_iters", "count/step"),
    ("microphysics.burn.newton_per_bdf_step", "ratio"),
    ("microphysics.burn.imbalance", "ratio"),
    ("microphysics.burn.retries", "count/step"),
    ("microphysics.batch_lane_frac", "frac"),
    ("microphysics.dropouts", "count/step"),
    ("resilience.checkpoint.ms", "ms"),
    ("resilience.checkpoint.bytes", "B"),
    ("resilience.checkpoint.mb_per_s", "MB/s"),
    ("service.tick.ms_p50", "ms"),
    ("service.tick.ms_tail", "ms"),
    ("service.submit.us_p50", "us"),
    ("service.queue_wait.batch.s_p50", "s"),
    ("service.queue_wait.normal.s_p50", "s"),
    ("service.queue_wait.high.s_p50", "s"),
    ("service.rank_utilization", "frac"),
    ("service.preemptions", "count"),
    ("service.checkpoints", "count"),
    ("service.recoveries", "count"),
    ("service.node_failures", "count"),
    ("castro.job_step_ms_p50", "ms"),
    ("castro.job_step_ms_p50.sedov_blast", "ms"),
    ("castro.job_step_ms_p50.wd_collision", "ms"),
    ("castro.job_step_ms_p50.xrb_flame", "ms"),
    ("maestro.job_step_ms_p50", "ms"),
    ("telemetry.trace_overhead_frac", "frac"),
];

impl Outcome {
    /// Put the metrics in declared order. Per-layer metrics a workload does
    /// not exercise read 0; an end-to-end metric must be present, finite and
    /// positive, and anything else is a failed check.
    pub fn finalize(&mut self, trace: bool) {
        let declared = if trace { PER_LAYER } else { END_TO_END };
        let mut ordered = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let found = self.metrics.iter().find(|m| m.name == name).cloned();
            let m = match found {
                Some(m) => m,
                None if trace => Metric {
                    name: name.to_string(),
                    value: 0.0,
                    unit,
                },
                None => {
                    self.failures
                        .push(format!("metric {name} was not measured"));
                    continue;
                }
            };
            if m.unit != unit {
                self.failures
                    .push(format!("metric {name} in {} not {unit}", m.unit));
            }
            if !m.value.is_finite() || (!trace && m.value <= 0.0) {
                self.failures.push(format!("metric {name} = {}", m.value));
            }
            ordered.push(m);
        }
        for m in &self.metrics {
            if !declared.iter().any(|&(n, _)| n == m.name) {
                self.failures.push(format!("undeclared metric {}", m.name));
            }
        }
        self.metrics = ordered;
    }
}
