//! **Tentpole ablation**: task-graph overlapped ghost exchange vs
//! bulk-synchronous stepping.
//!
//! Three measurements isolate the overlap machinery:
//!
//! * the *modeled* 512-node weak-scaling efficiency with and without the
//!   overlapped exchange (deterministic machine model — gated in CI);
//! * the *measured* per-task scheduling overhead of [`TaskGraph::run`]
//!   on a no-op graph (what the model charges as `scheduler_overhead_us`);
//! * the *measured* wall-clock of a real Castro advance on the free graph
//!   against the same advance on the barrier graph (`overlap = false`:
//!   every unpack before any interior). Both run the same tasks on the
//!   same pool with bit-identical results (asserted in `castro`'s tests),
//!   so the ratio isolates the overlap itself, not thread parallelism.

use criterion::{criterion_group, criterion_main, Criterion};
use exastro_bench::{bench_castro, sedov_fixture, write_metrics_json, MetricPoint};
use exastro_castro::KernelStructure;
use exastro_machine::{canonical_series, hydro_overlap, overlapped_series, Machine};
use exastro_parallel::{TaskGraph, WorkerPool};
use exastro_telemetry::{graphtrace, Telemetry};

/// No-op tasks in the scheduler-overhead probe graph.
const PROBE_TASKS: usize = 2048;

fn scheduler_overhead_us() -> f64 {
    // A chain-of-chains graph: 8 independent chains of 256 tasks keeps
    // the ready queue shallow (the worst case for wakeup overhead).
    let mut g = TaskGraph::new();
    for _ in 0..8 {
        let mut prev = g.add_task();
        for _ in 0..(PROBE_TASKS / 8 - 1) {
            prev = g.add_task_after(&[prev]);
        }
    }
    let pool = WorkerPool::global();
    // Warm the pool before timing.
    g.run(pool, 4, |_| {}).unwrap();
    let start = std::time::Instant::now();
    let reps = 20;
    for _ in 0..reps {
        g.run(pool, 4, |_| {}).unwrap();
    }
    let us = start.elapsed().as_secs_f64() * 1e6;
    us / (reps * PROBE_TASKS) as f64
}

fn print_ablation() {
    let m = Machine::summit();
    println!("\n=== Task-graph overlap ablation ===");
    let sync = canonical_series(&m, &[1, 512]);
    let ovl = overlapped_series(&m, &[1, 512]);
    println!(
        "modeled 512-node efficiency: sync {:.3} -> overlapped {:.3}",
        sync[1].normalized, ovl[1].normalized
    );

    let overhead = scheduler_overhead_us();
    println!("measured scheduler overhead: {overhead:.3} µs/task ({PROBE_TASKS}-task probe)");

    // Real advance, barrier graph vs free graph, identical physics
    // (bit-identity is asserted in the castro test suite; here we only
    // time it).
    let (geom, state, _layout, eos, net) = sedov_fixture(32, 8);
    let mut castro_sync = bench_castro(&eos, &net, KernelStructure::Flat);
    castro_sync.hydro.overlap = false;
    let castro_ovl = bench_castro(&eos, &net, KernelStructure::Flat);
    let dt = castro_sync.estimate_dt(&state, &geom);
    let time_advance = |c: &exastro_castro::Castro<'_>| {
        let mut s = state.clone();
        // Warm caches/pool.
        let _ = c.advance_level(&mut s, &geom, dt);
        let start = std::time::Instant::now();
        let reps = 5;
        for _ in 0..reps {
            let mut s = state.clone();
            let _ = c.advance_level(&mut s, &geom, dt);
        }
        start.elapsed().as_secs_f64() * 1e6 / reps as f64
    };
    let us_sync = time_advance(&castro_sync);
    let us_ovl = time_advance(&castro_ovl);
    let wall_speedup = us_sync / us_ovl;
    println!(
        "measured 32³ Sedov advance: barrier graph {us_sync:.0} µs, free graph {us_ovl:.0} µs \
         ({wall_speedup:.2}×)"
    );

    // *Measured* overlap efficiency: one more overlapped advance with
    // graph tracing armed, each sweep graph summarized and reconciled
    // against the machine model's predicted hidden fraction for these
    // boxes. The drift (measured − predicted) is what the modeling
    // earlier PRs only asserted; now it is a number in the artifact.
    Telemetry::enable_graph_trace();
    graphtrace::clear();
    {
        let mut s = state.clone();
        let _ = castro_ovl.advance_level(&mut s, &geom, dt);
    }
    let model = hydro_overlap(8);
    let mut summaries: Vec<graphtrace::GraphSummary> = graphtrace::take()
        .iter()
        .map(graphtrace::summarize)
        .collect();
    for s in &mut summaries {
        let p = model.predicted_hidden_fraction(s.compute_us, s.comm_us);
        s.reconcile(p);
    }
    Telemetry::disable_graph_trace();
    Telemetry::reset();
    let measured = graphtrace::overall_efficiency(&summaries).unwrap_or(0.0);
    let total_comm: f64 = summaries.iter().map(|s| s.comm_us).sum();
    let predicted = if total_comm > 0.0 {
        summaries
            .iter()
            .map(|s| model.predicted_hidden_fraction(s.compute_us, s.comm_us) * s.comm_us)
            .sum::<f64>()
            / total_comm
    } else {
        0.0
    };
    let drift = measured - predicted;
    println!(
        "measured overlap efficiency: {measured:.3} vs modeled {predicted:.3} \
         (drift {drift:+.3} over {} traced graph(s))",
        summaries.len()
    );

    let metrics = vec![
        MetricPoint::new("taskgraph/overlap_efficiency", ovl[1].normalized, "frac"),
        MetricPoint::new("taskgraph/sync_efficiency", sync[1].normalized, "frac"),
        MetricPoint::new(
            "taskgraph/efficiency_gain",
            ovl[1].normalized / sync[1].normalized,
            "x",
        ),
        MetricPoint::new("taskgraph/scheduler_overhead_us_per_task", overhead, "us"),
        MetricPoint::new("taskgraph/wall_speedup_sedov32", wall_speedup, "x"),
        // Deliberately not gated (host-dependent: a serial pool measures
        // ~0); the reconciliation *test* in tests/overlap_reconcile.rs
        // bounds the drift, the artifact just records it.
        MetricPoint::new("taskgraph/measured_overlap_eff", measured, "frac"),
        MetricPoint::new("taskgraph/model_drift", drift, "frac"),
    ];
    match write_metrics_json("taskgraph", &metrics) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("BENCH_taskgraph.json not written: {e}"),
    }
}

fn bench(c: &mut Criterion) {
    print_ablation();
    let (geom, state, _layout, eos, net) = sedov_fixture(32, 8);
    let mut g = c.benchmark_group("taskgraph");
    g.sample_size(10);
    let mut castro_sync = bench_castro(&eos, &net, KernelStructure::Flat);
    castro_sync.hydro.overlap = false;
    let castro_ovl = bench_castro(&eos, &net, KernelStructure::Flat);
    let dt = castro_sync.estimate_dt(&state, &geom);
    g.bench_function("advance_sync", |b| {
        b.iter(|| {
            let mut s = state.clone();
            std::hint::black_box(castro_sync.advance_level(&mut s, &geom, dt))
        })
    });
    g.bench_function("advance_overlapped", |b| {
        b.iter(|| {
            let mut s = state.clone();
            std::hint::black_box(castro_ovl.advance_level(&mut s, &geom, dt))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
