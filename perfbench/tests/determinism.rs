//! Determinism self-test of the benchmark: the work a run does repeats
//! exactly for one seed, and a second seed changes the generated inputs
//! while still passing every check.
//!
//! ```sh
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::sync::Mutex;

use exastro_perfbench::driver::Problem;
use exastro_perfbench::{campaign, driver, Outcome, RunOpts, END_TO_END, PER_LAYER};

/// Runs share the process-wide program counters and profiler, so they
/// must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn run(workload: &str, seed: u64) -> Outcome {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let opts = RunOpts {
        seed,
        seconds: 0.0,
        trace: true,
        work_dir: std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            ".work-test-{workload}-{seed}-{}",
            std::process::id()
        )),
    };
    let mut out = match workload {
        "sedov" => driver::run(Problem::Sedov, &opts),
        "wd_collision" => driver::run(Problem::WdCollision, &opts),
        _ => campaign::run(&opts),
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    out.finalize(true);
    assert!(
        out.correct(),
        "{workload} seed {seed} failed: {:?}",
        out.failures
    );
    out
}

fn check_determinism(workload: &str, counts: &[&str]) -> Outcome {
    let a = run(workload, 1);
    let b = run(workload, 1);
    let c = run(workload, 2);
    for key in counts {
        assert!(a.work.contains_key(*key), "{workload}: no work count {key}");
    }
    assert_eq!(
        a.work, b.work,
        "{workload}: work counts differ across runs of one seed"
    );
    assert_eq!(a.input_digest, b.input_digest);
    assert_ne!(
        a.input_digest, c.input_digest,
        "{workload}: seed 2 generated seed 1's inputs"
    );
    assert_eq!(a.attempted, b.attempted);
    assert_eq!(a.failed, b.failed);
    a
}

#[test]
fn sedov_work_repeats_and_does_not_burn() {
    let a = check_determinism(
        "sedov",
        &[
            "ghost.bytes",
            "ghost.messages",
            "graph.tasks",
            "burn.bdf_steps",
            "checkpoint.bytes",
        ],
    );
    assert!(a.work["ghost.messages"] > 0 && a.work["graph.tasks"] > 0);
    // Burn-layer changes must show no effect on sedov: it never burns.
    assert_eq!(a.work["burn.bdf_steps"], 0);
    assert_eq!(a.work["burn.dropouts"], 0);
}

#[test]
fn wd_collision_work_repeats() {
    let a = check_determinism(
        "wd_collision",
        &[
            "burn.bdf_steps",
            "burn.newton_iters",
            "burn.dropouts",
            "ghost.bytes",
            "ghost.messages",
        ],
    );
    assert!(a.work["burn.bdf_steps"] > 0 && a.work["burn.newton_iters"] > 0);
}

#[test]
fn campaign_work_repeats() {
    let a = check_determinism(
        "campaign",
        &[
            "burn.bdf_steps",
            "burn.newton_iters",
            "burn.dropouts",
            "service.preemptions",
            "service.checkpoints",
            "service.recoveries",
            "service.node_failures",
        ],
    );
    // The triple_alpha tenants drop hot zones out of the batch burner.
    assert!(a.work["burn.dropouts"] > 0);
    assert!(a.work["service.node_failures"] > 0);
}

/// `BENCHMARK.json` declares exactly the metrics the benchmark prints.
#[test]
fn benchmark_json_matches_the_metric_lists() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = text.matches("\"unit\":").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
}
