//! Benchmark entry point.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sedov --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints context lines, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when a
//! correctness check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use exastro_perfbench::driver::Problem;
use exastro_perfbench::{campaign, driver, host, Outcome, RunOpts};

const WORKLOADS: &[&str] = &["sedov", "wd_collision", "campaign"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse() -> Result<(String, RunOpts), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    // Scratch space inside the benchmark's own directory of the checkout.
    let dir = std::env::var("CARGO_MANIFEST_DIR").unwrap_or(env!("CARGO_MANIFEST_DIR").into());
    let work_dir = PathBuf::from(dir).join(format!(".work-{}", std::process::id()));
    Ok((
        workload,
        RunOpts {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            work_dir,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!("{}", host::fingerprint());
    println!(
        "workload: {workload} seed={} seconds={} trace={}",
        opts.seed, opts.seconds, opts.trace as u8
    );
    let ref_start = host::reference_loop_ms();
    let mut out: Outcome = match workload.as_str() {
        "sedov" => driver::run(Problem::Sedov, &opts),
        "wd_collision" => driver::run(Problem::WdCollision, &opts),
        _ => campaign::run(&opts),
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    out.finalize(opts.trace);
    println!(
        "host reference loop (host speed, not a metric): {ref_start:.1} ms at start, {:.1} ms at end",
        host::reference_loop_ms()
    );
    for note in &out.notes {
        println!("{note}");
    }
    let work: Vec<String> = out.work.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("work per job: {}", work.join(" "));
    println!("input digest: {:016x}", out.input_digest);
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
