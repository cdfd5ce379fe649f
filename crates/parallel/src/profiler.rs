//! Cross-stack execution telemetry (TinyProfiler analogue).
//!
//! Castro and MAESTROeX ship with AMReX's `TinyProfiler`: every coarse phase
//! of the timestep is wrapped in a named region, regions nest, and at the end
//! of the run a table of inclusive wall time per region path is printed. That
//! table is the evidence base for statements like "the burner is 60% of the
//! step" that drive porting priorities — exactly the methodology of §IV of
//! the paper. This module reproduces it for the simulated stack and extends
//! it with the two quantities our reproduction can attribute precisely:
//! zones processed per region and simulated device microseconds charged per
//! region.
//!
//! Usage: create a [`Region`] guard; it times from construction to drop and
//! attributes to the full slash-joined path of the live guards on this
//! thread. [`Profiler::report`] renders the table (plus worker-pool
//! statistics); [`Profiler::reset`] clears it between runs.

use crate::pool::WorkerPool;
use exastro_telemetry::Telemetry;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Accumulated counters for one region path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegionStats {
    /// Times the region was entered.
    pub calls: u64,
    /// Inclusive host wall time, nanoseconds.
    pub wall_ns: u64,
    /// Zones processed by `par_for`/reductions inside the region.
    pub zones: u64,
    /// Simulated device time charged inside the region, microseconds.
    pub device_us: f64,
    /// Payload bytes moved inside the region (checkpoint I/O traffic).
    pub bytes: u64,
    /// Recovery retries taken inside the region (burn ladder rungs beyond
    /// the first attempt, driver step rejections).
    pub retries: u64,
}

thread_local! {
    static REGION_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn table() -> &'static Mutex<HashMap<String, RegionStats>> {
    static TABLE: OnceLock<Mutex<HashMap<String, RegionStats>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The process-wide profiler. All methods are associated functions; there is
/// no instance to thread through call sites (matching TinyProfiler's use of
/// global state so instrumentation stays one line per region).
pub struct Profiler;

impl Profiler {
    /// Open a named region on this thread; close it by dropping the guard.
    /// When telemetry is enabled the region also emits a begin/end trace
    /// span (see `exastro_telemetry::Telemetry::write_trace`).
    pub fn region(name: &str) -> Region {
        Telemetry::trace_begin(name);
        REGION_STACK.with(|s| s.borrow_mut().push(name.to_string()));
        Region {
            start: Instant::now(),
        }
    }

    /// A copy of this thread's open-region stack (innermost last). Used by
    /// the worker pool to carry the submitting thread's region context into
    /// pool workers (see [`Profiler::install_stack`]).
    pub fn current_stack() -> Vec<String> {
        REGION_STACK.with(|s| s.borrow().clone())
    }

    /// Replace this thread's region stack with `stack` until the returned
    /// guard drops (which restores the previous stack). Pool workers install
    /// the *submitting* thread's stack for a job's duration so that
    /// `record_zones`/`record_device_us` calls made inside the job body
    /// attribute to the submitter's region path instead of an empty one.
    ///
    /// The guard intentionally does not time anything: wall time for the
    /// region is measured once, on the submitting thread that holds the
    /// [`Region`] guard.
    pub fn install_stack(stack: Vec<String>) -> InstalledStack {
        let saved = REGION_STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), stack));
        InstalledStack { saved }
    }

    /// The current slash-joined region path on this thread, or "(top)" when
    /// no region is open.
    pub fn current_path() -> String {
        REGION_STACK.with(|s| {
            let s = s.borrow();
            if s.is_empty() {
                "(top)".to_string()
            } else {
                s.join("/")
            }
        })
    }

    /// Attribute `zones` processed zones to the innermost open region.
    pub fn record_zones(zones: u64) {
        if zones == 0 {
            return;
        }
        let path = Self::current_path();
        let mut t = table().lock().unwrap();
        t.entry(path).or_default().zones += zones;
    }

    /// Attribute `us` microseconds of simulated device time to the innermost
    /// open region.
    pub fn record_device_us(us: f64) {
        if us <= 0.0 {
            return;
        }
        let path = Self::current_path();
        let mut t = table().lock().unwrap();
        t.entry(path).or_default().device_us += us;
    }

    /// Attribute an externally measured duration of `ns` nanoseconds to the
    /// child region `name` of the current path (one call per invocation).
    /// This is for costs measured inside code that cannot hold a [`Region`]
    /// guard across its own timing boundaries — e.g. the burner attributes
    /// the integrator-reported Newton linear-algebra time to
    /// `burner/solve[dense]` without re-entering the integrator loop.
    pub fn record_ns(name: &str, ns: u64) {
        let parent = Self::current_path();
        let path = if parent == "(top)" {
            name.to_string()
        } else {
            format!("{parent}/{name}")
        };
        let mut t = table().lock().unwrap();
        let e = t.entry(path).or_default();
        e.calls += 1;
        e.wall_ns += ns;
    }

    /// Attribute `bytes` of payload I/O to the innermost open region.
    pub fn record_bytes(bytes: u64) {
        if bytes == 0 {
            return;
        }
        let path = Self::current_path();
        let mut t = table().lock().unwrap();
        t.entry(path).or_default().bytes += bytes;
    }

    /// Attribute `retries` recovery retries (burn-ladder rungs, step
    /// rejections) to the innermost open region.
    pub fn record_retries(retries: u64) {
        if retries == 0 {
            return;
        }
        let path = Self::current_path();
        let mut t = table().lock().unwrap();
        t.entry(path).or_default().retries += retries;
    }

    /// Snapshot the full region table (path -> stats).
    pub fn snapshot() -> HashMap<String, RegionStats> {
        table().lock().unwrap().clone()
    }

    /// Stats for one exact region path, if it was ever entered.
    pub fn get(path: &str) -> Option<RegionStats> {
        table().lock().unwrap().get(path).cloned()
    }

    /// Clear all accumulated counters (regions currently open on any thread
    /// will still record on close).
    pub fn reset() {
        table().lock().unwrap().clear();
    }

    /// The single accumulation pass shared by [`Profiler::report`] and
    /// [`Profiler::report_json`]: rows sorted by wall time descending with
    /// ties broken by region path (so equal-wall-time rows never reorder
    /// between runs), plus the top-level total used for the `%top` column.
    pub fn report_rows() -> (Vec<(String, RegionStats)>, u64) {
        let snap = Self::snapshot();
        let mut rows: Vec<(String, RegionStats)> = snap.into_iter().collect();
        rows.sort_by(|a, b| b.1.wall_ns.cmp(&a.1.wall_ns).then_with(|| a.0.cmp(&b.0)));
        let total_ns: u64 = rows
            .iter()
            .filter(|(p, _)| !p.contains('/'))
            .map(|(_, s)| s.wall_ns)
            .sum();
        (rows, total_ns)
    }

    /// Render the end-of-run report: regions sorted by inclusive wall time,
    /// with calls, zones, simulated device time, and worker-pool hit rates.
    pub fn report() -> String {
        let (rows, total_ns) = Self::report_rows();
        let mut out = String::new();
        out.push_str("===================== execution telemetry =====================\n");
        out.push_str(&format!(
            "{:<34} {:>7} {:>10} {:>6} {:>12} {:>12} {:>10} {:>8}\n",
            "region", "calls", "wall [ms]", "%top", "zones", "device [us]", "MB", "retries"
        ));
        for (path, s) in rows {
            let pct = if total_ns > 0 {
                100.0 * s.wall_ns as f64 / total_ns as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<34} {:>7} {:>10.3} {:>5.1}% {:>12} {:>12.1} {:>10.2} {:>8}\n",
                path,
                s.calls,
                s.wall_ns as f64 / 1e6,
                pct,
                s.zones,
                s.device_us,
                s.bytes as f64 / 1e6,
                s.retries
            ));
        }
        let ps = WorkerPool::global().stats();
        out.push_str(&format!(
            "pool: {} worker(s), {} spawned (ever), {} regions ({} pooled / {} inline, hit rate {:.0}%)\n",
            ps.threads,
            ps.threads_spawned,
            ps.regions,
            ps.pooled_regions,
            ps.serial_regions,
            100.0 * ps.pool_hit_rate()
        ));
        out.push_str("===============================================================\n");
        out
    }

    /// The end-of-run report as a JSON object sharing the exact accumulation
    /// pass (and therefore row order) of [`Profiler::report`]:
    /// `{"total_ns": .., "regions": [{"path", "calls", "wall_ns", "zones",
    /// "device_us", "bytes", "retries"}, ..], "pool": {..}}`.
    pub fn report_json() -> String {
        let (rows, total_ns) = Self::report_rows();
        let mut out = String::new();
        out.push_str(&format!("{{\"total_ns\": {total_ns}, \"regions\": ["));
        for (i, (path, s)) in rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let device_us = if s.device_us.is_finite() {
                format!("{}", s.device_us)
            } else {
                "null".to_string()
            };
            out.push_str(&format!(
                "{{\"path\": \"{}\", \"calls\": {}, \"wall_ns\": {}, \"zones\": {}, \"device_us\": {}, \"bytes\": {}, \"retries\": {}}}",
                json_escape(path),
                s.calls,
                s.wall_ns,
                s.zones,
                device_us,
                s.bytes,
                s.retries,
            ));
        }
        let ps = WorkerPool::global().stats();
        out.push_str(&format!(
            "], \"pool\": {{\"threads\": {}, \"threads_spawned\": {}, \"regions\": {}, \"pooled_regions\": {}, \"serial_regions\": {}}}}}",
            ps.threads, ps.threads_spawned, ps.regions, ps.pooled_regions, ps.serial_regions,
        ));
        out
    }

    /// The end-of-run report extended with the device's host↔device traffic
    /// summary (checkpoint D2H copies, bytes, and simulated copy time).
    pub fn report_with_device(device: &crate::device::SimDevice) -> String {
        let mut out = Self::report();
        let ds = device.stats();
        out.push_str(&format!(
            "device {}: {} D2H copies, {:.2} MB, {:.1} simulated us\n",
            device.config().name,
            ds.d2h_copies,
            ds.d2h_bytes as f64 / 1e6,
            ds.d2h_us
        ));
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// RAII guard for one profiler region; closes (and records wall time) on
/// drop.
pub struct Region {
    start: Instant,
}

impl Drop for Region {
    fn drop(&mut self) {
        let wall = self.start.elapsed();
        let path = Profiler::current_path();
        let name = REGION_STACK.with(|s| s.borrow_mut().pop());
        if let Some(name) = name {
            Telemetry::trace_end(&name);
        }
        let mut t = table().lock().unwrap();
        let e = t.entry(path).or_default();
        e.calls += 1;
        e.wall_ns += wall.as_nanos() as u64;
    }
}

/// Guard returned by [`Profiler::install_stack`]; restores the thread's
/// previous region stack on drop.
pub struct InstalledStack {
    saved: Vec<String>,
}

impl Drop for InstalledStack {
    fn drop(&mut self) {
        let saved = std::mem::take(&mut self.saved);
        REGION_STACK.with(|s| *s.borrow_mut() = saved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler table is process-global and other tests in this binary
    // record into it concurrently, so this test never resets it: it asserts
    // only on its own uniquely prefixed paths and on before/after deltas.
    // "reset clears the table" lives in tests/profiler_reset.rs, a separate
    // process.
    #[test]
    fn regions_nest_record_and_report() {
        {
            let _outer = Profiler::region("prof_test_step");
            Profiler::record_zones(100);
            {
                let _inner = Profiler::region("hydro");
                Profiler::record_zones(40);
                Profiler::record_device_us(12.5);
                assert_eq!(Profiler::current_path(), "prof_test_step/hydro");
            }
            {
                let _inner = Profiler::region("hydro");
                Profiler::record_zones(2);
            }
            {
                let _io = Profiler::region("io/checkpoint");
                Profiler::record_bytes(1_000_000);
            }
            {
                let _b = Profiler::region("burn");
                Profiler::record_retries(3);
                Profiler::record_retries(0); // no-op
                Profiler::record_ns("solve[dense]", 1500);
                Profiler::record_ns("solve[dense]", 500);
            }
        }
        let outer = Profiler::get("prof_test_step").expect("outer recorded");
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.zones, 100);
        let inner = Profiler::get("prof_test_step/hydro").expect("inner recorded");
        assert_eq!(inner.calls, 2);
        assert_eq!(inner.zones, 42);
        assert!((inner.device_us - 12.5).abs() < 1e-12);
        assert!(outer.wall_ns >= inner.wall_ns);

        let io = Profiler::get("prof_test_step/io/checkpoint").expect("io recorded");
        assert_eq!(io.bytes, 1_000_000);

        let burn = Profiler::get("prof_test_step/burn").expect("burn recorded");
        assert_eq!(burn.retries, 3);

        let solve = Profiler::get("prof_test_step/burn/solve[dense]").expect("solve recorded");
        assert_eq!(solve.calls, 2);
        assert_eq!(solve.wall_ns, 2000);

        let report = Profiler::report();
        assert!(report.contains("prof_test_step/hydro"));
        assert!(report.contains("retries"));
        assert!(report.contains("pool:"));

        // report_json shares the same accumulation pass: same rows, same
        // deterministic tie-sorted order, machine-readable.
        let json = Profiler::report_json();
        assert!(json.contains("\"path\": \"prof_test_step/hydro\""));
        assert!(json.contains("\"zones\": 42"));
        assert!(json.contains("\"total_ns\""));
        assert!(json.contains("\"pool\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let (rows, _) = Profiler::report_rows();
        let paths: Vec<&str> = rows.iter().map(|(p, _)| p.as_str()).collect();
        let mut pos = 0;
        for p in &paths {
            let at = json
                .find(&format!("\"path\": \"{p}\""))
                .expect("row in json");
            assert!(at >= pos, "json row order must match report order");
            pos = at;
        }

        // install_stack: a foreign stack attributes records, then restores.
        {
            let _g = Profiler::install_stack(vec![
                "prof_test_step".to_string(),
                "installed".to_string(),
            ]);
            assert_eq!(Profiler::current_path(), "prof_test_step/installed");
            Profiler::record_zones(5);
        }
        assert_eq!(Profiler::current_path(), "(top)");
        assert_eq!(Profiler::get("prof_test_step/installed").unwrap().zones, 5);

        let dev = crate::device::SimDevice::new(crate::device::DeviceConfig::v100());
        dev.d2h_copy(2_000_000);
        let dev_report = Profiler::report_with_device(&dev);
        assert!(dev_report.contains("1 D2H copies"));
        assert!(dev_report.contains("2.00 MB"));

        // Records made with no open region land in "(top)". Kernel launches
        // in concurrently running tests also add zones there, so the exact
        // delta is asserted on bytes, which nothing else in this crate
        // records outside a region.
        let top = || Profiler::get("(top)").unwrap_or_default();
        let before = top();
        Profiler::record_zones(7);
        Profiler::record_bytes(7_777);
        let after = top();
        assert_eq!(after.bytes - before.bytes, 7_777);
        assert!(after.zones - before.zones >= 7);
    }
}
