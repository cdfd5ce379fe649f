//! Host fingerprint and process memory: the kernel's own status of this
//! process for peak RSS, CPUID for the cache hierarchy.

/// Peak resident set size of this process image, MiB (0 where the kernel
/// does not report it). `VmHWM` rather than `getrusage`, whose maximum
/// survives `exec` and so would report the launcher's footprint.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hardware threads this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Cache levels as `L1d=48K L1i=32K L2=1280K ...`, from CPUID.
pub fn caches() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{__cpuid, __cpuid_count};
        // Leaves are only queried below the maximum the CPU reports.
        let vendor = __cpuid(0);
        let amd = vendor.ebx == 0x6874_7541; // "Auth"
        let leaf = if amd { 0x8000_001D } else { 4 };
        let max = if amd {
            __cpuid(0x8000_0000).eax
        } else {
            vendor.eax
        };
        if max < leaf {
            return "unknown".into();
        }
        let mut out = Vec::new();
        for sub in 0..8 {
            let r = __cpuid_count(leaf, sub);
            let kind = r.eax & 0x1f;
            if kind == 0 {
                break;
            }
            let level = (r.eax >> 5) & 7;
            let ways = ((r.ebx >> 22) & 0x3ff) + 1;
            let parts = ((r.ebx >> 12) & 0x3ff) + 1;
            let line = (r.ebx & 0xfff) + 1;
            let sets = r.ecx + 1;
            let kib = ways as u64 * parts as u64 * line as u64 * sets as u64 / 1024;
            let tag = match kind {
                1 => "d",
                2 => "i",
                _ => "",
            };
            out.push(format!("L{level}{tag}={kib}K"));
        }
        out.join(" ")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "unknown".into()
    }
}

/// Wall time of a fixed single-threaded integer loop, ms (median of three).
/// Printed at the start and end of a run so that a reader can tell host
/// speed drift from a change in the program; it is never a metric.
pub fn reference_loop_ms() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..(1u32 << 24) {
                x = std::hint::black_box(x.rotate_left(7) ^ x.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            }
            std::hint::black_box(x);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// One line describing the host and build.
pub fn fingerprint() -> String {
    format!(
        "host: nproc={} rustc=\"{}\" profile={} caches=\"{}\" arch={} os={}",
        nproc(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        caches(),
        std::env::consts::ARCH,
        std::env::consts::OS
    )
}
