//! Host facts recorded with every run, and the guards that refuse a run
//! whose environment would not measure the shipped code paths.

use crate::report::Report;

/// Switches that select untimed baseline paths or turn tracing on from
/// the environment. A run refuses to start while any is set.
pub const REFUSED_ENV: [&str; 3] = ["PHOTONN_SIMD", "PHOTONN_FFT_NO_VEC", "PHOTONN_TRACE"];

/// The first refused switch present in the environment, if any.
pub fn refused_switch() -> Option<&'static str> {
    REFUSED_ENV
        .into_iter()
        .find(|name| std::env::var_os(name).is_some())
}

/// Records core count, SIMD kernel table and CPU features.
pub fn record(report: &mut Report) {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let table = photonn_math::simd::active();
    report.note(format!(
        "host: nproc={nproc} simd_table={} simd_width={} fma={} cpu_features={}",
        table.name,
        table.width,
        table.fma,
        cpu_features()
    ));
}

fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut found = Vec::new();
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    found.push($f);
                }
            )*};
        }
        probe!("sse4.2", "avx", "avx2", "fma", "avx512f");
        found.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
