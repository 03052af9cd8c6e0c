//! End-to-end and per-layer benchmark of the photonn workspace.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_paper200 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Three workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `train_paper200` — the paper's 200×200, 3-layer optics trained with
//!   the Ours-D regularizers on batch 50 through the in-process shard pool
//!   of `photonn_dist::train_with_sharded` (2 workers × 1 thread).
//! * `table_scaled` — the five `pipeline::Variant`s through
//!   `run_variant_on` on `ExperimentConfig::scaled(Family::Mnist)`: what
//!   the `table2` binary runs.
//! * `serve_mix` — an open loop on a fixed arrival schedule against an
//!   in-process `ServerBuilder` server: `/v1` single images and `/v2`
//!   8-image batches over two variants and both readout heads.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` replays the same work layer by layer with photonn-trace and
//! allocation counting on, and prints the per-layer metrics. Every run
//! checks its outputs; a failed check makes the run exit 1. The last line
//! of standard output is the JSON result. `serve_mix` re-runs this binary
//! as `--closed-loop-child` for its closed-loop measurements (see `serve`).

mod alloc;
mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod table;
mod train;

use report::Report;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["train_paper200", "table_scaled", "serve_mix"];

/// What a run was asked to do.
pub struct RunArgs {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget.
    pub budget: Duration,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub traced: bool,
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, RunArgs) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .unwrap_or_else(|| usage(&format!("{} needs a value", args[i])));
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| *s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload '{workload}'"));
    }
    let run = RunArgs {
        seed: seed.unwrap_or_else(|| usage("--seed needs a whole number")),
        budget: Duration::from_secs(
            seconds.unwrap_or_else(|| usage("--seconds needs a positive whole number")),
        ),
        traced: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
    };
    (workload, run)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some(serve::CLOSED_LOOP_CHILD_FLAG) {
        serve::closed_loop_child(&raw[1..]);
    }
    let (workload, args) = parse_args();
    if let Some(name) = host::refused_switch() {
        eprintln!(
            "perfbench: refusing to run with {name} set: it selects a baseline or tracing \
             path the benchmark does not measure; unset it"
        );
        std::process::exit(2);
    }
    // Tracing is switched on by the traced run itself, never by the
    // environment (refused above); latch it off before any work.
    photonn_trace::set_enabled(false);

    let mut report = Report::default();
    host::record(&mut report);
    report.note(format!(
        "workload={workload} seed={} seconds={} trace={}",
        args.seed,
        args.budget.as_secs(),
        u8::from(args.traced)
    ));
    match workload.as_str() {
        "train_paper200" => train::run(&args, &mut report),
        "table_scaled" => table::run(&args, &mut report),
        "serve_mix" => serve::run(&args, &mut report),
        _ => unreachable!("workload validated in parse_args"),
    }
    if !args.traced && report.value("peak_rss_mb").is_none() {
        report.set("peak_rss_mb", host::peak_rss_mb());
    }
    print!("{}", report.render(args.traced));
    if !report.correct() {
        std::process::exit(1);
    }
}
