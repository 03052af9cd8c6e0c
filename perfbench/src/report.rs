//! The metric inventory (mirrored in the repository's `BENCHMARK.json`;
//! a unit test keeps the two in step) and the result record every
//! workload fills in.

use crate::stats::{valid_name, valid_unit};
use std::fmt::Write as _;

/// An end-to-end metric: what a user of the workload sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the parent's median.
    pub bound: f64,
}

/// End-to-end metrics, printed by every workload with tracing off. Each
/// workload has one unit of work (an "op"): an optimizer step of the
/// sharded trainer (`train_paper200`), one five-variant table
/// (`table_scaled`), one HTTP request in a closed loop (`serve_mix`:
/// `op_p50_ms` with one request outstanding, `ops_per_s` at saturation). Tail
/// latencies are printed on the log lines and in the per-layer set: on a
/// shared 2-vCPU host they move run to run by more than the largest
/// bound a metric may have.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.1,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
];

/// Per-layer metrics, printed by every workload with tracing on; a layer
/// a workload does not exercise reads 0. Names follow the module that
/// owns the measured call or span: `fft`/`hop` (photonn-fft), `tape`
/// (photonn-autodiff), `train`/`stage`/`two_pi`/`quality` (photonn-donn),
/// `dist` (photonn-dist), `serve`/`http`/`engine` (photonn-serve), `wire`
/// (photonn-wire), plus the benchmark's own health (`attributed_fraction`,
/// `trace`, `gen`, `alloc`).
pub const PER_LAYER: [(&str, &str); 52] = [
    ("attributed_fraction", "ratio"),
    ("trace.overhead_pct", "%"),
    ("alloc.count", "count/op"),
    ("alloc.bytes", "B/op"),
    ("step.ms.p50", "ms"),
    ("step.ms.tail", "ms"),
    ("fft.hop_ms", "ms/step"),
    ("fft.column_passes", "count/step"),
    ("fft.flops", "flop/step"),
    ("fft.bytes", "B/step"),
    ("tape.forward_ms", "ms/step"),
    ("tape.backward_ms", "ms/step"),
    ("tape.other_ms", "ms/step"),
    ("tape.nodes", "count/step"),
    ("simd.intensity_calls", "count/step"),
    ("train.reg_ms", "ms/step"),
    ("train.adam_ms", "ms/step"),
    ("dist.shard_ms.max", "ms/step"),
    ("dist.shard_ms.min", "ms/step"),
    ("dist.allreduce_ms", "ms/step"),
    ("dist.efficiency", "ratio"),
    ("stage.train_s", "s/table"),
    ("stage.slr_s", "s/table"),
    ("stage.finetune_s", "s/table"),
    ("stage.eval_s", "s/table"),
    ("stage.two_pi_s", "s/table"),
    ("two_pi.gumbel_iters", "count/table"),
    ("two_pi.shifted_pixels", "count/table"),
    ("quality.r_reduction_pct", "%"),
    ("quality.acc_drop_pct", "pct-points"),
    ("serve.lo.p50_ms", "ms"),
    ("serve.lo.tail_ms", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.tail", "ms"),
    ("serve.assemble_ms.p50", "ms"),
    ("serve.assemble_ms.tail", "ms"),
    ("serve.forward_ms.p50", "ms"),
    ("serve.forward_ms.tail", "ms"),
    ("serve.write_ms.p50", "ms"),
    ("serve.write_ms.tail", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.steals", "count"),
    ("serve.sheds", "count"),
    ("serve.degraded_batches", "count"),
    ("serve.queue_depth.max", "count"),
    ("http.parse_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.encode_us", "us"),
    ("engine.logits_batch_ms", "ms"),
    ("gen.late_ms.tail", "ms"),
    ("gen.late_ms.max", "ms"),
];

/// What one run found.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (steps, tables, requests).
    pub attempted: u64,
    /// Operations that failed (errors, non-2xx, timeouts).
    pub failed: u64,
    /// Correctness checks: `(name, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// Measured values by metric name.
    pub values: Vec<(String, f64)>,
    /// Context lines printed before the result (host, phases, the
    /// vocabulary for the generic metrics).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric value (the last write of a name wins).
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.retain(|(n, _)| n != name);
        self.values.push((name.to_string(), value));
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), passed, detail.into()));
    }

    /// Adds a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// The value recorded for `name`, if any.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The `(name, unit)` list this run must print.
    fn inventory(traced: bool) -> Vec<(&'static str, &'static str, String)> {
        if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, unit, String::new()))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let better = if m.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    (
                        m.name,
                        m.unit,
                        format!(" ({better} is better, bound {})", m.bound),
                    )
                })
                .collect()
        }
    }

    /// Human-readable lines, then the one-line JSON result. Metrics the
    /// run did not measure read 0 (per-layer) — an end-to-end metric left
    /// unmeasured is a bug and fails the run.
    pub fn render(&mut self, traced: bool) -> String {
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "# {line}");
        }
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "check {verdict} {name}: {detail}");
        }
        let mut json = String::new();
        for (i, (name, unit, context)) in Self::inventory(traced).into_iter().enumerate() {
            assert!(
                valid_name(name) && valid_unit(unit),
                "metric {name} [{unit}]"
            );
            let value = match self.value(name) {
                Some(v) if v.is_finite() => v,
                _ if traced => 0.0,
                _ => {
                    self.checks
                        .push((format!("measured {name}"), false, "no value".into()));
                    0.0
                }
            };
            let _ = writeln!(out, "metric {name} = {value} {unit}{context}");
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (`Display` for `f64`), `0` for non-finite values.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photonn_wire::json::Json;

    #[test]
    fn every_metric_name_and_unit_is_in_charset_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _)| *n));
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().copied())
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
    }

    #[test]
    fn benchmark_json_matches_the_inventory() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, spec) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(spec.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(spec.unit));
            let better = if spec.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(spec.bound));
        }
        let layers = doc
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, (name, unit)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(*name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
        }
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        for m in &END_TO_END {
            report.set(m.name, 1.5);
        }
        report.check("demo", true, "fine");
        let out = report.render(false);
        let last = out.lines().last().expect("result line");
        let doc = Json::parse(last).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_usize), Some(3));
        let metrics = doc.get("metrics").expect("metrics");
        for m in &END_TO_END {
            let entry = metrics.get(m.name).expect("metric present");
            assert_eq!(entry.get("value").and_then(Json::as_f64), Some(1.5));
        }
    }

    #[test]
    fn unmeasured_end_to_end_metric_fails_the_run() {
        let mut report = Report::default();
        let out = report.render(false);
        assert!(out
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
