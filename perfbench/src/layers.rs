//! Reading photonn-trace windows: spans by name, counters by name, and the
//! span arithmetic (unions, self time) the per-layer metrics are built on.

use crate::stats::{self, Interval};
use photonn_trace::Trace;
use std::time::Instant;

/// One collected trace window.
pub struct Window {
    trace: Trace,
}

impl Window {
    /// Starts a fresh window: clears spans and counters.
    pub fn start() {
        photonn_trace::reset();
    }

    /// Collects everything recorded since [`Window::start`].
    pub fn collect() -> Window {
        Window {
            trace: photonn_trace::collect(),
        }
    }

    /// Spans whose name satisfies `pred`.
    pub fn spans(&self, pred: impl Fn(&str) -> bool) -> Vec<Interval> {
        self.trace
            .events
            .iter()
            .filter(|e| pred(e.name))
            .map(|e| Interval {
                tid: e.tid,
                start: e.start_ns,
                dur: e.dur_ns,
            })
            .collect()
    }

    /// Spans named exactly `name`.
    pub fn named(&self, name: &str) -> Vec<Interval> {
        self.spans(|n| n == name)
    }

    /// Durations in ms of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .iter()
            .map(|s| s.dur as f64 / 1e6)
            .collect()
    }

    /// A counter's value (0 if it never fired).
    pub fn counter(&self, name: &str) -> u64 {
        self.trace
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Time covered by hop spans (`hop.*`), overlapping spans of one
    /// thread counted once, in ms.
    pub fn hop_ms(&self) -> f64 {
        stats::union_ns(&self.spans(is_hop)) as f64 / 1e6
    }

    /// Hop spans not nested inside another hop span of the same thread —
    /// one per batched hop executed.
    pub fn outer_hops(&self) -> usize {
        let hops = self.spans(is_hop);
        hops.iter()
            .filter(|h| {
                !hops.iter().any(|o| {
                    o.tid == h.tid
                        && o != *h
                        && o.start <= h.start
                        && o.start + o.dur >= h.start + h.dur
                        && o.dur > h.dur
                })
            })
            .count()
    }

    /// Self time of the spans named `parent` with the hop spans taken
    /// out, in ms.
    pub fn self_ms_without_hops(&self, parent: &str) -> f64 {
        stats::self_time_ns(&self.named(parent), &self.spans(is_hop)) as f64 / 1e6
    }
}

fn is_hop(name: &str) -> bool {
    name.starts_with("hop.")
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Computed floating-point work of one free-space hop on one `n × n`
/// sample: a forward and an inverse 2-D FFT (`5·N·log2 N` flops each for
/// `N = n²` points, the usual radix-2 count) plus the transfer-function
/// product (6 flops per complex multiply).
pub fn hop_flops(n: usize) -> f64 {
    let points = (n * n) as f64;
    2.0 * 5.0 * points * points.log2() + 6.0 * points
}

/// Computed bytes one hop moves on one `n × n` sample: each 2-D FFT
/// reads and writes the split re/im planes once per column pass (two
/// passes), and the transfer product reads field and kernel and writes
/// the field — 16 bytes per complex value.
pub fn hop_bytes(n: usize) -> f64 {
    let plane = (n * n * 16) as f64;
    2.0 * 2.0 * 2.0 * plane + 3.0 * plane
}
