//! Pure arithmetic of the benchmark: order statistics, the tail
//! percentile rule, self time of nested spans, and the metric-name
//! charset. Everything here is deterministic and unit-tested.

/// Median of `values` (mean of the middle pair for even counts).
/// Returns `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by the nearest-rank rule: the smallest
/// sample with at least `q·n` samples at or below it.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(q, v.len()).clamp(1, v.len()) - 1]
}

/// Nearest rank of the `q`-quantile among `n` samples, robust to the
/// rounding of `q·n` (`0.99 · 1000` must give rank 990, not 991).
fn rank(q: f64, n: usize) -> usize {
    (q * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// The tail percentile a sample of `n` supports: the highest candidate
/// with at least ten samples beyond it, or the median when even p75
/// would leave fewer than ten beyond (n < 40) — a maximum over a handful
/// of samples measures the host's worst moment, not the program.
pub fn tail_level(n: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&q| n.saturating_sub(rank(q, n)) >= 10)
        .unwrap_or(0.5)
}

/// The tail of `values` by [`tail_level`], with the level used.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let q = tail_level(values.len());
    let value = if q == 0.5 {
        median(values)
    } else {
        quantile(values, q)
    };
    (value, q)
}

/// One closed interval on one thread, as photonn-trace records it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Thread id.
    pub tid: u32,
    /// Start, ns.
    pub start: u64,
    /// Duration, ns.
    pub dur: u64,
}

impl Interval {
    fn end(&self) -> u64 {
        self.start + self.dur
    }
}

/// Self time of `parents`: their summed duration minus the part of each
/// parent's interval covered by `children` on the same thread (children
/// overlapping each other are counted once).
pub fn self_time_ns(parents: &[Interval], children: &[Interval]) -> u64 {
    parents
        .iter()
        .map(|p| {
            let mut covered: Vec<(u64, u64)> = children
                .iter()
                .filter(|c| c.tid == p.tid)
                .map(|c| (c.start.max(p.start), c.end().min(p.end())))
                .filter(|(s, e)| e > s)
                .collect();
            covered.sort_unstable();
            let mut total = 0;
            let mut reach = p.start;
            for (s, e) in covered {
                let s = s.max(reach);
                if e > s {
                    total += e - s;
                    reach = e;
                }
            }
            p.dur - total.min(p.dur)
        })
        .sum()
}

/// Union length of `spans` on one thread each: overlapping spans of the
/// same thread count once; spans of different threads add.
pub fn union_ns(spans: &[Interval]) -> u64 {
    let mut by_tid: Vec<Interval> = spans.to_vec();
    by_tid.sort_by_key(|s| (s.tid, s.start));
    let mut total = 0;
    let mut current: Option<(u32, u64)> = None;
    for s in by_tid {
        let reach = match current {
            Some((tid, reach)) if tid == s.tid => reach,
            _ => 0,
        };
        let start = s.start.max(reach);
        if s.end() > start {
            total += s.end() - start;
        }
        current = Some((s.tid, reach.max(s.end())));
    }
    total
}

/// Is `name` a valid metric or workload name: 1–64 characters of ASCII
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit?
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Is `unit` a valid unit: 1–16 characters of ASCII letters, digits, `_`,
/// `/`, `%`, `.` and `-`?
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // p99 needs 1000 samples (10 beyond), p99.9 needs 10 000.
        assert_eq!(tail_level(10_000), 0.999);
        assert_eq!(tail_level(9_999), 0.99);
        assert_eq!(tail_level(1_000), 0.99);
        assert_eq!(tail_level(999), 0.95);
        assert_eq!(tail_level(200), 0.95);
        assert_eq!(tail_level(100), 0.9);
        assert_eq!(tail_level(40), 0.75);
        assert_eq!(tail_level(39), 0.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (990.0, 0.99));
        assert_eq!(tail(&[5.0, 9.0, 7.0, 1.0]), (6.0, 0.5));
    }

    fn iv(tid: u32, start: u64, dur: u64) -> Interval {
        Interval { tid, start, dur }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let parent = [iv(1, 0, 100)];
        // Two overlapping children cover [10, 50); one on another thread
        // and one straddling the parent's end count only where they hit.
        let children = [iv(1, 10, 30), iv(1, 20, 30), iv(2, 0, 100), iv(1, 90, 50)];
        assert_eq!(self_time_ns(&parent, &children), 100 - 40 - 10);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        assert_eq!(self_time_ns(&parent, &[iv(1, 0, 100)]), 0);
    }

    #[test]
    fn union_merges_per_thread_only() {
        let spans = [iv(1, 0, 10), iv(1, 5, 10), iv(2, 0, 10), iv(1, 30, 5)];
        assert_eq!(union_ns(&spans), 15 + 10 + 5);
    }

    #[test]
    fn name_and_unit_charsets() {
        assert!(valid_name("serve.queue_wait_ms.p99"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit("per second"));
        assert!(!valid_unit(""));
    }
}
