//! Sampling rules and result records shared by every workload.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, and always together with its sample count, so a tail figure
//! never rests on a handful of observations.

use std::fmt;

/// Samples that must lie strictly above a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile of a sample, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The nearest-rank percentile value.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

impl fmt::Display for Pct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} (n={}, {} beyond)", self.value, self.n, self.beyond)
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    assert!(q > 0.0 && q <= 1.0, "percentile {q} out of (0, 1]");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Pct { value: sorted[rank - 1], n, beyond })
}

/// Median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean, `0` for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_metric_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms` or `count`.
    pub unit: &'static str,
}

/// Requests of one workload phase, by terminal outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Requests sent (or offered to the simulator).
    pub sent: u64,
    /// Requests that completed with every token verified.
    pub succeeded: u64,
    /// Requests that errored, were lost, or failed an integrity check.
    pub failed: u64,
    /// Requests refused by admission control (HTTP 429/503).
    pub shed: u64,
}

impl Accounting {
    /// Adds another phase's counts.
    pub fn add(&mut self, other: Accounting) {
        self.sent += other.sent;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.shed += other.shed;
    }

    /// `(failed + shed) / sent`; requests neither succeeded nor refused
    /// (lost) count as failed.
    pub fn err_frac(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        let lost = self.sent.saturating_sub(self.succeeded + self.failed + self.shed);
        (self.failed + self.shed + lost) as f64 / self.sent as f64
    }

    /// Prints the phase's line of the accounting table.
    pub fn print(&self, workload: &str, phase: &str) {
        println!(
            "accounting workload={workload} phase={phase} sent={} succeeded={} failed={} shed={} \
             err_frac={:.6}",
            self.sent,
            self.succeeded,
            self.failed,
            self.shed,
            self.err_frac()
        );
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Nanoseconds the calling thread has spent on a CPU
/// (`CLOCK_THREAD_CPUTIME_ID`), or `None` off Linux. Unlike wall time it
/// excludes time the thread waited for a CPU.
pub fn thread_cpu_ns() -> Option<u64> {
    cpu_clock_ns(3)
}

/// Nanoseconds all threads of this process have spent on a CPU
/// (`CLOCK_PROCESS_CPUTIME_ID`), or `None` off Linux.
pub fn process_cpu_ns() -> Option<u64> {
    cpu_clock_ns(2)
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
fn cpu_clock_ns(clock: i32) -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) and `clock` is one of the CPU-time clock ids above;
    // the call writes only into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// On-CPU time is read only on Linux.
#[cfg(not(target_os = "linux"))]
fn cpu_clock_ns(_clock: i32) -> Option<u64> {
    None
}

/// Renders the result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values become `0`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(999), 0.99), None, "999 samples leave 9 beyond p99");
        let p = percentile(&ramp(1000), 0.99).expect("1000 samples support p99");
        assert_eq!(p, Pct { value: 990.0, n: 1000, beyond: 10 });
    }

    #[test]
    fn p50_of_small_samples() {
        assert_eq!(percentile(&ramp(19), 0.5), None, "19 samples leave 9 beyond p50");
        let p = percentile(&ramp(20), 0.5).unwrap();
        assert_eq!((p.value, p.n, p.beyond), (10.0, 20, 10));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled = ramp(2000);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.5), percentile(&ramp(2000), 0.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["ttft_p50_ms", "serve.parse_us", "a", "9lives", "x-y.z_w"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in
            ["", "_lead", ".lead", "has space", "uni\u{e9}", "a/b", "quote\"", &"x".repeat(65)]
        {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn err_frac_counts_lost_requests() {
        let acct = Accounting { sent: 10, succeeded: 7, failed: 1, shed: 1 };
        assert!((acct.err_frac() - 0.3).abs() < 1e-12, "one lost + one failed + one shed");
        assert_eq!(Accounting::default().err_frac(), 0.0);
    }

    #[test]
    fn result_line_is_json_with_full_digits() {
        let m = [Metric { name: "latency_ms".into(), value: 1.203_412_5, unit: "ms" }];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034125, \"unit\": \"ms\"}}}"
        );
    }
}
