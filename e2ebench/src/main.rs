//! End-to-end benchmark of the Pre-gated MoE serving stack, with a traced
//! run that attributes time to the serve, model, runtime, device and
//! control layers.
//!
//! ```sh
//! bash e2ebench/run.sh --workload http_decode --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Lines before it are
//! the human-readable report: accounting per phase, every percentile with
//! its sample count, and the checks that ran. See `e2ebench/README.md`.

mod calib;
mod http;
mod model;
mod sim;
mod stats;
mod trace;

use stats::{percentile, result_json, valid_metric_name, Accounting, Metric};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["http_decode", "sim_b1_decode", "sim_b8_cached", "fleet_chaos"];

/// End-to-end metrics reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ttft_mean_ms", "ms"),
    ("ttft_p99_ms", "ms"),
    ("tok_s", "tok/s"),
    ("host_us_per_token", "us"),
    ("peak_hbm_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics reported with `--trace 1`. A workload that does not
/// run a layer reports `0` for it.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("serve.parse_us", "us"),
    ("serve.engine_ttft_ms", "ms"),
    ("serve.io_ttft_ms", "ms"),
    ("serve.batch_mean", "req"),
    ("serve.shed", "count"),
    ("serve.restarts", "count"),
    ("model.forward_us", "us"),
    ("model.attn_us", "us"),
    ("model.norm_us", "us"),
    ("model.router_us", "us"),
    ("model.moe_us", "us"),
    ("model.head_us", "us"),
    ("model.sublayer_sum_us", "us"),
    ("model.attribution_ratio", "ratio"),
    ("model.rows_per_token", "rows"),
    ("tensor.flops_per_token", "flop"),
    ("tensor.bytes_per_token", "B"),
    ("runtime.admit_us", "us"),
    ("runtime.step_us", "us"),
    ("runtime.run_ms", "ms"),
    ("runtime.plan_hit_rate", "frac"),
    ("runtime.fetch_mb_per_token", "MB"),
    ("runtime.demand_fetch_frac", "frac"),
    ("runtime.kv_peak_mb", "MB"),
    ("runtime.kv_shared_hit_mb", "MB"),
    ("runtime.batch_mean", "req"),
    ("runtime.peak_batch", "req"),
    ("runtime.queueing_p99_ms", "ms"),
    ("device.gpu_busy_frac", "frac"),
    ("device.pcie_busy_frac", "frac"),
    ("control.serve_ms", "ms"),
    ("control.redispatched", "count"),
    ("control.dropped_tokens", "count"),
    ("control.scale_ups", "count"),
    ("control.faults_injected", "count"),
    ("control.utilization_mean", "frac"),
    ("share.serve", "frac"),
    ("share.model", "frac"),
    ("share.runtime", "frac"),
    ("share.control", "frac"),
    ("share.unattributed", "frac"),
    ("trace.overhead_frac", "frac"),
];

const USAGE: &str =
    "usage: pgmoe-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--doctor]
workloads: http_decode sim_b1_decode sim_b8_cached fleet_chaos
--doctor corrupts the workload's reference outputs; the run must then fail";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Corrupt the reference so the output checks must fail.
    pub doctor: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 0.0, trace: false, doctor: false };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--doctor" => args.doctor = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    args.seed = seed.ok_or("--seed is required")?;
    args.seconds = seconds.ok_or("--seconds is required")?;
    args.trace = trace.ok_or("--trace is required")?;
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// End-to-end samples of one measured phase.
#[derive(Debug, Clone, Default)]
pub struct E2e {
    /// Per-request time to first token, ms.
    pub ttft_ms: Vec<f64>,
    /// Per-request mean time per output token after the first, ms.
    pub tpot_ms: Vec<f64>,
    /// Tokens per second in the workload's clock (wall or simulated).
    pub tok_s: f64,
    /// Host on-CPU microseconds per delivered token: the whole process's on
    /// `http_decode`, the replaying thread's, calibrated (see
    /// [`calib`]), on the simulator workloads.
    pub host_us_per_token: f64,
    /// Peak simulated HBM, MB.
    pub peak_hbm_mb: f64,
}

/// Per-layer metric values by name.
#[derive(Debug, Clone, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets metric `name`, which must be listed in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted per-layer metric {name}"
        );
        self.0.insert(name, value);
    }
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Requests of the measured phases.
    pub acct: Accounting,
    /// End-to-end samples (`--trace 0`).
    pub e2e: Option<E2e>,
    /// Per-layer metrics (`--trace 1`).
    pub layers: Layers,
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Spans of the traced run.
    pub spans: Option<Tracer>,
}

/// Load threads and client connections: at most the machine's cores, and
/// at most two.
pub fn load_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// Set-up repetitions per run; the median is reported.
const SETUP_REPS: usize = 7;

/// Runs `setup` [`SETUP_REPS`] times and keeps the last result; returns it
/// with the median set-up time in seconds. Each set-up's wall time is
/// divided by the machine slowdown measured just before and after it (see
/// [`calib`]): on a shared machine the speed can switch by 2x between runs,
/// which a median within one run does not remove.
pub fn setup_median<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let (mut wall, mut times) = (Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let before = calib::slowdown_now();
        let t0 = Instant::now();
        kept = Some(setup()?);
        let t = t0.elapsed().as_secs_f64();
        let slowdown = (before + calib::slowdown_now()) / 2.0;
        wall.push(t);
        times.push(t / slowdown);
    }
    let show = |v: &[f64]| v.iter().map(|t| format!("{t:.6}")).collect::<Vec<_>>().join(" ");
    println!("set-up wall times s: {}", show(&wall));
    println!("set-up calibrated times s: {}", show(&times));
    println!("set-up wall median s: {:.6}", stats::median(&wall));
    Ok((kept.expect("at least one set-up"), stats::median(&times)))
}

/// Prints percentile `q` of `samples`, with its sample count, or why it is
/// not reported.
pub fn print_pct(name: &str, unit: &str, samples: &[f64], q: f64) {
    match percentile(samples, q) {
        Some(p) => println!("metric {name} = {p} {unit}"),
        None => println!(
            "metric {name} not reported: {} samples leave fewer than {} beyond it",
            samples.len(),
            stats::MIN_BEYOND
        ),
    }
}

fn e2e_metrics(e: &E2e, setup_s: f64) -> Result<Vec<Metric>, String> {
    let pct = |name: &str, samples: &[f64], q: f64| {
        percentile(samples, q)
            .map(|p| {
                println!("samples {name}: n={}, {} beyond", p.n, p.beyond);
                p.value
            })
            .ok_or(format!("{name}: {} samples cannot support it", samples.len()))
    };
    print_pct("ttft_p50_ms", "ms", &e.ttft_ms, 0.50);
    let values = [
        stats::mean(&e.ttft_ms),
        pct("ttft_p99_ms", &e.ttft_ms, 0.99)?,
        e.tok_s,
        e.host_us_per_token,
        e.peak_hbm_mb,
        stats::peak_rss_mb().ok_or("peak RSS unavailable")?,
        setup_s,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name: name.into(), value, unit })
        .collect())
}

fn layer_metrics(layers: &Layers) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.into(),
            value: layers.0.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

fn trace_path(args: &Args) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from(".bench_build"), PathBuf::from);
    dir.join("e2ebench-traces").join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

fn run(args: &Args) -> Result<(Outcome, Vec<Metric>), String> {
    let out = match args.workload.as_str() {
        "http_decode" => http::run(args)?,
        "sim_b1_decode" => sim::run_b1(args)?,
        "sim_b8_cached" => sim::run_b8(args)?,
        "fleet_chaos" => sim::run_fleet(args)?,
        other => unreachable!("workload {other} validated at parse time"),
    };
    println!("metric setup_s = {:.6} s (median of {SETUP_REPS} calibrated set-ups)", out.setup_s);
    let metrics = if args.trace {
        if let Some(spans) = &out.spans {
            let path = trace_path(args);
            spans.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("trace: {} spans written to {}", spans.len(), path.display());
            for (name, (count, total, own)) in spans.summary() {
                println!(
                    "span {name}: count={count} total_ms={:.3} self_ms={:.3}",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                );
            }
        }
        layer_metrics(&out.layers)
    } else {
        let e2e = out.e2e.as_ref().ok_or("untraced run produced no end-to-end samples")?;
        e2e_metrics(e2e, out.setup_s)?
    };
    for m in &metrics {
        assert!(valid_metric_name(&m.name), "bad metric name {}", m.name);
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    Ok((out, metrics))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "e2ebench workload={} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        load_threads()
    );
    match run(&args) {
        Ok((out, metrics)) => {
            println!(
                "{}",
                result_json(
                    out.correct,
                    out.acct.sent.max(1),
                    out.acct.failed + out.acct.shed,
                    &metrics
                )
            );
            if !out.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark")
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_reported_metrics_and_workloads() {
        let text = bench_json();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "BENCHMARK.json lacks {w}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok =
            parse_args(&argv("--workload fleet_chaos --seed 7 --seconds 2 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace, ok.doctor), (7, 2.0, true, false));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload fleet_chaos --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload fleet_chaos --seed 1 --seconds 1 --trace 2")).is_err());
    }
}
