//! The three simulator workloads: `sim_b1_decode`, `sim_b8_cached` and
//! `fleet_chaos`.
//!
//! Each one builds a fixed input set from the seed and replays it until the
//! measured time is up. Host time per simulated token is taken per replay
//! and the median reported; every replay must reproduce the first one's
//! simulated statistics exactly, in the timed and the traced phase alike.

use crate::calib;
use crate::stats::{median, percentile, Accounting};
use crate::trace::Tracer;
use crate::{Args, E2e, Outcome};
use pgmoe_device::{MachineConfig, SimDuration, SimTime};
use pgmoe_model::ModelConfig;
use pgmoe_runtime::{
    Admission, BatchConfig, BatchSession, CacheConfig, ControlledFleet, FleetConfig, FleetStats,
    InferenceSim, JoinShortestQueue, OffloadPolicy, PagedKvConfig, QueueAutoScaler, Replacement,
    RunReport, ServeStats, SimOptions,
};
use pgmoe_workload::{ArrivalProcess, ArrivalStream, ArrivedRequest, DecodeRequest, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Requests per input set; enough for a p99 with ten samples beyond it.
const REQUESTS: usize = 1000;

fn hbm_capacity() -> u64 {
    MachineConfig::a100_like().hbm_capacity
}

/// Replays of one input set: the first one's result, the calibrated host
/// µs per simulated token of each (see [`crate::calib`]) with its
/// calibration ratio, the wall time spent outside calibration slices, and
/// whether every replay matched the first.
struct Replays<T> {
    first: Option<T>,
    host_us: Vec<f64>,
    ratios: Vec<f64>,
    wall_ns: f64,
    same: bool,
}

impl<T: PartialEq> Replays<T> {
    fn new() -> Self {
        Replays { first: None, host_us: Vec::new(), ratios: Vec::new(), wall_ns: 0.0, same: true }
    }

    fn push(&mut self, replay: impl FnOnce() -> Result<(T, usize), String>) -> Result<(), String> {
        let mark = calib::mark();
        let (wall0, slices0) = (Instant::now(), calib::slice_wall_ns());
        let (result, tokens) = replay()?;
        let (us, ratio) = calib::since(mark, tokens);
        let slices = calib::slice_wall_ns() - slices0;
        self.wall_ns += (wall0.elapsed().as_nanos() as u64).saturating_sub(slices) as f64;
        self.host_us.push(us);
        self.ratios.push(ratio);
        match &self.first {
            None => self.first = Some(result),
            Some(f) => self.same &= *f == result,
        }
        Ok(())
    }

    /// Prints the replays' calibrated host cost, and next to it the plain
    /// on-CPU figure and the measured machine slowdown behind the scaling.
    fn report(&self, phase: &str) {
        let h = &self.host_us;
        let (lo, hi) = h.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        let raw: Vec<f64> = h.iter().zip(&self.ratios).map(|(us, r)| us * r).collect();
        println!(
            "replays {phase}: {}; calibrated host us/token min {lo:.4} median {:.4} max {hi:.4}; \
             uncalibrated on-CPU us/token median {:.4}; machine slowdown vs reference median {:.4}",
            h.len(),
            median(h),
            median(&raw),
            median(&self.ratios)
        );
    }
}

fn sim_accounting(sent: usize, succeeded: usize) -> Accounting {
    Accounting {
        sent: sent as u64,
        succeeded: succeeded as u64,
        failed: (sent - succeeded.min(sent)) as u64,
        shed: 0,
    }
}

/// Shared tail of the three workloads: the timed phase, or untraced and
/// traced replays taken in turn, so that a change of machine speed during
/// the run weighs on both sides of the tracing overhead alike.
struct Phases<T> {
    first: T,
    host_us: f64,
    identical: bool,
    overhead: Option<f64>,
    wall_traced_ns: f64,
}

fn phases<T: PartialEq>(
    args: &Args,
    tracer: &mut Option<Tracer>,
    mut set: impl FnMut(Option<&mut Tracer>) -> Result<(T, usize), String>,
) -> Result<Phases<T>, String> {
    let stop = Instant::now() + Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let mut timed = Replays::new();
        while timed.host_us.is_empty() || Instant::now() < stop {
            timed.push(|| set(None))?;
        }
        timed.report("timed");
        return Ok(Phases {
            host_us: median(&timed.host_us),
            identical: timed.same,
            first: timed.first.expect("at least one replay"),
            overhead: None,
            wall_traced_ns: 0.0,
        });
    }
    let tr = tracer.insert(Tracer::new(Instant::now()));
    let (mut plain, mut traced) = (Replays::new(), Replays::new());
    while plain.host_us.is_empty() || Instant::now() < stop {
        plain.push(|| set(None))?;
        traced.push(|| set(Some(&mut *tr)))?;
    }
    plain.report("untraced");
    traced.report("traced");
    let (first, traced_first) = (plain.first.expect("a replay"), traced.first.expect("a replay"));
    let identical = plain.same && traced.same && traced_first == first;
    println!(
        "check simulated stats identical across every replay, untraced and traced: {identical}"
    );
    let traced_us = median(&traced.host_us);
    Ok(Phases {
        first,
        host_us: traced_us,
        identical,
        overhead: Some(traced_us / median(&plain.host_us) - 1.0),
        wall_traced_ns: traced.wall_ns,
    })
}

fn print_aliases(e: &E2e) {
    crate::print_pct("tpot_p50_ms", "ms (simulated)", &e.tpot_ms, 0.50);
    crate::print_pct("tpot_p99_ms", "ms (simulated)", &e.tpot_ms, 0.99);
    println!("metric host_us_per_sim_token = {:.6} us", e.host_us_per_token);
    println!("metric sim_tok_s = {:.6} tok/s (simulated)", e.tok_s);
    println!("metric sim_peak_hbm_mb = {:.3} MB (simulated)", e.peak_hbm_mb);
    crate::print_pct("sim_ttft_p99_ms", "ms", &e.ttft_ms, 0.99);
}

// ---------------------------------------------------------------- b1 ----

/// Prompt lengths: 16 plus an exponential with this mean, capped at
/// [`B1_PROMPT_MAX`]. The thin upper tail spreads the p99 prompt over many
/// lengths, so the TTFT tail differs from seed to seed.
const B1_PROMPT_MEAN: f64 = 96.0;
const B1_PROMPT_MAX: usize = 1024;
/// Output lengths: long, so decode dominates.
const B1_OUTPUT: (usize, usize) = (512, 1024);

fn b1_inputs(seed: u64) -> Vec<(u64, DecodeRequest)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB1);
    (0..REQUESTS)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let prompt = 16 + (-u.ln() * B1_PROMPT_MEAN) as usize;
            let req = DecodeRequest {
                input_tokens: prompt.min(B1_PROMPT_MAX),
                output_tokens: rng.gen_range(B1_OUTPUT.0..=B1_OUTPUT.1),
                batch_size: 1,
            };
            (rng.gen(), req)
        })
        .collect()
}

fn b1_run(route_seed: u64, req: DecodeRequest) -> Result<RunReport, String> {
    let opts = SimOptions::new(OffloadPolicy::Pregated).with_seed(route_seed);
    InferenceSim::new(ModelConfig::switch_base(64), opts)
        .run(req, 1)
        .map_err(|e| format!("b1 run: {e}"))
}

/// The simulated statistics a b1 replay must reproduce, per request: TTFT
/// and total time (ns), peak HBM, fetched and demand-fetched bytes, plan
/// hits and misses, GPU and PCIe busy time (ns).
#[derive(PartialEq)]
struct B1Set {
    reports: Vec<[u64; 9]>,
    tokens_ok: usize,
}

/// Whether a b1 run delivered `req`'s tokens plus `extra` (non-zero only
/// for a doctored reference) and stayed within the HBM budget. Delivered
/// tokens are counted from the report's per-block latencies: each decoded
/// token runs every decoder MoE block once.
fn b1_ok(r: &RunReport, req: &DecodeRequest, extra: usize) -> bool {
    let blocks = ModelConfig::switch_base(64).decoder_moe_layers();
    r.block_latencies.len() == (req.output_tokens + extra) * blocks
        && r.peak_hbm_bytes <= hbm_capacity()
}

/// Runs every request of a b1 input set; see [`b1_ok`] for when a request
/// passes.
fn b1_set(
    inputs: &[(u64, DecodeRequest)],
    mut tr: Option<&mut Tracer>,
    extra: usize,
) -> Result<(B1Set, usize), String> {
    let mut reports = Vec::with_capacity(inputs.len());
    let mut tokens_ok = 0;
    let mut tokens = 0;
    for (i, &(route_seed, req)) in inputs.iter().enumerate() {
        calib::tick();
        let r = match tr.as_deref_mut() {
            Some(t) => t.time("runtime.run", 0, i as u64 + 1, || b1_run(route_seed, req))?,
            None => b1_run(route_seed, req)?,
        };
        tokens_ok += usize::from(b1_ok(&r, &req, extra));
        tokens += req.output_tokens;
        reports.push([
            r.time_to_first_token.as_nanos(),
            r.total_time.as_nanos(),
            r.peak_hbm_bytes,
            r.expert_fetch_bytes,
            r.demand_fetch_bytes,
            r.plan_cache_hits,
            r.plan_cache_misses,
            r.gpu_busy.as_nanos(),
            r.pcie_busy.as_nanos(),
        ]);
    }
    Ok((B1Set { reports, tokens_ok }, tokens))
}

/// `sim_b1_decode`: `InferenceSim::run`, Switch-Base-64, pre-gated, batch 1.
pub fn run_b1(args: &Args) -> Result<Outcome, String> {
    let ((inputs, warm), setup_s) = crate::setup_median(|| {
        let inputs = b1_inputs(args.seed);
        let warm = REQUESTS / 10;
        let ok = b1_set(&inputs[..warm], None, 0)?.0.tokens_ok;
        Ok((inputs, sim_accounting(warm, ok)))
    })?;
    warm.print("sim_b1_decode", "warmup");
    let mut tracer = None;
    let extra = usize::from(args.doctor);
    let p = phases(args, &mut tracer, |tr| b1_set(&inputs, tr, extra))?;
    let set = &p.first;
    let mut e = E2e { host_us_per_token: p.host_us, ..E2e::default() };
    let (mut sim_ns, mut tokens, mut gpu, mut pcie, mut fetch, mut demand, mut hits, mut misses) =
        (0u64, 0usize, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for (&[ttft, total, hbm, f, d, h, m, g, pc], &(_, req)) in set.reports.iter().zip(&inputs) {
        let ttft_ms = ttft as f64 / 1e6;
        e.ttft_ms.push(ttft_ms);
        e.tpot_ms.push((total as f64 / 1e6 - ttft_ms) / (req.output_tokens - 1) as f64);
        e.peak_hbm_mb = e.peak_hbm_mb.max(hbm as f64 / 1e6);
        sim_ns += total;
        tokens += req.output_tokens;
        (gpu, pcie, fetch, demand, hits, misses) =
            (gpu + g, pcie + pc, fetch + f, demand + d, hits + h, misses + m);
    }
    e.tok_s = tokens as f64 / (sim_ns as f64 / 1e9);
    let mut out = Outcome { setup_s, ..Outcome::default() };
    out.acct = sim_accounting(REQUESTS, set.tokens_ok);
    out.acct.print("sim_b1_decode", if args.trace { "timed+traced" } else { "timed" });
    out.correct = p.identical && out.acct.failed == 0 && warm.failed == 0;
    println!(
        "check tokens delivered == requested and HBM within budget: {}/{REQUESTS}",
        set.tokens_ok
    );
    print_aliases(&e);
    if let Some(overhead) = p.overhead {
        let l = &mut out.layers;
        let tr = tracer.as_ref().expect("traced phase records spans");
        let runs = tr.total_ns("runtime.run") as f64;
        l.set("runtime.run_ms", runs / 1e6 / tr.len().max(1) as f64);
        l.set("runtime.plan_hit_rate", hits as f64 / (hits + misses).max(1) as f64);
        l.set("runtime.fetch_mb_per_token", fetch as f64 / 1e6 / tokens as f64);
        l.set("runtime.demand_fetch_frac", demand as f64 / fetch.max(1) as f64);
        l.set("runtime.batch_mean", 1.0);
        l.set("runtime.peak_batch", 1.0);
        l.set("device.gpu_busy_frac", gpu as f64 / sim_ns as f64);
        l.set("device.pcie_busy_frac", pcie as f64 / sim_ns as f64);
        l.set("share.runtime", runs / p.wall_traced_ns);
        l.set("share.unattributed", 1.0 - runs / p.wall_traced_ns);
        l.set("trace.overhead_frac", overhead);
        out.spans = tracer;
    } else {
        out.e2e = Some(e);
    }
    Ok(out)
}

// ---------------------------------------------------------------- b8 ----

/// Offered rates of the ladder, requests per simulated second.
pub const B8_RATES: [f64; 3] = [2.0, 4.0, 6.0];
/// The ladder rate whose latencies are the workload's end-to-end figures.
const B8_REFERENCE: usize = 0;
/// Requests at the reference rate; twice the other points', so its tail
/// percentile is steadier.
const B8_REFERENCE_REQUESTS: usize = 2 * REQUESTS;
/// Simulated TTFT p99 limit for `sim_slo_rps`, ms.
pub const B8_TTFT_LIMIT_MS: f64 = 3_000.0;
/// Tokens of the system prompt shared by half the requests.
const B8_PREFIX: usize = 64;
const B8_PREFIX_HASH: u64 = 0x5157_E4B0_0000_0001;
const B8_OUTPUT: (usize, usize) = (8, 24);

fn b8_session(seed: u64) -> Result<BatchSession, String> {
    let opts = SimOptions::new(OffloadPolicy::Pregated)
        .with_seed(seed)
        .with_cache(CacheConfig::new(0.25, Replacement::Lru));
    let batch = BatchConfig::new(8).with_paged_kv(PagedKvConfig::new(16));
    BatchSession::new(ModelConfig::switch_base(64), opts, batch)
        .map_err(|e| format!("b8 session: {e}"))
}

/// Poisson arrivals at `rate`; even-numbered requests open with the shared
/// system prompt.
fn b8_arrivals(seed: u64, rate: f64, count: usize) -> Vec<ArrivedRequest> {
    let base = DecodeRequest { input_tokens: 1, output_tokens: 1, batch_size: 1 };
    let mut rng = StdRng::seed_from_u64(seed ^ rate.to_bits());
    ArrivalStream::new(ArrivalProcess::Poisson { rate_per_sec: rate }, base, 0, seed ^ 0xB8)
        .take(count)
        .enumerate()
        .map(|(i, a)| {
            let output_tokens = rng.gen_range(B8_OUTPUT.0..=B8_OUTPUT.1);
            if i % 2 == 0 {
                let input_tokens = B8_PREFIX + rng.gen_range(8..=32usize);
                let req = DecodeRequest { input_tokens, output_tokens, batch_size: 1 };
                ArrivedRequest::at_nanos(a.arrival_ns, req)
                    .with_shared_prefix(B8_PREFIX_HASH, B8_PREFIX)
            } else {
                let req = DecodeRequest {
                    input_tokens: rng.gen_range(8..=96),
                    output_tokens,
                    batch_size: 1,
                };
                ArrivedRequest::at_nanos(a.arrival_ns, req)
            }
        })
        .collect()
}

/// One ladder point's outcome.
#[derive(Debug, PartialEq)]
struct B8Point {
    ttft_ns: Vec<u64>,
    tpot_ns: Vec<u64>,
    itl_ns: Vec<u64>,
    steps: usize,
    batch_sum: usize,
    tokens_ok: usize,
    stats: StatsKey,
}

/// The `ServeStats` fields a replay must reproduce.
#[derive(Debug, PartialEq)]
struct StatsKey {
    total_tokens: usize,
    tokens_per_sec_bits: u64,
    peak_hbm: u64,
    fetch: u64,
    demand: u64,
    gpu_busy: u64,
    peak_batch: usize,
    hits: u64,
    misses: u64,
    kv_peak: u64,
    kv_shared: u64,
    queueing_ns: Vec<u64>,
    span_ns: u64,
}

fn key(s: &ServeStats, span_ns: u64) -> StatsKey {
    StatsKey {
        total_tokens: s.total_tokens,
        tokens_per_sec_bits: s.tokens_per_sec.to_bits(),
        peak_hbm: s.peak_hbm_bytes,
        fetch: s.expert_fetch_bytes,
        demand: s.demand_fetch_bytes,
        gpu_busy: s.gpu_busy.as_nanos(),
        peak_batch: s.peak_batch,
        hits: s.plan_cache_hits,
        misses: s.plan_cache_misses,
        kv_peak: s.kv.as_ref().map_or(0, |k| k.peak_kv_bytes),
        kv_shared: s.kv.as_ref().map_or(0, |k| k.shared_hit_bytes),
        queueing_ns: s.queueing_delays.iter().map(|d| d.as_nanos()).collect(),
        span_ns,
    }
}

/// Drives one session over `arrivals` with the benchmark's own loop:
/// `advance_clock` to arrivals, `try_admit` in arrival order, `step`.
/// A request passes when it received its requested tokens plus `extra`
/// (non-zero only for a doctored reference) and HBM stayed within budget.
fn b8_point(
    seed: u64,
    arrivals: &[ArrivedRequest],
    mut tr: Option<&mut Tracer>,
    extra: usize,
) -> Result<B8Point, String> {
    let mut session = b8_session(seed)?;
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut next = 0;
    let mut first_at: HashMap<u64, SimTime> = HashMap::new();
    let mut last_at: HashMap<u64, SimTime> = HashMap::new();
    let mut counts = vec![0usize; arrivals.len()];
    let (mut ttft_ns, mut tpot_ns, mut itl_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut steps, mut batch_sum, mut tokens_ok) = (0, 0, 0);
    let root = tr.as_deref_mut().map_or(0, |t| t.begin("runtime.ladder_point", 0, 0));
    loop {
        let now = session.clock().as_nanos();
        while next < arrivals.len() && arrivals[next].arrival_ns <= now {
            waiting.push_back(next);
            next += 1;
        }
        if session.in_flight() == 0 && waiting.is_empty() {
            if next >= arrivals.len() {
                break;
            }
            session.advance_clock(SimTime::from_nanos(arrivals[next].arrival_ns));
            continue;
        }
        while let Some(&i) = waiting.front() {
            let id = i as u64 + 1;
            let admitted = match tr.as_deref_mut() {
                Some(t) => t.time("runtime.admit", root, id, || session.try_admit(id, arrivals[i])),
                None => session.try_admit(id, arrivals[i]),
            }
            .map_err(|e| format!("b8 admit: {e}"))?;
            match admitted {
                Admission::Admitted { .. } => {
                    waiting.pop_front();
                }
                Admission::BatchFull | Admission::OverBudget => break,
            }
        }
        if session.in_flight() == 0 {
            return Err("b8: a request can never be admitted".into());
        }
        calib::tick();
        let in_flight = session.in_flight();
        let events = match tr.as_deref_mut() {
            Some(t) => t.time("runtime.step", root, 0, || session.step()),
            None => session.step(),
        }
        .map_err(|e| format!("b8 step: {e}"))?;
        steps += 1;
        batch_sum += in_flight;
        for ev in events {
            let i = (ev.id - 1) as usize;
            counts[i] += 1;
            match last_at.insert(ev.id, ev.at) {
                None => {
                    first_at.insert(ev.id, ev.at);
                    ttft_ns.push(ev.at.as_nanos() - arrivals[i].arrival_ns);
                }
                Some(prev) => itl_ns.push(ev.at.duration_since(prev).as_nanos()),
            }
            if ev.done {
                let n = arrivals[i].request.output_tokens;
                tokens_ok += usize::from(counts[i] == n + extra && ev.index + 1 == counts[i]);
                if n > 1 {
                    tpot_ns
                        .push(ev.at.duration_since(first_at[&ev.id]).as_nanos() / (n as u64 - 1));
                }
            }
        }
    }
    if let Some(t) = tr {
        t.end(root);
    }
    let last = last_at.values().map(|t| t.as_nanos()).max().unwrap_or(0);
    let span_ns = last - arrivals.first().map_or(0, |a| a.arrival_ns);
    let stats = session.finish();
    tokens_ok = if stats.peak_hbm_bytes <= hbm_capacity() { tokens_ok } else { 0 };
    Ok(B8Point {
        ttft_ns,
        tpot_ns,
        itl_ns,
        steps,
        batch_sum,
        tokens_ok,
        stats: key(&stats, span_ns),
    })
}

/// `sim_b8_cached`: one `BatchSession`, batch 8, LRU expert cache, paged
/// KV with prefix sharing, Poisson arrivals over a ladder of rates.
pub fn run_b8(args: &Args) -> Result<Outcome, String> {
    let seed = args.seed;
    let ((ladder, warm), setup_s) = crate::setup_median(|| {
        let ladder: Vec<Vec<ArrivedRequest>> = B8_RATES
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let count = if i == B8_REFERENCE { B8_REFERENCE_REQUESTS } else { REQUESTS };
                b8_arrivals(seed, r, count)
            })
            .collect();
        let warm = REQUESTS / 20;
        let ok = b8_point(seed, &ladder[0][..warm], None, 0)?.tokens_ok;
        Ok((ladder, sim_accounting(warm, ok)))
    })?;
    warm.print("sim_b8_cached", "warmup");
    let mut tracer = None;
    let p = phases(args, &mut tracer, |mut tr| {
        let mut points = Vec::with_capacity(ladder.len());
        let mut tokens = 0;
        for arrivals in &ladder {
            let pt = b8_point(seed, arrivals, tr.as_deref_mut(), usize::from(args.doctor))?;
            tokens += pt.stats.total_tokens;
            points.push(pt);
        }
        Ok((points, tokens))
    })?;
    let to_ms = |v: &[u64]| v.iter().map(|&n| n as f64 / 1e6).collect::<Vec<f64>>();
    let mut slo_rps = 0.0;
    let mut all_ok = true;
    for ((pt, &rate), arrivals) in p.first.iter().zip(&B8_RATES).zip(&ladder) {
        let n = arrivals.len();
        let ttft = to_ms(&pt.ttft_ns);
        let p99 = percentile(&ttft, 0.99);
        let completion_rate = n as f64 / (pt.stats.span_ns as f64 / 1e9);
        let steady = completion_rate >= 0.9 * rate;
        let meets = steady && p99.is_some_and(|p| p.value <= B8_TTFT_LIMIT_MS);
        if meets {
            slo_rps = rate;
        }
        all_ok &= pt.tokens_ok == n;
        println!(
            "ladder rate={rate} rps: ttft_p99_ms={} completion_rate={completion_rate:.4} rps \
             backlog_growing={} meets_slo={meets} tokens_ok={}/{n}",
            p99.map_or("n/a".into(), |p| p.to_string()),
            !steady,
            pt.tokens_ok
        );
    }
    println!(
        "metric sim_slo_rps = {slo_rps} rps (ttft p99 limit {B8_TTFT_LIMIT_MS} ms, simulated)"
    );
    let pt = &p.first[B8_REFERENCE];
    let e = E2e {
        ttft_ms: to_ms(&pt.ttft_ns),
        tpot_ms: to_ms(&pt.tpot_ns),
        tok_s: f64::from_bits(pt.stats.tokens_per_sec_bits),
        host_us_per_token: p.host_us,
        peak_hbm_mb: p.first.iter().map(|q| q.stats.peak_hbm).max().unwrap_or(0) as f64 / 1e6,
    };
    println!("reference ladder point: rate={} rps", B8_RATES[B8_REFERENCE]);
    print_aliases(&e);
    crate::print_pct("itl_p99_ms", "ms (simulated)", &to_ms(&pt.itl_ns), 0.99);
    let sent: usize = ladder.iter().map(Vec::len).sum();
    let ok: usize = p.first.iter().map(|q| q.tokens_ok).sum();
    let mut out = Outcome { setup_s, ..Outcome::default() };
    out.acct = sim_accounting(sent, ok);
    out.acct.print("sim_b8_cached", if args.trace { "timed+traced" } else { "timed" });
    out.correct = p.identical && all_ok && warm.failed == 0;
    if let Some(overhead) = p.overhead {
        let tr = tracer.as_ref().expect("traced phase records spans");
        let l = &mut out.layers;
        let s = &pt.stats;
        let sum = tr.summary();
        let per_call =
            |name: &str| sum.get(name).map_or(0.0, |&(c, t, _)| t as f64 / 1e3 / c.max(1) as f64);
        l.set("runtime.admit_us", per_call("runtime.admit"));
        l.set("runtime.step_us", per_call("runtime.step"));
        l.set("runtime.plan_hit_rate", s.hits as f64 / (s.hits + s.misses).max(1) as f64);
        l.set("runtime.fetch_mb_per_token", s.fetch as f64 / 1e6 / s.total_tokens as f64);
        l.set("runtime.demand_fetch_frac", s.demand as f64 / s.fetch.max(1) as f64);
        l.set("runtime.kv_peak_mb", s.kv_peak as f64 / 1e6);
        l.set("runtime.kv_shared_hit_mb", s.kv_shared as f64 / 1e6);
        l.set("runtime.batch_mean", pt.batch_sum as f64 / pt.steps.max(1) as f64);
        l.set("runtime.peak_batch", s.peak_batch as f64);
        let queueing: Vec<f64> = s.queueing_ns.iter().map(|&n| n as f64 / 1e6).collect();
        l.set("runtime.queueing_p99_ms", percentile(&queueing, 0.99).map_or(0.0, |q| q.value));
        l.set("device.gpu_busy_frac", s.gpu_busy as f64 / s.span_ns.max(1) as f64);
        let runtime_ns = (tr.total_ns("runtime.admit") + tr.total_ns("runtime.step")) as f64;
        l.set("share.runtime", runtime_ns / p.wall_traced_ns);
        l.set("share.unattributed", 1.0 - runtime_ns / p.wall_traced_ns);
        l.set("trace.overhead_frac", overhead);
        out.spans = tracer;
    } else {
        out.e2e = Some(e);
    }
    Ok(out)
}

// ------------------------------------------------------------- fleet ----

/// Offered rate, requests per simulated second: about half of what three
/// replicas serve, three quarters of what two serve after the kill.
const FLEET_RATE: f64 = 8.0;
/// Requests per fleet input set. Enough that the p99 rests on the steady
/// queueing tail rather than on the few requests caught by the kill.
const FLEET_REQUESTS: usize = 3000;
const FLEET_OUTPUT: (usize, usize) = (16, 48);
/// Replica killed halfway through the arrivals. The autoscaler holds the
/// fleet at three serving replicas, so none is retired before the kill
/// and the fault always lands; it replaces the killed one.
const FLEET_KILLED: usize = 1;

fn fleet_arrivals(seed: u64) -> Vec<ArrivedRequest> {
    let base = DecodeRequest { input_tokens: 1, output_tokens: 1, batch_size: 1 };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE7);
    ArrivalStream::new(ArrivalProcess::Poisson { rate_per_sec: FLEET_RATE }, base, 0, seed ^ 0xFC)
        .take(FLEET_REQUESTS)
        .map(|a| {
            let req = DecodeRequest {
                input_tokens: rng.gen_range(8..=32),
                output_tokens: rng.gen_range(FLEET_OUTPUT.0..=FLEET_OUTPUT.1),
                batch_size: 1,
            };
            ArrivedRequest::at_nanos(a.arrival_ns, req)
        })
        .collect()
}

fn fleet_serve(seed: u64, arrivals: &[ArrivedRequest]) -> Result<FleetStats, String> {
    let fleet = ControlledFleet::new(
        ModelConfig::switch_base(8),
        SimOptions::new(OffloadPolicy::Pregated).with_seed(seed),
        FleetConfig::new(3, BatchConfig::new(8)),
    );
    let kill = FaultPlan::new().kill_at(arrivals[arrivals.len() / 2].arrival_ns + 1, FLEET_KILLED);
    fleet
        .serve(
            arrivals.to_vec(),
            &mut JoinShortestQueue::new(),
            &kill,
            &mut QueueAutoScaler::new(3, 3, 8),
        )
        .map_err(|e| format!("fleet serve: {e}"))
}

/// The `FleetStats` fields a replay must reproduce.
#[derive(Debug, PartialEq)]
struct FleetKey {
    latencies: Vec<u64>,
    ttfts: Vec<u64>,
    queueing: Vec<u64>,
    assignment: Vec<usize>,
    total_tokens: usize,
    delivered: usize,
    tokens_per_sec_bits: u64,
    peak_hbm: u64,
    fetch: u64,
    demand: u64,
    hits: u64,
    misses: u64,
    peak_batch: usize,
    utilization_bits: u64,
    control: (usize, usize, usize, usize, usize),
}

fn fleet_key(s: &FleetStats) -> FleetKey {
    let nanos = |v: &[SimDuration]| v.iter().map(|d| d.as_nanos()).collect::<Vec<_>>();
    let c = s.control.as_ref();
    FleetKey {
        latencies: nanos(&s.request_latencies),
        ttfts: nanos(&s.ttfts),
        queueing: nanos(&s.queueing_delays),
        assignment: s.assignment.clone(),
        total_tokens: s.total_tokens,
        delivered: fleet_delivered(s),
        tokens_per_sec_bits: s.tokens_per_sec.to_bits(),
        peak_hbm: s.peak_hbm_bytes,
        fetch: s.expert_fetch_bytes,
        demand: s.demand_fetch_bytes,
        hits: s.replicas.iter().map(|r| r.plan_cache_hits).sum(),
        misses: s.replicas.iter().map(|r| r.plan_cache_misses).sum(),
        peak_batch: s.replicas.iter().map(|r| r.peak_batch).max().unwrap_or(0),
        utilization_bits: s.mean_utilization().to_bits(),
        control: c.map_or((0, 0, 0, 0, 0), |c| {
            (c.faults_injected, c.redispatched, c.dropped_tokens, c.scale_ups, c.scale_downs)
        }),
    }
}

/// Tokens the replicas emitted, less those of requests the kill aborted
/// (which are served again elsewhere). `FleetStats::total_tokens` is the
/// requested count, so it cannot show a lost token; the replicas' own
/// counters can.
fn fleet_delivered(s: &FleetStats) -> usize {
    let emitted: usize = s.replicas.iter().map(|r| r.total_tokens).sum();
    emitted - s.control.as_ref().map_or(0, |c| c.dropped_tokens)
}

/// The fleet's output checks: every requested token (plus `extra`, non-zero
/// only for a doctored reference) delivered, so no request was lost across
/// the kill; exactly one fault injected; HBM within budget.
fn fleet_ok(k: &FleetKey, arrivals: &[ArrivedRequest], extra: usize) -> bool {
    let expected: usize = arrivals.iter().map(|a| a.request.output_tokens).sum::<usize>() + extra;
    let hbm_ok = k.peak_hbm <= hbm_capacity();
    println!(
        "check fleet: {} requests, tokens delivered {} of {expected} expected \
         ({} dropped by the kill and served again), faults injected {}, \
         peak HBM within budget {hbm_ok}",
        arrivals.len(),
        k.delivered,
        k.control.2,
        k.control.0
    );
    k.delivered == expected && k.control.0 == 1 && hbm_ok
}

/// `fleet_chaos`: `ControlledFleet`, 3 replicas x batch 8, Switch-Base-8,
/// join-shortest-queue, one replica killed mid-run, queue autoscaler.
pub fn run_fleet(args: &Args) -> Result<Outcome, String> {
    let seed = args.seed;
    let ((arrivals, warm), setup_s) = crate::setup_median(|| {
        let arrivals = fleet_arrivals(seed);
        // Warm up on the whole set: one fleet run is short, and a shorter
        // warm-up (a tenth of the arrivals) made set-up time twice as
        // unsteady between runs.
        let stats = fleet_serve(seed, &arrivals)?;
        let expected: usize = arrivals.iter().map(|a| a.request.output_tokens).sum();
        let ok = if fleet_delivered(&stats) == expected { arrivals.len() } else { 0 };
        let acct = sim_accounting(arrivals.len(), ok);
        Ok((arrivals, acct))
    })?;
    warm.print("fleet_chaos", "warmup");
    let mut tracer = None;
    let p = phases(args, &mut tracer, |tr| {
        let stats = match tr {
            Some(t) => t.time("control.serve", 0, 0, || fleet_serve(seed, &arrivals))?,
            None => fleet_serve(seed, &arrivals)?,
        };
        let tokens = stats.total_tokens;
        Ok((fleet_key(&stats), tokens))
    })?;
    let k = &p.first;
    let good = fleet_ok(k, &arrivals, usize::from(args.doctor));
    let mut e = E2e {
        tok_s: f64::from_bits(k.tokens_per_sec_bits),
        host_us_per_token: p.host_us,
        peak_hbm_mb: k.peak_hbm as f64 / 1e6,
        ..E2e::default()
    };
    for ((&lat, &ttft), a) in k.latencies.iter().zip(&k.ttfts).zip(&arrivals) {
        e.ttft_ms.push(ttft as f64 / 1e6);
        let n = a.request.output_tokens;
        if n > 1 {
            e.tpot_ms.push((lat - ttft) as f64 / 1e6 / (n - 1) as f64);
        }
    }
    print_aliases(&e);
    let mut out = Outcome { setup_s, ..Outcome::default() };
    out.acct = sim_accounting(arrivals.len(), if good { k.latencies.len() } else { 0 });
    out.acct.print("fleet_chaos", if args.trace { "timed+traced" } else { "timed" });
    out.correct = p.identical && good && warm.failed == 0;
    if let Some(overhead) = p.overhead {
        let tr = tracer.as_ref().expect("traced phase records spans");
        let l = &mut out.layers;
        let serve_ns = tr.total_ns("control.serve") as f64;
        l.set("control.serve_ms", serve_ns / 1e6 / tr.len().max(1) as f64);
        l.set("control.faults_injected", k.control.0 as f64);
        l.set("control.redispatched", k.control.1 as f64);
        l.set("control.dropped_tokens", k.control.2 as f64);
        l.set("control.scale_ups", k.control.3 as f64);
        let util = f64::from_bits(k.utilization_bits);
        l.set("control.utilization_mean", util);
        l.set("device.gpu_busy_frac", util);
        l.set("runtime.plan_hit_rate", k.hits as f64 / (k.hits + k.misses).max(1) as f64);
        l.set("runtime.fetch_mb_per_token", k.fetch as f64 / 1e6 / k.total_tokens as f64);
        l.set("runtime.demand_fetch_frac", k.demand as f64 / k.fetch.max(1) as f64);
        l.set("runtime.peak_batch", k.peak_batch as f64);
        let queueing: Vec<f64> = k.queueing.iter().map(|&n| n as f64 / 1e6).collect();
        l.set("runtime.queueing_p99_ms", percentile(&queueing, 0.99).map_or(0.0, |q| q.value));
        l.set("share.control", serve_ns / p.wall_traced_ns);
        l.set("share.unattributed", 1.0 - serve_ns / p.wall_traced_ns);
        l.set("trace.overhead_frac", overhead);
        out.spans = tracer;
    } else {
        out.e2e = Some(e);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b1_checks_pass_and_fail_on_a_doctored_reference() {
        let inputs = &b1_inputs(3)[..3];
        assert_eq!(b1_set(inputs, None, 0).unwrap().0.tokens_ok, 3);
        assert_eq!(b1_set(inputs, None, 1).unwrap().0.tokens_ok, 0);
    }

    #[test]
    fn b8_checks_pass_and_fail_on_a_doctored_reference() {
        let arrivals = &b8_arrivals(3, B8_RATES[0], 20);
        assert_eq!(b8_point(3, arrivals, None, 0).unwrap().tokens_ok, 20);
        assert_eq!(b8_point(3, arrivals, None, 1).unwrap().tokens_ok, 0);
    }

    #[test]
    fn b1_check_counts_the_blocks_actually_run() {
        let (route_seed, req) = b1_inputs(3)[0];
        let mut r = b1_run(route_seed, req).unwrap();
        assert!(b1_ok(&r, &req, 0));
        r.block_latencies.pop();
        assert!(!b1_ok(&r, &req, 0), "one block of one token missing");
    }

    #[test]
    fn fleet_check_counts_the_tokens_replicas_emitted() {
        let arrivals = &fleet_arrivals(3)[..200];
        let stats = fleet_serve(3, arrivals).unwrap();
        let key = fleet_key(&stats);
        assert!(key.control.2 > 0, "the kill aborts work in flight");
        assert_eq!(key.delivered, key.total_tokens, "dropped work is served again");
        let mut short = stats.clone();
        short.replicas[0].total_tokens -= 1;
        assert!(!fleet_ok(&fleet_key(&short), arrivals, 0), "one token missing");
    }

    #[test]
    fn fleet_checks_pass_and_fail_on_a_doctored_reference() {
        let arrivals = &fleet_arrivals(3)[..200];
        let key = fleet_key(&fleet_serve(3, arrivals).unwrap());
        assert!(fleet_ok(&key, arrivals, 0));
        assert!(!fleet_ok(&key, arrivals, 1));
    }

    #[test]
    fn replays_reproduce_simulated_stats() {
        let arrivals = &b8_arrivals(5, B8_RATES[1], 20);
        assert_eq!(
            b8_point(5, arrivals, None, 0).unwrap(),
            b8_point(5, arrivals, None, 0).unwrap()
        );
    }
}
