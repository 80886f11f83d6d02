//! `http_decode`: a closed loop of keep-alive client connections against an
//! in-process `pgmoe-serve` server running the real `SwitchNet`.
//!
//! Every streamed token is checked against its stream's `done` line and
//! against a greedy reference decode through
//! `SwitchNet::forward_inference_arena` with the engine's window and seed.
//! The traced run adds client spans on a live run and an in-process replay
//! of the same requests through the public serve, model and runtime calls.

use crate::model::{computed_cost, AttributedNet, SublayerNs, SUBLAYER_METRICS};
use crate::stats::{mean, process_cpu_ns, Accounting};
use crate::trace::Tracer;
use crate::{Args, E2e, Layers, Outcome};
use pgmoe_model::net::{RouteDecision, SwitchNet};
use pgmoe_runtime::{Admission, BatchSession, LiveRouting};
use pgmoe_serve::http::{parse_request, Limits, Parsed};
use pgmoe_serve::json::{self, Json};
use pgmoe_serve::{EngineConfig, ServeConfig, Server, ServerHandle};
use pgmoe_tensor::ScratchArena;
use pgmoe_workload::{ArrivedRequest, DecodeRequest, SharedPrefix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Prompt lengths are drawn from this range (tokens).
const PROMPT_LEN: (usize, usize) = (4, 12);
/// Output lengths are drawn from this range (tokens).
const OUTPUT_LEN: (usize, usize) = (24, 40);
/// Warm-up requests per client connection, counted in set-up.
const WARMUP_PER_CLIENT: u64 = 16;
/// Request indices at and above this offset are warm-up traffic.
const WARMUP_BASE: u64 = 1 << 40;
/// Per-request deadline; a stream that takes longer counts as failed.
const DEADLINE: Duration = Duration::from_secs(30);

/// The seeded request with index `i`: prompt tokens and output length.
pub fn request(seed: u64, i: u64, vocab: usize) -> (Vec<usize>, usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let len = rng.gen_range(PROMPT_LEN.0..=PROMPT_LEN.1);
    let prompt = (0..len).map(|_| rng.gen_range(0..vocab)).collect();
    (prompt, rng.gen_range(OUTPUT_LEN.0..=OUTPUT_LEN.1))
}

/// The exact bytes a client sends for one generate call.
pub fn request_bytes(prompt: &[usize], max_tokens: usize) -> Vec<u8> {
    let list = prompt.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(",");
    let body = format!("{{\"prompt\":[{list}],\"max_tokens\":{max_tokens}}}");
    format!(
        "POST /v1/generate HTTP/1.1\r\nhost: pgmoe\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One finished client exchange.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Request index (seeds the prompt).
    pub index: u64,
    /// Prompt sent.
    pub prompt: Vec<usize>,
    /// Output length asked for.
    pub max_tokens: usize,
    /// HTTP status, `0` on a transport error.
    pub status: u16,
    /// Streamed tokens, in order.
    pub tokens: Vec<usize>,
    /// Arrival instant of each token line.
    pub token_us: Vec<u32>,
    /// A `done` line arrived and re-declared exactly the streamed tokens.
    pub declared_ok: bool,
    /// When the request was written.
    pub sent_at: Instant,
    /// When the response ended.
    pub done_at: Instant,
}

impl Exchange {
    /// Stream complete, consistent with its `done` line, and as long as asked.
    pub fn stream_ok(&self) -> bool {
        self.status == 200 && self.declared_ok && self.tokens.len() == self.max_tokens
    }
}

/// A keep-alive client connection.
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Client { addr, stream: None, buf: Vec::new() }
    }

    fn exchange(&mut self, index: u64, prompt: Vec<usize>, max_tokens: usize) -> Exchange {
        let sent_at = Instant::now();
        let mut ex = Exchange {
            index,
            prompt,
            max_tokens,
            status: 0,
            tokens: Vec::with_capacity(max_tokens),
            token_us: Vec::with_capacity(max_tokens),
            declared_ok: false,
            sent_at,
            done_at: sent_at,
        };
        let keep = self.try_exchange(&mut ex).unwrap_or(false);
        if !keep {
            self.stream = None;
            self.buf.clear();
        }
        ex.done_at = Instant::now();
        ex
    }

    /// Runs one exchange; `Ok(true)` when the connection may be reused.
    fn try_exchange(&mut self, ex: &mut Exchange) -> io::Result<bool> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, DEADLINE)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(DEADLINE))?;
            self.stream = Some(s);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let bytes = request_bytes(&ex.prompt, ex.max_tokens);
        ex.sent_at = Instant::now();
        stream.write_all(&bytes)?;
        let mut head: Option<(u16, bool, usize)> = None;
        let mut tmp = [0u8; 4096];
        loop {
            if head.is_none() {
                if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                    head = Some(parse_head(&self.buf[..end])?);
                    self.buf.drain(..end + 4);
                }
            }
            if let Some((status, chunked, length)) = head {
                ex.status = status;
                if !chunked {
                    if self.buf.len() >= length {
                        self.buf.drain(..length);
                        return Ok(false);
                    }
                } else if drain_chunks(&mut self.buf, ex)? {
                    return Ok(true);
                }
            }
            if ex.sent_at.elapsed() > DEADLINE {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "response deadline"));
            }
            let n = stream.read(&mut tmp)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
            }
            self.buf.extend_from_slice(&tmp[..n]);
        }
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Status, chunked flag and content length of a response head.
fn parse_head(head: &[u8]) -> io::Result<(u16, bool, usize)> {
    let bad = |why| io::Error::new(io::ErrorKind::InvalidData, why);
    let text = std::str::from_utf8(head).map_err(|_| bad("non-utf8 head"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let (mut chunked, mut length) = (false, 0);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
        if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
            chunked = true;
        } else if name == "content-length" {
            length = value.parse().map_err(|_| bad("bad content-length"))?;
        }
    }
    Ok((status, chunked, length))
}

/// Consumes complete chunks, time-stamping token lines; `true` at the last
/// chunk.
fn drain_chunks(buf: &mut Vec<u8>, ex: &mut Exchange) -> io::Result<bool> {
    let bad = |why| io::Error::new(io::ErrorKind::InvalidData, why);
    loop {
        let Some(line_end) = find(buf, b"\r\n") else { return Ok(false) };
        let size_text = std::str::from_utf8(&buf[..line_end]).map_err(|_| bad("chunk size"))?;
        let size = usize::from_str_radix(size_text.trim(), 16).map_err(|_| bad("chunk size"))?;
        let frame = line_end + 2 + size + 2;
        if buf.len() < frame {
            return Ok(false);
        }
        if size == 0 {
            buf.drain(..frame);
            return Ok(true);
        }
        let now = Instant::now();
        let payload = std::str::from_utf8(&buf[line_end + 2..line_end + 2 + size])
            .map_err(|_| bad("non-utf8 chunk"))?;
        for line in payload.lines().filter(|l| !l.trim().is_empty()) {
            let doc = json::parse(line).map_err(|_| bad("bad ndjson line"))?;
            if let Some(t) = doc.get("token").and_then(Json::as_u64) {
                ex.tokens.push(t as usize);
                ex.token_us.push(now.saturating_duration_since(ex.sent_at).as_micros() as u32);
            } else if doc.get("done").is_some() {
                let declared = doc.get("tokens").and_then(Json::as_arr).map(|a| {
                    a.iter().filter_map(Json::as_u64).map(|t| t as usize).collect::<Vec<_>>()
                });
                ex.declared_ok = declared.as_ref() == Some(&ex.tokens);
            } else {
                ex.status = 500;
            }
        }
        buf.drain(..frame);
    }
}

/// Wall and process on-CPU seconds of one load phase.
#[derive(Clone, Copy)]
struct PhaseTime {
    wall: f64,
    cpu: f64,
}

/// Closed loop: `clients` connections send seeded requests back to back
/// until `seconds` have passed, then finish what they started.
/// Client spans are recorded when `trace` is set. The phase's on-CPU time
/// covers every thread of the process: server IO workers, the engine
/// thread and the clients; where it cannot be read, wall time stands in.
fn run_load(
    addr: SocketAddr,
    seed: u64,
    vocab: usize,
    next: &AtomicU64,
    clients: usize,
    seconds: f64,
    trace: Option<Instant>,
) -> (Vec<Exchange>, PhaseTime, Option<Tracer>) {
    let cpu0 = process_cpu_ns();
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Exchange>, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut out = Vec::new();
                    let mut tracer = trace.map(Tracer::new);
                    while Instant::now() < stop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (prompt, max_tokens) = request(seed, i, vocab);
                        let ex = client.exchange(i, prompt, max_tokens);
                        if let Some(tr) = tracer.as_mut() {
                            let root = tr.record("client.request", ex.sent_at, ex.done_at, 0, i);
                            let at = |us: &u32| ex.sent_at + Duration::from_micros(u64::from(*us));
                            if let (Some(first), Some(last)) =
                                (ex.token_us.first().map(at), ex.token_us.last().map(at))
                            {
                                tr.record("client.first_token", ex.sent_at, first, root, i);
                                tr.record("client.stream", first, last, root, i);
                            }
                        }
                        out.push(ex);
                    }
                    (out, tracer)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let cpu = match (cpu0, process_cpu_ns()) {
        (Some(a), Some(b)) => (b - a) as f64 / 1e9,
        _ => wall,
    };
    let mut all = Vec::new();
    let mut spans = trace.map(Tracer::new);
    for (ex, tr) in per_client {
        all.extend(ex);
        if let (Some(acc), Some(tr)) = (spans.as_mut(), tr) {
            acc.absorb(tr);
        }
    }
    all.sort_by_key(|e| e.index);
    (all, PhaseTime { wall, cpu }, spans)
}

fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// The last `window.len()` context tokens, left-padded with token 0 (the
/// engine's window rule).
fn fill_window(ctx: &[usize], window: &mut [usize]) {
    let n = window.len();
    let tail = ctx.len().min(n);
    window[..n - tail].fill(0);
    window[n - tail..].copy_from_slice(&ctx[ctx.len() - tail..]);
}

/// Greedy decode of `max_tokens` through the real network.
pub fn reference_decode(net: &SwitchNet, prompt: &[usize], max_tokens: usize) -> Vec<usize> {
    let arena = ScratchArena::new();
    let seq_len = net.config().seq_len;
    let mut ctx = prompt.to_vec();
    let mut window = vec![0; seq_len];
    let mut out = Vec::with_capacity(max_tokens);
    for _ in 0..max_tokens {
        fill_window(&ctx, &mut window);
        let (logits, _) = net.forward_inference_arena(&window, &arena);
        let token = argmax(logits.row(seq_len - 1));
        arena.recycle(logits);
        ctx.push(token);
        out.push(token);
    }
    out
}

/// The engine's network, built the way the engine builds it; `doctor`
/// perturbs the seed to produce a wrong reference.
pub fn reference_net(engine: &EngineConfig, doctor: bool) -> SwitchNet {
    let seed = engine.net_seed + u64::from(doctor);
    let mut net = SwitchNet::new(engine.net.clone(), &mut StdRng::seed_from_u64(seed));
    if let Some(p) = engine.opts.expert_precision {
        net.quantize_experts(p);
    }
    net
}

/// Checks every exchange: stream integrity and token-for-token equality
/// with the reference decode, split over `threads` threads. Returns the
/// indices of exchanges that failed.
pub fn verify(
    exchanges: &[Exchange],
    engine: &EngineConfig,
    doctor: bool,
    threads: usize,
) -> Vec<u64> {
    let chunk = exchanges.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = exchanges
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let net = reference_net(engine, doctor);
                    part.iter()
                        .filter(|ex| {
                            !ex.stream_ok()
                                || reference_decode(&net, &ex.prompt, ex.max_tokens) != ex.tokens
                        })
                        .map(|ex| ex.index)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("verifier panicked")).collect()
    })
}

/// Client-side end-to-end numbers over a set of exchanges.
fn client_e2e(exchanges: &[Exchange], time: PhaseTime, peak_hbm_mb: f64) -> (E2e, Vec<f64>) {
    let ms = |us: u32| f64::from(us) / 1e3;
    let mut e = E2e::default();
    let mut itl = Vec::new();
    let mut tokens = 0usize;
    for ex in exchanges.iter().filter(|ex| ex.stream_ok()) {
        let (first, last) = (ex.token_us[0], *ex.token_us.last().expect("non-empty stream"));
        e.ttft_ms.push(ms(first));
        if ex.token_us.len() > 1 {
            e.tpot_ms.push(ms(last - first) / (ex.token_us.len() - 1) as f64);
        }
        itl.extend(ex.token_us.windows(2).map(|w| ms(w[1] - w[0])));
        tokens += ex.tokens.len();
    }
    e.tok_s = tokens as f64 / time.wall;
    e.host_us_per_token = time.cpu * 1e6 / tokens.max(1) as f64;
    e.peak_hbm_mb = peak_hbm_mb;
    (e, itl)
}

fn accounting(exchanges: &[Exchange], bad: &[u64]) -> Accounting {
    let shed = exchanges.iter().filter(|e| matches!(e.status, 429 | 503)).count() as u64;
    let sent = exchanges.len() as u64;
    let failed = bad.len() as u64 - shed.min(bad.len() as u64);
    Accounting { sent, succeeded: sent - bad.len() as u64, failed, shed }
}

/// Server-side counters sampled at a phase boundary.
#[derive(Clone, Copy)]
struct Counters {
    ttft_count: u64,
    ttft_sum: Duration,
    tokens: u64,
    iterations: u64,
    shed: u64,
    restarts: u64,
}

fn counters(h: &ServerHandle) -> Counters {
    let m = h.metrics();
    Counters {
        ttft_count: m.ttft_seconds.count(),
        ttft_sum: m.ttft_seconds.sum(),
        tokens: m.tokens_total.get(),
        iterations: m.engine_iterations.get(),
        shed: m.shed_total.get(),
        restarts: m.engine_restarts.get(),
    }
}

fn peak_hbm_mb(h: &ServerHandle) -> f64 {
    h.metrics().sim.lock().expect("metrics lock poisoned").peak_hbm_bytes as f64 / 1e6
}

/// Starts the server and warms every client connection's path; returns the
/// warm-up requests' accounting (stream integrity only).
fn setup(seed: u64, clients: usize) -> Result<(ServerHandle, Accounting), String> {
    let handle = Server::start(ServeConfig::demo()).map_err(|e| format!("server start: {e}"))?;
    let vocab = ServeConfig::demo().engine.net.vocab;
    let next = AtomicU64::new(WARMUP_BASE);
    let warm: Vec<Exchange> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::new(handle.addr());
                    (0..WARMUP_PER_CLIENT)
                        .map(|_| {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let (prompt, max_tokens) = request(seed, i, vocab);
                            client.exchange(i, prompt, max_tokens)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("warm-up client panicked")).collect()
    });
    let bad: Vec<u64> = warm.iter().filter(|e| !e.stream_ok()).map(|e| e.index).collect();
    Ok((handle, accounting(&warm, &bad)))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let engine = ServeConfig::demo().engine;
    let vocab = engine.net.vocab;
    let clients = crate::load_threads();
    let ((handle, warm), setup_s) = crate::setup_median(|| setup(args.seed, clients))?;
    warm.print("http_decode", "warmup");
    let next = AtomicU64::new(0);
    let mut out = Outcome { setup_s, ..Outcome::default() };

    if !args.trace {
        let (exchanges, time, _) =
            run_load(handle.addr(), args.seed, vocab, &next, clients, args.seconds, None);
        let hbm = peak_hbm_mb(&handle);
        let served = handle.shutdown().ok_or("engine thread panicked")?;
        let bad = verify(&exchanges, &engine, args.doctor, clients);
        let (e2e, itl) = client_e2e(&exchanges, time, hbm);
        out.acct = accounting(&exchanges, &bad);
        out.acct.print("http_decode", "timed");
        report_bad(&bad);
        let delivered: usize = exchanges.iter().map(|e| e.tokens.len()).sum();
        out.correct =
            bad.is_empty() && warm.failed + warm.shed == 0 && served.total_tokens >= delivered;
        crate::print_pct("tpot_p50_ms", "ms", &e2e.tpot_ms, 0.50);
        crate::print_pct("tpot_p99_ms", "ms", &e2e.tpot_ms, 0.99);
        crate::print_pct("itl_p99_ms", "ms", &itl, 0.99);
        println!("metric wire_tok_s = {:.4} tok/s (wall)", e2e.tok_s);
        out.e2e = Some(e2e);
        return Ok(out);
    }

    // Traced run: untraced live third, traced live third, replay third.
    let third = args.seconds / 3.0;
    let (plain, plain_time, _) =
        run_load(handle.addr(), args.seed, vocab, &next, clients, third, None);
    let before = counters(&handle);
    let origin = Instant::now();
    let (traced, traced_time, spans) =
        run_load(handle.addr(), args.seed, vocab, &next, clients, third, Some(origin));
    let after = counters(&handle);
    let hbm = peak_hbm_mb(&handle);
    handle.shutdown().ok_or("engine thread panicked")?;
    let mut tracer = spans.expect("traced load records spans");

    let (e_plain, _) = client_e2e(&plain, plain_time, hbm);
    let (e_traced, _) = client_e2e(&traced, traced_time, hbm);
    let l = &mut out.layers;
    let engine_ttft_ms = (after.ttft_sum - before.ttft_sum).as_secs_f64() * 1e3
        / (after.ttft_count - before.ttft_count).max(1) as f64;
    l.set("serve.engine_ttft_ms", engine_ttft_ms);
    l.set("serve.io_ttft_ms", mean(&e_traced.ttft_ms) - engine_ttft_ms);
    let batch_mean = (after.tokens - before.tokens) as f64
        / (after.iterations - before.iterations).max(1) as f64;
    l.set("serve.batch_mean", batch_mean);
    l.set("serve.shed", (after.shed - before.shed) as f64);
    l.set("serve.restarts", (after.restarts - before.restarts) as f64);
    l.set("trace.overhead_frac", e_traced.host_us_per_token / e_plain.host_us_per_token - 1.0);

    // Replay of the traced requests through the public calls.
    let batch = (batch_mean.round() as usize).max(1);
    let replay = replay(&engine, &traced, batch, third, &mut tracer, args.doctor)?;
    for (k, v) in replay.layers.0 {
        l.set(k, v);
    }

    let mut bad = Vec::new();
    for (phase, exchanges) in [("untraced", &plain), ("traced", &traced)] {
        let phase_bad = verify(exchanges, &engine, args.doctor, clients);
        let acct = accounting(exchanges, &phase_bad);
        acct.print("http_decode", phase);
        out.acct.add(acct);
        bad.extend(phase_bad);
    }
    report_bad(&bad);
    Accounting {
        sent: replay.requests as u64,
        succeeded: (replay.requests - replay.mismatches) as u64,
        failed: replay.mismatches as u64,
        shed: 0,
    }
    .print("http_decode", "replay");
    let attribution_ok = replay.attribution_ok;
    out.correct =
        bad.is_empty() && warm.failed + warm.shed == 0 && replay.mismatches == 0 && attribution_ok;
    println!(
        "check replay: {} requests replayed, {} differ from their stream; attribution {}",
        replay.requests,
        replay.mismatches,
        if attribution_ok { "PASS" } else { "FAIL" }
    );
    out.spans = Some(tracer);
    Ok(out)
}

fn report_bad(bad: &[u64]) {
    if let Some(first) = bad.first() {
        println!("check FAILED: {} requests failed verification (first: index {first})", bad.len());
    }
}

/// Routing source feeding the replayed forward passes' decisions to the
/// simulated device, as the engine does.
struct Decisions<'a>(&'a HashMap<u64, Vec<RouteDecision>>);

impl LiveRouting for Decisions<'_> {
    fn experts(&mut self, id: u64, _generated: usize, block: usize, out: &mut Vec<usize>) -> bool {
        let Some(&expert) =
            self.0.get(&id).and_then(|d| d.get(block)).and_then(|d| d.expert.last())
        else {
            return false;
        };
        out.push(expert);
        true
    }
}

struct Replay {
    layers: Layers,
    requests: usize,
    mismatches: usize,
    attribution_ok: bool,
}

/// Replays `traced` in order: request parsing, then an engine-style decode
/// loop holding `batch` requests in flight, timing the real forward pass,
/// the attributed sub-layers and the session calls. Stops after `seconds`.
fn replay(
    engine: &EngineConfig,
    traced: &[Exchange],
    batch: usize,
    seconds: f64,
    tracer: &mut Tracer,
    doctor: bool,
) -> Result<Replay, String> {
    let net = reference_net(engine, doctor);
    let mirror = AttributedNet::new(
        engine.net.clone(),
        &mut StdRng::seed_from_u64(engine.net_seed + u64::from(doctor)),
    );
    let arena = ScratchArena::new();
    let seq_len = engine.net.seq_len;
    let mut session = BatchSession::new(engine.model.clone(), engine.opts.clone(), engine.batch)
        .map_err(|e| format!("replay session: {e}"))?;
    let limits = Limits::default();
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    let wall_start = Instant::now();

    struct Live {
        ctx: Vec<usize>,
        window: Vec<usize>,
        emitted: Vec<usize>,
        next: usize,
        want: usize,
        ex: usize,
    }
    let mut live: HashMap<u64, Live> = HashMap::new();
    let mut decisions: HashMap<u64, Vec<RouteDecision>> = HashMap::new();
    let (mut parse_ns, mut admit_ns, mut step_ns, mut fwd_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut admits, mut steps, mut forwards, mut tokens, mut rows) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut sub = SublayerNs::default();
    let (mut flops, mut bytes) = (0.0, 0.0);
    let mut attribution_ok = true;
    let (mut mismatches, mut done) = (0usize, 0usize);
    let mut next_ex = 0usize;
    let mut peak_batch = 0usize;
    let mut batch_sizes = 0u64;

    while next_ex < traced.len() || !live.is_empty() {
        // Admission up to the observed batch, while time remains.
        while live.len() < batch && next_ex < traced.len() && Instant::now() < stop {
            let ex = &traced[next_ex];
            let id = ex.index + 1;
            let bytes_in = request_bytes(&ex.prompt, ex.max_tokens);
            let t0 = Instant::now();
            let (prompt, max_tokens) = parse_generate(&bytes_in, &limits)?;
            let t1 = Instant::now();
            tracer.record("serve.parse", t0, t1, 0, id);
            parse_ns += (t1 - t0).as_nanos() as u64;
            let request = DecodeRequest {
                input_tokens: prompt.len(),
                output_tokens: max_tokens,
                batch_size: 1,
            };
            let prefix = SharedPrefix::of_tokens(&prompt);
            let now_ns = session.clock().as_nanos();
            let arrived = ArrivedRequest::at_nanos(now_ns, request)
                .with_shared_prefix(prefix.hash, prefix.tokens);
            let t0 = Instant::now();
            let admitted =
                session.try_admit(id, arrived).map_err(|e| format!("replay admit: {e}"))?;
            let t1 = Instant::now();
            tracer.record("runtime.admit", t0, t1, 0, id);
            admit_ns += (t1 - t0).as_nanos() as u64;
            admits += 1;
            if !matches!(admitted, Admission::Admitted { .. }) {
                return Err("replay admission refused within the observed batch".into());
            }
            live.insert(
                id,
                Live {
                    ctx: prompt,
                    window: vec![0; seq_len],
                    emitted: Vec::new(),
                    next: 0,
                    want: max_tokens,
                    ex: next_ex,
                },
            );
            next_ex += 1;
        }
        if live.is_empty() {
            break;
        }
        if Instant::now() >= stop {
            // Time is up: finish the in-flight requests, admit no more.
            next_ex = traced.len();
        }
        peak_batch = peak_batch.max(live.len());
        batch_sizes += live.len() as u64;
        let mut ids: Vec<u64> = live.keys().copied().collect();
        ids.sort_unstable();
        for id in &ids {
            let r = live.get_mut(id).expect("live id");
            fill_window(&r.ctx, &mut r.window);
            let t0 = Instant::now();
            let (logits, dec) = net.forward_inference_arena(&r.window, &arena);
            let t1 = Instant::now();
            tracer.record("model.forward", t0, t1, 0, *id);
            fwd_ns += (t1 - t0).as_nanos() as u64;
            let mut pass = SublayerNs::default();
            let (m_logits, m_dec) = mirror.forward(&r.window, &arena, &mut pass);
            if m_logits.as_slice() != logits.as_slice()
                || m_dec.iter().zip(&dec).any(|(a, b)| a.expert != b.expert)
            {
                attribution_ok = false;
            }
            sub.add(&pass);
            let active: usize = dec
                .iter()
                .map(|d| {
                    let mut e = d.expert.clone();
                    e.sort_unstable();
                    e.dedup();
                    e.len()
                })
                .sum();
            let (f, b) = computed_cost(&engine.net, active);
            flops += f;
            bytes += b;
            rows += seq_len as u64;
            forwards += 1;
            r.next = argmax(logits.row(seq_len - 1));
            arena.recycle(logits);
            arena.recycle(m_logits);
            decisions.insert(*id, dec);
        }
        let t0 = Instant::now();
        let events = session
            .step_routed(&mut Decisions(&decisions))
            .map_err(|e| format!("replay step: {e}"))?;
        let t1 = Instant::now();
        tracer.record("runtime.step", t0, t1, 0, 0);
        step_ns += (t1 - t0).as_nanos() as u64;
        steps += 1;
        for ev in events {
            let r = live.get_mut(&ev.id).expect("event for live request");
            let token = r.next;
            r.ctx.push(token);
            r.emitted.push(token);
            tokens += 1;
            if ev.done {
                let r = live.remove(&ev.id).expect("done request is live");
                decisions.remove(&ev.id);
                if r.emitted.len() != r.want || r.emitted != traced[r.ex].tokens {
                    mismatches += 1;
                }
                done += 1;
            }
        }
    }
    let wall_ns = wall_start.elapsed().as_nanos() as f64;
    let stats = session.finish();

    let per_fwd = |ns: u64| ns as f64 / 1e3 / forwards.max(1) as f64;
    let forward_us = per_fwd(fwd_ns);
    let sub_sum_us = per_fwd(sub.listed());
    let ratio = sub_sum_us / forward_us;
    attribution_ok &= (0.9..=1.1).contains(&ratio);
    let mut layers = Layers::default();
    layers.set("serve.parse_us", parse_ns as f64 / 1e3 / admits.max(1) as f64);
    layers.set("model.forward_us", forward_us);
    for (name, ns) in SUBLAYER_METRICS.into_iter().zip(sub.ns) {
        layers.set(name, per_fwd(ns));
    }
    layers.set("model.sublayer_sum_us", sub_sum_us);
    layers.set("model.attribution_ratio", ratio);
    layers.set("model.rows_per_token", rows as f64 / tokens.max(1) as f64);
    layers.set("tensor.flops_per_token", flops / tokens.max(1) as f64);
    layers.set("tensor.bytes_per_token", bytes / tokens.max(1) as f64);
    layers.set("runtime.admit_us", admit_ns as f64 / 1e3 / admits.max(1) as f64);
    layers.set("runtime.step_us", step_ns as f64 / 1e3 / steps.max(1) as f64);
    let plan_total = stats.plan_cache_hits + stats.plan_cache_misses;
    layers.set("runtime.plan_hit_rate", stats.plan_cache_hits as f64 / plan_total.max(1) as f64);
    layers.set("runtime.batch_mean", batch_sizes as f64 / steps.max(1) as f64);
    layers.set("runtime.peak_batch", peak_batch as f64);
    layers.set(
        "runtime.fetch_mb_per_token",
        stats.expert_fetch_bytes as f64 / 1e6 / stats.total_tokens.max(1) as f64,
    );
    layers.set(
        "runtime.demand_fetch_frac",
        stats.demand_fetch_bytes as f64 / stats.expert_fetch_bytes.max(1) as f64,
    );
    // Shares of the replay's wall time; the attributed mirror pass is
    // tracing cost, so it is taken out of the denominator.
    let mirror_ns = (sub.listed() + sub.other) as f64;
    let denom = (wall_ns - mirror_ns).max(1.0);
    let serve = parse_ns as f64 / denom;
    let model = fwd_ns as f64 / denom;
    let runtime = (admit_ns + step_ns) as f64 / denom;
    layers.set("share.serve", serve);
    layers.set("share.model", model);
    layers.set("share.runtime", runtime);
    layers.set("share.unattributed", 1.0 - serve - model - runtime);
    println!(
        "attribution: {forwards} forward passes, sub-layers {sub_sum_us:.3} us vs forward \
         {forward_us:.3} us (ratio {ratio:.4}, limit 0.9..1.1); embedding+residual {:.3} us",
        per_fwd(sub.other)
    );
    Ok(Replay { layers, requests: done, mismatches, attribution_ok })
}

/// `http::parse_request` + `json::parse` on one generate request.
pub fn parse_generate(bytes: &[u8], limits: &Limits) -> Result<(Vec<usize>, usize), String> {
    let req = match parse_request(bytes, limits) {
        Ok(Parsed::Complete(req, _)) => req,
        other => return Err(format!("replay parse: {other:?}")),
    };
    let body = std::str::from_utf8(&req.body).map_err(|_| "replay body not utf-8")?;
    let doc = json::parse(body).map_err(|e| format!("replay json: {e}"))?;
    let prompt = doc
        .get("prompt")
        .and_then(Json::as_arr)
        .ok_or("replay: no prompt")?
        .iter()
        .map(|v| v.as_u64().map(|t| t as usize).ok_or("replay: bad token"))
        .collect::<Result<Vec<_>, _>>()?;
    let max_tokens = doc.get("max_tokens").and_then(Json::as_u64).ok_or("replay: no max_tokens")?;
    Ok((prompt, max_tokens as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exchange(engine: &EngineConfig, index: u64) -> Exchange {
        let (prompt, max_tokens) = request(9, index, engine.net.vocab);
        let tokens = reference_decode(&reference_net(engine, false), &prompt, max_tokens);
        let now = Instant::now();
        Exchange {
            index,
            prompt,
            max_tokens,
            status: 200,
            token_us: vec![0; tokens.len()],
            declared_ok: true,
            tokens,
            sent_at: now,
            done_at: now,
        }
    }

    #[test]
    fn streams_verify_against_the_reference_and_fail_a_doctored_one() {
        let engine = ServeConfig::demo().engine;
        let good = [exchange(&engine, 0), exchange(&engine, 1)];
        assert!(verify(&good, &engine, false, 2).is_empty());
        assert_eq!(verify(&good, &engine, true, 2), vec![0, 1], "a doctored reference must fail");
    }

    #[test]
    fn a_stream_must_agree_with_its_done_line() {
        let chunk = |line: &str| format!("{:x}\r\n{line}\r\n", line.len());
        for (done, ok) in [("[5,6]", true), ("[5,7]", false), ("[5]", false)] {
            let mut ex = exchange(&ServeConfig::demo().engine, 3);
            ex.tokens.clear();
            ex.token_us.clear();
            ex.max_tokens = 2;
            let body = [
                chunk("{\"index\":0,\"token\":5}\n"),
                chunk("{\"index\":1,\"token\":6}\n"),
                chunk(&format!("{{\"done\":true,\"n\":2,\"tokens\":{done}}}\n")),
                "0\r\n\r\n".into(),
            ]
            .concat();
            let mut buf = body.into_bytes();
            assert!(drain_chunks(&mut buf, &mut ex).unwrap(), "last chunk ends the stream");
            assert_eq!(ex.tokens, [5, 6]);
            assert_eq!(ex.stream_ok(), ok, "done line {done}");
        }
    }

    #[test]
    fn attributed_net_matches_the_served_network_bit_for_bit() {
        let engine = ServeConfig::demo().engine;
        let net = reference_net(&engine, false);
        let mirror =
            AttributedNet::new(engine.net.clone(), &mut StdRng::seed_from_u64(engine.net_seed));
        let arena = ScratchArena::new();
        let window: Vec<usize> =
            (0..engine.net.seq_len).map(|i| (i * 7) % engine.net.vocab).collect();
        let (logits, dec) = net.forward_inference_arena(&window, &arena);
        let mut t = SublayerNs::default();
        let (m_logits, m_dec) = mirror.forward(&window, &arena, &mut t);
        assert_eq!(logits.as_slice(), m_logits.as_slice());
        assert!(dec.iter().zip(&m_dec).all(|(a, b)| a.expert == b.expert));
        assert!(t.listed() > 0);
    }

    #[test]
    fn replay_parses_the_bytes_the_client_sends() {
        let bytes = request_bytes(&[3, 1, 4], 5);
        assert_eq!(parse_generate(&bytes, &Limits::default()).unwrap(), (vec![3, 1, 4], 5));
    }
}
