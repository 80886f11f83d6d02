//! Compiled decode plans: an op-IR, a plan cache, and a replay VM for the
//! shared decode core.
//!
//! The decode core (`crate::core`) derives every iteration's schedule from
//! `ExpertScheduler` trait-object hooks — pure host overhead once the HTTP
//! front door and the fleet multiply it by thousands of concurrent streams.
//! This module lowers one decode iteration into a small op-IR
//! ([`PlanOp`]), caches compiled plans keyed on
//! `(scheduler fingerprint, per-block routed-set counts, expert bytes,
//! batch shape, pass geometry)`, and replays cached plans arithmetically
//! against the [`Machine`] with zero per-op trait dispatch.
//!
//! # Bit-exactness contract
//!
//! Lowering *is* execution: the first time a key is seen, the core runs the
//! scheduler hooks for real while the recorder captures the resulting
//! machine-call stream. A cache hit reproduces exactly that stream's effect
//! — same kernels, same copies, same waits, same transient high-water mark
//! — in one arithmetic pass. The IR changes *when* decisions are computed,
//! never *what* they are, which is why every golden-equivalence suite holds
//! bit-exactly with the plan cache enabled.
//!
//! # Cacheability
//!
//! An iteration is compiled only when all three hold: the scheduler
//! returns `Some` from [`crate::ExpertScheduler::plan_fingerprint`], no
//! [`crate::ExpertCache`] is attached, and tracing is off. Every other
//! iteration runs the interpreted core. Pre-gating makes a token's
//! migration schedule depend only on *how many* experts each block
//! activates, so count-keyed plans replay almost every token (hit rate
//! ≈0.997 for batch-1 pre-gated decode). Plans for cache-attached runs
//! would also have to key on expert ids and cache recency; across every
//! cache configuration the figures, tests and benchmarks exercise, such
//! plans replayed 0 times in ~12k iterations, so they are never recorded.
//! Shapes outside that set can repeat a cache state (compiled, Prefetch-all
//! with a cache at batch 1 replays about half its iterations); they run
//! interpreted too, with identical output and more host time.
//! Stateful schedulers (e.g. `speculative_top_m`, whose hooks mutate a
//! frequency histogram every block) and id-reading ones (`cache_pinned`)
//! keep the `None` default. Traced runs are never cached (their per-expert
//! span labels are the product being built).

use crate::core::{self, CoreEnv, CoreScratch, DecodeCosts};
use crate::scheduler::{ExpertScheduler, RoutedSource};
use crate::Result;
use pgmoe_device::{AllocId, CostModel, EventId, Machine, SimDuration, SimTime, Tier};
use pgmoe_model::GateTopology;
use std::collections::{HashMap, HashSet};

/// Maximum number of compiled plans retained per run before the cache is
/// wholesale cleared (a routing-churn backstop, not a tuning knob).
const PLAN_CACHE_CAP: usize = 128;

// ---------------------------------------------------------------------
// FNV-1a fingerprinting
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one `u64` into an FNV-1a state.
pub(crate) fn fnv_mix(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over a string, used by schedulers to tag their
/// [`crate::ExpertScheduler::plan_fingerprint`] with a stable name+version.
pub(crate) fn fingerprint_str(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fingerprint of the routing window's per-block routed-set *sizes*: the
/// only part of the window a cacheable scheduler's decisions may read.
fn routing_fingerprint(routed: &dyn RoutedSource, blocks: usize) -> u64 {
    (0..blocks).fold(FNV_OFFSET, |h, b| fnv_mix(h, routed.experts(b).len() as u64))
}

// ---------------------------------------------------------------------
// The op-IR
// ---------------------------------------------------------------------

/// A byte operand resolved at execution time, so one compiled plan serves
/// every token of a growing context (attention bytes grow per token; the
/// plan's *structure* does not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanBytes {
    /// The iteration's per-layer attention bytes.
    Attn,
    /// The iteration's dense-FFN bytes.
    Ffn,
    /// A byte count fixed at compile time (expert execution).
    Lit(u64),
}

/// One operation of a compiled decode plan.
///
/// Event operands are *slots* — indices into the replay VM's event table,
/// assigned in submission order at compile time — so a plan holds no live
/// [`EventId`]s and can be replayed any number of times.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Marks the compute-stream tail as the origin for the next
    /// [`PlanOp::Latency`] sample.
    BlockStart,
    /// A compute-stream kernel (`attn` / `ffn` / `expert`).
    Gemm {
        /// Kernel label.
        label: &'static str,
        /// HBM bytes streamed, possibly resolved at execution time.
        bytes: PlanBytes,
        /// Event slots the kernel waits on.
        waits: Vec<u32>,
        /// Completion-event slot, when later ops wait on this kernel.
        out: Option<u32>,
    },
    /// The block's gate evaluation (fixed host-side overhead from the cost
    /// model).
    Gate {
        /// Completion-event slot.
        out: u32,
    },
    /// An all-to-all communication hop serialized on the compute stream
    /// (expert-parallel dispatch/combine).
    AllToAll {
        /// Op label (`a2a-dispatch` / `a2a-combine`).
        label: &'static str,
        /// Serialized hop duration fixed at compile time.
        dur: SimDuration,
        /// Event slots the hop waits on.
        waits: Vec<u32>,
        /// Completion-event slot.
        out: u32,
    },
    /// Migration of one expert group for one MoE block: transient-buffer
    /// allocations and host→device copies, collapsing to a copy-stream
    /// barrier when every expert was resident or cached.
    Fetch {
        /// Cache key-space block the fetch targets (encoder-offset).
        block: usize,
        /// Bytes of one expert at the run's effective precision.
        bytes_each: u64,
        /// Tier the copies read from.
        tier: Tier,
        /// Experts to copy, in submission order (for rendering; untraced
        /// copies all submit under the label `"fetch"`), each staged
        /// through its own transient HBM buffer.
        experts: Vec<usize>,
        /// Event slots the copies wait on.
        waits: Vec<u32>,
        /// Whether the copied bytes count as demand (critical-path) stalls.
        demand: bool,
        /// Completion-event slot (last copy, or the barrier).
        out: u32,
    },
    /// Annotation: the expert kernel that follows consumes quantized
    /// weights through the fused dequant-GEMM path. Costs are folded into
    /// the kernel's bytes; executing this op is free.
    Dequant {
        /// MoE block index within the decoder.
        block: usize,
    },
    /// Paged-KV block bookkeeping charged to simulated time: `blocks`
    /// freshly allocated KV blocks and `cow_bytes` of copy-on-write block
    /// copies (see `kv_append_duration` for the cost model).
    KvAppend {
        /// KV blocks newly allocated this iteration.
        blocks: u64,
        /// Bytes copied by copy-on-write forks this iteration.
        cow_bytes: u64,
    },
    /// Frees `count` transient expert buffers (replay folds every
    /// allocation and free into one peak-sized reservation).
    FreeBufs {
        /// Buffers freed.
        count: usize,
    },
    /// Samples `event_time(done) − block_start` into the caller's
    /// block-latency vector.
    Latency {
        /// Event slot of the block's completion event.
        done: u32,
    },
}

/// A lowered decode iteration: the op stream plus its slot-table sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    ops: Vec<PlanOp>,
    n_events: u32,
    /// Most transient expert buffers live at once (× `expert_bytes` =
    /// the iteration's transient HBM high-water mark).
    peak_bufs: u32,
}

impl CompiledPlan {
    /// The plan's operations in execution order.
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }
}

// ---------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------

/// Captures the machine-call stream of one interpreted decode iteration.
///
/// The recorder is passive: the core performs every call for real and the
/// recorder only notes what happened, mapping live [`EventId`]s to dense
/// slots and tracking live [`AllocId`]s. If the core ever waits on an
/// event the recorder never saw (a cross-iteration dependency no current
/// scheduler can create), the recording is poisoned and simply not cached;
/// so is one that leaves a transient buffer alive, since replay collapses
/// the buffer churn into one peak-sized reservation.
pub(crate) struct PlanRecorder {
    ops: Vec<PlanOp>,
    event_slots: HashMap<EventId, u32>,
    live_bufs: HashSet<AllocId>,
    peak_bufs: u32,
    dequant: bool,
    poisoned: bool,
}

impl PlanRecorder {
    pub(crate) fn new(dequant: bool) -> Self {
        PlanRecorder {
            ops: Vec::with_capacity(64),
            event_slots: HashMap::new(),
            live_bufs: HashSet::new(),
            peak_bufs: 0,
            dequant,
            poisoned: false,
        }
    }

    /// Whether the run executes quantized experts (adds [`PlanOp::Dequant`]
    /// annotations ahead of expert kernels).
    pub(crate) fn dequant(&self) -> bool {
        self.dequant
    }

    pub(crate) fn op(&mut self, op: PlanOp) {
        self.ops.push(op);
    }

    /// Assigns the next event slot to a freshly created event.
    pub(crate) fn event(&mut self, ev: EventId) -> u32 {
        let slot = self.event_slots.len() as u32;
        if self.event_slots.insert(ev, slot).is_some() {
            self.poisoned = true;
        }
        slot
    }

    /// Resolves already-recorded events to their slots.
    pub(crate) fn slots_of(&mut self, waits: &[EventId]) -> Vec<u32> {
        let mut out = Vec::with_capacity(waits.len());
        for ev in waits {
            match self.event_slots.get(ev) {
                Some(&slot) => out.push(slot),
                None => self.poisoned = true,
            }
        }
        out
    }

    /// Notes a freshly allocated transient buffer.
    pub(crate) fn buffer(&mut self, id: AllocId) {
        if !self.live_bufs.insert(id) {
            self.poisoned = true;
        }
        self.peak_bufs = self.peak_bufs.max(self.live_bufs.len() as u32);
    }

    /// Records the free of `bufs` (nothing when empty).
    pub(crate) fn free_bufs(&mut self, bufs: &[AllocId]) {
        if bufs.is_empty() {
            return;
        }
        for id in bufs {
            if !self.live_bufs.remove(id) {
                self.poisoned = true;
            }
        }
        self.ops.push(PlanOp::FreeBufs { count: bufs.len() });
    }

    fn finish(self) -> Option<CompiledPlan> {
        if self.poisoned || !self.live_bufs.is_empty() {
            return None;
        }
        Some(CompiledPlan {
            ops: self.ops,
            n_events: self.event_slots.len() as u32,
            peak_bufs: self.peak_bufs,
        })
    }
}

// ---------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------

/// The full cache key: any field drifting forces a recompile, which is the
/// entire invalidation story — `swap_scheduler` additionally clears the
/// cache outright (the old scheduler's plans can never be keyed again).
/// Nothing about an expert cache is keyed: cache-attached runs never
/// compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    /// Scheduler name+config fingerprint
    /// ([`crate::ExpertScheduler::plan_fingerprint`]).
    sched: u64,
    /// Per-block routed-set counts of the routing window.
    routing: u64,
    /// Bytes of one expert — the precision axis.
    expert_bytes: u64,
    /// Batch shape (ready-request count for the batched path, 1 for the
    /// batch-1 engine).
    batch_shape: u64,
    /// Pass geometry: decoder blocks, encoder offset, layer structure, and
    /// whether block latencies are sampled.
    shape: u64,
}

/// Plan-cache hit/miss counters, surfaced through `RunReport`,
/// `ServeStats`, and `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Iterations executed from a cached plan (zero trait dispatch).
    pub hits: u64,
    /// Iterations lowered and compiled because no plan matched.
    pub misses: u64,
    /// Explicit invalidations (`swap_scheduler`, overflow clears).
    pub invalidations: u64,
}

impl PlanCacheStats {
    /// Cache-hit rate in `[0, 1]` (0 for a run that never compiled).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-run plan-compilation state: the bounded plan cache, its counters,
/// and the capture hook the plan tracer uses.
pub(crate) struct PlanSession {
    plans: Option<HashMap<PlanKey, CompiledPlan>>,
    stats: PlanCacheStats,
    dequant: bool,
    capture: bool,
    captured: Option<CompiledPlan>,
}

impl PlanSession {
    /// A session with plan caching `enabled`; `dequant` annotates expert
    /// kernels as fused dequant-GEMM in rendered plans.
    pub(crate) fn new(enabled: bool, dequant: bool) -> Self {
        PlanSession {
            plans: enabled.then(HashMap::new),
            stats: PlanCacheStats::default(),
            dequant,
            capture: false,
            captured: None,
        }
    }

    /// A capture session: every iteration is lowered (never cached, never
    /// replayed) and the last compiled plan is retained for rendering.
    pub(crate) fn capturing(dequant: bool) -> Self {
        PlanSession {
            plans: None,
            stats: PlanCacheStats::default(),
            dequant,
            capture: true,
            captured: None,
        }
    }

    /// Drops every compiled plan (scheduler swap).
    pub(crate) fn invalidate(&mut self) {
        if let Some(plans) = self.plans.as_mut() {
            if !plans.is_empty() {
                plans.clear();
                self.stats.invalidations += 1;
            }
        }
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    pub(crate) fn take_captured(&mut self) -> Option<CompiledPlan> {
        self.captured.take()
    }
}

// ---------------------------------------------------------------------
// Compile-or-replay entry point
// ---------------------------------------------------------------------

/// Runs one decode iteration through the plan compiler: replaying a cached
/// plan when the key matches, otherwise lowering the interpreted iteration
/// while recording it. Uncacheable iterations (see the module docs'
/// *Cacheability*) run the plain interpreted core — and behave identically
/// either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decode_iteration_planned(
    env: &mut CoreEnv<'_>,
    sched: &mut dyn ExpertScheduler,
    topo: &GateTopology,
    routed: &dyn RoutedSource,
    token: usize,
    enc_blocks: usize,
    costs: &DecodeCosts,
    scratch: &mut CoreScratch,
    mut block_latencies: Option<&mut Vec<SimDuration>>,
    ps: &mut PlanSession,
    batch_shape: u64,
) -> Result<()> {
    let cacheable = ps.plans.is_some() && env.cache.is_none() && !env.machine.trace_enabled();
    let key = cacheable.then(|| sched.plan_fingerprint()).flatten().map(|sched_fp| {
        let dec_blocks = scratch.dec_blocks();
        let mut shape = fnv_mix(FNV_OFFSET, dec_blocks as u64);
        shape = fnv_mix(shape, enc_blocks as u64);
        shape = fnv_mix(shape, costs.decoder_layers as u64);
        shape = fnv_mix(shape, costs.moe_every as u64);
        shape = fnv_mix(shape, block_latencies.is_some() as u64);
        PlanKey {
            sched: sched_fp,
            routing: routing_fingerprint(routed, dec_blocks),
            expert_bytes: env.plan.expert_bytes(),
            batch_shape,
            shape,
        }
    });
    if let Some(plan) = key.and_then(|k| ps.plans.as_ref()?.get(&k)) {
        ps.stats.hits += 1;
        if replay(plan, env, costs, block_latencies.as_deref_mut()) {
            return Ok(());
        }
        // The peak-sized transient reservation did not fit. HBM is a byte
        // counter, so the interpreted iteration below reaches the same peak
        // and fails with the same OOM.
    }
    let mut rec = (ps.capture || key.is_some()).then(|| PlanRecorder::new(ps.dequant));
    core::decode_iteration(
        env,
        sched,
        topo,
        routed,
        token,
        enc_blocks,
        costs,
        scratch,
        block_latencies,
        rec.as_mut(),
    )?;
    let plan = rec.and_then(PlanRecorder::finish);
    if ps.capture {
        if plan.is_some() {
            ps.captured = plan;
        }
    } else if let (Some(key), Some(plans)) = (key, ps.plans.as_mut()) {
        ps.stats.misses += 1;
        if let Some(plan) = plan {
            if plans.len() >= PLAN_CACHE_CAP {
                plans.clear();
                ps.stats.invalidations += 1;
            }
            plans.insert(key, plan);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Replay VM
// ---------------------------------------------------------------------

/// Simulated cost of paged-KV block bookkeeping: copy-on-write block copies
/// read and write HBM (`2 × cow_bytes` memory-bound), and each fresh block
/// allocation costs one stream-sync of bookkeeping.
pub(crate) fn kv_append_duration(cost: &CostModel, blocks: u64, cow_bytes: u64) -> SimDuration {
    let copies = if cow_bytes > 0 { cost.membound_time(2 * cow_bytes) } else { SimDuration::ZERO };
    SimDuration::from_nanos(copies.as_nanos() + blocks * cost.sync_overhead.as_nanos())
}

/// Executes a [`PlanOp::KvAppend`] charge directly (the paged session emits
/// these outside the decode loop, once per chunked-prefill or token-append
/// step).
pub(crate) fn execute_kv_append(machine: &mut Machine, blocks: u64, cow_bytes: u64) {
    let dur = kv_append_duration(machine.cost(), blocks, cow_bytes);
    if dur > SimDuration::ZERO {
        machine.compute_op("kv-append", dur, &[]);
    }
}

/// Replays a compiled plan against the live machine.
///
/// Replay never touches the engine per op: plans are self-contained (the
/// recorder poisons any recording that waits across iterations), so the
/// whole schedule is computed arithmetically with the exact
/// [`pgmoe_device::SimEngine::submit`] law and applied in one
/// [`Machine::apply_replay`] — same tails, busy time, traffic counters,
/// pool peak, block latencies. Returns `false`, having changed nothing,
/// when the transient reservation does not fit.
fn replay(
    plan: &CompiledPlan,
    env: &mut CoreEnv<'_>,
    costs: &DecodeCosts,
    mut block_latencies: Option<&mut Vec<SimDuration>>,
) -> bool {
    // One peak-sized reservation stands in for the per-expert transient
    // buffers: the pool's high-water mark moves exactly as the interleaved
    // alloc/free stream would have moved it.
    let reservation = if plan.peak_bufs > 0 {
        match env.machine.pool_mut(Tier::Hbm).alloc(plan.peak_bufs as u64 * env.plan.expert_bytes())
        {
            Ok(id) => Some(id),
            Err(_) => return false,
        }
    } else {
        None
    };
    let compute = env.machine.compute_stream();
    let copy = env.machine.copy_stream();
    let mut tail_c = env.machine.engine_mut().stream_tail(compute);
    let mut tail_p = env.machine.engine_mut().stream_tail(copy);
    let (mut busy_c, mut busy_p) = (SimDuration::ZERO, SimDuration::ZERO);
    let mut offload = 0u64;
    let mut times: Vec<SimTime> = Vec::with_capacity(plan.n_events as usize);
    let gate_dur = env.machine.cost().gate_overhead;
    let mut block_start = SimTime::ZERO;
    for op in &plan.ops {
        match op {
            PlanOp::BlockStart => block_start = tail_c,
            PlanOp::Gemm { bytes, waits, out, .. } => {
                let b = match bytes {
                    PlanBytes::Attn => costs.attn_bytes,
                    PlanBytes::Ffn => costs.ffn_bytes,
                    PlanBytes::Lit(v) => *v,
                };
                let dur = env.machine.cost().kernel_time(0.0, b);
                let mut start = tail_c;
                for &s in waits {
                    start = start.max(times[s as usize]);
                }
                tail_c = start + dur;
                busy_c += dur;
                if out.is_some() {
                    times.push(tail_c);
                }
            }
            PlanOp::Gate { .. } => {
                tail_c += gate_dur;
                busy_c += gate_dur;
                times.push(tail_c);
            }
            PlanOp::AllToAll { dur, waits, .. } => {
                let mut start = tail_c;
                for &s in waits {
                    start = start.max(times[s as usize]);
                }
                tail_c = start + *dur;
                busy_c += *dur;
                times.push(tail_c);
            }
            PlanOp::Fetch { bytes_each, tier, experts, waits, demand, .. } => {
                let mut start = tail_p;
                for &s in waits {
                    start = start.max(times[s as usize]);
                }
                // The copies serialize on the in-order copy stream behind a
                // shared wait set, so n equal-length copies collapse to one
                // interval (a zero-copy fetch is the zero-length barrier).
                let n = experts.len() as u64;
                let span = env.machine.transfer_time(*bytes_each, *tier).as_nanos() * n;
                tail_p = start + SimDuration::from_nanos(span);
                busy_p += SimDuration::from_nanos(span);
                if *tier != Tier::Hbm {
                    offload += n * bytes_each;
                }
                if *demand {
                    *env.demand_bytes += n * bytes_each;
                }
                times.push(tail_p);
            }
            PlanOp::Latency { done } => {
                if let Some(lat) = block_latencies.as_deref_mut() {
                    lat.push(times[*done as usize] - block_start);
                }
            }
            PlanOp::FreeBufs { .. } | PlanOp::Dequant { .. } => {}
            PlanOp::KvAppend { blocks, cow_bytes } => {
                let dur = kv_append_duration(env.machine.cost(), *blocks, *cow_bytes);
                if dur > SimDuration::ZERO {
                    tail_c += dur;
                    busy_c += dur;
                }
            }
        }
    }
    if let Some(id) = reservation {
        env.machine.pool_mut(Tier::Hbm).free(id).expect("replay reservation double free");
    }
    env.machine.apply_replay(tail_c, tail_p, busy_c, busy_p, offload);
    true
}

// ---------------------------------------------------------------------
// Plan tracing / diffing
// ---------------------------------------------------------------------

/// A rendered view of one compiled decode plan, for ablations that explain
/// *why* two policies' metrics differ by diffing what they scheduled
/// (`repro -- plans`).
#[derive(Debug, Clone)]
pub struct PlanTrace {
    policy: String,
    plan: CompiledPlan,
}

impl PlanTrace {
    pub(crate) fn new(policy: String, plan: CompiledPlan) -> Self {
        PlanTrace { policy, plan }
    }

    /// The policy the plan was compiled for.
    pub fn policy(&self) -> &str {
        &self.policy
    }

    /// The plan's operations in execution order.
    pub fn ops(&self) -> &[PlanOp] {
        self.plan.ops()
    }

    fn lines(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.plan.ops.len());
        for op in &self.plan.ops {
            out.push(match op {
                PlanOp::BlockStart => "block-start".to_string(),
                PlanOp::Gemm { label, bytes, waits, .. } => {
                    let b = match bytes {
                        PlanBytes::Attn => "attn-bytes".to_string(),
                        PlanBytes::Ffn => "ffn-bytes".to_string(),
                        PlanBytes::Lit(v) => format!("{v}B"),
                    };
                    format!("gemm {label} {b} waits={}", waits.len())
                }
                PlanOp::Gate { .. } => "gate".to_string(),
                PlanOp::AllToAll { label, dur, .. } => format!("a2a {label} {dur}"),
                PlanOp::Fetch { block, bytes_each, tier, experts, demand, .. } => {
                    let experts: Vec<String> = experts.iter().map(usize::to_string).collect();
                    format!(
                        "fetch b{block} [{}] {}B {:?} demand={}",
                        experts.join(","),
                        bytes_each,
                        tier,
                        demand,
                    )
                }
                PlanOp::Dequant { block } => format!("dequant b{block} (fused)"),
                PlanOp::KvAppend { blocks, cow_bytes } => {
                    format!("kv-append blocks={blocks} cow={cow_bytes}B")
                }
                PlanOp::FreeBufs { count } => format!("free x{count}"),
                PlanOp::Latency { .. } => "latency-sample".to_string(),
            });
        }
        out
    }

    /// Renders the plan as one op per line.
    pub fn render(&self) -> String {
        let mut out = format!("plan[{}] {} ops\n", self.policy, self.plan.ops.len());
        for line in self.lines() {
            out.push_str("  ");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Line-level diff against another plan: `-` lines only this plan
    /// schedules, `+` lines only the other schedules, positionally aligned.
    /// Returns the rendered diff and the number of differing lines.
    pub fn diff(&self, other: &PlanTrace) -> (String, usize) {
        let a = self.lines();
        let b = other.lines();
        let mut out = format!("diff {} vs {}\n", self.policy, other.policy);
        let mut differing = 0usize;
        for i in 0..a.len().max(b.len()) {
            match (a.get(i), b.get(i)) {
                (Some(x), Some(y)) if x == y => {}
                (x, y) => {
                    differing += 1;
                    if let Some(x) = x {
                        out.push_str(&format!("  - {x}\n"));
                    }
                    if let Some(y) = y {
                        out.push_str(&format!("  + {y}\n"));
                    }
                }
            }
        }
        (out, differing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        assert_eq!(fingerprint_str("pregated"), fingerprint_str("pregated"));
        assert_ne!(fingerprint_str("pregated"), fingerprint_str("on-demand"));
        assert_ne!(fnv_mix(FNV_OFFSET, 1), fnv_mix(FNV_OFFSET, 2));
    }

    struct FixedRouting(Vec<Vec<usize>>);
    impl RoutedSource for FixedRouting {
        fn experts(&self, block: usize) -> &[usize] {
            &self.0[block]
        }
    }

    #[test]
    fn routing_fingerprint_keys_counts_not_identities() {
        let a = FixedRouting(vec![vec![1, 2], vec![5]]);
        let b = FixedRouting(vec![vec![3, 7], vec![9]]);
        let c = FixedRouting(vec![vec![3], vec![9]]);
        assert_eq!(routing_fingerprint(&a, 2), routing_fingerprint(&b, 2));
        assert_ne!(routing_fingerprint(&a, 2), routing_fingerprint(&c, 2));
    }

    #[test]
    fn recorder_poisons_on_unknown_event() {
        let mut m = Machine::new(pgmoe_device::MachineConfig::a100_like());
        let ev = m.compute_op("x", SimDuration::from_nanos(1), &[]);
        let mut rec = PlanRecorder::new(false);
        let slots = rec.slots_of(&[ev]);
        assert!(slots.is_empty());
        assert!(rec.finish().is_none(), "unknown waits must poison the recording");
    }

    #[test]
    fn recorder_rejects_a_recording_that_leaves_a_buffer_alive() {
        let mut m = Machine::new(pgmoe_device::MachineConfig::a100_like());
        let pool = m.pool_mut(Tier::Hbm);
        let (a, b) = (pool.alloc(8).unwrap(), pool.alloc(8).unwrap());
        let mut rec = PlanRecorder::new(false);
        rec.buffer(a);
        rec.buffer(b);
        rec.free_bufs(&[a]);
        assert!(rec.finish().is_none(), "replay cannot stand in for a leaked buffer");
        let mut rec = PlanRecorder::new(false);
        rec.buffer(a);
        rec.buffer(b);
        rec.free_bufs(&[a, b]);
        assert_eq!(rec.finish().map(|p| p.peak_bufs), Some(2));
    }

    #[test]
    fn hit_rate_counts() {
        let s = PlanCacheStats { hits: 3, misses: 1, invalidations: 0 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(PlanCacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn kv_append_cost_scales_with_cow_bytes_and_blocks() {
        let cost = CostModel::a100_pcie4();
        assert_eq!(kv_append_duration(&cost, 0, 0), SimDuration::ZERO);
        let alloc_only = kv_append_duration(&cost, 3, 0);
        assert_eq!(alloc_only.as_nanos(), 3 * cost.sync_overhead.as_nanos());
        let with_cow = kv_append_duration(&cost, 3, 1 << 20);
        assert!(with_cow > alloc_only);
    }

    #[test]
    fn plan_trace_diff_counts_divergent_lines() {
        let plan_a = CompiledPlan {
            ops: vec![
                PlanOp::BlockStart,
                PlanOp::Gemm { label: "attn", bytes: PlanBytes::Attn, waits: vec![], out: None },
            ],
            n_events: 0,
            peak_bufs: 0,
        };
        let mut plan_b = plan_a.clone();
        plan_b.ops.push(PlanOp::Gate { out: 0 });
        let a = PlanTrace::new("A".into(), plan_a);
        let b = PlanTrace::new("B".into(), plan_b);
        let (text, differing) = a.diff(&b);
        assert_eq!(differing, 1);
        assert!(text.contains("+ gate"));
        let (_, same) = a.diff(&a);
        assert_eq!(same, 0);
    }
}
