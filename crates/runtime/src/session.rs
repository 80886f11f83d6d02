//! Pull-based incremental decoding over the shared batch core.
//!
//! [`crate::BatchScheduler::serve`] is run-to-completion: it consumes a
//! whole pre-generated arrival trace and only then hands back statistics.
//! A real serving front door cannot work that way — requests arrive on
//! live sockets while earlier ones are mid-decode, and every generated
//! token must be streamed back the moment it exists. [`BatchSession`] is
//! the seam that makes that possible: it owns exactly the state the batch
//! scheduler's serve loop used to keep on its stack (machine, placement
//! plan, expert cache, policy scheduler, in-flight set) and exposes it as
//! three small operations the caller drives:
//!
//! * [`BatchSession::try_admit`] — offer one request at the current clock;
//!   admission control (max batch + the scheduler's own HBM contract)
//!   answers [`Admission::Admitted`], [`Admission::BatchFull`], or
//!   [`Admission::OverBudget`].
//! * [`BatchSession::step`] — run one scheduler step: prefill for anything
//!   admitted since the last step, then one decode iteration for the whole
//!   batch, returning a [`TokenEvent`] per in-flight request.
//! * [`BatchSession::finish`] — consume the session and produce the same
//!   [`ServeStats`] the run-to-completion path reports.
//!
//! [`BatchScheduler::serve`] is now a thin loop over this handle (the
//! golden-equivalence suite pins the refactor bit-exactly), and
//! `pgmoe-serve` drives the same handle from an HTTP event loop with live
//! wall-clock arrivals, streaming each [`TokenEvent`] back as an HTTP
//! chunk.
//!
//! # Real routing
//!
//! Offline simulation draws expert routing from a synthetic
//! [`RoutingTrace`]. When a *real* model runs next to the session (the
//! HTTP server runs the numeric `SwitchNet` forward pass), the caller can
//! supply the network's actual routing decisions through [`LiveRouting`]
//! and [`BatchSession::step_routed`], so fetch/cache bookkeeping follows
//! what the model really activated instead of the synthetic trace.
//!
//! [`BatchScheduler::serve`]: crate::BatchScheduler::serve

use crate::batch::BatchConfig;
use crate::core::{
    self, batched_prefill_costs, expected_distinct_experts, CoreEnv, CoreScratch, DecodeCosts,
};
use crate::engine::{attn_bytes_for, dense_ffn_bytes_for};
use crate::kv::{BlockTable, KvBlockPool, KvServeStats, PagedKvConfig};
use crate::plan::{self, PlanCacheStats, PlanSession};
use crate::scheduler::{ExpertScheduler, MemoryProfile, PolicySpec, RoutedSource};
use crate::serve::ServeStats;
use crate::{ExpertCache, PlacementPlan, Result, RuntimeError, SimOptions};
use pgmoe_device::{AllocId, Machine, SimDuration, SimTime, Tier};
use pgmoe_model::{ExpertPrecision, GateTopology, ModelConfig};
use pgmoe_workload::{ArrivedRequest, RoutingTrace, SharedPrefix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Outcome of offering one request to [`BatchSession::try_admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request joined the running batch and will receive its first
    /// token after the next [`BatchSession::step`]. `queueing` is the
    /// admission clock minus the request's arrival stamp.
    Admitted {
        /// Time the request waited between arrival and admission.
        queueing: SimDuration,
    },
    /// The batch already holds `max_batch` requests; offer again after a
    /// step retires someone.
    BatchFull,
    /// Admitting this request now would breach the HBM budget (static
    /// weights + in-flight KV/activations + the scheduler's worst-case
    /// migration transients). Offer again once the batch drains.
    OverBudget,
}

/// One token produced by a [`BatchSession::step`] for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenEvent {
    /// The id the caller passed to [`BatchSession::try_admit`].
    pub id: u64,
    /// Zero-based index of this token within the request's output.
    pub index: usize,
    /// `true` when this is the request's last token; its batch slot and
    /// activation memory have already been released.
    pub done: bool,
    /// Session clock when the token was emitted.
    pub at: SimTime,
}

/// What [`BatchSession::abort`] hands back for a request removed from the
/// batch before completing: enough for a control layer to account the
/// wasted work and redispatch the request elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortedRequest {
    /// The id the caller passed to [`BatchSession::try_admit`].
    pub id: u64,
    /// Tokens the request had generated when it was aborted — work that is
    /// thrown away (the replica that takes the request over regenerates the
    /// stream from its route seed).
    pub tokens_generated: usize,
}

/// Caller-supplied expert routing for [`BatchSession::step_routed`].
///
/// Implemented by serving layers that run a real model alongside the
/// session: returning `true` after filling `out` with the experts request
/// `id` activates at decoder MoE block `block` for its `generated`-th
/// output token replaces the synthetic trace for that request/block.
/// Returning `false` falls back to the request's [`RoutingTrace`].
pub trait LiveRouting {
    /// Fills `out` with activated expert indices (may be empty) and
    /// returns whether live routing is available for this slot.
    fn experts(&mut self, id: u64, generated: usize, block: usize, out: &mut Vec<usize>) -> bool;
}

/// A request currently being decoded.
struct InFlight {
    id: u64,
    /// Index into `records` (admission order).
    record: usize,
    arrival: SimTime,
    request: pgmoe_workload::DecodeRequest,
    /// Synthetic per-request routing decisions (the fallback when no
    /// [`LiveRouting`] is supplied).
    trace: RoutingTrace,
    generated: usize,
    first_token_at: Option<SimTime>,
    act_alloc: AllocId,
    act_bytes: u64,
    /// Prompt tokens prefilled so far. The unpaged path prefills whole
    /// prompts in the admission step, so this starts at `input_tokens`;
    /// the paged path advances it chunk by chunk across steps.
    prefilled: usize,
    /// Paged-KV block table (paged sessions only).
    table: Option<BlockTable>,
    /// Seed for synthetic KV content stamps outside the shared prefix.
    stamp_seed: u64,
    shared_prefix: Option<SharedPrefix>,
}

impl InFlight {
    fn ctx_len(&self) -> usize {
        self.request.input_tokens + self.generated
    }

    /// Whether the whole prompt is prefilled — only then does the request
    /// join decode iterations.
    fn ready(&self) -> bool {
        self.prefilled >= self.request.input_tokens
    }

    /// Content stamp of the token at position `pos`: shared-prefix tokens
    /// stamp off the tenant's prefix hash (equal across that tenant's
    /// requests, which is what makes their KV blocks deduplicate), every
    /// other position off the request's private seed.
    fn stamp_at(&self, pos: usize) -> u64 {
        match self.shared_prefix {
            Some(p) if pos < p.tokens.min(self.request.input_tokens) => kv_stamp(p.hash, pos),
            _ => kv_stamp(self.stamp_seed, pos),
        }
    }
}

/// Splitmix-style finalizer: deterministic, well-spread content stamps for
/// synthetic KV blocks.
fn kv_stamp(seed: u64, pos: usize) -> u64 {
    let mut z = seed ^ (pos as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Paged-KV machinery for one session: the block pool, its machine-side
/// byte mirror, and the resizable expert-cache region it arbitrates
/// against (see [`crate::kv`]).
struct PagedState {
    cfg: PagedKvConfig,
    pool: KvBlockPool,
    /// One HBM alloc mirroring `pool.used_bytes()`, re-reconciled whenever
    /// the pool grows or shrinks.
    kv_alloc: Option<AllocId>,
    kv_alloc_bytes: u64,
    /// The expert-cache region's own alloc, resizable under KV pressure.
    cache_alloc: Option<AllocId>,
    cache_experts_now: usize,
    plan_cache_experts: usize,
    expert_bytes: u64,
    shrink_events: u64,
}

/// Per-request completion record, in admission order.
struct Record {
    queueing: SimDuration,
    ttft: SimDuration,
    latency: SimDuration,
}

/// Adapter: the batch's per-block expert unions as a routing source.
struct UnionRouted<'a> {
    unions: &'a [Vec<usize>],
}

impl RoutedSource for UnionRouted<'_> {
    fn experts(&self, block: usize) -> &[usize] {
        &self.unions[block]
    }
}

/// An incrementally-driven continuous-batching decode session (see the
/// module docs for the protocol).
///
/// # Example
///
/// ```
/// use pgmoe_device::SimTime;
/// use pgmoe_model::ModelConfig;
/// use pgmoe_runtime::{Admission, BatchConfig, BatchSession, OffloadPolicy, SimOptions};
/// use pgmoe_workload::{ArrivedRequest, DecodeRequest};
///
/// let mut session = BatchSession::new(
///     ModelConfig::switch_base(8),
///     SimOptions::new(OffloadPolicy::Pregated),
///     BatchConfig::new(4),
/// )?;
/// let req = DecodeRequest { input_tokens: 16, output_tokens: 2, batch_size: 1 };
/// let admission = session.try_admit(0, ArrivedRequest::at_nanos(0, req))?;
/// assert!(matches!(admission, Admission::Admitted { .. }));
/// let first = session.step()?;
/// assert_eq!((first[0].id, first[0].index, first[0].done), (0, 0, false));
/// let second = session.step()?;
/// assert!(second[0].done);
/// let stats = session.finish();
/// assert_eq!(stats.total_tokens, 2);
/// # Ok::<(), pgmoe_runtime::RuntimeError>(())
/// ```
pub struct BatchSession {
    cfg: ModelConfig,
    opts: SimOptions,
    batch: BatchConfig,
    sched: Box<dyn ExpertScheduler>,
    topo: GateTopology,
    machine: Machine,
    base_plan: PlacementPlan,
    cache: Option<ExpertCache>,
    budget: u64,
    inflight: Vec<InFlight>,
    /// Indices (into `inflight`) admitted since the last step; they get a
    /// prefill pass at the start of the next step.
    admitted_now: Vec<usize>,
    records: Vec<Record>,
    scratch: CoreScratch,
    plans: PlanSession,
    unions: Vec<Vec<usize>>,
    route_scratch: Vec<usize>,
    demand_bytes: u64,
    iteration: usize,
    clock: SimTime,
    total_tokens: usize,
    first_arrival: Option<SimTime>,
    last_completion: SimTime,
    paged: Option<PagedState>,
    peak_batch: usize,
}

impl BatchSession {
    /// Opens a session: validates the options, reserves the static model
    /// footprint, and builds the expert scheduler.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::InvalidConfig`] for a zero `max_batch` or options
    ///   the policy surface rejects.
    /// * [`RuntimeError::OutOfMemory`] if the static footprint does not
    ///   fit the machine.
    pub fn new(cfg: ModelConfig, opts: SimOptions, batch: BatchConfig) -> Result<Self> {
        if batch.max_batch == 0 {
            return Err(RuntimeError::InvalidConfig {
                message: "max_batch must be at least 1".into(),
            });
        }
        if let Some(p) = batch.paged_kv {
            if p.block_tokens == 0 || p.prefill_chunk_tokens == 0 {
                return Err(RuntimeError::InvalidConfig {
                    message: "paged KV needs block_tokens and prefill_chunk_tokens of at least 1"
                        .into(),
                });
            }
        }
        opts.validate(&cfg)?;
        let sched = opts.policy.build(&opts.setup_for(&cfg));
        let topo = sched.decoder_topology(cfg.decoder_moe_layers())?;
        let mut machine = Machine::new(opts.machine.clone());
        // Sessions never render machine timelines, and span tracing forces
        // every iteration through the interpreted core (compiled-plan
        // replay does not re-emit trace spans — see [`crate::plan`]).
        machine.set_trace_enabled(false);
        let base_plan = PlacementPlan::new(&cfg, &opts, 0, 1);
        // Paged sessions place the expert-cache region as its own alloc so
        // KV arbitration can resize it; the unpaged path keeps the single
        // static alloc (same total bytes either way, so peak accounting is
        // untouched).
        let cache_region = base_plan.cache_experts() as u64 * base_plan.expert_bytes();
        let paged = match batch.paged_kv {
            Some(pcfg) => {
                machine
                    .pool_mut(Tier::Hbm)
                    .alloc(base_plan.static_non_activation_bytes() - cache_region)?;
                let cache_alloc = if cache_region > 0 {
                    Some(machine.pool_mut(Tier::Hbm).alloc(cache_region)?)
                } else {
                    None
                };
                let bytes_per_token =
                    crate::memory::kv_bytes(cfg.total_layers(), 1, cfg.d_model, 1);
                Some(PagedState {
                    cfg: pcfg,
                    pool: KvBlockPool::new(pcfg.block_tokens, bytes_per_token),
                    kv_alloc: None,
                    kv_alloc_bytes: 0,
                    cache_alloc,
                    cache_experts_now: base_plan.cache_experts(),
                    plan_cache_experts: base_plan.cache_experts(),
                    expert_bytes: base_plan.expert_bytes(),
                    shrink_events: 0,
                })
            }
            None => {
                machine.pool_mut(Tier::Hbm).alloc(base_plan.static_non_activation_bytes())?;
                None
            }
        };
        if base_plan.offload_bytes() > 0 {
            machine.pool_mut(opts.offload_tier).alloc(base_plan.offload_bytes())?;
        }
        let budget = batch
            .hbm_budget_bytes
            .unwrap_or(opts.machine.hbm_capacity)
            .min(opts.machine.hbm_capacity);
        let cache = opts.cache.map(|c| ExpertCache::new(base_plan.cache_experts(), c.replacement));
        let dec_blocks = cfg.decoder_moe_layers();
        let scratch = CoreScratch::new(dec_blocks, cfg.num_experts);
        let plans = PlanSession::new(
            opts.plan_cache,
            opts.expert_precision.unwrap_or(cfg.expert_precision) != ExpertPrecision::F32,
        );
        Ok(BatchSession {
            sched,
            topo,
            machine,
            base_plan,
            cache,
            budget,
            inflight: Vec::new(),
            admitted_now: Vec::new(),
            records: Vec::new(),
            scratch,
            plans,
            unions: vec![Vec::new(); dec_blocks],
            route_scratch: Vec::new(),
            demand_bytes: 0,
            iteration: 0,
            clock: SimTime::ZERO,
            total_tokens: 0,
            first_arrival: None,
            last_completion: SimTime::ZERO,
            paged,
            peak_batch: 0,
            cfg,
            opts,
            batch,
        })
    }

    /// The display name of the scheduler serving this session.
    pub fn policy_name(&self) -> String {
        self.sched.name()
    }

    /// Number of requests currently being decoded.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// The session clock (starts at zero, advances by the measured span of
    /// every step and by [`BatchSession::advance_clock`]).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Advances the clock to `t` if it is ahead of the current clock —
    /// callers do this with the next arrival stamp when the system is
    /// idle, and live servers do it with the wall clock before offering
    /// fresh arrivals.
    pub fn advance_clock(&mut self, t: SimTime) {
        self.clock = self.clock.max(t);
    }

    /// Tokens emitted so far.
    pub fn total_tokens(&self) -> usize {
        self.total_tokens
    }

    /// Peak HBM across the session so far.
    pub fn peak_hbm_bytes(&self) -> u64 {
        self.machine.pool(Tier::Hbm).peak_bytes()
    }

    /// Expert bytes migrated from the offload tier so far.
    pub fn expert_fetch_bytes(&self) -> u64 {
        self.machine.offload_traffic_bytes()
    }

    /// Expert bytes fetched on a block's critical path so far (on-demand
    /// miss stalls).
    pub fn demand_fetch_bytes(&self) -> u64 {
        self.demand_bytes
    }

    /// Plan-cache counters so far: decode iterations replayed from a
    /// compiled plan (`hits`), iterations that compiled a fresh plan
    /// (`misses`), and explicit invalidations (scheduler swaps). See
    /// [`crate::plan`].
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Offers one request for admission at the current clock. `id` is an
    /// opaque caller handle echoed in [`TokenEvent::id`]; it also seeds the
    /// request's synthetic routing trace (unless the request carries an
    /// explicit `route_seed`), so equal ids replay equal traces.
    ///
    /// The request's arrival stamp must not be ahead of the session clock
    /// (advance the clock first); its queueing delay is the difference.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::InvalidConfig`] for a request with zero output
    ///   tokens, a batch size other than 1, or an arrival stamp ahead of
    ///   the clock.
    /// * [`RuntimeError::OutOfMemory`] if the request cannot fit the HBM
    ///   budget even with the batch otherwise empty — it will *never* be
    ///   admissible, so the caller should reject it rather than retry.
    pub fn try_admit(&mut self, id: u64, arr: ArrivedRequest) -> Result<Admission> {
        if arr.request.output_tokens == 0 || arr.request.batch_size != 1 {
            return Err(RuntimeError::InvalidConfig {
                message: "batched serving admits single-sequence requests with at least one \
                          output token"
                    .into(),
            });
        }
        let arrival = SimTime::from_nanos(arr.arrival_ns);
        if arrival > self.clock {
            return Err(RuntimeError::InvalidConfig {
                message: "request arrival is ahead of the session clock".into(),
            });
        }
        if self.inflight.len() >= self.batch.max_batch {
            return Ok(Admission::BatchFull);
        }
        let cfg = &self.cfg;
        let opts = &self.opts;
        let full_ctx = arr.request.input_tokens + arr.request.output_tokens;
        // Unpaged: reserve worst-case contiguous KV + working buffers for
        // the whole lifetime up front. Paged: reserve working buffers only,
        // and plan KV at block granularity — live blocks, the prompt's new
        // blocks (discounting blocks a sibling's shared prefix already
        // holds), and one growth block per in-flight sequence.
        let (act_bytes, kv_planned) = match &self.paged {
            Some(p) => {
                let working = crate::memory::working_bytes(cfg, full_ctx, 1);
                let block_bytes = p.pool.block_bytes();
                let prompt_blocks = arr.request.input_tokens.div_ceil(p.cfg.block_tokens) as u64;
                let shared = match (p.cfg.share_prefixes, arr.shared_prefix) {
                    (true, Some(sp)) => {
                        let n = sp.tokens.min(arr.request.input_tokens);
                        p.pool.probe_shared_blocks((0..n).map(|i| kv_stamp(sp.hash, i))) as u64
                    }
                    _ => 0,
                };
                let growth = (self.inflight.len() as u64 + 1) * block_bytes;
                (working, p.pool.used_bytes() + (prompt_blocks - shared) * block_bytes + growth)
            }
            None => (PlacementPlan::new(cfg, opts, full_ctx, 1).activation_bytes(), 0),
        };
        let in_flight_act: u64 = self.inflight.iter().map(|r| r.act_bytes).sum();
        let prefill_inputs = match &self.paged {
            Some(p) => {
                let pending: usize = self
                    .inflight
                    .iter()
                    .map(|r| r.request.input_tokens - r.prefilled)
                    .sum::<usize>()
                    + arr.request.input_tokens;
                pending.min(p.cfg.prefill_chunk_tokens)
            }
            None => {
                self.admitted_now
                    .iter()
                    .map(|&i| self.inflight[i].request.input_tokens)
                    .sum::<usize>()
                    + arr.request.input_tokens
            }
        };
        let transient = decode_transient_bytes(
            cfg,
            self.sched.as_ref(),
            &self.base_plan,
            self.inflight.len() + 1,
        )
        .max(prefill_transient_bytes_of(
            cfg,
            self.sched.as_ref(),
            &self.base_plan,
            prefill_inputs,
        ));
        let planned = self.base_plan.static_non_activation_bytes()
            + in_flight_act
            + act_bytes
            + kv_planned
            + transient;
        if planned > self.budget {
            if self.inflight.is_empty() && self.admitted_now.is_empty() {
                // Even alone this request cannot fit: fail loudly rather
                // than deadlock the queue.
                return Err(RuntimeError::OutOfMemory(pgmoe_device::DeviceError::OutOfMemory {
                    tier: Tier::Hbm,
                    requested: planned,
                    available: self
                        .budget
                        .saturating_sub(self.base_plan.static_non_activation_bytes()),
                    capacity: self.budget,
                }));
            }
            return Ok(Admission::OverBudget);
        }
        let act_alloc = self.machine.pool_mut(Tier::Hbm).alloc(act_bytes)?;
        // A stamped route seed wins (fleet dispatch: routing is a property
        // of the request, not its placement); otherwise the seed derives
        // from the caller-chosen id.
        let seed = arr.route_seed.unwrap_or(opts.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let trace = RoutingTrace::generate(
            arr.request.output_tokens,
            cfg.decoder_moe_layers(),
            cfg.num_experts,
            self.base_plan.active_per_block(),
            opts.routing,
            seed,
        );
        let queueing = self.clock - arrival;
        self.first_arrival = Some(match self.first_arrival {
            Some(t) => t.min(arrival),
            None => arrival,
        });
        let (prefilled, table) = match self.paged.as_mut() {
            Some(p) => {
                let sharable = if p.cfg.share_prefixes {
                    arr.shared_prefix.map(|sp| sp.tokens.min(arr.request.input_tokens)).unwrap_or(0)
                } else {
                    0
                };
                (0, Some(p.pool.new_table(sharable)))
            }
            // Unpaged prompts prefill whole in the admission step.
            None => (arr.request.input_tokens, None),
        };
        self.records.push(Record { queueing, ttft: SimDuration::ZERO, latency: SimDuration::ZERO });
        self.inflight.push(InFlight {
            id,
            record: self.records.len() - 1,
            arrival,
            request: arr.request,
            trace,
            generated: 0,
            first_token_at: None,
            act_alloc,
            act_bytes,
            prefilled,
            table,
            stamp_seed: seed ^ 0xD6E8_FEB8_6659_FD93,
            shared_prefix: arr.shared_prefix,
        });
        if self.paged.is_none() {
            self.admitted_now.push(self.inflight.len() - 1);
        }
        Ok(Admission::Admitted { queueing })
    }

    /// Removes an in-flight request from the batch before it completes —
    /// the client disconnected or a control layer is draining the replica.
    /// The request's HBM activation reservation is released immediately
    /// (its batch slot is admissible again at the next
    /// [`BatchSession::try_admit`]); its per-request row in
    /// [`BatchSession::finish`] keeps zero latency, exactly like a request
    /// still in flight when the session ends.
    ///
    /// Returns `None` if `id` is not in flight.
    pub fn abort(&mut self, id: u64) -> Option<AbortedRequest> {
        let i = self.inflight.iter().position(|r| r.id == id)?;
        let r = self.inflight.swap_remove(i);
        // `admitted_now` holds indices into `inflight`: drop the aborted
        // entry and re-point whichever entry the swap_remove relocated.
        let moved = self.inflight.len();
        self.admitted_now.retain(|&x| x != i);
        for x in &mut self.admitted_now {
            if *x == moved {
                *x = i;
            }
        }
        self.machine.pool_mut(Tier::Hbm).free(r.act_alloc).expect("activation double free");
        if let Some(p) = self.paged.as_mut() {
            if let Some(table) = r.table {
                p.pool.release(table);
            }
            // Releasing blocks only shrinks the pool, so the reconcile's
            // free-then-alloc cannot fail.
            self.sync_paged_kv().expect("kv reconcile after abort");
        }
        Some(AbortedRequest { id: r.id, tokens_generated: r.generated })
    }

    /// Aborts every in-flight request (replica death / shutdown drain), in
    /// admission order. See [`BatchSession::abort`].
    pub fn drain_inflight(&mut self) -> Vec<AbortedRequest> {
        let mut order: Vec<(usize, u64)> = self.inflight.iter().map(|r| (r.record, r.id)).collect();
        order.sort_unstable();
        order.into_iter().filter_map(|(_, id)| self.abort(id)).collect()
    }

    /// Swaps the expert scheduler for `policy` at an iteration boundary,
    /// keeping the machine state, expert cache contents, clock and every
    /// in-flight request — the online policy-switching seam a drift
    /// controller uses on a *live* replica.
    ///
    /// The swap is only legal between steps (which is the only place a
    /// caller driving the admit/step protocol can be), and the new policy
    /// must keep the static placement footprint byte-identical — the
    /// session cannot re-place weights that are already resident.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::InvalidConfig`] if the options reject the new
    ///   policy or its static placement differs from the current one.
    pub fn swap_scheduler(&mut self, policy: PolicySpec) -> Result<()> {
        let mut opts = self.opts.clone();
        opts.policy = policy;
        opts.validate(&self.cfg)?;
        let new_plan = PlacementPlan::new(&self.cfg, &opts, 0, 1);
        if new_plan.static_non_activation_bytes() != self.base_plan.static_non_activation_bytes()
            || new_plan.offload_bytes() != self.base_plan.offload_bytes()
        {
            return Err(RuntimeError::InvalidConfig {
                message: format!(
                    "scheduler swap must preserve the static placement footprint \
                     (current {} B resident, replacement wants {} B)",
                    self.base_plan.static_non_activation_bytes(),
                    new_plan.static_non_activation_bytes()
                ),
            });
        }
        let sched = opts.policy.build(&opts.setup_for(&self.cfg));
        let topo = sched.decoder_topology(self.cfg.decoder_moe_layers())?;
        self.sched = sched;
        self.topo = topo;
        self.base_plan = new_plan;
        self.opts = opts;
        // Compiled plans bake in the old scheduler's decisions; drop them
        // all rather than trust the key to separate two schedulers that
        // might share a fingerprint scheme.
        self.plans.invalidate();
        Ok(())
    }

    /// Runs one scheduler step with synthetic trace routing: prefill for
    /// requests admitted since the last step, then one decode iteration
    /// emitting one token per in-flight request.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures (e.g. HBM exhaustion mid-iteration).
    pub fn step(&mut self) -> Result<Vec<TokenEvent>> {
        self.step_impl(None)
    }

    /// Like [`BatchSession::step`], but asks `routing` for each request's
    /// activated experts first, falling back to the synthetic trace where
    /// it reports none (see [`LiveRouting`]).
    ///
    /// # Errors
    ///
    /// See [`BatchSession::step`].
    pub fn step_routed(&mut self, routing: &mut dyn LiveRouting) -> Result<Vec<TokenEvent>> {
        self.step_impl(Some(routing))
    }

    fn step_impl(&mut self, mut routing: Option<&mut dyn LiveRouting>) -> Result<Vec<TokenEvent>> {
        let mut events = Vec::with_capacity(self.inflight.len());
        if self.inflight.is_empty() {
            return Ok(events);
        }
        let span_start = self.machine.horizon();
        if self.paged.is_some() {
            self.chunked_prefill()?;
        } else if !self.admitted_now.is_empty() {
            self.prefill()?;
        }
        self.admitted_now.clear();
        // Only fully-prefilled requests decode (the unpaged path prefills
        // whole prompts at admission, so there the filter admits everyone).
        let ready = self.inflight.iter().filter(|r| r.ready()).count();
        self.peak_batch = self.peak_batch.max(ready);
        if ready > 0 {
            let num_experts = self.cfg.num_experts;
            for (b, union) in self.unions.iter_mut().enumerate() {
                union.clear();
                for r in self.inflight.iter().filter(|r| r.ready()) {
                    let live = match routing.as_deref_mut() {
                        Some(rt) => {
                            self.route_scratch.clear();
                            rt.experts(r.id, r.generated, b, &mut self.route_scratch)
                        }
                        None => false,
                    };
                    if live {
                        union.extend(
                            self.route_scratch.iter().copied().filter(|&e| e < num_experts),
                        );
                    } else {
                        union.extend_from_slice(r.trace.experts(r.generated, b));
                    }
                }
                union.sort_unstable();
                union.dedup();
            }
            let costs = DecodeCosts {
                attn_bytes: attn_bytes_for(
                    &self.cfg,
                    self.inflight.iter().filter(|r| r.ready()).map(|r| r.ctx_len()),
                ),
                ffn_bytes: dense_ffn_bytes_for(&self.cfg),
                decoder_layers: self.cfg.decoder_layers,
                moe_every: self.cfg.moe_every,
            };
            let enc_blocks = self.cfg.encoder_layers / self.cfg.moe_every;
            let mut env = CoreEnv {
                machine: &mut self.machine,
                plan: &self.base_plan,
                cache: &mut self.cache,
                offload_tier: self.opts.offload_tier,
                num_experts: self.cfg.num_experts,
                demand_bytes: &mut self.demand_bytes,
            };
            plan::decode_iteration_planned(
                &mut env,
                self.sched.as_mut(),
                &self.topo,
                &UnionRouted { unions: &self.unions },
                self.iteration,
                enc_blocks,
                &costs,
                &mut self.scratch,
                None,
                &mut self.plans,
                ready as u64,
            )?;
            self.iteration += 1;
        }
        let span = self.machine.horizon() - span_start;
        self.clock += span;

        // Retire tokens; complete and release finished requests. Requests
        // still mid-prefill did not decode and are skipped.
        let mut i = 0;
        while i < self.inflight.len() {
            if !self.inflight[i].ready() {
                i += 1;
                continue;
            }
            let r = &mut self.inflight[i];
            r.generated += 1;
            self.total_tokens += 1;
            if r.first_token_at.is_none() {
                r.first_token_at = Some(self.clock);
                self.records[r.record].ttft = self.clock - r.arrival;
            }
            let done = r.generated == r.request.output_tokens;
            events.push(TokenEvent { id: r.id, index: r.generated - 1, done, at: self.clock });
            if done {
                self.records[r.record].latency = self.clock - r.arrival;
                self.last_completion = self.last_completion.max(self.clock);
                self.machine.pool_mut(Tier::Hbm).free(r.act_alloc).expect("activation double free");
                let finished = self.inflight.swap_remove(i);
                if let (Some(p), Some(table)) = (self.paged.as_mut(), finished.table) {
                    p.pool.release(table);
                }
            } else {
                if let Some(p) = self.paged.as_mut() {
                    // The new decode token's KV joins the block table
                    // (opening a fresh block at each boundary).
                    let r = &mut self.inflight[i];
                    let stamp = r.stamp_at(r.ctx_len() - 1);
                    let table = r.table.as_mut().expect("paged request has a table");
                    let before = p.pool.stats();
                    p.pool.append(table, &[stamp]);
                    if p.cfg.timed_appends {
                        let after = p.pool.stats();
                        plan::execute_kv_append(
                            &mut self.machine,
                            after.blocks_allocated - before.blocks_allocated,
                            after.cow_copy_bytes - before.cow_copy_bytes,
                        );
                    }
                }
                i += 1;
            }
        }
        self.sync_paged_kv()?;
        // Timed paged-KV appends submitted during token retirement land
        // after the measured span: fold their cost into the clock here so
        // the next step starts from a consistent horizon. A no-op unless
        // `timed_appends` charged something above.
        let tail = self.machine.horizon() - span_start;
        self.clock += tail.saturating_sub(span);
        Ok(events)
    }

    /// Consumes the session and reports the same [`ServeStats`] the
    /// run-to-completion [`crate::BatchScheduler::serve`] produces, with
    /// per-request rows in admission order. In-flight requests that never
    /// completed report zero latency.
    pub fn finish(self) -> ServeStats {
        let span = match self.first_arrival {
            // max: a session drained before completing anything has a
            // last-completion watermark predating its first arrival.
            Some(first) => self.last_completion.max(first).duration_since(first),
            None => SimDuration::ZERO,
        };
        let tokens_per_sec = if span == SimDuration::ZERO {
            0.0
        } else {
            self.total_tokens as f64 / span.as_secs_f64()
        };
        let kv = self.paged.as_ref().map(|p| KvServeStats {
            block_tokens: p.pool.block_tokens(),
            peak_blocks: p.pool.peak_blocks(),
            peak_kv_bytes: p.pool.peak_bytes(),
            shared_hit_bytes: p.pool.stats().shared_hit_bytes,
            cow_copy_bytes: p.pool.stats().cow_copy_bytes,
            cache_shrink_events: p.shrink_events,
            final_cache_experts: p.cache_experts_now,
        });
        ServeStats {
            policy: self.sched.name(),
            request_latencies: self.records.iter().map(|r| r.latency).collect(),
            queueing_delays: self.records.iter().map(|r| r.queueing).collect(),
            ttfts: self.records.iter().map(|r| r.ttft).collect(),
            total_tokens: self.total_tokens,
            tokens_per_sec,
            peak_hbm_bytes: self.machine.pool(Tier::Hbm).peak_bytes(),
            expert_fetch_bytes: self.machine.offload_traffic_bytes(),
            demand_fetch_bytes: self.demand_bytes,
            gpu_busy: self.machine.gpu_busy(),
            peak_batch: self.peak_batch,
            plan_cache_hits: self.plans.stats().hits,
            plan_cache_misses: self.plans.stats().misses,
            kv,
        }
    }

    /// Prefill (encoder pass) for newly admitted requests, batched: weight
    /// reads amortize across the admitted set, expert fetches move the
    /// expected distinct set their prompts activate — structured by the
    /// same scheduler hooks as everything else.
    fn prefill(&mut self) -> Result<()> {
        let total_inputs: usize =
            self.admitted_now.iter().map(|&i| self.inflight[i].request.input_tokens).sum();
        let first_id = self.admitted_now.first().map(|&i| self.inflight[i].id).unwrap_or(0);
        self.prefill_pass_for(total_inputs, first_id)
    }

    /// Chunked prefill at the decode-iteration boundary (paged sessions):
    /// spends at most `prefill_chunk_tokens` prompt tokens on the oldest
    /// pending prompts (admission order), appending their KV blocks as it
    /// goes. With an unbounded chunk this submits the same encoder pass as
    /// the unpaged all-at-once prefill ([`batched_prefill_costs`] is
    /// shared), so long prompts only change *when* prefill work runs, not
    /// what it costs.
    fn chunked_prefill(&mut self) -> Result<()> {
        let p = self.paged.as_mut().expect("chunked prefill requires paged state");
        let mut budget = p.cfg.prefill_chunk_tokens;
        let mut order: Vec<usize> =
            (0..self.inflight.len()).filter(|&i| !self.inflight[i].ready()).collect();
        order.sort_unstable_by_key(|&i| self.inflight[i].record);
        let mut total = 0usize;
        let mut first_id = None;
        let mut stamps: Vec<u64> = Vec::new();
        for &i in &order {
            if budget == 0 {
                break;
            }
            let r = &mut self.inflight[i];
            let todo = (r.request.input_tokens - r.prefilled).min(budget);
            if todo == 0 {
                continue;
            }
            if first_id.is_none() {
                first_id = Some(r.id);
            }
            stamps.clear();
            stamps.extend((r.prefilled..r.prefilled + todo).map(|pos| r.stamp_at(pos)));
            let table = r.table.as_mut().expect("paged request has a table");
            let before = p.pool.stats();
            p.pool.append(table, &stamps);
            if p.cfg.timed_appends {
                let after = p.pool.stats();
                plan::execute_kv_append(
                    &mut self.machine,
                    after.blocks_allocated - before.blocks_allocated,
                    after.cow_copy_bytes - before.cow_copy_bytes,
                );
            }
            r.prefilled += todo;
            total += todo;
            budget -= todo;
        }
        if total == 0 {
            return Ok(());
        }
        self.sync_paged_kv()?;
        self.prefill_pass_for(total, first_id.unwrap_or(0))
    }

    /// The shared encoder pass both prefill flavours submit: `total_inputs`
    /// prompt tokens, expert samples seeded off the first prefilled
    /// request's id.
    fn prefill_pass_for(&mut self, total_inputs: usize, first_id: u64) -> Result<()> {
        let cfg = &self.cfg;
        // Sample which experts the prompts activate (per block, like the
        // batch-1 encoder pass) — a fixed 0..distinct set would turn every
        // later prefill into a guaranteed cache hit and undercount traffic.
        let mut rng =
            StdRng::seed_from_u64(self.opts.seed ^ first_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let costs = batched_prefill_costs(
            cfg,
            &self.base_plan,
            total_inputs,
            attn_bytes_for(cfg, self.inflight.iter().map(InFlight::ctx_len)),
        );
        let enc_blocks = cfg.encoder_layers / cfg.moe_every;
        let mut env = CoreEnv {
            machine: &mut self.machine,
            plan: &self.base_plan,
            cache: &mut self.cache,
            offload_tier: self.opts.offload_tier,
            num_experts: cfg.num_experts,
            demand_bytes: &mut self.demand_bytes,
        };
        core::prefill_pass(
            &mut env,
            self.sched.as_mut(),
            &self.topo,
            enc_blocks,
            &costs,
            &mut rng,
            true,
        )
    }

    /// Reconciles the machine's HBM bookkeeping with the block pool and
    /// arbitrates the expert-cache region against KV pressure: when live
    /// KV blocks plus working buffers and the scheduler's own claim
    /// ([`crate::HbmPlan::total_bytes`]) leave less headroom than the
    /// cache's plan capacity, the cache shrinks (evicting through its
    /// replacement policy); when headroom returns it regrows, up to the
    /// plan capacity.
    fn sync_paged_kv(&mut self) -> Result<()> {
        let Some(p) = self.paged.as_mut() else {
            return Ok(());
        };
        let want = p.pool.used_bytes();
        if want != p.kv_alloc_bytes {
            if let Some(id) = p.kv_alloc.take() {
                self.machine.pool_mut(Tier::Hbm).free(id).expect("kv alloc double free");
            }
            if want > 0 {
                p.kv_alloc = Some(self.machine.pool_mut(Tier::Hbm).alloc(want)?);
            }
            p.kv_alloc_bytes = want;
        }
        if p.plan_cache_experts == 0 {
            return Ok(());
        }
        let static_wo_cache = self.base_plan.static_non_activation_bytes()
            - p.plan_cache_experts as u64 * p.expert_bytes;
        let working: u64 = self.inflight.iter().map(|r| r.act_bytes).sum();
        let transient = decode_transient_bytes(
            &self.cfg,
            self.sched.as_ref(),
            &self.base_plan,
            self.inflight.len().max(1),
        );
        let committed = static_wo_cache + working + want + transient;
        let headroom = self.budget.saturating_sub(committed);
        let target = p.plan_cache_experts.min((headroom / p.expert_bytes.max(1)) as usize);
        if target != p.cache_experts_now {
            if target < p.cache_experts_now {
                p.shrink_events += 1;
            }
            if let Some(id) = p.cache_alloc.take() {
                self.machine.pool_mut(Tier::Hbm).free(id).expect("cache alloc double free");
            }
            if target > 0 {
                p.cache_alloc =
                    Some(self.machine.pool_mut(Tier::Hbm).alloc(target as u64 * p.expert_bytes)?);
            }
            if let Some(c) = self.cache.as_mut() {
                c.set_capacity(target);
            }
            p.cache_experts_now = target;
        }
        Ok(())
    }
}

/// The scheduler-facing memory profile for `active` concurrently-activated
/// experts per block under `cfg`.
fn profile(cfg: &ModelConfig, plan: &PlacementPlan, active: usize) -> MemoryProfile {
    MemoryProfile {
        expert_bytes: plan.expert_bytes(),
        num_experts: cfg.num_experts,
        active_per_block: active,
        moe_layers: cfg.moe_layers(),
    }
}

/// Worst-case migration-transient bytes while prefilling prompts with
/// `total_inputs` tokens, per the scheduler's own memory contract.
pub(crate) fn prefill_transient_bytes_of(
    cfg: &ModelConfig,
    sched: &dyn ExpertScheduler,
    plan: &PlacementPlan,
    total_inputs: usize,
) -> u64 {
    let distinct =
        expected_distinct_experts(total_inputs * plan.active_per_block(), cfg.num_experts);
    sched.hbm_plan(&profile(cfg, plan, distinct)).transient_bytes
}

/// Worst-case migration-transient bytes for one decode iteration at batch
/// size `batch` — the headroom admission control keeps free.
pub(crate) fn decode_transient_bytes(
    cfg: &ModelConfig,
    sched: &dyn ExpertScheduler,
    plan: &PlacementPlan,
    batch: usize,
) -> u64 {
    let union = (batch * plan.active_per_block()).min(cfg.num_experts);
    sched.admission_transient_bytes(&profile(cfg, plan, union))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OffloadPolicy;
    use pgmoe_workload::DecodeRequest;

    fn req(input: usize, output: usize) -> DecodeRequest {
        DecodeRequest { input_tokens: input, output_tokens: output, batch_size: 1 }
    }

    fn session(max_batch: usize) -> BatchSession {
        BatchSession::new(
            ModelConfig::switch_base(8),
            SimOptions::new(OffloadPolicy::Pregated),
            BatchConfig::new(max_batch),
        )
        .unwrap()
    }

    #[test]
    fn emits_one_event_per_inflight_request_per_step() {
        let mut s = session(4);
        for id in 0..3u64 {
            let adm = s.try_admit(id, ArrivedRequest::at_nanos(0, req(8, 2))).unwrap();
            assert!(matches!(adm, Admission::Admitted { .. }), "{adm:?}");
        }
        let first = s.step().unwrap();
        assert_eq!(first.len(), 3);
        assert!(first.iter().all(|e| e.index == 0 && !e.done));
        let second = s.step().unwrap();
        assert_eq!(second.len(), 3);
        assert!(second.iter().all(|e| e.index == 1 && e.done));
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.total_tokens(), 6);
    }

    #[test]
    fn batch_full_and_empty_step() {
        let mut s = session(1);
        assert!(s.step().unwrap().is_empty(), "empty session steps to no events");
        let a = s.try_admit(0, ArrivedRequest::at_nanos(0, req(8, 4))).unwrap();
        assert!(matches!(a, Admission::Admitted { .. }));
        let b = s.try_admit(1, ArrivedRequest::at_nanos(0, req(8, 4))).unwrap();
        assert_eq!(b, Admission::BatchFull);
    }

    #[test]
    fn future_arrival_is_rejected_until_clock_advances() {
        let mut s = session(2);
        let fut = ArrivedRequest::at_nanos(5_000, req(8, 1));
        assert!(matches!(s.try_admit(0, fut), Err(RuntimeError::InvalidConfig { .. })));
        s.advance_clock(SimTime::from_nanos(5_000));
        assert!(matches!(s.try_admit(0, fut).unwrap(), Admission::Admitted { .. }));
    }

    #[test]
    fn queueing_delay_reflects_clock_gap() {
        let mut s = session(2);
        s.advance_clock(SimTime::from_nanos(10_000));
        let adm = s.try_admit(0, ArrivedRequest::at_nanos(4_000, req(8, 1))).unwrap();
        match adm {
            Admission::Admitted { queueing } => {
                assert_eq!(queueing, SimDuration::from_nanos(6_000));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_output_request_is_invalid() {
        let mut s = session(2);
        let bad = s.try_admit(0, ArrivedRequest::at_nanos(0, req(8, 0)));
        assert!(matches!(bad, Err(RuntimeError::InvalidConfig { .. })));
    }

    #[test]
    fn never_fitting_request_errors_instead_of_deferring() {
        let cfg = ModelConfig::switch_base(8);
        let opts = SimOptions::new(OffloadPolicy::Pregated);
        let base = PlacementPlan::new(&cfg, &opts, 0, 1);
        // Budget below static + any request: the lone request can never fit.
        let budget = base.static_non_activation_bytes() + 1;
        let mut s =
            BatchSession::new(cfg, opts, BatchConfig::new(2).with_hbm_budget(budget)).unwrap();
        let res = s.try_admit(0, ArrivedRequest::at_nanos(0, req(64, 8)));
        assert!(matches!(res, Err(RuntimeError::OutOfMemory(_))));
    }

    #[test]
    fn live_routing_overrides_trace_and_changes_traffic() {
        // A LiveRouting source that activates a single fixed expert must
        // fetch no more bytes than the synthetic trace's spread (dedup to
        // one expert per block vs up to batch-many distinct experts).
        struct Fixed;
        impl LiveRouting for Fixed {
            fn experts(
                &mut self,
                _id: u64,
                _generated: usize,
                _block: usize,
                out: &mut Vec<usize>,
            ) -> bool {
                out.push(0);
                true
            }
        }
        let run = |live: bool| {
            let mut s = BatchSession::new(
                ModelConfig::switch_base(64),
                SimOptions::new(OffloadPolicy::Pregated),
                BatchConfig::new(8),
            )
            .unwrap();
            for id in 0..8u64 {
                s.try_admit(id, ArrivedRequest::at_nanos(0, req(16, 4))).unwrap();
            }
            while s.in_flight() > 0 {
                if live {
                    s.step_routed(&mut Fixed).unwrap();
                } else {
                    s.step().unwrap();
                }
            }
            s.finish()
        };
        let traced = run(false);
        let fixed = run(true);
        assert_eq!(fixed.total_tokens, traced.total_tokens);
        assert!(
            fixed.expert_fetch_bytes < traced.expert_fetch_bytes,
            "single-expert live routing ({}) must migrate less than the synthetic trace ({})",
            fixed.expert_fetch_bytes,
            traced.expert_fetch_bytes
        );
    }

    #[test]
    fn abort_releases_hbm_reservation_and_readmits_a_queued_request() {
        // A batch-1 session holding one mid-decode request rejects the next
        // offer; aborting the in-flight request must free both the slot and
        // its activation bytes so the queued request is admissible at once.
        let mut s = session(1);
        let adm = s.try_admit(0, ArrivedRequest::at_nanos(0, req(8, 16))).unwrap();
        assert!(matches!(adm, Admission::Admitted { .. }));
        s.step().unwrap();
        s.step().unwrap();
        let blocked = s.try_admit(1, ArrivedRequest::at_nanos(0, req(8, 4))).unwrap();
        assert_eq!(blocked, Admission::BatchFull);
        let hbm_held = s.machine.pool(Tier::Hbm).used_bytes();

        let aborted = s.abort(0).expect("request 0 is in flight");
        assert_eq!(aborted, AbortedRequest { id: 0, tokens_generated: 2 });
        assert_eq!(s.in_flight(), 0);
        assert!(
            s.machine.pool(Tier::Hbm).used_bytes() < hbm_held,
            "abort must release the activation reservation"
        );
        assert_eq!(
            s.machine.pool(Tier::Hbm).used_bytes(),
            s.base_plan.static_non_activation_bytes(),
            "only the static footprint stays resident after the drain"
        );
        assert!(s.abort(0).is_none(), "double abort is a no-op");

        // The queued request now admits and runs to completion.
        let readmitted = s.try_admit(1, ArrivedRequest::at_nanos(0, req(8, 4))).unwrap();
        assert!(matches!(readmitted, Admission::Admitted { .. }));
        let mut done = 0;
        while s.in_flight() > 0 {
            done += s.step().unwrap().iter().filter(|e| e.done).count();
        }
        assert_eq!(done, 1);
        let stats = s.finish();
        // Two admission records: the aborted one reports zero latency, the
        // completed one a real one.
        assert_eq!(stats.request_latencies.len(), 2);
        assert_eq!(stats.request_latencies[0], SimDuration::ZERO);
        assert!(stats.request_latencies[1] > SimDuration::ZERO);
    }

    #[test]
    fn drain_aborts_every_inflight_request_in_admission_order() {
        let mut s = session(4);
        for id in 0..3u64 {
            s.try_admit(id, ArrivedRequest::at_nanos(0, req(8, 8))).unwrap();
        }
        s.step().unwrap();
        let drained = s.drain_inflight();
        assert_eq!(drained.len(), 3);
        assert_eq!(drained.iter().map(|a| a.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(drained.iter().all(|a| a.tokens_generated == 1));
        assert_eq!(s.in_flight(), 0);
        assert_eq!(
            s.machine.pool(Tier::Hbm).used_bytes(),
            s.base_plan.static_non_activation_bytes()
        );
        assert!(s.step().unwrap().is_empty(), "a drained session steps to nothing");
    }

    #[test]
    fn abort_before_first_step_cancels_the_pending_prefill() {
        // Admit two, abort one before stepping: the survivor's prefill must
        // still run exactly once and the session must stay consistent.
        let mut s = session(4);
        s.try_admit(0, ArrivedRequest::at_nanos(0, req(8, 2))).unwrap();
        s.try_admit(1, ArrivedRequest::at_nanos(0, req(8, 2))).unwrap();
        assert!(s.abort(0).is_some());
        let events = s.step().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].id, 1);
        while s.in_flight() > 0 {
            s.step().unwrap();
        }
        assert_eq!(s.total_tokens(), 2);
    }

    #[test]
    fn scheduler_swap_at_iteration_boundary_keeps_inflight_requests() {
        use crate::scheduler::PolicySpec;
        let mut s = session(4);
        s.try_admit(0, ArrivedRequest::at_nanos(0, req(8, 6))).unwrap();
        s.step().unwrap();
        assert_eq!(s.policy_name(), "Pre-gated MoE");
        s.swap_scheduler(PolicySpec::from(OffloadPolicy::OnDemand)).unwrap();
        assert_eq!(s.policy_name(), "MoE-OnDemand");
        let mut tokens = 1;
        while s.in_flight() > 0 {
            tokens += s.step().unwrap().len();
        }
        assert_eq!(tokens, 6, "the in-flight request finishes under the new scheduler");
        let stats = s.finish();
        assert_eq!(stats.policy, "MoE-OnDemand");
        assert_eq!(stats.request_latencies.len(), 1);
        assert!(stats.request_latencies[0] > SimDuration::ZERO);
    }

    #[test]
    fn scheduler_swap_rejects_a_different_static_footprint() {
        // GpuOnly places every expert in HBM — a radically different static
        // footprint the live session cannot adopt.
        let mut s = session(2);
        s.try_admit(0, ArrivedRequest::at_nanos(0, req(8, 4))).unwrap();
        s.step().unwrap();
        let err = s.swap_scheduler(PolicySpec::from(OffloadPolicy::GpuOnly));
        assert!(matches!(err, Err(RuntimeError::InvalidConfig { .. })));
        assert_eq!(s.policy_name(), "Pre-gated MoE", "a rejected swap leaves the scheduler alone");
    }

    #[test]
    fn scheduler_swap_invalidates_compiled_plans() {
        use crate::scheduler::PolicySpec;
        let mut s = session(2);
        s.try_admit(0, ArrivedRequest::at_nanos(0, req(8, 6))).unwrap();
        while s.in_flight() > 0 {
            s.step().unwrap();
        }
        let warm = s.plan_cache_stats();
        assert!(warm.hits > 0, "steady-state decode must replay compiled plans: {warm:?}");
        assert_eq!(warm.invalidations, 0);

        s.swap_scheduler(PolicySpec::from(OffloadPolicy::OnDemand)).unwrap();
        assert_eq!(
            s.plan_cache_stats().invalidations,
            1,
            "a swap must flush plans that baked in the old scheduler's decisions"
        );

        s.try_admit(1, ArrivedRequest::at_nanos(0, req(8, 6))).unwrap();
        while s.in_flight() > 0 {
            s.step().unwrap();
        }
        let resumed = s.plan_cache_stats();
        assert!(resumed.misses > warm.misses, "the first post-swap iteration must recompile");
        assert!(resumed.hits > warm.hits, "later iterations replay the fresh plan");
    }

    #[test]
    fn routing_drift_compiles_one_plan_per_distinct_shape() {
        // A live router whose fan-out width drifts across iterations: every
        // distinct per-block set-size vector is a different plan key, so
        // the session must recompile instead of replaying a plan whose
        // fetch set no longer matches the routing.
        struct Fan(usize);
        impl LiveRouting for Fan {
            fn experts(
                &mut self,
                _id: u64,
                _generated: usize,
                block: usize,
                out: &mut Vec<usize>,
            ) -> bool {
                for e in 0..self.0 {
                    out.push((block + e) % 8);
                }
                true
            }
        }
        let run = |width: &dyn Fn(usize) -> usize| {
            let mut s = session(1);
            s.try_admit(0, ArrivedRequest::at_nanos(0, req(8, 9))).unwrap();
            let mut i = 0;
            while s.in_flight() > 0 {
                s.step_routed(&mut Fan(width(i))).unwrap();
                i += 1;
            }
            s.plan_cache_stats()
        };
        let steady = run(&|_| 1);
        assert!(steady.hits > 0, "a constant width replays: {steady:?}");
        let drifting = run(&|i| 1 + i % 3);
        assert!(drifting.misses >= 3, "three distinct widths need three compiles: {drifting:?}");
        assert!(drifting.misses > steady.misses, "{drifting:?} vs {steady:?}");
    }

    #[test]
    fn cache_attached_sessions_never_compile() {
        use crate::{serve_batched, CacheConfig, Replacement};
        // A budget that fits the full expert-cache region while the KV pool
        // is empty but squeezes it once decode KV accumulates: the
        // paged-KV reconcile shrinks the cache mid-run via set_capacity.
        // Plans for a cache-attached run would have to key on the cache's
        // state, and such plans never replay, so the session interprets
        // every iteration — asserted by zero plan counters and bitwise
        // equality against the plan-cache-off run.
        let cfg = ModelConfig::switch_base(8);
        let eb = PlacementPlan::new(&cfg, &SimOptions::new(OffloadPolicy::Pregated), 0, 1)
            .expert_bytes();
        let opts = |plan: bool| {
            let o = SimOptions::new(OffloadPolicy::Pregated)
                .with_cache(CacheConfig::bytes(8 * eb, Replacement::Lru));
            if plan {
                o
            } else {
                o.without_plan_cache()
            }
        };
        let base = PlacementPlan::new(&cfg, &opts(true), 0, 1);
        let long = PlacementPlan::new(&cfg, &opts(true), 536, 1).activation_bytes();
        // The paged-KV gate's tight-budget recipe: static weights + two
        // long requests' activations + the expert working set. Paging
        // admits a deep batch whose accumulated KV blocks push the
        // analytic headroom below the cache's plan capacity mid-run.
        let budget = base.static_non_activation_bytes() + 2 * long + 2 * 8 * eb;
        let batch = BatchConfig::new(16)
            .with_hbm_budget(budget)
            .with_paged_kv(PagedKvConfig::new(16).with_prefill_chunk(256));
        let arrivals = pgmoe_workload::mixed_context_trace(24, 512, 384, 2, 50_000);
        let run =
            |plan: bool| serve_batched(cfg.clone(), opts(plan), batch, arrivals.clone()).unwrap();
        let on = run(true);
        let off = run(false);
        let kv = on.kv.as_ref().expect("paged run reports kv stats");
        assert!(kv.cache_shrink_events > 0, "the budget must squeeze the cache mid-run: {kv:?}");
        assert_eq!(
            (on.plan_cache_hits, on.plan_cache_misses),
            (0, 0),
            "a cache-attached session must not compile plans"
        );
        assert_eq!(format!("{on:?}"), format!("{off:?}"), "plan-on must equal plan-off bitwise");
    }

    #[test]
    fn finish_matches_run_to_completion_serve() {
        use pgmoe_workload::{ArrivalProcess, ArrivalStream};
        let cfg = ModelConfig::switch_base(8);
        let opts = SimOptions::new(OffloadPolicy::Pregated);
        let arrivals: Vec<ArrivedRequest> =
            ArrivalStream::new(ArrivalProcess::Poisson { rate_per_sec: 50.0 }, req(16, 4), 1, 3)
                .take(12)
                .collect();
        let via_serve =
            crate::serve_batched(cfg.clone(), opts.clone(), BatchConfig::new(4), arrivals.clone())
                .unwrap();
        // Drive a session by hand with the same FIFO discipline.
        let mut s = BatchSession::new(cfg, opts, BatchConfig::new(4)).unwrap();
        let mut pending: std::collections::VecDeque<(u64, ArrivedRequest)> =
            arrivals.iter().copied().enumerate().map(|(i, a)| (i as u64, a)).collect();
        while !pending.is_empty() || s.in_flight() > 0 {
            if s.in_flight() == 0 {
                if let Some(&(_, next)) = pending.front() {
                    s.advance_clock(SimTime::from_nanos(next.arrival_ns));
                }
            }
            while let Some(&(id, arr)) = pending.front() {
                if SimTime::from_nanos(arr.arrival_ns) > s.clock() {
                    break;
                }
                match s.try_admit(id, arr).unwrap() {
                    Admission::Admitted { .. } => {
                        pending.pop_front();
                    }
                    _ => break,
                }
            }
            s.step().unwrap();
        }
        let via_session = s.finish();
        assert_eq!(via_session.request_latencies, via_serve.request_latencies);
        assert_eq!(via_session.queueing_delays, via_serve.queueing_delays);
        assert_eq!(via_session.ttfts, via_serve.ttfts);
        assert_eq!(via_session.total_tokens, via_serve.total_tokens);
        assert_eq!(via_session.peak_hbm_bytes, via_serve.peak_hbm_bytes);
        assert_eq!(via_session.expert_fetch_bytes, via_serve.expert_fetch_bytes);
        assert_eq!(via_session.tokens_per_sec, via_serve.tokens_per_sec);
    }
}
