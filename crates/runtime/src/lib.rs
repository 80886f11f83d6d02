//! # pgmoe-runtime
//!
//! The Pre-gated MoE inference system and its baselines (ISCA 2024), built on
//! the `pgmoe-device` simulator and the `pgmoe-model` model zoo.
//!
//! Expert migration is a *pluggable policy*: the public [`ExpertScheduler`]
//! trait decides what to fetch, when, and for which MoE block, and a single
//! shared decode core executes those decisions for every serving path
//! (batch-1 [`InferenceSim`], continuous-batching [`BatchScheduler`], QoS
//! [`serve_stream`], and the multi-replica [`fleet`] layer with its
//! pluggable [`DispatchPolicy`] and iso-GPU expert-parallel backend
//! [`PolicySpec::expert_parallel`]). The paper's four design points
//! (Section V) ship as built-in schedulers behind the [`OffloadPolicy`]
//! convenience enum:
//!
//! * [`OffloadPolicy::GpuOnly`] — the oracular upper bound: every parameter
//!   in HBM, no migration (OOMs on Switch-Large-128's 105.6 GB).
//! * [`OffloadPolicy::OnDemand`] — HuggingFace-Accelerate-style
//!   fetch-on-demand: the gate must finish before the activated experts are
//!   fetched, serializing selection → migration → execution.
//! * [`OffloadPolicy::PrefetchAll`] — SE-MoE-style prefetch-all: the *entire*
//!   next block's expert set migrates during the current block's execution.
//! * [`OffloadPolicy::Pregated`] — the paper's co-design: the pre-gate at
//!   block `N` selects the experts for block `N+1`, so only the *activated*
//!   experts migrate, overlapped with block `N`'s execution (Figs 7–9).
//!
//! Two schedulers the old closed enum could not express ship alongside
//! them: [`PolicySpec::speculative_top_m`] (top-m prefetch margin, trading
//! link bytes for on-demand miss stalls) and [`PolicySpec::cache_pinned`]
//! (frequency-pinned residents + pre-gated tail). Write your own by
//! implementing [`ExpertScheduler`] + [`SchedulerFactory`] — see
//! `examples/custom_policy.rs` and the [`scheduler`] module docs.
//!
//! [`InferenceSim`] runs a decode workload under a policy and reports
//! per-MoE-block latency (Fig 10), end-to-end throughput (Fig 11), and peak
//! GPU memory (Fig 12, Equation 1). [`ExpertCache`] adds the LIFO/LFU/LRU
//! expert-buffering study (Fig 15), and [`SimOptions::offload_tier`] switches
//! CPU DRAM for SSD (Fig 16).
//!
//! # Example
//!
//! ```
//! use pgmoe_model::ModelConfig;
//! use pgmoe_runtime::{InferenceSim, OffloadPolicy, SimOptions};
//! use pgmoe_workload::DecodeRequest;
//!
//! let cfg = ModelConfig::switch_base(8);
//! let opts = SimOptions::new(OffloadPolicy::Pregated);
//! let report = InferenceSim::new(cfg, opts).run(DecodeRequest::paper_default(), 1)?;
//! assert!(report.tokens_per_sec > 0.0);
//! # Ok::<(), pgmoe_runtime::RuntimeError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod batch;
mod cache;
pub mod control;
mod core;
mod engine;
mod error;
pub mod fleet;
mod kv;
mod memory;
mod multi_gpu;
pub mod plan;
mod policy;
mod report;
pub mod scheduler;
mod serve;
pub mod session;

pub use batch::{serve_batched, BatchConfig, BatchScheduler};
pub use cache::{CacheStats, ExpertCache, ExpertKey};
pub use control::{
    ControlAction, ControlOptions, ControlStats, ControlWindow, ControlledFleet, DriftSwitcher,
    FleetController, NoControl, QueueAutoScaler, ReplicaObs,
};
pub use engine::{InferenceSim, RunReport};
pub use error::{Result, RuntimeError};
pub use fleet::{
    serve_cluster, CacheAffinity, DispatchPolicy, FleetConfig, FleetSim, FleetStats,
    JoinShortestQueue, ReplicaView, RequestProfile, RoundRobin,
};
pub use kv::{BlockTable, KvBlockPool, KvPoolStats, KvServeStats, PagedKvConfig};
pub use memory::{kv_bytes, PlacementPlan};
pub use multi_gpu::{simulate_expert_parallel, ClusterConfig, ClusterReport};
pub use plan::{CompiledPlan, PlanBytes, PlanCacheStats, PlanOp, PlanTrace};
pub use policy::{CacheCapacity, CacheConfig, OffloadPolicy, Replacement, SimOptions};
pub use report::{
    csv_block_latencies, csv_fleet_summary, csv_peak_memory, csv_throughputs, LatencySummary,
};
pub use scheduler::{
    ExecPlan, ExpertScheduler, FetchSet, HbmPlan, MemoryProfile, Phase, PolicyCtx, PolicySpec,
    Prefetch, Residency, SchedulerFactory, SchedulerSetup,
};
pub use serve::{serve_stream, ServeStats};
pub use session::{AbortedRequest, Admission, BatchSession, LiveRouting, TokenEvent};
