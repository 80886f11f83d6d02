//! # pgmoe-device
//!
//! A discrete-event simulator of the heterogeneous memory/compute system the
//! Pre-gated MoE paper (ISCA 2024) evaluates on: a GPU with HBM, a host CPU
//! with large DDR, an SSD, and the PCIe links between them.
//!
//! The paper's system contribution is an *overlap structure* — whether the
//! CPU→GPU migration of activated experts serializes with, or overlaps, the
//! MoE block's execution. This crate reproduces exactly that structure:
//!
//! * [`SimEngine`] — a dataflow discrete-event engine with CUDA-like
//!   [`StreamId`]s (in-order queues) and [`EventId`]s (cross-stream
//!   dependencies). Op durations come from an analytic [`CostModel`]; start
//!   times are resolved from stream order, event waits and resource
//!   occupancy, giving a deterministic, nanosecond-resolution timeline.
//! * [`MemoryPool`] — capacity-tracked memory tiers with peak accounting and
//!   out-of-memory errors (this is what reproduces Fig 12 and the
//!   Switch-Large OOM of Figs 10–11).
//! * [`Link`] — bandwidth/latency models for PCIe gen4 and SSD.
//! * [`CostModel`] — kernel/transfer timing calibrated against the paper's
//!   operating point (see [`CostModel::a100_pcie4`]).
//! * [`Machine`] — a ready-wired A100-class machine with one compute stream
//!   and one copy stream, the configuration used by every experiment.
//!
//! # Example
//!
//! ```
//! use pgmoe_device::{Machine, MachineConfig, Tier};
//!
//! let mut m = Machine::new(MachineConfig::a100_like());
//! let fetch = m.copy_to_gpu("expert0", 18_874_368, Tier::Ddr, &[]);
//! let exec = m.launch_kernel("ffn", 1.0e9, 18_874_368, &[fetch]);
//! assert!(m.event_time(exec) > m.event_time(fetch));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod engine;
mod error;
mod hash;
mod link;
mod machine;
mod memory;
mod time;
mod trace;

pub use cost::CostModel;
pub use engine::{EventId, ResourceId, SimEngine, StreamId};
pub use error::{DeviceError, Result};
pub use hash::{IntBuildHasher, IntHasher};
pub use link::Link;
pub use machine::{Machine, MachineConfig};
pub use memory::{AllocId, MemoryPool, Tier};
pub use time::{SimDuration, SimTime};
pub use trace::{render_timeline, TraceSpan};
