//! Sub-layer attribution of the served `SwitchNet` forward pass.
//!
//! `SwitchNet` keeps its layers private, so [`AttributedNet`] rebuilds the
//! same network from the public layer constructors, drawing from the same
//! seeded RNG in the same order, and runs the same inference sequence with
//! a timer around each public layer call. [`AttributedNet::forward`] must
//! return logits bit-identical to `SwitchNet::forward_inference_arena`; the
//! benchmark checks that, so the attribution times the real computation.

use pgmoe_model::net::{MoeFfn, RouteDecision, Router, SwitchNetConfig};
use pgmoe_model::GateTopology;
use pgmoe_tensor::nn::{CausalSelfAttention, Embedding, LayerNorm, Linear, Param};
use pgmoe_tensor::{init, ScratchArena, Tensor};
use rand::Rng;
use std::time::Instant;

/// Per-layer metrics of the sub-layers timed per forward pass, in
/// [`SublayerNs::ns`] order.
pub const SUBLAYER_METRICS: [&str; 5] =
    ["model.attn_us", "model.norm_us", "model.router_us", "model.moe_us", "model.head_us"];

/// Nanoseconds spent per sub-layer during one forward pass, indexed like
/// [`SUBLAYER_METRICS`]; `other` covers embedding and residual adds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SublayerNs {
    /// Per-sub-layer time.
    pub ns: [u64; 5],
    /// Embedding lookup and residual adds, outside the listed sub-layers.
    pub other: u64,
}

impl SublayerNs {
    /// Sum of the listed sub-layers.
    pub fn listed(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Accumulates another pass.
    pub fn add(&mut self, o: &SublayerNs) {
        for (a, b) in self.ns.iter_mut().zip(o.ns) {
            *a += b;
        }
        self.other += o.other;
    }
}

struct Block {
    attn: CausalSelfAttention,
    ln1: LayerNorm,
    ln2: LayerNorm,
    moe: MoeFfn,
}

/// The served network, rebuilt from public layers with per-call timers.
pub struct AttributedNet {
    cfg: SwitchNetConfig,
    topo: GateTopology,
    tok_emb: Embedding,
    pos_emb: Param,
    blocks: Vec<Block>,
    routers: Vec<Router>,
    final_ln: LayerNorm,
    out_proj: Linear,
}

impl AttributedNet {
    /// Builds the network `SwitchNet::new(cfg, rng)` would build.
    pub fn new(cfg: SwitchNetConfig, rng: &mut impl Rng) -> Self {
        let blocks = (0..cfg.num_blocks)
            .map(|_| Block {
                attn: CausalSelfAttention::new(cfg.d_model, rng),
                ln1: LayerNorm::new(cfg.d_model),
                ln2: LayerNorm::new(cfg.d_model),
                moe: MoeFfn::new(cfg.num_experts, cfg.d_model, cfg.d_ff, rng),
            })
            .collect();
        let routers =
            (0..cfg.num_blocks).map(|_| Router::new(cfg.d_model, cfg.num_experts, rng)).collect();
        AttributedNet {
            tok_emb: Embedding::new(cfg.vocab, cfg.d_model, rng),
            pos_emb: Param::new(init::normal([cfg.seq_len, cfg.d_model], 0.0, 0.02, rng)),
            blocks,
            routers,
            final_ln: LayerNorm::new(cfg.d_model),
            out_proj: Linear::new(cfg.d_model, cfg.vocab, true, rng),
            topo: GateTopology::new(cfg.num_blocks, cfg.mode),
            cfg,
        }
    }

    /// One inference forward over a full window, timing every sub-layer
    /// call into `t`. Returns the logits and per-block routing decisions.
    pub fn forward(
        &self,
        tokens: &[usize],
        arena: &ScratchArena,
        t: &mut SublayerNs,
    ) -> (Tensor, Vec<RouteDecision>) {
        assert_eq!(tokens.len(), self.cfg.seq_len, "sequence length mismatch");
        let mut clock = Instant::now();
        let mut lap = |slot: Option<usize>, t: &mut SublayerNs| {
            let now = Instant::now();
            let ns = now.duration_since(clock).as_nanos() as u64;
            clock = now;
            match slot {
                Some(i) => t.ns[i] += ns,
                None => t.other += ns,
            }
        };
        let table = &self.tok_emb.table.value;
        let mut x = arena.take([self.cfg.seq_len, self.cfg.d_model]);
        for (row, &tok) in tokens.iter().enumerate() {
            x.row_mut(row).copy_from_slice(table.row(tok));
        }
        x.add_scaled_inplace(&self.pos_emb.value, 1.0);
        lap(None, t);
        let mut pending: Vec<Option<RouteDecision>> = vec![None; self.cfg.num_blocks];
        let mut used = Vec::with_capacity(self.cfg.num_blocks);
        for b in 0..self.cfg.num_blocks {
            let block = &self.blocks[b];
            let mut a = block.attn.forward_inference_arena(&x, arena);
            lap(Some(0), t);
            a.add_scaled_inplace(&x, 1.0);
            arena.recycle(x);
            lap(None, t);
            let h = block.ln1.forward_inference_arena(&a, arena);
            lap(Some(1), t);
            arena.recycle(a);
            lap(None, t);
            for target in self.topo.gates_hosted_at(b) {
                pending[target] = Some(self.routers[target].route_inference(&h));
            }
            let dec = pending[b].take().expect("topology must route every block");
            lap(Some(2), t);
            let mut m = block.moe.forward_inference_arena(&h, &dec, arena);
            lap(Some(3), t);
            m.add_scaled_inplace(&h, 1.0);
            arena.recycle(h);
            used.push(dec);
            lap(None, t);
            x = block.ln2.forward_inference_arena(&m, arena);
            lap(Some(1), t);
            arena.recycle(m);
            lap(None, t);
        }
        let y = self.final_ln.forward_inference_arena(&x, arena);
        lap(Some(1), t);
        arena.recycle(x);
        lap(None, t);
        let logits = self.out_proj.forward_inference_arena(&y, arena);
        lap(Some(4), t);
        arena.recycle(y);
        lap(None, t);
        (logits, used)
    }
}

/// Floating-point operations and bytes moved by one forward pass, computed
/// from tensor shapes (not measured). `active_experts` is the number of
/// distinct experts the pass ran, summed over blocks.
pub fn computed_cost(cfg: &SwitchNetConfig, active_experts: usize) -> (f64, f64) {
    let (t, d, f, e, v) = (
        cfg.seq_len as f64,
        cfg.d_model as f64,
        cfg.d_ff as f64,
        cfg.num_experts as f64,
        cfg.vocab as f64,
    );
    let blocks = cfg.num_blocks as f64;
    // One [T, d] f32 activation.
    let act = t * d * 4.0;
    // Attention: four d x d projections, QK^T and AV, masked softmax.
    let attn_flops = 4.0 * 2.0 * t * d * d + 2.0 * 2.0 * t * t * d + 5.0 * t * t;
    let attn_bytes = 4.0 * d * d * 4.0 + 2.0 * act + 3.0 * act + 2.0 * t * t * 4.0;
    // LayerNorm: mean, variance, normalize, scale, shift.
    let norm_flops = 8.0 * t * d;
    let norm_bytes = 2.0 * act + 2.0 * d * 4.0;
    let router_flops = 2.0 * t * d * e + 5.0 * t * e;
    let router_bytes = (d * e + e) * 4.0 + act + t * e * 4.0;
    // Top-1 experts: every token runs one d -> d_ff -> d FFN plus gating.
    let moe_flops = 2.0 * 2.0 * t * d * f + t * f + t * d;
    let expert_weights = (d * f + f + f * d + d) * 4.0;
    let moe_bytes_fixed = 2.0 * act + 2.0 * t * f * 4.0;
    let residual_flops = 2.0 * t * d;
    let head_flops = 2.0 * t * d * v + t * v;
    let head_bytes = (d * v + v) * 4.0 + act + t * v * 4.0;
    let flops = blocks
        * (attn_flops + 2.0 * norm_flops + router_flops + moe_flops + residual_flops)
        + norm_flops
        + head_flops;
    let bytes = blocks * (attn_bytes + 2.0 * norm_bytes + router_bytes + moe_bytes_fixed)
        + active_experts as f64 * expert_weights
        + norm_bytes
        + head_bytes;
    (flops, bytes)
}
