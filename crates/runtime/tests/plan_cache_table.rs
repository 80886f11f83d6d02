//! Compiled decode plans are an optimisation, never a behaviour: across
//! every built-in scheduler, with and without an expert cache, on both
//! serving drivers, both routing shapes and both precisions, the default
//! run must equal the `without_plan_cache()` run on every report field
//! except the plan counters. The table also pins *where* plans compile:
//! the four count-keyed built-ins replay without a cache, while
//! cache-attached runs and the id- or state-reading schedulers never
//! compile at all.

use pgmoe_model::{ExpertPrecision, ModelConfig};
use pgmoe_runtime::{
    serve_batched, BatchConfig, CacheConfig, InferenceSim, OffloadPolicy, PolicySpec, Replacement,
    SimOptions,
};
use pgmoe_workload::{ArrivalProcess, ArrivalStream, DecodeRequest, RoutingKind};

fn schedulers() -> Vec<(PolicySpec, bool)> {
    vec![
        (OffloadPolicy::GpuOnly.into(), true),
        (OffloadPolicy::OnDemand.into(), true),
        (OffloadPolicy::PrefetchAll.into(), true),
        (OffloadPolicy::Pregated.into(), true),
        (PolicySpec::speculative_top_m(4), false),
        (PolicySpec::cache_pinned(4), false),
    ]
}

/// `(report with its plan counters zeroed, rendered bitwise; hits; misses)`.
type Outcome = (String, u64, u64);

/// A serving driver: runs one configuration and reports its [`Outcome`].
type Driver = fn(&ModelConfig, SimOptions) -> Outcome;

fn batch1(cfg: &ModelConfig, opts: SimOptions) -> Outcome {
    let request = DecodeRequest { input_tokens: 16, output_tokens: 24, batch_size: 1 };
    let mut r = InferenceSim::new(cfg.clone(), opts).run(request, 2).unwrap();
    let counts = (r.plan_cache_hits, r.plan_cache_misses);
    (r.plan_cache_hits, r.plan_cache_misses) = (0, 0);
    (format!("{r:?}"), counts.0, counts.1)
}

fn batched(cfg: &ModelConfig, opts: SimOptions) -> Outcome {
    let request = DecodeRequest { input_tokens: 16, output_tokens: 24, batch_size: 1 };
    let arrivals =
        ArrivalStream::new(ArrivalProcess::Poisson { rate_per_sec: 200.0 }, request, 1, 11).take(8);
    let mut s = serve_batched(cfg.clone(), opts, BatchConfig::new(4), arrivals).unwrap();
    let counts = (s.plan_cache_hits, s.plan_cache_misses);
    (s.plan_cache_hits, s.plan_cache_misses) = (0, 0);
    (format!("{s:?}"), counts.0, counts.1)
}

#[test]
fn plan_cache_is_invisible_and_compiles_only_where_it_replays() {
    let cfg = ModelConfig::switch_base(16);
    let drivers: [(&str, Driver); 2] = [("batch-1", batch1), ("batched-4", batched)];
    let routings = [RoutingKind::Uniform, RoutingKind::Zipf { s: 1.6 }];
    let precisions = [ExpertPrecision::F32, ExpertPrecision::Int8];
    let mut rows = 0;
    for (spec, count_keyed) in schedulers() {
        for cache in [None, Some(CacheConfig::new(0.25, Replacement::Lru))] {
            for (driver, run) in drivers {
                for routing in routings {
                    for precision in precisions {
                        let mut opts = SimOptions::new(spec.clone())
                            .with_routing(routing)
                            .with_expert_precision(precision)
                            .with_seed(5);
                        if let Some(c) = cache {
                            opts = opts.with_cache(c);
                        }
                        let row = format!(
                            "{} cache={} {driver} {routing:?} {precision:?}",
                            spec.name(),
                            cache.is_some()
                        );
                        let (on, hits, misses) = run(&cfg, opts.clone());
                        let (off, off_hits, off_misses) = run(&cfg, opts.without_plan_cache());
                        assert_eq!(on, off, "{row}: plan-on must equal plan-off bitwise");
                        assert_eq!((off_hits, off_misses), (0, 0), "{row}: plan-off compiled");
                        if count_keyed && cache.is_none() {
                            assert!(
                                hits > 0,
                                "{row}: count-keyed plans must replay ({misses} misses)"
                            );
                        } else {
                            assert_eq!((hits, misses), (0, 0), "{row}: must never compile");
                        }
                        rows += 1;
                    }
                }
            }
        }
    }
    assert_eq!(rows, 6 * 2 * 2 * 2 * 2);
}
