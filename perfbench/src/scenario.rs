//! Seeded inputs. The same seed gives the same request streams; the
//! program under test receives only these.
//!
//! The network is drawn once from [`TOPOLOGY_SEED`] for every run, so
//! the seed varies the traffic and not the fleet: a different seed must
//! not change total capacity, or revenue and admit ratios would swing
//! with the draw instead of the code. The streams are drawn in the
//! order `vnfrel chain --mixed` draws them (singles, then chains).

use std::time::Instant;

use mec_topology::generators::CloudletPlacement;
use mec_topology::zoo::ZooTopology;
use mec_workload::{ChainGenerator, ChainRequest, Horizon, Request, RequestGenerator, VnfCatalog};
use rand::SeedableRng as _;
use rand_chacha::ChaCha8Rng;
use vnfrel::ProblemInstance;

/// Seed of the cloudlet placement draws (capacities, reliabilities).
pub const TOPOLOGY_SEED: u64 = 1;

/// The shape of a single-VNF scenario.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Topology constructor.
    pub topology: fn() -> ZooTopology,
    /// Inclusive cloudlet capacity range.
    pub capacity: (u64, u64),
    /// Horizon length in slots.
    pub horizon: usize,
    /// Number of single-VNF requests.
    pub requests: usize,
}

/// A chain workload on top of a [`Shape`] (whose requests are the
/// singles mixed into it).
#[derive(Debug, Clone, Copy)]
pub struct ChainShape {
    /// Number of chain requests.
    pub chains: usize,
}

/// A built scenario, with what its construction cost.
#[derive(Debug)]
pub struct Scenario {
    /// Network + catalog + horizon.
    pub instance: ProblemInstance,
    /// Single-VNF request stream, in arrival order.
    pub requests: Vec<Request>,
    /// Chain request stream (empty for single-VNF workloads).
    pub chains: Vec<ChainRequest>,
    /// Seconds spent on topology + `ProblemInstance`.
    pub instance_s: f64,
    /// Seconds spent generating the single-VNF requests.
    pub generate_s: f64,
}

/// Builds a scenario from `shape` (and `chain`, if any) and `seed`.
///
/// # Panics
///
/// Panics if a compile-time shape is invalid, which is a benchmark bug.
pub fn build(shape: &Shape, chain: Option<&ChainShape>, seed: u64) -> Scenario {
    let started = Instant::now();
    let placement = CloudletPlacement {
        fraction: 0.5,
        capacity: shape.capacity,
        reliability: (0.99, 0.9999),
    };
    let network = (shape.topology)()
        .into_network(&placement, &mut ChaCha8Rng::seed_from_u64(TOPOLOGY_SEED))
        .expect("zoo topology materializes");
    let instance =
        ProblemInstance::new(network, VnfCatalog::standard(), Horizon::new(shape.horizon))
            .expect("valid instance");
    let instance_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let requests = RequestGenerator::new(instance.horizon())
        .reliability_band(0.9, 0.95)
        .expect("valid band")
        .payment_rate_band(1.0, 10.0)
        .expect("valid band")
        .generate(shape.requests, instance.catalog(), &mut rng)
        .expect("valid workload");
    let generate_s = started.elapsed().as_secs_f64();
    let chains = chain.map_or_else(Vec::new, |c| {
        ChainGenerator::new(instance.horizon(), instance.network().ap_count())
            .length_band(1, 3)
            .expect("valid band")
            .reliability_band(0.9, 0.95)
            .expect("valid band")
            .payment_rate_band(1.0, 10.0)
            .expect("valid band")
            .latency_budget_band(3.0, 12.0)
            .expect("valid band")
            .generate(c.chains, instance.catalog(), &mut rng)
            .expect("valid chain workload")
    });
    Scenario {
        instance,
        requests,
        chains,
        instance_s,
        generate_s,
    }
}
