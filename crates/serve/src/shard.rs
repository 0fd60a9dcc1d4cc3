//! What only S > 1 needs: the cloudlet partition and the cross-shard
//! rescue. The serving pipeline itself is [`crate::daemon`], the same
//! for every S.
//!
//! Cloudlet `j` belongs to shard `j mod S`, and each shard runs its own
//! primal-dual scheduler (own `DualPrices`, own `CapacityLedger`) over a
//! sub-instance holding only its cloudlets. When an off-site shard's own
//! cloudlets cannot reach a request's reliability target, its decide
//! loop runs a *cross-shard rescue*: quote every shard's sites one lock
//! at a time, then two-phase reserve/commit capacity on the foreign
//! ledgers ([`vnfrel::CapacityLedger::try_reserve_window`] /
//! [`vnfrel::CapacityLedger::commit_reservation`]). Reservations re-check
//! capacity under the owner's lock, so concurrent rescues never
//! double-charge a cell; an abandoned rescue cancels every hold. The
//! relaxations this buys are listed in DESIGN.md §12.

use std::net::SocketAddr;
use std::sync::{mpsc, Mutex, MutexGuard};
use std::thread::{Scope, ScopedJoinHandle};

use mec_obs::{
    DecisionEvent, LastEventSink, MetricsRegistry, Outcome, RejectReason, SitePlacement, TraceEvent,
};
use mec_topology::{CloudletId, NetworkBuilder};
use mec_workload::Request;
use vnfrel::offsite::OffsitePrimalDual;
use vnfrel::onsite::{CapacityPolicy, OnsitePrimalDual};
use vnfrel::{OnlineScheduler, ProblemInstance, Scheme};

use crate::daemon::{
    self, lock, ExternalSite, Hub, ServeConfig, ServeReport, Shard, ShardCore, ShardScheduler,
};
use crate::error::ServeError;
use crate::metrics::ServeMetricIds;

/// The config of a sharded daemon: the one [`ServeConfig`], with
/// [`ServeConfig::shards`] set.
pub type ShardedConfig = ServeConfig;

/// What a sharded daemon reports: the one [`ServeReport`].
pub type ShardedReport = ServeReport;

/// Runs the daemon over `config.shards` region shards built from
/// `instance` until a `shutdown` control message or a termination
/// signal, then drains every shard queue and returns aggregate counters.
/// `scheme` picks the primal-dual Algorithm 1 (on-site) or Algorithm 2
/// (off-site); `on_bound` receives the bound address once listening.
///
/// # Errors
///
/// [`ServeError::Net`] on bind failure, [`ServeError::Config`] for an
/// invalid shard count, a one-shard-only option at S > 1, or scheduler
/// construction failure.
pub fn serve_sharded(
    instance: &ProblemInstance,
    scheme: Scheme,
    registry: &MetricsRegistry,
    ids: &ServeMetricIds,
    config: &ShardedConfig,
    on_bound: Option<mpsc::Sender<SocketAddr>>,
) -> Result<ShardedReport, ServeError> {
    let subs = build_shard_instances(instance, config.shards)?;
    let cores = subs
        .iter()
        .enumerate()
        .map(|(s, sub)| {
            let sched = match scheme {
                Scheme::OnSite => ShardSched::Onsite(
                    OnsitePrimalDual::with_sink(sub, CapacityPolicy::Enforce, LastEventSink::new())
                        .map_err(|e| ServeError::Config(e.to_string()))?,
                ),
                Scheme::OffSite => ShardSched::Offsite(
                    OffsitePrimalDual::with_sink(sub, LastEventSink::new()),
                    sub,
                ),
            };
            // Shard s is home to the ids ≡ s mod S, the first being s.
            Ok(Mutex::new(ShardCore::new(sched, s)))
        })
        .collect::<Result<Vec<_>, ServeError>>()?;
    daemon::run(&cores, instance.horizon(), registry, ids, config, on_bound)
}

/// Builds the per-shard sub-instances: shard `s` holds every cloudlet
/// `j` with `j mod shards == s`, keeping its capacity and reliability.
/// Local id `l` on shard `s` is global cloudlet `l·S + s`.
///
/// # Errors
///
/// [`ServeError::Config`] when `shards` is zero or exceeds the cloudlet
/// count (a shard with no cloudlets cannot schedule anything).
pub(crate) fn build_shard_instances(
    instance: &ProblemInstance,
    shards: usize,
) -> Result<Vec<ProblemInstance>, ServeError> {
    let m = instance.cloudlet_count();
    if shards == 0 || shards > m {
        return Err(ServeError::Config(format!(
            "--shards must be in 1..={m} for this scenario (got {shards})"
        )));
    }
    let mut subs = Vec::with_capacity(shards);
    for s in 0..shards {
        let mut b = NetworkBuilder::new();
        for c in instance.network().cloudlets() {
            let g = c.id().index();
            if g % shards != s {
                continue;
            }
            let ap = b.add_ap(format!("shard{s}-c{g}"));
            b.add_cloudlet(ap, c.capacity(), c.reliability())
                .map_err(|e| ServeError::Config(format!("shard {s} network: {e}")))?;
        }
        let net = b
            .build()
            .map_err(|e| ServeError::Config(format!("shard {s} network: {e}")))?;
        let sub = ProblemInstance::new(net, instance.catalog().clone(), instance.horizon())
            .map_err(|e| ServeError::Config(format!("shard {s} instance: {e}")))?;
        subs.push(sub);
    }
    Ok(subs)
}

/// One shard's primal-dual scheduler over its sub-instance.
pub(crate) enum ShardSched<'i> {
    Onsite(OnsitePrimalDual<'i, LastEventSink>),
    // The sub-instance rides along for the rescue's compute lookups.
    Offsite(OffsitePrimalDual<'i, LastEventSink>, &'i ProblemInstance),
}

impl ShardScheduler for ShardSched<'_> {
    fn scheduler(&self) -> &dyn OnlineScheduler {
        match self {
            ShardSched::Onsite(s) => s,
            ShardSched::Offsite(s, _) => s,
        }
    }

    fn scheduler_mut(&mut self) -> &mut dyn OnlineScheduler {
        match self {
            ShardSched::Onsite(s) => s,
            ShardSched::Offsite(s, _) => s,
        }
    }

    fn take_event(&mut self) -> Option<TraceEvent> {
        match self {
            ShardSched::Onsite(s) => s.sink_mut().take(),
            ShardSched::Offsite(s, _) => s.sink_mut().take(),
        }
    }

    fn rescues(&self) -> bool {
        matches!(self, ShardSched::Offsite(..))
    }

    fn rescue(cores: &[Mutex<ShardCore<Self>>], request: &Request) -> DecisionEvent {
        let outcome = rescue_offsite(cores, request).unwrap_or(Outcome::Reject {
            reason: RejectReason::ReliabilityInfeasible,
            dual_cost: None,
            margin: None,
        });
        DecisionEvent {
            request: request.id().index(),
            algorithm: "alg2-primal-dual".to_string(),
            scheme: "offsite".to_string(),
            slot: request.arrival(),
            payment: request.payment(),
            outcome,
        }
    }

    fn apply_external(&mut self, site: &ExternalSite) {
        let ShardSched::Offsite(s, _) = self else {
            unreachable!("external sites only exist in off-site mode");
        };
        s.ledger_mut()
            .charge(site.local, site.first..site.last + 1, site.compute);
        price_external(s, site);
    }

    fn spawn_rest<'scope, 'env>(
        scope: &'scope Scope<'scope, 'env>,
        hub: &'env Hub<'env>,
        cores: &'env [Mutex<ShardCore<Self>>],
    ) -> Vec<ScopedJoinHandle<'scope, Result<(), ServeError>>> {
        (1..cores.len())
            .map(|s| scope.spawn(move || Shard::new(s, hub, cores).supervise()))
            .collect()
    }
}

// Gives the owner's dual prices the Eq. 67 update for a foreign charge.
fn price_external(sched: &mut OffsitePrimalDual<'_, LastEventSink>, site: &ExternalSite) {
    let window = (site.first, site.last);
    let (compute, ln_target) = (site.compute, site.ln_target);
    sched.record_external_site(
        site.local,
        window,
        compute,
        site.ln_coef,
        ln_target,
        site.payment,
    );
}

// A locked shard's off-site scheduler (rescues run only between
// off-site shards).
fn offsite<'g, 'i>(
    guard: &'g mut MutexGuard<'_, ShardCore<ShardSched<'i>>>,
) -> &'g mut OffsitePrimalDual<'i, LastEventSink> {
    match &mut guard.sched {
        ShardSched::Offsite(sched, _) => sched,
        ShardSched::Onsite(_) => unreachable!("rescue only runs in off-site mode"),
    }
}

// A quoted off-site candidate during a cross-shard rescue.
struct RescueSite {
    shard: usize,
    local: CloudletId,
    global: usize,
    ratio: f64,
    ln_coef: f64,
}

// The cross-shard rescue: Algorithm 2's selection re-run over the whole
// fleet with two-phase capacity holds.
//
// 1. *Quote* every cloudlet's price ratio and ln-coefficient, one shard
//    lock at a time, keeping those that pass `pay + ln_target·compute·
//    ratio > 0`.
// 2. *Reserve* in (ratio, global id) order until `Σ ln_coef` reaches
//    `ln_target = ln(1 − R_i)`; each hold re-checks capacity.
// 3. *Commit* every hold and give its owner the Eq. 67 price update, or
//    *cancel* every hold if the target is out of reach.
//
// Quoted prices may be stale by step 3 (a documented relaxation);
// capacity is never oversubscribed because the reserve re-checks it.
fn rescue_offsite(
    cores: &[Mutex<ShardCore<ShardSched<'_>>>],
    request: &Request,
) -> Option<Outcome> {
    let shards = cores.len();
    let vnf = request.vnf();
    let first = request.arrival();
    let last = first + request.duration() - 1;
    let payment = request.payment();
    let ln_target = request.reliability_requirement().ln_failure();

    let compute = match &lock(&cores[0]).sched {
        ShardSched::Offsite(_, sub) => sub.catalog().get(vnf)?.compute() as f64,
        ShardSched::Onsite(_) => return None,
    };

    // Phase 1: quotes, one shard lock at a time.
    let mut sites: Vec<RescueSite> = Vec::new();
    for (s, core) in cores.iter().enumerate() {
        let mut guard = lock(core);
        let sched = offsite(&mut guard);
        for l in 0..sched.ledger().cloudlet_count() {
            let local = CloudletId(l);
            let (ratio, ln_coef) = sched.site_quote(vnf, local, first, last);
            if payment + ln_target * compute * ratio > 0.0 {
                sites.push(RescueSite {
                    shard: s,
                    local,
                    global: l * shards + s,
                    ratio,
                    ln_coef,
                });
            }
        }
    }
    sites.sort_by(|a, b| {
        a.ratio
            .partial_cmp(&b.ratio)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.global.cmp(&b.global))
    });

    // Phase 2: reserve until the log-reliability target is met.
    let mut ln_sum = 0.0f64;
    let mut held: Vec<(vnfrel::ReservationId, RescueSite)> = Vec::new();
    for site in sites {
        if ln_sum <= ln_target {
            break;
        }
        let mut guard = lock(&cores[site.shard]);
        if let Some(rid) = offsite(&mut guard)
            .ledger_mut()
            .try_reserve_window(site.local, first, last, compute)
        {
            ln_sum += site.ln_coef;
            held.push((rid, site));
        }
    }

    if ln_sum > ln_target {
        // Unreachable target: cancel every hold, reject.
        for (rid, site) in held {
            let mut guard = lock(&cores[site.shard]);
            offsite(&mut guard)
                .ledger_mut()
                .cancel_reservation(rid)
                .expect("rescue holds are cancelled exactly once");
        }
        return None;
    }

    // Phase 3: commit every hold and bring the owners' prices in line.
    let mut placements: Vec<SitePlacement> = Vec::with_capacity(held.len());
    let mut total_cost = 0.0f64;
    let mut worst_ratio = 0.0f64;
    for (rid, site) in held {
        let mut guard = lock(&cores[site.shard]);
        let sched = offsite(&mut guard);
        sched
            .ledger_mut()
            .commit_reservation(rid)
            .expect("rescue holds are committed exactly once");
        let external = ExternalSite {
            local: site.local,
            first,
            last,
            compute,
            ln_coef: site.ln_coef,
            ln_target,
            payment,
        };
        price_external(sched, &external);
        // Logged under the owner's lock, so a panicked owner replays it.
        guard.log_external(external);
        let dual_cost = site.ratio * (-site.ln_coef);
        total_cost += dual_cost;
        worst_ratio = worst_ratio.max(site.ratio);
        placements.push(SitePlacement {
            cloudlet: site.global,
            instances: 1,
            dual_cost,
        });
    }
    Some(Outcome::Admit {
        dual_cost: total_cost,
        // Algorithm 2's margin is its δ_i bookkeeping value (Eq. 66,
        // computed from the worst accepted ratio), not pay − cost.
        margin: payment + ln_target * compute * worst_ratio,
        sites: placements,
    })
}
