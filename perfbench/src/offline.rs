//! The two offline workloads: long-horizon replays through every
//! single-VNF scheduler and the fault simulator, and mixed single +
//! chain replays on GÉANT. No socket is opened.

use std::time::Instant;

use mec_obs::{ChainRejectReason, NoopSink};
use mec_sim::failure::inject_failures_parallel;
use mec_sim::{
    inject_chain_failures, DegradationConfig, FailureConfig, FailureProcess, MixedSimulation,
    RecoveryPolicy, RunMetrics, RunReport, Simulation,
};
use mec_topology::{zoo, FailureDomainSet};
use mec_workload::{ChainRequestId, Request, RequestId};
use rand::SeedableRng as _;
use rand_chacha::ChaCha8Rng;
use vnfrel::chain::{
    BackupMode, ChainPrimalDual, ChainSchedule, ChainScheduler as _, DEFAULT_MASS_CAP,
};
use vnfrel::offsite::{OffsiteGreedy, OffsitePrimalDual};
use vnfrel::onsite::{CapacityPolicy, OnsiteGreedy, OnsitePrimalDual};
use vnfrel::{OnlineScheduler, ProblemInstance};

use crate::host;
use crate::report::Report;
use crate::scenario::{self, ChainShape, Scenario, Shape};
use crate::stats::{median, ns_between, Samples, Windows};
use crate::Budget;

/// `offline-long-horizon` trace: 200,000 requests over 16,000 slots.
pub const LONG_SHAPE: Shape = Shape {
    topology: zoo::abilene,
    capacity: (8, 12),
    horizon: 16_000,
    requests: 200_000,
};
/// The fault-simulation slice: the same request density over a
/// twentieth of the horizon. The fault-aware slot loops grow
/// quadratically with the trace (a 200,000-request replay takes
/// minutes), so they run on this.
const FAULT_SHAPE: Shape = Shape {
    topology: zoo::abilene,
    capacity: (8, 12),
    horizon: 800,
    requests: 10_000,
};
/// Monte-Carlo trials of the single-VNF availability referee.
const MC_TRIALS: usize = 500;
/// Worker threads of the Monte-Carlo referee (`nproc` on the reference host).
const MC_THREADS: usize = 2;
/// z-score of the statistical-violation test of both referees.
const Z: f64 = 3.0;
/// Salt of the second, independent referee campaign (see [`confirm`]).
const CONFIRM_SALT: u64 = 0x5eed_c0f1;

/// How many of the `flagged` ids a second, independent campaign flags
/// again. The z = 3 test runs once per admitted request (~90,000 on the
/// long horizon), so a single campaign flags one or two requests whose
/// availability sits at their target by chance alone, and a different
/// one for every trial seed. A real shortfall is flagged by both.
fn confirm<T: PartialEq>(flagged: &[T], again: impl FnOnce() -> Vec<T>) -> usize {
    if flagged.is_empty() {
        return 0;
    }
    let second = again();
    flagged.iter().filter(|id| second.contains(id)).count()
}
/// Band the primal-dual schedulers' admit ratios must fall in.
const LONG_ADMIT_BAND: (f64, f64) = (0.28, 0.55);

/// `offline-chains` trace: 4,000 singles and 4,000 chains over 320 slots
/// on GÉANT.
pub const CHAIN_SHAPE: Shape = Shape {
    topology: zoo::geant,
    capacity: (8, 12),
    horizon: 320,
    requests: 4_000,
};
/// Chains mixed into [`CHAIN_SHAPE`].
pub const CHAINS: ChainShape = ChainShape { chains: 4_000 };
/// Monte-Carlo trials of the chain availability referee.
const CHAIN_TRIALS: usize = 20_000;
/// Band the chain admit ratio must fall in.
const CHAIN_ADMIT_BAND: (f64, f64) = (0.15, 0.40);

fn fault_inputs(sc: &Scenario, seed: u64) -> (FailureProcess, FailureProcess) {
    let config = FailureConfig {
        cloudlet_mttf: 50.0,
        cloudlet_mttr: 3.0,
        instance_kill_rate: 0.05,
    };
    let net = sc.instance.network();
    let horizon = sc.instance.horizon();
    let plain = FailureProcess::generate(
        net,
        &config,
        horizon,
        &mut ChaCha8Rng::seed_from_u64(seed ^ 0xfa17),
    )
    .expect("valid failure config");
    let domains = FailureDomainSet::zones(net, 2, 24.0, 2.0).expect("valid domains");
    let correlated = FailureProcess::generate_with_domains(
        net,
        &config,
        &domains,
        Some(mec_sim::CascadeConfig::default()),
        horizon,
        &mut ChaCha8Rng::seed_from_u64(seed ^ 0xd0a1),
    )
    .expect("valid domain failure config");
    (plain, correlated)
}

struct LongInputs {
    main: Scenario,
    fault: Scenario,
    plain: FailureProcess,
    correlated: FailureProcess,
}

fn long_setup(seed: u64) -> (LongInputs, f64) {
    let started = Instant::now();
    let main = scenario::build(&LONG_SHAPE, None, seed);
    let fault = scenario::build(&FAULT_SHAPE, None, seed);
    let (plain, correlated) = fault_inputs(&fault, seed);
    let secs = started.elapsed().as_secs_f64();
    (
        LongInputs {
            main,
            fault,
            plain,
            correlated,
        },
        secs,
    )
}

/// One pass of `offline-long-horizon`'s fixed work.
struct LongCycle {
    run_s: f64,
    steal: f64,
    failures_s: f64,
    degraded_s: f64,
    mc_s: f64,
    decisions: u64,
    /// Per-scheduler metrics: Alg. 1, on-site greedy, Alg. 2, off-site greedy.
    metrics: Vec<RunMetrics>,
    mc_flagged: Vec<RequestId>,
    audit_violations: usize,
}

/// Runs one cycle; the full run reports (schedules, validations) come
/// back separately so the caller can check them and drop them, keeping
/// memory flat across cycles.
fn long_cycle(inp: &LongInputs, seed: u64) -> (LongCycle, Vec<RunReport>) {
    let inst = &inp.main.instance;
    let reqs = &inp.main.requests;
    let started = Instant::now();
    let steal0 = host::steal_ticks();
    let sim = Simulation::new(inst, reqs).expect("valid trace");
    let mut reports = Vec::with_capacity(4);
    let mut alg1 = OnsitePrimalDual::new(inst, CapacityPolicy::Enforce).expect("valid");
    reports.push(sim.run(&mut alg1).expect("alg1 run"));
    reports.push(sim.run(&mut OnsiteGreedy::new(inst)).expect("greedy run"));
    let mut alg2 = OffsitePrimalDual::new(inst);
    reports.push(sim.run(&mut alg2).expect("alg2 run"));
    reports.push(sim.run(&mut OffsiteGreedy::new(inst)).expect("greedy run"));

    let f_inst = &inp.fault.instance;
    let f_sim = Simulation::new(f_inst, &inp.fault.requests).expect("valid trace");
    let t = Instant::now();
    f_sim
        .run_with_failures(
            &mut OffsitePrimalDual::new(f_inst),
            &inp.plain,
            RecoveryPolicy::SchemeMatching,
        )
        .expect("fault run");
    let failures_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let degraded = f_sim
        .run_degraded(
            &mut OffsitePrimalDual::new(f_inst),
            &inp.correlated,
            RecoveryPolicy::SchemeMatching,
            &DegradationConfig::default(),
        )
        .expect("degraded run");
    let degraded_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mc = inject_failures_parallel(
        inst,
        reqs,
        &reports[2].schedule,
        MC_TRIALS,
        seed,
        MC_THREADS,
    )
    .expect("referee run");
    let mc_s = t.elapsed().as_secs_f64();
    let run_s = started.elapsed().as_secs_f64();
    let cycle = LongCycle {
        run_s,
        steal: host::steal_share(host::steal_ticks() - steal0, run_s),
        failures_s,
        degraded_s,
        mc_s,
        decisions: (4 * reqs.len() + 2 * inp.fault.requests.len()) as u64,
        metrics: reports.iter().map(|r| r.metrics.clone()).collect(),
        mc_flagged: mc.statistical_violations(Z),
        audit_violations: degraded.audit.map_or(usize::MAX, |a| a.violations.len()),
    };
    (cycle, reports)
}

/// Decisions per latency window of the long-horizon replay (~65 ms):
/// shorter than the host's second-scale CPU-speed swings, so a run's
/// windows sample both speeds in the proportion the run saw them.
const LONG_LATENCY_WINDOW: usize = 10_000;

/// Per-decision latency, outside the timed work: one replay through
/// Alg. 1, whose admissions rebuild an O(T) price row at this horizon,
/// timed in windows of [`LONG_LATENCY_WINDOW`] decisions. Returns the
/// replay's wall time.
fn timed_replay(inst: &ProblemInstance, requests: &[Request], windows: &mut Windows) -> f64 {
    let mut alg1 = OnsitePrimalDual::new(inst, CapacityPolicy::Enforce).expect("valid");
    let started = Instant::now();
    for chunk in requests.chunks(LONG_LATENCY_WINDOW) {
        let (t0, steal0) = (Instant::now(), host::steal_ticks());
        let mut s = Samples::new();
        for r in chunk {
            let t = Instant::now();
            std::hint::black_box(alg1.decide(r));
            s.push(ns_between(t, Instant::now()), 1);
        }
        let steal = host::steal_share(host::steal_ticks() - steal0, t0.elapsed().as_secs_f64());
        windows.add_set(s, steal);
    }
    started.elapsed().as_secs_f64()
}

/// Runs `offline-long-horizon` for about `budget` and fills `report`.
pub fn long_horizon(seed: u64, budget: &Budget, traced: bool, report: &mut Report) {
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..budget.setups {
        let (inp, secs) = long_setup(seed);
        setups.push(secs);
        inputs = Some(inp);
    }
    let inp = inputs.expect("at least one setup");

    let inst = &inp.main.instance;
    let started = Instant::now();
    let mut cycles: Vec<LongCycle> = Vec::new();
    let (mut windows, mut timed_s) = (Windows::default(), Vec::new());
    // Every cycle replays the same inputs, so one confirmation serves all.
    let mut confirmed = None;
    while budget.more(started, cycles.len()) {
        timed_s.push(timed_replay(inst, &inp.main.requests, &mut windows));
        let (c, reports) = long_cycle(&inp, seed);
        let flagged = c.mc_flagged.len();
        let confirmed = *confirmed.get_or_insert_with(|| {
            confirm(&c.mc_flagged, || {
                inject_failures_parallel(
                    inst,
                    &inp.main.requests,
                    &reports[2].schedule,
                    MC_TRIALS,
                    seed ^ CONFIRM_SALT,
                    MC_THREADS,
                )
                .expect("referee run")
                .statistical_violations(Z)
            })
        });
        report.attempted += c.decisions;
        for r in &reports {
            report.check(
                &format!("{} schedule feasible", r.metrics.algorithm),
                r.validation.is_feasible(),
                format!("{} violations", r.validation.violations.len()),
            );
        }
        let (alg1, alg2) = (&c.metrics[0], &c.metrics[2]);
        report.check(
            "alg2 max_overflow is 0",
            alg2.max_overflow == 0.0,
            format!("{}", alg2.max_overflow),
        );
        report.check(
            "Monte-Carlo referee: zero statistical violations at z = 3",
            confirmed == 0,
            format!(
                "{flagged} flagged over {MC_TRIALS} trials, {confirmed} confirmed by an independent campaign"
            ),
        );
        report.check(
            "run_degraded audit clean",
            c.audit_violations == 0,
            format!("{} audit violations", c.audit_violations),
        );
        report.check_band(
            "alg1 admit ratio",
            alg1.acceptance_ratio(),
            LONG_ADMIT_BAND.0,
            LONG_ADMIT_BAND.1,
        );
        report.check_band(
            "alg2 admit ratio",
            alg2.acceptance_ratio(),
            LONG_ADMIT_BAND.0,
            LONG_ADMIT_BAND.1,
        );
        cycles.push(c);
    }
    let med = |f: &dyn Fn(&LongCycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    report.note(format!(
        "offline-long-horizon: {} cycles; each runs 4 schedulers over {} requests / {} slots, \
         run_with_failures + run_degraded over {} requests / {} slots, and a {MC_TRIALS}-trial referee",
        cycles.len(),
        LONG_SHAPE.requests,
        LONG_SHAPE.horizon,
        FAULT_SHAPE.requests,
        FAULT_SHAPE.horizon
    ));
    report.set("setup_s", median(&setups));
    let units =
        |f: &dyn Fn(&LongCycle) -> f64| cycles.iter().map(|c| (f(c), c.steal)).collect::<Vec<_>>();
    report.set_steady("run_s", &units(&|c| c.run_s));
    report.set_steady("throughput_rps", &units(&|c| c.decisions as f64 / c.run_s));
    report.latency(&windows);
    if traced {
        // The per-decision clock reads are this workload's tracing; an
        // untimed replay of the same decisions prices them.
        let t = Instant::now();
        let mut alg1 = OnsitePrimalDual::new(inst, CapacityPolicy::Enforce).expect("valid");
        vnfrel::run_online(&mut alg1, &inp.main.requests).expect("valid trace");
        report.set(
            "trace.overhead_ratio",
            median(&timed_s) / t.elapsed().as_secs_f64() - 1.0,
        );
    }
    report.set(
        "revenue",
        med(&|c| c.metrics.iter().map(|m| m.revenue).sum::<f64>()),
    );
    report.set(
        "workload.admit_ratio",
        med(&|c| c.metrics[2].acceptance_ratio()),
    );
    let nf = FAULT_SHAPE.requests as f64;
    report.set(
        "engine.run_with_failures_ns_per_req",
        med(&|c| c.failures_s * 1e9 / nf),
    );
    report.set(
        "engine.run_degraded_ns_per_req",
        med(&|c| c.degraded_s * 1e9 / nf),
    );
    report.set(
        "failure.mc_trials_per_s",
        med(&|c| MC_TRIALS as f64 / c.mc_s),
    );
    report.set(
        "failure.audit_violations",
        cycles.iter().map(|c| c.audit_violations).sum::<usize>() as f64,
    );
}

/// Inputs of `offline-chains`.
fn chain_setup(seed: u64) -> (Scenario, f64) {
    let started = Instant::now();
    let sc = scenario::build(&CHAIN_SHAPE, Some(&CHAINS), seed);
    (sc, started.elapsed().as_secs_f64())
}

struct ChainCycle {
    run_s: f64,
    steal: f64,
    mixed_s: f64,
    mc_s: f64,
    revenue: f64,
    admitted_chains: usize,
    admitted_singles: usize,
    max_overflow: f64,
    mc_flagged: Vec<ChainRequestId>,
    rejects: [u64; 6],
    standbys: usize,
    subscribers: usize,
    charged: f64,
}

const REJECT_REASONS: [(ChainRejectReason, &str); 6] = [
    (ChainRejectReason::UnknownVnf, "chain.reject.unknown_vnf"),
    (ChainRejectReason::BadIngress, "chain.reject.bad_ingress"),
    (
        ChainRejectReason::LatencyInfeasible,
        "chain.reject.latency_infeasible",
    ),
    (
        ChainRejectReason::ReliabilityInfeasible,
        "chain.reject.reliability_infeasible",
    ),
    (
        ChainRejectReason::CapacityGate,
        "chain.reject.capacity_gate",
    ),
    (ChainRejectReason::PaymentTest, "chain.reject.payment_test"),
];

/// One timed replay of the mixed stream.
struct ChainReplay {
    chain_lat: Samples,
    single_lat: Samples,
    elapsed_s: f64,
    steal: f64,
}

/// Times every decision of one replay, in the mixed arrival order
/// `MixedSimulation` uses (singles first within a slot), outside the
/// workload's timed work.
fn chain_replay(sc: &Scenario) -> ChainReplay {
    let mut sched = ChainPrimalDual::with_mass_cap(
        &sc.instance,
        BackupMode::Shared,
        DEFAULT_MASS_CAP,
        NoopSink,
    );
    let (mut chain_lat, mut single_lat) = (Samples::new(), Samples::new());
    let (mut i, mut j) = (0, 0);
    let (started, steal0) = (Instant::now(), host::steal_ticks());
    while i < sc.requests.len() || j < sc.chains.len() {
        let single = match (sc.requests.get(i), sc.chains.get(j)) {
            (Some(s), Some(c)) => s.arrival() <= c.arrival(),
            (Some(_), None) => true,
            (None, _) => false,
        };
        let t = Instant::now();
        if single {
            std::hint::black_box(sched.decide_single(&sc.requests[i]));
            single_lat.push(ns_between(t, Instant::now()), 1);
            i += 1;
        } else {
            let _ = std::hint::black_box(sched.decide_chain(&sc.chains[j]));
            chain_lat.push(ns_between(t, Instant::now()), 1);
            j += 1;
        }
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    ChainReplay {
        chain_lat,
        single_lat,
        elapsed_s,
        steal: host::steal_share(host::steal_ticks() - steal0, elapsed_s),
    }
}

/// Salt of the chain referee's trial stream (the CLI's).
const CHAIN_MC_SALT: u64 = 0xc4a1_0000;

fn chain_cycle(sc: &Scenario, seed: u64) -> (ChainCycle, ChainSchedule) {
    let inst = &sc.instance;
    let started = Instant::now();
    let steal0 = host::steal_ticks();
    let sim = MixedSimulation::new(inst, &sc.requests, &sc.chains).expect("valid streams");
    let mut sched =
        ChainPrimalDual::with_mass_cap(inst, BackupMode::Shared, DEFAULT_MASS_CAP, NoopSink);
    let report = sim.run(&mut sched);
    let mixed_s = started.elapsed().as_secs_f64();
    let t = Instant::now();
    let mc = inject_chain_failures(
        inst,
        &sc.chains,
        &report.chains,
        CHAIN_TRIALS,
        &mut ChaCha8Rng::seed_from_u64(seed ^ CHAIN_MC_SALT),
    )
    .expect("chain referee run");
    let mc_s = t.elapsed().as_secs_f64();
    let run_s = started.elapsed().as_secs_f64();
    let mut rejects = [0u64; 6];
    for c in &sc.chains {
        if let Some(reason) = report.chains.reject_reason(c.id()) {
            let i = REJECT_REASONS
                .iter()
                .position(|(r, _)| *r == reason)
                .expect("known reason");
            rejects[i] += 1;
        }
    }
    let pool = sched.pool();
    let cycle = ChainCycle {
        run_s,
        steal: host::steal_share(host::steal_ticks() - steal0, run_s),
        mixed_s,
        mc_s,
        revenue: report.revenue(),
        admitted_chains: report.admitted_chains(),
        admitted_singles: report.admitted_singles(),
        max_overflow: report.max_overflow,
        mc_flagged: mc.statistical_violations(Z),
        rejects,
        standbys: report.standby_count,
        subscribers: pool.standbys().map(|(_, _, _, n)| n).sum(),
        charged: pool.charged_compute_slots(),
    };
    (cycle, report.chains)
}

/// Runs `offline-chains` for about `budget` and fills `report`.
pub fn chains(seed: u64, budget: &Budget, traced: bool, report: &mut Report) {
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..budget.setups {
        let (sc, secs) = chain_setup(seed);
        setups.push(secs);
        inputs = Some(sc);
    }
    let sc = inputs.expect("at least one setup");
    let inst = &sc.instance;

    let started = Instant::now();
    let mut cycles: Vec<ChainCycle> = Vec::new();
    let mut replays: Vec<ChainReplay> = Vec::new();
    let mut windows = Windows::default();
    let mut confirmed = None;
    while budget.more(started, cycles.len()) {
        let replay = chain_replay(&sc);
        windows.add_set(replay.chain_lat.clone(), replay.steal);
        replays.push(replay);
        let (c, schedule) = chain_cycle(&sc, seed);
        report.attempted += (sc.requests.len() + sc.chains.len()) as u64;
        let flagged = c.mc_flagged.len();
        let confirmed = *confirmed.get_or_insert_with(|| {
            confirm(&c.mc_flagged, || {
                inject_chain_failures(
                    inst,
                    &sc.chains,
                    &schedule,
                    CHAIN_TRIALS,
                    &mut ChaCha8Rng::seed_from_u64(seed ^ CHAIN_MC_SALT ^ CONFIRM_SALT),
                )
                .expect("chain referee run")
                .statistical_violations(Z)
            })
        });
        report.check(
            "chain Monte-Carlo referee: zero statistical violations at z = 3",
            confirmed == 0,
            format!(
                "{flagged} flagged over {CHAIN_TRIALS} trials, {confirmed} confirmed by an independent campaign"
            ),
        );
        report.check(
            "chain max_overflow is 0",
            c.max_overflow == 0.0,
            format!("{}", c.max_overflow),
        );
        let ratio = c.admitted_chains as f64 / sc.chains.len() as f64;
        report.check_band(
            "chain admit ratio",
            ratio,
            CHAIN_ADMIT_BAND.0,
            CHAIN_ADMIT_BAND.1,
        );
        cycles.push(c);
    }
    let med = |f: &dyn Fn(&ChainCycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    let decisions = (sc.requests.len() + sc.chains.len()) as f64;
    report.note(format!(
        "offline-chains: {} cycles; each runs MixedSimulation over {} singles + {} chains / {} slots on GÉANT with shared backups, then a {CHAIN_TRIALS}-trial chain referee",
        cycles.len(),
        CHAIN_SHAPE.requests,
        CHAINS.chains,
        CHAIN_SHAPE.horizon
    ));
    report.set("setup_s", median(&setups));
    let units =
        |f: &dyn Fn(&ChainCycle) -> f64| cycles.iter().map(|c| (f(c), c.steal)).collect::<Vec<_>>();
    report.set_steady("run_s", &units(&|c| c.run_s));
    report.set_steady("throughput_rps", &units(&|c| decisions / c.run_s));
    report.latency(&windows);
    let rmed = |f: &dyn Fn(&ChainReplay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    report.set(
        "chain.decide_ns_per_chain",
        rmed(&|r| r.chain_lat.mean().unwrap_or(0.0)),
    );
    report.set(
        "chain.decide_single_ns",
        rmed(&|r| r.single_lat.mean().unwrap_or(0.0)),
    );
    report.set("revenue", med(&|c| c.revenue));
    let chain_ratio = med(&|c| c.admitted_chains as f64 / sc.chains.len() as f64);
    report.set("chain.admit_ratio", chain_ratio);
    report.set("workload.admit_ratio", chain_ratio);
    report.note(format!(
        "offline-chains: {} chains and {} singles admitted",
        cycles[0].admitted_chains, cycles[0].admitted_singles
    ));
    let last = cycles.last().expect("at least one cycle");
    for (k, (_, name)) in REJECT_REASONS.iter().enumerate() {
        report.set(name, last.rejects[k] as f64);
    }
    report.set("chain.standbys", last.standbys as f64);
    report.set(
        "chain.subscribers_per_standby",
        last.subscribers as f64 / last.standbys.max(1) as f64,
    );
    report.set("chain.charged_compute_slots", last.charged);
    report.set(
        "chain_run.mixed_ns_per_req",
        med(&|c| c.mixed_s * 1e9 / decisions),
    );
    report.set(
        "chain_failure.mc_trials_per_s",
        med(&|c| CHAIN_TRIALS as f64 / c.mc_s),
    );
    if traced {
        // The per-decision clock reads of the latency replay are this
        // workload's tracing; MixedSimulation runs the same decisions
        // untimed.
        report.set(
            "trace.overhead_ratio",
            rmed(&|r| r.elapsed_s) / med(&|c| c.mixed_s) - 1.0,
        );
    }
}
