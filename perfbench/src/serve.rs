//! The serving workload: the sharded daemon under open-loop batch
//! traffic, followed by a closed-loop probe of the classic daemon.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::Instant;

use mec_obs::{MetricsRegistry, PipelineStage};
use mec_serve::{
    serve, serve_sharded, DecisionTap, ServeConfig, ServeMetricIds, ShardedConfig, SubmitRequest,
    BATCH_ADMIT, BATCH_ERROR, BATCH_OVERLOAD, BATCH_REJECT,
};
use mec_sim::Simulation;
use mec_topology::zoo;
use vnfrel::onsite::{CapacityPolicy, OnsitePrimalDual};
use vnfrel::Scheme;

use crate::driver::{self, OpenLoopPlan};
use crate::report::Report;
use crate::scenario::{self, Shape};
use crate::stats::{median, Windows};
use crate::Budget;

/// `serve-open-batch` trace: the default 16-slot horizon with capacity
/// scaled up so that about 40% of the requests are admitted.
pub const OPEN_SHAPE: Shape = Shape {
    topology: zoo::abilene,
    capacity: (8000, 12000),
    horizon: 16,
    requests: 200_000,
};
/// Requests per v3 batch frame.
pub const BATCH: usize = 64;
/// Decide threads of the sharded daemon.
const SHARDS: usize = 2;
/// Per-shard queue bound (the CLI's sharded default).
const QUEUE: usize = 4096;
/// The first this-many requests go out at [`FIXED_RATE_RPS`]; the rest
/// of the trace measures saturation.
const FIXED_REQUESTS: usize = 100_000;
/// Offered load of the fixed-rate phase. This driver saturates the
/// daemon at 0.9–1.1M decisions/s on a quiet 2-vCPU host and at 0.4–0.65M
/// while the host's neighbours steal CPU; this rate is about half of the
/// latter, so the open loop stays below capacity in both states instead
/// of building an unbounded queue in the second.
pub const FIXED_RATE_RPS: f64 = 300_000.0;
/// Fixed-rate frames per latency window: 50 ms of due times. Hiccups of
/// the host land every few hundred milliseconds; windows this short let
/// the interquartile mean set the windows they hit aside (a whole
/// 0.33 s fixed-rate phase per window tripled the p99's run-to-run
/// spread).
const LATENCY_WINDOW_FRAMES: usize = (FIXED_RATE_RPS * 0.05) as usize / BATCH;
/// Frames in flight during the saturation phase: enough to keep both
/// shard queues non-empty, far below the queue bound.
const WINDOW: usize = 32;
/// Band the daemon's admitted/decided ratio must fall in.
const OPEN_ADMIT_BAND: (f64, f64) = (0.25, 0.55);

/// Closed-loop probe trace: 20,000 requests on the 16-slot horizon,
/// capacity scaled so about a quarter are admitted.
pub const CLOSED_SHAPE: Shape = Shape {
    topology: zoo::abilene,
    capacity: (800, 1200),
    horizon: 16,
    requests: 20_000,
};
const CLOSED_ADMIT_BAND: (f64, f64) = (0.15, 0.40);
/// Requests per closed-loop latency window.
const CLOSED_WINDOW: usize = 2000;

// (sum of seconds, observation count) per pipeline stage, summed over
// shards.
type StageTotals = [(f64, u64); PipelineStage::COUNT];

fn stage_totals(registry: &MetricsRegistry, ids: &ServeMetricIds) -> StageTotals {
    let mut out = [(0.0, 0); PipelineStage::COUNT];
    for s in 0..ids.stage.shard_count() {
        for stage in PipelineStage::ALL {
            let (_, sum, count) = registry.histogram_value(ids.stage.id(s, stage));
            out[stage.index()].0 += sum;
            out[stage.index()].1 += count;
        }
    }
    out
}

// Nanoseconds of `stage` per request over the interval `totals` covers.
fn ns_per_req(totals: &StageTotals, stage: PipelineStage, requests: u64) -> f64 {
    totals[stage.index()].0 * 1e9 / requests.max(1) as f64
}

/// One fresh daemon, one full drive of the trace.
struct OpenCycle {
    setup_s: f64,
    out: driver::OpenLoopOutcome,
    sent: u64,
    frames: u64,
    ack: mec_serve::ServeStats,
    per_shard_decided: Vec<u64>,
    cross_shard_admits: u64,
    fixed_stages: StageTotals,
    sat_stages: StageTotals,
}

fn open_cycle(seed: u64, traced: bool, report: &mut Report) -> Option<OpenCycle> {
    let started = Instant::now();
    let sc = scenario::build(&OPEN_SHAPE, None, seed);
    let mut registry = MetricsRegistry::new();
    let ids = ServeMetricIds::register_sharded(&mut registry, sc.instance.cloudlet_count(), SHARDS);
    let mut config = ShardedConfig::new("127.0.0.1:0");
    config.shards = SHARDS;
    config.queue_capacity = QUEUE;
    let (registry, ids) = (&registry, &ids);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let daemon = scope.spawn(|| {
            serve_sharded(
                &sc.instance,
                Scheme::OffSite,
                registry,
                ids,
                &config,
                Some(tx),
            )
        });
        let Ok(addr) = rx.recv() else {
            let err = daemon.join().expect("daemon thread panicked").err();
            report.check("sharded daemon binds", false, format!("{err:?}"));
            return None;
        };
        let setup_s = started.elapsed().as_secs_f64();

        let frames: Vec<Vec<SubmitRequest>> = sc
            .requests
            .chunks(BATCH)
            .map(|c| c.iter().map(driver::submit_of).collect())
            .collect();
        let plan = OpenLoopPlan {
            frames: &frames,
            fixed_frames: FIXED_REQUESTS / BATCH,
            rate_rps: FIXED_RATE_RPS,
            window: WINDOW,
            window_frames: LATENCY_WINDOW_FRAMES,
            traced,
        };
        // A fresh registry starts at zero, so `mid` is the fixed-rate
        // phase's totals.
        let mut mid = [(0.0, 0); PipelineStage::COUNT];
        let out = driver::run_open_loop(addr, &plan, || mid = stage_totals(registry, ids));
        let ack = driver::shutdown(addr);
        let joined = daemon.join().expect("daemon thread panicked");
        let after = stage_totals(registry, ids);
        let (out, ack, joined) = match (out, ack, joined) {
            (Ok(o), Ok(a), Ok(j)) => (o, a, j),
            (o, a, j) => {
                report.check(
                    "open-loop drive completes",
                    false,
                    format!(
                        "drive {:?} / ack {:?} / daemon {:?}",
                        o.err(),
                        a.err(),
                        j.err()
                    ),
                );
                return None;
            }
        };
        Some(OpenCycle {
            setup_s,
            sent: sc.requests.len() as u64,
            frames: frames.len() as u64,
            out,
            ack,
            per_shard_decided: joined.per_shard_decided,
            cross_shard_admits: joined.cross_shard_admits,
            fixed_stages: mid,
            sat_stages: std::array::from_fn(|i| (after[i].0 - mid[i].0, after[i].1 - mid[i].1)),
        })
    })
}

fn check_open_cycle(c: &OpenCycle, report: &mut Report) {
    let o = &c.out;
    let [reject, admit, overload, error] = [
        o.codes[usize::from(BATCH_REJECT)],
        o.codes[usize::from(BATCH_ADMIT)],
        o.codes[usize::from(BATCH_OVERLOAD)],
        o.codes[usize::from(BATCH_ERROR)],
    ];
    report.attempted += c.sent;
    report.failed += overload + error + o.unanswered;
    report.check(
        "every frame answered exactly once",
        o.unanswered == 0 && o.stray_replies == 0,
        format!(
            "{} unanswered requests, {} stray replies",
            o.unanswered, o.stray_replies
        ),
    );
    report.check(
        "decided + overloaded = sent",
        reject + admit + overload == c.sent && c.ack.decided + c.ack.overloaded == c.sent,
        format!(
            "client {} + {overload}, daemon {} + {}, sent {}",
            reject + admit,
            c.ack.decided,
            c.ack.overloaded,
            c.sent
        ),
    );
    report.check(
        "zero error codes",
        error == 0 && o.error_lines == 0,
        format!("{error} error codes, {} error lines", o.error_lines),
    );
    report.check(
        "client and daemon decided/admitted agree",
        reject + admit == c.ack.decided && admit == c.ack.admitted,
        format!(
            "client {}/{admit}, daemon {}/{}",
            reject + admit,
            c.ack.decided,
            c.ack.admitted
        ),
    );
    let tol = 1e-9 * c.ack.revenue.abs().max(1.0);
    report.check(
        "client-summed admitted payments equal daemon revenue",
        (o.admitted_payment - c.ack.revenue).abs() <= tol,
        format!("client {} vs daemon {}", o.admitted_payment, c.ack.revenue),
    );
    let ratio = admit as f64 / (reject + admit).max(1) as f64;
    report.check_band(
        "serve-open-batch admit ratio",
        ratio,
        OPEN_ADMIT_BAND.0,
        OPEN_ADMIT_BAND.1,
    );
}

fn sat_rps(c: &OpenCycle) -> f64 {
    c.out.sat_requests as f64 / c.out.sat_elapsed.as_secs_f64().max(1e-9)
}

/// Runs `serve-open-batch` for about `budget` and fills `report`.
pub fn open_batch(seed: u64, budget: &Budget, traced: bool, report: &mut Report) {
    let mut cycles: Vec<(bool, OpenCycle)> = Vec::new();
    let started = Instant::now();
    // A traced run alternates traced and untraced cycles: the per-layer
    // figures come from the traced ones, the tracing overhead from the
    // pair.
    let mut i = 0usize;
    while budget.more(started, cycles.len()) {
        let traced_cycle = traced && i.is_multiple_of(2);
        i += 1;
        let Some(c) = open_cycle(seed, traced_cycle, report) else {
            return;
        };
        check_open_cycle(&c, report);
        cycles.push((traced_cycle, c));
    }
    let all: Vec<&OpenCycle> = cycles.iter().map(|(_, c)| c).collect();
    let med = |f: &dyn Fn(&OpenCycle) -> f64| median(&all.iter().map(|c| f(c)).collect::<Vec<_>>());

    let mut windows = Windows::default();
    let mut late99 = Vec::new();
    for c in &all {
        windows.add(
            &c.out.fixed_frame_ns,
            LATENCY_WINDOW_FRAMES,
            BATCH as u64,
            &c.out.window_steal,
        );
        if let Some(l) = c.out.late.clone().quantile(0.99) {
            late99.push(l as f64 / 1e3);
        }
    }
    report.note(format!(
        "serve-open-batch: {} cycles of {} requests ({} at {FIXED_RATE_RPS} req/s, rest with {WINDOW} frames in flight), {SHARDS} shards, off-site Alg. 2; latency over {} windows of 50 ms",
        all.len(),
        OPEN_SHAPE.requests,
        FIXED_REQUESTS,
        windows.p99_us.len()
    ));
    report.set("setup_s", med(&|c| c.setup_s));
    let sat_units = |f: &dyn Fn(&OpenCycle) -> f64| {
        all.iter()
            .map(|c| (f(c), c.out.sat_steal))
            .collect::<Vec<_>>()
    };
    report.set_steady("throughput_rps", &sat_units(&sat_rps));
    report.latency(&windows);
    report.set_steady("run_s", &sat_units(&|c| c.out.sat_elapsed.as_secs_f64()));
    report.set("revenue", med(&|c| c.ack.revenue));
    if !late99.is_empty() {
        report.set("driver.late_p99_us", median(&late99));
    }
    let driver_cpu: u64 = all.iter().map(|c| c.out.driver_cpu_ns).sum();
    let proc_cpu: u64 = all.iter().map(|c| c.out.process_cpu_fixed_ns).sum();
    report.set(
        "driver.cpu_share",
        driver_cpu as f64 / proc_cpu.max(1) as f64,
    );
    let admitted: u64 = all.iter().map(|c| c.ack.admitted).sum();
    let decided: u64 = all.iter().map(|c| c.ack.decided).sum();
    report.set(
        "workload.admit_ratio",
        admitted as f64 / decided.max(1) as f64,
    );

    if !traced {
        return;
    }
    let traced_cycles: Vec<&OpenCycle> =
        cycles.iter().filter(|(t, _)| *t).map(|(_, c)| c).collect();
    let plain: Vec<f64> = cycles
        .iter()
        .filter(|(t, _)| !*t)
        .map(|(_, c)| sat_rps(c))
        .collect();
    let tmed = |f: &dyn Fn(&OpenCycle) -> f64| {
        median(&traced_cycles.iter().map(|c| f(c)).collect::<Vec<_>>())
    };
    let traced_rps = tmed(&sat_rps);
    if !plain.is_empty() {
        report.set("trace.overhead_ratio", median(&plain) / traced_rps - 1.0);
    }
    let sat = |c: &OpenCycle, stage| ns_per_req(&c.sat_stages, stage, c.out.sat_requests);
    let fixed_reqs = (FIXED_REQUESTS / BATCH * BATCH) as u64;
    report.set(
        "shard.ingress_parse_ns_per_req",
        tmed(&|c| sat(c, PipelineStage::IngressParse)),
    );
    report.set(
        "shard.dispatch_ns_per_req",
        tmed(&|c| sat(c, PipelineStage::Dispatch)),
    );
    report.set(
        "shard.queue_wait_ns_per_req",
        tmed(&|c| ns_per_req(&c.fixed_stages, PipelineStage::QueueWait, fixed_reqs)),
    );
    // The decide span encloses the reserve-commit span: report the
    // decide layer's self time.
    report.set(
        "shard.decide_ns_per_req",
        tmed(&|c| sat(c, PipelineStage::Decide) - sat(c, PipelineStage::ReserveCommit)),
    );
    report.set(
        "shard.reserve_commit_ns_per_req",
        tmed(&|c| sat(c, PipelineStage::ReserveCommit)),
    );
    report.set(
        "shard.reply_write_ns_per_req",
        tmed(&|c| sat(c, PipelineStage::ReplyWrite)),
    );
    report.set(
        "shard.parts_per_frame",
        tmed(&|c| {
            let parts = c.fixed_stages[PipelineStage::Decide.index()].1
                + c.sat_stages[PipelineStage::Decide.index()].1;
            parts as f64 / c.frames as f64
        }),
    );
    report.set(
        "shard.cross_shard_admit_ratio",
        tmed(&|c| c.cross_shard_admits as f64 / c.ack.admitted.max(1) as f64),
    );
    report.set(
        "shard.decided_imbalance",
        tmed(&|c| {
            let max = *c.per_shard_decided.iter().max().unwrap_or(&0) as f64;
            let mean = c.per_shard_decided.iter().sum::<u64>() as f64
                / c.per_shard_decided.len().max(1) as f64;
            max / mean.max(1.0) - 1.0
        }),
    );
    report.set(
        "shard.overloaded",
        all.iter().map(|c| c.ack.overloaded).sum::<u64>() as f64,
    );

    // Reconciliation: the serve-path layer self-times against the wall
    // time per request at saturation. Queue wait is waiting, not work,
    // so it is left out; what no layer covers (socket reads, the client
    // write syscall, thread wake-ups) is the unaccounted share.
    let hop_per_req = report.get("pool.hop_ns").unwrap_or(0.0)
        * report.get("shard.parts_per_frame").unwrap_or(0.0)
        / BATCH as f64;
    let client = tmed(&|c| {
        let reqs = c.sent as f64;
        (c.out.encode_ns + c.out.parse_ns) as f64 / reqs
    });
    let daemon = tmed(&|c| {
        sat(c, PipelineStage::IngressParse)
            + sat(c, PipelineStage::Dispatch)
            + sat(c, PipelineStage::Decide)
            + sat(c, PipelineStage::ReplyWrite)
    });
    let layer_sum = client + daemon + hop_per_req;
    let wall = 1e9 / traced_rps;
    report.set("reconcile.layer_sum_ns_per_req", layer_sum);
    report.set("reconcile.unaccounted_ratio", 1.0 - layer_sum / wall);
    report.set(
        "reconcile.cpu_ns_per_req",
        tmed(&|c| c.out.process_cpu_sat_ns as f64 / c.out.sat_requests.max(1) as f64),
    );
    report.note(format!(
        "reconcile: client codec {client:.1} + daemon stages {daemon:.1} + queue hop {hop_per_req:.1} = {layer_sum:.1} ns/req vs wall {wall:.1} ns/req at saturation"
    ));
}

/// The closed-loop probe that follows `serve-open-batch`'s cycles: one
/// pass of the closed-loop trace through the classic daemon, one v2 line
/// outstanding. It anchors correctness (the daemon's decisions are
/// bit-identical to batch `Simulation`) and measures the classic
/// daemon's layers. Its latency and rate are per-layer figures only: on a
/// 2-vCPU host every closed-loop request waits on three thread wake-ups,
/// and their tail moves 20–70% between runs with the host's load, more
/// than any end-to-end bound allows.
pub fn closed_probe(seed: u64, report: &mut Report) {
    let sc = scenario::build(&CLOSED_SHAPE, None, seed);
    let mut alg = OnsitePrimalDual::new(&sc.instance, CapacityPolicy::Enforce).expect("valid");
    let batch = Simulation::new(&sc.instance, &sc.requests)
        .expect("valid trace")
        .run(&mut alg)
        .expect("batch run");
    let mut registry = MetricsRegistry::new();
    let ids = ServeMetricIds::register(&mut registry, sc.instance.cloudlet_count());
    let (registry, ids, instance) = (&registry, &ids, &sc.instance);
    let drive = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<SocketAddr>();
        let daemon = scope.spawn(move || {
            let tap = DecisionTap::new();
            let mut alg =
                OnsitePrimalDual::with_sink(instance, CapacityPolicy::Enforce, tap.clone())
                    .expect("valid instance");
            serve(
                &mut alg,
                &tap,
                registry,
                ids,
                &ServeConfig::new("127.0.0.1:0"),
                Some(tx),
            )
        });
        let Ok(addr) = rx.recv() else {
            return Err(format!(
                "bind: {:?}",
                daemon.join().expect("daemon thread panicked").err()
            ));
        };
        let submits: Vec<SubmitRequest> = sc.requests.iter().map(driver::submit_of).collect();
        let out = driver::run_closed_line(addr, &submits);
        let ack = driver::shutdown(addr);
        match (out, ack, daemon.join().expect("daemon thread panicked")) {
            (Ok(out), Ok(ack), Ok(_)) => Ok((out, ack)),
            (o, a, j) => Err(format!(
                "drive {:?} / ack {:?} / daemon {:?}",
                o.err(),
                a.err(),
                j.err()
            )),
        }
    });
    let (out, ack) = match drive {
        Ok(d) => d,
        Err(e) => {
            report.check("closed-loop drive completes", false, e);
            return;
        }
    };
    let n = CLOSED_SHAPE.requests as u64;
    report.attempted += n;
    report.failed += out.failed + (n - out.decided.min(n));
    report.check(
        "closed-line admissions and revenue bit-identical to batch Simulation",
        out.admitted as usize == batch.metrics.admitted
            && out.revenue.to_bits() == batch.metrics.revenue.to_bits(),
        format!(
            "daemon {} / {}, batch {} / {}",
            out.admitted, out.revenue, batch.metrics.admitted, batch.metrics.revenue
        ),
    );
    report.check(
        "every closed-line request decided",
        out.decided == n && out.failed == 0 && ack.decided == n,
        format!(
            "client {} decided, {} failed, daemon {}",
            out.decided, out.failed, ack.decided
        ),
    );
    report.check_band(
        "serve-closed-line admit ratio",
        out.admitted as f64 / out.decided.max(1) as f64,
        CLOSED_ADMIT_BAND.0,
        CLOSED_ADMIT_BAND.1,
    );
    let mut windows = Windows::default();
    windows.add(&out.latency_ns, CLOSED_WINDOW, 1, &[]);
    if !windows.p99_us.is_empty() {
        let p = |w: &[(f64, f64)]| median(&w.iter().map(|u| u.0).collect::<Vec<_>>());
        report.set("daemon.closed_loop_p50_us", p(&windows.p50_us));
        report.set("daemon.closed_loop_p99_us", p(&windows.p99_us));
    }
    report.set(
        "daemon.closed_loop_rps",
        out.decided as f64 / out.elapsed.as_secs_f64().max(1e-9),
    );
    report.note(format!(
        "closed-loop probe: {n} requests, one outstanding, on-site Alg. 1 on the classic daemon"
    ));
    let stages = stage_totals(registry, ids);
    for (name, stage) in [
        (
            "daemon.ingress_parse_ns_per_req",
            PipelineStage::IngressParse,
        ),
        ("daemon.queue_wait_ns_per_req", PipelineStage::QueueWait),
        ("daemon.decide_ns_per_req", PipelineStage::Decide),
        ("daemon.reply_write_ns_per_req", PipelineStage::ReplyWrite),
    ] {
        report.set(name, ns_per_req(&stages, stage, n));
    }
}
