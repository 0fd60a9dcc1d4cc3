//! Per-layer measurements every traced run takes on its own workload's
//! inputs: the wire codec, the queue hop, dual prices, the capacity
//! ledger, each scheduler's `decide()`, and the set-up layers. Each is
//! timed from outside, around calls to the layer's public functions.

use std::time::Instant;

use mec_obs::{LastEventSink, TraceEvent};
use mec_serve::pool::BoundedQueue;
use mec_serve::{
    encode_batch_into, encode_batch_reply_into, encode_client, encode_server, parse_batch_into,
    parse_batch_reply_into, parse_client, parse_server, ClientMsg, ServerMsg, SubmitRequest,
    BATCH_ADMIT, BATCH_REJECT,
};
use mec_sim::Simulation;
use mec_topology::{CloudletId, NodeId};
use mec_workload::Request;
use vnfrel::baselines::{DensityGreedy, RandomPlacement};
use vnfrel::chain::PathTable;
use vnfrel::offsite::{OffsiteGreedy, OffsitePrimalDual};
use vnfrel::onsite::{CapacityPolicy, OnsiteGreedy, OnsitePrimalDual};
use vnfrel::{CapacityLedger, DualPrices, OnlineScheduler, ProblemInstance, Scheme};

use crate::driver::submit_of;
use crate::host;
use crate::report::Report;
use crate::scenario::Scenario;
use crate::serve::BATCH;
use crate::stats::{median, ns_between, Samples};

/// Requests the codec and scheduler replays use at most.
const CODEC_REQUESTS: usize = 64 * 200;
const REPLAY_REQUESTS: usize = 50_000;
const WINDOW_OPS: usize = 10_000;

/// Median over `rounds` of the per-op time of `f`, which performs `ops`
/// operations per call.
fn per_op_ns(rounds: usize, ops: usize, mut f: impl FnMut()) -> f64 {
    let mut per = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        f();
        per.push(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&per)
}

/// Measures every workload-independent layer on `sc` (the workload's
/// single-VNF trace and instance).
pub fn common(sc: &Scenario, seed: u64, report: &mut Report) {
    let n = sc.requests.len();
    report.set("instance.build_ms", sc.instance_s * 1e3);
    report.set("generator.ns_per_req", sc.generate_s * 1e9 / n as f64);
    report.set("driver.clock_ns", host::clock_ns());
    path_layer(sc, report);
    report.set("pool.hop_ns", pool_hop_ns());
    codec_layers(sc, report);
    price_and_ledger_layers(sc, report);
    scheduler_layers(sc, seed, report);
    let t = Instant::now();
    let mut alg2 = OffsitePrimalDual::new(&sc.instance);
    Simulation::new(&sc.instance, &sc.requests)
        .expect("valid trace")
        .run(&mut alg2)
        .expect("alg2 run");
    report.set(
        "engine.run_ns_per_req",
        t.elapsed().as_nanos() as f64 / n as f64,
    );
    report.set("ledger.max_overflow", alg2.ledger().max_overflow());
}

fn path_layer(sc: &Scenario, report: &mut Report) {
    let net = sc.instance.network();
    let ms = per_op_ns(21, 1, || {
        let mut table = PathTable::new();
        for ap in 0..net.ap_count() {
            std::hint::black_box(table.distances(net, NodeId(ap)));
        }
    }) / 1e6;
    report.set("path.distances_ms", ms);
}

// One hop = a push on one thread until the pop returns on another,
// measured as half of a ping-pong round trip over two queues.
fn pool_hop_ns() -> f64 {
    const TRIPS: usize = 4000;
    let ping: BoundedQueue<u32> = BoundedQueue::new(1);
    let pong: BoundedQueue<u32> = BoundedQueue::new(1);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while let Some(v) = ping.pop() {
                let _ = pong.push(v);
            }
        });
        let mut rtt = Vec::with_capacity(TRIPS);
        for i in 0..TRIPS as u32 {
            let t = Instant::now();
            let _ = ping.push(i);
            let echoed = pong.pop();
            rtt.push(t.elapsed().as_nanos() as f64 / 2.0);
            assert_eq!(echoed, Some(i), "the queue hop reordered or lost an item");
        }
        ping.close();
        median(&rtt)
    })
}

fn codec_layers(sc: &Scenario, report: &mut Report) {
    let reqs: Vec<SubmitRequest> = sc
        .requests
        .iter()
        .take(CODEC_REQUESTS)
        .map(submit_of)
        .collect();
    let n = reqs.len();
    // Reply codes and decision lines from a real Alg. 1 / Alg. 2 replay.
    let mut alg2 = OffsitePrimalDual::new(&sc.instance);
    let codes: Vec<u8> = sc.requests[..n]
        .iter()
        .map(|r| {
            if alg2.decide(r).is_admit() {
                BATCH_ADMIT
            } else {
                BATCH_REJECT
            }
        })
        .collect();
    let mut alg1 =
        OnsitePrimalDual::with_sink(&sc.instance, CapacityPolicy::Enforce, LastEventSink::new())
            .expect("valid instance");
    let m = n.min(2000);
    let decisions: Vec<ServerMsg> = sc.requests[..m]
        .iter()
        .map(|r| {
            alg1.decide(r);
            match alg1.sink_mut().take() {
                Some(TraceEvent::Decision(ev)) => ServerMsg::Decision(ev),
                other => unreachable!("Alg. 1 records one decision per decide, got {other:?}"),
            }
        })
        .collect();

    let frames: Vec<&[SubmitRequest]> = reqs.chunks(BATCH).collect();
    let mut buf = String::with_capacity(8192);
    let encode = per_op_ns(15, n, || {
        for (seq, f) in frames.iter().enumerate() {
            encode_batch_into(&mut buf, seq as u64, f);
            std::hint::black_box(&buf);
        }
    });
    let lines: Vec<String> = frames
        .iter()
        .enumerate()
        .map(|(seq, f)| {
            encode_batch_into(&mut buf, seq as u64, f);
            buf.clone()
        })
        .collect();
    let mut parsed = Vec::with_capacity(BATCH);
    let parse = per_op_ns(15, n, || {
        for l in &lines {
            parse_batch_into(l, &mut parsed).expect("own frames parse");
        }
    });
    let code_frames: Vec<&[u8]> = codes.chunks(BATCH).collect();
    let reply_encode = per_op_ns(15, n, || {
        for (seq, c) in code_frames.iter().enumerate() {
            encode_batch_reply_into(&mut buf, seq as u64, c);
            std::hint::black_box(&buf);
        }
    });
    let replies: Vec<String> = code_frames
        .iter()
        .enumerate()
        .map(|(seq, c)| {
            encode_batch_reply_into(&mut buf, seq as u64, c);
            buf.clone()
        })
        .collect();
    let mut parsed_codes = Vec::with_capacity(BATCH);
    let reply_parse = per_op_ns(15, n, || {
        for l in &replies {
            parse_batch_reply_into(l, &mut parsed_codes).expect("own replies parse");
        }
    });
    let bytes: usize = lines.iter().chain(&replies).map(|l| l.len() + 1).sum();
    report.set("protocol.batch_encode_ns_per_req", encode);
    report.set("protocol.batch_parse_ns_per_req", parse);
    report.set("protocol.reply_encode_ns_per_req", reply_encode);
    report.set("protocol.reply_parse_ns_per_req", reply_parse);
    report.set("protocol.batch_bytes_per_req", bytes as f64 / n as f64);

    // v2 single lines: client submit + server decision, both halves.
    let submits: Vec<ClientMsg> = reqs[..m].iter().map(|r| ClientMsg::Submit(*r)).collect();
    let line_encode = per_op_ns(9, m, || {
        for (s, d) in submits.iter().zip(&decisions) {
            std::hint::black_box(encode_client(s));
            std::hint::black_box(encode_server(d));
        }
    });
    let submit_lines: Vec<String> = submits.iter().map(encode_client).collect();
    let decision_lines: Vec<String> = decisions.iter().map(encode_server).collect();
    let line_parse = per_op_ns(9, m, || {
        for (s, d) in submit_lines.iter().zip(&decision_lines) {
            std::hint::black_box(parse_client(s).expect("own submit parses"));
            std::hint::black_box(parse_server(d).expect("own decision parses"));
        }
    });
    let line_bytes: usize = submit_lines
        .iter()
        .chain(&decision_lines)
        .map(|l| l.len() + 1)
        .sum();
    report.set("protocol.line_encode_ns", line_encode);
    report.set("protocol.line_parse_ns", line_parse);
    report.set("protocol.line_bytes_per_req", line_bytes as f64 / m as f64);
}

fn price_and_ledger_layers(sc: &Scenario, report: &mut Report) {
    let inst = &sc.instance;
    let cloudlets = inst.cloudlet_count();
    let slots = inst.horizon().len();
    // (cloudlet, first, last) windows of the workload's own requests.
    let windows: Vec<(usize, usize, usize)> = sc
        .requests
        .iter()
        .take(WINDOW_OPS)
        .enumerate()
        .map(|(i, r)| (i % cloudlets, r.arrival(), r.end_slot()))
        .collect();
    let ops = windows.len();
    let mut prices = DualPrices::new(cloudlets, slots);
    let update = per_op_ns(5, ops, || {
        for &(j, a, d) in &windows {
            prices.update_window(j, a, d, |x| x * 1.0001 + 1e-6);
        }
    });
    let sum = per_op_ns(15, ops, || {
        for &(j, a, d) in &windows {
            std::hint::black_box(prices.window_sum(j, a, d));
        }
    });
    report.set("pricing.update_window_ns", update);
    report.set("pricing.window_sum_ns", sum);

    let mut ledger = CapacityLedger::new(inst.network(), inst.horizon());
    let amount = 1e-6;
    let fits = per_op_ns(15, ops, || {
        for &(j, a, d) in &windows {
            std::hint::black_box(ledger.fits_window(CloudletId(j), a, d, amount));
        }
    });
    let charge = per_op_ns(5, ops, || {
        for &(j, a, d) in &windows {
            ledger.charge_window(CloudletId(j), a, d, amount);
        }
    });
    let reserve = per_op_ns(5, ops, || {
        for &(j, a, d) in &windows {
            let id = ledger
                .try_reserve_window(CloudletId(j), a, d, amount)
                .expect("a tiny hold fits");
            ledger
                .commit_reservation(id)
                .expect("fresh reservation commits");
        }
    });
    report.set("ledger.fits_window_ns", fits);
    report.set("ledger.charge_window_ns", charge);
    report.set("ledger.reserve_commit_ns", reserve);
}

fn scheduler_layers(sc: &Scenario, seed: u64, report: &mut Report) {
    let reqs = &sc.requests[..sc.requests.len().min(REPLAY_REQUESTS)];
    for (prefix, mut sched) in schedulers(&sc.instance, seed) {
        let (admit, reject, sites) = decide_latencies(sched.as_mut(), reqs);
        let admitted = admit.count();
        let mut all = admit.clone();
        all.merge(&reject);
        report.set(&format!("{prefix}.decide_ns"), all.mean().unwrap_or(0.0));
        report.set(
            &format!("{prefix}.decide_admit_ns"),
            admit.mean().unwrap_or(0.0),
        );
        report.set(
            &format!("{prefix}.decide_reject_ns"),
            reject.mean().unwrap_or(0.0),
        );
        report.set(
            &format!("{prefix}.admit_ratio"),
            admitted as f64 / reqs.len() as f64,
        );
        if prefix == "offsite.alg2" {
            report.set(
                "offsite.sites_per_admit",
                sites as f64 / admitted.max(1) as f64,
            );
        }
    }
}

/// Times every `decide()` of one replay of `requests`: the admit and
/// reject latencies, and the instances placed over all admissions.
fn decide_latencies<S: OnlineScheduler + ?Sized>(
    sched: &mut S,
    requests: &[Request],
) -> (Samples, Samples, u64) {
    let (mut admit, mut reject, mut sites) = (Samples::new(), Samples::new(), 0);
    for r in requests {
        let t = Instant::now();
        let d = sched.decide(r);
        let ns = ns_between(t, Instant::now());
        if let Some(p) = d.placement() {
            admit.push(ns, 1);
            sites += u64::from(p.instance_count());
        } else {
            reject.push(ns, 1);
        }
    }
    (admit, reject, sites)
}

/// Every single-VNF scheduler the per-decision layer replays, by the
/// metric prefix it reports under.
fn schedulers<'a>(
    inst: &'a ProblemInstance,
    seed: u64,
) -> Vec<(&'static str, Box<dyn OnlineScheduler + 'a>)> {
    vec![
        (
            "onsite.alg1",
            Box::new(OnsitePrimalDual::new(inst, CapacityPolicy::Enforce).expect("valid")),
        ),
        ("onsite.greedy", Box::new(OnsiteGreedy::new(inst))),
        ("offsite.alg2", Box::new(OffsitePrimalDual::new(inst))),
        ("offsite.greedy", Box::new(OffsiteGreedy::new(inst))),
        (
            "baselines.density",
            Box::new(DensityGreedy::new(inst, 0.0).expect("valid threshold")),
        ),
        (
            "baselines.random",
            Box::new(RandomPlacement::new(inst, Scheme::OnSite, seed)),
        ),
    ]
}
