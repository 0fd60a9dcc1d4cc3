//! Checks of the benchmark itself, run before every workload: the
//! percentile rule, and that open-loop latency is timed from the due
//! time, so a server stall shows in every request queued behind it.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpListener;
use std::time::Duration;

use mec_serve::{
    encode_batch_reply_into, encode_server, is_batch_frame, parse_batch_into, ControlAck,
    ControlAction, ServeStats, ServerMsg, SubmitRequest, BATCH_REJECT,
};

use crate::driver::{run_open_loop, OpenLoopPlan};
use crate::report::Report;
use crate::stats::Samples;

/// Runs every self-test, recording one check each.
pub fn run(report: &mut Report) {
    percentile_rule(report);
    stall_shows_behind(report);
}

fn percentile_rule(report: &mut Report) {
    let mut at_limit = Samples::new();
    at_limit.push(1, 1000);
    let mut below = Samples::new();
    below.push(1, 999);
    let mut weighted = Samples::new();
    weighted.push(5, 990);
    weighted.push(1_000_000, 10);
    let mut ramp = Samples::new();
    for v in 1..=100 {
        ramp.push(v, 1);
    }
    let ok = at_limit.quantile(0.99) == Some(1)
        && below.quantile(0.99).is_none()
        && weighted.quantile(0.99) == Some(5)
        && ramp.quantile(0.5) == Some(50)
        && ramp.quantile(0.99).is_none();
    report.check(
        "self-test: p99 reported only with 10 samples beyond it",
        ok,
        "1000 samples -> p99, 999 -> none, nearest rank over weights",
    );
}

/// Frames of the stall test.
const FRAMES: usize = 120;
/// The frame whose reply the fake server holds back.
const STALLED: usize = 40;
const STALL: Duration = Duration::from_millis(40);
/// One frame due every millisecond.
const PERIOD: Duration = Duration::from_millis(1);

fn stall_shows_behind(report: &mut Report) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let frames: Vec<Vec<SubmitRequest>> = (0..FRAMES)
        .map(|f| {
            (0..4)
                .map(|k| SubmitRequest {
                    id: f * 4 + k,
                    vnf: 0,
                    reliability: 0.9,
                    arrival: 0,
                    duration: 1,
                    payment: 1.0,
                })
                .collect()
        })
        .collect();
    let plan = OpenLoopPlan {
        frames: &frames,
        fixed_frames: FRAMES,
        rate_rps: 4.0 / PERIOD.as_secs_f64(),
        window: 1,
        window_frames: FRAMES,
        traced: false,
    };
    let outcome = std::thread::scope(|scope| {
        // A one-connection server that answers every frame at once,
        // except that it sleeps before answering frame STALLED.
        scope.spawn(move || {
            let (stream, _) = listener.accept().expect("driver connects");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            let mut writer = stream.try_clone().expect("clone socket");
            let mut reader = BufReader::new(stream);
            let (mut line, mut reqs, mut reply) = (String::new(), Vec::new(), String::new());
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                if !is_batch_frame(&line) {
                    // The driver's opening control round trip.
                    let mut ack = encode_server(&ServerMsg::Ack(ControlAck {
                        action: ControlAction::Stats,
                        slot: 0,
                        epoch: 1,
                        role: "primary".into(),
                        last_snapshot_unix_ms: None,
                        stats: ServeStats::default(),
                    }));
                    ack.push('\n');
                    writer.write_all(ack.as_bytes()).expect("ack the handshake");
                    line.clear();
                    continue;
                }
                let seq = parse_batch_into(&line, &mut reqs).expect("driver frames parse");
                if seq as usize == STALLED {
                    std::thread::sleep(STALL);
                }
                encode_batch_reply_into(&mut reply, seq, &vec![BATCH_REJECT; reqs.len()]);
                reply.push('\n');
                if writer.write_all(reply.as_bytes()).is_err() {
                    break;
                }
                line.clear();
            }
        });
        run_open_loop(addr, &plan, || {})
    });
    let Ok(out) = outcome else {
        report.check(
            "self-test: stall shows in queued requests",
            false,
            format!("{outcome:?}"),
        );
        return;
    };
    // Frame STALLED + k was due k ms into the stall, so its reply cannot
    // come before the stall ends: at least (STALL − k·PERIOD) late.
    let stall_ns = STALL.as_nanos() as u64;
    let period_ns = PERIOD.as_nanos() as u64;
    let mut behind = 0;
    let mut ok = out.fixed_frame_ns.len() == FRAMES;
    for (k, &ns) in out.fixed_frame_ns.iter().enumerate().skip(STALLED) {
        let offset = (k - STALLED) as u64 * period_ns;
        if offset + 5 * period_ns < stall_ns {
            ok &= ns + offset >= stall_ns * 9 / 10;
            behind += 1;
        }
    }
    // Long after the stall the server keeps up again.
    let tail = out.fixed_frame_ns.last().copied().unwrap_or(u64::MAX);
    ok &= tail < stall_ns / 2;
    report.check(
        "self-test: stall shows in queued requests",
        ok,
        format!(
            "{behind} frames behind a {} ms stall each waited it out; last frame {:.2} ms",
            STALL.as_millis(),
            tail as f64 / 1e6
        ),
    );
}
