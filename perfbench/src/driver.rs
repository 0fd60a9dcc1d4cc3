//! The benchmark's own load drivers: one TCP connection each, at most
//! two threads (`nproc` on the reference host).
//!
//! The open-loop driver sends v3 batch frames on a fixed schedule with
//! no in-flight window, and times every request from the instant its
//! frame was *due*, not from when the (possibly late) sender got it out:
//! a server stall therefore shows in every request queued behind it. How
//! late the sender itself ran is reported separately. A second,
//! saturation phase then keeps a fixed window of frames in flight to
//! measure the highest sustained decision rate without overloading the
//! daemon's queues.

use std::io::{self, BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mec_obs::Outcome;
use mec_serve::{
    encode_batch_into, encode_client, is_batch_reply, parse_batch_reply_into, parse_server,
    ClientMsg, ControlAction, ServeStats, ServerMsg, SubmitRequest, BATCH_ADMIT, BATCH_ERROR,
    BATCH_OVERLOAD, BATCH_REJECT,
};
use mec_workload::Request;

use crate::host;
use crate::stats::{ns_between, Samples};

/// The wire form of one request.
pub fn submit_of(r: &Request) -> SubmitRequest {
    SubmitRequest {
        id: r.id().index(),
        vnf: r.vnf().index(),
        reliability: r.reliability_requirement().value(),
        arrival: r.arrival(),
        duration: r.duration(),
        payment: r.payment(),
    }
}

fn connect(addr: SocketAddr) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    Ok((stream, reader))
}

/// Sends `shutdown` on a fresh connection and returns the final counters
/// carried by the daemon's acknowledgement.
pub fn shutdown(addr: SocketAddr) -> io::Result<ServeStats> {
    let (mut writer, mut reader) = connect(addr)?;
    let mut line = encode_client(&ClientMsg::Control(ControlAction::Shutdown));
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    line.clear();
    reader.read_line(&mut line)?;
    match parse_server(line.trim()) {
        Ok(ServerMsg::Ack(ack)) => Ok(ack.stats),
        other => Err(io::Error::other(format!(
            "expected a shutdown ack, got {other:?}"
        ))),
    }
}

/// What one open-loop drive sends.
#[derive(Debug)]
pub struct OpenLoopPlan<'a> {
    /// Every frame, in send order; a frame's index is its sequence number.
    pub frames: &'a [Vec<SubmitRequest>],
    /// Frames `[0, fixed_frames)` go out at `rate_rps`, the rest at
    /// saturation.
    pub fixed_frames: usize,
    /// Offered load of the fixed-rate phase, in requests per second.
    pub rate_rps: f64,
    /// Frames kept in flight during the saturation phase.
    pub window: usize,
    /// Fixed-rate frames per latency window; host steal is read at each
    /// window boundary.
    pub window_frames: usize,
    /// Time the client-side codec calls (batch encode, reply parse).
    pub traced: bool,
}

/// What one open-loop drive measured.
#[derive(Debug, Default)]
pub struct OpenLoopOutcome {
    /// Due-to-reply latency of each fixed-rate frame, by sequence number;
    /// every request in the frame has this latency.
    pub fixed_frame_ns: Vec<u64>,
    /// Steal share of each latency window of the fixed-rate phase (the
    /// last window takes the remainder frames).
    pub window_steal: Vec<f64>,
    /// How late the sender put each fixed-rate frame on the wire.
    pub late: Samples,
    /// Requests sent in the saturation phase.
    pub sat_requests: u64,
    /// Saturation phase: first send to last reply.
    pub sat_elapsed: Duration,
    /// Steal share of the saturation phase.
    pub sat_steal: f64,
    /// Reply codes by value: reject, admit, overload, error.
    pub codes: [u64; 4],
    /// Σ payment of requests answered with the admit code.
    pub admitted_payment: f64,
    /// Requests whose frame never got a reply.
    pub unanswered: u64,
    /// Replies for a sequence number already answered or never sent.
    pub stray_replies: u64,
    /// Non-batch lines the daemon sent back (error replies).
    pub error_lines: u64,
    /// CPU time of the two driver threads during the fixed-rate phase.
    pub driver_cpu_ns: u64,
    /// CPU time of the whole process during the fixed-rate phase.
    pub process_cpu_fixed_ns: u64,
    /// CPU time of the whole process during the saturation phase.
    pub process_cpu_sat_ns: u64,
    /// Client-side batch encode time over all frames (traced only).
    pub encode_ns: u64,
    /// Client-side reply parse time over all replies (traced only).
    pub parse_ns: u64,
}

struct Received {
    at: Vec<Option<Instant>>,
    codes: [u64; 4],
    admitted_payment: f64,
    stray: u64,
    error_lines: u64,
    parse_ns: u64,
    cpu_at_fixed_done: u64,
    cpu_start: u64,
}

// Sleeps until `due`. The sender lowers its timer slack first (see
// `set_timer_slack`), so this wakes within microseconds of the deadline
// without spinning a core the daemon needs.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Sets the calling thread's timer slack, so a paced sleep wakes within
/// about `ns` of its deadline instead of the default 50 µs. Best effort:
/// on failure the sender is merely later, which `late` reports.
fn set_timer_slack(ns: u64) {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: prctl(PR_SET_TIMERSLACK, ns) only changes a scheduling
    // attribute of the calling thread; the unused arguments are zero as
    // the interface requires.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, ns, 0, 0, 0) };
}

/// Drives `plan` over one connection to `addr`. `between_phases` runs
/// after every fixed-rate reply has arrived and before the saturation
/// phase starts (the caller snapshots daemon histograms there).
///
/// # Errors
///
/// Connection and socket errors.
pub fn run_open_loop(
    addr: SocketAddr,
    plan: &OpenLoopPlan<'_>,
    between_phases: impl FnOnce(),
) -> io::Result<OpenLoopOutcome> {
    let frames = plan.frames;
    let fixed = plan.fixed_frames.min(frames.len());
    let (mut writer, mut reader) = connect(addr)?;
    // One control round trip first, so the schedule starts on a
    // connection the daemon has already accepted.
    let mut line = encode_client(&ClientMsg::Control(ControlAction::Stats));
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    line.clear();
    reader.read_line(&mut line)?;
    if !matches!(parse_server(line.trim()), Ok(ServerMsg::Ack(_))) {
        return Err(io::Error::other(format!(
            "expected a stats ack, got {line:?}"
        )));
    }
    let (token_tx, token_rx) = mpsc::sync_channel::<()>(plan.window.max(1));
    let (fixed_done_tx, fixed_done_rx) = mpsc::channel::<()>();
    for _ in 0..plan.window.max(1) {
        token_tx.send(()).expect("receiver half alive");
    }
    let traced = plan.traced;
    let period_ns = 1e9 * frames.first().map_or(0, Vec::len) as f64 / plan.rate_rps;

    let mut out = OpenLoopOutcome::default();
    let base = Instant::now() + Duration::from_millis(1);
    let due = |seq: usize| base + Duration::from_nanos((seq as f64 * period_ns) as u64);
    let mut sat_started = None;
    let received = std::thread::scope(|scope| -> io::Result<Received> {
        let receiver =
            scope.spawn(move || receive(reader, frames, fixed, traced, token_tx, fixed_done_tx));

        let mut buf = String::with_capacity(8192);
        set_timer_slack(1_000);
        let cpu0 = host::thread_cpu_ns();
        let proc0 = host::process_cpu_ns();
        let mut send =
            |seq: usize, buf: &mut String, out: &mut OpenLoopOutcome| -> io::Result<Instant> {
                let t = traced.then(Instant::now);
                encode_batch_into(buf, seq as u64, &frames[seq]);
                buf.push('\n');
                if let Some(t) = t {
                    out.encode_ns += ns_between(t, Instant::now());
                }
                writer.write_all(buf.as_bytes())?;
                Ok(Instant::now())
            };
        let per_window = plan.window_frames.max(1);
        let windows = (fixed / per_window).max(1);
        let mut mark = (Instant::now(), host::steal_ticks());
        for seq in 0..fixed {
            wait_until(due(seq));
            let sent = send(seq, &mut buf, &mut out)?;
            out.late.push(ns_between(due(seq), sent), 1);
            let boundary = (seq + 1) % per_window == 0 && (seq + 1) / per_window < windows;
            if boundary || seq + 1 == fixed {
                let now = (Instant::now(), host::steal_ticks());
                let secs = now.0.duration_since(mark.0).as_secs_f64();
                out.window_steal
                    .push(host::steal_share(now.1 - mark.1, secs));
                mark = now;
            }
        }
        let sender_cpu = host::thread_cpu_ns() - cpu0;
        if fixed > 0 {
            // Every fixed-rate reply is in before the phase boundary.
            let _ = fixed_done_rx.recv();
        }
        out.process_cpu_fixed_ns = host::process_cpu_ns() - proc0;
        out.driver_cpu_ns = sender_cpu;
        between_phases();

        let proc1 = host::process_cpu_ns();
        let steal1 = host::steal_ticks();
        let started = Instant::now();
        sat_started = Some(started);
        for seq in fixed..frames.len() {
            if token_rx.recv().is_err() {
                break; // the receiver ended early; its error surfaces below
            }
            send(seq, &mut buf, &mut out)?;
        }
        let received = receiver.join().expect("receiver thread panicked")?;
        out.process_cpu_sat_ns = host::process_cpu_ns() - proc1;
        out.sat_steal = host::steal_share(
            host::steal_ticks() - steal1,
            started.elapsed().as_secs_f64(),
        );
        Ok(received)
    })?;

    out.driver_cpu_ns += received.cpu_at_fixed_done - received.cpu_start;
    out.codes = received.codes;
    out.admitted_payment = received.admitted_payment;
    out.stray_replies = received.stray;
    out.error_lines = received.error_lines;
    out.parse_ns = received.parse_ns;
    let mut last_sat = None;
    for (seq, frame) in frames.iter().enumerate() {
        let n = frame.len() as u64;
        let Some(at) = received.at[seq] else {
            out.unanswered += n;
            continue;
        };
        if seq < fixed {
            out.fixed_frame_ns.push(ns_between(due(seq), at));
        } else {
            out.sat_requests += n;
            last_sat = Some(last_sat.map_or(at, |l: Instant| l.max(at)));
        }
    }
    if let (Some(start), Some(end)) = (sat_started, last_sat) {
        out.sat_elapsed = end.saturating_duration_since(start);
    }
    Ok(out)
}

// Reads replies until every frame is answered (or the daemon hangs up),
// returning a window token per saturation reply and signalling once the
// fixed-rate phase is fully answered.
fn receive(
    mut reader: BufReader<TcpStream>,
    frames: &[Vec<SubmitRequest>],
    fixed: usize,
    traced: bool,
    token_tx: mpsc::SyncSender<()>,
    fixed_done_tx: mpsc::Sender<()>,
) -> io::Result<Received> {
    let cpu_start = host::thread_cpu_ns();
    let mut r = Received {
        at: vec![None; frames.len()],
        codes: [0; 4],
        admitted_payment: 0.0,
        stray: 0,
        error_lines: 0,
        parse_ns: 0,
        cpu_at_fixed_done: cpu_start,
        cpu_start,
    };
    let mut line = String::with_capacity(8192);
    let mut codes = Vec::with_capacity(1024);
    let (mut answered, mut fixed_answered) = (0, 0);
    if fixed == 0 {
        let _ = fixed_done_tx.send(());
    }
    while answered < frames.len() {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let t = traced.then(Instant::now);
        if !is_batch_reply(&line) {
            r.error_lines += 1;
            continue;
        }
        let Ok(seq) = parse_batch_reply_into(&line, &mut codes) else {
            r.error_lines += 1;
            continue;
        };
        let now = Instant::now();
        if let Some(t) = t {
            r.parse_ns += ns_between(t, now);
        }
        let seq = seq as usize;
        let Some(frame) = frames.get(seq) else {
            r.stray += 1;
            continue;
        };
        if r.at[seq].is_some() || codes.len() != frame.len() {
            r.stray += 1;
            continue;
        }
        r.at[seq] = Some(now);
        answered += 1;
        for (req, &code) in frame.iter().zip(&codes) {
            match code {
                BATCH_ADMIT => r.admitted_payment += req.payment,
                BATCH_REJECT | BATCH_OVERLOAD | BATCH_ERROR => {}
                _ => unreachable!("the reply parser rejects unknown codes"),
            }
            r.codes[usize::from(code)] += 1;
        }
        if seq < fixed {
            fixed_answered += 1;
            if fixed_answered == fixed {
                r.cpu_at_fixed_done = host::thread_cpu_ns();
                let _ = fixed_done_tx.send(());
            }
        } else {
            let _ = token_tx.try_send(());
        }
    }
    // Unblock a sender still waiting for the fixed-rate phase or a token.
    let _ = fixed_done_tx.send(());
    drop(token_tx);
    Ok(r)
}

/// What one closed-loop line drive measured.
#[derive(Debug, Default)]
pub struct ClosedOutcome {
    /// Send → reply parsed, per request, in request order.
    pub latency_ns: Vec<u64>,
    /// First send to last reply.
    pub elapsed: Duration,
    /// Requests decided (decision lines received).
    pub decided: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Σ payment over admitted requests, summed in request order.
    pub revenue: f64,
    /// Overload, error or unexpected replies.
    pub failed: u64,
}

/// Sends each request as a v2 submit line and waits for its decision
/// before sending the next (one request outstanding).
///
/// # Errors
///
/// Connection and socket errors.
pub fn run_closed_line(addr: SocketAddr, requests: &[SubmitRequest]) -> io::Result<ClosedOutcome> {
    let (mut writer, mut reader) = connect(addr)?;
    let mut out = ClosedOutcome::default();
    let mut line = String::with_capacity(1024);
    let started = Instant::now();
    for req in requests {
        let sent = Instant::now();
        let mut msg = encode_client(&ClientMsg::Submit(*req));
        msg.push('\n');
        writer.write_all(msg.as_bytes())?;
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            out.failed += 1;
            break;
        }
        let reply = parse_server(line.trim());
        let done = Instant::now();
        out.latency_ns.push(ns_between(sent, done));
        match reply {
            Ok(ServerMsg::Decision(ev)) => {
                out.decided += 1;
                if matches!(ev.outcome, Outcome::Admit { .. }) {
                    out.admitted += 1;
                    out.revenue += req.payment;
                }
            }
            _ => out.failed += 1,
        }
    }
    out.elapsed = started.elapsed();
    Ok(out)
}
