//! Deterministic mutation fuzzing of every parser that faces input on
//! the serving path: `parse_client` (v1/v2 lines), `parse_batch_into`
//! (v3 batch frames), `parse_repl` (replication frames),
//! `Snapshot::decode` (snapshot files and `repl-snapshot` payloads), and
//! the reply/trace parsers `parse_server` and `mec_obs::parse_line`.
//!
//! Seeds are real frames — produced by the encoders, or taken from the
//! checked-in `results/trace_sample.jsonl` — and each round applies a
//! few byte-level mutations drawn from a fixed-seed `ChaCha8Rng`, so a
//! run is reproducible from the round number it reports. The contract
//! is that every input ends in `Ok` or a typed `ServeError` — never a
//! panic. The budget is a fixed number of rounds per target (well under
//! two seconds in a debug build), so the test runs in tier-1.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mec_serve::{
    encode_batch_into, encode_client, encode_repl, encode_server, parse_batch_into, parse_client,
    parse_repl, parse_server, ClientMsg, ControlAck, ControlAction, OverloadReject, ReplMsg,
    ServeStats, ServerMsg, Snapshot, SubmitRequest,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vnfrel::SchedulerState;

/// Mutation rounds per target.
const ROUNDS: usize = 25_000;

fn submit(id: usize) -> SubmitRequest {
    SubmitRequest {
        id,
        vnf: id % 3,
        reliability: 0.925,
        arrival: id % 7,
        duration: 1 + id % 4,
        payment: 4.5 + id as f64 / 8.0,
    }
}

fn client_seeds() -> Vec<String> {
    let mut seeds = vec![encode_client(&ClientMsg::Submit(submit(17)))];
    for action in [
        ControlAction::AdvanceSlot,
        ControlAction::Snapshot,
        ControlAction::Stats,
        ControlAction::Shutdown,
        ControlAction::Promote,
        ControlAction::DumpFlight,
        ControlAction::ChaosPanic(1),
    ] {
        seeds.push(encode_client(&ClientMsg::Control(action)));
    }
    seeds
}

fn batch_seeds() -> Vec<String> {
    [1usize, 3, 16]
        .iter()
        .map(|&n| {
            let reqs: Vec<SubmitRequest> = (0..n).map(submit).collect();
            let mut line = String::new();
            encode_batch_into(&mut line, 42, &reqs);
            line
        })
        .collect()
}

fn snapshot_seed() -> String {
    Snapshot {
        algorithm: "alg2-primal-dual".to_string(),
        config: "v1|fuzz".to_string(),
        next_id: 12,
        slot: 3,
        stats: ServeStats {
            decided: 12,
            admitted: 5,
            rejected: 7,
            overloaded: 1,
            revenue: 37.25,
        },
        state: SchedulerState {
            used: vec![0.0, 1.5, 2.0, 0.25],
            lambda: vec![0.0, 0.125, 3.0, 1e-9],
            sum_delta: 2.5,
            counters: vec![1, 0, 2],
        },
        epoch: 2,
        seq: 13,
        recent: Vec::new(),
    }
    .encode()
}

fn repl_seeds() -> Vec<String> {
    let submit_line = encode_client(&ClientMsg::Submit(submit(3)));
    [
        ReplMsg::Hello { epoch: 1, seq: 4 },
        ReplMsg::State { epoch: 1, seq: 4 },
        ReplMsg::Snapshot {
            epoch: 1,
            seq: 4,
            data: snapshot_seed(),
        },
        ReplMsg::Frame {
            epoch: 1,
            seq: 5,
            submit: submit_line,
            decision: "{\"type\":\"decision\",\"v\":1}".to_string(),
        },
        ReplMsg::Advance {
            epoch: 1,
            seq: 6,
            slot: 2,
        },
        ReplMsg::Heartbeat { epoch: 1, seq: 6 },
        ReplMsg::Ack { epoch: 1, seq: 6 },
        ReplMsg::Refused {
            epoch: 2,
            expected: 7,
            got: 9,
        },
        ReplMsg::Fenced {
            epoch: 3,
            stale_epoch: 2,
        },
    ]
    .iter()
    .map(encode_repl)
    .collect()
}

// Every 20th line of the checked-in trace sample: decisions of both
// outcomes as the daemon replies with them.
fn trace_seeds() -> Vec<String> {
    include_str!("../results/trace_sample.jsonl")
        .lines()
        .step_by(20)
        .map(str::to_string)
        .collect()
}

fn server_seeds() -> Vec<String> {
    let mut seeds = trace_seeds();
    for msg in [
        ServerMsg::Ack(ControlAck {
            action: ControlAction::ChaosPanic(1),
            slot: 4,
            stats: ServeStats::default(),
            epoch: 2,
            role: "primary".to_string(),
            last_snapshot_unix_ms: Some(1_700_000_000_000),
        }),
        ServerMsg::Overload(OverloadReject {
            id: 9,
            queue_depth: 256,
            limit: 256,
        }),
        ServerMsg::NotPrimary { epoch: 3, id: 12 },
        ServerMsg::Error("torn frame: \"quoted\" \u{1}".to_string()),
    ] {
        seeds.push(encode_server(&msg));
    }
    seeds
}

// Tokens that stress number and string handling when spliced in.
const TOKENS: &[&str] = &[
    "-1",
    "1e309",
    "-0",
    "NaN",
    "18446744073709551616",
    "9999999999999999999999",
    "0.",
    "\"",
    "\\u",
    "\\ud800",
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    "null",
    "true",
    "\u{1F600}",
    "",
];

// One round: one to four byte-level mutations of `seed` (splicing in a
// piece of `other` is one of them), kept valid UTF-8 so the input
// reaches the parser the way a line off the socket does.
fn mutate(rng: &mut ChaCha8Rng, seed: &str, other: &str) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..5usize) {
        let len = bytes.len();
        let at = if len == 0 { 0 } else { rng.gen_range(0..len) };
        match rng.gen_range(0..7u32) {
            0 if len > 0 => bytes[at] ^= 1 << rng.gen_range(0..7u32),
            1 if len > 0 => bytes[at] = b"0123456789-.e\",:[]{} \\"[rng.gen_range(0..22usize)],
            2 if len > 0 => {
                let end = (at + rng.gen_range(1..16usize)).min(len);
                bytes.drain(at..end);
            }
            3 => {
                let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                bytes.splice(at..at, token.bytes());
            }
            4 if len > 0 => {
                let end = (at + rng.gen_range(1..24usize)).min(len);
                let chunk = bytes[at..end].to_vec();
                bytes.splice(at..at, chunk);
            }
            5 => bytes.truncate(at),
            _ => {
                let o = other.as_bytes();
                if !o.is_empty() {
                    let from = rng.gen_range(0..o.len());
                    let end = (from + rng.gen_range(1..64usize)).min(o.len());
                    bytes.splice(at..at, o[from..end].iter().copied());
                }
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

// Runs `parse` (true = parsed `Ok`) over the seeds, then over `ROUNDS`
// mutants, and asserts that nothing panicked and that some mutants
// still parse — a fuzzer whose every input dies at the first byte
// tests nothing.
fn fuzz(target: &str, salt: u64, seeds: &[String], mut parse: impl FnMut(&str) -> bool) {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_f022 ^ salt);
    let mut panics: Vec<(usize, String)> = Vec::new();
    let mut parsed = 0usize;
    let mut run =
        |round: usize, input: String| match catch_unwind(AssertUnwindSafe(|| parse(&input))) {
            Ok(ok) => parsed += usize::from(ok),
            Err(_) => panics.push((round, input)),
        };
    for seed in seeds {
        run(usize::MAX, seed.clone());
    }
    for round in 0..ROUNDS {
        let seed = &seeds[rng.gen_range(0..seeds.len())];
        let other = &seeds[rng.gen_range(0..seeds.len())];
        let input = mutate(&mut rng, seed, other);
        run(round, input);
    }
    assert!(
        panics.is_empty(),
        "{target} panicked on {} fuzz inputs; first (round {}): {:?}",
        panics.len(),
        panics[0].0,
        panics[0].1
    );
    assert!(
        parsed > seeds.len(),
        "{target}: no mutant parsed, so none reached past the first field"
    );
}

#[test]
fn client_lines_parse_or_fail_typed() {
    fuzz("parse_client", 1, &client_seeds(), |line| {
        parse_client(line).is_ok()
    });
}

#[test]
fn batch_frames_parse_or_fail_typed() {
    let mut out = Vec::new();
    fuzz("parse_batch_into", 2, &batch_seeds(), |line| {
        parse_batch_into(line, &mut out).is_ok()
    });
}

#[test]
fn replication_frames_parse_or_fail_typed() {
    fuzz("parse_repl", 3, &repl_seeds(), |line| {
        parse_repl(line).is_ok()
    });
}

#[test]
fn snapshots_decode_or_fail_typed() {
    fuzz("Snapshot::decode", 4, &[snapshot_seed()], |text| {
        Snapshot::decode(text).is_ok()
    });
}

#[test]
fn server_replies_parse_or_fail_typed() {
    fn parse(line: &str) -> bool {
        parse_server(line).is_ok()
    }
    fuzz("parse_server", 5, &server_seeds(), parse);
}

#[test]
fn trace_lines_parse_or_fail_typed() {
    fuzz("mec_obs::parse_line", 6, &trace_seeds(), |line| {
        mec_obs::parse_line(line).is_ok()
    });
}

#[test]
fn seeds_parse_cleanly() {
    // The corpus is only as good as its seeds: each must parse, so the
    // mutants start from inputs that reach deep into the parsers.
    for line in client_seeds() {
        parse_client(&line).unwrap();
    }
    let mut out = Vec::new();
    for line in batch_seeds() {
        parse_batch_into(&line, &mut out).unwrap();
    }
    for line in repl_seeds() {
        parse_repl(&line).unwrap();
    }
    Snapshot::decode(&snapshot_seed()).unwrap();
    for line in server_seeds() {
        parse_server(&line).unwrap();
    }
}
