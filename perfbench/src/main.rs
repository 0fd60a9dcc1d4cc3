//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, measures for about
//! `--seconds`, checks that every output is correct, and prints a
//! human-readable report followed by one JSON result line. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer metrics (a
//! separate run, so the per-layer timing never touches the end-to-end
//! figures). Exits 1 when any correctness check fails, 2 on bad usage.
//! See README.md for the workloads and metric definitions.

mod driver;
mod host;
mod layers;
mod offline;
mod report;
mod scenario;
mod selftest;
mod serve;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use report::Report;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["serve-open-batch", "offline-long-horizon", "offline-chains"];

/// How long a run measures, and how its repetitions are counted.
#[derive(Debug)]
pub struct Budget {
    seconds: f64,
    /// Set-ups an offline run repeats for its `setup_s` median.
    pub setups: usize,
    min_cycles: usize,
}

impl Budget {
    /// Whether another cycle fits: always until `min_cycles` are done,
    /// then only while the next one is expected to end within budget.
    pub fn more(&self, started: Instant, done: usize) -> bool {
        if done < self.min_cycles {
            return true;
        }
        let elapsed = started.elapsed().as_secs_f64();
        elapsed + elapsed / done as f64 <= self.seconds
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let traced = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Budget {
        seconds: args.seconds,
        setups: 5,
        min_cycles: 3,
    };
    let mut report = Report::default();
    report.note(format!(
        "perfbench workload={} seed={} seconds={} trace={} host_cpus={} commit={} rustc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        host::cpus(),
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
    ));
    selftest::run(&mut report);

    let (seed, traced) = (args.seed, args.traced);
    let (started, steal0) = (Instant::now(), host::steal_ticks());
    // Per-layer figures are measured on the workload's own single-VNF
    // trace and instance, before its cycles (the reconciliation row of
    // serve-open-batch reads the queue-hop figure).
    if traced {
        let shape = match args.workload.as_str() {
            "serve-open-batch" => &serve::OPEN_SHAPE,
            "offline-long-horizon" => &offline::LONG_SHAPE,
            _ => &offline::CHAIN_SHAPE,
        };
        layers::common(&scenario::build(shape, None, seed), seed, &mut report);
    }
    match args.workload.as_str() {
        "serve-open-batch" => {
            serve::open_batch(seed, &budget, traced, &mut report);
            serve::closed_probe(seed, &mut report);
        }
        "offline-long-horizon" => offline::long_horizon(seed, &budget, traced, &mut report),
        _ => offline::chains(seed, &budget, traced, &mut report),
    }
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.set("failed_ratio", failed_ratio);
    report.set("peak_rss_mib", host::peak_rss_mib());
    report.set(
        "host.steal_share",
        host::steal_share(
            host::steal_ticks() - steal0,
            started.elapsed().as_secs_f64(),
        ),
    );

    let (text, line, correct) = report.render(traced);
    print!("{text}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
