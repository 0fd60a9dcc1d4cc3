//! The metric catalog, correctness checks, and the result line.
//!
//! Every name below is also listed in the repository's `BENCHMARK.json`;
//! `run.py` refuses a result whose metric set or units differ from it.
//! A `--trace 0` run prints every end-to-end metric, a `--trace 1` run
//! every per-layer metric. Per-layer metrics of a layer the workload
//! does not run read 0 and are listed as "not exercised".

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{steady_mean, Windows};

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("run_s", "s"),
    ("revenue", "payment"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.batch_parse_ns_per_req", "ns"),
    ("protocol.batch_encode_ns_per_req", "ns"),
    ("protocol.reply_encode_ns_per_req", "ns"),
    ("protocol.reply_parse_ns_per_req", "ns"),
    ("protocol.batch_bytes_per_req", "bytes"),
    ("protocol.line_parse_ns", "ns"),
    ("protocol.line_encode_ns", "ns"),
    ("protocol.line_bytes_per_req", "bytes"),
    ("pool.hop_ns", "ns"),
    ("shard.ingress_parse_ns_per_req", "ns"),
    ("shard.dispatch_ns_per_req", "ns"),
    ("shard.queue_wait_ns_per_req", "ns"),
    ("shard.decide_ns_per_req", "ns"),
    ("shard.reserve_commit_ns_per_req", "ns"),
    ("shard.reply_write_ns_per_req", "ns"),
    ("shard.parts_per_frame", "count"),
    ("shard.cross_shard_admit_ratio", "ratio"),
    ("shard.decided_imbalance", "ratio"),
    ("shard.overloaded", "count"),
    ("daemon.ingress_parse_ns_per_req", "ns"),
    ("daemon.queue_wait_ns_per_req", "ns"),
    ("daemon.decide_ns_per_req", "ns"),
    ("daemon.reply_write_ns_per_req", "ns"),
    ("daemon.closed_loop_rps", "1/s"),
    ("daemon.closed_loop_p50_us", "us"),
    ("daemon.closed_loop_p99_us", "us"),
    ("onsite.alg1.decide_ns", "ns"),
    ("onsite.alg1.decide_admit_ns", "ns"),
    ("onsite.alg1.decide_reject_ns", "ns"),
    ("onsite.alg1.admit_ratio", "ratio"),
    ("onsite.greedy.decide_ns", "ns"),
    ("onsite.greedy.decide_admit_ns", "ns"),
    ("onsite.greedy.decide_reject_ns", "ns"),
    ("onsite.greedy.admit_ratio", "ratio"),
    ("offsite.alg2.decide_ns", "ns"),
    ("offsite.alg2.decide_admit_ns", "ns"),
    ("offsite.alg2.decide_reject_ns", "ns"),
    ("offsite.alg2.admit_ratio", "ratio"),
    ("offsite.greedy.decide_ns", "ns"),
    ("offsite.greedy.decide_admit_ns", "ns"),
    ("offsite.greedy.decide_reject_ns", "ns"),
    ("offsite.greedy.admit_ratio", "ratio"),
    ("offsite.sites_per_admit", "count"),
    ("baselines.density.decide_ns", "ns"),
    ("baselines.density.decide_admit_ns", "ns"),
    ("baselines.density.decide_reject_ns", "ns"),
    ("baselines.density.admit_ratio", "ratio"),
    ("baselines.random.decide_ns", "ns"),
    ("baselines.random.decide_admit_ns", "ns"),
    ("baselines.random.decide_reject_ns", "ns"),
    ("baselines.random.admit_ratio", "ratio"),
    ("pricing.update_window_ns", "ns"),
    ("pricing.window_sum_ns", "ns"),
    ("ledger.fits_window_ns", "ns"),
    ("ledger.charge_window_ns", "ns"),
    ("ledger.reserve_commit_ns", "ns"),
    ("ledger.max_overflow", "units"),
    ("instance.build_ms", "ms"),
    ("generator.ns_per_req", "ns"),
    ("path.distances_ms", "ms"),
    ("engine.run_ns_per_req", "ns"),
    ("engine.run_with_failures_ns_per_req", "ns"),
    ("engine.run_degraded_ns_per_req", "ns"),
    ("failure.mc_trials_per_s", "1/s"),
    ("failure.audit_violations", "count"),
    ("chain.decide_ns_per_chain", "ns"),
    ("chain.decide_single_ns", "ns"),
    ("chain.admit_ratio", "ratio"),
    ("chain.reject.unknown_vnf", "count"),
    ("chain.reject.bad_ingress", "count"),
    ("chain.reject.latency_infeasible", "count"),
    ("chain.reject.reliability_infeasible", "count"),
    ("chain.reject.capacity_gate", "count"),
    ("chain.reject.payment_test", "count"),
    ("chain.standbys", "count"),
    ("chain.subscribers_per_standby", "count"),
    ("chain.charged_compute_slots", "unit-slots"),
    ("chain_run.mixed_ns_per_req", "ns"),
    ("chain_failure.mc_trials_per_s", "1/s"),
    ("driver.late_p99_us", "us"),
    ("driver.cpu_share", "ratio"),
    ("driver.clock_ns", "ns"),
    ("driver.latency_samples", "count"),
    ("reconcile.layer_sum_ns_per_req", "ns"),
    ("reconcile.cpu_ns_per_req", "ns"),
    ("reconcile.unaccounted_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("host.steal_share", "ratio"),
    ("host.steal_units_left_out", "count"),
    ("workload.admit_ratio", "ratio"),
    ("failed_ratio", "ratio"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// One named pass/fail check.
#[derive(Debug)]
struct Check {
    name: String,
    ok: bool,
    detail: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    checks: Vec<Check>,
    /// Operations the run attempted (requests sent or decided).
    pub attempted: u64,
    /// Operations that failed (overloads, error codes, unanswered).
    pub failed: u64,
    lines: Vec<String>,
}

impl Report {
    /// Records a metric value.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalog: a typo is a benchmark bug.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalog"
        );
        self.values.insert(name.to_string(), value);
    }

    /// A recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records a correctness check; a failed check fails the run. A
    /// check repeated under the same name (once per cycle) is kept once,
    /// with the detail of its first failure, else of its last pass.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(c) if !c.ok => {}
            Some(c) => {
                c.ok = ok;
                c.detail = detail.into();
            }
            None => self.checks.push(Check {
                name: name.to_string(),
                ok,
                detail: detail.into(),
            }),
        }
    }

    /// Records that a ratio lies in its stated band.
    pub fn check_band(&mut self, name: &str, value: f64, lo: f64, hi: f64) {
        self.check(
            name,
            (lo..=hi).contains(&value),
            format!("{value:.4} in [{lo}, {hi}]"),
        );
    }

    /// Records the end-to-end latency percentiles over windows.
    pub fn latency(&mut self, windows: &Windows) {
        self.check(
            "latency p99 has 10 samples beyond it",
            windows.thin == 0 && !windows.p99_us.is_empty(),
            format!(
                "{} of {} windows too small",
                windows.thin,
                windows.thin + windows.p99_us.len()
            ),
        );
        if !windows.p99_us.is_empty() {
            let (p50, left_out) = steady_mean(&windows.p50_us);
            self.set("latency_p50_us", p50);
            self.set("latency_p99_us", steady_mean(&windows.p99_us).0);
            self.left_out(left_out);
        }
        self.set("driver.latency_samples", windows.samples as f64);
    }

    /// Records the run's figure from per-unit (value, steal share)
    /// figures (see [`steady_mean`]), counting the units left out.
    pub fn set_steady(&mut self, name: &str, units: &[(f64, f64)]) {
        let (value, left_out) = steady_mean(units);
        self.set(name, value);
        self.left_out(left_out);
    }

    fn left_out(&mut self, units: usize) {
        let so_far = self.get("host.steal_units_left_out").unwrap_or(0.0);
        self.set("host.steal_units_left_out", so_far + units as f64);
    }

    /// Adds a free-text line to the human-readable part of the output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Renders the human-readable report and the final JSON result line.
    /// Returns (text, result line, correct).
    pub fn render(mut self, traced: bool) -> (String, String, bool) {
        let catalog = if traced { PER_LAYER } else { END_TO_END };
        let mut text = String::new();
        for line in &self.lines {
            let _ = writeln!(text, "{line}");
        }
        let mut json = String::from("{");
        let mut unexercised = Vec::new();
        for (i, &(name, unit)) in catalog.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if traced => {
                    unexercised.push(name);
                    0.0
                }
                None => {
                    self.checks.push(Check {
                        name: format!("metric {name} measured"),
                        ok: false,
                        detail: "the workload did not produce it".into(),
                    });
                    0.0
                }
            };
            if !value.is_finite() {
                self.checks.push(Check {
                    name: format!("metric {name} finite"),
                    ok: false,
                    detail: format!("{value}"),
                });
            }
            let shown = if value.is_finite() { value } else { 0.0 };
            let _ = writeln!(text, "  {name:<40} {shown:>18.6} {unit}");
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {shown:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push('}');
        if !unexercised.is_empty() {
            let _ = writeln!(
                text,
                "  not exercised by this workload (reported as 0): {}",
                unexercised.join(", ")
            );
        }
        for c in &self.checks {
            let _ = writeln!(
                text,
                "  check {:<4} {}: {}",
                if c.ok { "ok" } else { "FAIL" },
                c.name,
                c.detail
            );
        }
        if self.attempted == 0 {
            self.checks.push(Check {
                name: "work attempted".into(),
                ok: false,
                detail: "the run attempted no operation".into(),
            });
        }
        let correct = self.correct();
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
            self.attempted, self.failed
        );
        (text, line, correct)
    }
}
