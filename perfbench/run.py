#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package (release
profile, offline) into $CARGO_TARGET_DIR (default `.bench_build`), runs
one workload, checks that the result line names exactly the metrics and
units `BENCHMARK.json` lists for the mode, keeps a copy of the full report
under `perfbench/reports/`, and exits with the benchmark's status: 0 when
every correctness check passed, non-zero otherwise. Nothing is written
outside the checkout.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
# A run measures for --seconds plus set-up and self-tests; past this it
# is stuck, not slow.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def provenance():
    """Commit (or a hash of the measured sources) and the compiler version."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    if not commit:
        # Not a git checkout: identify the code by its sources instead.
        h = hashlib.sha256()
        for top in ("crates", "perfbench/src"):
            for p in sorted((ROOT / top).rglob("*")):
                if p.is_file() and p.suffix in (".rs", ".toml"):
                    h.update(str(p.relative_to(ROOT)).encode())
                    h.update(p.read_bytes())
        for name in ("Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"):
            p = ROOT / name
            if p.is_file():
                h.update(p.read_bytes())
        commit = "tree-sha256:" + h.hexdigest()[:16]
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = ""
    return commit, rustc.replace(" ", "_") or "unknown"


def check_result(line, spec, traced):
    """The result line's metric names and units must match BENCHMARK.json."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "the last line is not a JSON result"
    if not isinstance(result, dict):
        return "the last line is not a JSON object"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    want = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return f"metric mismatch: missing {missing}, unexpected {extra}, unit differs {units}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(BENCH / "Cargo.toml")],
            cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not complete: {e}")
    if build.returncode != 0:
        fail("build failed")

    commit, rustc = provenance()
    env["PERFBENCH_COMMIT"] = commit
    env["PERFBENCH_RUSTC"] = rustc
    cmd = [str(target / "release" / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", args.trace]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    out = run.stdout
    lines = out.rstrip("\n").splitlines()
    if not lines:
        fail(f"the benchmark printed nothing (exit {run.returncode})")
    problem = check_result(lines[-1], spec, args.trace == "1")

    reports = BENCH / "reports"
    reports.mkdir(exist_ok=True)
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.txt").write_text(out)
    sys.stdout.write(out)
    sys.stdout.flush()
    if problem:
        fail(problem)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
