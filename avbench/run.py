#!/usr/bin/env python3
"""AVMON benchmark: one workload per invocation, one JSON result line.

    python3 avbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The script builds avbench/ (which
compiles ../src) as a Release build under $CARGO_TARGET_DIR/avbench
(default .bench_build/avbench), runs the avbench binary for the workload in
its own process, checks the simulated or live outputs, and prints two
lines: a host record, then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (untraced reps only); --trace 1
reports the per-layer metrics from traced reps, plus trace_overhead_s.
Metric definitions per lane are in avbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIM_WORKLOADS = ("churn_md5", "churn_sharded", "stat_scale")
WORKLOADS = SIM_WORKLOADS + ("live_loopback",)
DEADLINE_S = 175  # every invocation must finish within 180 s of wall time

# Metrics a lane never produces, because it does not run that layer.
NOT_RUN = {"sim": ("net.", "live."), "live": ("experiments.", "avmon.", "sim.")}


def log(msg):
    print(f"avbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (Release) and builds the avbench binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "avbench")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", build_dir, "--target", "avbench", "-j", jobs]]
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(1)
    return os.path.join(build_dir, "avbench")


def host_record(native, workload, seed):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        sha = "unavailable"
    digest = hashlib.sha256()
    for base in ("src", "avbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "compiler": native.get("compiler"),
        "build_type": native.get("build_type"),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
    }


def run_native(binary, args, budget):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.size != "full":
        cmd += ["--size", args.size]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(budget, 1))
    except subprocess.TimeoutExpired:
        log("workload timed out")
        sys.exit(1)
    if done.returncode != 0:
        log(f"avbench exited with {done.returncode}")
        sys.exit(1)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1])


def sim_result(args, report, references):
    """Checks a sim report; returns (correct, attempted, failed, metrics)."""
    problems = []
    ref = references[args.workload]
    canary_ok = report["canary"] == ref["tiny"]["fingerprint"]
    if not canary_ok:
        problems.append(f"canary fingerprint {report['canary']} != "
                        f"{ref['tiny']['fingerprint']}")
    reps = report["reps"]
    failed = int(report["failed_reps"]) + (not canary_ok)
    by_seed = {}
    for r in reps:
        seed = int(r["seed"])
        by_seed.setdefault(seed, set()).add(r["fingerprint"])
        expected = ref[args.size]["fingerprint"] if seed == ref["seed"] else None
        if expected is not None and r["fingerprint"] != expected:
            problems.append(f"seed {seed}: fingerprint {r['fingerprint']} != "
                            f"reference {expected}")
            failed += 1
        out = r["outputs"]
        if not (out["measured"] > 0 and 0 <= out["discovered_fraction"] <= 1
                and out["memory_entries_mean"] > 0 and out["outgoing_bps_mean"] > 0):
            problems.append(f"seed {seed}: implausible simulated outputs {out}")
    for seed, prints in sorted(by_seed.items()):
        if len(prints) > 1:
            problems.append(f"seed {seed}: traced and untraced fingerprints differ "
                            f"{sorted(prints)}")
            failed += 1
    attempted = len(reps) + int(report["failed_reps"]) + 1  # + the canary
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if not untraced or (args.trace and not traced):
        problems.append("no completed reps")
    for p in problems:
        log(p)
    if not untraced or (args.trace and not traced):
        return False, attempted, max(failed, 1), {}

    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(report["setups"]),
            "run_s": statistics.median(r["run_s"] for r in untraced),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "peak_rss_mb": report["peak_rss_mb"],
            "outgoing_bps_mean": statistics.mean(
                r["outputs"]["outgoing_bps_mean"] for r in untraced),
        }
    else:
        # One traced rep, the median by run_s, so its spans add up to its
        # run_s exactly; its overhead is against the same scenario untraced.
        rep = sorted(traced, key=lambda r: r["run_s"])[(len(traced) - 1) // 2]
        twin = next(r for r in untraced if r["seed"] == rep["seed"])
        metrics = dict(rep["layers"])
        metrics["experiments.run_s"] = rep["run_s"]
        metrics["trace_overhead_s"] = rep["run_s"] - twin["run_s"]
        for key in ("discovery_p50_s", "discovery_p95_s", "discovered_fraction",
                    "accuracy_abs_error", "memory_entries_mean"):
            metrics[f"experiments.{key}"] = rep["outputs"][key]
    return not problems, attempted, failed, metrics


def live_result(args, report):
    """Checks a live report; returns (correct, attempted, failed, metrics)."""
    phases = [report["untraced"]] + ([report["traced"]] if args.trace else [])
    attempted = sum(p["exchanges"] + p["one_way"] for p in phases)
    failed = sum(p["timeouts"] + p["undelivered"] + p["invalid"] for p in phases)
    invalid = sum(p["invalid"] for p in phases)
    if invalid:
        log(f"{invalid} responses or messages carried the wrong payload")
    for p in phases:
        if p["behind_schedule"]:
            log(f"generator fell behind: {p['late_share']:.2%} of exchanges issued "
                f"over 1 ms late, worst {p['gen_lag_max_us']:.0f} us")
    u = report["untraced"]
    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(report["setups"]),
            "run_s": u["run_s"],
            "cpu_s": u["cpu_s"],
            "peak_rss_mb": report["peak_rss_mb"],
            "outgoing_bps_mean": u["outgoing_bps_mean"],
        }
    else:
        metrics = dict(report["layers"])
        metrics["trace_overhead_s"] = report["traced"]["run_s"] - u["run_s"]
        metrics["live.rpc_p50_us"] = u["rpc_p50_us"]
        metrics["live.rpc_p99_us"] = u["rpc_p99_us"]
        metrics["live.gen_lag_max_us"] = u["gen_lag_max_us"]
        metrics["live.late_share"] = u["late_share"]
        metrics["live.behind_schedule"] = u["behind_schedule"]
    return invalid == 0, attempted, failed, metrics


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: self-test sizes")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    with open(os.path.join(HERE, "references.json")) as f:
        references = json.load(f)
    if args.seed is None:
        args.seed = references.get(args.workload, {}).get("seed", 1)

    binary = build()
    native = run_native(binary, args, DEADLINE_S - (time.monotonic() - start))
    report = native["report"]
    if args.workload in SIM_WORKLOADS:
        correct, attempted, failed, values = sim_result(args, report, references)
    else:
        correct, attempted, failed, values = live_result(args, report)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["end_to_end" if args.trace == 0 else "per_layer"]
    lane = "sim" if args.workload in SIM_WORKLOADS else "live"
    metrics = {}
    for m in listed:
        name = m["name"]
        if name not in values and not name.startswith(NOT_RUN[lane]):
            log(f"{name} was not measured")
            correct = False
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": m["unit"]}
    print(json.dumps({"host": host_record(native["host"], args.workload, args.seed)}))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
