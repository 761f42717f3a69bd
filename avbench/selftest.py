#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at its tiny size, both modes.

    python3 avbench/selftest.py

Run from the root of a source tree. For each workload and for --trace 0
and 1 it checks that run.py exits 0 and that its last line is the result
object with exactly the keys correct/attempted/failed/metrics; that the
outputs were judged correct with no failed operation (which includes the
traced and untraced fingerprints agreeing, and the canary matching its
shards = 1 reference); that every metric BENCHMARK.json names is emitted
with its unit and a name matching [A-Za-z0-9_.-]+; and, for the sim
workloads, that the traced spans plus experiments.unattributed_s add up to
the traced run_s.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SPAN_KEYS = ("experiments.collect_s", "avmon.selector.hash_s", "experiments.unattributed_s")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for w in bench["workloads"]:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", w["name"],
                   "--seed", "1", "--seconds", "2", "--trace", str(trace),
                   "--size", "tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            where = f"{w['name']} --trace {trace}"
            before = len(errors)
            if done.returncode != 0:
                errors.append(f"{where}: exit {done.returncode}\n{done.stderr[-2000:]}")
                continue
            lines = done.stdout.strip().splitlines()
            host = json.loads(lines[-2])["host"]
            for key in ("nproc", "compiler", "build_type", "git_sha"):
                if key not in host:
                    errors.append(f"{where}: host record lacks {key}")
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                errors.append(f"{where}: correct={result['correct']} "
                              f"failed={result['failed']} attempted={result['attempted']}"
                              f"\n{done.stderr[-2000:]}")
            metrics = result["metrics"]
            for m in listed:
                got = metrics.get(m["name"])
                if not NAME.match(m["name"]):
                    errors.append(f"{where}: bad metric name {m['name']!r}")
                if got is None or got.get("unit") != m["unit"]:
                    errors.append(f"{where}: {m['name']} missing or unit != {m['unit']}")
                elif not math.isfinite(got["value"]):
                    errors.append(f"{where}: {m['name']} = {got['value']}")
            if set(metrics) != {m["name"] for m in listed}:
                errors.append(f"{where}: emits {sorted(set(metrics) - {m['name'] for m in listed})}"
                              f" beyond BENCHMARK.json")
            if trace == 1 and w["name"] != "live_loopback" and len(errors) == before:
                value = {k: v["value"] for k, v in metrics.items()}
                spans = sum(value[k] for k in SPAN_KEYS) + sum(
                    v for k, v in value.items()
                    if re.match(r"avmon\.(on_message\.\w+|on_rpc\.\w+|join|leave)\.s\Z", k))
                if not math.isclose(spans, value["experiments.run_s"], rel_tol=1e-9,
                                    abs_tol=1e-9):
                    errors.append(f"{where}: spans add up to {spans}, traced run_s is "
                                  f"{value['experiments.run_s']}")
            print(f"ok   {where}" if len(errors) == before else f"FAIL {where}", flush=True)
    for e in errors:
        print(e, file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
