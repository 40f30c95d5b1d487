#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke_test.py

Runs every workload untraced and traced through run.py and checks:
every run exits 0 with "correct": true; the untraced run prints exactly
the end-to-end metrics of BENCHMARK.json and the traced run exactly the
per-layer ones, with their units; end-to-end values are positive; the
modeled figures repeat bit-exactly for a repeated seed; and run.py
fails without printing a result when only BENCHMARK.json and the
benchmark directory are present.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bfs-solo", "serve-mixed", "ingest-chaos"]
# Modeled (simulated-time) figures: pure functions of the seed.
MODELED_E2E = ["query_latency_ms.p50"]
MODELED_LAYER = ["bfs_modeled_ms.p50", "query_latency_ms.p90", "capacity_qps",
                 "ingest_ack_ms.p50", "recovery_lost_ms",
                 "core.spmspv.local.modeled_ms", "runtime.comm.messages"]


def run(root, workload, seed, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, "no output; stderr:\n" + proc.stderr
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)
            print("FAIL:", what)

    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runs = [run(ROOT, w, 7, trace), run(ROOT, w, 7, trace)]
            for p in runs:
                expect(p.returncode == 0,
                       f"{w} trace={trace}: exit {p.returncode}\n{p.stderr}")
            res = [result(p) for p in runs]
            r = res[0]
            expect(r["correct"] is True, f"{w} trace={trace}: not correct")
            expect(set(r) == {"correct", "attempted", "failed", "metrics"},
                   f"{w} trace={trace}: result keys {sorted(r)}")
            expect(r["attempted"] >= 1, f"{w}: attempted {r['attempted']}")
            want = [(m["name"], m["unit"]) for m in spec[key]]
            got = [(k, v["unit"]) for k, v in r["metrics"].items()]
            expect(got == want, f"{w} trace={trace}: metrics {got}")
            if trace == 0:
                for k, v in r["metrics"].items():
                    expect(v["value"] > 0, f"{w}: {k} = {v['value']}")
            for k in MODELED_E2E if trace == 0 else MODELED_LAYER:
                a, b = (x["metrics"][k]["value"] for x in res)
                expect(a == b, f"{w}: modeled {k} not repeatable: {a} vs {b}")
            print(f"ok {w} trace={trace}")

    # Without the library sources the benchmark must fail, not report.
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run(scratch, "bfs-solo", 1, 0)
        expect(p.returncode != 0 and '"metrics"' not in p.stdout,
               f"bare directory: exit {p.returncode}, stdout {p.stdout!r}")
        print("ok bare directory fails")
    finally:
        shutil.rmtree(scratch)

    if failures:
        print(f"{len(failures)} check(s) failed")
        sys.exit(1)
    print("all smoke checks passed")


if __name__ == "__main__":
    main()
