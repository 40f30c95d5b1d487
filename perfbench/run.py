#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload bfs-solo --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The driver (perfbench/bench.cpp) is
built from source with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then run once for the requested workload. Its
run facts (seed, source revision, compiler, build type, nproc) go to a
`facts:` line and to <build>/results/; the last stdout line is the
result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
BENCHMARK.json names both sets and this script checks the driver
printed exactly those. --size tiny runs the smoke-test sizes.

Exit codes: 0 all outputs correct; 1 a correctness or conservation
check failed; 2 the build failed or the sources are missing; 3 the run
timed out or printed no result.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir, env):
    """Configures and builds the driver; returns the binary's path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", bdir, "-j", jobs]):
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, env=env).returncode != 0:
                log("build failed: " + " ".join(cmd))
                sys.exit(2)
    return os.path.join(bdir, "pgb_perfbench")


def source_revision():
    """The git commit when the checkout is a repository, else a digest of
    the library and benchmark sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return {"git_commit": out.stdout.strip()}
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return {"source_sha256": h.hexdigest()}


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["bfs-solo", "serve-mixed", "ingest-chaos"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "runtime",
                                       "locale_grid.hpp")):
        log("library sources not found under " + os.path.join(ROOT, "src"))
        sys.exit(2)
    bdir = build_dir()
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(bdir, env)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        sys.exit(3)
    lines = [l for l in out.splitlines() if l.strip()]
    facts_lines = [l for l in lines if l.startswith("facts: ")]
    if not lines or not lines[-1].startswith("{") or not facts_lines:
        log(f"driver exited {proc.returncode} without a result")
        sys.exit(3)
    result = json.loads(lines[-1])
    facts = json.loads(facts_lines[-1][len("facts: "):])
    facts.update(source_revision())
    facts.update(workload=args.workload, trace=args.trace,
                 seconds=args.seconds)

    rc = proc.returncode
    want = declared_metrics(args.trace)
    if want is not None and list(result["metrics"]) != want:
        log("driver metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ set(want))}")
        result["correct"] = False
        rc = rc or 1

    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    with open(os.path.join(bdir, "results",
                           f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}-{args.size}.json"), "w") as f:
        json.dump({"facts": facts, "result": result}, f, indent=1)
    print("facts: " + json.dumps(facts, sort_keys=True))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.exit(rc)


if __name__ == "__main__":
    main()
