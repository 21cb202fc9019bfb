#!/usr/bin/env python3
"""Entry point of the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload kv_a_zipf --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Builds the benchmark and the
server with dune, runs one measured run of the workload and prints, as the
last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` every
end-to-end metric of BENCHMARK.json, with ``--trace 1`` every per-layer
one. The line before it holds the host fingerprint of the run.

``setup_s`` is the median of three set-ups: two set-up-only processes and
the measured one. Exits non-zero, without a result, when the build or a
run fails or a metric is missing.

The runs (benchmark and server child alike) are pinned to one CPU, the
highest-numbered one available. On a small virtual machine a wakeup on
another CPU costs an inter-processor interrupt; unpinned, the serve
workload's four thread handoffs per request made its latencies swing
with the host's load (throughput dropped threefold in some runs), while
pinned runs repeated within a few percent. The in-process workloads are
single-threaded and unaffected.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
SERVER = os.path.join("_build", "default", "bin", "incll_server.exe")
OUT = os.path.join("perfbench", "out")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 45
RUN_TIMEOUT_S = 170  # every bench.exe process of one run.py call


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    # --cache=disabled: dune's shared cache lives outside the checkout.
    cmd = ["dune", "build", "--root", ".", "--cache=disabled",
           "./perfbench/bench.exe", "./bin/incll_server.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if done.returncode != 0:
        die("build failed (exit %d)" % done.returncode)


def bench(args, extra, timeout):
    """One bench.exe process, in its own process group so that a timeout
    also stops the server child it may have started."""
    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", SERVER, "--out", OUT, "--scale", args.scale] + extra
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("%s timed out" % " ".join(cmd))
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("%s exited %d" % (" ".join(cmd), proc.returncode))
    try:
        return json.loads(lines[-1])
    except ValueError:
        die("unparsable result line: %r" % lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke: tiny key counts, for the smoke test")
    args = p.parse_args()

    s = spec()
    if args.workload not in [w["name"] for w in s["workloads"]]:
        die("unknown workload %s" % args.workload)
    want = s["per_layer"] if args.trace else s["end_to_end"]
    os.chdir(ROOT)
    build()
    os.makedirs(OUT, exist_ok=True)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    start = time.monotonic()
    left = lambda: RUN_TIMEOUT_S - (time.monotonic() - start)
    runs = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            runs.append(bench(args, ["--setup-only"], min(SETUP_TIMEOUT_S, left())))
    main_run = bench(args, [], left())
    runs.append(main_run)

    metrics = dict(main_run["metrics"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(r["setup_s"] for r in runs),
                              "unit": "s"}
    out = {}
    for m in want:
        got = metrics.get(m["name"])
        if got is None:
            die("metric %s missing from the %s run" % (m["name"], args.workload))
        if got["unit"] != m["unit"]:
            die("metric %s has unit %s, BENCHMARK.json says %s"
                % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = got
    print(json.dumps({"fingerprint": main_run["fingerprint"]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": out,
    }))


if __name__ == "__main__":
    main()
