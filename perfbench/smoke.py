#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny size, both modes.

    python3 perfbench/smoke.py

Runs ``run.py --scale smoke --seconds 1`` for each workload of
BENCHMARK.json with ``--trace 0`` and ``--trace 1`` and asserts that the
result line has exactly the contract's keys, that every named metric is
emitted with its unit and a finite value, that the output checks passed,
that the traced run wrote its span file, and that perfbench/layers.json
documents every metric and workload. Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("smoke: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    layers = json.load(open(os.path.join(HERE, "layers.json")))
    for m in spec["end_to_end"]:
        if m["name"] not in layers["end_to_end"]:
            fail("layers.json lacks end-to-end metric " + m["name"])
    for m in spec["per_layer"]:
        if m["name"] not in layers["per_layer"]:
            fail("layers.json lacks per-layer metric " + m["name"])
    for trace, want in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for w in spec["workloads"]:
            if w["name"] not in layers["workloads"]:
                fail("layers.json lacks workload " + w["name"])
            trace_file = os.path.join(HERE, "out", w["name"] + ".trace.json")
            if trace and os.path.exists(trace_file):
                os.remove(trace_file)
            cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", w["name"],
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
            if done.returncode != 0:
                fail("%s exited %d" % (" ".join(cmd), done.returncode))
            res = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                fail("%s: result keys %s" % (w["name"], sorted(res)))
            if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
                fail("%s trace %d: correct=%s attempted=%s failed=%s"
                     % (w["name"], trace, res["correct"], res["attempted"], res["failed"]))
            names = [m["name"] for m in want]
            if sorted(res["metrics"]) != sorted(names):
                fail("%s trace %d: metric set differs: %s"
                     % (w["name"], trace, sorted(set(names) ^ set(res["metrics"]))))
            for m in want:
                got = res["metrics"][m["name"]]
                if got["unit"] != m["unit"]:
                    fail("%s: %s unit %s != %s" % (w["name"], m["name"], got["unit"], m["unit"]))
                v = got["value"]
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    fail("%s: %s value %r" % (w["name"], m["name"], v))
                if trace == 0 and v <= 0:
                    fail("%s: end-to-end metric %s is %r" % (w["name"], m["name"], v))
            if trace:
                ev = json.load(open(trace_file))["traceEvents"]
                if not any(e.get("ph") == "X" for e in ev):
                    fail("%s: trace file has no spans" % w["name"])
            print("smoke: ok %-16s trace %d (%d metrics)" % (w["name"], trace, len(want)))


if __name__ == "__main__":
    main()
