#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark: a base revision against
the working tree.

    python3 bench/ab.py --base HEAD --pairs 10 --seconds 20 --seed 1 \\
        [--workload W ...] [--trace 0|1] [--base-dir DIR]

Run from the root of a source checkout. The base revision is unpacked
with ``git archive`` into ``--base-dir``, which must be empty or absent
(a fresh temporary directory by default; nothing under ``.git``
changes). For each workload of
BENCHMARK.json (or each ``--workload``), pair i runs
``perfbench/run.py --seed SEED+i`` once in each tree, the base first in
even pairs and the working tree first in odd ones, so a drift of the
host's load hits both sides alike. ``run.py`` rebuilds its own tree
before every run: leave the working tree alone while the pairs run.

For each metric it prints, as a Markdown table, the base's median and
quartiles, the working tree's median, the change of the medians in %,
the pairs in which the working tree was better (the direction comes
from BENCHMARK.json) and a verdict: equal in every pair, inside the
base's quartiles, or better/worse outside them. A claimed gain should be
better in at least nine of ten pairs, with the median outside the
base's quartiles. Exits non-zero when a run fails or is not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def die(msg):
    print("ab.py: " + msg, file=sys.stderr)
    sys.exit(1)


def unpack(rev, dest):
    """The tree of [rev] in the empty or absent directory [dest]."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=ROOT, capture_output=True, text=True)
    if sha.returncode != 0:
        die("unknown revision %s" % rev)
    sha = sha.stdout.strip()
    if os.path.isdir(dest) and os.listdir(dest):
        die("%s is not empty" % dest)
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        die("could not unpack %s into %s" % (rev, dest))
    return sha


def run(tree, workload, seed, seconds, trace):
    """One run.py call in [tree]: its result object, or None on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0])
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return (q[0], q[2])


def fmt(x):
    return "%.4g" % x


def table(workload, pairs, better):
    """Markdown rows comparing the [(base, head)] result pairs."""
    rows = []
    names = [m for m in pairs[0][0]["metrics"] if m in pairs[0][1]["metrics"]]
    for name in names:
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        head = [h["metrics"][name]["value"] for _, h in pairs]
        mb, mh = statistics.median(base), statistics.median(head)
        q1, q3 = quartiles(base)
        sign = {"higher": 1, "lower": -1}.get(better.get(name), 0)
        wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
        change = (mh - mb) / abs(mb) * 100 if mb else 0.0
        if all(b == h for b, h in zip(base, head)):
            verdict = "equal in every pair"
        elif q1 <= mh <= q3 or sign == 0:
            verdict = "inside the base's quartiles"
        else:
            verdict = ("better" if sign * (mh - mb) > 0 else "worse") + \
                ", outside the base's quartiles"
        rows.append("| %s | %s | %s [%s, %s] | %s | %+.1f%% | %d/%d | %s |" % (
            workload, name, fmt(mb), fmt(q1), fmt(q3), fmt(mh), change, wins,
            len(pairs), verdict))
    return rows


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair i uses seed+i")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workload", action="append",
                   help="repeatable; default every BENCHMARK.json workload")
    p.add_argument("--base-dir",
                   help="an empty directory outside the working tree to unpack the base into")
    args = p.parse_args()
    if args.pairs < 1:
        die("--pairs must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    base_dir = args.base_dir or tempfile.mkdtemp(prefix="ab-base-")
    sha = unpack(args.base, base_dir)
    print("base %s (%s) in %s; working tree %s" % (args.base, sha[:12], base_dir, ROOT),
          file=sys.stderr)

    rows, failed = [], 0
    for w in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = [("base", base_dir), ("head", ROOT)]
            if i % 2:
                order.reverse()
            got = {}
            for side, tree in order:
                r = run(tree, w, seed, args.seconds, args.trace)
                if r is None or not r.get("correct") or r.get("failed", 0):
                    failed += 1
                    print("ab.py: %s %s seed %d failed: %s" % (w, side, seed, r),
                          file=sys.stderr)
                got[side] = r
            print("%s pair %d/%d (seed %d) done" % (w, i + 1, args.pairs, seed),
                  file=sys.stderr)
            if got["base"] and got["head"]:
                pairs.append((got["base"], got["head"]))
        if pairs:
            rows += table(w, pairs, better)

    print("| workload | metric | base median [q1, q3] | change median | change | change better | verdict |")
    print("|---|---|---|---|---|---|---|")
    for row in rows:
        print(row)
    if failed:
        die("%d run(s) failed or were not correct" % failed)


if __name__ == "__main__":
    main()
