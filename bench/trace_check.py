"""Check what the Chrome/Perfetto timelines of `bench/main.exe --trace`
hold (the `make trace-smoke` gate).

Usage: python3 bench/trace_check.py LATENCY_TRACE RECOVERY_TRACE

LATENCY_TRACE comes from a traced latency run. Per shard, its op track
must hold checkpoint, sfence and wbinvd slices, and its stall track one
epoch_advance slice per checkpoint on the op track: both tracks describe
the same measured window.

RECOVERY_TRACE comes from a traced `--only recovery` run. It must hold a
recover slice, and recover.* phase slices that it encloses.

Slices are compared as intervals: a B/E pair and an X slice count alike.
"""

import json
import sys

EPS_US = 1e-3


def fail(msg):
    sys.exit("trace_check: " + msg)


def read(path):
    """Track names, and (track, name, start_us, end_us) per slice."""
    with open(path) as f:
        events = json.load(f).get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents")
    tracks = {e["tid"]: e["args"]["name"] for e in events if e.get("ph") == "M"}
    slices, open_ = [], {}
    for e in events:
        ph, tid = e.get("ph"), e.get("tid")
        if ph == "X":
            slices.append((tracks[tid], e["name"], e["ts"], e["ts"] + e["dur"]))
        elif ph == "B":
            open_.setdefault(tid, []).append((e["name"], e["ts"]))
        elif ph == "E":
            name, t0 = open_[tid].pop()
            slices.append((tracks[tid], name, t0, e["ts"]))
    return list(tracks.values()), slices


def count(slices, track, name):
    return sum(1 for t, n, _, _ in slices if t == track and n == name)


def check_latency(path):
    tracks, slices = read(path)
    shards = [t for t in tracks if not t.endswith(" stalls")]
    if not shards:
        fail(f"{path}: no op track")
    for shard in shards:
        for name in ("checkpoint", "sfence", "wbinvd"):
            if count(slices, shard, name) == 0:
                fail(f"{path}: no {name} slice on {shard}")
        checkpoints = count(slices, shard, "checkpoint")
        advances = count(slices, shard + " stalls", "epoch_advance")
        if checkpoints != advances:
            fail(
                f"{path}: {shard} holds {checkpoints} checkpoints on its op "
                f"track but {advances} epoch_advance stalls on its stall track"
            )
    return shards


def check_recovery(path):
    _, slices = read(path)
    recovers = [s for s in slices if s[1] == "recover"]
    phases = [s for s in slices if s[1].startswith("recover.")]
    if not recovers:
        fail(f"{path}: no recover slice")
    if not phases:
        fail(f"{path}: no recover.* phase slice")
    for track, name, t0, t1 in phases:
        if not any(
            r[0] == track and r[2] - EPS_US <= t0 and t1 <= r[3] + EPS_US
            for r in recovers
        ):
            fail(f"{path}: {name} [{t0}, {t1}] lies outside every recover slice")
    return len(phases)


def main():
    if len(sys.argv) != 3:
        fail("usage: trace_check.py LATENCY_TRACE RECOVERY_TRACE")
    shards = check_latency(sys.argv[1])
    phases = check_recovery(sys.argv[2])
    print(
        f"trace_check: {len(shards)} shard(s) with matching checkpoint and "
        f"epoch_advance counts; recover encloses {phases} phase slice(s)"
    )


if __name__ == "__main__":
    main()
