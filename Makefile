# Convenience targets; `make check` is the gate a PR must pass.

# Relative simulated-throughput drop that fails the bench_compare gate.
BENCH_THRESHOLD ?= 0.10

.PHONY: all build test check chaos chaos-txn chaos-net bench bench-gate \
  latency latency-throughput latency-latency latency-rto latency-improve \
  microbench serve perfbench-smoke trace-smoke ab clean

# Chaos-run shape: the four historically-bad seeds (the limbo-chain bug,
# now fixed and regression-gated here) plus four fresh ones.
CHAOS_SEEDS ?= 1,4,6,7,11,23,42,97
CHAOS_OPS ?= 30000

all: build

build:
	dune build

test:
	dune runtest

# Build + unit tests + a smoke benchmark run whose JSON report must diff
# cleanly against itself through bin/bench_compare (exercises the --json
# schema, the parser and the regression gate end to end) + the
# tail-latency gate against the committed baseline + a wall-clock
# microbench smoke run (exercises the simulator fast paths and the
# --min-mops gate plumbing; the bar is deliberately tiny — real
# comparisons are two --json reports on the same machine) + the
# serving-layer gate (a real server process driven over the wire) + the
# crash-restart/network-fault torture (chaos-net) + the repository
# benchmark's smoke test (perfbench-smoke) + the timeline export smoke
# test (trace-smoke).
check: build test bench-gate latency microbench serve chaos-net perfbench-smoke \
  trace-smoke

# Crash-chaos gate: random-crash torture over the known-bad + fresh seed
# matrix, a deterministic schedule that crashes inside recovery at three
# distinct phases, and an offline fsck pass over the final image. Each
# chaos run fails red on any oracle mismatch, unconverged recovery or
# quarantined (leaked) allocator chain.
chaos: build
	dune exec bin/chaos.exe -- --seeds $(CHAOS_SEEDS) --ops $(CHAOS_OPS) \
	  --json _build/chaos_check.json
	dune exec bin/chaos.exe -- --seeds 4 --ops 10000 \
	  --schedule "merge_limbo:1,recover.epoch_open:1,recover.extlog_replay:1,recover.alloc_chains:1,recover.checkpoint:1" \
	  --json _build/chaos_sched.json --save-image _build/chaos_final.nvm
	dune exec bin/incll_fsck.exe -- _build/chaos_final.nvm
	dune exec bin/chaos.exe -- --seeds $(CHAOS_SEEDS) --ops $(CHAOS_OPS) \
	  --policy latency --json _build/chaos_latency.json
	dune exec bin/chaos.exe -- --seeds 4 --ops 10000 --policy latency \
	  --schedule "epoch.sweep_partial:1,epoch.sweep_partial:2,post_checkpoint:1,epoch.sweep_partial:1" \
	  --json _build/chaos_sweep_sched.json
	$(MAKE) chaos-txn

# Transaction torture: multi-key transactions interleaved with random
# crashes, single-shard and across a 4-shard 2PC store (the oracle
# checks every committed transaction is all-or-nothing after each
# crash), plus a deterministic schedule that crashes at each txn
# protocol site — mid-PREPARE, just before the watermark store, during
# epoch rollback, and inside recovery's in-doubt resolution.
chaos-txn: build
	dune exec bin/chaos.exe -- --seeds $(CHAOS_SEEDS) --ops 8000 \
	  --txn-period 10 --crash-period 500 \
	  --json _build/chaos_txn1.json
	dune exec bin/chaos.exe -- --seeds 11,12,13,14,15,16,17,18 --ops 6000 \
	  --shards 4 --txn-period 8 --txn-writes 6 --crash-period 400 \
	  --json _build/chaos_txn4.json
	dune exec bin/chaos.exe -- --seeds 3,9 --ops 3000 --shards 4 \
	  --txn-period 8 --crash-period 0 \
	  --schedule "txn_prepare:1,txn_commit_record:1,txn_rollback:1,recover.txn_resolve:1" \
	  --json _build/chaos_txn_sched.json

bench-gate:
	dune exec bench/main.exe -- --only ablation_valincll --scale 0.001 \
	  --threads 2 --ops 2000 --json _build/bench_check.json --date check
	dune exec bin/bench_compare.exe -- --threshold $(BENCH_THRESHOLD) \
	  _build/bench_check.json _build/bench_check.json

# Tail-latency gate: regenerate the latency report under the exact
# committed-baseline conditions — fixed seed, flush-heavy 1 ms epochs,
# and a fixed open-loop arrival rate chosen just under the closed-loop
# capacity so epoch flushes build real queues — then diff it against the
# committed baseline, once per checkpoint policy. Every gated cell
# (closed/open p50/p99/p999 of the per-op latency histogram, per-cause
# stalled time) is simulated-clock, hence machine-independent and
# bit-deterministic; only a code change can move them. Regenerate a
# baseline by copying the matching _build/bench_latency*.json over its
# BENCH_latency*.json when a change legitimately shifts the tail.
LATENCY_FLAGS = --latency --scale 0.001 --threads 2 --ops 20000 \
  --epoch-ms 1 --arrival-rate 10600000 --seed 1 --date baseline

latency-throughput: build
	dune exec bench/main.exe -- $(LATENCY_FLAGS) \
	  --json _build/bench_latency.json
	dune exec bin/bench_compare.exe -- --threshold $(BENCH_THRESHOLD) \
	  BENCH_latency.json _build/bench_latency.json

latency-latency: build
	dune exec bench/main.exe -- $(LATENCY_FLAGS) --policy latency \
	  --json _build/bench_latency_latency.json
	dune exec bin/bench_compare.exe -- --threshold $(BENCH_THRESHOLD) \
	  BENCH_latency_latency.json _build/bench_latency_latency.json

latency-rto: build
	dune exec bench/main.exe -- $(LATENCY_FLAGS) --policy rto \
	  --json _build/bench_latency_rto.json
	dune exec bin/bench_compare.exe -- --threshold $(BENCH_THRESHOLD) \
	  BENCH_latency_rto.json _build/bench_latency_rto.json

# Cross-policy improvement gate: the incremental-sweep latency policy
# must beat the committed stop-the-world baseline by >= 2x on the
# open-loop p999 and must not have grown the epoch_advance stalled time
# (the sweep's whole point is moving that stall out of the op path).
latency-improve: latency-throughput latency-latency
	dune exec bin/bench_compare.exe -- \
	  --improve open:p999:2.0 --improve-stall open:epoch_advance:1.0 \
	  _build/bench_latency.json _build/bench_latency_latency.json

latency: latency-throughput latency-latency latency-rto latency-improve

# Also fails if Precise crash support holds more host bytes than its
# committed ceiling (Bench_harness.Host_footprint).
microbench:
	dune exec bin/microbench.exe -- --stores 200000 --spans 50000 \
	  --keys 2000 --ops 2000 --threads 2 --min-mops 0.005 \
	  --json _build/microbench_check.json

# Serving-layer gate: start a real bin/incll_server.exe process on a
# unix socket, drive it with the remote open-loop bench, SIGTERM it and
# require a clean drain — once per shard count: 1 shard
# runs every single-key op on the shard domain that owns the connection, 2
# shards also cross the bounded queue between domains. --oracle makes
# the bench (a) replay the same seeded streams through an in-process
# store and demand the server's complete final state match key for key,
# (b) fail on any BUSY bounce (the queue capacity below is sized so
# admission is lossless), and (c) fail unless >= 99% of over-threshold
# ops are attributed to a cause (net_queue included). The numbers are
# wall clock — host noise included — so each JSON report is self-diffed
# through bench_compare (schema + gate plumbing), never compared
# against a committed baseline.
SERVE_SOCK ?= /tmp/incll_serve_gate.sock

serve: build
	for n in 1 2; do \
	  rm -f $(SERVE_SOCK) _build/serve.pid; \
	  ./_build/default/bin/incll_server.exe --listen unix:$(SERVE_SOCK) \
	    --shards $$n --queue-capacity 65536 & echo $$! > _build/serve.pid; \
	  for i in $$(seq 1 100); do [ -S $(SERVE_SOCK) ] && break; sleep 0.1; done; \
	  [ -S $(SERVE_SOCK) ] || exit 1; \
	  ./_build/default/bench/main.exe --only remote \
	    --connect unix:$(SERVE_SOCK) --oracle --scale 0.001 --threads 2 \
	    --ops 2000 --latency-threshold-us 200 --seed 1 \
	    --json _build/bench_serve_$$n.json --date check; \
	  rc=$$?; kill -TERM $$(cat _build/serve.pid) 2>/dev/null; \
	  for i in $$(seq 1 100); do kill -0 $$(cat _build/serve.pid) 2>/dev/null || break; sleep 0.1; done; \
	  if kill -0 $$(cat _build/serve.pid) 2>/dev/null; then echo "server ($$n shards) did not drain"; kill -9 $$(cat _build/serve.pid); exit 1; fi; \
	  [ $$rc -eq 0 ] || exit $$rc; \
	  ./_build/default/bin/bench_compare.exe --threshold $(BENCH_THRESHOLD) \
	    _build/bench_serve_$$n.json _build/bench_serve_$$n.json || exit 1; \
	done

# End-to-end fault-tolerance torture: per seed, real incll_server.exe
# processes are SIGKILLed mid-load and restarted over the same NVM
# image while retrying client sessions drive stamped ops through a
# frame-level fault injector (drop/delay/dup/trunc/sever); the oracle
# demands the final server state match the last acked op per key
# exactly once, and every seed must end in a clean SIGTERM drain.
# Seed 1 is a targeted reply-loss + crash schedule that must produce a
# dedup hit from the *recovered* session table; after its drain,
# incll_fsck must find each final shard image clean.
CHAOS_NET_SEEDS ?= 8

chaos-net: build
	./_build/default/bin/chaos_net.exe --seeds $(CHAOS_NET_SEEDS) \
	  --json _build/chaos_net.json

# Smoke test of the repository benchmark (BENCHMARK.json): every
# workload for one second at tiny size, untraced and traced. Each run
# must report correct with 0 failed, so each workload's own output
# checks run too (every scan's order, length and values; the served
# session's replay oracle), and every metric must be present with its
# unit and a finite value.
perfbench-smoke: build
	python3 perfbench/smoke.py

# Timeline content smoke test: the latency run (LATENCY_FLAGS, ~0.3 s,
# deterministic) and the recovery run each write a Chrome/Perfetto trace,
# and bench/trace_check.py checks what they hold: per shard, checkpoint,
# sfence and wbinvd slices on the op track and one epoch_advance slice
# per checkpoint on the stall track (both describe the measured window);
# a recover slice enclosing its recover.* phase slices.
trace-smoke: build
	dune exec bench/main.exe -- $(LATENCY_FLAGS) --trace _build/trace.json
	dune exec bench/main.exe -- --only recovery --scale 0.001 \
	  --trace _build/trace_recovery.json
	python3 bench/trace_check.py _build/trace.json _build/trace_recovery.json

bench:
	dune exec bench/main.exe -- --scale 0.001 --threads 2 --ops 5000

# Paired wall-clock A/B of the repository benchmark (not part of check):
# AB_PAIRS alternating perfbench/run.py pairs per workload, the AB_BASE
# revision (unpacked with git archive) against the working tree, seed
# AB_SEED+i in pair i. Prints each end-to-end metric's medians,
# quartiles, change and wins. Takes about 2 x AB_PAIRS x (AB_SECONDS +
# build and set-up) per workload; leave the tree alone meanwhile.
AB_BASE ?= HEAD
AB_PAIRS ?= 10
AB_SECONDS ?= 20
AB_SEED ?= 1
AB_FLAGS ?=

ab:
	python3 bench/ab.py --base $(AB_BASE) --pairs $(AB_PAIRS) \
	  --seconds $(AB_SECONDS) --seed $(AB_SEED) $(AB_FLAGS)

clean:
	dune clean
