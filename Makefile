# Correctness gate for the lock-free BST repro. `make ci` is the full
# tier: formatting, vet, build, the unit suite (which runs bstserve as a
# process: serve, scrape, drain on SIGTERM, reopen its data dir), a race
# pass over every package, the pipelining floor (a pipelined client must
# beat request-per-round-trip by ≥2× on a real socket; the log shows the
# ratio), a short batched-operation linearizability round, the
# crash-stress durability gate (kill -9 a durable fsync server mid-load,
# recover, audit every acked mutation, clock a 1M-key recovery), the
# failover-stress replication gate (kill -9 a semi-sync leader mid-load,
# promote the follower, audit every acked mutation on the new leader), a
# fuzz smoke over the wire-frame and WAL-record decoders, the core
# tree's single and batched operations and the order-statistics waves,
# the tracing overhead gate
# (flight recorder installed with sampling off must stay within 1% of
# untraced, sampled hot path must not allocate), one small table of every
# bstbench grid (BENCH_fig4_smoke.json, BENCH_batch_smoke.json,
# BENCH_durable_smoke.json, BENCH_shard_smoke.json), the
# order-statistics gates (Exact-mode linearizability bracket checker and
# the CountRange-vs-scan ≥10x speedup floor), and vet plus the unit tests
# of the perfbench module.
#
# The bench targets write their JSON under $(BENCH_OUT), which git
# ignores, so `make ci` leaves the checked-in BENCH_*.json baselines
# alone. `make bench` runs them and copies the results over the
# baselines: it is the one re-baselining step.

GO ?= go
BENCH_OUT = .bench_build/ci

.PHONY: ci fmt-check vet build test race serve-smoke batch-stress \
	crash-stress failover-stress chaos fuzz-smoke trace-overhead \
	bench-fig4-smoke bench-batch-smoke bench-durable-smoke shard-smoke \
	bench-shard-smoke aggregate-stress aggregate-smoke perfbench-check \
	bench stress clean-data

ci: fmt-check vet build test race serve-smoke batch-stress crash-stress \
	failover-stress chaos fuzz-smoke trace-overhead bench-fig4-smoke \
	bench-batch-smoke bench-durable-smoke shard-smoke bench-shard-smoke \
	aggregate-stress aggregate-smoke perfbench-check

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every package under the race detector, in two invocations so the rest
# never shares the CPU with ./internal/core's long race run.
race:
	$(GO) test -race ./internal/core
	$(GO) test -race $$($(GO) list ./... | grep -v '/internal/core$$')

# The pipelining floor: one connection, 4,000 round-trip inserts against
# 4,000 pipelined ones; the pipeline must win by ≥2×, and -v prints the
# measured ratio. Shed, capacity, drain and batch paths are unit tests in
# ./internal/server, and ./cmd/bstserve's test drives the binary itself.
serve-smoke:
	BST_PIPELINE_FLOOR=1 $(GO) test ./internal/server \
		-run '^TestPipelineThroughputFloor$$' -count=1 -v

# Batched ops racing single ops through the Wing & Gong linearizability
# check (per-op windows spanning the whole batched call).
batch-stress:
	@out=$$($(GO) run ./cmd/bststress -batch -targets nm -duration 5s) || { echo "$$out"; exit 1; }; \
	echo "$$out" | tail -1

# The durability gate: SIGKILL a durable fsync server mid-load, recover
# the data dir, verify 100% of acked mutations survived and no ghost keys
# appeared, then clock a 1M-key snapshot + 100k-op WAL tail recovery
# against a hard budget. The log is kept for the CI artifact upload.
crash-stress:
	@$(GO) run ./cmd/bststress -crash -targets nm -duration 1s > crash_round.log 2>&1 \
		|| { cat crash_round.log; exit 1; }; \
	grep "^crash phase" crash_round.log

# The replication gate: seed a 1M-key + 100k-tail data dir, start a
# semi-sync leader and a follower that catches up over the wire, SIGKILL
# the leader mid-load, promote the follower, and audit — every acked
# mutation present on the new leader, zero ghost keys, recovery to
# serving inside the budget. The log is kept for the CI artifact upload.
failover-stress:
	@$(GO) run ./cmd/bststress -failover -targets nm -duration 1s > failover_round.log 2>&1 \
		|| { cat failover_round.log; exit 1; }; \
	grep "^failover:" failover_round.log

# The self-healing gate: a 3-node auto-failover cluster whose every link
# runs through a fault-injecting TCP proxy. The scripted round partitions
# the leader away (the highest-priority follower self-promotes on lease
# expiry, the healed ex-leader is term-fenced and rejoins as a follower),
# then SIGKILLs the successor (the last node promotes), auditing 100% of
# acked mutations, zero ghosts, and exactly one leader per term
# throughout. CHAOS_SEED pins the fault schedule for CI determinism;
# CHAOS_SEEDS>1 switches to that many randomized seeds (nightly mode).
# The log is kept for the CI artifact upload.
CHAOS_SEED ?= 1
CHAOS_SEEDS ?= 1
chaos:
	@rm -f chaos_round.log; i=0; \
	while [ $$i -lt $(CHAOS_SEEDS) ]; do \
		if [ $(CHAOS_SEEDS) -gt 1 ]; then \
			seed=$$(od -An -N4 -tu4 /dev/urandom | tr -d ' '); \
		else \
			seed=$(CHAOS_SEED); \
		fi; \
		echo "== chaos round seed $$seed ==" >> chaos_round.log; \
		$(GO) run ./cmd/bststress -chaos -chaos-seed $$seed -targets nm -duration 1s \
			>> chaos_round.log 2>&1 || { cat chaos_round.log; exit 1; }; \
		i=$$((i+1)); \
	done; \
	grep "^chaos: OK" chaos_round.log

# Short fuzz budgets over every frame/record decoder, the core tree's
# model-equivalence programs (single and batched ops, with and without
# reclamation) and the order-statistics waves against a full walk;
# decoder seed corpora are checked in under testdata/fuzz.
# Run `go test -fuzz <name> ./internal/...` to fuzz for longer.
fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzModelEquivalence$$' -fuzztime 5s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzReclaimEquivalence$$' -fuzztime 5s
	$(GO) test ./internal/orderstat -run '^$$' -fuzz '^FuzzWavesMatchFullWalk$$' -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 20s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime 20s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeReplSubscribe$$' -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeReplFrames$$' -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeReplAck$$' -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeReplSnapshot$$' -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeReplStatus$$' -fuzztime 5s
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzRecordDecode$$' -fuzztime 10s

# The tracing overhead gate, both halves: with a recorder installed but
# sampling off, a fig4 smoke cell must hold ≥99% of untraced throughput
# (interleaved A/B pairs, medians, escalating retries for noisy hosts);
# and the sampled hot path — request root, child spans, ring flush, phase
# fold — must run with zero heap allocations.
trace-overhead:
	BST_TRACE_OVERHEAD=1 $(GO) test ./internal/rtrace \
		-run '^(TestTraceOverheadGate|TestSampledPathAllocs)$$' -count=1 -v

# One small Figure 4 table: the paper's four trees at 1K keys, mixed,
# 1 and 2 threads. Metrics stay off: they instrument only the NM cells, so
# a paper-figure cell recorded with them on handicaps the paper's own
# algorithm. The JSON lands in $(BENCH_OUT)/BENCH_fig4_smoke.json for the
# CI artifact upload.
bench-fig4-smoke:
	@mkdir -p $(BENCH_OUT)
	$(GO) run ./cmd/bstbench -targets nm,efrb,hj,bcco -keyranges 1000 -workloads mixed \
		-threads 1,2 -duration 200ms -json $(BENCH_OUT)/BENCH_fig4_smoke.json

# One batch-amortization table on a 1M-key prefill: batch sizes 1, 8 and
# 64 against each other at one thread, 5 reps per cell. The JSON lands in
# $(BENCH_OUT)/BENCH_batch_smoke.json for the CI artifact upload.
bench-batch-smoke:
	@mkdir -p $(BENCH_OUT)
	$(GO) run ./cmd/bstbench -batch -batchsizes 1,8,64 -keyranges 1000000 -workloads mixed \
		-threads 1 -duration 1s -reps 5 -json $(BENCH_OUT)/BENCH_batch_smoke.json

# One small durable-overhead table (in-memory vs none/interval/fsync);
# the JSON lands in $(BENCH_OUT)/BENCH_durable_smoke.json for the CI
# artifact upload.
bench-durable-smoke:
	@mkdir -p $(BENCH_OUT)
	$(GO) run ./cmd/bstbench -durable -keyranges 10000 -workloads write-dominated \
		-threads 2,8 -duration 200ms -json $(BENCH_OUT)/BENCH_durable_smoke.json

# The sharded-forest gate: a race pass over the shard routing, forest
# batch fan-out, merged scans, and the per-lane WAL/snapshot/recovery
# paths, plus a 4-shard crash round (SIGKILL mid-load, parallel lane
# replay, 100% acked-mutation audit, ghost-key scan).
shard-smoke:
	$(GO) test -race -run 'Shard|Forest' . ./internal/forest ./internal/durable
	@$(GO) run ./cmd/bststress -crash -crash-shards 4 -targets nm -duration 1s > shard_crash_round.log 2>&1 \
		|| { cat shard_crash_round.log; exit 1; }; \
	grep "^crash phase" shard_crash_round.log

# One small shards=1-vs-8 scaling table on the mixed workload; the JSON
# lands in $(BENCH_OUT)/BENCH_shard_smoke.json for the CI artifact
# upload. No speedup assertion here: shard scaling needs real cores, and
# CI runners vary — EXPERIMENTS.md records measured numbers from a pinned
# host.
bench-shard-smoke:
	@mkdir -p $(BENCH_OUT)
	$(GO) run ./cmd/bstbench -shards 1,8 -keyranges 100000 -workloads mixed \
		-threads 2,8 -duration 200ms -json $(BENCH_OUT)/BENCH_shard_smoke.json

# The order-statistics linearizability gate: Exact-mode Rank/CountRange
# bracket-checked against concurrent inserts and deletes on the indexed
# single tree and the sharded forest, plus a quiescent scan-equality
# audit (bststress -aggregate rounds).
aggregate-stress:
	@out=$$($(GO) run ./cmd/bststress -aggregate -targets nm -duration 5s) || { echo "$$out"; exit 1; }; \
	echo "$$out" | tail -1

# The order-statistics speedup gate: over 1M keys, CountRange through the
# lazily refreshed summary must beat counting a Scan by ≥10x (measured
# headroom is orders of magnitude — the floor only catches a broken
# summary path silently degrading to the scan). The JSON lands in
# $(BENCH_OUT)/BENCH_aggregate_smoke.json for the CI artifact upload.
aggregate-smoke:
	@mkdir -p $(BENCH_OUT)
	@out=$$($(GO) run ./cmd/bstbench -aggregate -keyranges 1000000 -duration 200ms \
		-agg-min-speedup 10 -json $(BENCH_OUT)/BENCH_aggregate_smoke.json) || { echo "$$out"; exit 1; }; \
	echo "$$out" | tail -1

# Re-baseline: run the five bench targets and copy their JSON over the
# checked-in BENCH_*.json files. Nothing else writes those files.
bench: bench-fig4-smoke bench-batch-smoke bench-durable-smoke bench-shard-smoke aggregate-smoke
	cp $(BENCH_OUT)/BENCH_*.json .

# perfbench is its own module, so the ./... targets above never compile
# it: vet and test it in place, so that a change to the public API it
# drives fails here rather than in the next benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Longer soak, including the capacity exhaust/recover round and the
# network serving soak (not part of ci).
stress:
	$(GO) run -race ./cmd/bststress -duration 2m -exhaust -serve -batch -crash -failover

# Remove local artifacts: crash logs and any stray durable data dirs left
# by interrupted runs (bstserve -data dirs are never touched — only the
# well-known temp prefixes used by the tools here). The BENCH_*.json
# baselines are checked in, so they stay.
clean-data:
	rm -f crash_round.log failover_round.log chaos_round.log shard_crash_round.log
	rm -rf $${TMPDIR:-/tmp}/bst-crash-data-* $${TMPDIR:-/tmp}/bst-crash-addr-* \
		$${TMPDIR:-/tmp}/bst-crash-clock-* $${TMPDIR:-/tmp}/bstbench-durable-* \
		$${TMPDIR:-/tmp}/bst-failover-leader-* $${TMPDIR:-/tmp}/bst-failover-follower-* \
		$${TMPDIR:-/tmp}/bst-failover-addr-* $${TMPDIR:-/tmp}/bst-chaos-node-*
