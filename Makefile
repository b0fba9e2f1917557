.PHONY: all build test test-faults fmt fmt-check check perf perf-quick \
	perf-layers profile-smoke predict-smoke chip-smoke synth-smoke partition-smoke \
	stencil-smoke serve-smoke serve-soak perf-self-test clean

all: build

build:
	dune build @all

test:
	dune runtest

# Just the fault-containment suite (static deadlock verifier, watchdog,
# fault injection, poisoned sweeps). Included in `dune runtest`; this
# target isolates it for quick iteration.
test-faults:
	dune exec test/test_main.exe -- test faults

# dune formats its own files natively (ocamlformat is not a dependency);
# `make fmt` promotes, `make fmt-check` fails on drift.
fmt:
	dune fmt

fmt-check:
	dune build @fmt

# The full local gate: everything builds, formatting is clean, tests pass,
# the quick perf snapshot still runs end to end on two domains, the
# profiler's CLI surface emits conserving buckets and valid trace JSON,
# the analytic performance model stays sound (floor <= simulator), and
# the multi-SM chip layer is deterministic and schema-clean, the
# shuffle-exchange rewrite stays bit-exact and profitable, the partition
# searcher rediscovers-or-beats the hand mapping under its deadlock gate,
# the stencil pipelines stay bit-exact against their host oracle in both
# tiling modes, and the serve loop answers a hostile request mix with
# typed responses, and the benchmark driver still builds against the
# library API and passes its own self-test.
check: build fmt-check test perf-quick profile-smoke predict-smoke chip-smoke \
	synth-smoke partition-smoke stencil-smoke serve-smoke perf-self-test

# Machine-readable performance snapshot (see bench/main.ml).
perf:
	dune exec bench/main.exe -- perf

# Fast smoke version of the snapshot: small sweep sizes, a fixed two-domain
# fan-out (results are identical at any --jobs value).
perf-quick:
	SINGE_FAST=1 dune exec bench/main.exe -- perf --jobs 2

# One workload's per-layer ledger row: the benchmark run traced, at seed 1
# for 10 s (e.g. `make perf-layers WORKLOAD=compile-cold`; the workloads
# are compile-cold, serve-warm and partition-search).
WORKLOAD ?= compile-cold

perf-layers:
	python3 perfbench/run.py --workload $(WORKLOAD) --seed 1 --seconds 10 --trace 1

# Profiler smoke: run `singe profile` on one kernel with --check, which
# verifies bucket conservation, Chrome-trace JSON syntax, and timestamp
# monotonicity in-process (exit 1 on any failure).
profile-smoke:
	dune exec bin/singe_cli.exe -- profile --mech dme --kernel viscosity \
		--points 1248 --chrome-trace /tmp/singe-profile-smoke.json --check

# Performance-model smoke: `singe predict --check` predicts every kernel x
# version, simulates each, and exits 1 if the model drifts past its
# accuracy gate or the simulator ever beats the provable floor.
predict-smoke:
	dune exec bin/singe_cli.exe -- predict --mech hydrogen --check

# Chip-layer smoke: a 4-SM DME viscosity launch must be byte-identical
# whether simulated serially or on concurrent domains, dispatch every
# CTA, and emit a well-formed perf-v10 "chip" JSON object (exit 1 on any
# failure).
chip-smoke:
	dune exec bench/main.exe -- chip-smoke

# Exchange-rewrite smoke: DME diffusion with the shuffle-exchange
# superoptimizer on vs off must produce bit-identical outputs, remove
# round trips without costing cycles, and emit a well-formed perf-v10
# "exchange" JSON object (exit 1 on any failure).
synth-smoke:
	dune exec bench/main.exe -- synth-smoke

# Partition-search smoke: the three-phase searcher (propose, model-rank,
# deadlock-gate, simulate-confirm) on hydrogen viscosity must rediscover
# or beat the hand partition in under ~30 s, with every winner passing
# the safety gate and a well-formed perf-v10 "partition" JSON object
# (exit 1 on any failure).
partition-smoke:
	dune exec bench/main.exe -- partition-smoke

# Stencil smoke: both bundled stencil pipelines, warp-specialized on both
# architectures, must match the host reference bit-for-bit, agree across
# the two tiling modes on the commonly-simulated prefix, keep the model
# floor sound, and emit a well-formed perf-v10 stencil JSON object
# (exit 1 on any failure).
stencil-smoke:
	dune exec bench/main.exe -- stencil-smoke

# Serve smoke: drive the real `singe serve` binary over one session of
# mixed requests — every request family, every error class, an idempotent
# replay, a degraded deadline overrun, and a backpressure burst — and
# re-validate every response line (exit 1 on any failure).
serve-smoke: build
	dune exec bench/main.exe -- serve-smoke

# Serve soak: hundreds of mixed requests (valid work, malformed lines,
# injected deadlocks and silent corruption, deadline busters, replays)
# against one warm serve process. On demand, not part of `make check`.
serve-soak: build
	dune exec bench/main.exe -- serve-soak

# Benchmark self-test: perfbench/ calls compile_cached, the partition
# search's candidate_options/gate/default_top_k and Perf_model.predict
# directly, so an API change that breaks the benchmark build fails here.
# Runs every workload briefly and checks metric names and units against
# BENCHMARK.json, run-to-run determinism, every op's check, and the
# traced run's span file (exit 1 on any failure).
perf-self-test:
	python3 perfbench/run.py --self-test

clean:
	dune clean
