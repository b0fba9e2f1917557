.PHONY: all build test test-faults fmt fmt-check check perf perf-quick \
	perf-layers perf-self-test clean

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

# The full local gate. `dune runtest` also drives the CLI surfaces
# (predict and profile --check, pinned serve sessions).
check: build fmt-check test perf-quick perf-self-test

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
