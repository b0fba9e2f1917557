#!/usr/bin/env python3
"""Run one workload of the singe benchmark and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a singe checkout. The script builds
perfbench/perfbench.exe from the checkout's sources with dune, drives it
in fresh processes, and prints, as its last line, one JSON object with
the keys correct, attempted, failed and metrics. The metric names and
units come from BENCHMARK.json: --trace 0 reports the end_to_end
metrics, --trace 1 the per_layer ones.

- --trace 0 runs the workload once untraced. setup_s is the median
  set-up time of that run and of SETUP_REPEATS - 1 more fresh processes
  that only set up; peak_rss_mb is the run's high-water RSS.
- --trace 1 runs the workload untraced and then traced, at the same
  seed. Layer figures come from the traced run, GC figures from the
  untraced one, and trace.overhead_share is the traced run's loss of
  ops_per_s against the untraced one. The traced run's spans go to
  perfbench/_out/.
- --self-test runs every workload at a small size: metric names and
  units must match BENCHMARK.json, two runs at one seed must give
  bit-identical deterministic metrics, every op must pass its check, and
  the traced run's span file must be valid JSON with no negative self
  time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join(ROOT, "perfbench", "_out")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
DETERMINISTIC = [
    "code_instrs_geomean",
    "kernel_cycles_geomean",
    "model_err_max",
    "winner_cycles_geomean",
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        fail("no singe sources (dune-project, lib/) at the checkout root")
    # The shared dune cache lives outside the checkout; keep every
    # build artifact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0:
        fail("build failed")


def child(args):
    """Run perfbench.exe; return its last JSON line and its peak RSS in MB."""
    p = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    killer.start()
    try:
        out = p.stdout.read().decode()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
    if p.returncode != 0:
        fail("perfbench.exe %s exited with %d" % (" ".join(args), p.returncode))
    lines = out.strip().splitlines()
    if not lines:
        fail("perfbench.exe %s printed no result" % " ".join(args))
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def measure(workload, seed, seconds, trace):
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    plain, rss = child(common + ["--trace", "0"])
    raw = dict(plain["metrics"])
    if trace:
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, "spans-%s-%d.json" % (workload, seed))
        traced, _ = child(common + ["--trace", "1", "--spans", spans])
        gc = {k: v for k, v in raw.items() if k.startswith("gc.")}
        overhead = 1.0 - traced["metrics"]["ops_per_s"] / raw["ops_per_s"]
        raw = dict(traced["metrics"], **gc)
        raw["trace.overhead_share"] = overhead
        run, wanted = traced, spec()["per_layer"]
        correct = plain["correct"] and traced["correct"]
    else:
        setups = [raw["setup_s"]]
        for _ in range(SETUP_REPEATS - 1):
            setups.append(child(common + ["--setup-only"])[0]["setup_s"])
        raw["setup_s"] = statistics.median(setups)
        raw["peak_rss_mb"] = rss
        run, wanted = plain, spec()["end_to_end"]
        correct = plain["correct"]
    for reason in run.get("failures", []):
        print("perfbench: failed op: " + reason, file=sys.stderr)
    metrics = {}
    for m in wanted:
        v = raw.get(m["name"])
        if not isinstance(v, (int, float)):
            fail("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return {
        "correct": bool(correct),
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": metrics,
    }


def self_test():
    s = spec()
    problems = []
    for w in s["workloads"]:
        name = w["name"]
        runs = [measure(name, 7, 1, False) for _ in range(2)]
        traced = measure(name, 7, 1, True)
        for r, wanted in ((runs[0], s["end_to_end"]), (traced, s["per_layer"])):
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != {m["name"]: m["unit"] for m in wanted}:
                problems.append("%s: metric names or units differ from BENCHMARK.json" % name)
        for r in runs + [traced]:
            if not r["correct"] or r["failed"]:
                problems.append("%s: %d failed ops or an invalid span file" % (name, r["failed"]))
        for m in DETERMINISTIC:
            a, b = (r["metrics"][m]["value"] for r in runs)
            if a != b:
                problems.append("%s: %s differs across runs at one seed (%r, %r)" % (name, m, a, b))
        print("self-test %s: %d ops, ok so far: %s" % (name, runs[0]["attempted"], not problems))
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print("self-test " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    build()
    if a.self_test:
        sys.exit(self_test())
    if a.workload not in [w["name"] for w in spec()["workloads"]]:
        fail("unknown workload %r" % a.workload)
    print(json.dumps(measure(a.workload, a.seed, a.seconds, a.trace == 1)))


if __name__ == "__main__":
    main()
