#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny]

Run from the root of a checkout. The first call builds this directory's
CMake package (the library from src/ plus the perfbench driver) into
.bench_build/perfbench; later calls reuse it. The driver's report lines are
passed through, and its result is checked against BENCHMARK.json and
printed as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports every end_to_end metric, --trace 1 every per_layer one.
Metrics the driver emits beyond those (new profiler phases) are listed on
an "undeclared metrics:" line instead. --tiny shrinks every workload for a
smoke run. Exits non-zero, printing no result, when the build, the run or
the result check fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    pass


def load_spec(root=ROOT):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError("no BENCHMARK.json at " + root)
    with open(path) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "experiment.h")):
        raise BenchError("no library sources under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def check_result(result, declared):
    """Checks the driver's result against `declared` ({name: unit}) and
    returns it with only the declared metrics, plus the undeclared names."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise BenchError("result keys must be exactly " + str(sorted(RESULT_KEYS)))
    if not isinstance(result["correct"], bool):
        raise BenchError("correct must be a boolean")
    attempted, failed = result["attempted"], result["failed"]
    for name, v in (("attempted", attempted), ("failed", failed)):
        if not isinstance(v, int) or isinstance(v, bool):
            raise BenchError(name + " must be a whole number")
    if attempted < 1 or not 0 <= failed <= attempted:
        raise BenchError("need attempted >= 1 and 0 <= failed <= attempted")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        raise BenchError("metrics must be an object")
    kept = {}
    for name, unit in declared.items():
        m = metrics.get(name)
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise BenchError("metric %s missing or malformed" % name)
        if m["unit"] != unit:
            raise BenchError("metric %s has unit %r, not %r" % (name, m["unit"], unit))
        if not is_number(m["value"]):
            raise BenchError("metric %s is not a finite number" % name)
        kept[name] = m
    undeclared = sorted(set(metrics) - set(declared))
    return dict(result, metrics=kept), undeclared


def declared_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError("unknown workload " + args.workload)
        build()
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError("driver did not finish within %d s" % RUN_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError("driver exited with code %d" % proc.returncode)
        result, undeclared = check_result(json.loads(lines[-1]),
                                          declared_metrics(spec, args.trace))
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    if undeclared:
        extra = json.loads(lines[-1])["metrics"]
        print("undeclared metrics: " + ", ".join(
            "%s=%r %s" % (n, extra[n]["value"], extra[n]["unit"]) for n in undeclared))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
