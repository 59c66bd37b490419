#!/usr/bin/env python3
"""Tests of the repository benchmark: BENCHMARK.json and layers.json agree
with what the driver emits, results have the contracted shape, traced and
untraced runs of one seed print the same digest, every workload passes a
tiny smoke run, and a checkout without sources fails cleanly.

    python3 perfbench/test_perfbench.py
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = run.load_spec()


def run_bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def digest_of(stdout):
    found = re.findall(r"^digest: ([0-9a-f]{16})$", stdout, re.M)
    assert len(found) == 1, stdout
    return found[0]


class SpecTest(unittest.TestCase):
    def test_top_level_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertIsInstance(SPEC["run_seconds"], int)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")),
                             64 * 1024)

    def test_metric_names_and_units(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_layers_map_targets_declared_metrics(self):
        with open(os.path.join(HERE, "layers.json")) as f:
            layers = json.load(f)
        self.assertEqual(set(layers), {m["name"] for m in SPEC["per_layer"]})
        declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        workloads = {w["name"] for w in SPEC["workloads"]}
        for name, targets in layers.items():
            self.assertIsInstance(targets, list, name)
            for t in targets:
                self.assertEqual(set(t), {"moves", "on"}, name)
                self.assertTrue(set(t["moves"]) <= declared, name)
                self.assertTrue(set(t["on"]) <= workloads, name)


class CheckResultTest(unittest.TestCase):
    DECLARED = {"a_ms": "ms", "b": "count"}

    def good(self):
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"a_ms": {"value": 1.5, "unit": "ms"},
                            "b": {"value": 2, "unit": "count"},
                            "phase.new_ms": {"value": 0.1, "unit": "ms"}}}

    def test_accepts_and_splits_undeclared(self):
        result, undeclared = run.check_result(self.good(), self.DECLARED)
        self.assertEqual(set(result["metrics"]), set(self.DECLARED))
        self.assertEqual(undeclared, ["phase.new_ms"])

    def test_rejects_bad_results(self):
        def broken(edit):
            r = self.good()
            edit(r)
            return r
        cases = [
            broken(lambda r: r.pop("failed")),
            broken(lambda r: r.update(extra=1)),
            broken(lambda r: r.update(attempted=0)),
            broken(lambda r: r.update(failed=4)),
            broken(lambda r: r.update(correct="yes")),
            broken(lambda r: r["metrics"].pop("b")),
            broken(lambda r: r["metrics"]["a_ms"].update(unit="s")),
            broken(lambda r: r["metrics"]["a_ms"].update(value=float("nan"))),
            broken(lambda r: r["metrics"]["b"].update(value=True)),
        ]
        for r in cases:
            with self.assertRaises(run.BenchError, msg=json.dumps(r, default=str)):
                run.check_result(r, self.DECLARED)


class SmokeTest(unittest.TestCase):
    """Tiny runs of every workload through the benchmark command."""

    def check_run(self, proc, trace):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 20)
        declared = run.declared_metrics(SPEC, trace)
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], declared[name])
        return result

    def test_every_workload_traced_and_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                plain = run_bench(w["name"], 3, 0)
                e2e = self.check_run(plain, 0)["metrics"]
                for name in ("setup_s", "epoch_ms_p50", "sensor_epochs_per_s",
                             "total_s", "peak_rss_mb"):
                    self.assertGreater(e2e[name]["value"], 0, name)
                traced = run_bench(w["name"], 3, 1)
                layers = self.check_run(traced, 1)["metrics"]
                self.assertGreater(layers["engine.sweep_ms"]["value"], 0)
                # Telemetry only observes: same seed, same answers and bytes.
                self.assertEqual(digest_of(plain.stdout), digest_of(traced.stdout))

    def test_digest_tracks_the_seed(self):
        w = SPEC["workloads"][0]["name"]
        a, b = run_bench(w, 11, 0), run_bench(w, 12, 0)
        self.assertNotEqual(digest_of(a.stdout), digest_of(b.stdout))
        self.assertEqual(digest_of(a.stdout), digest_of(run_bench(w, 11, 0).stdout))


class BareCheckoutTest(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = run_bench(SPEC["workloads"][0]["name"], 1, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
