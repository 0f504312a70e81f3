#!/usr/bin/env python3
"""Self-test of the benchmark's own code (stdlib unittest).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It takes under a minute on two cores: every workload is set up and
run, traced, twice.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7


class TracedRuns(unittest.TestCase):
    """Two traced runs of each workload with one seed."""

    runs: dict = {}

    @classmethod
    def setUpClass(cls):
        for name in workloads.WORKLOADS:
            cls.runs[name] = [run.measure(name, SEED, 0, trace=True) for _ in range(2)]

    def test_runs_are_correct(self):
        for name, outs in self.runs.items():
            for out in outs:
                self.assertEqual(out["failures"], [], name)

    def test_counts_repeat_for_a_fixed_seed(self):
        for name, (a, b) in self.runs.items():
            counts = {k for k, (_, unit) in a["metrics"].items() if unit == "count"}
            self.assertIn("nerve.solver.box_points", counts)
            for key in sorted(counts):
                self.assertEqual(a["metrics"][key][0], b["metrics"][key][0], f"{name} {key}")
            for key in ("nerve.sample.distinct_ratio", "nerve.solver.miss_ratio"):
                self.assertEqual(a["metrics"][key][0], b["metrics"][key][0], f"{name} {key}")

    def test_every_layer_reports_where_it_is_called(self):
        for name, (a, _) in self.runs.items():
            m = a["metrics"]
            for layer in tracer.LAYERS:
                for suffix in ("self_s", "calls", "share"):
                    self.assertIn(f"{layer}.{suffix}", m)
            self.assertIn("trace.overhead_s", m)
            called = {layer for layer in tracer.LAYERS if m[f"{layer}.calls"][0]}
            self.assertTrue({"core", "nerve"} <= called, name)
        self.assertTrue(self.runs["cli"][0]["metrics"]["cli.calls"][0])


class TracerAccounting(unittest.TestCase):
    def setUp(self):
        self.cf = run.import_program()
        self.workload = workloads.WORKLOADS["invert"]
        self.state = self.workload.setup(self.cf, SEED)

    def test_self_times_and_own_time_sum_to_wall(self):
        t = tracer.Tracer()
        t0 = tracer.time.perf_counter()
        t.install()
        try:
            self.workload.run_pass(self.state)
        finally:
            t.uninstall()
        wall = tracer.time.perf_counter() - t0
        m = tracer.layer_metrics(t, wall)
        layers = sum(m[f"{layer}.self_s"][0] for layer in tracer.LAYERS)
        self.assertAlmostEqual(layers, t.top_s, delta=1e-6 * wall + 1e-9)
        self.assertAlmostEqual(layers + m["bench.self_s"][0], wall, delta=1e-6 * wall)
        self.assertGreater(m["bench.self_s"][0], 0)
        for key, st in t.stats.items():
            self.assertGreaterEqual(st.self_s, -1e-9, key)
            self.assertLessEqual(st.self_s, st.incl_s + 1e-9, key)

    def test_no_wrapper_stays_installed(self):
        def snapshot():
            out = {}
            for modname, mod in sys.modules.items():
                if modname.startswith("cubeforge"):
                    for name, obj in vars(mod).items():
                        out[(modname, name)] = obj
                        if isinstance(obj, type):
                            for mname, meth in vars(obj).items():
                                out[(modname, name, mname)] = meth
            return out

        before = snapshot()
        t = tracer.Tracer()
        t.install()
        self.assertTrue(tracer.installed_wrappers())
        self.assertIsNot(self.cf.core.psi, before[("cubeforge.core", "psi")])
        self.assertIs(self.cf.invert.psi, self.cf.core.psi)  # rebound in both places
        t.uninstall()
        self.assertEqual(tracer.installed_wrappers(), [])
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key in before:
            self.assertIs(before[key], after[key], key)


class Gates(unittest.TestCase):
    """Wrong answers from the program are caught and counted."""

    def run_with(self, name, owner, attr, replacement):
        cf = run.import_program()
        workload = workloads.WORKLOADS[name]
        state = workload.setup(cf, SEED)
        obj = owner(cf)
        original = getattr(obj, attr)
        setattr(obj, attr, replacement(original))
        try:
            result = workload.run_pass(state)
            return result.failures + workload.verify(state, result)
        finally:
            setattr(obj, attr, original)
            workload.teardown(state)

    def test_bad_reversal_inverse_is_caught(self):
        failures = self.run_with("invert", lambda cf: cf.nerve.NcModel, "r_inverse",
                                 lambda orig: lambda self, A, i: A)
        self.assertTrue(failures)

    def test_missing_cell_is_caught(self):
        failures = self.run_with("enumerate", lambda cf: cf.nerve._NerveBase, "cells",
                                 lambda orig: lambda self, n, b, *a: orig(self, n, b, *a)[1:])
        self.assertTrue(any("digest" in f for f in failures))

    def test_wrong_cli_output_is_caught(self):
        failures = self.run_with("cli", lambda cf: cf.cli, "boundary_word",
                                 lambda orig: lambda w, i: w)
        self.assertTrue(any("perm boundary" in f for f in failures))


class UntracedRun(unittest.TestCase):
    def test_untraced_run_never_loads_the_tracer(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "cli", "--seed", str(SEED),
             "--seconds", "0", "--trace", "0"],
            capture_output=True, text=True, timeout=300, check=True)
        lines = proc.stdout.splitlines()
        stamp = json.loads(lines[0][2:])
        self.assertFalse(stamp["tracer_loaded"])
        self.assertGreaterEqual(stamp["setups"], run.SETUP_SLOTS)
        self.assertFalse((HERE / ".work").exists())  # every set-up cleaned up
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared["end_to_end"]})


if __name__ == "__main__":
    unittest.main()
