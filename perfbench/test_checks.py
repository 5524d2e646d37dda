#!/usr/bin/env python3
"""Fault-injection tests for perfbench's output checks.

    python3 perfbench/test_checks.py

Run from the root of the checkout after one benchmark run, which leaves
the Seq-engine reference in .bench_build/.  Each test feeds a known-good
output through the same code path a benchmark run uses, then injects one
fault and asserts that exactly one more operation is counted as failed.
"""

import copy
import glob
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import run  # noqa: E402


def load_reference():
    paths = sorted(glob.glob(os.path.join(run.BUILD, "reference-*.tsv")), key=os.path.getmtime)
    if not paths:
        raise unittest.SkipTest("no reference yet: run `python3 perfbench/run.py --workload memo_figs` once")
    with open(paths[-1]) as f:
        return checks.Reference(f.read())


class Checks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ref = load_reference()

    def ctx(self):
        return run.Context(self.ref)

    def golden(self, panel):
        return run.read(os.path.join("results", panel + ".csv"))

    def count(self, fails):
        res = run.Result()
        res.op(fails)
        return res.failed

    def test_goldens_pass(self):
        ctx = self.ctx()
        for panel in ["fig1", "fig2", "fig3b", "fig5", "fig6", "fig7"]:
            self.assertEqual(ctx.panel_failures(panel, self.golden(panel).encode()), [], panel)

    def test_golden_cell_changed(self):
        text = self.golden("fig6").replace("0.3154", "0.3155", 1)
        fails = self.ctx().panel_failures("fig6", text.encode())
        self.assertEqual(self.count(fails), 1)
        self.assertIn(checks.UPDATE_GOLDEN, fails[0])

    def test_fig1_cell_against_seq(self):
        # A fig1 cell that is no longer the Seq-derived speedup.
        text = self.golden("fig1").replace("0.6712", "0.6713", 1)
        fails = self.ctx().panel_failures("fig1", text.encode())
        self.assertTrue(any("Seq-engine" in f for f in fails))

    def test_served_byte_changed(self):
        cold = self.golden("fig5").encode()
        hot = bytearray(cold)
        hot[10] ^= 1
        self.assertEqual(self.count(checks.check_bytes("hot fig5 reply", bytes(hot), cold)), 1)
        self.assertEqual(self.count(checks.check_bytes("hot fig5 reply", cold, cold)), 0)

    def test_band_violated(self):
        ctx = self.ctx()
        exp = copy.deepcopy(ctx.expectations)
        fig6 = next(f for f in exp["figures"] if f["id"] == "fig6")
        fig6["bands"][0]["min"] = 0.30  # only the 4-rank banana-pi cell (0.2968) is below
        fails = checks.check_expectations("fig6", self.golden("fig6"), exp, self.ref.category)
        self.assertEqual(self.count(fails), 1)
        self.assertEqual(len(fails), 1)

    def test_shape_violated(self):
        ctx = self.ctx()
        exp = copy.deepcopy(ctx.expectations)
        fig2 = next(f for f in exp["figures"] if f["id"] == "fig2")
        shape = next(s for s in fig2["shapes"] if s["kind"] == "closest-to-hw")
        shape["winner"], shape["rivals"] = "boom-small", ["boom-large"]
        fails = checks.check_expectations("fig2", self.golden("fig2"), exp, self.ref.category)
        self.assertEqual(len(fails), 1)
        self.assertEqual(self.count(fails), 1)

    def memo_result(self, ref):
        res = run.Result()
        run.memo_ops(ref, res, [(["csv", p], ref.memo_csv(p).encode()) for p in ("fig1", "fig2")])
        return res

    def test_memo_known_faults(self):
        res = self.memo_result(self.ref)
        self.assertEqual(res.attempted, 312)
        self.assertEqual(res.failed, 29)
        self.assertEqual(res.unexpected, [])

    def test_memo_estimate_outside_bound(self):
        ref = copy.deepcopy(self.ref)
        key = ("fig1", "banana-pi-sim", "MM")
        est, bound = ref.memo[key]
        self.assertEqual(checks.check_memo_run(ref, *key), [])
        exact = ref.seq[key][0]
        ref.memo[key] = (exact + int(bound) + 1, bound)
        # The CSV is recomputed from the pushed estimate, so only the
        # bound check can catch it.
        res = self.memo_result(ref)
        self.assertEqual(res.failed, 30)
        self.assertEqual(len(res.unexpected), 1)

    def test_memo_csv_cell_changed(self):
        res = run.Result()
        text = self.ref.memo_csv("fig1")
        first = text.split("\n")[1].split(",")
        bad = text.replace(",".join(first), ",".join(first[:1] + ["9.999"] + first[2:]), 1)
        run.memo_ops(self.ref, res, [(["csv", "fig1"], bad.encode())])
        # The changed cell implicates its simulation and hardware runs.
        self.assertEqual(res.failed, 10 + 2)
        self.assertEqual(len(res.unexpected), 2)


if __name__ == "__main__":
    unittest.main()
