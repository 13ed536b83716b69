"""Tests of the benchmark itself: the correctness gate and the tracing.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The tracing tests run the child on a 16^3 table so they take seconds, not
the minutes a real workload takes.
"""

import json
import shutil
import tempfile
import unittest
from pathlib import Path

import run

MARKER_SITES = {
    "fracsaddle.solve",
    "fracsaddle.analysis.solve",
    "fracsaddle.cli.solve",
    "fracsaddle.solver.solve",
}


class GateTest(unittest.TestCase):
    def test_groundstate_reference_passes_and_perturbation_fails(self):
        solves = [{"converged": True, "iterations": 90, "energy": run.GROUNDSTATE_ENERGY}]
        good = {"energy": run.GROUNDSTATE_ENERGY, "converged": True}
        self.assertEqual(run.gate("groundstate48", 0, 0, solves, good), [])
        bad = dict(good, energy=run.GROUNDSTATE_ENERGY * (1 + 1e-6))
        self.assertTrue(run.gate("groundstate48", 0, 0, solves, bad))

    def test_nonzero_exit_fails(self):
        good = {"energy": run.GROUNDSTATE_ENERGY, "converged": True}
        solves = [{"converged": True, "iterations": 90, "energy": run.GROUNDSTATE_ENERGY}]
        self.assertEqual(run.gate("groundstate48", 0, 2, solves, good), ["exit code 2"])

    def test_unconverged_solve_fails(self):
        good = {"energy": run.GROUNDSTATE_ENERGY, "converged": True}
        solves = [{"converged": False, "iterations": 2000, "energy": run.GROUNDSTATE_ENERGY}]
        self.assertTrue(run.gate("groundstate48", 0, 0, solves, good))

    def _table(self, scale=None):
        rows = []
        for g, e in run.TABLE_ENERGIES.items():
            if g == scale:
                e *= 1 + 1e-6
            rows.append({"group": g, "cG": f"{e:.10g}", "verified": "true"})
        return {"rows": rows}

    def test_table_perturbation_and_unverified_row_fail(self):
        solves = [{"converged": True, "iterations": 1, "energy": 1.0}]
        self.assertEqual(run.gate("table24", 0, 0, solves, self._table()), [])
        self.assertTrue(run.gate("table24", 0, 0, solves, self._table("A1xA1")))
        unverified = self._table()
        unverified["rows"][3]["verified"] = "false"
        self.assertTrue(run.gate("table24", 0, 0, solves, unverified))

    def _extension(self, seed, perturb=1.0):
        rows = []
        for s, (lhs, rhs) in run.EXTENSION_REFERENCE[seed].items():
            lhs *= perturb
            rows.append({"s": str(s), "J": "256", "lhs": repr(lhs), "rhs": repr(rhs),
                         "ratio": repr(lhs / rhs)})
        return {"rows": rows}

    def test_extension_references(self):
        seed = min(run.EXTENSION_REFERENCE)
        self.assertEqual(run.gate("extension32", seed, 0, [], self._extension(seed)), [])
        self.assertTrue(run.gate("extension32", seed, 0, [], self._extension(seed, 1 + 1e-6)))
        # An unrecorded seed still has to pass the 2% identity.
        self.assertEqual(run.gate("extension32", 10**6, 0, [], self._extension(seed)), [])
        self.assertTrue(run.gate("extension32", 10**6, 0, [], self._extension(seed, 1.05)))


class TracingTest(unittest.TestCase):
    """The child on a small table: which names hold wrappers, and repeatable counts."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp(dir=run.ROOT, prefix=".perfbench_test"))
        cfg = {"problem": run.PROBLEM, "grid": {"M": 16, "L": 12.0},
               "group": {"name": ["trivial", "A1"]}, "solver": {"tol": 1e-5, "max_iters": 500}}
        cls.config = cls.tmp / "config.json"
        cls.config.write_text(json.dumps(cfg))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def _child(self, tag, trace):
        spec = {"marker_layer": "solver", "marker": "solve", "trace": trace, "setup_only": False,
                "argv": ["table", "--config", str(self.config), "--out", str(self.tmp / tag)]}
        rep = run.run_child(spec, self.tmp / f"rep-{tag}", timeout=120)
        self.assertIsNotNone(rep["result"], (self.tmp / f"rep-{tag}" / "stderr.txt").read_text())
        return rep["result"]

    def test_untraced_run_keeps_original_functions(self):
        res = self._child("plain", trace=False)
        self.assertEqual(set(res["wrapped"]), MARKER_SITES)
        self.assertNotIn("layers", res)

    def test_traced_runs_repeat_counts_and_wrap_every_binding(self):
        first = self._child("traced1", trace=True)
        second = self._child("traced2", trace=True)
        wrapped = set(first["wrapped"])
        for site in (
            "fracsaddle.solver.fftn", "fracsaddle.solver.ifftn", "fracsaddle.solver.energy_of",
            "fracsaddle.energy.riesz_convolve", "fracsaddle.spectral.riesz_convolve",
            "fracsaddle.energy", "fracsaddle.solver.GroupAction.project",
            "fracsaddle.extension.fftn", "fracsaddle.cli.load_config",
        ):
            self.assertIn(site, wrapped)
        self.assertLessEqual(MARKER_SITES, wrapped)
        a, b = first["layers"], second["layers"]
        for key in run.EXACT_COUNTS:
            self.assertEqual(a[key], b[key], key)
        self.assertEqual(a["solver.solves"]["value"], len(first["solves"]))
        self.assertEqual(a["solver.iterations"]["value"],
                         sum(s["iterations"] for s in first["solves"]))
        self.assertGreater(a["spectral.riesz_convolve.calls"]["value"], 0)
        self.assertGreater(a["solver.project.calls"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
