"""Tests of the benchmark's own parts: statistics, failure accounting,
the oracles on cases small enough to check by hand, and the tracer.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402


class FakeClock:
    """Advances by `step` seconds on every reading."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class ScriptedWorkload:
    """Three ops per round: one correct, one with a wrong result, one that
    raises."""

    def __init__(self, bad=True):
        self.bad = bad
        self.setups = 0
        self.calls = 0

    def setup(self):
        self.setups += 1

    def warm_up(self):
        pass

    def round(self):
        def boom():
            raise RuntimeError("no result")

        def count(value):
            self.calls += 1
            return value

        return [
            harness.Op("good", lambda: count(1), lambda out: []),
            harness.Op("wrong", lambda: count(2),
                        lambda out: ["wrong result"] if self.bad else []),
            harness.Op("raises", boom, lambda out: []),
        ]


class StatisticsTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        self.assertEqual(harness.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(harness.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        self.assertEqual(harness.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5))
        self.assertEqual(harness.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_end_to_end_uses_completed_ops(self):
        res = harness.RunResult(setup_s=[2.0, 1.0, 3.0], op_s=[0.5, 0.25, 0.25],
                                attempted=4, failed=1)
        e2e = harness.end_to_end(res, 100.0)
        self.assertEqual(e2e["setup_s"], (2.0, "s"))
        self.assertEqual(e2e["throughput_ops_s"], (3.0, "1/s"))
        self.assertEqual(e2e["op_p50_s"], (0.25, "s"))
        self.assertEqual(e2e["peak_rss_mb"], (100.0, "MB"))
        self.assertIn("op wall time n=3:", "\n".join(harness.describe(res)))


class AccountingTest(unittest.TestCase):
    def test_failed_check_counts_and_run_goes_on(self):
        wl = ScriptedWorkload()
        res = harness.run_closed_loop(wl, seconds=10.0, clock=FakeClock())
        self.assertEqual(wl.setups, harness.SETUP_REPEATS)
        self.assertGreaterEqual(res.rounds, 2)
        self.assertEqual(res.attempted, 3 * res.rounds)
        self.assertEqual(res.failed, 2 * res.rounds)
        self.assertEqual(len(res.op_s), res.rounds)
        self.assertEqual(wl.calls, 2 * res.rounds)
        self.assertFalse(res.correct)
        self.assertEqual(res.problems[0], ("wrong", "wrong result"))

    def test_raised_op_is_failed_but_not_incorrect(self):
        res = harness.run_closed_loop(ScriptedWorkload(bad=False), seconds=10.0,
                                      clock=FakeClock())
        self.assertEqual(res.failed, res.rounds)
        self.assertTrue(res.correct)
        self.assertIn("no result", res.errors[0][1])

    def test_whole_rounds_only(self):
        # a round reads the fake clock six times: twice for each op that
        # returns, once for the op that raises, once for the time check
        res = harness.run_closed_loop(ScriptedWorkload(), seconds=7.0, clock=FakeClock())
        self.assertEqual(res.rounds, 2)
        self.assertEqual(res.attempted, 6)


class OracleTest(unittest.TestCase):
    def test_grid_census(self):
        grid = [(x, y) for x in range(3) for y in range(3)]
        lines = oracles.line_census(grid)
        self.assertEqual(len(lines), 20)
        self.assertEqual(sum(lines.values()), 48)
        self.assertEqual(oracles.exact_incidences(grid, lines), 48)
        self.assertEqual(oracles.near_incidences(grid, 0.5, lines, 1e-9), 48)

    def test_reduced_triple(self):
        self.assertEqual(oracles.reduced_triple((0, 0), (2, 2)), (1, -1, 0))
        self.assertEqual(oracles.reduced_triple((2, 2), (0, 0)), (1, -1, 0))
        self.assertEqual(oracles.reduced_triple((0, 3), (4, 3)), (0, 1, 3))

    def test_near_incidences_distance(self):
        # y = 0 on the unit lattice; (0, 1) sits at distance 1
        self.assertEqual(oracles.near_incidences([(5, 0), (0, 1)], 1.0, [(0, 1, 0)], 0.5), 1)
        self.assertEqual(oracles.near_incidences([(5, 0), (0, 1)], 1.0, [(0, 1, 0)], 1.0), 2)

    def test_parabola_has_no_three_collinear(self):
        pts = oracles.parabola_points(40, 101, random.Random(3))
        self.assertEqual(max(oracles.line_census(pts).values()), 2)

    def test_four_corner_set(self):
        pts = oracles.four_corner_lattice(4)
        self.assertEqual(len(pts), 256)
        self.assertIn((255, 255), pts)  # 3/4 + 3/16 + 3/64 + 3/256 = 255/256
        self.assertEqual(oracles.occupied_cells(list(pts), 6), 4)

    def test_bootstrap_eta(self):
        # gap 0.5: eta = min(0.01, 0.5 / 4, 0.5 * (0.5 / (14 - 4))^2) = 0.00125
        sched = oracles.bootstrap_closed_form(0.5, 1.0, 0.01)
        self.assertAlmostEqual(sched["eta"], 0.00125, places=15)
        self.assertAlmostEqual(sched["kappa"], 0.035, places=15)
        self.assertEqual(sched["log2_r1"], float(math.ceil(-math.log2(6.0) / 0.00125) - 1))

    def test_lattice_coords_rejects_off_lattice(self):
        self.assertEqual(oracles.lattice_coords([(0.25, 0.5)], 0.25), [(1, 2)])
        with self.assertRaises(ValueError):
            oracles.lattice_coords([(0.3, 0.5)], 0.25)

    def test_points_in_ball(self):
        pts = [(0.0, 0.0), (0.5, 0.0), (0.5, 0.5)]
        self.assertEqual(oracles.points_in_ball(pts, (0.0, 0.0), 0.5), 2)
        self.assertEqual(oracles.points_in_ball(pts, (0.0, 0.0), 0.5, tol=1e-12), 2)

    def test_probe_containment(self):
        # a horizontal band through the centre
        band = (0.0, 0.0, 0.1)
        self.assertTrue(oracles.probe_contained(0.0, 0.0, 0.2, *band, 1e-12))
        self.assertFalse(oracles.probe_contained(0.0, 0.05, 0.1, *band, 1e-12))
        # a vertical member holds the band's chord ends (|x| <= 0.995) but
        # not the disc points (+-1, 0) between the band's edges
        self.assertFalse(oracles.probe_contained(math.pi / 2, 0.0, 0.996, *band, 1e-12))
        self.assertTrue(oracles.probe_contained(math.pi / 2, 0.0, 1.0, *band, 1e-12))
        members = [(0.0, 0.0), (0.0, 0.05), (0.0, -0.05)]
        self.assertEqual(oracles.containment_count(members, 0.2, *band, 1e-12), 3)
        self.assertEqual(oracles.containment_count(members, 0.12, *band, 1e-12), 1)

    def test_heaviest_tube_and_slope(self):
        pts = [(0.3, 0.0), (0.6, 0.0), (0.0, 0.3)]
        mass = oracles.heaviest_tube_mass(pts, [0.25, 0.25, 0.5], (0.0, 0.0), 0.25, 1e-12)
        self.assertEqual(mass, 0.5)
        self.assertAlmostEqual(oracles.log2_slope([1, 2, 3], [2.0, 4.0, 8.0]), 1.0)


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tr = tracing.Tracer(clock=FakeClock())
        inner = tr.wrap("inner", lambda: None)
        outer = tr.wrap("outer", lambda: inner())
        outer()
        times = tr.self_times()
        # outer reads 1 and 4, inner reads 2 and 3
        self.assertEqual(times["outer"], [2.0, 1])
        self.assertEqual(times["inner"], [1.0, 1])

    def test_install_reaches_rebound_names(self):
        import gmtlab
        from gmtlab import covering, dyadic

        original = dyadic.count_cells
        tr = tracing.Tracer()
        tr.install()
        try:
            self.assertIs(covering.count_cells, dyadic.count_cells)
            self.assertIsNot(covering.count_cells, original)
            ds = gmtlab.gen_grid(3)
            est = gmtlab.box_dimension(ds, 0, 3, delta=0.5 ** 3)
            lines = gmtlab.LineSet.from_lines([gmtlab.Line.through(
                gmtlab.Point(0.0, 0.0), gmtlab.Point(1.0, 1.0))] * 2)
        finally:
            tr.uninstall()
        self.assertIs(covering.count_cells, original)
        self.assertEqual(len(lines), 1)
        names = [s[0] for s in tr.spans]
        self.assertEqual(names.count("dyadic.count_cells"), 4)
        self.assertEqual(tr.counts["covering.cells_counted"], sum(c for _, c in est.counts))
        self.assertEqual(tr.counts["incidence.lines_supplied"], 2)
        self.assertEqual(tr.counts["incidence.lines_kept"], 1)
        parent = tr.spans[names.index("dyadic.count_cells")][3]
        self.assertEqual(tr.spans[parent][0], "covering.box_dimension")


class DefinitionTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        import workloads

        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.NAMES))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         tracing.per_layer_metrics())
        res = harness.RunResult(setup_s=[1.0], op_s=[1.0], attempted=1)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {k: u for k, (_, u) in harness.end_to_end(res, 1.0).items()})


if __name__ == "__main__":
    unittest.main()
