"""Self-tests of the benchmark: every check passes on the real computation
and fails on a perturbed input, and the printed metric names match
BENCHMARK.json.

    python3 perfbench/selftest.py

The file name keeps it out of pytest's default collection, so tier-1 runs
neither collect nor pay for it.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
from scipy.integrate import quad  # noqa: E402

from loctimes import chain, density, ldp, oracles, rayknight, simulate  # noqa: E402

import checks  # noqa: E402
import ldp_bounds  # noqa: E402
import rk_profile  # noqa: E402
import run  # noqa: E402


def two_state():
    return chain.validate_generator([[-1.0, 1.0], [0.7, -0.7]]), chain.RangeSpec((0, 1), 0, 1)


class MarginalCheck(unittest.TestCase):
    def test_exact_marginal_scaled_by_1e3_fails(self):
        gen, spec = two_state()
        ev = density.SeriesEvaluator(gen, spec)
        grid = oracles.simplex_integrate(lambda L: ev.values(L)[0], oracles.SimplexChart(spec, 1.0),
                                         resolution=1024)
        exact = oracles.range_exact_prob(gen, spec, 1.0)
        self.assertTrue(checks.marginal(grid.value, grid.error_estimate, exact).ok)
        self.assertFalse(checks.marginal(grid.value, grid.error_estimate, exact * (1 + 1e-3)).ok)


class EvaluatorCheck(unittest.TestCase):
    def test_shifted_quadrature_fails(self):
        gen = chain.validate_generator([[-1.0, 0.6, 0.4], [0.3, -0.8, 0.5], [0.9, 0.2, -1.1]])
        spec = chain.RangeSpec((0, 1, 2), 0, 2)
        l = [0.3, 0.4, 0.5]
        res = [f(gen, spec, l) for f in (density.density_series, density.density_quadrature,
                                          density.density_finite_difference)]
        values, errors = [r.value for r in res], [r.error_estimate for r in res]
        self.assertTrue(checks.evaluators_agree(values, errors)[0].ok)
        values[1] += 2 * sum(errors)
        self.assertFalse(checks.evaluators_agree(values, errors)[0].ok)

    def test_perturbed_closed_form_fails(self):
        p, q, l1 = 0.8, 1.3, 0.7
        gen = chain.validate_generator([[-p, p], [q, -q]])
        got = density.density_series(gen, chain.RangeSpec((0, 1), 0, 1), [l1, 2 - l1]).value
        want = checks.two_state_density(p, q, l1, 2 - l1)
        self.assertTrue(checks.relative("", got, want, checks.CLOSED_FORM_RTOL).ok)
        self.assertFalse(checks.relative("", got * (1 + 1e-6), want, checks.CLOSED_FORM_RTOL).ok)


class MonteCarloCheck(unittest.TestCase):
    def test_mean_shifted_by_6_se_fails(self):
        gen, spec = two_state()
        est = simulate.mc_event_functional(gen, spec, 1.0, lambda L: np.ones(len(L)), 65536, seed=7)
        exact = oracles.range_exact_prob(gen, spec, 1.0)
        self.assertTrue(checks.mc_z("", est.mean, est.std_error, exact)[0].ok)
        shift = 6 * est.std_error * (1 if est.mean >= exact else -1)
        self.assertFalse(checks.mc_z("", est.mean + shift, est.std_error, exact)[0].ok)

    def test_frequency_shifted_by_6_exact_se_fails(self):
        gen, spec = two_state()
        est = simulate.mc_event_functional(gen, spec, 1.0, lambda L: np.ones(len(L)), 8192, seed=7)
        exact = oracles.range_exact_prob(gen, spec, 1.0)
        se = checks.binomial_se(exact, est.n_paths)
        self.assertTrue(checks.mc_z("", est.mean, se, exact)[0].ok)
        shift = 6 * se * (1 if est.mean >= exact else -1)
        self.assertFalse(checks.mc_z("", est.mean + shift, se, exact)[0].ok)


class SimulateChecks(unittest.TestCase):
    def test_worker_counts_differing_in_last_bit_fail(self):
        gen, spec = two_state()
        est = simulate.mc_event_functional(gen, spec, 1.0, lambda L: L[:, 0], 2 * 65536, seed=5,
                                           workers=2)
        key = (est.mean, est.std_error)
        self.assertTrue(checks.identical("", key, key).ok)
        self.assertFalse(checks.identical("", key, (np.nextafter(est.mean, 1.0), est.std_error)).ok)


class RayKnightChecks(unittest.TestCase):
    """The rk-profile checks on a small real run, then on perturbed copies."""

    @classmethod
    def setUpClass(cls):
        b, h, depth = rk_profile.B, rk_profile.H, rk_profile.DEPTH
        cls.batch = rayknight.simulate_profiles(b, h, 400, 11, depth=depth)
        cls.report = rayknight.rk_statistical_test(b, h, n_paths=300, seed=12,
                                                   family_level=rk_profile.FAMILY_LEVEL, depth=depth)

    def failing(self, records=None, passed=True):
        batch = copy.copy(self.batch)
        if records is not None:
            batch.records = records
        report = copy.copy(self.report)
        report.passed = passed
        ctx = SimpleNamespace(seed=1, batches=[batch], reports=[report])
        return {c.name for c in rk_profile.check(ctx, None)[0] if not c.ok}

    def test_real_run_passes(self):
        self.assertEqual(self.failing(), set())

    def test_perturbed_inputs_fail(self):
        col = lambda x: x + rk_profile.DEPTH
        rec = self.batch.records.copy()
        rec[0, col(rk_profile.B)] += 1e-9
        self.assertIn("L(b) = h exactly", self.failing(rec))
        rec = self.batch.records.copy()
        x = rec[:, col(rk_profile.B - 1)]
        shift = 6 * x.std(ddof=1) / np.sqrt(len(x))
        rec[:, col(rk_profile.B - 1)] += shift if x.mean() >= 1 + rk_profile.H else -shift
        self.assertIn("E L(b-1) = 1 + h", self.failing(rec))
        self.assertIn("battery passes", self.failing(passed=False))

    def test_perturbed_kernel_mean_fails(self):
        h1 = 0.8
        mean = quad(lambda y: y * rayknight.f_kernel(h1, y), 0, np.inf)[0]
        self.assertTrue(checks.relative("", mean, 1 + h1, 1e-8).ok)
        self.assertFalse(checks.relative("", mean, 1 + h1 + 1e-6, 1e-8).ok)


class LdpChecks(unittest.TestCase):
    def test_rate_functions_apart_fail(self):
        gen = ldp_bounds._symmetric(3, np.random.default_rng(4))
        mu = np.array([0.2, 0.3, 0.5])
        sym = ldp.rate_function_symmetric(gen, mu)
        general = ldp.rate_function_general(gen, mu, gen.states).value
        self.assertTrue(checks.absolute("", general, sym, checks.SYMMETRIC_ATOL).ok)
        self.assertFalse(checks.absolute("", general + 1e-6, sym, checks.SYMMETRIC_ATOL).ok)

    def test_eigenvalue_at_n_plus_1_nodes_fails(self):
        n = ldp_bounds.CHI_NODES
        value = ldp.chi_discrete(1, 1.0, n, "zero", n_restarts=2).value
        at = lambda nodes: checks.relative("", value, checks.lattice_eigenvalue(nodes, 1.0, 1),
                                           checks.CHI_RTOL).ok
        self.assertTrue(at(n))
        self.assertFalse(at(n + 1))

    def test_entropy_above_zero_minimizer_objective_fails(self):
        n = 12
        zero = ldp.chi_discrete(1, 1.0, n, "zero", n_restarts=2)
        entropy = ldp.chi_discrete(1, 1.0, n, "entropy", n_restarts=2)
        ceiling = ldp_bounds.entropy_objective(zero.minimizer)
        self.assertTrue(checks.at_most("", entropy.value, ceiling).ok)
        self.assertFalse(checks.at_most("", ceiling + 1e-6, ceiling).ok)

    def test_bound_lowered_below_density_fails(self):
        gen = chain.validate_generator([[-1.0, 0.6, 0.4], [0.3, -0.8, 0.5], [0.9, 0.2, -1.1]])
        spec = chain.RangeSpec((0, 1, 2), 1, 2)
        l = np.array([0.2, 0.5, 0.4])
        ref = density.density_series(gen, spec, l)
        floor = ref.value - ref.error_estimate
        self.assertTrue(checks.at_least("", ldp.density_bound(gen, spec, l), floor).ok)
        self.assertFalse(checks.at_least("", 0.5 * ref.value, floor).ok)

    def test_rhs_above_grid_or_outside_ball_fails(self):
        rng = np.random.default_rng(3)
        gen, ball, T, seed = ldp_bounds.rhs_instance(2, rng)
        res = ldp.ldp_upper_bound_rhs(gen, (0, 1), T, constraint=ball, seed=seed, n_restarts=4)
        grid = ldp_bounds.grid_minimum(gen, ball)
        self.assertTrue(checks.at_most("", res.inner_value, grid + checks.GRID_ATOL).ok)
        self.assertFalse(checks.at_most("", grid + 1e-6, grid + checks.GRID_ATOL).ok)
        self.assertTrue(checks.in_ball(res.minimizer, ball.center, ball.radius).ok)
        outside = ball.center + 1.5 * ball.radius * np.array([1.0, -1.0]) / np.sqrt(2)
        self.assertFalse(checks.in_ball(outside, ball.center, ball.radius).ok)


class Compare(unittest.TestCase):
    def test_verdicts(self):
        base = [100.0, 101.0, 99.0, 100.5, 99.5]
        scaled = lambda f: [x * f for x in base]
        self.assertEqual(run.verdict(base, scaled(0.95), 0.1, "higher")[0], "within bound")
        self.assertEqual(run.verdict(base, scaled(0.8), 0.1, "higher")[0], "outside bound")
        self.assertEqual(run.verdict(base, scaled(0.8), 0.1, "lower")[0], "within bound")
        wide = [50.0, 150.0, 100.0, 60.0, 140.0]
        self.assertEqual(run.verdict(base, wide, 0.1, "higher")[0], "unresolved")


class MetricNames(unittest.TestCase):
    """One short run per workload and mode; the names printed are exactly
    the names BENCHMARK.json lists."""

    def test_printed_names_match(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        want = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                     "--seconds", "0.1", "--trace", str(trace)],
                    capture_output=True, text=True, cwd=ROOT, timeout=170)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"], workload)
                self.assertEqual(set(res["metrics"]), want[trace], (workload, trace))


if __name__ == "__main__":
    unittest.main()
