"""Acceptance gate: one test per numbered criterion, each printing a
single PASS/FAIL line with the headline numbers before asserting."""

import itertools

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import iv

from loctimes.chain import RangeSpec, box_srw, validate_generator
from loctimes.cli import main as cli_main
from loctimes.density import (
    SeriesEvaluator,
    density_finite_difference,
    density_quadrature,
    density_series,
    gauge_invariance_check,
)
from loctimes.ldp import (
    SimplexBall,
    chi_discrete,
    density_bound,
    ldp_upper_bound_rhs,
    rate_function_general,
    rate_function_symmetric,
    rescaled_bound_experiment,
)
from loctimes.oracles import (
    SimplexChart,
    gaussian_identity_check,
    range_exact_prob,
    resolvent_check,
    simplex_integrate,
)
from loctimes.rayknight import f_kernel, pstar_kernel, rk_statistical_test
from loctimes.simulate import mc_event_functional


def report(number, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {label}: {verdict} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def random_generator(n, rng, symmetric=False):
    # keep four-state rates moderate so the balanced-flow series stays at a
    # tractable degree
    hi = 1.0 if n < 4 else 0.35
    B = rng.uniform(0.05, hi, size=(n, n))
    if symmetric:
        B = 0.5 * (B + B.T)
    np.fill_diagonal(B, 0)
    A = B.copy()
    np.fill_diagonal(A, -B.sum(axis=1))
    return validate_generator(A)


def test_criterion_01_two_state_closed_form():
    T = 2.0
    worst = 0.0
    for p in np.linspace(0.5, 1.5, 5):
        for q in np.linspace(0.5, 1.5, 5):
            gen = validate_generator([[-p, p], [q, -q]])
            for l1 in np.linspace(0.2, 1.8, 5):
                l2 = T - l1
                l = {0: l1, 1: l2}
                z = 2.0 * np.sqrt(p * q * l1 * l2)
                damp = np.exp(-p * l1 - q * l2)
                refs = {
                    RangeSpec((0, 1), 0, 0): damp * np.sqrt(p * q * l1 / l2) * iv(1, z),
                    RangeSpec((0, 1), 0, 1): p * damp * iv(0, z),
                }
                for spec, ref in refs.items():
                    for fn in (density_series, density_quadrature, density_finite_difference):
                        worst = max(worst, abs(fn(gen, spec, l).value - ref) / abs(ref))
    report(1, "two-state closed form", worst <= 1e-8, f"worst rel err {worst:.3g}")


def test_criterion_02_cross_evaluator_agreement():
    rng = np.random.default_rng(202)
    worst_rel = 0.0
    worst_budget = 0.0
    for k in range(50):
        n = [2, 3, 4][k % 3]
        gen = random_generator(n, rng)
        spec = RangeSpec(tuple(range(n)), int(rng.integers(n)), int(rng.integers(n)))
        T = rng.uniform(0.5, 2.0 if n < 4 else 1.0)
        # keep points away from the simplex boundary so the finite-difference
        # stencil stays inside the domain
        w = 0.5 / n + 0.5 * rng.dirichlet(np.ones(n))
        l = dict(zip(range(n), T * w))
        rs = density_series(gen, spec, l, tol=1e-12 if n < 4 else 1e-9)
        rq = density_quadrature(gen, spec, l)
        rf = density_finite_difference(gen, spec, l)
        vals = [rs.value, rq.value, rf.value]
        spread = max(vals) - min(vals)
        budget = rs.error_estimate + rq.error_estimate + rf.error_estimate + 1e-300
        worst_rel = max(worst_rel, spread / max(abs(rs.value), 1e-300))
        worst_budget = max(worst_budget, spread / budget)
    ok = worst_rel <= 1e-6 and worst_budget <= 1.0
    report(2, "cross-evaluator agreement", ok,
           f"worst rel {worst_rel:.3g}, worst spread/budget {worst_budget:.3g}")


def test_criterion_03_marginal_consistency():
    rng = np.random.default_rng(303)
    worst_small = 0.0
    for n, resolution in ((2, 1024), (3, 384)):
        for _ in range(3):
            gen = random_generator(n, rng)
            spec = RangeSpec(tuple(range(n)), 0, int(rng.integers(n)))
            T = rng.uniform(0.5, 1.5)
            ev = SeriesEvaluator(gen, spec)
            chart = SimplexChart(spec, T)
            got = simplex_integrate(lambda L: ev.values(L)[0], chart, resolution=resolution).value
            exact = range_exact_prob(gen, spec, T)
            worst_small = max(worst_small, abs(got - exact) / abs(exact))
    gen = random_generator(4, np.random.default_rng(304))
    spec = RangeSpec((0, 1, 2, 3), 0, 2)
    T = 1.0
    ev = SeriesEvaluator(gen, spec)
    chart = SimplexChart(spec, T)
    mc = simplex_integrate(lambda L: ev.values(L)[0], chart, mode="mc", seed=5,
                           n_samples=80_000)
    exact4 = range_exact_prob(gen, spec, T)
    z4 = abs(mc.value - exact4) / mc.error_estimate
    ok = worst_small <= 1e-5 and z4 <= 3.0
    report(3, "marginal consistency", ok,
           f"worst rel (sizes 2-3) {worst_small:.3g}, size-4 MC z {z4:.2f}")


def test_criterion_04_mc_functional_consistency():
    chains = [
        (validate_generator([[-1, 1], [1, -1]]), RangeSpec((0, 1), 0, 1), 1.0, 512),
        (validate_generator([[-2, 1, 1], [1, -2, 1], [1, 1, -2]]),
         RangeSpec((0, 1, 2), 0, 1), 1.5, 256),
    ]
    worst_z = 0.0
    for gen, spec, T, resolution in chains:
        functionals = [
            ("one", lambda L: np.ones(len(L))),
            ("l_x", lambda L: L[:, 0]),
            ("exp_neg_l_x", lambda L: np.exp(-L[:, 0])),
            ("l_x*l_y", lambda L: L[:, 0] * L[:, -1]),
        ]
        ev = SeriesEvaluator(gen, spec)
        chart = SimplexChart(spec, T)
        for name, F in functionals:
            est = mc_event_functional(gen, spec, T, F, 10 ** 6, seed=404, workers=4)
            integral = simplex_integrate(lambda L: ev.values(L)[0] * F(L), chart,
                                         resolution=resolution)
            z = abs(est.mean - integral.value) / est.std_error
            worst_z = max(worst_z, z)
    report(4, "MC functional consistency", worst_z <= 4.0, f"worst |z| {worst_z:.2f}")


def test_criterion_05_gauge_invariance():
    rng = np.random.default_rng(505)
    worst = 0.0
    for n in (2, 3, 4):
        gen = random_generator(n, rng)
        spec = RangeSpec(tuple(range(n)), 0, n - 1)
        l = dict(zip(range(n), rng.dirichlet(np.ones(n))))
        tol = 1e-12 if n < 4 else 1e-9
        base = density_series(gen, spec, l, tol=tol).value
        for _ in range(20):
            r = np.exp(rng.normal(size=n))
            worst = max(worst, gauge_invariance_check(gen, spec, l, r, tol=tol) / abs(base))
    report(5, "gauge invariance", worst <= 1e-10, f"worst rel change {worst:.3g}")


def test_criterion_06_gaussian_identity():
    rng = np.random.default_rng(606)
    worst_quad = 0.0
    worst_mc = 0.0
    for k in range(20):
        n = [1, 2, 2, 3][k % 4]
        H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        H = H @ H.conj().T + 0.5 * np.eye(n)  # PD Hermitian part
        K = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        K = 0.5 * (K - K.conj().T)  # anti-Hermitian, makes M non-normal
        M = H + K
        if n <= 2:
            worst_quad = max(worst_quad, gaussian_identity_check(M))
        else:
            worst_mc = max(worst_mc, gaussian_identity_check(M, seed=k))
    ok = worst_quad <= 1e-8 and worst_mc <= 1e-2
    report(6, "Gaussian determinant identity", ok,
           f"worst quad {worst_quad:.3g}, worst MC {worst_mc:.3g}")


def test_criterion_07_resolvent_identity():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 6))
        gen = random_generator(n, rng)
        k = int(rng.integers(2, n + 1))
        S = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        a, b = rng.choice(S, size=2)
        v = -rng.uniform(0.1, 1.0, size=k)
        worst = max(worst, resolvent_check(gen, S, int(a), int(b), v))
    report(7, "resolvent identity", worst <= 1e-8, f"worst deviation {worst:.3g}")


def test_criterion_08_pointwise_density_bound():
    rng = np.random.default_rng(808)
    violations = 0
    n_points = 0
    for chain_idx in range(50):
        n = [2, 3, 4][chain_idx % 3]
        gen = random_generator(n, rng, symmetric=(chain_idx % 2 == 0))
        a, b = int(rng.integers(n)), int(rng.integers(n))
        spec = RangeSpec(tuple(range(n)), a, b)
        for _ in range(20):
            T = rng.uniform(0.5, 3.0 if n < 4 else 1.2)
            l = T * rng.dirichlet(np.ones(n))
            res = density_series(gen, spec, dict(zip(range(n), l)))
            bound = density_bound(gen, spec, l)
            n_points += 1
            if res.value > bound + res.error_estimate:
                violations += 1
    report(8, "pointwise density bound", violations == 0,
           f"{violations} violations over {n_points} points")


def _event_log_prob(gen, S, a, T, ball, seed):
    """log P_a(normalized local times in the ball, range inside S), summed
    over exact ranges by simplex integration with the membership indicator."""
    S = tuple(S)
    pos = {s: i for i, s in enumerate(S)}
    total = 0.0
    for k in range(1, len(S) + 1):
        for R in itertools.combinations(S, k):
            if a not in R:
                continue
            idx = [pos[s] for s in R]
            if k == 1:
                mu = np.zeros(len(S))
                mu[pos[a]] = 1.0
                if ball.contains(mu):
                    total += np.exp(gen.rates[gen.index(a), gen.index(a)] * T)
                continue
            for b in R:
                spec = RangeSpec(R, a, b)
                ev = SeriesEvaluator(gen, spec)

                def f(L):
                    mu = np.zeros((len(L), len(S)))
                    mu[:, idx] = L / T
                    inside = np.linalg.norm(mu - ball.center, axis=1) <= ball.radius
                    return ev.values(L)[0] * inside

                chart = SimplexChart(spec, T)
                if k <= 2:
                    total += simplex_integrate(f, chart, resolution=256).value
                else:
                    total += simplex_integrate(f, chart, mode="mc", seed=seed,
                                               n_samples=20_000).value
    return np.log(total) if total > 0 else -np.inf


def test_criterion_09_deviation_upper_bound():
    rng = np.random.default_rng(909)
    violations = 0
    worst_margin = np.inf
    for trial in range(100):
        n = 2 if trial < 70 else 3
        gen = random_generator(n, rng, symmetric=True)
        S = tuple(range(n))
        a = int(rng.integers(n))
        T = rng.uniform(1.0, 10.0)
        ball = SimplexBall(rng.dirichlet(np.ones(n)), rng.uniform(0.1, 0.8))
        rhs = ldp_upper_bound_rhs(gen, S, T, constraint=ball, seed=trial, n_restarts=4)
        lhs = _event_log_prob(gen, S, a, T, ball, seed=trial)
        margin = rhs.total - lhs
        worst_margin = min(worst_margin, margin)
        if margin < 0:
            violations += 1
    report(9, "deviation upper bound", violations == 0,
           f"{violations} violations, smallest RHS - logLHS margin {worst_margin:.3f}")


def test_criterion_10_rate_function():
    rng = np.random.default_rng(1010)
    worst_sym = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        gen = random_generator(n, rng, symmetric=True)
        mu = rng.dirichlet(np.ones(n))
        sym = rate_function_symmetric(gen, mu)
        worst_sym = max(worst_sym, abs(rate_function_general(gen, mu, gen.states).value - sym))
    worst_grid = 0.0
    for trial in range(5):
        gen = random_generator(3, rng)
        mu = rng.dirichlet(np.ones(3))
        M = gen.rates

        def f(u1, u2):
            eu = np.exp([0.0, u1, u2])
            return float(np.sum(mu * (M @ eu) / eu))

        lo, hi = np.array([-3.0, -3.0]), np.array([3.0, 3.0])
        best = np.inf
        for _ in range(8):
            g1 = np.linspace(lo[0], hi[0], 41)
            g2 = np.linspace(lo[1], hi[1], 41)
            vals = np.array([[f(x, y) for y in g2] for x in g1])
            i, j = np.unravel_index(np.argmin(vals), vals.shape)
            best = vals[i, j]
            w1, w2 = g1[1] - g1[0], g2[1] - g2[0]
            lo = np.array([g1[i] - w1, g2[j] - w2])
            hi = np.array([g1[i] + w1, g2[j] + w2])
        res = rate_function_general(gen, mu, gen.states)
        worst_grid = max(worst_grid, abs(res.value - (-best)))
    ok = worst_sym <= 1e-8 and worst_grid <= 1e-4
    report(10, "rate function", ok,
           f"worst symmetric gap {worst_sym:.3g}, worst grid-search gap {worst_grid:.3g}")


def test_criterion_11_variational_convergence_and_rescaled_errors():
    target = np.pi ** 2 / 8.0
    res = chi_discrete(1, 1.0, 200, "zero", n_restarts=3)
    rel = abs(res.value - target) / target
    # With alpha = T^a the error terms |S| log(eta sqrt(8e) T) + log|S| + |S|/(4T),
    # |S| ~ alpha^d, scaled by alpha^2/T vanish at the rate alpha^(d+2) log T / T
    # whenever (d+2) a < 1; each step must shrink them at least that fast.
    d, a = 1, 0.25
    Ts = [1e2, 1e4, 1e6, 1e8]
    rows = rescaled_bound_experiment(d, 1.0, Ts, alpha_exponent=a, n_restarts=2)
    errs = [r["scaled_error_terms"] for r in rows]
    shrink = [errs[i] / errs[i + 1] for i in range(len(Ts) - 1)]
    predicted = [(Ts[i + 1] / Ts[i]) ** (1 - (d + 2) * a) * np.log(Ts[i]) / np.log(Ts[i + 1])
                 for i in range(len(Ts) - 1)]
    worst_bound_gap = 0.0
    for r in rows:
        gen = box_srw(d, int(np.floor(r["alpha"])))
        bound = ldp_upper_bound_rhs(gen, gen.states, r["T"], n_restarts=1)
        direct = r["alpha"] ** 2 / r["T"] * bound.error_terms
        worst_bound_gap = max(worst_bound_gap, abs(r["scaled_error_terms"] - direct) / direct)
    gaps = [abs(r["scaled_rhs"] + target) for r in rows]
    ok = (
        rel <= 0.01
        and all(s > 1.0 for s in shrink)
        and all(s >= p for s, p in zip(shrink, predicted))
        and worst_bound_gap <= 1e-12
        and rows[-1]["scaled_rhs"] < 0
        and all(g1 < g0 for g0, g1 in zip(gaps, gaps[1:]))
    )
    detail = (f"chi rel err {rel:.3g}; scaled error terms "
              f"{' -> '.join(f'{e:.3f}' for e in errs)}, shrink factors "
              f"{', '.join(f'{s:.2f}' for s in shrink)} (rate predicts >= "
              f"{', '.join(f'{p:.2f}' for p in predicted)}); "
              f"vs bound rel {worst_bound_gap:.2g}; scaled rhs at T=1e8 "
              f"{rows[-1]['scaled_rhs']:.3f}, |rhs + pi^2/8| "
              f"{' -> '.join(f'{g:.3f}' for g in gaps)}")
    report(11, "box variational problem and rescaled error terms", ok, detail)


def test_criterion_12_local_time_transition_kernels():
    worst = 0.0
    for h1 in (0.5, 1.0, 2.5):
        mass, _ = quad(lambda h2: f_kernel(h1, h2), 0, np.inf)
        mean, _ = quad(lambda h2: h2 * f_kernel(h1, h2), 0, np.inf)
        worst = max(worst, abs(mass - 1.0), abs(mean - (1.0 + h1)))
        k = pstar_kernel(h1)
        pmass, _ = quad(k.density, 0, np.inf)
        pmean, _ = quad(lambda h2: h2 * k.density(h2), 0, np.inf)
        worst = max(worst, abs(k.atom + pmass - 1.0), abs(pmean - h1))
    reportbag = rk_statistical_test(b=3, h=1.0, n_paths=100_000, seed=12,
                                    family_level=0.01)
    ok = worst <= 1e-10 and reportbag.passed
    n_tests = len(reportbag.outcomes)
    report(12, "local-time transition kernels", ok,
           f"worst kernel deviation {worst:.3g}, battery {n_tests} tests "
           f"{'all passed' if reportbag.passed else 'FAILED'}")


def test_criterion_13_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "generator=inline:[[-1, 1], [1, -1]]\nrange=0,1\nstart=0\nend=1\n"
        "points=3\nresolution=64\n"
    )
    runs = {
        "density-eval": [str(cfg)],
        "mc-validate": [str(cfg), "--set", "paths=20000"],
        "marginal-check": [str(cfg)],
        "bounds-check": [str(cfg)],
        "rate-function": ["--set", "generator=inline:[[-1, 1], [1, -1]]",
                          "--set", "mu=0.4,0.6"],
        "chi": ["--set", "nodes=30", "--set", "restarts=2"],
        "rescaled": ["--set", "T_list=100,1000", "--set", "restarts=2"],
        "rayknight-test": ["--set", "b=2", "--set", "paths=5000"],
    }
    mismatched = []
    for name, extra in runs.items():
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}.csv"
            rc = cli_main([name, *extra, "--seed", "9", "--workers", "2",
                           "--out", str(out)])
            assert rc == 0, f"{name} exited {rc}"
            outs.append(out.read_bytes())
        if outs[0] != outs[1]:
            mismatched.append(name)
    report(13, "command determinism", not mismatched,
           f"{len(runs)} commands, mismatches: {mismatched or 'none'}")
