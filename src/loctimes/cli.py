"""Experiment command line: reproducible runs of every library operation.

Configs are plain ``key=value`` text files passed as the positional
argument; any ``--set key=value`` flag overrides a config entry.  Each
command declares the keys it reads (``COMMANDS``); a key that no command
reads, or a ``--set`` key that this command does not read, is an error.
Results are comma-separated tables with a header row, written to stdout
or ``--out``.  All randomness is controlled by explicit seeds, and
rerunning a command with the same config, seed and worker count
reproduces the output byte for byte.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import sys

import numpy as np

from .chain import (
    GeneratorError,
    Generator,
    RangeSpec,
    box_srw,
    load_generator,
    validate_generator,
)
from .density import (
    CapacityError,
    ConvergenceError,
    density_finite_difference,
    density_quadrature,
    density_series,
    SeriesEvaluator,
)
from .ldp import (
    _is_symmetric,
    chi_discrete,
    density_bound,
    ldp_upper_bound_rhs,
    rate_function_general,
    rate_function_symmetric,
    rescaled_bound_experiment,
)
from .oracles import SimplexChart, range_exact_prob, simplex_integrate
from .rayknight import rk_statistical_test
from .simulate import SimulationError, mc_event_functional


class ConfigError(ValueError):
    pass


def parse_config(path: str | None, overrides: list[str]) -> dict:
    cfg = {}
    if path:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, value = line.split("=", 1)
                cfg[key.strip()] = value.strip()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def build_generator(cfg: dict) -> Generator:
    source = cfg.get("generator")
    if source is None:
        raise ConfigError("config needs a 'generator' entry (inline:…, file:…, or box:…)")
    if source.startswith("inline:"):
        try:
            rates = ast.literal_eval(source[len("inline:"):])
        except (SyntaxError, ValueError) as exc:
            raise ConfigError(f"inline generator is not a literal matrix: {exc}") from exc
        states = None
        if "states" in cfg:
            states = [_state(s) for s in cfg["states"].split(",")]
        return validate_generator(rates, states=states)
    if source.startswith("file:"):
        return load_generator(source[len("file:"):])
    if source.startswith("box:"):
        parts = source[len("box:"):].split(",")
        if len(parts) not in (2, 3):
            raise ConfigError(f"box generator expects box:dim,radius[,rate], got {source!r}")
        dim, radius = int(parts[0]), int(parts[1])
        rate = float(parts[2]) if len(parts) > 2 else 1.0
        return box_srw(dim, radius, rate)
    raise ConfigError(f"unknown generator source {source!r}")


def _state(token: str):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        return token


def build_spec(cfg: dict) -> RangeSpec:
    for key in ("range", "start", "end"):
        if key not in cfg:
            raise ConfigError(f"config needs a {key!r} entry")
    rng = tuple(_state(s) for s in cfg["range"].split(","))
    return RangeSpec(rng, _state(cfg["start"]), _state(cfg["end"]))


class Table:
    def __init__(self, columns):
        self.columns = list(columns)
        self.rows = []

    def add(self, **kwargs):
        self.rows.append([kwargs.get(c, "") for c in self.columns])

    def render(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows([_fmt(v) for v in row] for row in self.rows)
        return out.getvalue()


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _integrate(f, spec, T, resolution, seed):
    """``f`` over the simplex: on a grid up to size 4, by Monte Carlo beyond."""
    if spec.size <= 4:
        return simplex_integrate(f, SimplexChart(spec, T), resolution=resolution)
    return simplex_integrate(f, SimplexChart(spec, T), mode="mc", seed=seed)


def _random_simplex_points(T, size, n, rng):
    e = rng.standard_exponential((n, size))
    return T * e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# subcommands


def cmd_density_eval(cfg, args):
    gen = build_generator(cfg)
    spec = build_spec(cfg)
    T = float(cfg.get("T", 1.0))
    n_points = int(cfg.get("points", 5))
    tol = float(cfg.get("tol", 1e-10))
    if n_points < 1:
        raise ConfigError("'points' must be at least 1")
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    if spec.size == 1:
        pts = np.full((1, 1), T)
    else:
        pts = _random_simplex_points(T, spec.size, n_points, rng)
    table = Table(["point", "l", "method", "value", "error_estimate", "seed"])
    worst = 0.0
    for i, row in enumerate(pts):
        l = dict(zip(spec.range, row))
        results = [
            density_series(gen, spec, l, tol=tol),
            density_quadrature(gen, spec, l),
            density_finite_difference(gen, spec, l),
        ]
        for res in results:
            table.add(point=i, l=";".join(f"{v:.9g}" for v in row), method=res.method,
                      value=res.value, error_estimate=res.error_estimate, seed=args.seed)
        vals = [r.value for r in results]
        budget = sum(r.error_estimate for r in results) + 1e-12
        worst = max(worst, (max(vals) - min(vals)) / budget)
    return table, worst <= 1.0


def _functional(name: str, spec: RangeSpec):
    """Functional catalog for validation runs: one, coordinate:<site>,
    exp_neg:<site>, product:<site>,<site>, each site in the range."""
    if name == "one":
        return lambda L: np.ones(len(L))
    kind, _, arg = name.partition(":")
    forms = {"coordinate": (1, lambda c: c[0]), "exp_neg": (1, lambda c: np.exp(-c[0])),
             "product": (2, lambda c: c[0] * c[1])}
    if kind not in forms:
        raise ConfigError(f"unknown functional {name!r}")
    n_sites, form = forms[kind]
    sites = [_state(s) for s in arg.split(",")]
    if len(sites) != n_sites or any(s not in spec.range for s in sites):
        raise ConfigError(f"functional {name!r} needs {n_sites} site(s) of the range {spec.range}")
    k = [spec.range.index(s) for s in sites]
    return lambda L: form(L[:, k].T)


def cmd_mc_validate(cfg, args):
    gen = build_generator(cfg)
    spec = build_spec(cfg)
    T = float(cfg.get("T", 1.0))
    n_paths = int(cfg.get("paths", 10 ** 6))
    fname = cfg.get("functional", "one")
    F = _functional(fname, spec)
    est = mc_event_functional(gen, spec, T, F, n_paths, args.seed, workers=args.workers)
    ev = SeriesEvaluator(gen, spec)
    integral = _integrate(lambda L: ev.values(L)[0] * F(L), spec, T,
                          int(cfg.get("resolution", 96)), args.seed + 1)
    diff, se = abs(est.mean - integral.value), est.std_error
    diff_se = diff / se if se > 0 else ""
    # an SE of 0 means one weight on every path: the mean is exact up to its sum's rounding
    ok = (diff_se <= 4.0 if se > 0
          else diff <= integral.error_estimate + est.n_paths * np.finfo(float).eps * abs(est.mean))
    table = Table(["functional", "mc_mean", "mc_std_error", "integral", "integral_error",
                   "diff_in_se", "n_paths", "n_accepted", "seed"])
    table.add(functional=fname, mc_mean=est.mean, mc_std_error=est.std_error,
              integral=integral.value, integral_error=integral.error_estimate,
              diff_in_se=diff_se, n_paths=est.n_paths, n_accepted=est.n_accepted,
              seed=args.seed)
    return table, ok and not est.zero_accepted


def cmd_marginal_check(cfg, args):
    gen = build_generator(cfg)
    spec = build_spec(cfg)
    T = float(cfg.get("T", 1.0))
    ev = SeriesEvaluator(gen, spec)
    integral = _integrate(lambda L: ev.values(L)[0], spec, T,
                          int(cfg.get("resolution", 128)), args.seed)
    exact = range_exact_prob(gen, spec, T)
    diff = abs(integral.value - exact)
    tol = float(cfg.get("tol", 1e-5)) * max(abs(exact), 1e-300)
    table = Table(["integral", "exact", "abs_diff", "integral_error", "mode", "seed"])
    table.add(integral=integral.value, exact=exact, abs_diff=diff,
              integral_error=integral.error_estimate, mode=integral.mode, seed=args.seed)
    ok = diff <= max(tol, 3 * integral.error_estimate)
    return table, ok


def cmd_bounds_check(cfg, args):
    gen = build_generator(cfg)
    spec = build_spec(cfg)
    T = float(cfg.get("T", 1.0))
    n_points = int(cfg.get("points", 20))
    if n_points < 1:
        raise ConfigError("'points' must be at least 1")
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    pts = _random_simplex_points(T, spec.size, n_points, rng)
    table = Table(["point", "l", "density", "density_error", "bound", "ok", "seed"])
    all_ok = True
    for i, row in enumerate(pts):
        l = dict(zip(spec.range, row))
        res = density_series(gen, spec, l)
        bound = density_bound(gen, spec, row)
        ok = res.value <= bound + res.error_estimate
        all_ok = all_ok and ok
        table.add(point=i, l=";".join(f"{v:.9g}" for v in row), density=res.value,
                  density_error=res.error_estimate, bound=bound, ok=int(ok), seed=args.seed)
    if "S" in cfg:
        S = tuple(_state(s) for s in cfg["S"].split(","))
        rhs = ldp_upper_bound_rhs(gen, S, max(T, 1.0), seed=args.seed)
        table.add(point="upper-bound-rhs", l="", density="", density_error="",
                  bound=rhs.total, ok="", seed=args.seed)
    return table, all_ok


def cmd_rate_function(cfg, args):
    gen = build_generator(cfg)
    if "mu" not in cfg:
        raise ConfigError("config needs 'mu' (comma-separated weights over the states)")
    mu = np.array([float(x) for x in cfg["mu"].split(",")])
    sites = gen.states if "sites" not in cfg else tuple(_state(s) for s in cfg["sites"].split(","))
    res = rate_function_general(gen, mu, sites)
    symmetric = _is_symmetric(gen.submatrix(sites))
    sym_value = rate_function_symmetric(gen, mu, sites) if symmetric else ""
    table = Table(["value", "symmetric_form", "stationarity", "log_tilt"])
    table.add(value=res.value, symmetric_form=sym_value, stationarity=res.stationarity,
              log_tilt=";".join(f"{u:.9g}" for u in res.log_tilt))
    ok = res.stationarity <= 1e-10 and (not symmetric or abs(res.value - sym_value) <= 1e-8)
    return table, ok


def cmd_chi(cfg, args):
    dim = int(cfg.get("dim", 1))
    radius = float(cfg.get("radius", 1.0))
    nodes = int(cfg.get("nodes", 200))
    functional = cfg.get("functional", "zero")
    res = chi_discrete(dim, radius, nodes, functional,
                       n_restarts=int(cfg.get("restarts", 8)), seed=args.seed)
    table = Table(["value", "n_nodes", "spacing", "functional", "restarts_agree", "spread", "seed"])
    table.add(value=res.value, n_nodes=res.n_nodes, spacing=res.spacing,
              functional=functional, restarts_agree=int(res.restarts_agree),
              spread=res.spread, seed=args.seed)
    return table, res.restarts_agree


def cmd_rescaled(cfg, args):
    dim = int(cfg.get("dim", 1))
    radius = float(cfg.get("radius", 1.0))
    T_values = [float(t) for t in cfg.get("T_list", "100,1000,10000").split(",")]
    if len(T_values) < 2:
        raise ConfigError("'T_list' needs at least two horizons to compare")
    functional = cfg.get("functional", "zero")
    exponent = float(cfg.get("alpha_exponent", 0.25))
    rows = rescaled_bound_experiment(dim, radius, T_values, functional,
                                     alpha_exponent=exponent,
                                     n_restarts=int(cfg.get("restarts", 4)),
                                     seed=args.seed)
    table = Table(["T", "alpha", "n_sites", "eta", "scaled_inner_inf",
                   "scaled_error_terms", "scaled_rhs", "seed"])
    for row in rows:
        table.add(seed=args.seed, **row)
    shrinking = all(b["scaled_error_terms"] < a["scaled_error_terms"]
                    for a, b in zip(rows, rows[1:]))
    return table, shrinking


def cmd_rayknight_test(cfg, args):
    report = rk_statistical_test(b=int(cfg.get("b", 3)), h=float(cfg.get("h", 1.0)),
                                 n_paths=int(cfg.get("paths", 100_000)), seed=args.seed)
    table = Table(["test", "statistic", "threshold", "p_value", "passed", "seed"])
    for row in report.rows():
        table.add(seed=args.seed, **row)
    table.add(test="overall", statistic="", threshold="", p_value="",
              passed=int(report.passed), seed=args.seed)
    return table, report.passed


GENERATOR_KEYS = ("generator", "states")
RANGE_KEYS = GENERATOR_KEYS + ("range", "start", "end")

# each command with the config keys it reads
COMMANDS = {
    "density-eval": (cmd_density_eval, RANGE_KEYS + ("T", "points", "tol")),
    "mc-validate": (cmd_mc_validate, RANGE_KEYS + ("T", "paths", "functional", "resolution")),
    "marginal-check": (cmd_marginal_check, RANGE_KEYS + ("T", "resolution", "tol")),
    "bounds-check": (cmd_bounds_check, RANGE_KEYS + ("T", "points", "S")),
    "rate-function": (cmd_rate_function, GENERATOR_KEYS + ("mu", "sites")),
    "chi": (cmd_chi, ("dim", "radius", "nodes", "functional", "restarts")),
    "rescaled": (cmd_rescaled,
                 ("dim", "radius", "T_list", "functional", "alpha_exponent", "restarts")),
    "rayknight-test": (cmd_rayknight_test, ("b", "h", "paths")),
}


def check_keys(command: str, cfg: dict, overrides: list[str]) -> None:
    """Reject a key the command does not read.  A config file may be shared
    between commands, so a file key that another command reads passes; a
    ``--set`` key must be one this command reads."""
    reads = COMMANDS[command][1]
    known = {key for _, keys in COMMANDS.values() for key in keys}
    overridden = {item.split("=", 1)[0].strip() for item in overrides}
    for key in cfg:
        if key not in reads and (key in overridden or key not in known):
            raise ConfigError(f"unknown config key {key!r} for command {command!r}; "
                              f"it reads: {', '.join(reads)}")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loctimes",
        description="Local-time density experiments for continuous-time Markov chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", nargs="?", default=None,
                       help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--assert", dest="assert_checks", action="store_true",
                       help="exit nonzero if the command's consistency check fails")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, args.set)
        check_keys(args.command, cfg, args.set)
        table, ok = COMMANDS[args.command][0](cfg, args)
    except (ConfigError, GeneratorError, ValueError, KeyError, OSError,
            ConvergenceError, CapacityError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = table.render()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.assert_checks and not ok:
        print("assertion failed: consistency check did not pass", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
