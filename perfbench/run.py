"""The loctimes benchmark.

    python3 perfbench/run.py --workload density-size4 --seed 1 --seconds 20 --trace 0

runs one workload and prints, as its last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  An untraced run splits the window among ``WORKERS``
worker processes, one after another; a traced run is one worker.
Without ``--workload`` it runs every workload, each in its own process.
``--sweep`` repeats runs over seeds into a JSON-lines file, and
``--compare BASE HEAD`` compares two such files.  Run it from the root
of a loctimes checkout; it imports the library from ``src``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = {
    "density-size4": "density_size4",
    "mc-event": "mc_event",
    "rk-profile": "rk_profile",
    "ldp-bounds": "ldp_bounds",
}
# An untraced run splits its window among WORKERS processes run one after
# another: each has its own set-up (setup_s is their median), memory layout
# and hash seed, and the metrics are medians over the pooled rounds.
WORKERS = 4
ROUND_STRIDE = 10_000  # worker i runs rounds i * ROUND_STRIDE, i * ROUND_STRIDE + 1, ...
RUN_DEADLINE_S = 170.0
CLI_IMPORT_REPEATS = 3
REFERENCE_SHARE = 0.05  # reference time after each round, as a share of the round
DEFAULT_SEED = 1


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in spec()[section]}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(cmd: list[str], timeout: float = RUN_DEADLINE_S) -> str:
    """Run a child process to completion, pass on its stderr and return its
    last stdout line."""
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(), cwd=ROOT,
                          timeout=max(timeout, 1.0))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def cli_import_s() -> float:
    code = ("import time; t = time.perf_counter(); import loctimes.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median([float(_child([sys.executable, "-c", code]))
                              for _ in range(CLI_IMPORT_REPEATS)])


def trace_targets():
    """Public names whose calls get a span in traced runs, by layer."""
    from loctimes import chain, density, ldp, oracles, rayknight, simulate

    groups = [
        ("chain", chain, ["box_srw", "validate_generator"]),
        ("density", density, ["density_series", "density_quadrature", "density_finite_difference",
                              "theta_integral_series"]),
        ("density.SeriesEvaluator", density.SeriesEvaluator, ["values", "value"]),
        ("oracles", oracles, ["simplex_integrate", "range_exact_prob"]),
        ("simulate", simulate, ["mc_event_functional"]),
        ("rayknight", rayknight, ["simulate_profiles", "rk_statistical_test"]),
        ("ldp", ldp, ["ldp_upper_bound_rhs", "chi_discrete", "density_bound",
                      "rate_function_general", "rate_function_symmetric"]),
    ]
    return [(owner, attr, f"{label}.{attr}") for label, owner, attrs in groups for attr in attrs]


def _median_ms(summary: dict, name: str) -> float:
    d = summary.get(name, {}).get("durations")
    return 1e3 * statistics.median(d) if d else 0.0


def per_layer(summary: dict, meter, figures: dict) -> dict:
    """Per-layer metrics from the spans of a traced run, the meter and the
    workload's own figures; a layer the workload does not reach reads 0."""
    def self_s(name):
        return summary.get(name, {}).get("self", 0.0)

    def total_s(name):
        return summary.get(name, {}).get("total", 0.0)

    m = {name: 0.0 for name in units("per_layer")}
    m.update({
        "chain.box_srw_s": total_s("chain.box_srw"),
        "density.series_batch_self_s": self_s("density.SeriesEvaluator.values"),
        "density.series_point_ms": _median_ms(summary, "density.density_series"),
        "density.quadrature_point_ms": _median_ms(summary, "density.density_quadrature"),
        "density.fd_point_ms": _median_ms(summary, "density.density_finite_difference"),
        "oracles.simplex_integrate_self_s": self_s("oracles.simplex_integrate"),
        "simulate.functional_s": total_s("simulate.functional"),
        "rayknight.walk_s": total_s("rayknight.simulate_profiles"),
        "rayknight.battery_self_s": self_s("rayknight.rk_statistical_test"),
        "ldp.rhs_call_ms": _median_ms(summary, "ldp.ldp_upper_bound_rhs"),
        "ldp.chi_solve_s": _median_ms(summary, "ldp.chi_discrete") / 1e3,
        "ldp.density_bound_call_ms": _median_ms(summary, "ldp.density_bound"),
        "trace.round_ms": 1e3 * statistics.median(meter.scaled_round_seconds()),
    })
    unknown = set(figures) - set(m)
    if unknown:
        raise KeyError(f"per-layer figures missing from BENCHMARK.json: {sorted(unknown)}")
    m.update(figures)
    return m


def worker(workload: str, seed: int, seconds: float, trace: bool, index: int) -> dict:
    """One worker process: set up, run whole rounds for ``seconds``, check.

    Untraced, it returns its raw figures for ``run_workload`` to pool;
    traced, the final result with the per-layer metrics."""
    t0 = time.perf_counter()
    from reference import NOMINAL_S, Reference
    from tracing import Meter, Tracer, clock

    mod = importlib.import_module(WORKLOADS[workload])
    tracer = Tracer(trace)
    if trace:
        tracer.instrument(trace_targets())
    tracer.round = "setup"
    ctx = mod.setup(seed)
    setup_s = time.perf_counter() - t0
    reference = Reference()

    meter = Meter()
    start = clock()
    before = reference.sample(0.0)
    first = r = index * ROUND_STRIDE  # each worker draws its own rounds' inputs
    while True:
        tracer.round = r
        meter.start_round()
        t = clock()
        mod.run_round(ctx, r, meter, tracer)
        meter.round_seconds.append(clock() - t)
        after = reference.sample(REFERENCE_SHARE * meter.round_seconds[-1])
        meter.scales.append(0.5 * (before + after) / NOMINAL_S)
        before = after
        r += 1
        # whole rounds only; stop before a round that would overrun
        if (clock() - start) * (r + 1 - first) / (r - first) > seconds:
            break

    tracer.round = "check"
    results, figures = mod.check(ctx, meter)
    failed = mod.failed(ctx)
    for c in results:
        if not c.ok:
            print(f"CHECK FAILED [{workload}] {c.name}: {c.detail}", file=sys.stderr)
    print(f"[{workload} worker {index}] {r - first} rounds, median host-speed scale "
          f"{statistics.median(meter.scales):.3f}; {len(results)} checks, "
          f"{sum(not c.ok for c in results)} failed; "
          + ", ".join(f"{k}={v:.4g}" for k, v in figures.items()), file=sys.stderr)
    out = {
        "correct": all(c.ok for c in results),
        "attempted": meter.calls(),
        "failed": int(failed),
    }
    if trace:
        tracer.uninstrument()
        figures = dict(figures)
        figures["cli.import_s"] = cli_import_s()
        summary = tracer.summary()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl")
        unit = units("per_layer")
        values = per_layer(summary, meter, figures)
        out["metrics"] = {k: {"value": float(values[k]), "unit": unit[k]} for k in unit}
        return out
    out.update({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "primary": [list(r[mod.PRIMARY][:2]) for r in meter.rounds],
        "secondary": [list(r[mod.SECONDARY][:2]) for r in meter.rounds],
        "round_s": meter.round_seconds,
        "scales": meter.scales,
    })
    return out


def end_to_end(parts: list[dict]) -> dict:
    """The end-to-end metrics of a run from its workers' raw figures."""
    def rates(kind):
        return [items / seconds * scale for p in parts
                for (seconds, items), scale in zip(p[kind], p["scales"]) if seconds > 0]

    return {
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts),
        "primary_per_s": statistics.median(rates("primary")),
        "secondary_per_s": statistics.median(rates("secondary")),
        "round_ms": 1e3 * statistics.median(t / scale for p in parts
                                            for t, scale in zip(p["round_s"], p["scales"])),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """A traced run is one worker; an untraced run splits the window among
    ``WORKERS`` worker processes, one after another, and pools their rounds."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    n = 1 if trace else WORKERS
    parts = []
    for index in range(n):
        cmd = [sys.executable, str(HERE / "run.py"), "--worker", str(index), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds / n), "--trace", str(int(trace))]
        parts.append(json.loads(_child(cmd, timeout=deadline - time.perf_counter())))
    if trace:
        return parts[0]
    unit = units("end_to_end")
    values = end_to_end(parts)
    return {
        "correct": all(p["correct"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": {k: {"value": float(values[k]), "unit": unit[k]} for k in unit},
    }


# ---------------------------------------------------------------------------
# every workload, sweeps and comparison


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return json.loads(_child([sys.executable, str(HERE / "run.py"), "--workload", workload,
                              "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]))


def run_all(seed: int, seconds: float, trace: int) -> int:
    ok = True
    for workload in WORKLOADS:
        res = run_child(workload, seed, seconds, trace)
        ok &= res["correct"] and res["failed"] == 0
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def sweep(workloads, seeds, seconds: float, trace: int, out: Path) -> int:
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a") as fh:
        for workload in workloads:
            for seed in seeds:
                res = run_child(workload, seed, seconds, trace)
                rec = {"workload": workload, "seed": seed, "trace": trace, "result": res}
                fh.write(json.dumps(rec) + "\n")
                fh.flush()
                print(workload, seed, json.dumps(res), flush=True)
    return 0


def _load(path) -> dict:
    """{workload: [result, ...]} of the untraced runs in a sweep file."""
    runs: dict[str, list] = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], head: list[float], bound: float, better: str) -> tuple[str, float]:
    """Median ratio head/base and whether head is worse than base by more
    than ``bound``; unresolved when either side's quartile spread, as a
    share of its median, exceeds the bound."""
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    ratio = hm / bm
    if (b3 - b1) / bm > bound or (h3 - h1) / hm > bound:
        return "unresolved", ratio
    worse = (1.0 - ratio) if better == "higher" else (ratio - 1.0)
    return ("within bound" if worse <= bound else "outside bound"), ratio


def compare(base_path, head_path) -> int:
    base, head = _load(base_path), _load(head_path)
    metrics = spec()["end_to_end"]
    status = 0
    print(f"{'workload':14s} {'metric':16s} {'base q1/med/q3':>32s} {'head q1/med/q3':>32s} "
          f"{'ratio':>7s}  verdict")
    for workload in WORKLOADS:
        if workload not in base or workload not in head:
            continue
        for side, runs in (("base", base[workload]), ("head", head[workload])):
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            print(f"{workload:14s} {side} runs {len(runs)}, failed share {shares}, "
                  f"all correct {all(r['correct'] for r in runs)}")
        for m in metrics:
            bv = [r["metrics"][m["name"]]["value"] for r in base[workload]]
            hv = [r["metrics"][m["name"]]["value"] for r in head[workload]]
            v, ratio = verdict(bv, hv, m["bound"], m["better"])
            status |= v != "within bound"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{workload:14s} {m['name']:16s} {fmt(quartiles(bv)):>32s} "
                  f"{fmt(quartiles(hv)):>32s} "
                  f"{ratio:7.3f}  {v} (bound {m['bound']:g}, {m['better']} is better)")
    return int(status)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured window (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", type=int, metavar="INDEX", help=argparse.SUPPRESS)
    p.add_argument("--sweep", type=Path, metavar="OUT",
                   help="append runs over --seeds to a JSON-lines file")
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10",
                   help="comma-separated seeds for --sweep")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "HEAD"))
    args = p.parse_args(argv)

    if not (SRC / "loctimes" / "__init__.py").is_file():
        print(f"no loctimes sources under {SRC}; run from the root of a loctimes checkout",
              file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    sys.path.insert(0, str(SRC))
    if args.worker is not None:
        print(json.dumps(worker(args.workload, args.seed, seconds, bool(args.trace), args.worker)))
        return 0
    if args.sweep:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        seeds = [int(s) for s in args.seeds.split(",")]
        return sweep(workloads, seeds, seconds, args.trace, args.sweep)
    if args.workload is None:
        return run_all(args.seed, seconds, args.trace)
    print(json.dumps(run_workload(args.workload, args.seed, seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
