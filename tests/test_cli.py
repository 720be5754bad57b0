import csv
import io
import shlex
from pathlib import Path

import numpy as np
import pytest

from loctimes.cli import (
    ConfigError,
    build_generator,
    build_spec,
    check_keys,
    main,
    make_parser,
    parse_config,
)

TWO_STATE_CFG = [
    "generator=inline:[[-1, 1], [1, -1]]",
    "range=0,1",
    "start=0",
    "end=1",
]


def write_cfg(tmp_path, lines, name="run.cfg"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_parse_config_comments_and_overrides(tmp_path):
    path = write_cfg(tmp_path, ["a = 1  # trailing comment", "", "# full line", "b=x"])
    cfg = parse_config(path, ["b=y", "c=2"])
    assert cfg == {"a": "1", "b": "y", "c": "2"}


def test_parse_config_rejects_bad_line(tmp_path):
    path = write_cfg(tmp_path, ["just a line"])
    with pytest.raises(ConfigError):
        parse_config(path, [])
    with pytest.raises(ConfigError):
        parse_config(None, ["noequals"])


def test_build_generator_sources(tmp_path):
    gen = build_generator({"generator": "inline:[[-1, 1], [1, -1]]"})
    assert gen.n_states == 2
    gpath = tmp_path / "g.txt"
    gpath.write_text("-1 1\n1 -1\n")
    gen = build_generator({"generator": f"file:{gpath}"})
    assert gen.n_states == 2
    gen = build_generator({"generator": "box:1,2"})
    assert gen.n_states == 5
    with pytest.raises(ConfigError):
        build_generator({})
    with pytest.raises(ConfigError):
        build_generator({"generator": "weird:stuff"})


def test_build_spec_requires_keys():
    with pytest.raises(ConfigError):
        build_spec({"range": "0,1", "start": "0"})
    spec = build_spec({"range": "0,1", "start": "0", "end": "1"})
    assert spec.range == (0, 1)


def test_density_eval_runs(tmp_path, capsys):
    path = write_cfg(tmp_path, TWO_STATE_CFG + ["points=3"])
    rc = main(["density-eval", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0].startswith("point,")
    # three evaluator rows per point plus the header
    assert len(out.splitlines()) == 1 + 3 * 3


def test_byte_reproducibility(tmp_path):
    path = write_cfg(tmp_path, TWO_STATE_CFG + ["points=4"])
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        rc = main(["mc-validate", path, "--set", "paths=20000", "--seed", "7",
                   "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_worker_count_does_not_change_bytes(tmp_path):
    path = write_cfg(tmp_path, TWO_STATE_CFG)
    out1 = tmp_path / "w1.csv"
    out2 = tmp_path / "w4.csv"
    main(["mc-validate", path, "--set", "paths=30000", "--seed", "3",
          "--workers", "1", "--out", str(out1)])
    main(["mc-validate", path, "--set", "paths=30000", "--seed", "3",
          "--workers", "4", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, ["generator=inline:[[-1, 2], [1, -1]]",
                                "range=0,1", "start=0", "end=1"])
    rc = main(["density-eval", path])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert main(["density-eval"]) == 2  # no config at all


@pytest.mark.parametrize("paths", ["0", "-5"])
def test_path_counts_below_one_exit_2(tmp_path, capsys, paths):
    # paths=0 is a path count, not "use the default"
    path = write_cfg(tmp_path, TWO_STATE_CFG)
    assert main(["mc-validate", path, "--set", f"paths={paths}"]) == 2
    assert "error: need at least one path" in capsys.readouterr().err
    assert main(["rayknight-test", "--set", f"paths={paths}"]) == 2
    assert "error: need at least one path" in capsys.readouterr().err


def test_rayknight_test_on_one_path_exits_2(capsys):
    # one path has no correlation to test
    assert main(["rayknight-test", "--set", "paths=1"]) == 2
    assert "error: the battery needs at least 2 uncensored paths, got 1" in capsys.readouterr().err


def test_horizon_not_positive_finite_exits_2(tmp_path, capsys):
    # no path ever reaches a nan horizon
    path = write_cfg(tmp_path, TWO_STATE_CFG)
    assert main(["mc-validate", path, "--set", "T=nan", "--set", "paths=10"]) == 2
    assert "error: the limit must be positive and finite" in capsys.readouterr().err


def test_assert_flag(tmp_path, capsys):
    path = write_cfg(tmp_path, TWO_STATE_CFG + ["points=2"])
    assert main(["bounds-check", path, "--assert"]) == 0
    capsys.readouterr()


def test_failed_assert_exits_1(capsys):
    # over T = 100, 1000 with one restart the scaled error terms grow, so
    # the check fails: exit 1, the table still printed, not a crash's 2
    argv = ["rescaled", "--set", "dim=2", "--set", "T_list=100,1000", "--set", "restarts=1"]
    assert main([*argv, "--assert"]) == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 3
    assert "assertion failed: consistency check did not pass" in err
    assert main(argv) == 0


def test_bounds_check_rejects_no_points(tmp_path, capsys):
    # points=0 printed an empty table and passed --assert
    path = write_cfg(tmp_path, TWO_STATE_CFG)
    assert main(["bounds-check", path, "--set", "points=0", "--assert"]) == 2
    assert "error: 'points' must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("source, message", [
    ("box:2", "box generator expects box:dim,radius[,rate]"),
    ("inline:[[-1,1],[1,-1]", "inline generator is not a literal matrix"),
    ("inline:rates", "inline generator is not a literal matrix"),
])
def test_malformed_generator_exits_2(tmp_path, capsys, source, message):
    # an IndexError or SyntaxError traceback before, which exited 1
    path = write_cfg(tmp_path, TWO_STATE_CFG)
    assert main(["density-eval", path, "--set", f"generator={source}"]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_rayknight_rows_read_back_as_csv(capsys):
    # the independence tests' names hold commas, and are quoted
    assert main(["rayknight-test", "--set", "b=2", "--set", "paths=2000"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert all(len(row) == len(header) for row in rows)
    assert "independence[inner,right]" in [row[0] for row in rows]


@pytest.mark.parametrize("argv", [
    ["bounds-check", "--set", "S=5"],
    ["rate-function", "--set", "mu=0.5,0.5", "--set", "sites=0,5"],
])
def test_unknown_state_exits_2(tmp_path, capsys, argv):
    # a KeyError traceback before, which exited 1
    path = write_cfg(tmp_path, TWO_STATE_CFG + ["points=1"])
    assert main([argv[0], path, *argv[1:]]) == 2
    assert "error: 'unknown state 5'" in capsys.readouterr().err


@pytest.mark.parametrize("functional", ["coordinate:0", "exp_neg:1", "product:0,1"])
def test_mc_validate_functionals(capsys, functional):
    # each functional of the catalog on a 3-site chain, within 4 SE of its
    # integral, in a row that reads back with the header's field count
    # (the comma of product:0,1 is quoted)
    argv = ["mc-validate", "--set", "generator=inline:[[-2, 1, 1], [1, -3, 2], [1, 1, -2]]",
            "--set", "range=0,1,2", "--set", "start=0", "--set", "end=2",
            "--set", "paths=20000", "--set", "resolution=32",
            "--set", f"functional={functional}", "--seed", "3", "--assert"]
    assert main(argv) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert len(rows) == 1 and len(rows[0]) == len(header) == 9
    cols = dict(zip(header, rows[0]))
    assert cols["functional"] == functional
    assert float(cols["diff_in_se"]) <= 4.0
    assert float(cols["mc_std_error"]) > 0 and float(cols["integral"]) > 0


def test_bounds_check_upper_bound_row(tmp_path, capsys):
    # S alone switches on the deviation bound's row
    path = write_cfg(tmp_path, TWO_STATE_CFG + ["points=2"])
    assert main(["bounds-check", path, "--set", "S=0,1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    cols = dict(zip(header.split(","), rows[-1].split(",")))
    assert cols["point"] == "upper-bound-rhs"
    assert np.isfinite(float(cols["bound"]))
    assert main(["bounds-check", path, "--set", "upper_bound=on"]) == 2
    assert "unknown config key 'upper_bound'" in capsys.readouterr().err


def test_marginal_check(tmp_path, capsys):
    path = write_cfg(tmp_path, TWO_STATE_CFG + ["resolution=128"])
    rc = main(["marginal-check", path, "--assert"])
    out = capsys.readouterr().out
    assert rc == 0
    header, row = out.splitlines()[:2]
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["integral"]) - float(cols["exact"])) < 1e-4


def test_rate_function_command(capsys):
    rc = main(["rate-function", "--set", "generator=inline:[[-1, 1], [1, -1]]",
               "--set", "mu=0.3,0.7", "--assert"])
    out = capsys.readouterr().out
    assert rc == 0
    header, row = out.splitlines()[:2]
    cols = dict(zip(header.split(","), row.split(",")))
    mu = np.array([0.3, 0.7])
    direct = np.sqrt(mu) @ np.array([[1.0, -1.0], [-1.0, 1.0]]) @ np.sqrt(mu)
    assert abs(float(cols["value"]) - direct) < 1e-8


@pytest.mark.parametrize("generator, mu", [
    ("inline:[[-1,1,0],[1,-2,1],[0,3,-3]]", "nan,0.5,0.5"),
    ("inline:[[-1, 1], [1, -1]]", "nan,1"),
    ("inline:[[-1, 1], [1, -1]]", "inf,1"),
])
def test_rate_function_non_finite_measure_exits_2(capsys, generator, mu):
    # a bad measure, not a failed --assert: exit 2 with an error line
    rc = main(["rate-function", "--set", f"generator={generator}", "--set", f"mu={mu}",
               "--assert"])
    assert rc == 2
    assert "error: measure has non-finite weights" in capsys.readouterr().err


def test_chi_command(capsys):
    rc = main(["chi", "--set", "nodes=40", "--set", "restarts=2"])
    out = capsys.readouterr().out
    assert rc == 0
    header, row = out.splitlines()[:2]
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["value"]) - np.pi ** 2 / 8) < 0.01


def test_output_starts_with_header(tmp_path, capsys):
    path = write_cfg(tmp_path, TWO_STATE_CFG + ["points=1"])
    main(["density-eval", path])
    assert capsys.readouterr().out.startswith("point,l,method,value,error_estimate,seed\n")


def test_library_error_exit_code(tmp_path, capsys):
    # at T=150 the two-state series stops at its degree cap with a
    # ConvergenceError; that is a crash of the command (exit 2), not a
    # failed --assert (exit 1)
    path = write_cfg(tmp_path, TWO_STATE_CFG + ["T=150", "points=1"])
    rc = main(["density-eval", path, "--seed", "1", "--assert"])
    assert rc == 2
    assert "error: series not converged" in capsys.readouterr().err


def test_density_eval_rejects_a_zero_tol(tmp_path, capsys):
    path = write_cfg(tmp_path, TWO_STATE_CFG + ["points=1"])
    assert main(["density-eval", path, "--set", "tol=0"]) == 2
    assert "error: tol must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("resolution", ["2", "1", "0", "-4"])
def test_grid_resolution_below_4_exits_2(tmp_path, capsys, resolution):
    # at 2 the coarse rule was the fine one and the error estimate 0; at 0
    # the integral printed nan; every one exited 0
    path = write_cfg(tmp_path, TWO_STATE_CFG)
    assert main(["marginal-check", path, "--set", f"resolution={resolution}"]) == 2
    assert "error: grid resolution must be at least 4" in capsys.readouterr().err
    assert main(["mc-validate", path, "--set", f"resolution={resolution}",
                 "--set", "paths=100"]) == 2
    assert "error: grid resolution must be at least 4" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    # a typo in --set names the key and the command, exit 2
    rc = main(["chi", "--set", "radus=2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: unknown config key 'radus' for command 'chi'" in err
    # a --set key the command does not read, though another command does
    path = write_cfg(tmp_path, TWO_STATE_CFG + ["points=2", "resolution=64"])
    assert main(["density-eval", path, "--set", "restarts=2"]) == 2
    assert "'restarts' for command 'density-eval'" in capsys.readouterr().err
    # a file shared between commands may carry another command's keys, not typos
    assert main(["marginal-check", path]) == 0
    path = write_cfg(tmp_path, TWO_STATE_CFG + ["pionts=2"], name="typo.cfg")
    assert main(["density-eval", path]) == 2
    assert "unknown config key 'pionts'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["chi", "--set", "radius=0"],
    ["chi", "--set", "radius=-1"],
    ["chi", "--set", "radius=nan"],
    ["chi", "--set", "dim=0"],
    ["chi", "--set", "dim=-1"],
    ["rescaled", "--set", "dim=0"],
    ["rescaled", "--set", "radius=inf"],
])
def test_bad_box_geometry_exits_2(capsys, argv):
    # a bad input, not a failed --assert: exit 2 with an error line
    assert main(argv) == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--paths", "10"], ["--no-timestamp"]])
def test_removed_flags_rejected(flag):
    with pytest.raises(SystemExit):
        make_parser().parse_args(["mc-validate", *flag])


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()
             if line.startswith("loctimes ")]
    assert len(lines) == 8
    for argv in lines:
        args = make_parser().parse_args(argv[1:])
        check_keys(args.command, parse_config(None, args.set), args.set)
