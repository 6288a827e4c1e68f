import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opint
from opint import cli, linalg
from opint import suite as suite_mod
from opint.linalg import save_matrix
from opint.rng import random_hermitian, substream
from opint.suite import (SUITE_CHECKS, ScenarioConfig, check_polymeasure,
                         check_sylvester_bound_all_p, run_suite)

SRC = str(Path(opint.__file__).resolve().parent.parent)


@pytest.fixture(scope="module")
def default_report():
    return run_suite(ScenarioConfig())


def test_suite_has_26_distinctly_named_checks(default_report):
    names = [c.name for c in default_report.checks]
    assert len(SUITE_CHECKS) == 26
    assert len(names) == len(set(names)) == len(SUITE_CHECKS)


@pytest.mark.parametrize("check", SUITE_CHECKS, ids=[fn.__name__ for fn in SUITE_CHECKS])
def test_suite_check_passes_at_default_config(default_report, check):
    record = default_report.checks[SUITE_CHECKS.index(check)]
    assert record.passed, record


def _cli_report(tmp_path, threads: int, command: str, *args: str) -> bytes:
    out = tmp_path / f"{command}-threads{threads}"
    env = dict(os.environ, OMP_NUM_THREADS=str(threads), OPENBLAS_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "opint.cli", "--command", command,
                           *args, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return (out / f"{command}_report.json").read_bytes()


def test_cli_suite_seed_15_passes_and_is_byte_stable_across_blas_threads(tmp_path):
    assert (_cli_report(tmp_path, 1, "suite", "--seed", "15")
            == _cli_report(tmp_path, 2, "suite", "--seed", "15"))


@pytest.mark.parametrize("command, n", [("quantize", "8"), ("cotlar", "16")])
def test_cli_quantization_is_byte_stable_across_blas_threads(tmp_path, command, n):
    assert (_cli_report(tmp_path, 1, command, "--n", n)
            == _cli_report(tmp_path, 2, command, "--n", n))


def test_cli_usage_error_exits_2(capsys):
    assert cli.main(["--command", "suite", "--dims", "0"]) == 2
    assert "dims" in capsys.readouterr().err


def test_cli_suite_seed_13_passes(tmp_path):
    assert cli.main(["--command", "suite", "--seed", "13", "--out", str(tmp_path)]) == 0


def test_cli_failed_check_exits_1(tmp_path, capsys):
    config = tmp_path / "tol.json"
    config.write_text(json.dumps({"tolerances": {"boundary": 1e-9}}), encoding="utf-8")
    code = cli.main(["--command", "shift", "--route", "arctan", "--config", str(config),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "failed checks: route_agreement_vs_counting" in capsys.readouterr().err


def test_cli_missing_input_exits_3(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert cli.main(["--command", "shift", "--a", str(missing)]) == 3
    assert "file not found" in capsys.readouterr().err


@pytest.mark.parametrize("raw, key", [
    ({"trials": "3"}, "trials"),
    ({"trials": True}, "trials"),
    ({"n": 2.5}, "n"),
    ({"terms": 0}, "terms"),
    ({"dims": "42"}, "dims"),
    ({"dims": [4, "2"]}, "dims"),
    ({"tolerances": {"algebraic": -1}}, "tolerances.algebraic"),
    ({"tolerances": {"boundary": float("nan")}}, "tolerances.boundary"),
    ({"epsilon": 0}, "epsilon"),
    ({"eta": "1e-6"}, "eta"),
    ({"alpha": float("inf")}, "alpha"),
    ({"p": "x"}, "p"),
    ({"p": 0.5}, "p"),
    ({"route": "bogus"}, "route"),
    ({"f": "bogus"}, "f"),
    ({"seed": "x"}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"inputs": 5}, "inputs"),
    ({"inputs": {"A": "a.json"}}, "inputs"),
    ({"quad_half_width": "x"}, "quad_half_width"),
    ({"extrapolated": "no"}, "extrapolated"),
])
def test_cli_bad_config_value_exits_2_and_names_key(tmp_path, capsys, raw, key):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.main(["--command", "shift", "--config", str(config)]) == 2
    assert f"usage error: {key}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("csv", ["1,2\n3,abc\n", "1,2\n3\n"])
def test_cli_malformed_symbol_csv_exits_2_and_names_the_file(tmp_path, capsys, csv):
    symbol = tmp_path / "sigma.csv"
    symbol.write_text(csv, encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"inputs": {"symbol": str(symbol)}}), encoding="utf-8")
    assert cli.main(["--command", "quantize", "--n", "2", "--config", str(config)]) == 2
    assert f"usage error: symbol CSV {symbol}: malformed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["--dims", "x"], "--dims"),
    (["--dims", "4,,x"], "--dims"),
    (["--p", "x"], "--p"),
])
def test_cli_non_numeric_flag_exits_2_and_names_flag(capsys, argv, flag):
    assert cli.main(["--command", "suite", *argv]) == 2
    assert f"usage error: {flag}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["nan", "0.5", "-inf"])
def test_cli_p_below_one_or_nan_exits_2_and_names_p(tmp_path, capsys, p):
    assert cli.main(["--command", "doi", f"--p={p}", "--out", str(tmp_path)]) == 2
    assert "usage error: p: expected a number >= 1 or 'inf'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_doi_refuses_p_one_instead_of_running_at_p_4(capsys):
    assert cli.main(["--command", "doi", "--p", "1"]) == 2
    assert "p must lie in the open interval (1, inf)" in capsys.readouterr().err


def test_cli_config_copied_from_a_report_reruns_to_the_same_report(tmp_path):
    # the report's config block spells p = inf as the string "inf"
    assert cli.main(["--command", "doi", "--trials", "2", "--out", str(tmp_path / "a")]) == 0
    first = (tmp_path / "a" / "doi_report.json").read_bytes()
    config = json.loads(first)["config"]
    assert config["p"] == "inf"
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "doi_report.json").read_bytes() == first


@pytest.mark.parametrize("eps", ["1e-6", "1e-310"])
def test_cli_suite_small_eps_is_refused_before_building_the_fourier_rule(
        monkeypatch, capsys, eps):
    # the suite's rule has 2 int(max(200, 6/eps) / 0.025) nodes: 4.8e8 at 1e-6
    def no_rule(*args, **kwargs):
        raise AssertionError(f"symmetric_open_rule called with {args}")
    monkeypatch.setattr(suite_mod, "symmetric_open_rule", no_rule)
    assert cli.main(["--command", "suite", "--eps", eps]) == 2
    assert "usage error: epsilon: " in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["--grid=-4:4:1000000000"], "grid"),
    (["--quad-nodes", "1000000000"], "quad_nodes"),
])
def test_cli_oversized_grid_or_rule_is_refused_before_allocating(monkeypatch, capsys, argv, key):
    def no_linspace(*args, **kwargs):
        raise AssertionError(f"np.linspace called with {args} {kwargs}")
    monkeypatch.setattr(np, "linspace", no_linspace)
    assert cli.main(["--command", "shift", "--route", "fourier", *argv]) == 2
    assert f"usage error: {key}: " in capsys.readouterr().err


def _count_eigensolver_calls(monkeypatch) -> list:
    """Record the name of every numpy eigensolver call from here on."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _original=getattr(np.linalg, name), **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_sylvester_bound_check_diagonalizes_each_pair_once(monkeypatch):
    calls = _count_eigensolver_calls(monkeypatch)
    record = check_sylvester_bound_all_p(ScenarioConfig(trials=3))
    assert record.passed
    assert calls == ["eigh"] * 6  # A and B of each trial, for all three p


def test_polymeasure_check_diagonalizes_h_once_per_trial(monkeypatch):
    calls = _count_eigensolver_calls(monkeypatch)
    record = check_polymeasure(ScenarioConfig())
    assert record.passed
    assert calls == ["eigh"] * 5  # max(2, 20 // 4) trials at the default config


def test_default_suite_pass_eigendecomposition_count(monkeypatch):
    calls = _count_eigensolver_calls(monkeypatch)
    assert run_suite(ScenarioConfig()).passed
    assert len(calls) <= 489, len(calls)


def test_default_suite_pass_diagonalizes_only_through_eig_hermitian(monkeypatch):
    # wrap the names in every opint namespace that binds them, as the
    # benchmark's tracer does, so its eig_hermitian counters see every eigh call
    counts = {"eig_hermitian": 0, "as_hermitian": 0}
    modules = [m for key, m in sys.modules.items() if key == "opint" or key.startswith("opint.")]
    for name in counts:
        original = getattr(linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    calls = _count_eigensolver_calls(monkeypatch)
    assert run_suite(ScenarioConfig()).passed
    assert counts["eig_hermitian"] == calls.count("eigh") == 489
    assert counts["as_hermitian"] <= 609, counts  # 1033 when pairs were validated twice


@pytest.fixture(scope="module")
def shift_pair_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("shift-pair")
    rng = substream(6, "test-cli-shift")
    paths = [str(folder / "a.json"), str(folder / "b.json")]
    for path in paths:
        save_matrix(path, random_hermitian(rng, 6))
    return paths


@pytest.mark.parametrize("route", ["counting", "arctan", "fourier", "rank1"])
def test_cli_shift_route_passes_and_diagonalizes_each_matrix_once(
        tmp_path, monkeypatch, shift_pair_files, route):
    # one eigendecomposition each for A and B, and one for A - B
    calls = _count_eigensolver_calls(monkeypatch)
    a, b = shift_pair_files
    code = cli.main(["--command", "shift", "--route", route, "--a", a, "--b", b,
                     "--eps", "0.002", "--quad-half-width", "4000", "--quad-nodes", "40000",
                     "--out", str(tmp_path)])
    assert code == 0
    assert len(calls) <= 3, calls


def test_cli_fourier_route_builds_no_grid_by_nodes_exponential_table(
        tmp_path, monkeypatch):
    # the dense settings: n = 32, 161 grid points, 40,000 nodes
    rng = substream(7, "test-cli-fourier-exp")
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    for path in paths:
        save_matrix(path, random_hermitian(rng, 32))
    sizes = []

    def recorded(x, *args, _original=np.exp, **kwargs):
        sizes.append(np.size(x))
        return _original(x, *args, **kwargs)
    monkeypatch.setattr(np, "exp", recorded)
    code = cli.main(["--command", "shift", "--route", "fourier", "--a", paths[0],
                     "--b", paths[1], "--eps", "0.002", "--quad-half-width", "4000",
                     "--quad-nodes", "40000", "--out", str(tmp_path / "out")])
    assert code == 0
    assert sizes and max(sizes) < 161 * 40000 // 10, sizes


def test_package_and_suite_run_without_scipy(tmp_path):
    # scipy may be installed, but the package is numpy-only
    argv = ["--command", "suite", "--trials", "1", "--out", str(tmp_path)]
    script = ("import sys, opint, opint.cli, opint.suite\n"
              f"code = opint.cli.main({argv!r})\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
              "sys.exit(code)\n")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
