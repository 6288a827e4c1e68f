import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import opint
from opint import cli, doi, linalg, quantization, shift, sylvester
from opint import suite as suite_mod
from opint.linalg import save_matrix
from opint.rng import BLOCK_BYTES, random_complex, random_hermitian, substream
from opint.quadrature import QuadratureRule, symmetric_open_rule
from opint.suite import (SUITE_CHECKS, ScenarioConfig, check_arctan_representation,
                         check_doi_divided_difference, check_doi_fourier_cross_route,
                         check_doi_identity_transformer, check_doi_localization,
                         check_peller_bound, check_polymeasure, check_shift_properties,
                         check_sylvester_bound_all_p, check_sylvester_cross_oracle, run_suite)

SRC = str(Path(opint.__file__).resolve().parent.parent)


def _pythonpath_env() -> dict:
    """This environment with the tested package first on PYTHONPATH."""
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


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


def test_suite_checks_are_the_check_functions_in_definition_order():
    defined = [key for key in vars(suite_mod) if key.startswith("check_")]
    assert [fn.__name__ for fn in SUITE_CHECKS] == defined


def test_no_substream_tag_is_shared_by_two_checks(monkeypatch):
    owner, users = [None], {}

    def owned(fn):
        def check(cfg):
            owner[0] = fn.__name__
            return fn(cfg)
        return check
    # the suite makes its generators through substream and substreams
    for name in ("substream", "substreams"):
        def recorded(seed, tag, *args, _original=getattr(suite_mod, name)):
            users.setdefault(tag, set()).add(owner[0])
            return _original(seed, tag, *args)
        monkeypatch.setattr(suite_mod, name, recorded)
    monkeypatch.setattr(suite_mod, "SUITE_CHECKS", [owned(fn) for fn in SUITE_CHECKS])
    assert run_suite(ScenarioConfig()).passed
    assert users and all(len(checks) == 1 for checks in users.values()), users


def test_peller_check_reports_its_negative_worst_slack():
    record = check_peller_bound(ScenarioConfig())
    assert record.passed and record.observed < 0


def test_arctan_check_builds_its_rule_once(monkeypatch):
    built = []

    def counted_rule(*args):
        built.append(args)
        return symmetric_open_rule(*args)

    monkeypatch.setattr(suite_mod, "symmetric_open_rule", counted_rule)
    monkeypatch.setattr(shift, "symmetric_open_rule", counted_rule)
    assert check_arctan_representation(ScenarioConfig()).passed
    assert built == [shift.DEFAULT_ARCTAN_QUAD]


def test_arctan_check_makes_one_phase_sum_for_its_five_points(monkeypatch):
    phases = []

    def counted_sum(self, phi, coeff, _original=QuadratureRule.phase_sum):
        phases.append(np.size(phi))
        return _original(self, phi, coeff)

    monkeypatch.setattr(QuadratureRule, "phase_sum", counted_sum)
    assert check_arctan_representation(ScenarioConfig()).passed
    assert phases == [5]


@pytest.mark.parametrize("check", [check_doi_identity_transformer, check_doi_localization,
                                   check_doi_divided_difference,
                                   check_doi_fourier_cross_route])
def test_nan_error_fails_its_check(monkeypatch, check):
    def with_nan(*args, _original=doi.doi_apply, **kwargs):
        out = _original(*args, **kwargs)
        out[0, 0] = np.nan
        return out
    monkeypatch.setattr(doi, "doi_apply", with_nan)
    record = check(ScenarioConfig())
    assert not record.passed and math.isnan(record.observed), record


def test_sylvester_cross_oracle_check_fails_on_a_failed_certificate(monkeypatch):
    def uncertified(*args, _original=sylvester.GapSolution.report, **kwargs):
        return dataclasses.replace(_original(*args, **kwargs), residual=1.0)
    monkeypatch.setattr(sylvester.GapSolution, "report", uncertified)
    record = check_sylvester_cross_oracle(ScenarioConfig(trials=2))
    assert not record.passed and record.observed == np.inf, record


def test_shift_properties_check_fails_on_a_negative_monotone_xi(monkeypatch):
    monkeypatch.setattr(shift.ShiftFunction, "is_nonnegative", property(lambda self: False))
    record = check_shift_properties(ScenarioConfig(trials=2))
    assert not record.passed and record.observed == np.inf, record


def test_suite_passes_at_dimension_one():
    # triangular truncation has nothing to truncate at dim 1 and skips it
    assert run_suite(ScenarioConfig(dims=[1], trials=2)).passed


def _cli_report(tmp_path, threads: int, command: str, *args: str) -> bytes:
    out = tmp_path / f"{command}-threads{threads}"
    env = dict(_pythonpath_env(), OMP_NUM_THREADS=str(threads),
               OPENBLAS_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-m", "opint.cli", "--command", command,
                           *args, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return (out / f"{command}_report.json").read_bytes()


def test_python_m_opint_runs_the_cli(tmp_path):
    env = _pythonpath_env()
    proc = subprocess.run([sys.executable, "-m", "opint", "--command", "cotlar",
                           "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cotlar_report.json").is_file()


def test_cli_suite_seed_15_passes_and_is_byte_stable_across_blas_threads(tmp_path):
    assert (_cli_report(tmp_path, 1, "suite", "--seed", "15")
            == _cli_report(tmp_path, 2, "suite", "--seed", "15"))


# the flag each byte-stability run sets, per command
STABILITY_FLAG = {"quantize": "--n", "cotlar": "--n", "shift": "--route", "doi": "--p",
                  "sylvester": "--p", "peller": "--dims"}


@pytest.mark.parametrize("command, value", [
    ("quantize", "8"), ("cotlar", "16"), *(("shift", route) for route in suite_mod.ROUTES),
    ("doi", "400"), ("sylvester", "1"), ("peller", "8")])
def test_cli_quantization_is_byte_stable_across_blas_threads(tmp_path, command, value):
    args = (STABILITY_FLAG[command], value)
    assert _cli_report(tmp_path, 1, command, *args) == _cli_report(tmp_path, 2, command, *args)


CLI_RECORDS = {
    "shift": ["property_a_trace_equals_integral", "property_b_l1_bounded_by_trace_norm",
              "property_d_support_inside_joint_interval"],
    "doi": ["lipschitz_ratio_finite"],
    "sylvester": ["residual_small", "pi_over_two_delta_bound", "kron_oracle_agreement"],
    "quantize": ["upper_bound_dominates_norm"],
    "cotlar": ["certificate_holds"],
    "peller": ["peller_bound_dominates_sampled_c1"],
}


def _records(tmp_path, command, *args) -> list:
    assert cli.main(["--command", command, *args, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / f"{command}_report.json").read_text(encoding="utf-8"))
    assert report["passed"] and all(c["passed"] for c in report["checks"]), report["checks"]
    return [c["name"] for c in report["checks"]]


@pytest.mark.parametrize("command", sorted(CLI_RECORDS))
def test_cli_command_records_at_defaults(tmp_path, command):
    assert _records(tmp_path, command) == CLI_RECORDS[command]


def test_cli_shift_records_property_c_only_for_a_monotone_pair(tmp_path):
    rng = substream(8, "test-cli-monotone")
    b, g = random_hermitian(rng, 5), random_complex(rng, (5, 5))
    paths = {name: str(tmp_path / f"{name}.json") for name in ("a", "b", "apos")}
    for name, m in (("a", random_hermitian(rng, 5)), ("b", b), ("apos", b + g @ g.conj().T)):
        save_matrix(paths[name], m)
    generic = _records(tmp_path / "generic", "shift", "--a", paths["a"], "--b", paths["b"])
    monotone = _records(tmp_path / "monotone", "shift", "--a", paths["apos"], "--b", paths["b"])
    assert "property_c_monotone_pair_nonnegative" not in generic
    assert monotone == [*generic[:2], "property_c_monotone_pair_nonnegative", generic[2]]


@pytest.mark.parametrize("alpha", ["1e4", "1e5"])
def test_cli_shift_rank1_records_property_c_at_large_alpha(tmp_path, alpha):
    records = _records(tmp_path, "shift", "--route", "rank1", "--alpha", alpha)
    assert "property_c_monotone_pair_nonnegative" in records


def test_cli_shift_rank1_judges_property_a_relative_to_the_trace(tmp_path):
    # at alpha = 1e8, int xi and tr(A - B) differ by one ulp (1.5e-8)
    _records(tmp_path, "shift", "--route", "rank1", "--alpha", "1e8", "--seed", "5")
    report = json.loads((tmp_path / "shift_report.json").read_text(encoding="utf-8"))
    record = report["checks"][0]
    assert record["name"] == "property_a_trace_equals_integral"
    assert record["tolerance"] == 1e-10 * abs(record["expected"])


@pytest.mark.parametrize("seed", ["3", "13"])
def test_cli_shift_rank1_judges_property_b_relative_to_the_trace_norm(tmp_path, seed):
    # at alpha = 1e8, int |xi| exceeds |A - B|_1 by a rounding 3e-8 at these seeds
    _records(tmp_path, "shift", "--route", "rank1", "--alpha", "1e8", "--seed", seed)
    report = json.loads((tmp_path / "shift_report.json").read_text(encoding="utf-8"))
    record = report["checks"][1]
    assert record["name"] == "property_b_l1_bounded_by_trace_norm"
    assert record["observed"] > record["expected"]
    assert record["tolerance"] == 1e-10 * record["expected"]


def test_cli_shift_rank1_says_that_it_does_not_read_a(tmp_path, capsys, shift_pair_files):
    a, b = shift_pair_files
    assert cli.main(["--command", "shift", "--route", "rank1", "--a", a, "--b", b,
                     "--out", str(tmp_path)]) == 0
    assert f"route rank1 reports on B + alpha w w*, not on input a ({a})" in (
        capsys.readouterr().err)


def test_cli_sylvester_reads_y_from_a_file(tmp_path):
    y = random_complex(substream(4, "t-y"), (8, 8))
    save_matrix(str(tmp_path / "y.json"), y)
    assert cli.main(["--command", "sylvester", "--y", str(tmp_path / "y.json"),
                     "--out", str(tmp_path)]) == 0
    gap = json.loads((tmp_path / "sylvester_report.json").read_text())["gap_report"]
    assert gap["y_norm"] == linalg.operator_norm(y)


def test_cli_sylvester_solves_a_b_file_as_given(tmp_path):
    # B read from a file keeps its spectrum; only the drawn A is shifted (by +4)
    b = np.diag([-19.0, -17.0, -14.5, -12.0]) + 0.1 * random_hermitian(substream(3, "t-b"), 4)
    save_matrix(str(tmp_path / "b.json"), b)
    assert cli.main(["--command", "sylvester", "--b", str(tmp_path / "b.json"), "--dims", "4",
                     "--seed", "5", "--out", str(tmp_path)]) == 0
    delta = json.loads((tmp_path / "sylvester_report.json").read_text())["gap_report"]["delta"]
    a = random_hermitian(substream(5, "cli-sylvester-A"), 4) + 4.0 * np.eye(4)
    expected = np.abs(np.subtract.outer(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b))).min()
    assert delta == pytest.approx(expected, rel=1e-12)


def test_cli_sylvester_above_the_kronecker_cap_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["--command", "sylvester", "--dims", "49", "--out", str(tmp_path)]) == 2
    assert "Kronecker oracle refuses n = 49 > 48" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("sylvester", "--b"), ("shift", "--a")])
def test_cli_one_file_operand_sets_the_drawn_operand_size(tmp_path, command, flag):
    # a 6 x 6 file and no --dims: the other operand is drawn 6 x 6, not max(dims) = 8
    m = np.diag([-19.0, -17.0, -14.5, -12.0, -10.5, -9.0])
    save_matrix(str(tmp_path / "m.json"), m + 0.1 * random_hermitian(substream(3, "t-m"), 6))
    assert cli.main(["--command", command, flag, str(tmp_path / "m.json"),
                     "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv, key", [
    (["--command", "shift", "--dims", "1025"], "dims"),
    (["--command", "peller", "--dims", "4,1025"], "dims"),
    (["--command", "quantize", "--n", "1025"], "n"),
    (["--command", "cotlar", "--n", "1025"], "n"),
    (["--command", "cotlar", "--terms", "17"], "terms"),
])
def test_cli_oversized_dims_n_or_terms_is_refused_before_drawing(monkeypatch, capsys, argv, key):
    def no_draw(*args, **kwargs):
        raise AssertionError(f"random matrix drawn with {args}")
    monkeypatch.setattr(cli, "random_hermitian", no_draw)
    monkeypatch.setattr(cli, "random_complex", no_draw)
    assert cli.main(argv) == 2
    assert f"usage error: {key}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--command", "shift", "--route", "fourier", "--quad-half-width", "1e308"],
    ["--command", "suite", "--trials", "1", "--quad-half-width", "1e308"],
], ids=["shift", "suite"])
def test_cli_quadrature_half_width_whose_double_overflows_exits_2_without_warnings(
        tmp_path, capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2
    assert not caught, [str(w.message) for w in caught]
    assert "usage error: half_width: expected" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag, content, message", [
    ("--a", b'{"dim": 2, "re": [[1', "{path}: malformed matrix JSON"),
    ("--a", b"\xff\xfe", "{path}: malformed matrix JSON"),
    ("--a", b'{"dim": 1e400, "re": [], "im": []}', "{path}: malformed matrix JSON"),
    ("--a", b"[" * 100000, "{path}: malformed matrix JSON"),
    ("--a", b'{"dim": 1, "re": [["1.5"]], "im": [[true]]}',
     "{path}: 're'/'im' entries must be JSON numbers, got bool, str"),
    ("--a", b'{"dim": 1.9, "re": [[1]], "im": [[0]]}', "{path}: malformed matrix JSON"),
    ("--config", b"\xff\xfe{}", "config: invalid JSON"),
    ("symbol", b"1,2\n\xff\n", "symbol CSV {path}: malformed"),
], ids=["truncated-matrix", "undecodable-matrix", "overflowing-dim", "deeply-nested-matrix",
        "string-entry", "fractional-dim", "undecodable-config", "undecodable-symbol"])
def test_cli_malformed_or_undecodable_input_file_exits_2(tmp_path, capsys, flag, content,
                                                         message):
    path = tmp_path / "input"
    path.write_bytes(content)
    if flag == "symbol":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"inputs": {"symbol": str(path)}}), encoding="utf-8")
        argv = ["--command", "quantize", "--n", "2", "--config", str(config)]
    else:
        argv = ["--command", "shift", flag, str(path)]
    assert cli.main(argv) == 2
    assert f"usage error: {message.format(path=path)}" in capsys.readouterr().err


def _quantize_with_symbol(tmp_path, sigma, n):
    symbol = tmp_path / "sigma.csv"
    symbol.write_text("".join(",".join(repr(complex(z)) for z in row) + "\n" for row in sigma),
                      encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"inputs": {"symbol": str(symbol)}}), encoding="utf-8")
    return cli.main(["--command", "quantize", "--n", str(n), "--config", str(config),
                     "--out", str(tmp_path / "out")])


def test_cli_symbol_csv_of_the_wrong_size_exits_2(tmp_path, capsys):
    sigma = random_complex(substream(5, "t-sigma"), (3, 3))
    assert _quantize_with_symbol(tmp_path, sigma, 4) == 2
    assert "must be 4x4, got (3, 3)" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")  # numpy's overflow warning must not leak
def test_cli_symbol_csv_whose_inverse_dft_overflows_exits_2(tmp_path, capsys):
    assert _quantize_with_symbol(tmp_path, np.full((2, 2), 1e308), 2) == 2
    assert "usage error: sigma overflows in its inverse DFT\n" in capsys.readouterr().err


def test_cli_quantize_reads_a_symbol_csv(tmp_path):
    sigma = random_complex(substream(5, "t-sigma"), (4, 4))
    assert _quantize_with_symbol(tmp_path, sigma, 4) == 0
    report = json.loads((tmp_path / "out" / "quantize_report.json").read_text())
    expected = linalg.operator_norm(quantization.quantize(quantization.cycle_space(4), sigma))
    assert report["quantize_report"]["norm_value"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("text, message", [
    ("{\"seed\": 1,", "config: invalid JSON"),
    ("[1, 2]", "config: top level must be a JSON object"),
])
def test_cli_config_that_is_not_a_json_object_exits_2(tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    assert cli.main(["--command", "shift", "--config", str(config)]) == 2
    assert f"usage error: {message}" in capsys.readouterr().err


def test_cli_unreadable_config_exits_3(tmp_path, capsys):
    assert cli.main(["--command", "shift", "--config", str(tmp_path / "missing.json")]) == 3
    assert "io error: cannot read config" in capsys.readouterr().err


def test_cli_writes_the_report_to_stdout_without_out(tmp_path, capsys):
    assert cli.main(["--command", "peller", "--seed", "3"]) == 0
    printed = capsys.readouterr().out
    assert cli.main(["--command", "peller", "--seed", "3", "--out", str(tmp_path)]) == 0
    assert printed == (tmp_path / "peller_report.json").read_text(encoding="utf-8")


def test_cli_builds_one_argument_parser_per_process_and_none_at_import(tmp_path):
    # a fresh process, so no earlier test has built the parser already
    script = (
        "import argparse, json, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import opint.cli\n"
        "at_import = len(built)\n"
        f"out = {str(tmp_path)!r}\n"
        "codes = [opint.cli.main(argv) for argv in (\n"
        "    ['--command', 'nope'], ['--help'],\n"
        "    ['--command', 'cotlar', '--n', '1', '--terms', '1', '--out', out],\n"
        "    ['--command', 'suite', '--dims', '0'], ['--help'],\n"
        "    ['--command', 'peller', '--out', out])]\n"
        "print(json.dumps([at_import, len(built), codes]), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_pythonpath_env(),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    at_import, built, codes = json.loads(proc.stderr.splitlines()[-1])
    assert codes == [2, 0, 0, 2, 0, 0]
    assert (at_import, built) == (0, 1)
    # each --help prints the whole help text to the stdout of its own call
    assert proc.stdout.count("usage: opint") == 2
    assert proc.stderr.count("invalid choice: 'nope'") == 1


def test_cli_reports_after_earlier_calls_equal_fresh_process_reports(
        tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert cli.main(["--command", "shift", "--route", "nope"]) == 2
    assert cli.main(["--help"]) == 0
    assert "usage: opint" in capsys.readouterr().out
    for argv, files in ((["--command", "peller"], ["peller_report.json"]),
                        (["--command", "shift", "--route", "fourier"],
                         ["shift_report.json", "curve.csv"])):
        here, fresh = tmp_path / f"{argv[1]}-here", tmp_path / f"{argv[1]}-fresh"
        assert cli.main([*argv, "--out", str(here)]) == 0
        proc = subprocess.run([sys.executable, "-m", "opint", *argv, "--out", str(fresh)],
                              env=_pythonpath_env(), capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
        for name in files:
            assert (here / name).read_bytes() == (fresh / name).read_bytes(), name
    assert len(built) <= 1  # none if an earlier test in this process built the parser


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


@pytest.mark.parametrize("n", ["1", "2", "3", "65"])
def test_cli_quantize_passes_at_small_and_formerly_capped_n(tmp_path, n):
    assert _records(tmp_path, "quantize", "--n", n) == CLI_RECORDS["quantize"]


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
    # A and B of the three trials in one block, one stack per dimension (2, 4
    # and 6), and none again for any p
    assert calls == ["eigh"] * 3


def test_polymeasure_check_diagonalizes_h_once_per_trial(monkeypatch):
    calls = _count_eigensolver_calls(monkeypatch)
    record = check_polymeasure(ScenarioConfig())
    assert record.passed
    # max(2, 20 // 4) trials at dims 2, 4, 6, 8, 2: one block, one stack per dimension
    assert calls == ["eigh"] * 4


def test_default_suite_pass_eigendecomposition_count(monkeypatch):
    # the Kronecker cross-check takes B's eigensystem from the solve it checks
    calls = _count_eigensolver_calls(monkeypatch)
    assert run_suite(ScenarioConfig()).passed
    # 489 when each trial was diagonalized alone, 169 when ten checks stacked theirs
    assert calls == ["eigh"] * 61, len(calls)


def test_default_suite_pass_singular_value_count(monkeypatch):
    svds = []

    def counted(*args, _original=np.linalg.svd, **kwargs):
        svds.append(1)
        return _original(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    assert run_suite(ScenarioConfig()).passed
    # 242 when the checks took their norms one trial at a time, 127 while the
    # Hoelder and Krein-property checks still did; stacked, one SVD per
    # block, dimension and norm
    assert len(svds) == 79, len(svds)


def test_default_suite_pass_draws_each_trial_from_its_own_substream(monkeypatch):
    # stacking draws ahead, but every trial still reads its own substream:
    # count the (seed, tag, trial) of every generator substream and
    # substreams make
    made = []

    def one(seed, tag, trial=0, _original=suite_mod.substream):
        made.append((seed, tag, trial))
        return _original(seed, tag, trial)

    def many(seed, tag, trials, _original=suite_mod.substreams):
        made.extend((seed, tag, trial) for trial in trials)
        return _original(seed, tag, trials)
    monkeypatch.setattr(suite_mod, "substream", one)
    monkeypatch.setattr(suite_mod, "substreams", many)
    assert run_suite(ScenarioConfig()).passed
    assert len(made) == 366 and len(set(made)) == 366, len(made)


def test_default_suite_pass_diagonalizes_only_through_eig_hermitian(monkeypatch):
    # wrap the names in every opint namespace that binds them, as the
    # benchmark's tracer does; eig_hermitian is the one-matrix eig_hermitians
    calls = _count_eigensolver_calls(monkeypatch)
    counts = {"matrices": 0, "eigh": 0, "as_hermitian": 0}
    modules = [m for key, m in sys.modules.items() if key == "opint" or key.startswith("opint.")]
    for name in ("eig_hermitians", "as_hermitian"):
        original = getattr(linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            start = len(calls)
            try:
                return _original(*args, **kwargs)
            finally:
                if _name == "as_hermitian":
                    counts["as_hermitian"] += 1
                else:
                    counts["matrices"] += len(args[0])
                    counts["eigh"] += len(calls) - start
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    assert run_suite(ScenarioConfig()).passed
    # the fourteen checks that draw their trials a block at a time diagonalize
    # their 475 matrices in 54 stacks, one per dimension and check; the
    # triangular truncation takes one eigensystem for both sides of its pair
    # (4 matrices), and each one-pair check stacks its A and B (6 in 3)
    assert counts["matrices"] == 485, counts
    assert counts["eigh"] == len(calls) == 61, counts
    # 609 when each matrix was validated alone, 289 when ten checks stacked theirs
    assert counts["as_hermitian"] <= 161, counts


def _peak_bytes(run, cfg) -> int:
    tracemalloc.start()
    try:
        assert run(cfg).passed
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_suite_memory_does_not_grow_with_trials():
    # the checks draw and diagonalize their trials a block at a time; at
    # dims [128] each trial is a block of its own, and stacking all twelve
    # would add up to 34 MiB to a check's peak.  Each check runs alone, where
    # no other check's peak can hide its growth: from the second block on a
    # check still holds the previous one while the next is drawn, so its
    # growth counts from 2 trials
    for check in SUITE_CHECKS:
        peaks = [_peak_bytes(check, ScenarioConfig(dims=[128], trials=trials))
                 for trials in (2, 12)]
        assert peaks[1] - peaks[0] <= 0.5 * BLOCK_BYTES, (check.__name__, peaks)


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
    # one stacked eigendecomposition of A and B; property c needs none of A - B
    calls = _count_eigensolver_calls(monkeypatch)
    a, b = shift_pair_files
    code = cli.main(["--command", "shift", "--route", route, "--a", a, "--b", b,
                     "--eps", "0.002", "--quad-half-width", "4000", "--quad-nodes", "40000",
                     "--out", str(tmp_path)])
    assert code == 0
    assert calls == ["eigh"], calls


@pytest.mark.parametrize("command, eigh_calls", [("sylvester", 1), ("doi", 1)])
def test_cli_command_diagonalizes_each_pair_in_one_call(tmp_path, monkeypatch, command,
                                                         eigh_calls):
    # sylvester: one stack of A and B, whose B the Kronecker cross-check reuses;
    # doi: the 20 trials' pairs are one block, one stack (20 when each trial
    # was diagonalized alone)
    calls = _count_eigensolver_calls(monkeypatch)
    assert _records(tmp_path, command) == CLI_RECORDS[command]
    assert calls == ["eigh"] * eigh_calls, calls


def test_cli_doi_takes_its_norms_in_two_singular_value_calls(tmp_path, monkeypatch):
    # one stack of the 20 differences A - B and one of f(A) - f(B) (40 when
    # each trial took its two norms alone)
    svds = []

    def counted(*args, _original=np.linalg.svd, **kwargs):
        svds.append(1)
        return _original(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    assert _records(tmp_path, "doi") == CLI_RECORDS["doi"]
    assert len(svds) == 2, len(svds)


def test_cli_calls_in_one_process_parse_each_matrix_file_once(tmp_path, monkeypatch):
    rng = substream(9, "test-cli-parse-once")  # contents no other test loads
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (a, b):
        save_matrix(path, random_hermitian(rng, 6))
    parsed = []

    def counted(*args, _original=json.loads, **kwargs):
        parsed.append(args[0])
        return _original(*args, **kwargs)
    monkeypatch.setattr(json, "loads", counted)
    for route in ("counting", "arctan"):
        assert cli.main(["--command", "shift", "--route", route, "--a", a, "--b", b,
                         "--eps", "0.002", "--out", str(tmp_path / route)]) == 0
    assert len(parsed) == 2


def test_cli_shift_at_defaults_diagonalizes_a_and_b_and_nothing_else(tmp_path, monkeypatch):
    # A and B in one stack; property c is decided from tr(A - B) and |A - B|_1, not from eigvalsh(A - B)
    calls = _count_eigensolver_calls(monkeypatch)
    assert cli.main(["--command", "shift", "--out", str(tmp_path)]) == 0
    assert calls == ["eigh"], calls


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
    env = _pythonpath_env()
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
