import os
import subprocess
import sys
from pathlib import Path

import pytest

import opint
from opint import cli
from opint.suite import SUITE_CHECKS, ScenarioConfig, run_suite

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


def _cli_suite(tmp_path, threads: int) -> bytes:
    out = tmp_path / f"threads{threads}"
    env = dict(os.environ, OMP_NUM_THREADS=str(threads), OPENBLAS_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "opint.cli", "--command", "suite",
                           "--seed", "15", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return (out / "suite_report.json").read_bytes()


def test_cli_suite_seed_15_passes_and_is_byte_stable_across_blas_threads(tmp_path):
    assert _cli_suite(tmp_path, 1) == _cli_suite(tmp_path, 2)


def test_cli_usage_error_exits_2(capsys):
    assert cli.main(["--command", "suite", "--dims", "0"]) == 2
    assert "dims" in capsys.readouterr().err
