"""The benchmark's tracer reaches into opint by name; keep those names alive.

`perfbench/tracer.py` wraps the functions it lists in `TRACED` with
`getattr` when a traced run starts, and requires every name in
`SUITE_CHECKS` in the suite report, so a rename in opint would otherwise
surface only when the benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from opint import cli
from opint.suite import ScenarioConfig, run_suite

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_its_opint_module(tracer):
    missing = [f"{module}.{name}" for module, names in tracer.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"opint.{module}"), name, None))]
    assert not missing


def test_tracer_suite_checks_are_the_suite_check_names(tracer):
    names = {record.name for record in run_suite(ScenarioConfig(trials=1)).checks}
    assert set(tracer.SUITE_CHECKS) == names


def test_a_traced_run_of_each_command_counts_every_svd(tracer, tmp_path):
    # the opint modules by short name, as the benchmark's worker hands them over
    modules = {name.split(".")[-1]: module for name, module in sys.modules.items()
               if name == "opint" or name.startswith("opint.")}
    traced = tracer.Tracer(modules)
    runs = {"sylvester": [], "cotlar": [], "doi": [], "suite": ["--trials", "1"]}
    metrics = {}
    traced.install()
    try:
        for command, args in runs.items():
            traced.reset()
            assert cli.main(["--command", command, *args, "--out", str(tmp_path / command)]) == 0
            metrics[command] = traced.pass_metrics()
    finally:
        traced.uninstall()
    for command in ("sylvester", "suite"):
        assert metrics[command]["sylvester.kron_oracle.calls"] >= 1, command
    # the GapSolution's one stacked SVD of X, Y and the residual
    assert metrics["sylvester"]["linalg.singular_values.calls"] == 1
    # one stacked SVD per Cotlar-Stein row, and the norm of the sum
    assert metrics["cotlar"]["linalg.singular_values.calls"] == ScenarioConfig().terms + 1
