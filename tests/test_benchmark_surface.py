"""The benchmark's tracer reaches into opint by name; keep those names alive.

`perfbench/tracer.py` wraps the functions it lists in `TRACED` with
`getattr` when a traced run starts, and requires every name in
`SUITE_CHECKS` in the suite report, so a rename in opint would otherwise
surface only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
