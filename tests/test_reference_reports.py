"""Committed reference reports: the CLI's output for a fixed list of runs,
regenerated and compared with the files under `reference_reports/`.

Running this module as a script writes the reports of `RUNS` at one
OpenBLAS thread, into the directory given as its argument or, without
one, over the references themselves:

    python tests/test_reference_reports.py

A change that moves a reference lists the moved records in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")
REFERENCE_DIR = HERE / "reference_reports"

RUNS = [(f"suite-{seed}", ["--command", "suite", "--seed", seed]) for seed in ("42", "13", "1")]
RUNS += [(f"shift-{route}", ["--command", "shift", "--route", route])
         for route in ("counting", "arctan", "fourier", "rank1")]
RUNS += [("shift-arctan-extrapolated", ["--command", "shift", "--route", "arctan",
                                        "--extrapolated"])]
RUNS += [(command, ["--command", command])
         for command in ("doi", "sylvester", "quantize", "cotlar", "peller")]

# zgemm rounds differently with the CPU's kernel and the thread count, so a
# number other than an abscissa or a config value may move at rounding level
REL_BOUND = 1e-9
ABS_BOUND = 1e-12


def write_reports(out: Path) -> list:
    """The exit codes of `RUNS`, each written by `opint.cli.main` to out/<name>."""
    from opint.cli import main
    return [main([*argv, "--out", str(out / name)]) for name, argv in RUNS]


def _close(got, ref) -> bool:
    return got == ref or abs(got - ref) <= REL_BOUND * abs(ref) + ABS_BOUND


def _differences(got, ref, where: str) -> list:
    """Where two parsed reports differ: a float beyond the bound, anything
    else (a key, a length, a string, a flag, an integer) at all."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if got.keys() != ref.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(ref)}"]
        return [d for key in ref for d in _differences(got[key], ref[key], f"{where}.{key}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            return [f"{where}: length {len(got)} != {len(ref)}"]
        return [d for k, (g, r) in enumerate(zip(got, ref))
                for d in _differences(g, r, f"{where}[{k}]")]
    if type(ref) is float and type(got) is float:
        return [] if _close(got, ref) else [f"{where}: {got!r} != {ref!r}"]
    return [] if type(got) is type(ref) and got == ref else [f"{where}: {got!r} != {ref!r}"]


def _report_differences(got: Path, ref: Path) -> list:
    got_json, ref_json = (json.loads(path.read_text(encoding="utf-8")) for path in (got, ref))
    where = f"{ref.parent.name}/{ref.name}"
    if got_json.get("config") != ref_json.get("config"):
        return [f"{where}: config {got_json.get('config')} != {ref_json.get('config')}"]
    return _differences(got_json, ref_json, where)


def _curve_differences(got: Path, ref: Path) -> list:
    where = f"{ref.parent.name}/{ref.name}"
    got_lines, ref_lines = (path.read_text(encoding="utf-8").splitlines() for path in (got, ref))
    if len(got_lines) != len(ref_lines) or got_lines[0] != ref_lines[0]:
        return [f"{where}: header or row count differs"]
    bad = []
    for row, (g, r) in enumerate(zip(got_lines[1:], ref_lines[1:]), start=1):
        (gx, gy), (rx, ry) = (map(float, line.split(",")) for line in (g, r))
        if gx != rx or not _close(gy, ry):
            bad.append(f"{where} row {row}: {g} != {r}")
    return bad


def test_reports_match_the_committed_references(tmp_path):
    """All runs of `RUNS` in one subprocess at one OpenBLAS thread, against
    the references: the file list, check names, `passed`, `note`, `config`,
    the keys and lengths of every object and array, every string and integer,
    and the curve abscissae exactly; every other number x within
    |x - ref| <= 1e-9 |ref| + 1e-12."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    bad = []
    for name, _ in RUNS:
        ref_dir, got_dir = REFERENCE_DIR / name, tmp_path / name
        files = sorted(path.name for path in ref_dir.iterdir())
        assert files and sorted(path.name for path in got_dir.iterdir()) == files, name
        for file in files:
            compare = _curve_differences if file == "curve.csv" else _report_differences
            bad += compare(got_dir / file, ref_dir / file)
    assert not bad, "\n".join(bad)


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS
    sys.path.insert(0, SRC)
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else REFERENCE_DIR
    sys.exit(0 if write_reports(out) == [0] * len(RUNS) else 1)
