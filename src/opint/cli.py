"""Command-line scenario runner.

    opint --command suite --dims 2,4,6,8 --seed 42 --out results/

Commands: shift, doi, sylvester, quantize, cotlar, peller, suite (the
default).  A JSON config (--config) provides the same keys as the flags;
flags win.  Exit codes: 0 all checks passed, 1 a check failed, 2 usage
error, 3 I/O error.  Reports are byte-identical for identical (config,
seed); timing goes to stderr only.

`main` may be called any number of times in one process: the parser from
`build_parser` is built on the first call and reused by later ones
(`parse_args` makes a fresh namespace each time, and help and error text
go to the `sys.stdout`/`sys.stderr` of the call).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import doi, quantization, shift, suite as suite_mod, sylvester
from .errors import ConfigError, IllPosedError, InputDomainError
from .linalg import load_matrix, operator_norm
from .quadrature import symmetric_open_rule
from .rng import random_complex, random_hermitian, random_unit_vector, substream
from .suite import F_PRESETS, ROUTES, CheckRecord, Report, ScenarioConfig


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="opint", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--command", choices=suite_mod.COMMANDS, default=None)
    p.add_argument("--config", type=Path, default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--dims", type=str, default=None, help="comma-separated dimensions")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--route", choices=ROUTES, default=None)
    p.add_argument("--eps", type=float, default=None, dest="epsilon")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--extrapolated", action="store_true", default=None)
    p.add_argument("--grid", type=str, default=None, help="min:max:count")
    p.add_argument("--quad-half-width", type=float, default=None, dest="quad_half_width")
    p.add_argument("--quad-nodes", type=int, default=None, dest="quad_nodes")
    p.add_argument("--p", type=str, default=None, help="Schatten index (number or 'inf')")
    p.add_argument("--f", choices=sorted(F_PRESETS), default=None)
    p.add_argument("--n", type=int, default=None, help="cycle-space size")
    p.add_argument("--terms", type=int, default=None, help="decomposition size")
    p.add_argument("--a", type=Path, default=None, help="matrix JSON for A")
    p.add_argument("--b", type=Path, default=None, help="matrix JSON for B")
    p.add_argument("--y", type=Path, default=None, help="matrix JSON for Y")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _resolve_config(args) -> ScenarioConfig:
    raw = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise OSError(f"cannot read config {args.config}: {exc}") from exc
        except ValueError as exc:  # not JSON, or bytes that are not UTF-8
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a JSON object")
    keys = {f.name for f in dataclasses.fields(ScenarioConfig)} - {"dims", "p", "inputs"}
    overrides = {key: value for key, value in vars(args).items() if key in keys}
    if args.dims is not None:
        try:
            overrides["dims"] = [int(d) for d in args.dims.split(",") if d]
        except ValueError as exc:
            raise ConfigError(f"--dims: expected comma-separated integers, "
                              f"got {args.dims!r}") from exc
    if args.p is not None:
        try:
            overrides["p"] = float(args.p)
        except ValueError as exc:
            raise ConfigError(f"--p: expected a number or 'inf', got {args.p!r}") from exc
    flagged = {key: str(value) for key, value in (("a", args.a), ("b", args.b), ("y", args.y))
               if value is not None}
    inputs = raw.get("inputs", {})
    if flagged and isinstance(inputs, dict):  # ScenarioConfig refuses any other inputs
        overrides["inputs"] = {**inputs, **flagged}
    cfg = ScenarioConfig.from_dict(raw, overrides)
    for key, path in cfg.inputs.items():
        if not Path(path).exists():
            raise OSError(f"input {key}: file not found: {path}")
    return cfg


def _load_pair(cfg: ScenarioConfig, tag: str):
    """A and B from their input files; an operand that no file gives is
    drawn at the size of the other operand's file, or at max(dims) when
    neither comes from a file."""
    pair = {key: load_matrix(cfg.inputs[key], hermitian=True)
            for key in ("a", "b") if key in cfg.inputs}
    dim = len(next(iter(pair.values()))) if pair else max(cfg.dims)
    for key in ("a", "b"):
        if key not in pair:
            pair[key] = random_hermitian(substream(cfg.seed, f"{tag}-{key.upper()}"), dim)
    return pair["a"], pair["b"]


def run_shift(cfg: ScenarioConfig) -> Report:
    a, b = _load_pair(cfg, "cli-shift")
    if cfg.route == "rank1":  # treat A as B + alpha w w* with a seeded unit vector
        if "a" in cfg.inputs:
            print(f"note: route rank1 reports on B + alpha w w*, not on input a "
                  f"({cfg.inputs['a']})", file=sys.stderr)
        w = random_unit_vector(substream(cfg.seed, "cli-shift-w"), b.shape[0])
        a = b + cfg.alpha * np.outer(w, w.conj())
    pair = doi.make_spectral_pair(a, b)
    grid = cfg.grid_array()
    xi_exact = shift.xi_counting(pair)
    truth = xi_exact(grid)
    if cfg.route == "counting":
        curve = shift.SampledCurve(abscissae=grid, ordinates=truth.astype(float))
    elif cfg.route == "arctan":
        maker = shift.xi_arctan_extrapolated if cfg.extrapolated else shift.xi_arctan
        curve = maker(pair, cfg.epsilon, grid)
    elif cfg.route == "fourier":
        half_width = cfg.quad_half_width or shift.DEFAULT_FOURIER_QUAD[0]
        nodes = cfg.quad_nodes or shift.DEFAULT_FOURIER_QUAD[1]
        curve = shift.xi_fourier(pair, cfg.epsilon, grid, symmetric_open_rule(half_width, nodes))
    else:
        curve = shift.xi_rank_one(pair.right, w, cfg.alpha, grid, eta=cfg.eta)

    props = shift.krein_properties(pair, xi_exact, a - b)
    trace_error, l1_excess, support_reach = props.errors()
    tol = cfg.tolerance("algebraic")
    checks = [
        CheckRecord(name="property_a_trace_equals_integral", expected=props.trace,
                    observed=props.integral, tolerance=tol * props.trace_scale,
                    passed=bool(trace_error <= tol)),
        CheckRecord(name="property_b_l1_bounded_by_trace_norm", expected=props.trace_norm,
                    observed=props.l1, tolerance=tol * props.trace_norm_scale,
                    passed=bool(l1_excess <= tol)),
    ]
    flags = {}
    if props.monotone:
        flags["property_c_monotone_pair_nonnegative"] = xi_exact.is_nonnegative
    flags["property_d_support_inside_joint_interval"] = bool(support_reach <= 0.0)
    checks += [CheckRecord(name=name, expected=0.0, observed=0.0 if ok else -1.0,
                           tolerance=0.0, passed=ok) for name, ok in flags.items()]
    keep = shift.far_from_spectra(pair, grid, 0.1)
    if cfg.route != "counting" and keep.any():
        err = float(np.abs(curve.ordinates[keep] - truth[keep]).max())
        checks.append(CheckRecord(name="route_agreement_vs_counting",
                                  expected=0.0, observed=err,
                                  tolerance=cfg.tolerance("boundary"),
                                  passed=bool(err <= cfg.tolerance("boundary"))))
    report = Report(command="shift", config=cfg.to_json_dict(), checks=checks)
    report.extras["curve_csv"] = curve.to_csv()
    return report


def run_doi(cfg: ScenarioConfig) -> Report:
    f, lip = F_PRESETS[cfg.f]
    p = 4.0 if cfg.p == float("inf") else cfg.p  # p unset: the default 4
    exp = doi.lipschitz_ratio_experiment(f, lip, p=p, trials=cfg.trials, seed=cfg.seed,
                                         dim=max(cfg.dims), f_name=cfg.f)
    ok = bool(np.isfinite(exp.max_ratio))
    if cfg.f == "identity":
        ok = ok and abs(exp.max_ratio - 1.0) <= 1e-9
    checks = [CheckRecord(name="lipschitz_ratio_finite", expected=float(lip),
                          observed=exp.max_ratio, tolerance=0.0, passed=ok,
                          note="observed max ratio; no exact constant is known for general p")]
    report = Report(command="doi", config=cfg.to_json_dict(), checks=checks)
    report.extras["experiment"] = dataclasses.asdict(exp)
    return report


def run_sylvester(cfg: ScenarioConfig) -> Report:
    a, b = _load_pair(cfg, "cli-sylvester")
    # drawn A and B are shifted 8 apart; an operand read from a file is used as given
    if "a" not in cfg.inputs:
        a = a + 4.0 * np.eye(len(a))
    if "b" not in cfg.inputs:
        b = b - 4.0 * np.eye(len(b))
    if "y" in cfg.inputs:
        y = load_matrix(cfg.inputs["y"])
    else:
        y = random_complex(substream(cfg.seed, "cli-sylvester-Y"), a.shape)
    solution = sylvester.solve_gap(a, b, y)
    gap_report = solution.report(cfg.p)
    cross = float(np.abs(solution.x - sylvester.kron_oracle(a, solution.pair.right, y)).max())
    checks = [
        CheckRecord(name="residual_small", expected=0.0, observed=gap_report.residual,
                    tolerance=gap_report.RESIDUAL_TOL, passed=gap_report.residual_small),
        CheckRecord(name="pi_over_two_delta_bound", expected=gap_report.bound,
                    observed=gap_report.x_norm, tolerance=gap_report.bound,
                    passed=gap_report.bound_holds),
        CheckRecord(name="kron_oracle_agreement", expected=0.0, observed=cross,
                    tolerance=sylvester.KRON_AGREEMENT_TOL,
                    passed=bool(cross <= sylvester.KRON_AGREEMENT_TOL)),
    ]
    report = Report(command="sylvester", config=cfg.to_json_dict(), checks=checks)
    report.extras["gap_report"] = gap_report.to_json_dict()
    return report


def _load_symbol(cfg: ScenarioConfig, n: int) -> np.ndarray:
    if "symbol" in cfg.inputs:
        path = cfg.inputs["symbol"]
        try:  # bytes that are not UTF-8, a bad cell or ragged rows
            with open(path, "r", encoding="utf-8") as fh:
                lines = [line.strip() for line in fh if line.strip()]
            sigma = np.asarray([[complex(cell) for cell in line.split(",")] for line in lines],
                               dtype=complex)
        except ValueError as exc:
            raise InputDomainError(f"symbol CSV {path}: malformed ({exc})") from exc
        if sigma.shape != (n, n):
            raise InputDomainError(f"symbol CSV {path} must be {n}x{n}, got {sigma.shape}")
        return sigma
    return random_complex(substream(cfg.seed, "cli-symbol"), (n, n))


def run_quantize(cfg: ScenarioConfig) -> Report:
    space = quantization.cycle_space(cfg.n)
    sigma = _load_symbol(cfg, cfg.n)
    bounds = quantization.qp_norm_upper_bound(space, sigma)
    rep = quantization.CotlarReport(bound=bounds["upper_bound"],
                                    actual=operator_norm(quantization.quantize(space, sigma)))
    checks = [CheckRecord(name="upper_bound_dominates_norm", expected=rep.bound,
                          observed=rep.actual, tolerance=rep.bound, passed=rep.holds)]
    report = Report(command="quantize", config=cfg.to_json_dict(), checks=checks)
    report.extras["quantize_report"] = {"norm_value": rep.actual, "decomposition_size": cfg.n,
                                        "upper_bound_search": bounds}
    return report


def run_cotlar(cfg: ScenarioConfig) -> Report:
    space = quantization.cycle_space(cfg.n)
    rng = substream(cfg.seed, "cli-cotlar")
    terms = [(random_complex(rng, cfg.n), random_complex(rng, cfg.n))
             for _ in range(cfg.terms)]
    rep = quantization.cotlar_stein_bound(space, terms)
    checks = [CheckRecord(name="certificate_holds", expected=rep.bound, observed=rep.actual,
                          tolerance=rep.bound, passed=rep.holds)]
    report = Report(command="cotlar", config=cfg.to_json_dict(), checks=checks)
    report.extras["cotlar_report"] = rep.to_json_dict()
    return report


def run_peller(cfg: ScenarioConfig) -> Report:
    rng = substream(cfg.seed, "cli-peller")
    dim = max(cfg.dims)
    a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
    pair = doi.make_spectral_pair(a, b)
    d = doi.Decomposition(alphas=random_complex(rng, (cfg.terms, dim)),
                          betas=random_complex(rng, (cfg.terms, dim)),
                          weights=rng.uniform(0.1, 2.0, cfg.terms))
    sym = doi.symbol_from_decomposition(pair, d)
    bound = doi.peller_bound(d)
    sampled = doi.sampled_transformer_norm(pair, sym, 1, trials=cfg.trials, seed=cfg.seed,
                                           tag="cli-peller-norm")
    checks = [CheckRecord(name="peller_bound_dominates_sampled_c1", expected=bound,
                          observed=sampled, tolerance=bound,
                          passed=bool(sampled <= bound * (1 + doi.PELLER_SLACK)))]
    report = Report(command="peller", config=cfg.to_json_dict(), checks=checks)
    report.extras["peller_report"] = {
        "peller_bound": bound,
        "grothendieck_norm": quantization.grothendieck_norm(d),
        "sampled_lower_bound": sampled,
        "decomposition_size": cfg.terms,
        "label": "sampled lower bound (random search over the unit ball)"}
    return report


RUNNERS = {
    "suite": suite_mod.run_suite,
    "shift": run_shift,
    "doi": run_doi,
    "sylvester": run_sylvester,
    "quantize": run_quantize,
    "cotlar": run_cotlar,
    "peller": run_peller,
}


def run(cfg: ScenarioConfig) -> Report:
    return RUNNERS[cfg.command](cfg)


def emit_report(report: Report, out_dir) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        report_path = out / f"{report.command}_report.json"
        curve = report.extras.pop("curve_csv", None)
        if curve is not None:
            (out / "curve.csv").write_text(curve, encoding="utf-8")
            report.extras["curve_csv_file"] = "curve.csv"
        report_path.write_text(report.to_json(), encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write report under {out}: {exc}") from exc
    return report_path


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        cfg = _resolve_config(args)
        report = run(cfg)
    except (ConfigError, InputDomainError, IllPosedError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - started
    try:
        if args.out is not None:
            path = emit_report(report, args.out)
            print(f"report written to {path}", file=sys.stderr)
        else:
            sys.stdout.write(report.to_json())
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    failed = [c.name for c in report.checks if not c.passed]
    print(f"{report.command}: {len(report.checks) - len(failed)}/{len(report.checks)} "
          f"checks passed in {elapsed:.2f}s", file=sys.stderr)
    if failed:
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
