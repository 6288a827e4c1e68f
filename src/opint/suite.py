"""Scenario runner: named property checks over every module.

The `suite` command executes the full check registry at the configured
dims/seed/trials and assembles a machine-readable report.  Checks encode
identities and inequalities that hold for every seed; trial counts only
change how much evidence is gathered, never whether a healthy build
passes.  Reports are byte-stable for a fixed (config, seed): wall time is
reported on stderr, not in the file.

Each check is a generator of its per-trial errors.  The `_check`
decorator appends it to `SUITE_CHECKS`, in definition order, as a
(cfg) -> CheckRecord callable that reduces the errors to the worst one
(NaN if any error is NaN) and compares it with the check's bound.

Trial t of a check draws from substream(seed, tag, t), at dimension
dims[t % len(dims)] of the configured dims (or of the check's own).  A
check that draws per trial gives `_drawn_blocks` a draw function.
`rng.trial_blocks`, the package's one block rule, cuts the trials into
blocks of consecutive trials whose stacked arithmetic, `rng.WORKING_SET`
times the bytes drawn, fits `rng.BLOCK_BYTES`.  Once per block and
dimension, `_drawn_blocks` makes the generators of those trials with one
`rng.substreams` call and calls `draw(rngs, dim)`, which returns stacks
(k, ...) of one member per trial: A and B; A and B shifted apart for the
Sylvester checks; A, B and B + GG* for Krein's properties; a symbol, its
cut and projectors for the localization of `quantize`.  It draws them with `rng.complex_stacks` and
`hermitian_stacks`, which read each generator in the order a
trial-at-a-time draw reads it.  `_diagonalized` diagonalizes those
stacks with one `eigh` (`linalg.eig_hermitians`) and gives the check the
stacks and their stacked eigensystems, views of the `eigh` output.  The
check then draws the rest of each trial (a Sylvester Y, a measure, a
decomposition) from the same generators.  Each trial's generator is its
own, so drawing ahead changes no number, and the budget keeps the stacks
from growing with the trial count.

Every check that draws per trial takes its per-trial errors as arrays,
one library call per block and dimension: a stacked `doi.SpectralPair`,
`sylvester.solve_gap_pair` on the stacked eigensystems, stacked Schatten
norms, a stack of shift functions, measures, symbols or bimeasures.  The
Peller and bimeasure checks draw 1 to 3 decomposition terms per trial:
the Peller check pads them with terms of weight 0, and the bimeasure
check integrates the trials of each term count as one stack, since a
padded term count changes how BLAS sums the terms.  Frobenius norms stay
per matrix, since a norm over a stack's axes rounds differently, and a
value that a one-trial run took from one number (a modulus, a complex
product, a power) is taken with `linalg.scalar_abs`, `scalar_mul` or
`scalar_pow`, so reports are byte-identical to a trial-at-a-time run.
`quantization.cotlar_stein_certificate`, whose n and term count vary per
trial, takes its trials one at a time; the other checks draw once, once
per dimension, or not at all.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from . import doi, quantization, shift, sylvester
from .errors import ConfigError
from .linalg import (EigenSystem, adjoint, apply_function, dft_unitary, eig_hermitian,
                     eig_hermitians, operator_norm, scalar_abs, scalar_pow,
                     schatten_norm_of_values, singular_values, trace_norm)
from .quadrature import symmetric_open_rule, trapezoid_rule
from .rng import (complex_stacks, hermitian_part, hermitian_stacks, random_complex,
                  random_hermitian, random_unit_vector, substream, substreams, trial_blocks)

TOLERANCE_DEFAULTS = {
    "algebraic": 1e-10,    # exact identities up to rounding
    "quadrature": 1e-6,    # cross-checks limited by a quadrature rule
    "boundary": 0.05,      # regularized routes compared at fixed distance
}

COMMANDS = ("shift", "doi", "sylvester", "quantize", "cotlar", "peller", "suite")
ROUTES = ("counting", "arctan", "fourier", "rank1")
INPUT_NAMES = ("a", "b", "y", "symbol")  # the files a command can read instead of drawing

# functions f of the doi command's Lipschitz experiment, with their Lipschitz constants
F_PRESETS = {
    "identity": (lambda x: np.asarray(x, dtype=complex), 1.0),
    "arctan": (np.arctan, 1.0),
    "abs": (np.abs, 1.0),
}

# Size caps, refused before anything is allocated.  At both caps the Fourier
# shift route (10,000 grid points, 1,000,000 nodes) peaks at 89 MiB resident,
# the interpreter included, and cotlar at n = 1024 with 16 terms stacks
# 0.5 GiB of circulants and products.
MAX_GRID_POINTS = 10_000
MAX_QUAD_NODES = 1_000_000
MAX_DIM = 1024   # n and every dim
MAX_TERMS = 16


@dataclass
class ScenarioConfig:
    command: str = "suite"
    dims: list = field(default_factory=lambda: [2, 4, 6, 8])
    seed: int = 42
    trials: int = 20
    tolerances: dict = field(default_factory=dict)
    grid: str = "-4:4:161"
    route: str = "counting"
    epsilon: float = 0.01
    eta: float = 1e-6
    alpha: float = 1.0
    extrapolated: bool = False
    quad_half_width: float | None = None
    quad_nodes: int | None = None
    p: float = float("inf")
    f: str = "arctan"
    n: int = 8
    terms: int = 4
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"command: unknown command {self.command!r}, "
                              f"expected one of {', '.join(COMMANDS)}")
        if not isinstance(self.dims, (list, tuple)) or not self.dims:
            raise ConfigError(f"dims: expected a non-empty list of integers, got {self.dims!r}")
        counts = [("trials", self.trials, math.inf), ("n", self.n, MAX_DIM),
                  ("terms", self.terms, MAX_TERMS), *(("dims", d, MAX_DIM) for d in self.dims)]
        if self.quad_nodes is not None:
            counts.append(("quad_nodes", self.quad_nodes, MAX_QUAD_NODES))
        for key, value, cap in counts:
            if not isinstance(value, Integral) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{key}: expected an integer >= 1, got {value!r}")
            if value > cap:
                raise ConfigError(f"{key}: {value} exceeds the cap of {cap}")
        self._grid_spec()  # refuses a malformed or oversized grid before grid_array
        self.dims = [int(d) for d in self.dims]
        if not isinstance(self.seed, Integral) or isinstance(self.seed, bool):
            raise ConfigError(f"seed: expected an integer, got {self.seed!r}")
        self.seed = int(self.seed) & (2**64 - 1)
        for key, value, allowed in (("route", self.route, ROUTES),
                                    ("f", self.f, tuple(F_PRESETS))):
            if not isinstance(value, str) or value not in allowed:
                raise ConfigError(f"{key}: expected one of {', '.join(allowed)}, got {value!r}")
        if not isinstance(self.extrapolated, bool):
            raise ConfigError(f"extrapolated: expected true or false, got {self.extrapolated!r}")
        if (not isinstance(self.inputs, dict)
                or not all(name in INPUT_NAMES and isinstance(path, str)
                           for name, path in self.inputs.items())):
            raise ConfigError(f"inputs: expected an object of file paths named "
                              f"{', '.join(INPUT_NAMES)}, got {self.inputs!r}")
        if not isinstance(self.tolerances, dict):
            raise ConfigError(f"tolerances: expected an object, got {self.tolerances!r}")
        unknown_tols = set(self.tolerances) - set(TOLERANCE_DEFAULTS)
        if unknown_tols:
            raise ConfigError(f"tolerances: unknown names {sorted(unknown_tols)}")
        scales = [("epsilon", self.epsilon), ("eta", self.eta), ("alpha", self.alpha),
                  *((f"tolerances.{k}", v) for k, v in self.tolerances.items())]
        if self.quad_half_width is not None:
            scales.append(("quad_half_width", self.quad_half_width))
        for key, value in scales:
            if (not isinstance(value, Real) or isinstance(value, bool)
                    or not (value > 0 and math.isfinite(value))):
                raise ConfigError(f"{key}: expected a finite number > 0, got {value!r}")
        if self.p == "inf":  # the spelling a report's config block uses
            self.p = float("inf")
        if not isinstance(self.p, Real) or isinstance(self.p, bool) or not self.p >= 1:
            raise ConfigError(f"p: expected a number >= 1 or 'inf', got {self.p!r}")
        nodes = self.route_agreement_rule()[1]
        if self.command == "suite" and nodes > MAX_QUAD_NODES:
            raise ConfigError(f"epsilon: {self.epsilon!r} gives the suite's Fourier rule "
                              f"{nodes} nodes, above the cap of {MAX_QUAD_NODES} "
                              f"(set quad_nodes)")

    @classmethod
    def from_dict(cls, raw: dict, overrides: dict | None = None) -> "ScenarioConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"config: unknown keys {sorted(unknown)}")
        merged = dict(raw)
        for key, value in (overrides or {}).items():
            if value is not None:
                merged[key] = value
        return cls(**merged)

    def route_agreement_rule(self) -> tuple[float, int]:
        """Half-width and node count of the suite's canonical-pair Fourier
        rule: 6/epsilon wide, so e^{-epsilon |x|} is down to e^{-6} at its
        ends, with ~0.025 node spacing unless quad_nodes is set."""
        half_width = max(200.0, 6.0 / self.epsilon)
        # min() keeps int() finite where 6/epsilon overflows; a count it
        # clips is above MAX_QUAD_NODES either way
        return half_width, self.quad_nodes or 2 * int(min(half_width / 0.025, MAX_QUAD_NODES))

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, TOLERANCE_DEFAULTS[name]))

    def _grid_spec(self) -> tuple[float, float, int]:
        try:
            lo, hi, count = self.grid.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except (AttributeError, ValueError) as exc:
            raise ConfigError(f"grid: expected min:max:count, got {self.grid!r}") from exc
        if count < 1 or not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigError(f"grid: degenerate specification {self.grid!r}")
        if count > MAX_GRID_POINTS:
            raise ConfigError(f"grid: {count} points exceed the cap of {MAX_GRID_POINTS}")
        return lo, hi, count

    def grid_array(self) -> np.ndarray:
        return np.linspace(*self._grid_spec())

    def to_json_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["p"] = "inf" if self.p == float("inf") else self.p
        return d


@dataclass
class CheckRecord:
    name: str
    # the bound the observation must stay within (every suite record, and the
    # single-pair bounds and certificates), or the target it must come within
    # `tolerance` of: tr(A - B) for shift property a, else 0 for an error or a 0/-1 flag
    expected: float
    observed: float
    tolerance: float
    passed: bool
    note: str = ""

    def to_json_dict(self) -> dict:
        return {"name": self.name, "expected": self.expected, "observed": self.observed,
                "tolerance": self.tolerance, "passed": self.passed, "note": self.note}


@dataclass
class Report:
    command: str
    config: dict
    checks: list
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {"command": self.command, "config": self.config,
                   "checks": [c.to_json_dict() for c in self.checks],
                   "passed": self.passed}
        payload.update(self.extras)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# suite checks: each is a generator of per-trial errors that `_check`
# registers as a (cfg) -> CheckRecord callable in SUITE_CHECKS
# --------------------------------------------------------------------------

SUITE_CHECKS = []  # in report order; run_suite reads it at call time


def _check(name, bound, note="", floor=0.0):
    """Register a generator of errors as the suite check `name`.

    `bound` is a number or a TOLERANCE_DEFAULTS name, and `note` is
    formatted with cfg.  The generator yields numbers or arrays of them
    (one per trial of a stack).  The check records the worst error:
    `floor` if none is yielded, NaN if any is NaN.
    """
    def register(errors):
        @functools.wraps(errors)
        def check(cfg):
            limit = cfg.tolerance(bound) if isinstance(bound, str) else float(bound)
            # an error is a number or an array of one per trial; np.max propagates NaN
            worst = float(np.max(np.concatenate([np.ravel(e) for e in (floor, *errors(cfg))])))
            return CheckRecord(name=name, expected=limit, observed=worst, tolerance=limit,
                               passed=bool(worst <= limit), note=note.format(cfg=cfg))
        SUITE_CHECKS.append(check)
        return check
    return register


def _capped(cfg: ScenarioConfig, cap: int) -> list:
    """The configured dims, each capped at `cap`."""
    return [min(dim, cap) for dim in cfg.dims]


def _drawn_blocks(cfg: ScenarioConfig, tag: str, draw, names, count=None, dims=None):
    """(trials, rngs, draw(rngs, dim)) per block of `rng.trial_blocks`
    (cfg.trials trials, or count, at cfg.dims, or dims) and dimension: the
    trials, their generators (substreams of (seed, tag)), and the stacks one
    call of `draw` draws from them, one per name, each at most (k, dim, dim)
    complex.  Each block and dimension is drawn when the previous one has
    been used."""
    for block in trial_blocks(count or cfg.trials, dims or cfg.dims, len(names)):
        for dim, trials in block.items():
            rngs = substreams(cfg.seed, tag, trials)
            yield trials, rngs, draw(rngs, dim)


def _diagonalized(cfg: ScenarioConfig, tag: str, draw, names, count=None, dims=None):
    """(rngs, operands, eigensystems) per block and dimension of
    `_drawn_blocks`: the generators; per name, the (k, dim, dim) stack that
    `draw(rngs, dim)` drew, of hermitian matrices; and per name their
    stacked `EigenSystem`, a view of one `eig_hermitians` call on all of
    them (names[j] labels the matrices of stack j in validation errors).
    A draw that returns one (len(names), k, dim, dim) array is diagonalized
    without a copy.  What a check draws after its matrices it draws from
    the same generators: each trial's generator is its own, so the order of
    draws within a trial is the order the check reads them."""
    for _, rngs, drawn in _drawn_blocks(cfg, tag, draw, names, count, dims):
        k, dim = len(rngs), drawn[0].shape[-1]
        stack = np.reshape(drawn, (len(names) * k, dim, dim))
        del drawn  # a drawn tuple is copied into the stack: keep the one copy
        systems = eig_hermitians(stack, [name for name in names for _ in rngs])
        values = systems.eigenvalues.reshape(len(names), k, dim)
        vectors = systems.unitary.reshape(len(names), k, dim, dim)
        yield (rngs, tuple(stack.reshape(len(names), k, dim, dim)),
               tuple(EigenSystem(w, u) for w, u in zip(values, vectors)))


def _draw_h(rngs, dim):
    return hermitian_stacks(rngs, 1, dim)


def _draw_ab(rngs, dim):
    return hermitian_stacks(rngs, 2, dim)


def _complex_stack(rngs, shape):
    """One `random_complex(rng, shape)` draw from each generator, stacked."""
    return complex_stacks(rngs, 1, shape)[0]


def _max_abs(m):
    """The largest entry modulus of each matrix of a stack."""
    return np.abs(m).max(axis=(-2, -1))


def _pairs(cfg: ScenarioConfig, tag: str, count=None, dims=None):
    """(rngs, A, B, SpectralPair of A and B) per stack of `_diagonalized`."""
    for rngs, (a, b), (left, right) in _diagonalized(cfg, tag, _draw_ab, ("A", "B"),
                                                     count, dims):
        yield rngs, a, b, doi.SpectralPair(left, right)


@_check("linalg.eig_reconstruction", "algebraic")
def check_eig_reconstruction(cfg):
    for _, (a,), (e,) in _diagonalized(cfg, "suite-eig", _draw_h, ("A",)):
        # Frobenius norms one matrix at a time: over a stack's axes they round differently
        for error, ak in zip(e.reconstruct() - a, a):
            yield np.linalg.norm(error) / max(np.linalg.norm(ak), 1e-300)


@_check("linalg.schatten_monotone_in_1_over_p", "algebraic")
def check_schatten_monotone(cfg):
    ps = [1, 1.5, 2, 4, np.inf]
    for _, _, (m,) in _drawn_blocks(cfg, "suite-schatten",
                                    lambda rngs, dim: complex_stacks(rngs, 1, (dim, dim)), ("M",)):
        s = singular_values(m)
        norms = [schatten_norm_of_values(s, p) for p in ps]
        yield np.max([hi - lo for lo, hi in zip(norms, norms[1:])], axis=0)


# the dual exponents (p, q) of the Hoelder check: trial t takes pair t mod 3
HOELDER_EXPONENTS = ((1, np.inf), (2, 2), (4, 4 / 3))


@_check("linalg.hoelder_trace_duality", "algebraic")
def check_hoelder_duality(cfg):
    for trials, _, (m, n) in _drawn_blocks(
            cfg, "suite-hoelder", lambda rngs, dim: complex_stacks(rngs, 2, (dim, dim)),
            ("M", "N")):
        sm, sn = singular_values(m), singular_values(n)
        bounds = np.stack([schatten_norm_of_values(sm, p) * schatten_norm_of_values(sn, q)
                           for p, q in HOELDER_EXPONENTS])
        bound = bounds[np.remainder(trials, len(HOELDER_EXPONENTS)), np.arange(len(trials))]
        yield scalar_abs(np.trace(m @ adjoint(n), axis1=-2, axis2=-1)) - bound


@_check("linalg.dft_fourth_power_identity", "algebraic")
def check_dft_order_four(cfg):
    for dim in cfg.dims:
        yield np.abs(np.linalg.matrix_power(dft_unitary(dim), 4) - np.eye(dim)).max()


@_check("linalg.apply_function_additive", "algebraic")
def check_apply_function_additive(cfg):
    for _, _, (e,) in _diagonalized(cfg, "suite-additive", _draw_h, ("A",)):
        lhs = apply_function(e, lambda x: np.sin(x) + np.exp(x))
        rhs = apply_function(e, np.sin) + apply_function(e, np.exp)
        yield _max_abs(lhs - rhs) / np.maximum(_max_abs(rhs), 1.0)


@_check("doi.identity_symbol_acts_trivially", "algebraic")
def check_doi_identity_transformer(cfg):
    for rngs, _, _, pair in _pairs(cfg, "suite-doi-id"):
        sym = doi.symbol_from_function(pair, lambda lam, mu: np.ones_like(lam * mu, dtype=complex))
        t = _complex_stack(rngs, (pair.dim, pair.dim))
        yield _max_abs(doi.doi_apply(pair, sym, t) - t)


@_check("doi.localization_identity", "algebraic")
def check_doi_localization(cfg):
    for rngs, _, _, pair in _pairs(cfg, "suite-doi-loc"):
        sym = doi.symbol_from_function(pair, lambda lam, mu: np.sin(lam) + 1j * np.cos(mu))
        cut_l, cut_r = np.array([rng.uniform(-1, 1, 2) for rng in rngs]).T
        t = _complex_stack(rngs, (pair.dim, pair.dim))
        mask_l = pair.left.eigenvalues <= cut_l[:, None]
        mask_r = pair.right.eigenvalues > cut_r[:, None]
        cut = doi.SymbolGrid(values=sym.values * (mask_l[:, :, None] * mask_r[:, None, :]))
        lhs = doi.doi_apply(pair, cut, t)
        rhs = (pair.left.projector(mask_l) @ doi.doi_apply(pair, sym, t)
               @ pair.right.projector(mask_r))
        yield _max_abs(lhs - rhs)


@_check("doi.divided_difference_maps_difference", 1e-9,
        note="f(A)-f(B) = DOI(phi_f)(A-B) for f = x^2, relative")
def check_doi_divided_difference(cfg):
    for _, a, b, pair in _pairs(cfg, "suite-doi-dd"):
        sym = doi.divided_difference_symbol(pair, lambda x: x**2, lambda x: 2 * x)
        lhs = doi.doi_apply(pair, sym, a - b)
        rhs = a @ a - b @ b
        yield _max_abs(lhs - rhs) / np.maximum(_max_abs(rhs), 1.0)


@_check("doi.hs_norm_equals_power_iteration", "quadrature",
        note="|K| of the n^2 x n^2 transformer matrix K from an SVD")
def check_doi_hs_norm(cfg):
    for rngs, _, _, pair in _pairs(cfg, "suite-doi-hs", count=max(2, cfg.trials // 4),
                                   dims=_capped(cfg, 8)):
        dim = pair.dim
        sym = doi.SymbolGrid(values=_complex_stack(rngs, (dim, dim)))
        claimed = doi.hs_multiplier_norm(pair, sym)
        # each trial's transformer as a matrix K, one column per matrix unit,
        # from one doi_apply of the (dim^2, 1) units on the pairs; its
        # operator norm never reads sup |phi|
        units = np.eye(dim * dim).reshape(dim * dim, 1, dim, dim)
        images = doi.doi_apply(pair, sym, units).reshape(dim * dim, len(rngs), dim * dim)
        yield np.abs(claimed - operator_norm(images.transpose(1, 2, 0)))


@_check("doi.fourier_route_matches_symbol_route", 1e-3,
        note="default 4000-node trapezoid; kink-limited O(h^2) ~ 1e-4")
def check_doi_fourier_cross_route(cfg):
    rng = substream(cfg.seed, "suite-doi-fourier")
    dim = min(max(cfg.dims), 6)
    a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
    pair = doi.make_spectral_pair(a, b)
    t = random_complex(rng, (dim, dim))
    half_width, nodes = doi.DEFAULT_FOURIER_QUAD
    quad = trapezoid_rule(cfg.quad_half_width or half_width, cfg.quad_nodes or nodes)
    via_time = doi.doi_fourier(pair, lambda s: np.exp(-np.abs(s)), t, quad)
    sym = doi.symbol_from_function(pair, lambda lam, mu: 2.0 / (1.0 + (lam - mu) ** 2) + 0j)
    yield np.abs(via_time - doi.doi_apply(pair, sym, t)).max()


@_check("doi.fourier_transformer_within_l1_mass", 1e-3,
        note="slack covers the quadrature's own l1 mass error")
def check_doi_fourier_norm_mass(cfg):
    quad = trapezoid_rule(40.0, 2000)
    for rngs, _, _, pair in _pairs(cfg, "suite-doi-mass"):
        t = _complex_stack(rngs, (pair.dim, pair.dim))
        t /= operator_norm(t)[:, None, None]
        yield operator_norm(doi.doi_fourier(pair, lambda s: np.exp(-np.abs(s)), t, quad)) - 2.0


# decomposition terms per trial of the Peller check: 1 to PELLER_TERMS, and
# a stack fills each trial's unused terms with weight 0
PELLER_TERMS = 3


@_check("doi.peller_bound_dominates_sampled_c1", 0.0, floor=-np.inf)
def check_peller_bound(cfg):
    for rngs, _, _, pair in _pairs(cfg, "suite-peller"):
        k, dim = len(rngs), pair.dim
        alphas = np.zeros((k, PELLER_TERMS, dim), dtype=complex)
        betas = np.zeros_like(alphas)
        weights = np.zeros((k, PELLER_TERMS))
        for trial, rng in enumerate(rngs):
            terms = int(rng.integers(1, PELLER_TERMS + 1))
            drawn = complex_stacks([rng], 2, (terms, dim))[:, 0]
            alphas[trial, :terms], betas[trial, :terms] = drawn
            weights[trial, :terms] = rng.uniform(0.1, 2.0, terms)
        t = _complex_stack(rngs, (dim, dim))  # each trial's T after its weights
        d = doi.Decomposition(alphas=alphas, betas=betas, weights=weights)
        sym = doi.symbol_from_decomposition(pair, d)
        t /= trace_norm(t)[:, None, None]
        yield trace_norm(doi.doi_apply(pair, sym, t)) - doi.peller_bound(d) * (1 + doi.PELLER_SLACK)


@_check("doi.triangular_truncation_idempotent_norm_one", "algebraic")
def check_triangular_truncation(cfg):
    for dim in cfg.dims:
        if dim < 2:
            continue
        e = eig_hermitian(np.diag(np.arange(1.0, dim + 1)), "D")
        pair = doi.SpectralPair(e, e)
        sym = doi.triangular_truncation_symbol(pair)
        yield abs(doi.hs_multiplier_norm(pair, sym) - 1.0)
        rng = substream(cfg.seed, "suite-tri", dim)
        t = random_complex(rng, (dim, dim))
        once = doi.triangular_truncation(pair, t)
        yield np.abs(doi.triangular_truncation(pair, once) - once).max()


def _gapped_solutions(cfg: ScenarioConfig, tag: str, shift_by: float):
    """(A, B, Y, `solve_gap_pair` of them) per stack of `_diagonalized`, for
    A and B shifted shift_by above and below 0 and dims capped at 6."""
    def draw(rngs, dim):
        a, b = hermitian_stacks(rngs, 2, dim)
        return a + shift_by * np.eye(dim), b - shift_by * np.eye(dim)
    for rngs, (a, b), (left, right) in _diagonalized(cfg, tag, draw, ("A", "B"),
                                                     dims=_capped(cfg, 6)):
        y = _complex_stack(rngs, a.shape[1:])
        yield a, b, y, sylvester.solve_gap_pair(doi.SpectralPair(left, right), a, b, y)


@_check("sylvester.doi_matches_kron_and_certificate", sylvester.KRON_AGREEMENT_TOL)
def check_sylvester_cross_oracle(cfg):
    for a, _, y, solution in _gapped_solutions(cfg, "suite-sylv", 4.0):
        yield _max_abs(solution.x - sylvester.kron_oracle(a, solution.pair.right, y))
        report = solution.report()
        if not np.all(report.residual_small & report.bound_holds):
            yield np.inf


@_check("sylvester.pi_over_two_delta_bound", "algebraic")
def check_sylvester_bound_all_p(cfg):
    for _, _, _, solution in _gapped_solutions(cfg, "suite-sylvp", 3.5):
        for p in (1, 2, np.inf):
            report = solution.report(p)
            yield report.x_norm - report.bound


@_check("shift.krein_trace_formula", 1e-9)
def check_trace_formula(cfg):
    for rngs, _, _, pair in _pairs(cfg, "suite-trace"):
        atoms = [(rng.uniform(0.3, 2.5, 3) * rng.choice([-1, 1], 3), rng.uniform(0.2, 1.5, 3))
                 for rng in rngs]
        points, weights = (np.stack(x) for x in zip(*atoms))
        f, _ = shift.admissible_f(shift.AtomicMeasure(points=points, weights=weights))
        res = shift.trace_formula_check(pair, f)
        yield res.gap / (1.0 + scalar_abs(res.lhs))


@_check("shift.properties_a_to_d", "algebraic")
def check_shift_properties(cfg):
    def draw(rngs, dim):  # A, B, then B + GG* >= B
        a, b, g = complex_stacks(rngs, 3, (dim, dim))
        a, b = hermitian_part(a), hermitian_part(b)
        return a, b, b + g @ adjoint(g)
    names = ("A", "B", "B + GG*")
    for _, (a, b, _), (left, right, pos) in _diagonalized(cfg, "suite-props", draw, names):
        pair = doi.SpectralPair(left, right)
        yield from shift.krein_properties(pair, shift.xi_counting(pair), a - b).errors()
        xi_pos = shift.xi_counting(doi.SpectralPair(pos, right))
        if not np.all(xi_pos.is_nonnegative):
            yield np.inf


@_check("shift.route_agreement_canonical_pair", "boundary",
        note="epsilon={cfg.epsilon}, grid points >= 2x boundary tol from eigenvalues")
def check_route_agreement(cfg):
    pair = doi.make_spectral_pair(np.array([[1.0]]), np.array([[0.0]]))
    grid = cfg.grid_array()
    grid = grid[shift.far_from_spectra(pair, grid, 2 * cfg.tolerance("boundary"))]
    truth = shift.xi_counting(pair)(grid)
    arc = shift.xi_arctan(pair, cfg.epsilon, grid).ordinates
    fou = shift.xi_fourier(pair, cfg.epsilon, grid,
                           symmetric_open_rule(*cfg.route_agreement_rule())).ordinates
    yield max(np.abs(arc - truth).max(), np.abs(fou - truth).max())


@_check("shift.rank_one_argument_route", "boundary")
def check_rank_one_route(cfg):
    rng = substream(cfg.seed, "suite-rank1")
    dim = min(max(cfg.dims), 6)
    b = random_hermitian(rng, dim)
    w = random_unit_vector(rng, dim)
    alpha = float(rng.uniform(0.3, 2.0))
    pair = doi.make_spectral_pair(b + alpha * np.outer(w, w.conj()), b)
    evs = np.concatenate([pair.left.eigenvalues, pair.right.eigenvalues])
    grid = np.linspace(evs.min() - 1, evs.max() + 1, 60)
    grid = grid[shift.far_from_spectra(pair, grid, cfg.tolerance("boundary"))]
    curve = shift.xi_rank_one(pair.right, w, alpha, grid, eta=cfg.eta)
    yield np.abs(curve.ordinates - shift.xi_counting(pair)(grid)).max()


@_check("shift.resolvent_trace_identity", 1e-12)
def check_resolvent_identity(cfg):
    for _, _, _, pair in _pairs(cfg, "suite-resolvent"):
        yield shift.resolvent_identity_check(pair, 0.3 + 0.7j)


@_check("shift.arctan_kernel_representation", "quadrature")
def check_arctan_representation(cfg):
    yield from shift.arctan_rep_check(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))


@_check("quantization.localization_identity", "algebraic")
def check_quantize_localization(cfg):
    n = min(cfg.n, 8)
    space = quantization.cycle_space(n)

    def draw(rngs, _):  # sigma, sigma cut to E x F, Q(E) and P(F)
        sigma = _complex_stack(rngs, (n, n))
        in_e, in_f = np.array([rng.random((2, n)) < 0.5 for rng in rngs]).swapaxes(0, 1)
        return (sigma, sigma * (in_e[:, :, None] * in_f[:, None, :]),
                np.array([quantization.position_projector(space, np.flatnonzero(e)) for e in in_e]),
                np.array([quantization.momentum_projector(space, np.flatnonzero(f)) for f in in_f]))
    for _, _, (sigma, cut, q, p) in _drawn_blocks(cfg, "suite-qloc", draw,
                                                  ("sigma", "cut", "Q(E)", "P(F)"), dims=[n]):
        lhs = q @ quantization.quantize(space, sigma) @ p
        yield _max_abs(quantization.quantize(space, cut) - lhs)


@_check("quantization.product_symbol_factorizes", 1e-12)
def check_quantize_product_symbol(cfg):
    def draw(rngs, n):  # f (x) g, diag(f) and diag(g)
        fvec, gvec = complex_stacks(rngs, 2, n)
        diags = np.zeros((2, len(rngs), n, n), dtype=complex)
        diags[..., np.arange(n), np.arange(n)] = fvec, gvec
        return fvec[:, :, None] * gvec[:, None, :], *diags
    for _, _, (sigma, diag_f, diag_g) in _drawn_blocks(cfg, "suite-qprod", draw,
                                                       ("f (x) g", "diag(f)", "diag(g)")):
        space = quantization.cycle_space(sigma.shape[-1])
        lhs = quantization.quantize(space, sigma)
        rhs = diag_f @ space.dft.conj().T @ diag_g @ space.dft
        yield _max_abs(lhs - rhs)


@_check("quantization.cotlar_stein_certificate", 0.0,
        note="actual norm never exceeds the certified M", floor=-np.inf)
def check_cotlar_certificate(cfg):
    for rng in substreams(cfg.seed, "suite-cotlar", range(max(2, cfg.trials // 2))):
        n = int(rng.choice([4, 8]))
        k = int(rng.integers(1, 5))
        fg = complex_stacks([rng], 2 * k, n)[:, 0]  # f_1, g_1, f_2, ...
        terms = list(zip(fg[::2], fg[1::2]))
        yield quantization.cotlar_stein_bound(quantization.cycle_space(n), terms).excess


@_check("quantization.bimeasure_additivity_and_representation", "algebraic")
def check_bimeasure_structure(cfg):
    n = 6

    def draw(rngs, _):  # phi, normalized (a norm per vector: over a stack it rounds differently)
        phi = _complex_stack(rngs, n)
        return (phi / np.array([np.linalg.norm(v) for v in phi])[:, None],)
    e1, e2, f = [1, 3], [4, 6], [2, 5]
    for _, rngs, (phi,) in _drawn_blocks(cfg, "suite-bim", draw, ("phi",), dims=[n]):
        b = quantization.SequenceBimeasure(phi)
        lhs = quantization.bimeasure_eval(b, e1 + e2, f)
        rhs = quantization.bimeasure_eval(b, e1, f) + quantization.bimeasure_eval(b, e2, f)
        yield scalar_abs(lhs - rhs)
        yield np.abs(quantization.semivariation(b) - scalar_pow(b.l1_norm(), 2))
        # each trial's 1 to 3 terms; the trials of one term count integrate as one stack
        terms = {}
        for trial, rng in enumerate(rngs):
            k = int(rng.integers(1, 4))
            terms.setdefault(k, []).append((trial, *complex_stacks([rng], 2, (k, n))[:, 0],
                                            rng.uniform(0.1, 2.0, k)))
        for group in terms.values():
            trials, alphas, betas, weights = (np.stack(x) for x in zip(*group))
            d = doi.Decomposition(alphas=alphas, betas=betas, weights=weights)
            psi = np.einsum("...t,...ti,...tj->...ij", d.weights.astype(complex), d.alphas, d.betas)
            part = quantization.SequenceBimeasure(b.phi[trials])
            yield scalar_abs(quantization.bimeasure_integrate(part, d)
                             - quantization.bimeasure_integrate_grid(part, psi))


@_check("quantization.polymeasure_additivity_and_concatenation", "algebraic")
def check_polymeasure(cfg):
    for rngs, _, (eh,) in _diagonalized(cfg, "suite-poly", _draw_h, ("H",),
                                        count=max(2, cfg.trials // 4)):
        dim = eh.dim
        f0, f2 = complex_stacks(rngs, 2, dim)
        e = np.array([rng.random(dim) < 0.5 for rng in rngs]).astype(complex)
        e_prime = 1.0 - e
        times = [0.6, 1.4]
        combined = quantization.polymeasure_eval([f0, e + e_prime, f2], times, eh)
        split = (quantization.polymeasure_eval([f0, e, f2], times, eh)
                 + quantization.polymeasure_eval([f0, e_prime, f2], times, eh))
        yield _max_abs(combined - split)
        direct = quantization.polymeasure_eval([f0, f2], [1.7], eh)
        threaded = quantization.polymeasure_eval([f0, np.ones_like(f0), f2], [0.5, 1.7], eh)
        yield _max_abs(threaded - direct)


def run_suite(cfg: ScenarioConfig) -> Report:
    checks = [fn(cfg) for fn in SUITE_CHECKS]
    return Report(command="suite", config=cfg.to_json_dict(), checks=checks)
