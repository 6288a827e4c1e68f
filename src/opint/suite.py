"""Scenario runner: named property checks over every module.

The `suite` command executes the full check registry at the configured
dims/seed/trials and assembles a machine-readable report.  Checks encode
identities and inequalities that hold for every seed; trial counts only
change how much evidence is gathered, never whether a healthy build
passes.  Reports are byte-stable for a fixed (config, seed): wall time is
reported on stderr, not in the file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from . import doi, quantization, shift, sylvester
from .errors import ConfigError
from .linalg import (apply_function, dft_unitary, eig_hermitian, operator_norm,
                     schatten_norm, trace_norm)
from .quadrature import symmetric_open_rule, trapezoid_rule
from .rng import random_complex, random_hermitian, random_unit_vector, substream

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
# shift route holds three 10,000 x 1,000 complex tables (about 0.5 GB).
MAX_GRID_POINTS = 10_000
MAX_QUAD_NODES = 1_000_000


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
        counts = [("trials", self.trials), ("n", self.n), ("terms", self.terms),
                  *(("dims", d) for d in self.dims)]
        if self.quad_nodes is not None:
            counts.append(("quad_nodes", self.quad_nodes))
        for key, value in counts:
            if not isinstance(value, Integral) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{key}: expected an integer >= 1, got {value!r}")
        if self.quad_nodes is not None and self.quad_nodes > MAX_QUAD_NODES:
            raise ConfigError(f"quad_nodes: {self.quad_nodes} exceeds the cap of "
                              f"{MAX_QUAD_NODES} nodes")
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
    expected: float      # the bound the observation must stay within
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


def _bounded(name, observed, bound, note="") -> CheckRecord:
    return CheckRecord(name=name, expected=float(bound), observed=float(observed),
                       tolerance=float(bound), passed=bool(observed <= bound), note=note)


# --------------------------------------------------------------------------
# suite checks; each takes (cfg) and returns a CheckRecord
# --------------------------------------------------------------------------


def _pairs(cfg: ScenarioConfig, tag: str):
    for trial in range(cfg.trials):
        dim = cfg.dims[trial % len(cfg.dims)]
        rng = substream(cfg.seed, tag, trial)
        yield trial, rng, random_hermitian(rng, dim), random_hermitian(rng, dim)


def check_eig_reconstruction(cfg):
    worst = 0.0
    for _, rng, a, _ in _pairs(cfg, "suite-eig"):
        e = eig_hermitian(a)
        worst = max(worst, np.linalg.norm(e.reconstruct() - a) / max(np.linalg.norm(a), 1e-300))
    return _bounded("linalg.eig_reconstruction", worst, cfg.tolerance("algebraic"))


def check_schatten_monotone(cfg):
    ps = [1, 1.5, 2, 4, np.inf]
    worst = 0.0
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, "suite-schatten", trial)
        m = random_complex(rng, (cfg.dims[trial % len(cfg.dims)],) * 2)
        norms = [schatten_norm(m, p) for p in ps]
        worst = max(worst, max(hi - lo for lo, hi in zip(norms, norms[1:])))
    return _bounded("linalg.schatten_monotone_in_1_over_p", worst, cfg.tolerance("algebraic"))


def check_hoelder_duality(cfg):
    pairs = [(1, np.inf), (2, 2), (4, 4 / 3)]
    worst = 0.0
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, "suite-hoelder", trial)
        dim = cfg.dims[trial % len(cfg.dims)]
        m, n = random_complex(rng, (dim, dim)), random_complex(rng, (dim, dim))
        p, q = pairs[trial % len(pairs)]
        slack = abs(np.trace(m @ n.conj().T)) - schatten_norm(m, p) * schatten_norm(n, q)
        worst = max(worst, slack)
    return _bounded("linalg.hoelder_trace_duality", worst, cfg.tolerance("algebraic"))


def check_dft_order_four(cfg):
    worst = 0.0
    for dim in cfg.dims:
        f = dft_unitary(dim)
        worst = max(worst, np.abs(np.linalg.matrix_power(f, 4) - np.eye(dim)).max())
    return _bounded("linalg.dft_fourth_power_identity", worst, cfg.tolerance("algebraic"))


def check_apply_function_additive(cfg):
    worst = 0.0
    for _, rng, a, _ in _pairs(cfg, "suite-additive"):
        e = eig_hermitian(a)
        lhs = apply_function(e, lambda x: np.sin(x) + np.exp(x))
        rhs = apply_function(e, np.sin) + apply_function(e, np.exp)
        worst = max(worst, np.abs(lhs - rhs).max() / max(np.abs(rhs).max(), 1.0))
    return _bounded("linalg.apply_function_additive", worst, cfg.tolerance("algebraic"))


def check_doi_identity_transformer(cfg):
    worst = 0.0
    for _, rng, a, b in _pairs(cfg, "suite-doi-id"):
        pair = doi.make_spectral_pair(a, b)
        sym = doi.symbol_from_function(pair, lambda lam, mu: np.ones_like(lam * mu, dtype=complex))
        t = random_complex(rng, (pair.dim, pair.dim))
        worst = max(worst, np.abs(doi.doi_apply(pair, sym, t) - t).max())
    return _bounded("doi.identity_symbol_acts_trivially", worst, cfg.tolerance("algebraic"))


def check_doi_localization(cfg):
    worst = 0.0
    for _, rng, a, b in _pairs(cfg, "suite-doi-loc"):
        pair = doi.make_spectral_pair(a, b)
        sym = doi.symbol_from_function(pair, lambda lam, mu: np.sin(lam) + 1j * np.cos(mu))
        mask_l = pair.left.eigenvalues <= float(rng.uniform(-1, 1))
        mask_r = pair.right.eigenvalues > float(rng.uniform(-1, 1))
        cut = doi.SymbolGrid(values=sym.values * np.outer(mask_l, mask_r))
        t = random_complex(rng, (pair.dim, pair.dim))
        lhs = doi.doi_apply(pair, cut, t)
        rhs = (pair.left.projector(mask_l) @ doi.doi_apply(pair, sym, t)
               @ pair.right.projector(mask_r))
        worst = max(worst, np.abs(lhs - rhs).max())
    return _bounded("doi.localization_identity", worst, cfg.tolerance("algebraic"))


def check_doi_divided_difference(cfg):
    worst = 0.0
    for _, rng, a, b in _pairs(cfg, "suite-doi-dd"):
        pair = doi.make_spectral_pair(a, b)
        sym = doi.divided_difference_symbol(pair, lambda x: x**2, lambda x: 2 * x)
        lhs = doi.doi_apply(pair, sym, a - b)
        scale = max(np.abs(a @ a - b @ b).max(), 1.0)
        worst = max(worst, np.abs(lhs - (a @ a - b @ b)).max() / scale)
    return _bounded("doi.divided_difference_maps_difference", worst, 1e-9,
                    note="f(A)-f(B) = DOI(phi_f)(A-B) for f = x^2, relative")


def check_doi_hs_norm(cfg):
    worst = 0.0
    trials = max(2, cfg.trials // 4)
    for trial in range(trials):
        rng = substream(cfg.seed, "suite-doi-hs", trial)
        dim = min(cfg.dims[trial % len(cfg.dims)], 8)
        pair = doi.make_spectral_pair(random_hermitian(rng, dim), random_hermitian(rng, dim))
        sym = doi.SymbolGrid(values=random_complex(rng, (dim, dim)))
        claimed = doi.hs_multiplier_norm(pair, sym)
        # the transformer as an n^2 x n^2 matrix K, one column per matrix
        # unit; repeated squaring of K*K drives every column of it onto the
        # top singular direction without ever reading sup |phi|
        units = np.eye(dim * dim).reshape(dim * dim, dim, dim)
        k = np.stack([doi.doi_apply(pair, sym, e).ravel() for e in units], axis=1)
        g = k.conj().T @ k
        for _ in range(40):
            g = g @ g
            g /= np.abs(g).max()
        x = g[:, np.argmax(np.linalg.norm(g, axis=0))]
        est = np.linalg.norm(k @ x) / np.linalg.norm(x)
        worst = max(worst, abs(claimed - est))
    return _bounded("doi.hs_norm_equals_power_iteration", worst, cfg.tolerance("quadrature"))


def check_doi_fourier_cross_route(cfg):
    rng = substream(cfg.seed, "suite-doi-fourier")
    dim = min(max(cfg.dims), 6)
    a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
    pair = doi.make_spectral_pair(a, b)
    t = random_complex(rng, (dim, dim))
    quad = trapezoid_rule(cfg.quad_half_width or 40.0, cfg.quad_nodes or 4000)
    via_time = doi.doi_fourier(pair, lambda s: np.exp(-np.abs(s)), t, quad)
    sym = doi.symbol_from_function(pair, lambda lam, mu: 2.0 / (1.0 + (lam - mu) ** 2) + 0j)
    err = np.abs(via_time - doi.doi_apply(pair, sym, t)).max()
    return _bounded("doi.fourier_route_matches_symbol_route", err, 1e-3,
                    note="default 4000-node trapezoid; kink-limited O(h^2) ~ 1e-4")


def check_doi_fourier_norm_mass(cfg):
    quad = trapezoid_rule(40.0, 2000)
    worst = 0.0
    for _, rng, a, b in _pairs(cfg, "suite-doi-mass"):
        pair = doi.make_spectral_pair(a, b)
        t = random_complex(rng, (pair.dim, pair.dim))
        t /= operator_norm(t)
        out = doi.doi_fourier(pair, lambda s: np.exp(-np.abs(s)), t, quad)
        worst = max(worst, operator_norm(out) - 2.0)
    return _bounded("doi.fourier_transformer_within_l1_mass", worst, 1e-3,
                    note="slack covers the quadrature's own l1 mass error")


def check_peller_bound(cfg):
    worst = -np.inf
    for _, rng, a, b in _pairs(cfg, "suite-peller"):
        pair = doi.make_spectral_pair(a, b)
        k = int(rng.integers(1, 4))
        d = doi.Decomposition(alphas=random_complex(rng, (k, pair.dim)),
                              betas=random_complex(rng, (k, pair.dim)),
                              weights=rng.uniform(0.1, 2.0, k))
        sym = doi.symbol_from_decomposition(pair, d)
        bound = doi.peller_bound(d)
        t = random_complex(rng, (pair.dim, pair.dim))
        t /= trace_norm(t)
        sampled = trace_norm(doi.doi_apply(pair, sym, t))
        worst = max(worst, sampled - bound)
    return _bounded("doi.peller_bound_dominates_sampled_c1", worst, cfg.tolerance("algebraic"))


def check_triangular_truncation(cfg):
    worst = 0.0
    for dim in cfg.dims:
        if dim < 2:
            continue
        d = np.diag(np.arange(1.0, dim + 1))
        pair = doi.make_spectral_pair(d, d)
        sym = doi.triangular_truncation_symbol(pair)
        worst = max(worst, abs(doi.hs_multiplier_norm(pair, sym) - 1.0))
        rng = substream(cfg.seed, "suite-tri", dim)
        t = random_complex(rng, (dim, dim))
        once = doi.triangular_truncation(pair, t)
        worst = max(worst, np.abs(doi.triangular_truncation(pair, once) - once).max())
    return _bounded("doi.triangular_truncation_idempotent_norm_one", worst,
                    cfg.tolerance("algebraic"))


def check_sylvester_cross_oracle(cfg):
    worst = 0.0
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, "suite-sylv", trial)
        dim = min(cfg.dims[trial % len(cfg.dims)], 6)
        a = random_hermitian(rng, dim) + 4.0 * np.eye(dim)
        b = random_hermitian(rng, dim) - 4.0 * np.eye(dim)
        y = random_complex(rng, (dim, dim))
        x_doi, report = sylvester.solve_gap(a, b, y)
        x_kron = sylvester.kron_oracle(a, b, y)
        worst = max(worst, np.abs(x_doi - x_kron).max())
        if report.residual > 1e-9 or report.x_norm > report.bound * (1 + 1e-12):
            worst = np.inf
    return _bounded("sylvester.doi_matches_kron_and_certificate", worst, 1e-8)


def check_sylvester_bound_all_p(cfg):
    worst = 0.0
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, "suite-sylvp", trial)
        dim = min(cfg.dims[trial % len(cfg.dims)], 6)
        a = random_hermitian(rng, dim) + 3.5 * np.eye(dim)
        b = random_hermitian(rng, dim) - 3.5 * np.eye(dim)
        y = random_complex(rng, (dim, dim))
        solution = sylvester.gapped_solution(a, b, y)
        for p in (1, 2, np.inf):
            report = solution.report(p)
            worst = max(worst, report.x_norm - report.bound)
    return _bounded("sylvester.pi_over_two_delta_bound", worst, cfg.tolerance("algebraic"))


def check_trace_formula(cfg):
    worst = 0.0
    for trial, rng, a, b in _pairs(cfg, "suite-trace"):
        mu = shift.AtomicMeasure(points=rng.uniform(0.3, 2.5, 3) * rng.choice([-1, 1], 3),
                                 weights=rng.uniform(0.2, 1.5, 3))
        f, _ = shift.admissible_f(mu)
        res = shift.trace_formula_check(doi.make_spectral_pair(a, b), f)
        worst = max(worst, res.gap / (1.0 + abs(res.lhs)))
    return _bounded("shift.krein_trace_formula", worst, 1e-9)


def check_shift_properties(cfg):
    worst = 0.0
    for trial, rng, a, b in _pairs(cfg, "suite-props"):
        pair = doi.make_spectral_pair(a, b)
        xi = shift.xi_counting(pair)
        worst = max(worst, abs(xi.integral() - np.trace(a - b).real))
        worst = max(worst, xi.l1() - trace_norm(a - b))
        g = random_complex(rng, a.shape)
        a_pos = b + g @ g.conj().T
        xi_pos = shift.xi_counting(doi.SpectralPair(eig_hermitian(a_pos), pair.right))
        if not xi_pos.is_zero and xi_pos.values.min() < 0:
            worst = np.inf
        sup = xi.support()
        if sup is not None:
            wa, wb = pair.left.eigenvalues, pair.right.eigenvalues
            worst = max(worst, min(wa.min(), wb.min()) - sup[0])
            worst = max(worst, sup[1] - max(wa.max(), wb.max()))
    return _bounded("shift.properties_a_to_d", worst, cfg.tolerance("algebraic"))


def check_route_agreement(cfg):
    pair = doi.make_spectral_pair(np.array([[1.0]]), np.array([[0.0]]))
    grid = cfg.grid_array()
    eps = cfg.epsilon
    evs = np.array([0.0, 1.0])
    keep = np.abs(grid[:, None] - evs[None, :]).min(axis=1) >= 2 * cfg.tolerance("boundary")
    grid = grid[keep]
    truth = shift.xi_counting(pair)(grid)
    arc = shift.xi_arctan(pair, eps, grid).ordinates
    fou = shift.xi_fourier(pair, eps, grid,
                           symmetric_open_rule(*cfg.route_agreement_rule())).ordinates
    err = max(np.abs(arc - truth).max(), np.abs(fou - truth).max())
    return _bounded("shift.route_agreement_canonical_pair", err, cfg.tolerance("boundary"),
                    note=f"epsilon={eps}, grid points >= 2x boundary tol from eigenvalues")


def check_rank_one_route(cfg):
    rng = substream(cfg.seed, "suite-rank1")
    dim = min(max(cfg.dims), 6)
    b = random_hermitian(rng, dim)
    w = random_unit_vector(rng, dim)
    alpha = float(rng.uniform(0.3, 2.0))
    pair = doi.make_spectral_pair(b + alpha * np.outer(w, w.conj()), b)
    evs = np.concatenate([pair.left.eigenvalues, pair.right.eigenvalues])
    grid = np.linspace(evs.min() - 1, evs.max() + 1, 60)
    grid = grid[np.abs(grid[:, None] - evs[None, :]).min(axis=1) >= cfg.tolerance("boundary")]
    curve = shift.xi_rank_one(pair.right, w, alpha, grid, eta=cfg.eta)
    truth = shift.xi_counting(pair)(grid)
    return _bounded("shift.rank_one_argument_route", np.abs(curve.ordinates - truth).max(),
                    cfg.tolerance("boundary"))


def check_resolvent_identity(cfg):
    worst = 0.0
    for _, rng, a, b in _pairs(cfg, "suite-resolvent"):
        worst = max(worst, shift.resolvent_identity_check(doi.make_spectral_pair(a, b),
                                                          0.3 + 0.7j))
    return _bounded("shift.resolvent_trace_identity", worst, 1e-12)


def check_arctan_representation(cfg):
    worst = max(shift.arctan_rep_check(t) for t in (-2.0, -1.0, 0.0, 1.0, 2.0))
    return _bounded("shift.arctan_kernel_representation", worst, cfg.tolerance("quadrature"))


def check_quantize_localization(cfg):
    worst = 0.0
    n = min(cfg.n, 8)
    space = quantization.cycle_space(n)
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, "suite-qloc", trial)
        sigma = random_complex(rng, (n, n))
        e = np.flatnonzero(rng.random(n) < 0.5)
        f = np.flatnonzero(rng.random(n) < 0.5)
        cut = sigma * np.outer(np.isin(np.arange(n), e), np.isin(np.arange(n), f))
        lhs = (quantization.position_projector(space, e) @ quantization.quantize(space, sigma)
               @ quantization.momentum_projector(space, f))
        worst = max(worst, np.abs(quantization.quantize(space, cut) - lhs).max())
    return _bounded("quantization.localization_identity", worst, cfg.tolerance("algebraic"))


def check_quantize_product_symbol(cfg):
    worst = 0.0
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, "suite-qprod", trial)
        n = cfg.dims[trial % len(cfg.dims)]
        space = quantization.cycle_space(n)
        fvec, gvec = random_complex(rng, n), random_complex(rng, n)
        lhs = quantization.quantize(space, np.outer(fvec, gvec))
        rhs = np.diag(fvec) @ space.dft.conj().T @ np.diag(gvec) @ space.dft
        worst = max(worst, np.abs(lhs - rhs).max())
    return _bounded("quantization.product_symbol_factorizes", worst, 1e-12)


def check_cotlar_certificate(cfg):
    worst = -np.inf
    trials = max(2, cfg.trials // 2)
    for trial in range(trials):
        rng = substream(cfg.seed, "suite-cotlar", trial)
        n = int(rng.choice([4, 8]))
        k = int(rng.integers(1, 5))
        terms = [(random_complex(rng, n), random_complex(rng, n)) for _ in range(k)]
        report = quantization.cotlar_stein_bound(quantization.cycle_space(n), terms)
        worst = max(worst, report.actual - report.bound * (1 + 1e-9))
    return _bounded("quantization.cotlar_stein_certificate", worst, 0.0,
                    note="actual norm never exceeds the certified M")


def check_bimeasure_structure(cfg):
    worst = 0.0
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, "suite-bim", trial)
        n = 6
        phi = random_complex(rng, n)
        b = quantization.SequenceBimeasure(phi / np.linalg.norm(phi))
        e1, e2, f = [1, 3], [4, 6], [2, 5]
        lhs = quantization.bimeasure_eval(b, e1 + e2, f)
        rhs = quantization.bimeasure_eval(b, e1, f) + quantization.bimeasure_eval(b, e2, f)
        worst = max(worst, abs(lhs - rhs))
        k = int(rng.integers(1, 4))
        d = doi.Decomposition(alphas=random_complex(rng, (k, n)),
                              betas=random_complex(rng, (k, n)),
                              weights=rng.uniform(0.1, 2.0, k))
        psi = np.einsum("t,ti,tj->ij", d.weights.astype(complex), d.alphas, d.betas)
        worst = max(worst, abs(quantization.bimeasure_integrate(b, d)
                               - quantization.bimeasure_integrate_grid(b, psi)))
        worst = max(worst, abs(quantization.semivariation(b) - b.l1_norm() ** 2))
    return _bounded("quantization.bimeasure_additivity_and_representation", worst,
                    cfg.tolerance("algebraic"))


def check_polymeasure(cfg):
    worst = 0.0
    for trial in range(max(2, cfg.trials // 4)):
        rng = substream(cfg.seed, "suite-poly", trial)
        dim = cfg.dims[trial % len(cfg.dims)]
        eh = eig_hermitian(random_hermitian(rng, dim))
        f0, f2 = random_complex(rng, dim), random_complex(rng, dim)
        e = (rng.random(dim) < 0.5).astype(complex)
        e_prime = 1.0 - e
        times = [0.6, 1.4]
        combined = quantization.polymeasure_eval([f0, e + e_prime, f2], times, eh)
        split = (quantization.polymeasure_eval([f0, e, f2], times, eh)
                 + quantization.polymeasure_eval([f0, e_prime, f2], times, eh))
        worst = max(worst, np.abs(combined - split).max())
        ones = np.ones(dim)
        direct = quantization.polymeasure_eval([f0, f2], [1.7], eh)
        threaded = quantization.polymeasure_eval([f0, ones, f2], [0.5, 1.7], eh)
        worst = max(worst, np.abs(threaded - direct).max())
    return _bounded("quantization.polymeasure_additivity_and_concatenation", worst,
                    cfg.tolerance("algebraic"))


SUITE_CHECKS = [
    check_eig_reconstruction,
    check_schatten_monotone,
    check_hoelder_duality,
    check_dft_order_four,
    check_apply_function_additive,
    check_doi_identity_transformer,
    check_doi_localization,
    check_doi_divided_difference,
    check_doi_hs_norm,
    check_doi_fourier_cross_route,
    check_doi_fourier_norm_mass,
    check_peller_bound,
    check_triangular_truncation,
    check_sylvester_cross_oracle,
    check_sylvester_bound_all_p,
    check_trace_formula,
    check_shift_properties,
    check_route_agreement,
    check_rank_one_route,
    check_resolvent_identity,
    check_arctan_representation,
    check_quantize_localization,
    check_quantize_product_symbol,
    check_cotlar_certificate,
    check_bimeasure_structure,
    check_polymeasure,
]


def run_suite(cfg: ScenarioConfig) -> Report:
    checks = [fn(cfg) for fn in SUITE_CHECKS]
    return Report(command="suite", config=cfg.to_json_dict(), checks=checks)
