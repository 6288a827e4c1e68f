"""Discrete position/momentum quantization on the cyclic group Z_n.

Position acts by multiplication in the standard basis, momentum is its
DFT conjugate, and a two-variable symbol sigma(x, xi) quantizes to the
operator sum_{x, xi} sigma(x, xi) Q_x P_xi.  On top of that sit the
almost-orthogonality certificate for sums Q(f_k) P(g_k), a rank-one
sequence bimeasure with its Grothendieck-style norms, and the alternating
multiplication/semigroup products that realize discrete path-integral
slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doi import Decomposition
from .errors import InputDomainError
from .linalg import EigenSystem, apply_function, as_complex_matrix, dft_unitary, \
    operator_norm
from .rng import substream


@dataclass(frozen=True)
class CycleSpace:
    """Z_n; its dense unitary DFT matrix is built only when `dft` is read."""

    n: int

    @property
    def dim(self) -> int:
        return self.n

    @property
    def dft(self) -> np.ndarray:
        return dft_unitary(self.n)


def cycle_space(n: int) -> CycleSpace:
    if n < 1:
        raise InputDomainError(f"cycle space needs n >= 1, got {n}")
    return CycleSpace(n=n)


def _indicator(space: CycleSpace, subset, name: str) -> np.ndarray:
    """The 0/1 vector of a subset of Z_n."""
    idx = np.unique(np.asarray(list(subset), dtype=np.int64)) if subset is not None else np.zeros(0, np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= space.n):
        raise InputDomainError(f"{name} contains indices outside 0..{space.n - 1}")
    d = np.zeros(space.n)
    d[idx] = 1.0
    return d


def _symbol_vector(space: CycleSpace, v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (space.n,):
        raise InputDomainError(f"{name} must be a length-{space.n} vector, got {v.shape}")
    if not np.isfinite(v).all():
        raise InputDomainError(f"{name} has non-finite entries")
    return v


def _circulant(n: int, c: np.ndarray) -> np.ndarray:
    """M[x, y] = c[x, (x - y) mod n]; a single row c serves every x."""
    x = np.arange(n)
    shift = x[:, None] - x
    shift[shift < 0] += n  # (x - y) mod n without an integer division
    return np.broadcast_to(c, (n, n))[x[:, None], shift]


def position_projector(space: CycleSpace, e) -> np.ndarray:
    """Q(E): the diagonal 0/1 matrix of the subset E of Z_n."""
    return np.diag(_indicator(space, e, "E")).astype(np.complex128)


def momentum_projector(space: CycleSpace, f) -> np.ndarray:
    """P(F) = F* Q(F) F: the DFT conjugate of a position projector, i.e.
    the circulant of the inverse DFT of the indicator of F."""
    return _circulant(space.n, np.fft.ifft(_indicator(space, f, "F")))


def position_operator(space: CycleSpace, f) -> np.ndarray:
    """Multiplication operator Q(f) = diag(f) for an arbitrary symbol f."""
    return np.diag(_symbol_vector(space, f, "f"))


def momentum_operator(space: CycleSpace, g) -> np.ndarray:
    """P(g) = F* diag(g) F, the circulant of the inverse DFT of g."""
    return _circulant(space.n, np.fft.ifft(_symbol_vector(space, g, "g")))


def quantize(space: CycleSpace, sigma) -> np.ndarray:
    """Quantization M = sum_{x, xi} sigma(x, xi) Q_x P_xi, i.e.

        M[x, y] = (1/n) sum_xi sigma(x, xi) e^{2 pi i xi (x - y)/n}.

    Each row of sigma goes through one inverse FFT, c[x, :] = ifft(sigma[x, :]),
    and M[x, y] = c[x, (x - y) mod n] gathers the rows into M, in
    O(n^2 log n).  Linear in sigma; sigma = f (x) g gives
    diag(f) . F* diag(g) F.
    """
    s = as_complex_matrix(sigma, "sigma")
    n = space.n
    if s.shape != (n, n):
        raise InputDomainError(f"sigma must be {n}x{n}, got {s.shape}")
    return _circulant(n, np.fft.ifft(s, axis=1))


@dataclass(frozen=True)
class CotlarReport:
    """Almost-orthogonality certificate for a sum of Q(f_k) P(g_k)."""

    bound: float    # the certified M
    actual: float   # operator norm of the sum
    holds: bool

    def to_json_dict(self) -> dict:
        return {"M": self.bound, "actual": self.actual, "holds": self.holds}


def cotlar_stein_bound(space: CycleSpace, terms) -> CotlarReport:
    """Certify |sum_k Q(f_k) P(g_k)| <= M from pairwise product norms.

    With a[k, j] = |Q(|f_k|^2) P(|g_j|^2)|^(1/2), the certificate is
    M = max(max_k sum_j a[k, j], max_j sum_k a[k, j]): both the row and
    the column sums of the full pairwise array must stay below M.
    """
    terms = list(terms)
    if not terms:
        raise InputDomainError("need at least one (f, g) term")
    n = space.n
    fs = np.stack([_symbol_vector(space, f, f"f_{k}") for k, (f, _) in enumerate(terms)])
    gs = np.stack([_symbol_vector(space, g, f"g_{k}") for k, (_, g) in enumerate(terms)])
    # P(|g_j|^2), stacked: k n^2 entries, where the pairwise products would hold k^2 n^2
    momenta = np.stack([_circulant(n, c) for c in np.fft.ifft(np.abs(gs) ** 2, axis=1)])
    a = np.empty((len(terms), len(terms)))
    for k, f_sq in enumerate(np.abs(fs) ** 2):  # row k: one stacked SVD over every j
        products = f_sq[:, None] * momenta
        if not np.isfinite(products).all():
            raise InputDomainError(f"term products of f_{k} overflow")
        a[k] = np.sqrt(np.linalg.svd(products, compute_uv=False)[:, 0])
    bound = float(max(a.sum(axis=1).max(), a.sum(axis=0).max()))
    # sum_k diag(f_k) P(g_k)[x, y] = sum_k f_k[x] ifft(g_k)[(x - y) mod n]
    actual = operator_norm(_circulant(n, fs.T @ np.fft.ifft(gs, axis=1)))
    return CotlarReport(bound=bound, actual=actual, holds=bool(actual <= bound * (1 + 1e-9)))


def qp_norm_upper_bound(space: CycleSpace, sigma, trials: int, seed: int) -> dict:
    """Best-of-N randomized upper bound for the quantized operator norm.

    Each trial factors sigma exactly into sum_k f_k (x) g_k (mixing a base
    factorization by exactly invertible rotations/scalings) and takes the
    Cotlar-Stein certificate of that system; the smallest certificate seen
    is an upper bound for |quantize(sigma)|.  This is a search, not the
    function-space norm itself, and the result is labeled accordingly.
    """
    s = as_complex_matrix(sigma, "sigma")
    n = space.n
    if s.shape != (n, n):
        raise InputDomainError(f"sigma must be {n}x{n}, got {s.shape}")
    best = np.inf
    base_pairs = [(s.copy(), np.eye(n, dtype=np.complex128)),
                  (np.eye(n, dtype=np.complex128), s.copy())]
    for trial in range(trials):
        rng = substream(seed, "qp-norm-search", trial)
        p, qt = base_pairs[trial % 2]
        r, rinv = _random_mixing(n, rng)
        fmat = p @ r
        gmat = rinv @ qt
        terms = [(fmat[:, t], gmat[t, :]) for t in range(n)]
        report = cotlar_stein_bound(space, terms)
        best = min(best, report.bound)
    return {"upper_bound": float(best), "trials": trials,
            "label": "best-of-N Cotlar-Stein certificates (upper bound only)"}


def _random_mixing(k: int, rng: np.random.Generator):
    """Exactly invertible random mixing: phases, scalings, Givens rotations."""
    r = np.diag(np.exp(2j * np.pi * rng.random(k)) * rng.uniform(0.5, 2.0, k))
    rinv = np.diag(1.0 / np.diag(r))
    for _ in range(2 * k):
        i, j = rng.choice(k, size=2, replace=False)
        th = rng.uniform(0, 2 * np.pi)
        c, sn = np.cos(th), np.sin(th)
        g = np.eye(k, dtype=np.complex128)
        g[i, i] = c
        g[i, j] = sn
        g[j, i] = -sn
        g[j, j] = c
        r = r @ g
        rinv = g.T @ rinv
    return r, rinv


@dataclass(frozen=True)
class SequenceBimeasure:
    """Rank-one product bimeasure built from a finite sequence phi:

        m(E x F) = (sum_{j in E} phi(j) (-1)^j) (sum_{k in F} phi(k) (-1)^k)

    with 1-based index sets E, F inside {1..n}.  The alternating phase is
    computed exactly as (-1)^j.
    """

    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.complex128)
        if phi.ndim != 1 or phi.size == 0 or not np.isfinite(phi).all():
            raise InputDomainError("phi must be a non-empty finite 1-D sequence")
        object.__setattr__(self, "phi", phi)

    @property
    def n(self) -> int:
        return self.phi.size

    @property
    def signed(self) -> np.ndarray:
        signs = np.where(np.arange(1, self.n + 1) % 2 == 1, -1.0, 1.0)
        return self.phi * signs

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.phi))

    def l1_norm(self) -> float:
        return float(np.abs(self.phi).sum())


def _one_based(b: SequenceBimeasure, subset, name: str) -> np.ndarray:
    idx = np.unique(np.asarray(list(subset), dtype=np.int64))
    if idx.size and (idx.min() < 1 or idx.max() > b.n):
        raise InputDomainError(f"{name} contains indices outside 1..{b.n}")
    return idx - 1


def bimeasure_eval(b: SequenceBimeasure, e, f) -> complex:
    """m(E x F): the product of the two finite signed sums."""
    ie = _one_based(b, e, "E")
    jf = _one_based(b, f, "F")
    signed = b.signed
    return complex(signed[ie].sum() * signed[jf].sum())


def bimeasure_integrate(b: SequenceBimeasure, d: Decomposition) -> complex:
    """Integral of the symbol sum_t w_t a_t (x) b_t against the bimeasure."""
    if d.alphas.shape[1] != b.n or d.betas.shape[1] != b.n:
        raise InputDomainError(
            f"decomposition vectors sized ({d.alphas.shape[1]}, {d.betas.shape[1]}), "
            f"bimeasure has n = {b.n}")
    signed = b.signed
    left = d.alphas @ signed
    right = d.betas @ signed
    return complex(np.sum(d.weights * left * right))


def bimeasure_integrate_grid(b: SequenceBimeasure, psi) -> complex:
    """Direct double sum of a gridwise symbol psi(j, k): the oracle that
    any exact decomposition of psi must integrate to."""
    p = as_complex_matrix(psi, "psi")
    if p.shape != (b.n, b.n):
        raise InputDomainError(f"psi must be {b.n}x{b.n}, got {p.shape}")
    signed = b.signed
    return complex(signed @ p @ signed)


def semivariation(b: SequenceBimeasure) -> float:
    """sup |m(f (x) g)| over the sup-norm unit balls, found by aligning
    unimodular f, g with the phases of the signed sequence (the optimum
    for this product bimeasure): the value is the squared l1 norm."""
    signed = b.signed
    moduli = np.where(signed == 0, 1.0, np.abs(signed))
    f = np.conj(signed) / moduli  # unimodular, aligned; entries with phi = 0 contribute nothing
    f = np.where(signed == 0, 1.0, f)
    aligned_sum = (f * signed).sum()
    return float(abs(aligned_sum * aligned_sum))


def grothendieck_norm(d: Decomposition) -> float:
    """Square-function norm of a decomposition: the product of the sup
    norms of (sum_t w_t |a_t|^2)^(1/2) and (sum_t w_t |b_t|^2)^(1/2)."""
    wa = np.sqrt(np.sum(d.weights[:, None] * np.abs(d.alphas) ** 2, axis=0))
    wb = np.sqrt(np.sum(d.weights[:, None] * np.abs(d.betas) ** 2, axis=0))
    return float(wa.max() * wb.max())


def polymeasure_eval(f_list, times, eh: EigenSystem) -> np.ndarray:
    """Alternating multiplication/evolution product

        diag(f_n) e^{-i (t_n - t_{n-1}) H} ... diag(f_1) e^{-i t_1 H} diag(f_0)

    for strictly increasing positive times, from the eigensystem `eh` of H;
    separately additive in every multiplication slot.
    """
    f_list = [np.asarray(f, dtype=np.complex128) for f in f_list]
    times = np.asarray(times, dtype=float)
    if len(f_list) == 0:
        raise InputDomainError("need at least one multiplication slot")
    if times.size != len(f_list) - 1:
        raise InputDomainError(f"{len(f_list)} slots need {len(f_list) - 1} times, got {times.size}")
    if times.size and (times[0] <= 0 or (np.diff(times) <= 0).any()):
        raise InputDomainError("times must be strictly increasing and positive")
    for f in f_list:
        if f.shape != (eh.dim,):
            raise InputDomainError(f"slot vectors must have length {eh.dim}")
    out = np.diag(f_list[0])
    gaps = np.diff(np.concatenate([[0.0], times]))
    for f, dt in zip(f_list[1:], gaps):
        evolution = apply_function(eh, lambda x: np.exp(-1j * dt * x))
        out = np.diag(f) @ evolution @ out
    return out


def extension_growth_experiment(sizes, seed: int) -> list[dict]:
    """Adversarial signed sums over singleton rectangles while |phi|_2 = 1.

    For each n the sequence has equal moduli 1/sqrt(n) and random phases;
    choosing the sign of every rectangle {j} x {k} adversarially makes the
    sum of |m| over the partition equal |phi|_1^2 = n, demonstrating that
    no bounded sigma-additive extension exists as n grows.
    """
    out = []
    for trial, n in enumerate(sizes):
        rng = substream(seed, "extension-growth", trial)
        phi = np.exp(2j * np.pi * rng.random(n)) / np.sqrt(n)
        b = SequenceBimeasure(phi)
        signed = b.signed
        cells = np.abs(np.outer(signed, signed))  # |m({j} x {k})| after sign alignment
        out.append({"n": int(n), "l2_norm": b.l2_norm(),
                    "adversarial_sum": float(cells.sum())})
    return out
