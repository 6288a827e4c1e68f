"""Discrete position/momentum quantization on the cyclic group Z_n.

Position acts by multiplication in the standard basis, momentum is its
DFT conjugate, and a two-variable symbol sigma(x, xi) quantizes to the
operator sum_{x, xi} sigma(x, xi) Q_x P_xi.  On top of that sit the
almost-orthogonality certificate for sums Q(f_k) P(g_k), closed-form
bounds on the norm of a quantized symbol, a rank-one sequence bimeasure
with its Grothendieck-style norms, and the alternating multiplication/
semigroup products that realize discrete path-integral slices.

A stack of symbols (..., n, n) goes through `quantize` and
`qp_norm_upper_bound` by the code that takes one symbol, and a stack of
sequences phi (..., n) is a stack of `SequenceBimeasure`s, which
`bimeasure_eval`, `bimeasure_integrate` (of a stacked `doi.Decomposition`),
`bimeasure_integrate_grid`, `semivariation` and `l1_norm` take the same
way; `grothendieck_norm` takes a stacked `doi.Decomposition`, as
`doi.peller_bound` does, and `polymeasure_eval` a stacked `EigenSystem`
with a stack of vectors in each slot.  Each member of a stack, and each
decomposition padded with terms of weight 0, gets the bits of its own
call.  The projectors and `cotlar_stein_bound` take one subset or term
list at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doi import Decomposition
from .errors import InputDomainError
from .linalg import (BOOLEAN_TYPES, EigenSystem, apply_function, as_complex_matrices,
                     as_finite_array, as_finite_vectors, as_numeric_array, dft_unitary,
                     entry_types, operator_norm, per_matrix, require_size, scalar_abs,
                     scalar_mul, singular_values)


@dataclass(frozen=True)
class CycleSpace:
    """Z_n; its dense unitary DFT matrix is built only when `dft` is read."""

    n: int

    @property
    def dft(self) -> np.ndarray:
        return dft_unitary(self.n)


def cycle_space(n: int) -> CycleSpace:
    require_size(n, "cycle space size")
    return CycleSpace(n=n)


def _indices(subset, low: int, high: int, name: str) -> np.ndarray:
    """A 1-D sequence of integer indices in low..high as an int64 array (an
    int64 ndarray is returned uncopied), duplicates kept.  Scalars, booleans
    and floats are refused with `InputDomainError`, not cast: a mask [True,
    False, True], an index 1.7 or a True among integers (`entry_types`)
    would silently name other elements."""
    idx = np.asarray(subset)
    if idx.ndim != 1:
        raise InputDomainError(f"{name} must be a 1-D sequence of indices, "
                               f"got a {idx.ndim}-d {type(subset).__name__}")
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise InputDomainError(f"{name} must hold integer indices, got dtype {idx.dtype}")
    if not isinstance(subset, np.ndarray) and not BOOLEAN_TYPES.isdisjoint(entry_types(subset, 1)):
        raise InputDomainError(f"{name} must hold integer indices, not booleans")
    idx = idx.astype(np.int64, copy=False)
    if idx.size and (idx.min() < low or idx.max() > high):
        raise InputDomainError(f"{name} contains indices outside {low}..{high}")
    return idx


def _indicator(space: CycleSpace, subset, name: str) -> np.ndarray:
    """The 0/1 vector of a subset of Z_n, given by its elements 0..n-1 (a
    repeated element sets the same 1)."""
    d = np.zeros(space.n)
    d[_indices(subset, 0, space.n - 1, name)] = 1.0
    return d


def _symbol_vector(shape: tuple, v, name: str) -> np.ndarray:
    """v as a symbol vector of shape (n,), or as a stack of them of `shape`."""
    v = as_finite_array(v, name, len(shape))
    if v.shape != shape:
        expected = f"a length-{shape[0]} vector" if len(shape) == 1 else f"of shape {shape}"
        raise InputDomainError(f"{name} must be {expected}, got {v.shape}")
    return v


def _symbol_matrix(n: int, m, name: str) -> np.ndarray:
    """m as an n x n symbol, or as a stack of them."""
    m = as_complex_matrices(m, name)
    if m.shape[-2:] != (n, n):
        raise InputDomainError(f"{name} must be {n}x{n}, got {m.shape}")
    return m


def _symbol_row_ifft(n: int, sigma) -> np.ndarray:
    """ifft(sigma, axis=-1) of an n x n symbol sigma, or of a stack of them.
    Refuses a sigma with a non-finite entry, as `_symbol_matrix` does, and
    a finite sigma whose inverse DFT overflows.  A non-finite entry makes
    its whole row of the output non-finite, so one finiteness pass over
    the output finds both, and sigma itself is read again only to tell
    them apart."""
    m = as_numeric_array(sigma, "sigma")
    if m.shape[-2:] != (n, n):
        _symbol_matrix(n, m, "sigma")  # refuses m with the error of the first rule it breaks
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.fft.ifft(m, axis=-1)
    if not np.isfinite(a).all():
        as_complex_matrices(m, "sigma")  # "sigma has non-finite entries"
        raise InputDomainError("sigma overflows in its inverse DFT")
    return a


def _circulant_in_place(c: np.ndarray) -> np.ndarray:
    """Turn the n x n rows c into M[x, y] = c[x, (x - y) mod n], in place,
    for one matrix or for each matrix of a stack.

    Row x of M is row x of c reversed and rotated by x + 1.  The loop runs
    over x, on the rows x of every matrix at once: they are copied once
    into a scratch row per matrix and written back as two slices,
    M[x, :x + 1] = row[x::-1] and M[x, x + 1:] = row[:x:-1].  The stack's
    axes are viewed last, so each slice is one index of the row's first
    axis, as cheap as for one matrix.  Returns c.
    """
    stack = list(range(c.ndim - 2))
    rows = np.moveaxis(c, stack, [axis - len(stack) for axis in stack])  # (n, n, *stack)
    scratch = np.empty(rows.shape[1:], dtype=c.dtype)
    for x, row in enumerate(rows):
        scratch[:] = row
        row[:x + 1] = scratch[x::-1]
        row[x + 1:] = scratch[:x:-1]
    return c


def _circulant_of_vector(c: np.ndarray) -> np.ndarray:
    """M[x, y] = c[(x - y) mod n] for a length-n vector c, or a stack of
    them along a leading axis, as one new C-contiguous array.

    Entry (x, y) of M is entry n + x - y of the doubled vector (c, c): a
    view that starts at entry n and steps +1 along x and -1 along y.  The
    ndarray constructor builds that view and checks it against the doubled
    buffer's bounds, at a fraction of `sliding_window_view`'s argument
    handling (which dominates at n <= 16); one copy makes M.
    """
    n = c.shape[-1]
    doubled = np.concatenate([c, c], axis=-1)
    step = doubled.itemsize
    windows = np.ndarray(c.shape[:-1] + (n, n), doubled.dtype, doubled, n * step,
                         doubled.strides[:-1] + (step, -step))
    return np.ascontiguousarray(windows)


def position_projector(space: CycleSpace, e) -> np.ndarray:
    """Q(E): the diagonal 0/1 matrix of the subset E of Z_n."""
    return np.diag(_indicator(space, e, "E").astype(np.complex128))


def momentum_projector(space: CycleSpace, f) -> np.ndarray:
    """P(F) = F* Q(F) F: the DFT conjugate of a position projector, i.e.
    the circulant of the inverse DFT of the indicator of F."""
    return _circulant_of_vector(np.fft.ifft(_indicator(space, f, "F")))


def momentum_operator(space: CycleSpace, g) -> np.ndarray:
    """P(g) = F* diag(g) F, the circulant of the inverse DFT of g (refused if it overflows)."""
    c = np.fft.ifft(_symbol_vector((space.n,), g, "g"))
    if not np.isfinite(c).all():
        raise InputDomainError("g overflows in its inverse DFT")
    return _circulant_of_vector(c)


def quantize(space: CycleSpace, sigma) -> np.ndarray:
    """Quantization M = sum_{x, xi} sigma(x, xi) Q_x P_xi, of a symbol or of
    each symbol of a stack (..., n, n), i.e.

        M[x, y] = (1/n) sum_xi sigma(x, xi) e^{2 pi i xi (x - y)/n}.

    Each row of sigma goes through one inverse FFT, c[x, :] = ifft(sigma[x, :]),
    and M[x, y] = c[x, (x - y) mod n] permutes each row of that FFT output
    in place, so M is the one n x n array allocated, in O(n^2 log n).
    Linear in sigma; sigma = f (x) g gives diag(f) . F* diag(g) F.  A sigma
    whose inverse DFT overflows is refused with `InputDomainError`.
    """
    return _circulant_in_place(_symbol_row_ifft(space.n, sigma))


@dataclass(frozen=True)
class CotlarReport:
    """Almost-orthogonality certificate for a sum of Q(f_k) P(g_k)."""

    SLACK = 1e-9    # relative rounding slack on M

    bound: float    # the certified M
    actual: float   # operator norm of the sum

    @property
    def excess(self) -> float:
        """How far the norm exceeds M (1 + SLACK); <= 0 when the certificate holds."""
        return self.actual - self.bound * (1 + self.SLACK)

    @property
    def holds(self) -> bool:
        return bool(self.excess <= 0)

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
    fs = np.stack([_symbol_vector((space.n,), f, f"f_{k}") for k, (f, _) in enumerate(terms)])
    gs = np.stack([_symbol_vector((space.n,), g, f"g_{k}") for k, (_, g) in enumerate(terms)])
    # P(|g_j|^2), stacked: k n^2 entries, where the pairwise products would hold k^2 n^2
    momenta = _circulant_of_vector(np.fft.ifft(np.abs(gs) ** 2, axis=1))
    a = np.empty((len(terms), len(terms)))
    for k, f_sq in enumerate(np.abs(fs) ** 2):  # row k: one stacked SVD over every j
        products = f_sq[:, None] * momenta
        if not np.isfinite(products).all():
            raise InputDomainError(f"term products of f_{k} overflow")
        a[k] = np.sqrt(singular_values(products)[:, 0])
    bound = float(max(a.sum(axis=1).max(), a.sum(axis=0).max()))
    # sum_k diag(f_k) P(g_k)[x, y] = sum_k f_k[x] ifft(g_k)[(x - y) mod n]
    actual = operator_norm(_circulant_in_place(fs.T @ np.fft.ifft(gs, axis=1)))
    return CotlarReport(bound=bound, actual=actual)


def qp_norm_upper_bound(space: CycleSpace, sigma) -> dict:
    """Two closed-form upper bounds for |quantize(sigma)|, and the smaller.
    With a = ifft(sigma, axis=1), quantize(sigma) = sum_j diag(a[:, j]) S^j
    for the unitary shifts (S^j)[x, y] = [x - y = j mod n], so its entries
    are a's: `hilbert_schmidt` = |a|_F = |sigma|_F / sqrt(n) is its Frobenius
    norm, and `shift_triangle` = sum_j max_x |a[x, j]|.  The first is the
    smaller on random symbols, the second on symbols smooth in xi.  A stack
    of symbols gives an array of each bound, one entry per symbol."""
    a = _symbol_row_ifft(space.n, sigma)
    hilbert_schmidt = per_matrix(np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1))))
    shift_triangle = per_matrix(np.abs(a).max(axis=-2).sum(axis=-1))
    return {"upper_bound": per_matrix(np.minimum(hilbert_schmidt, shift_triangle)),
            "hilbert_schmidt": hilbert_schmidt, "shift_triangle": shift_triangle,
            "label": "deterministic: the smaller of two closed-form upper bounds"}


@dataclass(frozen=True)
class SequenceBimeasure:
    """Rank-one product bimeasure built from a finite sequence phi:

        m(E x F) = (sum_{j in E} phi(j) (-1)^j) (sum_{k in F} phi(k) (-1)^k)

    with 1-based index sets E, F inside {1..n}.  The alternating phase is
    computed exactly as (-1)^j.  A stack of sequences, phi (..., n), is a
    stack of bimeasures: the functions below then give one value per
    bimeasure, and take decompositions and symbols stacked the same way.
    """

    phi: np.ndarray

    def __post_init__(self):
        phi = as_finite_vectors(self.phi, "phi")
        if phi.shape[-1] == 0:
            raise InputDomainError("phi must be a non-empty sequence")
        object.__setattr__(self, "phi", phi)

    @property
    def n(self) -> int:
        return self.phi.shape[-1]

    @property
    def stack(self) -> tuple:
        """The shape of the stack, () for one bimeasure."""
        return self.phi.shape[:-1]

    @property
    def signed(self) -> np.ndarray:
        signs = np.where(np.arange(1, self.n + 1) % 2 == 1, -1.0, 1.0)
        return self.phi * signs

    def l1_norm(self):
        return per_matrix(np.abs(self.phi).sum(axis=-1))


def bimeasure_eval(b: SequenceBimeasure, e, f):
    """m(E x F) for 1-based index sets: the product of the two signed sums
    over their distinct elements."""
    ie = np.unique(_indices(e, 1, b.n, "E")) - 1
    jf = np.unique(_indices(f, 1, b.n, "F")) - 1
    signed = b.signed
    # np.take keeps each sequence's selected entries contiguous, so each is
    # summed as one sequence's own are
    sums = [np.take(signed, idx, axis=-1).sum(axis=-1) for idx in (ie, jf)]
    return per_matrix(scalar_mul(*sums))


def bimeasure_integrate(b: SequenceBimeasure, d: Decomposition):
    """Integral of the symbol sum_t w_t a_t (x) b_t against the bimeasure,
    each term paired with the signed sequence by a sum over the sequence:
    a term of weight 0 adds exactly 0, whatever the term count."""
    if d.alphas.shape[-1] != b.n or d.betas.shape[-1] != b.n:
        raise InputDomainError(
            f"decomposition vectors sized ({d.alphas.shape[-1]}, {d.betas.shape[-1]}), "
            f"bimeasure has n = {b.n}")
    if d.weights.shape[:-1] != b.stack:
        raise InputDomainError(f"decomposition stack {d.weights.shape[:-1]} does not match "
                               f"the bimeasure stack {b.stack}")
    signed = b.signed[..., None, :]
    left = (d.alphas * signed).sum(axis=-1)
    right = (d.betas * signed).sum(axis=-1)
    return per_matrix(np.sum(d.weights * left * right, axis=-1))


def bimeasure_integrate_grid(b: SequenceBimeasure, psi):
    """Direct double sum of a gridwise symbol psi(j, k): the oracle that
    any exact decomposition of psi must integrate to."""
    p = _symbol_matrix(b.n, psi, "psi")
    if p.shape[:-2] != b.stack:
        raise InputDomainError(f"psi has shape {p.shape}, expected {b.stack + (b.n, b.n)}")
    signed = b.signed
    return per_matrix((signed[..., None, :] @ p @ signed[..., :, None])[..., 0, 0])


def semivariation(b: SequenceBimeasure):
    """sup |m(f (x) g)| over the sup-norm unit balls, found by aligning
    unimodular f, g with the phases of the signed sequence (the optimum
    for this product bimeasure): the value is the squared l1 norm."""
    signed = b.signed
    moduli = np.where(signed == 0, 1.0, np.abs(signed))
    f = np.conj(signed) / moduli  # unimodular, aligned; entries with phi = 0 contribute nothing
    f = np.where(signed == 0, 1.0, f)
    aligned_sum = (f * signed).sum(axis=-1)
    return per_matrix(scalar_abs(scalar_mul(aligned_sum, aligned_sum)))


def grothendieck_norm(d: Decomposition):
    """Square-function norm of a decomposition: the product of the sup
    norms of (sum_t w_t |a_t|^2)^(1/2) and (sum_t w_t |b_t|^2)^(1/2); one
    per decomposition of a stack (`linalg.per_matrix`)."""
    wa = np.sqrt(np.sum(d.weights[..., None] * np.abs(d.alphas) ** 2, axis=-2))
    wb = np.sqrt(np.sum(d.weights[..., None] * np.abs(d.betas) ** 2, axis=-2))
    return per_matrix(wa.max(axis=-1) * wb.max(axis=-1))


def polymeasure_eval(f_list, times, eh: EigenSystem) -> np.ndarray:
    """Alternating multiplication/evolution product

        diag(f_n) e^{-i (t_n - t_{n-1}) H} ... diag(f_1) e^{-i t_1 H} diag(f_0)

    for strictly increasing positive times, from the eigensystem `eh` of H;
    separately additive in every multiplication slot; each slot after f_0
    scales rows.  For a stacked `eh` each slot is a stack of vectors, one
    per matrix, and the times are shared.
    """
    f_list = [_symbol_vector(eh.eigenvalues.shape, f, f"slot {k}")
              for k, f in enumerate(f_list)]
    times = as_finite_array(times, "times", 1, float)
    if len(f_list) == 0:
        raise InputDomainError("need at least one multiplication slot")
    if times.size != len(f_list) - 1:
        raise InputDomainError(f"{len(f_list)} slots need {len(f_list) - 1} times, got {times.size}")
    if times.size and (times[0] <= 0 or (np.diff(times) <= 0).any()):
        raise InputDomainError("times must be strictly increasing and positive")
    out = f_list[0][..., :, None] * np.eye(eh.dim)
    gaps = np.diff(np.concatenate([[0.0], times]))
    for f, dt in zip(f_list[1:], gaps):
        evolution = apply_function(eh, lambda x: np.exp(-1j * dt * x))
        out = f[..., :, None] * (evolution @ out)
    return out
