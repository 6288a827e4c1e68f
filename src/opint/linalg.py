"""Dense complex/hermitian matrix algebra.

Everything downstream (operator integrals, shift functions, quantization)
runs through the primitives here: hermitian eigendecompositions and
singular values from LAPACK (through numpy) with a deterministic
eigenvector phase convention, functional calculus on the resulting
eigensystems, overflow-safe Schatten norms taken through the singular
values, and the unitary DFT matrix.  Matrices are plain complex ndarrays
treated as immutable values; every operation returns a fresh array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, InputDomainError

HERMITIAN_TOL = 1e-12
PHASE_TOL = 1e-8


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise InputDomainError(f"{name} must be a non-empty 2-D array, got shape {a.shape}")
    if not np.isfinite(a.real).all() or not np.isfinite(a.imag).all():
        raise InputDomainError(f"{name} has non-finite entries")
    return a.copy()


def as_hermitian(m, name: str = "matrix", tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate hermitian symmetry and return the exactly symmetrized
    matrix (H + H*)/2.  The asymmetry may reach `tol` times the largest
    entry modulus (`tol` itself for entries of modulus at most 1), so the
    rounding of computed products is accepted at every scale."""
    a = as_complex_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise InputDomainError(f"{name} must be square, got shape {a.shape}")
    asym = np.abs(a - a.conj().T).max()
    bound = tol * max(1.0, float(np.abs(a).max()))
    if asym > bound:
        raise InputDomainError(
            f"{name} is not hermitian: max asymmetry {asym:.3e} exceeds {bound:.1e}")
    return (a + a.conj().T) / 2.0


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition H = U diag(w) U* with w ascending.

    Column j of `unitary` is the eigenvector of eigenvalue `eigenvalues[j]`;
    rank-one projectors onto selections of columns realize the spectral
    measure of H.
    """

    eigenvalues: np.ndarray
    unitary: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def reconstruct(self) -> np.ndarray:
        u = self.unitary
        return (u * self.eigenvalues) @ u.conj().T

    def projector(self, mask) -> np.ndarray:
        """Spectral projector onto the eigenvalues selected by a boolean mask."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.dim,):
            raise InputDomainError("projector mask must have one flag per eigenvalue")
        u = self.unitary[:, mask]
        return u @ u.conj().T


def _fix_phases(u: np.ndarray) -> np.ndarray:
    # first component of each column with modulus > PHASE_TOL is made real > 0;
    # an eigh column has unit norm, so some entry is >= 1/sqrt(n) > PHASE_TOL
    rows = (np.abs(u) > PHASE_TOL).argmax(axis=0)
    cols = np.arange(u.shape[1])
    pivot = u[rows, cols]
    u *= np.abs(pivot) / pivot
    u[rows, cols] = u[rows, cols].real
    return u


def eig_hermitian(h, name: str = "matrix") -> EigenSystem:
    """Diagonalize a hermitian matrix with LAPACK (`numpy.linalg.eigh`).

    Eigenvalues come out ascending.  Each eigenvector's first component of
    modulus > 1e-8 is made real and positive, so the unitary is fixed up
    to the choice of basis inside repeated eigenvalues.  `name` labels
    the matrix in validation errors.
    """
    w, v = np.linalg.eigh(as_hermitian(h, name))
    return EigenSystem(eigenvalues=w, unitary=_fix_phases(v))


def hermitian_eigenvalues(h) -> np.ndarray:
    """Ascending eigenvalues only, from LAPACK (`numpy.linalg.eigvalsh`)."""
    return np.linalg.eigvalsh(as_hermitian(h))


def apply_function(eig: EigenSystem, f) -> np.ndarray:
    """Functional calculus: U diag(f(w)) U*.

    `f` may be real- or complex-valued; the result is hermitian exactly
    when f is real on the spectrum.  Raises EvaluationError naming the
    offending eigenvalue if f is non-finite there.
    """
    w = eig.eigenvalues
    values = _eval_on_spectrum(f, w)
    bad = ~np.isfinite(values)
    if bad.any():
        raise EvaluationError(f"function not finite at eigenvalue {w[np.argmax(bad)]!r}")
    u = eig.unitary
    return (u * values) @ u.conj().T


def _eval_on_spectrum(f, w: np.ndarray) -> np.ndarray:
    try:
        values = np.asarray(f(w), dtype=np.complex128)
        if values.shape == w.shape:
            return values
    except (TypeError, ValueError):
        pass
    out = np.empty(w.shape, dtype=np.complex128)
    for i, x in enumerate(w):
        try:
            out[i] = f(x)
        except Exception as exc:
            raise EvaluationError(f"function failed at eigenvalue {x!r}: {exc}") from exc
    return out


def singular_values(m) -> np.ndarray:
    """The min(rows, cols) singular values, descending, from LAPACK
    (`numpy.linalg.svd`)."""
    return np.linalg.svd(as_complex_matrix(m), compute_uv=False)


def schatten_norm(m, p) -> float:
    """Schatten p-norm: the l^p norm of the singular values; p=inf gives
    the operator norm.

    For other p the singular values are scaled by the largest one before
    the power is taken (Blue's overflow-safe norm), so large p or large
    entries do not overflow to inf.
    """
    if not (p == np.inf or p >= 1):  # also rejects nan
        raise InputDomainError(f"Schatten norm needs p >= 1 or p = inf, got {p}")
    s = singular_values(m)
    if p == np.inf or s[0] == 0.0:
        return float(s[0])
    if p == 1:
        return float(s.sum())
    return float(s[0] * ((s / s[0]) ** p).sum() ** (1.0 / p))


def operator_norm(m) -> float:
    return schatten_norm(m, np.inf)


def trace_norm(m) -> float:
    return schatten_norm(m, 1)


def dft_unitary(n: int) -> np.ndarray:
    """Unitary DFT matrix F[j,k] = exp(-2 pi i jk/n)/sqrt(n)."""
    if n < 1:
        raise InputDomainError(f"DFT size must be >= 1, got {n}")
    k = np.arange(n)
    roots = np.exp(-2j * np.pi * k / n) / np.sqrt(n)  # the n distinct entries
    return roots[np.outer(k, k) % n]


def matrix_to_json_dict(m) -> dict:
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InputDomainError("JSON matrix format holds square matrices")
    return {"dim": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}


def matrix_from_json_dict(d, hermitian: bool = False, name: str = "matrix") -> np.ndarray:
    try:
        dim = int(d["dim"])
        re = np.asarray(d["re"], dtype=float)
        im = np.asarray(d["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDomainError(f"{name}: malformed matrix JSON ({exc})") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise InputDomainError(
            f"{name}: 're'/'im' must be {dim}x{dim} arrays, got {re.shape} and {im.shape}")
    a = as_complex_matrix(re + 1j * im, name)
    if hermitian:
        return as_hermitian(a, name)
    return a


def save_matrix(path, m):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_matrix(path, hermitian: bool = False) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json_dict(json.load(fh), hermitian=hermitian, name=str(path))
