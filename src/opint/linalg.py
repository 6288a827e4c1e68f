"""Dense complex/hermitian matrix algebra.

Everything downstream (operator integrals, shift functions, quantization)
runs through the primitives here: hermitian eigendecompositions and
singular values from LAPACK (through numpy), functional calculus on the
resulting eigensystems, overflow-safe Schatten norms taken through the
singular values, and the unitary DFT matrix.  Matrices are plain complex
ndarrays treated as immutable values: validation may hand back the
caller's own array, and no operation writes into its inputs.  Input
arrays, here and in `doi`, `shift` and `quantization`, are validated by
`as_finite_array`, which refuses what a cast would change rather than
converting it; callers add only their own shape, sign and integer rules.

Only this module calls LAPACK's eigensolver and SVD.  Every hermitian
eigendecomposition goes through `eig_hermitians`, which validates and
diagonalizes one (k, n, n) stack in one call: at small n numpy's per-call
overhead costs more than LAPACK, and one call per stack gives each matrix
the bits of a call of its own.  `eig_hermitian` is its stack of one.

The spectral core takes a (k, n, n) stack through the code that takes one
matrix, and gives each matrix of the stack the bits of its own call (one
matrix product or LAPACK call per matrix, exact max reductions, and sums
over each matrix's last axis): a stacked `EigenSystem` (`dim`,
`reconstruct`, `projector`), `evaluate`, `apply_function`,
`singular_values`, `schatten_norm`, `schatten_norm_of_values`,
`operator_norm` and `trace_norm`.  A value per matrix is a float for one
matrix and an array for a stack (`per_matrix`).  numpy rounds some
operations on one number differently from the same operations on an
array (on CPUs with AVX-512: complex `abs`, complex products, `power`),
so a value that one matrix takes from one number, a stack takes with
`scalar_abs`, `scalar_mul` or `scalar_pow`, which round as for one
number.  A caller bounds the stacks' memory by how many matrices it
passes at once (the suite and `doi` pass the blocks of `rng.trial_blocks`,
whose arithmetic takes at most `rng.BLOCK_BYTES`).

A user function f is evaluated once, on the whole array of points it is
needed at (`evaluate`), never point by point: f must accept an array
and return one value per point.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from numbers import Real

import numpy as np

from .errors import EvaluationError, InputDomainError

HERMITIAN_TOL = 1e-12
BOOLEAN_TYPES = frozenset({bool, np.bool_})


def entry_types(x, ndim: int) -> set:
    """The types of the entries of x, nested ndim deep in sequences, which
    np.asarray casts to one dtype: a True among numbers reads as 1, and only
    its type shows it.  An ndarray needs no scan."""
    entries = [x]
    for _ in range(ndim):
        entries = chain.from_iterable(entries)
    return set(map(type, entries))


def as_numeric_array(x, name: str, dtype=np.complex128) -> np.ndarray:
    """x as an array of `dtype` (complex128, or float for a real slot), any
    shape.  Ragged input, booleans (also among a sequence's numbers), strings,
    bytes, objects and complex input to a real slot raise InputDomainError,
    whose message starts with `name`.  Input of `dtype` comes back uncopied."""
    try:
        a = np.asarray(x)
    except (TypeError, ValueError) as exc:  # ragged rows
        raise InputDomainError(f"{name} is not a numeric array ({exc})") from exc
    if a.dtype != dtype:
        if a.dtype.kind == "c" and np.dtype(dtype).kind == "f":
            raise InputDomainError(f"{name} must be real, got dtype {a.dtype}")
        if a.dtype.kind not in "iufc":
            raise InputDomainError(f"{name} is not a numeric array (dtype {a.dtype})")
        a = a.astype(dtype)
    if not isinstance(x, np.ndarray) and not BOOLEAN_TYPES.isdisjoint(entry_types(x, a.ndim)):
        raise InputDomainError(f"{name} is not a numeric array (it holds booleans)")
    return a


def as_finite_array(x, name: str, ndim: int | None, dtype=np.complex128) -> np.ndarray:
    """`as_numeric_array` of an ndim-D array (any shape for ndim None) of
    finite numbers."""
    a = as_numeric_array(x, name, dtype)
    if ndim is not None and a.ndim != ndim:
        raise InputDomainError(f"{name} has shape {a.shape}, expected a {ndim}-D array")
    if not np.isfinite(a).all():  # complex isfinite: both parts finite
        raise InputDomainError(f"{name} has non-finite entries")
    return a


def as_finite_vectors(x, name: str, dtype=np.complex128) -> np.ndarray:
    """`as_finite_array` of a vector, or of a stack of them with any number
    of leading axes."""
    a = as_numeric_array(x, name, dtype)
    return as_finite_array(a, name, max(a.ndim, 1), dtype)


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """`as_finite_array` of a non-empty 2-D complex matrix."""
    a = as_finite_array(m, name, 2)
    if a.size == 0:
        raise InputDomainError(f"{name} must be a non-empty 2-D array, got shape {a.shape}")
    return a


def as_complex_matrices(m, name: str = "matrix") -> np.ndarray:
    """`as_finite_array` of a non-empty complex matrix, or of a stack of
    them with any number of leading axes."""
    a = as_numeric_array(m, name)
    a = as_finite_array(a, name, max(a.ndim, 2))
    if 0 in a.shape[-2:]:
        raise InputDomainError(f"{name} must be a non-empty 2-D array, got shape {a.shape}")
    return a


def as_hermitian(m, name="matrix") -> np.ndarray:
    """Validate hermitian symmetry and return the exactly symmetrized
    matrix (H + H*)/2.  The asymmetry may reach `HERMITIAN_TOL` times the
    largest entry modulus (`HERMITIAN_TOL` itself for entries of modulus at
    most 1), so the rounding of computed products is accepted at every
    scale.

    m is one matrix or a (k, n, n) stack of k matrices, named by one str
    `name` (for a stack, every matrix's name), or m is a (k, n, n) stack
    and `name` the sequence of its k names.  Each matrix of a stack is held
    to its own bound, and a bad one is refused with the error it gets
    alone, naming it (with several bad ones, the first to fail the first
    check that any fails).
    """
    single = isinstance(name, str)
    names = [name] if single else list(name)
    first = names[0]
    a = as_numeric_array(m, first)
    if single and a.ndim == 3:
        single, names = False, names * len(a)
    if not single and a.shape[:1] != (len(names),):
        raise ValueError(f"a stack of shape {a.shape} needs one name per matrix, "
                         f"got {len(names)}")
    shape = a.shape if single else a.shape[1:]
    if len(shape) != 2:
        raise InputDomainError(f"{first} has shape {shape}, expected a 2-D array")
    if not np.isfinite(a).all():  # complex isfinite: both parts finite
        finite = np.isfinite(a).reshape(len(names), -1).all(axis=1)
        raise InputDomainError(f"{names[np.argmin(finite)]} has non-finite entries")
    if a.size == 0:
        raise InputDomainError(f"{first} must be a non-empty 2-D array, got shape {shape}")
    if shape[0] != shape[1]:
        raise InputDomainError(f"{first} must be square, got shape {shape}")
    ah = a.conj().swapaxes(-1, -2)
    asym = np.abs(a - ah)
    if asym.max() > HERMITIAN_TOL:  # the bound is at least that, so only then is the scale needed
        asym = asym.reshape(len(names), -1).max(axis=1)
        bound = HERMITIAN_TOL * np.maximum(1.0, np.abs(a).reshape(len(names), -1).max(axis=1))
        over = asym > bound
        if over.any():
            k = np.argmax(over)
            raise InputDomainError(f"{names[k]} is not hermitian: max asymmetry "
                                   f"{asym[k]:.3e} exceeds {bound[k]:.1e}")
    # halves first: a + a* overflows for entries near the largest float
    return a * 0.5 + ah * 0.5


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition H = U diag(w) U* with w ascending, or a stack
    of them: eigenvalues (..., n) and unitaries (..., n, n).

    Column j of `unitary` is an eigenvector of eigenvalue `eigenvalues[j]`,
    as LAPACK returns it.  Only the projections u u* onto selections of
    columns are read, and they realize the spectral measure of H whatever
    the columns' phases.
    """

    eigenvalues: np.ndarray
    unitary: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def reconstruct(self) -> np.ndarray:
        u = self.unitary
        return (u * self.eigenvalues[..., None, :]) @ adjoint(u)

    def projector(self, mask) -> np.ndarray:
        """Spectral projector onto the eigenvalues selected by a boolean mask,
        one flag per eigenvalue ((..., n) for a stack): U diag(mask) U*."""
        try:
            flags = np.asarray(mask)
        except ValueError as exc:  # ragged
            raise InputDomainError(f"projector mask is not an array of flags ({exc})") from exc
        if flags.dtype != bool or (not isinstance(mask, np.ndarray)
                                   and not entry_types(mask, flags.ndim) <= BOOLEAN_TYPES):
            raise InputDomainError(f"projector mask must hold booleans, got dtype {flags.dtype}")
        if flags.shape != self.eigenvalues.shape:
            raise InputDomainError("projector mask must have one flag per eigenvalue")
        u = self.unitary
        return (u * flags[..., None, :]) @ adjoint(u)


def adjoint(m: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def per_matrix(x):
    """A value per matrix: a Python float or bool for one matrix, the array
    for a stack."""
    if getattr(x, "ndim", 0):
        return x
    return x.item() if isinstance(x, (np.generic, np.ndarray)) else x


def scalar_abs(z) -> np.ndarray:
    """|z| of each entry of z, rounded as for one complex number (C's hypot)."""
    z = np.asarray(z)
    return np.hypot(z.real, z.imag)


def scalar_mul(x, y) -> np.ndarray:
    """x * y of each pair of complex entries, rounded as for one pair of
    numbers: four real products, none fused into an add."""
    x, y = np.asarray(x), np.asarray(y)
    out = np.empty(np.broadcast(x, y).shape, dtype=np.complex128)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def scalar_pow(x, y) -> np.ndarray:
    """x ** y of each entry of the real array x, rounded as numpy raises one
    number to a power (C's pow)."""
    x = np.asarray(x, dtype=float)
    return np.reshape([v ** y for v in x.ravel()], x.shape)


def eig_hermitians(stack, names) -> EigenSystem:
    """The stacked `EigenSystem` of a (k, n, n) stack of hermitian matrices,
    `names[j]` labelling matrix j in validation errors, from one
    `as_hermitian` and one LAPACK call (`numpy.linalg.eigh`): at small n
    their cost is mostly per call, not per matrix.  Each matrix gets the
    bits `eigh` gives it alone: eigenvalues ascending, and the eigenvectors
    as LAPACK returns them, with no phase convention.  opint reads them
    only through products u u*, which a column's unit phase (or the choice
    of basis inside a repeated eigenvalue) cancels out of.  A caller bounds
    the memory by how many matrices it passes at once.
    """
    return EigenSystem(*np.linalg.eigh(as_hermitian(stack, list(names))))


def eig_hermitian(h, name: str = "matrix") -> EigenSystem:
    """`eig_hermitians` of the one matrix h, as a stack of one."""
    e = eig_hermitians(as_numeric_array(h, name)[None], [name])
    return EigenSystem(e.eigenvalues[0], e.unitary[0])


def evaluate(f, x: np.ndarray, point: str = "point") -> np.ndarray:
    """f(x) from one call of f on the whole array x (the eigenvalues of a
    stack are one (k, n) array), as complex128.

    Raises EvaluationError naming the first bad `point` of x in C order:
    the first point (none of an empty x) if f raises or returns another
    shape, else the first point f is not finite at.
    """
    first = next(x.flat, "(none)")
    try:
        values = np.asarray(f(x), dtype=np.complex128)
    except Exception as exc:
        raise EvaluationError(f"function failed at {point} {first}: {exc}") from exc
    if values.shape != x.shape:
        raise EvaluationError(f"function gave shape {values.shape} at {point} {first}")
    bad = ~np.isfinite(values)
    if bad.any():
        raise EvaluationError(f"function not finite at {point} {x.flat[np.argmax(bad)]}")
    return values


def apply_function(eig: EigenSystem, f) -> np.ndarray:
    """Functional calculus: U diag(f(w)) U*, for each matrix of a stack.

    `f` may be real- or complex-valued; the result is hermitian exactly
    when f is real on the spectrum.  f is called once on the array of
    eigenvalues; `evaluate` names the offending eigenvalue when that fails.
    """
    u = eig.unitary
    return (u * evaluate(f, eig.eigenvalues, "eigenvalue")[..., None, :]) @ adjoint(u)


def singular_values(m) -> np.ndarray:
    """The min(rows, cols) singular values, descending, from one LAPACK call
    (`numpy.linalg.svd`); a (k, rows, cols) stack gives one row per matrix."""
    a = as_complex_matrices(m, "matrix")
    if a.ndim > 3:
        raise InputDomainError(f"matrix has shape {a.shape}, expected a 2-D array")
    return np.linalg.svd(a, compute_uv=False)


def schatten_norm(m, p):
    """Schatten p-norm: the l^p norm of the singular values; p=inf gives
    the operator norm.  A (k, rows, cols) stack gives one norm per matrix.

    For other p the singular values are scaled by the largest one before
    the power is taken (Blue's overflow-safe norm), so large p or large
    entries do not overflow to inf.
    """
    return schatten_norm_of_values(singular_values(m), p)


def schatten_norm_of_values(s: np.ndarray, p):
    """`schatten_norm` of a matrix whose singular values, descending, are s
    (of each matrix of a stack, for one row of s per matrix)."""
    if isinstance(p, bool) or not isinstance(p, Real) or not (p == np.inf or p >= 1):  # or nan
        raise InputDomainError(f"Schatten norm needs a real p >= 1 or p = inf, got {p!r}")
    top = s[..., :1]
    if p == np.inf:
        return per_matrix(top[..., 0])
    if p == 1:
        return per_matrix(s.sum(axis=-1))
    scale = top if top.all() else top + (top == 0.0)  # a zero matrix has norm 0
    return per_matrix(top[..., 0] * scalar_pow(((s / scale) ** p).sum(axis=-1), 1.0 / p))


def operator_norm(m):
    return schatten_norm(m, np.inf)


def trace_norm(m):
    return schatten_norm(m, 1)


def require_size(n, name: str) -> None:
    """Refuse a size n that is not an integer >= 1; a boolean is no size."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InputDomainError(f"{name} must be an integer >= 1, got {n!r}")


def dft_unitary(n: int) -> np.ndarray:
    """Unitary DFT matrix F[j,k] = exp(-2 pi i jk/n)/sqrt(n)."""
    require_size(n, "DFT size")
    k = np.arange(n)
    roots = np.exp(-2j * np.pi * k / n) / np.sqrt(n)  # the n distinct entries
    return roots[np.outer(k, k) % n]


def matrix_to_json_dict(m) -> dict:
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InputDomainError("JSON matrix format holds square matrices")
    return {"dim": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}


def matrix_from_json_dict(d, name: str = "matrix") -> np.ndarray:
    """The matrix of a parsed `matrix_to_json_dict` object; a `dim` that is
    not a JSON integer or an entry that is not a JSON number is refused."""
    try:
        dim = d["dim"]
        re = np.asarray(d["re"], dtype=float)
        im = np.asarray(d["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDomainError(f"{name}: malformed matrix JSON ({exc})") from exc
    if type(dim) is not int:
        raise InputDomainError(f"{name}: malformed matrix JSON ('dim' is not an integer: {dim!r})")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise InputDomainError(
            f"{name}: 're'/'im' must be {dim}x{dim} arrays, got {re.shape} and {im.shape}")
    kinds = (entry_types(d["re"], 2) | entry_types(d["im"], 2)) - {int, float}
    if kinds:
        raise InputDomainError(f"{name}: 're'/'im' entries must be JSON numbers, got "
                               + ", ".join(sorted(k.__name__ for k in kinds)))
    return as_complex_matrix(re + 1j * im, name)


def save_matrix(path, m):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")


class _MatrixCache:
    """Read-only matrices keyed by the sha256 digest of the file bytes they
    were parsed from, least recently used first.  Each entry counts as its
    matrix's bytes plus `ENTRY_BYTES` for the array header, the key and the
    dict slot, and the entries never count more than `budget` together."""

    ENTRY_BYTES = 512  # about 280 B measured for a 1 x 1 matrix

    def __init__(self, budget: int):
        self.budget = budget
        self.retained = 0
        self._entries: OrderedDict[bytes, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()

    def _cost(self, m: np.ndarray) -> int:
        return m.nbytes + self.ENTRY_BYTES

    def get(self, key: bytes):
        with self._lock:
            m = self._entries.get(key)
            if m is not None:
                self._entries.move_to_end(key)
            return m

    def put(self, key: bytes, m: np.ndarray) -> None:
        with self._lock:
            if key in self._entries or self._cost(m) > self.budget:
                return
            self._entries[key] = m
            self.retained += self._cost(m)
            while self.retained > self.budget:
                self.retained -= self._cost(self._entries.popitem(last=False)[1])


# two complex matrices at the CLI's 1024 x 1024 cap, or about 2,000 at n = 32
LOAD_CACHE_BYTES = 2 * (16 * 1024**2 + _MatrixCache.ENTRY_BYTES)
_loaded = _MatrixCache(LOAD_CACHE_BYTES)


def load_matrix(path, hermitian: bool = False) -> np.ndarray:
    """Read a matrix saved by `save_matrix`; `hermitian` also validates and
    symmetrizes it (`as_hermitian`).  Errors name the file as given.

    Each distinct file content is parsed once per process: the validated
    matrix is cached under the sha256 digest of the file's bytes, so a
    rewritten file is parsed again whatever its size or modification time.
    The cache keeps at most `LOAD_CACHE_BYTES` (32 MiB and 1 KiB, counting
    512 B per entry besides the 16 n^2 matrix bytes) and drops the least
    recently used matrix first; a file that fails to parse is not cached.
    Every call returns a new writable array.  A one-shot run reads each file
    once either way; repeated calls in one process, such as `cli.main`
    called many times, skip the parse.
    """
    name = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    key = hashlib.sha256(data).digest()
    m = _loaded.get(key)
    if m is None:
        try:
            d = json.loads(data.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise InputDomainError(f"{name}: malformed matrix JSON ({exc})") from exc
        m = matrix_from_json_dict(d, name=name)
        m.flags.writeable = False
        _loaded.put(key, m)
    return as_hermitian(m, name) if hermitian else m.copy()
