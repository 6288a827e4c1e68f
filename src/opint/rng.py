"""Reproducible random streams.

Every randomized experiment in the package draws from a Philox
counter-based generator keyed by (seed, module tag, trial index), so
trials can run in any order or in parallel and still reproduce exactly.
`substreams` makes the generators of many trials of one (seed, tag), and
`substream` is its one-trial case.

`trial_blocks` is the one rule that cuts a seeded experiment's trials into
blocks: the suite's checks and `doi`'s sampled experiments draw and compute
a block at a time, so their memory stays flat in the trial count.

The stacked draws read a list of generators at once.  `complex_stacks(rngs,
count, shape)` gives what `count` successive `random_complex(rng, shape)`
calls give from each generator, and `hermitian_stacks` what successive
`random_hermitian` calls give.  Each generator fills all of its draws with
one `standard_normal` call, and is read in the order the per-call draws
read it: the real parts of draw 1, its imaginary parts, then those of draw
2, and so on.  A stacked draw and per-call draws therefore give the same
bits and leave the generator in the same state.  `random_complex` and
`random_hermitian` are the one-generator, one-draw case.
"""

from __future__ import annotations

import functools
import hashlib
from numbers import Integral

import numpy as np

from .errors import InputDomainError
from .linalg import adjoint

SEED_MASK = 2**64 - 1  # a seed is taken modulo 2**64, so -1 is 2**64 - 1
_WORD_MASK = 2**32 - 1
_POOL_WORDS = 4  # numpy's SeedSequence pool size, in 32-bit words

# Bytes that `trial_blocks` allows a block's stacked arithmetic: stacking
# amortizes numpy's per-call overhead, which dominates at small dims, and the
# budget keeps the stacks from growing with the trial count.  A caller that
# keeps a block's arrays while it draws the next (a suite check's loop
# variables do) holds two blocks, so its footprint reaches twice the budget.
# The suite's and the CLI's default configs (dims 2-8, 20 trials) are one block.
BLOCK_BYTES = 1 << 20
# bytes of stacked arithmetic per byte drawn: the operands' copy, their
# symmetrized copy and eigenvectors, and one stack of products at a time
WORKING_SET = 4


@functools.lru_cache(maxsize=256)  # each tag is hashed once per process
def _tag_key(tag: str) -> int:
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _words(n: int) -> list:
    """The 32-bit words of an integer n >= 0, least significant first, one
    word for 0: how `SeedSequence` splits an entropy integer."""
    words = [n & _WORD_MASK]
    n >>= 32
    while n:
        words.append(n & _WORD_MASK)
        n >>= 32
    return words


def _integer(value, name: str) -> int:
    if type(value) is int:  # skips the slower `Integral` check; a bool is not an int here
        return value
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise InputDomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def substreams(seed: int, tag: str, trials) -> list:
    """The generators `substream(seed, tag, trial)` of each trial of
    `trials`, in order.

    The entropy words of (seed, tag) are assembled once: the words of
    seed & SEED_MASK, zero-padded to the pool size, then those of the tag's
    key.  Each trial's `SeedSequence` mixes them followed by the trial's own
    words, the pool that `SeedSequence(seed & SEED_MASK, spawn_key=(tag key,
    trial))` mixes, so every stream is bit-identical to that one.
    """
    if not isinstance(tag, str):
        raise InputDomainError(f"tag must be a str, got {type(tag).__name__}")
    seed_words = _words(_integer(seed, "seed") & SEED_MASK)
    head = seed_words + [0] * (_POOL_WORDS - len(seed_words)) + _words(_tag_key(tag))
    generators = []
    for trial in trials:
        trial = _integer(trial, "trial")
        if trial < 0:
            raise InputDomainError(f"trial must be a non-negative integer, got {trial}")
        entropy = np.array(head + _words(trial), dtype=np.uint32)
        generators.append(np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy))))
    return generators


def substream(seed: int, tag: str, trial: int = 0) -> np.random.Generator:
    """Independent generator for one trial of one named experiment."""
    return substreams(seed, tag, (trial,))[0]


def trial_blocks(count: int, dims, matrices: int):
    """Blocks of the trials 0..count-1, consecutive and in order, each a dict
    from dim to its trials, trial t at dims[t % len(dims)].  A block ends where
    `WORKING_SET` times the bytes of `matrices` dim x dim complex matrices per
    trial would pass BLOCK_BYTES; a trial over the budget is a block alone."""
    block, size = {}, 0
    for trial in range(count):
        dim = dims[trial % len(dims)]
        cost = WORKING_SET * matrices * 16 * dim * dim
        if block and size + cost > BLOCK_BYTES:
            yield block
            block, size = {}, 0
        block.setdefault(dim, []).append(trial)
        size += cost
    if block:
        yield block


def complex_stacks(rngs, count: int, shape) -> np.ndarray:
    """(count, k, *shape): draw j of each of the k generators `rngs` at [j],
    as `count` successive `random_complex(rng, shape)` calls give them."""
    shape = tuple(shape) if np.iterable(shape) else (shape,)
    normals = np.empty((len(rngs), count, 2, *shape))
    for rng, out in zip(rngs, normals):
        rng.standard_normal(out=out)
    parts = normals.swapaxes(0, 1)
    draws = np.multiply(1j, parts[:, :, 1], out=np.empty(parts.shape[:2] + shape, complex))
    draws += parts[:, :, 0]  # the bits of re + 1j * im
    return draws


def hermitian_part(g: np.ndarray) -> np.ndarray:
    """(G + G*) / 2 of a matrix, or of each matrix of a stack."""
    return (g + adjoint(g)) / 2.0


def hermitian_stacks(rngs, count: int, dim: int) -> np.ndarray:
    """(count, k, dim, dim): `count` successive `random_hermitian(rng, dim)`
    draws of each of the k generators `rngs`, as `complex_stacks` orders them."""
    return hermitian_part(complex_stacks(rngs, count, (dim, dim)))


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return complex_stacks([rng], 1, shape)[0, 0]


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return hermitian_stacks([rng], 1, dim)[0, 0]


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = random_complex(rng, dim)
    return v / np.linalg.norm(v)
