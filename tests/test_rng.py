import hashlib

import numpy as np
import pytest

from opint import errors, rng


def _uncached_stream(seed, tag, trial):
    """The substream built from the sha256 of its tag, with no cache."""
    key = int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "big")
    ss = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(key, trial))
    return np.random.Generator(np.random.Philox(ss))


def test_streams_for_fixed_tags_are_bit_identical_with_each_tag_hashed_once():
    rng._tag_key.cache_clear()
    tags = ["suite-eig", "cli-peller-norm", "lipschitz", "ünïcode tag", ""]
    for seed in (0, 42, 2**64 - 1, -1):
        for tag in tags:
            for trial in (0, 1, 19):
                expected = _uncached_stream(seed, tag, trial).standard_normal(8)
                for _ in range(2):
                    got = rng.substream(seed, tag, trial).standard_normal(8)
                    assert got.tobytes() == expected.tobytes(), (seed, tag, trial)
    info = rng._tag_key.cache_info()
    assert info.misses == len(tags) and info.maxsize is not None


SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1)
TRIALS = (0, 1, 2**32 - 1, 2**40)


def _spawned_stream(seed, key, trial):
    """The generator of (seed, tag key, trial) as a spawned SeedSequence."""
    ss = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(key, trial))
    return np.random.Generator(np.random.Philox(ss))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", [rng._tag_key("suite-eig"), 2**32 - 5, 7, 0],
                         ids=["sha256", "one-word", "small", "zero"])
def test_substreams_match_the_spawned_seed_sequence(monkeypatch, seed, key):
    # a key below 2**32 is one entropy word, the sha256 key of a tag two;
    # every seed here is zero-padded to the pool of four words
    monkeypatch.setattr(rng, "_tag_key", lambda tag: key)
    generators = rng.substreams(seed, "any tag", TRIALS)
    assert len(generators) == len(TRIALS)
    for trial, generator in zip(TRIALS, generators):
        expected = _spawned_stream(seed, key, trial).standard_normal(6)
        assert generator.standard_normal(6).tobytes() == expected.tobytes(), (seed, key, trial)
        assert (rng.substream(seed, "any tag", trial).standard_normal(6).tobytes()
                == expected.tobytes())


def test_substreams_of_no_trials_is_empty():
    assert rng.substreams(3, "tag", range(0)) == []


@pytest.mark.parametrize("seed", [1.7, 1.0, True, np.True_, "1", None, np.float64(2)],
                         ids=["float", "integral-float", "bool", "numpy-bool", "str", "none",
                              "numpy-float"])
def test_substream_refuses_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(errors.InputDomainError, match="^seed must be an integer"):
        rng.substream(seed, "tag", 0)
    with pytest.raises(errors.InputDomainError, match="^seed must be an integer"):
        rng.substreams(seed, "tag", [0])


@pytest.mark.parametrize("trial", [1.5, 1.0, True, False, "0", None, np.float32(1)],
                         ids=["float", "integral-float", "true", "false", "str", "none",
                              "numpy-float"])
def test_substream_refuses_a_trial_that_is_not_an_integer(trial):
    with pytest.raises(errors.InputDomainError, match="^trial must be an integer"):
        rng.substream(1, "tag", trial)
    with pytest.raises(errors.InputDomainError, match="^trial must be an integer"):
        rng.substreams(1, "tag", [0, trial])


@pytest.mark.parametrize("trial", [-1, -2**40, np.int64(-3)])
def test_substream_refuses_a_negative_trial(trial):
    with pytest.raises(errors.InputDomainError, match="^trial must be a non-negative integer"):
        rng.substream(1, "tag", trial)


@pytest.mark.parametrize("tag", [b"suite-eig", 3, None, ["suite-eig"]],
                         ids=["bytes", "int", "none", "list"])
def test_substream_refuses_a_tag_that_is_not_a_str(tag):
    with pytest.raises(errors.InputDomainError, match="^tag must be a str"):
        rng.substream(1, tag, 0)


def test_substream_takes_numpy_integers_and_masks_the_seed():
    expected = _uncached_stream(2**64 - 5, "tag", 3).standard_normal(4).tobytes()
    for seed in (-5, np.int64(-5), 2**64 - 5, np.uint64(2**64 - 5), 2**65 + 2**64 - 5):
        for trial in (3, np.int32(3), np.uint64(3)):
            assert rng.substream(seed, "tag", trial).standard_normal(4).tobytes() == expected


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("dim", [1, 2, 8])
@pytest.mark.parametrize("matrix", [False, True], ids=["vector", "matrix"])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_stacked_draws_equal_successive_draws_per_generator(k, dim, matrix, count):
    shape = (dim, dim) if matrix else dim
    stacked = rng.complex_stacks(rng.substreams(5, "stacked", range(k)), count, shape)
    per_call = [rng.substream(5, "stacked", trial) for trial in range(k)]
    expected = np.array([[rng.random_complex(g, shape) for _ in range(count)]
                         for g in per_call]).swapaxes(0, 1)
    assert stacked.shape == (count, k, *np.atleast_1d(shape))
    assert stacked.flags.c_contiguous
    assert stacked.tobytes() == expected.tobytes()
    # the reference is the parent formula, and each generator goes on where it left off
    again = [rng.substream(5, "stacked", trial) for trial in range(k)]
    for trial, g in enumerate(again):
        for j in range(count):
            parts = g.standard_normal(shape), g.standard_normal(shape)
            assert stacked[j, trial].tobytes() == (parts[0] + 1j * parts[1]).tobytes()
    if matrix:
        hermitian = rng.hermitian_stacks(rng.substreams(5, "stacked", range(k)), count, dim)
        per_call = [rng.substream(5, "stacked", trial) for trial in range(k)]
        expected = np.array([[rng.random_hermitian(g, dim) for _ in range(count)]
                             for g in per_call]).swapaxes(0, 1)
        assert hermitian.tobytes() == expected.tobytes()
        again = [rng.substream(5, "stacked", trial) for trial in range(k)]
        for trial, g in enumerate(again):
            for j in range(count):
                m = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
                assert hermitian[j, trial].tobytes() == ((m + m.conj().T) / 2.0).tobytes()


def _cost(dim, matrices):
    return rng.WORKING_SET * matrices * 16 * dim * dim


@pytest.mark.parametrize("count, dims, matrices, budget", [
    (20, [2, 4, 6, 8], 2, None),      # the default config: one block
    (3, [128], 2, None),              # each trial over the budget
    (9, [1, 3, 5, 16], 1, None),
    (40, [2, 2, 5, 8, 3], 3, 4000),   # several blocks, dims repeated
    (17, [64, 2, 200, 8], 1, None),   # over-budget trials among small ones
    (7, [4], 4, 1),                   # every trial over the budget
    (1, [8], 2, None),
])
def test_trial_blocks_partition_the_trials_in_order_within_the_budget(
        monkeypatch, count, dims, matrices, budget):
    if budget is not None:
        monkeypatch.setattr(rng, "BLOCK_BYTES", budget)
    blocks = list(rng.trial_blocks(count, dims, matrices))
    # each block's trials, in trial order, are the next run of consecutive trials
    runs = [sorted(t for trials in block.values() for t in trials) for block in blocks]
    assert sum(runs, []) == list(range(count))
    for block in blocks:
        for dim, trials in block.items():
            assert trials == sorted(trials)
            assert all(dims[t % len(dims)] == dim for t in trials)
    for run, following in zip(runs, runs[1:] + [None]):
        size = sum(_cost(dims[t % len(dims)], matrices) for t in run)
        # within the budget, or one trial alone over it
        assert size <= rng.BLOCK_BYTES or len(run) == 1, run
        if following is not None:  # cut only where the next trial would pass the budget
            assert size + _cost(dims[following[0] % len(dims)], matrices) > rng.BLOCK_BYTES


def test_trial_blocks_put_an_over_budget_trial_in_a_block_alone():
    # dims 2, 300, 2, 2: trial 1 costs 11.5 MB against the 1 MiB budget
    blocks = list(rng.trial_blocks(6, [2, 300, 2, 2], 2))
    assert blocks == [{2: [0]}, {300: [1]}, {2: [2, 3, 4]}, {300: [5]}]


def test_trial_blocks_of_no_trials_is_no_block():
    assert list(rng.trial_blocks(0, [8], 2)) == []
