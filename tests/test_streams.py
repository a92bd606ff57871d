"""Replicate streams derived in one pass against the per-path SeedSequence oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_ustats._streams import _cell_streams, spawn_rng, stream_token

EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 3)
EDGE_INDICES = (0, 1, 2**32 - 1, 2**32, 2**33 + 5)


def _cell_draws(rng, dim):
    # three uint32 draws in all, one of them first: the half-word the third
    # leaves cached would come out as the next cell's first value if it leaked
    head = rng.integers(0, 2**32, size=1, dtype=np.uint32).tolist()
    small = int(rng.poisson(3.5))
    large = int(rng.poisson(25.0))
    points = rng.random((small, dim)).tolist()
    tail = rng.integers(0, 2**32, size=2, dtype=np.uint32).tolist()
    return head, small, large, points, tail


def _assert_matches_oracle(seed, prefix, indices, dim=2):
    for r, (token, rng) in zip(indices, _cell_streams(seed, prefix, indices), strict=True):
        assert token == stream_token(seed, *prefix, r)
        assert _cell_draws(rng, dim) == _cell_draws(spawn_rng(seed, *prefix, r), dim)


parts = st.one_of(
    st.text(max_size=8),
    st.integers(0, 2**16),
    st.sampled_from((2**32 - 1, 2**32, 2**33 + 5, 2**64 + 1)),
)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("prefix", [(), (0,), ("sylvester",), (2**32, "r-terms"), (3, 2**40 + 7)])
def test_cell_streams_match_spawn_rng_at_word_boundaries(seed, prefix):
    _assert_matches_oracle(seed, prefix, EDGE_INDICES)


@given(
    seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**70)),
    prefix=st.lists(parts, max_size=3).map(tuple),
    indices=st.lists(st.one_of(st.integers(0, 300), st.sampled_from(EDGE_INDICES)), max_size=6),
    dim=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_cell_streams_match_spawn_rng(seed, prefix, indices, dim):
    _assert_matches_oracle(seed, prefix, indices, dim)


def test_cell_streams_of_no_indices_is_empty():
    assert list(_cell_streams(5, ("x",), [])) == []


@pytest.mark.parametrize("seed, prefix, indices", [(-1, (), [0]), (0, (-1,), [0]), (0, (1,), [0, -2])])
def test_cell_streams_reject_negative_parts(seed, prefix, indices):
    with pytest.raises(ValueError, match="must be non-negative"):
        _cell_streams(seed, prefix, indices)
    # the per-path oracle refuses the same path
    with pytest.raises(ValueError, match="non-negative"):
        for r in indices:
            spawn_rng(seed, *prefix, r)
