"""The random stream against numpy, draw for draw.

``scldpc.probability`` reproduces ``numpy.random.default_rng`` in pure
Python: ``SeedSequence`` (entropy and spawn-key hash-mix, the state it
generates), PCG64 and the int64 ``integers`` fill.  numpy is the oracle
here and is not imported by the package.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scldpc.probability import (SeedSequence, recorded_seed, rng, seed_int,
                                seed_sequence)

_I63 = 1 << 63

seeds = st.one_of(st.integers(0, 2 ** 32), st.integers(0, 2 ** 200))
spawn_keys = st.lists(st.integers(0, 2 ** 32 - 1), max_size=3).map(tuple)

# (low, high) in each of numpy's five bounded-fill branches, by the width
# high - 1 - low of the closed range: 0; below 2**32 - 1 (Lemire over
# 32-bit words); 2**32 - 1 (raw 32-bit words); below 2**64 - 1 (Lemire
# over 64-bit words); 2**64 - 1 (raw 64-bit words).
bounds = st.one_of(
    st.just((0, 1)),
    st.integers(2, 2 ** 32 - 1).map(lambda h: (0, h)),
    st.just((0, 2 ** 32)),
    st.integers(2 ** 32 + 1, _I63).map(lambda h: (0, h)),
    st.just((-_I63, _I63)),
    st.sampled_from([(0, 2 ** 32 - 1), (0, 2 ** 32 + 1), (0, _I63 - 1),
                     (-5, 3), (-(2 ** 40), 2 ** 40)]),
    # Lemire rejects about half, a quarter of the words here.
    st.sampled_from([(0, 2 ** 31 + 1), (0, 2 ** 62 + 1)]),
)
sizes = st.integers(0, 40)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, key=spawn_keys)
def test_seed_sequence_matches_numpy(seed, key):
    ref = np.random.SeedSequence(seed, spawn_key=key)
    mine = seed_sequence(seed, *key)
    assert mine.pool == tuple(ref.pool.tolist())
    # A key appended to a stream mixes into that stream's kept state.
    assert seed_sequence(seed_sequence(seed), *key).pool == mine.pool
    assert mine.generate_state(5) == \
        ref.generate_state(5, np.uint64).tolist()
    assert seed_int(mine) == seed_int(ref) == \
        int(ref.generate_state(1, np.uint64)[0])


@settings(max_examples=100, deadline=None)
@given(seed=seeds, key=spawn_keys, n=st.integers(1, 5))
def test_seed_int_of_spawned_children_matches_numpy(seed, key, n):
    """Child i of a fresh stream is the stream with i appended to its key."""
    children = np.random.SeedSequence(seed, spawn_key=key).spawn(n)
    expect = [int(c.generate_state(1, np.uint64)[0]) for c in children]
    assert [seed_int(seed_sequence(seed, *key, i)) for i in range(n)] == \
        expect
    parent = seed_sequence(seed, *key)
    assert [seed_int(seed_sequence(parent, i)) for i in range(n)] == expect
    numpy_parent = np.random.SeedSequence(seed, spawn_key=key)
    assert [seed_int(seed_sequence(numpy_parent, i)) for i in range(n)] == \
        expect
    assert numpy_parent.n_children_spawned == 0


@settings(max_examples=200, deadline=None)
@given(seed=seeds, key=spawn_keys,
       calls=st.lists(st.tuples(bounds, sizes), max_size=12))
def test_integers_match_numpy_draw_for_draw(seed, key, calls):
    """One generator, many calls: odd sizes leave half a 64-bit word
    buffered, and 32-bit and 64-bit widths interleave around it."""
    ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    gen = rng(seed_sequence(seed, *key))
    for (low, high), size in calls:
        assert gen.integers(low, high, size) == \
            ref.integers(low, high, size=size).tolist()
    assert gen.integers(0, 2 ** 32 - 1, 3) == \
        ref.integers(0, 2 ** 32 - 1, size=3).tolist()


def test_half_word_carry_crosses_calls():
    """A 32-bit draw keeps the unused half of its 64-bit word for the next
    32-bit draw, even across 64-bit draws in between."""
    ref, gen = np.random.default_rng(3), rng(3)
    for low, high, size in [(0, 7, 1), (0, 2 ** 40, 2), (0, 2 ** 32, 1),
                            (0, 5, 3), (-_I63, _I63, 1), (0, 9, 1)]:
        assert gen.integers(low, high, size) == \
            ref.integers(low, high, size=size).tolist()


def test_rng_accepts_numpy_seeds():
    assert rng(np.int64(9)).integers(0, 100, 20) == \
        np.random.default_rng(9).integers(0, 100, size=20).tolist()
    ss = np.random.SeedSequence(11, spawn_key=(2, 7))
    assert rng(ss).integers(0, 1000, 20) == \
        np.random.default_rng(ss).integers(0, 1000, size=20).tolist()
    assert (recorded_seed(np.int64(9)), recorded_seed(ss)) == (9, None)
    with pytest.raises(ValueError, match="pool size"):
        rng(np.random.SeedSequence(11, pool_size=8))


def test_seed_sequence_appends_the_key_and_changes_nothing():
    parent = SeedSequence(4, (1,))
    assert seed_sequence(parent) is parent
    child = seed_sequence(parent, 2, 3)
    assert (child.entropy, child.spawn_key) == (4, (1, 2, 3))
    assert (parent.entropy, parent.spawn_key) == (4, (1,))


@pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
def test_bad_seeds_are_rejected(seed):
    with pytest.raises((TypeError, ValueError)):
        rng(seed)


@pytest.mark.parametrize("low, high", [(0, 0), (3, 3), (5, 2),
                                       (-_I63 - 1, 0), (0, _I63 + 1)])
def test_bad_bounds_are_rejected(low, high):
    with pytest.raises(ValueError):
        np.random.default_rng(0).integers(low, high, size=1)
    with pytest.raises(ValueError):
        rng(0).integers(low, high, 1)
