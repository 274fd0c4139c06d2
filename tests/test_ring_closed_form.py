"""The ring closed form against its O(p^2) matrix reference.

``ring_tail_makespans`` prices a collapsed chunked-ring tail with two
cyclic sliding-window maxima and a difference array.  The reference below
is the matrix expression the replay engine used before: one row per
remaining step, one column per ring pair.  Both must agree exactly on
every makespan and every big-chunk count, ties and repeated totals
included, since the engine's bit identity rests on them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.fastpath import ring_tail_makespans


def reference(t_big, t_small, rem, s0):
    """The ``(p-1-s0) x p`` matrix form: step ``s`` sends pair ``i`` a big
    chunk when ``(i - s) % p < rem``."""
    p = len(t_big)
    idx = np.arange(p)
    s_arr = np.arange(s0, p - 1)
    is_big = ((idx[None, :] - s_arr[:, None]) % p) < rem
    makespans = np.where(
        is_big,
        np.array(t_big, dtype=np.float64)[None, :],
        np.array(t_small, dtype=np.float64)[None, :],
    ).max(axis=1).tolist()
    return makespans, is_big.sum(axis=0).tolist()


@st.composite
def ring_tails(draw):
    p = draw(st.integers(2, 1100))
    rem = draw(st.integers(1, p - 1))
    s0 = draw(st.integers(0, p - 2))
    # a small palette forces ties within and across the two chunk classes
    palette = draw(st.integers(1, 2 * p))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = (rng.random(palette) * 1e-3).tolist()
    t_big = [values[i] for i in rng.integers(0, palette, p)]
    if draw(st.booleans()):
        t_small = [values[i] for i in rng.integers(0, palette, p)]
    else:  # the small chunk ties or undercuts the big one on every pair
        factor = draw(st.sampled_from([1.0, 0.5]))
        t_small = [v * factor for v in t_big]
    return t_big, t_small, rem, s0


@settings(max_examples=150, deadline=None)
@given(ring_tails())
def test_closed_form_matches_matrix_reference(case):
    t_big, t_small, rem, s0 = case
    makespans, counts = ring_tail_makespans(t_big, t_small, rem, s0)
    want_makespans, want_counts = reference(t_big, t_small, rem, s0)
    assert [m.hex() for m in makespans] == [m.hex() for m in want_makespans]
    assert counts == want_counts
    assert all(type(c) is int for c in counts)


def test_every_rem_and_start_of_small_rings():
    """Exhaustive over ``p <= 12``: every ``rem`` and every ``s0``."""
    rng = np.random.default_rng(5)
    for p in range(2, 13):
        t_big = rng.random(p).tolist()
        t_small = [t_big[0]] * p  # one repeated total, tied with a big one
        for rem in range(1, p):
            for s0 in range(p - 1):
                assert ring_tail_makespans(t_big, t_small, rem, s0) == \
                    reference(t_big, t_small, rem, s0)
