"""Column sampling: distribution, determinism, selection/gather agreement."""

from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nystromlab import (
    ColumnSample,
    RngSeed,
    SymMatrix,
    sample_uniform,
)

from helpers import extract_cw, gram_psd, sample_uniform_loop, selection_matrix


def test_full_sample_is_permutation():
    for stream in range(50):
        s = sample_uniform(5, 5, RngSeed(99, stream))
        assert sorted(s.indices) == [0, 1, 2, 3, 4]


def test_single_element_universe():
    assert sample_uniform(1, 1, RngSeed(0, 0)).indices == (0,)


def test_sample_size_validation():
    with pytest.raises(ValueError):
        sample_uniform(4, 0, RngSeed(0, 0))
    with pytest.raises(ValueError):
        sample_uniform(4, 5, RngSeed(0, 0))
    with pytest.raises(ValueError):
        sample_uniform(0, 1, RngSeed(0, 0))


def test_uniformity_over_pairs():
    # n=4, l=2: each of the 6 unordered pairs should appear ~1/6 of the time.
    counts = {frozenset(p): 0 for p in combinations(range(4), 2)}
    trials = 40000
    for stream in range(trials):
        s = sample_uniform(4, 2, RngSeed(123, stream))
        counts[frozenset(s.indices)] += 1
    for pair, count in counts.items():
        freq = count / trials
        assert abs(freq - 1.0 / 6.0) < 0.01, f"pair {sorted(pair)}: frequency {freq:.4f}"


def test_determinism_repeat_and_threaded():
    seed = RngSeed(2024, 7)
    first = sample_uniform(50, 12, seed)
    assert sample_uniform(50, 12, seed).indices == first.indices
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: sample_uniform(50, 12, seed).indices, range(32)))
    assert all(r == first.indices for r in results)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 2048),
    frac=st.floats(0, 1),
    master=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**64 - 1),
)
def test_one_draw_matches_scalar_draws(n, frac, master, stream):
    # one vectorised integers call reads the stream as l scalar calls do
    l = max(1, round(frac * n))
    seed = RngSeed(master, stream)
    assert sample_uniform(n, l, seed).indices == sample_uniform_loop(n, l, seed)


def test_distinct_streams_differ():
    a = sample_uniform(64, 16, RngSeed(5, 0)).indices
    b = sample_uniform(64, 16, RngSeed(5, 1)).indices
    assert a != b  # astronomically unlikely to collide


def test_column_sample_validation():
    with pytest.raises(ValueError):
        ColumnSample(n=4, indices=(0, 0))
    with pytest.raises(ValueError):
        ColumnSample(n=4, indices=(4,))
    with pytest.raises(ValueError):
        ColumnSample(n=4, indices=())
    with pytest.raises(ValueError):
        ColumnSample(n=0, indices=(0,))


@pytest.mark.parametrize("n", [2.5, 2.0, True, "2", None])
def test_column_sample_n_must_be_an_integer(n):
    with pytest.raises(ValueError, match=r"^n must be an integer, got "):
        ColumnSample(n=n, indices=(0,))


def test_column_sample_accepts_a_numpy_integer_n():
    assert ColumnSample(n=np.int64(3), indices=(0, 2)).l == 2


def test_rng_seed_validation():
    with pytest.raises(ValueError):
        RngSeed(-1, 0)
    with pytest.raises(ValueError):
        RngSeed(0, 2**64)


def test_selection_matrix_columns():
    s = selection_matrix(ColumnSample(n=3, indices=(0, 2)))
    assert np.array_equal(s, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(s.T @ s, np.eye(2))


def test_selection_matrix_matches_gather():
    rng = np.random.default_rng(3)
    a = gram_psd(6, rng)
    sample = ColumnSample(n=6, indices=(4, 0, 3))
    s = selection_matrix(sample)
    c, w = extract_cw(a, sample)
    # the product route and the gather route agree to round-off (the gather
    # itself is exact; the product is 0/1 arithmetic, so they match exactly)
    assert np.array_equal(a.entries @ s, c)
    assert np.max(np.abs(s.T @ a.entries @ s - w.entries)) < 1e-12


def test_extract_cw_identity_single_column():
    c, w = extract_cw(SymMatrix(np.eye(4)), ColumnSample(n=4, indices=(1,)))
    assert np.array_equal(c, np.array([[0.0], [1.0], [0.0], [0.0]]))
    assert np.array_equal(w.entries, np.array([[1.0]]))


def test_extract_cw_diagonal_full():
    c, w = extract_cw(SymMatrix(np.diag([2.0, 3.0])), ColumnSample(n=2, indices=(0, 1)))
    assert np.array_equal(c, np.diag([2.0, 3.0]))
    assert np.array_equal(w.entries, np.diag([2.0, 3.0]))
