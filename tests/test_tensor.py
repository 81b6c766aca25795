import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordersketch import (
    GradedTensor,
    Stream,
    l1_level_norm,
    truncated_product,
    word_from_index,
    word_from_text,
    word_index,
    word_to_text,
)

from util import random_stream, scale_stream


# -- word indexing -----------------------------------------------------------


def test_word_index_examples():
    assert word_index((), 2) == (0, 0)
    assert word_index((0,), 2) == (1, 0)
    assert word_index((1, 0), 2) == (2, 2)
    assert word_index((0, 1), 2) == (2, 1)
    assert word_index((2, 0, 1), 3) == (3, 2 * 9 + 0 * 3 + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_word_index_round_trip_exhaustive(n):
    for level in range(4):
        for offset in range(n**level):
            word = word_from_index(level, offset, n)
            assert word_index(word, n) == (level, offset)


def test_word_index_rejects_foreign_letters():
    with pytest.raises(ValueError):
        word_index((0, 3), 3)
    with pytest.raises(ValueError):
        word_index((-1,), 3)
    with pytest.raises(ValueError):
        word_from_index(1, 5, 5)


def test_word_text_round_trip():
    for word in [(), (0,), (0, 1, 0), (12, 7)]:
        assert word_from_text(word_to_text(word)) == word
    assert word_from_text("") == ()
    with pytest.raises(ValueError):
        word_from_text("0.x.1")


# -- streams -----------------------------------------------------------------


def test_stream_validation():
    with pytest.raises(ValueError):
        Stream(np.array([1.0]), np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        Stream(np.array([-1.0]), np.array([0]), 2)
    with pytest.raises(ValueError):
        Stream(np.array([1.0]), np.array([2]), 2)
    with pytest.raises(ValueError):
        Stream(np.array([np.nan]), np.array([0]), 2)
    with pytest.raises(ValueError):
        Stream(np.array([]), np.array([]), 0)


def test_stream_basics():
    s = Stream.from_events([(1.0, 0), (2.5, 1)], 3)
    assert len(s) == 2
    assert s.total_mass() == 3.5
    assert [tuple(e) for e in s] == [(1.0, 0), (2.5, 1)]


def test_scale_stream():
    s = Stream.from_events([(1.0, 0), (2.0, 1)], 2)
    doubled = scale_stream(s, 2.0)
    assert np.array_equal(doubled.lambdas, [2.0, 4.0])
    assert np.array_equal(doubled.letters, s.letters)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            scale_stream(s, bad)


# -- graded tensors ----------------------------------------------------------


def test_tensor_shape_validation():
    with pytest.raises(ValueError):
        GradedTensor(2, 1, [np.zeros(1), np.zeros(3)])
    with pytest.raises(ValueError):
        GradedTensor(2, 1, [np.zeros(1)])
    with pytest.raises(ValueError):
        GradedTensor(2, 1, [])
    with pytest.raises(ValueError):
        GradedTensor(0, 1)


def test_unit_and_coordinate():
    one = GradedTensor.unit(3, 2)
    assert one.coordinate(()) == 1.0
    assert one.coordinate((2, 1)) == 0.0
    assert one.coordinate_count() == 1 + 3 + 9
    with pytest.raises(ValueError):
        one.coordinate((0, 0, 0))


def _random_tensor(rng, n, depth):
    return GradedTensor(n, depth, [rng.standard_normal(n**m) for m in range(depth + 1)])


def test_product_unit_identity():
    rng = np.random.Generator(np.random.PCG64(0))
    x = _random_tensor(rng, 3, 3)
    one = GradedTensor.unit(3, 3)
    for other in (truncated_product(x, one), truncated_product(one, x)):
        assert x.allclose(other, rtol=0, atol=0)


@given(st.integers(0, 2**32 - 1))
def test_product_associative(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    n, depth = int(rng.integers(1, 4)), int(rng.integers(0, 4))
    x, y, z = (_random_tensor(rng, n, depth) for _ in range(3))
    left = truncated_product(truncated_product(x, y), z)
    right = truncated_product(x, truncated_product(y, z))
    assert left.allclose(right, rtol=1e-12, atol=1e-12)


def test_product_grading():
    # a pure level-1 tensor squared lands in level 2 and vanishes above depth
    x = GradedTensor(2, 2, [np.zeros(1), np.array([1.0, 2.0]), np.zeros(4)])
    sq = truncated_product(x, x)
    assert np.array_equal(sq.levels[0], [0.0])
    assert np.array_equal(sq.levels[1], [0.0, 0.0])
    assert np.array_equal(sq.levels[2], [1.0, 2.0, 2.0, 4.0])
    shallow = GradedTensor(2, 1, [np.zeros(1), np.array([1.0, 2.0])])
    sq1 = truncated_product(shallow, shallow)
    assert np.array_equal(sq1.levels[1], [0.0, 0.0])  # level 2 truncated away


def test_product_concatenation_offsets():
    # coordinate of uv is the product of coordinates at the concatenated offset
    n = 3
    x = GradedTensor(n, 2)
    y = GradedTensor(n, 2)
    x.levels[1][1] = 5.0  # word (1,)
    y.levels[1][2] = 7.0  # word (2,)
    prod = truncated_product(x, y)
    assert prod.coordinate((1, 2)) == 35.0
    assert prod.coordinate((2, 1)) == 0.0


def test_product_shape_mismatch():
    with pytest.raises(ValueError):
        truncated_product(GradedTensor.unit(2, 2), GradedTensor.unit(3, 2))
    with pytest.raises(ValueError):
        truncated_product(GradedTensor.unit(2, 2), GradedTensor.unit(2, 3))
    # tensors of different shapes are never close, whatever the tolerance
    assert not GradedTensor.unit(2, 2).allclose(GradedTensor.unit(3, 2), rtol=1, atol=1)
    assert not GradedTensor.unit(2, 2).allclose(GradedTensor.unit(2, 3), rtol=1, atol=1)


def test_norms():
    x = GradedTensor(2, 2, [np.array([1.0]), np.array([-1.0, 2.0]), np.ones(4)])
    assert l1_level_norm(x, 0) == 1.0
    assert l1_level_norm(x, 1) == 3.0
    assert l1_level_norm(x, 2) == 4.0
    assert sum(l1_level_norm(x, m) for m in range(3)) == 8.0
    assert sum(l1_level_norm(x, m) for m in range(2)) == 4.0
    with pytest.raises(ValueError):
        l1_level_norm(x, 3)
    with pytest.raises(ValueError):
        l1_level_norm(x, 5)


def test_random_stream_helper_sane():
    rng = np.random.Generator(np.random.PCG64(1))
    s = random_stream(rng, 4, 10)
    assert len(s) == 10 and s.alphabet_size == 4
    assert s.lambdas.min() > 0
