import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordersketch.features as features_mod
from ordersketch import (
    EventMapKind,
    GradedTensor,
    Stream,
    apply_event_inplace,
    features_from_arrays,
    l1_level_norm,
    stream_features,
    truncated_product,
)

from util import (
    brute_force_oracle,
    count_subsequences,
    event_polynomial,
    four_event_stream,
    oracle_level,
    random_stream,
    scale_stream,
)

KINDS = [EventMapKind.LINEAR, EventMapKind.EXP]

# Frozen expected coordinates of the four-event running example
# ((1,a),(1.5,b),(1,b),(2,a)), verified against direct tuple enumeration.
# All values are exact binary floats, so comparisons are equality.
LINEAR_COORDS = {
    (): 1.0,
    (0,): 3.0,
    (1,): 2.5,
    (0, 0): 2.0,
    (0, 1): 2.5,
    (1, 0): 5.0,
    (1, 1): 1.5,
}
EXP_COORDS = {
    (): 1.0,
    (0,): 3.0,
    (1,): 2.5,
    (0, 0): 4.5,
    (0, 1): 2.5,
    (1, 0): 5.0,
    (1, 1): 3.125,
}


def test_worked_example_linear():
    phi = stream_features(four_event_stream(), EventMapKind.LINEAR, 2)
    for word, value in LINEAR_COORDS.items():
        assert phi.coordinate(word) == value


def test_worked_example_exp():
    phi = stream_features(four_event_stream(), EventMapKind.EXP, 2)
    for word, value in EXP_COORDS.items():
        assert phi.coordinate(word) == value


def test_worked_example_ba_coordinate_is_five():
    # The two b-events each pair with the later weight-2 a-event:
    # 1.5*2 + 1*2 = 5.  A hand expansion that drops one pairing yields 5.5;
    # the enumeration oracle pins the correct value.
    s = four_event_stream()
    assert brute_force_oracle(s, (1, 0), EventMapKind.LINEAR) == 5.0
    phi = stream_features(s, EventMapKind.LINEAR, 2)
    assert phi.coordinate((1, 0)) == 5.0
    assert phi.coordinate((1, 0)) != 5.5


# -- event polynomials ---------------------------------------------------------


def test_event_polynomial_linear():
    poly = event_polynomial((2.0, 1), EventMapKind.LINEAR, 3, 3)
    assert poly.coordinate(()) == 1.0
    assert poly.coordinate((1,)) == 2.0
    assert all(abs(v) == 0.0 for v in poly.levels[2]) and not poly.levels[3].any()


def test_event_polynomial_exp():
    poly = event_polynomial((2.0, 1), EventMapKind.EXP, 3, 3)
    assert poly.coordinate((1,)) == 2.0
    assert poly.coordinate((1, 1)) == 2.0  # 2**2 / 2!
    assert poly.coordinate((1, 1, 1)) == 8.0 / 6.0
    assert poly.coordinate((0, 1)) == 0.0


def test_event_polynomial_validation():
    with pytest.raises(ValueError):
        event_polynomial((1.0, 5), EventMapKind.EXP, 3, 2)
    with pytest.raises(ValueError):
        event_polynomial((-1.0, 0), EventMapKind.EXP, 3, 2)


@pytest.mark.parametrize("kind", KINDS)
def test_apply_event_matches_polynomial_product(kind):
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(20):
        n, depth = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        phi = GradedTensor(n, depth, [rng.uniform(0, 1, n**m) for m in range(depth + 1)])
        lam, letter = float(rng.uniform(0, 2)), int(rng.integers(0, n))
        expected = truncated_product(phi, event_polynomial((lam, letter), kind, n, depth))
        inplace = phi.copy()
        apply_event_inplace(inplace, (lam, letter), kind)
        assert inplace.allclose(expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_zero_weight_event_is_identity(kind):
    phi = stream_features(four_event_stream(), kind, 3)
    before = phi.copy()
    apply_event_inplace(phi, (0.0, 1), kind)
    assert phi.allclose(before, rtol=0, atol=0)


def test_empty_stream_gives_unit():
    s = Stream(np.array([]), np.array([], dtype=np.int64), 3)
    for kind in KINDS:
        assert stream_features(s, kind, 2).allclose(GradedTensor.unit(3, 2), rtol=0, atol=0)


# -- oracle equivalence --------------------------------------------------------


@st.composite
def small_streams(draw):
    n = draw(st.integers(1, 4))
    length = draw(st.integers(0, 10))
    lams = draw(
        st.lists(
            st.floats(0.1, 3.0, allow_nan=False, allow_infinity=False),
            min_size=length,
            max_size=length,
        )
    )
    letters = draw(st.lists(st.integers(0, n - 1), min_size=length, max_size=length))
    return Stream(np.array(lams), np.array(letters, dtype=np.int64), n)


@settings(max_examples=40)
@given(small_streams(), st.sampled_from(KINDS), st.integers(1, 4))
def test_fold_matches_enumeration(stream, kind, depth):
    phi = stream_features(stream, kind, depth)
    for m in range(depth + 1):
        level = oracle_level(stream, m, kind)
        dense = np.zeros(stream.alphabet_size**m)
        for word, value in level.items():
            idx = 0
            for a in word:
                idx = idx * stream.alphabet_size + a
            dense[idx] = value
        assert np.allclose(phi.levels[m], dense, rtol=1e-9, atol=1e-12)


def test_oracle_validates_letters():
    with pytest.raises(ValueError):
        brute_force_oracle(four_event_stream(), (0, 7), EventMapKind.LINEAR)


def test_linear_counts_subsequences_for_unit_weights():
    rng = np.random.Generator(np.random.PCG64(11))
    letters = rng.integers(0, 3, size=40)
    s = Stream(np.ones(40), letters, 3)
    phi = stream_features(s, EventMapKind.LINEAR, 3)
    for word in [(0,), (2, 1), (0, 1, 2), (1, 1, 1)]:
        assert phi.coordinate(word) == count_subsequences(letters.tolist(), list(word))


# -- structural laws -----------------------------------------------------------


def test_norm_identity_exp_and_bound_linear():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(25):
        s = random_stream(rng, int(rng.integers(1, 5)), int(rng.integers(0, 15)))
        mass = s.total_mass()
        exp_phi = stream_features(s, EventMapKind.EXP, 3)
        lin_phi = stream_features(s, EventMapKind.LINEAR, 3)
        for m in range(4):
            target = mass**m / math.factorial(m)
            assert l1_level_norm(exp_phi, m) == pytest.approx(target, rel=1e-9, abs=1e-12)
            assert l1_level_norm(lin_phi, m) <= target * (1 + 1e-12) + 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_scaling_acts_by_degree(kind):
    rng = np.random.Generator(np.random.PCG64(4))
    s = random_stream(rng, 3, 12)
    c = 1.7
    phi = stream_features(s, kind, 3)
    scaled = stream_features(scale_stream(s, c), kind, 3)
    for m in range(4):
        assert np.allclose(scaled.levels[m], c**m * phi.levels[m], rtol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_concat_homomorphism(kind):
    rng = np.random.Generator(np.random.PCG64(6))
    for _ in range(10):
        s = random_stream(rng, 3, 14)
        cut = int(rng.integers(0, 15))
        left, right = s.slice(0, cut), s.slice(cut, len(s))
        joined = truncated_product(
            stream_features(left, kind, 3), stream_features(right, kind, 3)
        )
        assert joined.allclose(stream_features(s, kind, 3), rtol=1e-12, atol=1e-12)


# -- batch builder -------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_batch_build_matches_fold(kind, depth):
    rng = np.random.Generator(np.random.PCG64(8))
    for length in (0, 1, 7, 200):
        s = random_stream(rng, 5, length)
        batch = features_from_arrays(s.lambdas, s.letters, 5, kind, depth)
        assert batch.allclose(stream_features(s, kind, depth), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_batch_build_chunk_boundaries(kind, monkeypatch):
    monkeypatch.setattr(features_mod, "_CHUNK", 7)
    rng = np.random.Generator(np.random.PCG64(9))
    s = random_stream(rng, 4, 45)
    batch = features_from_arrays(s.lambdas, s.letters, 4, kind, 2)
    assert batch.allclose(stream_features(s, kind, 2), rtol=1e-12, atol=1e-12)
