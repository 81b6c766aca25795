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
    features_from_arrays,
    l1_level_norm,
    truncated_product,
    word_index,
)
from ordersketch.features import apply_event_inplace

from util import (
    brute_force_oracle,
    count_subsequences,
    event_polynomial,
    four_event_stream,
    oracle_level,
    random_stream,
    scale_stream,
    stream_features,
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
        batch = features_from_arrays(s.lambdas, s.letters, GradedTensor.unit(5, depth), kind)
        assert batch.allclose(stream_features(s, kind, depth), rtol=1e-12, atol=1e-12)


def seven_event_chunks(monkeypatch, alphabet_size):
    """Shrink the kernel's byte budget so that a chunk holds 7 events."""
    monkeypatch.setattr(features_mod, "_CHUNK_BYTES", 8 * alphabet_size * 7)


@pytest.mark.parametrize("kind", KINDS)
def test_batch_build_chunk_boundaries(kind, monkeypatch):
    seven_event_chunks(monkeypatch, 4)
    rng = np.random.Generator(np.random.PCG64(9))
    s = random_stream(rng, 4, 45)
    for depth in (1, 2, 3):
        batch = features_from_arrays(s.lambdas, s.letters, GradedTensor.unit(4, depth), kind)
        assert batch.allclose(stream_features(s, kind, depth), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_fold_onto_first_half_equals_whole(kind, depth):
    rng = np.random.Generator(np.random.PCG64(12))
    for length in (1, 9, 200):
        s = random_stream(rng, 5, length)
        cut = int(rng.integers(0, length + 1))
        left, right = s.slice(0, cut), s.slice(cut, length)
        phi = features_from_arrays(left.lambdas, left.letters, GradedTensor.unit(5, depth), kind)
        assert features_from_arrays(right.lambdas, right.letters, phi, kind) is phi
        assert phi.allclose(stream_features(s, kind, depth), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_fold_onto_any_tensor_is_the_product(kind, depth, monkeypatch):
    # level 0 need not be 1; small chunks make the fold span several
    seven_event_chunks(monkeypatch, 4)
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(5):
        phi = GradedTensor(4, depth, [rng.uniform(0, 2, 4**m) for m in range(depth + 1)])
        s = random_stream(rng, 4, 30)
        expected = truncated_product(phi, stream_features(s, kind, depth))
        features_from_arrays(s.lambdas, s.letters, phi, kind)
        assert phi.allclose(expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("short_chunks", [False, True])
def test_fold_zeros_are_exact_and_nothing_is_negative(kind, depth, short_chunks, monkeypatch):
    # A count-min estimate must never undershoot, so a coordinate that is 0
    # in the stream must fold to exactly 0, never to a +-1e-16 residue.
    # Letter 0 occurs once, first; letter 1 once, last; letter 2 once,
    # inside; letters 3 and 4 fill the rest.
    if short_chunks:
        seven_event_chunks(monkeypatch, 5)
    rng = np.random.Generator(np.random.PCG64(15))
    for _ in range(10):
        length = int(rng.integers(4, 13))
        letters = rng.integers(3, 5, size=length)
        letters[0], letters[-1], letters[int(rng.integers(1, length - 1))] = 0, 1, 2
        s = Stream(rng.uniform(0.1, 2.0, size=length), letters, 5)
        phi = features_from_arrays(s.lambdas, s.letters, GradedTensor.unit(5, depth), kind)
        for m in range(1, depth + 1):
            nonzero = np.zeros(5**m, dtype=bool)
            for word in oracle_level(s, m, kind):
                nonzero[word_index(word, 5)[1]] = True
            assert np.array_equal(phi.levels[m] != 0, nonzero)
            assert phi.levels[m].min() >= 0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_fold_rejects_bad_events_before_touching_phi(kind, depth):
    rng = np.random.Generator(np.random.PCG64(14))
    phi = stream_features(random_stream(rng, 3, 6), kind, depth)
    before = phi.copy()
    cases = [
        ([1.0, -1.0], [0, 1], "finite and nonnegative"),
        ([1.0, math.inf], [0, 1], "finite and nonnegative"),
        ([1.0, math.nan], [0, 1], "finite and nonnegative"),
        ([1.0, 1.0], [0, 3], "outside alphabet"),
        ([1.0], [0, 1], "equal length"),
    ]
    for lams, letters, needle in cases:
        lams, letters = np.array(lams), np.array(letters)
        with pytest.raises(ValueError, match=needle) as want:
            Stream(lams, letters, 3)
        with pytest.raises(ValueError) as got:
            features_from_arrays(lams, letters, phi, kind)
        assert str(got.value) == str(want.value)
        for level, old in zip(phi.levels, before.levels):
            assert np.array_equal(level, old)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", KINDS)
def test_depth_four_overflow_lands_in_phi_without_raising(kind):
    # as at depth <= 3, the per-event step leaves the overflow for the caller's check
    phi = features_from_arrays([1e200, 1e200], [0, 1], GradedTensor.unit(2, 4), kind)
    assert not all(np.isfinite(level).all() for level in phi.levels)
