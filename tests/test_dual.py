import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordersketch import (
    EventMapKind,
    LinearFunctional,
    Stream,
    infiltration_product,
    pairing,
    shuffle_product,
    word_from_text,
)

from util import expand_by_positions, four_event_stream, random_stream, stream_features

# Frozen two-letter expansions over alphabet {a=0, b=1}, checked against the
# position-subset oracle in util.expand_by_positions before being pinned here.
AB = LinearFunctional.from_word((0, 1))
BA = LinearFunctional.from_word((1, 0))

SHUFFLE_AB_BA = {
    (0, 1, 0, 1): 1.0,
    (0, 1, 1, 0): 2.0,
    (1, 0, 0, 1): 2.0,
    (1, 0, 1, 0): 1.0,
}
INFILTRATION_AB_BA = {
    (0, 1, 0): 1.0,
    (1, 0, 1): 1.0,
    (0, 1, 0, 1): 1.0,
    (0, 1, 1, 0): 2.0,
    (1, 0, 0, 1): 2.0,
    (1, 0, 1, 0): 1.0,
}


def test_functional_basics():
    f = LinearFunctional({(0, 1): 2.0, (2,): -1.0, (1,): 0.0})
    assert f.terms[(0, 1)] == 2.0
    assert (1,) not in f.terms  # zero terms are dropped
    assert f.max_length() == 2
    assert LinearFunctional.from_word(word_from_text("0.1")).terms == {(0, 1): 1.0}


def test_shuffle_frozen_expansion():
    assert shuffle_product(AB, BA).terms == SHUFFLE_AB_BA


def test_shuffle_leading_term_is_abab_not_abba():
    # The lexicographically-first word in the support is abab with
    # coefficient 1; abba carries coefficient 2.
    result = shuffle_product(AB, BA).terms
    first = min(result)
    assert first == (0, 1, 0, 1)
    assert result[first] == 1.0
    assert result[(0, 1, 1, 0)] == 2.0


def test_infiltration_frozen_expansion():
    assert infiltration_product(AB, BA).terms == INFILTRATION_AB_BA


@st.composite
def short_words(draw):
    length = draw(st.integers(0, 4))
    return tuple(draw(st.lists(st.integers(0, 2), min_size=length, max_size=length)))


@settings(max_examples=50)
@given(short_words(), short_words())
def test_shuffle_matches_position_oracle(u, v):
    got = shuffle_product(LinearFunctional.from_word(u), LinearFunctional.from_word(v))
    assert got.terms == expand_by_positions(u, v, infiltration=False)


@settings(max_examples=50)
@given(short_words(), short_words())
def test_infiltration_matches_position_oracle(u, v):
    got = infiltration_product(
        LinearFunctional.from_word(u), LinearFunctional.from_word(v)
    )
    assert got.terms == expand_by_positions(u, v, infiltration=True)


@pytest.mark.parametrize("product", [shuffle_product, infiltration_product])
def test_product_commutative_and_unital(product):
    unit = LinearFunctional.from_word(())
    for u, v in [((0,), (1, 2)), ((0, 1), (0, 1)), ((2, 2), (1,))]:
        fu, fv = LinearFunctional.from_word(u), LinearFunctional.from_word(v)
        assert product(fu, fv).terms == product(fv, fu).terms
        assert product(fu, unit).terms == fu.terms


@pytest.mark.parametrize("product", [shuffle_product, infiltration_product])
def test_product_associative(product):
    words = [(0,), (1, 0), (0, 1)]
    fs = [LinearFunctional.from_word(w) for w in words]
    left = product(product(fs[0], fs[1]), fs[2])
    right = product(fs[0], product(fs[1], fs[2]))
    assert left.terms == right.terms


def test_product_bilinear():
    f = LinearFunctional({(0,): 2.0, (1,): 1.0})
    g = LinearFunctional.from_word((1, 0))
    split: dict = {}
    for word, c in f.terms.items():
        for w, v in shuffle_product(LinearFunctional.from_word(word), g).terms.items():
            split[w] = split.get(w, 0.0) + c * v
    assert shuffle_product(f, g).terms == split


def test_shuffle_grading():
    out = shuffle_product(LinearFunctional.from_word((0, 1)), LinearFunctional.from_word((1,)))
    assert all(len(w) == 3 for w in out.terms)
    # infiltration mixes lengths max(|u|,|v|) .. |u|+|v|
    inf = infiltration_product(
        LinearFunctional.from_word((0, 1)), LinearFunctional.from_word((1,))
    )
    assert {len(w) for w in inf.terms} == {2, 3}


# -- duality against the feature maps ------------------------------------------
#
# For the multiplicative feature maps, pairing against a product of
# functionals factors through the matching word-space product:
#   exp map    <-> shuffle
#   linear map <-> infiltration


def _duality_case(stream, u, v, kind, product):
    depth = len(u) + len(v)
    phi = stream_features(stream, kind, depth)
    fu, fv = LinearFunctional.from_word(u), LinearFunctional.from_word(v)
    lhs = pairing(product(fu, fv), phi)
    rhs = pairing(fu, phi) * pairing(fv, phi)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_shuffle_duality_worked_example():
    _duality_case(four_event_stream(), (0, 1), (1, 0), EventMapKind.EXP, shuffle_product)


def test_infiltration_duality_worked_example():
    # Infiltration duality is a counting identity: it needs unit weights
    # (overlapped positions would otherwise contribute lambda^2 vs lambda).
    s = Stream.from_events([(1.0, 0), (1.0, 1), (1.0, 1), (1.0, 0)], alphabet_size=2)
    _duality_case(s, (0, 1), (1, 0), EventMapKind.LINEAR, infiltration_product)


def test_infiltration_duality_needs_unit_weights():
    # Single event (2, a): <a,phi>^2 = 4 but <a inf a, phi> = <2aa + a, phi> = 2.
    s = Stream.from_events([(2.0, 0)], alphabet_size=1)
    phi = stream_features(s, EventMapKind.LINEAR, 2)
    f = LinearFunctional.from_word((0,))
    assert pairing(f, phi) ** 2 == 4.0
    assert pairing(infiltration_product(f, f), phi) == 2.0


def _random_word(rng, n, max_len=2):
    length = int(rng.integers(0, max_len + 1))
    return tuple(int(x) for x in rng.integers(0, n, length))


def test_shuffle_duality_random_streams():
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(25):
        s = random_stream(rng, int(rng.integers(2, 4)), int(rng.integers(0, 9)))
        u, v = _random_word(rng, s.alphabet_size), _random_word(rng, s.alphabet_size)
        _duality_case(s, u, v, EventMapKind.EXP, shuffle_product)


def test_infiltration_duality_random_unit_streams():
    rng = np.random.Generator(np.random.PCG64(22))
    for _ in range(25):
        n = int(rng.integers(2, 4))
        length = int(rng.integers(0, 9))
        letters = rng.integers(0, n, length)
        s = Stream(np.ones(length), letters, n)
        u, v = _random_word(rng, n), _random_word(rng, n)
        _duality_case(s, u, v, EventMapKind.LINEAR, infiltration_product)


def test_mismatched_products_break_duality():
    # Pairing the exp features against an infiltration product does not
    # factor; this guards against wiring the two products backwards.
    s = four_event_stream()
    phi = stream_features(s, EventMapKind.EXP, 4)
    f = infiltration_product(AB, BA)
    lhs = pairing(f, phi)
    rhs = pairing(AB, phi) * pairing(BA, phi)
    assert abs(lhs - rhs) > 1e-6


def test_pairing_worked_example():
    phi = stream_features(four_event_stream(), EventMapKind.LINEAR, 2)
    assert pairing(LinearFunctional({(0,): 1.0, (1,): 1.0}), phi) == 5.5
    assert pairing(LinearFunctional({(0, 1): 2.0}), phi) == 5.0


def test_pairing_depth_guard():
    phi = stream_features(four_event_stream(), EventMapKind.EXP, 2)
    with pytest.raises(ValueError):
        pairing(LinearFunctional.from_word((0, 1, 0)), phi)
    assert pairing(LinearFunctional.from_word(()), phi) == 1.0
