import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordersketch.hashing import (
    PRNG_ID,
    AffineHash,
    HashFamilySpec,
    derive_seed,
    eval_hash_array,
    sample_hashes,
    smallest_prime_geq,
)

from util import eval_hash, hash_word


def test_smallest_prime_geq_values():
    assert smallest_prime_geq(2) == 2
    assert smallest_prime_geq(10) == 11
    assert smallest_prime_geq(100) == 101
    assert smallest_prime_geq(1000) == 1009
    assert smallest_prime_geq(100000) == 100003
    # Carmichael number: a Fermat-only test would accept 561
    assert smallest_prime_geq(561) == 563
    assert smallest_prime_geq(2**31 - 1) == 2**31 - 1


def test_smallest_prime_geq_domain():
    with pytest.raises(ValueError):
        smallest_prime_geq(1)
    with pytest.raises(ValueError):
        smallest_prime_geq(2**61)


def test_affine_hash_validation():
    AffineHash(a=1, b=0, p=7, n=3)
    with pytest.raises(ValueError):
        AffineHash(a=0, b=0, p=7, n=3)  # a must be nonzero mod p
    with pytest.raises(ValueError):
        AffineHash(a=1, b=7, p=7, n=3)  # b out of range
    with pytest.raises(ValueError):
        AffineHash(a=1, b=0, p=6, n=3)  # p not prime
    for p in (0, 1):
        with pytest.raises(ValueError, match="prime"):
            AffineHash(a=1, b=0, p=p, n=3)
    with pytest.raises(ValueError):
        AffineHash(a=1, b=0, p=7, n=0)



@pytest.mark.parametrize(
    "params", [dict(a=6.5), dict(b=0.0), dict(p=7.0), dict(n=3.0), dict(a=True), dict(n=True)]
)
def test_affine_hash_parameters_must_be_integers(params):
    (key,) = params
    with pytest.raises(ValueError, match=f"^{key} must be an integer, not "):
        AffineHash(**{"a": 1, "b": 0, "p": 7, "n": 3, **params})

def test_identity_style_hash():
    # a=1, b=0 with n >= p acts as the identity on [0, p)
    h = AffineHash(a=1, b=0, p=101, n=101)
    for x in (0, 1, 57, 100):
        assert eval_hash(h, x) == x


def test_eval_hash_examples():
    h = AffineHash(a=3, b=2, p=7, n=4)
    # (3x + 2) mod 7 mod 4, by the library and by the test oracle
    assert eval_hash_array(h, np.arange(7)).tolist() == [2, 1, 1, 0, 0, 3, 2]
    assert [eval_hash(h, x) for x in range(7)] == [2, 1, 1, 0, 0, 3, 2]
    with pytest.raises(ValueError):
        eval_hash(h, 7)
    with pytest.raises(ValueError):
        eval_hash(h, -1)


def test_eval_hash_array_matches_scalar():
    rng = np.random.Generator(np.random.PCG64(1))
    h = AffineHash(a=12345, b=678, p=100003, n=64)
    xs = rng.integers(0, 100003, size=500)
    got = eval_hash_array(h, xs)
    assert got.tolist() == [eval_hash(h, int(x)) for x in xs]
    for bad, message in (([100003], "letter 100003"), ([5, -1], "letter -1")):
        with pytest.raises(ValueError, match=f"^{message} outside alphabet of size 100003$"):
            eval_hash_array(h, np.array(bad))


@pytest.mark.parametrize("size", [101, 202, 203, 5000])
def test_eval_hash_array_direct_and_gathered_agree(size):
    # up to 2p letters are hashed directly, past that gathered from the
    # hashed alphabet; both give the oracle's buckets in a new int64 array
    h = AffineHash(a=45, b=78, p=101, n=8)
    xs = np.random.Generator(np.random.PCG64(size)).integers(0, 101, size=size)
    xs[:101] = np.arange(101)  # every letter, so the two paths meet on each
    held = xs.copy()
    got = eval_hash_array(h, xs)
    assert got.tolist() == [eval_hash(h, int(x)) for x in xs]
    assert got.dtype == np.int64 and got.flags.writeable and got.flags.c_contiguous
    assert not np.shares_memory(got, xs) and np.array_equal(xs, held)
    want = got.copy()
    got += 1  # mining adds chunk offsets in place
    assert np.array_equal(eval_hash_array(h, xs), want)
    words = xs[: size - size % 2].reshape(-1, 2)  # a (k, 2) array of words keeps its shape
    assert np.array_equal(eval_hash_array(h, words), want[: words.size].reshape(-1, 2))


def test_eval_hash_array_large_prime_fallback():
    # p near 2^61 forces the arbitrary-precision path; products overflow int64
    p = smallest_prime_geq(2**61 - 1)
    h = AffineHash(a=(2**60 + 7) % p, b=123, p=p, n=1000)
    xs = np.array([0, 1, 2**60, p - 1], dtype=np.uint64)
    got = eval_hash_array(h, xs)
    assert got.tolist() == [eval_hash(h, int(x)) for x in xs]


def test_hash_word_is_letterwise():
    h = AffineHash(a=3, b=2, p=7, n=4)
    assert hash_word(h, (0, 5, 6)) == (2, 3, 2)
    assert hash_word(h, ()) == ()


# -- family sampling -----------------------------------------------------------


def test_prng_id_is_pinned():
    assert PRNG_ID == "splitmix64"


def test_sample_hashes_deterministic_golden():
    spec = HashFamilySpec(source_size=100, target_size=8, seed=42)
    hs = sample_hashes(spec, 3)
    assert [h.p for h in hs] == [101, 101, 101]
    assert [(h.a, h.b) for h in hs] == [(14, 63), (59, 5), (51, 59)]
    assert all(h.n == 8 for h in hs)


def test_sample_hashes_prefix_property():
    # Drawing r then r' > r hashes from the same spec agrees on the first r.
    spec = HashFamilySpec(source_size=1000, target_size=16, seed=7)
    short = sample_hashes(spec, 3)
    long = sample_hashes(spec, 9)
    assert long[:3] == short


def test_sample_hashes_edge_cases():
    spec = HashFamilySpec(source_size=50, target_size=4, seed=0)
    assert sample_hashes(spec, 0) == []
    with pytest.raises(ValueError):
        sample_hashes(spec, -1)
    for h in sample_hashes(HashFamilySpec(source_size=2, target_size=2, seed=3), 4):
        assert h.p == 2 and h.a == 1 and h.b in (0, 1)


def test_sample_hashes_seed_sensitivity():
    a = sample_hashes(HashFamilySpec(source_size=100, target_size=8, seed=1), 4)
    b = sample_hashes(HashFamilySpec(source_size=100, target_size=8, seed=2), 4)
    assert a != b


def test_derive_seed_golden():
    assert derive_seed(42, 0) == 14473931205035997723
    assert derive_seed(42, 1) == 18048596636615606144
    assert derive_seed(0, 0) == 3246858695411730098
    assert derive_seed(42, 0) != derive_seed(43, 0)


@settings(max_examples=30)
@given(st.integers(0, 2**32), st.integers(0, 2**16))
def test_derive_seed_in_range(seed, index):
    out = derive_seed(seed, index)
    assert 0 <= out < 2**64


# -- statistical behaviour -----------------------------------------------------


def test_collision_rate_near_two_universal_bound():
    # Empirical pair-collision rate over random pairs should sit near 1/n.
    rng = np.random.Generator(np.random.PCG64(9))
    n_src, n_tgt, trials = 10_000, 32, 400
    collisions = 0
    pairs = 0
    for i in range(trials):
        (h,) = sample_hashes(HashFamilySpec(n_src, n_tgt, seed=1000 + i), 1)
        xs = rng.choice(n_src, size=40, replace=False)
        ys = eval_hash_array(h, xs)
        eq = ys[:, None] == ys[None, :]
        upper = np.triu_indices(len(xs), k=1)
        collisions += int(eq[upper].sum())
        pairs += len(upper[0])
    rate = collisions / pairs
    bound = 1.0 / n_tgt
    sigma = np.sqrt(bound * (1 - bound) / pairs)
    assert rate <= bound + 4 * sigma
    assert rate >= bound - 4 * sigma  # affine family is in fact near-uniform


def test_distinct_word_collision_needs_letter_collision():
    # Two distinct words of equal length collide under the letterwise hash
    # iff some position collides; with an injective hash nothing collides.
    h = AffineHash(a=1, b=0, p=101, n=101)
    seen = {}
    for w in [(0, 1), (1, 0), (5, 99), (99, 5)]:
        hw = hash_word(h, w)
        assert hw not in seen
        seen[hw] = w


def test_spec_validation():
    with pytest.raises(ValueError):
        HashFamilySpec(source_size=0, target_size=4, seed=0)
    with pytest.raises(ValueError):
        HashFamilySpec(source_size=10, target_size=0, seed=0)
    spec = HashFamilySpec(source_size=10, target_size=4, seed=0)
    assert spec.p == 11
