import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from ordersketch import (
    CandidateCapError,
    EventMapKind,
    GradedTensor,
    OrderSketch,
    Stream,
    dense_pullback,
    mine_heavy_patterns,
    word_from_index,
)
from ordersketch.experiments import MarkovExperimentConfig, StreamClass, gen_markov_stream
from ordersketch.hashing import (
    AffineHash,
    HashFamilySpec,
    eval_hash,
    sample_hashes,
    smallest_prime_geq,
)

from util import (
    PlainCountMin,
    hash_word,
    join_snapshot,
    mine_by_chunks,
    random_stream,
    split_snapshot,
    stream_features,
)

KINDS = [EventMapKind.LINEAR, EventMapKind.EXP]


def table_shape(eps, delta):
    sk = OrderSketch.from_parameters(eps, delta, 1, "linear", 2, 0)
    return sk.bucket_count, sk.hash_count


def test_table_shape_examples():
    assert table_shape(0.5, 0.25) == (4, 2)
    assert table_shape(1.0, 0.5) == (2, 1)
    assert table_shape(0.1, 0.05) == (20, 5)
    assert table_shape(0.3, 0.7) == (7, 1)  # r floors at 1


def test_table_shape_validation():
    for eps, delta in [(0.0, 0.5), (1.5, 0.5), (0.5, 0.0), (0.5, 1.0), (-1, 0.5)]:
        with pytest.raises(ValueError):
            table_shape(eps, delta)


def test_from_parameters_shapes():
    sk = OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.EXP, 100, seed=1)
    assert sk.bucket_count == 4 and sk.hash_count == 2
    assert sk.coordinate_count() == 2 * (4 + 16)
    assert all(t.levels[0][0] == 1.0 for t in sk.tables)
    with pytest.raises(ValueError):
        OrderSketch.from_parameters(0.5, 0.25, 0, EventMapKind.EXP, 100, seed=1)
    with pytest.raises(ValueError):
        OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.EXP, 0, seed=1)


def test_with_hashes_validation():
    h1 = AffineHash(a=1, b=0, p=11, n=4)
    h2 = AffineHash(a=2, b=1, p=11, n=8)
    with pytest.raises(ValueError):
        OrderSketch([], 2, EventMapKind.EXP, 10)
    with pytest.raises(ValueError):
        OrderSketch([h1, h2], 2, EventMapKind.EXP, 10)
    with pytest.raises(ValueError, match="below the alphabet size"):
        OrderSketch([h1], 2, EventMapKind.EXP, 12)  # letter 11 would hash outside [0, p)
    assert OrderSketch([h1], 2, EventMapKind.EXP, 11).alphabet_size == 11


@pytest.mark.parametrize(
    "changes,needle",
    [
        ({"epsilon": "0.5"}, "numbers"),
        ({"delta": True}, "numbers"),
        ({"stream_l1": "3"}, "numbers"),
        ({"epsilon": -1}, "epsilon > 0"),
        ({"epsilon": 0.0}, "epsilon > 0"),
        ({"delta": 7}, "delta < 1"),
        ({"delta": 0.0}, "delta < 1"),
    ],
)
def test_constructor_checks_accuracy_parameters(changes, needle):
    hashes = sample_hashes(HashFamilySpec(10, 8, 3), 2)
    with pytest.raises(ValueError, match=needle):
        OrderSketch(hashes, 2, "exp", 10, **changes)


def test_constructor_defaults_follow_table_shape():
    hashes = sample_hashes(HashFamilySpec(10, 8, 3), 4)
    sk = OrderSketch(hashes, 2, "exp", 10, seed=3)
    assert (sk.bucket_count, sk.hash_count) == (8, 4)
    assert (sk.epsilon, sk.delta) == (2.0 / 8, 2.0**-4)
    assert sk.kind is EventMapKind.EXP
    assert all(t.allclose(GradedTensor.unit(8, 2), rtol=0) for t in sk.tables)
    with pytest.raises(ValueError):
        OrderSketch(hashes, 0, EventMapKind.EXP, 10)
    with pytest.raises(ValueError):
        OrderSketch(hashes, 2, EventMapKind.EXP, 10, tables=[GradedTensor.unit(8, 2)])


@pytest.mark.parametrize("kind", KINDS)
def test_tables_are_features_of_hashed_stream(kind):
    # Per-event sketch ingestion is, table by table, exactly the feature fold
    # of the letterwise-hashed stream: same operations in the same order.
    rng = np.random.Generator(np.random.PCG64(2))
    s = random_stream(rng, 23, 60)
    sk = OrderSketch.from_parameters(0.5, 0.25, 3, kind, 23, seed=5)
    for lam, letter in s:
        sk.update(lam, letter)
    assert sk.events_seen == 60
    assert sk.stream_l1 == pytest.approx(s.total_mass(), rel=1e-12)
    for h, table in zip(sk.hashes, sk.tables):
        hashed = Stream(s.lambdas, np.array([eval_hash(h, int(a)) for a in s.letters]), sk.bucket_count)
        expected = stream_features(hashed, kind, 3)
        for m in range(4):
            assert np.array_equal(table.levels[m], expected.levels[m])


@pytest.mark.parametrize("kind", KINDS)
def test_overestimation_is_exact(kind):
    # Nonnegative contributions plus monotone rounding: estimates never fall
    # below the true coordinate, with no floating-point tolerance at all.
    rng = np.random.Generator(np.random.PCG64(3))
    for trial in range(30):
        n = int(rng.integers(4, 30))
        s = random_stream(rng, n, int(rng.integers(1, 80)))
        sk = OrderSketch.from_parameters(0.5, 0.5, 2, kind, n, seed=trial)
        for ev in s:
            sk.update(*ev)
        exact = stream_features(s, kind, 2)
        for _ in range(20):
            length = int(rng.integers(1, 3))
            w = tuple(int(x) for x in rng.integers(0, n, length))
            assert sk.query(w) >= exact.coordinate(w)


@pytest.mark.parametrize("kind", KINDS)
def test_injective_hash_is_exact(kind):
    # Buckets >= p make the affine map injective; the sketch then stores the
    # exact features up to a permutation of letters.
    n = 13
    p = smallest_prime_geq(n)
    sk = OrderSketch(sample_hashes(HashFamilySpec(n, p, 9), 2), 2, kind, n, seed=9)
    rng = np.random.Generator(np.random.PCG64(4))
    s = random_stream(rng, n, 50)
    for ev in s:
        sk.update(*ev)
    exact = stream_features(s, kind, 2)
    for w in [(0,), (5,), (12,), (0, 5), (12, 12), (7, 3)]:
        assert sk.query(w) == pytest.approx(exact.coordinate(w), rel=1e-12)


def test_query_edge_cases():
    sk = OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.EXP, 10, seed=0)
    assert sk.query(()) == 1.0
    with pytest.raises(ValueError):
        sk.query((1, 2, 3))
    with pytest.raises(ValueError):
        sk.query((10,))
    sk.update(1.0, 3)
    assert sk.query(()) == 1.0


def scalar_estimate(sk: OrderSketch, word) -> float:
    """Reference read of one word: hash each letter, then take the minimum
    of the table coordinates."""
    return min(table.coordinate(hash_word(h, word)) for h, table in zip(sk.hashes, sk.tables))


@pytest.mark.parametrize("kind", KINDS)
def test_query_many_matches_scalar_read_on_every_word(kind):
    rng = np.random.Generator(np.random.PCG64(21))
    n = 6
    sk = OrderSketch.from_parameters(0.5, 0.125, 3, kind, n, seed=4)
    sk.extend(random_stream(rng, n, 80))
    for m in range(4):
        words = np.array(list(itertools.product(range(n), repeat=m)), dtype=np.int64)
        words = words.reshape(n**m, m)
        want = [scalar_estimate(sk, w) for w in words.tolist()]
        assert sk.query_many(words).tolist() == want
        assert [sk.query(w) for w in words.tolist()] == want
        empty = sk.query_many(np.zeros((0, m), dtype=np.int64))
        assert empty.shape == (0,) and empty.dtype == np.float64


def test_query_many_errors_match_query():
    sk = OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.EXP, 10, seed=0)
    cases = [
        ((1, 10), "letter 10 outside alphabet of size 10"),
        ((-1,), "letter -1 outside alphabet of size 10"),
        ((1, 2, 3), "word of length 3 exceeds sketch depth 2"),
        ((1, 2, 10), "letter 10 outside alphabet of size 10"),  # letters are checked first
    ]
    for word, message in cases:
        with pytest.raises(ValueError) as single:
            sk.query(word)
        with pytest.raises(ValueError) as batch:
            sk.query_many(np.array([[0] * len(word), word]))
        assert str(single.value) == str(batch.value) == message
    with pytest.raises(ValueError, match="outside alphabet"):
        sk.query((2**64,))
    with pytest.raises(ValueError, match="shape"):
        sk.query_many(np.arange(3))


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_update_rejects_non_finite_weight(lam):
    sk = OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.LINEAR, 3, seed=0)
    sk.update(1.0, 0)
    before = [t.copy() for t in sk.tables]
    with pytest.raises(ValueError, match="finite"):
        sk.update(lam, 1)
    assert (sk.events_seen, sk.stream_l1) == (1, 1.0)
    for t, b in zip(sk.tables, before):
        assert t.allclose(b, rtol=0)


def test_update_overflow_is_value_error_and_keeps_sketch():
    # lam**2 / 2 overflows float64 before any table is touched
    sk = OrderSketch.from_parameters(0.5, 0.25, 3, EventMapKind.EXP, 3, seed=0)
    sk.update(1.0, 0)
    before = [t.copy() for t in sk.tables]
    with pytest.raises(ValueError, match="overflow"):
        sk.update(1e200, 1)
    assert (sk.events_seen, sk.stream_l1) == (1, 1.0)
    for t, b in zip(sk.tables, before):
        assert t.allclose(b, rtol=0)


def test_absent_word_often_zero():
    sk = OrderSketch.from_parameters(0.01, 0.25, 2, EventMapKind.EXP, 1000, seed=0)
    sk.update(1.0, 3)
    # with 200 buckets and one occupied, almost every other letter reads 0
    zeros = sum(1 for a in range(100, 200) if sk.query((a,)) == 0.0)
    assert zeros > 90


@pytest.mark.parametrize("kind", KINDS)
def test_extend_matches_update(kind):
    rng = np.random.Generator(np.random.PCG64(5))
    s = random_stream(rng, 40, 300)
    a = OrderSketch.from_parameters(0.25, 0.1, 2, kind, 40, seed=11)
    b = OrderSketch.from_parameters(0.25, 0.1, 2, kind, 40, seed=11)
    for ev in s:
        a.update(*ev)
    b.extend(s)
    assert a.events_seen == b.events_seen
    for ta, tb in zip(a.tables, b.tables):
        assert ta.allclose(tb, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("kind", KINDS)
def test_extend_depth_three_falls_back(kind):
    rng = np.random.Generator(np.random.PCG64(6))
    s = random_stream(rng, 10, 40)
    a = OrderSketch.from_parameters(0.25, 0.25, 3, kind, 10, seed=2)
    b = OrderSketch.from_parameters(0.25, 0.25, 3, kind, 10, seed=2)
    for ev in s:
        a.update(*ev)
    b.extend(s)
    for ta, tb in zip(a.tables, b.tables):
        assert ta.allclose(tb, rtol=1e-12, atol=1e-9)


def test_depth_one_is_classical_count_min():
    # At depth 1 the per-event path must be bit for bit the textbook
    # count-min sketch with the same hash functions.
    rng = np.random.Generator(np.random.PCG64(8))
    for trial in range(20):
        n = int(rng.integers(8, 200))
        sk = OrderSketch.from_parameters(0.4, 0.3, 1, EventMapKind.LINEAR, n, seed=trial)
        ref = PlainCountMin(sk.hashes)
        s = random_stream(rng, n, int(rng.integers(0, 120)))
        for lam, letter in s:
            sk.update(lam, letter)
            ref.update(lam, letter)
        for a in range(n):
            assert sk.query((a,)) == ref.query(a)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extend_overflow_raises_and_keeps_sketch():
    sk = OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.EXP, 3, seed=0)
    sk.extend(Stream.from_events([(1.0, 0), (2.0, 1)], 3))
    before = [t.copy() for t in sk.tables]
    with pytest.raises(ValueError, match="finite"):
        sk.extend(Stream.from_events([(1e200, 1), (1e200, 2)], 3))
    assert (sk.events_seen, sk.stream_l1) == (2, 3.0)
    for t, b in zip(sk.tables, before):
        assert t.allclose(b, rtol=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_update_product_overflow_raises_and_keeps_sketch():
    # the coefficients are finite; 1e200 * 1e200 overflows in the level-2 fold
    sk = OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.LINEAR, 3, seed=0)
    sk.update(1e200, 0)
    before = [t.copy() for t in sk.tables]
    with pytest.raises(ValueError, match="finite"):
        sk.update(1e200, 1)
    assert (sk.events_seen, sk.stream_l1) == (1, 1e200)
    for t, b in zip(sk.tables, before):
        assert t.allclose(b, rtol=0)


def test_snapshot_refuses_non_finite_tables():
    sk = OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.LINEAR, 3, seed=0)
    sk.update(1.0, 0)
    sk.tables[0].levels[2][1] = math.inf
    with pytest.raises(ValueError, match="finite"):
        sk.to_snapshot()


# -- merge ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_merge_is_concatenation(kind):
    rng = np.random.Generator(np.random.PCG64(9))
    s = random_stream(rng, 30, 200)
    left, right = s.slice(0, 120), s.slice(120, 200)
    whole = OrderSketch.from_parameters(0.25, 0.1, 2, kind, 30, seed=4)
    whole.extend(s)
    a = OrderSketch.from_parameters(0.25, 0.1, 2, kind, 30, seed=4)
    b = OrderSketch.from_parameters(0.25, 0.1, 2, kind, 30, seed=4)
    a.extend(left)
    b.extend(right)
    merged = a.merge(b)
    assert merged.events_seen == whole.events_seen == 200
    assert merged.stream_l1 == pytest.approx(whole.stream_l1, rel=1e-12)
    for tm, tw in zip(merged.tables, whole.tables):
        assert tm.allclose(tw, rtol=1e-10, atol=1e-9)


def test_merge_not_commutative_in_general():
    # Concatenation order matters beyond level 1.
    s1 = Stream.from_events([(1.0, 0)], 4)
    s2 = Stream.from_events([(1.0, 1)], 4)
    mk = lambda: OrderSketch(sample_hashes(HashFamilySpec(4, 5, 0), 1), 2, EventMapKind.LINEAR, 4)
    a, b = mk(), mk()
    a.extend(s1)
    b.extend(s2)
    ab, ba = a.merge(b), b.merge(a)
    assert any(
        not np.array_equal(x.levels[2], y.levels[2]) for x, y in zip(ab.tables, ba.tables)
    )


def test_merge_parameter_mismatch():
    base = OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.EXP, 10, seed=0)
    for other in [
        OrderSketch.from_parameters(0.25, 0.25, 2, EventMapKind.EXP, 10, seed=0),
        OrderSketch.from_parameters(0.5, 0.25, 3, EventMapKind.EXP, 10, seed=0),
        OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.LINEAR, 10, seed=0),
        OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.EXP, 11, seed=0),
        OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.EXP, 10, seed=1),
    ]:
        with pytest.raises(ValueError):
            base.merge(other)


def test_merge_associative():
    rng = np.random.Generator(np.random.PCG64(10))
    s = random_stream(rng, 12, 90)
    parts = [s.slice(0, 30), s.slice(30, 60), s.slice(60, 90)]
    sks = []
    for part in parts:
        sk = OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.EXP, 12, seed=6)
        sk.extend(part)
        sks.append(sk)
    left = sks[0].merge(sks[1]).merge(sks[2])
    right = sks[0].merge(sks[1].merge(sks[2]))
    for tl, tr in zip(left.tables, right.tables):
        assert tl.allclose(tr, rtol=1e-10, atol=1e-12)


# -- persistence -----------------------------------------------------------------


def test_snapshot_round_trip_bit_exact(tmp_path):
    rng = np.random.Generator(np.random.PCG64(11))
    s = random_stream(rng, 50, 500)
    sk = OrderSketch.from_parameters(0.2, 0.1, 2, EventMapKind.EXP, 50, seed=13)
    sk.extend(s)
    path = tmp_path / "sketch.json"
    sk.save(path)
    back = OrderSketch.load(path)
    assert back.hashes == sk.hashes
    assert (back.epsilon, back.delta, back.depth, back.kind) == (
        sk.epsilon,
        sk.delta,
        sk.depth,
        sk.kind,
    )
    assert back.events_seen == sk.events_seen and back.stream_l1 == sk.stream_l1
    for ta, tb in zip(sk.tables, back.tables):
        for m in range(sk.depth + 1):
            assert np.array_equal(ta.levels[m], tb.levels[m])
    # re-serialization is byte-stable
    assert back.to_snapshot() == sk.to_snapshot()


def test_snapshot_rejects_foreign_payloads():
    sk = OrderSketch.from_parameters(0.5, 0.25, 1, EventMapKind.LINEAR, 4, seed=0)
    header, values = split_snapshot(sk.to_snapshot())
    bad_fmt = dict(header, format="something-else")
    with pytest.raises(ValueError, match="snapshot"):
        OrderSketch.from_snapshot(join_snapshot(bad_fmt, values))
    bad_ver = dict(header, version=99)
    with pytest.raises(ValueError, match="version"):
        OrderSketch.from_snapshot(join_snapshot(bad_ver, values))


def test_snapshot_query_survives_round_trip():
    sk = OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.LINEAR, 6, seed=1)
    sk.extend(
        Stream.from_events([(1.0, 0), (1.5, 1), (1.0, 1), (2.0, 0), (0.5, 5)], 6)
    )
    back = OrderSketch.from_snapshot(sk.to_snapshot())
    for w in [(0,), (1, 0), (5,), (0, 5)]:
        assert back.query(w) == sk.query(w)


def test_snapshot_layout_is_pinned():
    # header line, then every table's levels 0..depth as raw <f8; a layout
    # change must bump SNAPSHOT_VERSION and this digest together
    sk = OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.EXP, 4, seed=3)
    sk.extend(Stream.from_events([(1.0, 0), (0.5, 3), (2.0, 1), (0.25, 0)], 4))
    data = sk.to_snapshot()
    header, _ = split_snapshot(data)
    assert header["version"] == 2 and "tables" not in header
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    levels = [level.astype("<f8").tobytes() for t in sk.tables for level in t.levels]
    assert data == b"".join([head, b"\n", *levels])
    assert hashlib.sha256(data).hexdigest() == (
        "c4004af515edfd945c6b8fbc4ca2c58e3239f263392d89c2ff9ae99bfcc7dbb2"
    )


def snapshot_doc() -> tuple[dict, np.ndarray]:
    """The header and payload values of a sketch with five tables of depth 2
    (21 values per table: levels of 1, 4 and 16 coordinates)."""
    sk = OrderSketch.from_parameters(0.5, 0.05, 2, EventMapKind.EXP, 6, seed=1)
    sk.extend(Stream.from_events([(1.0, 0), (2.0, 3), (0.5, 5)], 6))
    header, values = split_snapshot(sk.to_snapshot())
    assert header["hash_count"] == 5 and header["bucket_count"] == 4 and values.size == 105
    return header, values


def load_doc(header: dict, values) -> OrderSketch:
    return OrderSketch.from_snapshot(join_snapshot(header, values))


@pytest.mark.parametrize(
    "key",
    [
        "alphabet_size",
        "bucket_count",
        "delta",
        "depth",
        "epsilon",
        "event_map",
        "events_seen",
        "hash_count",
        "hashes",
        "seed",
        "stream_l1",
        "tables",  # the payload, which holds the tables
    ],
)
def test_snapshot_missing_key_is_value_error(key):
    header, values = snapshot_doc()
    if key == "tables":
        values = values[:0]
    else:
        del header[key]
    with pytest.raises(ValueError, match=key):
        load_doc(header, values)


def test_snapshot_table_count_must_agree():
    header, values = snapshot_doc()
    load_doc(header, values)
    for bad in (
        (header, values[:21]),
        (dict(header, hashes=header["hashes"][:4]), values),
        (dict(header, hash_count=4), values),
    ):
        with pytest.raises(ValueError):
            load_doc(*bad)


def test_snapshot_tables_need_every_level():
    header, values = snapshot_doc()
    # table 0 without any level; table 2 without level 2
    for bad in (values[21:], np.delete(values, np.arange(42 + 5, 63))):
        with pytest.raises(ValueError, match="levels"):
            load_doc(header, bad)


def test_snapshot_level_lengths_must_match_buckets():
    header, values = snapshot_doc()
    short = np.delete(values, 21 + 5)  # table 1's level 2 holds 15 values
    narrow_hashes = dict(header, hashes=[dict(h, n=3) for h in header["hashes"]])
    for bad in ((header, short), (narrow_hashes, values)):
        with pytest.raises(ValueError):
            load_doc(*bad)


@pytest.mark.parametrize(
    "changes",
    [
        {"depth": 2.0},
        {"bucket_count": "4"},
        # a huge depth must be refused without listing its level sizes
        {"depth": 10**9},
        {"depth": 10**9, "bucket_count": 1},
        {"depth": 10**9, "bucket_count": -2},
    ],
)
def test_snapshot_header_values_are_checked(changes):
    # the CLI cases in test_cli.py cover the hash parameters, events_seen and stream_l1
    header, values = snapshot_doc()
    with pytest.raises(ValueError, match="integer|payload"):
        load_doc(dict(header, **changes), values)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_snapshot_non_finite_values_rejected(value):
    header, values = snapshot_doc()
    in_table = values.copy()
    in_table[63 + 2] = value  # table 3, level 1, coordinate 1
    for bad in (
        (header, in_table),
        (dict(header, stream_l1=value), values),
        (dict(header, epsilon=value), values),
    ):
        with pytest.raises(ValueError, match="finite"):
            load_doc(*bad)


# -- dense pullback ---------------------------------------------------------------


def test_dense_pullback_matches_query():
    rng = np.random.Generator(np.random.PCG64(12))
    s = random_stream(rng, 9, 70)
    sk = OrderSketch.from_parameters(0.5, 0.2, 2, EventMapKind.EXP, 9, seed=7)
    sk.extend(s)
    dense = dense_pullback(sk)
    assert dense.levels[0][0] == 1.0
    for a in range(9):
        assert dense.coordinate((a,)) == sk.query((a,))
    for _ in range(40):
        w = tuple(int(x) for x in rng.integers(0, 9, 2))
        assert dense.coordinate(w) == sk.query(w)


def test_dense_pullback_over_letter_subset_matches_query():
    rng = np.random.Generator(np.random.PCG64(13))
    s = random_stream(rng, 30, 200)
    sk = OrderSketch.from_parameters(0.25, 0.1, 3, EventMapKind.LINEAR, 30, seed=2)
    sk.extend(s)
    letters = (4, 17, 2)
    sub = dense_pullback(sk, letters)
    assert sub.alphabet_size == 3 and sub.levels[0][0] == 1.0
    for m in range(1, 4):
        for offset in range(3**m):
            positions = word_from_index(m, offset, 3)
            word = tuple(letters[i] for i in positions)
            assert sub.levels[m][offset] == sk.query(word)
    with pytest.raises(CandidateCapError):
        dense_pullback(sk, letters, max_coordinates=3 + 9 + 26)
    assert dense_pullback(sk, letters, max_coordinates=3 + 9 + 27).depth == 3
    with pytest.raises(ValueError):
        dense_pullback(sk, (4, 30))


def test_dense_pullback_size_guard():
    sk = OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.EXP, 2000, seed=0)
    with pytest.raises(CandidateCapError):
        dense_pullback(sk, max_coordinates=100_000)
    with pytest.raises(ValueError, match="max_coordinates must be >= 0"):
        dense_pullback(sk, (), max_coordinates=-1)


# -- heavy patterns ----------------------------------------------------------------


def planted_stream():
    """50 hits on letter 0, then 50 on letter 1, then unit noise."""
    events = [(1.0, 0)] * 50 + [(1.0, 1)] * 50
    events += [(1.0, 3 + (i % 9)) for i in range(20)]
    return Stream.from_events(events, alphabet_size=12)


def test_mining_planted_completeness():
    s = planted_stream()
    _, results = mine_heavy_patterns(
        s, [30.0], epsilon=1 / 8, delta=0.25, depth=2, kind=EventMapKind.LINEAR, seed=0
    )
    res = results[30.0]
    assert set(res.hot_letters) >= {0, 1}
    truth = {(0,), (1,), (0, 0), (0, 1), (1, 1)}
    assert res.words >= truth
    exact = stream_features(s, EventMapKind.LINEAR, 2)
    for w, est in res.estimates.items():
        assert est >= 30.0 ** len(w)
        assert est >= exact.coordinate(w)


def test_mining_thresholds_nest():
    s = planted_stream()
    sketch, results = mine_heavy_patterns(
        s,
        thresholds=[10.0, 30.0, 60.0],
        epsilon=1 / 8,
        delta=0.25,
        depth=2,
        kind=EventMapKind.LINEAR,
        seed=1,
    )
    assert results[60.0].words <= results[30.0].words <= results[10.0].words
    assert sketch.events_seen == len(s)


def test_mining_above_total_mass_is_empty():
    s = planted_stream()
    rho = s.total_mass() + 1
    _, results = mine_heavy_patterns(
        s,
        [rho],
        epsilon=1 / 8,
        delta=0.25,
        depth=2,
        kind=EventMapKind.LINEAR,
        seed=2,
    )
    res = results[rho]
    assert res.hot_letters == () and res.words == set()


def test_mining_candidate_cap():
    s = planted_stream()
    with pytest.raises(CandidateCapError, match="cap"):
        mine_heavy_patterns(
            s,
            [30.0],
            epsilon=1 / 8,
            delta=0.25,
            depth=2,
            kind=EventMapKind.LINEAR,
            seed=0,
            candidate_cap=3,
        )


def test_mining_coarser_chunks_retain_superset():
    # Chunk ends only delay the threshold test, and estimates only grow, so
    # nested coarser chunking can only add letters (and therefore words).
    s = planted_stream()
    _, fine = mine_heavy_patterns(
        s, [30.0], 1 / 8, 0.25, 2, EventMapKind.LINEAR, seed=3, chunk_size=5
    )
    _, coarse = mine_heavy_patterns(
        s, [30.0], 1 / 8, 0.25, 2, EventMapKind.LINEAR, seed=3, chunk_size=20
    )
    fine, coarse = fine[30.0], coarse[30.0]
    assert set(fine.hot_letters) <= set(coarse.hot_letters)
    assert fine.words <= coarse.words


def test_mining_rejects_bad_arguments():
    s = planted_stream()
    with pytest.raises(ValueError):
        mine_heavy_patterns(s, [], 1 / 8, 0.25, 2, EventMapKind.LINEAR, seed=0)
    for chunk_size in (0, 2.5, True):
        with pytest.raises(ValueError, match="chunk_size"):
            mine_heavy_patterns(
                s, [10.0], 1 / 8, 0.25, 2, EventMapKind.LINEAR, seed=0, chunk_size=chunk_size
            )
    with pytest.raises(ValueError, match="candidate_cap"):
        mine_heavy_patterns(s, [10.0], 1 / 8, 0.25, 2, EventMapKind.LINEAR, seed=0,
                            candidate_cap=-1)


MINING_ARGS = (1 / 8, 0.25)  # epsilon, delta: 16 buckets and 2 tables


def dyadic_stream(seed: int, length: int) -> Stream:
    # weights 3k/8: every sum and product the fold forms, and the exp map's
    # lam**3 / 6, is exact, so any grouping of the events gives the same bits
    rng = np.random.Generator(np.random.PCG64(seed))
    return Stream(3 / 8 * rng.integers(1, 9, length), rng.integers(0, 12, length), 12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_mining_matches_the_chunked_refold(kind, depth):
    for s in (dyadic_stream(depth, 200), dyadic_stream(depth, 0)):
        once = OrderSketch.from_parameters(*MINING_ARGS, depth, kind, 12, seed=4)
        once.extend(s)
        final = np.sort(once.query_many(np.arange(12)[:, None]))
        rhos = [float(final[i] + final[i + 1]) / 2 if len(s) else 1.0 for i in (2, 5, 9)]
        for chunk_size in (1, 3, 64, len(s) or 5, len(s) + 5):
            args = (s, rhos, *MINING_ARGS, depth, kind, 4)
            sketch, results = mine_heavy_patterns(*args, chunk_size=chunk_size)
            _, want = mine_by_chunks(*args, chunk_size=chunk_size)
            assert results == want, chunk_size  # hot letters and estimates, bit for bit
            for got, ref in zip(sketch.tables, once.tables):
                assert all(map(np.array_equal, got.levels, ref.levels))
            assert (sketch.events_seen, sketch.stream_l1) == (once.events_seen, once.stream_l1)
        if len(s):  # one chunk: the thresholds leave 9, 6 and 2 of the final estimates hot
            assert [len(r.hot_letters) for r in results.values()] == [9, 6, 2]


@pytest.mark.parametrize("kind", KINDS)
def test_mining_hot_sets_match_the_chunked_refold_for_any_weights(kind):
    # counters at chunk ends add the per-chunk fold's numbers in its order;
    # only the final tables, folded in one go, may differ in the last bits
    rng = np.random.Generator(np.random.PCG64(8))
    s = Stream(rng.exponential(1.0, 400), rng.integers(0, 12, 400), 12)
    for chunk_size in (1, 7, 64, 400):
        args = (s, [10.0, 25.0], *MINING_ARGS, 2, kind, 5)
        _, results = mine_heavy_patterns(*args, chunk_size=chunk_size)
        _, want = mine_by_chunks(*args, chunk_size=chunk_size)
        for rho, res in results.items():
            assert res.hot_letters == want[rho].hot_letters
            assert res.estimates.keys() == want[rho].estimates.keys()
            for word, estimate in res.estimates.items():
                assert estimate == pytest.approx(want[rho].estimates[word], rel=1e-14)
        assert results[10.0].hot_letters


@pytest.mark.parametrize("rho", [-1.0, 0.0, math.inf, math.nan])
def test_mining_rejects_nonpositive_or_nonfinite_threshold(rho):
    s = planted_stream()
    with pytest.raises(ValueError, match="threshold"):
        mine_heavy_patterns(s, [30.0, rho], 1 / 8, 0.25, 2, EventMapKind.LINEAR, seed=0)


def test_mining_two_phase_markov_stream():
    cfg = MarkovExperimentConfig(
        alphabet_size=1000,
        total_length=10_000,
        p=0.1,
        q=0.2,
        stream_class=StreamClass.TYPE_A,
        seed=17,
    )
    s = gen_markov_stream(cfg)
    _, results = mine_heavy_patterns(
        s, [250.0], epsilon=1 / 32, delta=0.1, depth=2, kind=EventMapKind.EXP, seed=5
    )
    res = results[250.0]
    assert set(res.hot_letters) >= {1, 2}
    assert res.words >= {(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)}
    # background letters are far below threshold; the hot set stays tiny
    assert len(res.hot_letters) <= 10
