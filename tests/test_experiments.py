import math

import numpy as np
import pytest

from ordersketch import (
    EventMapKind,
    GradedTensor,
    OrderSketch,
    Stream,
    dense_pullback,
)
from ordersketch.hashing import HashFamilySpec, sample_hashes
from ordersketch.experiments import (
    ErrorReport,
    ExperimentOneConfig,
    ExperimentTwoConfig,
    MarkovExperimentConfig,
    StreamClass,
    error_metric,
    gen_heavy_tail_stream,
    gen_markov_stream,
    run_experiment_1,
    run_experiment_2,
    train_linear_classifier,
)

from util import stream_features


# -- stream generators ---------------------------------------------------------


def test_heavy_tail_deterministic():
    a = gen_heavy_tail_stream(100, 5000, 10, 0.1, seed=3)
    b = gen_heavy_tail_stream(100, 5000, 10, 0.1, seed=3)
    c = gen_heavy_tail_stream(100, 5000, 10, 0.1, seed=4)
    assert np.array_equal(a.letters, b.letters)
    assert not np.array_equal(a.letters, c.letters)
    assert np.all(a.lambdas == 1.0)
    assert a.letters.min() >= 0 and a.letters.max() < 100


def test_heavy_tail_frequencies():
    length = 200_000
    s = gen_heavy_tail_stream(100, length, 10, 0.1, seed=1)
    hot_fraction = float((s.letters < 10).mean())
    sigma = math.sqrt(0.1 * 0.9 / length)
    assert abs(hot_fraction - 0.1) < 4 * sigma
    # each heavy letter carries ~1% of the stream, each light ~1%
    counts = np.bincount(s.letters, minlength=100)
    assert counts.min() > 0


def test_heavy_tail_validation():
    with pytest.raises(ValueError):
        gen_heavy_tail_stream(10, 100, 11, 0.1, seed=0)
    with pytest.raises(ValueError):
        gen_heavy_tail_stream(10, 100, 2, 1.5, seed=0)
    with pytest.raises(ValueError):
        gen_heavy_tail_stream(10, 100, 0, 0.1, seed=0)
    with pytest.raises(ValueError):
        gen_heavy_tail_stream(10, 100, 10, 0.5, seed=0)


def test_heavy_tail_degenerate_corners():
    flat = gen_heavy_tail_stream(10, 1000, 0, 0.0, seed=2)
    assert flat.letters.min() >= 0 and flat.letters.max() <= 9
    all_hot = gen_heavy_tail_stream(10, 1000, 10, 1.0, seed=2)
    assert all_hot.letters.max() <= 9


def test_markov_segment_structure():
    cfg = MarkovExperimentConfig(
        alphabet_size=50, total_length=4000, p=0.3, q=0.4, stream_class=StreamClass.TYPE_A, seed=9
    )
    s = gen_markov_stream(cfg)
    assert len(s) == 4000 and np.all(s.lambdas == 1.0)
    s1, s2, s3 = cfg.segments
    seg1 = s.letters[:s1]
    seg2 = s.letters[s1 : s1 + s2]
    seg3 = s.letters[s1 + s2 :]
    # the off letter never appears before its own segment
    assert 2 not in seg1 and 1 not in seg2
    assert (seg1 == 1).mean() == pytest.approx(0.3, abs=0.06)
    assert (seg2 == 2).mean() == pytest.approx(0.4, abs=0.06)
    assert {1, 2} <= set(seg3.tolist())

    swapped = gen_markov_stream(
        MarkovExperimentConfig(
            alphabet_size=50, total_length=4000, p=0.3, q=0.4,
            stream_class=StreamClass.TYPE_B, seed=9,
        )
    )
    assert 1 not in swapped.letters[:s1] and 2 not in swapped.letters[s1 : s1 + s2]


def test_markov_config_validation():
    good = dict(alphabet_size=10, total_length=100, p=0.1, q=0.2,
                stream_class=StreamClass.TYPE_A, seed=0)
    MarkovExperimentConfig(**good)
    with pytest.raises(ValueError):
        MarkovExperimentConfig(**{**good, "alphabet_size": 2})
    with pytest.raises(ValueError):
        MarkovExperimentConfig(**{**good, "p": 0.0})
    with pytest.raises(ValueError):
        MarkovExperimentConfig(**{**good, "q": 1.0})
    with pytest.raises(TypeError):
        MarkovExperimentConfig(**{**good, "segments": (20, 30, 50)})
    with pytest.raises(ValueError):
        MarkovExperimentConfig(**{**good, "total_length": 3})
    assert StreamClass("a") is StreamClass.TYPE_A


def test_markov_deterministic():
    cfg = dict(alphabet_size=30, total_length=1000, p=0.2, q=0.25, seed=5)
    a = gen_markov_stream(MarkovExperimentConfig(stream_class=StreamClass.TYPE_A, **cfg))
    b = gen_markov_stream(MarkovExperimentConfig(stream_class=StreamClass.TYPE_A, **cfg))
    assert np.array_equal(a.letters, b.letters)


# -- error metric ----------------------------------------------------------------


def test_error_metric_zero_on_equal():
    s = gen_heavy_tail_stream(20, 500, 4, 0.2, seed=7)
    phi = stream_features(s, EventMapKind.EXP, 2)
    report = error_metric(phi, phi)
    assert report.per_level == (0.0, 0.0) and report.aggregate == 0.0


def test_error_metric_hand_case():
    exact = stream_features(
        Stream.from_events([(1.0, 0), (1.0, 0), (1.0, 0), (1.0, 1)], 2),
        EventMapKind.LINEAR,
        1,
    )
    estimate = exact.copy()
    estimate.levels[1] = estimate.levels[1] + np.array([1.0, 0.0])
    report = error_metric(exact, estimate)
    assert report.per_level == (0.25,)
    assert report.aggregate == 0.25


def test_error_metric_zero_mass_levels():
    empty = Stream(np.array([]), np.array([], dtype=np.int64), 3)
    exact = stream_features(empty, EventMapKind.LINEAR, 2)
    assert error_metric(exact, exact).per_level == (0.0, 0.0)
    bumped = exact.copy()
    bumped.levels[2] = bumped.levels[2] + 0.5
    report = error_metric(exact, bumped)
    assert report.per_level[1] == math.inf


def test_error_metric_shape_guard():
    s = gen_heavy_tail_stream(10, 50, 2, 0.3, seed=0)
    a = stream_features(s, EventMapKind.LINEAR, 2)
    b = stream_features(s, EventMapKind.LINEAR, 1)
    with pytest.raises(ValueError):
        error_metric(a, b)


def test_single_bucket_error_is_pinned():
    # One bucket, unit-weight two-letter stream: every level-1 estimate reads
    # the whole mass, every level-2 estimate the whole level-2 mass, so the
    # normalized errors are exactly 1 and 3.
    s = Stream.from_events([(1.0, 0)] * 6 + [(1.0, 1)] * 2, 2)
    sk = OrderSketch(sample_hashes(HashFamilySpec(2, 1, 0), 1), 2, EventMapKind.LINEAR, 2)
    sk.extend(s)
    exact = stream_features(s, EventMapKind.LINEAR, 2)
    report = error_metric(exact, dense_pullback(sk))
    assert report.per_level[0] == pytest.approx(1.0, rel=1e-12)
    assert report.per_level[1] == pytest.approx(3.0, rel=1e-12)


# -- classifier -------------------------------------------------------------------


def test_classifier_separates_linear_data():
    rng = np.random.Generator(np.random.PCG64(13))
    x = rng.normal(size=(120, 3))
    y = (x @ np.array([1.0, -2.0, 0.5]) > 0.2).astype(np.int64)
    if y.min() == y.max():  # safeguard against a degenerate draw
        y[0] = 1 - y[0]
    model = train_linear_classifier(x, y, l2=1e-6, epochs=600)
    assert model.accuracy(x, y) >= 0.97
    hist = model.loss_history
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))


def test_classifier_is_deterministic():
    rng = np.random.Generator(np.random.PCG64(14))
    x = rng.normal(size=(40, 2))
    y = (x[:, 0] > 0).astype(np.int64)
    m1 = train_linear_classifier(x, y)
    m2 = train_linear_classifier(x, y)
    assert np.array_equal(m1.weights, m2.weights) and m1.intercept == m2.intercept


def test_classifier_input_validation():
    x = np.zeros((10, 2))
    with pytest.raises(ValueError):
        train_linear_classifier(x, np.zeros(10))  # single class
    with pytest.raises(ValueError):
        train_linear_classifier(x, np.zeros(9))
    with pytest.raises(ValueError):
        train_linear_classifier(np.zeros(10), np.zeros(10))


def test_classifier_uninformative_features():
    x = np.ones((30, 2))
    y = np.array([0, 1] * 15)
    model = train_linear_classifier(x, y)
    assert model.accuracy(x, y) == 0.5


def test_classifier_constant_column_tolerated():
    rng = np.random.Generator(np.random.PCG64(15))
    x = np.column_stack([rng.normal(size=50), np.full(50, 7.0)])
    y = (x[:, 0] > 0).astype(np.int64)
    model = train_linear_classifier(x, y)
    assert model.accuracy(x, y) >= 0.95
    assert math.isfinite(model.intercept)


# -- experiment one ----------------------------------------------------------------


def memory_ratio(alphabet_size, bucket_count, hash_count, depth):
    """Exact coordinates of levels 1..depth per stored table coordinate."""
    exact_coords = sum(alphabet_size**m for m in range(1, depth + 1))
    return exact_coords / (hash_count * sum(bucket_count**m for m in range(1, depth + 1)))


def test_memory_ratio_formula():
    assert memory_ratio(100, 4, 2, 2) == pytest.approx(10100 / 40)
    assert memory_ratio(100, 100, 1, 2) == pytest.approx(1.0)
    # the two counts experiment one divides
    sk = OrderSketch(sample_hashes(HashFamilySpec(100, 4, 0), 2), 2, EventMapKind.EXP, 100)
    assert (GradedTensor.unit(100, 2).coordinate_count() - 1, sk.coordinate_count()) == (10100, 40)


def test_experiment_one_defaults_pin_the_headline_run():
    cfg = ExperimentOneConfig()
    assert (cfg.alphabet_size, cfg.length) == (100, 100_000)
    assert (cfg.heavy_count, cfg.heavy_mass) == (10, 0.1)
    assert cfg.bucket_counts == (4, 8, 16, 32) and cfg.hash_counts == (2, 4, 8)
    assert cfg.repetitions == 10 and cfg.kind is EventMapKind.EXP


def test_experiment_one_small_grid():
    cfg = ExperimentOneConfig(
        alphabet_size=20,
        length=2000,
        heavy_count=4,
        heavy_mass=0.2,
        bucket_counts=(4, 8),
        hash_counts=(2, 4),
        repetitions=3,
        base_seed=1,
    )
    rows = run_experiment_1(cfg)
    assert len(rows) == 4
    by_cell = {(r.bucket_count, r.hash_count): r for r in rows}
    for row in rows:
        assert math.isfinite(row.median_error) and row.median_error > 0
        assert row.events_per_sec > 0
        assert row.memory_ratio == pytest.approx(
            memory_ratio(20, row.bucket_count, row.hash_count, 2)
        )
    # more hash draws extend the same per-repetition prefix, so error can
    # only move down for every bucket count
    assert by_cell[(4, 4)].median_error <= by_cell[(4, 2)].median_error
    assert by_cell[(8, 4)].median_error <= by_cell[(8, 2)].median_error


def test_experiment_one_identity_row_is_exact():
    cfg = ExperimentOneConfig(
        alphabet_size=16,
        length=500,
        heavy_count=4,
        heavy_mass=0.25,
        bucket_counts=(4,),
        hash_counts=(2,),
        repetitions=2,
        include_identity_row=True,
    )
    rows = run_experiment_1(cfg)
    assert len(rows) == 2
    identity = rows[-1]
    assert identity.bucket_count == 16 and identity.hash_count == 1
    assert identity.median_error == 0.0
    assert identity.memory_ratio == pytest.approx(memory_ratio(16, 16, 1, 2))


# -- experiment two ----------------------------------------------------------------


def test_experiment_two_defaults():
    cfg = ExperimentTwoConfig()
    assert cfg.alphabet_size == 1000 and cfg.total_length == 10_000
    assert cfg.p == 0.1 and cfg.rho == 250.0
    assert cfg.epsilon == 1 / 32 and cfg.depth == 2


def test_experiment_two_small_smoke():
    cfg = ExperimentTwoConfig(
        alphabet_size=200,
        total_length=2000,
        p=0.1,
        q_values=(0.2,),
        streams_per_class=6,
        rho=40.0,
        splits=2,
        epochs=150,
        base_seed=2,
        chunk_size=512,
    )
    rows = run_experiment_2(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.q_minus_p == pytest.approx(0.1)
    assert row.feature_letters == (1, 2)
    assert set(row.accuracy_by_depth) == {1, 2}
    assert row.accuracy_by_depth[1] >= 0.9
    assert row.accuracy_by_depth[2] >= 0.9


def test_error_report_shape():
    r = ErrorReport((0.1, 0.3), 0.2)
    assert r.aggregate == 0.2 and r.per_level == (0.1, 0.3)
