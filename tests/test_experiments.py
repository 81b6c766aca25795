import ctypes
import hashlib
import json
import math
import os
import pickle
import time
from statistics import median

import numpy as np
import pytest

from ordersketch import (
    EventMapKind,
    GradedTensor,
    OrderSketch,
    Stream,
    dense_pullback,
    features_from_arrays,
)
from ordersketch import experiments, sketch
from ordersketch.hashing import AffineHash, HashFamilySpec, derive_seed, sample_hashes
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

from util import FileLog, run_cli, stream_features


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


# Recorded from the fit before it reused the accepted step's decision values:
# (features, seed) -> (weights, intercept, len(loss_history), sha256 of loss_history).
PINNED_FITS = {
    (3, 21): (
        ["-0x1.19b57d7f36c17p+1", "-0x1.2e97ae2c07e4ap-4", "-0x1.36e34ae93f716p-3"],
        "0x1.5f245ad51cbbep-2", 401,
        "6f4a5b27fd9b00bcc76dccf3f43940fed37d41bd945d00d91ed6e443fb922fb6",
    ),
    (12, 22): (
        ["-0x1.1b7092714f187p-4", "0x1.c52af90cddc65p-3", "0x1.6f8d59478029ep-1",
         "0x1.7e252caa1614cp+1", "0x1.f9463729f81acp+0", "0x1.e8d33aa252caep+0",
         "0x1.570f010b259a4p+1", "-0x1.eea61255da7d7p+1", "0x1.e367804f91edep+0",
         "0x1.6ffdecac53334p-1", "0x1.21ecfc696b428p-1", "-0x1.43858c85f8decp+1"],
        "-0x1.a2ba569f31048p-5", 401,
        "d07cbcb493cc2694392f6a9b8311a315355b80e79f4c6a67ee3ee44fcfdb979d",
    ),
}


@pytest.mark.parametrize("d, seed", sorted(PINNED_FITS))
def test_classifier_fit_is_pinned_bit_for_bit(d, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.normal(size=(32, d))
    y = (x @ rng.normal(size=d) + rng.normal(size=32) > 0).astype(np.int64)
    model = train_linear_classifier(x, y)
    weights, intercept, epochs, digest = PINNED_FITS[(d, seed)]
    assert [w.hex() for w in model.weights.tolist()] == weights
    assert model.intercept.hex() == intercept
    assert len(model.loss_history) == epochs
    assert hashlib.sha256(np.array(model.loss_history).tobytes()).hexdigest() == digest


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


def test_experiment_one_rows_equal_a_fold_per_cell():
    # unsorted and repeated hash counts, several repetitions and the identity
    # row: every row must equal sketches built and folded from scratch per cell
    cfg = ExperimentOneConfig(
        alphabet_size=23,
        length=3000,
        heavy_count=3,
        heavy_mass=0.3,
        depth=3,
        kind=EventMapKind.LINEAR,
        bucket_counts=(8, 3),
        hash_counts=(4, 1, 4, 2),
        repetitions=3,
        base_seed=5,
        include_identity_row=True,
    )
    rows = run_experiment_1(cfg)
    stream = gen_heavy_tail_stream(23, 3000, 3, 0.3, derive_seed(5, 0))
    exact = features_from_arrays(
        stream.lambdas, stream.letters, GradedTensor.unit(23, 3), EventMapKind.LINEAR
    )

    def cell(draws):
        errors = []
        for hashes in draws:
            sk = OrderSketch(hashes, 3, EventMapKind.LINEAR, 23)
            sk.extend(stream)
            errors.append(error_metric(exact, dense_pullback(sk)).aggregate)
        return (sk.bucket_count, sk.hash_count,
                (exact.coordinate_count() - 1) / sk.coordinate_count(), median(errors))

    seeds = [derive_seed(5, 1 + s) for s in range(3)]
    expected = [
        cell([sample_hashes(HashFamilySpec(23, b, s), r) for s in seeds])
        for b in (8, 3) for r in (4, 1, 4, 2)
    ] + [cell([[AffineHash(1, 0, 23, 23)]])]
    got = [(r.bucket_count, r.hash_count, r.memory_ratio, r.median_error) for r in rows]
    assert got == expected
    assert all(r.events_per_sec > 0 for r in rows)
    assert rows[-1].median_error == 0.0


def test_study_table1_folds_each_drawn_table_once(monkeypatch, tmp_path):
    # the study benchmark's table1 shape: one exact fold, then one fold per
    # table of the largest draw per bucket count (1 + 4 * 8), not per cell
    # (1 + 4 * (2 + 4 + 8)); a file counts the folds of a forked child too
    log = FileLog(tmp_path)

    def counted(*args):
        log.append(len(args[0]))
        return features_from_arrays(*args)

    monkeypatch.setattr(experiments, "features_from_arrays", counted)
    monkeypatch.setattr(sketch, "features_from_arrays", counted)
    cfg = ExperimentOneConfig(
        alphabet_size=100, length=100_000, heavy_count=10, heavy_mass=0.1, depth=2,
        kind=EventMapKind.EXP, bucket_counts=(4, 8, 16, 32), hash_counts=(2, 4, 8),
        repetitions=1,
    )
    assert len(run_experiment_1(cfg)) == 12
    folds = [int(n) for n in log()]
    assert folds == [100_000] * 33


# -- the two-process map -----------------------------------------------------

# the study benchmark's configs, and small ones whose table2 finds feature letters
STUDY = {
    "table1": {"alphabet_size": 100, "length": 100_000, "heavy_count": 10, "heavy_mass": 0.1,
               "depth": 2, "kind": "exp", "bucket_counts": [4, 8, 16, 32],
               "hash_counts": [2, 4, 8], "repetitions": 1},
    "table2": {"alphabet_size": 1000, "total_length": 10_000, "p": 0.1, "q_values": [0.13],
               "streams_per_class": 20, "depth": 2, "kind": "exp"},
}
SMALL = {
    "table1": {"alphabet_size": 20, "length": 2000, "heavy_count": 4, "heavy_mass": 0.2,
               "bucket_counts": [4, 8], "hash_counts": [2, 4], "repetitions": 3},
    "table2": {"alphabet_size": 200, "total_length": 2000, "p": 0.1, "q_values": [0.2, 0.15],
               "streams_per_class": 6, "rho": 40.0, "splits": 2, "epochs": 150,
               "chunk_size": 512},
}


@pytest.fixture
def blas():
    """The OpenBLAS thread-count getter and setter the map limits; without
    them the map never forks, and a test of its parallel path is moot."""
    found = experiments._blas_threads()
    if found is None:
        pytest.skip("numpy's bundled OpenBLAS is not found, so the map runs serially")
    return found


def allow(monkeypatch, path) -> None:
    """Force the map's path: "serial" without ``os.fork``, else ``path`` allowed CPUs."""
    if path == "serial":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(path)), raising=False)


def spy_forks(monkeypatch) -> list:
    """Record each `os.fork` call made in this process."""
    forks, fork = [], os.fork

    def recorded():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", recorded)
    return forks


def table1_cells(rows) -> list:
    # every field but the throughput, which each process times for itself
    return [(r.bucket_count, r.hash_count, r.memory_ratio, r.median_error) for r in rows]


@pytest.mark.parametrize("configs", [STUDY, SMALL], ids=["study", "small"])
@pytest.mark.parametrize("table", ["table1", "table2"])
def test_the_tables_print_the_same_bytes_on_every_path(tmp_path, monkeypatch, blas, configs,
                                                         table):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(configs[table]))
    outputs = {}
    for way in ("serial", 1, 2):
        with monkeypatch.context() as m:
            allow(m, way)
            forks = spy_forks(m) if way != "serial" else []
            code, out, _ = run_cli(["experiment", table, "--config", str(path), "--seed", "1"])
        assert code == 0 and bool(forks) == (way == 2)
        outputs[way] = out
    assert outputs["serial"] == outputs[1] == outputs[2]
    if table == "table2":
        assert '"feature_letters":[1,2]' in outputs[2]


@pytest.mark.parametrize("cpus, symbol, forked", [(2, True, True), (1, True, False),
                                                  (2, False, False)],
                         ids=["two cpus", "one cpu", "no blas symbol"])
def test_one_fork_per_map_on_two_cpus_only(monkeypatch, blas, cpus, symbol, forked):
    allow(monkeypatch, cpus)
    if not symbol:
        monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    forks, maps, fork_map = spy_forks(monkeypatch), [], experiments._fork_map

    def counted(fn, items):
        maps.append(len(items))
        return fork_map(fn, items)

    monkeypatch.setattr(experiments, "_fork_map", counted)
    run_experiment_1(ExperimentOneConfig(**SMALL["table1"]))
    run_experiment_2(ExperimentTwoConfig(**SMALL["table2"]))
    assert maps and min(maps) > 1
    assert len(forks) == len(maps) * forked


def test_blas_runs_on_one_thread_in_both_processes(monkeypatch, blas):
    get_threads, set_threads = blas
    allow(monkeypatch, 2)
    threads = get_threads()
    set_threads(2)
    try:
        got = experiments._fork_map(lambda x: (x, os.getpid(), get_threads()), range(5))
        assert get_threads() == 2
    finally:
        set_threads(threads)
    assert [x for x, _, _ in got] == list(range(5))
    assert {pid for _, pid, _ in got[::2]} == {os.getpid()}
    assert len({pid for _, pid, _ in got[1::2]} - {os.getpid()}) == 1
    assert [n for _, _, n in got] == [1] * 5


@pytest.mark.parametrize("failure", ["non-zero exit", "short pickle"])
def test_a_failed_child_gives_the_serial_rows(monkeypatch, blas, failure):
    cfg = ExperimentOneConfig(**SMALL["table1"])
    with monkeypatch.context() as m:
        allow(m, "serial")
        want = table1_cells(run_experiment_1(cfg))
    allow(monkeypatch, 2)
    parent = os.getpid()
    if failure == "non-zero exit":
        pullback = experiments.dense_pullback

        def failing(*args, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("a failure in the child")
            return pullback(*args, **kwargs)

        monkeypatch.setattr(experiments, "dense_pullback", failing)
    else:
        monkeypatch.setattr(pickle, "dump", lambda obj, fh: fh.write(pickle.dumps(obj)[:-1]))
    forks = spy_forks(monkeypatch)
    assert table1_cells(run_experiment_1(cfg)) == want
    assert len(forks) == 1


def test_an_exception_in_the_parents_share_kills_the_child(monkeypatch, blas):
    # the child would sleep for a minute, so only a kill lets the map end at once;
    # the conftest fixture checks that it was reaped
    get_threads, set_threads = blas
    allow(monkeypatch, 2)
    forks, parent, seen = spy_forks(monkeypatch), os.getpid(), []

    def fn(x):
        if os.getpid() != parent:
            time.sleep(60)
        seen.append(get_threads())
        if x == 2:
            raise ValueError("the parent's share fails")
        return x

    threads = get_threads()
    set_threads(2)
    try:
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="the parent's share fails"):
            experiments._fork_map(fn, range(6))
        assert time.perf_counter() - t0 < 30
        assert get_threads() == 2
    finally:
        set_threads(threads)
    assert len(forks) == 1 and seen == [1, 1]
