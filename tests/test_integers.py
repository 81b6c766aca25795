"""The integer rule on every entry point that takes a size, depth, count, cap,
seed, level or slice bound: the argument is a non-bool int or numpy integer
at or above its lower bound.  A float, bool or string is refused with a
ValueError naming the argument, never truncated; a numpy integer is stored
as a Python int, and so reaches results as one."""

import json
import re

import numpy as np
import pytest

from ordersketch import (
    AffineHash,
    EventMapKind,
    ExperimentOneConfig,
    ExperimentTwoConfig,
    GradedTensor,
    HashFamilySpec,
    MarkovExperimentConfig,
    OrderSketch,
    Stream,
    dense_pullback,
    gen_heavy_tail_stream,
    l1_level_norm,
    mine_heavy_patterns,
    run_experiment_1,
    sample_hashes,
    smallest_prime_geq,
    train_linear_classifier,
)

from util import join_snapshot, split_snapshot

N = 5
HASHES = sample_hashes(HashFamilySpec(N, 4, 0), 2)


def _sketch() -> OrderSketch:
    sketch = OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.EXP, N, seed=0)
    sketch.extend(Stream(np.array([1.0, 2.0, 0.5]), np.array([0, 1, 4]), N))
    return sketch


def _load(**changes) -> OrderSketch:
    header, values = split_snapshot(_sketch().to_snapshot())
    return OrderSketch.from_snapshot(join_snapshot(dict(header, **changes), values))


def _mine(**options):
    stream = Stream(np.ones(6), [0, 4, 0, 0, 4, 0], N)
    return mine_heavy_patterns(stream, [2.5], 0.5, 0.25, 2, EventMapKind.EXP, 0, **options)


def _fit(epochs):
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    return train_linear_classifier(x, np.array([0, 0, 1, 1]), epochs=epochs)


# "entry point argument" -> (an accepted value, call(value), read(result) of the
# stored value, or None where nothing is stored)
SITES = {
    "Stream alphabet_size": (3, lambda v: Stream([1.0], [0], v), lambda s: s.alphabet_size),
    "GradedTensor alphabet_size": (3, lambda v: GradedTensor(v, 2), lambda t: t.alphabet_size),
    "GradedTensor depth": (3, lambda v: GradedTensor(2, v), lambda t: t.depth),
    "GradedTensor.unit depth": (3, lambda v: GradedTensor.unit(2, v), lambda t: t.depth),
    "AffineHash a": (3, lambda v: AffineHash(v, 0, 7, 3), lambda h: h.a),
    "AffineHash b": (3, lambda v: AffineHash(1, v, 7, 3), lambda h: h.b),
    "AffineHash p": (3, lambda v: AffineHash(1, 0, v, 3), lambda h: h.p),
    "AffineHash n": (3, lambda v: AffineHash(1, 0, 7, v), lambda h: h.n),
    "HashFamilySpec source_size": (3, lambda v: HashFamilySpec(v, 4, 0), lambda s: s.source_size),
    "HashFamilySpec target_size": (3, lambda v: HashFamilySpec(N, v, 0), lambda s: s.target_size),
    "HashFamilySpec seed": (3, lambda v: HashFamilySpec(N, 4, v), lambda s: s.seed),
    "sample_hashes r": (3, lambda v: sample_hashes(HashFamilySpec(N, 4, 0), v), len),
    "smallest_prime_geq m": (3, smallest_prime_geq, lambda p: p),
    "OrderSketch depth": (3, lambda v: OrderSketch(HASHES, v, "exp", N), lambda s: s.depth),
    "OrderSketch alphabet_size": (
        3, lambda v: OrderSketch(HASHES, 2, "exp", v), lambda s: s.alphabet_size),
    "OrderSketch seed": (3, lambda v: OrderSketch(HASHES, 2, "exp", N, v), lambda s: s.seed),
    "OrderSketch events_seen": (
        3, lambda v: OrderSketch(HASHES, 2, "exp", N, events_seen=v), lambda s: s.events_seen),
    "from_parameters depth": (
        3, lambda v: OrderSketch.from_parameters(0.5, 0.25, v, "exp", N, 0), lambda s: s.depth),
    "from_parameters alphabet_size": (
        3, lambda v: OrderSketch.from_parameters(0.5, 0.25, 2, "exp", v, 0),
        lambda s: s.alphabet_size),
    "from_parameters seed": (
        3, lambda v: OrderSketch.from_parameters(0.5, 0.25, 2, "exp", N, v), lambda s: s.seed),
    # a snapshot header is JSON, which holds no numpy integers
    "from_snapshot bucket_count": (None, lambda v: _load(bucket_count=v), None),
    "from_snapshot depth": (None, lambda v: _load(depth=v), None),
    "dense_pullback max_coordinates": (3, lambda v: dense_pullback(_sketch(), [0], v), None),
    "mine_heavy_patterns chunk_size": (3, lambda v: _mine(chunk_size=v), None),
    "mine_heavy_patterns candidate_cap": (3, lambda v: _mine(candidate_cap=v), None),
    "gen_heavy_tail_stream alphabet_size": (
        3, lambda v: gen_heavy_tail_stream(v, 10, 1, 0.5, 0), lambda s: s.alphabet_size),
    "gen_heavy_tail_stream length": (3, lambda v: gen_heavy_tail_stream(N, v, 1, 0.5, 0), len),
    "gen_heavy_tail_stream heavy_count": (
        3, lambda v: gen_heavy_tail_stream(N, 10, v, 0.5, 0), None),
    "gen_heavy_tail_stream seed": (3, lambda v: gen_heavy_tail_stream(N, 10, 1, 0.5, v), None),
    "MarkovExperimentConfig alphabet_size": (
        3, lambda v: MarkovExperimentConfig(v, 40, 0.1, 0.2, "a", 0), lambda c: c.alphabet_size),
    "MarkovExperimentConfig total_length": (
        4, lambda v: MarkovExperimentConfig(N, v, 0.1, 0.2, "a", 0), lambda c: c.total_length),
    "MarkovExperimentConfig seed": (
        3, lambda v: MarkovExperimentConfig(N, 40, 0.1, 0.2, "a", v), lambda c: c.seed),
    "train_linear_classifier epochs": (3, _fit, None),
    "l1_level_norm m": (1, lambda v: l1_level_norm(GradedTensor.unit(2, 2), v), None),
    "Stream.slice start": (1, lambda v: Stream([1.0, 2.0], [0, 1], 2).slice(v, 2), None),
    "Stream.slice stop": (1, lambda v: Stream([1.0, 2.0], [0, 1], 2).slice(0, v), None),
}
# every integer field of the two harness configs; a grid field holds one entry
for config, names in (
    (ExperimentOneConfig, ("alphabet_size", "length", "heavy_count", "depth", "repetitions",
                           "base_seed", "bucket_counts", "hash_counts")),
    (ExperimentTwoConfig, ("alphabet_size", "total_length", "streams_per_class", "depth",
                           "splits", "epochs", "candidate_cap", "chunk_size", "base_seed")),
):
    for key in names:
        grid = key.endswith("_counts")
        SITES[f"{config.__name__} {key}"] = (
            3,
            lambda v, config=config, key=key, grid=grid: config(**{key: (v,) if grid else v}),
            lambda c, key=key, grid=grid: getattr(c, key)[0] if grid else getattr(c, key),
        )


@pytest.mark.parametrize("bad", [2.5, True, "3"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_every_site_refuses_a_non_integer(site, bad):
    name = site.split()[-1]
    _, call, _ = SITES[site]
    message = f"{name} must be an integer, not {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("site", sorted(name for name, case in SITES.items() if case[0]))
def test_every_site_stores_a_numpy_integer_as_a_python_int(site):
    good, call, read = SITES[site]
    out = call(np.int64(good))
    if read is not None:
        assert type(read(out)) is int and read(out) == good


def test_lower_bounds_name_the_argument():
    for call, message in (
        (lambda: GradedTensor(2, -1), "depth must be >= 0, not -1"),
        (lambda: OrderSketch(HASHES, 0, "exp", N), "depth must be >= 1, not 0"),
        (lambda: OrderSketch(HASHES, 2, "exp", N, events_seen=-1), "events_seen must be >= 0"),
        (lambda: sample_hashes(HashFamilySpec(N, 4, 0), -1), "r must be >= 0, not -1"),
        (lambda: _load(bucket_count=0), "bucket_count must be >= 1, not 0"),
        (lambda: _mine(chunk_size=0), "chunk_size must be >= 1, not 0"),
        (lambda: _mine(candidate_cap=-1), "candidate_cap must be >= 0, not -1"),
        (lambda: MarkovExperimentConfig(2, 40, 0.1, 0.2, "a", 0), "alphabet_size must be >= 3"),
        (lambda: ExperimentOneConfig(hash_counts=(2, 0)), "hash_counts must be >= 1, not 0"),
        (lambda: ExperimentTwoConfig(splits=0), "splits must be >= 1, not 0"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            call()


def test_from_parameters_names_its_own_arguments():
    for args, message in (
        (("0.5", 0.25, 2, "exp", N, 0), "epsilon must be a real number, not '0.5'"),
        ((0.5, "0.25", 2, "exp", N, 0), "delta must be a real number, not '0.25'"),
        ((0.5, 0.25, 2, "exp", 10.5, 0), "alphabet_size must be an integer, not 10.5"),
        ((0.5, 0.25, 2, "exp", 0, 0), "alphabet_size must be >= 1, not 0"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OrderSketch.from_parameters(*args)


def test_a_sketch_built_from_numpy_integers_encodes_as_one_built_from_ints():
    def build(cast) -> OrderSketch:
        sketch = OrderSketch(HASHES, cast(2), "linear", cast(N), cast(7), events_seen=cast(4))
        sketch.extend(Stream(np.array([1.0, 2.0, 0.5]), np.array([0, 1, 4]), N))
        return sketch

    numpy_built = build(np.int64)
    assert all(type(getattr(numpy_built, key)) is int
               for key in ("depth", "alphabet_size", "seed", "events_seen"))
    snapshot = numpy_built.to_snapshot()
    assert snapshot == build(int).to_snapshot()
    assert OrderSketch.from_snapshot(snapshot).to_snapshot() == snapshot


def test_configs_store_their_grids_as_tuples_of_python_numbers():
    one = ExperimentOneConfig(bucket_counts=[np.int64(4), 8], hash_counts=[np.int32(2)])
    assert one.bucket_counts == (4, 8) and one.hash_counts == (2,)
    assert all(type(b) is int for b in one.bucket_counts + one.hash_counts)
    two = ExperimentTwoConfig(q_values=[np.float32(0.25), 0.5])
    assert two.q_values == (0.25, 0.5) and all(type(q) is float for q in two.q_values)
    for bad in (4, (), [], "4"):
        with pytest.raises(ValueError, match="^bucket_counts must be a non-empty list"):
            ExperimentOneConfig(bucket_counts=bad)


def test_results_built_from_numpy_integers_hold_python_ints():
    _, results = mine_heavy_patterns(Stream(np.ones(6), [0, 4, 0, 0, 4, 0], N), [np.float32(2.5)],
                                     0.5, 0.25, np.int64(2), EventMapKind.EXP, np.int64(0))
    (rho, result), = results.items()
    assert type(rho) is float and type(result.threshold) is float
    assert type(result.depth) is int and all(type(a) is int for a in result.hot_letters)
    json.dumps([result.threshold, result.depth, result.hot_letters,
                [[word, value] for word, value in result.estimates.items()]])
    config = ExperimentOneConfig(alphabet_size=np.int64(8), length=np.int64(200),
                                 heavy_count=np.int64(2), depth=np.int64(2),
                                 bucket_counts=(np.int64(4),), hash_counts=(np.int64(2),),
                                 repetitions=np.int64(1), base_seed=np.int64(0))
    (row,) = run_experiment_1(config)
    assert type(row.bucket_count) is int and type(row.hash_count) is int
    json.dumps(row.__dict__)
