"""The public surface of the package: exactly these names, each resolvable,
and one way to construct and feed a sketch."""

import inspect

import ordersketch
from ordersketch import OrderSketch

PUBLIC_NAMES = {
    "AffineHash",
    "CandidateCapError",
    "ErrorReport",
    "Event",
    "EventMapKind",
    "ExperimentOneConfig",
    "ExperimentTwoConfig",
    "GradedTensor",
    "HashFamilySpec",
    "HeavyPatternResult",
    "LinearFunctional",
    "LogisticModel",
    "MarkovExperimentConfig",
    "OrderSketch",
    "Stream",
    "StreamClass",
    "dense_pullback",
    "error_metric",
    "eval_hash",
    "eval_hash_array",
    "features_from_arrays",
    "gen_heavy_tail_stream",
    "gen_markov_stream",
    "infiltration_product",
    "l1_level_norm",
    "mine_heavy_patterns",
    "pairing",
    "run_experiment_1",
    "run_experiment_2",
    "sample_hashes",
    "shuffle_product",
    "smallest_prime_geq",
    "table_shape_for",
    "train_linear_classifier",
    "truncated_product",
    "word_from_index",
    "word_from_text",
    "word_index",
    "word_to_text",
}


def test_all_is_pinned():
    assert len(PUBLIC_NAMES) == 39
    assert len(ordersketch.__all__) == len(set(ordersketch.__all__))
    assert set(ordersketch.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in ordersketch.__all__:
        assert getattr(ordersketch, name) is not None, name


def test_sketch_has_one_sizing_classmethod():
    classmethods = {
        name for name, value in vars(OrderSketch).items() if isinstance(value, classmethod)
    }
    assert classmethods == {"from_parameters", "from_snapshot", "load"}
    assert not hasattr(OrderSketch, "from_table_shape")
    assert not hasattr(OrderSketch, "with_hashes")


def test_extend_takes_only_a_stream():
    params = list(inspect.signature(OrderSketch.extend).parameters)
    assert params == ["self", "stream"]


def test_features_from_arrays_folds_onto_a_tensor():
    params = list(inspect.signature(ordersketch.features_from_arrays).parameters)
    assert params == ["lambdas", "letters", "phi", "kind"]
