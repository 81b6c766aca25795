"""The public surface of the package: exactly these names, each resolvable
and each used by the package or a demo, and one way to construct and feed a
sketch."""

import ast
import inspect
from pathlib import Path

import ordersketch
from ordersketch import EventMapKind, OrderSketch, Stream

ROOT = Path(__file__).resolve().parent.parent

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
    "train_linear_classifier",
    "truncated_product",
    "word_from_index",
    "word_from_text",
    "word_index",
    "word_to_text",
}


def test_all_is_pinned():
    assert len(PUBLIC_NAMES) == 38
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


def test_mining_folds_the_stream_once(monkeypatch):
    calls = []
    extend = OrderSketch.extend

    def counting(self, stream):
        calls.append(len(stream))
        extend(self, stream)

    monkeypatch.setattr(OrderSketch, "extend", counting)
    stream = Stream.from_events([(1.0, i % 5) for i in range(100)], 5)
    ordersketch.mine_heavy_patterns(stream, [3.0], 0.5, 0.25, 2, EventMapKind.EXP, 0, chunk_size=8)
    assert calls == [100]


def test_features_from_arrays_folds_onto_a_tensor():
    params = list(inspect.signature(ordersketch.features_from_arrays).parameters)
    assert params == ["lambdas", "letters", "phi", "kind"]


def test_options_with_one_value_in_use_are_gone():
    def params(f):
        return list(inspect.signature(f).parameters)

    assert params(ordersketch.error_metric) == ["exact", "estimate"]
    assert params(ordersketch.HashFamilySpec) == ["source_size", "target_size", "seed"]
    assert params(ordersketch.MarkovExperimentConfig) == [
        "alphabet_size", "total_length", "p", "q", "stream_class", "seed",
    ]


def _names_used(path: Path) -> set:
    """Names loaded in a module (as a name or an attribute) outside the
    top-level def or class of the same name, plus names a demo imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and path.parent.name == "demos":
            used.update(alias.name for alias in stmt.names)
        loaded = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
        loaded.discard(getattr(stmt, "name", None))
        used |= loaded
    return used


def test_every_export_has_a_caller():
    files = [p for p in (ROOT / "src" / "ordersketch").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "demos").glob("*.py")
    used = set().union(*map(_names_used, files))
    assert set(ordersketch.__all__) - used == set()


def test_one_module_owns_the_finite_value_rule():
    # the fold raises nothing of its own; one class, in sketch.py, is the rule's error
    import ordersketch.features as features
    import ordersketch.sketch as sketch

    assert not [v for v in vars(features).values() if isinstance(v, type)
                and issubclass(v, BaseException) and v.__module__ == features.__name__]
    owners = [
        path.name
        for path in sorted((ROOT / "src" / "ordersketch").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and node.name == "NonFiniteError"
    ]
    assert owners == ["sketch.py"]
    assert issubclass(sketch.NonFiniteError, ValueError)
