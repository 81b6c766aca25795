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
    assert len(PUBLIC_NAMES) == 37
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


def _int64_casts(path: Path) -> list:
    """The functions of a module that cast with ``np.array``, ``np.asarray``
    or ``np.ascontiguousarray`` given ``dtype=np.int64``, or ``.astype(np.int64)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]

    def int64(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "int64"

    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        name = node.func.attr
        if (name == "astype" and node.args and int64(node.args[0])) or (
                name in ("array", "asarray", "ascontiguousarray")
                and any(k.arg == "dtype" and int64(k.value) for k in node.keywords)):
            owner = min((f for f in functions if f.lineno <= node.lineno <= f.end_lineno),
                        key=lambda f: f.end_lineno - f.lineno)
            out.append(f"{path.stem}.{owner.name}")
    return out


def test_one_module_owns_the_integer_rule():
    # tensor.py's one type test serves letters and integer arguments alike
    for path in sorted((ROOT / "src" / "ordersketch").glob("*.py")):
        if path.name == "tensor.py":
            continue
        text = path.read_text(encoding="utf-8")
        assert "must be an integer" not in text, path.name
        for node in ast.walk(ast.parse(text)):
            assert not (isinstance(node, ast.Attribute) and node.attr == "integer"), path.name
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") in (
                "isinstance", "issubclass"
            ):
                assert getattr(node.args[1], "id", "") != "int", path.name
            if isinstance(node, ast.FunctionDef):
                assert not node.name.startswith("_is_int"), path.name
    sketch = ast.parse((ROOT / "src" / "ordersketch" / "sketch.py").read_text(encoding="utf-8"))
    coercions = [
        ast.unparse(node) for node in ast.walk(sketch)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "int"
        and node.args and isinstance(node.args[0], ast.Attribute)
        and getattr(node.args[0].value, "id", "") == "self"
    ]
    assert coercions == []


def test_one_module_owns_the_real_rule():
    # tensor.py's _real serves every real argument, as _integer every integer one
    for path in sorted((ROOT / "src" / "ordersketch").glob("*.py")):
        if path.name == "tensor.py":
            continue
        text = path.read_text(encoding="utf-8")
        assert "must be a real number" not in text, path.name
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") in (
                "isinstance", "issubclass"
            ):
                types = [ast.unparse(t) for t in ast.walk(node.args[1])]
                assert not {"float", "np.floating", "numpy.floating"} & set(types), path.name
            if isinstance(node, ast.FunctionDef):
                assert node.name != "_is_number", path.name


def test_one_module_owns_the_letter_rule():
    sources = sorted((ROOT / "src" / "ordersketch").glob("*.py"))
    for path in sources:
        text = path.read_text(encoding="utf-8")
        if path.name != "tensor.py":
            assert "letters must be integers" not in text, path.name
            assert "outside alphabet of size" not in text, path.name
    casts = sorted(cast for path in sources for cast in _int64_casts(path))
    assert casts == [
        "experiments.predict",  # class labels
        "experiments.run_experiment_2",  # class labels
        "hashing._hash_letters",  # bucket ids, from letters eval_hash_array has checked
        "tensor._letter_array",  # the rule: the one cast of caller letters
    ]
