"""The real rule on every entry point that takes a real number: epsilon,
delta, a mass, a weight, a threshold, a rate, a penalty or a coefficient is
a non-bool int or float or numpy integer or floating.  A string, bool,
``None`` or complex value is refused with a ValueError naming the argument;
a numpy number is stored as a Python float.  Ranges stay with each site."""

import math
import re

import numpy as np
import pytest

from ordersketch import (
    EventMapKind,
    ExperimentOneConfig,
    ExperimentTwoConfig,
    HashFamilySpec,
    LinearFunctional,
    MarkovExperimentConfig,
    OrderSketch,
    Stream,
    gen_heavy_tail_stream,
    mine_heavy_patterns,
    sample_hashes,
    train_linear_classifier,
)

N = 5
HASHES = sample_hashes(HashFamilySpec(N, 4, 0), 2)


def _sketch() -> OrderSketch:
    return OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.EXP, N, seed=0)


def _update(lam) -> OrderSketch:
    sketch = _sketch()
    sketch.update(lam, 1)
    return sketch


def _fit(l2):
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    return train_linear_classifier(x, np.array([0, 0, 1, 1]), l2=l2, epochs=3)


# "entry point argument" -> (an accepted float, an accepted integer or None where
# no integer is in range, call(value), read(result) of the stored value or None)
SITES = {
    "OrderSketch epsilon": (
        0.5, 2, lambda v: OrderSketch(HASHES, 2, "exp", N, epsilon=v), lambda s: s.epsilon),
    "OrderSketch delta": (
        0.25, None, lambda v: OrderSketch(HASHES, 2, "exp", N, delta=v), lambda s: s.delta),
    "OrderSketch stream_l1": (
        0.5, 3, lambda v: OrderSketch(HASHES, 2, "exp", N, stream_l1=v), lambda s: s.stream_l1),
    "from_parameters epsilon": (
        0.5, 1, lambda v: OrderSketch.from_parameters(v, 0.25, 2, "exp", N, 0),
        lambda s: s.epsilon),
    "from_parameters delta": (
        0.25, None, lambda v: OrderSketch.from_parameters(0.5, v, 2, "exp", N, 0),
        lambda s: s.delta),
    "OrderSketch.update lam": (0.5, 2, _update, lambda s: s.query((1,))),
    "gen_heavy_tail_stream heavy_mass": (
        0.5, 1, lambda v: gen_heavy_tail_stream(N, 10, 1, v, 0), None),
    "MarkovExperimentConfig p": (
        0.125, None, lambda v: MarkovExperimentConfig(N, 40, v, 0.25, "a", 0), lambda c: c.p),
    "MarkovExperimentConfig q": (
        0.25, None, lambda v: MarkovExperimentConfig(N, 40, 0.125, v, "a", 0), lambda c: c.q),
    "train_linear_classifier l2": (0.5, 2, _fit, None),
    "LinearFunctional coefficient": (
        1.5, 2, lambda v: LinearFunctional({(0, 1): v}), lambda f: f.terms[(0, 1)]),
    "ExperimentOneConfig heavy_mass": (
        0.25, 1, lambda v: ExperimentOneConfig(heavy_mass=v), lambda c: c.heavy_mass),
    "ExperimentTwoConfig q_values": (
        0.25, None, lambda v: ExperimentTwoConfig(q_values=(0.125, v)), lambda c: c.q_values[1]),
    "ExperimentTwoConfig test_fraction": (
        0.25, None, lambda v: ExperimentTwoConfig(test_fraction=v), lambda c: c.test_fraction),
}
for _key, _good, _whole in (("p", 0.125, None), ("epsilon", 0.5, 1), ("delta", 0.25, None),
                            ("rho", 2.5, 1), ("l2", 0.5, 1)):
    SITES[f"ExperimentTwoConfig {_key}"] = (
        _good, _whole, lambda v, key=_key: ExperimentTwoConfig(**{key: v}),
        lambda c, key=_key: getattr(c, key))

# a constructor's epsilon or delta of None asks for the default of its table shape
NONE_IS_DEFAULT = {"OrderSketch epsilon", "OrderSketch delta"}
BAD = {"str": "0.5", "bool": True, "none": None, "complex": 1j}


@pytest.mark.parametrize("site, bad", [
    pytest.param(site, bad, id=f"{site}-{label}")
    for site in sorted(SITES) for label, bad in BAD.items()
    if not (bad is None and site in NONE_IS_DEFAULT)
])
def test_every_site_refuses_a_non_real(site, bad):
    name = site.split()[-1]
    _, _, call, _ = SITES[site]
    message = f"{name} must be a real number, not {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


FLOATS, INTEGERS = (np.float32, np.float64, float), (np.int64, np.uint8, int)


@pytest.mark.parametrize("site, cast", [
    pytest.param(site, cast, id=f"{site}-{cast.__name__}")
    for site in sorted(SITES)
    for cast in FLOATS + (INTEGERS if SITES[site][1] is not None else ())
])
def test_every_site_stores_a_numpy_number_as_a_python_float(site, cast):
    real, integer, call, read = SITES[site]
    out = call(cast(real if cast in FLOATS else integer))
    if read is not None:
        assert type(read(out)) is float and read(out) == (real if cast in FLOATS else integer)


def test_an_int_past_float64_names_the_argument():
    with pytest.raises(ValueError, match="^epsilon must be within float64's range, not 1000"):
        OrderSketch.from_parameters(10**400, 0.25, 2, "exp", N, 0)
    with pytest.raises(ValueError, match="^heavy_mass must be within float64's range"):
        ExperimentOneConfig(heavy_mass=-(10**400))


def test_numpy_reals_build_the_same_sketch_as_python_floats():
    def build(cast) -> OrderSketch:
        sketch = OrderSketch.from_parameters(cast(0.5), cast(0.25), 2, "exp", N, 3)
        for lam, letter in ((1.5, 0), (2.0, 4), (0.25, 1)):
            sketch.update(cast(lam), letter)
        return sketch

    assert build(np.float32).to_snapshot() == build(float).to_snapshot()


def test_thresholds_take_numpy_reals_and_key_results_by_python_floats():
    stream = Stream(np.ones(6), [0, 4, 0, 0, 4, 0], N)
    _, results = mine_heavy_patterns(
        stream, [np.float32(2.5), np.int64(1)], 0.5, 0.25, 2, EventMapKind.EXP, 0)
    assert list(results) == [2.5, 1.0] and all(type(rho) is float for rho in results)
    for thresholds in ([1j], ["2.5"], [np.bool_(True)]):
        with pytest.raises(ValueError, match="^thresholds must be a list of numbers"):
            mine_heavy_patterns(stream, thresholds, 0.5, 0.25, 2, EventMapKind.EXP, 0)


@pytest.mark.parametrize("l2", [-1.0, math.nan, math.inf])
def test_a_negative_or_non_finite_l2_is_refused(l2):
    with pytest.raises(ValueError, match=f"^l2 must be finite and >= 0, not {l2!r}$"):
        _fit(l2)


@pytest.mark.parametrize("fraction", [0, -1, 1, 2.0, math.nan])
def test_a_test_fraction_outside_the_open_unit_interval_is_refused(fraction):
    message = f"test_fraction must lie in (0, 1), not {float(fraction)!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentTwoConfig(test_fraction=fraction)
