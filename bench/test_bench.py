"""Tiny-scale self-test of the benchmark: its exact oracles agree with the
library's enumeration oracles, its checks pass on real outputs and reject
corrupted ones, and its tracer counts calls without changing results.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ordersketch  # noqa: E402
from ordersketch import OrderSketch, Stream  # noqa: E402

import oracles  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

try:
    from ordersketch import brute_force_oracle, oracle_level
except ImportError:  # the enumeration oracles may live with the tests instead
    sys.path.insert(0, str(HERE.parent))
    from tests.util import brute_force_oracle, oracle_level


def small_stream(seed: int, alphabet: int = 3, length: int = 7):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.2, 2.0, length), rng.integers(0, alphabet, length), alphabet


def all_words(alphabet: int, depth: int):
    for m in range(1, depth + 1):
        yield from itertools.product(range(alphabet), repeat=m)


@pytest.mark.parametrize("seed", range(4))
def test_exact_oracles_match_enumeration(seed):
    lam, let, n = small_stream(seed)
    exact = oracles.ExactStream(lam, let, n)
    stream = Stream(lam, let, n)
    for kind, depth in (("linear", 3), ("exp", 2)):
        for word in all_words(n, depth):
            want = brute_force_oracle(stream, word, kind)
            assert exact.coordinate(word, kind) == pytest.approx(want, rel=1e-12, abs=1e-12)
        for m in range(1, depth + 1):
            mass = sum(oracle_level(stream, m, kind).values())
            assert exact.level_mass(m, kind) == pytest.approx(mass, rel=1e-12)


def tiny_sketch(seed=0, kind="linear", depth=3):
    lam, let, n = small_stream(seed, alphabet=12, length=40)
    sketch = OrderSketch.from_parameters(0.5, 0.25, depth, kind, n, seed)
    sketch.extend(Stream(lam, let, n))
    return sketch, oracles.ExactStream(lam, let, n)


def test_sketch_estimate_matches_query():
    sketch, _ = tiny_sketch()
    for word in [(1,), (3, 4), (5, 5, 2), (0, 11, 7)]:
        assert oracles.sketch_estimate(sketch, word) == sketch.query(word)


def test_mass_and_undershoot_checks_reject_a_halved_table():
    sketch, exact = tiny_sketch(kind="exp", depth=2)
    masses = {m: exact.level_mass(m, "exp") for m in (1, 2)}
    values = {w: exact.exp(w) for w in all_words(12, 2)}
    assert oracles.check_table_masses(sketch, masses) == []
    assert oracles.check_no_undershoot(sketch, values) == []
    for table in sketch.tables:
        table.levels[2] *= 0.5
    assert oracles.check_table_masses(sketch, masses)
    assert oracles.check_no_undershoot(sketch, values)


def test_tables_match_rejects_a_changed_level():
    sketch, _ = tiny_sketch()
    other, _ = tiny_sketch()
    assert oracles.check_tables_match(sketch, other) == []
    other.tables[1].levels[3][5] += 1.0
    assert oracles.check_tables_match(sketch, other)


def test_query_check_rejects_changed_missing_and_overshooting_answers():
    sketch, exact = tiny_sketch()
    words = [(1,), (3, 4), (5, 5, 2), (0, 11, 7)]
    records = [{"record": "query", "word": oracles.word_text(w), "estimate": sketch.query(w)}
               for w in words]
    args = (words, sketch, exact, "linear", 0.5, 0.25)
    assert oracles.check_query_records(records, *args) == []
    low = [dict(r) for r in records]
    low[1]["estimate"] *= 0.9
    assert oracles.check_query_records(low, *args)
    assert oracles.check_query_records(records[:-1], *args)
    # a sketch whose tables overshoot by far more than eps * ||Phi||_m
    for table in sketch.tables:
        for level in table.levels[1:]:
            level += 1e6
    high = [dict(r, estimate=oracles.sketch_estimate(sketch, w)) for r, w in zip(records, words)]
    problems = oracles.check_query_records(high, *args)
    assert problems and all("overshoot" in p for p in problems)


def test_repeat_check_rejects_changed_and_short_output():
    row = json.dumps({"record": "experiment2_row", "q": 0.13}) + "\n"
    assert oracles.check_repeats([row, row], "experiment2_row", 1) == {}
    assert 1 in oracles.check_repeats([row, row + row], "experiment2_row", 1)
    assert 0 in oracles.check_repeats([row, row], "experiment2_row", 2)


def test_tail_is_the_median_until_ten_calls_lie_beyond_it():
    assert workloads.tail_of([1.0, 2.0, 3.0]) == (2.0, 50.0)
    samples = [float(i) for i in range(1, 101)]
    assert workloads.tail_of(samples) == (90.0, 90.0)


# -- whole workloads at tiny scale ---------------------------------------------


class TinyIngest(workloads.Ingest):
    EVENTS = 3000
    ALPHABET = 200


class TinyDeep(workloads.Deep):
    SHARD_EVENTS = 150
    ALPHABET = 40
    HOT = 4
    WORDS = 60
    QUERIES_PER_ROUND = 2


class TinyMine(workloads.Mine):
    EVENTS = 4000
    ALPHABET = 300
    RHOS = (60.0, 120.0)


class TinyStudy(workloads.Study):
    TABLE1 = dict(workloads.Study.TABLE1, length=2000, bucket_counts=[4, 8], hash_counts=[2])
    TABLE2 = dict(workloads.Study.TABLE2, total_length=1000, streams_per_class=4)


def run_tiny(cls, tmp_path, steps=2):
    workload = cls(7, tmp_path)
    workload.setup()
    run = workloads.Runner()
    workloads.run_schedule(workload, run, steps)
    assert [c.code for c in run.calls] == [0] * len(run.calls)
    return workload, run.calls


@pytest.mark.parametrize("cls", [TinyIngest, TinyDeep, TinyMine, TinyStudy])
def test_tiny_workloads_pass_their_checks(cls, tmp_path):
    workload, calls = run_tiny(cls, tmp_path)
    assert workload.check(calls) == {}
    rates, latencies, named = workload.report(calls)
    assert min(rates) > 0 and min(latencies) > 0 and named


def test_ingest_check_rejects_a_halved_snapshot_table(tmp_path):
    workload, calls = run_tiny(TinyIngest, tmp_path)
    sketch = OrderSketch.load(calls[1].artifact)
    sketch.tables[0].levels[1] *= 0.5
    sketch.save(calls[1].artifact)
    assert set(workload.check(calls)) == {1}


def test_deep_check_rejects_a_wrong_merge_and_a_wrong_estimate(tmp_path):
    workload, calls = run_tiny(TinyDeep, tmp_path)
    merge = next(i for i, c in enumerate(calls) if c.kind == "merge")
    sketch = OrderSketch.load(calls[merge].artifact)
    sketch.tables[2].levels[2] *= 0.5
    sketch.save(calls[merge].artifact)
    query = next(i for i, c in enumerate(calls) if c.kind == "query")
    lines = calls[query].stdout.splitlines()
    record = json.loads(lines[0])
    record["estimate"] = -1.0
    calls[query].stdout = "\n".join([json.dumps(record)] + lines[1:]) + "\n"
    assert {merge, query} <= set(workload.check(calls))


def test_mine_check_rejects_a_dropped_heavy_word(tmp_path):
    workload, calls = run_tiny(TinyMine, tmp_path)
    records = oracles.parse_records(calls[0].stdout)
    rho = workload.RHOS[0]
    heavy = [r for r in records if r["record"] == "heavy" and r["rho"] == rho]
    dropped = max(heavy, key=lambda r: r["estimate"])
    for r in records:
        if r["record"] == "heavy_summary" and r["rho"] == rho:
            r["word_count"] -= 1  # keep the summary consistent: only the word is missing
    kept = [r for r in records if r is not dropped]
    calls[0].stdout = "".join(json.dumps(r) + "\n" for r in kept)
    assert set(workload.check(calls)) == {0}


def test_study_check_rejects_a_changed_repeat(tmp_path):
    workload, calls = run_tiny(TinyStudy, tmp_path)
    calls[3].stdout = calls[3].stdout.replace("accuracy", "acc")
    assert set(workload.check(calls)) == {3}


# -- tracing -------------------------------------------------------------------


def test_tracer_counts_layers_and_restores_the_library(tmp_path):
    original = ordersketch.sketch.features_from_arrays
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ordersketch.sketch.features_from_arrays is not original
        workload, calls = run_tiny(TinyMine, tmp_path, steps=1)
    finally:
        tracer.uninstall()
    assert ordersketch.sketch.features_from_arrays is original
    assert workload.check(calls) == {}
    layers = tracer.layer_metrics()
    assert set(layers) == set(tracing.layer_metric_names())
    assert layers["sketch.mine_heavy_patterns.calls"][0] == 1
    assert layers["features.features_from_arrays.calls"][0] > 0
    assert layers["features.apply_event_inplace.calls"][0] == 0
    assert 0 < layers["sketch.mine.kept_ratio"][0] <= 1
    mine = layers["sketch.mine_heavy_patterns.s"][0]
    assert 0 <= layers["sketch.mine_heavy_patterns.self_s"][0] < mine


def test_tracer_skips_absent_functions(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [("sketch", "gone", None, None)])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.layer_metrics()["sketch.gone.calls"] == (0, "count")


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer"]]
    assert listed == tracing.layer_metric_names() + [workloads.TRACE_OVERHEAD]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(bench_run.WORKLOADS) == list(workloads.WORKLOADS)
