import json
import subprocess
import sys

import numpy as np
import pytest

from ordersketch import EventMapKind, OrderSketch, Stream, word_from_text
from ordersketch.cli import read_stream_file, write_stream_file

from util import (
    four_event_stream,
    join_snapshot,
    parse_records,
    random_stream,
    run_cli,
    split_snapshot,
)


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.events"
    write_stream_file(four_event_stream(), path)
    return str(path)


def write_random(tmp_path, name, seed, n=30, length=400):
    rng = np.random.Generator(np.random.PCG64(seed))
    s = random_stream(rng, n, length)
    path = tmp_path / name
    write_stream_file(s, path)
    return str(path), s


# -- stream file format -----------------------------------------------------


def test_stream_file_round_trip(tmp_path, example_file):
    back = read_stream_file(example_file)
    orig = four_event_stream()
    assert np.array_equal(back.lambdas, orig.lambdas)
    assert np.array_equal(back.letters, orig.letters)
    assert back.alphabet_size == orig.alphabet_size


def test_stream_file_errors_carry_line_numbers(tmp_path):
    cases = {
        "no_header.events": ("1.0\t0\n", ":1: expected header"),
        "bad_size.events": ("alphabet_size=ten\n", ":1: malformed alphabet size"),
        "bad_sep.events": ("alphabet_size=4\n1.0 0\n", ":2: expected weight<TAB>letter"),
        "bad_weight.events": ("alphabet_size=4\n1.0\t0\nx\t1\n", ":3: malformed event"),
        "bad_letter.events": ("alphabet_size=4\n1.0\t9\n", "letter"),
        "int64_letter.events": ("alphabet_size=4\n1.0\t9223372036854775808\n", "too large"),
    }
    for name, (content, needle) in cases.items():
        path = tmp_path / name
        path.write_text(content)
        code, out, err = run_cli(["exact", str(path)])
        assert code == 2, name
        assert out == ""
        assert needle in err, name


def test_stream_file_missing(tmp_path):
    code, out, err = run_cli(["exact", str(tmp_path / "nope.events")])
    assert code == 2 and "cannot read" in err


def test_stream_file_blank_lines_ok(tmp_path):
    path = tmp_path / "blank.events"
    path.write_text("alphabet_size=3\n1.0\t0\n\n2.0\t2\n")
    s = read_stream_file(str(path))
    assert s.letters.tolist() == [0, 2]


# -- exact ---------------------------------------------------------------------


def test_exact_worked_example(example_file):
    code, out, err = run_cli(["exact", example_file, "--event-map", "linear"])
    assert code == 0
    records = parse_records(out)
    header = records[0]
    assert header["record"] == "exact"
    assert header["events"] == 4 and header["coordinates"] == 7
    values = {(r["level"], r["word"]): r["value"] for r in records[1:]}
    assert values[(1, "0")] == 3.0
    assert values[(1, "1")] == 2.5
    assert values[(2, "0.0")] == 2.0
    assert values[(2, "0.1")] == 2.5
    assert values[(2, "1.0")] == 5.0
    assert values[(2, "1.1")] == 1.5
    assert values[(0, "")] == 1.0
    # records come out in (level, index) order
    keys = [(r["level"], r["index"]) for r in records[1:]]
    assert keys == sorted(keys)


def test_exact_size_guard(tmp_path):
    path = tmp_path / "wide.events"
    path.write_text("alphabet_size=100000\n1.0\t5\n")
    code, out, err = run_cli(["exact", str(path), "--max-coordinates", "1000"])
    assert code == 3
    assert out == ""
    assert "refusing exact run" in err and "--max-coordinates" in err


# -- build / query ----------------------------------------------------------------


def test_build_then_query_matches_library(tmp_path):
    stream_path, s = write_random(tmp_path, "s.events", seed=1)
    snap = str(tmp_path / "sketch.json")
    code, out, err = run_cli(
        ["build", stream_path, snap, "--epsilon", "0.25", "--delta", "0.2",
         "--event-map", "exp", "--seed", "7"]
    )
    assert code == 0
    (record,) = parse_records(out)
    assert record["record"] == "build"
    assert record["events"] == len(s)
    assert record["bucket_count"] == 8 and record["hash_count"] == 3
    assert record["snapshot"] == snap
    assert record["table_bytes"] == record["coordinates"] * 8
    assert "events/s" in err  # timing goes to stderr only

    reference = OrderSketch.from_parameters(0.25, 0.2, 2, EventMapKind.EXP, 30, seed=7)
    reference.extend(s)
    code, out, _ = run_cli(["query", snap, "3", "3.4", "29.0", ""])
    assert code == 0
    got = {r["word"]: r["estimate"] for r in parse_records(out)}
    assert got["3"] == reference.query((3,))
    assert got["3.4"] == reference.query((3, 4))
    assert got["29.0"] == reference.query((29, 0))
    assert got[""] == 1.0


def test_query_bad_words_flag_and_continue(tmp_path):
    stream_path, _ = write_random(tmp_path, "s.events", seed=2)
    snap = str(tmp_path / "sk.json")
    assert run_cli(["build", stream_path, snap])[0] == 0
    code, out, _ = run_cli(["query", snap, "1", "1.2.3", "banana"])
    assert code == 2
    records = parse_records(out)
    kinds = {r["record"] for r in records}
    assert kinds == {"query", "query_error"}
    good = [r for r in records if r["record"] == "query"]
    assert [r["word"] for r in good] == ["1"]
    errors = {r["word"] for r in records if r["record"] == "query_error"}
    assert errors == {"1.2.3", "banana"}


# the one message of every overflow, at every depth and from every command
OVERFLOW_ERROR = "ordersketch: data error: non-finite value (an overflow or a NaN)"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_build_overflow_is_data_error(tmp_path):
    path = tmp_path / "big.events"
    write_stream_file(Stream.from_events([(1e200, 0), (1e200, 1)], 2), path)
    snap = tmp_path / "big.json"
    code, out, err = run_cli(["build", str(path), str(snap), "--depth", "2"])
    assert (code, out, err) == (2, "", OVERFLOW_ERROR + "\n")
    assert not snap.exists()


def overflow_file(tmp_path) -> str:
    path = tmp_path / "big.events"
    write_stream_file(Stream.from_events([(1e200, 0), (1e200, 1)], 2), path)
    return str(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "depth,event_map",
    [("2", "linear"), ("3", "linear"), ("3", "exp"), ("4", "linear"), ("4", "exp"),
     ("5", "exp")],
)
def test_exact_overflow_is_data_error(tmp_path, depth, event_map):
    # no coordinate records: a non-finite value is not valid JSON
    path = overflow_file(tmp_path)
    code, out, err = run_cli(["exact", path, "--depth", depth, "--event-map", event_map])
    assert (code, out, err) == (2, "", OVERFLOW_ERROR + "\n")


def test_exact_negative_depth_is_usage_error(example_file):
    code, out, err = run_cli(["exact", example_file, "--depth", "-1"])
    assert code == 1 and out == "" and "usage error" in err


def test_exact_negative_max_coordinates_is_usage_error(example_file):
    code, out, err = run_cli(["exact", example_file, "--max-coordinates", "-1"])
    assert (code, out) == (1, "") and "usage error: max_coordinates must be >= 0" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_build_depth_three_overflow_is_data_error(tmp_path):
    # depth 3 folds in chunks and depth >= 4 event by event; both fail alike
    for depth in ("3", "4", "5"):
        snap = tmp_path / f"big{depth}.json"
        code, out, err = run_cli(["build", overflow_file(tmp_path), str(snap), "--depth", depth])
        assert (code, out, err) == (2, "", OVERFLOW_ERROR + "\n"), depth
        assert not snap.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_merge_overflow_is_data_error(tmp_path):
    # each snapshot is finite; the product's level 2 holds 1.5e154**2 > float64 max
    snaps = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.events"
        write_stream_file(Stream.from_events([(1.5e154, 0)], 2), path)
        snaps.append(str(tmp_path / f"{name}.snap"))
        assert run_cli(["build", str(path), snaps[-1], "--depth", "2"])[0] == 0
    out_path = tmp_path / "merged.snap"
    code, out, err = run_cli(["merge", *snaps, "--out", str(out_path)])
    assert (code, out, err) == (2, "", OVERFLOW_ERROR + "\n")
    assert not out_path.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("depth", ["2", "3", "4", "5"])
def test_heavy_overflow_is_data_error(tmp_path, depth):
    path = overflow_file(tmp_path)
    code, out, err = run_cli(["heavy", path, "--rho", "1", "--depth", depth])
    assert (code, out, err) == (2, "", OVERFLOW_ERROR + "\n")
    # a bad flag is still a usage error on the same file
    code, out, err = run_cli(["heavy", path, "--rho", "1", "--depth", depth, "--epsilon", "3"])
    assert code == 1 and out == "" and "usage error" in err


def test_build_unwritable_snapshot_is_data_error(tmp_path, example_file):
    # a directory, and a path whose parent does not exist
    for target in (tmp_path, tmp_path / "missing" / "x.json"):
        code, out, err = run_cli(["build", example_file, str(target)])
        assert code == 2 and out == "" and "data error" in err


def test_merge_unwritable_out_is_data_error(tmp_path, example_file):
    snap = str(tmp_path / "ok.json")
    assert run_cli(["build", example_file, snap])[0] == 0
    for target in (tmp_path, tmp_path / "missing" / "x.json"):
        code, out, err = run_cli(["merge", snap, "--out", str(target)])
        assert code == 2 and out == "" and "data error" in err


def test_query_reads_each_length_in_one_batch(tmp_path, monkeypatch):
    stream_path, _ = write_random(tmp_path, "s.events", seed=6)
    snap = str(tmp_path / "sk.json")
    assert run_cli(["build", stream_path, snap])[0] == 0
    sketch = OrderSketch.load(snap)
    batches = []
    query_many = OrderSketch.query_many

    def counting(self, words):
        batches.append(np.shape(words))
        return query_many(self, words)

    monkeypatch.setattr(OrderSketch, "query_many", counting)
    words = ["3", "1.2", "banana", "", "4.5", "30", "7", "1.2.3", "0.0", "29"]
    code, out, _ = run_cli(["query", snap, *words])
    assert code == 2
    assert sorted(batches) == [(1, 0), (3, 1), (3, 2)]  # one batch per word length
    records = parse_records(out)
    assert [r["word"] for r in records] == words
    errors = {"banana", "30", "1.2.3"}
    assert [r["record"] for r in records] == [
        "query_error" if w in errors else "query" for w in words
    ]
    monkeypatch.undo()
    for r in records:
        if r["record"] == "query":
            assert r["estimate"] == sketch.query(word_from_text(r["word"]))


@pytest.mark.parametrize("command", ["query", "merge"])
def test_missing_or_unreadable_snapshot_is_data_error(tmp_path, command):
    # a path that does not exist, and a directory, which exists but cannot be read
    for snap in (str(tmp_path / "absent.json"), str(tmp_path)):
        if command == "query":
            argv = ["query", snap, "1"]
        else:
            argv = ["merge", snap, "--out", str(tmp_path / "m.json")]
        code, out, err = run_cli(argv)
        assert code == 2 and out == "" and "data error" in err


def test_query_truncated_snapshot_is_data_error(tmp_path):
    stream_path, _ = write_random(tmp_path, "s.events", seed=4)
    snap = tmp_path / "sk.json"
    assert run_cli(["build", stream_path, str(snap)])[0] == 0
    header, values = split_snapshot(snap.read_bytes())
    assert header["hash_count"] == 5
    snap.write_bytes(join_snapshot(header, values[: values.size // 5]))  # the first table only
    code, out, err = run_cli(["query", str(snap), "1"])
    assert code == 2 and out == "" and "data error" in err


def _fractional_a(header: dict) -> dict:
    header["hashes"][0]["a"] = 6.5
    return header


def _nan_in_payload(values):
    values[3] = np.nan
    return values


def _hash_prime_below_alphabet(header: dict) -> dict:
    header["alphabet_size"] = header["hashes"][0]["p"] + 1  # letter p is outside [0, p)
    return header


MALFORMED_SNAPSHOTS = {
    # a version 1 document: one JSON line, tables as base64 strings inside it
    "version_1": lambda h, v: (json.dumps(dict(h, version=1, tables=[])) + "\n").encode(),
    "payload_8_bytes_short": lambda h, v: join_snapshot(h, v)[:-8],
    "padded_by_one_byte": lambda h, v: join_snapshot(h, v) + b"\0",
    "header_only": lambda h, v: join_snapshot(h, v[:0]),
    "nan_in_payload": lambda h, v: join_snapshot(h, _nan_in_payload(v)),
    "fractional_hash_a": lambda h, v: join_snapshot(_fractional_a(h), v),
    "negative_events_seen": lambda h, v: join_snapshot(dict(h, events_seen=-5), v),
    "fractional_events_seen": lambda h, v: join_snapshot(dict(h, events_seen=2.7), v),
    "negative_stream_l1": lambda h, v: join_snapshot(dict(h, stream_l1=-3.0), v),
    "string_epsilon": lambda h, v: join_snapshot(dict(h, epsilon="0.5"), v),
    "string_stream_l1": lambda h, v: join_snapshot(dict(h, stream_l1="3"), v),
    "bool_delta": lambda h, v: join_snapshot(dict(h, delta=True), v),
    "negative_epsilon": lambda h, v: join_snapshot(dict(h, epsilon=-1), v),
    "delta_above_one": lambda h, v: join_snapshot(dict(h, delta=7), v),
    "hash_prime_below_alphabet": lambda h, v: join_snapshot(_hash_prime_below_alphabet(h), v),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SNAPSHOTS))
@pytest.mark.parametrize("command", ["query", "merge"])
def test_malformed_snapshot_is_data_error(tmp_path, command, case):
    stream_path, _ = write_random(tmp_path, "s.events", seed=4)
    snap = tmp_path / "sk.snap"
    assert run_cli(["build", stream_path, str(snap)])[0] == 0
    snap.write_bytes(MALFORMED_SNAPSHOTS[case](*split_snapshot(snap.read_bytes())))
    out_path = tmp_path / "m.snap"
    tail = ["1"] if command == "query" else ["--out", str(out_path)]
    code, out, err = run_cli([command, str(snap), *tail])
    assert code == 2 and out == "" and "data error" in err
    assert not out_path.exists()
    if case == "version_1":
        assert "unsupported snapshot version 1" in err
    if case == "nan_in_payload":
        assert "NaN" in err


@pytest.mark.parametrize("command", ["build", "heavy"])
def test_unhashable_alphabet_is_data_error_and_bad_flags_usage_errors(tmp_path, command):
    huge = tmp_path / "huge.events"
    huge.write_text(f"alphabet_size={2**62}\n1.0\t5\n")
    good, _ = write_random(tmp_path, "s.events", seed=3)
    rest = [str(tmp_path / "x.snap")] if command == "build" else ["--rho", "1"]
    code, out, err = run_cli([command, str(huge), *rest])
    assert code == 2 and out == "" and "data error" in err and "2**61" in err
    bad_flag = ["--epsilon", "3"] if command == "build" else ["--rho", "-1"]
    code, out, err = run_cli([command, good, *rest, *bad_flag])
    assert code == 1 and out == "" and "usage error" in err


def test_build_rejects_bad_epsilon(tmp_path):
    stream_path, _ = write_random(tmp_path, "s.events", seed=3)
    code, out, err = run_cli(
        ["build", stream_path, str(tmp_path / "x.json"), "--epsilon", "3.0"]
    )
    assert code == 1 and out == "" and "usage error" in err


# -- heavy --------------------------------------------------------------------------


def heavy_stream_file(tmp_path):
    events = [(1.0, 0)] * 60 + [(1.0, 1)] * 60 + [(1.0, 3 + i % 5) for i in range(25)]
    path = tmp_path / "heavy.events"
    write_stream_file(Stream.from_events(events, alphabet_size=9), path)
    return str(path)


def test_heavy_multi_threshold(tmp_path):
    path = heavy_stream_file(tmp_path)
    code, out, err = run_cli(
        ["heavy", path, "--rho", "40", "--rho", "20", "--event-map", "linear",
         "--epsilon", "0.125", "--delta", "0.25"]
    )
    assert code == 0
    records = parse_records(out)
    summaries = [r for r in records if r["record"] == "heavy_summary"]
    assert [s["rho"] for s in summaries] == [20.0, 40.0]
    words = {
        rho: [r["word"] for r in records if r["record"] == "heavy" and r["rho"] == rho]
        for rho in (20.0, 40.0)
    }
    assert set(words[40.0]) <= set(words[20.0])
    assert {"0", "1", "0.1"} <= set(words[20.0])
    for s in summaries:
        assert s["word_count"] == len(words[s["rho"]])
    # output sorted by (length, word) within each threshold
    for rho in (20.0, 40.0):
        lens = [(len(w.split(".")) if w else 0) for w in words[rho]]
        assert lens == sorted(lens)


def test_heavy_candidate_cap_exit_code(tmp_path):
    path = heavy_stream_file(tmp_path)
    code, out, err = run_cli(
        ["heavy", path, "--rho", "5", "--event-map", "linear", "--candidate-cap", "2"]
    )
    assert code == 3
    assert "resource guard" in err


def test_heavy_negative_candidate_cap_is_usage_error(tmp_path):
    path = heavy_stream_file(tmp_path)
    code, out, err = run_cli(["heavy", path, "--rho", "100", "--candidate-cap", "-5"])
    assert (code, out) == (1, "") and "usage error: candidate_cap must be >= 0" in err


@pytest.mark.parametrize("rho", ["-1", "0"])
def test_heavy_rejects_nonpositive_rho(tmp_path, rho):
    path = heavy_stream_file(tmp_path)
    code, out, err = run_cli(["heavy", path, "--rho", rho, "--event-map", "linear"])
    assert code == 1 and out == "" and "usage error" in err


def test_heavy_requires_rho(tmp_path):
    path = heavy_stream_file(tmp_path)
    code, _, err = run_cli(["heavy", path])
    assert code == 1


# -- merge --------------------------------------------------------------------------


def test_merge_equals_single_build(tmp_path):
    rng = np.random.Generator(np.random.PCG64(5))
    s = random_stream(rng, 25, 600)
    paths = []
    for i, part in enumerate([s.slice(0, 200), s.slice(200, 450), s.slice(450, 600)]):
        p = tmp_path / f"part{i}.events"
        write_stream_file(part, p)
        snap = str(tmp_path / f"part{i}.json")
        assert run_cli(["build", str(p), snap, "--seed", "9"])[0] == 0
        paths.append(snap)
    merged_path = str(tmp_path / "merged.json")
    code, out, _ = run_cli(["merge", *paths, "--out", merged_path])
    assert code == 0
    (record,) = parse_records(out)
    assert record["inputs"] == 3 and record["events"] == 600

    whole = tmp_path / "whole.events"
    write_stream_file(s, whole)
    whole_snap = str(tmp_path / "whole.json")
    assert run_cli(["build", str(whole), whole_snap, "--seed", "9"])[0] == 0

    merged = OrderSketch.load(merged_path)
    reference = OrderSketch.load(whole_snap)
    for tm, tr in zip(merged.tables, reference.tables):
        assert tm.allclose(tr, rtol=1e-10, atol=1e-9)


def test_merge_equals_left_fold_of_inputs(tmp_path):
    rng = np.random.Generator(np.random.PCG64(16))
    paths = []
    for i in range(3):
        p = tmp_path / f"part{i}.events"
        write_stream_file(random_stream(rng, 12, 40), p)
        paths.append(str(tmp_path / f"part{i}.json"))
        assert run_cli(["build", str(p), paths[-1], "--seed", "4", "--depth", "3"])[0] == 0
    merged_path = str(tmp_path / "merged.json")
    code, out, _ = run_cli(["merge", *paths, "--out", merged_path])
    assert code == 0
    (record,) = parse_records(out)
    assert record["inputs"] == 3 and record["events"] == 120
    a, b, c = (OrderSketch.load(p) for p in paths)
    fold = a.merge(b).merge(c)
    for tm, tf in zip(OrderSketch.load(merged_path).tables, fold.tables):
        for lm, lf in zip(tm.levels, tf.levels):
            assert np.array_equal(lm, lf)


def test_merge_mismatched_snapshots(tmp_path):
    stream_path, _ = write_random(tmp_path, "s.events", seed=6)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run_cli(["build", stream_path, a, "--seed", "1"])[0] == 0
    assert run_cli(["build", stream_path, b, "--seed", "2"])[0] == 0
    code, out, err = run_cli(["merge", a, b, "--out", str(tmp_path / "m.json")])
    assert code == 2 and "data error" in err


# -- experiments ----------------------------------------------------------------------


def test_experiment_table1_records(tmp_path):
    config = tmp_path / "t1.json"
    config.write_text(
        json.dumps(
            {
                "alphabet_size": 16,
                "length": 600,
                "heavy_count": 4,
                "heavy_mass": 0.25,
                "bucket_counts": [4, 8],
                "hash_counts": [2],
                "repetitions": 2,
            }
        )
    )
    code, out, err = run_cli(["experiment", "table1", "--config", str(config)])
    assert code == 0
    rows = parse_records(out)
    assert len(rows) == 2
    for row in rows:
        assert row["record"] == "experiment1_row"
        assert "events/s" not in json.dumps(row)  # timing is stderr-only
        assert row["median_error"] > 0
    assert "events/s" in err


def test_experiment_table2_records(tmp_path):
    config = tmp_path / "t2.json"
    config.write_text(
        json.dumps(
            {
                "alphabet_size": 200,
                "total_length": 2000,
                "q_values": [0.2],
                "streams_per_class": 4,
                "rho": 40.0,
                "splits": 2,
                "epochs": 100,
            }
        )
    )
    code, out, err = run_cli(["experiment", "table2", "--config", str(config), "--seed", "2"])
    assert code == 0
    (row,) = parse_records(out)
    assert row["record"] == "experiment2_row"
    assert row["feature_letters"] == [1, 2]
    assert 0.0 <= row["accuracy_m1"] <= 1.0 and 0.0 <= row["accuracy_m2"] <= 1.0


def test_experiment_rejects_unknown_config_keys(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"no_such_knob": 1}))
    code, _, err = run_cli(["experiment", "table1", "--config", str(config)])
    assert code == 2 and "unknown config keys" in err


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("table1", {"repetitions": 0, "length": 1000, "bucket_counts": [4], "hash_counts": [2]}),
        ("table1", {"bucket_counts": 5}),
        ("table1", {"alphabet_size": "x"}),
        ("table2", {"q_values": 0.2}),
        ("table2", {"splits": 0, "streams_per_class": 3, "total_length": 1000,
                    "alphabet_size": 50, "rho": 20, "q_values": [0.3]}),
        ("table1", {"heavy_mass": "x"}),
        ("table2", {"p": "x"}),
    ],
)
def test_experiment_bad_config_field_is_data_error(tmp_path, name, overrides):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(overrides))
    code, out, err = run_cli(["experiment", name, "--config", str(config)])
    assert code == 2 and out == ""
    assert "data error" in err


# -- global behaviour --------------------------------------------------------------


def test_usage_errors_exit_one(tmp_path):
    assert run_cli([])[0] == 1
    assert run_cli(["frobnicate"])[0] == 1
    assert run_cli(["build"])[0] == 1  # missing positionals
    assert run_cli(["query"])[0] == 1


def test_stdout_is_deterministic_and_snapshots_byte_identical(tmp_path):
    stream_path, _ = write_random(tmp_path, "s.events", seed=8)
    s1, s2 = str(tmp_path / "s1.json"), str(tmp_path / "s2.json")
    code1, out1, _ = run_cli(["build", stream_path, s1, "--seed", "5"])
    code2, out2, _ = run_cli(["build", stream_path, s2, "--seed", "5"])
    assert code1 == code2 == 0
    assert out1.replace(s1, "SNAP") == out2.replace(s2, "SNAP")
    assert open(s1, "rb").read() == open(s2, "rb").read()

    h1 = run_cli(["heavy", stream_path, "--rho", "10", "--event-map", "linear"])
    h2 = run_cli(["heavy", stream_path, "--rho", "10", "--event-map", "linear"])
    assert h1[1] == h2[1] and h1[0] == h2[0] == 0


def test_records_are_sorted_json_lines(example_file):
    _, out, _ = run_cli(["exact", example_file])
    for line in out.splitlines():
        doc = json.loads(line)
        assert list(doc) == sorted(doc)
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == line


def test_module_entry_point(tmp_path, example_file):
    proc = subprocess.run(
        [sys.executable, "-m", "ordersketch", "exact", example_file, "--depth", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    header = json.loads(proc.stdout.splitlines()[0])
    assert header["record"] == "exact" and header["events"] == 4
    proc = subprocess.run(
        [sys.executable, "-m", "ordersketch", "no-such-command"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
