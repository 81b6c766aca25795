"""Command line front end.

Machine-readable output goes to stdout as one JSON record per line with
sorted keys; human summaries and timings go to stderr.  Randomized commands
rerun with the same ``--seed`` therefore produce byte-identical stdout.

Stream files are plain text: a first line ``alphabet_size=N`` (N below
2**61) followed by one ``<weight><TAB><letter>`` line per event.

Exit codes: 0 success, 1 usage error, 2 data error, 3 resource guard.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .experiments import (
    ExperimentOneConfig,
    ExperimentTwoConfig,
    run_experiment_1,
    run_experiment_2,
)
from .features import features_from_arrays
from .sketch import (CandidateCapError, NonFiniteError, OrderSketch, _require_finite,
                     mine_heavy_patterns)
from .tensor import GradedTensor, Stream, word_from_index, word_from_text, word_index, word_to_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RESOURCE = 3


class DataError(Exception):
    pass


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


def read_stream_file(path: str) -> Stream:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read stream file {path}: {exc}") from exc
    if not lines or not lines[0].startswith("alphabet_size="):
        raise DataError(f"{path}:1: expected header alphabet_size=N")
    try:
        alphabet_size = int(lines[0].split("=", 1)[1])
    except ValueError as exc:
        raise DataError(f"{path}:1: malformed alphabet size") from exc
    if alphabet_size >= 1 << 61:  # past the hash family's domain, so past every sketch
        raise DataError(f"{path}:1: alphabet size must be below 2**61")
    lams, lets = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected weight<TAB>letter")
        try:
            lams.append(float(parts[0]))
            lets.append(int(parts[1]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed event") from exc
    try:
        return Stream(np.array(lams), np.array(lets, dtype=np.int64), alphabet_size)
    except (ValueError, OverflowError) as exc:  # OverflowError: a letter past int64
        raise DataError(f"{path}: {exc}") from exc


def write_stream_file(stream: Stream, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"alphabet_size={stream.alphabet_size}\n")
        for lam, letter in zip(stream.lambdas.tolist(), stream.letters.tolist()):
            fh.write(f"{lam!r}\t{letter}\n")


def _add_sketch_flags(sub) -> None:
    sub.add_argument("--epsilon", type=float, default=0.1)
    sub.add_argument("--delta", type=float, default=0.05)
    sub.add_argument("--depth", type=int, default=2)
    sub.add_argument("--event-map", choices=["linear", "exp"], default="exp")
    sub.add_argument("--seed", type=int, default=0)


def cmd_build(args) -> int:
    stream = read_stream_file(args.stream)
    try:
        sketch = OrderSketch.from_parameters(
            args.epsilon, args.delta, args.depth, args.event_map, stream.alphabet_size, args.seed
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    t0 = time.perf_counter()
    sketch.extend(stream)
    elapsed = time.perf_counter() - t0
    _save_snapshot(sketch, args.snapshot)
    coords = sketch.coordinate_count()
    _emit(
        {
            "record": "build",
            "events": sketch.events_seen,
            "stream_l1": sketch.stream_l1,
            "alphabet_size": sketch.alphabet_size,
            "bucket_count": sketch.bucket_count,
            "hash_count": sketch.hash_count,
            "depth": sketch.depth,
            "event_map": sketch.kind.value,
            "seed": sketch.seed,
            "coordinates": coords,
            "table_bytes": coords * 8,
            "snapshot": args.snapshot,
        }
    )
    rate = len(stream) / elapsed if elapsed > 0 else float("inf")
    _note(
        f"built sketch over {len(stream)} events in {elapsed:.3f}s"
        f" ({rate:.0f} events/s); {coords} coordinates ({coords * 8} bytes)"
    )
    return EXIT_OK


def _load_snapshot(path: str) -> OrderSketch:
    try:
        return OrderSketch.load(path)
    except OSError as exc:
        raise DataError(f"cannot read snapshot {path}: {exc}") from exc


def _save_snapshot(sketch: OrderSketch, path: str) -> None:
    try:
        sketch.save(path)
    except OSError as exc:
        raise DataError(f"cannot write snapshot {path}: {exc}") from exc


def cmd_query(args) -> int:
    sketch = _load_snapshot(args.snapshot)
    # check every word, read the valid ones in one batch per word length,
    # then emit the records in input order
    records, by_length = [], {}
    for text in args.words:
        try:
            word = word_from_text(text)
            level, _ = word_index(word, sketch.alphabet_size)
            if level > sketch.depth:
                raise ValueError(f"word of length {level} exceeds sketch depth {sketch.depth}")
        except ValueError as exc:
            records.append({"record": "query_error", "word": text, "error": str(exc)})
            continue
        records.append({"record": "query", "word": word_to_text(word)})
        by_length.setdefault(level, []).append((records[-1], word))
    for batch in by_length.values():
        estimates = sketch.query_many(np.array([word for _, word in batch], dtype=np.int64))
        for (record, _), estimate in zip(batch, estimates.tolist()):
            record["estimate"] = estimate
    for record in records:
        _emit(record)
    return EXIT_DATA if any(r["record"] == "query_error" for r in records) else EXIT_OK


def cmd_heavy(args) -> int:
    stream = read_stream_file(args.stream)
    rhos = sorted(set(args.rho))
    try:
        _, results = mine_heavy_patterns(
            stream,
            rhos,
            args.epsilon,
            args.delta,
            args.depth,
            args.event_map,
            args.seed,
            candidate_cap=args.candidate_cap,
        )
    except NonFiniteError:
        raise  # the stream overflowed the fold: a data error, not a bad flag
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for rho in rhos:
        res = results[rho]
        _emit(
            {
                "record": "heavy_summary",
                "rho": rho,
                "hot_letters": [int(a) for a in res.hot_letters],
                "word_count": len(res.estimates),
            }
        )
        for word in sorted(res.estimates, key=lambda w: (len(w), w)):
            _emit(
                {
                    "record": "heavy",
                    "rho": rho,
                    "word": word_to_text(word),
                    "estimate": res.estimates[word],
                }
            )
    return EXIT_OK


def cmd_exact(args) -> int:
    if args.depth < 0:
        raise UsageError("depth must be >= 0")
    if args.max_coordinates < 0:
        raise UsageError(f"max_coordinates must be >= 0, not {args.max_coordinates}")
    stream = read_stream_file(args.stream)
    n = stream.alphabet_size
    coords = sum(n**m for m in range(args.depth + 1))
    if coords > args.max_coordinates:
        raise CandidateCapError(
            f"refusing exact run: {coords} coordinates (~{coords * 8} bytes) exceed"
            f" the cap of {args.max_coordinates}; raise --max-coordinates to override"
        )
    phi = GradedTensor.unit(n, args.depth)
    _require_finite([features_from_arrays(stream.lambdas, stream.letters, phi, args.event_map)])
    _emit(
        {
            "record": "exact",
            "events": len(stream),
            "alphabet_size": n,
            "depth": args.depth,
            "event_map": args.event_map,
            "coordinates": coords,
        }
    )
    for m in range(args.depth + 1):
        level = phi.levels[m]
        for offset in range(level.size):
            _emit(
                {
                    "record": "coordinate",
                    "level": m,
                    "index": offset,
                    "word": word_to_text(word_from_index(m, offset, n)),
                    "value": float(level[offset]),
                }
            )
    return EXIT_OK


def cmd_merge(args) -> int:
    sketches = [_load_snapshot(path) for path in args.snapshots]  # fail before any merge
    inputs = len(sketches)
    merged = sketches.pop(0)
    while sketches:  # drop each input once folded, so the save's copies do not add to them
        merged = merged.merge(sketches.pop(0))
    _save_snapshot(merged, args.out)
    _emit(
        {
            "record": "merge",
            "inputs": inputs,
            "events": merged.events_seen,
            "stream_l1": merged.stream_l1,
            "snapshot": args.out,
        }
    )
    return EXIT_OK


def _experiment_config(cls, overrides: dict, seed: int):
    unknown = set(overrides) - set(cls.__dataclass_fields__)
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")
    try:
        return cls(**{"base_seed": seed, **overrides})
    except (TypeError, ValueError) as exc:
        raise DataError(str(exc)) from exc


def cmd_experiment(args) -> int:
    overrides = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(overrides, dict):
            raise DataError("experiment config must be a JSON object")
    t0 = time.perf_counter()
    if args.name == "table1":
        config = _experiment_config(ExperimentOneConfig, overrides, args.seed)
        rows = run_experiment_1(config)
        for row in rows:
            _emit(
                {
                    "record": "experiment1_row",
                    "bucket_count": row.bucket_count,
                    "hash_count": row.hash_count,
                    "memory_ratio": row.memory_ratio,
                    "median_error": row.median_error,
                }
            )
            _note(
                f"table1 cell |B|={row.bucket_count} r={row.hash_count}:"
                f" {row.events_per_sec:.0f} events/s"
            )
    else:
        config = _experiment_config(ExperimentTwoConfig, overrides, args.seed)
        rows = run_experiment_2(config)
        for row in rows:
            record = {
                "record": "experiment2_row",
                "q": row.q,
                "q_minus_p": row.q_minus_p,
                "feature_letters": [int(a) for a in row.feature_letters],
            }
            for depth, acc in sorted(row.accuracy_by_depth.items()):
                record[f"accuracy_m{depth}"] = acc
            _emit(record)
    _note(f"experiment {args.name} finished in {time.perf_counter() - t0:.2f}s")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ordersketch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_build = sub.add_parser("build", help="sketch a stream file into a snapshot")
    p_build.add_argument("stream")
    p_build.add_argument("snapshot")
    _add_sketch_flags(p_build)
    p_build.set_defaults(func=cmd_build)

    p_query = sub.add_parser("query", help="estimate word coordinates from a snapshot")
    p_query.add_argument("snapshot")
    p_query.add_argument("words", nargs="+", help="words as dot-joined ids; '' is the empty word")
    p_query.set_defaults(func=cmd_query)

    p_heavy = sub.add_parser("heavy", help="mine heavy patterns at one or more thresholds")
    p_heavy.add_argument("stream")
    p_heavy.add_argument("--rho", type=float, action="append", required=True)
    p_heavy.add_argument("--candidate-cap", type=int, default=1_000_000)
    _add_sketch_flags(p_heavy)
    p_heavy.set_defaults(func=cmd_heavy)

    p_exact = sub.add_parser("exact", help="dump exact feature coordinates of a stream file")
    p_exact.add_argument("stream")
    p_exact.add_argument("--depth", type=int, default=2)
    p_exact.add_argument("--event-map", choices=["linear", "exp"], default="exp")
    p_exact.add_argument("--max-coordinates", type=int, default=2_000_000)
    p_exact.set_defaults(func=cmd_exact)

    p_merge = sub.add_parser("merge", help="merge snapshots built with identical parameters")
    p_merge.add_argument("snapshots", nargs="+")
    p_merge.add_argument("--out", required=True)
    p_merge.set_defaults(func=cmd_merge)

    p_exp = sub.add_parser("experiment", help="run a study harness")
    p_exp.add_argument("name", choices=["table1", "table2"])
    p_exp.add_argument("--config", default=None, help="JSON file of config overrides")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        _note(f"ordersketch: usage error: {exc}")
        return EXIT_USAGE
    except DataError as exc:
        _note(f"ordersketch: data error: {exc}")
        return EXIT_DATA
    except CandidateCapError as exc:
        _note(f"ordersketch: resource guard: {exc}")
        return EXIT_RESOURCE
    except ValueError as exc:
        _note(f"ordersketch: data error: {exc}")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
