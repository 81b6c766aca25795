"""Command line front end.

Machine-readable output goes to stdout as one JSON record per line with
sorted keys; human summaries and timings go to stderr.  Randomized commands
rerun with the same ``--seed`` therefore produce byte-identical stdout.

Stream files are plain text: a first line ``alphabet_size=N`` (N below
2**61) followed by one ``<weight><TAB><letter>`` line per event. Blank and
whitespace-only lines are skipped, CRLF line ends are accepted, and the
first malformed line is reported by its line number.

Each command checks its flags (and ``build`` and ``exact`` the header) before
the body, so a bad flag is reported before a body error.  ``build`` and
``exact`` fold the body one block of whole fold chunks at a time, holding one
block, never the parsed file; the tables get the bits of one fold of the
whole stream, and only ``stream_l1`` is summed block by block (its last bit
can move on non-integer weights).  A body error reruns the command on the
whole file, which reports it as a whole-file read does.  ``heavy`` reads the
whole stream.

When the first block is full, ``os.fork`` exists and the process may run on
two or more CPUs, a forked child parses the later blocks one block ahead
while this process folds them in file order, so the output is unchanged;
the command's memory is then split over two processes.  On Python 3.12 and
later, ``os.fork`` warns in a process that runs threads (OpenBLAS starts
some); the child calls no BLAS routine.

Exit codes: 0 success, 1 usage error, 2 data error, 3 resource guard.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import sys
import time
import warnings

import numpy as np

from .experiments import (
    ExperimentOneConfig,
    ExperimentTwoConfig,
    run_experiment_1,
    run_experiment_2,
)
from .features import _chunk_length, features_from_arrays
from .sketch import (CandidateCapError, NonFiniteError, OrderSketch, _accuracy_target,
                     _mining_arguments, _require_finite, _sketch_depth, mine_heavy_patterns)
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


_EVENT_ROW = np.dtype([("w", "<f8"), ("a", "<i8")])
_SIGKILL = 9  # fixed by POSIX; the signal module would add a pure-Python import
# numpy's number parser skips these as spaces; the line loop ends a line at all
# but the last (str.splitlines), and its float() and int() reject the last
_NUMPY_ONLY_SPACES = "\x0b\x0c\x1c\x1d\x1e\x1f"


def read_stream_file(path: str, block: tuple | None = None) -> Stream:
    """The stream in the file at ``path``.

    Given ``block = (next_rows, alphabet_size)``, only the file's next
    block: ``next_rows()`` gives its weights and letters, read by numpy's
    reader alone.  A block raises numpy's or `Stream`'s own error: only the
    whole-file read names the bad line, and `_fold_stream_file` reruns it
    for that.
    """
    if block is not None:
        next_rows, alphabet_size = block
        return Stream(*next_rows(), alphabet_size)
    try:
        with open(path, "r", encoding="ascii") as fh:
            parsed = _parse_with_numpy(path, fh)
            if parsed is None:  # the line loop accepts the unusual bodies and names the bad line
                fh.seek(0)
                parsed = _parse_lines(path, fh.read().splitlines())
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from exc
    alphabet_size, lams, lets = parsed
    try:
        return Stream(np.array(lams), lets, alphabet_size)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _unreadable(path: str, exc: Exception) -> DataError:
    """The DataError of a stream file that cannot be read, or is not ASCII text."""
    return DataError(f"{path}: not ASCII text" if isinstance(exc, UnicodeDecodeError)
                     else f"cannot read stream file {path}: {exc}")


def _parse_with_numpy(path: str, fh):
    """``(alphabet_size, weights, letters)`` from numpy's C reader, or None.

    The header's DataError is raised before the body is read.  None means
    the body may read differently under :func:`_parse_lines`: see `_header`
    and `_numpy_body`, or a body that numpy's reader rejects or warns about.
    Every file accepted here gives the loop's arrays bit for bit.
    """
    alphabet_size, at_body = _header(path, fh.readline())
    try:
        lines = _numpy_body(fh) if at_body else None
        return None if lines is None else (alphabet_size, *_numpy_rows(lines))
    except (ValueError, Warning):
        return None


def _numpy_body(fh):
    """The body's lines for numpy's reader, from where ``fh`` stands, or
    None where numpy's reader may read them differently from the line loop:
    a character that numpy reads as a space and the loop does not.  ``fh``
    is left where it stood.  The lines are ``fh`` itself unless the body may
    hold a whitespace-only line, which numpy refuses and the loop skips:
    then they skip such lines."""
    body, spaced = fh.tell(), False
    while chunk := fh.read(1 << 20):
        if any(c in chunk for c in _NUMPY_ONLY_SPACES):
            return None
        if not spaced:  # any space, or a tab that ends a line or the chunk
            codes = np.frombuffer(chunk.encode("ascii"), np.uint8)
            spaced = (" " in chunk or chunk[-1] == "\t"
                      or bool(np.any((codes[:-1] == 9) & (codes[1:] == 10))))
    fh.seek(body)
    return (line for line in fh if not line.isspace()) if spaced else fh


def _numpy_rows(lines, rows: int | None = None) -> tuple:
    """Weights and letters of the next ``rows`` events of ``lines`` (all by
    default), an open file or an iterator of its lines, from numpy's C
    reader, which raises ValueError, or a Warning, on any line it rejects or
    warns about.  numpy never sees the path, so it cannot pick a
    decompressor from the file's suffix."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the empty-input warning, numpy 1.x's "5.0" as an int
        if rows is not None:  # a block may skip blank lines, and read none at the end
            warnings.filterwarnings("ignore", r"(loadtxt: )?input (line \d+ )?contained no data")
        table = np.loadtxt(lines, delimiter="\t", dtype=_EVENT_ROW, comments=None,
                           quotechar=None, ndmin=1, max_rows=rows)
    return table["w"], table["a"]


def _header(path: str, line: str) -> tuple:
    """The alphabet size in the file's first ``line`` as `readline` gives it, and
    whether the body begins after it: not if the line loop ends a line inside it."""
    header = line.splitlines() or [""]
    if not header[0].startswith("alphabet_size="):
        raise DataError(f"{path}:1: expected header alphabet_size=N")
    try:
        alphabet_size = int(header[0].split("=", 1)[1])
    except ValueError as exc:
        raise DataError(f"{path}:1: malformed alphabet size") from exc
    if alphabet_size >= 1 << 61:  # past the hash family's domain, so past every sketch
        raise DataError(f"{path}:1: alphabet size must be below 2**61")
    return alphabet_size, len(header) == 1


def _parse_lines(path: str, lines: list) -> tuple:
    alphabet_size, _ = _header(path, lines[0])  # checked before the body was read
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
    # as objects, since numpy reads ints of both signs past int64 as floats
    return alphabet_size, lams, np.array(lets, dtype=object)


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


def _block_rows(n: int, depth: int) -> int:
    """Events per block: whole fold chunks, so a stream folds to the same
    bits block by block, about ``2**17`` events when a chunk is shorter."""
    chunk = _chunk_length(n, depth)
    return chunk * max(1, 2**17 // chunk)


def _fold_stream_file(path: str, start, fold) -> tuple:
    """Fold the stream file at ``path`` and return ``(state, events)``.

    The file is opened and its header read, then ``start(alphabet_size)``
    gives ``(state, rows)``; any exception so far ends the fold.  Then
    ``fold(state, stream)`` takes the body ``rows`` events at a time, each
    block parsed by `read_stream_file`, so the parsed file is never held
    whole; when the first block is full and `_parse_ahead_runs`, a
    `_ParseAhead` child parses the later ones.  On any exception in the
    body, a numpy warning raised as one included, the child is stopped, the
    partial state is dropped and the whole file is read, started and folded
    once: the line loop names a bad line, the letters are checked across
    the file before the weights, and the outcome is the whole-file read's.
    """
    child = None
    try:
        with open(path, "r", encoding="ascii") as fh:
            alphabet_size, at_body = _header(path, fh.readline())
            state, rows = start(alphabet_size)
            try:
                lines = _numpy_body(fh) if at_body else None
                if lines is not None:
                    next_rows = lambda: _numpy_rows(lines, rows)
                    block = read_stream_file(path, (next_rows, alphabet_size))
                    if len(block) == rows and _parse_ahead_runs():
                        child = _ParseAhead(lines, rows)
                        next_rows = child.next_rows
                    events = 0
                    while True:
                        fold(state, block)
                        events += len(block)
                        if len(block) < rows:
                            return state, events
                        block = read_stream_file(path, (next_rows, alphabet_size))
            except Exception:  # the whole-file read below reports it, or reads past it
                pass
            finally:
                if child is not None:
                    child.stop()
    except (OSError, UnicodeDecodeError) as exc:  # from opening the file or reading its header
        raise _unreadable(path, exc) from exc
    stream = read_stream_file(path)
    state, _ = start(stream.alphabet_size)
    fold(state, stream)
    return state, len(stream)


def _parse_ahead_runs() -> bool:
    """Whether a parse-ahead child can run beside the fold: ``os.fork``
    exists and this process may run on two or more CPUs.  On one, the two
    processes would only take turns, and the build reads slower."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


class _ParseAhead:
    """A forked child that parses a file's blocks after the first, one
    block ahead of the parent's fold.

    Blocks pass through a ring of two slots of ``rows`` events in shared
    memory.  The ``ready`` pipe carries each block's row count to the parent,
    which copies the block out of its slot before it hands the slot back on
    the ``free`` pipe, so no view of the ring reaches the fold.  The child
    never writes to stdout or stderr and always leaves through ``os._exit``:
    after the last block, that is the first short one, on any error, or at
    the end of ``free``.  The parent then reads the end of ``ready``, and
    `next_rows` raises.
    """

    def __init__(self, lines, rows: int):
        self.rows, self.taken = rows, 0
        self.ring = mmap.mmap(-1, 2 * rows * _EVENT_ROW.itemsize)
        self.ready, ready = os.pipe()
        free, self.free = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (self.ready, ready, free, self.free):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                os.close(self.ready)
                os.close(self.free)
                self._parse(lines, ready, free)
            finally:
                os._exit(0)
        os.close(ready)
        os.close(free)

    def _slot(self, index: int) -> np.ndarray:
        return np.frombuffer(self.ring, _EVENT_ROW, self.rows,
                             index % 2 * self.rows * _EVENT_ROW.itemsize)

    def _parse(self, lines, ready: int, free: int) -> None:
        index = 0
        while index < 2 or os.read(free, 1):  # the parent has freed this slot
            lams, lets = _numpy_rows(lines, self.rows)
            slot = self._slot(index)
            slot["w"][:lams.size], slot["a"][:lets.size] = lams, lets
            os.write(ready, lams.size.to_bytes(8, "little"))
            if lams.size < self.rows:
                return
            index += 1

    def next_rows(self) -> tuple:
        count = os.read(self.ready, 8)
        if len(count) < 8:
            raise EOFError("the parse-ahead child stopped before the last block")
        table = self._slot(self.taken)[:int.from_bytes(count, "little")].copy()
        self.taken += 1
        try:
            os.write(self.free, b"\0")
        except BrokenPipeError:  # the child has parsed the last block and left
            pass
        return table["w"], table["a"]

    def stop(self) -> None:
        os.kill(self.pid, _SIGKILL)
        os.waitpid(self.pid, 0)
        os.close(self.ready)
        os.close(self.free)
        self.ring.close()


def cmd_build(args) -> int:
    def start(alphabet_size: int) -> tuple:
        try:
            sketch = OrderSketch.from_parameters(args.epsilon, args.delta, args.depth,
                                                 args.event_map, alphabet_size, args.seed)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        return sketch, _block_rows(sketch.bucket_count, sketch.depth)

    t0 = time.perf_counter()
    sketch, events = _fold_stream_file(args.stream, start, OrderSketch.extend)
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
    rate = events / elapsed if elapsed > 0 else float("inf")
    _note(
        f"built sketch over {events} events in {elapsed:.3f}s"
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
        estimates = sketch.query_many([word for _, word in batch])
        for (record, _), estimate in zip(batch, estimates.tolist()):
            record["estimate"] = estimate
    for record in records:
        _emit(record)
    return EXIT_DATA if any(r["record"] == "query_error" for r in records) else EXIT_OK


def cmd_heavy(args) -> int:
    rhos, chunk_size = sorted(set(args.rho)), 1024
    try:  # every flag before the file is read, which raises only DataError
        _mining_arguments(rhos, args.candidate_cap, chunk_size)
        _accuracy_target(args.epsilon, args.delta)
        _sketch_depth(args.depth)
        stream = read_stream_file(args.stream)
        _, results = mine_heavy_patterns(
            stream,
            rhos,
            args.epsilon,
            args.delta,
            args.depth,
            args.event_map,
            args.seed,
            candidate_cap=args.candidate_cap,
            chunk_size=chunk_size,
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

    def start(n: int) -> tuple:
        coords = sum(n**m for m in range(args.depth + 1))
        if coords > args.max_coordinates:
            raise CandidateCapError(
                f"refusing exact run: {coords} coordinates (~{coords * 8} bytes) exceed"
                f" the cap of {args.max_coordinates}; raise --max-coordinates to override"
            )
        return GradedTensor.unit(n, args.depth), _block_rows(n, args.depth)

    def fold(phi: GradedTensor, stream: Stream) -> None:
        features_from_arrays(stream.lambdas, stream.letters, phi, args.event_map)

    phi, events = _fold_stream_file(args.stream, start, fold)
    _require_finite([phi])
    n, coords = phi.alphabet_size, phi.coordinate_count()
    _emit(
        {
            "record": "exact",
            "events": events,
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
                f" {row.events_per_sec:.0f} events/s over its {row.hash_count} table folds"
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
    except MemoryError as exc:  # a table too large to allocate
        _note(f"ordersketch: resource guard: out of memory: {exc}")
        return EXIT_RESOURCE
    except ValueError as exc:
        _note(f"ordersketch: data error: {exc}")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
