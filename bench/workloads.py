"""One benchmark workload, run in its own process by ``bench/run.py``.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

The workload writes its seeded inputs under ``.bench_out/``, then calls
``ordersketch.cli.main(argv)`` in-process in a closed loop with one client:
the next call starts when the previous one returns.  Only the calls are
timed; their stdout is captured and checked against the oracles in
``oracles.py`` after the loop.  With ``--trace 1`` a fixed schedule of calls
runs once untraced and once under the span tracer of ``tracing.py``.  The
last stdout line is one JSON object with the result.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from ordersketch import OrderSketch, cli  # noqa: E402

from oracles import (  # noqa: E402
    ExactStream,
    check_mined,
    check_no_undershoot,
    check_query_records,
    check_repeats,
    check_table_masses,
    check_tables_match,
    parse_records,
    word_text,
)
from tracing import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - _START

SETUP_REPEATS = 3  # setup_s is the import plus the median of these
MIN_STEPS = 3
OUT_DIR = ROOT / ".bench_out"
TRACE_OVERHEAD = "trace.overhead_ratio"


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


def write_events(path, lambdas, letters, alphabet_size: int, chunk: int = 100_000) -> None:
    """The CLI stream format; ``repr`` keeps every weight exact."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"alphabet_size={alphabet_size}\n")
        for start in range(0, len(letters), chunk):
            lam = lambdas[start : start + chunk].tolist()
            let = letters[start : start + chunk].tolist()
            fh.write("".join(f"{w!r}\t{a}\n" for w, a in zip(lam, let)))


@dataclass
class Call:
    kind: str
    code: int
    seconds: float
    stdout: str
    stderr: str
    artifact: str | None


class Runner:
    """Calls the CLI in-process and records every call."""

    def __init__(self):
        self.calls = []
        self.tracer = None

    def __call__(self, kind: str, argv: list, artifact: str | None = None) -> Call:
        if self.tracer is not None:
            self.tracer.op = len(self.calls)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # a crash fails this operation; the run goes on
                code = -1
                traceback.print_exc()
        call = Call(kind, code, time.perf_counter() - start, out.getvalue(), err.getvalue(),
                    artifact)
        self.calls.append(call)
        return call


class Workload:
    """Seeded inputs, the calls of one closed loop, and their checks."""

    trace_steps = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.dir = work_dir

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def setup(self) -> None:
        raise NotImplementedError

    def prologue(self, run: Runner) -> None:
        """Calls made once before the repeated step."""

    def step(self, run: Runner) -> None:
        raise NotImplementedError

    def check(self, calls: list) -> dict:
        """Problems found in the outputs, keyed by call index."""
        raise NotImplementedError

    def report(self, calls: list) -> tuple:
        """(events/s samples, call latency samples in s, named detail metrics)."""
        raise NotImplementedError


def _load(path):
    """A snapshot written by the CLI, or the problem that kept it from loading."""
    try:
        return OrderSketch.load(path), []
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, [f"snapshot {Path(path).name} does not load: {exc}"]


def _memo_check(calls, kind, check) -> dict:
    """Check each distinct stdout of one call kind once."""
    verdicts, problems = {}, {}
    for i, call in enumerate(calls):
        if call.kind == kind and call.code == 0:
            if call.stdout not in verdicts:
                verdicts[call.stdout] = check(call.stdout)
            if verdicts[call.stdout]:
                problems[i] = verdicts[call.stdout]
    return problems


class Ingest(Workload):
    """``build`` of a 1M-event unit-weight file over a 10k-letter alphabet with
    a Zipf head: the bulk parse and depth-2 batch fold, with a tiny snapshot."""

    EVENTS = 1_000_000
    ALPHABET = 10_000
    FLAGS = ["--epsilon", "0.1", "--delta", "0.05", "--depth", "2", "--event-map", "exp"]
    trace_steps = 2

    def setup(self):
        rng = rng_for(self.seed, 0)
        weights = 1.0 / np.arange(1, self.ALPHABET + 1) ** 1.1
        ids = rng.permutation(self.ALPHABET)
        self.letters = ids[rng.choice(self.ALPHABET, size=self.EVENTS, p=weights / weights.sum())]
        self.lambdas = np.ones(self.EVENTS)
        self.events = self.path("ingest.events")
        write_events(self.events, self.lambdas, self.letters, self.ALPHABET)

    def step(self, run):
        snap = self.path(f"build-{len(run.calls)}.json")
        argv = ["build", self.events, snap, *self.FLAGS, "--seed", str(self.seed)]
        run("build", argv, artifact=snap)

    def check(self, calls):
        exact = ExactStream(self.lambdas, self.letters, self.ALPHABET)
        rng = rng_for(self.seed, 1)
        head = [int(a) for a in np.argsort(-exact.letter_mass, kind="stable")[:10]]
        singles = head + [int(a) for a in rng.integers(0, self.ALPHABET, 40)]
        pairs = [(a, b) for a in head for b in head]
        pairs += [tuple(int(a) for a in rng.integers(0, self.ALPHABET, 2)) for _ in range(40)]
        words = [(a,) for a in singles] + pairs
        exact_values = {w: exact.exp(w) for w in words}
        masses = {m: exact.level_mass(m, "exp") for m in (1, 2)}
        problems = {}
        for i, call in enumerate(calls):
            if call.code != 0:
                continue
            record = parse_records(call.stdout)
            sketch, found = _load(call.artifact)
            if len(record) != 1 or record[0].get("events") != self.EVENTS:
                found.append("build record does not report the input's events")
            if sketch is not None:
                found += check_table_masses(sketch, masses)
                found += check_no_undershoot(sketch, exact_values)
            if found:
                problems[i] = found
        return problems

    def report(self, calls):
        times = [c.seconds for c in calls]
        rates = [self.EVENTS / t for t in times]
        return rates, times, {"events_per_s": (median(rates), "events/s")}


class Deep(Workload):
    """Depth-3 linear session at B=64, r=4: build two shards and merge them,
    then rounds of one shard rebuild, one merge and 20 queries of 2000 words
    against the merged snapshot.  Runs the per-event fold, the product in
    merge, snapshot encode and decode, and the per-word query loop."""

    SHARD_EVENTS = 10_000
    ALPHABET = 1000
    HOT = 16
    WORDS = 2000
    QUERIES_PER_ROUND = 20
    EPSILON, DELTA = 0.03125, 0.0625
    FLAGS = ["--epsilon", repr(EPSILON), "--delta", repr(DELTA), "--depth", "3",
             "--event-map", "linear"]

    def setup(self):
        rng = rng_for(self.seed, 0)
        hot = rng.choice(self.ALPHABET, self.HOT, replace=False)
        self.shards = []
        for s in range(2):
            on_hot = rng.random(self.SHARD_EVENTS) < 0.5
            letters = np.where(on_hot, hot[rng.integers(0, self.HOT, self.SHARD_EVENTS)],
                               rng.integers(0, self.ALPHABET, self.SHARD_EVENTS))
            lambdas = rng.uniform(0.5, 2.0, self.SHARD_EVENTS)
            path = self.path(f"shard-{s}.events")
            write_events(path, lambdas, letters, self.ALPHABET)
            self.shards.append((path, lambdas, letters))
        self.shard_of = {}  # snapshot path -> shard index
        # even words over the hot letters, odd words over the whole alphabet
        self.words = [
            tuple(int(a) for a in rng.choice(hot if i % 2 == 0 else self.ALPHABET, 1 + i % 3))
            for i in range(self.WORDS)
        ]
        self.word_texts = [word_text(w) for w in self.words]

    def _build(self, run, events, snap):
        run("build", ["build", events, snap, *self.FLAGS, "--seed", str(self.seed)], snap)

    def _build_shard(self, run, shard):
        snap = self.path(f"shard-{shard}-{len(run.calls)}.json")
        self.shard_of[snap] = shard
        self.latest[shard] = snap
        self._build(run, self.shards[shard][0], snap)

    def _merge(self, run):
        self.merged = self.path(f"merged-{len(run.calls)}.json")
        run("merge", ["merge", *self.latest, "--out", self.merged], self.merged)

    def prologue(self, run):
        self.latest = [None, None]
        self.rounds = 0
        self._build_shard(run, 0)
        self._build_shard(run, 1)
        self._merge(run)

    def step(self, run):
        """Rebuild one shard and merge again, so builds and merges are sampled
        across the run, then query the new merged snapshot."""
        self._build_shard(run, self.rounds % 2)
        self.rounds += 1
        self._merge(run)
        for _ in range(self.QUERIES_PER_ROUND):
            run("query", ["query", self.merged, *self.word_texts])

    def check(self, calls):
        lambdas = np.concatenate([s[1] for s in self.shards])
        letters = np.concatenate([s[2] for s in self.shards])
        whole = self.path("whole.events")
        write_events(whole, lambdas, letters, self.ALPHABET)
        reference = Runner()
        self._build(reference, whole, self.path("whole.json"))
        single, found = _load(self.path("whole.json"))
        if single is None:
            return {i: found for i, c in enumerate(calls) if c.kind != "build"}

        shard_masses = [
            {m: ExactStream(lam, let, self.ALPHABET).level_mass(m, "linear") for m in (1, 2, 3)}
            for _, lam, let in self.shards
        ]
        verdicts, problems = {}, {}
        for i, call in enumerate(calls):
            if call.code != 0 or call.kind == "query":
                continue
            with open(call.artifact, "rb") as fh:
                key = (call.kind, self.shard_of.get(call.artifact), fh.read())
            if key not in verdicts:  # rebuilds and re-merges repeat their bytes
                sketch, found = _load(call.artifact)
                if sketch is not None:
                    found = (check_table_masses(sketch, shard_masses[key[1]])
                             if call.kind == "build" else check_tables_match(sketch, single))
                verdicts[key] = found
            if verdicts[key]:
                problems[i] = verdicts[key]

        exact = ExactStream(lambdas, letters, self.ALPHABET)
        problems.update(_memo_check(
            calls, "query",
            lambda out: check_query_records(parse_records(out), self.words, single, exact,
                                            "linear", self.EPSILON, self.DELTA)))
        return problems

    def report(self, calls):
        builds = [self.SHARD_EVENTS / c.seconds for c in calls if c.kind == "build"]
        merges = [c.seconds for c in calls if c.kind == "merge"]
        queries = [c.seconds for c in calls if c.kind == "query"]
        tail, pct = tail_of(queries)
        return builds, queries, {
            "events_per_s": (median(builds), "events/s"),
            "merge_s": (median(merges), "s"),
            "query_call_p50_ms": (1000 * median(queries), "ms"),
            "query_call_tail_ms": (1000 * tail, "ms"),
            "query_call_tail_percentile": (pct, "%"),
            "query_calls": (len(queries), "count"),
            "query_words_per_s": (self.WORDS * len(queries) / sum(queries), "words/s"),
        }


class Mine(Workload):
    """``heavy`` at three thresholds on a 300k-event file where 20 planted
    letters with geometric masses carry 60% of the stream: chunked re-folds,
    letter estimates between chunks, then candidate queries."""

    EVENTS = 300_000
    ALPHABET = 5000
    PLANTED = 20
    HEAVY_SHARE = 0.6
    DECAY = 0.85
    RHOS = (4000.0, 6000.0, 8000.0)
    FLAGS = ["--epsilon", "0.03125", "--delta", "0.0625", "--depth", "2", "--event-map", "exp"]
    trace_steps = 2

    def setup(self):
        rng = rng_for(self.seed, 0)
        planted = rng.choice(self.ALPHABET, self.PLANTED, replace=False)
        share = self.DECAY ** np.arange(self.PLANTED)
        heavy = rng.random(self.EVENTS) < self.HEAVY_SHARE
        self.letters = np.where(
            heavy, planted[rng.choice(self.PLANTED, self.EVENTS, p=share / share.sum())],
            rng.integers(0, self.ALPHABET, self.EVENTS))
        self.lambdas = np.ones(self.EVENTS)
        self.events = self.path("mine.events")
        write_events(self.events, self.lambdas, self.letters, self.ALPHABET)

    def step(self, run):
        rhos = [arg for rho in self.RHOS for arg in ("--rho", repr(rho))]
        run("heavy", ["heavy", self.events, *rhos, *self.FLAGS, "--seed", str(self.seed)])

    def check(self, calls):
        exact = ExactStream(self.lambdas, self.letters, self.ALPHABET)
        return _memo_check(
            calls, "heavy", lambda out: check_mined(parse_records(out), exact, self.RHOS, 2))

    def report(self, calls):
        times = [c.seconds for c in calls]
        rates = [self.EVENTS / t for t in times]
        return rates, times, {"events_per_s": (median(rates), "events/s")}


class Study(Workload):
    """``experiment table1`` and ``table2`` from JSON configs at desk scale:
    many small sketches, dense pull-back, error metric and logistic fits."""

    TABLE1 = {
        "alphabet_size": 100, "length": 100_000, "heavy_count": 10, "heavy_mass": 0.1,
        "depth": 2, "kind": "exp", "bucket_counts": [4, 8, 16, 32], "hash_counts": [2, 4, 8],
        "repetitions": 1,
    }
    TABLE2 = {
        "alphabet_size": 1000, "total_length": 10_000, "p": 0.1, "q_values": [0.13],
        "streams_per_class": 20, "depth": 2, "kind": "exp",
    }

    def setup(self):
        for name, config in (("table1", self.TABLE1), ("table2", self.TABLE2)):
            with open(self.path(f"{name}.json"), "w", encoding="ascii") as fh:
                json.dump(config, fh)

    def step(self, run):
        for name in ("table1", "table2"):
            argv = ["experiment", name, "--config", self.path(f"{name}.json"),
                    "--seed", str(self.seed)]
            run(name, argv)

    def check(self, calls):
        expected = {
            "table1": ("experiment1_row",
                       len(self.TABLE1["bucket_counts"]) * len(self.TABLE1["hash_counts"])),
            "table2": ("experiment2_row", len(self.TABLE2["q_values"])),
        }
        problems = {}
        for name, (record, count) in expected.items():
            index = [i for i, c in enumerate(calls) if c.kind == name and c.code == 0]
            if index:
                found = check_repeats([calls[i].stdout for i in index], record, count)
                problems.update({index[j]: msgs for j, msgs in found.items()})
        return problems

    def report(self, calls):
        t1 = [c.seconds for c in calls if c.kind == "table1"]
        t2 = [c.seconds for c in calls if c.kind == "table2"]
        rounds = [a + b for a, b in zip(t1, t2)]
        one, two = self.TABLE1, self.TABLE2
        # events folded into sketches: one per grid cell and repetition, one per stream
        events = (one["length"] * len(one["bucket_counts"]) * len(one["hash_counts"])
                  * one["repetitions"]
                  + two["total_length"] * 2 * two["streams_per_class"] * len(two["q_values"]))
        return [events / t for t in rounds], rounds, {
            "table1_s": (median(t1), "s"),
            "table2_s": (median(t2), "s"),
        }


WORKLOADS = {"ingest": Ingest, "deep": Deep, "mine": Mine, "study": Study}


def tail_of(samples: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; the median (50) when the sample is too small for a tail."""
    ordered = sorted(samples)
    n = len(ordered)
    if n - 10 >= (n + 1) / 2:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return median(ordered), 50.0


def blas_info() -> dict:
    """BLAS vendor from numpy's build config and its live thread count."""
    info = {"vendor": "unknown", "threads": None}
    try:
        info["vendor"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                info["threads"] = int(getattr(handle, symbol)())
                return info
    return info


def run_schedule(workload: Workload, run: Runner, steps: int) -> list:
    """The prologue then ``steps`` steps; returns the calls made."""
    first = len(run.calls)
    workload.prologue(run)
    for _ in range(steps):
        workload.step(run)
    return run.calls[first:]


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    workload = WORKLOADS[name](seed, work_dir)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    setup_s = IMPORT_S + median(setups)

    run = Runner()
    detail = {}
    if trace:
        untraced = run_schedule(workload, run, workload.trace_steps)
        tracer = Tracer()
        tracer.install()
        run.tracer = tracer
        try:
            traced = run_schedule(workload, run, workload.trace_steps)
        finally:
            tracer.uninstall()
            run.tracer = None
        overhead = sum(c.seconds for c in traced) / sum(c.seconds for c in untraced) - 1.0
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{name}.jsonl"
        tracer.write_spans(spans)
        layers = tracer.layer_metrics()
        layers[TRACE_OVERHEAD] = (overhead, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        detail["spans_file"] = str(spans.relative_to(ROOT))
        detail["spans"] = len(tracer.spans)
    else:
        deadline = time.perf_counter() + seconds
        workload.prologue(run)
        steps, last = 0, 0.0
        while steps < MIN_STEPS or time.perf_counter() + last <= deadline:
            start = time.perf_counter()
            workload.step(run)
            last = time.perf_counter() - start
            steps += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rates, latencies, named = workload.report(run.calls)
        tail, pct = tail_of(latencies)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "events_per_s": {"value": median(rates), "unit": "events/s"},
            "call_p50_ms": {"value": 1000 * median(latencies), "unit": "ms"},
            "call_tail_ms": {"value": 1000 * tail, "unit": "ms"},
        }
        detail["named"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        detail["call_samples"] = len(latencies)
        detail["call_tail_percentile"] = pct

    problems = workload.check(run.calls)
    failed = sorted({i for i, c in enumerate(run.calls) if c.code != 0} | set(problems))
    detail["problems"] = {str(i): problems.get(i, [])[:5] or [run.calls[i].stderr[-500:]]
                          for i in failed[:5]}
    detail["setup_samples_s"] = setups
    detail["import_s"] = IMPORT_S
    detail["calls_by_kind"] = dict(Counter(call.kind for call in run.calls))
    detail["environment"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
    }
    return {
        "correct": not failed,
        "attempted": len(run.calls),
        "failed": len(failed),
        "metrics": metrics,
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    work_dir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
