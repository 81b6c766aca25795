"""Shared test helpers: random streams, independent reference oracles, and
an in-process CLI runner."""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, combinations_with_replacement

import numpy as np

from ordersketch import (
    EventMapKind,
    GradedTensor,
    HeavyPatternResult,
    OrderSketch,
    Stream,
    dense_pullback,
    eval_hash,
    word_from_index,
)
from ordersketch.cli import main as cli_main
from ordersketch.features import apply_event_inplace


def four_event_stream() -> Stream:
    """The running example used in docs and worked-example tests."""
    return Stream.from_events([(1.0, 0), (1.5, 1), (1.0, 1), (2.0, 0)], alphabet_size=2)


def random_stream(rng: np.random.Generator, alphabet_size: int, length: int) -> Stream:
    lams = rng.uniform(0.1, 2.0, size=length)
    letters = rng.integers(0, alphabet_size, size=length)
    return Stream(lams, letters, alphabet_size)


def scale_stream(stream: Stream, c: float) -> Stream:
    """Multiply every event weight by ``c > 0``."""
    if not c > 0:
        raise ValueError("scale factor must be positive")
    return Stream(stream.lambdas * float(c), stream.letters, stream.alphabet_size)


def split_snapshot(data: bytes) -> tuple[dict, np.ndarray]:
    """The JSON header and the float64 payload values of snapshot bytes."""
    head, payload = data.split(b"\n", 1)
    return json.loads(head), np.frombuffer(payload, dtype="<f8").copy()


def join_snapshot(header: dict, values) -> bytes:
    """Snapshot bytes from a header and payload values (written as ``<f8``)."""
    return json.dumps(header).encode() + b"\n" + np.asarray(values, dtype="<f8").tobytes()


def hash_word(h, word) -> tuple:
    """Letterwise image of a word."""
    return tuple(eval_hash(h, int(a)) for a in word)


def stream_features(stream: Stream, kind, depth: int) -> GradedTensor:
    """Reference fold: apply every event in order to the unit tensor."""
    phi = GradedTensor.unit(stream.alphabet_size, depth)
    for event in stream:
        apply_event_inplace(phi, event, kind)
    return phi


def mine_by_chunks(stream: Stream, thresholds, epsilon, delta, depth, kind, seed,
                   chunk_size: int) -> tuple:
    """Reference heavy-pattern search that re-folds per chunk: `extend` the
    sketch by each ``chunk_size``-event slice, then test the slice's letters
    against every threshold with `query_many`.  Same return value as
    `mine_heavy_patterns`, which folds once and reads counters instead."""
    sketch = OrderSketch.from_parameters(epsilon, delta, depth, kind, stream.alphabet_size, seed)
    hot: dict = {rho: set() for rho in thresholds}
    for start in range(0, len(stream), chunk_size):
        chunk = stream.slice(start, start + chunk_size)
        sketch.extend(chunk)
        seen = np.unique(chunk.letters)
        estimates = sketch.query_many(seen[:, None])
        for rho in thresholds:
            hot[rho].update(seen[estimates > rho].tolist())
    results = {}
    for rho in thresholds:
        letters = tuple(sorted(hot[rho]))
        kept = {}
        if letters:
            pulled = dense_pullback(sketch, letters)
            for m in range(1, depth + 1):
                for j in np.flatnonzero(pulled.levels[m] >= rho**m).tolist():
                    word = tuple(letters[i] for i in word_from_index(m, j, len(letters)))
                    kept[word] = float(pulled.levels[m][j])
        results[rho] = HeavyPatternResult(rho, depth, letters, kept)
    return sketch, results


def event_polynomial(event, kind, alphabet_size: int, depth: int) -> GradedTensor:
    """The single-event tensor: 1 + lam*a (linear) or truncated exp(lam*a)."""
    kind = EventMapKind(kind)
    lam, letter = float(event[0]), int(event[1])
    if not 0 <= letter < alphabet_size:
        raise ValueError(f"letter {letter} outside alphabet of size {alphabet_size}")
    if lam < 0:
        raise ValueError("event weight must be nonnegative")
    out = GradedTensor.unit(alphabet_size, depth)
    top = depth if kind is EventMapKind.EXP else min(1, depth)
    for k in range(1, top + 1):
        # offset of the word letter^k in level k
        rep = sum(letter * alphabet_size**j for j in range(k))
        out.levels[k][rep] = lam**k / math.factorial(k)
    return out


def _runs_factorial(indices) -> int:
    # product of (run length)! over maximal runs of equal consecutive indices
    out, run = 1, 1
    for prev, cur in zip(indices, indices[1:]):
        if prev == cur:
            run += 1
        else:
            out *= math.factorial(run)
            run = 1
    return out * math.factorial(run)


def oracle_level(stream: Stream, m: int, kind) -> dict:
    """All nonzero level-m coordinates by direct tuple enumeration.

    Independent of the product path: iterates index tuples with
    ``itertools`` and accumulates weight products per spelled word.  Cost is
    combinatorial in the stream length; intended for small test instances.
    """
    kind = EventMapKind(kind)
    if m == 0:
        return {(): 1.0}
    lam = stream.lambdas.tolist()
    let = stream.letters.tolist()
    acc: dict = {}
    if kind is EventMapKind.LINEAR:
        for tup in combinations(range(len(lam)), m):
            word = tuple(let[i] for i in tup)
            acc[word] = acc.get(word, 0.0) + math.prod(lam[i] for i in tup)
    else:
        for tup in combinations_with_replacement(range(len(lam)), m):
            word = tuple(let[i] for i in tup)
            weight = math.prod(lam[i] for i in tup) / _runs_factorial(tup)
            acc[word] = acc.get(word, 0.0) + weight
    return acc


def brute_force_oracle(stream: Stream, word, kind) -> float:
    """Single coordinate by direct enumeration (see :func:`oracle_level`)."""
    word = tuple(int(a) for a in word)
    for a in word:
        if not 0 <= a < stream.alphabet_size:
            raise ValueError(f"letter {a} outside alphabet")
    return oracle_level(stream, len(word), kind).get(word, 0.0)


def count_subsequences(letters, pattern) -> int:
    """Number of occurrences of ``pattern`` as a (strict) subsequence.

    Standard one-dimensional counting DP; independent of the tensor fold.
    """
    ways = [0] * (len(pattern) + 1)
    ways[0] = 1
    for c in letters:
        for j in range(len(pattern) - 1, -1, -1):
            if pattern[j] == c:
                ways[j + 1] += ways[j]
    return ways[-1]


class PlainCountMin:
    """Classical count-min sketch, written from scratch against the textbook
    definition so the depth-1 reduction test has an independent reference."""

    def __init__(self, hashes):
        self.hashes = list(hashes)
        self.tables = [np.zeros(h.n) for h in self.hashes]

    @staticmethod
    def _bucket(h, x: int) -> int:
        return ((h.a * x + h.b) % h.p) % h.n

    def update(self, weight: float, letter: int) -> None:
        for h, table in zip(self.hashes, self.tables):
            table[self._bucket(h, letter)] += weight

    def query(self, letter: int) -> float:
        return min(
            float(table[self._bucket(h, letter)])
            for h, table in zip(self.hashes, self.tables)
        )


def expand_by_positions(u: tuple, v: tuple, infiltration: bool) -> dict:
    """Word-product coefficients by brute enumeration over position subsets.

    The coefficient of w is the number of pairs (S, T) of position sets with
    S cup T = all positions of w, w restricted to S reads u and to T reads v;
    the shuffle variant additionally requires S and T disjoint.  Each valid
    (S, T) pair determines w outright (letters on the overlap must agree), so
    we enumerate pairs and materialize the words.
    """
    from itertools import combinations

    out: dict = {}
    lo = len(u) + len(v) if not infiltration else max(len(u), len(v))
    for length in range(lo, len(u) + len(v) + 1):
        for s_pos in combinations(range(length), len(u)):
            for t_pos in combinations(range(length), len(v)):
                if len(set(s_pos) | set(t_pos)) != length:
                    continue
                if not infiltration and set(s_pos) & set(t_pos):
                    continue
                w = [None] * length
                for i, a in zip(s_pos, u):
                    w[i] = a
                ok = True
                for i, a in zip(t_pos, v):
                    if w[i] is not None and w[i] != a:
                        ok = False
                        break
                    w[i] = a
                if ok:
                    word = tuple(w)
                    out[word] = out.get(word, 0) + 1
    return out


def run_cli(args) -> tuple:
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(args))
    return code, out.getvalue(), err.getvalue()


def parse_records(stdout: str) -> list:
    import json

    return [json.loads(line) for line in stdout.splitlines() if line]
