"""Count-min style sketching of order-aware stream moments.

An `OrderSketch` keeps ``r`` independent feature tensors, each built over a
small bucket alphabet from a hashed copy of the stream.  Querying a word
hashes it letterwise under each table's function and takes the minimum of
the table coordinates.  Because every event weight is nonnegative, hashing
only merges mass: each table coordinate dominates the true coordinate, so

* estimates never underestimate, for every hash draw, and
* with the table shape that `OrderSketch.from_parameters` picks for
  ``(epsilon, delta)``, the estimate of a word of length m exceeds the
  truth by more than ``epsilon * (l1 mass of exact level m)`` with
  probability below ``delta``.

Events reach the tables one way: `OrderSketch.extend` folds the hashed
stream into a copy of each table with `features_from_arrays`, and
`OrderSketch.update` is `extend` on a one-event stream.  At depth 1 the fold
degenerates to ``table[h(a)] += lam`` per event, i.e. a classical count-min
sketch, bit for bit.

A sketch is built around a list of hashes (``OrderSketch(hashes, ...)``) or
sized from an accuracy target (`OrderSketch.from_parameters`).  Estimates
are read with `OrderSketch.query_many`, one batch of equal-length words at a
time; `OrderSketch.query` and `dense_pullback` read through it.

`mine_heavy_patterns` folds the stream once, retains the letters whose
estimate, a level-1 counter read at the end of a chunk that holds them,
exceeds a threshold ``rho``, and reports every word over them (up to the
sketch depth) whose estimate reaches ``rho ** len(word)``.  Overestimation
makes the survivor set a superset of the words that are truly heavy in that
scaled sense; false positives are controlled by the tail bound above.

Snapshots serialize the full sketch state as one self-describing, versioned
JSON header line followed by the tables as raw little-endian float64, and
round-trip bit-exactly.  Tables must stay finite, and one check owns that
rule: `extend`, the constructor (so merging and decoding) and encoding
raise its `NonFiniteError`, a ValueError, on an overflow or a NaN.  The fold
never raises, at any depth; `extend` checks its result.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .features import EventMapKind, features_from_arrays
from .hashing import (
    PRNG_ID,
    AffineHash,
    HashFamilySpec,
    _is_int,
    _is_number,
    eval_hash_array,
    sample_hashes,
)
from .tensor import GradedTensor, Stream, truncated_product, word_from_index

SNAPSHOT_FORMAT = "order-sketch-snapshot"
SNAPSHOT_VERSION = 2
_HEADER_ATTRIBUTES = ("alphabet_size", "bucket_count", "delta", "depth", "epsilon",
                      "events_seen", "hash_count", "seed", "stream_l1")


class CandidateCapError(RuntimeError):
    """Raised when an enumeration of words or coordinates would exceed its cap."""


class NonFiniteError(ValueError):
    """A table or parameter holds inf or NaN: a float64 overflow or a NaN input."""


def _require_finite(tables: list, *scalars: float) -> None:
    if not all(map(math.isfinite, scalars)) or not all(
        np.isfinite(level).all() for table in tables for level in table.levels
    ):
        raise NonFiniteError("non-finite value (an overflow or a NaN)")


@dataclass
class OrderSketch:
    """r hashed feature tables plus the hash draws that define them.

    The constructor takes the hash list directly; all hashes must share
    (p, n), and every table has ``n`` buckets.  ``epsilon`` and ``delta``
    default to the guarantee of that table shape, ``2 / n`` and
    ``2 ** -len(hashes)``, and tables default to unit tensors.
    :meth:`from_parameters` sizes the tables from an accuracy target instead.
    """

    hashes: list  # list[AffineHash]
    depth: int
    kind: EventMapKind
    alphabet_size: int
    seed: int = 0
    epsilon: float | None = None
    delta: float | None = None
    tables: list | None = None  # list[GradedTensor]
    events_seen: int = 0
    stream_l1: float = 0.0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        if not self.hashes:
            raise ValueError("need at least one hash")
        if len({(h.p, h.n) for h in self.hashes}) != 1:
            raise ValueError("hashes must share p and bucket count")
        self.depth, self.alphabet_size = int(self.depth), int(self.alphabet_size)
        self.seed, self.kind = int(self.seed), EventMapKind(self.kind)
        if self.hashes[0].p < self.alphabet_size:
            raise ValueError(f"hash prime {self.hashes[0].p} is below the alphabet size")
        buckets = self.hashes[0].n
        if self.epsilon is None:
            self.epsilon = 2.0 / buckets
        if self.delta is None:
            self.delta = 2.0 ** -len(self.hashes)
        if self.tables is None:
            self.tables = [GradedTensor.unit(buckets, self.depth) for _ in self.hashes]
        if len(self.tables) != len(self.hashes):
            raise ValueError(f"{len(self.tables)} tables for {len(self.hashes)} hashes")
        if any((t.alphabet_size, t.depth) != (buckets, self.depth) for t in self.tables):
            raise ValueError(f"tables must have {buckets} buckets and depth {self.depth}")
        scalars = (self.epsilon, self.delta, self.stream_l1)
        if not all(map(_is_number, scalars)):
            raise ValueError(f"epsilon, delta and stream_l1 must be numbers, not {scalars}")
        _require_finite(self.tables, *scalars)
        if not (self.epsilon > 0 and 0 < self.delta < 1 and self.stream_l1 >= 0):
            raise ValueError(f"need epsilon > 0, 0 < delta < 1, stream_l1 >= 0, not {scalars}")
        if not (_is_int(self.events_seen) and self.events_seen >= 0):
            raise ValueError(f"events_seen must be an integer >= 0, not {self.events_seen!r}")

    @classmethod
    def from_parameters(
        cls,
        epsilon: float,
        delta: float,
        depth: int,
        kind,
        alphabet_size: int,
        seed: int,
    ) -> OrderSketch:
        """Draw the hashes from the seed into ``ceil(2 / epsilon)`` buckets and
        ``max(1, ceil(log2(1 / delta)))`` tables (0 < epsilon <= 1, 0 < delta < 1)."""
        if not 0 < epsilon <= 1:
            raise ValueError("need 0 < epsilon <= 1")
        if not 0 < delta < 1:
            raise ValueError("need 0 < delta < 1")
        buckets = math.ceil(2.0 / epsilon)
        hash_count = max(1, math.ceil(math.log2(1.0 / delta)))
        return cls(
            sample_hashes(HashFamilySpec(alphabet_size, buckets, seed), hash_count),
            depth,
            kind,
            alphabet_size,
            seed,
            epsilon=float(epsilon),
            delta=float(delta),
        )

    # -- size accounting ---------------------------------------------------

    @property
    def bucket_count(self) -> int:
        return self.tables[0].alphabet_size

    @property
    def hash_count(self) -> int:
        return len(self.hashes)

    def coordinate_count(self) -> int:
        """Total stored coordinates across tables, levels 1..depth."""
        return sum(table.coordinate_count() - 1 for table in self.tables)

    # -- updates -----------------------------------------------------------

    def update(self, lam: float, letter: int) -> None:
        """Feed one event: :meth:`extend` with a one-event stream.  Each call
        pays for a whole `extend`; bulk callers should use `extend`."""
        self.extend(Stream.from_events([(lam, letter)], self.alphabet_size))

    def extend(self, stream: Stream) -> None:
        """Feed a whole stream: `features_from_arrays` folds the letterwise-
        hashed stream into a copy of each table.  Raises NonFiniteError,
        leaving the sketch unchanged, when the fold overflows float64."""
        if stream.alphabet_size != self.alphabet_size:
            raise ValueError("stream alphabet does not match sketch")
        tables = [
            features_from_arrays(
                stream.lambdas, eval_hash_array(h, stream.letters), table.copy(), self.kind
            )
            for h, table in zip(self.hashes, self.tables)
        ]
        stream_l1 = self.stream_l1 + stream.total_mass()
        _require_finite(tables, stream_l1)
        self.tables, self.stream_l1 = tables, stream_l1
        self.events_seen += len(stream)

    # -- queries -----------------------------------------------------------

    def query(self, word) -> float:
        """Estimate of one word, read through :meth:`query_many`; never below
        the true coordinate of the ingested stream."""
        return float(self.query_many([word])[0])

    def query_many(self, words) -> np.ndarray:
        """Estimates of the rows of a ``(k, m)`` int array of words: each
        table hashes the whole array, the hashed rows become offsets into
        level ``m``, and the minimum over tables is taken.  Raises ValueError
        on a letter outside the alphabet (checked first) or ``m`` above the
        depth."""
        words = np.asarray(words)
        if words.ndim != 2:
            raise ValueError(f"words must be a (k, m) array, not shape {words.shape}")
        bad = words[(words < 0) | (words >= self.alphabet_size)]
        if bad.size:
            raise ValueError(f"letter {bad[0]} outside alphabet of size {self.alphabet_size}")
        k, level = words.shape
        if level > self.depth:
            raise ValueError(f"word of length {level} exceeds sketch depth {self.depth}")
        powers = self.bucket_count ** np.arange(level - 1, -1, -1)  # big-endian layout
        best = np.full(k, np.inf)
        for h, table in zip(self.hashes, self.tables):
            offsets = eval_hash_array(h, words.reshape(-1)).reshape(k, level) @ powers
            np.minimum(best, table.levels[level][offsets], out=best)
        return best

    def merge(self, other: OrderSketch) -> OrderSketch:
        """Sketch of the concatenated streams (self first, then other).

        Tables multiply levelwise; all parameters including the seed must
        coincide so both sketches share hash draws.
        """
        def params(s: OrderSketch) -> tuple:
            return (s.epsilon, s.delta, s.depth, s.kind, s.alphabet_size, s.seed, s.hashes)

        if params(self) != params(other):
            raise ValueError("cannot merge sketches with different parameters or hashes")
        return OrderSketch(
            list(self.hashes),
            self.depth,
            self.kind,
            self.alphabet_size,
            self.seed,
            epsilon=self.epsilon,
            delta=self.delta,
            tables=[truncated_product(a, b) for a, b in zip(self.tables, other.tables)],
            events_seen=self.events_seen + other.events_seen,
            stream_l1=self.stream_l1 + other.stream_l1,
        )

    # -- persistence ---------------------------------------------------------

    def to_snapshot(self) -> bytes:
        """Snapshot version 2: one JSON header line (sorted keys, no spaces)
        holding the format, version, PRNG, parameters, counts and hashes, then
        every table's levels 0..depth, table after table, as raw little-endian
        float64 in the in-memory big-endian word layout.  The returned bytes
        are the only full-size copy of the tables made."""
        _require_finite(self.tables, self.stream_l1)
        header = {key: getattr(self, key) for key in _HEADER_ATTRIBUTES}
        header.update(format=SNAPSHOT_FORMAT, version=SNAPSHOT_VERSION, prng=PRNG_ID,
                      event_map=self.kind.value, hashes=[asdict(h) for h in self.hashes])
        head = json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
        levels = (np.ascontiguousarray(lv, dtype="<f8") for t in self.tables for lv in t.levels)
        return b"".join([head.encode("ascii"), *levels])

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_snapshot())

    @classmethod
    def from_snapshot(cls, payload: bytes) -> OrderSketch:
        """Decode a :meth:`to_snapshot` payload.  ValueError when it is foreign
        or of another version, lacks a header key, holds a non-integer count or
        seed, has more or fewer payload bytes than ``hash_count`` tables of
        ``bucket_count`` buckets and levels 0..``depth`` take, or holds a
        value the constructor refuses."""
        end = payload.find(b"\n")
        doc = json.loads(payload[:end]) if end >= 0 else None
        if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
            raise ValueError("not a sketch snapshot")
        if doc.get("version") != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {doc.get('version')!r}")
        body = memoryview(payload)[end + 1 :]
        try:
            hashes = [AffineHash(h["a"], h["b"], h["p"], h["n"]) for h in doc["hashes"]]
            if len(hashes) != doc["hash_count"]:
                raise ValueError(f"snapshot has {len(hashes)} hashes, not {doc['hash_count']}")
            for key in ("alphabet_size", "bucket_count", "depth", "seed"):
                if not _is_int(doc[key]):
                    raise ValueError(f"snapshot {key} must be an integer, not {doc[key]!r}")
            buckets, depth = doc["bucket_count"], doc["depth"]
            sizes = [1]  # level sizes; the bound on the payload stops a huge depth early
            while len(sizes) <= depth and 8 * (len(sizes) + sizes[-1]) <= len(body):
                sizes.append(sizes[-1] * buckets)
            if 8 * sum(sizes) * len(hashes) != len(body):
                raise ValueError(f"snapshot payload of {len(body)} bytes does not match"
                                 f" {len(hashes)} tables of {buckets} buckets, levels 0..{depth}")
            rows = np.frombuffer(body, dtype="<f8").astype(np.float64).reshape(len(hashes), -1)
            tables = [GradedTensor(buckets, depth, np.split(row, np.cumsum(sizes)[:-1]))
                      for row in rows]
            return cls(hashes, depth, doc["event_map"], doc["alphabet_size"], doc["seed"],
                       epsilon=doc["epsilon"], delta=doc["delta"], tables=tables,
                       events_seen=doc["events_seen"], stream_l1=doc["stream_l1"])
        except KeyError as exc:
            raise ValueError(f"snapshot lacks key {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed snapshot: {exc}") from exc

    @classmethod
    def load(cls, path) -> OrderSketch:
        with open(path, "rb") as fh:
            return cls.from_snapshot(fh.read())


def dense_pullback(
    sketch: OrderSketch, letters=None, max_coordinates: int = 2_000_000
) -> GradedTensor:
    """Estimates of every word over ``letters`` (default: the whole alphabet).

    The result is a tensor over ``k = len(letters)`` symbols whose symbol j
    stands for ``letters[j]``; with the default it is the estimate tensor
    over the original alphabet.  Each level reads its words over ``letters``,
    in lexicographic order, with one :meth:`OrderSketch.query_many` call, so
    every coordinate equals :meth:`OrderSketch.query` of its word.  Raises
    :class:`CandidateCapError` when the words of length 1..depth number
    more than ``max_coordinates``, and ValueError when that cap is negative.
    """
    if letters is None:
        letters = np.arange(sketch.alphabet_size)
    letters = np.asarray(letters, dtype=np.int64)
    k = letters.size
    if k and (letters.min() < 0 or letters.max() >= sketch.alphabet_size):
        raise ValueError("letter outside the sketch alphabet")
    if max_coordinates < 0:
        raise ValueError(f"max_coordinates must be >= 0, not {max_coordinates}")
    total = sum(k**m for m in range(1, sketch.depth + 1))
    if total > max_coordinates:
        raise CandidateCapError(
            f"{total} words over {k} letters exceed the cap of {max_coordinates}"
        )
    out = GradedTensor.unit(k, sketch.depth)
    for m in range(1, sketch.depth + 1):
        out.levels[m][:] = sketch.query_many(letters[np.indices((k,) * m).reshape(m, -1).T])
    return out


@dataclass(frozen=True)
class HeavyPatternResult:
    """Words that survived the threshold filter, with their estimates."""

    threshold: float
    depth: int
    hot_letters: tuple
    estimates: dict  # dict[Word, float]

    @property
    def words(self) -> set:
        return set(self.estimates)


def mine_heavy_patterns(
    stream: Stream,
    thresholds,
    epsilon: float,
    delta: float,
    depth: int,
    kind,
    seed: int,
    candidate_cap: int = 1_000_000,
    chunk_size: int = 1024,
) -> tuple[OrderSketch, dict]:
    """One pass, one sketch, any number of thresholds.

    The stream is folded once.  A letter is retained for a threshold when its
    estimate at the end of a ``chunk_size``-event chunk (an integer >= 1) that
    holds it exceeds the threshold; estimates only grow, so the chunk of its
    last occurrence decides.  That estimate is the min over tables of a
    level-1 counter, the cumsum over chunks of ``bincount(chunk * B + bucket,
    lam)``: the numbers a fold per chunk adds, in its order.  The words of
    length 1..depth over the retained letters are then read with
    :func:`dense_pullback` per threshold, raising :class:`CandidateCapError`
    past ``candidate_cap`` (>= 0).  Thresholds must be finite and positive.
    """
    rhos = [float(r) for r in thresholds]
    if not rhos:
        raise ValueError("need at least one threshold")
    if not all(math.isfinite(rho) and rho > 0 for rho in rhos):
        raise ValueError("thresholds must be finite and > 0")
    if not (_is_int(chunk_size) and chunk_size >= 1):
        raise ValueError(f"chunk_size must be an integer >= 1, not {chunk_size!r}")
    if candidate_cap < 0:
        raise ValueError(f"candidate_cap must be >= 0, not {candidate_cap}")
    sketch = OrderSketch.from_parameters(epsilon, delta, depth, kind, stream.alphabet_size, seed)
    sketch.extend(stream)
    seen, last = np.unique(stream.letters[::-1], return_index=True)  # last occurrences
    last_chunk = (len(stream) - 1 - last) // chunk_size
    buckets, chunks = sketch.bucket_count, -(-len(stream) // chunk_size)
    row = np.arange(len(stream)) // chunk_size * buckets
    estimate = np.full(seen.size, np.inf)
    for h in sketch.hashes:
        at = eval_hash_array(h, stream.letters)
        at += row
        counters = np.bincount(at, stream.lambdas, chunks * buckets).reshape(chunks, buckets)
        at_end = counters.cumsum(axis=0)[last_chunk, eval_hash_array(h, seen)]
        np.minimum(estimate, at_end, out=estimate)

    results = {}
    for rho in rhos:
        letters = tuple(seen[estimate > rho].tolist())
        kept: dict = {}
        if letters:
            pulled = dense_pullback(sketch, letters, candidate_cap)
            for m in range(1, depth + 1):
                level = pulled.levels[m]
                for j in np.flatnonzero(level >= rho**m).tolist():
                    word = word_from_index(m, j, len(letters))
                    kept[tuple(letters[i] for i in word)] = float(level[j])
        results[rho] = HeavyPatternResult(
            threshold=rho, depth=depth, hot_letters=letters, estimates=kept
        )
    return sketch, results
