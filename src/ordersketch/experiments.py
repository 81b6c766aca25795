"""Stream generators, sketch error reporting, and the two study harnesses.

Experiment one sweeps table shapes on a heavy-tail i.i.d. stream and reports
the mass-normalized coordinate error of the sketch against exact features,
per (bucket count, table count) cell.  Hash draws for a given repetition
share a seed across cells, so tables with more hashes extend the smaller
draw set and error decreases monotonically along that axis by construction.
Each repetition therefore folds the tables of its largest draw once, and a
cell of ``r`` tables reads the first ``r``.  A cell's ``events_per_sec`` is
the stream length over the summed time of those ``r`` table folds, hashing
included.

Experiment two classifies two kinds of three-segment streams that differ
only in the order of their hot letters.  Features are mined per stream with
the one-pass heavy-pattern search; a logistic model on depth-2 features
separates the classes while the depth-1 (frequency only) features cannot.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from .features import EventMapKind, features_from_arrays
from .hashing import AffineHash, HashFamilySpec, derive_seed, sample_hashes, smallest_prime_geq
from .sketch import (OrderSketch, _accuracy_target, _mining_arguments, dense_pullback,
                     mine_heavy_patterns)
from .tensor import GradedTensor, Stream, _integer, _real, l1_level_norm

# -- config fields -----------------------------------------------------------


def _store(config, rule, *names: str, **bounds) -> None:
    """Store each named field of a frozen config as ``rule(name, value, **bounds)`` returns it."""
    for name in names:
        object.__setattr__(config, name, rule(name, getattr(config, name), **bounds))


def _grid(rule):
    """A rule for a non-empty list or tuple, stored as a tuple of what ``rule`` returns."""
    def check(name: str, values, **bounds) -> tuple:
        if not (isinstance(values, (list, tuple)) and values):
            raise ValueError(f"{name} must be a non-empty list, not {values!r}")
        return tuple(rule(name, v, **bounds) for v in values)
    return check


# -- generators --------------------------------------------------------------


def gen_heavy_tail_stream(
    alphabet_size: int,
    length: int,
    heavy_count: int,
    heavy_mass: float,
    seed: int,
) -> Stream:
    """I.i.d. unit-weight letters; ids below ``heavy_count`` share
    ``heavy_mass`` of the draw probability uniformly, the rest split the
    remainder uniformly."""
    alphabet_size = _integer("alphabet_size", alphabet_size, 1)
    length, seed = _integer("length", length, 0), _integer("seed", seed, 0)
    if not 0 <= _integer("heavy_count", heavy_count) <= alphabet_size:
        raise ValueError("heavy_count outside 0..alphabet_size")
    heavy_mass = _real("heavy_mass", heavy_mass)
    if not 0.0 <= heavy_mass <= 1.0:
        raise ValueError("heavy_mass outside [0, 1]")
    if heavy_count == 0 and heavy_mass > 0:
        raise ValueError("positive heavy_mass needs heavy letters")
    if heavy_count == alphabet_size and heavy_mass < 1.0:
        raise ValueError("all letters heavy requires heavy_mass = 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    hot = rng.random(length) < heavy_mass
    letters = np.empty(length, dtype=np.int64)
    n_hot = int(hot.sum())
    if n_hot:
        letters[hot] = rng.integers(0, heavy_count, size=n_hot)
    if length - n_hot:
        letters[~hot] = heavy_count + rng.integers(
            0, alphabet_size - heavy_count, size=length - n_hot
        )
    return Stream(np.ones(length), letters, alphabet_size)


class StreamClass(str, enum.Enum):
    TYPE_A = "a"
    TYPE_B = "b"


def _rates(p: float, q: float) -> None:
    if not (0 < p < 1 and 0 < q < 1):
        raise ValueError("p and q must lie in (0, 1)")


@dataclass(frozen=True)
class MarkovExperimentConfig:
    """One three-segment stream: a hot letter per leading segment, then a
    mixing tail.  TYPE_A hots letter 1 then letter 2; TYPE_B swaps them.
    ``segments`` is derived: ``(L//4, L//4, L - 2*(L//4))`` for ``total_length`` L >= 4."""

    alphabet_size: int
    total_length: int
    p: float
    q: float
    stream_class: StreamClass
    seed: int
    segments: tuple = field(init=False)

    def __post_init__(self):
        # letters 1 and 2 plus at least one filler letter; three positive segments
        for key, low in (("alphabet_size", 3), ("total_length", 4), ("seed", 0)):
            object.__setattr__(self, key, _integer(key, getattr(self, key), low))
        _store(self, _real, "p", "q")
        _rates(self.p, self.q)
        quarter = self.total_length // 4
        object.__setattr__(self, "segments", (quarter, quarter, self.total_length - 2 * quarter))
        object.__setattr__(self, "stream_class", StreamClass(self.stream_class))


def _uniform_filler(rng, count: int, alphabet_size: int) -> np.ndarray:
    # uniform over the alphabet with letters 1 and 2 removed
    draw = rng.integers(0, alphabet_size - 2, size=count)
    return np.where(draw == 0, 0, draw + 2)


def gen_markov_stream(config: MarkovExperimentConfig) -> Stream:
    rng = np.random.Generator(np.random.PCG64(config.seed))
    s1, s2, s3 = config.segments
    first_hot, second_hot = (
        (1, 2) if config.stream_class is StreamClass.TYPE_A else (2, 1)
    )
    parts = []
    for length, hot, prob in ((s1, first_hot, config.p), (s2, second_hot, config.q)):
        take = rng.random(length) < prob
        seg = _uniform_filler(rng, length, config.alphabet_size)
        seg[take] = hot
        parts.append(seg)
    take = rng.random(s3) < config.p
    tail = _uniform_filler(rng, s3, config.alphabet_size)
    tail[take] = rng.integers(1, 3, size=int(take.sum()))
    parts.append(tail)
    letters = np.concatenate(parts)
    return Stream(np.ones(config.total_length), letters, config.alphabet_size)


# -- error reporting ---------------------------------------------------------


@dataclass(frozen=True)
class ErrorReport:
    """Mass-normalized l1 gap per level (1..depth) and their mean."""

    per_level: tuple
    aggregate: float


def error_metric(exact: GradedTensor, estimate: GradedTensor) -> ErrorReport:
    """Sum of |exact - estimate| per level 1..depth, divided by the exact
    mass of that level, the scale of the paper's ``epsilon * ||Phi||_m``
    bound.  Levels with zero mass and zero gap score zero; a gap on a level
    with zero mass scores infinity.
    """
    if (exact.alphabet_size, exact.depth) != (estimate.alphabet_size, estimate.depth):
        raise ValueError("tensors must share alphabet_size and depth")
    per_level = []
    for m in range(1, exact.depth + 1):
        gap = float(np.abs(exact.levels[m] - estimate.levels[m]).sum())
        denom = l1_level_norm(exact, m)
        if denom == 0.0:
            per_level.append(0.0 if gap == 0.0 else math.inf)
        else:
            per_level.append(gap / denom)
    per_level = tuple(per_level)
    return ErrorReport(per_level, sum(per_level) / len(per_level))


# -- linear classifier -------------------------------------------------------


@dataclass
class LogisticModel:
    """Binary logistic classifier; weights apply to raw (unscaled) features."""

    weights: np.ndarray
    intercept: float
    loss_history: tuple

    def decision(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=np.float64) @ self.weights + self.intercept

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.decision(features) >= 0.0).astype(np.int64)

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict(features) == np.asarray(labels)))


def _l2_penalty(l2) -> float:
    if not 0 <= (l2 := _real("l2", l2)) < math.inf:
        raise ValueError(f"l2 must be finite and >= 0, not {l2!r}")
    return l2


def train_linear_classifier(
    features: np.ndarray,
    labels: np.ndarray,
    l2: float = 1e-3,
    epochs: int = 400,
) -> LogisticModel:
    """Full-batch gradient descent on the logistic loss.

    Features are standardized internally (the returned weights are folded
    back to raw feature space).  Step sizes backtrack whenever a step would
    increase the regularized loss, so the recorded loss history is
    non-increasing.  The fit is deterministic.
    """
    epochs = _integer("epochs", epochs, 0)
    l2 = _l2_penalty(l2)
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("features must be (n, d) with one label per row")
    classes = np.unique(y)
    if not np.array_equal(classes, np.array([0.0, 1.0])):
        raise ValueError("labels must contain both classes 0 and 1")

    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    sigma[sigma == 0.0] = 1.0
    xs = (x - mu) / sigma
    sign = 2.0 * y - 1.0

    n = len(y)
    w = np.zeros(x.shape[1])
    b = 0.0

    def loss(wv, bv):
        """The regularized loss at ``(wv, bv)`` and the decision values it read."""
        z = xs @ wv + bv
        return float(np.logaddexp(0.0, -sign * z).sum() / n + 0.5 * l2 * wv @ wv), z

    current, z = loss(w, b)
    history = [current]
    lr = 1.0
    for _ in range(epochs):
        prob = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        residual = prob - y
        grad_w = xs.T @ residual / n + l2 * w
        grad_b = float(residual.sum() / n)
        while lr > 1e-12:
            cand_w = w - lr * grad_w
            cand_b = b - lr * grad_b
            cand, cand_z = loss(cand_w, cand_b)
            if cand <= current:
                w, b, current, z = cand_w, cand_b, cand, cand_z
                lr *= 1.1
                break
            lr *= 0.5
        history.append(current)
        if lr <= 1e-12:
            break

    raw_w = w / sigma
    raw_b = b - float((w * mu / sigma).sum())
    return LogisticModel(raw_w, raw_b, tuple(history))


# -- experiment one ----------------------------------------------------------


@dataclass(frozen=True)
class ExperimentOneConfig:
    alphabet_size: int = 100
    length: int = 100_000
    heavy_count: int = 10
    heavy_mass: float = 0.1
    depth: int = 2
    kind: EventMapKind = EventMapKind.EXP
    bucket_counts: tuple = (4, 8, 16, 32)
    hash_counts: tuple = (2, 4, 8)
    repetitions: int = 10
    base_seed: int = 0
    include_identity_row: bool = False

    def __post_init__(self):
        _store(self, _integer, "alphabet_size", "length", "heavy_count", "depth", "repetitions",
               low=1)
        _store(self, _grid(_integer), "bucket_counts", "hash_counts", low=1)
        _store(self, _integer, "base_seed")
        _store(self, _real, "heavy_mass")
        if not isinstance(flag := self.include_identity_row, bool):
            raise ValueError(f"include_identity_row must be a bool, not {flag!r}")
        object.__setattr__(self, "kind", EventMapKind(self.kind))


@dataclass(frozen=True)
class ExperimentOneRow:
    bucket_count: int
    hash_count: int
    memory_ratio: float
    median_error: float
    events_per_sec: float


def run_experiment_1(config: ExperimentOneConfig) -> list:
    """Sweep (bucket_count, hash_count) cells; one row per cell with the
    median error and throughput over the repetitions.  A repetition draws
    ``max(hash_counts)`` hashes per bucket count and folds each of their
    tables once; the cell of ``r`` hashes reads the first ``r`` tables, and
    its throughput is the stream length over the time of those ``r`` folds."""
    stream = gen_heavy_tail_stream(
        config.alphabet_size,
        config.length,
        config.heavy_count,
        config.heavy_mass,
        derive_seed(config.base_seed, 0),
    )
    exact = features_from_arrays(
        stream.lambdas,
        stream.letters,
        GradedTensor.unit(config.alphabet_size, config.depth),
        config.kind,
    )
    pullback_cap = max(2_000_000, 2 * exact.coordinate_count())
    rep_seeds = [derive_seed(config.base_seed, 1 + s) for s in range(config.repetitions)]
    mass = stream.total_mass()

    def measure(hashes: list, counts) -> list:
        # (error, events/s, memory ratio) of the sketch on the first r hashes, per r in counts
        tables, seconds = [], []
        for h in hashes:
            one = OrderSketch([h], config.depth, config.kind, config.alphabet_size)
            t0 = time.perf_counter()
            one.extend(stream)
            seconds.append(time.perf_counter() - t0)
            tables += one.tables
        cells = []
        for r in counts:
            sk = OrderSketch(hashes[:r], config.depth, config.kind, config.alphabet_size,
                             tables=tables[:r], events_seen=len(stream), stream_l1=mass)
            elapsed = sum(seconds[:r])
            report = error_metric(exact, dense_pullback(sk, max_coordinates=pullback_cap))
            cells.append((report.aggregate, len(stream) / elapsed if elapsed > 0 else math.inf,
                          (exact.coordinate_count() - 1) / sk.coordinate_count()))
        return cells

    def row(bucket_count: int, hash_count: int, reps) -> ExperimentOneRow:
        errors, rates, ratios = zip(*reps)
        return ExperimentOneRow(bucket_count, hash_count, ratios[0], median(errors), median(rates))

    rows = []
    for b in config.bucket_counts:
        per_rep = [
            measure(sample_hashes(HashFamilySpec(config.alphabet_size, b, s),
                                  max(config.hash_counts)), config.hash_counts)
            for s in rep_seeds
        ]
        rows += [row(b, r, reps) for r, reps in zip(config.hash_counts, zip(*per_rep))]
    if config.include_identity_row:
        p = smallest_prime_geq(max(config.alphabet_size, 2))
        rows.append(row(config.alphabet_size, 1,
                        measure([AffineHash(1, 0, p, config.alphabet_size)], [1])))
    return rows


# -- experiment two ----------------------------------------------------------


@dataclass(frozen=True)
class ExperimentTwoConfig:
    alphabet_size: int = 1000
    total_length: int = 10_000
    p: float = 0.1
    q_values: tuple = (0.101, 0.105, 0.11, 0.12, 0.13)
    streams_per_class: int = 200
    epsilon: float = 1.0 / 32.0
    delta: float = 0.1
    depth: int = 2
    kind: EventMapKind = EventMapKind.EXP
    rho: float = 250.0
    test_fraction: float = 0.2
    splits: int = 5
    l2: float = 1e-3
    epochs: int = 400
    base_seed: int = 0
    candidate_cap: int = 1_000_000
    chunk_size: int = 2048

    def __post_init__(self):
        _store(self, _integer, "alphabet_size", "total_length", "streams_per_class", "depth",
               "splits", "epochs", "candidate_cap", "chunk_size", low=1)
        _store(self, _real, "p", "epsilon", "delta", "rho", "test_fraction", "l2")
        _store(self, _integer, "base_seed")
        _store(self, _grid(_real), "q_values")
        if not 0 < self.test_fraction < 1:
            raise ValueError(f"test_fraction must lie in (0, 1), not {self.test_fraction!r}")
        object.__setattr__(self, "kind", EventMapKind(self.kind))
        # the later sites' checks, so that no bad value waits for the mining
        for q in self.q_values:
            _rates(self.p, q)
        _mining_arguments([self.rho], self.candidate_cap, self.chunk_size)
        _accuracy_target(self.epsilon, self.delta)
        _l2_penalty(self.l2)


@dataclass(frozen=True)
class ExperimentTwoRow:
    q: float
    q_minus_p: float
    feature_letters: tuple
    accuracy_by_depth: dict  # depth -> mean held-out accuracy


def _split_accuracies(
    features: np.ndarray, labels: np.ndarray, config: ExperimentTwoConfig, seed: int
) -> float:
    """Mean held-out accuracy over stratified shuffled splits."""
    total = len(labels)
    accs = []
    for split in range(config.splits):
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, split)))
        test_idx = []
        for cls in (0, 1):
            members = np.flatnonzero(labels == cls)
            members = members[rng.permutation(members.size)]
            test_idx.append(members[: max(1, int(round(members.size * config.test_fraction)))])
        test_mask = np.zeros(total, dtype=bool)
        test_mask[np.concatenate(test_idx)] = True
        model = train_linear_classifier(
            features[~test_mask],
            labels[~test_mask],
            l2=config.l2,
            epochs=config.epochs,
        )
        accs.append(model.accuracy(features[test_mask], labels[test_mask]))
    return float(np.mean(accs))


def run_experiment_2(config: ExperimentTwoConfig) -> list:
    """One row per q: mine per-stream heavy-pattern features, then report
    mean held-out accuracy of a logistic model per feature depth 1..depth."""
    rows = []
    for qi, q in enumerate(config.q_values):
        sketches = []
        labels = []
        letter_votes: dict = {}
        for ci, cls in enumerate((StreamClass.TYPE_A, StreamClass.TYPE_B)):
            for i in range(config.streams_per_class):
                seed = derive_seed(config.base_seed, ((qi * 2 + ci) << 24) | i)
                stream = gen_markov_stream(
                    MarkovExperimentConfig(
                        alphabet_size=config.alphabet_size,
                        total_length=config.total_length,
                        p=config.p,
                        q=q,
                        stream_class=cls,
                        seed=seed,
                    )
                )
                sketch, mined = mine_heavy_patterns(
                    stream,
                    [config.rho],
                    config.epsilon,
                    config.delta,
                    config.depth,
                    config.kind,
                    seed=derive_seed(seed, 1),
                    candidate_cap=config.candidate_cap,
                    chunk_size=config.chunk_size,
                )
                for letter in mined[config.rho].hot_letters:
                    letter_votes[letter] = letter_votes.get(letter, 0) + 1
                sketches.append(sketch)
                labels.append(ci)
        labels = np.array(labels, dtype=np.int64)

        quorum = len(sketches) / 2
        letters = tuple(sorted(a for a, v in letter_votes.items() if v >= quorum))
        # chance level unless there are consensus features
        accuracy_by_depth = {m: 0.5 for m in range(1, config.depth + 1)}
        if letters:
            # columns: the words of length 1, then 2, ..., each level in
            # lexicographic order over ``letters``
            features = np.array(
                [
                    np.concatenate(dense_pullback(sk, letters, config.candidate_cap).levels[1:])
                    for sk in sketches
                ]
            )
            for m in range(1, config.depth + 1):
                width = sum(len(letters) ** j for j in range(1, m + 1))
                accuracy_by_depth[m] = _split_accuracies(
                    features[:, :width], labels, config, derive_seed(config.base_seed, 7_000 + qi)
                )
        rows.append(
            ExperimentTwoRow(
                q=q,
                q_minus_p=q - config.p,
                feature_letters=letters,
                accuracy_by_depth=accuracy_by_depth,
            )
        )
    return rows
