"""Exact reference values and output checks for the benchmark workloads.

Nothing here calls the ordersketch product path.  Exact coordinates come
from position-indexed numpy dynamic programs over the benchmark's own
generated arrays, and sketch estimates are recomputed from a loaded
snapshot's tables with the benchmark's own hash evaluation.  Every check
returns a list of problem strings; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

REL_TOL = 1e-9


class ExactStream:
    """A weighted event stream with a per-letter position index."""

    def __init__(self, lambdas, letters, alphabet_size: int):
        self.lam = np.asarray(lambdas, dtype=np.float64)
        self.let = np.asarray(letters, dtype=np.int64)
        self.alphabet_size = int(alphabet_size)
        self._order = np.argsort(self.let, kind="stable")
        counts = np.bincount(self.let, minlength=self.alphabet_size)
        self._starts = np.concatenate([[0], np.cumsum(counts)])
        self.letter_mass = np.bincount(self.let, weights=self.lam, minlength=self.alphabet_size)

    def positions(self, letter: int) -> np.ndarray:
        """Increasing stream positions of one letter."""
        return self._order[self._starts[letter] : self._starts[letter + 1]]

    def linear(self, word) -> float:
        """Coordinate under the linear map: the weighted count of ``word`` as a
        subsequence at strictly increasing positions."""
        if not word:
            return 1.0
        pos = self.positions(word[0])
        vals = self.lam[pos]
        for letter in word[1:]:
            nxt = self.positions(letter)
            prefix = np.concatenate([[0.0], np.cumsum(vals)])
            vals = self.lam[nxt] * prefix[np.searchsorted(pos, nxt, side="left")]
            pos = nxt
        return float(vals.sum())

    def exp(self, word) -> float:
        """Coordinate under the exp map for words of length at most 2.  A
        repeated letter adds the ``lam**2 / 2`` diagonal, so ``aa`` is
        ``mass(a)**2 / 2``."""
        if len(word) > 2:
            raise ValueError("exp oracle covers words of length <= 2")
        if len(word) == 2 and word[0] == word[1]:
            return float(self.letter_mass[word[0]] ** 2 / 2.0)
        return self.linear(word)

    def coordinate(self, word, kind: str) -> float:
        return self.linear(word) if kind == "linear" else self.exp(word)

    def level_mass(self, m: int, kind: str) -> float:
        """Exact l1 mass of level m: ``l1**m / m!`` for exp, the elementary
        symmetric polynomial ``e_m`` of the weights for linear."""
        if kind == "exp":
            return float(self.lam.sum()) ** m / math.factorial(m)
        e = np.zeros(m + 1)
        e[0] = 1.0
        for lam in self.lam.tolist():
            e[1:] += lam * e[:-1].copy()
        return float(e[m])


def sketch_estimate(sketch, word) -> float:
    """Min over tables of the hashed-word coordinate, evaluated from the
    stored tables and hash parameters of a loaded sketch."""
    best = math.inf
    for h, table in zip(sketch.hashes, sketch.tables):
        offset = 0
        for a in word:
            offset = offset * h.n + ((h.a * int(a) + h.b) % h.p) % h.n
        best = min(best, float(table.levels[len(word)][offset]))
    return best


def undershoots(estimate: float, exact: float) -> bool:
    return estimate < exact * (1.0 - REL_TOL)


def word_text(word) -> str:
    return ".".join(str(int(a)) for a in word)


def parse_records(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


# -- checks -------------------------------------------------------------------


def check_table_masses(sketch, expected_by_level: dict) -> list:
    """Every table's level-m mass equals the stream's exact level-m mass."""
    problems = []
    for i, table in enumerate(sketch.tables):
        for m, want in expected_by_level.items():
            got = float(np.abs(table.levels[m]).sum())
            if abs(got - want) > REL_TOL * abs(want):
                problems.append(f"table {i} level {m} mass {got!r} != exact {want!r}")
    return problems


def check_no_undershoot(sketch, exact_values: dict) -> list:
    """Sketch estimates read from the tables never fall below the exact
    coordinates given as ``{word: value}``."""
    problems = []
    for word, truth in exact_values.items():
        est = sketch_estimate(sketch, word)
        if undershoots(est, truth):
            problems.append(f"word {word_text(word)}: estimate {est!r} < exact {truth!r}")
    return problems


def check_tables_match(got, want) -> list:
    """Two sketches hold the same tables to REL_TOL and the same counters."""
    problems = []
    if len(got.tables) != len(want.tables):
        return [f"{len(got.tables)} tables, expected {len(want.tables)}"]
    if got.events_seen != want.events_seen:
        problems.append(f"events_seen {got.events_seen} != {want.events_seen}")
    if abs(got.stream_l1 - want.stream_l1) > REL_TOL * abs(want.stream_l1):
        problems.append(f"stream_l1 {got.stream_l1!r} != {want.stream_l1!r}")
    for i, (a, b) in enumerate(zip(got.tables, want.tables)):
        for m, (x, y) in enumerate(zip(a.levels, b.levels)):
            if x.shape != y.shape:
                problems.append(f"table {i} level {m} shape {x.shape} != {y.shape}")
            elif np.any(np.abs(x - y) > REL_TOL * np.maximum(np.abs(x), np.abs(y))):
                problems.append(f"table {i} level {m} differs beyond {REL_TOL} relative")
    return problems


def check_query_records(
    records: list, words: list, sketch, exact: ExactStream, kind: str, epsilon: float,
    delta: float,
) -> list:
    """CLI ``query`` answers: one record per word in order, each equal to the
    table minimum of ``sketch`` and none below the exact coordinate, and the
    share overshooting ``epsilon * ||Phi||_m`` within ``delta`` plus three
    standard deviations."""
    if [r.get("word") for r in records] != [word_text(w) for w in words]:
        return ["query records do not match the requested words"]
    problems = []
    masses = {}
    over = 0
    for word, rec in zip(words, records):
        est, truth = float(rec["estimate"]), exact.coordinate(word, kind)
        table_min = sketch_estimate(sketch, word)
        if abs(est - table_min) > REL_TOL * table_min:
            problems.append(f"word {word_text(word)}: estimate {est!r} != table min {table_min!r}")
        if undershoots(est, truth):
            problems.append(f"word {word_text(word)}: estimate {est!r} < exact {truth!r}")
        m = len(word)
        if m not in masses:
            masses[m] = exact.level_mass(m, kind)
        if est - truth > epsilon * masses[m]:
            over += 1
    n = len(words)
    budget = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / n)
    if over / n > budget:
        problems.append(f"{over}/{n} words overshoot eps*||Phi||_m, above {budget:.4f}")
    return problems


def check_mined(records: list, exact: ExactStream, rhos, depth: int) -> list:
    """CLI ``heavy`` answers: every word over the truly hot letters whose
    exact coordinate reaches ``rho**|w|`` is reported, every reported
    estimate reaches ``rho**|w|`` and its exact coordinate, and each summary
    counts its words."""
    problems = []
    for rho in rhos:
        summary = [r for r in records if r["record"] == "heavy_summary" and r["rho"] == rho]
        found = {r["word"]: float(r["estimate"]) for r in records
                 if r["record"] == "heavy" and r["rho"] == rho}
        if len(summary) != 1:
            problems.append(f"rho {rho}: {len(summary)} summary records")
        elif summary[0]["word_count"] != len(found):
            problems.append(f"rho {rho}: summary counts {summary[0]['word_count']} words,"
                            f" {len(found)} reported")
        for text, est in found.items():
            word = tuple(int(a) for a in text.split("."))
            if est < rho ** len(word):
                problems.append(f"rho {rho}: reported {text} with estimate {est!r} below rho^|w|")
            if undershoots(est, exact.exp(word)):
                problems.append(f"rho {rho}: estimate {est!r} of {text} below its exact value")
        hot = [int(a) for a in np.flatnonzero(exact.letter_mass > rho)]
        words = [()]
        for m in range(1, depth + 1):
            words = [w + (a,) for w in words for a in hot]
            for w in words:
                if exact.exp(w) >= rho**m and word_text(w) not in found:
                    problems.append(f"rho {rho}: truly heavy word {word_text(w)} missing")
    return problems


def check_repeats(outputs: list, record: str, count: int) -> dict:
    """Repeated calls with the same inputs print byte-identical stdout that
    holds ``count`` records of type ``record``.  Problems are keyed by the
    position of the output in ``outputs``."""
    problems = {}
    rows = [r for r in parse_records(outputs[0]) if r.get("record") == record]
    if len(rows) != count:
        problems[0] = [f"{len(rows)} {record} records, expected {count}"]
    for i, out in enumerate(outputs[1:], start=1):
        if out != outputs[0]:
            problems[i] = ["stdout differs from the first call"]
    return problems
