"""Words, weighted event streams, and dense truncated graded tensors.

Conventions used across the package:

* A letter is an integer id in ``range(alphabet_size)``.
* A word is a tuple of letter ids; the empty tuple is the unit word. In text
  form a word is its ids joined by ``"."`` (``"0.1.0"``); the empty word is
  the empty string.
* A graded tensor truncated at depth ``M`` stores one dense float64 array per
  level ``m = 0..M``; level ``m`` has ``n**m`` entries for alphabet size
  ``n``.  The word ``(w0, ..., w_{m-1})`` lives at offset
  ``sum(w_j * n**(m-1-j))``, i.e. big-endian base-``n``.  Under this layout
  the offset of a concatenation ``uv`` is ``offset(u) * n**len(v) +
  offset(v)``, which is what makes the level-wise product below a plain sum
  of outer products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

Letter = int
Word = tuple  # tuple[int, ...]


class Event(NamedTuple):
    """One stream element: a positive weight and a letter id."""

    lam: float
    letter: int


def word_to_text(word: Sequence[int]) -> str:
    return ".".join(str(int(a)) for a in word)


def word_from_text(text: str) -> Word:
    """Parse ``"0.1.0"`` into ``(0, 1, 0)``; empty string is the empty word."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split("."))
    except ValueError as exc:
        raise ValueError(f"malformed word text {text!r}") from exc


def word_index(word: Sequence[int], alphabet_size: int) -> tuple[int, int]:
    """Return ``(level, offset)`` of a word in the dense layout.

    Raises ValueError on letters outside ``range(alphabet_size)``.
    """
    offset = 0
    for a in word:
        if not 0 <= a < alphabet_size:
            raise ValueError(f"letter {a} outside alphabet of size {alphabet_size}")
        offset = offset * alphabet_size + int(a)
    return len(word), offset


def word_from_index(level: int, offset: int, alphabet_size: int) -> Word:
    """Inverse of :func:`word_index` for a given level."""
    if not 0 <= offset < alphabet_size**level:
        raise ValueError(f"offset {offset} outside level {level}")
    letters = []
    for _ in range(level):
        offset, rem = divmod(offset, alphabet_size)
        letters.append(rem)
    return tuple(reversed(letters))


@dataclass(frozen=True)
class Stream:
    """A finite stream of weighted events over a fixed alphabet.

    Weights are float64, letters int64.  Weights must be nonnegative (zero is
    allowed and acts as a no-op event); letters must lie in
    ``range(alphabet_size)``.
    """

    lambdas: np.ndarray
    letters: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        lam = np.ascontiguousarray(np.asarray(self.lambdas, dtype=np.float64))
        let = np.ascontiguousarray(np.asarray(self.letters, dtype=np.int64))
        if lam.ndim != 1 or let.ndim != 1 or lam.shape != let.shape:
            raise ValueError("lambdas and letters must be 1-d arrays of equal length")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        if lam.size:
            if not np.all(np.isfinite(lam)) or lam.min() < 0:
                raise ValueError("event weights must be finite and nonnegative")
            if let.min() < 0 or let.max() >= self.alphabet_size:
                raise ValueError("letter id outside alphabet")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "letters", let)

    @classmethod
    def from_events(cls, events: Iterable[tuple[float, int]], alphabet_size: int) -> Stream:
        pairs = list(events)
        lam = np.array([p[0] for p in pairs], dtype=np.float64)
        let = np.array([p[1] for p in pairs], dtype=np.int64)
        return cls(lam, let, alphabet_size)

    def __len__(self) -> int:
        return int(self.lambdas.size)

    def __iter__(self) -> Iterator[Event]:
        for lam, letter in zip(self.lambdas.tolist(), self.letters.tolist()):
            yield Event(lam, letter)

    def total_mass(self) -> float:
        """The l1 mass of the stream: sum of all event weights."""
        return float(self.lambdas.sum())

    def slice(self, start: int, stop: int) -> Stream:
        return Stream(self.lambdas[start:stop], self.letters[start:stop], self.alphabet_size)


@dataclass
class GradedTensor:
    """Dense truncated tensor: one coordinate per word of length <= depth."""

    alphabet_size: int
    depth: int
    levels: list | None = None  # list[np.ndarray]; None means all zeros

    def __post_init__(self):
        if self.alphabet_size < 1 or self.depth < 0:
            raise ValueError("need alphabet_size >= 1 and depth >= 0")
        if self.levels is None:
            self.levels = [np.zeros(self.alphabet_size**m) for m in range(self.depth + 1)]
        if len(self.levels) != self.depth + 1:
            raise ValueError("levels must have depth + 1 entries")
        for m, arr in enumerate(self.levels):
            if arr.shape != (self.alphabet_size**m,):
                raise ValueError(f"level {m} has shape {arr.shape}")

    @classmethod
    def unit(cls, alphabet_size: int, depth: int) -> GradedTensor:
        """The multiplicative unit: 1 at the empty word, 0 elsewhere."""
        out = cls(alphabet_size, depth)
        out.levels[0][0] = 1.0
        return out

    def coordinate(self, word: Sequence[int]) -> float:
        level, offset = word_index(word, self.alphabet_size)
        if level > self.depth:
            raise ValueError(f"word of length {level} exceeds depth {self.depth}")
        return float(self.levels[level][offset])

    def copy(self) -> GradedTensor:
        return GradedTensor(self.alphabet_size, self.depth, [a.copy() for a in self.levels])

    def allclose(self, other: GradedTensor, rtol: float = 1e-9, atol: float = 0.0) -> bool:
        if (self.alphabet_size, self.depth) != (other.alphabet_size, other.depth):
            return False
        return all(
            np.allclose(a, b, rtol=rtol, atol=atol) for a, b in zip(self.levels, other.levels)
        )

    def coordinate_count(self) -> int:
        return sum(arr.size for arr in self.levels)


@np.errstate(over="ignore", invalid="ignore")  # the caller checks for inf and NaN
def truncated_product(x: GradedTensor, y: GradedTensor) -> GradedTensor:
    """Graded (concatenation) product, truncated at the shared depth.

    Level m of the result is ``sum_k outer(x_k, y_{m-k})`` flattened, which
    matches the big-endian dense layout.  Inputs must share alphabet and
    depth.  Associative; ``unit`` is a two-sided identity.
    """
    if (x.alphabet_size, x.depth) != (y.alphabet_size, y.depth):
        raise ValueError("operands must share alphabet_size and depth")
    out = GradedTensor(x.alphabet_size, x.depth)
    for m in range(x.depth + 1):
        acc = out.levels[m]
        for k in range(m + 1):
            acc += np.multiply.outer(x.levels[k], y.levels[m - k]).reshape(acc.shape)
    return out


def l1_level_norm(x: GradedTensor, m: int) -> float:
    """l1 mass of a single level: sum of |coordinate| over words of length m."""
    if not 0 <= m <= x.depth:
        raise ValueError(f"level {m} outside 0..{x.depth}")
    return float(np.abs(x.levels[m]).sum())
