"""Words, weighted event streams, and dense truncated graded tensors.

Conventions used across the package:

* A letter is an int or numpy integer (never a bool) in
  ``range(alphabet_size)``.  Every entry point checks letters by that one
  rule, `_letter_array`, or by its predicate and messages letter by letter.
* An integer argument (a size, depth, count, cap or seed) passes the same
  type test, then its lower bound, in `_integer`, which returns it as a
  Python int for the caller to store: a float, bool or string is refused
  with ``{name} must be an integer, not {value!r}``, never truncated.
* A real argument (epsilon, delta, a weight, threshold, mass, rate or
  coefficient) is a non-bool Python or numpy integer or floating-point
  number, which `_real` returns as a Python float for the caller to store;
  anything else is refused with ``{name} must be a real number, not
  {value!r}``.  Each caller checks its own range, which NaN never passes.
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

import itertools
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


def _is_letter_type(t: type) -> bool:
    return issubclass(t, (int, np.integer)) and not issubclass(t, bool)


def _is_letter(a) -> bool:
    return _is_letter_type(type(a))


def _integer(name: str, value, low: int | None = None) -> int:
    """``value`` as a Python int; ValueError naming ``name`` unless it is a
    non-bool Python or numpy integer, and at least ``low`` when one is given."""
    if not _is_letter_type(type(value)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, not {value!r}")
    return int(value)


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _real(name: str, value) -> float:
    """``value`` as a Python float; ValueError naming ``name`` unless it is a
    non-bool Python or numpy integer or floating-point number in float64's
    range.  Neither its range nor its finiteness is checked here."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, not {value!r}")
    try:
        return float(value)
    except OverflowError:  # a Python int past float64
        raise ValueError(f"{name} must be within float64's range, not {value!r}") from None


def _all_letters(entries) -> bool:
    return all(map(_is_letter_type, set(map(type, entries))))


def _not_integers(letters) -> ValueError:
    """The rule's refusal, naming the dtype numpy reads ``letters`` as, or
    the type of the first non-letter where that dtype hides it (``[1, True]``
    is int64)."""
    name = np.asarray(letters).dtype
    if name.kind in "iu":
        bad = next(itertools.filterfalse(_is_letter, np.array(letters, dtype=object).flat))
        name = type(bad).__name__
    return ValueError(f"letters must be integers, not {name}")


def _letter_array(letters, alphabet_size: int) -> np.ndarray:
    """``letters`` as a contiguous int64 array.  ValueError, before any cast,
    unless every entry is an integer in ``range(alphabet_size)``: a cast would
    turn bools, floats, complex numbers and strings into other letters.  An
    object array, as numpy makes for ints of 2**64 and more, must hold only
    letters, and so must a list or tuple: its entries are checked, not the
    one dtype numpy picks for them, which hides a bool among ints (int64)
    and ints past int64 of both signs (float64), and they must not be
    ragged.  The range test reads the minimum and maximum; only a failure
    looks for the letter to report.  An empty array passes."""
    try:
        array = np.asarray(letters)
    except ValueError as exc:  # numpy's message on a ragged sequence names no rule
        raise ValueError("letters must form a rectangular array, not a ragged sequence") from exc
    if isinstance(letters, (list, tuple)):
        entries = letters
        for _ in range(array.ndim - 1):
            entries = itertools.chain.from_iterable(entries)
        if not _all_letters(entries):
            raise _not_integers(letters)
        if array.dtype.kind == "f":
            array = np.array(letters, dtype=object)
    elif array.size and not (
        array.dtype.kind in "iu" or (array.dtype.kind == "O" and _all_letters(array.flat))
    ):
        raise _not_integers(array)
    if array.size and (array.min() < 0 or array.max() >= alphabet_size):
        a = array[(array < 0) | (array >= alphabet_size)][0]
        raise ValueError(f"letter {a} outside alphabet of size {alphabet_size}")
    return array.astype(np.int64, order="C", copy=False)


def word_index(word: Sequence[int], alphabet_size: int) -> tuple[int, int]:
    """Return ``(level, offset)`` of a word in the dense layout.

    Raises `_letter_array`'s ValueError on a letter that is not an integer
    in ``range(alphabet_size)``, checking one letter at a time.
    """
    offset = 0
    for a in word:
        if not _is_letter(a):
            raise _not_integers(word)
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
    allowed and acts as a no-op event); letters pass `_letter_array`.
    """

    lambdas: np.ndarray
    letters: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        object.__setattr__(self, "alphabet_size", _integer("alphabet_size", self.alphabet_size, 1))
        lam = np.ascontiguousarray(np.asarray(self.lambdas, dtype=np.float64))
        let = _letter_array(self.letters, self.alphabet_size)
        if lam.ndim != 1 or let.ndim != 1 or lam.shape != let.shape:
            raise ValueError("lambdas and letters must be 1-d arrays of equal length")
        if lam.size and (not np.all(np.isfinite(lam)) or lam.min() < 0):
            raise ValueError("event weights must be finite and nonnegative")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "letters", let)

    @classmethod
    def from_events(cls, events: Iterable[tuple[float, int]], alphabet_size: int) -> Stream:
        pairs = list(events)
        lam = np.array([p[0] for p in pairs], dtype=np.float64)
        return cls(lam, [p[1] for p in pairs], alphabet_size)

    def __len__(self) -> int:
        return int(self.lambdas.size)

    def __iter__(self) -> Iterator[Event]:
        for lam, letter in zip(self.lambdas.tolist(), self.letters.tolist()):
            yield Event(lam, letter)

    def total_mass(self) -> float:
        """The l1 mass of the stream: sum of all event weights.

        A sum past float64 is ``inf`` without a warning; the sketch's
        finiteness check reports it.
        """
        with np.errstate(over="ignore"):
            return float(self.lambdas.sum())

    def slice(self, start: int, stop: int) -> Stream:
        start, stop = _integer("start", start), _integer("stop", stop)
        return Stream(self.lambdas[start:stop], self.letters[start:stop], self.alphabet_size)


@dataclass
class GradedTensor:
    """Dense truncated tensor: one coordinate per word of length <= depth."""

    alphabet_size: int
    depth: int
    levels: list | None = None  # list[np.ndarray]; None means all zeros

    def __post_init__(self):
        self.alphabet_size = _integer("alphabet_size", self.alphabet_size, 1)
        self.depth = _integer("depth", self.depth, 0)
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
    m = _integer("m", m)
    if not 0 <= m <= x.depth:
        raise ValueError(f"level {m} outside 0..{x.depth}")
    return float(np.abs(x.levels[m]).sum())
