"""Finite linear combinations of words and their products.

`pairing` evaluates a functional against a feature tensor.  Two graded
products on word combinations mirror the two event maps:

* `shuffle_product` interleaves the factors (positions never shared); it is
  multiplicative for pairings against exp-map features.
* `infiltration_product` also allows matching letters to overlap; it is
  multiplicative for pairings against linear-map features.

Both products are built from the standard word recursions

    au # bv = a (u # bv) + b (au # v)                      (shuffle)
    au # bv = a (u # bv) + b (au # v) + [a == b] a (u # v) (infiltration)

with the empty word as unit, extended bilinearly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .tensor import GradedTensor, Word


@dataclass
class LinearFunctional:
    """A finite map word -> coefficient; zero coefficients are dropped."""

    terms: dict = field(default_factory=dict)  # dict[Word, float]

    def __post_init__(self):
        self.terms = {
            tuple(int(a) for a in w): float(c) for w, c in self.terms.items() if c != 0.0
        }

    @classmethod
    def from_word(cls, word) -> LinearFunctional:
        return cls({tuple(int(a) for a in word): 1.0})

    def max_length(self) -> int:
        return max((len(w) for w in self.terms), default=0)


def pairing(ell: LinearFunctional, phi: GradedTensor) -> float:
    """<ell, phi> = sum of coefficient * coordinate over the terms of ell.

    Raises ValueError if any term is longer than the tensor's depth.
    """
    if ell.max_length() > phi.depth:
        raise ValueError(
            f"functional touches words of length {ell.max_length()}"
            f" beyond depth {phi.depth}"
        )
    return sum(c * phi.coordinate(w) for w, c in ell.terms.items())


@lru_cache(maxsize=None)
def _word_product(u: Word, v: Word, overlap: bool) -> tuple:
    """Shuffle (``overlap=False``) or infiltration product of two words."""
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    parts = [(u[0], _word_product(u[1:], v, overlap)), (v[0], _word_product(u, v[1:], overlap))]
    if overlap and u[0] == v[0]:
        parts.append((u[0], _word_product(u[1:], v[1:], overlap)))
    acc: dict = {}
    for letter, terms in parts:
        for w, c in terms:
            key = (letter,) + w
            acc[key] = acc.get(key, 0) + c
    return tuple(acc.items())


def _bilinear(x: LinearFunctional, y: LinearFunctional, overlap: bool) -> LinearFunctional:
    acc: dict = {}
    for u, cu in x.terms.items():
        for v, cv in y.terms.items():
            for w, k in _word_product(u, v, overlap):
                acc[w] = acc.get(w, 0.0) + cu * cv * k
    return LinearFunctional(acc)


def shuffle_product(x: LinearFunctional, y: LinearFunctional) -> LinearFunctional:
    """Commutative, associative; integer coefficients on word inputs."""
    return _bilinear(x, y, overlap=False)


def infiltration_product(x: LinearFunctional, y: LinearFunctional) -> LinearFunctional:
    """Commutative, associative; term lengths range over
    max(|u|,|v|) .. |u|+|v| for word inputs."""
    return _bilinear(x, y, overlap=True)
