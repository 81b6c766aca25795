"""Event maps and the in-place stream fold.

A stream ``(lam_1, a_1), ..., (lam_L, a_L)`` is folded into a truncated
graded tensor by multiplying one small tensor per event:

* ``linear``: the event tensor is ``1 + lam * a``.  The coordinate of a word
  ``w`` in the product is the weighted count of ``w`` as a subsequence, i.e.
  the sum of ``lam(i_1) * ... * lam(i_m)`` over strictly increasing index
  tuples whose letters spell ``w``.
* ``exp``: the event tensor is ``exp(lam * a)`` truncated at the depth.  The
  coordinate of ``w`` sums over weakly increasing index tuples instead, each
  divided by the product of ``(run length)!`` over maximal runs of equal
  consecutive indices.

`features_from_arrays(lambdas, letters, phi, kind)` is the one fold: it
multiplies ``phi`` in place by the stream's event tensors.  Folded onto the
unit tensor it builds the stream's features; folded onto a sketch table it
gives, by Chen's identity, the graded product of the table and the stream's
features without building the latter.  It selects its kernel by depth:

* depth <= 2: a closed form over whole chunks.  Level 1 gains a weighted
  bincount; level 2 gains ``outer(running level 1, chunk total)`` plus
  ``prefix.T @ W`` per chunk (W holding one weighted one-hot row per
  event), and a diagonal ``lam**2 / 2`` term for the exp map.
* depth >= 3: `apply_event_inplace`, one event at a time.  A chunked
  level-3 kernel (prefix states scattered with bincount, ``reduceat`` or a
  one-hot matmul) measured about 3x slower than this per-event step at 64
  buckets (4 tables x 10k events: 5.0-8.6 s against 1.7-2.0 s on a 2-vCPU
  VM), so the depth selection stays.

Both kernels compute the same values up to float addition order.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .tensor import Event, GradedTensor, Stream


class NonFiniteError(ValueError):
    """A fold, product or decoded table left the finite float64 range."""


class EventMapKind(str, enum.Enum):
    LINEAR = "linear"
    EXP = "exp"


def apply_event_inplace(phi: GradedTensor, event: Event, kind) -> None:
    """Multiply ``phi`` by one event's tensor, in place: the depth >= 3 step
    of `features_from_arrays`, which checks the letter and weight first.

    Levels are updated in descending order so that each source level is still
    the pre-event value when read.  Writing into the strided slice
    ``levels[m][rep_k :: n**k]`` adds onto exactly the words whose last k
    letters equal the event letter.  Work is O(sum_{m<M} n^m) for linear and
    O(M * sum_{m<M} n^m) for exp; no full-size temporary is allocated.
    A coefficient ``lam**k / k!`` that overflows float64 raises
    NonFiniteError before ``phi`` is touched.
    """
    kind = EventMapKind(kind)
    lam, letter = float(event[0]), int(event[1])
    if lam == 0.0:
        return
    n = phi.alphabet_size
    top_k = phi.depth if kind is EventMapKind.EXP else 1
    try:
        coeffs = [lam**k / math.factorial(k) for k in range(top_k + 1)]
    except OverflowError as exc:
        raise NonFiniteError(f"event weight {lam!r} overflows float64") from exc
    for m in range(phi.depth, 0, -1):
        for k in range(1, min(m, top_k) + 1):
            rep = sum(letter * n**j for j in range(k))
            phi.levels[m][rep :: n**k] += coeffs[k] * phi.levels[m - k]


_CHUNK = 16384


def features_from_arrays(lambdas, letters, phi: GradedTensor, kind) -> GradedTensor:
    """Fold the stream given by weight/letter arrays into ``phi`` in place
    and return ``phi``, which becomes ``phi * features(stream)``.

    Weights and letters are checked as :class:`Stream` checks them, raising
    its ValueError, before ``phi`` is touched.  An overflow is not undone:
    at depth >= 3 NonFiniteError leaves ``phi`` part-folded, and at depth
    <= 2 non-finite values land in ``phi``.  Callers that must stay
    unchanged on failure fold a copy, as `OrderSketch.extend` does.
    """
    kind = EventMapKind(kind)
    stream = Stream(lambdas, letters, phi.alphabet_size)
    if phi.depth > 2:
        for event in stream:
            apply_event_inplace(phi, event, kind)
        return phi
    n, lam, let = phi.alphabet_size, stream.lambdas, stream.letters
    unit = phi.levels[0][0]  # 1 on sketch tables; scales the stream's own terms
    if phi.depth == 2:
        level2 = phi.levels[2].reshape(n, n)
        running = phi.levels[1].copy()  # level 1 of the state before each chunk
        for start in range(0, lam.size, _CHUNK):
            lam_c = lam[start : start + _CHUNK]
            let_c = let[start : start + _CHUNK]
            w = np.zeros((lam_c.size, n))
            w[np.arange(lam_c.size), let_c] = lam_c
            prefix = np.cumsum(w, axis=0) - w  # exclusive prefix within chunk
            chunk_tot = w.sum(axis=0)
            level2 += np.multiply.outer(running, chunk_tot)
            level2 += unit * (prefix.T @ w)
            running += unit * chunk_tot
        if kind is EventMapKind.EXP:
            diag = np.bincount(let, weights=lam * lam * 0.5, minlength=n)
            level2[np.arange(n), np.arange(n)] += unit * diag
    if phi.depth >= 1:
        phi.levels[1] += unit * np.bincount(let, weights=lam, minlength=n)
    return phi
