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
features without building the latter.

At depth <= 3 one kernel folds whole chunks of events.  A chunk is a
weighted one-hot matrix ``w`` of shape ``(n, L)``, one column per event, with
exclusive prefix sums ``P`` and suffix sums ``S`` along the events.  Its own
levels are ``F1 = w.sum(1)``, ``F2 = P @ w.T`` and, split at the middle
event, ``F3[:, v, :] = (P[:, J] * lam[J]) @ S[:, J].T`` over the events
``J`` with letter ``v``, plus the exp map's diagonal terms.  Chen's identity
folds the chunk onto ``phi`` in `apply_event_inplace`'s order, so one event
folds to the same bits.  ``P`` and ``S`` are shifted cumsums,
``cumsum(w) - w``, not ``total - P - w``, whose +-1e-16 residues where a
coordinate is 0 could let an estimate fall below the true count.  A chunk
holds ``_CHUNK_BYTES / (8 n)`` events.

Depth >= 4 folds one event at a time with `apply_event_inplace`.
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
    """Multiply ``phi`` by one event's tensor, in place: the depth >= 4 step
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


_CHUNK_BYTES = 2 * 1024 * 1024  # per (alphabet, chunk) float64 array of the kernel


def features_from_arrays(lambdas, letters, phi: GradedTensor, kind) -> GradedTensor:
    """Fold the stream given by weight/letter arrays into ``phi`` in place
    and return ``phi``, which becomes ``phi * features(stream)``.

    Weights and letters are checked as :class:`Stream` checks them, raising
    its ValueError, before ``phi`` is touched.  An overflow is not undone:
    at depth <= 3 non-finite values land in ``phi``, and at depth >= 4
    NonFiniteError leaves ``phi`` part-folded.  Callers that must stay
    unchanged on failure fold a copy, as `OrderSketch.extend` does.
    """
    kind = EventMapKind(kind)
    stream = Stream(lambdas, letters, phi.alphabet_size)
    if phi.depth > 3:
        for event in stream:
            apply_event_inplace(phi, event, kind)
        return phi
    n, depth, exp = phi.alphabet_size, phi.depth, kind is EventMapKind.EXP
    levels = [level.reshape((n,) * m) for m, level in enumerate(phi.levels)]  # views
    step = max(1, _CHUNK_BYTES // (8 * n))
    for start in range(0, len(stream), step):
        lam = stream.lambdas[start : start + step]
        let = stream.letters[start : start + step]
        w = np.zeros((n, lam.size))
        w[let, np.arange(lam.size)] = lam
        prefix = np.cumsum(w, axis=1)
        chunk = [None, prefix[:, -1].copy()]  # the chunk's own levels F1..F3
        prefix -= w  # exclusive: zero exactly where no earlier event has the letter
        if exp:
            half = 0.5 * lam * lam
        if depth >= 2:
            chunk.append(prefix @ w.T)
            if exp:
                chunk[2].flat[:: n + 1] += np.bincount(let, half, minlength=n)
        if depth >= 3:
            suffix = np.cumsum(w[:, ::-1], axis=1)[:, ::-1] - w
            f3 = np.zeros((n, n, n))
            order = np.argsort(let, kind="stable")
            for at in np.split(order, np.flatnonzero(np.diff(let[order])) + 1):
                v, p, s = let[at[0]], prefix[:, at], suffix[:, at]  # events with middle letter v
                f3[:, v, :] = (p * lam[at]) @ s.T
                if exp:
                    f3[v, v, :] += half[at] @ s.T
                    f3[:, v, v] += p @ half[at]
                    f3[v, v, v] += (lam[at] ** 3).sum() / 6
            chunk.append(f3)
        for m in range(depth, 0, -1):  # Chen's identity, level 3 first
            for k in range(m - 1, -1, -1):
                levels[m] += np.multiply.outer(levels[k], chunk[m - k])
    return phi
