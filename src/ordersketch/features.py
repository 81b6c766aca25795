"""Event maps and stream feature tensors.

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

`apply_event_inplace` multiplies a tensor by one event's tensor, and
`stream_features` is the reference per-event fold built on it.
`features_from_arrays` is a batch builder with a closed-form fast path for
depth <= 2 (the shapes used by the sketch tables and the experiments); it
computes the same values up to float addition order.
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


def _as_kind(kind) -> EventMapKind:
    return EventMapKind(kind)


def apply_event_inplace(phi: GradedTensor, event: Event, kind) -> None:
    """Multiply ``phi`` by the event tensor, in place.

    Levels are updated in descending order so that each source level is still
    the pre-event value when read.  Writing into the strided slice
    ``levels[m][rep_k :: n**k]`` adds onto exactly the words whose last k
    letters equal the event letter.  Work is O(sum_{m<M} n^m) for linear and
    O(M * sum_{m<M} n^m) for exp; no full-size temporary is allocated.
    A bad letter or weight, or a coefficient ``lam**k / k!`` that overflows
    float64, raises ValueError before ``phi`` is touched.
    """
    kind = _as_kind(kind)
    lam, letter = float(event[0]), int(event[1])
    n = phi.alphabet_size
    if not 0 <= letter < n:
        raise ValueError(f"letter {letter} outside alphabet of size {n}")
    if not 0 <= lam < math.inf:
        raise ValueError("event weight must be finite and nonnegative")
    if lam == 0.0:
        return
    top_k = phi.depth if kind is EventMapKind.EXP else 1
    try:
        coeffs = [lam**k / math.factorial(k) for k in range(top_k + 1)]
    except OverflowError as exc:
        raise NonFiniteError(f"event weight {lam!r} overflows float64") from exc
    for m in range(phi.depth, 0, -1):
        for k in range(1, min(m, top_k) + 1):
            rep = sum(letter * n**j for j in range(k))
            phi.levels[m][rep :: n**k] += coeffs[k] * phi.levels[m - k]


def stream_features(stream: Stream, kind, depth: int) -> GradedTensor:
    """Reference fold: apply every event in order to the unit tensor."""
    phi = GradedTensor.unit(stream.alphabet_size, depth)
    for event in stream:
        apply_event_inplace(phi, event, kind)
    return phi


_CHUNK = 16384


def features_from_arrays(
    lambdas: np.ndarray,
    letters: np.ndarray,
    alphabet_size: int,
    kind,
    depth: int,
) -> GradedTensor:
    """Batch feature build from weight/letter arrays.

    For depth <= 2 this runs on whole chunks at once: level 1 is a weighted
    bincount and level 2 accumulates ``prefix.T @ W`` per chunk (W holding one
    weighted one-hot row per event), plus a diagonal ``lam**2 / 2`` term for
    the exp map.  Deeper truncations fall back to the per-event fold.
    """
    kind = _as_kind(kind)
    n = int(alphabet_size)
    lam = np.ascontiguousarray(np.asarray(lambdas, dtype=np.float64))
    let = np.ascontiguousarray(np.asarray(letters, dtype=np.int64))
    if depth > 2:
        return stream_features(Stream(lam, let, n), kind, depth)

    phi = GradedTensor.unit(n, depth)
    if depth >= 1:
        phi.levels[1][:] = np.bincount(let, weights=lam, minlength=n)
    if depth == 2:
        level2 = phi.levels[2].reshape(n, n)
        running = np.zeros(n)
        for start in range(0, lam.size, _CHUNK):
            lam_c = lam[start : start + _CHUNK]
            let_c = let[start : start + _CHUNK]
            w = np.zeros((lam_c.size, n))
            w[np.arange(lam_c.size), let_c] = lam_c
            prefix = np.cumsum(w, axis=0) - w  # exclusive prefix within chunk
            chunk_tot = w.sum(axis=0)
            level2 += np.multiply.outer(running, chunk_tot)
            level2 += prefix.T @ w
            running += chunk_tot
        if kind is EventMapKind.EXP:
            diag = np.bincount(let, weights=lam * lam * 0.5, minlength=n)
            level2[np.arange(n), np.arange(n)] += diag
    return phi
