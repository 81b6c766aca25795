"""Event maps and the in-place stream fold.

A stream ``(lam_1, a_1), ..., (lam_L, a_L)`` is folded into a truncated
graded tensor by multiplying one small tensor per event:

* ``linear``: the event tensor is ``1 + lam * a``; a word's coordinate in
  the product, its weighted count as a subsequence, sums ``lam(i_1) * ... *
  lam(i_m)`` over strictly increasing index tuples whose letters spell it.
* ``exp``: the event tensor is ``exp(lam * a)`` truncated at the depth; the
  sum runs over weakly increasing tuples, each divided by the product of
  ``(run length)!`` over maximal runs of equal consecutive indices.

`features_from_arrays(lambdas, letters, phi, kind)` is the one fold: it
multiplies ``phi`` in place by the stream's event tensors.  Folded onto the
unit tensor it builds the stream's features; folded onto a sketch table it
gives, by Chen's identity, the graded product of the table and the stream's
features without building the latter.

One kernel folds chunks of ``L`` events at every depth.  A level-m word is
split at position ``m // 2 + 1``, inside one event ``j``.  If ``j`` covers
positions ``p+1..p+k`` (``k = 1`` for the linear map), the term is the
level-p prefix state before ``j``, times ``lam_j**k / k!`` on the run of
``j``'s letter, times the level-(m-p-k) suffix state after ``j``: per letter
one matmul, or a ``bincount`` on the diagonal when both states are empty.
Every state is the exact shifted cumsum of what each event adds to it, so it
is exactly 0 where no event on its side spells the word: no estimate
undershoots.  Depth 2 takes level 2, ``lam_i * lam_j`` over pairs ``i < j``,
from blocks of ``s = max(2, round(sqrt(2n)))`` events: a ``bincount`` of the
pairs inside blocks, plus the shifted cumsum of the block totals times the
totals, about ``s/2 + 2n/s`` numbers per event against ``3n`` for ``(n, L)``
arrays.  From depth 3 the one-hot ``w``, ``(n, L)``, and its prefix ``P``
feed the states level 3 needs, and blocks were no faster there than ``P @ w.T``.
Chen's identity folds the chunk onto ``phi``.  ``lam**k / k!`` is
``c_{k-1} * (lam / k)``, so every depth overflows at the same weight.  The
largest state fills ``_CHUNK_BYTES``; from depth 3 a chunk holds at least
``depth * n`` events, so its Chen fold costs no more per event than its matmuls.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .tensor import GradedTensor, Stream


class EventMapKind(str, enum.Enum):
    LINEAR = "linear"
    EXP = "exp"


_CHUNK_BYTES = 2 * 1024 * 1024  # per state array of the kernel


def _chunk_length(n: int, depth: int) -> int:
    return max(depth * n if depth >= 3 else 1, _CHUNK_BYTES // (8 * n ** (depth // 2)))


def _before(seq, out):
    """``out[:, j]``, the exact sum of ``seq[:, :j]``: what comes strictly before."""
    np.cumsum(seq[:, :-1], axis=1, out=out[:, 1:])
    out[:, 0] = 0
    return out


def _ordered_pairs(lam, let, n: int):
    """The ``(n, n)`` sums of ``lam_i * lam_j`` at ``(a_i, a_j)`` over ``i < j``."""
    s = min(lam.size, max(2, round(math.sqrt(2 * n))))  # a short chunk is one block
    blocks = -(-lam.size // s)
    # (s, blocks), weight-0 padded; row r holds each block's event r, so pair gathers copy rows
    lam_b, let_b = (np.concatenate([x, np.zeros(blocks * s - x.size, x.dtype)])
                    .reshape(blocks, s).T.copy() for x in (lam, let))
    i, j = np.triu_indices(s, 1)
    inside = np.bincount((let_b[i] * n + let_b[j]).ravel(), (lam_b[i] * lam_b[j]).ravel(), n * n)
    totals = np.bincount((let_b * blocks + np.arange(blocks)).ravel(), lam_b.ravel(), n * blocks)
    totals = totals.reshape(n, blocks)
    return inside.reshape(n, n) + _before(totals, np.empty_like(totals)) @ totals.T


@np.errstate(over="ignore", invalid="ignore")  # the caller checks phi for inf and NaN
def features_from_arrays(lambdas, letters, phi: GradedTensor, kind) -> GradedTensor:
    """Fold the stream given by weight/letter arrays into ``phi`` in place
    and return ``phi``, which becomes ``phi * features(stream)``.  The arrays
    are checked as :class:`Stream` checks them, raising its ValueError, before
    ``phi`` is touched.  An overflow neither raises nor warns: it leaves inf or
    NaN in ``phi``, so callers that must stay unchanged on failure fold a copy
    and check it, as `OrderSketch.extend` does."""
    kind = EventMapKind(kind)
    stream = Stream(lambdas, letters, phi.alphabet_size)
    n, depth = phi.alphabet_size, phi.depth
    top_k = depth if kind is EventMapKind.EXP else 1  # the longest run one event fills
    levels = [level.reshape((n,) * m) for m, level in enumerate(phi.levels)]  # views
    reps = [sum(n**i for i in range(k)) for k in range(depth + 1)]  # v**k sits at v * reps[k]
    # (level m, prefix level p, run length k) of each split term with a nonempty state
    terms = [(m, p, k) for m in range(3, depth + 1) for p in range(m // 2 + 1)
             for k in range(m // 2 + 1 - p, min(m - p, top_k) + 1) if p or m - p - k]
    step = _chunk_length(n, depth)
    tops = (depth // 2 * (depth >= 3), (depth - 1) // 2)  # prefix, suffix levels; none at depth 2
    for start in range(0, len(stream), step):
        lam, let = stream.lambdas[start : start + step], stream.letters[start : start + step]
        size = lam.size
        coef = [None, lam]  # lam**k / k!; at k = 2 the bits of 0.5 * lam * lam
        for k in range(2, top_k + 1):
            coef.append(coef[-1] * (lam / k))
        if depth >= 3:
            w, cols = np.zeros((n, size)), np.arange(size)
            w[let, cols] = lam
        ones = np.broadcast_to(1.0, (1, size))  # the level-0 state
        states = [ones], [ones]  # prefix, suffix; by level
        for forward, top, out in zip((True, False), tops, states):
            for q in range(1, top + 1):
                d = w if q == 1 else np.zeros((n**q, size))
                if q > 1:  # d: what each event adds to the level-q state
                    for k in range(1, min(q, top_k) + 1):  # the run v**k next to a level q-k state
                        view = (d.reshape(n ** (q - k), n**k, size) if forward else
                                d.reshape(n**k, n ** (q - k), size).transpose(1, 0, 2))
                        view[:, let * reps[k], cols] += out[q - k] * coef[k]
                state = np.empty((n**q, size))
                _before(*((d, state) if forward else (d[:, ::-1], state[:, ::-1])))  # event order
                out.append(state)
        chunk = [None] + [np.zeros((n,) * m) for m in range(1, depth + 1)]  # the chunk's levels
        for m in range(1, min(depth, top_k) + 1):  # one event fills the whole word
            chunk[m].reshape(-1)[:: reps[m]] += np.bincount(let, coef[m], minlength=n)
        if depth == 2 and size > 1:  # one event has no pairs
            chunk[2] += _ordered_pairs(lam, let, n)
        elif depth >= 3:
            chunk[2] += states[0][1] @ w.T
        if terms:
            order = np.argsort(let, kind="stable")
            for at in np.split(order, np.flatnonzero(np.diff(let[order])) + 1):  # one letter
                pre, suf = ([st[0][:, : at.size], *(s[:, at] for s in st[1:])] for st in states)
                for m, p, k in terms:
                    term = (pre[p] * coef[k][at]) @ suf[m - p - k].T
                    chunk[m].reshape(n**p, n**k, -1)[:, let[at[0]] * reps[k]] += term
        for m in range(depth, 0, -1):  # Chen's identity, the top level first
            for k in range(m - 1, -1, -1):
                levels[m] += np.multiply.outer(levels[k], chunk[m - k])
    return phi
