"""2-universal affine hashing of letters into buckets.

``h(x) = ((a*x + b) mod p) mod n`` with p prime and 1 <= a < p, 0 <= b < p.
For any two distinct letters below p the collision probability over a random
(a, b) draw is at most 1/n.  Words hash letterwise, so two words differing in
a single position collide exactly when the differing letters do.

Hash parameters are drawn from a SplitMix64 stream so that a seed determines
every draw, on any platform, independent of numpy's generator versioning.
Draws are sequential: for a fixed seed the first r hashes of a longer sample
coincide with a shorter one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1

# Witnesses making Miller-Rabin deterministic for all n < 3.3e24, which
# covers the supported p range (p fits in 61 bits).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_geq(m: int) -> int:
    """Smallest prime >= m; requires 2 <= m < 2**61."""
    if not 2 <= m < (1 << 61):
        raise ValueError("m must be in [2, 2**61)")
    n = m
    while not _is_prime(n):
        n += 1
    return n


class _SplitMix64:
    """Tiny fixed-algorithm PRNG used only for hash parameter draws."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        # rejection sampling: unbiased uniform draw from range(bound)
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound


PRNG_ID = "splitmix64"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def derive_seed(seed: int, index: int) -> int:
    """A decorrelated child seed for run ``index`` of a seeded experiment."""
    gen = _SplitMix64((seed & _MASK64) ^ ((index + 1) * 0xD1B54A32D192ED03 & _MASK64))
    return gen.next_u64()


@dataclass(frozen=True)
class AffineHash:
    """One drawn hash function; ``n`` is the bucket count."""

    a: int
    b: int
    p: int
    n: int

    def __post_init__(self):
        if not all(map(_is_int, (self.a, self.b, self.p, self.n))):
            raise ValueError("hash parameters a, b, p and n must be integers")
        if not (_is_prime(self.p) and self.p < (1 << 61)):
            raise ValueError("p must be a prime below 2**61")
        if not 1 <= self.a < self.p:
            raise ValueError("need 1 <= a < p")
        if not 0 <= self.b < self.p:
            raise ValueError("need 0 <= b < p")
        if self.n < 1:
            raise ValueError("need at least one bucket")


def eval_hash(h: AffineHash, x: int) -> int:
    """Hash one letter.  Python integers, so no overflow for any p < 2**61."""
    if not 0 <= x < h.p:
        raise ValueError(f"input {x} outside [0, p)")
    return ((h.a * x + h.b) % h.p) % h.n


def eval_hash_array(h: AffineHash, xs: np.ndarray) -> np.ndarray:
    """Vectorized hashing.  Falls back to exact Python ints for large p."""
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size and (xs.min() < 0 or int(xs.max()) >= h.p):
        raise ValueError("input outside [0, p)")
    if h.p < (1 << 31):
        # a*x + b < 2**62 fits int64 exactly
        vals = (np.int64(h.a) * xs + np.int64(h.b)) % np.int64(h.p)
        vals %= np.int64(h.n)
        return vals
    return np.array([eval_hash(h, int(x)) for x in xs], dtype=np.int64)


@dataclass(frozen=True)
class HashFamilySpec:
    """Domain/range sizes and the seed the draws come from.  The modulus
    ``p`` is derived: the smallest prime >= ``max(source_size, 2)``."""

    source_size: int
    target_size: int
    seed: int
    p: int = field(init=False)

    def __post_init__(self):
        if self.source_size < 1 or self.target_size < 1:
            raise ValueError("sizes must be positive")
        object.__setattr__(self, "p", smallest_prime_geq(max(self.source_size, 2)))


def sample_hashes(spec: HashFamilySpec, r: int) -> list:
    """Draw ``r`` independent hashes; the seed fully determines the result."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    gen = _SplitMix64(spec.seed)
    out = []
    for _ in range(r):
        a = 1 + gen.below(spec.p - 1)
        b = gen.below(spec.p)
        out.append(AffineHash(a, b, spec.p, spec.target_size))
    return out
