"""Products on words: how estimates of two patterns multiply.

Pattern coordinates are not independent numbers; products of coordinates are
again sums of coordinates.  Which combination rule applies depends on the
event map: the exp map pairs with the shuffle product (interleave the two
words every order-preserving way), the 1 + lambda*a map with the
infiltration product (interleavings plus terms where equal letters merge).
This script prints both expansions for ab and ba and verifies the identity
numerically on a stream.
"""

import numpy as np

from ordersketch import (
    EventMapKind,
    GradedTensor,
    LinearFunctional,
    Stream,
    features_from_arrays,
    infiltration_product,
    pairing,
    shuffle_product,
)

LETTERS = "ab"


def features(stream, kind, depth):
    """The stream's feature tensor: its events folded onto the unit."""
    unit = GradedTensor.unit(stream.alphabet_size, depth)
    return features_from_arrays(stream.lambdas, stream.letters, unit, kind)


def pretty(functional):
    parts = []
    for word in sorted(functional.terms, key=lambda w: (len(w), w)):
        coeff = functional.terms[word]
        text = "".join(LETTERS[a] for a in word) or "1"
        parts.append(text if coeff == 1 else f"{coeff:g}*{text}")
    return " + ".join(parts)


ab = LinearFunctional.from_word((0, 1))
ba = LinearFunctional.from_word((1, 0))

print("ab shuffled with ba      =", pretty(shuffle_product(ab, ba)))
print("ab infiltrated with ba   =", pretty(infiltration_product(ab, ba)))
print("  (the extra aba and bab terms come from merging the equal letters)\n")

# Numerical check of the exp/shuffle identity on a weighted stream.
rng = np.random.Generator(np.random.PCG64(2))
stream = Stream(rng.uniform(0.2, 1.5, 12), rng.integers(0, 2, 12), 2)
phi = features(stream, EventMapKind.EXP, 4)
lhs = pairing(shuffle_product(ab, ba), phi)
rhs = pairing(ab, phi) * pairing(ba, phi)
print(f"exp map:    <ab shuffle ba, phi> = {lhs:.10f}")
print(f"            <ab, phi> * <ba, phi> = {rhs:.10f}")

# The infiltration identity is a counting statement: unit weights.
unit = Stream(np.ones(12), stream.letters, 2)
phi1 = features(unit, EventMapKind.LINEAR, 4)
lhs1 = pairing(infiltration_product(ab, ba), phi1)
rhs1 = pairing(ab, phi1) * pairing(ba, phi1)
print(f"linear map: <ab infil ba, phi>   = {lhs1:.1f}")
print(f"            <ab, phi> * <ba, phi> = {rhs1:.1f}")
print("\n(the infiltration identity counts pairs of occurrences, so it needs")
print(" unit weights; with general weights merged positions would double-count)")
