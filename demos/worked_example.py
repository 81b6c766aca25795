"""The four-event running example, coordinate by coordinate.

A stream is a sequence of weighted letters.  Its features are the ordered
moments: for each word w = a1...am, the sum over increasing positions of the
products of event weights whose letters spell w.  This script builds the
example stream (1,a)(1.5,b)(1,b)(2,a), prints every coordinate up to level 2
for both event maps, and shows the concatenation identity that makes the
whole library work.
"""

from ordersketch import (
    EventMapKind,
    GradedTensor,
    Stream,
    features_from_arrays,
    truncated_product,
    word_from_index,
    word_to_text,
)

LETTERS = "ab"


def features(stream, kind, depth):
    """The stream's feature tensor: its events folded onto the unit."""
    unit = GradedTensor.unit(stream.alphabet_size, depth)
    return features_from_arrays(stream.lambdas, stream.letters, unit, kind)


def show(phi, title):
    print(f"\n{title}")
    for m in range(phi.depth + 1):
        terms = []
        for offset in range(phi.levels[m].size):
            value = phi.levels[m][offset]
            if value == 0.0:
                continue
            word = word_from_index(m, offset, phi.alphabet_size)
            text = "".join(LETTERS[a] for a in word) or "1"
            terms.append(f"{value:g}*{text}")
        print(f"  level {m}: " + (" + ".join(terms) if terms else "0"))


stream = Stream.from_events([(1.0, 0), (1.5, 1), (1.0, 1), (2.0, 0)], alphabet_size=2)
print("events:", [(lam, LETTERS[a]) for lam, a in stream])

linear = features(stream, EventMapKind.LINEAR, 2)
show(linear, "Linear map p = 1 + lambda*a  (each event used at most once)")
print("  note: the ba coordinate is 1.5*2 + 1*2 = 5 (both b events pair with the final a)")

exp = features(stream, EventMapKind.EXP, 2)
show(exp, "Exp map p = exp(lambda*a)  (events may repeat, divided by run factorials)")
print("  note: aa now also collects each a event with itself: 2 + 1/2 + 4/2 = 4.5")

# Features multiply under concatenation: split anywhere, the pieces compose.
left = stream.slice(0, 2)
right = stream.slice(2, 4)
glued = truncated_product(
    features(left, EventMapKind.LINEAR, 2),
    features(right, EventMapKind.LINEAR, 2),
)
print("\nconcatenation check: features(left) * features(right) == features(stream)?",
      glued.allclose(linear, rtol=1e-12, atol=1e-12))
# The same product without building features(right): fold right's events
# straight onto left's tensor, as a sketch table takes each new chunk.
folded = features_from_arrays(
    right.lambdas, right.letters, features(left, EventMapKind.LINEAR, 2), EventMapKind.LINEAR
)
print("fold check: right folded onto features(left) == features(stream)?",
      folded.allclose(linear, rtol=1e-12, atol=1e-12))

# The dot-joined text form used by the command line for the same words:
print("word text form of (b, a):", word_to_text((1, 0)))
