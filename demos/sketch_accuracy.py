"""How sketch error trades against memory.

Feeds one heavy-tailed stream (100 letters, 50k events, 10 letters carrying
10% of the mass) into sketches of growing width and depth, then measures the
mass-normalized l1 gap against the exactly computed features.  Wider tables
shrink collisions; more tables shrink the chance that every table collides
on the same word.
"""

import numpy as np

from ordersketch import (
    EventMapKind,
    GradedTensor,
    HashFamilySpec,
    OrderSketch,
    dense_pullback,
    features_from_arrays,
    sample_hashes,
)
from ordersketch.experiments import error_metric, gen_heavy_tail_stream
from ordersketch.hashing import derive_seed

DEPTH = 2
stream = gen_heavy_tail_stream(
    alphabet_size=100, length=50_000, heavy_count=10, heavy_mass=0.1, seed=1
)
exact = features_from_arrays(
    stream.lambdas, stream.letters, GradedTensor.unit(100, DEPTH), EventMapKind.EXP
)
exact_coords = sum(100**m for m in range(1, DEPTH + 1))

print(f"stream: {len(stream)} events over 100 letters; exact storage {exact_coords} floats")
print(f"{'buckets':>8} {'tables':>7} {'floats':>8} {'ratio':>7} {'median error':>13}")

for buckets in (4, 8, 16, 32, 64):
    for tables in (2, 4):
        errors = []
        for rep in range(5):
            hashes = sample_hashes(HashFamilySpec(100, buckets, derive_seed(7, rep)), tables)
            sk = OrderSketch(hashes, DEPTH, EventMapKind.EXP, 100)
            sk.extend(stream)
            errors.append(error_metric(exact, dense_pullback(sk)).aggregate)
        coords = sk.coordinate_count()
        print(
            f"{buckets:>8} {tables:>7} {coords:>8} {exact_coords / coords:>7.1f}"
            f" {float(np.median(errors)):>13.4f}"
        )

print("\nthe estimate never undershoots: min over tables of nonnegative collisions")
sk = OrderSketch(sample_hashes(HashFamilySpec(100, 16, 3), 4), DEPTH, EventMapKind.EXP, 100)
sk.extend(stream)
worst = min(sk.query((a,)) - exact.coordinate((a,)) for a in range(100))
print(f"smallest level-1 gap across all letters: {worst:.6f} (>= 0)")
