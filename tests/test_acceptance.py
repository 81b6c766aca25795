"""Acceptance gate: one test per shipped guarantee, run at the stated scale.

Each test pins the quantitative claim the library is sold on: exactness
against enumeration oracles, the probabilistic sketch guarantees with their
stated failure budgets, the algebraic identities, the mining contract, the
two study harnesses, and byte-level determinism.  Every test also enforces
its own wall-clock budget so the gate stays runnable on a desk machine.

Run with ``pytest tests/test_acceptance.py -v`` to get one line per
criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from ordersketch import (
    EventMapKind,
    LinearFunctional,
    OrderSketch,
    Stream,
    infiltration_product,
    l1_level_norm,
    mine_heavy_patterns,
    pairing,
    shuffle_product,
    stream_features,
)
from ordersketch.experiments import (
    ExperimentOneConfig,
    ExperimentTwoConfig,
    run_experiment_1,
    run_experiment_2,
)
from ordersketch.hashing import HashFamilySpec, derive_seed, sample_hashes

from util import oracle_level

from util import (
    PlainCountMin,
    expand_by_positions,
    four_event_stream,
    parse_records,
    random_stream,
    run_cli,
)


class Budget:
    """Context manager asserting a wall-clock ceiling."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.seconds, (
                f"exceeded runtime budget: {elapsed:.1f}s >= {self.seconds}s"
            )
        return False


def test_c01_fold_matches_enumeration_oracle():
    # 200 random streams, L <= 12, alphabet <= 4, depth <= 4, both event
    # maps: every coordinate of the product fold agrees with the independent
    # order-tuple enumeration within 1e-9 relative.
    with Budget(30):
        rng = np.random.Generator(np.random.PCG64(101))
        for case in range(200):
            n = int(rng.integers(1, 5))
            length = int(rng.integers(0, 13))
            depth = int(rng.integers(1, 5))
            kind = EventMapKind.LINEAR if case % 2 else EventMapKind.EXP
            s = random_stream(rng, n, length)
            phi = stream_features(s, kind, depth)
            for m in range(depth + 1):
                level = oracle_level(s, m, kind)
                for word, value in level.items():
                    got = phi.coordinate(word)
                    assert got == pytest.approx(value, rel=1e-9, abs=1e-12), (
                        case,
                        kind,
                        word,
                    )
                # words absent from the oracle dict have coordinate zero
                dense_sum = float(np.abs(phi.levels[m]).sum())
                assert dense_sum == pytest.approx(
                    sum(abs(v) for v in level.values()), rel=1e-9, abs=1e-12
                )


def test_c02_worked_example_through_cli(tmp_path):
    # The four-event running example, evaluated end to end through the
    # ``exact`` subcommand, reproduces the hand-checked coordinates for both
    # event maps.  The 1.0-coordinate equals the enumeration value 5.0; a
    # published hand expansion gives 5.5, which drops one of the two
    # (b, later-a) pairings, and is asserted against.
    with Budget(1):
        path = tmp_path / "example.events"
        path.write_text(
            "alphabet_size=2\n1.0\t0\n1.5\t1\n1.0\t1\n2.0\t0\n"
        )
        code, out, _ = run_cli(["exact", str(path), "--event-map", "linear"])
        assert code == 0
        linear = {
            (r["level"], r["word"]): r["value"]
            for r in parse_records(out)
            if r["record"] == "coordinate"
        }
        assert linear[(1, "0")] == 3.0
        assert linear[(1, "1")] == 2.5
        assert linear[(2, "0.0")] == 2.0
        assert linear[(2, "0.1")] == 2.5
        assert linear[(2, "1.1")] == 1.5
        assert linear[(2, "1.0")] == 5.0
        assert linear[(2, "1.0")] != 5.5

        code, out, _ = run_cli(["exact", str(path), "--event-map", "exp"])
        assert code == 0
        exp = {
            (r["level"], r["word"]): r["value"]
            for r in parse_records(out)
            if r["record"] == "coordinate"
        }
        assert exp[(2, "0.0")] == 4.5
        assert exp[(2, "0.1")] == 2.5


def test_c03_overestimation_never_fails():
    # 500 sketch builds (25 seeds x 20 streams), per-event ingestion: the
    # estimate is >= the exact coordinate for every word up to the depth,
    # with zero violations and no floating-point tolerance.
    with Budget(60):
        rng = np.random.Generator(np.random.PCG64(303))
        violations = 0
        for stream_id in range(20):
            n = int(rng.integers(6, 16))
            s = random_stream(rng, n, int(rng.integers(10, 40)))
            kind = EventMapKind.LINEAR if stream_id % 2 else EventMapKind.EXP
            exact = stream_features(s, kind, 2)
            for seed in range(25):
                sk = OrderSketch.from_parameters(
                    0.5, 0.25, 2, kind, n, seed=derive_seed(stream_id, seed)
                )
                for ev in s:
                    sk.update(*ev)
                for a in range(n):
                    if sk.query((a,)) < exact.coordinate((a,)):
                        violations += 1
                for _ in range(12):
                    w = tuple(int(x) for x in rng.integers(0, n, 2))
                    if sk.query(w) < exact.coordinate(w):
                        violations += 1
        assert violations == 0


def _tail_setup():
    rng = np.random.Generator(np.random.PCG64(404))
    stream = random_stream(rng, 64, 1000)
    exact = stream_features(stream, EventMapKind.EXP, 2)
    words = [(int(a),) for a in rng.integers(0, 64, 25)]
    words += [tuple(int(x) for x in rng.integers(0, 64, 2)) for _ in range(25)]
    norms = {1: l1_level_norm(exact, 1), 2: l1_level_norm(exact, 2)}
    return stream, exact, words, norms


def test_c04_tail_guarantee():
    # epsilon=0.5, delta=0.25 (4 buckets, 2 tables), fixed 1000-event stream
    # over 64 letters, 2000 independent hash draws: for each of 50 sampled
    # words the frequency of {gap > epsilon * level norm} stays within
    # 3 binomial sigma of the promised 0.25.
    with Budget(300):
        stream, exact, words, norms = _tail_setup()
        seeds = 2000
        failures = {w: 0 for w in words}
        for seed in range(seeds):
            sk = OrderSketch.from_parameters(
                0.5, 0.25, 2, EventMapKind.EXP, 64, seed=derive_seed(9000, seed)
            )
            sk.extend(stream)
            for w in words:
                gap = sk.query(w) - exact.coordinate(w)
                if gap > 0.5 * norms[len(w)]:
                    failures[w] += 1
        sigma = math.sqrt(0.25 * 0.75 / seeds)
        limit = 0.25 + 3 * sigma
        worst = max(failures.values()) / seeds
        assert worst <= limit, f"worst per-word failure rate {worst:.4f} > {limit:.4f}"


def test_c05_single_table_bias_bound():
    # Same stream, a single table of 4 buckets: the mean overestimate per
    # word is nonnegative and at most (level norm)/4, within 3 standard
    # errors on the empirical side.
    with Budget(300):
        stream, exact, words, norms = _tail_setup()
        seeds = 2000
        gaps = {w: [] for w in words}
        for seed in range(seeds):
            sk = OrderSketch(
                sample_hashes(HashFamilySpec(64, 4, derive_seed(9500, seed)), 1),
                2,
                EventMapKind.EXP,
                64,
                seed=derive_seed(9500, seed),
            )
            sk.extend(stream)
            for w in words:
                gaps[w].append(sk.query(w) - exact.coordinate(w))
        for w, samples in gaps.items():
            arr = np.array(samples)
            assert arr.min() >= 0.0
            mean = float(arr.mean())
            se = float(arr.std(ddof=1)) / math.sqrt(seeds)
            bound = norms[len(w)] / 4
            assert mean <= bound + 3 * se, (w, mean, bound, se)


def test_c06_norm_identity():
    # Exp map: levelwise coordinate mass equals mass^m / m! exactly (to 1e-9
    # relative) for m <= 4 on 100 random streams; Linear map stays below it.
    with Budget(10):
        rng = np.random.Generator(np.random.PCG64(606))
        for _ in range(100):
            s = random_stream(rng, int(rng.integers(1, 5)), int(rng.integers(0, 18)))
            exp_phi = stream_features(s, EventMapKind.EXP, 4)
            lin_phi = stream_features(s, EventMapKind.LINEAR, 4)
            mass = s.total_mass()
            for m in range(1, 5):
                target = mass**m / math.factorial(m)
                assert l1_level_norm(exp_phi, m) == pytest.approx(
                    target, rel=1e-9, abs=1e-12
                )
                assert l1_level_norm(lin_phi, m) <= target * (1 + 1e-9) + 1e-12


def test_c07_merge_matches_single_pass():
    # 100 random streams split at a random cut: merging the two partial
    # sketches reproduces the single-pass sketch to 1e-10 relative.
    with Budget(30):
        rng = np.random.Generator(np.random.PCG64(707))
        for trial in range(100):
            n = int(rng.integers(4, 40))
            s = random_stream(rng, n, int(rng.integers(2, 200)))
            cut = int(rng.integers(0, len(s) + 1))
            kind = EventMapKind.LINEAR if trial % 2 else EventMapKind.EXP
            whole = OrderSketch.from_parameters(0.4, 0.2, 2, kind, n, seed=trial)
            whole.extend(s)
            a = OrderSketch.from_parameters(0.4, 0.2, 2, kind, n, seed=trial)
            b = OrderSketch.from_parameters(0.4, 0.2, 2, kind, n, seed=trial)
            a.extend(s.slice(0, cut))
            b.extend(s.slice(cut, len(s)))
            merged = a.merge(b)
            for tm, tw in zip(merged.tables, whole.tables):
                assert tm.allclose(tw, rtol=1e-10, atol=1e-12)
            assert merged.events_seen == whole.events_seen


def test_c08_duality_identities():
    # 100 random (stream, word pair) cases split across the two identities:
    # multiplying estimates is the same as querying the matching word-space
    # product.  The two-letter frozen expansions are re-derived by position
    # enumeration.
    with Budget(10):
        ab, ba = (0, 1), (1, 0)
        assert expand_by_positions(ab, ba, infiltration=False) == {
            (0, 1, 0, 1): 1,
            (0, 1, 1, 0): 2,
            (1, 0, 0, 1): 2,
            (1, 0, 1, 0): 1,
        }
        assert expand_by_positions(ab, ba, infiltration=True) == {
            (0, 1, 0): 1,
            (1, 0, 1): 1,
            (0, 1, 0, 1): 1,
            (0, 1, 1, 0): 2,
            (1, 0, 0, 1): 2,
            (1, 0, 1, 0): 1,
        }
        fab, fba = LinearFunctional.from_word(ab), LinearFunctional.from_word(ba)
        assert shuffle_product(fab, fba).terms == {
            w: float(c) for w, c in expand_by_positions(ab, ba, False).items()
        }
        assert infiltration_product(fab, fba).terms == {
            w: float(c) for w, c in expand_by_positions(ab, ba, True).items()
        }

        rng = np.random.Generator(np.random.PCG64(808))
        for case in range(100):
            n = int(rng.integers(2, 4))
            length = int(rng.integers(0, 9))
            u = tuple(int(x) for x in rng.integers(0, n, int(rng.integers(0, 3))))
            v = tuple(int(x) for x in rng.integers(0, n, int(rng.integers(0, 3))))
            if case % 2:
                s = random_stream(rng, n, length)
                kind, product = EventMapKind.EXP, shuffle_product
            else:
                # the infiltration identity is a counting identity; it holds
                # on unit-weight streams (see the dual product tests)
                s = Stream(np.ones(length), rng.integers(0, n, length), n)
                kind, product = EventMapKind.LINEAR, infiltration_product
            phi = stream_features(s, kind, len(u) + len(v))
            fu, fv = LinearFunctional.from_word(u), LinearFunctional.from_word(v)
            lhs = pairing(product(fu, fv), phi)
            rhs = pairing(fu, phi) * pairing(fv, phi)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_c09_depth_one_count_min_reduction():
    # Depth 1 with shared hash functions is bit for bit the classical
    # count-min sketch, checked against an independent implementation on 20
    # random streams.
    with Budget(10):
        rng = np.random.Generator(np.random.PCG64(909))
        for trial in range(20):
            n = int(rng.integers(8, 300))
            s = random_stream(rng, n, int(rng.integers(0, 300)))
            sk = OrderSketch.from_parameters(
                0.3, 0.2, 1, EventMapKind.LINEAR, n, seed=trial
            )
            ref = PlainCountMin(sk.hashes)
            for lam, letter in s:
                sk.update(lam, letter)
                ref.update(lam, letter)
            for a in range(n):
                assert sk.query((a,)) == ref.query(a)


def _planted(seed: int) -> Stream:
    """Two hot letters then a light noise tail over a 12-letter alphabet."""
    rng = np.random.Generator(np.random.PCG64(seed))
    events = [(1.0, 0)] * 50 + [(1.0, 1)] * 50
    events += [(1.0, int(a)) for a in rng.integers(3, 12, size=20)]
    return Stream.from_events(events, alphabet_size=12)


def test_c10_heavy_pattern_completeness_and_false_positives():
    # Completeness: on 50 planted streams every word with exact coordinate
    # >= rho^|w| is mined, zero misses.  False positives: a word whose
    # coordinate sits below rho^|w| - epsilon * level norm appears with
    # frequency <= delta + 3 sigma over 500 hash draws.
    with Budget(300):
        rho, eps, delta = 30.0, 1 / 8, 0.25
        for seed in range(50):
            s = _planted(seed)
            exact = stream_features(s, EventMapKind.LINEAR, 2)
            truth = set()
            for m in (1, 2):
                level = oracle_level(s, m, EventMapKind.LINEAR)
                truth |= {w for w, v in level.items() if v >= rho**m}
            res = mine_heavy_patterns(
                s, [rho], eps, delta, 2, EventMapKind.LINEAR, seed=seed
            )[1][rho]
            missing = truth - res.words
            assert not missing, f"stream {seed} missed {missing}"

        s = _planted(0)
        exact = stream_features(s, EventMapKind.LINEAR, 2)
        fp_word = (1, 0)  # never occurs in order: coordinate is exactly 0
        assert exact.coordinate(fp_word) == 0.0
        margin = rho**2 - eps * l1_level_norm(exact, 2)
        assert exact.coordinate(fp_word) < margin, "false-positive word not eligible"
        hits = 0
        seeds = 500
        for seed in range(seeds):
            res = mine_heavy_patterns(
                s, [rho], eps, delta, 2, EventMapKind.LINEAR, seed=derive_seed(10_000, seed)
            )[1][rho]
            if fp_word in res.words:
                hits += 1
        sigma = math.sqrt(delta * (1 - delta) / seeds)
        assert hits / seeds <= delta + 3 * sigma, f"false-positive rate {hits / seeds}"


def test_c11_accuracy_memory_tradeoff_grid():
    # Desk-scale sweep: 100 letters, 100k events, depth 2, 10 repetitions.
    # The median error must strictly decrease when buckets grow at fixed
    # table count and when tables grow at fixed bucket count.  Throughput is
    # reported by the harness, not asserted.
    with Budget(600):
        rows = run_experiment_1(ExperimentOneConfig())
        by_cell = {(r.bucket_count, r.hash_count): r.median_error for r in rows}
        buckets, hashes = (4, 8, 16, 32), (2, 4, 8)
        for r in hashes:
            for small, big in zip(buckets, buckets[1:]):
                assert by_cell[(big, r)] < by_cell[(small, r)], (
                    f"error not decreasing in buckets at r={r}"
                )
        for b in buckets:
            for few, many in zip(hashes, hashes[1:]):
                assert by_cell[(b, many)] < by_cell[(b, few)], (
                    f"error not decreasing in tables at B={b}"
                )
        for row in rows:
            assert row.memory_ratio > 1.0


def test_c12_two_phase_classification():
    # Desk-scale classification study: 1000 letters, 200 streams per class.
    # At q - p = 0.03 the depth-2 features reach 95% held-out accuracy and
    # beat depth 1; at q - p = 0.005 the depth-2 margin over depth 1 is at
    # least 0.2.
    with Budget(600):
        rows = run_experiment_2(
            ExperimentTwoConfig(q_values=(0.105, 0.13), base_seed=0)
        )
        by_gap = {round(r.q_minus_p, 3): r for r in rows}
        wide = by_gap[0.03]
        assert wide.accuracy_by_depth[2] >= 0.95
        assert wide.accuracy_by_depth[2] >= wide.accuracy_by_depth[1]
        narrow = by_gap[0.005]
        assert narrow.accuracy_by_depth[2] - narrow.accuracy_by_depth[1] >= 0.2


def test_c13_seeded_commands_are_byte_identical(tmp_path):
    # Rerunning every randomized subcommand with the same --seed yields
    # byte-identical machine-readable output (and identical snapshot files).
    with Budget(120):
        rng = np.random.Generator(np.random.PCG64(1313))
        s = random_stream(rng, 40, 800)
        stream_path = tmp_path / "s.events"
        from ordersketch.cli import write_stream_file

        write_stream_file(s, stream_path)
        snap = str(tmp_path / "sketch.json")

        def run_twice(args):
            first = run_cli(args)
            second = run_cli(args)
            assert first[0] == second[0] == 0, args
            assert first[1] == second[1], f"stdout differs for {args}"
            return first[1]

        run_twice(["build", str(stream_path), snap, "--seed", "11"])
        snap_bytes = open(snap, "rb").read()
        run_cli(["build", str(stream_path), snap, "--seed", "11"])
        assert open(snap, "rb").read() == snap_bytes

        run_twice(["query", snap, "1", "2.3", ""])
        run_twice(["heavy", str(stream_path), "--rho", "15", "--seed", "3"])

        t1 = tmp_path / "t1.json"
        t1.write_text(
            json.dumps(
                {
                    "alphabet_size": 16,
                    "length": 500,
                    "heavy_count": 4,
                    "heavy_mass": 0.25,
                    "bucket_counts": [4, 8],
                    "hash_counts": [2],
                    "repetitions": 2,
                }
            )
        )
        run_twice(["experiment", "table1", "--config", str(t1), "--seed", "4"])

        t2 = tmp_path / "t2.json"
        t2.write_text(
            json.dumps(
                {
                    "alphabet_size": 200,
                    "total_length": 1500,
                    "q_values": [0.2],
                    "streams_per_class": 4,
                    "rho": 30.0,
                    "splits": 2,
                    "epochs": 80,
                }
            )
        )
        run_twice(["experiment", "table2", "--config", str(t2), "--seed", "5"])
