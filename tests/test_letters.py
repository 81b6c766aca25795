"""The letter rule on every entry point: a letter is a non-bool int or numpy
integer in ``range(alphabet_size)``.  Every other form is refused with the
rule's message before any cast, and before any stream, table or tensor is
touched."""

import numpy as np
import pytest

from ordersketch import (
    EventMapKind,
    GradedTensor,
    LinearFunctional,
    OrderSketch,
    Stream,
    dense_pullback,
    eval_hash_array,
    features_from_arrays,
    word_index,
)

N = 5  # a prime, so the sketch's hash modulus is the alphabet size

# (letters as the caller holds them, message for an entry point that takes
# the letters as one array or word, message for one that takes them one by one)
NOT_INTEGERS = "letters must be integers, not {}"
BAD_FORMS = {
    "float": ([1.9], "float64", "float64"),
    "bool": ([True], "bool", "bool"),
    "complex": ([1 + 0j], "complex128", "complex128"),
    "str": (["1"], "<U1", "<U1"),
    "bytes": ([b"1"], "|S1", "|S1"),
    "object_float": (np.array([1.5], dtype=object), "object", "float64"),
    "object_bool": (np.array([True], dtype=object), "object", "bool"),
    "object_none": (np.array([None], dtype=object), "object", "object"),
    "size": ([N], None, None),
    "two_to_64": ([2**64], None, None),
}


def _sketch() -> OrderSketch:
    sketch = OrderSketch.from_parameters(0.5, 0.25, 2, EventMapKind.EXP, N, seed=0)
    sketch.extend(Stream(np.array([1.0, 2.0, 0.5]), np.array([0, 1, 4]), N))
    assert sketch.hashes[0].p == N
    return sketch


def _tensor() -> GradedTensor:
    phi = GradedTensor.unit(N, 2)
    features_from_arrays(np.array([1.0, 3.0]), np.array([2, 3]), phi, EventMapKind.LINEAR)
    return phi


# name -> (takes the letters one by one, call(letters, sketch, tensor))
ENTRY_POINTS = {
    "Stream": (False, lambda x, sk, phi: Stream(np.ones(len(x)), x, N)),
    "Stream.from_events": (True, lambda x, sk, phi: Stream.from_events(
        [(1.0, a) for a in x], N)),
    "features_from_arrays": (False, lambda x, sk, phi: features_from_arrays(
        np.ones(len(x)), x, phi, EventMapKind.EXP)),
    "extend": (False, lambda x, sk, phi: sk.extend(Stream(np.ones(len(x)), x, N))),
    "update": (True, lambda x, sk, phi: sk.update(1.0, x[0])),
    "eval_hash_array": (False, lambda x, sk, phi: eval_hash_array(sk.hashes[0], x)),
    "word_index": (False, lambda x, sk, phi: word_index(x, N)),
    "GradedTensor.coordinate": (False, lambda x, sk, phi: phi.coordinate(x)),
    "query": (False, lambda x, sk, phi: sk.query(x)),
    "query_many": (False, lambda x, sk, phi: sk.query_many([x])),
    "dense_pullback": (False, lambda x, sk, phi: dense_pullback(sk, x)),
    "LinearFunctional": (True, lambda x, sk, phi: LinearFunctional({tuple(x): 1.0})),
}


@pytest.mark.parametrize("form", sorted(BAD_FORMS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_a_bad_letter(entry, form):
    letters, as_array, one_by_one = BAD_FORMS[form]
    by_letter, call = ENTRY_POINTS[entry]
    if as_array is None:
        # a letter past the alphabet; a functional has no alphabet to check
        if entry == "LinearFunctional":
            assert call(letters, None, None).terms == {(letters[0],): 1.0}
            return
        message = f"letter {letters[0]} outside alphabet of size {N}"
    else:
        message = NOT_INTEGERS.format(one_by_one if by_letter else as_array)
    sketch, phi = _sketch(), _tensor()
    table_bytes, tensor_before = sketch.to_snapshot(), phi.copy()
    held = list(letters)
    with pytest.raises(ValueError) as refused:
        call(letters, sketch, phi)
    assert str(refused.value) == message
    assert sketch.to_snapshot() == table_bytes
    assert all(np.array_equal(a, b) for a, b in zip(phi.levels, tensor_before.levels))
    assert list(letters) == held and all(type(a) is type(b) for a, b in zip(letters, held))


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_takes_integer_letters_of_any_int_type(entry):
    _, call = ENTRY_POINTS[entry]
    results = []
    for letters in ([3], np.array([3], dtype=np.uint8), np.array([3], dtype=object),
                    np.array([np.int32(3)], dtype=object)):
        sketch, phi = _sketch(), _tensor()
        out = call(letters, sketch, phi)
        results.append((sketch.to_snapshot(), [level.tobytes() for level in phi.levels],
                        out.letters.tolist() if isinstance(out, Stream) else repr(out)))
    assert all(r == results[0] for r in results[1:])


def test_the_rule_returns_contiguous_int64_and_reports_the_first_bad_letter():
    from ordersketch.tensor import _letter_array

    strided = np.arange(10, dtype=np.uint16)[::2]
    out = _letter_array(strided, 10)
    assert out.dtype == np.int64 and out.flags.c_contiguous and out.tolist() == [0, 2, 4, 6, 8]
    same = np.arange(4)
    assert _letter_array(same, 4) is same  # no copy when nothing needs casting
    assert _letter_array([], 3).dtype == np.int64  # an empty list passes
    assert _letter_array(np.zeros((0, 2)), 3).shape == (0, 2)
    with pytest.raises(ValueError, match="^letter 7 outside alphabet of size 4$"):
        _letter_array(np.array([[1, 7], [-1, 9]]), 4)
    with pytest.raises(ValueError, match="^letter -1 outside alphabet of size 4$"):
        _letter_array([[1, 2], [-1, 9]], 4)


# A Python list or tuple is checked entry by entry: numpy's one dtype for it
# would read [1, True] and [np.array(1), 2] as int64 and (-1, 2**63) as float64.
MIXED = {
    "bool among ints": ((1, True), "letters must be integers, not bool"),
    "numpy bool among ints": ([2, np.True_], "letters must be integers, not bool"),
    "float among ints": ([1, 2.0], "letters must be integers, not float64"),
    "0-d array among ints": ([np.array(1), 2], "letters must be integers, not ndarray"),
    "ints past int64 of both signs": ((-1, 2**63), f"letter -1 outside alphabet of size {N}"),
    "int past uint64 among ints": ((1, 2**64), f"letter {2**64} outside alphabet of size {N}"),
}


@pytest.mark.parametrize("case", sorted(MIXED))
@pytest.mark.parametrize("entry", sorted(set(ENTRY_POINTS) - {"update"}))  # update takes one letter
def test_a_sequence_is_checked_entry_by_entry(entry, case):
    word, message = MIXED[case]
    if entry == "LinearFunctional" and (message.startswith("letter ") or "ndarray" in message):
        return  # a functional has no alphabet to check, and its words are dict keys
    sketch, phi = _sketch(), _tensor()
    table_bytes = sketch.to_snapshot()
    with pytest.raises(ValueError) as refused:
        ENTRY_POINTS[entry][1](word, sketch, phi)
    assert str(refused.value) == message
    assert sketch.to_snapshot() == table_bytes


def test_sequences_of_integers_keep_their_letters():
    from ordersketch.tensor import _letter_array

    assert _letter_array([(1, 2), (3, 4)], N).tolist() == [[1, 2], [3, 4]]
    assert _letter_array([np.array([1, 2]), np.array([3, 4])], N).tolist() == [[1, 2], [3, 4]]
    mixed = _letter_array([np.uint64(3), np.int64(2)], N)  # numpy reads these as float64
    assert mixed.dtype == np.int64 and mixed.tolist() == [3, 2]
    assert _letter_array((), N).dtype == np.int64
    assert Stream([1.0, 1.0], [4, np.int8(0)], N).letters.tolist() == [4, 0]
