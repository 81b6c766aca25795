"""The stream-file reader against its line-loop reference.

``read_stream_file`` parses with numpy's C reader and falls back to the
line loop for every file that reader rejects or might read differently, so
its arrays and its error messages must equal the loop's on any file.
"""

import json
import os
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ordersketch import cli
from ordersketch.cli import DataError, read_stream_file

from util import read_stream_file_by_lines, run_cli

# tokens either reader may accept, reject, or read differently
WEIGHT_TOKENS = ["1", "2.5", "0", "-0", ".5", "7.", "1e3", "+5", " 5 ", "5.0", "1_0", "0x1p3",
                 "nan", "inf", "1e400", "-1", "", "x", '"1"']
LETTER_TOKENS = ["0", "1", "4", "007", "+2", " 3 ", "-0", "5", "5.0", "1e3", "1_0", "0x1p3",
                 "nan", "-1", str(2**63 - 1), str(2**63), "", "2#"]

weights = st.one_of(
    st.sampled_from(WEIGHT_TOKENS),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).flatmap(
        lambda w: st.sampled_from([repr(w), f"{w:e}", f"{w:.25g}"])
    ),
)
letters = st.sampled_from(LETTER_TOKENS)
events = st.tuples(weights, letters).map("\t".join)
lines = st.one_of(
    events,
    events,
    events,
    st.sampled_from(["", " ", "\t", " \t ", "\x1f"]),  # blank and whitespace-only
    st.just("# a comment"),
    events.map(lambda line: line + "\t"),  # a trailing tab
    st.tuples(weights, letters, letters).map("\t".join),  # three columns
    weights,  # no tab at all
)
breaks = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c"])


@st.composite
def stream_files(draw) -> str:
    header = "alphabet_size=" + draw(st.sampled_from(["5", "5", " 5", "x"]))
    body = "".join(line + brk for line, brk in draw(st.lists(st.tuples(lines, breaks), max_size=8)))
    if body and draw(st.booleans()):
        body = body.rstrip("\r\n\x0b\x0c")  # no final line break
    return header + draw(st.sampled_from(["\n", "\r\n"])) + body


def read_outcome(reader, path) -> tuple:
    try:
        s = reader(str(path))
    except DataError as exc:
        return ("error", str(exc))
    return (s.alphabet_size, s.lambdas.view(np.int64).tolist(), s.letters.tolist(),
            s.lambdas.dtype.str, s.letters.dtype.str)


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stream_files())
# numpy's number parser skips these as spaces, where str.splitlines ends a
# line or float() and int() reject the character
@example("alphabet_size=5\n1.0\x0c\t2\n")
@example("alphabet_size=5\n1.0\t\x0b2\n")
@example("alphabet_size=5\n1\x1c\t2\n1\t\x1d2\n1\x1e\t3\n")
@example("alphabet_size=5\x0c1\t2\n")
@example("alphabet_size=5")
@example("alphabet_size=5\n")
@example("alphabet_size=5\r\n1\t2\r\n\r\n3.5\t4\r\n")
@example("alphabet_size=5\n1\t2")
@example("alphabet_size=5\n1\x1f\t\x1f2\x1f\n")
def test_reader_matches_the_line_loop(tmp_path, text):
    path = tmp_path / "grammar.events"
    path.write_bytes(text.encode("ascii"))
    assert read_outcome(read_stream_file, path) == read_outcome(read_stream_file_by_lines, path)


def test_reader_hands_numpy_the_open_file_not_the_path(tmp_path, monkeypatch):
    # given a path, numpy would pick a decompressor from a .gz or .bz2 suffix
    loadtxt, handed = np.loadtxt, []

    def handle_only(fname, *args, **kwargs):
        assert not isinstance(fname, (str, bytes, os.PathLike)), fname
        handed.append(fname)
        return loadtxt(fname, *args, **kwargs)

    def no_line_loop(*args):
        raise AssertionError("the line loop ran on an ordinary file")

    monkeypatch.setattr(np, "loadtxt", handle_only)
    monkeypatch.setattr(cli, "_parse_lines", no_line_loop)
    text = b"alphabet_size=3\n1.0\t0\n2.5\t2\n0.1\t1\n"
    streams = []
    for name in ("s.gz", "s.bz2", "s.events"):
        (tmp_path / name).write_bytes(text)
        streams.append(read_outcome(read_stream_file, tmp_path / name))
    assert len(handed) == 3
    assert streams[0] == streams[1] == streams[2]
    assert streams[0][:3] == (3, np.array([1.0, 2.5, 0.1]).view(np.int64).tolist(), [0, 2, 1])
    code, out, _ = run_cli(["build", str(tmp_path / "s.gz"), str(tmp_path / "s.snap")])
    assert code == 0 and json.loads(out)["events"] == 3


def test_header_only_file_is_an_empty_stream(tmp_path, capsys):
    path = tmp_path / "empty.events"
    path.write_text("alphabet_size=3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # numpy warns on an input with no data
        s = read_stream_file(str(path))
    assert (len(s), s.alphabet_size, caught) == (0, 3, [])
    assert capsys.readouterr() == ("", "")
    code, out, err = run_cli(["build", str(path), str(tmp_path / "empty.snap")])
    assert code == 0 and '"events":0' in out
    assert err.startswith("built sketch over 0 events") and err.count("\n") == 1


def test_non_ascii_file_is_a_data_error_naming_the_file(tmp_path):
    # a non-breaking space in the body, or a byte of UTF-8 text in the header
    for name, data in (("body.events", b"alphabet_size=3\n1.0\t0\n\xa0\t1\n"),
                       ("header.events", "alphabet_size=3\u00a0\n1.0\t0\n".encode())):
        path = tmp_path / name
        path.write_bytes(data)
        want = ("error", f"{path}: not ASCII text")
        assert read_outcome(read_stream_file, path) == want
        assert read_outcome(read_stream_file_by_lines, path) == want
        code, out, err = run_cli(["build", str(path), str(tmp_path / "s.snap")])
        assert (code, out, err) == (2, "", f"ordersketch: data error: {path}: not ASCII text\n")
