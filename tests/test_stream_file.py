"""The stream-file reader against its line-loop reference.

``read_stream_file`` parses with numpy's C reader and falls back to the
line loop for every file that reader rejects or might read differently, so
its arrays and its error messages must equal the loop's on any file.
``build`` and ``exact`` read and fold the file in blocks, the later ones
parsed by a forked child where two CPUs are free, and on any error in the
body rerun the whole-file read: their snapshots, records and messages must
equal those of one fold of the whole stream.  Recorders of the reads write
to a file, so that they see the child's reads too.
"""

import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ordersketch import GradedTensor, OrderSketch, Stream, cli, features_from_arrays
from ordersketch.cli import DataError, read_stream_file

from util import parse_records, read_stream_file_by_lines, run_cli, split_snapshot, traced_peak

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
def test_reader_matches_the_line_loop(tmp_path, monkeypatch, text):
    path = tmp_path / "grammar.events"
    path.write_bytes(text.encode("ascii"))
    want = read_outcome(read_stream_file_by_lines, path)
    assert read_outcome(read_stream_file, path) == want
    with open(path, encoding="ascii") as fh:
        numpy_reads_it = want[0] != "error" and cli._parse_with_numpy(str(path), fh) is not None
    reads = record_reads(monkeypatch, tmp_path)
    for rows in (1, 2, 3):
        reads.clear()
        assert read_outcome(lambda p: fold_in_blocks(p, rows), path) == want
        if numpy_reads_it:  # then blocks read it too, with no whole-file rerun
            assert reads() == ["block"] * (len(want[1]) // rows + 1)


class FileLog:
    """A list of lines kept in a new file under ``directory``, which a
    forked child appends to as well; calling it gives the lines."""

    def __init__(self, directory):
        fd, self.path = tempfile.mkstemp(suffix=".log", dir=directory)
        os.close(fd)

    def append(self, entry) -> None:
        with open(self.path, "a", encoding="ascii") as fh:
            fh.write(f"{entry}\n")

    def clear(self) -> None:
        open(self.path, "w").close()

    def __call__(self) -> list:
        with open(self.path, encoding="ascii") as fh:
            return fh.read().splitlines()


def record_reads(monkeypatch, tmp_path) -> FileLog:
    """Route `cli.read_stream_file` through a recorder of its calls: "block"
    for a block, "whole" for the whole file."""
    reads, read = FileLog(tmp_path), cli.read_stream_file

    def recorded(path, block=None):
        reads.append("whole" if block is None else "block")
        return read(path, block)

    monkeypatch.setattr(cli, "read_stream_file", recorded)
    return reads


def fold_in_blocks(path, rows: int) -> Stream:
    """The stream `cli._fold_stream_file` reads from ``path`` in blocks of
    ``rows`` events, gathered back into one Stream."""
    def start(alphabet_size):
        return (alphabet_size, []), rows

    (alphabet_size, blocks), events = cli._fold_stream_file(
        str(path), start, lambda state, block: state[1].append(block))
    lams = np.concatenate([np.empty(0), *(b.lambdas for b in blocks)])
    lets = np.concatenate([np.empty(0, np.int64), *(b.letters for b in blocks)])
    assert events == lams.size
    return Stream(lams, lets, alphabet_size)


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


BUILD_FLAGS = ["--epsilon", "0.1", "--delta", "0.5"]  # 20 buckets, one table, depth 2, exp
BLOCK = cli._block_rows(20, 2)


def write_events(path, lam, let, alphabet_size: int, edges=(), spacer: str = "") -> None:
    """A stream file whose events at the indices in ``edges`` end in CRLF
    and follow a ``spacer`` line; one more ``spacer`` line ends the file."""
    lines = [f"{w!r}\t{a}" for w, a in zip(lam.tolist(), let.tolist())]
    for i in sorted(edges, reverse=True):
        if i < len(lines):
            lines[i:i + 1] = [spacer, lines[i] + "\r"]
    text = "".join(line + "\n" for line in [f"alphabet_size={alphabet_size}", *lines, spacer])
    path.write_bytes(text.encode("ascii"))


def one_extend_snapshot(path) -> bytes:
    sketch = OrderSketch.from_parameters(0.1, 0.5, 2, "exp", 5, 0)
    sketch.extend(read_stream_file(str(path)))
    return sketch.to_snapshot()


@pytest.mark.parametrize("weights", ["integer", "exp"])
def test_build_in_blocks_folds_the_bits_of_one_extend(tmp_path, monkeypatch, weights):
    rng = np.random.Generator(np.random.PCG64(31))
    reads = record_reads(monkeypatch, tmp_path)
    path, snap = tmp_path / "s.events", tmp_path / "s.snap"
    edges = (0, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK)
    # a blank line numpy's reader skips; whitespace-only lines it refuses,
    # so the blocks skip them before numpy sees them
    cases = [(size, "") for size in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)]
    for size, spacer in cases + [(2 * BLOCK + 3, " "), (2 * BLOCK + 3, "\t"), (BLOCK + 1, " \t ")]:
        lam = (rng.integers(0, 4, size).astype(float) if weights == "integer"
               else rng.exponential(1.0, size))
        write_events(path, lam, rng.integers(0, 5, size), 5, edges, spacer)
        reads.clear()
        code, out, _ = run_cli(["build", str(path), str(snap), *BUILD_FLAGS])
        assert code == 0 and parse_records(out)[0]["events"] == size
        assert reads() == ["block"] * (size // BLOCK + 1)
        got, want = snap.read_bytes(), one_extend_snapshot(path)
        if weights == "integer":
            assert got == want
            continue
        (got_head, got_tables), (want_head, want_tables) = split_snapshot(got), split_snapshot(want)
        assert got_tables.tobytes() == want_tables.tobytes()
        got_l1, want_l1 = got_head.pop("stream_l1"), want_head.pop("stream_l1")
        assert got_head == want_head
        assert abs(got_l1 - want_l1) <= 1e-15 * want_l1


def test_exact_folds_blocks_to_the_bits_of_the_whole_stream(tmp_path, monkeypatch):
    rng = np.random.Generator(np.random.PCG64(32))
    n, depth = 3, 3
    size = 2 * cli._block_rows(n, depth) + 3
    lam, let = rng.exponential(1.0, size), rng.integers(0, n, size)
    path = tmp_path / "s.events"
    write_events(path, lam, let, n)
    reads = record_reads(monkeypatch, tmp_path)
    code, out, _ = run_cli(["exact", str(path), "--depth", str(depth)])
    assert code == 0 and reads() == ["block"] * 3
    records = parse_records(out)
    assert records[0]["events"] == size
    want = features_from_arrays(lam, let, GradedTensor.unit(n, depth), "exp")
    got = [np.array([r["value"] for r in records[1:] if r["level"] == m]) for m in range(depth + 1)]
    for got_level, want_level in zip(got, want.levels):
        assert got_level.tobytes() == want_level.tobytes()


def test_a_refused_block_reports_the_whole_file_error(tmp_path):
    size = 3 * BLOCK
    path, snap = tmp_path / "s.events", tmp_path / "s.snap"
    lines = [f"1.0\t{i % 5}" for i in range(size)]
    second, third = BLOCK + 7, 2 * BLOCK + 1
    letter = "letter 9 outside alphabet of size 5"
    weight = "event weights must be finite and nonnegative"
    cases = [
        ({second: "1.0 3"}, f"{path}:{second + 2}: expected weight<TAB>letter"),
        ({second: "1.0\t9"}, f"{path}: {letter}"),
        ({second: "-1.0\t3"}, f"{path}: {weight}"),
        # the whole file's letters are checked before its weights
        ({3: "-1.0\t3", third: "1.0\t9"}, f"{path}: {letter}"),
    ]
    for edits, message in cases:
        body = list(lines)
        for i, line in edits.items():
            body[i] = line
        path.write_bytes("".join(f"{line}\n" for line in ["alphabet_size=5", *body]).encode())
        assert run_cli(["build", str(path), str(snap)]) == (2, "", f"ordersketch: data error: {message}\n")
        assert not snap.exists()
        with pytest.raises(DataError) as whole:
            read_stream_file(str(path))
        assert str(whole.value) == message


@pytest.mark.parametrize("command", ["build", "exact"])
@pytest.mark.parametrize("raised", [DeprecationWarning, RuntimeError])
def test_any_exception_in_a_block_reports_the_whole_file_error(tmp_path, monkeypatch, command,
                                                                raised):
    # numpy 1.x warns on the letter "5.0", which `_numpy_rows` raises as an
    # error; so may any exception a block read raises, of whatever type
    path, snap = tmp_path / "s.events", tmp_path / "s.snap"
    bad = BLOCK + 7
    body = [f"1.0\t{i % 5}" for i in range(3 * BLOCK)]
    body[bad] = "1.0\t5.0"
    path.write_bytes("".join(f"{line}\n" for line in ["alphabet_size=5", *body]).encode())
    rows, calls = cli._numpy_rows, FileLog(tmp_path)

    def second_block_raises(lines, count=None):
        calls.append(count)
        if (count is not None and len(calls()) == 2) or (count is None and raised is DeprecationWarning):
            raise raised("fake")
        return rows(lines, count)

    monkeypatch.setattr(cli, "_numpy_rows", second_block_raises)
    args = ["build", str(path), str(snap)] if command == "build" else ["exact", str(path)]
    message = f"{path}:{bad + 2}: malformed event"
    assert run_cli(args) == (2, "", f"ordersketch: data error: {message}\n")
    assert calls()[0] != "None" != calls()[1] and calls()[-1] == "None" and not snap.exists()
    with pytest.raises(DataError) as whole:
        read_stream_file(str(path))
    assert str(whole.value) == message


def test_build_memory_does_not_grow_with_the_stream(tmp_path):
    # the whole-file build grows by about 31 bytes per event
    rng = np.random.Generator(np.random.PCG64(33))
    peaks = []
    for size in (300_000, 900_000):
        path = tmp_path / f"{size}.events"
        write_events(path, np.ones(size), rng.integers(0, 1000, size), 1000)
        peaks.append(traced_peak(run_cli, ["build", str(path), str(tmp_path / "s.snap")]))
    assert size > 2 * BLOCK and abs(peaks[1] - peaks[0]) < 2**20, peaks


def record_body_reads(monkeypatch, tmp_path) -> FileLog:
    """Route every reader of a stream file's body through a recorder of its
    name: the body scan, numpy's reader and the line loop."""
    reads = FileLog(tmp_path)
    for name in ("_numpy_body", "_numpy_rows", "_parse_lines"):
        def recorded(*args, name=name, read=getattr(cli, name)):
            reads.append(name)
            return read(*args)

        monkeypatch.setattr(cli, name, recorded)
    return reads


def test_a_check_that_needs_no_body_reads_no_body_line(tmp_path, monkeypatch):
    # flags, caps, tables and the header are all checked before the body
    size, alphabet_size = 300_000, 10**6
    rng = np.random.Generator(np.random.PCG64(36))
    path, bad_header, snap = tmp_path / "s.events", tmp_path / "h.events", tmp_path / "s.snap"
    write_events(path, rng.exponential(1.0, size), rng.integers(0, 5, size), alphabet_size)
    text = path.read_bytes()
    bad_header.write_bytes(b"alphabet_size=abc" + text[text.index(b"\n"):])
    coords = 1 + alphabet_size + alphabet_size**2
    usage, guard = "ordersketch: usage error: ", "ordersketch: resource guard: "
    cases = [
        (["build", path, snap, "--epsilon", "2"], 1, f"{usage}need 0 < epsilon <= 1\n"),
        (["exact", path], 3, f"{guard}refusing exact run: {coords} coordinates (~{coords * 8} bytes)"
                             " exceed the cap of 2000000; raise --max-coordinates to override\n"),
        (["heavy", path, "--rho", "-1"], 1, f"{usage}thresholds must be finite and > 0\n"),
        # a table too large to allocate: over 7 TiB at level 2
        (["build", path, snap, "--epsilon", "2e-6", "--depth", "3"], 3, f"{guard}out of memory: "),
        (["exact", path, "--depth", "3", "--max-coordinates", str(10**19)], 3,
         f"{guard}out of memory: "),
    ]
    header = f"ordersketch: data error: {bad_header}:1: malformed alphabet size\n"
    for command, rest in (("build", [snap]), ("exact", []), ("heavy", ["--rho", "1"])):
        cases.append(([command, bad_header, *rest], 2, header))
    assert size > 2 * BLOCK
    reads = record_body_reads(monkeypatch, tmp_path)
    for args, code, err in cases:
        outcome = []
        peak = traced_peak(lambda: outcome.append(run_cli([str(a) for a in args])))
        got_code, out, got_err = outcome[0]
        assert (got_code, out, reads(), snap.exists()) == (code, "", [], False), args
        if err.endswith("\n"):
            assert got_err == err
        else:  # numpy's own message follows
            assert got_err.startswith(err) and got_err.count("\n") == 1, got_err
        if code == 2:  # a whole-file read of the bad header's file peaks at tens of MiB
            assert peak < 2**20, (args, peak)


@pytest.mark.parametrize("body", [b"1.0\t3\n1.0 3\n", b"1.0\t3\n" * 2000 + b"\xa0\t1\n"],
                         ids=["malformed line", "non-ASCII byte past the header's 8 KiB"])
def test_a_bad_flag_is_reported_before_a_bad_body(tmp_path, body):
    # the text layer decodes the header with the file's first 8 KiB, so the
    # non-ASCII byte lies past them
    path = tmp_path / "s.events"
    path.write_bytes(b"alphabet_size=5\n" + body)
    for args, message in ((["build", str(path), str(tmp_path / "s.snap"), "--epsilon", "2"],
                           "need 0 < epsilon <= 1"),
                          (["heavy", str(path), "--rho", "-1"], "thresholds must be finite and > 0")):
        assert run_cli(args) == (1, "", f"ordersketch: usage error: {message}\n")
    with pytest.raises(DataError):
        read_stream_file(str(path))


def spy_forks(monkeypatch, allowed: bool) -> list:
    """Record each `os.fork` call; a fork not ``allowed`` raises OSError,
    which the build would answer with a whole-file rerun.  An allowed fork
    sees two CPUs, so that the child runs on a one-CPU machine too."""
    forks, fork = [], os.fork
    if allowed:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def recorded():
        forks.append(os.getpid())
        if not allowed:
            raise OSError("fork refused by the test")
        return fork()

    monkeypatch.setattr(os, "fork", recorded)
    return forks


def test_a_one_block_file_never_forks(tmp_path, monkeypatch):
    rng = np.random.Generator(np.random.PCG64(34))
    path, snap = tmp_path / "s.events", tmp_path / "s.snap"
    forks, reads = spy_forks(monkeypatch, allowed=False), record_reads(monkeypatch, tmp_path)
    for size in (0, 1, BLOCK - 1):
        write_events(path, rng.exponential(1.0, size), rng.integers(0, 5, size), 5)
        reads.clear()
        code, out, _ = run_cli(["build", str(path), str(snap), *BUILD_FLAGS])
        assert code == 0 and parse_records(out)[0]["events"] == size
        assert (forks, reads()) == ([], ["block"])
        assert snap.read_bytes() == one_extend_snapshot(path)


@pytest.mark.parametrize("without", ["fork", "second cpu"])
def test_build_without_the_child_writes_the_same_bytes(tmp_path, monkeypatch, without):
    rng = np.random.Generator(np.random.PCG64(35))
    size = 3 * BLOCK + 5
    path = tmp_path / "s.events"
    write_events(path, rng.exponential(1.0, size), rng.integers(0, 5, size), 5)
    forks = spy_forks(monkeypatch, allowed=True)
    outputs = []
    for run in ("child", "in-process"):
        if run == "in-process":
            if without == "fork":
                monkeypatch.delattr(os, "fork")
            else:
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
                forks = spy_forks(monkeypatch, allowed=False)
        forks.clear()
        reads = record_reads(monkeypatch, tmp_path)
        snap = tmp_path / f"{run}.snap"
        code, out, _ = run_cli(["build", str(path), str(snap), *BUILD_FLAGS])
        assert code == 0 and reads() == ["block"] * 4
        outputs.append((out.replace(str(snap), "SNAP"), snap.read_bytes()))
        assert len(forks) == (run == "child")
    assert outputs[0] == outputs[1]


def test_a_bad_line_in_a_block_the_child_parses_reports_the_whole_file_error(tmp_path, monkeypatch):
    path, snap = tmp_path / "s.events", tmp_path / "s.snap"
    body = [f"1.0\t{i % 5}" for i in range(4 * BLOCK)]
    bad = 2 * BLOCK + 5  # in the third block
    body[bad] = "1.0\tx"
    path.write_bytes("".join(f"{line}\n" for line in ["alphabet_size=5", *body]).encode())
    forks, reads = spy_forks(monkeypatch, allowed=True), record_reads(monkeypatch, tmp_path)
    message = f"{path}:{bad + 2}: malformed event"
    args = ["build", str(path), str(snap), *BUILD_FLAGS]
    assert run_cli(args) == (2, "", f"ordersketch: data error: {message}\n")
    assert len(forks) == 1 and reads() == ["block"] * 3 + ["whole"] and not snap.exists()


@pytest.mark.parametrize("command", ["build", "exact"])
def test_an_overflow_in_a_later_block_is_a_data_error(tmp_path, monkeypatch, command):
    path, snap = tmp_path / "s.events", tmp_path / "s.snap"
    body = [f"1.0\t{i % 5}" for i in range(3 * BLOCK)]
    body[2 * BLOCK + 5] = "1e300\t2"  # its square overflows level 2
    path.write_bytes("".join(f"{line}\n" for line in ["alphabet_size=5", *body]).encode())
    forks = spy_forks(monkeypatch, allowed=True)
    args = ["build", str(path), str(snap), *BUILD_FLAGS] if command == "build" else ["exact", str(path)]
    error = "ordersketch: data error: non-finite value (an overflow or a NaN)\n"
    assert run_cli(args) == (2, "", error)
    assert len(forks) == 1 and not snap.exists()
