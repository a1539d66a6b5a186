"""Byte-level fuzzing of every file reader, through the CLI subcommand that reads it.

Each test starts from a file the package wrote and truncates it, flips bytes
or inserts bytes (non-UTF-8 included).  The subcommand must exit 0, or with
the README's code for its input (3 for malformed data, 2 for a bad config
file) and exactly one ``error:`` line; no exception may escape ``main`` and
no warning may be raised on the way.
"""

import contextlib
import io
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ghostphase import cli, formats

# bytes that steer a parser: separators, signs, exponents, NUL and non-UTF-8
_TOKENS = [b"\n", b"\r", b" ", b"#", b"=", b",", b":", b"-", b"+", b"e", b"0", b"9", b".",
           b"nan", b"inf", b"1e999", b"\x00", b"\xff", b"\xc3", b"\xe2\x80", b"{", b"[", b"'",
           b"_"]


@st.composite
def _mutations(draw):
    """Up to three edits, each a (kind, position in [0, 1], payload) triple."""
    edit = st.tuples(st.sampled_from(["truncate", "flip", "insert"]),
                     st.floats(0, 1),
                     st.one_of(st.sampled_from(_TOKENS), st.binary(min_size=1, max_size=8)))
    return draw(st.lists(edit, min_size=1, max_size=3))


def _mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, where, payload in edits:
        pos = int(where * len(out))
        if kind == "truncate":
            del out[pos:]
        elif kind == "flip" and pos < len(out):
            out[pos] ^= payload[0] or 1
        elif kind == "insert":
            out[pos:pos] = payload
    return bytes(out)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """One small pipeline run: every file format the package writes."""
    out = tmp_path_factory.mktemp("written")
    assert cli.main(["pipeline", "--d", "4", "--out", str(out)]) == 0
    return out


def _run(argv, *allowed):
    """Run the CLI in-process with every warning an error; check its exit code and stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    stderr = err.getvalue()
    assert code in (0, *allowed), stderr
    if code:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    else:
        assert stderr == ""


def _case(written, name, edits, work):
    """Copy the written files into ``work`` with ``name`` mutated."""
    for path in written.iterdir():
        shutil.copy(path, work / path.name)
    (work / name).write_bytes(_mutate((written / name).read_bytes(), edits))
    return work


_FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# The @example edits below found defects; their positions are fractions of the
# d=4 pipeline's files, so each one hits the byte named in its comment.


@_FUZZ
@given(name=st.sampled_from(["series_cos.csv", "series_sin.csv"]), edits=_mutations())
# '.' -> 'e' in row 0 reads 0e16...: a zero reference sample, which exited 2
@example(name="series_cos.csv", edits=[("flip", 0.1478, b"K")])
def test_reconstruct_survives_mutated_series(written, name, edits):
    with tempfile.TemporaryDirectory() as tmp:
        work = _case(written, name, edits, Path(tmp))
        _run(["reconstruct", "--d", "4", "--cos", str(work / "series_cos.csv"),
              "--sin", str(work / "series_sin.csv"), "--out", str(work / "out")], 3)


@_FUZZ
@given(name=st.sampled_from(["phase.gcf", "support.gcf", "object.gcf"]), edits=_mutations())
# one truth pixel near -1e306 leaves no other pixel in its support, which exited 2
@example(name="object.gcf", edits=[("flip", 0.796875, b"\xff")])
def test_analyze_survives_mutated_fields(written, name, edits):
    with tempfile.TemporaryDirectory() as tmp:
        work = _case(written, name, edits, Path(tmp))
        _run(["analyze", "--d", "4", "--phase", str(work / "phase.gcf"),
              "--support", str(work / "support.gcf"), "--truth", str(work / "object.gcf"),
              "--out", str(work / "out")], 3)


@_FUZZ
@given(edits=_mutations())
# an object value near 1e154 overflowed |<T|O>|^2 with a RuntimeWarning
@example(edits=[("flip", 0.625, b"[")])
def test_acquire_survives_a_mutated_object(written, edits):
    with tempfile.TemporaryDirectory() as tmp:
        work = _case(written, "object.gcf", edits, Path(tmp))
        _run(["acquire", "--d", "4", "--object", str(work / "object.gcf"),
              "--out", str(work / "out")], 3)


@_FUZZ
@given(edits=_mutations())
# an int key: sorting and joining the unknown keys raised TypeError
@example(edits=[("insert", 0.0, b"1: 2\n")])
def test_config_file_survives_mutation(written, edits):
    # gen-masks at a fixed --d reads and validates the whole config but stays
    # small whatever sizes the mutated file asks for
    with tempfile.TemporaryDirectory() as tmp:
        work = _case(written, "resolved_config.yaml", edits, Path(tmp))
        _run(["gen-masks", "--d", "4", "--count", "1", "--config",
              str(work / "resolved_config.yaml"), "--out", str(work / "out")], 2)


@_FUZZ
@given(edits=_mutations())
# "-4 -4": the payload size matched and reshape raised ValueError
@example(edits=[("insert", 0.078, b"-"), ("insert", 0.141, b"-")])
def test_read_pgm_raises_only_data_errors(written, edits):
    # no subcommand reads a PGM, so the reader is fuzzed directly
    with tempfile.TemporaryDirectory() as tmp:
        path = _case(written, "phase.pgm", edits, Path(tmp)) / "phase.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                pixels = formats.read_pgm(path)
            except formats.DataError:
                return
        assert pixels.ndim == 2 and pixels.dtype.kind == "i"
