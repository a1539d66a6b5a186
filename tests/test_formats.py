import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghostphase import (OrthoMatrix, make_object, measure_exact,
                        sample_counts)
from ghostphase.acquisition import Scan
from ghostphase.formats import (DataError, _repr_table, read_field, read_series,
                                write_field, write_mask_text, write_pgm, write_series)

from conftest import pgm_oracle, random_complex_object


def test_complex_field_round_trip_bit_exact(tmp_path):
    path = tmp_path / "field.gcf"
    obj = random_complex_object(16, seed=1) * np.pi
    # signed zeros in either part: np.array_equal would not tell -0.0 from 0.0
    obj.flat[:4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j]
    write_field(path, obj, "complex")
    back, kind = read_field(path)
    assert kind == "complex"
    assert back.dtype == complex
    assert np.array_equal(back.view(np.uint64), obj.view(np.uint64))   # bit-exact


def test_real_and_phase_field_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(8, 8))
    for kind in ("real", "phase"):
        path = tmp_path / f"{kind}.gcf"
        write_field(path, data, kind)
        back, got_kind = read_field(path)
        assert got_kind == kind
        assert np.array_equal(back, data)


def test_field_header_bytes(tmp_path):
    path = tmp_path / "f.gcf"
    write_field(path, np.zeros((4, 4)), "real")
    raw = path.read_bytes()
    assert raw.startswith(b"GCF1\nd=4 kind=real\n")
    assert len(raw) == len(b"GCF1\nd=4 kind=real\n") + 16 * 8


def test_field_validation_errors(tmp_path):
    with pytest.raises(DataError):
        write_field(tmp_path / "x.gcf", np.zeros((4, 4)), "bogus")
    with pytest.raises(DataError):
        write_field(tmp_path / "x.gcf", np.zeros((4, 6)), "real")
    with pytest.raises(DataError):
        write_field(tmp_path / "x.gcf", np.zeros((4, 4), complex), "real")
    bad = tmp_path / "bad.gcf"
    bad.write_bytes(b"NOPE\nd=4 kind=real\n" + b"\0" * 128)
    with pytest.raises(DataError):
        read_field(bad)
    truncated = tmp_path / "trunc.gcf"
    truncated.write_bytes(b"GCF1\nd=4 kind=real\n" + b"\0" * 64)
    with pytest.raises(DataError):
        read_field(truncated)


def test_field_payload_is_sized_before_it_is_read(tmp_path):
    path = tmp_path / "f.gcf"
    write_field(path, np.arange(16.0).reshape(4, 4), "real")
    raw = path.read_bytes()
    back, _ = read_field(path)
    back[0, 0] = -1.0   # the array is the reader's own
    (tmp_path / "long.gcf").write_bytes(raw + b"\0")
    with pytest.raises(DataError, match="payload is 129 bytes, expected 128"):
        read_field(tmp_path / "long.gcf")
    # a header claiming 1.6e17 payload bytes allocates nothing
    (tmp_path / "forged.gcf").write_bytes(b"GCF1\nd=100000000 kind=complex\n" + raw[-128:])
    with pytest.raises(DataError, match="payload is 128 bytes, expected 160000000000000000"):
        read_field(tmp_path / "forged.gcf")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
@pytest.mark.parametrize("tail, error", [(0, None), (1, "payload is 129 bytes"), (-3, "payload is 125 bytes")])
def test_field_reads_from_a_pipe(tmp_path, tail, error):
    path = tmp_path / "f.gcf"
    write_field(path, np.arange(16.0).reshape(4, 4), "real")
    raw = path.read_bytes()
    raw = raw + b"\0" * tail if tail >= 0 else raw[:tail]
    r, w = os.pipe()
    try:
        os.write(w, raw)
        os.close(w)
        if error is None:
            back, kind = read_field(f"/dev/fd/{r}")
            assert kind == "real" and np.array_equal(back, np.arange(16.0).reshape(4, 4))
        else:
            with pytest.raises(DataError, match=error):
                read_field(f"/dev/fd/{r}")
    finally:
        os.close(r)


def test_series_round_trip_exact(tmp_path):
    H = OrthoMatrix(16)
    scan = measure_exact(make_object("pi-slit-phase", 16), H)
    path = tmp_path / "series.csv"
    write_series(path, scan, "cos")
    kind, header, values = read_series(path)
    assert kind == "cos" and header["basis"].dim == 16 and header["basis"] == scan.basis
    assert header["flux"] is None and header["seed"] is None
    assert np.array_equal(values, scan.cos)   # repr round trip is exact
    assert sum(1 for line in path.read_text().splitlines()
               if line and not line.startswith("#")) == 256


@pytest.mark.parametrize("header", ["d=8 basis=hadamard:bogus", "d=6 basis=hadamard:natural",
                                    "d=8 basis=permuted:05"])
def test_a_series_header_that_names_no_basis_is_rejected_as_it_is_read(tmp_path, header):
    # a basis=hadamard:bogus series used to be read, and only reconstruct's second parse of
    # its header rejected it, blaming both files
    path = tmp_path / "series.csv"
    write_series(path, measure_exact(make_object("flat", 8), OrthoMatrix(8)), "cos")
    path.write_text(path.read_text().replace("d=8 basis=hadamard:natural", header, 1))
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: bad series header value"):
        read_series(path)


def test_series_round_trip_sampled(tmp_path):
    H = OrthoMatrix(8)
    noisy = sample_counts(measure_exact(make_object("flat", 8), H), 1e5, seed=4)
    path = tmp_path / "noisy.csv"
    write_series(path, noisy, "sin")
    kind, header, values = read_series(path)
    assert kind == "sin" and header == {"basis": H, "flux": 1e5, "seed": 4}
    assert not Scan(cos=values, sin=values, **header).exact
    assert np.array_equal(values, noisy.sin)


def test_series_rejects_gaps_and_negatives(tmp_path):
    good = tmp_path / "good.csv"
    H = OrthoMatrix(2)
    write_series(good, measure_exact(make_object("flat", 2), H), "cos")
    lines = good.read_text().splitlines()

    missing = tmp_path / "missing.csv"
    missing.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DataError):
        read_series(missing)

    negative = tmp_path / "negative.csv"
    negative.write_text("\n".join(lines[:-1] + ["3,-0.25"]) + "\n")
    with pytest.raises(DataError):
        read_series(negative)

    headerless = tmp_path / "headerless.csv"
    headerless.write_text("\n".join(lines[1:]) + "\n")
    with pytest.raises(DataError):
        read_series(headerless)


def _row_by_row_read_values(path):
    """The per-row reader `read_series` replaced, kept as the parity reference.

    Returns the values it accepted, or None where it rejected the file.
    """
    meta, rows = {}, []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("#"):
                    meta.update(item.split("=", 1) for item in line[1:].split())
                elif line:
                    j_str, v_str = line.split(",")
                    rows.append((int(j_str), float(v_str)))
        d = int(meta["d"])
    except (ValueError, KeyError):
        return None
    values = np.array([v for _, v in rows])
    if ([j for j, _ in rows] != list(range(d * d)) or not np.all(np.isfinite(values))
            or (values < 0).any()):
        return None
    return values


HEADER = b"# d=2 basis=hadamard:natural kind=cos flux=exact seed=none\n"
ROWS = b"0,0.5\n1,0.25\n2,0.125\n3,1.0\n"
GOOD = [0.5, 0.25, 0.125, 1.0]


def _row1(text):
    return HEADER + ROWS.replace(b"\n1,0.25\n", b"\n" + text + b"\n")


STRICTER = "DataError; the row-by-row reader accepted it"

# (file bytes, the values `read_series` returns, DataError or STRICTER)
SERIES_PARITY = [
    pytest.param(HEADER + ROWS, GOOD, id="good"),
    pytest.param((HEADER + ROWS).replace(b"\n", b"\r\n"), GOOD, id="crlf"),
    pytest.param(_row1(b" 1 ,0.25"), GOOD, id="j-padded"),
    pytest.param(_row1(b"+1,0.25"), GOOD, id="j-plus-sign"),
    pytest.param(b"  " + HEADER + ROWS, GOOD, id="indented-header"),
    pytest.param(b"\n" + HEADER + b"\n" + ROWS + b"\n", GOOD, id="blank-lines-around-rows"),
    pytest.param(_row1(b"1.0,0.25"), DataError, id="j-float"),
    pytest.param(_row1(b"1,nan"), DataError, id="value-nan"),
    pytest.param(_row1(b"1,inf"), DataError, id="value-inf"),
    pytest.param(_row1(b"1,0.25,3"), DataError, id="three-columns"),
    pytest.param(_row1(b"1"), DataError, id="one-column"),
    pytest.param(_row1(b"1,"), DataError, id="empty-value"),
    pytest.param(_row1(b"1,0.25 # x"), DataError, id="trailing-comment"),
    pytest.param(_row1(b"0x10,0.25"), DataError, id="j-hex"),
    pytest.param(_row1(b"1,0. 25"), DataError, id="value-inner-space"),
    pytest.param(HEADER, DataError, id="header-without-rows"),
    pytest.param(b"", DataError, id="empty-file"),
    pytest.param(HEADER.replace(b"d=2", b"d=4") + ROWS, DataError, id="d-not-row-count"),
    pytest.param(_row1(b"12345678901234567890,0.25"), DataError, id="j-20-digits"),
    pytest.param(_row1(b"5,0.25"), DataError, id="j-out-of-range"),
    pytest.param(HEADER + b"0,0.5\n2,0.125\n1,0.25\n3,1.0\n", DataError, id="rows-out-of-order"),
    pytest.param(_row1(b"1,\xff0.25"), DataError, id="not-utf8"),
    pytest.param(_row1(b"   \n1,0.25"), STRICTER, id="whitespace-line-between-rows"),
    pytest.param(_row1(b"# x=1\n1,0.25"), STRICTER, id="header-line-after-rows"),
    pytest.param(_row1(b"0_1,0.25"), STRICTER, id="j-digit-separator"),
    pytest.param(_row1(b"1,0_25"), STRICTER, id="value-digit-separator"),
    pytest.param(HEADER.replace(b"d=2", b"d=-2") + ROWS, STRICTER, id="d-negative"),
    pytest.param(HEADER.replace(b"d=2", b"d=1") + b"0,0.5\n", STRICTER, id="d-1"),
    # a sampled series names its flux and its seed, an exact one neither
    pytest.param(HEADER.replace(b"seed=none", b"seed=5") + ROWS, STRICTER, id="exact-with-seed"),
    pytest.param(HEADER.replace(b"flux=exact", b"flux=1000000.0") + ROWS, STRICTER, id="flux-without-seed"),
]


@pytest.mark.parametrize("raw, expected", SERIES_PARITY)
def test_read_series_parity_table(tmp_path, raw, expected):
    path = tmp_path / "series.csv"
    path.write_bytes(raw)
    reference = _row_by_row_read_values(path)
    if expected in (DataError, STRICTER):
        with pytest.raises(DataError):
            read_series(path)
        assert (reference is not None) == (expected is STRICTER)
    else:
        values = read_series(path)[2]
        assert values.tolist() == expected and np.array_equal(values, reference)


# sizes a basis scans: a header's basis is a power of two wide
@settings(max_examples=200, deadline=None)
@given(values=st.sampled_from([2, 4]).flatmap(lambda d: st.lists(st.one_of(
    st.floats(0.0, allow_nan=False, allow_infinity=False),
    st.integers(0, 2 ** 60).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072009e-308, 1e16, 1.7976931348623157e308])),
    min_size=d * d, max_size=d * d)))
@example(values=[0.0, 5e-324, 1e16, 12345.0])
@example(values=[2.5e-320, float(2 ** 53 + 2), 1e300, 7.0])
def test_series_round_trip_is_bit_identical(tmp_path_factory, values):
    d = int(len(values) ** 0.5)
    written = np.array(values, dtype=np.float64)
    scan = Scan(OrthoMatrix(d, seed=7), written, written, flux=1e9, seed=3)
    path = tmp_path_factory.mktemp("series") / "series.csv"
    write_series(path, scan, "sin")
    _, header, values = read_series(path)
    assert header["basis"] == scan.basis and values.dtype == np.float64
    assert np.array_equal(values.view(np.uint64), written.view(np.uint64))


def _write_series_rowwise(path, scan, kind):
    """The row-by-row writer `write_series` must match byte for byte."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# d={scan.basis.dim} basis={scan.basis.descriptor} kind={kind}"
                 f" flux={'exact' if scan.exact else scan.flux}"
                 f" seed={'none' if scan.seed is None else scan.seed}\n")
        for j, v in enumerate(getattr(scan, kind)):
            fh.write(f"{j},{float(v)!r}\n")


# N = d*d rows: d=1, every index width up to 5 digits, and up to 7 row blocks of `formats._ROWS`
SERIES_DIMS = [2 ** k for k in range(9)]
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                  -2.2250738585072014e-308, -1.7976931348623157e308, float("nan"),
                  float("inf"), float("-inf"), 1e16, 1e22, 123456789012345.67]


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from(SERIES_DIMS),
       pool=st.lists(st.one_of(st.floats(), st.integers(-2 ** 60, 2 ** 60).map(float),
                               st.sampled_from(SPECIAL_FLOATS)), min_size=1, max_size=12),
       spread=st.booleans(), seed=st.integers(0, 2 ** 32 - 1), exact=st.booleans())
@example(d=SERIES_DIMS[-1], pool=[-0.0], spread=True, seed=0, exact=True)
def test_write_series_matches_rowwise_writer(tmp_path_factory, d, pool, spread, seed, exact):
    rng = np.random.default_rng(seed)
    n = d * d
    values = np.array(pool)[rng.integers(len(pool), size=n)]
    if spread:
        # mostly distinct values, so the larger sizes need several repr batches
        fresh = rng.random(n) < 0.9
        values[fresh] = rng.random(fresh.sum()) * 10.0 ** rng.integers(-330, 309, fresh.sum())
    scan = Scan(OrthoMatrix(d, "sequency"), values, values[::-1],
                flux=None if exact else 1e9, seed=None if exact else 7)
    folder = tmp_path_factory.mktemp("series")
    for kind in ("cos", "sin"):
        write_series(folder / f"fast_{kind}.csv", scan, kind)
        _write_series_rowwise(folder / f"rowwise_{kind}.csv", scan, kind)
        assert (folder / f"fast_{kind}.csv").read_bytes() == (folder / f"rowwise_{kind}.csv").read_bytes()


def _powers_and_neighbours():
    powers = np.array([2.0 ** e for e in range(-1074, 1024)] + [10.0 ** e for e in range(-323, 309)])
    return np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)])


# seeded value sets whose formatted table must equal repr's, value for value
REPR_ORACLE_SETS = {
    "uniform": lambda rng: rng.random(50_000),
    "uniform-micro": lambda rng: rng.random(50_000) * 1e-6,
    "log-uniform": lambda rng: 10.0 ** rng.uniform(-330, 308.25, 50_000),
    "bit-patterns": lambda rng: rng.integers(0, 2 ** 64, 50_000, dtype=np.uint64).view(np.float64),
    "integers": lambda rng: rng.integers(0, 2 ** 60, 50_000, endpoint=True).astype(np.float64),
    "short-decimals": lambda rng: rng.integers(0, 10 ** 6, 50_000) / 10.0 ** rng.integers(0, 18, 50_000),
    "powers-and-neighbours": lambda rng: _powers_and_neighbours(),
    "specials": lambda rng: np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
         float("inf"), float("-inf"), float("nan"), 1e23, 9.999999999999999e22],
        rng.integers(1, 2 ** 52, 1000, dtype=np.uint64).view(np.float64)]),    # subnormals
}


@pytest.mark.parametrize("name", list(REPR_ORACLE_SETS))
def test_repr_table_matches_repr(name):
    values = REPR_ORACLE_SETS[name](np.random.default_rng(list(REPR_ORACLE_SETS).index(name)))
    bits = np.unique(values.view(np.uint64))
    table, slow = _repr_table(bits)
    assert table.dtype == np.dtype("S24")
    assert table.tolist() == [repr(v).encode() for v in bits.view(np.float64).tolist()]
    if name.startswith("uniform"):
        assert slow.mean() <= 0.01


def test_most_distinct_values_of_an_exact_series_skip_repr():
    # a fallback that fires too often would quietly cost what the formatter saves
    scan = measure_exact(make_object("azimuthal-ring-phase", 64), OrthoMatrix(64))
    for values in (scan.cos, scan.sin):
        bits = np.unique(values.view(np.uint64))
        assert bits.size > 2000
        assert _repr_table(bits)[1].mean() <= 0.01


def _pgm_pixels(path):
    """The 16-bit samples of a P5 file written by write_pgm."""
    raw = path.read_bytes()
    magic, size, maxval, payload = raw.split(b"\n", 3)
    assert magic == b"P5" and maxval == b"65535"
    w, h = (int(t) for t in size.split())
    return np.frombuffer(payload, dtype=">u2").reshape(h, w)


def test_pgm_header_and_encoding(tmp_path):
    path = tmp_path / "img.pgm"
    data = np.array([[0.0, 0.5], [0.25, 1.0]])
    write_pgm(path, data, lo=0.0, hi=1.0)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n65535\n")
    pixels = _pgm_pixels(path)
    assert pixels[0, 0] == 0 and pixels[1, 1] == 65535
    assert pixels[0, 1] == round(0.5 * 65535)


def test_pgm_invalid_pixels_forced_to_zero(tmp_path):
    path = tmp_path / "img.pgm"
    invalid = np.zeros((2, 2), bool)
    invalid[0, 0] = True
    write_pgm(path, np.ones((2, 2)), lo=0.0, hi=1.0, invalid=invalid)
    back = _pgm_pixels(path)
    assert back[0, 0] == 0 and back[1, 1] == 65535


def test_pgm_flat_image_does_not_divide_by_zero(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm(path, np.full((3, 3), 0.7))
    back = _pgm_pixels(path)
    assert back.shape == (3, 3) and np.all(back == back[0, 0])


def test_mask_text_layout(tmp_path):
    path = tmp_path / "mask.txt"
    write_mask_text(path, np.array([[1, -1], [-1, 1]]), "basis", 3)
    assert path.read_text() == "# kind=basis j=3 d=2\n1 -1\n-1 1\n"


@pytest.mark.parametrize("order", ["C", "F"])
def test_pgm_bytes_match_the_whole_grid_oracle(tmp_path, order):
    # values reach past both ends of [lo, hi]
    d = 256
    rng = np.random.default_rng(12)
    data = np.asarray(rng.normal(size=(d, d)), order=order)
    data[:3] = 0.5                      # ties that round half to even
    invalid = rng.random((d, d)) < 0.2
    for kwargs in ({}, {"lo": -1.0, "hi": 1.0}, {"lo": -np.pi, "hi": np.pi, "invalid": invalid},
                   {"lo": 0.0}, {"lo": 2.0, "hi": 2.0}):
        path = tmp_path / "img.pgm"
        write_pgm(path, data, **kwargs)
        assert path.read_bytes() == pgm_oracle(data, **kwargs)


@pytest.mark.parametrize("kind", ["basis", "cos", "sin"])
def test_mask_text_matches_savetxt(tmp_path, kind):
    # gen-masks' three grids of a d=256 mask, as cmd_gen_masks builds them
    signs = np.where(OrthoMatrix(256, seed=3).mask(77) > 0, 1, -1)
    grid = (signs > 0).astype(int) if kind == "cos" else signs
    path = tmp_path / "mask.txt"
    write_mask_text(path, grid, kind, 77)
    with open(tmp_path / "savetxt.txt", "w", newline="\n") as fh:
        fh.write(f"# kind={kind} j=77 d=256\n")
        np.savetxt(fh, grid, fmt="%d")
    assert path.read_bytes() == (tmp_path / "savetxt.txt").read_bytes()


def test_mask_text_spells_any_integer_as_savetxt(tmp_path):
    rng = np.random.default_rng(5)
    for grid in (np.array([[0]]), rng.integers(-10 ** 12, 10 ** 12, (7, 3)), rng.integers(0, 2, (1, 300)),
                 rng.integers(-1, 2, (300, 1))):
        path = tmp_path / "mask.txt"
        write_mask_text(path, grid, "basis", 0)
        with open(tmp_path / "savetxt.txt", "w", newline="\n") as fh:
            fh.write(f"# kind=basis j=0 d={grid.shape[0]}\n")
            np.savetxt(fh, grid, fmt="%d")
        assert path.read_bytes() == (tmp_path / "savetxt.txt").read_bytes()


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_field_row_blocks_hold_the_bytes_of_the_whole_grid(tmp_path, kind):
    # d=256 is written in four row blocks; a Fortran-ordered block is converted on its own
    field = random_complex_object(256, seed=4)
    if kind == "real":
        field = field.real
    for view in (field, np.asfortranarray(field)):
        write_field(tmp_path / "f.gcf", view, kind)
        header = f"GCF1\nd=256 kind={kind}\n".encode()
        assert (tmp_path / "f.gcf").read_bytes() == header + np.ascontiguousarray(field).tobytes()
