import numpy as np
import pytest

from ghostphase import ObjectSpec, hadamard_matrix, make_object, measure_exact, sample_counts
from ghostphase.formats import (DataError, read_field, read_pgm, read_series,
                                write_field, write_mask_text, write_pgm, write_series)

from conftest import random_complex_object


def test_complex_field_round_trip_bit_exact(tmp_path):
    path = tmp_path / "field.gcf"
    obj = random_complex_object(16, seed=1) * np.pi
    write_field(path, obj, "complex")
    back, kind = read_field(path)
    assert kind == "complex"
    assert back.dtype == complex
    assert np.array_equal(back, obj)   # bit-exact, no tolerance


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


def test_series_round_trip_exact(tmp_path):
    H = hadamard_matrix(16)
    series = measure_exact(make_object(ObjectSpec(kind="pi-slit-phase"), 16), H, "cos")
    path = tmp_path / "series.csv"
    write_series(path, series)
    back = read_series(path)
    assert back.kind == "cos" and back.dim == 16 and back.basis == series.basis
    assert back.flux is None and back.seed is None
    assert np.array_equal(back.values, series.values)   # repr round trip is exact
    assert sum(1 for line in path.read_text().splitlines()
               if line and not line.startswith("#")) == 256


def test_series_round_trip_sampled(tmp_path):
    H = hadamard_matrix(8)
    series = measure_exact(make_object(ObjectSpec(kind="flat"), 8), H, "sin")
    noisy = sample_counts(series, 1e5, seed=4)
    path = tmp_path / "noisy.csv"
    write_series(path, noisy)
    back = read_series(path)
    assert back.flux == 1e5 and back.seed == 4 and not back.exact
    assert np.array_equal(back.values, noisy.values)


def test_series_rejects_gaps_and_negatives(tmp_path):
    good = tmp_path / "good.csv"
    H = hadamard_matrix(2)
    series = measure_exact(make_object(ObjectSpec(kind="flat"), 2), H, "cos")
    write_series(good, series)
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


def test_pgm_header_and_encoding(tmp_path):
    path = tmp_path / "img.pgm"
    data = np.array([[0.0, 0.5], [0.25, 1.0]])
    write_pgm(path, data, lo=0.0, hi=1.0)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n65535\n")
    pixels = np.frombuffer(raw[len(b"P5\n2 2\n65535\n"):], dtype=">u2").reshape(2, 2)
    assert pixels[0, 0] == 0 and pixels[1, 1] == 65535
    assert pixels[0, 1] == round(0.5 * 65535)
    back = read_pgm(path)
    np.testing.assert_array_equal(back, pixels.astype(int))


def test_pgm_invalid_pixels_forced_to_zero(tmp_path):
    path = tmp_path / "img.pgm"
    invalid = np.zeros((2, 2), bool)
    invalid[0, 0] = True
    write_pgm(path, np.ones((2, 2)), lo=0.0, hi=1.0, invalid=invalid)
    back = read_pgm(path)
    assert back[0, 0] == 0 and back[1, 1] == 65535


def test_pgm_flat_image_does_not_divide_by_zero(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm(path, np.full((3, 3), 0.7))
    back = read_pgm(path)
    assert np.all(back == back[0, 0])


def test_read_pgm_rejects_other_formats(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(DataError):
        read_pgm(bad)
    eight_bit = tmp_path / "eight.pgm"
    eight_bit.write_bytes(b"P5\n2 2\n255\n" + b"\0" * 4)
    with pytest.raises(DataError):
        read_pgm(eight_bit)


@pytest.mark.parametrize("raw", [
    pytest.param(b"P5\n4 4\n65535\n" + b"\0" * 2, id="truncated"),
    pytest.param(b"P5\n2 2\n65535\n" + b"\0" * 10, id="trailing-bytes"),
    pytest.param(b"P5\n4\n65535\n" + b"\0" * 8, id="one-size-token"),
    pytest.param(b"P5\n2 2\nmany\n" + b"\0" * 8, id="bad-maxval"),
])
def test_read_pgm_rejects_bad_payload_and_header(tmp_path, raw):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(DataError):
        read_pgm(path)


def test_mask_text_layout(tmp_path):
    path = tmp_path / "mask.txt"
    write_mask_text(path, np.array([[1, -1], [-1, 1]]), "basis", 3)
    assert path.read_text() == "# kind=basis j=3 d=2\n1 -1\n-1 1\n"
