import numpy as np
import pytest

from ghostphase import (OrthoMatrix, apply_illumination, disc_mask, fwht2, make_object,
                        normalize)
from ghostphase.analysis import wrap

import hashlib

from conftest import disc_pixel_count, naive_overlap, random_complex_object

PHASE_KINDS = ["pi-slit-phase", "azimuthal-ring-phase", "spiral-flower-phase"]
ALL_KINDS = ["flat", "double-slit-amplitude", "annulus-amplitude"] + PHASE_KINDS


def test_flat_object_is_uniform():
    obj = make_object("flat", 4)
    np.testing.assert_allclose(obj, np.full((4, 4), 0.25), atol=1e-14)


def test_pi_slit_columns():
    obj = make_object("pi-slit-phase", 32)
    support = np.abs(obj) > 0
    phase = np.angle(obj)
    inside = disc_mask(32, 0.44 * 32)
    cols = np.arange(32)[np.newaxis, :] * np.ones((32, 1), int)
    slit = inside & (cols >= 14) & (cols <= 17)
    assert np.all(np.abs(phase[slit] - np.pi) < 1e-12)
    assert np.all(np.abs(phase[support & ~slit]) < 1e-12)


def test_azimuthal_ring_phase_linear_in_azimuth():
    d = 32
    obj = make_object("azimuthal-ring-phase", d, annulus_radii=(8, 12))
    c = d / 2 - 0.5
    for k in range(16):
        theta = 2 * np.pi * k / 16
        x = int(round(c + 10 * np.cos(theta)))
        y = int(round(c + 10 * np.sin(theta)))
        expected = np.mod(np.arctan2(y - c, x - c), 2 * np.pi)
        assert np.angle(obj[y, x]) == pytest.approx(float(wrap(expected)), abs=1e-12)


def test_phase_objects_have_constant_amplitude_on_support():
    for kind in PHASE_KINDS:
        obj = make_object(kind, 32)
        mags = np.abs(obj)[np.abs(obj) > 0]
        assert mags.max() - mags.min() < 1e-12


def test_geometry_exceeding_grid_rejected():
    with pytest.raises(ValueError, match=r"bad annulus radii \(4, 40\)"):
        make_object("annulus-amplitude", 16, annulus_radii=(4, 40))
    with pytest.raises(ValueError, match="slit does not fit inside the grid"):
        make_object("pi-slit-phase", 16, slit_width=40)
    with pytest.raises(ValueError, match="unknown object kind 'no-such-kind'"):
        make_object("no-such-kind", 16)


def test_negative_illumination_radius_rejected():
    # the config rejects it first, so only a library call reaches this check
    with pytest.raises(ValueError, match="^illumination radius must be nonnegative$"):
        make_object("flat", 16, illumination_radius=-0.5)


@pytest.mark.parametrize("kind", ["pi-slit-phase", "double-slit-amplitude"])
@pytest.mark.parametrize("width", [0, -3])
def test_slit_narrower_than_one_pixel_rejected(kind, width):
    with pytest.raises(ValueError, match=f"^slit width must be at least 1, got {width}$"):
        make_object(kind, 16, slit_width=width)


def test_illumination_full_and_empty():
    obj = random_complex_object(8, 0)
    np.testing.assert_array_equal(apply_illumination(obj, 8), obj)
    assert np.all(apply_illumination(obj, 0)[1:, 1:] == 0)


def test_illumination_support_count_matches_rasterization():
    d, radius = 32, 14
    flat = np.ones((d, d), complex)
    out = apply_illumination(flat, radius)
    assert int(np.count_nonzero(out)) == disc_pixel_count(d, radius)


def _spectrum(obj, H):
    """Probabilities p_j = |<M_j|O>|^2 and phases alpha_j = arg<M_j|O>, flat."""
    coeffs = fwht2(obj, H).ravel()
    return np.abs(coeffs) ** 2, np.angle(coeffs)


def test_decompose_flat_is_dc_only():
    p, alpha = _spectrum(make_object("flat", 4), OrthoMatrix(4))
    assert p[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(p[1:] < 1e-24)
    assert alpha[0] == pytest.approx(0.0, abs=1e-12)


def test_decompose_basis_element():
    H = OrthoMatrix(2)
    p, _ = _spectrum(H.mask(3).astype(complex), H)
    np.testing.assert_allclose(p, [0, 0, 0, 1], atol=1e-12)


def test_decompose_matches_naive_overlaps():
    H = OrthoMatrix(4)
    obj = make_object("pi-slit-phase", 4)
    p, _ = _spectrum(obj, H)
    for j in range(16):
        expected = abs(naive_overlap(H.mask(j), obj)) ** 2
        assert p[j] == pytest.approx(expected, abs=1e-12)


def test_probabilities_sum_to_one():
    H = OrthoMatrix(16)
    for kind in ALL_KINDS:
        p, _ = _spectrum(make_object(kind, 16), H)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_compose_round_trip(kind):
    # the object is the transform of its spectrum sqrt(p) e^{i alpha}
    H = OrthoMatrix(16)
    obj = make_object(kind, 16)
    p, alpha = _spectrum(obj, H)
    composed = fwht2((np.sqrt(p) * np.exp(1j * alpha)).reshape(16, 16), H)
    np.testing.assert_allclose(composed, obj, atol=1e-10)


def test_global_phase_covariance():
    H = OrthoMatrix(8)
    obj = random_complex_object(8, 5)
    beta = 0.83
    p_a, alpha_a = _spectrum(obj, H)
    p_b, alpha_b = _spectrum(np.exp(1j * beta) * obj, H)
    np.testing.assert_allclose(p_a, p_b, atol=1e-12)
    np.testing.assert_allclose(wrap(alpha_b - alpha_a - beta), 0, atol=1e-9)


def test_normalize_unit_energy():
    # numpy.linalg.norm is the oracle; its BLAS dot product sums in another order
    for d in (8, 256):
        field = random_complex_object(d, 2) * 7.3
        obj = normalize(field)
        assert np.sum(np.abs(obj) ** 2) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(obj, field / np.linalg.norm(field), rtol=1e-14, atol=0)


# sha256 of make_object(kind, 64).tobytes(), default and illumination radius 20, recorded
# from the whole-array form normalize(apply_illumination(obj, radius)) before it became in place
GOLDEN_OBJECTS = {
    "flat": ("16fa466354a07191", "54b804042a6d3d39"),
    "double-slit-amplitude": ("98f7f2967ce5a8da", "ac3681fa1e69378e"),
    "annulus-amplitude": ("b263acfbce85a700", "7ff89d512901ba95"),
    "pi-slit-phase": ("f2887045246d3b0d", "3cf1383f4f6ebcc9"),
    "azimuthal-ring-phase": ("f9aa129ae93736f4", "9fbacc1adc7f18ed"),
    "spiral-flower-phase": ("9ab01be25def2b5d", "ee15a59ea71a75a9"),
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_objects_match_golden_digests(kind):
    digests = tuple(hashlib.sha256(make_object(kind, 64, **kw).tobytes()).hexdigest()[:16]
                    for kw in ({}, {"illumination_radius": 20.0}))
    assert digests == GOLDEN_OBJECTS[kind]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_make_object_equals_normalize_of_apply_illumination(kind):
    # the in-place illumination and normalization against the public whole-array pair,
    # on a field the disc leaves alone (radius past the corners)
    d = 32
    wide = make_object(kind, d, illumination_radius=d)
    np.testing.assert_allclose(normalize(apply_illumination(wide, 10.0)),
                               make_object(kind, d, illumination_radius=10.0), rtol=0, atol=1e-15)
