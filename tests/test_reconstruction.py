import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghostphase import (ObjectSpec, closed_form_gi, combine_phase, decompose, denoise,
                        disc_mask, estimate_spectrum, ghost_image, hadamard_matrix,
                        make_object, measure_exact, normalize, phase_pearson, phase_rmse,
                        random_basis, remove_artifact, remove_artifact_analytic, sample_counts)
from ghostphase.reconstruction import PhaseImage, _masked_median
from ghostphase.analysis import wrap

from conftest import random_complex_object

ALL_KINDS = ["flat", "double-slit-amplitude", "annulus-amplitude",
             "pi-slit-phase", "azimuthal-ring-phase", "spiral-flower-phase"]


def _object(kind, d):
    radii = (d / 4, 3 * d / 8) if d >= 8 else (1.0, 2.2)
    return make_object(ObjectSpec(kind=kind, annulus_radii=radii), d)


def test_flat_cos_series_structure():
    H = hadamard_matrix(8)
    gi = ghost_image(measure_exact(make_object(ObjectSpec(kind="flat"), 8), H)[0], H)
    body = gi.ravel()[1:]
    assert body.max() - body.min() < 1e-13
    assert abs(gi[0, 0] - body[0]) > 1e-6


def test_constant_series_gives_zero_image():
    H = hadamard_matrix(8)
    series = measure_exact(make_object(ObjectSpec(kind="flat"), 8), H)[0]
    series = replace(series, values=np.full(64, 0.37))
    np.testing.assert_allclose(ghost_image(series, H), 0, atol=1e-15)


@pytest.mark.parametrize("kind", ["cos", "sin"])
@pytest.mark.parametrize("object_kind", ALL_KINDS)
@pytest.mark.parametrize("d", [4, 8, 16])
def test_closed_form_equivalence(kind, object_kind, d):
    H = hadamard_matrix(d)
    obj = _object(object_kind, d)
    gi = ghost_image(measure_exact(obj, H)[("cos", "sin").index(kind)], H)
    cf = closed_form_gi(obj, H, kind).total
    assert np.max(np.abs(gi - cf)) <= 1e-10


def test_reference_mode_independence():
    H = hadamard_matrix(8)
    series = measure_exact(_object("pi-slit-phase", 8), H)[0]
    shifted = replace(series, values=series.values + 0.7)
    np.testing.assert_allclose(ghost_image(series, H),
                               ghost_image(shifted, H), atol=1e-12)


def test_reconstruction_spectrum_is_mean_free():
    from ghostphase import fwht2
    H = hadamard_matrix(8)
    gi = ghost_image(measure_exact(_object("azimuthal-ring-phase", 8), H)[1], H)
    coeffs = fwht2(gi, H)
    assert abs(coeffs.sum()) < 1e-12


def test_series_length_mismatch():
    H = hadamard_matrix(8)
    series = measure_exact(_object("flat", 8), H)[0]
    with pytest.raises(ValueError):
        ghost_image(replace(series, values=series.values[:10]), hadamard_matrix(8))


def test_sin_term1_vanishes_for_real_objects():
    H = hadamard_matrix(8)
    obj = _object("double-slit-amplitude", 8)
    terms = closed_form_gi(obj, H, "sin")
    np.testing.assert_allclose(terms.object_part, 0, atol=1e-14)


def test_analytic_removal_proportional_to_object():
    d = 8
    H = hadamard_matrix(d)
    obj = _object("pi-slit-phase", d)
    dec = decompose(obj, H)
    gic, gis = (ghost_image(s, H) for s in measure_exact(obj, H))
    re, im = remove_artifact_analytic(gic, gis, obj, H)
    scale = np.sqrt(dec.reference_probability) / (d * d)
    rotated = np.exp(-1j * dec.reference_phase) * obj
    np.testing.assert_allclose(re, scale * rotated.real, atol=1e-10)
    np.testing.assert_allclose(im, scale * rotated.imag, atol=1e-10)


def test_analytic_requires_ground_truth():
    # the closed form is derived for the Hadamard basis only
    basis = random_basis(16, 4, seed=5)
    obj = _object("flat", 4)
    gic, gis = (ghost_image(s, basis) for s in measure_exact(obj, basis))
    with pytest.raises(ValueError):
        remove_artifact_analytic(gic, gis, obj, basis)


def test_estimate_spectrum_matches_truth():
    # valid regime: the uniform reference mode carries most of the energy
    H = hadamard_matrix(8)
    obj = normalize(1.0 + 0.25 * random_complex_object(8, seed=21))
    dec = decompose(obj, H)
    est = estimate_spectrum(*measure_exact(obj, H))
    assert est.p0 == pytest.approx(dec.reference_probability, abs=1e-12)
    np.testing.assert_allclose(est.probabilities, dec.probabilities, atol=1e-9)
    delta = dec.phases - dec.reference_phase
    cross = np.sqrt(dec.reference_probability * dec.probabilities)
    np.testing.assert_allclose(est.cross_cos, cross * np.cos(delta), atol=1e-9)
    np.testing.assert_allclose(est.cross_sin, cross * np.sin(delta), atol=1e-9)


def test_heuristic_equals_analytic_for_exact_hadamard_series():
    d = 16
    H = hadamard_matrix(d)
    obj = _object("azimuthal-ring-phase", d)
    sc, ss = measure_exact(obj, H)
    re_a, im_a = remove_artifact_analytic(ghost_image(sc, H), ghost_image(ss, H), obj, H)
    re_h, im_h = remove_artifact(sc, ss, H)
    interior = np.ones((d, d), bool)
    interior[0, 0] = False
    np.testing.assert_allclose(re_h[interior], re_a[interior], atol=1e-10)
    np.testing.assert_allclose(im_h[interior], im_a[interior], atol=1e-10)


def test_combine_phase_basics():
    re = np.array([[1.0, 0.0], [0.0, 0.0]])
    im = np.array([[0.0, 1.0], [0.0, 0.0]])
    phase = combine_phase(re, im)
    assert phase.entries[0, 0] == pytest.approx(0.0)
    assert phase.entries[0, 1] == pytest.approx(np.pi / 2)
    assert not phase.support[1, 0]
    assert phase.entries[1, 0] == 0.0


def test_combine_phase_shape_mismatch():
    with pytest.raises(ValueError):
        combine_phase(np.zeros((4, 4)), np.zeros((8, 8)))


def test_ring_phase_recovered_exactly_analytic():
    d = 16
    H = hadamard_matrix(d)
    obj = _object("azimuthal-ring-phase", d)
    dec = decompose(obj, H)
    gic, gis = (ghost_image(s, H) for s in measure_exact(obj, H))
    re, im = remove_artifact_analytic(gic, gis, obj, H)
    phase = combine_phase(re, im, np.abs(obj) > 0)
    expected = wrap(np.angle(obj) - dec.reference_phase)
    np.testing.assert_allclose(wrap(phase.entries[phase.support] - expected[phase.support]),
                               0, atol=1e-8)


def test_global_phase_invariance_of_recovered_phase():
    d = 8
    H = hadamard_matrix(d)
    obj = _object("pi-slit-phase", d)

    def recover(o):
        gic, gis = (ghost_image(s, H) for s in measure_exact(o, H))
        re, im = remove_artifact_analytic(gic, gis, o, H)
        return combine_phase(re, im, np.abs(o) > 0)

    a = recover(obj)
    b = recover(np.exp(1j * 1.234) * obj)
    assert phase_rmse(a, b) < 1e-8


def test_amplitude_object_phase_is_zero():
    d = 16
    H = hadamard_matrix(d)
    obj = _object("double-slit-amplitude", d)
    sc, ss = measure_exact(obj, H)
    re, im = remove_artifact(sc, ss, H)
    phase = combine_phase(re, im, np.abs(obj) > 0)
    assert np.abs(phase.entries[phase.support]).max() < 1e-6


def test_random_vs_hadamard_reconstruction_agreement():
    d = 16
    obj = _object("pi-slit-phase", d)
    H = hadamard_matrix(d)
    basis = random_basis(d * d, d, seed=42)
    support = disc_mask(d, 0.44 * d)

    def recover(b):
        sc, ss = measure_exact(obj, b)
        re, im = remove_artifact(sc, ss, b)
        return denoise(combine_phase(re, im, support), 3)

    ph_h = recover(H)
    ph_r = recover(basis)
    assert phase_pearson(ph_h, ph_r) > 0.9
    assert phase_rmse(ph_r, ph_h) <= 0.3


def _random_heuristic(obj, basis):
    sc, ss = measure_exact(obj, basis)
    re, im = remove_artifact(sc, ss, basis)
    return re, im, estimate_spectrum(sc, ss)


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("d", [8, 16])
def test_random_solve_matches_least_squares(d, seed):
    obj = _object("spiral-flower-phase", d)
    basis = random_basis(d * d, d, seed)
    re, im, est = _random_heuristic(obj, basis)
    M = basis.matrix
    for got, cross in ((re, est.cross_cos), (im, est.cross_sin)):
        ref = np.linalg.lstsq(M, cross, rcond=None)[0].reshape(d, d) / (d * d)
        ref[0, 0] = (ref[0, 1] + ref[1, 0] + ref[1, 1]) / 3.0
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())


def test_singular_random_mask_set_is_rejected():
    # seed 1 at d=2 draws the reference itself as mask 1; LAPACK flags the set
    basis = random_basis(4, 2, seed=1)
    assert np.linalg.matrix_rank(basis.matrix) < 4
    with pytest.raises(ValueError, match=r"basis seed 1, d=2\) is singular"):
        _random_heuristic(np.ones((2, 2), complex) / 2, basis)


@pytest.mark.parametrize("kind", ["pi-slit-phase", "azimuthal-ring-phase"])
def test_rank_deficient_random_mask_set_is_rejected(kind):
    # seed 12 at d=4 draws a rank-deficient set that LU solves without error
    basis = random_basis(16, 4, seed=12)
    M = basis.matrix
    assert np.linalg.matrix_rank(M) < 16
    np.linalg.solve(M, np.eye(16)[0])
    with pytest.raises(ValueError, match=r"basis seed 12, d=4\) is singular"):
        _random_heuristic(_object(kind, 4), basis)


def test_counts_normalization_preserves_structure():
    d = 8
    H = hadamard_matrix(d)
    obj = _object("pi-slit-phase", d)
    series = measure_exact(obj, H)[0]
    noisy = sample_counts(series, 1e9, seed=3)
    exact_gi = ghost_image(series, H)
    noisy_gi = ghost_image(noisy, H)
    scale = np.linalg.norm(exact_gi) / np.linalg.norm(noisy_gi)
    assert np.corrcoef(exact_gi.ravel(), noisy_gi.ravel())[0, 1] > 0.999
    assert scale == pytest.approx(series.values.sum(), rel=1e-3)


def test_denoise_identity_and_validation():
    phase = PhaseImage(entries=np.zeros((8, 8)), support=np.ones((8, 8), bool))
    out = denoise(phase, 1)
    np.testing.assert_array_equal(out.entries, phase.entries)
    with pytest.raises(ValueError):
        denoise(phase, 4)


def test_denoise_removes_salt_and_pepper():
    d = 32
    rng = np.random.default_rng(0)
    entries = np.zeros((d, d))
    corrupted = rng.random((d, d)) < 0.05
    entries[corrupted] = np.pi
    phase = PhaseImage(entries=entries, support=np.ones((d, d), bool))
    out = denoise(phase, 3)
    assert np.mean(np.abs(out.entries) > 0.1) < 0.01


def test_denoise_all_invalid_is_noop():
    phase = PhaseImage(entries=np.full((4, 4), 0.5), support=np.zeros((4, 4), bool))
    out = denoise(phase, 3)
    np.testing.assert_array_equal(out.entries, phase.entries)
    assert not out.support.any()


def _nanmedian_windows(data, valid, window):
    """Reference: np.nanmedian over every window, NaN windows keep the data."""
    pad = window // 2
    arr = np.pad(np.where(valid, data, np.nan), pad, constant_values=np.nan)
    windows = np.lib.stride_tricks.sliding_window_view(arr, (window, window))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)  # all-NaN windows
        med = np.nanmedian(windows, axis=(2, 3))
    return np.where(np.isnan(med), data, med)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 12),
       window=st.sampled_from([1, 3, 5, 7]), density=st.floats(0.0, 1.0), ties=st.booleans())
@example(seed=0, d=9, window=3, density=0.0, ties=False)     # every window invalid
@example(seed=1, d=12, window=7, density=0.1, ties=True)     # sparse, tied, signed zeros
def test_masked_median_matches_nanmedian(seed, d, window, density, ties):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(d, d))
    if ties:
        data = np.round(data)   # repeated values, including -0.0 and 0.0
    valid = rng.random((d, d)) < density
    got = _masked_median(data, valid, window)
    ref = _nanmedian_windows(data, valid, window)
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))
