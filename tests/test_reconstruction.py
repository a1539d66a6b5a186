import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghostphase import (OrthoMatrix, closed_form_gi, combine_phase, denoise, disc_mask,
                        estimate_spectrum, fwht2, ghost_image, make_object, measure_exact,
                        normalize, phase_rmse, remove_artifact,
                        remove_artifact_analytic, sample_counts)
from ghostphase import cli, reconstruction
from ghostphase.config import RunConfig
from ghostphase.reconstruction import (SINE_CHANNEL_SIGN, ClosedFormTerms, PhaseImage,
                                       SpectrumEstimate)
from ghostphase.acquisition import Scan
from ghostphase.analysis import CrossSection, wrap

from conftest import (combine_phase_oracle, denoise_oracle, fwht2_oracle, mask_matrix,
                      masked_median, phase_pearson, random_complex_object)

ALL_KINDS = ["flat", "double-slit-amplitude", "annulus-amplitude",
             "pi-slit-phase", "azimuthal-ring-phase", "spiral-flower-phase"]


def _object(kind, d):
    radii = (d / 4, 3 * d / 8) if d >= 8 else (1.0, 2.2)
    return make_object(kind, d, annulus_radii=radii)


def test_flat_cos_series_structure():
    H = OrthoMatrix(8)
    gi = ghost_image(measure_exact(make_object("flat", 8), H))[0]
    body = gi.ravel()[1:]
    assert body.max() - body.min() < 1e-13
    assert abs(gi[0, 0] - body[0]) > 1e-6


def test_constant_series_gives_zero_image():
    H = OrthoMatrix(8)
    scan = replace(measure_exact(make_object("flat", 8), H), cos=np.full(64, 0.37), sin=np.full(64, 0.37))
    np.testing.assert_allclose(ghost_image(scan), 0, atol=1e-15)


@pytest.mark.parametrize("kind", ["cos", "sin"])
@pytest.mark.parametrize("object_kind", ALL_KINDS)
# a natural-order case's id is its size alone
@pytest.mark.parametrize("d, ordering", [
    pytest.param(d, ordering, id=f"{d}" if ordering == "natural" else f"{d}-{ordering}")
    for ordering in ("natural", "sequency") for d in (4, 8, 16)])
def test_closed_form_equivalence(kind, object_kind, d, ordering):
    H = OrthoMatrix(d, ordering)
    obj = _object(object_kind, d)
    channel = ("cos", "sin").index(kind)
    scan = measure_exact(obj, H)
    gi = ghost_image(scan)[channel]
    terms = closed_form_gi(obj, H)[channel]
    assert np.max(np.abs(gi - terms.total)) <= 1e-10
    assert terms.channel_sum == getattr(scan, kind).sum()


def test_reference_mode_independence():
    H = OrthoMatrix(8)
    scan = measure_exact(_object("pi-slit-phase", 8), H)
    shifted = replace(scan, cos=scan.cos + 0.7, sin=scan.sin + 0.7)
    np.testing.assert_allclose(ghost_image(scan), ghost_image(shifted), atol=1e-12)


def test_reconstruction_spectrum_is_mean_free():
    from ghostphase import fwht2
    H = OrthoMatrix(8)
    gi = ghost_image(measure_exact(_object("azimuthal-ring-phase", 8), H))[1]
    coeffs = fwht2(gi, H)
    assert abs(coeffs.sum()) < 1e-12


def _misfit_channels(scan):
    """Channels that do not hold one value per mask of ``scan``'s d=4 basis (N=16)."""
    return scan.cos[:10], np.full(20, 0.1), scan.cos.reshape(4, 4)


def test_series_length_mismatch():
    # a scan holds one float64 value per mask: float64 channels are kept, others converted
    scan = measure_exact(_object("flat", 4), OrthoMatrix(4))
    assert replace(scan, cos=scan.sin).cos is scan.sin
    assert replace(scan, sin=np.arange(16)).sin.dtype == np.float64
    for values in _misfit_channels(scan):
        with pytest.raises(ValueError, match=r"^cos values have shape \(.*\), not one per mask of basis N=16$"):
            replace(scan, cos=values)


def test_every_stage_checks_a_series_length_against_its_basis():
    # building the scan is the check, so no stage sees channels that do not fit its basis:
    # a (4, 4) channel has N values and used to pass a length check, then failed inside numpy
    scan = measure_exact(_object("pi-slit-phase", 4), OrthoMatrix(4))
    for values in _misfit_channels(scan):
        with pytest.raises(ValueError, match=fr"^sin values have shape \({values.shape[0]},"):
            replace(scan, sin=values)


def test_sin_term1_vanishes_for_real_objects():
    H = OrthoMatrix(8)
    obj = _object("double-slit-amplitude", 8)
    terms = closed_form_gi(obj, H)[1]
    np.testing.assert_allclose(terms.object_part, 0, atol=1e-14)


def test_analytic_removal_proportional_to_object():
    d = 8
    H = OrthoMatrix(d)
    obj = _object("pi-slit-phase", d)
    c0 = fwht2(obj, H)[0, 0]
    scan = measure_exact(obj, H)
    gic, gis = ghost_image(scan)
    re, im = remove_artifact_analytic(gic, gis, obj, scan)
    scale = abs(c0) / (d * d)
    rotated = np.exp(-1j * np.angle(c0)) * obj
    np.testing.assert_allclose(re, scale * rotated.real, atol=1e-10)
    np.testing.assert_allclose(im, scale * rotated.imag, atol=1e-10)


def test_analytic_removal_makes_two_transform_passes(monkeypatch):
    # one pass for the spectrum and one for the artifact serve both channels,
    # whichever module's binding of fwht2 makes them
    from ghostphase import acquisition, reconstruction
    H = OrthoMatrix(8)
    obj = _object("pi-slit-phase", 8)
    scan = measure_exact(obj, H)
    gic, gis = ghost_image(scan)
    calls = []

    def counted(*args):
        calls.append(args)
        return fwht2(*args)

    for module in (acquisition, reconstruction):
        monkeypatch.setattr(module, "fwht2", counted)
    remove_artifact_analytic(gic, gis, obj, scan)
    assert len(calls) == 2


def test_analytic_requires_ground_truth():
    basis = OrthoMatrix(4, seed=5)
    obj = _object("flat", 4)
    scan = measure_exact(obj, basis)
    gic, gis = ghost_image(scan)
    with pytest.raises(ValueError, match="needs the ground-truth object"):
        remove_artifact_analytic(gic, gis, None, scan)


def test_closed_form_matches_the_ghost_images_of_a_seeded_basis():
    # a seeded basis shuffles the Hadamard masks' pixels and fixes pixel 0, so mask 0
    # stays the uniform reference the closed form is derived for
    for d in (8, 32):
        basis = OrthoMatrix(d, seed=3)
        for object_kind in ALL_KINDS:
            obj = _object(object_kind, d)
            for gi, terms in zip(ghost_image(measure_exact(obj, basis)), closed_form_gi(obj, basis)):
                assert np.max(np.abs(gi - terms.total)) <= 1e-15, (d, object_kind)


@pytest.mark.parametrize("kind", ["pi-slit-phase", "azimuthal-ring-phase", "spiral-flower-phase"])
def test_analytic_removal_of_sampled_series_matches_the_heuristic(kind):
    # a sampled ghost image is the exact one divided by its channel sum; unscaled, the ring read
    # 1.146 rad against the heuristic's 0.023
    d = 64
    obj = make_object(kind, d)
    scan = _scan(obj, OrthoMatrix(d), 1e9)
    truth = combine_phase(obj.real, obj.imag)
    support = disc_mask(d, 0.44 * d)
    analytic = combine_phase(*remove_artifact_analytic(*ghost_image(scan), obj, scan), support)
    heuristic = combine_phase(*remove_artifact(scan), support)
    assert phase_rmse(analytic, truth) == pytest.approx(phase_rmse(heuristic, truth), rel=0.1)


def test_estimate_spectrum_matches_truth():
    # valid regime: the uniform reference mode carries most of the energy
    H = OrthoMatrix(8)
    obj = normalize(1.0 + 0.25 * random_complex_object(8, seed=21))
    coeffs = fwht2(obj, H).ravel()
    p = np.abs(coeffs) ** 2
    est = estimate_spectrum(measure_exact(obj, H))
    assert est.p0 == pytest.approx(p[0], abs=1e-12)
    np.testing.assert_allclose(est.probabilities, p, atol=1e-9)
    delta = np.angle(coeffs) - np.angle(coeffs[0])
    cross = np.sqrt(p[0] * p)
    np.testing.assert_allclose(est.cross_cos, cross * np.cos(delta), atol=1e-9)
    np.testing.assert_allclose(est.cross_sin, cross * np.sin(delta), atol=1e-9)


def test_heuristic_equals_analytic_for_exact_hadamard_series():
    # the seeded basis's masks are the Hadamard masks with their pixels shuffled
    d = 16
    obj = _object("azimuthal-ring-phase", d)
    interior = np.ones((d, d), bool)
    interior[0, 0] = False
    for H in (OrthoMatrix(d), OrthoMatrix(d, seed=7)):
        scan = measure_exact(obj, H)
        re_a, im_a = remove_artifact_analytic(*ghost_image(scan), obj, scan)
        re_h, im_h = remove_artifact(scan)
        np.testing.assert_allclose(re_h[interior], re_a[interior], atol=1e-10)
        np.testing.assert_allclose(im_h[interior], im_a[interior], atol=1e-10)


# objects near a uniform reference: 1 + a X for a unit-norm random X, then normalized
_NEAR_REFERENCE = st.builds(lambda d, a, seed: normalize(1.0 + a * random_complex_object(d, seed)),
                            st.sampled_from([4, 8, 16]), st.floats(0.0, 0.25),
                            st.integers(0, 2 ** 32 - 1))


def _dominant_spectrum(obj, H):
    """The object's coefficients, after checking that the reference mode dominates."""
    coeffs = fwht2(obj, H).ravel()
    p = np.abs(coeffs) ** 2
    assert p[0] > p[1:].sum()
    return coeffs, p


@settings(max_examples=60, deadline=None)
@given(obj=_NEAR_REFERENCE)
def test_estimate_spectrum_recovers_any_reference_dominated_object(obj):
    H = OrthoMatrix(obj.shape[0])
    coeffs, p = _dominant_spectrum(obj, H)
    est = estimate_spectrum(measure_exact(obj, H))
    assert est.p0 == pytest.approx(p[0], abs=1e-12)
    np.testing.assert_allclose(est.probabilities, p, atol=1e-9)
    delta = np.angle(coeffs) - np.angle(coeffs[0])
    cross = np.sqrt(p[0] * p)
    np.testing.assert_allclose(est.cross_cos, cross * np.cos(delta), atol=1e-9)
    np.testing.assert_allclose(est.cross_sin, cross * np.sin(delta), atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(obj=_NEAR_REFERENCE)
def test_heuristic_equals_analytic_for_any_reference_dominated_object(obj):
    d = obj.shape[0]
    H = OrthoMatrix(d)
    _dominant_spectrum(obj, H)
    scan = measure_exact(obj, H)
    re_a, im_a = remove_artifact_analytic(*ghost_image(scan), obj, scan)
    re_h, im_h = remove_artifact(scan)
    interior = np.ones((d, d), bool)
    interior[0, 0] = False
    np.testing.assert_allclose(re_h[interior], re_a[interior], atol=1e-10)
    np.testing.assert_allclose(im_h[interior], im_a[interior], atol=1e-10)


def _textbook_spectrum(scan):
    """estimate_spectrum's arithmetic written out of place, one expression per quantity."""
    vc, vs = scan.cos, scan.sin
    p0 = vc[0] / 2.0
    vs = vs * (p0 / vs[0])
    A = vc - p0 / 2
    B = vs - p0 / 2
    S = A + B + p0
    disc = np.maximum(S * S - 2 * (A * A + B * B), 0.0)
    u = (S - np.sqrt(disc)) / 2.0
    return p0, np.maximum(2 * u, 0.0), A - u, SINE_CHANNEL_SIGN * (B - u)


def _scan(obj, basis, flux):
    scan = measure_exact(obj, basis)
    return scan if flux is None else sample_counts(scan, flux, seed=5)


@pytest.mark.parametrize("flux", [None, 1e7], ids=["exact", "poisson"])
@pytest.mark.parametrize("kind", ["azimuthal-ring-phase", "spiral-flower-phase"])
def test_estimate_spectrum_is_bit_identical_to_the_textbook_expressions(kind, flux):
    # in-place updates must keep every operation and its order, not just agree to rounding
    scan = _scan(_object(kind, 64), OrthoMatrix(64), flux)
    est = estimate_spectrum(scan)
    p0, p, cross_cos, cross_sin = _textbook_spectrum(scan)
    assert est.p0 == p0
    for got, want in ((est.probabilities, p), (est.cross_cos, cross_cos), (est.cross_sin, cross_sin)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("flux", [None, 1e7], ids=["exact", "poisson"])
@pytest.mark.parametrize("basis", [OrthoMatrix(16), OrthoMatrix(16, seed=3)], ids=["hadamard", "random"])
def test_reconstruction_leaves_the_series_values_alone(basis, flux):
    # an exact series' values are the caller's array, and a pipeline writes them after reconstructing
    scan = _scan(_object("spiral-flower-phase", 16), basis, flux)
    before = [scan.cos.tobytes(), scan.sin.tobytes()]
    ghost_image(scan)
    estimate_spectrum(scan)
    remove_artifact(scan)
    cli.reconstruct(RunConfig(d=16), scan)
    assert [scan.cos.tobytes(), scan.sin.tobytes()] == before


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
    with pytest.raises(ValueError, match="support shape"):
        combine_phase(np.zeros((4, 4)), np.zeros((4, 4)), np.ones(4, bool))


@pytest.mark.parametrize("build", [
    lambda a: Scan(OrthoMatrix(2), a(), a()),
    lambda a: PhaseImage(a(), a() > 0),
    lambda a: CrossSection("horizontal", a(), a()),
    lambda a: ClosedFormTerms(a(), a(), a(), 1.0),
    lambda a: SpectrumEstimate(1.0, a(), a(), a()),
], ids=["Scan", "PhaseImage", "CrossSection", "ClosedFormTerms", "SpectrumEstimate"])
def test_values_that_hold_arrays_compare_by_identity(build):
    # a generated __eq__ compares the fields as tuples, and an array's truth value raises
    first, second = build(lambda: np.ones(4)), build(lambda: np.ones(4))
    assert (first == second) is False and (first == first) is True


def test_ring_phase_recovered_exactly_analytic():
    d = 16
    H = OrthoMatrix(d)
    obj = _object("azimuthal-ring-phase", d)
    alpha0 = np.angle(fwht2(obj, H)[0, 0])
    scan = measure_exact(obj, H)
    gic, gis = ghost_image(scan)
    re, im = remove_artifact_analytic(gic, gis, obj, scan)
    phase = combine_phase(re, im, np.abs(obj) > 0)
    expected = wrap(np.angle(obj) - alpha0)
    np.testing.assert_allclose(wrap(phase.entries[phase.support] - expected[phase.support]),
                               0, atol=1e-8)


def test_global_phase_invariance_of_recovered_phase():
    d = 8
    H = OrthoMatrix(d)
    obj = _object("pi-slit-phase", d)

    def recover(o):
        scan = measure_exact(o, H)
        gic, gis = ghost_image(scan)
        re, im = remove_artifact_analytic(gic, gis, o, scan)
        return combine_phase(re, im, np.abs(o) > 0)

    a = recover(obj)
    b = recover(np.exp(1j * 1.234) * obj)
    assert phase_rmse(a, b) < 1e-8


def test_amplitude_object_phase_is_zero():
    d = 16
    H = OrthoMatrix(d)
    obj = _object("double-slit-amplitude", d)
    scan = measure_exact(obj, H)
    re, im = remove_artifact(scan)
    phase = combine_phase(re, im, np.abs(obj) > 0)
    assert np.abs(phase.entries[phase.support]).max() < 1e-6


def test_random_vs_hadamard_reconstruction_agreement():
    d = 16
    obj = _object("pi-slit-phase", d)
    H = OrthoMatrix(d)
    basis = OrthoMatrix(d, seed=42)
    support = disc_mask(d, 0.44 * d)

    def recover(b):
        scan = measure_exact(obj, b)
        re, im = remove_artifact(scan)
        return denoise(combine_phase(re, im, support), 3)

    ph_h = recover(H)
    ph_r = recover(basis)
    assert phase_pearson(ph_h, ph_r) > 0.9
    assert phase_rmse(ph_r, ph_h) <= 0.3


def _random_heuristic(obj, basis):
    scan = measure_exact(obj, basis)
    re, im = remove_artifact(scan)
    return re, im, estimate_spectrum(scan)


def _assert_matches_least_squares(obj, basis):
    d = basis.dim
    re, im, est = _random_heuristic(obj, basis)
    M = mask_matrix(basis)
    for got, cross in ((re, est.cross_cos), (im, est.cross_sin)):
        ref = np.linalg.lstsq(M, cross, rcond=None)[0].reshape(d, d) / (d * d)
        ref[0, 0] = (ref[0, 1] + ref[1, 0] + ref[1, 1]) / 3.0
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("d", [8, 16])
def test_random_solve_matches_least_squares(d, seed):
    _assert_matches_least_squares(_object("spiral-flower-phase", d), OrthoMatrix(d, seed=seed))


@pytest.mark.parametrize("d, seed, kind", [(2, 1, "flat"), (4, 12, "pi-slit-phase"),
                                           (4, 12, "azimuthal-ring-phase")])
def test_random_seeds_that_drew_singular_sets_now_solve(d, seed, kind):
    # i.i.d. sign masks were singular (seed 1 at d=2) or rank-deficient (seed 12 at d=4)
    basis = OrthoMatrix(d, seed=seed)
    assert np.linalg.matrix_rank(mask_matrix(basis)) == d * d
    _assert_matches_least_squares(_object(kind, d), basis)


def test_counts_normalization_preserves_structure():
    d = 8
    H = OrthoMatrix(d)
    obj = _object("pi-slit-phase", d)
    scan = measure_exact(obj, H)
    exact_gi = ghost_image(scan)[0]
    noisy_gi = ghost_image(sample_counts(scan, 1e9, seed=3))[0]
    scale = np.linalg.norm(exact_gi) / np.linalg.norm(noisy_gi)
    assert np.corrcoef(exact_gi.ravel(), noisy_gi.ravel())[0, 1] > 0.999
    assert scale == pytest.approx(scan.cos.sum(), rel=1e-3)


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
    got = masked_median(data, valid, window)
    ref = _nanmedian_windows(data, valid, window)
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


# (d, window, rows per strip): at least three strips, the last one partial;
# window 99 covers the whole 8x8 grid from every pixel
STRIPS = [(8, 3, 3), (10, 5, 3), (7, 7, 2), (8, 99, 3), (11, 1, 4)]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), strips=st.sampled_from(STRIPS),
       density=st.floats(0.0, 1.0), ties=st.booleans())
@example(seed=0, strips=(8, 3, 3), density=0.0, ties=False)       # every window invalid
@example(seed=1, strips=(10, 5, 3), density=0.2, ties=True)       # sparse, tied, signed zeros
@example(seed=2, strips=(8, 99, 3), density=0.5, ties=True)        # window wider than the grid
def test_masked_median_strips_match_nanmedian(seed, strips, density, ties):
    d, window, rows = strips
    assert -(-d // rows) >= 3 and d % rows
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(d, d))
    if ties:
        data = np.round(data)
    valid = rng.random((d, d)) < density
    row_bytes = window * window * d * data.itemsize
    ref = _nanmedian_windows(data, valid, window)
    # a budget below one row still filters one row per strip
    for budget in (rows * row_bytes, rows * row_bytes + row_bytes - 1, 1):
        with mock.patch.object(reconstruction, "_MEDIAN_BUDGET", budget):
            got = masked_median(data, valid, window)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_denoise_memory_does_not_grow_with_the_window():
    # a whole window^2 stack of a d=256 grid is 4.7 MB at window 3 and 118 MB at 15
    d = 256
    rng = np.random.default_rng(0)
    phase = PhaseImage(entries=rng.uniform(-np.pi, np.pi, (d, d)), support=disc_mask(d, 100.0))

    def peak(window):
        tracemalloc.start()
        try:
            denoise(phase, window)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(3) < 5 * 2 ** 20
    assert peak(15) < 5 * 2 ** 20


@pytest.mark.parametrize("flux", [None, 1e7], ids=["exact", "poisson"])
def test_artifact_removal_working_set(flux):
    # in N-sized float64 arrays at d=256: out-of-place arithmetic peaked at 9 in both
    d = 256
    H = OrthoMatrix(d)
    scan = _scan(_object("azimuthal-ring-phase", d), H, flux)

    def peak(fn):
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / (8 * d * d)
        finally:
            tracemalloc.stop()

    assert peak(lambda: estimate_spectrum(scan)) < 6
    assert peak(lambda: remove_artifact(scan)) < 7


def test_denoise_window_wider_than_the_grid_gives_the_whole_grid_window(monkeypatch):
    # at d=8 a 15-pixel window reaches every pixel from every pixel, so window 99 filters
    # with 15: the median's time and memory grow as window^2
    d = 8
    rng = np.random.default_rng(4)
    phase = PhaseImage(entries=rng.uniform(-np.pi, np.pi, (d, d)), support=disc_mask(d, 3.0))
    windows = []
    median_phase = reconstruction._median_phase

    def recording(entries, support, window):
        windows.append(window)
        return median_phase(entries, support, window)

    monkeypatch.setattr(reconstruction, "_median_phase", recording)
    wide, whole = denoise(phase, 99), denoise(phase, 15)
    assert wide.entries.tobytes() == whole.entries.tobytes()
    np.testing.assert_array_equal(wide.support, whole.support)
    assert windows == [15] * 2


def _seeded_phase(d, support, seed):
    """Uniform phases with 0.0, -0.0, pi and -pi planted, on an empty, sparse or full support."""
    rng = np.random.default_rng(seed)
    entries = rng.uniform(-np.pi, np.pi, (d, d))
    for value, at in ((0.0, 0), (-0.0, 1), (np.pi, 2), (-np.pi, 3)):
        entries.flat[at::5] = value
    density = {"empty": 0.0, "sparse": 0.1, "full": 1.0}[support]
    return PhaseImage(entries=entries, support=rng.random((d, d)) < density)


def _assert_same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# a window wider than 2d - 1 is clamped to it: at d=64 that is window 127, whose
# 16,129-deep sort takes minutes, so the widest windows run on the small grids
DENOISE_CASES = [(d, window) for d in (2, 16, 64, 256) for window in (1, 3, 5, 7, 15)] + \
    [(2, 5), (16, 41)]


@pytest.mark.parametrize("support", ["empty", "sparse", "full"])
@pytest.mark.parametrize("d, window", DENOISE_CASES)
def test_denoise_matches_the_whole_grid_oracle(d, window, support):
    phase = _seeded_phase(d, support, seed=d * 100 + window)
    got, want = denoise(phase, window), denoise_oracle(phase, window)
    _assert_same_bits(got.entries, want.entries)
    np.testing.assert_array_equal(got.support, want.support)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), strips=st.sampled_from(STRIPS),
       support=st.sampled_from(["empty", "sparse", "full"]))
def test_denoise_strips_match_the_whole_grid_oracle(seed, strips, support):
    # partial last strips, one row per strip, and strips narrower than the padding they share
    d, window, rows = strips
    phase = _seeded_phase(d, support, seed)
    budget = rows * window * window * d * 8
    with mock.patch.object(reconstruction, "_MEDIAN_BUDGET", budget):
        _assert_same_bits(denoise(phase, window).entries, denoise_oracle(phase, window).entries)
    with mock.patch.object(reconstruction, "_MEDIAN_BUDGET", 1):
        _assert_same_bits(denoise(phase, window).entries, denoise_oracle(phase, window).entries)


def test_denoise_makes_one_grid_beyond_its_strips():
    d = 512
    phase = _seeded_phase(d, "full", seed=9)
    denoise(phase, 3)
    tracemalloc.start()
    try:
        denoise(phase, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the filtered phase, one 256 KiB sort buffer and strip-sized temporaries
    assert peak < 8 * d * d + 2 * 2 ** 20


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("with_support", [False, True])
def test_combine_phase_matches_the_whole_grid_oracle(order, with_support):
    d = 64
    rng = np.random.default_rng(11)
    re, im = (np.asarray(rng.normal(size=(d, d)), order=order) for _ in range(2))
    re[:4], im[:4] = 0.0, -0.0            # zero magnitude
    re[4:8, :8], im[4:8, :8] = -1.0, -0.0  # the branch cut, both signs of zero
    re[8:10], im[8:10] = 1e-12, 1e-12      # below the relative floor
    support = disc_mask(d, 20.0) if with_support else None
    got, want = combine_phase(re, im, support), combine_phase_oracle(re, im, support)
    _assert_same_bits(got.entries, want.entries)
    np.testing.assert_array_equal(got.support, want.support)


def _ghost_image_oracle(scan):
    images = []
    for v in (scan.cos, scan.sin):
        v = v.copy()
        if not scan.exact:
            v /= v.sum()
        v -= v.mean()
        images.append(scan.basis.shuffle(fwht2_oracle(v.reshape(scan.basis.dim, -1), scan.basis)) / v.size)
    return images


def _remove_artifact_oracle(scan):
    fields = []
    for w in _textbook_spectrum(scan)[2:]:
        w -= w.mean()
        img = scan.basis.shuffle(fwht2_oracle(w.reshape(scan.basis.dim, -1), scan.basis)) / w.size
        img[0, 0] = (img[0, 1] + img[1, 0] + img[1, 1]) / 3.0
        fields.append(img)
    return fields


@pytest.mark.parametrize("flux", [None, 1e7], ids=["exact", "poisson"])
@pytest.mark.parametrize("basis", [OrthoMatrix(128), OrthoMatrix(128, "sequency"), OrthoMatrix(32, seed=5)],
                         ids=["natural", "sequency", "random"])
def test_channel_images_match_the_whole_array_oracles(basis, flux):
    scan = _scan(_object("spiral-flower-phase", basis.dim), basis, flux)
    for got, want in zip(ghost_image(scan) + remove_artifact(scan),
                         _ghost_image_oracle(scan) + _remove_artifact_oracle(scan)):
        _assert_same_bits(got, want)
        assert got.flags.f_contiguous == want.flags.f_contiguous


@pytest.mark.parametrize("flux", [None, 1e7], ids=["exact", "poisson"])
def test_estimate_spectrum_chunks_keep_the_textbook_bits(flux):
    # d=128 spans two chunks of the elementwise solve
    scan = _scan(_object("azimuthal-ring-phase", 128), OrthoMatrix(128), flux)
    assert scan.cos.size > reconstruction._CHUNK
    est = estimate_spectrum(scan)
    _, p, cross_cos, cross_sin = _textbook_spectrum(scan)
    for got, want in ((est.probabilities, p), (est.cross_cos, cross_cos), (est.cross_sin, cross_sin)):
        _assert_same_bits(got, want)
