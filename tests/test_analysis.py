import numpy as np
import pytest

from ghostphase import (CrossSection, azimuthal_slope, cross_section_azimuthal,
                        cross_section_horizontal, make_object, phase_rmse, wrap)
from ghostphase.reconstruction import PhaseImage

from conftest import phase_pearson, phase_rmse_oracle


def _phase(entries, support=None):
    entries = np.asarray(entries, dtype=float)
    if support is None:
        support = np.ones(entries.shape, bool)
    return PhaseImage(entries=entries, support=support)


def test_wrap_examples():
    assert wrap(0.0) == pytest.approx(0.0)
    assert wrap(np.pi) == pytest.approx(np.pi)
    assert wrap(-np.pi) == pytest.approx(np.pi)
    assert wrap(3 * np.pi) == pytest.approx(np.pi)
    assert wrap(2 * np.pi + 0.3) == pytest.approx(0.3, abs=1e-12)
    np.testing.assert_allclose(wrap(np.array([-4.0, 4.0])),
                               [-4 + 2 * np.pi, 4 - 2 * np.pi], atol=1e-12)


def test_horizontal_cross_section_respects_support():
    entries = np.zeros((4, 4))
    entries[2] = [0.1, 0.2, 0.3, 0.4]
    support = np.zeros((4, 4), bool)
    support[2, 1:3] = True
    trace = cross_section_horizontal(_phase(entries, support), 2)
    np.testing.assert_array_equal(trace.coordinates, [1.0, 2.0])
    np.testing.assert_allclose(trace.values, [0.2, 0.3])
    with pytest.raises(ValueError):
        cross_section_horizontal(_phase(entries, support), 0)
    with pytest.raises(ValueError, match="outside the grid"):
        cross_section_horizontal(_phase(entries, support), -2)


def test_azimuthal_cross_section_on_synthetic_vortex():
    d = 32
    c = d / 2 - 0.5
    y, x = np.mgrid[0:d, 0:d]
    entries = wrap(np.arctan2(y - c, x - c))
    trace = cross_section_azimuthal(_phase(entries), radius=10, samples=64)
    assert trace.coordinates.shape == (64,)
    # nearest-pixel sampling: each sample close to its nominal azimuth
    err = wrap(trace.values - trace.coordinates)
    assert np.abs(err).max() < 0.12


def test_azimuthal_radius_validation():
    with pytest.raises(ValueError):
        cross_section_azimuthal(_phase(np.zeros((8, 8))), radius=10)
    with pytest.raises(ValueError):
        cross_section_azimuthal(_phase(np.zeros((8, 8))), radius=-1)
    with pytest.raises(ValueError, match="outside the grid"):
        cross_section_azimuthal(_phase(np.zeros((8, 8))), radius=np.nan)


def test_unwrapped_trace_is_continuous():
    theta = 2 * np.pi * np.arange(64) / 64
    trace = CrossSection(kind="azimuthal", coordinates=theta, values=wrap(theta))
    un = trace.unwrapped()
    assert np.abs(np.diff(un)).max() < 0.2
    assert un[-1] - un[0] == pytest.approx(2 * np.pi * 63 / 64, abs=1e-9)


def test_azimuthal_slope_unit_gradient():
    theta = 2 * np.pi * np.arange(64) / 64
    trace = CrossSection(kind="azimuthal", coordinates=theta, values=wrap(theta + 0.4))
    assert azimuthal_slope(trace) == pytest.approx(1.0, abs=1e-9)
    trace2 = CrossSection(kind="azimuthal", coordinates=theta, values=wrap(3 * theta))
    assert azimuthal_slope(trace2) == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("samples", [2, 3, 64, 1000])
def test_azimuthal_slope_matches_lstsq(samples):
    # LAPACK's least-squares solve is the oracle for the closed form
    rng = np.random.default_rng(samples)
    theta = 2 * np.pi * np.arange(samples) / samples
    traces = []
    for _ in range(5):
        slope = rng.choice([-1, 1]) * rng.uniform(0.5, 6)
        noise = rng.normal(0, 0.3, samples)
        traces.append(wrap(slope * theta + rng.uniform(-np.pi, np.pi) + noise))
    if samples == 64:
        ring = make_object("azimuthal-ring-phase", 32)
        truth = _phase(np.angle(ring))
        traces.append(cross_section_azimuthal(truth, radius=10, samples=samples).values)
    for values in traces:
        trace = CrossSection(kind="azimuthal", coordinates=theta, values=values)
        un = trace.unwrapped()
        A = np.vstack([theta, np.ones_like(theta)]).T
        expected = np.linalg.lstsq(A, un, rcond=None)[0][0]
        assert azimuthal_slope(trace) == pytest.approx(expected, rel=1e-12, abs=0)


def test_phase_rmse_identical_and_offset():
    rng = np.random.default_rng(5)
    entries = wrap(rng.uniform(-np.pi, np.pi, (16, 16)))
    a = _phase(entries)
    assert phase_rmse(a, a) == pytest.approx(0.0, abs=1e-12)
    b = _phase(wrap(entries + 1.9))
    assert phase_rmse(b, a) == pytest.approx(0.0, abs=1e-9)


def test_phase_rmse_across_branch_cut():
    a = _phase(np.full((8, 8), np.pi - 0.05))
    b = _phase(np.full((8, 8), -np.pi + 0.05))
    assert phase_rmse(a, b) == pytest.approx(0.0, abs=1e-12)


def test_phase_rmse_known_noise_level():
    rng = np.random.default_rng(11)
    truth = wrap(rng.uniform(-np.pi, np.pi, (64, 64)))
    noisy = wrap(truth + rng.normal(0, 0.1, truth.shape))
    val = phase_rmse(_phase(noisy), _phase(truth))
    assert 0.08 <= val <= 0.12


def test_phase_rmse_empty_intersection():
    a = _phase(np.zeros((4, 4)), np.zeros((4, 4), bool))
    with pytest.raises(ValueError):
        phase_rmse(a, a)


def test_phase_pearson_branch_cut_agreement():
    rng = np.random.default_rng(2)
    base = np.where(rng.random((16, 16)) < 0.5, np.pi, 0.0)
    flipped = np.where(base == np.pi, -np.pi, 0.0)
    assert phase_pearson(_phase(base), _phase(flipped)) == pytest.approx(1.0, abs=1e-12)


def test_phase_pearson_anticorrelated():
    x = np.linspace(-1, 1, 64).reshape(8, 8)
    assert phase_pearson(_phase(x), _phase(-x)) == pytest.approx(-1.0, abs=1e-9)


def test_phase_pearson_constant_maps():
    a = _phase(np.zeros((4, 4)))
    assert phase_pearson(a, a) == 1.0


@pytest.mark.parametrize("order", ["C", "F"])
def test_phase_rmse_matches_the_whole_array_oracle(order):
    # d=256 spans several row blocks; the supports differ, so blocks gather different counts
    d = 256
    rng = np.random.default_rng(7)
    truth = PhaseImage(entries=np.asarray(rng.uniform(-np.pi, np.pi, (d, d)), order=order),
                       support=rng.random((d, d)) < 0.9)
    noisy = np.asarray(truth.entries + rng.normal(0, 0.3, (d, d)) + 2.5, order=order)
    noisy[:2, :8] = truth.entries[:2, :8] + 2.5 + np.pi    # residuals at the branch cut
    recovered = PhaseImage(entries=noisy, support=rng.random((d, d)) < 0.6)
    assert phase_rmse(recovered, truth) == phase_rmse_oracle(recovered, truth)
