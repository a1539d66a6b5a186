import numpy as np
import pytest

from ghostphase import (azimuthal_slope, cross_section_azimuthal, cross_section_horizontal,
                        make_object, phase_rmse, wrap)

from conftest import phase_pearson, phase_rmse_oracle


def _full(phase):
    return np.ones(np.shape(phase), bool)


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
    columns, values = cross_section_horizontal(entries, support, 2)
    np.testing.assert_array_equal(columns, [1.0, 2.0])
    np.testing.assert_allclose(values, [0.2, 0.3])
    with pytest.raises(ValueError):
        cross_section_horizontal(entries, support, 0)
    with pytest.raises(ValueError, match="outside the grid"):
        cross_section_horizontal(entries, support, -2)


def test_azimuthal_cross_section_on_synthetic_vortex():
    d = 32
    c = d / 2 - 0.5
    y, x = np.mgrid[0:d, 0:d]
    entries = wrap(np.arctan2(y - c, x - c))
    theta, values = cross_section_azimuthal(entries, radius=10, samples=64)
    assert theta.shape == (64,)
    # nearest-pixel sampling: each sample close to its nominal azimuth
    err = wrap(values - theta)
    assert np.abs(err).max() < 0.12


def test_azimuthal_radius_validation():
    with pytest.raises(ValueError):
        cross_section_azimuthal(np.zeros((8, 8)), radius=10)
    with pytest.raises(ValueError):
        cross_section_azimuthal(np.zeros((8, 8)), radius=-1)
    with pytest.raises(ValueError, match="outside the grid"):
        cross_section_azimuthal(np.zeros((8, 8)), radius=np.nan)


def test_unwrapped_trace_is_continuous():
    theta = 2 * np.pi * np.arange(64) / 64
    un = np.unwrap(wrap(theta))
    assert np.abs(np.diff(un)).max() < 0.2
    assert un[-1] - un[0] == pytest.approx(2 * np.pi * 63 / 64, abs=1e-9)


def test_azimuthal_slope_unit_gradient():
    theta = 2 * np.pi * np.arange(64) / 64
    assert azimuthal_slope(theta, wrap(theta + 0.4)) == pytest.approx(1.0, abs=1e-9)
    assert azimuthal_slope(theta, wrap(3 * theta)) == pytest.approx(3.0, abs=1e-9)


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
        traces.append(cross_section_azimuthal(np.angle(ring), radius=10, samples=samples)[1])
    for values in traces:
        un = np.unwrap(values)
        A = np.vstack([theta, np.ones_like(theta)]).T
        expected = np.linalg.lstsq(A, un, rcond=None)[0][0]
        assert azimuthal_slope(theta, values) == pytest.approx(expected, rel=1e-12, abs=0)


def test_phase_rmse_identical_and_offset():
    rng = np.random.default_rng(5)
    entries = wrap(rng.uniform(-np.pi, np.pi, (16, 16)))
    assert phase_rmse(entries, entries, _full(entries)) == pytest.approx(0.0, abs=1e-12)
    shifted = wrap(entries + 1.9)
    assert phase_rmse(shifted, entries, _full(entries)) == pytest.approx(0.0, abs=1e-9)


def test_phase_rmse_across_branch_cut():
    a = np.full((8, 8), np.pi - 0.05)
    b = np.full((8, 8), -np.pi + 0.05)
    assert phase_rmse(a, b, _full(a)) == pytest.approx(0.0, abs=1e-12)


def test_phase_rmse_known_noise_level():
    rng = np.random.default_rng(11)
    truth = wrap(rng.uniform(-np.pi, np.pi, (64, 64)))
    noisy = wrap(truth + rng.normal(0, 0.1, truth.shape))
    val = phase_rmse(noisy, truth, _full(truth))
    assert 0.08 <= val <= 0.12


def test_phase_rmse_empty_intersection():
    a = np.zeros((4, 4))
    with pytest.raises(ValueError):
        phase_rmse(a, a, np.zeros((4, 4), bool))


def test_phase_pearson_branch_cut_agreement():
    rng = np.random.default_rng(2)
    base = np.where(rng.random((16, 16)) < 0.5, np.pi, 0.0)
    flipped = np.where(base == np.pi, -np.pi, 0.0)
    assert phase_pearson(base, flipped, _full(base)) == pytest.approx(1.0, abs=1e-12)


def test_phase_pearson_anticorrelated():
    x = np.linspace(-1, 1, 64).reshape(8, 8)
    assert phase_pearson(x, -x, _full(x)) == pytest.approx(-1.0, abs=1e-9)


def test_phase_pearson_constant_maps():
    a = np.zeros((4, 4))
    assert phase_pearson(a, a, _full(a)) == 1.0


@pytest.mark.parametrize("order", ["C", "F"])
def test_phase_rmse_matches_the_whole_array_oracle(order):
    # d=256 spans several row blocks; the supports differ, so blocks gather different counts
    d = 256
    rng = np.random.default_rng(7)
    truth = np.asarray(rng.uniform(-np.pi, np.pi, (d, d)), order=order)
    truth_support = rng.random((d, d)) < 0.9
    noisy = np.asarray(truth + rng.normal(0, 0.3, (d, d)) + 2.5, order=order)
    noisy[:2, :8] = truth[:2, :8] + 2.5 + np.pi    # residuals at the branch cut
    both = (rng.random((d, d)) < 0.6) & truth_support
    assert phase_rmse(noisy, truth, both) == phase_rmse_oracle(noisy, truth, both)
