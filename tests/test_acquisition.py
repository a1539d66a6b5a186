from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostphase import (MeasurementSeries, OrthoMatrix, fwht2, make_object,
                        measure_exact, sample_counts)

from conftest import (closed_form_values, decompose_probability, naive_mask_series,
                      random_complex_object)


def test_flat_object_cos_series():
    H = OrthoMatrix(4)
    series = measure_exact(make_object("flat", 4), H)[0]
    assert series.values[0] == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(series.values[1:], 0.5, atol=1e-12)


def test_flat_object_sin_series():
    H = OrthoMatrix(4)
    series = measure_exact(make_object("flat", 4), H)[1]
    assert series.values[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(series.values[1:], 0.5, atol=1e-12)


def test_v0_is_twice_reference_probability():
    H = OrthoMatrix(8)
    obj = make_object("pi-slit-phase", 8)
    p0 = abs(fwht2(obj, H)[0, 0]) ** 2
    series = measure_exact(obj, H)[0]
    assert series.values[0] == pytest.approx(2 * p0, abs=1e-12)


@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_slit_matches_naive_oracle(kind):
    H = OrthoMatrix(4)
    obj = make_object("pi-slit-phase", 4)
    series = measure_exact(obj, H)[("cos", "sin").index(kind)]
    np.testing.assert_allclose(series.values, naive_mask_series(obj, H, kind), atol=1e-12)


@pytest.mark.parametrize("d", [4, 8, 16])
@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_fast_path_equals_naive_path(d, kind):
    H = OrthoMatrix(d)
    obj = random_complex_object(d, seed=d)
    series = measure_exact(obj, H)[("cos", "sin").index(kind)]
    np.testing.assert_allclose(series.values, naive_mask_series(obj, H, kind), atol=1e-12)


def test_closed_form_residual_flat_and_global_phase():
    H = OrthoMatrix(8)
    flat = make_object("flat", 8)
    for obj in (flat, np.exp(1j * np.pi / 2) * flat):
        coeffs = fwht2(obj, H).ravel()
        for series in measure_exact(obj, H):
            assert decompose_probability(series, coeffs) < 1e-12


def test_sign_convention_oracle():
    H = OrthoMatrix(8)
    obj = random_complex_object(8, seed=11)
    coeffs = fwht2(obj, H).ravel()
    cos_series, sin_series = measure_exact(obj, H)
    assert decompose_probability(cos_series, coeffs, delta_sign="minus") < 1e-10
    assert decompose_probability(sin_series, coeffs, delta_sign="minus") < 1e-10
    # alternative conventions that the oracle rules out
    assert decompose_probability(cos_series, coeffs, delta_sign="plus") > 1e-3
    assert decompose_probability(sin_series, coeffs, cross_sign="plus") > 1e-3
    assert decompose_probability(sin_series, coeffs, sin_coeff="full") > 1e-3


def test_energy_bookkeeping():
    H = OrthoMatrix(8)
    obj = random_complex_object(8, seed=4)
    coeffs = fwht2(obj, H).ravel()
    for kind, series in zip(("cos", "sin"), measure_exact(obj, H)):
        assert series.values.mean() == pytest.approx(
            closed_form_values(coeffs, kind).mean(), abs=1e-12)


def test_random_basis_series_matches_per_mask_sums():
    basis = OrthoMatrix(4, seed=5)
    obj = random_complex_object(4, seed=5)
    series = measure_exact(obj, basis)[1]
    for j in range(16):
        T = (basis.mask(j) + 1j * basis.mask(0)) / np.sqrt(2)
        assert series.values[j] == pytest.approx(
            abs(np.sum(np.conj(T) * obj)) ** 2, abs=1e-12)


def test_sampling_determinism_and_independence_of_channel():
    H = OrthoMatrix(8)
    obj = make_object("pi-slit-phase", 8)
    cos_series = measure_exact(obj, H)[0]
    a = sample_counts(cos_series, 1e5, seed=7)
    b = sample_counts(cos_series, 1e5, seed=7)
    np.testing.assert_array_equal(a.values, b.values)
    c = sample_counts(cos_series, 1e5, seed=8)
    assert not np.array_equal(a.values, c.values)
    assert a.flux == 1e5 and a.seed == 7 and a.kind == "cos"


def test_sampling_rejects_bad_flux():
    H = OrthoMatrix(4)
    series = measure_exact(make_object("flat", 4), H)[0]
    with pytest.raises(ValueError):
        sample_counts(series, 0, seed=0)
    with pytest.raises(ValueError):
        sample_counts(series, -10, seed=0)
    for flux in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            sample_counts(series, flux, seed=0)
    noisy = sample_counts(series, 100, seed=0)
    with pytest.raises(ValueError):
        sample_counts(noisy, 100, seed=0)


def test_sampling_law_of_large_numbers():
    H = OrthoMatrix(4)
    obj = make_object("flat", 4)
    series = measure_exact(obj, H)[0]
    counts = sample_counts(series, 1e8, seed=1)
    exact = series.values / series.values.sum()
    sampled = counts.values / counts.values.sum()
    nonzero = exact > 1e-12
    rel = np.abs(sampled[nonzero] - exact[nonzero]) / exact[nonzero]
    assert rel.max() < 1e-3


def test_sampling_unbiased_within_poisson_bands():
    H = OrthoMatrix(8)
    obj = make_object("pi-slit-phase", 8)
    series = measure_exact(obj, H)[0]
    flux = 1e6
    reps = 100
    mean = np.zeros_like(series.values)
    for seed in range(reps):
        mean += sample_counts(series, flux, seed=seed).values
    mean /= reps
    expected = flux * series.values / series.values.sum()
    sigma = np.sqrt(np.maximum(expected, 1.0) / reps)
    assert np.all(np.abs(mean - expected) <= 3 * sigma)


def test_sampling_rejects_dark_series():
    H = OrthoMatrix(4)
    dark = measure_exact(np.zeros((4, 4), complex), H)[0]
    with pytest.raises(ValueError, match="sums to zero"):
        sample_counts(dark, 1e6, seed=0)


@pytest.mark.parametrize("kind, kind_bit", [("cos", 0), ("sin", 1)])
def test_sampling_is_one_philox_draw_per_channel(kind, kind_bit):
    H = OrthoMatrix(8)
    series = measure_exact(make_object("pi-slit-phase", 8), H)[kind_bit]
    means = 1e5 * series.values / series.values.sum()
    rng = np.random.Generator(np.random.Philox(key=[7, kind_bit]))
    counts = sample_counts(series, 1e5, seed=7)
    np.testing.assert_array_equal(counts.values, rng.poisson(means))
    assert counts.values.dtype == np.float64


def test_sampling_cos_and_sin_streams_differ():
    H = OrthoMatrix(8)
    cos_series = measure_exact(make_object("pi-slit-phase", 8), H)[0]
    sin_series = replace(cos_series, kind="sin")
    a = sample_counts(cos_series, 1e5, seed=7)
    b = sample_counts(sin_series, 1e5, seed=7)
    assert not np.array_equal(a.values, b.values)


def test_sampling_keys_seeds_above_2_63_exactly():
    # a float64 key would round both seeds to 2**63 and repeat one stream
    H = OrthoMatrix(8)
    series = measure_exact(make_object("pi-slit-phase", 8), H)[0]
    a = sample_counts(series, 1e5, seed=2**63 + 5)
    b = sample_counts(series, 1e5, seed=2**63 + 6)
    assert not np.array_equal(a.values, b.values)
    top = sample_counts(series, 1e5, seed=2**64 - 1)
    rng = np.random.Generator(np.random.Philox(key=np.array([2**64 - 1, 0], dtype=np.uint64)))
    np.testing.assert_array_equal(top.values, rng.poisson(1e5 * series.values / series.values.sum()))


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=1, max_size=64)
       .filter(lambda v: sum(v) > 0),
       flux=st.floats(1.0, 1e9),
       seed=st.integers(0, 2**63))
def test_sampling_counts_are_nonnegative_integers(values, flux, seed):
    values = np.array(values)
    series = MeasurementSeries(kind="cos", basis=OrthoMatrix(1), values=values)
    counts = sample_counts(series, flux, seed).values
    assert counts.shape == values.shape
    assert np.all(counts >= 0) and np.all(counts == np.round(counts))
    assert np.all(counts[values == 0] == 0)
