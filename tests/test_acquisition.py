from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostphase import (OrthoMatrix, Scan, fwht2, make_object,
                        measure_exact, sample_counts)

from conftest import (closed_form_values, decompose_probability, naive_mask_series,
                      random_complex_object)


def test_flat_object_cos_series():
    H = OrthoMatrix(4)
    values = measure_exact(make_object("flat", 4), H).cos
    assert values[0] == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(values[1:], 0.5, atol=1e-12)


def test_flat_object_sin_series():
    H = OrthoMatrix(4)
    values = measure_exact(make_object("flat", 4), H).sin
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(values[1:], 0.5, atol=1e-12)


def test_v0_is_twice_reference_probability():
    H = OrthoMatrix(8)
    obj = make_object("pi-slit-phase", 8)
    p0 = abs(fwht2(obj, H)[0, 0]) ** 2
    assert measure_exact(obj, H).cos[0] == pytest.approx(2 * p0, abs=1e-12)


@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_slit_matches_naive_oracle(kind):
    H = OrthoMatrix(4)
    obj = make_object("pi-slit-phase", 4)
    values = getattr(measure_exact(obj, H), kind)
    np.testing.assert_allclose(values, naive_mask_series(obj, H, kind), atol=1e-12)


@pytest.mark.parametrize("d", [4, 8, 16])
@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_fast_path_equals_naive_path(d, kind):
    H = OrthoMatrix(d)
    obj = random_complex_object(d, seed=d)
    values = getattr(measure_exact(obj, H), kind)
    np.testing.assert_allclose(values, naive_mask_series(obj, H, kind), atol=1e-12)


def test_closed_form_residual_flat_and_global_phase():
    H = OrthoMatrix(8)
    flat = make_object("flat", 8)
    for obj in (flat, np.exp(1j * np.pi / 2) * flat):
        coeffs = fwht2(obj, H).ravel()
        scan = measure_exact(obj, H)
        for kind in ("cos", "sin"):
            assert decompose_probability(scan, kind, coeffs) < 1e-12


def test_sign_convention_oracle():
    H = OrthoMatrix(8)
    obj = random_complex_object(8, seed=11)
    coeffs = fwht2(obj, H).ravel()
    scan = measure_exact(obj, H)
    assert decompose_probability(scan, "cos", coeffs, delta_sign="minus") < 1e-10
    assert decompose_probability(scan, "sin", coeffs, delta_sign="minus") < 1e-10
    # alternative conventions that the oracle rules out
    assert decompose_probability(scan, "cos", coeffs, delta_sign="plus") > 1e-3
    assert decompose_probability(scan, "sin", coeffs, cross_sign="plus") > 1e-3
    assert decompose_probability(scan, "sin", coeffs, sin_coeff="full") > 1e-3


def test_energy_bookkeeping():
    H = OrthoMatrix(8)
    obj = random_complex_object(8, seed=4)
    coeffs = fwht2(obj, H).ravel()
    scan = measure_exact(obj, H)
    for kind in ("cos", "sin"):
        assert getattr(scan, kind).mean() == pytest.approx(
            closed_form_values(coeffs, kind).mean(), abs=1e-12)


def test_random_basis_series_matches_per_mask_sums():
    basis = OrthoMatrix(4, seed=5)
    obj = random_complex_object(4, seed=5)
    values = measure_exact(obj, basis).sin
    for j in range(16):
        T = (basis.mask(j) + 1j * basis.mask(0)) / np.sqrt(2)
        assert values[j] == pytest.approx(
            abs(np.sum(np.conj(T) * obj)) ** 2, abs=1e-12)


def test_sampling_determinism_and_independence_of_channel():
    H = OrthoMatrix(8)
    obj = make_object("pi-slit-phase", 8)
    scan = measure_exact(obj, H)
    a = sample_counts(scan, 1e5, seed=7)
    b = sample_counts(scan, 1e5, seed=7)
    for kind in ("cos", "sin"):
        np.testing.assert_array_equal(getattr(a, kind), getattr(b, kind))
    c = sample_counts(scan, 1e5, seed=8)
    assert not np.array_equal(a.cos, c.cos)
    assert a.flux == 1e5 and a.seed == 7 and a.basis == H


def test_sampling_rejects_bad_flux():
    H = OrthoMatrix(4)
    series = measure_exact(make_object("flat", 4), H)
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
    scan = measure_exact(obj, H)
    counts = sample_counts(scan, 1e8, seed=1)
    exact = scan.cos / scan.cos.sum()
    sampled = counts.cos / counts.cos.sum()
    nonzero = exact > 1e-12
    rel = np.abs(sampled[nonzero] - exact[nonzero]) / exact[nonzero]
    assert rel.max() < 1e-3


def test_sampling_unbiased_within_poisson_bands():
    H = OrthoMatrix(8)
    obj = make_object("pi-slit-phase", 8)
    scan = measure_exact(obj, H)
    flux = 1e6
    reps = 100
    mean = np.zeros_like(scan.cos)
    for seed in range(reps):
        mean += sample_counts(scan, flux, seed=seed).cos
    mean /= reps
    expected = flux * scan.cos / scan.cos.sum()
    sigma = np.sqrt(np.maximum(expected, 1.0) / reps)
    assert np.all(np.abs(mean - expected) <= 3 * sigma)


def test_sampling_rejects_dark_series():
    H = OrthoMatrix(4)
    dark = measure_exact(np.zeros((4, 4), complex), H)
    with pytest.raises(ValueError, match="sums to zero"):
        sample_counts(dark, 1e6, seed=0)


@pytest.mark.parametrize("header", [{"flux": 1e6}, {"seed": 7}], ids=["flux-only", "seed-only"])
def test_scan_has_both_flux_and_seed_or_neither(header):
    # write_series would head such a scan with a line that read_series rejects
    values = np.ones(16)
    with pytest.raises(ValueError, match="a scan has both or neither"):
        Scan(OrthoMatrix(4), values, values, **header)
    exact = measure_exact(make_object("flat", 4), OrthoMatrix(4))
    assert sample_counts(exact, 1e6, 7).seed == 7


@pytest.mark.parametrize("kind, kind_bit", [("cos", 0), ("sin", 1)])
def test_sampling_is_one_philox_draw_per_channel(kind, kind_bit):
    H = OrthoMatrix(8)
    scan = measure_exact(make_object("pi-slit-phase", 8), H)
    values = getattr(scan, kind)
    means = 1e5 * values / values.sum()
    rng = np.random.Generator(np.random.Philox(key=[7, kind_bit]))
    counts = getattr(sample_counts(scan, 1e5, seed=7), kind)
    np.testing.assert_array_equal(counts, rng.poisson(means))
    assert counts.dtype == np.float64


def test_sampling_cos_and_sin_streams_differ():
    H = OrthoMatrix(8)
    scan = measure_exact(make_object("pi-slit-phase", 8), H)
    counts = sample_counts(replace(scan, sin=scan.cos), 1e5, seed=7)
    assert not np.array_equal(counts.cos, counts.sin)


def test_sampling_keys_seeds_above_2_63_exactly():
    # a float64 key would round both seeds to 2**63 and repeat one stream
    H = OrthoMatrix(8)
    scan = measure_exact(make_object("pi-slit-phase", 8), H)
    a = sample_counts(scan, 1e5, seed=2**63 + 5)
    b = sample_counts(scan, 1e5, seed=2**63 + 6)
    assert not np.array_equal(a.cos, b.cos)
    top = sample_counts(scan, 1e5, seed=2**64 - 1)
    rng = np.random.Generator(np.random.Philox(key=np.array([2**64 - 1, 0], dtype=np.uint64)))
    np.testing.assert_array_equal(top.cos, rng.poisson(1e5 * scan.cos / scan.cos.sum()))


@settings(max_examples=50, deadline=None)
@given(d=st.sampled_from([1, 2, 4, 8]), data=st.data(),
       flux=st.floats(1.0, 1e9),
       seed=st.integers(0, 2**63))
def test_sampling_counts_are_nonnegative_integers(d, data, flux, seed):
    values = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
                                         min_size=d * d, max_size=d * d).filter(lambda v: sum(v) > 0)))
    scan = sample_counts(Scan(OrthoMatrix(d), values, values), flux, seed)
    for counts in (scan.cos, scan.sin):
        assert counts.shape == values.shape
        assert np.all(counts >= 0) and np.all(counts == np.round(counts))
        assert np.all(counts[values == 0] == 0)
