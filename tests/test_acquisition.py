import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostphase import (OrthoMatrix, Scan, acquisition, fwht2, make_object,
                        measure_exact, sample_counts, wht)

from conftest import (closed_form_values, decompose_probability, detection_pair_oracle,
                      naive_mask_series, random_complex_object)


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
    for flux in (float("nan"), float("inf"), 1.01e18):
        with pytest.raises(ValueError, match="finite"):
            sample_counts(series, flux, seed=0)
    assert sample_counts(series, 1e18, seed=0).cos.sum() == pytest.approx(1e18, rel=1e-6)
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="negative or NaN"):
            sample_counts(replace(series, cos=np.where(series.cos > 1, bad, series.cos)), 1e6, seed=0)
    noisy = sample_counts(series, 100, seed=0)
    with pytest.raises(ValueError):
        sample_counts(noisy, 100, seed=0)


def poisson_tail_bounds(counts, means):
    """Chernoff bounds exp(-mean h(count / mean)), h(x) = x log x - x + 1, on P(X >= count) for
    a count at or above its mean and on P(X <= count) below it, X ~ Poisson(mean); a mean of 0
    bounds 1 for a count of 0 and 0 for any other."""
    counts, means = np.broadcast_arrays(np.asarray(counts, dtype=float), np.asarray(means, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        x = counts / means
        h = np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0) - x + 1
        return np.where(means > 0, np.exp(-means * h), (counts == 0).astype(float))


def within_poisson_tails(counts, means, rate=1e-6):
    """True if every count lies where its tail bound is at least rate / (2 n), n = len(counts).
    The bound falls monotonically away from the mean, so a Poisson count falls outside on either
    side with probability below rate / (2 n), and n independent counts fail with probability
    below ``rate``."""
    return bool(np.all(poisson_tail_bounds(counts, means) >= rate / (2 * np.size(counts))))


def scaled_by_1_005(scan, flux, seed):
    # a sampler with every mean 0.5 % high, which the bounds below must catch
    return sample_counts(scan, 1.005 * flux, seed)


def test_poisson_tail_bounds_are_chernoff_bounds():
    # each bound is at least the exact tail it bounds, the pmf summed with math.lgamma
    for mean in (0.5, 7.0, 100.0):
        pmf = [math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1)) for k in range(400)]
        for count in range(int(3 * mean) + 3):
            tail = sum(pmf[:count + 1]) if count < mean else sum(pmf[count:])
            assert tail <= poisson_tail_bounds(count, mean)
    np.testing.assert_allclose(poisson_tail_bounds([130, 75], 100), [0.016451, 0.032587], rtol=1e-4)
    assert poisson_tail_bounds([0, 3], 0).tolist() == [1.0, 0.0]


def test_sampling_law_of_large_numbers():
    # 32 counts near 5.3e6 each (a s.d. of 0.04 %) fail with probability below 1e-6, and
    # means 0.5 % high fail. The old bound, 0.1 % on every normalized cos count, failed for
    # 23 % of seeds
    scan = measure_exact(make_object("flat", 4), OrthoMatrix(4))
    flux = 1e8
    means = [flux * v / v.sum() for v in (scan.cos, scan.sin)]
    for sampler, holds in ((sample_counts, True), (scaled_by_1_005, False)):
        counts = sampler(scan, flux, 1)
        assert within_poisson_tails([counts.cos, counts.sin], means) == holds


def test_sampling_unbiased_within_poisson_bands():
    # the sum of 100 independent counts of a mask is Poisson with 100 times its mean; the 64 sums
    # fail with probability below 1e-6, and means 0.5 % high fail. The old 3-sigma band on every
    # mask failed for 16-23 % of 100-seed blocks
    scan = measure_exact(make_object("pi-slit-phase", 8), OrthoMatrix(8))
    flux, reps = 1e6, 100
    means = reps * flux * scan.cos / scan.cos.sum()
    for sampler, holds in ((sample_counts, True), (scaled_by_1_005, False)):
        total = sum(sampler(scan, flux, seed).cos for seed in range(reps))
        assert within_poisson_tails(total, means) == holds


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


def numpy_philox_block(key, counter):
    # numpy's Philox steps its counter before each block, so it starts one below
    k = int(key[0]) + (int(key[1]) << 64)
    c = sum(int(w) << (64 * i) for i, w in enumerate(counter))
    return tuple(int(w) for w in np.random.Philox(key=k, counter=(c - 1) % 2 ** 256).random_raw(4))


def unit(word):
    return (word >> 11) * 2.0 ** -53


def ptrs_attempt(mean, u, v):
    """numpy's PTRS (random_poisson_ptrs) for one pair of uniforms: the count, or None."""
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    u -= 0.5
    us = 0.5 - abs(u)
    if us == 0:
        return None
    k = math.floor((2 * a / us + b) * u + mean + 0.43)
    if us >= 0.07 and v <= 0.9277 - 3.6224 / (b - 2):
        return k
    if k < 0 or (us < 0.013 and v > us):
        return None
    log_v = math.log(v) if v > 0 else -math.inf
    if (log_v + math.log(1.1239 + 1.1328 / (b - 3.4)) - math.log(a / (us * us) + b)
            <= -mean + k * math.log(mean) - math.lgamma(k + 1)):
        return k
    return None


def inversion_count(mean, u):
    """The least k whose Poisson CDF sum exceeds u, or the k whose term no longer grows it."""
    k, pmf = 0, math.exp(-mean)
    cdf = pmf
    while u >= cdf:
        k += 1
        pmf *= mean / k
        if cdf + pmf == cdf:
            break
        cdf += pmf
    return k


def test_inversion_stops_where_the_cdf_sum_stops_growing():
    # in float64 the CDF sums at these means stall below the largest uniform, 1 - 2**-53,
    # and at 2 and 5 they reach 1
    means = [0.03, 0.21, 9.99, 2.0, 5.0]
    u = 1 - 2.0 ** -53
    counts = acquisition._inversion(np.array(means), np.full(len(means), u))
    assert counts.tolist() == [inversion_count(m, u) for m in means] == [8, 12, 47, 22, 33]


def test_ptrs_takes_the_extreme_uniforms_without_a_warning():
    # u = 0 gives us = 0, a division by zero and a candidate of -inf, which is rejected;
    # v = 0 reaches the log test at u = 0.96, where log(0) = -inf accepts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k, ok = acquisition._ptrs(np.array([15.0, 15.0]), np.array([0.0, 0.96]), np.zeros(2))
    assert ok.tolist() == [False, True]
    assert k[1] == ptrs_attempt(15.0, 0.96, 0.0)


def reference_count(mean, j, key):
    """Mask j's count, one value at a time from numpy's own Philox blocks: inversion below 10,
    PTRS from half j & 1 of block (j >> 1, 0, 0, 0), then both halves of (j, r, 0, 0)."""
    words = numpy_philox_block(key, (j >> 1, 0, 0, 0))
    u, v = (unit(w) for w in words[2 * (j & 1):2 * (j & 1) + 2])
    if mean < 10:
        return inversion_count(mean, u)
    attempts, r = [(u, v)], 1
    while True:
        for u, v in attempts:
            k = ptrs_attempt(mean, u, v)
            if k is not None:
                return k
        words = [unit(w) for w in numpy_philox_block(key, (j, r, 0, 0))]
        attempts, r = [words[:2], words[2:]], r + 1


PHILOX_BLOCK = wht._philox_block


def recording_blocks(monkeypatch, module):
    """Every (key, counter) block that ``module`` computes from now on, with its four words."""
    seen = []

    def recording(counter, key):
        words = PHILOX_BLOCK(counter, key)
        for column in zip(*(w.ravel() for w in np.broadcast_arrays(
                *(np.asarray(w, dtype=np.uint64) for w in (*key, *counter, *words))))):
            column = tuple(int(w) for w in column)
            seen.append((column[:2], column[2:6], column[6:]))
        return words

    monkeypatch.setattr(module, "_philox_block", recording)
    return seen


@pytest.mark.parametrize("kind, kind_bit", [("cos", 0), ("sin", 1)])
def test_sampling_is_one_philox_draw_per_channel(monkeypatch, kind, kind_bit):
    # channel c reads Philox blocks keyed (seed, 1 + c); numpy's Philox is the oracle for each
    # block, and a one-value-at-a-time sampler fed by numpy's blocks for the counts, over both
    # inversion (flux 300, means near 5) and PTRS (flux 1e5)
    scan = measure_exact(make_object("pi-slit-phase", 8), OrthoMatrix(8))
    values = getattr(scan, kind)
    for flux in (300, 1e5):
        blocks = recording_blocks(monkeypatch, acquisition)
        counts = getattr(sample_counts(scan, flux, seed=7), kind)
        assert counts.dtype == np.float64
        means = flux * values / values.sum()
        assert counts.tolist() == [reference_count(m, j, (7, 1 + kind_bit)) for j, m in enumerate(means)]
        mine = [(counter, words) for key, counter, words in blocks if key == (7, 1 + kind_bit)]
        assert {counter[0] for counter, _ in mine if counter[1] == 0} == set(range(32))
        for counter, words in mine:
            assert words == numpy_philox_block((7, 1 + kind_bit), counter)


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
    means = 1e5 * scan.cos / scan.cos.sum()
    assert top.cos.tolist() == [reference_count(m, j, (2**64 - 1, 1)) for j, m in enumerate(means)]


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
def test_sampling_reads_no_block_of_the_pixel_permutation(monkeypatch, seed):
    # the permutation of a basis seeded s reads key (s, 0); counts sampled with seed s once read
    # the cos counts from that same stream
    permutation = recording_blocks(monkeypatch, wht)
    sampler = recording_blocks(monkeypatch, acquisition)
    wht._pixel_permutation.cache_clear()
    scan = measure_exact(make_object("pi-slit-phase", 8), OrthoMatrix(8, seed=seed))
    sample_counts(scan, 1e5, seed=seed)
    read = [{(key, counter) for key, counter, _ in blocks} for blocks in (permutation, sampler)]
    assert read[0] and read[1] and not read[0] & read[1]


def chi2_sf(x, df):
    """P(chi-square with df degrees of freedom >= x): the regularized upper gamma function
    Q(df / 2, x / 2) from its closed forms at integer and half-integer order."""
    y = x / 2
    if df % 2:
        terms = [(i + 0.5, math.lgamma(i + 1.5)) for i in range(df // 2)]
        head = math.erfc(math.sqrt(y))
    else:
        terms = [(i, math.lgamma(i + 1)) for i in range(df // 2)]
        head = 0.0
    return head + sum(math.exp(-y + p * math.log(y) - lg) for p, lg in terms)


def poisson_chi2_pvalue(counts, mean):
    """Chi-square p-value of the counts against the Poisson(mean) pmf (from math.lgamma), with
    neighbouring values merged until each bin expects at least 5 counts."""
    top = int(mean + 40 * math.sqrt(mean) + 40)
    pmf = [math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1)) for k in range(top + 1)]
    observed = np.bincount(np.minimum(counts, top).astype(int), minlength=top + 1)
    bins, expected, seen = [], 0.0, 0
    for p, o in zip(pmf, observed):
        expected, seen = expected + p * counts.size, seen + o
        if expected >= 5:
            bins.append([expected, seen])
            expected, seen = 0.0, 0
    bins[-1][0] += expected
    bins[-1][1] += seen
    e, o = np.array(bins).T
    return chi2_sf(float(np.sum((o - e) ** 2 / e)), len(bins) - 1)


@pytest.mark.parametrize("mean", [0.05, 2, 9.99, 10, 12, 37.5, 400, 15000])
def test_sampling_matches_the_poisson_pmf(mean):
    # 16,384 counts per channel at one mean, on both sides of the switch to PTRS at 10; the 16
    # p-values of the 8 means fail with probability below 1e-6
    ones = np.ones(128 * 128)
    counts = sample_counts(Scan(OrthoMatrix(128), ones, ones), mean * ones.size, seed=3)
    for values in (counts.cos, counts.sin):
        assert poisson_chi2_pvalue(values, mean) >= 1e-6 / 16


def test_sampling_at_the_largest_mean():
    # at mean 1e18 a count's s.d. is ~1e9, far above float64's spacing of 128 there
    counts = acquisition._poisson(np.full(4096, 1e18), (11, 1))
    assert np.all(np.isfinite(counts)) and np.all(counts >= 0) and np.all(counts == np.floor(counts))
    # within 6 standard errors of the mean, estimated from the counts' own spread
    assert abs(counts.mean() - 1e18) <= 6 * counts.std() / math.sqrt(counts.size)
    assert 0.5e9 < counts.std() < 2e9


def test_sampled_count_depends_only_on_its_mask_and_mean():
    # counters are indexed by mask, so neither the other masks' means, nor their number, nor the
    # chunk a mask falls in changes its count; the means cover inversion, PTRS and zero
    rng = np.random.default_rng(5)
    means = 10.0 ** rng.uniform(-2, 6, 40000)
    means[::7] = 0.0
    counts = acquisition._poisson(means, (9, 2))
    fewer = means[:20001].copy()
    fewer[1::2] = 10.0 ** rng.uniform(-2, 6, fewer[1::2].size)
    np.testing.assert_array_equal(acquisition._poisson(fewer, (9, 2))[::2], counts[:20001:2])
    assert np.all(counts[::7] == 0)


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


@pytest.mark.parametrize("basis", [OrthoMatrix(256), OrthoMatrix(64, "sequency"), OrthoMatrix(32, seed=9)],
                         ids=["natural", "sequency", "random"])
def test_measure_exact_matches_the_whole_array_oracle(basis):
    # d=256 takes the overlaps in four row blocks
    obj = make_object("spiral-flower-phase", basis.dim)
    scan = measure_exact(obj, basis)
    want = detection_pair_oracle(acquisition.mask_overlaps(obj, basis))
    for got, expected in zip((scan.cos, scan.sin), want):
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
