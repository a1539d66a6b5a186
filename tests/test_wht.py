import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostphase import DimensionError, fwht2, hadamard_matrix

from conftest import naive_transform, random_complex_object


def test_d1_base_case():
    H = hadamard_matrix(1)
    assert H.entries == pytest.approx(np.array([[1.0]]))


def test_d2_natural_is_sylvester():
    H = hadamard_matrix(2)
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    np.testing.assert_allclose(H.entries, expected)


def test_d4_sequency_rows_ordered_by_sign_changes():
    # oracle: enumerate Sylvester rows, count sign changes, sort
    nat = hadamard_matrix(4).entries
    counts = [int(np.count_nonzero(np.diff(np.sign(row)))) for row in nat]
    expected = nat[np.argsort(counts, kind="stable")]
    seq = hadamard_matrix(4, "sequency")
    np.testing.assert_allclose(seq.entries, expected)
    assert list(np.count_nonzero(np.diff(np.sign(seq.entries), axis=1), axis=1)) == [0, 1, 2, 3]


@pytest.mark.parametrize("d", [2, 4, 8, 16])
@pytest.mark.parametrize("ordering", ["natural", "sequency"])
def test_orthogonality_and_column_zero(d, ordering):
    H = hadamard_matrix(d, ordering)
    np.testing.assert_allclose(H.entries @ H.entries.T, np.eye(d), atol=1e-12)
    assert np.all(np.abs(np.abs(H.entries) - 1 / np.sqrt(d)) < 1e-15)
    assert np.all(H.entries[0] > 0)
    assert np.all(H.entries[:, 0] > 0)
    assert not H.entries.flags.writeable   # stages share one basis


def test_non_power_of_two_rejected():
    for bad in (3, 6, 0, -4):
        with pytest.raises(DimensionError):
            hadamard_matrix(bad)


def test_mask_j0_is_uniform():
    for d in (2, 4, 8):
        M0 = hadamard_matrix(d).mask(0)
        np.testing.assert_allclose(M0, np.full((d, d), 1.0 / d))


def test_mask_d2_j3():
    M = hadamard_matrix(2).mask(3)
    np.testing.assert_allclose(M, 0.5 * np.array([[1, -1], [-1, 1]]))


def test_mask_outer_product_factorization():
    # j=5 at d=4 -> (n, m) = (1, 1): product of the row and column factors
    H = hadamard_matrix(4)
    M5 = H.mask(5)
    row_mask = H.mask(1 * 4 + 0)   # h_1 (x) h_0
    col_mask = H.mask(0 * 4 + 1)   # h_0 (x) h_1
    np.testing.assert_allclose(M5, row_mask * col_mask * 4, atol=1e-14)
    np.testing.assert_allclose(M5, np.outer(H.entries[1], H.entries[1]))


def test_mask_index_out_of_range():
    H = hadamard_matrix(4)
    for bad in (-1, 16, 100):
        with pytest.raises(IndexError):
            H.mask(bad)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_mask_orthonormality_exhaustive(d):
    H = hadamard_matrix(d)
    masks = [H.mask(j) for j in range(d * d)]
    for j, Mj in enumerate(masks):
        for k, Mk in enumerate(masks):
            assert np.sum(Mj * Mk) == pytest.approx(float(j == k), abs=1e-12)


def test_fwht2_delta_and_ones():
    d = 8
    H = hadamard_matrix(d)
    delta = np.zeros((d, d))
    delta[0, 0] = 1.0
    np.testing.assert_allclose(fwht2(delta, H), np.full((d, d), 1.0 / d), atol=1e-13)
    np.testing.assert_allclose(fwht2(np.ones((d, d)), H), delta * d, atol=1e-12)


@pytest.mark.parametrize("ordering", ["natural", "sequency"])
def test_fwht2_matches_naive(ordering):
    H = hadamard_matrix(8, ordering)
    X = random_complex_object(8, seed=1)
    np.testing.assert_allclose(fwht2(X, H), naive_transform(X, H), atol=1e-12)


def test_fwht2_dimension_mismatch():
    with pytest.raises(DimensionError):
        fwht2(np.zeros((4, 4)), hadamard_matrix(8))


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("ordering", ["natural", "sequency"])
def test_fwht2_matches_mask_inner_products(d, ordering):
    H = hadamard_matrix(d, ordering)
    X = random_complex_object(d, seed=3)
    out = fwht2(X, H)
    for j in range(d * d):
        n, m = divmod(j, d)
        assert out[n, m] == pytest.approx(np.sum(H.mask(j) * X), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), dlog=st.integers(0, 4),
       ordering=st.sampled_from(["natural", "sequency"]))
def test_involution_and_parseval(seed, dlog, ordering):
    d = 2 ** dlog
    H = hadamard_matrix(d, ordering)
    X = random_complex_object(d, seed)
    Y = fwht2(X, H)
    np.testing.assert_allclose(fwht2(Y, H), X, atol=1e-12)
    assert np.sum(np.abs(Y) ** 2) == pytest.approx(np.sum(np.abs(X) ** 2), abs=1e-12)
