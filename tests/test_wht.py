import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghostphase import NATURAL, SEQUENCY, OrthoMatrix, fwht2

from conftest import fwht2_oracle, mask_matrix, naive_transform, random_complex_object, sylvester


def basis_rows(H):
    """The 1D basis vectors h_n as the masks carry them: M_(n, 0) = h_n (x) h_0, h_0 = 1/sqrt(d)."""
    return np.array([H.mask(n * H.dim)[:, 0] for n in range(H.dim)]) * np.sqrt(H.dim)


def test_d1_base_case():
    H = OrthoMatrix(1)
    np.testing.assert_array_equal(H.mask(0), [[1.0]])
    np.testing.assert_array_equal(fwht2(np.array([[2.5 - 1j]]), H), [[2.5 - 1j]])


def test_d2_natural_is_sylvester():
    H = OrthoMatrix(2)
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    np.testing.assert_allclose(basis_rows(H), expected)


def test_d4_sequency_rows_ordered_by_sign_changes():
    # oracle: enumerate Sylvester rows, count sign changes, sort
    nat = sylvester(4)
    counts = [int(np.count_nonzero(np.diff(np.sign(row)))) for row in nat]
    expected = nat[np.argsort(counts, kind="stable")]
    seq = basis_rows(OrthoMatrix(4, "sequency"))
    np.testing.assert_allclose(seq, expected)
    assert list(np.count_nonzero(np.diff(np.sign(seq), axis=1), axis=1)) == [0, 1, 2, 3]


@pytest.mark.parametrize("d", [2, 4, 8, 16])
@pytest.mark.parametrize("ordering", ["natural", "sequency"])
def test_orthogonality_and_column_zero(d, ordering):
    H = OrthoMatrix(d, ordering)
    rows = basis_rows(H)
    np.testing.assert_allclose(rows @ rows.T, np.eye(d), atol=1e-12)
    assert np.all(np.abs(np.abs(rows) - 1 / np.sqrt(d)) < 1e-15)
    assert np.all(rows[0] > 0)
    assert np.all(rows[:, 0] > 0)
    # the basis holds no array, so stages share it without copies
    assert [f.name for f in dataclasses.fields(H)] == ["dim", "ordering", "seed"]
    assert not any(isinstance(getattr(H, f.name), np.ndarray) for f in dataclasses.fields(H))


def test_non_power_of_two_rejected():
    # OrthoMatrix(6) used to build and fail later inside a reshape
    for bad in (3, 6, 0, -4, 2.0):
        with pytest.raises(ValueError, match="dimension must be a power of two"):
            OrthoMatrix(bad)


@pytest.mark.parametrize("ordering", ["bogus", "Natural"])
def test_an_unknown_ordering_is_rejected_when_the_basis_is_built(ordering):
    # OrthoMatrix(8, "bogus") used to measure and write a basis=hadamard:bogus series
    with pytest.raises(ValueError, match="unknown ordering"):
        OrthoMatrix(8, ordering)


def test_a_numpy_integer_dim_is_stored_as_an_int():
    basis = OrthoMatrix(np.int64(8), SEQUENCY)
    assert type(basis.dim) is int and basis == OrthoMatrix(8, SEQUENCY)
    assert hash(basis) == hash(OrthoMatrix(8, SEQUENCY))


_BASES = st.integers(0, 8).map(lambda k: 2 ** k).flatmap(lambda d: st.one_of(
    st.builds(OrthoMatrix, st.just(d), st.sampled_from([NATURAL, SEQUENCY])),
    st.builds(OrthoMatrix, st.just(d), st.just(NATURAL), st.integers(0, 2 ** 64 - 1))))


@settings(max_examples=300, deadline=None)
@given(basis=_BASES)
@example(basis=OrthoMatrix(256, seed=2 ** 64 - 1))
@example(basis=OrthoMatrix(1, seed=0))
def test_descriptor_round_trip(basis):
    assert OrthoMatrix.from_descriptor(basis.descriptor, basis.dim) == basis


@pytest.mark.parametrize("text", ["permuted:05", "permuted:+1", "permuted: 1", "permuted:\u0661",
                                  "hadamard:", "hadamard:Natural", "random:3", "", "permuted:",
                                  "hadamard:natural:", "permuted:3 "])
def test_only_the_descriptors_a_basis_writes_parse(text):
    # a seed has one spelling, so two headers name the same basis only if they are equal
    with pytest.raises(ValueError, match="unknown basis descriptor"):
        OrthoMatrix.from_descriptor(text, 8)


def test_mask_j0_is_uniform():
    for d in (2, 4, 8):
        M0 = OrthoMatrix(d).mask(0)
        np.testing.assert_allclose(M0, np.full((d, d), 1.0 / d))


def test_mask_d2_j3():
    M = OrthoMatrix(2).mask(3)
    np.testing.assert_allclose(M, 0.5 * np.array([[1, -1], [-1, 1]]))


def test_mask_outer_product_factorization():
    # j=5 at d=4 -> (n, m) = (1, 1): product of the row and column factors
    H = OrthoMatrix(4)
    M5 = H.mask(5)
    row_mask = H.mask(1 * 4 + 0)   # h_1 (x) h_0
    col_mask = H.mask(0 * 4 + 1)   # h_0 (x) h_1
    np.testing.assert_allclose(M5, row_mask * col_mask * 4, atol=1e-14)
    h1 = sylvester(4)[1]
    np.testing.assert_allclose(M5, np.outer(h1, h1))


@pytest.mark.parametrize("d", [1, 2, 8, 32])
@pytest.mark.parametrize("ordering", ["natural", "sequency"])
def test_masks_are_exact_outer_products_of_sylvester_rows(d, ordering):
    # the rows' signs over d: a product of two rows / sqrt(d) can be an ulp off +-1/d
    H = OrthoMatrix(d, ordering)
    signs = np.sign(sylvester(d, ordering))
    for j in range(d * d):
        n, m = divmod(j, d)
        np.testing.assert_array_equal(H.mask(j), np.outer(signs[n], signs[m]) / d)


@pytest.mark.parametrize("d", [2, 8, 32])
@pytest.mark.parametrize("basis", [
    lambda d: OrthoMatrix(d), lambda d: OrthoMatrix(d, SEQUENCY), lambda d: OrthoMatrix(d, seed=5)],
    ids=["natural", "sequency", "seeded"])
def test_masks_are_exactly_plus_minus_one_over_d_and_orthonormal(d, basis):
    # 1/d is a power of two, so every sum of mask products is exact in any order
    G = mask_matrix(basis(d))
    np.testing.assert_array_equal(np.abs(G), np.full(G.shape, 1 / d))
    np.testing.assert_array_equal(G @ G.T, np.eye(d * d))


def test_mask_index_out_of_range():
    H = OrthoMatrix(4)
    for bad in (-1, 16, 100):
        with pytest.raises(IndexError):
            H.mask(bad)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_mask_orthonormality_exhaustive(d):
    H = OrthoMatrix(d)
    masks = [H.mask(j) for j in range(d * d)]
    for j, Mj in enumerate(masks):
        for k, Mk in enumerate(masks):
            assert np.sum(Mj * Mk) == pytest.approx(float(j == k), abs=1e-12)


def test_fwht2_delta_and_ones():
    d = 8
    H = OrthoMatrix(d)
    delta = np.zeros((d, d))
    delta[0, 0] = 1.0
    np.testing.assert_allclose(fwht2(delta, H), np.full((d, d), 1.0 / d), atol=1e-13)
    np.testing.assert_allclose(fwht2(np.ones((d, d)), H), delta * d, atol=1e-12)


@pytest.mark.parametrize("ordering", ["natural", "sequency"])
def test_fwht2_matches_naive(ordering):
    H = OrthoMatrix(8, ordering)
    X = random_complex_object(8, seed=1)
    np.testing.assert_allclose(fwht2(X, H), naive_transform(X, H), atol=1e-12)


@pytest.mark.parametrize("ordering", ["natural", "sequency"])
def test_fwht2_of_a_non_contiguous_view_matches_its_contiguous_copy(ordering):
    H = OrthoMatrix(8, ordering)
    big = random_complex_object(16, seed=5)
    for view in (big[::2, 1::2], big[:8, :8].T, big.real[3:11, 2:10], big.imag[::-2, ::2].T):
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(fwht2(view, H), fwht2(np.ascontiguousarray(view), H))


def test_fwht2_dimension_mismatch():
    with pytest.raises(ValueError, match=r"field shape \(4, 4\) does not match d=8"):
        fwht2(np.zeros((4, 4)), OrthoMatrix(8))


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("ordering", ["natural", "sequency"])
def test_fwht2_matches_mask_inner_products(d, ordering):
    H = OrthoMatrix(d, ordering)
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
    H = OrthoMatrix(d, ordering)
    X = random_complex_object(d, seed)
    Y = fwht2(X, H)
    np.testing.assert_allclose(fwht2(Y, H), X, atol=1e-12)
    assert np.sum(np.abs(Y) ** 2) == pytest.approx(np.sum(np.abs(X) ** 2), abs=1e-12)


@pytest.mark.parametrize("ordering", [NATURAL, SEQUENCY])
@pytest.mark.parametrize("d", [1, 2, 64, 128, 256])
def test_fwht2_matches_the_transposed_copy_oracle(d, ordering):
    # the in-place block transpose must give the oracle's bits and its memory order,
    # also across several 64 x 64 blocks and for Fortran-ordered or complex input
    H = OrthoMatrix(d, ordering)
    X = random_complex_object(d, seed=d)
    for field in (X.real.copy(), X, np.asfortranarray(X), X.real.T):
        got, want = fwht2(field, H), fwht2_oracle(field, H)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert (got.flags.c_contiguous, got.flags.f_contiguous) == \
            (want.flags.c_contiguous, want.flags.f_contiguous)
    assert np.array_equal(X, random_complex_object(d, seed=d))      # the input is not written
