import numpy as np
import pytest

from ghostphase import cos_mask, hadamard_matrix, random_basis, sin_mask
from ghostphase.wht import DimensionError
from ghostphase.acquisition import mask_overlaps
from ghostphase.projections import export_mask_symbols
from ghostphase.reconstruction import _coefficient_image

from conftest import naive_overlap, random_complex_object

SQRT2 = np.sqrt(2.0)


def test_cos_mask_j0_uniform_unnormalized():
    H = hadamard_matrix(4)
    T0 = cos_mask(0, H)
    np.testing.assert_allclose(T0, np.full((4, 4), SQRT2 / 4), atol=1e-14)
    assert np.sum(np.abs(T0) ** 2) == pytest.approx(2.0, abs=1e-12)


def test_cos_mask_is_zero_one_structure():
    H = hadamard_matrix(8)
    N = 64
    for j in (1, 5, 17, 63):
        T = cos_mask(j, H)
        hi = SQRT2 / np.sqrt(N)
        assert np.all((np.abs(T) < 1e-14) | (np.abs(T - hi) < 1e-14))
        assert np.count_nonzero(np.abs(T) > 1e-14) == N // 2
        assert np.sum(np.abs(T) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_cos_mask_elementwise_sum_oracle():
    H = hadamard_matrix(2)
    T3 = cos_mask(3, H)
    np.testing.assert_allclose(T3, (H.mask(3) + H.mask(0)) / SQRT2, atol=1e-14)
    np.testing.assert_allclose(T3, np.diag([SQRT2 / 2, SQRT2 / 2]), atol=1e-14)


def test_sin_mask_entries_and_modulus():
    H = hadamard_matrix(4)
    N = 16
    T0 = sin_mask(0, H)
    np.testing.assert_allclose(T0, np.full((4, 4), (1 + 1j) / (SQRT2 * np.sqrt(N))), atol=1e-14)
    for j in (0, 3, 9, 15):
        T = sin_mask(j, H)
        np.testing.assert_allclose(np.abs(T), 1 / np.sqrt(N), atol=1e-14)
        if j != 0:
            assert np.sum(np.abs(T) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_mask_index_errors():
    H = hadamard_matrix(4)
    with pytest.raises(IndexError):
        cos_mask(16, H)
    with pytest.raises(IndexError):
        sin_mask(-1, H)


def test_projection_identities_recover_basis_mask():
    H = hadamard_matrix(8)
    M0 = H.mask(0)
    for j in (0, 1, 13, 40, 63):
        Mj = H.mask(j)
        np.testing.assert_allclose(SQRT2 * cos_mask(j, H) - M0, Mj, atol=1e-14)
        np.testing.assert_allclose(SQRT2 * sin_mask(j, H) - 1j * M0, Mj, atol=1e-14)


def test_overlap_linearity():
    H = hadamard_matrix(4)
    obj = random_complex_object(4, 7)
    for j in (2, 7, 11):
        lhs = naive_overlap(cos_mask(j, H), obj)
        rhs = (naive_overlap(H.mask(j), obj) + naive_overlap(H.mask(0), obj)) / SQRT2
        assert lhs == pytest.approx(rhs, abs=1e-12)
        lhs = naive_overlap(sin_mask(4 + j, H), obj)
        rhs = (naive_overlap(H.mask(4 + j), obj)
               - 1j * naive_overlap(H.mask(0), obj)) / SQRT2
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_random_basis_determinism_and_reference():
    a = random_basis(64, 8, seed=9)
    b = random_basis(64, 8, seed=9)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    np.testing.assert_allclose(a.mask(0), np.full((8, 8), 1 / 8))
    assert set(np.unique(np.round(a.matrix[1:] * 8))) == {-1.0, 1.0}


def test_random_basis_seed_sensitivity():
    a = random_basis(256, 16, seed=1)
    b = random_basis(256, 16, seed=2)
    differing = np.mean(a.matrix[1:] != b.matrix[1:])
    assert differing >= 0.40


def test_random_basis_entry_mean():
    basis = random_basis(256, 16, seed=3)
    signs = np.sign(basis.matrix)
    assert abs(signs.mean()) <= 4 / np.sqrt(256 * 256)


def test_random_basis_bad_count():
    with pytest.raises(ValueError):
        random_basis(60, 8, seed=0)


def _philox(seed):
    return np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))


def test_random_mask_signs_are_the_stream_bits():
    # d = 8: four words per mask; pixel i of mask j is +1 where bit i of word 4(j-1) is set
    words = _philox(21).random_raw(4 * 63)
    basis = random_basis(64, 8, seed=21)
    shifts = np.arange(64, dtype=np.uint64)
    for j in (1, 2, 40, 63):
        bits = (words[4 * (j - 1)] >> shifts) & np.uint64(1)
        np.testing.assert_array_equal(basis.matrix[j], np.where(bits == 1, 1.0, -1.0) / 8)


@pytest.mark.parametrize("d", [2, 3, 8, 32])
def test_random_mask_alone_equals_matrix_row(d):
    N = d * d
    basis = random_basis(N, d, seed=17)
    assert not basis.matrix.flags.writeable
    for j in (0, 1, N // 2, N - 1):
        np.testing.assert_array_equal(basis.mask(j), basis.matrix[j].reshape(d, d))
    for bad in (-1, N):
        with pytest.raises(IndexError):
            basis.mask(bad)


@pytest.mark.parametrize("basis", [hadamard_matrix(8), hadamard_matrix(8, "sequency"),
                                   random_basis(64, 8, seed=4), random_basis(9, 3, seed=2)],
                         ids=["hadamard-natural", "hadamard-sequency", "random-d8", "random-d3"])
def test_overlaps_and_coefficient_image_match_per_mask_sums(basis):
    d, N = basis.dim, basis.size
    masks = [basis.mask(j) for j in range(N)]
    obj = random_complex_object(d, seed=6)
    for field in (obj, obj.real):
        expected = np.array([np.sum(M * field) for M in masks])
        np.testing.assert_allclose(mask_overlaps(field, basis), expected, rtol=1e-12)
    w = np.random.default_rng(2).standard_normal(N)
    expected = sum(wj * M for wj, M in zip(w, masks)) / N
    np.testing.assert_allclose(_coefficient_image(w, basis), expected, rtol=1e-12)
    with pytest.raises(DimensionError):
        mask_overlaps(np.zeros((d + 1, d + 1)), basis)


def test_mask_symbol_export():
    H = hadamard_matrix(4)
    sym = export_mask_symbols(H.mask(5), "basis")
    assert set(np.unique(sym)) <= {-1, 1}
    sym = export_mask_symbols(cos_mask(5, H), "cos")
    assert set(np.unique(sym)) == {0, 1}
    sym = export_mask_symbols(sin_mask(5, H), "sin")
    assert set(np.unique(sym)) == {-1, 1}
