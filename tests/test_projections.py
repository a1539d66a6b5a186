"""The paired cos/sin masks, checked as explicit arrays and as the sign grids gen-masks writes."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostphase import OrthoMatrix, measure_exact
from ghostphase.wht import _philox_words
from ghostphase.acquisition import mask_overlaps
from ghostphase.reconstruction import _coefficient_image

from conftest import mask_matrix, naive_overlap, paired_masks, random_complex_object, run_cli

SQRT2 = np.sqrt(2.0)


def _gen_masks(out, *flags):
    """Run gen-masks and read its grids back as {(kind, j): int array}."""
    code, stderr = run_cli(["gen-masks", *flags, "--out", str(out)])
    assert code == 0, stderr
    grids = {}
    for path in out.glob("mask_*.txt"):
        _, kind, j = path.stem.split("_")
        grids[kind, int(j)] = np.loadtxt(path, dtype=int, ndmin=2)
    return grids


def test_cos_mask_j0_uniform_unnormalized(tmp_path):
    H = OrthoMatrix(4)
    T0, _ = paired_masks(H, 0)
    np.testing.assert_allclose(T0, np.full((4, 4), SQRT2 / 4), atol=1e-14)
    assert np.sum(np.abs(T0) ** 2) == pytest.approx(2.0, abs=1e-12)
    grids = _gen_masks(tmp_path, "--d", "4", "--index", "0")
    np.testing.assert_array_equal(grids["cos", 0], np.ones((4, 4), int))


def test_cos_mask_is_zero_one_structure(tmp_path):
    H = OrthoMatrix(8)
    N = 64
    grids = _gen_masks(tmp_path, "--d", "8", "--count", "64")
    for j in (1, 5, 17, 63):
        T, _ = paired_masks(H, j)
        hi = SQRT2 / np.sqrt(N)
        assert np.all((np.abs(T) < 1e-14) | (np.abs(T - hi) < 1e-14))
        assert np.count_nonzero(np.abs(T) > 1e-14) == N // 2
        assert np.sum(np.abs(T) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert set(np.unique(grids["cos", j])) == {0, 1}
        assert np.count_nonzero(grids["cos", j]) == N // 2


def test_cos_mask_elementwise_sum_oracle(tmp_path):
    H = OrthoMatrix(2)
    T3, _ = paired_masks(H, 3)
    np.testing.assert_allclose(T3, np.diag([SQRT2 / 2, SQRT2 / 2]), atol=1e-14)
    grids = _gen_masks(tmp_path, "--d", "2", "--index", "3")
    np.testing.assert_array_equal(grids["cos", 3], np.eye(2, dtype=int))


def test_sin_mask_entries_and_modulus(tmp_path):
    H = OrthoMatrix(4)
    N = 16
    _, T0 = paired_masks(H, 0)
    np.testing.assert_allclose(T0, np.full((4, 4), (1 + 1j) / (SQRT2 * np.sqrt(N))), atol=1e-14)
    for j in (0, 3, 9, 15):
        _, T = paired_masks(H, j)
        np.testing.assert_allclose(np.abs(T), 1 / np.sqrt(N), atol=1e-14)
        if j != 0:
            assert np.sum(np.abs(T) ** 2) == pytest.approx(1.0, abs=1e-12)
    # every pixel of the reference sin mask is in the 1+i state
    grids = _gen_masks(tmp_path, "--d", "4", "--index", "0")
    np.testing.assert_array_equal(grids["sin", 0], np.ones((4, 4), int))


def test_mask_index_errors(tmp_path):
    H = OrthoMatrix(4)
    for bad in (16, -1):
        with pytest.raises(IndexError):
            H.mask(bad)
        code, stderr = run_cli(["gen-masks", "--d", "4", "--index", str(bad),
                                "--out", str(tmp_path / "out")])
        assert code == 2 and stderr == f"error: --index: must be in [0, 16), got {bad}\n"
    assert not (tmp_path / "out").exists()


def test_projection_identities_recover_basis_mask():
    H = OrthoMatrix(8)
    M0 = H.mask(0)
    for j in (0, 1, 13, 40, 63):
        Mj = H.mask(j)
        t_cos, t_sin = paired_masks(H, j)
        np.testing.assert_allclose(SQRT2 * t_cos - M0, Mj, atol=1e-14)
        np.testing.assert_allclose(SQRT2 * t_sin - 1j * M0, Mj, atol=1e-14)


def test_overlap_linearity():
    H = OrthoMatrix(4)
    obj = random_complex_object(4, 7)
    scan = measure_exact(obj, H)
    c0 = naive_overlap(H.mask(0), obj)
    for j in (2, 7, 11):
        lhs = naive_overlap(paired_masks(H, j)[0], obj)
        rhs = (naive_overlap(H.mask(j), obj) + c0) / SQRT2
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert scan.cos[j] == pytest.approx(abs(lhs) ** 2, abs=1e-12)
        lhs = naive_overlap(paired_masks(H, 4 + j)[1], obj)
        rhs = (naive_overlap(H.mask(4 + j), obj) - 1j * c0) / SQRT2
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert scan.sin[4 + j] == pytest.approx(abs(lhs) ** 2, abs=1e-12)


def test_mask_symbol_export(tmp_path):
    grids = _gen_masks(tmp_path, "--d", "4", "--index", "5")
    assert sorted(grids) == [("basis", 5), ("cos", 5), ("sin", 5)]
    assert set(np.unique(grids["basis", 5])) == {-1, 1}
    assert set(np.unique(grids["cos", 5])) == {0, 1}
    assert set(np.unique(grids["sin", 5])) == {-1, 1}
    for kind in ("basis", "cos", "sin"):
        header = (tmp_path / f"mask_{kind}_00005.txt").read_text().splitlines()[0]
        assert header == f"# kind={kind} j=5 d=4"


FULL_SETS = [
    *[pytest.param(("--d", str(d), "--ordering", order), OrthoMatrix(d, order),
                   id=f"hadamard-{order}-d{d}")
      for order in ("natural", "sequency") for d in (2, 4, 8)],
    pytest.param(("--d", "8", "--basis", "random", "--basis-seed", "3"), OrthoMatrix(8, seed=3),
                 id="random-d8"),
]


@pytest.mark.parametrize("flags, basis", FULL_SETS)
def test_gen_masks_full_set_matches_oracle_masks(tmp_path, flags, basis):
    # basis = sign(M_j); cos is open exactly where (M_j + M_0)/sqrt(2) is nonzero;
    # sin is +1 (the 1+i state) where Re (M_j + i M_0)/sqrt(2) > 0 and -1 (1-i) elsewhere
    N = basis.size
    grids = _gen_masks(tmp_path, *flags, "--count", str(N))
    assert len(grids) == 3 * N
    for j in range(N):
        t_cos, t_sin = paired_masks(basis, j)
        np.testing.assert_array_equal(grids["basis", j], np.sign(basis.mask(j)))
        np.testing.assert_array_equal(grids["cos", j], (t_cos != 0).astype(int))
        np.testing.assert_array_equal(grids["sin", j], np.sign(t_sin.real))


# sha256 over the name and bytes of every mask_*.txt of gen-masks --d 8 --count 64, in name
# order: only signs are written, so how a mask's values are computed must not move them
GOLDEN_MASK_FILES = {
    (): "68db95c66087e471db559a8a5cc1a6885f591313f23c2fa1558fcc2a0d7d8bce",
    ("--ordering", "sequency"): "407a1d4d3d0148a096f39006e8e69a172df238716588c37070e01a58285ed3f8",
    ("--basis", "random"): "405e45342dbed9e3173219696053f1e2c8170c67036c294f322393fd7f2e97dd",
}


@pytest.mark.parametrize("flags", list(GOLDEN_MASK_FILES), ids=["natural", "sequency", "random"])
def test_gen_masks_files_match_golden_digests(tmp_path, flags):
    assert run_cli(["gen-masks", "--d", "8", "--count", "64", *flags, "--out", str(tmp_path)]) == (0, "")
    digest = hashlib.sha256()
    for path in sorted(tmp_path.glob("mask_*.txt")):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == GOLDEN_MASK_FILES[flags]


def test_random_basis_determinism_and_reference():
    a = OrthoMatrix(8, seed=9)
    b = OrthoMatrix(8, seed=9)
    np.testing.assert_array_equal(mask_matrix(a), mask_matrix(b))
    np.testing.assert_allclose(a.mask(0), np.full((8, 8), 1 / 8))
    assert set(np.unique(np.round(mask_matrix(a)[1:] * 8))) == {-1.0, 1.0}


def test_random_basis_seed_sensitivity():
    a = OrthoMatrix(16, seed=1)
    b = OrthoMatrix(16, seed=2)
    differing = np.mean(mask_matrix(a)[1:] != mask_matrix(b)[1:])
    assert differing >= 0.40


def test_random_basis_entry_mean():
    basis = OrthoMatrix(16, seed=3)
    signs = np.sign(mask_matrix(basis))
    assert abs(signs.mean()) <= 4 / np.sqrt(256 * 256)


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 4, 8, 32]), seed=st.integers(0, 2 ** 64 - 1))
def test_random_masks_are_orthonormal_with_the_hadamard_reference(d, seed):
    basis = OrthoMatrix(d, seed=seed)
    M = mask_matrix(basis)
    np.testing.assert_array_equal(M @ M.T, np.eye(d * d))
    np.testing.assert_array_equal(basis.mask(0), OrthoMatrix(d).mask(0))
    assert basis.perm[0] == 0


def test_random_basis_is_a_hashable_value():
    a, b = OrthoMatrix(8, seed=3), OrthoMatrix(8, seed=3)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != OrthoMatrix(8) and a != OrthoMatrix(8, seed=4)
    assert a.descriptor == "permuted:3" and OrthoMatrix(8).descriptor == "hadamard:natural"


def test_unseeded_shuffles_return_their_input():
    H = OrthoMatrix(4)
    field = np.arange(16.0).reshape(4, 4)
    assert H.shuffle(field) is field and H.unshuffle(field) is field
    basis = OrthoMatrix(4, seed=1)
    np.testing.assert_array_equal(basis.shuffle(basis.unshuffle(field)), field)
    with pytest.raises(ValueError, match=r"field shape \(1, 16\) does not match d=4"):
        basis.unshuffle(np.zeros((1, 16)))


def test_random_permutation_is_pinned():
    # drawn from Philox words, not a Generator method, so every numpy release draws it alike
    np.testing.assert_array_equal(OrthoMatrix(4, seed=1).perm,
                                  [0, 4, 6, 3, 10, 8, 11, 15, 1, 9, 14, 13, 7, 12, 2, 5])


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63, 2**64 - 1])
def test_philox_words_equal_numpys_philox(seed):
    # numpy's Philox is the oracle; stages run under errstate(over="raise")
    for n in (1, 3, 4, 5, 1023, 65535):
        with np.errstate(all="raise"):
            words = _philox_words(seed, n)
        oracle = np.random.Philox(key=np.array([seed, 0], np.uint64)).random_raw(n)
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(words, oracle)


def test_a_seeded_basis_scans_natural_order():
    # permuted:<seed> names natural-order masks, so a seeded sequency basis would be misread
    with pytest.raises(ValueError, match="natural order"):
        OrthoMatrix(8, "sequency", seed=3)


@pytest.mark.parametrize("seed", [2 ** 64, -1])
def test_a_seed_outside_one_uint64_word_is_rejected(seed):
    # such a basis used to build, name itself permuted:<seed> and fail in perm on first use
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        OrthoMatrix(8, seed=seed)
    assert OrthoMatrix(8, seed=2 ** 64 - 1).descriptor == f"permuted:{2 ** 64 - 1}"


def test_an_unseeded_basis_has_no_permutation():
    with pytest.raises(ValueError, match="no pixel permutation"):
        OrthoMatrix(8).perm


@pytest.mark.parametrize("d", [2, 8, 32])
def test_random_mask_alone_equals_matrix_row(d):
    # row j of the Hadamard mask matrix, its columns (pixels) taken in perm order
    N = d * d
    basis = OrthoMatrix(d, seed=17)
    shuffled = mask_matrix(OrthoMatrix(d))[:, basis.perm]
    assert not basis.perm.flags.writeable
    for j in (0, 1, N // 2, N - 1):
        np.testing.assert_array_equal(basis.mask(j), shuffled[j].reshape(d, d))
    for bad in (-1, N):
        with pytest.raises(IndexError):
            basis.mask(bad)


@pytest.mark.parametrize("basis", [OrthoMatrix(8), OrthoMatrix(8, "sequency"),
                                   OrthoMatrix(8, seed=4), OrthoMatrix(2, seed=1)],
                         ids=["hadamard-natural", "hadamard-sequency", "random-d8", "random-d2"])
def test_overlaps_and_coefficient_image_match_per_mask_sums(basis):
    d, N = basis.dim, basis.size
    masks = [basis.mask(j) for j in range(N)]
    obj = random_complex_object(d, seed=6)
    for field in (obj, obj.real):
        expected = np.array([np.sum(M * field) for M in masks])
        np.testing.assert_allclose(mask_overlaps(field, basis).ravel(), expected, rtol=1e-12)
    w = np.random.default_rng(2).standard_normal(N)
    expected = sum(wj * M for wj, M in zip(w, masks)) / N
    np.testing.assert_allclose(_coefficient_image(w, basis), expected, rtol=1e-12)
    with pytest.raises(ValueError, match="does not match d="):
        mask_overlaps(np.zeros((d + 1, d + 1)), basis)
