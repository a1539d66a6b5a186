"""Shared oracles: naive brute-force counterparts of the fast paths, and an in-process CLI run."""

import contextlib
import io
import warnings

import numpy as np
import pytest

from ghostphase import OrthoMatrix, cli, make_object, reconstruction
from ghostphase.analysis import wrap
from ghostphase.reconstruction import PhaseImage
from ghostphase.wht import _fwht_axis0, _sequency_permutation


def sylvester(d, ordering="natural"):
    """The normalized d x d Walsh-Hadamard matrix built by Sylvester's recursion.

    Row n is the 1D basis vector h_n; in sequency order the natural rows are
    ranked by their number of sign changes.
    """
    S = np.array([[1.0]])
    while S.shape[0] < d:
        S = np.block([[S, S], [S, -S]])
    if ordering == "sequency":
        changes = np.count_nonzero(np.diff(np.sign(S), axis=1), axis=1)
        S = S[np.argsort(changes, kind="stable")]
    return S / np.sqrt(d)


def naive_transform(X, H):
    """Triple-loop H X H^T, the oracle for fwht2."""
    d = H.dim
    E = sylvester(d, H.ordering)
    out = np.zeros((d, d), dtype=complex)
    for n in range(d):
        for m in range(d):
            acc = 0.0 + 0.0j
            for x in range(d):
                for y in range(d):
                    acc += E[n, x] * X[x, y] * E[m, y]
            out[n, m] = acc
    return out


def naive_overlap(mask, obj):
    """Pixel-sum <mask|obj> with explicit conjugation."""
    return complex(np.sum(np.conj(mask) * obj))


def paired_masks(basis, j):
    """The explicit cos and sin masks (M_j + M_0)/sqrt(2) and (M_j + i M_0)/sqrt(2)."""
    M, M0 = basis.mask(j), basis.mask(0)
    return (M + M0) / np.sqrt(2), (M + 1j * M0) / np.sqrt(2)


def mask_matrix(basis):
    """The explicit (N, N) matrix of a basis, one flattened mask(j) per row."""
    return np.array([basis.mask(j).ravel() for j in range(basis.size)])


def naive_mask_series(obj, H, kind):
    """Per-mask |<T_j|obj>|^2 without any transform."""
    values = np.empty(H.size)
    for j in range(H.size):
        T = paired_masks(H, j)[0 if kind == "cos" else 1]
        values[j] = abs(naive_overlap(T, obj)) ** 2
    return values


def closed_form_values(coeffs, kind, delta_sign="minus", cross_sign="minus", sin_coeff="half"):
    """Term-by-term prediction of |<T_j|O>|^2 from the flat coefficients c_j = <M_j|O>.

    With p_j = |c_j|^2 and alpha_j = arg c_j, the defaults are the implemented
    conventions: phase differences against the reference mode, a minus on the
    sine channel's cross term, and p_j/2 in both channels.
    """
    p = np.abs(coeffs) ** 2
    alpha = np.angle(coeffs)
    delta = alpha - alpha[0] if delta_sign == "minus" else alpha + alpha[0]
    cross = np.sqrt(p[0] * p)
    if kind == "cos":
        return p[0] / 2 + p / 2 + cross * np.cos(delta)
    coeff = 0.5 if sin_coeff == "half" else 1.0
    sign = -1.0 if cross_sign == "minus" else 1.0
    return p[0] / 2 + coeff * p + sign * cross * np.sin(delta)


def decompose_probability(scan, kind, coeffs, **conventions):
    """Max absolute residual of an exact scan's ``kind`` channel against the closed-form expansion.

    Arbiter of the sign conventions: only the implemented convention set
    drives the residual to zero.
    """
    assert scan.exact, "closed-form check needs an exact-mode scan"
    predicted = closed_form_values(coeffs, kind, **conventions)
    return float(np.max(np.abs(getattr(scan, kind) - predicted)))


def phase_pearson(a, b):
    """Pearson correlation of two phase maps on their joint support.

    The second map is re-branched pixelwise onto the sheet nearest the
    first before correlating, so a pixel at +pi in one map and -pi in the
    other counts as agreement rather than a 2*pi outlier.
    """
    both = a.support & b.support
    if not both.any():
        raise ValueError("empty support intersection")
    x = a.entries[both]
    y = x + wrap(b.entries[both] - x)
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        return 1.0 if np.allclose(x, y) else 0.0
    return float(np.corrcoef(x, y)[0, 1])


def disc_pixel_count(d, radius):
    """Direct rasterization of the centered disc."""
    c = d / 2 - 0.5
    count = 0
    for y in range(d):
        for x in range(d):
            if (x - c) ** 2 + (y - c) ** 2 <= radius ** 2:
                count += 1
    return count


def random_complex_object(d, seed):
    rng = np.random.default_rng(seed)
    obj = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return obj / np.linalg.norm(obj)


def run_cli(argv):
    """Run the CLI in-process with every warning an error; return its exit code and stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.fixture
def H8():
    return OrthoMatrix(8)


@pytest.fixture
def slit16():
    return make_object("pi-slit-phase", 16)


# Parent forms of the stages that now bound their working sets.  Each is the
# straightforward whole-array expression; the stage must match it bit for bit.

def masked_median(data, valid, window):
    """Windowed median that ignores invalid pixels; NaN windows keep ``data``.

    The NaN-padded grid's window^2 shifted views are sorted in strips of
    ``reconstruction._MEDIAN_BUDGET`` bytes, and the median averages entries
    (n-1)//2 and n//2 of a pixel's n valid neighbours, plus +0.0.
    """
    pad = window // 2
    rows, cols = data.shape
    k = window * window
    arr = np.pad(np.where(valid, data, np.nan), pad, constant_values=np.nan)
    shifts = np.lib.stride_tricks.sliding_window_view(arr, (window, window)).transpose(2, 3, 0, 1)
    step = min(rows, max(1, reconstruction._MEDIAN_BUDGET // (k * cols * arr.itemsize)))
    buf = np.empty((window, window, step, cols), arr.dtype)
    med = np.empty((rows, cols), arr.dtype)
    for start in range(0, rows, step):
        h = min(step, rows - start)
        stack = buf[:, :, :h]
        np.copyto(stack, shifts[:, :, start:start + h])
        stack = stack.reshape(k, h, cols)
        stack.sort(axis=0)
        n = k - np.isnan(stack).sum(axis=0)
        lo = np.take_along_axis(stack, (np.maximum(n - 1, 0) // 2)[np.newaxis], axis=0)[0]
        hi = np.take_along_axis(stack, (n // 2)[np.newaxis], axis=0)[0]
        med[start:start + h] = (lo + hi) / 2 + 0.0
    return np.where(np.isnan(med), data, med)


def denoise_oracle(phase, window):
    """`denoise` as two `masked_median` passes over the whole cos and sin grids."""
    if not phase.support.any():
        return phase
    if window == 1:
        return PhaseImage(np.where(phase.support, phase.entries, 0.0), phase.support)
    window = min(window, 2 * max(phase.entries.shape) - 1)
    c = masked_median(np.cos(phase.entries), phase.support, window)
    s = masked_median(np.sin(phase.entries), phase.support, window)
    out = np.where(phase.support & ((c != 0) | (s != 0)), np.arctan2(s, c), 0.0)
    return PhaseImage(out, phase.support)


def combine_phase_oracle(re, im, support=None):
    magnitude = np.hypot(re, im)
    valid = magnitude > 1e-9 * magnitude.max()
    if support is not None:
        valid &= support
    return PhaseImage(np.where(valid, np.arctan2(im, re), 0.0), valid)


def pgm_oracle(data, lo=None, hi=None, invalid=None):
    """The bytes `write_pgm` writes, scaled as one whole-grid expression."""
    data = np.asarray(data, dtype=float)
    lo = float(np.min(data) if lo is None else lo)
    hi = float(np.max(data) if hi is None else hi)
    span = hi - lo if hi > lo else 1.0
    pixels = np.round(np.clip((data - lo) / span, 0.0, 1.0) * 65535).astype(">u2")
    if invalid is not None:
        pixels[invalid] = 0
    h, w = data.shape
    return f"P5\n{w} {h}\n65535\n".encode() + pixels.tobytes()


def phase_rmse_oracle(recovered, truth):
    both = recovered.support & truth.support
    diff = recovered.entries[both] - truth.entries[both]
    offset = np.angle(np.mean(np.exp(1j * diff)))
    return float(np.sqrt(np.mean(wrap(diff - offset) ** 2)))


def detection_pair_oracle(overlaps):
    """|<T_j|O>|^2 of the cos and sin masks from the flattened overlaps, whole-array."""
    flat = overlaps.ravel()
    c0 = flat[0]
    return tuple(np.abs(t) ** 2 for t in ((flat + c0) / np.sqrt(2.0), (flat - 1j * c0) / np.sqrt(2.0)))


def fwht2_oracle(field, H):
    """`fwht2` with a transposed copy between the two butterfly passes."""
    X = np.asarray(field)
    out = X.astype(np.complex128 if np.iscomplexobj(X) else np.float64, copy=True)
    _fwht_axis0(out)
    out = _fwht_axis0(out.T.copy()).T
    out /= H.dim
    if H.ordering == "sequency":
        perm = list(_sequency_permutation(H.dim))
        out = out[np.ix_(perm, perm)]
    return out
