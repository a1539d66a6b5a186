"""Channel reconstruction, artifact removal and phase combination.

Sign conventions (oracle-verified in the tests): detection phases enter
as differences against the reference mode, and the sine channel's cross
term carries a minus sign, i.e.

    v_cos_j = p0/2 + p_j/2 + sqrt(p0 p_j) cos(a_j - a_0)
    v_sin_j = p0/2 + p_j/2 - sqrt(p0 p_j) sin(a_j - a_0)

so the measured sine image embeds -Im of the object; the channel sign
flag below flips it back when the imaginary part is extracted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .acquisition import MeasurementSeries, mask_overlaps
from .wht import OrthoMatrix, fwht2

# Measured sine-channel cross term is -sin(a_j - a_0).
SINE_CHANNEL_SIGN = -1.0
# Bytes of the masked median's strip buffer.  The whole window^2 stack of a
# d=256 grid is 4.7 MB at window 3 and 118 MB at window 15.  Strips of this
# size run as fast at window 3, and the filter no longer sets the peak RSS of
# a d=256 reconstruct (1 MiB strips still raised it by 1.4 MB).
_MEDIAN_BUDGET = 2 ** 18


@dataclass(frozen=True)
class ClosedFormTerms:
    """The three closed-form contributions, each on the ghost-image scale."""

    object_part: np.ndarray         # sqrt(p0) Re/Im of the rephased object, / N
    spectral_part: np.ndarray       # Hadamard transform of the probability grid / (2N)
    dc_part: np.ndarray             # ensemble-average weight on the corner pixel, / N

    @property
    def total(self) -> np.ndarray:
        return self.object_part + self.spectral_part - self.dc_part


@dataclass(frozen=True)
class PhaseImage:
    entries: np.ndarray = field(repr=False)   # wrapped to (-pi, pi]
    support: np.ndarray = field(repr=False)   # bool; False pixels are untrusted


def _coefficient_image(coeffs: np.ndarray, basis: OrthoMatrix) -> np.ndarray:
    """(1/N) sum_j w_j M_j for a flat coefficient vector w."""
    image = basis.shuffle(fwht2(coeffs.reshape(basis.dim, basis.dim), basis))
    image /= coeffs.size    # a fresh array: fwht2 copies, and so does a seeded shuffle
    return image


def _values(series: MeasurementSeries) -> np.ndarray:
    """The series' values as float64, one per mask of its basis; float64 values are not copied."""
    v = np.asarray(series.values, dtype=float)
    if v.size != series.basis.size:
        raise ValueError(f"series length {v.size} does not match basis N={series.basis.size}")
    return v


def ghost_image(series: MeasurementSeries) -> np.ndarray:
    """Mean-subtracted correlation reconstruction (one channel) in the series' own basis.

    Sampled-count series are normalized by their total first; the overall
    scale only affects contrast.  The series' values are left as they are.
    """
    v = _values(series).copy()
    if not series.exact:
        total = v.sum()
        if not total > 0:
            raise ValueError(f"the sampled {series.kind} series is empty: its counts sum to zero")
        v /= total
    v -= v.mean()
    return _coefficient_image(v, series.basis)


def closed_form_gi(obj: np.ndarray, H: OrthoMatrix) -> Tuple[ClosedFormTerms, ClosedFormTerms]:
    """Closed-form prediction of the measured (cos, sin) ghost images (each one's ``total``).

    Term 1 is the real (cos) or minus-imaginary (sin) part of the object
    rephased by the reference phase; term 2, the same in both channels, is
    the coefficient image of the squared spectrum; term 3 weights the corner
    pixel by the ensemble average of the cross terms.  Any basis whose mask 0
    is the uniform reference serves: a pixel shuffle fixes pixel 0.
    """
    if obj is None:
        raise ValueError("analytic artifact removal needs the ground-truth object")
    d = H.dim
    N = d * d
    coeffs = mask_overlaps(obj, H)
    c0 = coeffs[0, 0]
    p0 = np.abs(c0) ** 2
    a0 = np.angle(c0)
    rephased = np.exp(-1j * a0) * obj
    rotated = np.exp(-1j * a0) * coeffs
    spectral = 0.5 * _coefficient_image(np.abs(coeffs) ** 2, H)
    terms = []
    for sign, part in ((1.0, np.real), (SINE_CHANNEL_SIGN, np.imag)):
        g = np.sqrt(N) * (1.0 / (2 * N) + sign * np.sqrt(p0) * part(rotated).mean())
        dc = np.zeros((d, d))
        dc[0, 0] = g
        terms.append(ClosedFormTerms(sign * np.sqrt(p0) * part(rephased) / N, spectral, dc / N))
    return terms[0], terms[1]


@dataclass(frozen=True)
class SpectrumEstimate:
    """Object spectrum inferred from the paired cos/sin series alone."""

    p0: float
    probabilities: np.ndarray       # p_j, series scale
    cross_cos: np.ndarray           # sqrt(p0 p_j) cos(a_j - a_0)
    cross_sin: np.ndarray           # sqrt(p0 p_j) sin(a_j - a_0)


def estimate_spectrum(series_cos: MeasurementSeries, series_sin: MeasurementSeries) -> SpectrumEstimate:
    """Solve each mask's detection pair for p_j and the cross terms.

    Per index the two channel values give two equations in (p_j, phase);
    eliminating the phase leaves a quadratic in p_j whose smaller root is
    the physical one whenever the reference mode dominates.  Everything
    is inferred from measured values; no ground truth enters.  Channels
    are brought to a common scale through their reference samples
    (v_cos_0 = 2 p0, v_sin_0 = p0).

    The arithmetic updates arrays made here in place, in the order of the
    textbook expressions, so the results keep their bits and the series
    their values.
    """
    if series_cos.basis != series_sin.basis:
        raise ValueError("cos and sin series headers do not match")
    if series_cos.kind != "cos" or series_sin.kind != "sin":
        raise ValueError("series channel kinds do not match their roles")
    vc = _values(series_cos)
    vs = _values(series_sin)
    p0 = vc[0] / 2.0
    if p0 <= 0 or vs[0] <= 0:
        raise ValueError("reference-mode samples are empty; cannot estimate the spectrum")
    A = vc - p0 / 2
    B = vs * (p0 / vs[0])
    B -= p0 / 2
    u = A + B
    u += p0                         # S
    disc = A * A                    # max(S^2 - 2 (A^2 + B^2), 0)
    disc += B * B
    disc *= 2
    np.subtract(u * u, disc, out=disc)
    np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
    u -= disc                       # (S - sqrt(disc)) / 2
    u /= 2.0
    p = np.maximum(np.multiply(u, 2, out=disc), 0.0, out=disc)    # disc's buffer holds p
    A -= u                          # the cross terms
    B -= u
    B *= SINE_CHANNEL_SIGN
    return SpectrumEstimate(p0=float(p0), probabilities=p, cross_cos=A, cross_sin=B)


def _patch_corner(img: np.ndarray) -> np.ndarray:
    img[0, 0] = (img[0, 1] + img[1, 0] + img[1, 1]) / 3.0
    return img


def remove_artifact(series_cos: MeasurementSeries,
                    series_sin: MeasurementSeries) -> Tuple[np.ndarray, np.ndarray]:
    """Fields proportional to Re(O) and Im(O) from the measured series alone.

    Solves each mask's channel pair for the per-mask probability and cross
    terms, rebuilds the two channels from the cross terms alone (which
    removes the spectral artifact) and patches the corner DC pixel.
    """
    est = estimate_spectrum(series_cos, series_sin)
    cross = est.cross_cos, est.cross_sin
    del est     # its probabilities are not needed; the cross terms are this call's to update
    # shuffled or not, the masks are orthonormal and sum to zero off the corner: a mean only hits it
    for w in cross:
        w -= w.mean()
    return tuple(_patch_corner(_coefficient_image(w, series_cos.basis)) for w in cross)


def remove_artifact_analytic(gi_cos: np.ndarray, gi_sin: np.ndarray, obj: np.ndarray,
                             basis: OrthoMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """Fields proportional to Re(O) and Im(O) from the ghost images and the ground truth.

    Subtracts the closed-form spectral and DC terms of ``obj`` from each
    channel; ``closed_form_gi`` rejects a missing object.
    """
    tc, ts = closed_form_gi(obj, basis)
    re = gi_cos - tc.spectral_part + tc.dc_part
    im = SINE_CHANNEL_SIGN * (gi_sin - ts.spectral_part + ts.dc_part)
    return re, im


def combine_phase(re: np.ndarray, im: np.ndarray, support: Optional[np.ndarray] = None) -> PhaseImage:
    """Pixelwise argument of the two channel fields.

    Zero-magnitude pixels get phase 0 and leave the support.
    """
    if re.shape != im.shape:
        raise ValueError(f"channel shapes differ: {re.shape} vs {im.shape}")
    magnitude = np.hypot(re, im)
    valid = magnitude > 1e-9 * magnitude.max()     # all False when every magnitude is 0
    if support is not None:
        valid &= support
    phase = np.where(valid, np.arctan2(im, re), 0.0)
    return PhaseImage(entries=phase, support=valid)


def _masked_median(data: np.ndarray, valid: np.ndarray, window: int) -> np.ndarray:
    """Windowed median that ignores invalid pixels instead of mixing them in.

    The grid is NaN-padded and filtered in strips of rows.  A strip's
    window^2 shifted views are copied into one reused buffer and sorted
    along the shifts, so each pixel's n valid neighbours come first.  The
    buffer holds `_MEDIAN_BUDGET` bytes, so memory grows with neither the
    window nor the grid until one row of windows needs more; then it holds
    one row.  The median averages entries (n-1)//2 and n//2, as
    ``np.ma.median`` does; its sum starts from +0.0, so a zero median is
    +0.0 whatever the order of tied signed zeros.  A window with no valid
    pixel gives NaN and keeps ``data``.
    """
    pad = window // 2
    rows, cols = data.shape
    k = window * window
    arr = np.pad(np.where(valid, data, np.nan), pad, constant_values=np.nan)
    # shifts[i, j] is the grid shifted by (i, j) within the padding
    shifts = np.lib.stride_tricks.sliding_window_view(arr, (window, window)).transpose(2, 3, 0, 1)
    step = min(rows, max(1, _MEDIAN_BUDGET // (k * cols * arr.itemsize)))
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


def denoise(phase: PhaseImage, window: int = 3) -> PhaseImage:
    """Wrap-safe median filtering plus suppression outside the support.

    The cos/sin pair of the phase is filtered instead of the raw angles,
    which avoids artifacts at the +-pi branch cut; pixels outside the
    support never enter a window, so the boundary is not smeared.
    """
    if window % 2 == 0:
        raise ValueError(f"median window must be odd, got {window}")
    if not phase.support.any():
        return phase
    if window == 1:
        out = np.where(phase.support, phase.entries, 0.0)
        return PhaseImage(entries=out, support=phase.support)
    window = min(window, 2 * max(phase.entries.shape) - 1)    # 2*size - 1 already reaches every pixel
    c = _masked_median(np.cos(phase.entries), phase.support, window)
    s = _masked_median(np.sin(phase.entries), phase.support, window)
    out = np.where(phase.support & ((c != 0) | (s != 0)), np.arctan2(s, c), 0.0)
    return PhaseImage(entries=out, support=phase.support)
