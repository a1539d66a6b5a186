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

from .acquisition import Scan, _detection_pair, mask_overlaps
from .wht import OrthoMatrix, fwht2

# Measured sine-channel cross term is -sin(a_j - a_0).
SINE_CHANNEL_SIGN = -1.0
# Bytes of the masked median's strip buffer.  The whole window^2 stack of a
# d=256 grid is 4.7 MB at window 3 and 118 MB at window 15.  Strips of this
# size run as fast at window 3, and the filter no longer sets the peak RSS of
# a d=256 reconstruct (1 MiB strips still raised it by 1.4 MB).
_MEDIAN_BUDGET = 2 ** 18


@dataclass(frozen=True, eq=False)
class ClosedFormTerms:
    """The three closed-form contributions, on an exact series' ghost-image scale, and its sum."""

    object_part: np.ndarray         # sqrt(p0) Re/Im of the rephased object, / N
    spectral_part: np.ndarray       # Hadamard transform of the probability grid / (2N)
    dc_part: np.ndarray             # ensemble-average weight on the corner pixel, / N
    channel_sum: float              # sum_j v_j of the channel's exact series, bit for bit

    @property
    def total(self) -> np.ndarray:
        return self.object_part + self.spectral_part - self.dc_part


@dataclass(frozen=True, eq=False)
class PhaseImage:
    entries: np.ndarray = field(repr=False)   # wrapped to (-pi, pi]
    support: np.ndarray = field(repr=False)   # bool; False pixels are untrusted


def _coefficient_image(coeffs: np.ndarray, basis: OrthoMatrix) -> np.ndarray:
    """(1/N) sum_j w_j M_j for a flat coefficient vector w."""
    image = basis.shuffle(fwht2(coeffs.reshape(basis.dim, basis.dim), basis))
    image /= coeffs.size    # a fresh array: fwht2 copies, and so does a seeded shuffle
    return image


def ghost_image(scan: Scan) -> Tuple[np.ndarray, ...]:
    """Mean-subtracted correlation reconstructions (gi_cos, gi_sin) in the scan's own basis.

    Sampled counts are normalized by their channel's total first; the overall
    scale only affects contrast.  The scan's values are left as they are.
    """
    images = []
    for kind, v in (("cos", scan.cos), ("sin", scan.sin)):
        v = v.copy()
        if not scan.exact:
            total = v.sum()
            if not total > 0:
                raise ValueError(f"the sampled {kind} series is empty: its counts sum to zero")
            v /= total
        v -= v.mean()
        images.append(_coefficient_image(v, scan.basis))
    return tuple(images)


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
    for sign, part, values in zip((1.0, SINE_CHANNEL_SIGN), (np.real, np.imag), _detection_pair(coeffs.ravel())):
        dc = np.zeros((d, d))
        dc[0, 0] = np.sqrt(N) * (1.0 / (2 * N) + sign * np.sqrt(p0) * part(rotated).mean()) / N
        terms.append(ClosedFormTerms(sign * np.sqrt(p0) * part(rephased) / N, spectral, dc,
                                     float(values.sum())))
    return terms[0], terms[1]


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    """Object spectrum inferred from a scan's cos/sin values alone."""

    p0: float
    probabilities: np.ndarray       # p_j, series scale
    cross_cos: np.ndarray           # sqrt(p0 p_j) cos(a_j - a_0)
    cross_sin: np.ndarray           # sqrt(p0 p_j) sin(a_j - a_0)


def estimate_spectrum(scan: Scan) -> SpectrumEstimate:
    """Solve each mask's detection pair for p_j and the cross terms.

    Per index the two channel values give two equations in (p_j, phase);
    eliminating the phase leaves a quadratic in p_j whose smaller root is
    the physical one whenever the reference mode dominates.  Everything
    is inferred from measured values; no ground truth enters.  Channels
    are brought to a common scale through their reference samples
    (v_cos_0 = 2 p0, v_sin_0 = p0).

    The arithmetic updates arrays made here in place, in the order of the
    textbook expressions, so the results keep their bits and the scan
    its values.
    """
    vc, vs = scan.cos, scan.sin
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


def remove_artifact(scan: Scan) -> Tuple[np.ndarray, np.ndarray]:
    """Fields proportional to Re(O) and Im(O) from the measured scan alone.

    Solves each mask's channel pair for the per-mask probability and cross
    terms, rebuilds the two channels from the cross terms alone (which
    removes the spectral artifact) and patches the corner DC pixel.
    """
    est = estimate_spectrum(scan)
    cross = est.cross_cos, est.cross_sin
    del est     # its probabilities are not needed; the cross terms are this call's to update
    # shuffled or not, the masks are orthonormal and sum to zero off the corner: a mean only hits it
    for w in cross:
        w -= w.mean()
    return tuple(_patch_corner(_coefficient_image(w, scan.basis)) for w in cross)


def remove_artifact_analytic(gi_cos: np.ndarray, gi_sin: np.ndarray, obj: np.ndarray,
                             scan: Scan) -> Tuple[np.ndarray, np.ndarray]:
    """Fields proportional to Re(O) and Im(O) from ``scan``'s ghost images and the ground truth.

    Subtracts the closed-form spectral and DC terms of ``obj`` in the scan's
    basis from each channel; ``closed_form_gi`` rejects a missing object.  A
    sampled series' ghost image is divided by its count total, so each is first
    multiplied by its channel's exact sum, the closed form's scale.
    """
    tc, ts = closed_form_gi(obj, scan.basis)
    if not scan.exact:
        gi_cos, gi_sin = gi_cos * tc.channel_sum, gi_sin * ts.channel_sum
    re = gi_cos - tc.spectral_part + tc.dc_part
    im = SINE_CHANNEL_SIGN * (gi_sin - ts.spectral_part + ts.dc_part)
    return re, im


def combine_phase(re: np.ndarray, im: np.ndarray, support: Optional[np.ndarray] = None) -> PhaseImage:
    """Pixelwise argument of the two channel fields.

    Zero-magnitude pixels get phase 0 and leave the support.
    """
    if re.shape != im.shape:
        raise ValueError(f"channel shapes differ: {re.shape} vs {im.shape}")
    if support is not None and support.shape != re.shape:
        raise ValueError(f"support shape {support.shape} differs from the channels' {re.shape}")
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
