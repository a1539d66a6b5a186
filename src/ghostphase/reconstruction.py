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
# Values per chunk of elementwise work: each float64 temporary is 64 KiB
_CHUNK = 2 ** 13
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
    Beyond the two images, one copy of a channel's values and ``fwht2``'s
    half-size temporaries are alive at once.
    """
    images = []
    for kind, v in (("cos", scan.cos), ("sin", scan.sin)):
        if scan.exact:
            v = v.copy()
        else:
            total = v.sum()
            if not total > 0:
                raise ValueError(f"the sampled {kind} series is empty: its counts sum to zero")
            v = v / total
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
    for sign, part, values in zip((1.0, SINE_CHANNEL_SIGN), (np.real, np.imag), _detection_pair(coeffs)):
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

    Every step is elementwise, in the order of the textbook expressions, so
    the masks go through in chunks of `_CHUNK` and the results keep their
    bits and the scan its values; the three results are the only N-sized
    arrays made.
    """
    vc, vs = scan.cos, scan.sin
    p0 = vc[0] / 2.0
    if p0 <= 0 or vs[0] <= 0:
        raise ValueError("reference-mode samples are empty; cannot estimate the spectrum")
    scale = p0 / vs[0]
    p, cross_cos, cross_sin = np.empty(vc.size), np.empty(vc.size), np.empty(vc.size)
    for start in range(0, vc.size, _CHUNK):
        at = slice(start, start + _CHUNK)
        A = np.subtract(vc[at], p0 / 2, out=cross_cos[at])
        B = np.multiply(vs[at], scale, out=cross_sin[at])
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
        np.maximum(np.multiply(u, 2, out=disc), 0.0, out=p[at])
        A -= u                          # the cross terms
        B -= u
        B *= SINE_CHANNEL_SIGN
    return SpectrumEstimate(p0=float(p0), probabilities=p, cross_cos=cross_cos, cross_sin=cross_sin)


def _patch_corner(img: np.ndarray) -> np.ndarray:
    img[0, 0] = (img[0, 1] + img[1, 0] + img[1, 1]) / 3.0
    return img


def remove_artifact(scan: Scan) -> Tuple[np.ndarray, np.ndarray]:
    """Fields proportional to Re(O) and Im(O) from the measured scan alone.

    Solves each mask's channel pair for the per-mask probability and cross
    terms, rebuilds the two channels from the cross terms alone (which
    removes the spectral artifact) and patches the corner DC pixel.  Beyond
    the two fields, the other channel's cross terms and ``fwht2``'s
    half-size temporaries are alive at once.
    """
    est = estimate_spectrum(scan)
    cross = [est.cross_cos, est.cross_sin]
    del est     # its probabilities are not needed; the cross terms are this call's to update
    fields = []
    while cross:
        w = cross.pop(0)
        # shuffled or not, the masks are orthonormal and sum to zero off the corner: a mean only hits it
        w -= w.mean()
        fields.append(_patch_corner(_coefficient_image(w, scan.basis)))
    return tuple(fields)


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

    Zero-magnitude pixels get phase 0 and leave the support.  The
    magnitude is freed before the phase is made, so one (d, d) float array
    and the support are alive at once beyond the result.
    """
    if re.shape != im.shape:
        raise ValueError(f"channel shapes differ: {re.shape} vs {im.shape}")
    if support is not None and support.shape != re.shape:
        raise ValueError(f"support shape {support.shape} differs from the channels' {re.shape}")
    magnitude = np.hypot(re, im)
    valid = magnitude > 1e-9 * magnitude.max()     # all False when every magnitude is 0
    del magnitude
    if support is not None:
        valid &= support
    phase = np.arctan2(im, re)
    phase[~valid] = 0.0
    return PhaseImage(entries=phase, support=valid)


def _median_phase(entries: np.ndarray, support: np.ndarray, window: int) -> np.ndarray:
    """Argument of the windowed medians of cos and sin of the phase over the support; 0 off it.

    Rows are filtered in strips.  Each strip's window^2 shifted views of a
    channel are copied into one reused buffer and sorted along the shifts,
    so each pixel's n support neighbours come first; pixels off the support
    or past the edge are NaN and sort last.  The buffer holds
    `_MEDIAN_BUDGET` bytes, so memory grows with neither the window nor the
    grid until one row of windows needs more; then it holds one row.  The
    median averages entries (n-1)//2 and n//2, as ``np.ma.median`` does; its
    sum starts from +0.0, so a zero median is +0.0 whatever the order of
    tied signed zeros.  cos and sin are taken once per padded row, of the
    support's phases only, as strips reach it; the rows that two strips
    share are kept.  The result is the one (d, d) array made.
    """
    pad = window // 2
    rows, cols = entries.shape
    k = window * window
    step = min(rows, max(1, _MEDIAN_BUDGET // (k * cols * 8)))
    # cos and sin of the NaN-padded rows that a strip reads: trig row t is grid row start - pad + t
    trig = np.full((2, step + 2 * pad, cols + 2 * pad), np.nan)
    buf = np.empty((window, window, step, cols))
    medians = np.empty((2, step, cols))
    out = np.empty((rows, cols))
    done = 0        # the first rows of trig that already hold this strip's values
    for start in range(0, rows, step):
        h = min(step, rows - start)
        if done:    # the rows this strip shares with the last one move to the top
            trig[:, :done - step] = trig[:, step:done].copy()
            done -= step
        first = start - pad
        a, b = max(first + done, 0), min(first + h + 2 * pad, rows)
        fresh = trig[:, done:h + 2 * pad]
        fresh[:, :, pad:pad + cols] = np.nan
        if a < b:
            np.copyto(trig[:, a - first:b - first, pad:pad + cols], entries[a:b], where=support[a:b])
        np.cos(fresh[0], out=fresh[0])
        np.sin(fresh[1], out=fresh[1])
        done = h + 2 * pad
        for i in range(2):
            shifts = np.lib.stride_tricks.sliding_window_view(trig[i, :h + 2 * pad], (window, window))
            stack = buf[:, :, :h]
            np.copyto(stack, shifts.transpose(2, 3, 0, 1))
            stack = stack.reshape(k, h, cols)
            stack.sort(axis=0)
            if not i:       # both channels are NaN at the same pixels
                n = k - np.isnan(stack).sum(axis=0)
                lo_at, hi_at = (np.maximum(n - 1, 0) // 2)[np.newaxis], (n // 2)[np.newaxis]
            lo = np.take_along_axis(stack, lo_at, axis=0)[0]
            hi = np.take_along_axis(stack, hi_at, axis=0)[0]
            medians[i, :h] = (lo + hi) / 2 + 0.0
        c, s = medians[:, :h]
        keep = support[start:start + h] & ((c != 0) | (s != 0))
        out[start:start + h] = np.where(keep, np.arctan2(s, c), 0.0)
    return out


def denoise(phase: PhaseImage, window: int = 3) -> PhaseImage:
    """Wrap-safe median filtering plus suppression outside the support.

    The cos/sin pair of the phase is filtered instead of the raw angles,
    which avoids artifacts at the +-pi branch cut; pixels outside the
    support never enter a window, so the boundary is not smeared.  The
    filtered phase is the only (d, d) array made beyond the strip buffers
    (see `_median_phase`).
    """
    if window % 2 == 0:
        raise ValueError(f"median window must be odd, got {window}")
    if not phase.support.any():
        return phase
    if window == 1:
        out = np.where(phase.support, phase.entries, 0.0)
        return PhaseImage(entries=out, support=phase.support)
    window = min(window, 2 * max(phase.entries.shape) - 1)    # 2*size - 1 already reaches every pixel
    return PhaseImage(entries=_median_phase(phase.entries, phase.support, window), support=phase.support)
