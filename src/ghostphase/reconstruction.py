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

from .acquisition import Basis, MeasurementSeries
from .wht import OrthoMatrix, fwht2

# Measured sine-channel cross term is -sin(a_j - a_0).
SINE_CHANNEL_SIGN = -1.0


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


def _coefficient_image(coeffs: np.ndarray, basis: Basis) -> np.ndarray:
    """(1/N) sum_j w_j M_j for a flat coefficient vector w."""
    if isinstance(basis, OrthoMatrix):
        return fwht2(coeffs.reshape(basis.dim, basis.dim), basis) / coeffs.size
    return basis.synthesize(coeffs)


def ghost_image(series: MeasurementSeries, basis: Basis) -> np.ndarray:
    """Mean-subtracted correlation reconstruction (one channel).

    Sampled-count series are normalized by their total first; the overall
    scale only affects contrast.
    """
    v = np.asarray(series.values, dtype=float)
    if v.size != basis.dim * basis.dim:
        raise ValueError(f"series length {v.size} does not match basis N={basis.dim ** 2}")
    if series.basis != basis.descriptor:
        raise ValueError(f"series basis {series.basis!r} does not match {basis.descriptor!r}")
    if not series.exact:
        total = v.sum()
        if not total > 0:
            raise ValueError(f"the sampled {series.kind} series is empty: its counts sum to zero")
        v = v / total
    return _coefficient_image(v - v.mean(), basis)


def closed_form_gi(obj: np.ndarray, H: OrthoMatrix, channel: str) -> ClosedFormTerms:
    """Closed-form prediction of the measured ghost image (its ``total``).

    Term 1 is the real (or, sine channel, minus-imaginary) part of the
    object rephased by the reference phase; term 2 is the transform of
    the elementwise-squared spectrum; term 3 weights the corner pixel by
    the ensemble average of the cross terms.
    """
    d = H.dim
    N = d * d
    coeffs = fwht2(obj, H)
    c0 = coeffs[0, 0]
    p0 = np.abs(c0) ** 2
    a0 = np.angle(c0)
    rephased = np.exp(-1j * a0) * obj
    P = np.abs(coeffs) ** 2

    if channel == "cos":
        term1 = np.sqrt(p0) * rephased.real
        cross_mean = np.sqrt(p0) * (np.exp(-1j * a0) * coeffs).real.mean()
    elif channel == "sin":
        term1 = SINE_CHANNEL_SIGN * np.sqrt(p0) * rephased.imag
        cross_mean = SINE_CHANNEL_SIGN * np.sqrt(p0) * (np.exp(-1j * a0) * coeffs).imag.mean()
    else:
        raise ValueError(f"unknown channel {channel!r}")

    term2 = 0.5 * fwht2(P, H)
    g = np.sqrt(N) * (1.0 / (2 * N) + cross_mean)
    term3 = np.zeros((d, d))
    term3[0, 0] = g
    return ClosedFormTerms(term1 / N, term2 / N, term3 / N)


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
    """
    vc = np.asarray(series_cos.values, dtype=float)
    vs = np.asarray(series_sin.values, dtype=float)
    if vc.size != vs.size:
        raise ValueError("cos and sin series have different lengths")
    p0 = vc[0] / 2.0
    if p0 <= 0 or vs[0] <= 0:
        raise ValueError("reference-mode samples are empty; cannot estimate the spectrum")
    vs = vs * (p0 / vs[0])
    A = vc - p0 / 2
    B = vs - p0 / 2
    S = A + B + p0
    disc = np.maximum(S * S - 2 * (A * A + B * B), 0.0)
    u = (S - np.sqrt(disc)) / 2.0
    p = np.maximum(2 * u, 0.0)
    return SpectrumEstimate(
        p0=float(p0),
        probabilities=p,
        cross_cos=A - u,
        cross_sin=-(B - u),
    )


def _patch_corner(img: np.ndarray) -> np.ndarray:
    out = img.copy()
    out[0, 0] = (out[0, 1] + out[1, 0] + out[1, 1]) / 3.0
    return out


def remove_artifact(series_cos: MeasurementSeries, series_sin: MeasurementSeries,
                    basis: Basis) -> Tuple[np.ndarray, np.ndarray]:
    """Fields proportional to Re(O) and Im(O) from the measured series alone.

    Solves each mask's channel pair for the per-mask probability and cross
    terms, rebuilds the two channels from the cross terms alone (which
    removes the spectral artifact) and patches the corner DC pixel.
    """
    est = estimate_spectrum(series_cos, series_sin)
    if isinstance(basis, OrthoMatrix):  # orthonormal: a mean only feeds the corner pixel
        re, im = (_coefficient_image(w - w.mean(), basis) for w in (est.cross_cos, est.cross_sin))
    else:
        re, im = basis.solve((est.cross_cos, est.cross_sin))
    return _patch_corner(re), _patch_corner(im)


def remove_artifact_analytic(gi_cos: np.ndarray, gi_sin: np.ndarray, obj: np.ndarray,
                             basis: Basis) -> Tuple[np.ndarray, np.ndarray]:
    """Fields proportional to Re(O) and Im(O) from the ghost images and the ground truth.

    Subtracts the closed-form spectral and DC terms of ``obj`` from each
    channel; the closed form holds for the Hadamard basis only.
    """
    if obj is None or not isinstance(basis, OrthoMatrix):
        raise ValueError("analytic artifact removal needs the ground-truth object and its Hadamard basis")
    tc = closed_form_gi(obj, basis, "cos")
    ts = closed_form_gi(obj, basis, "sin")
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
    valid = magnitude > 1e-9 * magnitude.max() if magnitude.max() > 0 else np.zeros_like(magnitude, bool)
    if support is not None:
        valid &= support
    phase = np.where(valid, np.arctan2(im, re), 0.0)
    return PhaseImage(entries=phase, support=valid)


def _masked_median(data: np.ndarray, valid: np.ndarray, window: int) -> np.ndarray:
    """Windowed median that ignores invalid pixels instead of mixing them in.

    The window^2 shifted views of the NaN-padded grid are stacked and
    sorted along the stack, so each pixel's n valid neighbours come first.
    The median averages entries (n-1)//2 and n//2, as ``np.ma.median``
    does; its sum starts from +0.0, so a zero median is +0.0 whatever the
    order of tied signed zeros.  A window with no valid pixel gives NaN
    and keeps ``data``.
    """
    pad = window // 2
    rows, cols = data.shape
    arr = np.pad(np.where(valid, data, np.nan), pad, constant_values=np.nan)
    stack = np.stack([arr[i:i + rows, j:j + cols]
                      for i in range(window) for j in range(window)])
    stack.sort(axis=0)
    n = window * window - np.isnan(stack).sum(axis=0)
    lo = np.take_along_axis(stack, (np.maximum(n - 1, 0) // 2)[np.newaxis], axis=0)[0]
    hi = np.take_along_axis(stack, (n // 2)[np.newaxis], axis=0)[0]
    med = (lo + hi) / 2 + 0.0
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
    c = _masked_median(np.cos(phase.entries), phase.support, window)
    s = _masked_median(np.sin(phase.entries), phase.support, window)
    out = np.where(phase.support & ((c != 0) | (s != 0)), np.arctan2(s, c), 0.0)
    return PhaseImage(entries=out, support=phase.support)
