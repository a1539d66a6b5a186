"""Detection scans: exact cos/sin probabilities and Poisson counts."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from .wht import OrthoMatrix, _philox_block, fwht2

SQRT2 = np.sqrt(2.0)

# the largest total flux, so the largest mean, that sample_counts takes: counts are finite,
# integral and unbiased up to it.  PTRS's log acceptance test loses its digits to cancellation
# above means of ~1e15, as numpy's does (the spread at 1e18 is 1.2 times Poisson's), and its
# float64 squares overflow above ~1e154
MAX_FLUX = 1e18

# masks sampled per Philox call: a count depends on its mask's counters alone, so the chunk
# size changes no count; it bounds the uint64 temporaries of one call
_CHUNK = 1 << 14
_PTRS_MIN_MEAN = 10.0                 # below this, counts come from inversion
_LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(8)])
# numpy's random_loggam: Stirling series coefficients of log Gamma, highest order first
_STIRLING = (-1.39243221690590e+00, 1.796443723688307e-01, -2.955065359477124e-02,
             6.410256410256410e-03, -1.917526917526918e-03, 8.417508417508418e-04,
             -5.952380952380952e-04, 7.936507936507937e-04, -2.777777777777778e-03,
             8.333333333333333e-02)
_HALF_LOG_2PI = 0.9189385332046727


@dataclass(frozen=True, eq=False)
class Scan:
    """One scan's detection values: per mask of ``basis``, its cos mask's and its sin mask's.

    ``cos[j]`` and ``sin[j]`` are |<T_j|O>|^2 in exact mode, or Poisson counts
    drawn at total ``flux`` with ``seed``; both are None for exact probabilities.
    Each channel is stored as a float64 array of shape (N,), N = ``basis.size``;
    float64 input is not copied, and any other shape is rejected.
    """

    basis: OrthoMatrix              # the masks that measured the values
    cos: np.ndarray = field(repr=False)
    sin: np.ndarray = field(repr=False)
    flux: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if (self.flux is None) != (self.seed is None):
            raise ValueError(f"flux={self.flux} with seed={self.seed}: a scan has both or neither")
        for kind in ("cos", "sin"):
            values = np.asarray(getattr(self, kind), dtype=np.float64)
            if values.shape != (self.basis.size,):
                raise ValueError(f"{kind} values have shape {values.shape},"
                                 f" not one per mask of basis N={self.basis.size}")
            object.__setattr__(self, kind, values)

    @property
    def exact(self) -> bool:
        return self.flux is None


def mask_overlaps(obj: np.ndarray, basis: OrthoMatrix) -> np.ndarray:
    """All N inner products <M_j|O> on fwht2's (d, d) grid: the fast transform of the object
    with the pixel shuffle undone."""
    return fwht2(basis.unshuffle(obj), basis)


def _detection_pair(overlaps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """|<T_j|O>|^2 of the cos and sin masks from the (d, d) overlaps c_j, c_0 being the reference's,
    as two flat arrays in C order: <T_j|O> is (c_j + c_0)/sqrt(2) for the cos mask and
    (c_j - i c_0)/sqrt(2) for the sin mask.  Rows go through in blocks of `_CHUNK` values, so
    the two results are the only N-sized arrays made."""
    d = overlaps.shape[0]
    c0 = overlaps[0, 0]
    pair = np.empty((d, d)), np.empty((d, d))
    step = max(1, _CHUNK // d)
    for start in range(0, d, step):
        block = overlaps[start:start + step]
        for values, t in zip(pair, ((block + c0) / SQRT2, (block - 1j * c0) / SQRT2)):
            np.square(np.abs(t), out=values[start:start + step])
    return tuple(values.ravel() for values in pair)


def measure_exact(obj: np.ndarray, basis: OrthoMatrix) -> Scan:
    """Exact detection probabilities v_j = |<T_j|O>|^2 of the cos and sin masks, from one overlap pass."""
    return Scan(basis, *_detection_pair(mask_overlaps(obj, basis)))


def _unit(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of each word, as numpy's ``random`` makes them."""
    return (words >> np.uint64(11)) * 2.0 ** -53


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """log k! of integral k >= 0: a table below 8, numpy's Stirling series from 8 on."""
    x = np.maximum(k, 8.0) + 1.0
    x2 = 1.0 / (x * x)
    series = np.full(x.shape, _STIRLING[0])
    for a in _STIRLING[1:]:
        series = series * x2 + a
    stirling = series / x + _HALF_LOG_2PI + (x - 0.5) * np.log(x) - x
    return np.where(k < 8, _LOG_FACTORIAL[np.minimum(k, 7).astype(np.intp)], stirling)


def _inversion(mean: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Poisson counts of means below 10 by inversion of one uniform each: the least k whose CDF
    exceeds u, or the k where the CDF sum stops growing."""
    k = np.zeros(mean.shape)
    pmf = np.exp(-mean)
    cdf = pmf.copy()
    live = np.flatnonzero(u >= cdf)
    while live.size:
        k[live] += 1.0
        pmf[live] *= mean[live] / k[live]
        grown = cdf[live] + pmf[live]
        more = (u[live] >= grown) & (grown > cdf[live])
        cdf[live] = grown
        live = live[more]
    return k


def _ptrs(mean: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple:
    """One attempt of numpy's PTRS, Hörmann's transformed rejection (Insurance: Mathematics and
    Economics 12, 1993), per mean of 10 or more from two uniforms: the candidate counts and
    whether each stands."""
    b = 0.931 + 2.53 * np.sqrt(mean)
    a = -0.059 + 0.02483 * b
    u = u - 0.5
    us = 0.5 - np.abs(u)
    # u = -0.5 gives us = 0 and a candidate of -inf, which is rejected; log(0) = -inf accepts
    with np.errstate(divide="ignore"):
        k = np.floor((2 * a / us + b) * u + mean + 0.43)
        ok = (us >= 0.07) & (v <= 0.9277 - 3.6224 / (b - 2))
        t = np.flatnonzero(~ok)
        t = t[(k[t] >= 0) & ~((us[t] < 0.013) & (v[t] > us[t]))]
        mt, bt, kt, ust = mean[t], b[t], k[t], us[t]
        ok[t] = (np.log(v[t]) + np.log(1.1239 + 1.1328 / (bt - 3.4)) - np.log(a[t] / (ust * ust) + bt)
                 <= -mt + kt * np.log(mt) - _log_factorial(kt))
    return k, ok


def _poisson(means: np.ndarray, key: tuple) -> np.ndarray:
    """A Poisson count per mean, as float64.  Mask j takes its first uniforms (u, v) from words
    2h and 2h + 1, h = j & 1, of the Philox block (j >> 1, 0, 0, 0): inversion reads u, and PTRS
    makes its first attempt from both.  PTRS attempts 2r and 2r + 1 take words (0, 1) and (2, 3)
    of block (j, r, 0, 0), r >= 1.  So a count depends only on the key, j and its mean, and the
    masks go through in chunks; those that PTRS rejects retry together."""
    counts = np.empty(means.shape)
    retry = []
    for start in range(0, means.size, _CHUNK):          # _CHUNK is even
        mean = means[start:start + _CHUNK]
        w = _philox_block((np.arange(start >> 1, (start + mean.size + 1) >> 1), 0, 0, 0), key)
        u, v = (_unit(np.stack(half, axis=1).ravel()[:mean.size]) for half in (w[0::2], w[1::2]))
        small = mean < _PTRS_MIN_MEAN
        large = np.flatnonzero(~small)
        out = counts[start:start + _CHUNK]
        out[small] = _inversion(mean[small], u[small])
        out[large], ok = _ptrs(mean[large], u[large], v[large])
        retry.append(start + large[~ok])
    retry, r = np.concatenate(retry), 1
    while retry.size:
        w0, w1, w2, w3 = _philox_block((retry, r, 0, 0), key)
        counts[retry], ok = _ptrs(means[retry], _unit(w0), _unit(w1))
        retry, w2, w3 = retry[~ok], w2[~ok], w3[~ok]
        counts[retry], ok = _ptrs(means[retry], _unit(w2), _unit(w3))
        retry, r = retry[~ok], r + 1
    return counts


def sample_counts(scan: Scan, total_flux: float, seed: int) -> Scan:
    """Poisson-sampled coincidence counts at a finite photon budget.

    Each channel's counts are drawn independently per mask with mean
    total_flux * v_j / sum(v), from the package's own Philox4x64-10 blocks
    keyed (seed, 1 + channel), channel 0 for cos and 1 for sin (``_poisson``
    lays out their counters).  A given seed reproduces the same counts with
    every numpy release, and neither channel reads a block of the pixel
    permutation, keyed (seed, 0).
    """
    if not scan.exact:
        raise ValueError("can only sample from an exact-mode series")
    if not (np.isfinite(total_flux) and 0 < total_flux <= MAX_FLUX):
        raise ValueError(f"total flux must be positive, finite and at most {MAX_FLUX:g},"
                         f" got {total_flux}")
    counts = []
    for channel, values in enumerate((scan.cos, scan.sin)):
        if not np.all(values >= 0):
            raise ValueError("cannot sample counts: an exact value is negative or NaN")
        total = values.sum()
        if not total > 0:
            raise ValueError("cannot sample counts: the exact series sums to zero "
                             "(no light reaches the detector)")
        counts.append(_poisson(total_flux * values / total, (seed, 1 + channel)))
    return replace(scan, cos=counts[0], sin=counts[1], flux=float(total_flux), seed=int(seed))
