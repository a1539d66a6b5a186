"""Coincidence measurement series: exact probabilities and Poisson counts."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple, Union

import numpy as np

from .scene import SpectralDecomposition
from .wht import OrthoMatrix, fwht2
from .projections import RandomBasis

SQRT2 = np.sqrt(2.0)

Basis = Union[OrthoMatrix, RandomBasis]


@dataclass(frozen=True)
class MeasurementSeries:
    """Per-mask detection values for one projection channel.

    ``values[j]`` is |<T_j|O>|^2 in exact mode, or a Poisson count after
    sampling.  ``flux`` is None for exact probabilities.
    """

    kind: str                       # "cos" | "sin"
    dim: int
    basis: str                      # e.g. "hadamard:natural" or "random:42"
    values: np.ndarray = field(repr=False)
    flux: Optional[float] = None
    seed: Optional[int] = None

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def exact(self) -> bool:
        return self.flux is None


def mask_overlaps(obj: np.ndarray, basis: Basis) -> np.ndarray:
    """All N inner products <M_j|O>: Hadamard by the fast transform, random by the mask matrix."""
    if isinstance(basis, OrthoMatrix):
        return fwht2(obj, basis).ravel()
    return basis.analyze(obj)


def measure_exact(obj: np.ndarray, basis: Basis) -> Tuple[MeasurementSeries, MeasurementSeries]:
    """Exact detection probabilities v_j = |<T_j|O>|^2 of the cos and sin masks.

    One overlap pass serves both channels: <T_j|O> is (c_j + c_0)/sqrt(2) for
    the cos mask and (c_j - i c_0)/sqrt(2) for the sin mask, c_0 being the
    reference overlap.
    """
    overlaps = mask_overlaps(obj, basis)
    c0 = overlaps[0]
    t_cos = (overlaps + c0) / SQRT2
    t_sin = (overlaps - 1j * c0) / SQRT2
    return tuple(MeasurementSeries(kind=kind, dim=basis.dim, basis=basis.descriptor,
                                   values=np.abs(t) ** 2)
                 for kind, t in (("cos", t_cos), ("sin", t_sin)))


def closed_form_values(
    dec: SpectralDecomposition,
    kind: str,
    delta_sign: str = "minus",
    cross_sign: str = "minus",
    sin_coeff: str = "half",
) -> np.ndarray:
    """Term-by-term prediction of the detection probabilities.

    The defaults are the implemented conventions: phase differences against
    the reference mode, a minus on the sine channel's cross term, and p_j/2
    in both channels.
    """
    p = dec.probabilities
    p0 = dec.reference_probability
    a0 = dec.reference_phase
    delta = dec.phases - a0 if delta_sign == "minus" else dec.phases + a0
    cross = np.sqrt(p0 * p)
    if kind == "cos":
        return p0 / 2 + p / 2 + cross * np.cos(delta)
    coeff = 0.5 if sin_coeff == "half" else 1.0
    sign = -1.0 if cross_sign == "minus" else 1.0
    return p0 / 2 + coeff * p + sign * cross * np.sin(delta)


def decompose_probability(
    series: MeasurementSeries,
    dec: SpectralDecomposition,
    delta_sign: str = "minus",
    cross_sign: str = "minus",
    sin_coeff: str = "half",
) -> float:
    """Max absolute residual of the series against the closed-form expansion.

    Arbiter of the sign conventions: only the implemented convention set
    drives the residual to zero for exact series.
    """
    if not series.exact:
        raise ValueError("closed-form check needs an exact-mode series")
    predicted = closed_form_values(dec, series.kind, delta_sign, cross_sign, sin_coeff)
    return float(np.max(np.abs(series.values - predicted)))


def sample_counts(series: MeasurementSeries, total_flux: float, seed: int) -> MeasurementSeries:
    """Poisson-sampled coincidence counts at a finite photon budget.

    Counts are drawn independently per mask with mean
    total_flux * v_j / sum(v), in one draw from a counter-based Philox
    generator keyed by (seed, channel), so a given seed and channel
    always reproduce the same counts and the cos and sin channels draw
    from independent streams.
    """
    if not series.exact:
        raise ValueError("can only sample from an exact-mode series")
    if not (np.isfinite(total_flux) and total_flux > 0):
        raise ValueError(f"total flux must be positive and finite, got {total_flux}")
    total = series.values.sum()
    if not total > 0:
        raise ValueError("cannot sample counts: the exact series sums to zero "
                         "(no light reaches the detector)")
    kind_bit = 0 if series.kind == "cos" else 1
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, kind_bit], dtype=np.uint64)))
    counts = rng.poisson(total_flux * series.values / total).astype(np.float64)
    return replace(series, values=counts, flux=float(total_flux), seed=int(seed))
