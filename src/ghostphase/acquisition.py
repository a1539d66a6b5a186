"""Coincidence measurement series: exact probabilities and Poisson counts."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from .wht import OrthoMatrix, fwht2

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class MeasurementSeries:
    """Per-mask detection values for one projection channel.

    ``values[j]`` is |<T_j|O>|^2 in exact mode, or a Poisson count after
    sampling.  ``flux`` is None for exact probabilities.
    """

    kind: str                       # "cos" | "sin"
    basis: OrthoMatrix              # the masks that measured the values
    values: np.ndarray = field(repr=False)
    flux: Optional[float] = None
    seed: Optional[int] = None

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def exact(self) -> bool:
        return self.flux is None


def mask_overlaps(obj: np.ndarray, basis: OrthoMatrix) -> np.ndarray:
    """All N inner products <M_j|O> on fwht2's (d, d) grid: the fast transform of the object
    with the pixel shuffle undone."""
    return fwht2(basis.unshuffle(obj), basis)


def _detection_pair(overlaps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """|<T_j|O>|^2 of the cos and sin masks from the flat overlaps c_j, c_0 being the reference's:
    <T_j|O> is (c_j + c_0)/sqrt(2) for the cos mask and (c_j - i c_0)/sqrt(2) for the sin mask."""
    c0 = overlaps[0]
    return tuple(np.abs(t) ** 2 for t in ((overlaps + c0) / SQRT2, (overlaps - 1j * c0) / SQRT2))


def measure_exact(obj: np.ndarray, basis: OrthoMatrix) -> Tuple[MeasurementSeries, MeasurementSeries]:
    """Exact detection probabilities v_j = |<T_j|O>|^2 of the cos and sin masks, from one overlap pass."""
    return tuple(MeasurementSeries(kind=kind, basis=basis, values=v)
                 for kind, v in zip(("cos", "sin"), _detection_pair(mask_overlaps(obj, basis).ravel())))


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
