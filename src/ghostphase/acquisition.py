"""Detection scans: exact cos/sin probabilities and Poisson counts."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from .wht import OrthoMatrix, fwht2

SQRT2 = np.sqrt(2.0)


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
    """|<T_j|O>|^2 of the cos and sin masks from the flat overlaps c_j, c_0 being the reference's:
    <T_j|O> is (c_j + c_0)/sqrt(2) for the cos mask and (c_j - i c_0)/sqrt(2) for the sin mask."""
    c0 = overlaps[0]
    return tuple(np.abs(t) ** 2 for t in ((overlaps + c0) / SQRT2, (overlaps - 1j * c0) / SQRT2))


def measure_exact(obj: np.ndarray, basis: OrthoMatrix) -> Scan:
    """Exact detection probabilities v_j = |<T_j|O>|^2 of the cos and sin masks, from one overlap pass."""
    return Scan(basis, *_detection_pair(mask_overlaps(obj, basis).ravel()))


def sample_counts(scan: Scan, total_flux: float, seed: int) -> Scan:
    """Poisson-sampled coincidence counts at a finite photon budget.

    Each channel's counts are drawn independently per mask with mean
    total_flux * v_j / sum(v), in one draw from a counter-based Philox
    generator keyed by (seed, channel), channel 0 for cos and 1 for sin, so
    a given seed always reproduces the same counts and the two channels
    draw from independent streams.
    """
    if not scan.exact:
        raise ValueError("can only sample from an exact-mode series")
    if not (np.isfinite(total_flux) and total_flux > 0):
        raise ValueError(f"total flux must be positive and finite, got {total_flux}")
    counts = []
    for channel, values in enumerate((scan.cos, scan.sin)):
        total = values.sum()
        if not total > 0:
            raise ValueError("cannot sample counts: the exact series sums to zero "
                             "(no light reaches the detector)")
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, channel], dtype=np.uint64)))
        counts.append(rng.poisson(total_flux * values / total).astype(np.float64))
    return replace(scan, cos=counts[0], sin=counts[1], flux=float(total_flux), seed=int(seed))
