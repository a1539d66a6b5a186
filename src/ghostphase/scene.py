"""Test objects and illumination support."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

KINDS = (
    "flat",
    "double-slit-amplitude",
    "annulus-amplitude",
    "pi-slit-phase",
    "azimuthal-ring-phase",
    "spiral-flower-phase",
)


@dataclass(frozen=True)
class ObjectSpec:
    """Geometry of a generated test object.

    Lengths are in pixels; ``None`` picks a default that scales with the
    grid size.  ``phase_depth`` is the step height in radians for the
    slit object.
    """

    kind: str = "flat"
    slit_width: Optional[int] = None
    slit_gap: Optional[int] = None
    annulus_radii: Optional[Tuple[float, float]] = None
    petals: int = 6
    bands: int = 3
    phase_depth: float = np.pi
    illumination_radius: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown object kind {self.kind!r}")


def grid_center(d: int) -> float:
    """Pixel-center coordinate of the grid center (symmetric for even d)."""
    return d / 2 - 0.5


def _radius(d: int) -> np.ndarray:
    c = grid_center(d)
    y, x = np.ogrid[0:d, 0:d]
    return np.hypot(x - c, y - c)


def _polar(d: int) -> Tuple[np.ndarray, np.ndarray]:
    c = grid_center(d)
    y, x = np.ogrid[0:d, 0:d]
    return _radius(d), np.mod(np.arctan2(y - c, x - c), 2 * np.pi)


def _columns(d: int) -> np.ndarray:
    return np.arange(d)[np.newaxis, :] * np.ones((d, 1), dtype=int)


def default_radius(d: int) -> float:
    return 0.44 * d


def disc_mask(d: int, radius: float) -> np.ndarray:
    return _radius(d) <= radius


def apply_illumination(obj: np.ndarray, radius: float) -> np.ndarray:
    """Zero the field outside the centered illumination disc.

    The result is not renormalized.
    """
    d = obj.shape[0]
    out = obj.copy()
    out[~disc_mask(d, radius)] = 0
    return out


def normalize(obj: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(obj)
    if norm == 0:
        raise ValueError("cannot normalize a field whose norm is zero or underflows to zero")
    return obj / norm


def _annulus_radii(spec: ObjectSpec, d: int, default: Tuple[float, float]) -> Tuple[float, float]:
    r0, r1 = spec.annulus_radii if spec.annulus_radii is not None else default
    if not 0 <= r0 < r1 or r1 > d:
        raise ValueError(f"bad annulus radii ({r0}, {r1})")
    return r0, r1


def make_object(spec: ObjectSpec, d: int) -> np.ndarray:
    """Generate a normalized d x d complex object field.

    Amplitude kinds have unit amplitude on the feature and zero outside;
    phase kinds have unit amplitude across the whole illumination disc.
    """
    radius = spec.illumination_radius if spec.illumination_radius is not None else default_radius(d)
    if radius < 0:
        raise ValueError("illumination radius must be nonnegative")
    radius = min(radius, d)

    cols = _columns(d)
    r, theta = _polar(d)
    obj = np.zeros((d, d), dtype=np.complex128)

    if spec.kind == "flat":
        obj[:] = 1.0
        # uniform reference field covers the whole grid unless a disc is asked for
        if spec.illumination_radius is None:
            radius = d
    elif spec.kind == "double-slit-amplitude":
        w = spec.slit_width if spec.slit_width is not None else max(1, d // 10)
        gap = spec.slit_gap if spec.slit_gap is not None else max(2, d // 5)
        left0 = d // 2 - gap // 2 - w
        right0 = d // 2 + gap // 2
        if left0 < 0 or right0 + w > d:
            raise ValueError("double slit does not fit inside the grid")
        left = (cols >= left0) & (cols < left0 + w)
        right = (cols >= right0) & (cols < right0 + w)
        obj[left | right] = 1.0
    elif spec.kind == "annulus-amplitude":
        r0, r1 = _annulus_radii(spec, d, (d / 4, 3 * d / 8))
        obj[(r >= r0) & (r <= r1)] = 1.0
    elif spec.kind == "pi-slit-phase":
        w = spec.slit_width if spec.slit_width is not None else max(1, d // 8)
        c0 = d // 2 - w // 2
        if c0 < 0 or c0 + w > d:
            raise ValueError("slit does not fit inside the grid")
        obj[:] = 1.0
        slit = (cols >= c0) & (cols < c0 + w)
        obj[slit] = np.exp(1j * spec.phase_depth)
    elif spec.kind == "azimuthal-ring-phase":
        r0, r1 = _annulus_radii(spec, d, (d / 4, 3 * d / 8))
        obj[:] = 1.0
        ann = (r >= r0) & (r <= r1)
        obj[ann] = np.exp(1j * theta[ann])
    elif spec.kind == "spiral-flower-phase":
        r0, r1 = _annulus_radii(spec, d, (d / 8, 3 * d / 8))
        obj[:] = 1.0
        edges = np.linspace(r0, r1, spec.bands + 1)
        for b in range(spec.bands):
            band = (r >= edges[b]) & (r < edges[b + 1])
            phase = spec.petals * theta[band] + b * np.pi / max(spec.bands - 1, 1)
            obj[band] = np.exp(1j * phase)
    return normalize(apply_illumination(obj, radius))
