"""Test objects and illumination support."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

KINDS = (
    "flat",
    "double-slit-amplitude",
    "annulus-amplitude",
    "pi-slit-phase",
    "azimuthal-ring-phase",
    "spiral-flower-phase",
)


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


def _annulus_radii(radii: Optional[Sequence[float]], d: int,
                   default: Tuple[float, float]) -> Tuple[float, float]:
    r0, r1 = radii if radii is not None else default
    if not 0 <= r0 < r1 or r1 > d:
        raise ValueError(f"bad annulus radii ({r0}, {r1})")
    return r0, r1


def make_object(kind: str, d: int, *, slit_width: Optional[int] = None,
                slit_gap: Optional[int] = None, annulus_radii: Optional[Sequence[float]] = None,
                petals: int = 6, bands: int = 3, phase_depth: float = np.pi,
                illumination_radius: Optional[float] = None) -> np.ndarray:
    """Generate a normalized d x d complex object field of one of ``KINDS``.

    The geometry arguments are named by their ``object.`` config keys.
    Lengths are in pixels; ``None`` picks a default that scales with the
    grid size.  ``phase_depth`` is the step height in radians for the
    slit object.  Amplitude kinds have unit amplitude on the feature and
    zero outside; phase kinds have unit amplitude across the whole
    illumination disc.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown object kind {kind!r}")
    radius = illumination_radius if illumination_radius is not None else default_radius(d)
    if radius < 0:
        raise ValueError("illumination radius must be nonnegative")
    radius = min(radius, d)

    cols = np.arange(d)     # the slit kinds select whole columns
    r, theta = _polar(d)
    obj = np.zeros((d, d), dtype=np.complex128)

    if kind == "flat":
        obj[:] = 1.0
        # uniform reference field covers the whole grid unless a disc is asked for
        if illumination_radius is None:
            radius = d
    elif kind == "double-slit-amplitude":
        w = slit_width if slit_width is not None else max(1, d // 10)
        gap = slit_gap if slit_gap is not None else max(2, d // 5)
        if w < 1:
            raise ValueError(f"slit width must be at least 1, got {w}")
        left0 = d // 2 - gap // 2 - w
        right0 = d // 2 + gap // 2
        if left0 < 0 or right0 + w > d:
            raise ValueError("double slit does not fit inside the grid")
        left = (cols >= left0) & (cols < left0 + w)
        right = (cols >= right0) & (cols < right0 + w)
        obj[:, left | right] = 1.0
    elif kind == "annulus-amplitude":
        r0, r1 = _annulus_radii(annulus_radii, d, (d / 4, 3 * d / 8))
        obj[(r >= r0) & (r <= r1)] = 1.0
    elif kind == "pi-slit-phase":
        w = slit_width if slit_width is not None else max(1, d // 8)
        if w < 1:
            raise ValueError(f"slit width must be at least 1, got {w}")
        c0 = d // 2 - w // 2
        if c0 < 0 or c0 + w > d:
            raise ValueError("slit does not fit inside the grid")
        obj[:] = 1.0
        slit = (cols >= c0) & (cols < c0 + w)
        obj[:, slit] = np.exp(1j * phase_depth)
    elif kind == "azimuthal-ring-phase":
        r0, r1 = _annulus_radii(annulus_radii, d, (d / 4, 3 * d / 8))
        obj[:] = 1.0
        ann = (r >= r0) & (r <= r1)
        obj[ann] = np.exp(1j * theta[ann])
    elif kind == "spiral-flower-phase":
        r0, r1 = _annulus_radii(annulus_radii, d, (d / 8, 3 * d / 8))
        obj[:] = 1.0
        edges = np.linspace(r0, r1, bands + 1)
        for b in range(bands):
            band = (r >= edges[b]) & (r < edges[b + 1])
            phase = petals * theta[band] + b * np.pi / max(bands - 1, 1)
            obj[band] = np.exp(1j * phase)
    return normalize(apply_illumination(obj, radius))
