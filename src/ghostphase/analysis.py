"""Cross-sections and phase error metrics against ground truth."""

from __future__ import annotations

import numpy as np

from .scene import grid_center


# Pixels per row block of phase_rmse: each complex temporary is at most 128 KiB
_CHUNK = 2 ** 13


def wrap(angles: np.ndarray) -> np.ndarray:
    """Wrap to (-pi, pi]."""
    w = np.angle(np.exp(1j * np.asarray(angles, dtype=float)))
    return np.where(w == -np.pi, np.pi, w)


def cross_section_horizontal(phase: np.ndarray, support: np.ndarray, row: int) -> tuple:
    """(columns, values) of the phase along one row, restricted to valid support pixels."""
    if not 0 <= row < support.shape[0]:
        raise ValueError(f"row {row} outside the grid")
    valid = support[row]
    if not valid.any():
        raise ValueError(f"row {row} has no valid support pixels")
    cols = np.flatnonzero(valid)
    return cols.astype(float), phase[row, cols]


def cross_section_azimuthal(grid: np.ndarray, radius: float, samples: int = 64) -> tuple:
    """(azimuths, values) of a grid's nearest pixels on a centered circle of the given radius."""
    d = grid.shape[0]
    c = grid_center(d)
    if not 0 <= radius <= d / 2:    # NaN fails too
        raise ValueError(f"radius {radius} outside the grid")
    theta = 2 * np.pi * np.arange(samples) / samples
    xs = np.clip(np.round(c + radius * np.cos(theta)).astype(int), 0, d - 1)
    ys = np.clip(np.round(c + radius * np.sin(theta)).astype(int), 0, d - 1)
    return theta, grid[ys, xs]


def phase_rmse(recovered: np.ndarray, truth: np.ndarray, support: np.ndarray) -> float:
    """Circular RMSE over ``support``, the pixels both maps trust, best global offset removed.

    The offset is the circular mean of the wrapped differences, which is
    well defined across the branch cut (a linear mean is not).  The
    differences are taken, and wrapped, in row blocks of `_CHUNK` pixels;
    each mean reduces one contiguous array of all of them, the unit
    phasors and then the squared residuals, in pixel order, so the only
    arrays of the intersection's size are those two.
    """
    if not support.any():
        raise ValueError("empty support intersection")
    rows, cols = support.shape
    step = max(1, _CHUNK // cols)

    def differences():
        at = 0
        for start in range(0, rows, step):
            on = support[start:start + step]
            diff = recovered[start:start + step][on]
            diff -= truth[start:start + step][on]
            yield slice(at, at + diff.size), diff
            at += diff.size

    count = np.count_nonzero(support)
    phasors = np.empty(count, dtype=complex)
    for at, diff in differences():
        np.exp(np.multiply(1j, diff, out=phasors[at]), out=phasors[at])
    offset = np.angle(np.mean(phasors))
    del phasors
    squares = np.empty(count)
    for at, diff in differences():
        diff -= offset
        np.square(wrap(diff), out=squares[at])
    return float(np.sqrt(np.mean(squares)))


def azimuthal_slope(theta: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of an azimuthal trace's unwrapped values vs its angles.

    The closed form of a line fit, from sums centred on the means, needs no
    LAPACK solve, whose code pages would otherwise join every analyze
    process's resident memory. ``analysis.samples`` is at least 2, so the
    CLI's traces have distinct angles and the denominator is never 0.
    """
    th = theta - theta.mean()
    un = np.unwrap(values)
    return float(np.sum(th * (un - un.mean())) / np.sum(th * th))
