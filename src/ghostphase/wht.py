"""Walsh-Hadamard matrices, basis masks and the fast 2D transform.

All masks are orthonormal: a d x d basis mask has entries +-1/sqrt(N)
with N = d*d, so <M_j|M_k> = delta_jk holds exactly and the transform
is self-inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

NATURAL = "natural"
SEQUENCY = "sequency"


class DimensionError(ValueError):
    """Raised for non power-of-two sizes or mismatched shapes."""


def _is_power_of_two(d: int) -> bool:
    return d >= 1 and (d & (d - 1)) == 0


@lru_cache(maxsize=None)
def _sequency_permutation(d: int) -> tuple:
    """perm[s] = natural (Sylvester) row index with sequency rank s."""
    rows = _sylvester(d)
    changes = np.count_nonzero(np.diff(np.sign(rows), axis=1), axis=1)
    return tuple(int(i) for i in np.argsort(changes, kind="stable"))


def _sylvester(d: int) -> np.ndarray:
    H = np.array([[1.0]])
    while H.shape[0] < d:
        H = np.block([[H, H], [H, -H]])
    return H


@dataclass(frozen=True)
class OrthoMatrix:
    """Normalized Walsh-Hadamard matrix; rows are the 1D basis vectors h_n."""

    dim: int
    entries: np.ndarray = field(repr=False)
    ordering: str = NATURAL

    @property
    def size(self) -> int:
        return self.dim * self.dim

    @property
    def descriptor(self) -> str:
        return f"hadamard:{self.ordering}"

    def mask(self, j: int) -> np.ndarray:
        """Outer-product mask M_j = h_n (x) h_m with j = n*d + m.

        Entries are +-1/sqrt(N); M_0 is the uniform mask with every entry
        1/sqrt(N).
        """
        d = self.dim
        if not 0 <= j < d * d:
            raise IndexError(f"mask index {j} out of range for N={d * d}")
        n, m = divmod(int(j), d)
        return np.outer(self.entries[n], self.entries[m])


def hadamard_matrix(d: int, ordering: str = NATURAL) -> OrthoMatrix:
    """Build the d x d normalized Walsh-Hadamard matrix.

    Rows carry the basis functions; entries are +-1/sqrt(d).  In natural
    (Sylvester) order the matrix is symmetric, so rows and columns agree;
    the sequency reordering (rows ranked by sign-change count) preserves
    symmetry.  Row 0 is all-positive under both orderings.
    """
    if not isinstance(d, (int, np.integer)) or not _is_power_of_two(int(d)):
        raise DimensionError(f"dimension must be a power of two, got {d!r}")
    d = int(d)
    if ordering not in (NATURAL, SEQUENCY):
        raise ValueError(f"unknown ordering {ordering!r}")
    H = _sylvester(d)
    if ordering == SEQUENCY:
        H = H[list(_sequency_permutation(d))]
    entries = H / np.sqrt(d)
    entries.flags.writeable = False     # shared by every stage that holds the basis
    return OrthoMatrix(dim=d, entries=entries, ordering=ordering)


def _fwht_axis0(X: np.ndarray) -> np.ndarray:
    """In-place butterfly along axis 0 (unnormalized, natural order)."""
    d = X.shape[0]
    h = 1
    while h < d:
        for i in range(0, d, h * 2):
            a = X[i:i + h].copy()
            b = X[i + h:i + 2 * h]
            X[i:i + h] = a + b
            X[i + h:i + 2 * h] = a - b
        h *= 2
    return X


def fwht2(field: np.ndarray, H: OrthoMatrix) -> np.ndarray:
    """Separable fast 2D Walsh-Hadamard transform: H X H^T.

    The (n, m) output entry equals the inner product <M_{j=(n,m)}|X>.
    O(d^2 log d); self-inverse because H is symmetric orthogonal in both
    orderings.
    """
    X = np.asarray(field)
    d = H.dim
    if X.shape != (d, d):
        raise DimensionError(f"field shape {X.shape} does not match d={d}")
    out = X.astype(np.complex128 if np.iscomplexobj(X) else np.float64, copy=True)
    _fwht_axis0(out)
    out = _fwht_axis0(out.T.copy()).T
    out /= d
    if H.ordering == SEQUENCY:
        perm = list(_sequency_permutation(d))
        out = out[np.ix_(perm, perm)]
    return out
