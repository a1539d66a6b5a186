"""Cosine/sine projection masks and the pseudo-complete random basis."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .wht import DimensionError, OrthoMatrix

SQRT2 = np.sqrt(2.0)


def _uniform_mask(d: int) -> np.ndarray:
    return np.full((d, d), 1.0 / d)


def cos_mask(j: int, basis: OrthoMatrix | RandomBasis) -> np.ndarray:
    """(M_j + M_0)/sqrt(2): a 0 / sqrt(2)/sqrt(N) amplitude mask.

    j = 0 gives the unnormalized uniform mask sqrt(2) * M_0; it is kept
    in the scan because the reconstruction is insensitive to the
    reference mode.
    """
    return (basis.mask(j) + _uniform_mask(basis.dim)) / SQRT2


def sin_mask(j: int, basis: OrthoMatrix | RandomBasis) -> np.ndarray:
    """(M_j + i M_0)/sqrt(2): entries (+-1 + i)/(sqrt(2) sqrt(N))."""
    return (basis.mask(j) + 1j * _uniform_mask(basis.dim)) / SQRT2


@dataclass(frozen=True)
class RandomBasis:
    """N = d*d random +-1/d masks; index 0 is the uniform reference.  All signs come from one
    Philox stream keyed (seed, 0): mask j >= 1 reads the w = 4 ceil(N/256) words from word (j-1) w
    on, and pixel i is +1 where bit i (least significant first) is set."""

    seed: int
    dim: int
    matrix: np.ndarray = field(repr=False)   # (N, N)

    @property
    def size(self) -> int:
        return self.dim * self.dim

    @property
    def descriptor(self) -> str:
        return f"random:{self.seed}"

    def mask(self, j: int) -> np.ndarray:
        if not 0 <= j < self.size:
            raise IndexError(f"mask index {j} out of range for N={self.size}")
        return self.matrix[j].reshape(self.dim, self.dim)

    def analyze(self, field: np.ndarray) -> np.ndarray:
        x = np.asarray(field)
        if x.shape != (self.dim, self.dim):
            raise DimensionError(f"field shape {x.shape} does not match d={self.dim}")
        if np.iscomplexobj(x):
            return self.matrix @ x.real.ravel() + 1j * (self.matrix @ x.imag.ravel())
        return self.matrix @ x.ravel()

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        return (coeffs @ self.matrix).reshape(self.dim, self.dim) / coeffs.size

    def solve(self, rhs: tuple[np.ndarray, ...]) -> np.ndarray:
        """One LU solve for all of ``rhs`` (the masks are not orthogonal).  A singular set (common
        for d <= 4) is rejected; LU misses some rank-deficient sets, and exact data can fit one, so
        a fixed random probe column joins the solve: any column off by over 1e-6 (relative) rejects."""
        probe = np.random.default_rng(0).standard_normal(self.size)
        columns = np.column_stack((*rhs, probe))
        try:
            solution = np.linalg.solve(self.matrix, columns)
        except np.linalg.LinAlgError:
            solution = None
        if solution is None or not np.all(
                np.linalg.norm(self.matrix @ solution - columns, axis=0)
                <= 1e-6 * np.linalg.norm(columns, axis=0)):
            raise ValueError(f"random mask set (basis seed {self.seed}, d={self.dim}) is "
                             "singular; choose another basis seed")
        return (solution[:, :-1] / self.size).T.reshape(-1, self.dim, self.dim)


def _fill_masks(out: np.ndarray, seed: int, d: int) -> None:
    """Write masks 1, 2, ..., flattened, into the rows of ``out``."""
    count, N = out.shape
    words = 4 * -(-N // 256)             # whole 4-word Philox counter steps per mask
    stream = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    step = 1 + 1023 // words             # 64 KiB of bits per block: no large temporaries
    for rows in np.split(out, range(step, count, step)):
        raw = stream.random_raw(len(rows) * words).astype("<u8", copy=False)
        bits = np.unpackbits(raw.view(np.uint8), bitorder="little").reshape(len(rows), -1)
        # b * (2/d) - 1/d is exactly +-1/d: 2/d is 1/d scaled by a power of two
        np.multiply(bits[:, :N], 2.0 / d, out=rows)
        rows -= 1.0 / d


def random_basis(N: int, d: int, seed: int) -> RandomBasis:
    if N != d * d:
        raise ValueError(f"random basis needs N = d^2, got N={N}, d={d}")
    matrix = np.empty((N, N))
    matrix[0] = 1.0 / d
    _fill_masks(matrix[1:], seed, d)
    matrix.flags.writeable = False
    return RandomBasis(seed=seed, dim=d, matrix=matrix)


def export_mask_symbols(mask: np.ndarray, kind: str) -> np.ndarray:
    """Integer-symbol view of a mask for hardware export.

    basis: +-1 grid; cos: 0/1 grid; sin: +1 for the 1+i state, -1 for 1-i.
    """
    if kind in ("basis", "sin"):
        return np.where(mask.real > 0, 1, -1).astype(int)
    if kind == "cos":
        return (mask.real > 1e-12).astype(int)
    raise ValueError(f"unknown mask kind {kind!r}")
