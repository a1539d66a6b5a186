"""Seeded random bases: the Hadamard masks with their pixels shuffled, an alternative scan order."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .wht import DimensionError, OrthoMatrix, fwht2, hadamard_matrix


@dataclass(frozen=True)
class RandomBasis:
    """N = d*d orthonormal +-1/d masks: pixel x of mask j is pixel perm[x] of natural-order
    Hadamard mask j.  perm fixes pixel 0, so mask 0 is the uniform reference and the sum of all
    masks stays on the corner pixel.  perm[1:] is 1 + the stable argsort of the first N - 1
    words of the Philox stream keyed (seed, 0)."""

    seed: int
    hadamard: OrthoMatrix = field(repr=False)
    perm: np.ndarray = field(repr=False)        # read-only

    @property
    def dim(self) -> int:
        return self.hadamard.dim

    @property
    def size(self) -> int:
        return self.hadamard.size

    @property
    def descriptor(self) -> str:
        return f"permuted:{self.seed}"

    def mask(self, j: int) -> np.ndarray:
        return self.hadamard.mask(j).ravel()[self.perm].reshape(self.dim, self.dim)

    def analyze(self, field: np.ndarray) -> np.ndarray:
        """All N overlaps <M_j|field>: the transform of the field with perm undone."""
        x = np.asarray(field)
        if x.shape != (self.dim, self.dim):
            raise DimensionError(f"field shape {x.shape} does not match d={self.dim}")
        unshuffled = np.empty(x.size, x.dtype)
        unshuffled[self.perm] = x.ravel()
        return fwht2(unshuffled.reshape(x.shape), self.hadamard).ravel()

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """(1/N) sum_j w_j M_j for a flat coefficient vector w."""
        image = fwht2(coeffs.reshape(self.dim, self.dim), self.hadamard).ravel()[self.perm]
        return image.reshape(self.dim, self.dim) / coeffs.size


def random_basis(d: int, seed: int) -> RandomBasis:
    hadamard = hadamard_matrix(d)
    words = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)).random_raw(d * d - 1)
    perm = np.concatenate(([0], 1 + np.argsort(words, kind="stable")))
    perm.flags.writeable = False
    return RandomBasis(seed=seed, hadamard=hadamard, perm=perm)
