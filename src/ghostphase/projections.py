"""Seeded random bases: the Hadamard masks with their pixels shuffled, an alternative scan order."""

from __future__ import annotations

from .wht import OrthoMatrix


def random_basis(d: int, seed: int) -> OrthoMatrix:
    """The natural-order Hadamard basis with its pixels shuffled by the permutation of ``seed``."""
    return OrthoMatrix(d, seed=seed)
