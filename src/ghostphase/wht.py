"""Walsh-Hadamard bases (pixel-shuffled when seeded), their masks and the fast 2D transform.

All masks are orthonormal: a d x d basis mask has values +-1/d, and 1/d
is a power of two, so <M_j|M_k> = delta_jk holds exactly.  The transform
is self-inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

NATURAL = "natural"
SEQUENCY = "sequency"


@lru_cache(maxsize=None)
def _sequency_permutation(d: int) -> tuple:
    """perm[s] = natural (Sylvester) row index with sequency rank s."""
    rows = _fwht_axis0(np.eye(d))    # H is symmetric, so its columns are its rows
    changes = np.count_nonzero(np.diff(np.sign(rows), axis=1), axis=1)
    return tuple(int(i) for i in np.argsort(changes, kind="stable"))


# each Philox multiplier with its low and high 32-bit halves
_PHILOX_M = tuple((np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
                  for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(m: tuple, b: np.ndarray, scratch: tuple) -> np.ndarray:
    """Overwrite b with the low 64-bit word of m * b and return the high word, summed from 32-bit
    halves in the four scratch arrays; the returned array is the last of them."""
    m, m_lo, m_hi = m
    b_lo, t, u, hi = scratch
    np.bitwise_and(b, _LOW32, out=b_lo)
    np.right_shift(b, _SHIFT32, out=hi)
    np.multiply(b, m, out=b)
    np.multiply(b_lo, m_lo, out=t)
    np.right_shift(t, _SHIFT32, out=t)
    np.multiply(b_lo, m_hi, out=b_lo)
    np.add(t, b_lo, out=t)                  # high half of m_lo * b_lo, plus m_hi * b_lo
    np.multiply(hi, m_lo, out=u)
    np.bitwise_and(t, _LOW32, out=b_lo)
    np.add(u, b_lo, out=u)                  # m_lo * b_hi, plus the low half of t
    np.multiply(hi, m_hi, out=hi)
    np.right_shift(t, _SHIFT32, out=t)
    np.right_shift(u, _SHIFT32, out=u)
    np.add(hi, t, out=hi)
    np.add(hi, u, out=hi)                   # no sum here can carry out of 64 bits
    return hi


def _philox_block(counter: tuple, key: tuple) -> tuple:
    """The four output words of Philox4x64-10 (Salmon et al., SC'11) at each counter
    (x0, x1, x2, x3) under the key (k0, k1), as numpy's ``Philox`` computes them.  The counter
    words are uint64 arrays or scalars that broadcast to at least one dimension, and are not
    written.  uint64 array arithmetic wraps silently, also the key schedule's, which runs on an
    array because numpy scalar arithmetic raises on overflow under ``errstate(over="raise")``."""
    k = np.array(key, dtype=np.uint64)
    x0, x1, x2, x3 = (np.array(w) for w in
                      np.broadcast_arrays(*(np.asarray(w, dtype=np.uint64) for w in counter)))
    scratch = tuple(np.empty_like(x0) for _ in range(4))
    for _ in range(10):
        x1 ^= _mulhilo(_PHILOX_M[1], x2, scratch)
        x1 ^= k[0]
        x3 ^= _mulhilo(_PHILOX_M[0], x0, scratch)
        x3 ^= k[1]
        x0, x1, x2, x3 = x1, x2, x3, x0
        k += _PHILOX_W
    return x0, x1, x2, x3


def _philox_words(seed: int, n: int) -> np.ndarray:
    """The first n words of numpy's ``Philox(key=[seed, 0]).random_raw``: block i is counter
    (i + 1, 0, 0, 0) and gives words 4i..4i+3."""
    blocks = np.arange(1, -(-n // 4) + 1, dtype=np.uint64)
    return np.stack(_philox_block((blocks, 0, 0, 0), (seed, 0)), axis=1).ravel()[:n]


@lru_cache(maxsize=1)
def _pixel_permutation(d: int, seed: int) -> np.ndarray:
    """perm fixes pixel 0; perm[1:] is 1 + the stable argsort of the first N - 1 words of the
    Philox stream keyed (seed, 0).  Read-only, so every basis with this seed shares it."""
    words = _philox_words(seed, d * d - 1)
    perm = np.concatenate(([0], 1 + np.argsort(words, kind="stable")))
    perm.flags.writeable = False
    return perm


@dataclass(frozen=True)
class OrthoMatrix:
    """Normalized Walsh-Hadamard basis; it holds no array, and each mask is made on demand.
    With a seed, pixel x of mask j is pixel perm[x] of Hadamard mask j (a structurally random
    basis); perm fixes pixel 0, so mask 0 stays the uniform reference."""

    dim: int
    ordering: str = NATURAL
    seed: Optional[int] = None

    def __post_init__(self):
        """Every check of a scan basis.  A numpy integer dim is stored as an int."""
        dim, seed = self.dim, self.seed
        if not isinstance(dim, (int, np.integer)) or dim < 1 or dim & (dim - 1):
            raise ValueError(f"dimension must be a power of two, got {dim!r}")
        if self.ordering not in (NATURAL, SEQUENCY):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if seed is not None and not (isinstance(seed, (int, np.integer)) and 0 <= int(seed) < 2 ** 64):
            # the Philox key is one uint64 word
            raise ValueError(f"basis seed must be an integer in [0, 2**64), got {seed!r}")
        if seed is not None and self.ordering != NATURAL:
            # the descriptor permuted:<seed> names natural-order masks
            raise ValueError(f"a seeded basis scans natural order, got {self.ordering!r}")
        object.__setattr__(self, "dim", int(dim))

    @property
    def size(self) -> int:
        return self.dim * self.dim

    @property
    def descriptor(self) -> str:
        """The basis's name in a series header: hadamard:<ordering> or permuted:<seed>."""
        return f"hadamard:{self.ordering}" if self.seed is None else f"permuted:{self.seed}"

    @classmethod
    def from_descriptor(cls, text: str, d: int) -> "OrthoMatrix":
        """The d x d basis whose `descriptor` is ``text``; no other spelling (permuted:05) parses."""
        family, _, arg = text.partition(":")
        if family == "hadamard" and arg in (NATURAL, SEQUENCY):
            return cls(d, arg)
        if family == "permuted" and arg.isascii() and arg.isdigit() and str(int(arg)) == arg:
            return cls(d, seed=int(arg))
        raise ValueError(f"unknown basis descriptor {text!r}")

    @property
    def perm(self) -> np.ndarray:
        if self.seed is None:
            raise ValueError("an unseeded basis has no pixel permutation")
        return _pixel_permutation(self.dim, self.seed)

    def mask(self, j: int) -> np.ndarray:
        """Mask M_j, the synthesis of the unit coefficient j, its pixels shuffled if seeded.

        Values are exactly +-1/d; M_0 is the uniform mask with every value
        1/d.  The transform's matrix is symmetric in both orderings, so
        ``fwht2`` synthesizes a mask as it analyses a field.
        """
        if not 0 <= j < self.size:
            raise IndexError(f"mask index {j} out of range for N={self.size}")
        unit = np.zeros((self.dim, self.dim))
        unit.flat[int(j)] = 1.0
        return self.shuffle(fwht2(unit, self))

    def unshuffle(self, field: np.ndarray) -> np.ndarray:
        """The field with the pixel shuffle undone, so that <M_j|field> is ``fwht2`` of it at j."""
        if self.seed is None:
            return field
        x = np.asarray(field)
        if x.shape != (self.dim, self.dim):
            raise ValueError(f"field shape {x.shape} does not match d={self.dim}")
        unshuffled = np.empty(x.size, x.dtype)
        unshuffled[self.perm] = x.ravel()
        return unshuffled.reshape(x.shape)

    def shuffle(self, image: np.ndarray) -> np.ndarray:
        """A d x d image with its pixels taken in perm order: the Hadamard mask j becomes M_j."""
        if self.seed is None:
            return image
        return image.ravel()[self.perm].reshape(self.dim, self.dim)


def _fwht_axis0(X: np.ndarray) -> np.ndarray:
    """In-place butterfly along axis 0 (unnormalized, natural order).

    X must be a fresh writable array, as both callers, ``fwht2`` and
    ``_sequency_permutation``, pass (C-contiguous in both).
    Each stage writes through a (d/2h, 2, h, ...) reshape, which only
    splits axis 0 and so is a view whatever the strides.
    """
    d = X.shape[0]
    h = 1
    while h < d:
        pairs = X.reshape(d // (2 * h), 2, h, *X.shape[1:])
        a, b = pairs[:, 0].copy(), pairs[:, 1]
        pairs[:, 0] += b
        np.subtract(a, b, out=b)
        del a       # freed before the next stage copies its own
        h *= 2
    return X


# Side of the square blocks that `_transpose` swaps: two float64 blocks of 64 x 64 fit in L1
_BLOCK = 64


def _transpose(X: np.ndarray) -> np.ndarray:
    """Transpose a square array in its own buffer, one pair of blocks at a time, and return it.

    Its memory then holds X.T in X's order, as a transposed copy would, without a
    second (d, d) array: the blocks are its only temporaries.
    """
    d = X.shape[0]
    for i in range(0, d, _BLOCK):
        rows = slice(i, i + _BLOCK)
        X[rows, rows] = X[rows, rows].T.copy()
        for j in range(i + _BLOCK, d, _BLOCK):
            cols = slice(j, j + _BLOCK)
            upper = X[rows, cols].copy()
            X[rows, cols] = X[cols, rows].T
            X[cols, rows] = upper.T
    return X


def fwht2(field: np.ndarray, H: OrthoMatrix) -> np.ndarray:
    """Separable fast 2D Walsh-Hadamard transform: H X H^T.

    The (n, m) output entry equals the inner product <M_{j=(n,m)}|X> for an
    unseeded H: only its ordering applies, never its pixel shuffle (see
    ``H.unshuffle``).  O(d^2 log d); self-inverse because H is symmetric
    orthogonal in both orderings.  The result is the one (d, d) array it
    allocates, Fortran-ordered unless sequency-ordered; the butterflies'
    half-size temporaries are its only others.
    """
    X = np.asarray(field)
    d = H.dim
    if X.shape != (d, d):
        raise ValueError(f"field shape {X.shape} does not match d={d}")
    out = X.astype(np.complex128 if np.iscomplexobj(X) else np.float64, order="C", copy=True)
    _fwht_axis0(out)
    out = _fwht_axis0(_transpose(out)).T
    out /= d
    if H.ordering == SEQUENCY:
        perm = list(_sequency_permutation(d))
        out = out[np.ix_(perm, perm)]
    return out
