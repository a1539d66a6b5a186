"""Bit-exact file formats: field binaries, series CSVs, PGM rasters."""

from __future__ import annotations

import os
import warnings
from typing import Optional, Tuple

import numpy as np

from .acquisition import MeasurementSeries
from .wht import OrthoMatrix

MAGIC = b"GCF1"
FIELD_KINDS = ("complex", "real", "phase")


class DataError(ValueError):
    """Malformed or inconsistent file content."""


def _dtype(kind: str) -> str:
    """On-disk pixel type: a complex pixel is its (re, im) float64 pair."""
    return "<c16" if kind == "complex" else "<f8"


def write_field(path, data: np.ndarray, kind: str) -> None:
    """Write a d x d field: magic, 'd=<int> kind=<..>' header, raw LE float64.

    Complex fields interleave (re, im) per pixel; round trips are
    bit-exact, signed zeros included.
    """
    if kind not in FIELD_KINDS:
        raise DataError(f"unknown field kind {kind!r}")
    data = np.asarray(data)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise DataError(f"field must be square, got shape {data.shape}")
    if kind != "complex" and np.iscomplexobj(data):
        raise DataError(f"{kind} field cannot hold complex data")
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"\n")
        fh.write(f"d={data.shape[0]} kind={kind}\n".encode())
        fh.write(np.ascontiguousarray(data, dtype=_dtype(kind)))


def read_field(path) -> Tuple[np.ndarray, str]:
    with open(path, "rb") as fh:
        if fh.read(5) != MAGIC + b"\n":
            raise DataError(f"{path}: not a GCF1 field file")
        header = fh.readline()
        try:
            header = header.decode().strip()
            fields = dict(item.split("=", 1) for item in header.split())
            d = int(fields["d"])
            kind = fields["kind"]
        except (ValueError, KeyError) as exc:
            raise DataError(f"{path}: bad field header {header!r}") from exc
        if d < 1:
            raise DataError(f"{path}: bad field header (d={d})")
        if kind not in FIELD_KINDS:
            raise DataError(f"{path}: unknown field kind {kind!r}")
        expected = d * d * np.dtype(_dtype(kind)).itemsize
        # a file is sized before the array is allocated, so a forged d costs no
        # memory; a pipe is read into it, and one byte past it for trailing bytes
        size = os.fstat(fh.fileno()).st_size - fh.tell() if fh.seekable() else expected
        if size == expected:
            try:
                field = np.empty((d, d), dtype=_dtype(kind))
            except (MemoryError, ValueError) as exc:    # a d too large to allocate
                raise DataError(f"{path}: bad field header ({exc})") from None
            size = fh.readinto(field) + len(fh.read(1))
        if size != expected:
            raise DataError(f"{path}: payload is {size} bytes, expected {expected}")
    if not np.isfinite(field).all():
        raise DataError(f"{path}: field values must be finite")
    return field, kind


# '-2.2250738585072014e-308' is the longest float64 repr
_REPR_WIDTH = 24
# Values per repr batch.  The memory of a batch's Python strings stays
# resident after they are freed, so larger batches raise the process's peak
# RSS (by ~0.8 MB at 8192 values for a d=256 pipeline).
_REPR_BATCH = 1000
# Rows per write: a power of ten, so the rows of one block share every index
# digit but the last four, which come from this table ('0000' to '9999').
# uint16 keeps each temporary under glibc's 128 KiB mmap threshold; freeing a
# larger one at import raises that threshold for the whole process (+0.4 MB
# peak RSS in a d=32 random-mask pipeline).
_ROWS = 10 ** 4
_LAST_DIGITS = (np.arange(_ROWS, dtype=np.uint16)[:, np.newaxis]
                // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")).astype(np.uint8)


def write_series(path, series: MeasurementSeries) -> None:
    """One 'j,value' row per mask, headed by '# key=value' comment lines.

    Each row is ``f"{j},{float(v)!r}\\n"``.  `repr` runs once per distinct bit
    pattern (so -0.0 and 0.0 stay apart); the rows are assembled as
    NUL-padded byte columns and the NULs dropped before each write.
    """
    values = np.ascontiguousarray(series.values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    table = np.empty(bits.size, dtype=f"S{_REPR_WIDTH}")
    for start in range(0, bits.size, _REPR_BATCH):
        batch = bits[start:start + _REPR_BATCH].view(np.float64).tolist()
        table[start:start + _REPR_BATCH] = list(map(repr, batch))
    n = values.size
    width = max(len(str(n - 1)), 4)     # room for the four table digits
    with open(path, "wb") as fh:
        fh.write(f"# d={series.dim} basis={series.basis.descriptor} kind={series.kind}"
                 f" flux={'exact' if series.exact else series.flux}"
                 f" seed={'none' if series.seed is None else series.seed}\n".encode())
        for start in range(0, n, _ROWS):
            stop = min(start + _ROWS, n)
            rows = np.zeros((stop - start, width + _REPR_WIDTH + 2), dtype=np.uint8)
            head = str(start // _ROWS).encode() if start else b""
            rows[:, :len(head)] = np.frombuffer(head, np.uint8)
            rows[:, len(head):len(head) + 4] = _LAST_DIGITS[:stop - start]
            if not start:
                # no leading zeros: the rows j < place have no digit there
                for col, place in enumerate((1000, 100, 10)):
                    rows[:place, col] = 0
            rows[:, width] = ord(",")
            rows[:, width + 1:-1] = table[inverse[start:stop]].view(np.uint8).reshape(stop - start, -1)
            rows[:, -1] = ord("\n")
            flat = rows.ravel()
            fh.write(flat[flat != 0])


def read_series(path) -> MeasurementSeries:
    """Read a file written by `write_series`.

    Header lines come first (blank lines aside, those starting with '#');
    every line after them is a 'j,value' row.  One `np.loadtxt` call parses
    the rows.
    """
    meta = {}
    with open(path) as fh:
        try:
            while True:
                start = fh.tell()
                line = fh.readline()
                if line.isspace():
                    continue
                line = line.strip()
                if not line.startswith("#"):
                    break
                for item in line[1:].split():
                    key, sep, value = item.partition("=")
                    if not sep:
                        raise DataError(f"{path}: bad series header token {item!r}")
                    meta[key] = value
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not a text file ({exc})") from None
        try:
            d = int(meta["d"])
            kind = meta["kind"]
            flux = None if meta.get("flux", "exact") == "exact" else float(meta["flux"])
            seed = None if meta.get("seed", "none") == "none" else int(meta["seed"])
            if d < 2:
                raise ValueError(f"d={d}, must be at least 2")
            basis = OrthoMatrix.from_descriptor(meta["basis"], d)   # the basis checks d too
        except KeyError as exc:
            raise DataError(f"{path}: missing series header field {exc}") from exc
        except ValueError as exc:
            raise DataError(f"{path}: bad series header value ({exc})") from None
        fh.seek(start)
        # Any warning is malformed input: "no data" for a header-only file, and
        # on older numpy an integer field parsed through a float ('1.0').
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=1,
                                  dtype=[("j", "<i8"), ("v", "<f8")])
            except (ValueError, Warning) as exc:
                raise DataError(f"{path}: bad series rows ({exc})") from None
    n = d * d
    if rows.size != n or not np.array_equal(rows["j"], np.arange(n)):
        raise DataError(f"{path}: expected rows j=0..{n - 1} in order")
    values = np.ascontiguousarray(rows["v"])
    if not np.all(np.isfinite(values)) or (values < 0).any():
        raise DataError(f"{path}: series values must be finite and nonnegative")
    return MeasurementSeries(kind=kind, basis=basis, values=values, flux=flux, seed=seed)


def write_pgm(path, data: np.ndarray, lo: Optional[float] = None, hi: Optional[float] = None,
              invalid: Optional[np.ndarray] = None) -> None:
    """16-bit binary PGM (P5, maxval 65535), values mapped linearly to [lo, hi].

    Invalid pixels are written as 0.  PGM stores 16-bit samples
    big-endian.
    """
    data = np.asarray(data, dtype=float)
    lo = float(np.min(data) if lo is None else lo)
    hi = float(np.max(data) if hi is None else hi)
    span = hi - lo if hi > lo else 1.0
    scaled = np.clip((data - lo) / span, 0.0, 1.0)
    pixels = np.round(scaled * 65535).astype(">u2")
    if invalid is not None:
        pixels[invalid] = 0
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode())
        fh.write(pixels.tobytes())


def write_mask_text(path, symbols: np.ndarray, kind: str, index: int) -> None:
    """Integer-symbol mask grid for inspection or SLM playback.

    basis masks use -1/1, cos masks 0/1, sin masks -1/1 standing for the
    1-i / 1+i phase states.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# kind={kind} j={index} d={symbols.shape[0]}\n")
        np.savetxt(fh, symbols, fmt="%d")


def write_metrics(path, metrics: dict) -> None:
    """Plain 'key: value' report."""
    with open(path, "w", newline="\n") as fh:
        for key, value in metrics.items():
            fh.write(f"{key}: {value}\n")


def write_cross_section_csv(path, trace) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# kind={trace.kind}\n")
        for c, v in zip(trace.coordinates, trace.values):
            fh.write(f"{float(c)!r},{float(v)!r}\n")
