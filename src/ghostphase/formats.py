"""Bit-exact file formats: field binaries, series CSVs, PGM rasters.

Functions here carry no type annotations, and their docstrings say what they
take and return: the module stays under the 4,096 tokens at which CPython's
parser doubles its token array, which a process that compiles it from source
would pay for in peak RSS.
"""

import functools
import itertools
import os
import warnings

import numpy as np

from .wht import OrthoMatrix

MAGIC = b"GCF1"
FIELD_KINDS = ("complex", "real", "phase")


class DataError(ValueError):
    """Malformed or inconsistent file content."""


def _dtype(kind):
    """On-disk pixel type: a complex pixel is its (re, im) float64 pair."""
    return "<c16" if kind == "complex" else "<f8"


def write_field(path, data, kind):
    """Write the square array ``data`` as a field of ``kind``, one of `FIELD_KINDS`: magic,
    'd=<int> kind=<..>' header, raw LE float64.

    Complex fields interleave (re, im) per pixel; round trips are
    bit-exact, signed zeros included.  Rows are converted in blocks of 64,
    so a Fortran-ordered field is never copied whole.
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
        for rows in np.array_split(data, max(1, len(data) // 64)):
            fh.write(np.ascontiguousarray(rows, dtype=_dtype(kind)))


def read_field(path):
    """A field file's d x d array and its kind, as `write_field` wrote them."""
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
# Rows per write: a power of ten, so the rows of one block share every index
# digit but the last four, which come from this table ('0000' to '9999').
# uint16 keeps each temporary under glibc's 128 KiB mmap threshold; freeing a
# larger one at import raises that threshold for the whole process (+0.4 MB
# peak RSS in a d=32 random-mask pipeline).
_ROWS = 10 ** 4
_LAST_DIGITS = (np.arange(_ROWS, dtype=np.uint16)[:, np.newaxis]
                // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")).astype(np.uint8)
# A series file's 'j,value' rows, one per line; comments=None leaves '#' to the value parser
_parse_rows = functools.partial(np.loadtxt, delimiter=",", comments=None, ndmin=1,
                                dtype=[("j", "<i8"), ("v", "<f8")])

# Values per formatter chunk: its widest temporaries, (chunk, 3) uint64
# rows, stay under the same 128 KiB threshold.
_CHUNK = 4096
# The formatter's range, as bit patterns: positive floats order as their bits
# do.  Inside it every scaled product and its error terms stay normal floats.
_FAST_BITS = np.array([1e-280, 1e280]).view(np.uint64)
# A scaled interval edge or tie closer than this to deciding the other way
# goes to `repr`; the scaled product is good to ~1e-14
_TOLERANCE = 1e-9
# Values per `repr` batch for the values the formatter leaves: most series
# have few, and a batch bounds the Python strings alive at once when one has
# many (a series of negative or subnormal values)
_REPR_BATCH = 1000
# A formatted row is three little-endian uint64 words: byte i of the row is
# bits 8i..8i+7 of word i // 8.  _BYTES_BELOW[w, k] sets the bytes of word w
# before byte k of the row; _DIGIT_WORDS[g] holds the four digits of g, the
# first in the low byte; _ZERO_FILL[z] holds z '0' bytes.  Shift counts are
# uint64: numpy 1.24 promotes uint64 with int64 to float64, which has no
# shift.  These tables come from Python ints and views:
# a numpy loop first run at import maps 64-128 KB more of numpy's code into
# every process, formatting or not.
_U64 = np.uint64
_POW10 = np.array([10 ** i for i in range(18)], dtype=np.int64)
_BYTES_BELOW = np.array([[(1 << 8 * min(max(k - 8 * w, 0), 8)) - 1 for k in range(_REPR_WIDTH + 1)]
                         for w in range(3)], dtype=np.uint64)
_DIGIT_WORDS = _LAST_DIGITS.view("<u4")[:, 0]
_ZERO_FILL = np.array([int("30" * z or "0", 16) for z in range(5)], dtype=np.uint64)
_DOTS = _U64(int("2e" * 8, 16))
_EXPONENT_BITS = _U64(0x7FF << 52)


@functools.lru_cache(maxsize=None)
def _ten_to(k):
    """10**k as a double-double: the nearest float64 and the nearest float64 to the rest.

    Python's int true division rounds correctly, so both parts are exact roundings.
    """
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


def _split(a):
    """Dekker's split of each float64 into two 26-bit halves that sum to it exactly."""
    c = 134217729.0 * a     # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _powers_of_ten(low, high):
    """The double-doubles `_shortest` needs for values whose floor(log10) reads low..high,
    as (first exponent, his, los).

    A value's own reading may be one off its true exponent e, and so may low
    and high: the table holds 10**e for e in low-2..high+2 and 10**(16 - e).
    """
    base = min(low - 2, 15 - high)
    his, los = np.array([_ten_to(k) for k in range(base, max(high + 2, 17 - low) + 1)]).T
    return base, his, los


def _shortest(x, tens):
    """`repr` of each float64 in [1e-280, 1e280] as a (len(x), 24) NUL-padded uint8 array.

    Each value is scaled by 10**k to p = x * 10**k in [1e16, 1e17) with an
    error-free double-double product, good to ~1e-14.  Its rounding interval,
    half an ulp each side (a quarter below a power of two), scales with it.
    The shortest decimal is the multiple of the largest 10**j inside the
    interval, the one nearest p when two are, laid out as `repr` spells it.
    ``tens`` is `_powers_of_ten` over the decimal exponents of ``x``.
    Returns the rows and a mask of those whose interval edge or tie lies
    within `_TOLERANCE` of deciding otherwise: their rows hold no value.
    """
    base, tens_hi, tens_lo = tens
    e10 = np.floor(np.log10(x)).astype(np.int64)
    # log10 can be one off near a power of ten; a float compares with 10**e
    # exactly through the rest of its double-double
    th, tl = tens_hi[e10 - base], tens_lo[e10 - base]
    e10 -= (x < th) | ((x == th) & (tl > 0))
    th, tl = tens_hi[e10 + 1 - base], tens_lo[e10 + 1 - base]
    e10 += (x > th) | ((x == th) & (tl <= 0))

    th, tl = tens_hi[16 - e10 - base], tens_lo[16 - e10 - base]
    ph = x * th
    xh, xl = _split(x)
    th_h, th_l = _split(th)
    pl = (((xh * th_h - ph) + xh * th_l + xl * th_h) + xl * th_l) + x * tl
    total = ph + pl
    pl -= total - ph
    ph = total
    whole = np.floor(pl)
    n_int = ph.astype(np.int64) + whole.astype(np.int64)    # p = n_int + frac
    frac = pl - whole

    # half an ulp is 2**(exponent field - 1076), a float whose field is 53 less
    bits = x.view(np.uint64)
    half_ulp = th * ((bits & _EXPONENT_BITS) - _U64(53 << 52)).view(np.float64)
    hi_off = frac + half_ulp
    lo_off = frac - np.where(bits & _U64(2 ** 52 - 1), half_ulp, half_ulp / 2)
    hi_int = n_int + np.floor(hi_off).astype(np.int64)
    lo_int = n_int + np.ceil(lo_off).astype(np.int64)
    unsure = ((np.abs(hi_off - np.round(hi_off)) <= _TOLERANCE)
              | (np.abs(lo_off - np.round(lo_off)) <= _TOLERANCE))

    # the largest j with a multiple of 10**j in [lo_int, hi_int]: the width is
    # under 100, so past j=2 it counts the zero digits of hi_int // 100
    width = hi_int - lo_int
    j = (hi_int % 10 <= width).astype(np.int64)
    past = np.flatnonzero(hi_int % 100 <= width)
    if past.size:
        rest = hi_int[past] // 100
        count = np.full(past.size, 2, dtype=np.int64)
        for step in (8, 4, 2, 1):
            hit = rest % _POW10[step] == 0
            rest = np.where(hit, rest // _POW10[step], rest)
            count += step * hit
        j[past] = count
    step = _POW10[j]
    below = n_int % step
    # the multiple nearest p, moved inside the interval if it is not
    gap = (step - 2 * below).astype(np.float64) - 2 * frac
    unsure |= np.abs(gap) <= _TOLERANCE
    digits = n_int - below + np.where(gap < 0, step, 0)
    digits += np.where(digits < lo_int, step, 0) - np.where(digits > hi_int, step, 0)
    top = digits == _POW10[17]
    digits[top] = _POW10[16]
    e10 += top
    unsure |= (digits < _POW10[16]) | (digits >= _POW10[17])
    digits[unsure] = _POW10[16]     # any value that lays out: these rows are not used
    n = np.maximum(17 - j, 1)

    # the 17 digits as bytes 0..16 of three words
    lead, rest = np.divmod(digits, _POW10[16])
    high, low = np.divmod(rest, _POW10[8])
    high, low = (_DIGIT_WORDS[upper] | _DIGIT_WORDS[lower].astype(np.uint64) << _U64(32)
                 for upper, lower in (np.divmod(high, 10000), np.divmod(low, 10000)))
    d0 = (lead + ord("0")).astype(np.uint64) | high << _U64(8)
    d1 = high >> _U64(56) | low << _U64(8)
    d2 = low >> _U64(56)

    # repr's 'r' format: fixed notation for a decimal point position in (-4, 16],
    # '0.' and up to three zeros before the digits of a point at or before them
    point = e10 + 1
    fixed = (point > -4) & (point <= 16)
    zeros = np.where(fixed & (point <= 0), 1 - point, 0)
    shift = (8 * zeros).astype(np.uint64)
    back = _U64(63) - shift      # two shifts, as a uint64 shift by 64 is undefined
    stream = (d0 << shift | _ZERO_FILL[zeros],
              d1 << shift | d0 >> back >> _U64(1),
              d2 << shift | d1 >> back >> _U64(1))
    # insert '.' after `dot` characters and cut the row at `length`
    dot = np.where(fixed, np.maximum(point, 1), 1)
    length = np.where(fixed, zeros + np.maximum(n, point + 1) + 1, n + (n > 1))
    words = np.empty((x.size, 3), dtype=np.uint64)
    carry = _U64(0)
    for w, word in enumerate(stream):
        keep, through = _BYTES_BELOW[w, dot], _BYTES_BELOW[w, dot + 1]
        moved = word << _U64(8) | carry
        carry = word >> _U64(56)
        words[:, w] = (word & keep | moved & ~through | _DOTS & through & ~keep) & _BYTES_BELOW[w, length]
    rows = words.astype("<u8", copy=False).view(np.uint8)

    # scientific notation: 'e', the sign, and two digits or three
    sci = np.flatnonzero(~fixed)
    if sci.size:
        at = length[sci]
        power = point[sci] - 1
        rows[sci, at] = ord("e")
        rows[sci, at + 1] = np.where(power < 0, ord("-"), ord("+"))
        power_digits = _LAST_DIGITS[np.abs(power)]
        wide = np.abs(power) >= 100
        rows[sci, at + 2] = np.where(wide, power_digits[:, 1], power_digits[:, 2])
        rows[sci, at + 3] = np.where(wide, power_digits[:, 2], power_digits[:, 3])
        rows[sci[wide], at[wide] + 4] = power_digits[wide, 3]
    return rows, unsure


def _repr_table(bits):
    """`repr` of each float64 given by its sorted ``bits``, as an S24 array, and a mask of the
    values `repr` itself spelled.

    `_shortest` formats the values in [1e-280, 1e280]; `repr` takes the rest
    (zeros, negatives, subnormals, non-finite values, the far ends of the
    range) and every value `_shortest` is unsure of, so each entry is
    ``repr(v)`` by construction.
    """
    table = np.zeros(bits.size, dtype=f"S{_REPR_WIDTH}")
    chars = table.view(np.uint8).reshape(bits.size, _REPR_WIDTH)
    slow = np.ones(bits.size, dtype=bool)
    first, stop = np.searchsorted(bits, _FAST_BITS[0]), np.searchsorted(bits, _FAST_BITS[1], "right")
    if first < stop:
        tens = _powers_of_ten(*(int(np.floor(np.log10(bits[i:i + 1].view(np.float64)[0])))
                                for i in (first, stop - 1)))
        for start in range(first, stop, _CHUNK):
            end = min(start + _CHUNK, stop)
            chars[start:end], slow[start:end] = _shortest(bits[start:end].view(np.float64), tens)
    slow_at = np.flatnonzero(slow)
    for start in range(0, slow_at.size, _REPR_BATCH):
        batch = slow_at[start:start + _REPR_BATCH]
        table[batch] = list(map(repr, bits[batch].view(np.float64).tolist()))
    return table, slow


def write_series(path, scan, kind):
    """One channel of an `acquisition.Scan`, ``kind`` 'cos' or 'sin': one 'j,value' row per
    mask, headed by a '# key=value' comment line.

    Each row is ``f"{j},{float(v)!r}\\n"``.  The rows go out in blocks of
    `_ROWS`; each distinct bit pattern of a block is formatted once (so -0.0
    and 0.0 stay apart), by `_repr_table`, which spells it as `repr` does
    without calling `repr` for most values.  A block's rows are assembled as
    NUL-padded byte columns and the NULs dropped before each write, so no
    temporary grows with the series.
    """
    values = np.ascontiguousarray({"cos": scan.cos, "sin": scan.sin}[kind], dtype=np.float64)
    n = values.size
    width = max(len(str(n - 1)), 4)     # room for the four table digits
    with open(path, "wb") as fh:
        fh.write(f"# d={scan.basis.dim} basis={scan.basis.descriptor} kind={kind}"
                 f" flux={'exact' if scan.exact else scan.flux}"
                 f" seed={'none' if scan.seed is None else scan.seed}\n".encode())
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
            bits, inverse = np.unique(values[start:stop].view(np.uint64), return_inverse=True)
            rows[:, width + 1:-1] = _repr_table(bits)[0][inverse].view(np.uint8).reshape(stop - start, -1)
            rows[:, -1] = ord("\n")
            flat = rows.ravel()
            fh.write(flat[flat != 0])


def read_series(path):
    """A file written by `write_series`: its kind, its header's `Scan` keywords (a dict) and
    its values (a float64 array).

    Header lines come first (blank lines aside, those starting with '#');
    every line after them is a 'j,value' row.  `np.loadtxt` parses the rows
    `_ROWS` lines at a time into one array of N = d*d values, and each block
    must hold rows j = at, at+1, ... in order, with nothing after the last.
    A file that does not (a blank or malformed line, a missing or extra row)
    is parsed again in one `np.loadtxt` call, so blank lines are skipped and
    a fault gets the same error wherever it lies.  A sampled series names its
    flux and seed, an exact one neither.
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
            if (flux is None) != (seed is None):
                raise ValueError(f"flux={meta.get('flux', 'exact')} with seed={meta.get('seed', 'none')}")
            if d < 2:
                raise ValueError(f"d={d}, must be at least 2")
            basis = OrthoMatrix.from_descriptor(meta["basis"], d)   # the basis checks d too
        except KeyError as exc:
            raise DataError(f"{path}: missing series header field {exc}") from exc
        except ValueError as exc:
            raise DataError(f"{path}: bad series header value ({exc})") from None
        fh.seek(start)
        n = d * d
        # Any warning is malformed input: "no data" for a header-only file, and
        # on older numpy an integer field parsed through a float ('1.0').
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = np.empty(n)
                for at in range(0, n, _ROWS):
                    rows = _parse_rows(itertools.islice(fh, _ROWS))
                    if not np.array_equal(rows["j"], np.arange(at, min(at + _ROWS, n))):
                        raise ValueError
                    values[at:at + _ROWS] = rows["v"]
                if fh.readline():
                    raise ValueError
            except (ValueError, Warning, MemoryError):
                # not rows as write_series spells them: the whole file in one call
                fh.seek(start)
                try:
                    rows = _parse_rows(fh)
                except (ValueError, Warning) as exc:
                    raise DataError(f"{path}: bad series rows ({exc})") from None
                if rows.size != n or not np.array_equal(rows["j"], np.arange(n)):
                    raise DataError(f"{path}: expected rows j=0..{n - 1} in order")
                values = np.ascontiguousarray(rows["v"])
    if not np.all(np.isfinite(values)) or (values < 0).any():
        raise DataError(f"{path}: series values must be finite and nonnegative")
    return kind, {"basis": basis, "flux": flux, "seed": seed}, values


def write_pgm(path, data, lo=None, hi=None, invalid=None):
    """A 2-D array as a 16-bit binary PGM (P5, maxval 65535), values mapped linearly to [lo, hi].

    ``lo`` and ``hi`` default to the data's range; the pixels of the boolean
    mask ``invalid`` are written as 0.  PGM stores 16-bit samples
    big-endian.  The values are scaled in one buffer.
    """
    data = np.asarray(data, dtype=float)
    lo = float(np.min(data) if lo is None else lo)
    hi = float(np.max(data) if hi is None else hi)
    span = hi - lo if hi > lo else 1.0
    scaled = np.subtract(data, lo)
    scaled /= span
    np.clip(scaled, 0.0, 1.0, out=scaled)
    scaled *= 65535
    pixels = np.round(scaled, out=scaled).astype(">u2")
    if invalid is not None:
        pixels[invalid] = 0
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode())
        fh.write(pixels.tobytes())


def write_mask_text(path, symbols, kind, index):
    """The 2-D integer grid ``symbols`` of mask ``index``, for inspection or SLM playback.

    basis masks use -1/1, cos masks 0/1, sin masks -1/1 standing for the
    1-i / 1+i phase states.  Each row of the 2-D grid is its integers,
    space-separated, as ``np.savetxt(fmt="%d")`` writes them.  Rows go out
    in blocks of ~16: a block's distinct symbols are spelled once each, with
    a leading space, and its cells are laid out as NUL-padded byte columns
    whose NULs are dropped; each row's first space becomes the line break
    before it.
    """
    symbols = np.asarray(symbols)
    with open(path, "wb") as fh:
        fh.write(f"# kind={kind} j={index} d={symbols.shape[0]}".encode())
        for block in np.array_split(symbols, max(1, len(symbols) // 16)):
            values, inverse = np.unique(block.ravel(), return_inverse=True)
            cells = np.array([b" %d" % v for v in values.tolist()])[inverse]
            cells = cells.view(np.uint8).reshape(len(block), -1)
            cells[:, 0] = ord("\n")
            fh.write(cells[cells != 0])
        fh.write(b"\n")


def write_metrics(path, metrics):
    """Plain 'key: value' report of the dict ``metrics``."""
    with open(path, "w", newline="\n") as fh:
        for key, value in metrics.items():
            fh.write(f"{key}: {value}\n")


def write_cross_section_csv(path, kind, coordinates, values):
    """A '# kind=<kind>' line, then one 'coordinate,value' row per sample, as `repr` spells floats."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# kind={kind}\n")
        for c, v in zip(coordinates, values):
            fh.write(f"{float(c)!r},{float(v)!r}\n")
