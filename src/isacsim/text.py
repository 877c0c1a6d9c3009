"""The %.12e text kernel behind every output file: rows of a text prefix
and float64 values become lines with exactly the bytes of Python's ``%``."""
from __future__ import annotations

import numpy as np

# Values per _fields call, which bounds its working memory, and the bytes
# one field takes before NULs are deleted:
# " -d." | 4 digits | 4 digits | 4 digits | "e+" NUL NUL NUL h t u.
SLICE_VALUES = 1 << 16
FIELD = 24
_EMAX = 300  # the tables cover decimal exponents -_EMAX.._EMAX
_SCALE = np.array([float(f"1e{12 - e}")  # 10**(12 - e), correctly rounded
                   for e in range(-_EMAX, _EMAX + 1)])
_ASCII_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4 = np.stack(np.meshgrid(*[_ASCII_DIGITS] * 4, indexing="ij"), -1).reshape(-1).view(
    np.uint32)  # b"0000" .. b"9999"
_HEAD = np.frombuffer(b"".join(b" " + sign + b"%d." % d
                               for sign in (b"\0", b"-") for d in range(10)), np.uint32)
_NEWLINE = np.frombuffer(b"\n".ljust(8, b"\0"), np.uint8)


def _exponent_table() -> np.ndarray:
    """b"e+" NUL NUL NUL and three digits per exponent, hundreds NUL below 100."""
    e = np.arange(-_EMAX, _EMAX + 1)
    table = np.zeros((e.size, 8), np.uint8)
    table[:, 0] = ord("e")
    table[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    table[:, 5:] = _DIGITS4[np.abs(e)].view(np.uint8).reshape(-1, 4)[:, 1:]
    table[np.abs(e) < 100, 5] = 0
    return table.view(np.uint64).ravel()


_EXP = _exponent_table()


def _text(lines) -> np.ndarray:
    """The ASCII bytes of each string (or bytes) as one NUL-padded uint8 row."""
    a = np.array(lines, dtype="S")
    return a.view(np.uint8).reshape(len(a), a.dtype.itemsize)


def _row_slices(n_rows: int, n_cols: int) -> list:
    """Consecutive row ranges of at most SLICE_VALUES values each."""
    step = max(1, SLICE_VALUES // max(n_cols, 1))
    return [slice(a, min(a + step, n_rows)) for a in range(0, n_rows, step)]


def _fields(values: np.ndarray, out: np.ndarray) -> None:
    """Write " " + ``"%.12e" % v`` of each value into ``out``, NUL-padded.

    ``values`` is (m, n) and ``out`` an (m, n, FIELD) uint8 view whose rows
    start 8-byte aligned. A value v = +-y * 10**(e - 12) with 1e12 <= y <
    1e13 is written from the 13-digit integer round(y): the exponent comes
    from log10, corrected once where it misses a power of ten, and y from one
    multiplication by a correctly rounded power of ten, so it is within about
    2**-52 * y of its exact value. Where y stays just outside [1e12, 1e13)
    after the correction, the exact value is that close to a power of ten
    and rounds to it, as y does. Zero, inf, NaN, |v| outside [1e-290, 1e290],
    and y within twice that bound of a .5 tie go through Python's ``%``.
    """
    x = np.abs(values)
    fast = (x >= 1e-290) & (x <= 1e290)
    x = np.where(fast, x, 1.0)
    e = np.floor(np.log10(x)).astype(np.intp)
    y = x * _SCALE[e + _EMAX]
    miss = np.nonzero((y < 1e12) | (y >= 1e13))
    e[miss] += np.where(y[miss] < 1e12, -1, 1)
    y[miss] = x[miss] * _SCALE[e[miss] + _EMAX]
    n = np.rint(y)
    slow = ~fast | (np.abs(y - n) + y * 2.0 ** -51 >= 0.5)
    carry = n == 1e13  # 9.9999999999995... rounds up to the next exponent
    n[carry] = 1e12
    e += carry
    top = np.floor(n / 1e8)  # exact: every operand is an integer below 2**53
    low = n - top * 1e8
    lead = np.floor(top / 1e4)
    mid = np.floor(low / 1e4)
    words = out.view(np.uint32)
    words[..., 0] = _HEAD[10 * np.signbit(values) + lead.astype(np.intp)]
    words[..., 1] = _DIGITS4[(top - lead * 1e4).astype(np.intp)]
    words[..., 2] = _DIGITS4[mid.astype(np.intp)]
    words[..., 3] = _DIGITS4[(low - mid * 1e4).astype(np.intp)]
    out.view(np.uint64)[..., 2] = _EXP[e + _EMAX]
    i, j = np.nonzero(slow)
    if len(i):
        text = ("%-20.12e" * len(i) % tuple(values[i, j].tolist())).encode("ascii")
        out[i, j, 1:21] = np.frombuffer(text.replace(b" ", b"\0"), np.uint8).reshape(-1, 20)
        out[i, j, 21:] = 0


def _format_rows(prefix: np.ndarray, values: np.ndarray) -> bytes:
    """One text line per row: its prefix, then each value as ``%.12e``.

    ``prefix`` holds each row's bytes NUL-padded (see _text); a prefix ends
    in a space unless it is empty. ``values`` is (rows, n). Rows are laid
    out at a fixed width with NUL in every unused byte and compacted by
    deleting the NULs, SLICE_VALUES values at a time.
    """
    n_rows, n = values.shape
    used = prefix.shape[1]
    width = -(-used // 8) * 8  # keeps every field 8-byte aligned
    out = []
    for rows in _row_slices(n_rows, n):
        buf = np.empty((rows.stop - rows.start, width + FIELD * n + 8), np.uint8)
        buf[:, :used] = prefix[rows]
        buf[:, used:width] = 0
        _fields(values[rows], buf[:, width:width + FIELD * n].reshape(len(buf), n, FIELD))
        buf[:, width] = 0  # no separator before a row's first value
        buf[:, -8:] = _NEWLINE
        out.append(buf.tobytes().translate(None, b"\0"))
    return b"".join(out)
