"""The %.12e text kernel behind every output file: rows of a text prefix
and float64 values become lines with exactly the bytes of Python's ``%``;
and the one writer of every file in an output directory."""
from __future__ import annotations

import os

import numpy as np

# Values per _fields call, which bounds its working memory: one slice's
# float64 temporaries (128 KB each) stay in a core's L2 cache. The bytes one
# field takes before NULs are deleted, three uint64 words:
# " -d." 4 digits | 4 digits 4 digits | "e+" NUL NUL NUL h t u.
SLICE_VALUES = 1 << 14
FIELD = 24
_EMAX = 300  # the tables cover decimal exponents -_EMAX.._EMAX
_SCALE = np.array([float(f"1e{12 - e}")  # 10**(12 - e), correctly rounded
                   for e in range(-_EMAX, _EMAX + 1)])
_ASCII_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4 = np.stack(np.meshgrid(*[_ASCII_DIGITS] * 4, indexing="ij"), -1).reshape(-1, 4)
_NEWLINE = np.frombuffer(b"\n".ljust(8, b"\0"), np.uint8)


def _words(rows: np.ndarray, at: int) -> np.ndarray:
    """Each row of bytes placed at byte ``at`` of an otherwise NUL uint64 word,
    so that two words with disjoint bytes combine by bitwise or."""
    table = np.zeros((len(rows), 8), np.uint8)
    table[:, at:at + rows.shape[1]] = rows
    return table.view(np.uint64).ravel()


_HEAD = _words(np.frombuffer(b"".join(b" " + sign + b"%d." % d for sign in (b"\0", b"-")
                                      for d in range(10)), np.uint8).reshape(-1, 4), 0)
_LOW4 = _words(_DIGITS4, 0)  # b"0000" .. b"9999" in the word's first half
_HIGH4 = _words(_DIGITS4, 4)  # and in its second half


def _exponent_table() -> np.ndarray:
    """b"e+" NUL NUL NUL and three digits per exponent, hundreds NUL below 100."""
    e = np.arange(-_EMAX, _EMAX + 1)
    table = np.zeros((e.size, 8), np.uint8)
    table[:, 0] = ord("e")
    table[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    table[:, 5:] = _DIGITS4[np.abs(e), 1:]
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
    Each masking and fix-up step runs only where a slice's min or max shows
    that it has a value that needs it.
    """
    if not values.size:
        return
    x = np.abs(values).ravel()
    outside = None
    if not (x.min() >= 1e-290 and x.max() <= 1e290):  # NaN fails both
        outside = (x < 1e-290) | ~(x <= 1e290)
        x[outside] = 1.0
    e = np.log10(x)
    np.floor(e, out=e)
    e = e.astype(np.intp)
    e += _EMAX  # an index into the tables
    y = _SCALE[e]
    y *= x
    if y.min() < 1e12 or y.max() >= 1e13:
        miss = np.flatnonzero((y < 1e12) | (y >= 1e13))
        e[miss] += np.where(y[miss] < 1e12, -1, 1)
        y[miss] = x[miss] * _SCALE[e[miss]]
    n = np.rint(y)
    tie = y - n  # |y - n| + 2**-51 * y, in place; y is not needed after it
    np.abs(tie, out=tie)
    y *= 2.0 ** -51
    tie += y
    slow = tie >= 0.5
    if outside is not None:
        slow |= outside
    slow = np.flatnonzero(slow)
    if n.max() >= 1e13:  # 9.9999999999995... rounds up to the next exponent
        carry = np.flatnonzero(n == 1e13)
        n[carry] = 1e12
        e[carry] += 1
    low = n.astype(np.int64)  # exact: n is below 2**53
    top = low // 10 ** 8  # the lead digit and the next four
    low -= top * 10 ** 8
    lead = top // 10 ** 4
    top -= lead * 10 ** 4
    mid = low // 10 ** 4
    low -= mid * 10 ** 4
    lead += 10 * np.signbit(values).ravel()
    shape = values.shape
    words = out.view(np.uint64)  # (m, n, 3), not contiguous across rows
    np.bitwise_or(_HEAD[lead].reshape(shape), _HIGH4[top].reshape(shape), out=words[..., 0])
    np.bitwise_or(_LOW4[mid].reshape(shape), _HIGH4[low].reshape(shape), out=words[..., 1])
    words[..., 2] = _EXP[e].reshape(shape)
    if len(slow):
        i, j = np.divmod(slow, values.shape[1])
        text = ("%-20.12e" * len(slow) % tuple(values[i, j].tolist())).encode("ascii")
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


class _Output:
    """One output file as it is written: ``<name>.part``, created with
    ``head`` at the first write. On a clean exit the part becomes ``<name>``;
    on an exception the part is removed. Given a ``checksums`` dict, it keeps
    the SHA-256 of every byte written and, on a clean exit, puts its digest
    there under ``name``."""

    def __init__(self, out_dir: str, name: str, checksums: dict | None = None,
                 head: bytes = b""):
        self.path, self.name, self.checksums = os.path.join(out_dir, name), name, checksums
        self.head, self.fh, self.digest = head, None, None
        if checksums is not None:  # commands that hash nothing do not load hashlib
            import hashlib
            self.digest = hashlib.sha256(head)

    def write(self, chunk: bytes) -> None:
        if self.fh is None:
            self.fh = open(self.path + ".part", "wb")
            self.fh.write(self.head)
        self.fh.write(chunk)
        if self.digest is not None:
            self.digest.update(chunk)

    def __enter__(self):
        return self

    def __exit__(self, failed, *_):
        if self.fh is None:
            return
        self.fh.close()
        if failed:
            os.unlink(self.path + ".part")
        else:
            os.replace(self.path + ".part", self.path)
            if self.digest is not None:
                self.checksums[self.name] = self.digest.hexdigest()
