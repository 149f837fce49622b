"""Numeric CSV rows with 17-significant-digit floats.

Every CSV artifact holds exactly the bytes of ``",".join("%.17g" % val for
val in row)`` per row; integer-valued floats below 2**53 (vi_history's k and
j) print as under "%d".  `_write_blocks` formats blocks of whole rows, at
most `VALUES_PER_WRITE` values each, with numpy, in `_format_block`:

- Exponent guess d = floor(log10|x|), then |x| * 10**(16 - d) with 10**k a
  double-double (`_tables`) and Dekker's exact product, split into the exact
  integer F and the fraction f.  F must lie in [1e16, 1e17); where it does
  not, d moves by one and the value is scaled again.
- F rounded by f > 1/2 gives the 17 digits D; D = 1e17 carries into the
  exponent.  The digits come from a table of "%04d" of 0..9999.
- The "%g" layout (fixed for -4 <= exponent < 17, else d.ddde+XX; trailing
  zeros and a bare point stripped) is a table of byte masks (`_layout`),
  applied to 8-byte words.  The digits, the masks and the point are held
  word-major, one contiguous (3, N) plane per value word, so every word
  stage runs at unit stride; the planes are transposed once, into the
  value's 32-byte slot after its prefix word.  A slot's unused bytes are 0;
  dropping every 0 byte leaves the row text.

Only certified values take that path.  The computed f is within 5e-15 of the
exact fraction (two roundings of terms below 32 plus the 2**-106 relative
error of 10**k), so the rounding is certain when |f - 1/2| > `TIE_TOL`.
Every other value's slot is rewritten: nan (whatever its sign or payload),
inf and -inf with their constant text, and every finite one by
``"%.17g" % val`` (`_fallback`).  Zeros are exact in the fast path, but |x|
outside [1e-280, 1e300) (where the splits or 10**k leave double range), near
and exact ties (round-half-even), and values whose scaled F still misses
[1e16, 1e17) fall back.  The tables are built on first use, so importing the
module costs nothing.

`PendingRows` is the one fork path, and it alone decides whether to fork: it
holds one row range, which on more than one usable CPU one forked child
formats into an anonymous file in the output's directory, appended by
`write_to` in 64 KB chunks once the child exits with status 0; on one CPU
`write_to` formats the range in-process.  `write_csv`, the writer of every
CSV artifact, cuts a large table into one range per usable CPU, each of at
least `MIN_VALUES_PER_WRITER` values: it enters a `PendingRows` for every
range but the first, then writes the header, an already-pending head, the
first range itself and the rest.  Every file is written in binary mode.
Rows are formatted independently, so the bytes do not depend on the split or
on when a row is formatted.
"""

import contextlib
import functools
import os
import shutil
import signal
import tempfile

import numpy as np

VALUES_PER_WRITE = 4608     # 256 rows of the 18-column trajectory
MIN_VALUES_PER_WRITER = 50_000
TIE_TOL = 1e-9              # against the 5e-15 error bound of f
MIN_FAST, MAX_FAST = 1e-280, 1e300
D_LO, D_HI = -282, 302      # d of [MIN_FAST, MAX_FAST): log10 guess and decade fix
SPLIT = 134217729.0         # 2**27 + 1, Dekker's splitting constant
U64 = np.uint64


def _pack(text):
    """text's ASCII bytes as the low bytes of a little-endian word."""
    return int.from_bytes(text.encode("ascii"), "little")


@functools.cache
def _tables():
    """10**k as a double-double and the "%04d" digit tables.

    pow10[D_HI - d] holds 10**(16 - d) as (hi, hi's two Dekker halves, lo):
    hi is the correctly rounded float and lo the correctly rounded remainder,
    both from exact integer arithmetic, so hi + lo is within 2**-106 relative.
    quad[c] is "%04d" % c as four ASCII bytes; last[j, c] counts the digits of
    the 17-digit string up to the last nonzero one of group j holding c (0 for c = 0).
    """
    pow10 = np.empty((D_HI - D_LO + 1, 4))
    for row, k in zip(pow10, range(16 - D_HI, 17 - D_LO)):
        hi = float("1e%d" % k)
        num, den = hi.as_integer_ratio()
        lo = ((10 ** k * den - num) / den if k >= 0
              else (den - num * 10 ** -k) / (den * 10 ** -k))
        c = hi * SPLIT
        row[:] = hi, c - (c - hi), hi - (c - (c - hi)), lo
    c = np.arange(10000)
    quad = sum((48 + c // 10 ** (3 - j) % 10).astype(U64) << U64(8 * j) for j in range(4))
    digits = 4 - sum(c % 10 ** j == 0 for j in range(1, 5))   # up to the last nonzero
    last = np.where(c, 1 + 4 * np.arange(4)[:, None] + digits, 0).astype(np.int8)
    return pow10, quad, last


@functools.cache
def _layout():
    """Byte masks of the "%g" layout of a value with exponent x and nd
    significant digits.

    The 17 digit characters G sit in bytes 0-16 of three words, and G1 is G
    shifted up by one byte.  For i = (x + 5) * 18 + nd, with x clipped to
    [-5, 17] (both ends stand for the exponent form), keep[:, i], shifted[:, i]
    and point[:, i] are 3-word masks, each table a contiguous word-major
    (3, 414) array: (G & keep) | (G1 & shifted) | point is the text of the
    digits, with the point after digit x (fixed form) or 0.
    prefix[(x + 5) * 2 + negative] is the sign and the "0.000" of a fixed-form
    x < 0; exp[x - D_LO] is the "e+XX" of an exponent form, in bytes 2-6 of
    the last word.
    """
    masks = np.zeros((23, 18, 3, 24), np.uint8)     # keep, shifted, point
    prefix = np.zeros((23, 2), U64)
    for x in range(-5, 18):
        fixed = -4 <= x <= 16
        lead = "0." + "0" * (-x - 1) if fixed and x < 0 else ""
        prefix[x + 5] = _pack(lead), _pack("-" + lead)
        q = x if fixed else 0           # the point follows digit q
        for nd in range(1, 18):
            kept = max(nd, x + 1) if fixed else nd
            m = masks[x + 5, nd]
            if nd > q + 1 and not lead:
                m[0, :q + 1] = m[1, q + 2:kept + 1] = 0xFF
                m[2, q + 1] = ord(".")
            else:
                m[0, :kept] = 0xFF
    exp = np.array([0 if -4 <= x <= 16 else _pack("e%+03d" % x) << 16
                    for x in range(D_LO, D_HI + 2)], U64)
    keep, shifted, point = masks.view(U64).reshape(-1, 3, 3).transpose(1, 2, 0).copy()
    return keep, shifted, point, prefix.ravel(), exp


def _scaled(a, d):
    """top, low, f with a * 10**(16 - d) = F + f, F = top * 1e8 + low, for
    integers top and 0 <= low < 1e8, and 0 <= f < 1 to within 5e-15."""
    h, hh, hl, lo = np.take(_tables()[0], (D_HI - d).astype(np.intp), axis=0).T
    p = a * h                           # an integer: a * h >= 1e16 > 2**53
    ah = a * SPLIT
    ah -= ah - a
    al = a - ah
    e = ah * hh                         # e = a * (h + lo) - p: Dekker's exact error of p
    e -= p
    e += ah * hl
    e += al * hh
    e += al * hl
    e += a * lo
    g = np.floor(e)
    e -= g
    top = np.floor(p / 1e8)             # may be one too high: then low < 0
    p -= top * 1e8
    p += g
    carry = np.floor(p / 1e8)
    top += carry
    p -= carry * 1e8
    return top, p, e


def _decimal(v):
    """x, top, low and certified: where certified, v rounds to the 17
    significant digits D * 10**(x - 16), D = top * 1e8 + low (0 for zeros)."""
    a = np.abs(v)
    zero = a == 0
    certified = (a >= MIN_FAST) & (a < MAX_FAST)
    a[~certified] = 1.0
    d = np.floor(np.log10(a))
    top, low, f = _scaled(a, d)
    # decade fix: F itself must have 17 digits (p may round up to 1e16)
    off = (top < 1e8).astype(np.int8) - (top >= 1e9)
    bad = np.flatnonzero(off)
    if bad.size:
        d[bad] -= off[bad]
        top[bad], low[bad], f[bad] = _scaled(a[bad], d[bad])
        certified[bad[(top[bad] < 1e8) | (top[bad] >= 1e9)]] = False
    certified &= np.abs(f - 0.5) > TIE_TOL
    certified |= zero
    low += f > 0.5                      # D: F rounded, ties fell back above
    up = low == 1e8
    top += up
    low *= ~up
    up = top == 1e9                     # D = 1e17: one digit, x one up
    top -= up * 9e8
    d += up
    top *= ~zero
    return d.astype(np.intp), top, low, certified


def _format_block(rows, seps):
    """The bytes of rows, a 2-D float array, in the "%.17g" CSV layout;
    seps[j] is the separator word of column j (see `_write_blocks`)."""
    v = rows.ravel()
    x, top, low, certified = _decimal(v)
    # the 17 digits: a lead digit, then four "%04d" groups
    _, quad, last = _tables()
    lead = np.floor(top / 1e8)
    top -= lead * 1e8
    groups = np.empty((4, v.size), np.intp)
    groups[0] = np.floor(top / 1e4)
    groups[1] = top - groups[0] * 1e4
    groups[2] = np.floor(low / 1e4)
    groups[3] = low - groups[2] * 1e4
    words = np.take(quad, groups)
    groups += np.arange(0, 40000, 10000)[:, None]
    nd = np.take(last, groups).max(axis=0)
    np.maximum(nd, 1, out=nd)
    del groups, top, low                # the block's peak memory is the process's
    g = np.empty((3, v.size), U64)      # word w of every value's digits, contiguous
    g[0] = lead.astype(U64) + U64(48)
    g[0] |= words[0] << U64(8)
    g[0] |= words[1] << U64(40)
    g[1] = words[1] >> U64(24)
    g[1] |= words[2] << U64(8)
    g[1] |= words[3] << U64(40)
    g[2] = words[3] >> U64(24)
    del words
    g1 = g << U64(8)
    g1[1:] |= g[:-1] >> U64(56)
    keep, shifted, point, prefix, exp = _layout()
    xc = np.minimum(np.maximum(x, -5), 17) + 5
    key = xc * 18 + nd
    g &= np.take(keep, key, axis=1)
    g1 &= np.take(shifted, key, axis=1)
    g |= g1
    del g1
    g |= np.take(point, key, axis=1)
    g[2] |= np.take(exp, x - D_LO)
    out = np.empty((v.size, 4), U64)     # one 32-byte slot per value
    out[:, 0] = np.take(prefix, 2 * xc + np.signbit(v))
    out[:, 1:] = g.T
    out.reshape(-1, seps.size, 4)[:, :, 3] |= seps
    out = out.view(np.uint8)
    slow = np.flatnonzero(~certified)
    if slow.size:
        vals = v[slow]
        text = np.array(["nan", "inf", "-inf"], "S24").take(np.isinf(vals) * (1 + (vals < 0)))
        finite = np.isfinite(vals)
        text[finite] = _fallback(vals[finite])
        out[slow, :24] = text.view(np.uint8).reshape(-1, 24)
        out[slow, 24:31] = 0
    return out[out != 0].tobytes()


def _fallback(vals):
    """The "%.17g" text of each of vals, all finite, zero-padded to 24 bytes (the longest)."""
    return np.array([("%.17g" % val).encode("ascii") for val in vals.tolist()], "S24")


def _write_blocks(fh, rows):
    """Write rows to fh, a binary file, in blocks of at most `VALUES_PER_WRITE` values."""
    seps = np.full(rows.shape[1], U64(ord(",") << 56))  # "," after a value, "\n" after the last
    seps[-1:] = U64(ord("\n") << 56)
    block = max(1, VALUES_PER_WRITE // seps.size)
    for start in range(0, rows.shape[0], block):
        fh.write(_format_block(rows[start:start + block], seps))


def usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class PendingRows(contextlib.AbstractContextManager):
    """One row range of a file: on more than one usable CPU a forked child formats
    it now into an anonymous file in directory, else `write_to` formats it
    in-process.  Leaving it as a context manager kills and reaps a child still
    running and closes its file."""

    def __init__(self, rows, directory):
        self.rows = rows
        self.pid = self.file = None     # a child's, while it runs, and its file
        if usable_cpus() < 2:
            return
        self.file = tempfile.TemporaryFile(dir=directory)
        try:
            self.pid = os.fork()
        except BaseException:
            self.file.close()
            raise
        if self.pid == 0:               # takes no lock a thread may hold; never returns
            try:
                _write_blocks(self.file, rows)
                self.file.flush()
                os._exit(0)
            finally:
                os._exit(1)

    def write_to(self, fh):
        """Write the rows to fh, waiting for a child and checking its exit status."""
        if self.file is None:
            _write_blocks(fh, self.rows)
            return
        status = os.waitpid(self.pid, 0)[1]
        self.pid = None
        if status:
            raise OSError("row writer for %s failed (wait status %d)" % (fh.name, status))
        self.file.seek(0)
        shutil.copyfileobj(self.file, fh, 1 << 16)

    def __exit__(self, *exc):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        if self.file is not None:
            self.file.close()


def write_csv(path, rows, header=(), head: PendingRows | None = None):
    """Write a CSV file: the header names as one line unless empty, head's rows
    (pending for this file), then rows as comma-separated "%.17g" lines; returns
    path.  rows are cut into one range per usable CPU, each of at least
    `MIN_VALUES_PER_WRITER` values; every range but the first is pending before
    the file is opened or head is awaited, and the first is formatted here."""
    writers = max(1, min(usable_cpus(), rows.size // MIN_VALUES_PER_WRITER))
    cuts = [rows.shape[0] * k // writers for k in range(writers + 1)]
    directory = os.path.dirname(os.path.abspath(path))
    with contextlib.ExitStack() as stack:
        ranges = [stack.enter_context(PendingRows(rows[lo:hi], directory))
                  for lo, hi in zip(cuts[1:], cuts[2:])]
        with open(path, "wb") as fh:
            if header:
                fh.write((",".join(header) + "\n").encode())
            if head:
                head.write_to(fh)
            _write_blocks(fh, rows[:cuts[1]])
            for pending in ranges:
                pending.write_to(fh)
    return path
