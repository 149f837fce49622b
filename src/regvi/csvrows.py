"""Numeric CSV rows with 17-significant-digit floats.

Every CSV artifact is written as ``",".join("%.17g" % val for val in row)``
per row; integer-valued floats below 2**53 (vi_history's k and j) print as
under "%d".  `_write_blocks` formats a block of rows with one ``%`` operation
on the repeated row format.  Blocks stay small: at thousands of rows the
string and the tuple of values add megabytes to the peak memory for no speed.
A large table is cut into contiguous row ranges, one per usable CPU and each
of at least `MIN_VALUES_PER_WRITER` values: the caller writes the first, and
a forked child formats each other one into an anonymous file in the output's
directory, appended in 64 KB chunks once the child exits with status 0.  Rows
are formatted independently, so the bytes do not depend on the split.
"""

import os
import shutil
import tempfile

import numpy as np

ROWS_PER_WRITE = 128
MIN_VALUES_PER_WRITER = 50_000


def _write_blocks(fh, rows, fmt):
    for start in range(0, rows.shape[0], ROWS_PER_WRITE):
        block = rows[start:start + ROWS_PER_WRITE]
        fh.write((fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def write_rows(fh, rows):
    """Write each row of a 2-D array as one comma-separated "%.17g" line."""
    rows = np.asarray(rows)
    fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    writers = max(1, min(cpus, rows.size // MIN_VALUES_PER_WRITER))
    cuts = [rows.shape[0] * k // writers for k in range(writers + 1)]
    children = []
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            part = tempfile.TemporaryFile("w+", dir=os.path.dirname(os.path.abspath(fh.name)))
            pid = os.fork()
            if pid == 0:                # takes no lock a thread may hold; never returns
                try:
                    _write_blocks(part, rows[lo:hi], fmt)
                    part.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            children.append((pid, part))
        _write_blocks(fh, rows[:cuts[1]], fmt)
        fh.flush()
        while children:
            pid, part = children.pop(0)
            with part:
                if os.waitpid(pid, 0)[1]:
                    raise OSError("row writer %d for %s failed" % (pid, fh.name))
                part.seek(0)
                shutil.copyfileobj(part.buffer, fh.buffer, 1 << 16)
    finally:                            # reap what an exception left running
        for pid, part in children:
            os.waitpid(pid, 0)
            part.close()
