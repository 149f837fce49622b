"""Numeric CSV rows with 17-significant-digit floats.

Every CSV artifact is written as ``",".join("%.17g" % val for val in row)``
per row; integer-valued floats below 2**53 (vi_history's k and j) print as
under "%d".  `_write_blocks` formats a block of rows with one ``%`` operation
on the repeated row format.  Blocks stay small: at thousands of rows the
string and the tuple of values add megabytes to the peak memory for no speed.

`PendingRows` is the one fork path: it cuts rows into contiguous ranges and
forks one child per range, which formats it into an anonymous file in the
output's directory; `write_to` appends the files in order, in 64 KB chunks,
once each child exits with status 0.  `write_rows` cuts a large table into
one range per usable CPU, each of at least `MIN_VALUES_PER_WRITER` values:
it starts a `PendingRows` over all ranges but the first, then writes an
already-pending head, then formats the first range itself.  Rows are
formatted independently, so the bytes do not depend on the split or on when
a row is formatted.
"""

import os
import shutil
import signal
import tempfile

import numpy as np

ROWS_PER_WRITE = 128
MIN_VALUES_PER_WRITER = 50_000


def _write_blocks(fh, rows, fmt):
    for start in range(0, rows.shape[0], ROWS_PER_WRITE):
        block = rows[start:start + ROWS_PER_WRITE]
        fh.write((fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def _row_format(rows):
    return ",".join(["%.17g"] * rows.shape[1]) + "\n"


def usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class PendingRows:
    """Rows formatted now by `writers` forked children, written to a file later.

    Each child formats one of `writers` contiguous row ranges into an
    anonymous file in directory; with no writer, `write_to` formats the rows
    in-process.  Use it as a context manager: leaving it kills and reaps
    every child still running and closes its file.
    """

    def __init__(self, rows, writers, directory):
        rows = np.asarray(rows)
        self.fmt = _row_format(rows)
        self.rows = None if writers else rows   # with children, only they hold the rows
        self.children = []              # [pid, file] per range, in row order
        cuts = [rows.shape[0] * k // max(writers, 1) for k in range(writers + 1)]
        try:
            for lo, hi in zip(cuts, cuts[1:]):
                child = [None, tempfile.TemporaryFile("w+", dir=directory)]
                self.children.append(child)
                child[0] = os.fork()
                if child[0] == 0:       # takes no lock a thread may hold; never returns
                    try:
                        _write_blocks(child[1], rows[lo:hi], self.fmt)
                        child[1].flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
        except BaseException:
            self.__exit__()
            raise

    def write_to(self, fh):
        """Write the rows to fh, waiting for each child and checking its exit status."""
        if self.rows is not None:
            _write_blocks(fh, self.rows, self.fmt)
        for child in self.children:
            status = os.waitpid(child[0], 0)[1]
            child[0] = None
            if status:
                raise OSError("row writer for %s failed (wait status %d)" % (fh.name, status))
            child[1].seek(0)
            fh.flush()
            shutil.copyfileobj(child[1].buffer, fh.buffer, 1 << 16)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for pid, file in self.children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            file.close()


def write_rows(fh, rows, head: PendingRows | None = None):
    """Write each row of a 2-D array as one comma-separated "%.17g" line.

    head, rows already pending for the same file, is written first; the
    children for this table's other ranges are forked before it is awaited.
    """
    rows = np.asarray(rows)
    writers = max(1, min(usable_cpus(), rows.size // MIN_VALUES_PER_WRITER))
    first = rows.shape[0] // writers
    with PendingRows(rows[first:], writers - 1,
                     os.path.dirname(os.path.abspath(fh.name))) as rest:
        if head is not None:
            head.write_to(fh)
        _write_blocks(fh, rows[:first], _row_format(rows))
        rest.write_to(fh)
