"""Numeric CSV rows with 17-significant-digit floats.

Every CSV artifact is written as ``",".join("%.17g" % val for val in row)``
per row; integer-valued floats below 2**53 (vi_history's k and j) print as
under "%d".  `_write_blocks` formats a block of rows with one ``%`` operation
on the repeated row format.  Blocks stay small: at thousands of rows the
string and the tuple of values add megabytes to the peak memory for no speed.
A large table is cut into contiguous row ranges, one per usable CPU and each
of at least `MIN_VALUES_PER_WRITER` values: the caller writes the first, and
a forked child (`_Part`) formats each other one into an anonymous file in the
output's directory, appended in 64 KB chunks once the child exits with
status 0.  `PendingRows` starts the same child early for rows that are final
before their file is opened, such as the exploration rows of a trajectory
while the run learns.  Rows are formatted independently, so the bytes do not
depend on the split or on when a row is formatted.
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


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class _Part:
    """Rows formatted by a forked child into an anonymous file in directory."""

    def __init__(self, rows, fmt, directory):
        self.file = tempfile.TemporaryFile("w+", dir=directory)
        try:
            self.pid = os.fork()
        except BaseException:
            self.file.close()
            raise
        if self.pid == 0:               # takes no lock a thread may hold; never returns
            try:
                _write_blocks(self.file, rows, fmt)
                self.file.flush()
                os._exit(0)
            finally:
                os._exit(1)

    def append_to(self, fh):
        """Wait for the child, check its exit status and append its rows to fh."""
        with self.file:
            status = os.waitpid(self.pid, 0)[1]
            self.pid = None
            if status:
                raise OSError("row writer for %s failed (wait status %d)" % (fh.name, status))
            self.file.seek(0)
            fh.flush()
            shutil.copyfileobj(self.file.buffer, fh.buffer, 1 << 16)

    def kill(self):
        """Stop a child still running, reap it and close its file."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self.file.close()


def write_rows(fh, rows):
    """Write each row of a 2-D array as one comma-separated "%.17g" line."""
    rows = np.asarray(rows)
    fmt = _row_format(rows)
    writers = max(1, min(_usable_cpus(), rows.size // MIN_VALUES_PER_WRITER))
    cuts = [rows.shape[0] * k // writers for k in range(writers + 1)]
    parts = []
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            parts.append(_Part(rows[lo:hi], fmt, os.path.dirname(os.path.abspath(fh.name))))
        _write_blocks(fh, rows[:cuts[1]], fmt)
        for part in parts:
            part.append_to(fh)
    finally:                            # stop and reap what an exception left running
        for part in parts:
            part.kill()


class PendingRows:
    """Rows formatted now for a file written later.

    With more than one usable CPU and at least `MIN_VALUES_PER_WRITER`
    values, a forked child formats them into an anonymous file in directory
    at once; otherwise `write_to` formats them in-process.  Use it as a
    context manager: leaving it stops and reaps a child still running.
    """

    def __init__(self, rows, directory):
        self.rows, self.part = np.asarray(rows), None
        if _usable_cpus() > 1 and self.rows.size >= MIN_VALUES_PER_WRITER:
            self.part = _Part(self.rows, _row_format(self.rows), directory)
            self.rows = None            # the child holds them now

    def write_to(self, fh):
        """Write the rows to fh, waiting for the child if there is one."""
        if self.part is None:
            _write_blocks(fh, self.rows, _row_format(self.rows))
        else:
            self.part.append_to(fh)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.part is not None:
            self.part.kill()
