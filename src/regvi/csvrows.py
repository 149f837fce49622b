"""Numeric CSV rows with 17-significant-digit floats.

Every float artifact is written as ``",".join("%.17g" % val for val in row)``
per row.  `write_rows` produces exactly those bytes but formats a block of
rows with one ``%`` operation on the row format repeated for the block.
Blocks stay small: at thousands of rows the formatted string and the tuple
of values add megabytes to the peak memory without writing any faster.
"""

import numpy as np

ROWS_PER_WRITE = 128


def write_rows(fh, rows):
    """Write each row of a 2-D array as one comma-separated "%.17g" line."""
    rows = np.asarray(rows)
    fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    for start in range(0, rows.shape[0], ROWS_PER_WRITE):
        block = rows[start:start + ROWS_PER_WRITE]
        fh.write((fmt * block.shape[0]) % tuple(block.ravel().tolist()))
