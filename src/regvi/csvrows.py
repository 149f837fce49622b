"""Numeric CSV rows with 17-significant-digit floats.

Every CSV artifact is written as ``",".join("%.17g" % val for val in row)``
per row; integer-valued floats below 2**53 (vi_history's k and j) print as
under "%d".  `write_rows` formats a block of rows with one ``%`` operation on
the repeated row format.  Blocks stay small: at thousands of rows the string
and the tuple of values add megabytes to the peak memory for no speed.
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
