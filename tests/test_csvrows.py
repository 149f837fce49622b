"""The shared CSV row writer: per-value "%.17g" bytes for every split of a table
and for rows formatted early by `PendingRows`."""

import os
import time

import numpy as np
import pytest

from regvi import csvrows
from regvi.csvrows import MIN_VALUES_PER_WRITER, ROWS_PER_WRITE, PendingRows, write_rows

COLS = 5
SPLIT_ROWS = 2 * MIN_VALUES_PER_WRITER // COLS   # fewest rows that two writers share
ROW_COUNTS = (0, 1, 300, SPLIT_ROWS - 1, SPLIT_ROWS, SPLIT_ROWS + 1, 3 * SPLIT_ROWS + 77)
HOST_CPUS = len(os.sched_getaffinity(0))


@pytest.fixture(scope="module")
def table():
    """Random rows holding nan, +-inf, -0 and 1e+-300, with their per-value lines."""
    assert all(count % ROWS_PER_WRITE for count in ROW_COUNTS[2:])   # ranges end mid-block
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((max(ROW_COUNTS), COLS))
    rows[:, 1] *= 1e-300
    rows[:, 2] *= 1e300
    rows[5, 0] = np.nan
    rows[7, 3] = -0.0
    rows[SPLIT_ROWS, 4] = np.inf
    rows[-1, 4] = -np.inf
    lines = [",".join("%.17g" % val for val in row) + "\n" for row in rows]
    return rows, lines


@pytest.mark.parametrize("cpus", [1, None, 4 * HOST_CPUS + 5], ids=["one", "host", "more"])
@pytest.mark.parametrize("count", ROW_COUNTS)
def test_write_rows_matches_per_value_format(table, tmp_path, fork_pids, pin_cpus, count, cpus):
    rows, lines = table
    if cpus is not None:
        pin_cpus(cpus)
    path = tmp_path / "rows.csv"
    with open(path, "w") as fh:
        fh.write("head\n")
        write_rows(fh, rows[:count])
        fh.write("tail\n")
    assert path.read_text() == "head\n" + "".join(lines[:count]) + "tail\n"
    writers = min(cpus or HOST_CPUS, max(1, count * COLS // MIN_VALUES_PER_WRITER))
    assert len(fork_pids) == writers - 1       # one per CPU, never one per value
    assert os.listdir(tmp_path) == ["rows.csv"]


@pytest.mark.parametrize("where", ["child", "parent"])
def test_failing_writer_raises_and_leaves_no_file(table, tmp_path, monkeypatch, fork_pids,
                                                  pin_cpus, where):
    """A writer that fails in a child or in the caller raises, reaps every child
    and leaves only the output file behind."""
    rows, _ = table
    pin_cpus(3)
    test_pid, write_blocks = os.getpid(), csvrows._write_blocks

    def failing_write_blocks(fh, block_rows, fmt):
        if (os.getpid() != test_pid) == (where == "child"):
            raise ValueError("formatter failed")
        write_blocks(fh, block_rows, fmt)
    monkeypatch.setattr(csvrows, "_write_blocks", failing_write_blocks)
    with open(tmp_path / "rows.csv", "w") as fh:
        with pytest.raises(OSError if where == "child" else ValueError):
            write_rows(fh, rows)
    assert len(fork_pids) == 2
    for pid in fork_pids:                      # already reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert os.listdir(tmp_path) == ["rows.csv"]


@pytest.mark.parametrize("cpus", [1, None, 4 * HOST_CPUS + 5], ids=["one", "host", "more"])
@pytest.mark.parametrize("count", [0, 300, SPLIT_ROWS // 2 - 1, SPLIT_ROWS // 2])
def test_pending_rows_match_per_value_format(table, tmp_path, fork_pids, pin_cpus, count, cpus):
    """Rows formatted early land where write_to puts them, byte for byte; one
    child is forked for at least MIN_VALUES_PER_WRITER values on more than one CPU."""
    rows, lines = table
    if cpus is not None:
        pin_cpus(cpus)
    path = tmp_path / "rows.csv"
    early = (cpus or HOST_CPUS) > 1 and count * COLS >= MIN_VALUES_PER_WRITER
    with PendingRows(rows[:count], int(early), tmp_path) as pending, open(path, "w") as fh:
        fh.write("head\n")
        pending.write_to(fh)
        write_rows(fh, rows[count:2 * count])
    assert path.read_text() == "head\n" + "".join(lines[:2 * count])
    assert len(fork_pids) == early
    assert os.listdir(tmp_path) == ["rows.csv"]


def test_leaving_pending_rows_kills_the_writer(table, tmp_path, monkeypatch, fork_pids, pin_cpus):
    """A writer still formatting when its block is left is killed and reaped,
    not waited for, and its file is closed."""
    rows, _ = table
    pin_cpus(2)
    test_pid, write_blocks = os.getpid(), csvrows._write_blocks

    def stuck_write_blocks(fh, block_rows, fmt):
        if os.getpid() != test_pid:
            time.sleep(600)
        write_blocks(fh, block_rows, fmt)
    monkeypatch.setattr(csvrows, "_write_blocks", stuck_write_blocks)
    start = time.monotonic()
    with pytest.raises(KeyError):
        with PendingRows(rows, 1, tmp_path):
            raise KeyError("the run failed")
    assert time.monotonic() - start < 60.0
    assert len(fork_pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(fork_pids[0], os.WNOHANG)
    assert os.listdir(tmp_path) == []


def test_write_rows_forks_its_writers_before_awaiting_the_head(table, tmp_path, monkeypatch,
                                                               fork_pids, pin_cpus):
    """write_rows(fh, rows, head) writes head first, but forks the writers of
    its own ranges before it waits for head's child, so they run meanwhile."""
    rows, lines = table
    pin_cpus(3)
    events, fork, waitpid = [], os.fork, os.waitpid

    def logged_fork():
        pid = fork()
        if pid:
            events.append(("fork", pid))
        return pid
    monkeypatch.setattr(os, "fork", logged_fork)
    monkeypatch.setattr(os, "waitpid", lambda pid, options: events.append(("wait", pid))
                        or waitpid(pid, options))
    path = tmp_path / "rows.csv"
    with PendingRows(rows[:SPLIT_ROWS], 1, tmp_path) as head, open(path, "w") as fh:
        write_rows(fh, rows[SPLIT_ROWS:], head)
    assert path.read_text() == "".join(lines)
    assert len(fork_pids) == 3                 # the head's, then one per range but the first
    assert events == ([("fork", pid) for pid in fork_pids]
                      + [("wait", pid) for pid in fork_pids])
    assert os.listdir(tmp_path) == ["rows.csv"]
