"""The shared CSV row writer: per-value "%.17g" bytes for every split of a table
and for rows formatted early by `PendingRows`."""

import gc
import io
import os
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from regvi import csvrows
from regvi.csvrows import MIN_VALUES_PER_WRITER, VALUES_PER_WRITE, PendingRows, write_csv

COLS = 5
SPLIT_ROWS = 2 * MIN_VALUES_PER_WRITER // COLS   # fewest rows that two writers share
ROW_COUNTS = (0, 1, 300, SPLIT_ROWS - 1, SPLIT_ROWS, SPLIT_ROWS + 1, 3 * SPLIT_ROWS + 77)
HOST_CPUS = len(os.sched_getaffinity(0))


@pytest.fixture(scope="module")
def table():
    """Random rows holding nan, +-inf, -0 and 1e+-300, with their per-value lines."""
    block = VALUES_PER_WRITE // COLS
    assert all(count % block for count in ROW_COUNTS[2:])   # ranges end mid-block
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
    """write_csv writes the header, then the per-value lines of rows cut into
    one range per usable CPU, each of at least MIN_VALUES_PER_WRITER values."""
    rows, lines = table
    if cpus is not None:
        pin_cpus(cpus)
    path = tmp_path / "rows.csv"
    assert write_csv(path, rows[:count], ("head", "names")) == path
    assert path.read_text() == "head,names\n" + "".join(lines[:count])
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

    def failing_write_blocks(fh, block_rows):
        if (os.getpid() != test_pid) == (where == "child"):
            raise ValueError("formatter failed")
        write_blocks(fh, block_rows)
    monkeypatch.setattr(csvrows, "_write_blocks", failing_write_blocks)
    with pytest.raises(OSError if where == "child" else ValueError):
        write_csv(tmp_path / "rows.csv", rows)
    assert len(fork_pids) == 2
    for pid in fork_pids:                      # already reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert os.listdir(tmp_path) == ["rows.csv"]


def test_a_failing_fork_closes_the_files(table, tmp_path, monkeypatch, fork_pids, pin_cpus):
    """A fork that fails after the first range's raises, reaps the first writer
    and closes every anonymous file (an unclosed one is an error in this suite)."""
    rows, _ = table
    pin_cpus(3)
    fork = os.fork

    def second_fork_fails():
        if fork_pids:
            raise OSError("no process")
        return fork()
    monkeypatch.setattr(os, "fork", second_fork_fails)
    with pytest.raises(OSError, match="no process"):
        write_csv(tmp_path / "rows.csv", rows)
    gc.collect()
    assert len(fork_pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(fork_pids[0], os.WNOHANG)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("cpus", [1, None, 4 * HOST_CPUS + 5], ids=["one", "host", "more"])
@pytest.mark.parametrize("count", [0, 300, SPLIT_ROWS // 2 - 1, SPLIT_ROWS // 2])
def test_pending_rows_match_per_value_format(table, tmp_path, fork_pids, pin_cpus, count, cpus):
    """Rows started early by PendingRows land where write_csv puts them, byte for
    byte; one child is forked for them on more than one CPU, whatever their size."""
    rows, lines = table
    if cpus is not None:
        pin_cpus(cpus)
    path = tmp_path / "rows.csv"
    early = (cpus or HOST_CPUS) > 1
    with PendingRows(rows[:count], tmp_path) as pending:
        write_csv(path, rows[count:2 * count], ("head",), pending)
    assert path.read_text() == "head\n" + "".join(lines[:2 * count])
    assert len(fork_pids) == early
    assert os.listdir(tmp_path) == ["rows.csv"]


def test_leaving_pending_rows_kills_the_writer(table, tmp_path, monkeypatch, fork_pids,
                                               pin_cpus):
    """A writer still formatting when its range is left is killed and reaped,
    not waited for, and its file is closed."""
    rows, _ = table
    pin_cpus(2)
    test_pid, write_blocks = os.getpid(), csvrows._write_blocks

    def stuck_write_blocks(fh, block_rows):
        if os.getpid() != test_pid:
            time.sleep(600)
        write_blocks(fh, block_rows)
    monkeypatch.setattr(csvrows, "_write_blocks", stuck_write_blocks)
    start = time.monotonic()
    with pytest.raises(KeyError):
        with PendingRows(rows, tmp_path):
            raise KeyError("the run failed")
    assert time.monotonic() - start < 60.0
    assert len(fork_pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(fork_pids[0], os.WNOHANG)
    assert os.listdir(tmp_path) == []


def test_write_rows_forks_its_writers_before_awaiting_the_head(table, tmp_path, monkeypatch,
                                                               fork_pids, pin_cpus):
    """write_csv(path, rows, head=head) writes head first, but forks the writers
    of its own ranges before it waits for head's child, so they run meanwhile."""
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
    with PendingRows(rows[:SPLIT_ROWS], tmp_path) as head:
        write_csv(path, rows[SPLIT_ROWS:], head=head)
    assert path.read_text() == "".join(lines)
    assert len(fork_pids) == 3                 # the head's, then one per range but the first
    assert events == ([("fork", pid) for pid in fork_pids]
                      + [("wait", pid) for pid in fork_pids])
    assert os.listdir(tmp_path) == ["rows.csv"]


# ---------------------------------------------------------------------------
# The block formatter: the bytes of the per-value "%.17g" join for any float64
# ---------------------------------------------------------------------------

def _per_value(rows):
    return "".join(",".join("%.17g" % val for val in row) + "\n" for row in rows.tolist())


def _formatted(rows):
    out = io.BytesIO()
    csvrows._write_blocks(out, np.asarray(rows, dtype=np.float64))
    return out.getvalue().decode("ascii")


@pytest.fixture
def fallbacks(monkeypatch):
    """The values the formatter sent to its per-value fallback during the test."""
    seen, fallback = [], csvrows._fallback

    def counting_fallback(vals):
        seen.extend(vals.tolist())
        return fallback(vals)
    monkeypatch.setattr(csvrows, "_fallback", counting_fallback)
    return seen


# float64 tables as bit patterns: any 64 bits, or the floats hypothesis favours
BIT_TABLES = hnp.arrays(np.uint64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
                        elements=st.one_of(st.integers(0, 2**64 - 1), st.floats().map(
                            lambda val: int(np.float64(val).view(np.uint64)))))


@given(BIT_TABLES)
def test_any_float64_formats_as_per_value(bits):
    rows = bits.view(np.float64)
    assert _formatted(rows) == _per_value(rows)


def _neighbours(values):
    """Each value and the doubles one ulp either side of it."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):                # past the largest double: inf
        return np.concatenate([np.nextafter(values, -np.inf), values,
                               np.nextafter(values, np.inf)])


NAN = np.float64(np.nan)
SPECIAL = {
    "signed zeros and nans": [0.0, -0.0, NAN, -NAN,
                              np.uint64(0x7FF0000000000001).view(np.float64),
                              np.uint64(0xFFF8000000000123).view(np.float64)],
    "infinities and subnormals": [np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
                                  -2.2250738585072014e-308, 1.5e-310, 3e-320],
    "powers of ten": _neighbours([float("1e%d" % k) for k in range(-330, 309)]),
    "fixed and exponent form switch": _neighbours([9.9999999999999991e-06, 1e-5, 1.5e-5,
                                                   9.9999999999999991e-05, 1e-4, 1.5e-4,
                                                   1e16, 1.5e16, 9.9999999999999984e16,
                                                   1e17, 1.5e17]),
    "ties at the 18th digit": 9e14 + np.arange(-40, 40) / 8,
    "three-digit exponents": _neighbours([1e100, -2.5e-123, 1e-280, 1e300, 1.7976931348623157e308,
                                          -1e-299, 4.9406564584124654e-300]),
    "integer-valued history columns": np.concatenate([np.arange(6000.0), [2.0**53, 1e16, 1e17]]),
}


@pytest.mark.parametrize("values", SPECIAL.values(), ids=SPECIAL.keys())
@pytest.mark.parametrize("cols", [1, 3])
def test_edge_values_format_as_per_value(values, cols):
    values = np.asarray(values, dtype=np.float64)
    rows = np.resize(values, (-(-values.size // cols), cols))
    assert _formatted(rows) == _per_value(rows)


def test_rounding_up_to_the_next_power_of_ten_carries_the_exponent(fallbacks):
    """1e-14 and 1e98 lie just below 10**k: their 17 digits round up to 1e17."""
    from fractions import Fraction
    for text in ("1e-14", "1e+98"):
        val = float(text)
        assert Fraction(val) < Fraction(10) ** int(text.split("e")[1])
        assert _formatted([[val, -val]]) == "%s,-%s\n" % (text, text)
    assert fallbacks == []


def test_exact_ties_fall_back_to_round_half_even(fallbacks):
    rows = (9e14 + np.array([1, 3, 5, 7]) / 8)[:, None]
    assert _formatted(rows) == "900000000000000.12\n900000000000000.38\n" \
                               "900000000000000.62\n900000000000000.88\n"
    assert fallbacks == rows.ravel().tolist()


def _layout_of(val):
    """The decimal exponent and the count of significant digits, trailing zeros
    stripped, of val's 17 significant digits."""
    mantissa, exponent = ("%.16e" % val).split("e")
    return int(exponent), len(mantissa.replace(".", "").rstrip("0"))


def _with_layout(x, nd, rng):
    """A double of layout (x, nd), not a rounding tie, or, if 100 draws find
    none, of (x one further from 0, nd): no double has 2e+99's 17 digits."""
    from fractions import Fraction
    for _ in range(100):
        digits = rng.integers(0, 10, nd)
        digits[[0, -1]] = rng.integers(1, 10, 2)        # the first and last nonzero
        digits = "".join(map(str, digits))
        val = float("%s.%se%d" % (digits[0], digits[1:], x))
        tie = (Fraction(val) * Fraction(10) ** (16 - x)).denominator == 2
        if _layout_of(val) == (x, nd) and not tie:
            return val
    return _with_layout(x + 1 if x > 0 else x - 1, nd, rng)


def test_every_layout_key_formats_as_per_value(fallbacks):
    """One value of each sign for every key (exponent clipped to [-5, 17], digit
    count) of the layout tables, with exponent forms of two- and three-digit
    exponents, then nan payloads and infinities: all formatted as per value,
    none by the per-value fallback."""
    rng = np.random.default_rng(11)
    values = np.array([_with_layout(x, nd, rng) for nd in range(1, 18)
                       for x in list(range(-5, 18)) + [-99, -100, -279, 99, 100, 199]])
    layouts = [_layout_of(val) for val in values]
    assert {(min(max(x, -5), 17), nd) for x, nd in layouts} == \
        {(x, nd) for x in range(-5, 18) for nd in range(1, 18)}
    assert {len(str(abs(x))) for x, _ in layouts if abs(x) > 17} == {2, 3}
    special = np.uint64([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFF0000000000123, 0x7FFFFFFFFFFFFFFF, 0x7FF0000000000000,
                         0xFFF0000000000000]).view(np.float64)
    rows = np.concatenate([values, -values, special])[:, None]
    for cols in (1, 3):
        assert _formatted(rows.reshape(-1, cols)) == _per_value(rows.reshape(-1, cols))
    assert fallbacks == []


def test_preset_magnitudes_need_no_fallback(nonzero_setup, fallbacks):
    """The exploration log of paper-e-nonzero, with its ex_norm column of nans
    (no oracle), and log-uniform values over its range of magnitudes take the
    certified fast path or the constant non-finite slots, never the fallback."""
    log_rows = nonzero_setup["log"].table
    assert np.isnan(log_rows[:, -1]).all()
    finite = log_rows[:, :-1]
    mags = np.abs(finite[finite != 0])
    rng = np.random.default_rng(3)
    spread = (rng.choice([-1.0, 1.0], (20000, 9))
              * np.exp(rng.uniform(np.log(mags.min()), np.log(mags.max()), (20000, 9))))
    for rows in (log_rows, spread):
        assert _formatted(rows) == _per_value(rows)
    assert fallbacks == []


def test_every_artifact_is_its_own_per_value_join(nonzero_run):
    """Each CSV of a run equals the per-value "%.17g" join of its own parsed
    values; 17 significant digits round-trip every double through float()."""
    names = sorted(name for name in os.listdir(nonzero_run["out_dir"]) if name.endswith(".csv"))
    assert {"trajectory.csv", "tracking_error.csv", "vi_history.csv", "learned_gain.csv",
            "regression_I_aa.csv"} <= set(names)
    for name in names:
        with open(os.path.join(nonzero_run["out_dir"], name)) as fh:
            lines = fh.read().splitlines()
        if not lines[0][:1].isdigit() and lines[0][:1] != "-":     # a header of names
            lines = lines[1:]
        for line in lines:
            assert ",".join("%.17g" % float(tok) for tok in line.split(",")) == line, name
