import numpy as np
import pytest

from regvi.experiment import (PRESETS, ExperimentConfig, build_objects, export_trajectory_csv,
                              verify, write_ex_norm)
from regvi.sim import (STEPS_PER_CHECK, Tone, TrajectoryLog, _loop_matrices, _rk4_map,
                       exploration_signal, simulate, stack_state)


def _explore(setup, tspan, h, x0=None, ex_norm=False):
    """The preset's exploration input (K0, its tones) from x0; with
    ex_norm, the oracle's reconstruction error written as an unblinded run does."""
    cfg, objs = setup["cfg"], setup["objs"]
    K0 = np.array(cfg.k0)
    s0 = stack_state(objs.exo, objs.known, objs.im, cfg.x0 if x0 is None else x0)
    log = simulate(objs.plant, objs.exo, objs.known, objs.im, K0, s0, tspan, h,
                   [Tone(**t) for t in cfg.tones])
    if ex_norm:
        write_ex_norm(log, setup["aux"])
    return log


def test_rk4_order(nonzero_setup):
    """Halving h shrinks the terminal-state error by ~2^4 (ratio in [12, 20])."""
    def run(h):
        return _explore(nonzero_setup, (0.0, 2.0), h).final_state
    h = 4e-3
    s1, s2, s4 = run(h), run(h / 2), run(h / 4)
    ratio = np.linalg.norm(s1 - s4) / np.linalg.norm(s2 - s4)
    assert 12.0 <= ratio <= 20.0


def test_reconstruction_error_follows_observer_dynamics(nonzero_setup):
    """The logged ||M zeta + X' v - x|| equals ||exp((A-LC)t) e_x(0)||.

    The control input must drop out of the error dynamics entirely, so the
    diagnostic is compared against the closed-form matrix-exponential decay
    while the exploration input is active.
    """
    import scipy.linalg
    cfg, objs = nonzero_setup["cfg"], nonzero_setup["objs"]
    plant = objs.plant
    F = plant.A - nonzero_setup["L"] @ plant.C
    log = _explore(nonzero_setup, (0.0, 3.0), cfg.h, ex_norm=True)
    ex0 = nonzero_setup["aux"].X_prime @ objs.exo.v0 - np.asarray(cfg.x0)
    for t in (0.5, 1.0, 2.0, 3.0):
        i = int(round(t / cfg.h))
        predicted = np.linalg.norm(scipy.linalg.expm(F * t) @ ex0)
        assert log.ex_diag[i] == pytest.approx(predicted, rel=1e-6)


def test_reconstruction_error_decay_rate(nonzero_setup):
    """An error along the slowest observer mode decays log-linearly at its pole."""
    cfg, objs = nonzero_setup["cfg"], nonzero_setup["objs"]
    plant = objs.plant
    F = plant.A - nonzero_setup["L"] @ plant.C
    w, V = np.linalg.eig(F)
    v_slow = np.real(V[:, np.argmax(w.real)])         # eigenvector at -5
    x0 = nonzero_setup["aux"].X_prime @ objs.exo.v0 + 5.0 * v_slow
    log = _explore(nonzero_setup, (0.0, 3.0), cfg.h, x0=x0, ex_norm=True)
    mask = (log.times >= 1.0) & (log.times <= 3.0)
    slope = np.polyfit(log.times[mask], np.log(log.ex_diag[mask]), 1)[0]
    assert slope <= -4.9


def test_internal_stability_under_stabilizing_policy(nonzero_setup):
    """With v0 = 0 and the optimal feedback, col(x, zeta, z) converges to zero."""
    objs, sol = nonzero_setup["objs"], nonzero_setup["sol"]
    exo0 = type(objs.exo)(S=objs.exo.S, v0=np.zeros(objs.exo.q))
    s0 = stack_state(exo0, objs.known, objs.im, [1.0, 2.0, -0.8])
    log = simulate(objs.plant, exo0, objs.known, objs.im, sol.K, s0, (0.0, 40.0), 1e-3)
    start = np.linalg.norm(np.hstack([log.x[0], log.zeta[0], log.z[0]]))
    end = np.linalg.norm(np.hstack([log.x[-1], log.zeta[-1], log.z[-1]]))
    assert end <= 1e-6 * start


def _classic_rk4(plant, exo, known, im, K, s0, tspan, h, tones):
    """Reference: the four-stage RK4 loop, one step at a time."""
    A_tot, B_tot, _ = _loop_matrices(plant, exo, known, im, K)
    t = h * np.arange(round(tspan[0] / h), round(tspan[1] / h) + 1)

    def f(s, tau):
        return A_tot @ s + B_tot @ exploration_signal(tones, tau, plant.m)

    states = [np.asarray(s0, dtype=float)]
    for tau in t[:-1]:
        s = states[-1]
        k1 = f(s, tau)
        k2 = f(s + 0.5 * h * k1, tau + 0.5 * h)
        k3 = f(s + 0.5 * h * k2, tau + 0.5 * h)
        k4 = f(s + h * k3, tau + h)
        states.append(s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(states)


@pytest.mark.parametrize("with_tones", [True, False])
def test_affine_step_matches_classic_rk4(nonzero_setup, with_tones):
    """The precomputed affine step reproduces four-stage RK4 to 1e-12 relative."""
    cfg, objs = nonzero_setup["cfg"], nonzero_setup["objs"]
    K = np.array(cfg.k0)
    tones = [Tone(**t) for t in cfg.tones] if with_tones else []
    s0 = stack_state(objs.exo, objs.known, objs.im, cfg.x0)
    args = (objs.plant, objs.exo, objs.known, objs.im, K, s0, (0.0, 1.0), cfg.h, tones)
    log = simulate(*args)
    ref = _classic_rk4(*args)
    got = np.hstack([log.v, log.x, log.zeta, log.z])
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _per_step(objs, K, s0, n_steps, h, tones=(), t0=0.0):
    """Reference: the recurrence s+ = Phi s + f, one matvec per step, with f
    the forcing of the step's tones (none: f = 0)."""
    A_tot, B_tot, _ = _loop_matrices(objs.plant, objs.exo, objs.known, objs.im, K)
    Phi, G = _rk4_map(A_tot, B_tot, h)
    t = h * (round(t0 / h) + np.arange(n_steps + 1))
    d = exploration_signal(tones, t, objs.plant.m)
    d_half = exploration_signal(tones, t[:-1] + 0.5 * h, objs.plant.m)
    f = np.hstack([d[:-1], d_half, d[1:]]) @ G.T
    states = np.empty((n_steps + 1, len(s0)))
    states[0] = s0
    for i in range(n_steps):
        states[i + 1] = Phi.dot(states[i]) + f[i]
    return states


def _assert_close_per_column(got, ref, rel=1e-12):
    assert got.shape == ref.shape
    assert (np.abs(got - ref).max(axis=0) <= rel * np.abs(ref).max(axis=0)).all()


def _state(log):
    return np.hstack([log.v, log.x, log.zeta, log.z])


def test_closed_loop_phase_matches_per_step_recurrence(nonzero_setup):
    """The preset's whole closed-loop phase (52 000 steps) under the optimal
    gain, which the learned one approximates, stepped by the power table, is
    the per-step recurrence to 1e-12 of each column's largest value."""
    cfg, objs = nonzero_setup["cfg"], nonzero_setup["objs"]
    K = nonzero_setup["sol"].K
    s0 = _explore(nonzero_setup, (0.0, cfg.t_switch), cfg.h).final_state
    log = simulate(objs.plant, objs.exo, objs.known, objs.im, K, s0,
                   (cfg.t_switch, cfg.t_end), cfg.h)
    n_steps = round((cfg.t_end - cfg.t_switch) / cfg.h)
    assert n_steps == 52000 and n_steps % STEPS_PER_CHECK
    _assert_close_per_column(_state(log), _per_step(objs, K, s0, n_steps, cfg.h))


def test_toned_phase_matches_per_step_recurrence(nonzero_setup):
    """The preset's whole exploration (28 000 steps under K0 and its tones),
    stepped in blocks of the power table plus each block's forced response,
    is the per-step recurrence to 1e-12 of each column's largest value."""
    cfg, objs = nonzero_setup["cfg"], nonzero_setup["objs"]
    K0 = np.array(cfg.k0)
    s0 = stack_state(objs.exo, objs.known, objs.im, cfg.x0)
    log = _explore(nonzero_setup, (0.0, cfg.t_switch), cfg.h)
    n_steps = round(cfg.t_switch / cfg.h)
    assert n_steps == 28000 and n_steps % STEPS_PER_CHECK
    ref = _per_step(objs, K0, s0, n_steps, cfg.h, [Tone(**t) for t in cfg.tones])
    _assert_close_per_column(_state(log), ref)


_SHORT_PHASES = (0, 1, 5, STEPS_PER_CHECK, STEPS_PER_CHECK + 1)


@pytest.mark.parametrize("n_steps, with_tones",
                         [pytest.param(n, False, id=str(n)) for n in _SHORT_PHASES]
                         + [pytest.param(n, True, id="tones-%d" % n) for n in _SHORT_PHASES])
def test_phase_shorter_than_a_block(nonzero_setup, n_steps, with_tones):
    cfg, objs = nonzero_setup["cfg"], nonzero_setup["objs"]
    K = nonzero_setup["sol"].K
    tones = [Tone(**t) for t in cfg.tones] if with_tones else []
    s0 = stack_state(objs.exo, objs.known, objs.im, cfg.x0)
    log = simulate(objs.plant, objs.exo, objs.known, objs.im, K, s0,
                   (1.0, 1.0 + n_steps * cfg.h), cfg.h, tones)
    assert np.array_equal(log.times, cfg.h * np.arange(1000, 1001 + n_steps))
    _assert_close_per_column(_state(log),
                             _per_step(objs, K, s0, n_steps, cfg.h, tones, t0=1.0))


def test_overflow_guard(nonzero_setup):
    cfg, objs = nonzero_setup["cfg"], nonzero_setup["objs"]
    # strong feedback from the output-filter states destabilizes the loop
    s0 = stack_state(objs.exo, objs.known, objs.im, cfg.x0)
    preset_tones = [Tone(**t) for t in cfg.tones]
    # the first sample beyond the limit is reported; with 1e6 the state also
    # overflows float64 before the guard looks, which must raise no warning
    for gain, tones, t_bad in ((1e3, [], "0.579"), (1e6, [], "0.016"),
                               (1e3, preset_tones, "0.578"), (1e6, preset_tones, "0.016")):
        K = np.zeros((1, objs.known.n_zeta + objs.im.n_z))
        K[0, 5] = gain
        with pytest.raises(OverflowError, match=r"state overflow at t = %s during" % t_bad):
            simulate(objs.plant, objs.exo, objs.known, objs.im, K, s0, (0.0, 20.0), 1e-3,
                     tones)


def test_grid_validation(nonzero_setup):
    with pytest.raises(ValueError):
        _explore(nonzero_setup, (0.0, 1.0005), 1e-3)
    with pytest.raises(ValueError):
        _explore(nonzero_setup, (0.50025, 1.0), 1e-3)   # start off the grid
    with pytest.raises(ValueError):
        _explore(nonzero_setup, (0.0, 1.0), -1e-3)


@pytest.mark.parametrize("with_tones", [pytest.param(True, id="tones"),
                                        pytest.param(False, id="no-tones")])
def test_continuation_matches_one_run(nonzero_setup, with_tones):
    """[0, 1] then its continuation over [1, 2], under the gain and input of
    the pipeline's exploration (K0, tones) or closed loop (the optimal gain),
    takes the sample times of one [0, 2] run bitwise; the block boundaries
    move, so every signal agrees with that run's to rounding, not bitwise."""
    cfg, objs = nonzero_setup["cfg"], nonzero_setup["objs"]
    if with_tones:
        K, tones = np.array(cfg.k0), [Tone(**t) for t in cfg.tones]
    else:
        K, tones = nonzero_setup["sol"].K, []
    args = (objs.plant, objs.exo, objs.known, objs.im, K)
    s0 = stack_state(objs.exo, objs.known, objs.im, cfg.x0)
    whole = simulate(*args, s0, (0.0, 2.0), cfg.h, tones)
    head = simulate(*args, s0, (0.0, 1.0), cfg.h, tones)
    tail = simulate(*args, head.final_state, (1.0, 2.0), cfg.h, tones)
    assert np.array_equal(tail.times, whole.times[len(head.times) - 1:])
    # every signal: the columns v .. e of the table, between t and ex_norm
    _assert_close_per_column(np.vstack([head.table[:-1, 1:-1], tail.table[:, 1:-1]]),
                             whole.table[:, 1:-1])


def test_exploration_signal_values():
    tones = [Tone(2.0, 3.0, 0.5, 0), Tone(1.0, 1.0, 0.0, 1)]
    t = np.array([0.0, 0.25])
    out = exploration_signal(tones, t, 2)
    assert out.shape == (2, 2)
    assert np.allclose(out[:, 0], 2.0 * np.sin(3.0 * t + 0.5))
    assert np.allclose(out[:, 1], np.sin(t))


def test_simulation_is_deterministic(fullstate_setup):
    s = fullstate_setup
    tones = [Tone(1.0, 1.0), Tone(1.0, 2.7), Tone(1.0, 5.3), Tone(1.0, 9.1)]
    K = np.zeros((1, s["known"].n_zeta + s["im"].n_z))
    s0 = stack_state(s["exo"], s["known"], s["im"], [1.0, -1.0, 0.5])
    log2 = simulate(s["plant"], s["exo"], s["known"], s["im"], K, s0, (0.0, 6.0),
                    1e-3, tones)
    for name in ("times", "v", "x", "zeta", "z", "u", "y", "e"):
        assert np.array_equal(getattr(s["log"], name), getattr(log2, name))


def test_trajectory_csv_roundtrip(fullstate_setup, tmp_path):
    log = fullstate_setup["log"]
    path = tmp_path / "traj.csv"
    export_trajectory_csv(log, path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "t" and header[-1] == "ex_norm"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], log.times)          # 17 digits round-trip
    q = log.v.shape[1]
    assert np.array_equal(data[:, 1:1 + q], log.v)
    assert np.all(np.isnan(data[:, -1]))                  # no oracle diagnostics


def test_trajectory_csv_matches_per_value_format(tmp_path):
    """Block formatting writes the bytes of a per-value "%.17g" join."""
    rng = np.random.default_rng(3)
    rows = 300                                # not a multiple of the block size
    cols = {"v": rng.standard_normal((rows, 2)), "x": rng.standard_normal((rows, 3)),
            "zeta": rng.standard_normal((rows, 2)) * 1e-300,
            "z": rng.standard_normal((rows, 1)) * 1e300,
            "u": rng.standard_normal((rows, 1)), "y": rng.standard_normal((rows, 1)),
            "e": rng.standard_normal((rows, 1))}
    cols["x"][5, 1] = np.nan
    cols["u"][7, 0] = -0.0
    cols["e"][299, 0] = np.inf
    data = np.hstack([1e-3 * np.arange(rows)[:, None], *cols.values(),
                      np.full((rows, 1), np.nan)])
    log = TrajectoryLog(data, {k: c.shape[1] for k, c in cols.items()}, 1e-3)
    path = tmp_path / "traj.csv"
    export_trajectory_csv(log, path)
    lines = path.read_text().split("\n")
    assert lines[0] == "t,v_1,v_2,x_1,x_2,x_3,zeta_1,zeta_2,z_1,u_1,y_1,e_1,ex_norm"
    assert lines[1:] == [",".join("%.17g" % val for val in row) for row in data] + [""]
    assert ",-0," in lines[8] and "nan" in lines[6]


def _two_channel_config():
    """A stable 2 x 2 plant with B = C = I (m = p = 2), a harmonic exosystem
    and tones on both input channels."""
    return ExperimentConfig(
        name="two-channel", plant_a=[[-1.0, 0.5], [0.0, -2.0]],
        plant_b=[[1.0, 0.0], [0.0, 1.0]], plant_c=[[1.0, 0.0], [0.0, 1.0]],
        plant_e=[[1.0, 0.0], [0.0, 0.5]], plant_f=[[0.5, -0.8], [0.2, 0.3]],
        exo_minpoly=[1.0, 0.0], exo_v0=[1.0, 0.8], x0=[1.0, -0.5],
        observer_poles=[-5.0, -6.0],
        tones=[{"amplitude": 2.0, "frequency": 3.0, "channel": 0},
               {"amplitude": -1.0, "frequency": 7.0, "phase": 0.3, "channel": 1}],
        k0=[[0.0] * 8] * 2, grid_t0=0.1, grid_dt=0.1, grid_s=10, h=1e-3,
        variant=4, t_switch=2.0, t_end=3.0, settle_time=2.5, p0_scale=0.1,
        eps_num=1.0, eps_shift=1.0, eps_conv=0.01, max_iters=10, r=1.0, q_main=1.0)


def test_two_channel_log_is_its_table(tmp_path):
    """For m = p = 2 every signal, rho among them, is a view of the log's
    table holding the old per-signal values, and the CSV is that table."""
    cfg = _two_channel_config()
    objs = build_objects(cfg)
    plant, exo, known, im = objs.plant, objs.exo, objs.known, objs.im
    K = 0.01 * np.random.default_rng(5).standard_normal((2, known.n_zeta + im.n_z))
    tones = [Tone(**t) for t in cfg.tones]
    args = (plant, exo, known, im, K, stack_state(exo, known, im, cfg.x0), (0.0, 0.5),
            cfg.h, tones)
    log = simulate(*args)
    names = ("times", "v", "x", "zeta", "z", "rho", "u", "y", "e", "ex_diag")
    assert all(np.shares_memory(getattr(log, name), log.table) for name in names)
    state = np.hstack([log.v, log.x, log.zeta, log.z])
    ref = _classic_rk4(*args)
    assert np.abs(state - ref).max() <= 1e-12 * np.abs(ref).max()
    _, _, K_row = _loop_matrices(plant, exo, known, im, K)
    assert np.array_equal(log.times, cfg.h * np.arange(501))
    assert np.array_equal(log.rho, np.hstack([log.zeta, log.z]))
    assert np.array_equal(log.u, state @ K_row.T + exploration_signal(tones, log.times, 2))
    assert np.array_equal(log.y, log.x @ plant.C.T)
    assert np.array_equal(log.e, log.y + log.v @ plant.F.T)
    assert np.isnan(log.ex_diag).all()
    assert np.array_equal(log.final_state, state[-1])
    assert not np.shares_memory(log.final_state, log.table)
    path = tmp_path / "traj.csv"
    export_trajectory_csv(log, path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("t,v_1,v_2,x_1,x_2,zeta_1,")
    assert header.endswith(",z_4,u_1,u_2,y_1,y_2,e_1,e_2,ex_norm")
    assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1), log.table,
                          equal_nan=True)


def test_two_channel_plant_verifies():
    """verify places L by pole placement for p = 2 and passes every check."""
    failed = [row for row in verify(_two_channel_config()) if not row[1]]
    assert not failed, failed


# ---------------------------------------------------------------------------
# The width rule: a gain of n, n_zeta or n_zeta + n_z columns acts on x, zeta
# or rho = col(zeta, z)
# ---------------------------------------------------------------------------

WIDTH_RULE_CASES = {"two-channel": _two_channel_config,
                    "paper-e-nonzero": PRESETS["paper-e-nonzero"]}


def _loop_args(case):
    objs = build_objects(WIDTH_RULE_CASES[case]())
    return objs, (objs.plant, objs.exo, objs.known, objs.im)


@pytest.mark.parametrize("case", WIDTH_RULE_CASES)
def test_a_gain_on_zeta_is_the_gain_on_rho_with_zero_z_columns(case):
    objs, args = _loop_args(case)
    K = np.random.default_rng(7).standard_normal((objs.plant.m, objs.known.n_zeta))
    padded = np.hstack([K, np.zeros((objs.plant.m, objs.im.n_z))])
    for got, want in zip(_loop_matrices(*args, K), _loop_matrices(*args, padded)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("case", WIDTH_RULE_CASES)
def test_a_gain_on_x_changes_only_the_x_columns(case):
    """A, the closed-loop matrix, differs from the open loop's only in the x
    columns, by B_tot K; the input is u = K x."""
    objs, args = _loop_args(case)
    plant, q = objs.plant, objs.exo.q
    K = np.random.default_rng(8).standard_normal((plant.m, plant.n))
    A, B_tot, K_row = _loop_matrices(*args, K)
    A_open = _loop_matrices(*args, np.zeros_like(K))[0]
    on_x = np.arange(q, q + plant.n)
    assert np.array_equal(np.delete(A, on_x, axis=1), np.delete(A_open, on_x, axis=1))
    assert np.allclose(A[:, on_x], A_open[:, on_x] + B_tot @ K, rtol=1e-15,
                       atol=1e-15 * np.abs(A).max())
    assert np.array_equal(K_row[:, on_x], K)
    assert not np.delete(K_row, on_x, axis=1).any()
    s0 = stack_state(objs.exo, objs.known, objs.im, WIDTH_RULE_CASES[case]().x0)
    log = simulate(*args, 0.1 * K, s0, (0.0, 0.2), 1e-3)
    assert np.allclose(log.u, log.x @ (0.1 * K).T, rtol=0, atol=1e-15 * np.abs(log.u).max())


@pytest.mark.parametrize("case", WIDTH_RULE_CASES)
def test_a_gain_of_any_other_width_is_rejected(case):
    objs, args = _loop_args(case)
    m, n, n_zeta = objs.plant.m, objs.plant.n, objs.known.n_zeta
    n_rho = n_zeta + objs.im.n_z
    shapes = [(m, w) for w in range(n_rho + 2) if w not in (n, n_zeta, n_rho)]
    for shape in shapes + [(m + 1, n), (m + 1, n_zeta), (m - 1, n_rho)]:
        with pytest.raises(ValueError, match="gain is %d x %d, not" % shape):
            _loop_matrices(*args, np.zeros(shape))
    s0 = stack_state(objs.exo, objs.known, objs.im, WIDTH_RULE_CASES[case]().x0)
    with pytest.raises(ValueError, match="gain is"):
        simulate(*args, np.zeros((m, n_rho + 1)), s0, (0.0, 0.1), 1e-3)
