import numpy as np
import pytest

from regvi.sim import (Tone, TrajectoryLog, _loop_matrices, export_trajectory_csv,
                       exploration_signal, join_logs, simulate, stack_state)


def _explore(setup, tspan, h, x0=None, diag=None):
    """The preset's exploration input (K0 on zeta, its tones) from x0."""
    cfg, objs = setup["cfg"], setup["objs"]
    K0 = np.hstack([cfg.k0, np.zeros((1, objs.im.n_z))])
    s0 = stack_state(objs.exo, objs.known, objs.im, cfg.x0 if x0 is None else x0)
    return simulate(objs.plant, objs.exo, objs.known, objs.im, K0, s0, tspan, h,
                    [Tone(**t) for t in cfg.tones], diag=diag)


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
    diag = (nonzero_setup["param"].M, nonzero_setup["aux"].X_prime)
    log = _explore(nonzero_setup, (0.0, 3.0), cfg.h, diag=diag)
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
    diag = (nonzero_setup["param"].M, nonzero_setup["aux"].X_prime)
    log = _explore(nonzero_setup, (0.0, 3.0), cfg.h, x0=x0, diag=diag)
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


def _classic_rk4(plant, exo, known, im, K_rho, s0, tspan, h, tones):
    """Reference: the four-stage RK4 loop, one step at a time."""
    A_tot, B_tot, _ = _loop_matrices(plant, exo, known, im, K_rho)
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
    K = np.hstack([cfg.k0, np.zeros((1, objs.im.n_z))])
    tones = [Tone(**t) for t in cfg.tones] if with_tones else []
    s0 = stack_state(objs.exo, objs.known, objs.im, cfg.x0)
    args = (objs.plant, objs.exo, objs.known, objs.im, K, s0, (0.0, 1.0), cfg.h, tones)
    log = simulate(*args)
    ref = _classic_rk4(*args)
    got = np.hstack([log.v, log.x, log.zeta, log.z])
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_overflow_guard(nonzero_setup):
    cfg, objs = nonzero_setup["cfg"], nonzero_setup["objs"]
    # strong feedback from the output-filter states destabilizes the loop
    s0 = stack_state(objs.exo, objs.known, objs.im, cfg.x0)
    # the first sample beyond the limit is reported; with 1e6 the state also
    # overflows float64 before the guard looks, which must raise no warning
    for gain, t_bad in ((1e3, "0.579"), (1e6, "0.016")):
        K = np.zeros((1, objs.known.n_zeta + objs.im.n_z))
        K[0, 5] = gain
        with pytest.raises(OverflowError, match=r"state overflow at t = %s during" % t_bad):
            simulate(objs.plant, objs.exo, objs.known, objs.im, K, s0, (0.0, 20.0), 1e-3)


def test_grid_validation(nonzero_setup):
    with pytest.raises(ValueError):
        _explore(nonzero_setup, (0.0, 1.0005), 1e-3)
    with pytest.raises(ValueError):
        _explore(nonzero_setup, (0.50025, 1.0), 1e-3)   # start off the grid
    with pytest.raises(ValueError):
        _explore(nonzero_setup, (0.0, 1.0), -1e-3)


def test_continuation_matches_one_run(nonzero_setup):
    """[0, 2] in one run equals [0, 1] joined with its continuation over [1, 2]."""
    cfg, objs = nonzero_setup["cfg"], nonzero_setup["objs"]
    K = np.hstack([cfg.k0, np.zeros((1, objs.im.n_z))])
    tones = [Tone(**t) for t in cfg.tones]
    s0 = stack_state(objs.exo, objs.known, objs.im, cfg.x0)
    args = (objs.plant, objs.exo, objs.known, objs.im, K)
    whole = simulate(*args, s0, (0.0, 2.0), cfg.h, tones)
    head = simulate(*args, s0, (0.0, 1.0), cfg.h, tones)
    joined = join_logs(head, simulate(*args, head.final_state, (1.0, 2.0), cfg.h, tones))
    for name in ("times", "v", "x", "zeta", "z", "y", "e"):
        assert np.array_equal(getattr(joined, name), getattr(whole, name)), name
    assert np.allclose(joined.u, whole.u, rtol=1e-14, atol=0.0)


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
    log = TrajectoryLog(times=1e-3 * np.arange(rows), ex_diag=np.full(rows, np.nan),
                        h=1e-3, **cols)
    path = tmp_path / "traj.csv"
    export_trajectory_csv(log, path)
    lines = path.read_text().split("\n")
    data = np.hstack([log.times[:, None], log.v, log.x, log.zeta, log.z, log.u,
                      log.y, log.e, log.ex_diag[:, None]])
    assert lines[1:] == [",".join("%.17g" % val for val in row) for row in data] + [""]
    assert ",-0," in lines[8] and "nan" in lines[6]
