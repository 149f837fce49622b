"""Fixed-step RK4 simulation of the exosystem / plant / observer / internal-model loop.

The stacked state is col(v, x, zeta, z).  `simulate` integrates one linear
time-invariant phase, u = K_rho rho + delta(t) with delta an optional sum of
probing tones, from a given state between two points of the grid k*h; its
sample times are h*k, so a run continued from another's final state takes
the same steps as one long run.  An experiment is two such runs, exploration
then closed loop, joined by `join_logs`.  The observer block is propagated
through the known matrices only; the plant matrices enter solely as physics.

Within a phase s' = A s + B delta(t) is LTI, so one classic RK4 step is
exactly the affine map s+ = Phi s + G0 delta_i + G_half delta_{i+1/2} +
G1 delta_{i+1} (`_rk4_map`).  The forcing of every step is one matrix
product of [G0, G_half, G1] with the tone values at the nodes and
half-steps; the stepping loop is then one matvec and one vector add per
step, and the overflow guard runs once per block of steps, reporting the
first offending sample.
"""

from dataclasses import dataclass, fields

import numpy as np

from .csvrows import write_rows
from .internal_model import Exosystem, InternalModel
from .observer import ObserverKnown

OVERFLOW_LIMIT = 1e9
GRID_TOL = 1e-9
STEPS_PER_CHECK = 1024


@dataclass
class Tone:
    amplitude: float
    frequency: float  # rad/s
    phase: float = 0.0
    channel: int = 0


def exploration_signal(tones, t, m):
    """Evaluate the sum of tones at times t; returns (m,) or (len(t), m)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (m,))
    for tone in tones:
        out[..., tone.channel] += tone.amplitude * np.sin(tone.frequency * t + tone.phase)
    return out


@dataclass
class TrajectoryLog:
    """Uniform-grid trajectory of every loop signal.

    ex_diag holds ||M zeta + X' v - x|| when the oracle diagnostic matrices
    were supplied, NaN otherwise (the learner never reads it).
    """

    times: np.ndarray
    v: np.ndarray
    x: np.ndarray
    zeta: np.ndarray
    z: np.ndarray
    u: np.ndarray
    y: np.ndarray
    e: np.ndarray
    ex_diag: np.ndarray
    h: float

    @property
    def final_state(self):
        """Stacked state col(v, x, zeta, z) at the last sample."""
        return np.concatenate([self.v[-1], self.x[-1], self.zeta[-1], self.z[-1]])


def stack_state(exo: Exosystem, known: ObserverKnown, im: InternalModel,
                x0, zeta0=None, z0=None):
    """Initial stacked state col(v0, x0, zeta0, z0); zeta0 and z0 default to 0."""
    zeta0 = np.zeros(known.n_zeta) if zeta0 is None else zeta0
    z0 = np.zeros(im.n_z) if z0 is None else z0
    return np.concatenate([exo.v0, x0, zeta0, z0]).astype(float)


def join_logs(head: TrajectoryLog, tail: TrajectoryLog) -> TrajectoryLog:
    """head followed by tail, a run continued from head's final state.

    head's last row is dropped: tail repeats its state, and its input is the
    one in force before tail's gain took over.
    """
    if head.times[-1] != tail.times[0]:
        raise ValueError("tail must start at the last sample of head")
    parts = {f.name: np.concatenate([getattr(head, f.name)[:-1], getattr(tail, f.name)])
             for f in fields(TrajectoryLog) if f.name != "h"}
    return TrajectoryLog(h=head.h, **parts)


def _loop_matrices(plant, exo, known, im, K_rho):
    """Closed-loop matrix for s = col(v, x, zeta, z) under u = K_rho rho + delta."""
    n, m, q = plant.n, plant.m, exo.q
    n_zeta, n_z = known.n_zeta, im.n_z
    Ku_zeta, Ku_z = K_rho[:, :n_zeta], K_rho[:, n_zeta:]
    Z = np.zeros
    A_tot = np.block([
        [exo.S, Z((q, n)), Z((q, n_zeta)), Z((q, n_z))],
        [plant.E, plant.A, plant.B @ Ku_zeta, plant.B @ Ku_z],
        [Z((n_zeta, q)), known.E_zeta @ plant.C,
         known.A_full + known.B_zeta @ Ku_zeta, known.B_zeta @ Ku_z],
        [im.G2 @ plant.F, im.G2 @ plant.C, Z((n_z, n_zeta)), im.G1],
    ])
    B_tot = np.vstack([Z((q, m)), plant.B, known.B_zeta, Z((n_z, m))])
    K_row = np.hstack([Z((m, q)), Z((m, n)), Ku_zeta, Ku_z])
    return A_tot, B_tot, K_row


def on_grid(t, h):
    """Whether time t lies on the grid k*h (to GRID_TOL)."""
    return abs(round(t / h) * h - t) <= GRID_TOL


def _rk4_map(A_tot, B_tot, h):
    """One RK4 step of s' = A_tot s + B_tot delta as s+ = Phi s + G d.

    d = col(delta_i, delta_{i+1/2}, delta_{i+1}) and G = [G0, G_half, G1].
    """
    I = np.eye(A_tot.shape[0])
    hA = h * A_tot
    hA2 = hA @ hA
    hA3 = hA2 @ hA
    Phi = I + hA + hA2 / 2.0 + hA3 / 6.0 + hA3 @ hA / 24.0
    G0 = (I + hA + hA2 / 2.0 + hA3 / 4.0) @ B_tot
    G_half = (4.0 * I + 2.0 * hA + hA2 / 2.0) @ B_tot
    return Phi, (h / 6.0) * np.hstack([G0, G_half, B_tot])


def simulate(plant, exo: Exosystem, known: ObserverKnown, im: InternalModel,
             K_rho, s0, tspan, h, tones=(), diag=None) -> TrajectoryLog:
    """RK4 of u = K_rho rho + delta(t) from the stacked state s0 over tspan.

    Both ends of tspan must lie on the grid k*h.  delta is the sum of tones
    (none: pure feedback).  diag, when given, is the oracle pair
    (M, X_prime) used only to log the reconstruction-error norm
    ||M zeta + X' v - x||.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    j0, j1 = (int(round(t / h)) for t in tspan)
    if j1 < j0 or not (on_grid(tspan[0], h) and on_grid(tspan[1], h)):
        raise ValueError("tspan must run forward between points of the grid k*h")
    n, m, q, n_zeta = plant.n, plant.m, exo.q, known.n_zeta
    A_tot, B_tot, K_row = _loop_matrices(plant, exo, known, im,
                                         np.atleast_2d(np.asarray(K_rho, dtype=float)))
    s = np.asarray(s0, dtype=float)
    if s.shape != (A_tot.shape[0],):
        raise ValueError("initial state must have length %d" % A_tot.shape[0])
    times = h * np.arange(j0, j1 + 1)
    n_steps = j1 - j0
    Phi, G = _rk4_map(A_tot, B_tot, h)
    # row i+1 starts as the forcing of step i; the loop adds Phi @ (row i)
    s_all = np.zeros((n_steps + 1, s.size))
    s_all[0] = s
    if tones:
        d_nodes = exploration_signal(tones, times, m)
        d_half = exploration_signal(tones, times[:-1] + 0.5 * h, m)
        np.matmul(np.hstack([d_nodes[:-1], d_half, d_nodes[1:]]), G.T, out=s_all[1:])
    step = Phi.dot
    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(0, n_steps, STEPS_PER_CHECK):
            block = s_all[b0:min(b0 + STEPS_PER_CHECK, n_steps) + 1]
            rows = list(block)
            for i in range(len(rows) - 1):
                rows[i + 1] += step(rows[i])
            bad = ~(np.abs(block[1:]) <= OVERFLOW_LIMIT).all(axis=1)
            if bad.any():
                raise OverflowError("state overflow at t = %g during integration"
                                    % ((j0 + b0 + 1 + int(np.argmax(bad))) * h))
    u = s_all @ K_row.T
    if tones:
        u += d_nodes

    v = s_all[:, :q]
    x = s_all[:, q:q + n]
    zeta = s_all[:, q + n:q + n + n_zeta]
    z = s_all[:, q + n + n_zeta:]
    y = x @ plant.C.T
    e = y + v @ plant.F.T
    if diag is not None:
        M, X_prime = diag
        ex = zeta @ M.T + v @ X_prime.T - x
        ex_diag = np.linalg.norm(ex, axis=1)
    else:
        ex_diag = np.full(times.size, np.nan)
    return TrajectoryLog(times=times, v=v, x=x, zeta=zeta, z=z, u=u,
                         y=y, e=e, ex_diag=ex_diag, h=h)


def export_trajectory_csv(log: TrajectoryLog, path):
    """Write the log as CSV with 17-significant-digit floats."""
    cols = [("t", log.times[:, None]), ("v", log.v), ("x", log.x),
            ("zeta", log.zeta), ("z", log.z), ("u", log.u),
            ("y", log.y), ("e", log.e), ("ex_norm", log.ex_diag[:, None])]
    names = []
    for name, arr in cols:
        if arr.shape[1] == 1 and name in ("t", "ex_norm"):
            names.append(name)
        else:
            names.extend("%s_%d" % (name, i + 1) for i in range(arr.shape[1]))
    data = np.hstack([arr for _, arr in cols])
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        write_rows(fh, data)
