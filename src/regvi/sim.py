"""The plant and fixed-step RK4 simulation of the exosystem / plant /
observer / internal-model loop: physics only, with no oracle object or check.

The stacked state is col(v, x, zeta, z).  `simulate` integrates one linear
time-invariant phase, u = K a + delta(t) with a the state x, zeta or rho =
col(zeta, z) that K's width names and delta an optional sum of probing
tones, from a given state between two points of the grid k*h; its sample
times are h*k, so a run continued from another's final state takes the
sample times of one long run.  An experiment is two such runs, exploration
then closed loop continued from its final state.  The observer block is
propagated through the known matrices only; the plant matrices enter solely
as physics.

Within a phase s' = A s + B delta(t) is LTI, so one classic RK4 step is
exactly the affine map s+ = Phi s + f_i, f_i = G0 delta_i + G_half
delta_{i+1/2} + G1 delta_{i+1} (`_rk4_map`).  Both kinds of phase are stepped
in blocks of B steps: s_{b+i} = Phi^i s_b + r_i, where r is the block's
response to its own forcing from a zero start (r_1 = f_b, r_{i+1} = Phi r_i +
f_{b+i}).  The forcing of every step is one matrix product of [G0, G_half,
G1] with the tone values at the nodes and half-steps; the r of all blocks at
once is B - 1 products of one row per block with Phi^T; then each block adds
one product of the power table [Phi; Phi^2; ...; Phi^B] with its first
state.  A phase without tones has r = 0.  The overflow guard runs once per
block, reporting the first offending sample.  A continued run's block
boundaries move, so its samples agree with one long run's to rounding, not
bitwise, with tones or without.
"""

from dataclasses import dataclass

import numpy as np

from .internal_model import Exosystem, InternalModel
from .observer import ObserverKnown
from .regression import on_grid

OVERFLOW_LIMIT = 1e9
# steps per block: per overflow check, and powers of Phi in the table
STEPS_PER_CHECK = 128


@dataclass
class LtiPlant:
    """The system x' = Ax + Bu + Ev, y = Cx, e = Cx + Fv the simulator integrates.

    Unknown to the learner.  Only its shapes are checked here; the standing
    assumptions on it are the oracle's (`oracle.standing_assumptions`).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    E: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        self.E = np.atleast_2d(np.asarray(self.E, dtype=float))
        self.F = np.atleast_2d(np.asarray(self.F, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B.shape[0] != n or self.C.shape[1] != n or self.E.shape[0] != n:
            raise ValueError("B, C, E dimensions inconsistent with A")
        if self.F.shape != (self.C.shape[0], self.E.shape[1]):
            raise ValueError("F must be p x q")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    @property
    def q(self):
        return self.E.shape[1]


@dataclass
class Tone:
    amplitude: float
    frequency: float  # rad/s
    phase: float = 0.0
    channel: int = 0


def exploration_signal(tones, t, m):
    """Evaluate the sum of tones at times t; returns (m,) or (len(t), m)."""
    out = np.zeros(t.shape + (m,))
    for tone in tones:
        out[..., tone.channel] += tone.amplitude * np.sin(tone.frequency * t + tone.phase)
    return out


def _view(name):
    return property(lambda log: log.table[:, log.columns[name]])


class TrajectoryLog:
    """Uniform-grid trajectory of every loop signal, held as its CSV table,
    which `simulate` allocates once and steps the state in.

    table's columns are, in CSV order, t, v, x, zeta, z, u, y, e and ex_norm;
    widths gives the column count of each of v .. e.  times, the signals,
    rho = col(zeta, z) and ex_diag are views of table.  `simulate` leaves
    ex_diag NaN; an unblinded run writes the oracle's reconstruction error
    into it (`experiment.write_ex_norm`), and the learner never reads it.
    """

    def __init__(self, table, widths, h):
        self.table, self.widths, self.h = table, widths, h
        ends = np.cumsum([1, *widths.values()]).tolist()
        self.columns = {"times": 0, "ex_diag": -1,
                        **{k: slice(*ab) for k, ab in zip(widths, zip(ends, ends[1:]))}}
        self.columns["rho"] = slice(self.columns["zeta"].start, self.columns["z"].stop)

    times, v, x, zeta, z, rho, u, y, e, ex_diag = map(
        _view, ("times", "v", "x", "zeta", "z", "rho", "u", "y", "e", "ex_diag"))

    @property
    def final_state(self):
        """A copy of the stacked state col(v, x, zeta, z) at the last sample."""
        return self.table[-1, 1:self.columns["z"].stop].copy()


def stack_state(exo: Exosystem, known: ObserverKnown, im: InternalModel,
                x0, zeta0=None, z0=None):
    """Initial stacked state col(v0, x0, zeta0, z0); zeta0 and z0 default to 0."""
    zeta0 = np.zeros(known.n_zeta) if zeta0 is None else zeta0
    z0 = np.zeros(im.n_z) if z0 is None else z0
    return np.concatenate([exo.v0, x0, zeta0, z0])


def _loop_matrices(plant, exo, known, im, K):
    """(A, B_tot, K_row) of s = col(v, x, zeta, z) under u = K_row s + delta:
    K_row holds K at the slice of s its width names (n: x, n_zeta = n*(m+p) >= 2n:
    zeta, n_zeta + n_z: rho) and A = A_open + B_tot K_row, A_open at u = 0."""
    n, m, q = plant.n, plant.m, exo.q
    n_zeta, n_z = known.n_zeta, im.n_z
    Z = np.zeros
    A_open = np.block([
        [exo.S, Z((q, n)), Z((q, n_zeta)), Z((q, n_z))],
        [plant.E, plant.A, Z((n, n_zeta)), Z((n, n_z))],
        [Z((n_zeta, q)), known.E_zeta @ plant.C, known.A_full, Z((n_zeta, n_z))],
        [im.G2 @ plant.F, im.G2 @ plant.C, Z((n_z, n_zeta)), im.G1],
    ])
    B_tot = np.vstack([Z((q, m)), plant.B, known.B_zeta, Z((n_z, m))])
    start = {n: q, n_zeta: q + n, n_zeta + n_z: q + n}.get(K.shape[1])
    if K.shape[0] != m or start is None:
        raise ValueError("gain is %d x %d, not m x n, n_zeta or n_rho" % K.shape)
    K_row = np.hstack([Z((m, start)), K, Z((m, A_open.shape[0] - start - K.shape[1]))])
    return A_open + B_tot @ K_row, B_tot, K_row


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


def simulate(plant: LtiPlant, exo: Exosystem, known: ObserverKnown, im: InternalModel,
             K, s0, tspan, h, tones=()) -> TrajectoryLog:
    """RK4 of u = K a + delta(t) from the stacked state s0 over tspan, K on x,
    zeta or rho by its width.  Both ends of tspan must lie on the grid k*h.
    delta is the sum of tones (none: pure feedback).  The ex_norm column is
    left NaN."""
    if h <= 0:
        raise ValueError("step size must be positive")
    j0, j1 = (int(round(t / h)) for t in tspan)
    if j1 < j0 or not (on_grid(tspan[0], h) and on_grid(tspan[1], h)):
        raise ValueError("tspan must run forward between points of the grid k*h")
    m = plant.m
    A_tot, B_tot, K_row = _loop_matrices(plant, exo, known, im, K)
    if s0.shape != (A_tot.shape[0],):
        raise ValueError("initial state must have length %d" % A_tot.shape[0])
    n_steps = j1 - j0
    widths = {"v": exo.q, "x": plant.n, "zeta": known.n_zeta, "z": im.n_z,
              "u": m, "y": plant.p, "e": plant.p}
    log = TrajectoryLog(np.zeros((n_steps + 1, 2 + sum(widths.values()))), widths, h)
    times, s_all, u, y, e = log.times, log.table[:, 1:1 + s0.size], log.u, log.y, log.e
    times[:] = h * np.arange(j0, j1 + 1)
    Phi, G = _rk4_map(A_tot, B_tot, h)
    s_all[0] = s0
    n, B = s0.size, STEPS_PER_CHECK
    with np.errstate(over="ignore", invalid="ignore"):
        if tones:
            # row i+1 starts as the forcing of step i, then every block's
            # response from a zero start: row j of each block adds Phi @ (row j-1)
            d_nodes = exploration_signal(tones, times, m)
            d_half = exploration_signal(tones, times[:-1] + 0.5 * h, m)
            np.matmul(np.hstack([d_nodes[:-1], d_half, d_nodes[1:]]), G.T, out=s_all[1:])
            for j in range(1, B):
                rows = s_all[j + 1::B]
                rows += s_all[j::B][:len(rows)] @ Phi.T
        # the table [Phi; Phi^2; ...; Phi^B], n rows a power
        powers = np.empty((min(B, n_steps), n, n))
        powers[:1] = Phi
        for i in range(1, len(powers)):
            np.matmul(powers[i - 1], Phi, out=powers[i])
        powers = powers.reshape(-1, n)
        for b0 in range(0, n_steps, B):
            block = s_all[b0:min(b0 + B, n_steps) + 1]
            block[1:] += (powers[:(len(block) - 1) * n] @ block[0]).reshape(-1, n)
            bad = ~(np.abs(block[1:]) <= OVERFLOW_LIMIT).all(axis=1)
            if bad.any():
                raise OverflowError("state overflow at t = %g during integration"
                                    % ((j0 + b0 + 1 + int(np.argmax(bad))) * h))
    np.matmul(s_all, K_row.T, out=u)
    if tones:
        u += d_nodes
    np.matmul(log.x, plant.C.T, out=y)
    np.matmul(log.v, plant.F.T, out=e)
    e += y
    log.ex_diag[:] = np.nan
    return log

