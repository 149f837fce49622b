"""Experiment orchestration: config parsing, the simulate -> collect -> learn ->
switch -> evaluate pipeline, its artifact files, the `verify` rows and the
built-in presets.  No other module writes a file.

The learning path (`learn_from_log`) only sees the trajectory log, the
user-known observer/internal-model matrices and the loop parameters; the
plant, the observer gain and the parameterization matrix never cross into
it.  Blinded runs exploit exactly that boundary.
"""

import json
import math
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from types import UnionType
from typing import get_args, get_origin

import numpy as np

from .csvrows import PendingRows, write_csv
from .internal_model import Exosystem, InternalModel
from .linalg import require_sym_psd
from .observer import ObserverKnown
from .oracle import (build_augmented_aux, compute_parameterization,
                     parameterization_identity_errors, place_observer_gain, solve_care,
                     standing_assumptions, verify_theorem4)
from .regression import (VARIANTS, SamplingGrid, build_regression, check_rank, on_grid,
                         unknown_count)
from .sim import LtiPlant, Tone, simulate, stack_state
from .vi import RankConditionError, ViConfig, check_vi_inputs, require_rank, vi_run


class ConfigError(ValueError):
    """Experiment configuration is malformed or inconsistent."""


class NotConvergedError(RuntimeError):
    """Value iteration hit max_iters without meeting the convergence test."""


@dataclass
class ExperimentConfig:
    """Declarative experiment description; validate_config checks each field's
    JSON type against its annotation.  k0 acts on x, zeta or rho, by its width."""

    name: str
    plant_a: list[list[float]]
    plant_b: list[list[float]]
    plant_c: list[list[float]]
    plant_e: list[list[float]]
    plant_f: list[list[float]]
    exo_minpoly: list[float]
    exo_v0: list[float]
    x0: list[float]
    observer_poles: list[float | list[float]]     # a complex pole is [re, im]
    tones: list[Tone]
    k0: list[list[float]]
    grid_t0: float
    grid_dt: float
    grid_s: int
    h: float
    variant: int
    t_switch: float
    t_end: float
    settle_time: float
    p0_scale: float
    eps_num: float
    eps_shift: float
    eps_conv: float
    max_iters: int
    r: float | list[list[float]]
    bound_scale: float = 1000.0
    bound_shift: float = 20.0
    q_main: float | list[list[float]] | None = None
    q_y: float | list[list[float]] | None = None
    q_z: float | list[list[float]] | None = None
    zeta0: list[float] | None = None
    z0: list[float] | None = None


def serialize_config(cfg: ExperimentConfig) -> str:
    return json.dumps(asdict(cfg), indent=2, sort_keys=True)


def parse_config(text: str) -> ExperimentConfig:
    try:
        payload = json.loads(text)
        cfg = ExperimentConfig(**payload)
    except (json.JSONDecodeError, TypeError) as exc:
        raise ConfigError("cannot parse experiment config: %s" % exc) from exc
    validate_config(cfg)
    return cfg


def _as_matrix(spec, dim, what):
    """Weight `what`: scalar -> scale * identity; nested list -> matrix; r is PD, the rest PSD."""
    M = (float(spec) * np.eye(dim) if np.isscalar(spec)
         else np.atleast_2d(np.asarray(spec, dtype=float)))
    if M.shape != (dim, dim):
        raise ConfigError("%s must be %d x %d, got %s" % (what, dim, dim, M.shape))
    require_sym_psd(M, what, definite=what == "r")
    return M


def _poles(raw):
    """Observer poles; a complex pole is written [re, im]."""
    if any(isinstance(p, list) and len(p) != 2 for p in raw):
        raise ValueError("a complex observer pole is written [re, im]")
    return np.asarray([complex(*p) if isinstance(p, list) else complex(p) for p in raw])


def _qbar(cfg, p, n_z):
    """blockdiag(Q_y, Q_z), the cost weight on col(y, z); an unset weight is I."""
    q_y = 1.0 if cfg.q_y is None else cfg.q_y
    q_z = 1.0 if cfg.q_z is None else cfg.q_z
    return np.block([[_as_matrix(q_y, p, "q_y"), np.zeros((p, n_z))],
                     [np.zeros((n_z, p)), _as_matrix(q_z, n_z, "q_z")]])


@dataclass
class ExperimentObjects:
    plant: LtiPlant
    exo: Exosystem
    im: InternalModel
    known: ObserverKnown
    B_rho: np.ndarray
    poles: np.ndarray       # the observer poles, complex


def build_objects(cfg: ExperimentConfig) -> ExperimentObjects:
    try:
        plant = LtiPlant(A=cfg.plant_a, B=cfg.plant_b, C=cfg.plant_c,
                         E=cfg.plant_e, F=cfg.plant_f)
        im = InternalModel(cfg.exo_minpoly, plant.p)    # rejects an empty polynomial
        # The known exosystem is the companion form of the minimal polynomial (beta);
        # the learner treats the signal it generates as the exogenous input,
        # and the unknown output map is absorbed into the plant's E and F.
        exo = Exosystem(im.beta, cfg.exo_v0)
        poles = _poles(cfg.observer_poles)
        known = ObserverKnown.from_poles(poles, plant.m, plant.p)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if not (poles.real < 0).all():     # the filter bank must be Hurwitz
        raise ConfigError("observer poles must lie in the open left half-plane")
    if plant.q != exo.q:
        raise ConfigError("E and F have %d columns for %d exosystem states" % (plant.q, exo.q))
    B_rho = np.vstack([known.B_zeta, np.zeros((im.n_z, plant.m))])
    return ExperimentObjects(plant=plant, exo=exo, im=im, known=known, B_rho=B_rho,
                             poles=poles)


def _has_type(value, tp):
    """Whether a parsed JSON value fits annotation tp (never a bool; numbers finite)."""
    if isinstance(tp, UnionType):
        return any(_has_type(value, t) for t in get_args(tp))
    if get_origin(tp) is list:
        return isinstance(value, list) and all(_has_type(v, get_args(tp)[0]) for v in value)
    if is_dataclass(tp):
        known = {f.name: f.type for f in fields(tp)}
        required = {f.name for f in fields(tp) if f.default is MISSING}
        return (isinstance(value, dict) and required <= value.keys() <= known.keys()
                and all(_has_type(v, known[k]) for k, v in value.items()))
    if isinstance(value, bool):
        return False
    if isinstance(value, int):      # a JSON integer must also convert to a float
        return tp in (int, float) and abs(value) <= sys.float_info.max
    if tp is float:
        return isinstance(value, float) and math.isfinite(value)
    return isinstance(value, tp)


def validate_config(cfg: ExperimentConfig):
    for f in fields(cfg):
        if not _has_type(getattr(cfg, f.name), f.type):
            raise ConfigError("%s must be a finite JSON value of type %s"
                              % (f.name, getattr(f.type, "__name__", f.type)))
    if cfg.variant not in VARIANTS:
        raise ConfigError("variant must be 1..6")
    if cfg.h <= 0 or cfg.grid_dt <= 0 or cfg.grid_s <= 0:
        raise ConfigError("h, grid_dt and grid_s must be positive")
    if cfg.t_switch >= cfg.t_end:
        raise ConfigError("t_switch must precede t_end")
    if cfg.settle_time > cfg.t_end:
        raise ConfigError("settle_time must not exceed t_end")
    if not (on_grid(cfg.t_switch, cfg.h) and on_grid(cfg.t_end, cfg.h)):
        raise ConfigError("t_switch and t_end must lie on the grid k*h")
    if (cfg.grid_t0 < 0 or round(cfg.grid_dt / cfg.h) < 1
            or not (on_grid(cfg.grid_t0, cfg.h) and on_grid(cfg.grid_dt, cfg.h))):
        raise ConfigError("grid_t0 >= 0 and grid_dt >= h must lie on the grid k*h")
    objs = build_objects(cfg)
    plant, im = objs.plant, objs.im
    for name, ok, detail in standing_assumptions(plant, objs.exo.S):
        if not ok:
            raise ConfigError("%s fails: %s" % (name, detail))
    n_zeta, n_rho = objs.known.n_zeta, objs.known.n_zeta + im.n_z
    for name, given, want in (("x0", cfg.x0, plant.n),
                              ("observer_poles", cfg.observer_poles, plant.n),
                              ("zeta0", cfg.zeta0, n_zeta), ("z0", cfg.z0, im.n_z)):
        if given is not None and len(given) != want:
            raise ConfigError("%s length %d does not match %d" % (name, len(given), want))
    if len(cfg.k0) != plant.m or {len(r) for r in cfg.k0} not in ({plant.n}, {n_zeta}, {n_rho}):
        raise ConfigError("k0 must be m x %d, %d or %d (x, zeta or rho)" % (plant.n, n_zeta, n_rho))
    if cfg.grid_t0 + cfg.grid_s * cfg.grid_dt > cfg.t_switch + 1e-9:
        raise ConfigError("sampling grid must fit inside the exploration phase")
    for tone in cfg.tones:
        channel = tone.get("channel", 0)
        if not 0 <= channel < plant.m:
            raise ConfigError("tone channel %r outside [0, m = %d)" % (channel, plant.m))
    try:
        check_vi_inputs(cfg.variant, make_vi_config(cfg, objs))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return objs


# ---------------------------------------------------------------------------
# Learner path (model-free by construction)
# ---------------------------------------------------------------------------

def make_vi_config(cfg: ExperimentConfig, objs: ExperimentObjects) -> ViConfig:
    m, p, n_z, n_zeta = objs.plant.m, objs.plant.p, objs.im.n_z, objs.known.n_zeta
    n_a = {"x": objs.plant.n, "zeta": n_zeta, "rho": n_zeta + n_z}[VARIANTS[cfg.variant].state]
    # every weight the config sets; vi.check_vi_inputs says which the variant needs
    weights = {"Q": (cfg.q_main, n_a, "q_main"), "Q_y": (cfg.q_y, p, "q_y"),
               "Q_z": (cfg.q_z, n_z, "q_z")}
    # Exogenous signals reach the learner state rho = col(zeta, z) only
    # through the filters' output-injection columns and the internal model's
    # input matrix; both are learner-known, so an exogenous matrix is
    # identified inside that column space.
    E_structure = np.block([[objs.known.E_zeta, np.zeros((n_zeta, p))],
                            [np.zeros((n_z, p)), objs.im.G2]])
    return ViConfig(P0=cfg.p0_scale * np.eye(n_a), eps_num=cfg.eps_num,
                    eps_shift=cfg.eps_shift, eps_conv=cfg.eps_conv,
                    max_iters=cfg.max_iters, R=_as_matrix(cfg.r, m, "r"),
                    bound_scale=cfg.bound_scale, bound_shift=cfg.bound_shift,
                    E_structure=E_structure,
                    **{k: _as_matrix(*w) for k, w in weights.items() if w[0] is not None})


def learn_from_log(log, variant, grid: SamplingGrid, known_B, vicfg: ViConfig,
                   lap=lambda name: None):
    """Regression + rank check + value iteration from the logged trajectory.

    Touches only learner-visible channels and known matrices (known_B: None on x).
    lap(name) is the run's clock: the regression and its rank verdict go to
    regression_s, the stage fit to vi_fit_s, the loop to vi_s, raising or not.
    """
    data = build_regression(log, grid, variant, R=vicfg.R, known_B=known_B)
    verdict = check_rank(data)
    lap("regression_s")
    require_rank(verdict)
    try:
        result = vi_run(variant, data, vicfg, lap)
    finally:
        lap("vi_s")
    return data, verdict, result


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    """What a run found; each layer fills its fields as it finishes, so the
    partial report of a failed run leaves the later ones None or False."""

    name: str
    variant: int
    blinded: bool
    files: dict
    rank: int | None = None
    rank_required: int | None = None
    data_quality: dict | None = None    # RankVerdict.quality of the rank verdict
    iters: int | None = None
    resets: int | None = None
    vi_reset_iterations: list | None = None  # the iterate k of each reset
    vi_final_step_metric: float | None = None  # ||P~ - P||_2 / eps at the last iterate
    vi_us_per_iter: float | None = None  # the loop's timings["vi_s"] per iterate, in microseconds
    converged: bool = False
    tracking_max_error: float | None = None
    gain_error: float | None = None
    e_rho_error: float | None = None
    theorem4_deviation: float | None = None
    theorem4_gain_deviation: float | None = None
    paper_reference: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)  # wall seconds per pipeline layer


def run_experiment(cfg: ExperimentConfig, out_dir, blinded=False) -> ExperimentReport:
    """Run the full pipeline and write every artifact under out_dir."""
    timings, clock = {}, [time.perf_counter()]

    def lap(name):                      # add the wall seconds since the last lap to name
        clock.append(time.perf_counter())
        timings[name] = timings.get(name, 0.0) + clock[-1] - clock[-2]

    objs = validate_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    report = ExperimentReport(name=cfg.name, variant=cfg.variant, blinded=blinded, files={},
                              paper_reference=dict(_PAPER_REFERENCE.get(cfg.name, {})),
                              timings=timings)
    try:
        _run_layers(cfg, objs, out_dir, blinded, report, lap)
    finally:                            # a failed run leaves its partial report too
        _write_report(out_dir, report)
    return report


def _run_layers(cfg, objs, out_dir, blinded, report, lap):
    """run_experiment's layers; each fills its fields of report as it finishes."""
    plant, exo, im, known, files = objs.plant, objs.exo, objs.im, objs.known, report.files
    path = lambda name: os.path.join(out_dir, name)
    spec = VARIANTS[cfg.variant]
    vicfg = make_vi_config(cfg, objs)
    lap("setup_s")
    if not blinded:                     # an oracle that cannot be built stops the run here
        aux = _oracle_objects(objs)
        lap("oracle_s")
    log_explore = simulate(plant, exo, known, im, np.asarray(cfg.k0, dtype=float),
                           stack_state(exo, known, im, cfg.x0, cfg.zeta0, cfg.z0),
                           (0.0, cfg.t_switch), cfg.h, [Tone(**t) for t in cfg.tones])
    lap("explore_sim_s")
    if not blinded:                     # before the exploration rows' writer starts
        write_ex_norm(log_explore, aux)
        lap("oracle_s")
    known_B = {"x": None, "zeta": known.B_zeta, "rho": objs.B_rho}[spec.state]
    grid = SamplingGrid(t0=cfg.grid_t0, dt=cfg.grid_dt, s=cfg.grid_s)
    # The trajectory CSV holds the exploration rows but the last (the closed
    # loop repeats that state), then the closed loop's.  The exploration rows
    # are final: a writer may format them while the run learns (its start
    # counts as learning); leaving the block by any path stops and reaps it.
    with PendingRows(log_explore.table[:-1], out_dir) as traj_head:
        try:
            data, verdict, vires = learn_from_log(log_explore, cfg.variant, grid, known_B,
                                                  vicfg, lap)
        except RankConditionError as exc:
            report.rank, report.rank_required, report.data_quality = (
                exc.rank, exc.required, exc.quality)
            raise
        report.rank, report.rank_required, report.data_quality = (
            verdict.rank, verdict.required, verdict.quality)
        report.iters, report.resets, report.converged = (
            vires.iters, vires.resets, vires.converged)
        report.vi_us_per_iter = 1e6 * report.timings["vi_s"] / vires.iters
        # j rises after each escape; appending the final j counts a last-iterate escape
        report.vi_reset_iterations = np.flatnonzero(
            np.diff(vires.history[:, 1], append=vires.resets)).tolist()
        report.vi_final_step_metric = float(vires.history[-1, 3])
        files.update(export_regression_csv(data, out_dir))
        files["vi_history"] = export_history_csv(vires, path("vi_history.csv"))
        files["learned_gain"] = write_csv(path("learned_gain.csv"), vires.K_final)
        lap("other_exports_s")
        if not vires.converged:
            raise NotConvergedError("VI did not converge in %d iterations" % cfg.max_iters)

        log_closed = simulate(plant, exo, known, im, vires.K_final, log_explore.final_state,
                              (cfg.t_switch, cfg.t_end), cfg.h)
        if not blinded:
            write_ex_norm(log_closed, aux)
        lap("closed_loop_sim_s")
        files["trajectory"] = export_trajectory_csv(log_closed, path("trajectory.csv"),
                                                    head=traj_head)
        lap("trajectory_export_s")
    # the trajectory's rows: the exploration log's but its last, then the closed loop's
    settled = np.concatenate([e[t >= cfg.settle_time] for t, e in (
        (log_explore.times[:-1], log_explore.e[:-1]), (log_closed.times, log_closed.e))])
    report.tracking_max_error = float(np.abs(settled).max())
    files["tracking_error"] = write_csv(
        path("tracking_error.csv"), np.column_stack([log_closed.times, log_closed.e]),
        ["t", *("e_%d" % (i + 1) for i in range(log_closed.e.shape[1]))])
    lap("other_exports_s")
    if blinded:
        return
    if spec.state != "rho":     # variant 1 on x, variant 2 on zeta through x_hat = M zeta
        Q_x = vicfg.Q if spec.state == "x" else plant.C.T @ vicfg.Q_y @ plant.C
        K_x = _oracle_call(solve_care, plant.A, plant.B, Q_x, vicfg.R).K
        K_opt = K_x if spec.state == "x" else K_x @ aux.M
    elif not spec.output_cost:
        K_opt = _oracle_call(solve_care, aux.A_rho, aux.B_rho, vicfg.Q, vicfg.R).K
    else:
        t4 = _oracle_call(verify_theorem4, plant, aux, im, _qbar(cfg, plant.p, im.n_z), vicfg.R)
        K_opt = t4.K_rho
        report.theorem4_deviation = t4.deviation
        report.theorem4_gain_deviation = t4.gain_deviation
    report.gain_error = _relative_error(vires.K_final, K_opt)
    if vires.E_rho_identified is not None:
        report.e_rho_error = _relative_error(vires.E_rho_identified, aux.E_rho)
    lap("oracle_s")


def _relative_error(value, reference):
    """||value - reference||_F / ||reference||_F, or None (JSON null) where the
    reference is 0, as the oracle's E_rho is for a plant with E = 0 and F = 0."""
    scale = np.linalg.norm(reference, "fro")
    return float(np.linalg.norm(value - reference, "fro") / scale) if scale else None


def _oracle_call(fn, *args):
    """fn(*args), an oracle step; a ValueError or RuntimeError it raises
    becomes a ConfigError that names the step."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        raise ConfigError("oracle step %s failed: %s" % (fn.__name__, exc)) from exc


def _oracle_objects(objs):
    """The augmented auxiliary system of the placed observer gain L."""
    plant = objs.plant
    L = _oracle_call(place_observer_gain, plant.A, plant.C, objs.poles)
    M = _oracle_call(compute_parameterization, plant, L, objs.known)
    return _oracle_call(build_augmented_aux, plant, L, M, objs.known, objs.im, objs.exo)


def write_ex_norm(log, aux):
    """Write ||M zeta + X' v - x||, the oracle's observer reconstruction error,
    into log's ex_norm column.  The norm cancels terms of order 1e4 (|M| up
    to 1167 on paper-e-nonzero), so once the observer error has decayed it is
    rounding noise, 4e-12 to 1.6e-10 over paper-e-nonzero's closed loop, not 0."""
    ex = log.zeta @ aux.M.T + log.v @ aux.X_prime.T - log.x
    log.ex_diag[:] = np.linalg.norm(ex, axis=1)


def export_regression_csv(data, out_dir):
    """One CSV per block plus a manifest of dims and the grid; returns file map."""
    blocks = {"delta_a": data.delta_a, "I_aa": data.I_aa, "I_au": data.I_au,
              "Gamma_av": data.Gamma_av, "Gamma_aBu": data.Gamma_aBu,
              "I_yy": data.I_yy, "I_zz": data.I_zz}
    blocks = {name: arr for name, arr in blocks.items() if arr is not None}
    files = {name: write_csv(os.path.join(out_dir, "regression_%s.csv" % name), arr)
             for name, arr in blocks.items()}
    manifest = {"variant": data.variant, "dims": data.dims,
                "grid": {"t0": data.grid.t0, "dt": data.grid.dt, "s": data.grid.s},
                "blocks": {k: list(v.shape) for k, v in blocks.items()}}
    files["regression_manifest"] = _write_json(os.path.join(out_dir, "regression_manifest.json"),
                                               manifest)
    return files


def export_history_csv(result, path):
    """Convergence history: k, j, ||P_k||, ||P~_{k+1}-P_k||/eps_k; returns path."""
    return write_csv(path, result.history, ("k", "j", "normP", "step_metric"))


def export_trajectory_csv(log, path, head=None):
    """Write the log's table as CSV after head, the pending rows of the log it
    continues, under the header t, name_i per column of each signal, ex_norm."""
    names = ("%s_%d" % (k, i + 1) for k, w in log.widths.items() for i in range(w))
    return write_csv(path, log.table, ["t", *names, "ex_norm"], head)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


def _write_report(out_dir, report):
    """Name the files written relative to out_dir in report.files, write
    report.json, then manifest.json naming those files, report.json and itself."""
    report.files = {k: os.path.relpath(v, out_dir) for k, v in report.files.items()}
    _write_json(os.path.join(out_dir, "report.json"), asdict(report))
    _write_json(os.path.join(out_dir, "manifest.json"),
                {**report.files, "report": "report.json", "manifest": "manifest.json"})


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def verify(cfg: ExperimentConfig) -> list:
    """Rows (name, ok, detail) of the standing assumptions and, where (A, B)
    is stabilizable and (A, C) observable, of every oracle identity check;
    report, never raise."""
    rows = []
    try:
        objs = build_objects(cfg)
        plant, im = objs.plant, objs.im
        rows += standing_assumptions(plant, objs.exo.S)
        if not (rows[0][1] and rows[1][1]):     # the oracle's solvers need both
            return rows
        aux = _oracle_objects(objs)
        worst = max(parameterization_identity_errors(plant, objs.known, aux.L, aux.M).values())
        rows.append(("parameterization_identities", worst <= 1e-8,
                     "max relative error %g" % worst))
        t4 = verify_theorem4(plant, aux, im, _qbar(cfg, plant.p, im.n_z),
                             _as_matrix(cfg.r, plant.m, "r"))
        rows += [("theorem4_identity", t4.deviation <= 1e-6 and t4.gain_deviation <= 1e-6,
                  "P deviation %g, K deviation %g" % (t4.deviation, t4.gain_deviation)),
                 ("augmented_closed_loop_hurwitz", t4.closed_loop_margin < 0.0,
                  "margin %g" % t4.closed_loop_margin)]
        dims = (plant.n, plant.m, plant.p, objs.exo.q, im.n_z)
        counts = {meth: unknown_count(dims, meth) for meth in ("chen", "xie", "alg3", "alg4")}
        rows.append(("unknown_counts", True, json.dumps(counts)))
    except (ValueError, RuntimeError) as exc:   # ConfigError and AssumptionError too
        rows.append(("oracle_construction", False, str(exc)))
    return rows


# ---------------------------------------------------------------------------
# Presets (the two published scenarios)
# ---------------------------------------------------------------------------

def preset_paper_e_zero() -> ExperimentConfig:
    """The published example with E = 0 (tracking only), learned with variant 6."""
    return ExperimentConfig(
        name="paper-e-zero",
        plant_a=[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
        plant_b=[[0.0], [1.0], [0.0]], plant_c=[[1.0, 2.0, 3.0]],
        plant_e=[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], plant_f=[[0.5, -0.8]],
        exo_minpoly=[1.0, 0.0], exo_v0=[1.0, 0.8], x0=[1.0, 2.0, -0.8],
        observer_poles=[-5.0, -6.0, -7.0],
        tones=[{"amplitude": 10.0, "frequency": 4.0, "phase": 0.0, "channel": 0},
               {"amplitude": 10.0, "frequency": 10.0, "phase": 0.0, "channel": 0},
               {"amplitude": 10.0, "frequency": 9.0, "phase": 0.0, "channel": 0},
               {"amplitude": -10.0, "frequency": 2.0, "phase": 0.0, "channel": 0},
               {"amplitude": -10.0, "frequency": 6.0, "phase": 0.0, "channel": 0}],
        k0=[[10.0, 8.0, 0.0, 0.0, -4.0, -4.0]],
        grid_t0=4.0, grid_dt=0.2, grid_s=120, h=1e-3,
        variant=6, t_switch=28.0, t_end=80.0, settle_time=60.0,
        p0_scale=0.01, eps_num=8.0, eps_shift=10.0, eps_conv=0.05,
        max_iters=26313, r=1.0, q_y=1.0, q_z=1.0,
        # The optimal value matrix has spectral norm ~1.82e5; the first bound
        # set must cover it with margin, since the transient overshoots to
        # ~2.4e5 on some tone phases, and every reset restarts the climb from
        # P0 with a smaller step: with a first radius of 2e5 the iteration
        # count explodes geometrically.  Resets then only discard the
        # unstable large-step transient of the first few iterations.
        bound_scale=1000.0, bound_shift=400.0)


def preset_paper_e_nonzero() -> ExperimentConfig:
    """The published example with E != 0 (tracking plus disturbance rejection),
    learned with variant 4: paper-e-zero with the fields below changed."""
    return replace(
        preset_paper_e_zero(), name="paper-e-nonzero",
        plant_e=[[2.0, 0.0], [0.0, 1.0], [3.0, 6.0]], variant=4,
        p0_scale=0.1, eps_num=20.0, eps_shift=4000.0, eps_conv=0.01,
        max_iters=31806, q_main=1.0, q_y=None, q_z=None, bound_shift=200.0)


PRESETS = {
    "paper-e-zero": preset_paper_e_zero,
    "paper-e-nonzero": preset_paper_e_nonzero,
}

# Published parameter values of the built-in scenarios, for auditability
_PAPER_REFERENCE = {
    "paper-e-zero": {"reported_iterations": 8771, "P0": "0.01 I8", "eps_k": "8/(k+10)",
                     "eps_conv": 0.05, "Q_y": 1, "Q_z": "I2", "R": 1},
    "paper-e-nonzero": {"reported_iterations": 10602, "P0": "0.1 I8",
                        "eps_k": "20/(k+4000)", "eps_conv": 0.01, "Q_rho": "I8", "R": 1},
}
