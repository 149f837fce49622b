"""Experiment orchestration: config parsing, the simulate -> collect -> learn ->
switch -> evaluate pipeline, verification reports and the built-in presets.

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
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin

import numpy as np

from .csvrows import write_rows
from .internal_model import build_p_copy, recast_exosystem
from .linalg import companion_from_alpha, is_hurwitz
from .observer import ObserverKnown
from .oracle import (AssumptionError, LtiPlant, build_augmented_aux,
                     build_augmented_plant, compute_parameterization,
                     parameterization_identity_errors, pbh_check,
                     place_observer_gain, solve_care, transmission_zero_check,
                     verify_theorem4)
from .regression import (VARIANTS, SamplingGrid, build_regression, check_rank,
                         export_regression_csv, on_grid, unknown_count)
from .sim import Tone, export_trajectory_csv, join_logs, simulate, stack_state
from .vi import RankConditionError, ViConfig, check_vi_inputs, export_history_csv, vi_run


class ConfigError(ValueError):
    """Experiment configuration is malformed or inconsistent."""


class NotConvergedError(RuntimeError):
    """Value iteration hit max_iters without meeting the convergence test."""


@dataclass
class ExperimentConfig:
    """Declarative experiment description; validate_config checks each field's
    JSON type against its annotation.  k0 acts on zeta or rho, by its width."""

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
    """Scalar -> scale * identity of the given size; nested list -> matrix."""
    if spec is None:
        raise ConfigError("missing weight matrix %s" % what)
    if np.isscalar(spec):
        return float(spec) * np.eye(dim)
    M = np.atleast_2d(np.asarray(spec, dtype=float))
    if M.shape != (dim, dim):
        raise ConfigError("%s must be %d x %d, got %s" % (what, dim, dim, M.shape))
    return M


def _poles(raw):
    """Observer poles; a complex pole is written [re, im]."""
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
    exo: object
    im: object
    known: ObserverKnown
    B_rho: np.ndarray


def build_objects(cfg: ExperimentConfig) -> ExperimentObjects:
    try:
        plant = LtiPlant(A=cfg.plant_a, B=cfg.plant_b, C=cfg.plant_c,
                         E=cfg.plant_e, F=cfg.plant_f)
        exo = recast_exosystem(cfg.exo_minpoly, cfg.exo_v0)
        im = build_p_copy(cfg.exo_minpoly, plant.p)
        known = ObserverKnown.from_poles(_poles(cfg.observer_poles), plant.m, plant.p)
    except (TypeError, ValueError, AssumptionError) as exc:   # TypeError: a pole [a, b, c]
        raise ConfigError(str(exc)) from exc
    B_rho = np.vstack([known.B_zeta, np.zeros((im.n_z, plant.m))])
    return ExperimentObjects(plant=plant, exo=exo, im=im, known=known, B_rho=B_rho)


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
    n_zeta, n_rho = objs.known.n_zeta, objs.known.n_zeta + im.n_z
    for name, given, want in (("x0", cfg.x0, plant.n),
                              ("observer_poles", cfg.observer_poles, plant.n),
                              ("exo_v0", cfg.exo_v0, len(cfg.exo_minpoly)),
                              ("zeta0", cfg.zeta0, n_zeta), ("z0", cfg.z0, im.n_z)):
        if given is not None and len(given) != want:
            raise ConfigError("%s length %d does not match %d" % (name, len(given), want))
    if len(cfg.k0) != plant.m or {len(row) for row in cfg.k0} not in ({n_zeta}, {n_rho}):
        raise ConfigError("k0 must be m x %d (on zeta) or m x %d (on rho)" % (n_zeta, n_rho))
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
    spec = VARIANTS[cfg.variant]
    m, p, n_z, n_zeta = objs.plant.m, objs.plant.p, objs.im.n_z, objs.known.n_zeta
    n_a = {"x": objs.plant.n, "zeta": n_zeta, "rho": n_zeta + n_z}[spec.state]
    R = _as_matrix(cfg.r, m, "r")
    kwargs = dict(P0=cfg.p0_scale * np.eye(n_a), eps_num=cfg.eps_num,
                  eps_shift=cfg.eps_shift, eps_conv=cfg.eps_conv,
                  max_iters=cfg.max_iters, R=R, bound_scale=cfg.bound_scale,
                  bound_shift=cfg.bound_shift)
    if not spec.output_cost:
        kwargs["Q"] = _as_matrix(cfg.q_main, n_a, "q_main")
    if spec.output_cost:
        kwargs["Q_y"] = _as_matrix(cfg.q_y, p, "q_y")
    if spec.output_cost and spec.state == "rho":
        kwargs["Q_z"] = _as_matrix(cfg.q_z, n_z, "q_z")
    if spec.exo:
        # Exogenous signals reach the learner state rho = col(zeta, z) only
        # through the filters' output-injection columns and the internal
        # model's input matrix; both are learner-known, so the exogenous
        # matrix is solved for inside that column space.
        kwargs["E_structure"] = np.block([[objs.known.E_zeta, np.zeros((n_zeta, p))],
                                          [np.zeros((n_z, p)), objs.im.G2]])
    return ViConfig(**kwargs)


def learn_from_log(log, variant, grid: SamplingGrid, known_B, vicfg: ViConfig):
    """Regression + rank check + value iteration from the logged trajectory.

    Touches only learner-visible channels and known matrices (known_B: None on x).
    """
    data = build_regression(log, grid, variant, R=vicfg.R, known_B=known_B)
    verdict = check_rank(data)
    if not verdict.satisfied:
        raise RankConditionError("rank %d < required %d" % (verdict.rank, verdict.required),
                                 verdict.rank, verdict.required)
    result = vi_run(variant, data, vicfg)
    return data, verdict, result


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    name: str
    variant: int
    blinded: bool
    rank: int
    rank_required: int
    # iters, resets, vi_reset_iterations and vi_final_step_metric are None in
    # the partial report of a run that failed its rank condition
    iters: int | None
    resets: int | None
    vi_reset_iterations: list | None  # the iterate k of each reset
    vi_final_step_metric: float | None  # ||P~ - P||_2 / eps at the last iterate
    converged: bool
    tracking_max_error: float | None  # None in the partial report of a run that did not converge
    files: dict
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
    plant, exo, im, known = objs.plant, objs.exo, objs.im, objs.known
    diag = None
    param = aux = None
    if not blinded:
        L = place_observer_gain(plant.A, plant.C, _poles(cfg.observer_poles))
        param = compute_parameterization(plant, L, known.companion.alpha)
        aux = build_augmented_aux(plant, param, im, exo)
        diag = (param.M, aux.X_prime)
    spec = VARIANTS[cfg.variant]
    vicfg = make_vi_config(cfg, objs)
    K0 = np.atleast_2d(np.asarray(cfg.k0, dtype=float))
    if K0.shape[1] == known.n_zeta:
        K0 = np.hstack([K0, np.zeros((plant.m, im.n_z))])
    files = {}
    lap("setup_s")
    log_explore = simulate(plant, exo, known, im, K0,
                           stack_state(exo, known, im, cfg.x0, cfg.zeta0, cfg.z0),
                           (0.0, cfg.t_switch), cfg.h,
                           [Tone(**t) for t in cfg.tones], diag=diag)
    lap("explore_sim_s")
    known_B = {"x": None, "zeta": known.B_zeta, "rho": objs.B_rho}[spec.state]
    grid = SamplingGrid(t0=cfg.grid_t0, dt=cfg.grid_dt, s=cfg.grid_s)
    try:
        data, verdict, vires = learn_from_log(log_explore, cfg.variant, grid, known_B, vicfg)
    except RankConditionError as exc:
        lap("learn_s")
        _write_report(out_dir, ExperimentReport(
            name=cfg.name, variant=cfg.variant, blinded=blinded, rank=exc.rank,
            rank_required=exc.required, iters=None, resets=None, vi_reset_iterations=None,
            vi_final_step_metric=None, converged=False, tracking_max_error=None,
            files=files, paper_reference=_paper_reference(cfg), timings=timings))
        raise
    lap("learn_s")
    files.update(export_regression_csv(data, out_dir))
    history_path = os.path.join(out_dir, "vi_history.csv")
    export_history_csv(vires, history_path)
    files["vi_history"] = history_path
    gain_path = os.path.join(out_dir, "learned_gain.csv")
    with open(gain_path, "w") as fh:
        write_rows(fh, np.atleast_2d(vires.K_final))
    files["learned_gain"] = gain_path
    lap("other_exports_s")
    report = ExperimentReport(name=cfg.name, variant=cfg.variant, blinded=blinded,
                              rank=verdict.rank, rank_required=verdict.required,
                              iters=vires.iters, resets=vires.resets,
                              vi_reset_iterations=np.flatnonzero(
                                  np.diff(vires.history[:, 1])).tolist(),
                              vi_final_step_metric=float(vires.history[-1, 3]),
                              converged=vires.converged, tracking_max_error=None,
                              files=files, paper_reference=_paper_reference(cfg),
                              timings=timings)
    if not vires.converged:
        _write_report(out_dir, report)
        raise NotConvergedError("VI did not converge in %d iterations" % cfg.max_iters)

    log_full = join_logs(log_explore, simulate(
        plant, exo, known, im, vires.K_final, log_explore.final_state,
        (cfg.t_switch, cfg.t_end), cfg.h, diag=diag))
    lap("closed_loop_sim_s")
    traj_path = os.path.join(out_dir, "trajectory.csv")
    export_trajectory_csv(log_full, traj_path)
    files["trajectory"] = traj_path
    lap("trajectory_export_s")
    settle_mask = log_full.times >= cfg.settle_time
    report.tracking_max_error = float(np.abs(log_full.e[settle_mask]).max())
    track_path = os.path.join(out_dir, "tracking_error.csv")
    post = log_full.times >= cfg.t_switch
    with open(track_path, "w") as fh:
        fh.write("t," + ",".join("e_%d" % (i + 1) for i in range(log_full.e.shape[1])) + "\n")
        write_rows(fh, np.column_stack([log_full.times[post], log_full.e[post]]))
    files["tracking_error"] = track_path
    lap("other_exports_s")
    if not blinded and spec.state == "rho":
        if not spec.output_cost:
            K_opt = solve_care(aux.A_rho, aux.B_rho, vicfg.Q, vicfg.R).K
        else:
            t4 = verify_theorem4(plant, param, im, _qbar(cfg, plant.p, im.n_z), vicfg.R)
            K_opt = t4.K_rho
            report.theorem4_deviation = t4.deviation
            report.theorem4_gain_deviation = t4.gain_deviation
        report.gain_error = float(np.linalg.norm(vires.K_final - K_opt, "fro")
                                  / np.linalg.norm(K_opt, "fro"))
        if vires.E_rho_identified is not None:
            report.e_rho_error = float(np.linalg.norm(vires.E_rho_identified - aux.E_rho, "fro")
                                       / np.linalg.norm(aux.E_rho, "fro"))
    _write_report(out_dir, report)
    return report


def _write_report(out_dir, report):
    """Write report.json, then manifest.json naming every file written so far."""
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True, default=str)
    report.files["report"] = path
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump({k: os.path.basename(v) for k, v in report.files.items()},
                  fh, indent=2, sort_keys=True)
    report.files["manifest"] = path


def _paper_reference(cfg):
    """Published parameter values for the built-in scenarios, for auditability."""
    if cfg.name == "paper-e-zero":
        return {"reported_iterations": 8771, "P0": "0.01 I8", "eps_k": "8/(k+10)",
                "eps_conv": 0.05, "Q_y": 1, "Q_z": "I2", "R": 1}
    if cfg.name == "paper-e-nonzero":
        return {"reported_iterations": 10602, "P0": "0.1 I8", "eps_k": "20/(k+4000)",
                "eps_conv": 0.01, "Q_rho": "I8", "R": 1}
    return {}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@dataclass
class VerificationCheck:
    name: str
    ok: bool
    detail: str


@dataclass
class VerificationReport:
    checks: list

    @property
    def all_ok(self):
        return all(c.ok for c in self.checks)


def verify(cfg: ExperimentConfig) -> VerificationReport:
    """Run every model-based assumption and identity check; report, never raise."""
    checks = []
    A = np.atleast_2d(np.asarray(cfg.plant_a, dtype=float))
    B = np.atleast_2d(np.asarray(cfg.plant_b, dtype=float))
    C = np.atleast_2d(np.asarray(cfg.plant_c, dtype=float))
    rep = pbh_check(A, B, "stabilizable")
    checks.append(VerificationCheck("assumption1_stabilizable", rep.ok,
                                    "worst eigenvalue %s" % rep.worst_eigenvalue))
    rep = pbh_check(A, C, "observable")
    checks.append(VerificationCheck("assumption2_observable", rep.ok,
                                    "worst eigenvalue %s" % rep.worst_eigenvalue))
    S_hat = companion_from_alpha(np.asarray(cfg.exo_minpoly, dtype=float))
    margin = float(np.min(np.linalg.eigvals(S_hat).real))
    checks.append(VerificationCheck("assumption3_no_decaying_modes", margin >= -1e-9,
                                    "min Re eigenvalue %g" % margin))
    rep = transmission_zero_check(A, B, C, S_hat)
    checks.append(VerificationCheck("assumption4_transmission_zeros", rep.ok,
                                    "rank gap %d at %s" % (rep.worst_rank_gap,
                                                           rep.worst_eigenvalue)))
    if checks[0].ok and checks[1].ok:
        try:
            objs = build_objects(cfg)
            plant, im = objs.plant, objs.im
            L = place_observer_gain(plant.A, plant.C, _poles(cfg.observer_poles))
            param = compute_parameterization(plant, L, objs.known.companion.alpha)
            errs = parameterization_identity_errors(plant, param)
            worst = max(errs.values())
            checks.append(VerificationCheck("parameterization_identities",
                                            worst <= 1e-8,
                                            "max relative error %g" % worst))
            t4 = verify_theorem4(plant, param, im, _qbar(cfg, plant.p, im.n_z),
                                 _as_matrix(cfg.r, plant.m, "r"))
            checks.append(VerificationCheck("theorem4_identity",
                                            t4.deviation <= 1e-6
                                            and t4.gain_deviation <= 1e-6,
                                            "P deviation %g, K deviation %g"
                                            % (t4.deviation, t4.gain_deviation)))
            Y, J, _ = build_augmented_plant(plant, im)
            hurw, cl_margin = is_hurwitz(Y + J @ t4.K_xi)
            checks.append(VerificationCheck("augmented_closed_loop_hurwitz", hurw,
                                            "margin %g" % cl_margin))
            dims = (plant.n, plant.m, plant.p, objs.exo.q, im.n_z)
            counts = {meth: unknown_count(dims, meth)
                      for meth in ("chen", "xie", "alg3", "alg4")}
            checks.append(VerificationCheck("unknown_counts", True, json.dumps(counts)))
        except (ValueError, AssumptionError, RuntimeError) as exc:
            checks.append(VerificationCheck("oracle_construction", False, str(exc)))
    return VerificationReport(checks=checks)


# ---------------------------------------------------------------------------
# Presets (the two published scenarios)
# ---------------------------------------------------------------------------

_PLANT_A = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]]
_PLANT_B = [[0.0], [1.0], [0.0]]
_PLANT_C = [[1.0, 2.0, 3.0]]
_PLANT_F = [[0.5, -0.8]]
_TONES = [{"amplitude": 10.0, "frequency": 4.0, "phase": 0.0, "channel": 0},
          {"amplitude": 10.0, "frequency": 10.0, "phase": 0.0, "channel": 0},
          {"amplitude": 10.0, "frequency": 9.0, "phase": 0.0, "channel": 0},
          {"amplitude": -10.0, "frequency": 2.0, "phase": 0.0, "channel": 0},
          {"amplitude": -10.0, "frequency": 6.0, "phase": 0.0, "channel": 0}]
_K0 = [[10.0, 8.0, 0.0, 0.0, -4.0, -4.0]]


def preset_paper_e_zero() -> ExperimentConfig:
    """Tracking-only scenario (no disturbance input), learned with variant 6."""
    return ExperimentConfig(
        name="paper-e-zero",
        plant_a=_PLANT_A, plant_b=_PLANT_B, plant_c=_PLANT_C,
        plant_e=[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], plant_f=_PLANT_F,
        exo_minpoly=[1.0, 0.0], exo_v0=[1.0, 0.8], x0=[1.0, 2.0, -0.8],
        observer_poles=[-5.0, -6.0, -7.0], tones=_TONES, k0=_K0,
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
    """Tracking plus disturbance rejection, learned with variant 4."""
    return ExperimentConfig(
        name="paper-e-nonzero",
        plant_a=_PLANT_A, plant_b=_PLANT_B, plant_c=_PLANT_C,
        plant_e=[[2.0, 0.0], [0.0, 1.0], [3.0, 6.0]], plant_f=_PLANT_F,
        exo_minpoly=[1.0, 0.0], exo_v0=[1.0, 0.8], x0=[1.0, 2.0, -0.8],
        observer_poles=[-5.0, -6.0, -7.0], tones=_TONES, k0=_K0,
        grid_t0=4.0, grid_dt=0.2, grid_s=120, h=1e-3,
        variant=4, t_switch=28.0, t_end=80.0, settle_time=60.0,
        p0_scale=0.1, eps_num=20.0, eps_shift=4000.0, eps_conv=0.01,
        max_iters=31806, r=1.0, q_main=1.0,
        bound_scale=1000.0, bound_shift=200.0)


PRESETS = {
    "paper-e-zero": preset_paper_e_zero,
    "paper-e-nonzero": preset_paper_e_nonzero,
}
