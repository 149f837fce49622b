"""Shared fixtures.

The expensive artifacts (full preset pipelines, exploration logs, oracle
solutions) are session-scoped so the whole suite pays for each of them once.
"""

import os
import time

import numpy as np
import pytest
from hypothesis import settings

from regvi import vi
from regvi.experiment import (PRESETS, _oracle_objects, build_objects, make_vi_config,
                              run_experiment)
from regvi.internal_model import Exosystem, InternalModel
from regvi.observer import ObserverKnown
from regvi.oracle import solve_care
from regvi.regression import SamplingGrid, build_regression
from regvi.sim import LtiPlant, Tone, simulate, stack_state

# Property tests draw the same cases on every run: the seed comes from each
# test's own code, no example database is replayed, and no case has a deadline.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture
def counted_lstsq(monkeypatch):
    """The number of `vi._lstsq` calls so far, in a one-element list."""
    calls, lstsq = [0], vi._lstsq

    def counting(M, rhs):
        calls[0] += 1
        return lstsq(M, rhs)
    monkeypatch.setattr(vi, "_lstsq", counting)
    return calls


# ---------------------------------------------------------------------------
# Forked row writers
# ---------------------------------------------------------------------------

@pytest.fixture
def fork_pids(monkeypatch):
    """The pid of every child os.fork starts during the test."""
    pids, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


@pytest.fixture
def pin_cpus(monkeypatch):
    """pin_cpus(n) makes os.sched_getaffinity report n usable CPUs."""
    def pin(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return pin


# ---------------------------------------------------------------------------
# Full preset pipelines (acceptance tests)
# ---------------------------------------------------------------------------

def _timed_run(name, out_dir, blinded=False):
    cfg = PRESETS[name]()
    start = time.monotonic()
    report = run_experiment(cfg, str(out_dir), blinded=blinded)
    elapsed = time.monotonic() - start
    return {"cfg": cfg, "report": report, "out_dir": str(out_dir), "elapsed": elapsed}


@pytest.fixture(scope="session")
def zero_run(tmp_path_factory):
    return _timed_run("paper-e-zero", tmp_path_factory.mktemp("zero"))


@pytest.fixture(scope="session")
def zero_run_blinded(tmp_path_factory):
    return _timed_run("paper-e-zero", tmp_path_factory.mktemp("zero_blind"), blinded=True)


@pytest.fixture(scope="session")
def nonzero_run(tmp_path_factory):
    return _timed_run("paper-e-nonzero", tmp_path_factory.mktemp("nonzero"))


# ---------------------------------------------------------------------------
# Exploration logs and oracle quantities for the presets
# ---------------------------------------------------------------------------

def _exploration_log(cfg, objs):
    """The exploration phase as run_experiment runs it."""
    s0 = stack_state(objs.exo, objs.known, objs.im, cfg.x0, cfg.zeta0, cfg.z0)
    return simulate(objs.plant, objs.exo, objs.known, objs.im, np.array(cfg.k0), s0,
                    (0.0, cfg.t_switch), cfg.h, [Tone(**t) for t in cfg.tones])


@pytest.fixture(scope="session")
def nonzero_setup():
    """Preset with E != 0: config, objects, exploration log, oracle solution."""
    cfg = PRESETS["paper-e-nonzero"]()
    objs = build_objects(cfg)
    log = _exploration_log(cfg, objs)
    aux = _oracle_objects(objs)
    vicfg = make_vi_config(cfg, objs)
    Q_rho = vicfg.Q
    sol = solve_care(aux.A_rho, aux.B_rho, Q_rho, vicfg.R)
    grid = SamplingGrid(t0=cfg.grid_t0, dt=cfg.grid_dt, s=cfg.grid_s)
    return {"cfg": cfg, "objs": objs, "log": log, "L": aux.L, "aux": aux,
            "vicfg": vicfg, "Q_rho": Q_rho, "sol": sol, "grid": grid}


@pytest.fixture(scope="session")
def zero_setup():
    """Preset with E = 0: config, objects, exploration log, oracle matrices."""
    cfg = PRESETS["paper-e-zero"]()
    objs = build_objects(cfg)
    log = _exploration_log(cfg, objs)
    aux = _oracle_objects(objs)
    vicfg = make_vi_config(cfg, objs)
    grid = SamplingGrid(t0=cfg.grid_t0, dt=cfg.grid_dt, s=cfg.grid_s)
    return {"cfg": cfg, "objs": objs, "log": log, "L": aux.L, "aux": aux,
            "vicfg": vicfg, "grid": grid}


# ---------------------------------------------------------------------------
# Small full-state scenario (variant 1): random stable 3-state plant
# ---------------------------------------------------------------------------

def make_random_plant(seed=12345):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (3, 3))
    A = A - (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(3)
    B = rng.uniform(-1.0, 1.0, (3, 1))
    C = rng.uniform(-1.0, 1.0, (1, 3))
    return LtiPlant(A=A, B=B, C=C, E=np.zeros((3, 1)), F=np.zeros((1, 1)))


@pytest.fixture(scope="session")
def fullstate_setup():
    """Random stable 3-state plant, trivial exosystem, full-state exploration data."""
    plant = make_random_plant()
    exo = Exosystem([[0.0]], [0.0])     # single integrator held at zero
    known = ObserverKnown.from_poles(np.array([-2.0, -3.0, -4.0]), plant.m, plant.p)
    im = InternalModel([0.0], plant.p)
    tones = [Tone(1.0, 1.0), Tone(1.0, 2.7), Tone(1.0, 5.3), Tone(1.0, 9.1)]
    K = np.zeros((1, known.n_zeta + im.n_z))
    log = simulate(plant, exo, known, im, K,
                   stack_state(exo, known, im, [1.0, -1.0, 0.5]), (0.0, 6.0), 1e-3, tones)
    grid = SamplingGrid(t0=1.0, dt=0.1, s=40)
    data = build_regression(log, grid, 1)
    sol = solve_care(plant.A, plant.B, np.eye(3), np.eye(1))
    return {"plant": plant, "exo": exo, "known": known, "im": im,
            "log": log, "grid": grid, "data": data, "sol": sol}
