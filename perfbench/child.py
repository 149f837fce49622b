"""One benchmark run in a fresh process.

Reads a JSON request on stdin and prints one JSON line on stdout.

  {"make_config": [workload, seed, ...]}  generate each seed's config text,
      check it with parse_config, and report the library versions.
  {"config": text, "out_dir": path, "trace": bool}  time `import regvi` and
      parse_config, then run_experiment(cfg, out_dir), each in wall seconds
      and in seconds at nominal host speed (speed.py); with trace on, also
      record spans around every pipeline layer and derive the per-layer
      metrics from them.

The program is reached only through its public API and the names its
modules look up at call time; nothing under src/ is edited.  numpy and regvi
are imported inside functions, so that `import regvi` in a run is timed cold.
"""

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback

from speed import SpeedProbe
from tracer import Tracer
from workloads import PHASE_HALF_WIDTH, WORKLOADS

ORACLE_NAMES = ("place_observer_gain", "compute_parameterization",
                "build_augmented_aux", "solve_care", "verify_theorem4")
EXPERIMENT_NAMES = ("validate_config", "simulate", "export_trajectory_csv",
                    "learn_from_log", "build_regression", "check_rank",
                    "export_regression_csv", "vi_run", "export_history_csv"
                    ) + ORACLE_NAMES
VI_NAMES = ("check_rank",)
DIGEST_FILES = ("learned_gain.csv", "vi_history.csv")


def make_config(workload, seed):
    """JSON config text for a workload; seed 0 is the preset unchanged."""
    import numpy as np
    from regvi import PRESETS, serialize_config
    preset, overrides = WORKLOADS[workload]
    cfg = json.loads(serialize_config(PRESETS[preset]()))
    cfg.update(overrides)
    if seed:
        rng = np.random.default_rng(seed)
        for tone in cfg["tones"]:
            tone["phase"] = float(rng.uniform(-PHASE_HALF_WIDTH, PHASE_HALF_WIDTH))
    return json.dumps(cfg, indent=2, sort_keys=True)


def versions():
    import numpy
    import scipy
    blas = lambda mod: mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": "%s %s" % (blas(numpy)["name"], blas(numpy)["version"]),
            "scipy_blas": "%s %s" % (blas(scipy)["name"], blas(scipy)["version"])}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def stage_matrix(data, variant):
    """The matrix regression.check_rank tests for the variant."""
    import numpy as np
    if variant == 1:
        return np.hstack([data.I_aa, data.I_au])
    if variant in (3, 5):
        return np.hstack([data.I_aa, data.Gamma_av])
    return data.I_aa


def _dur(span):
    return None if span is None else span.duration


def _nth(spans, k):
    return spans[k] if len(spans) > k else None


def layer_metrics(tracer, run_span, parse_span, out_dir, variant):
    """Per-layer metrics of one traced run; None where a layer is missing."""
    import numpy as np
    total = tracer.total
    m = {}
    validates = [s for s in tracer.named("validate_config")
                 if s.parent == tracer.spans.index(parse_span)]
    m["experiment.validate_s"] = _dur(_nth(validates, 0))

    sims = tracer.named("simulate")
    explore, closed = _nth(sims, 0), _nth(sims, 1)
    steps = lambda s: None if s is None or s.result is None else s.result.times.size - 1
    m["sim.explore_s"], m["sim.explore_steps"] = _dur(explore), steps(explore)
    m["sim.closed_loop_s"], m["sim.closed_loop_steps"] = _dur(closed), steps(closed)
    m["sim.us_per_step"] = None
    if None not in (m["sim.explore_s"], m["sim.closed_loop_s"],
                    m["sim.explore_steps"], m["sim.closed_loop_steps"]):
        m["sim.us_per_step"] = 1e6 * (m["sim.explore_s"] + m["sim.closed_loop_s"]) / (
            m["sim.explore_steps"] + m["sim.closed_loop_steps"])
    m["sim.export_s"] = total("export_trajectory_csv")
    traj = os.path.join(out_dir, "trajectory.csv")
    m["sim.export_bytes"] = os.path.getsize(traj) if os.path.exists(traj) else None

    build = _nth(tracer.named("build_regression"), 0)
    data = None if build is None else build.result
    ranks = tracer.named("check_rank")
    learn_idx = [tracer.spans.index(s) for s in tracer.named("learn_from_log")]
    verdict = next((s.result for s in ranks if s.parent in learn_idx), None)
    m["regression.build_s"] = total("build_regression")
    m["regression.rows"] = None if data is None else data.I_aa.shape[0]
    m["regression.unknowns"] = None if verdict is None else verdict.required
    m["regression.rank_s"] = total("check_rank")
    m["regression.rank_calls"] = None if m["regression.rank_s"] is None else len(ranks)
    m["regression.cond"] = m["regression.rank_margin"] = None
    if data is not None and verdict is not None:
        M = stage_matrix(data, variant)
        sv = np.linalg.svd(M, compute_uv=False)
        threshold = max(M.shape) * np.finfo(float).eps * sv[0]
        m["regression.cond"] = float(sv[0] / sv[-1])
        m["regression.rank_margin"] = float(sv[verdict.required - 1] / threshold)
    m["regression.export_s"] = total("export_regression_csv")

    vi = _nth(tracer.named("vi_run"), 0)
    res = None if vi is None else vi.result
    m["vi.run_s"] = total("vi_run")
    m["vi.iters"] = None if res is None else res.iters
    m["vi.resets"] = None if res is None else res.resets
    m["vi.us_per_iter"] = None if res is None else 1e6 * m["vi.run_s"] / res.iters
    m["vi.useful_iter_frac"] = None if res is None else float(
        np.mean(res.history[:, 1] == res.history[-1, 1]))
    m["vi.export_s"] = total("export_history_csv")

    oracle = [total(name) for name in ORACLE_NAMES]
    m["oracle.s"] = None if None in oracle else sum(oracle)
    m["oracle.calls"] = None if None in oracle else sum(
        len(tracer.named(name)) for name in ORACLE_NAMES)
    m["experiment.self_s"] = tracer.self_time(run_span)
    return m


def run(request):
    probe = SpeedProbe()
    probe.start()
    try:
        out = _run(request)
    finally:
        probe.stop()
    setup = (out.pop("_t0"), out.pop("_t1", None))
    if setup[1] is not None:
        out["setup_norm_s"] = probe.normalised(*setup)
        out["setup_speed"] = probe.speed(*setup)
    if "_t2" in out:
        timed = (out.pop("_t2"), out.pop("_t3"))
        out["run_norm_s"] = probe.normalised(*timed)
        out["run_speed"] = probe.speed(*timed)
    out["probes"] = len(probe.samples)
    return out


def _run(request):
    t0 = time.perf_counter()
    import regvi
    from regvi import experiment, vi
    out = {"import_s": time.perf_counter() - t0, "_t0": t0}
    tracer = Tracer() if request["trace"] else None
    if tracer:
        tracer.install(experiment, EXPERIMENT_NAMES)
        tracer.install(vi, VI_NAMES)
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    out_dir = request["out_dir"]
    cfg = None
    try:
        t1 = time.perf_counter()
        with span("parse_config") as parse_span:
            cfg = regvi.parse_config(request["config"])
        out["_t1"] = time.perf_counter()
        out["parse_s"] = out["_t1"] - t1
        t2, c2 = time.perf_counter(), time.process_time()
        try:
            with span("run_experiment") as run_span:
                report = regvi.run_experiment(cfg, out_dir)
        finally:
            out["_t3"] = time.perf_counter()
            out["_t2"] = t2
            out["run_s"] = out["_t3"] - t2
            out["run_cpu_s"] = time.process_time() - c2
        out.update(status="ok", error=None, iters=report.iters,
                   resets=report.resets, converged=report.converged,
                   rank=report.rank, rank_required=report.rank_required,
                   reported_iterations=report.paper_reference.get("reported_iterations"),
                   gain_rel_err=report.gain_error, e_rho_rel_err=report.e_rho_error,
                   tracking_max_err=report.tracking_max_error)
    except Exception as exc:  # every failure is reported to the harness, never dropped
        where = traceback.extract_tb(exc.__traceback__)[-1]
        out.update(status="failed", error="%s: %s (%s:%d in %s)" % (
            type(exc).__name__, exc, os.path.basename(where.filename), where.lineno,
            where.name))
        history = os.path.join(out_dir, "vi_history.csv")
        if os.path.exists(history):
            with open(history) as fh:
                out["iters"] = sum(1 for _ in fh) - 1
    out["digests"] = {name: _sha256(os.path.join(out_dir, name))
                      for name in DIGEST_FILES
                      if os.path.exists(os.path.join(out_dir, name))}
    out["out_bytes"] = _dir_bytes(out_dir)
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.restore()
        out["missing"] = tracer.missing
        out["spans"] = tracer.records()
        if cfg is not None and out.get("run_s") is not None:
            layers = layer_metrics(tracer, run_span, parse_span, out_dir, cfg.variant)
            layers["setup.import_s"] = out["import_s"]
            layers["experiment.out_bytes"] = out["out_bytes"]
            out["layers"] = layers
    return out


def main():
    request = json.loads(sys.stdin.read())
    if "make_config" in request:
        import regvi
        workload, *seeds = request["make_config"]
        configs = {}
        for seed in seeds:
            configs[str(seed)] = make_config(workload, seed)
            regvi.parse_config(configs[str(seed)])
        print(json.dumps({"configs": configs, "versions": versions()}))
    else:
        print(json.dumps(run(request)))


if __name__ == "__main__":
    main()
