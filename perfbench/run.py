"""regvi benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every run of the pipeline happens in a fresh
child process (perfbench/child.py), one at a time, with the BLAS thread count
pinned.  Times are reported in seconds at nominal host speed (speed.py), with
the wall seconds beside them.  The timed runs use the workload's published
configuration (seed 0); a nonzero seed adds one held-out run on that seed's
configuration, which is gated and counted like the others but kept out of
the timings because its work (VI iterations) differs.  With --trace 0 the last stdout line carries
the end-to-end metrics; with --trace 1 it alternates traced and untraced
runs and carries the per-layer metrics.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")

# The stage matrices are at most 120 x 52, too small for threaded BLAS to
# help; one thread also keeps the two cores of a small machine from being
# contended by the library itself.
BLAS_THREADS = 1
MIN_TIMED_RUNS = 3
# Past this many seconds no child is started and a running one is killed, so
# the harness always ends within three minutes.
HARD_LIMIT_S = 170.0

# Correctness gate: the contracts of tests/test_acceptance.py test_04-06.
ITERATION_BUDGET = 3          # x the published iteration count
GATE_LIMITS = {"gain_rel_err": 0.05, "e_rho_rel_err": 0.01, "tracking_max_err": 1e-2}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "setup.import_s": "s", "experiment.validate_s": "s",
    "sim.explore_s": "s", "sim.explore_steps": "count",
    "sim.closed_loop_s": "s", "sim.closed_loop_steps": "count",
    "sim.us_per_step": "us", "sim.export_s": "s", "sim.export_bytes": "bytes",
    "regression.build_s": "s", "regression.rows": "count",
    "regression.unknowns": "count", "regression.rank_s": "s",
    "regression.rank_calls": "count", "regression.cond": "1",
    "regression.rank_margin": "1", "regression.export_s": "s",
    "vi.run_s": "s", "vi.iters": "count", "vi.resets": "count",
    "vi.us_per_iter": "us", "vi.useful_iter_frac": "1", "vi.export_s": "s",
    "oracle.s": "s", "oracle.calls": "count",
    "experiment.self_s": "s", "experiment.out_bytes": "bytes",
    "trace.overhead_s": "s",
    "run.wall_s": "s", "setup.wall_s": "s", "host.speed": "1",
    "gain_rel_err": "1", "tracking_max_err": "1", "ops_failed_frac": "1",
}


class HarnessError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed pipeline run)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def call_child(request, timeout=HARD_LIMIT_S):
    """Run child.py on one request; returns (reply or None, wall seconds, error)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, CHILD], input=json.dumps(request),
                              capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, "child timed out after %gs" % timeout
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, wall, "child exited %d: %s" % (proc.returncode, tail[0])
    return json.loads(lines[-1]), wall, None


def run_once(config_text, trace, label, timeout=HARD_LIMIT_S):
    """One pipeline run in a fresh child; artifacts are deleted afterwards."""
    os.makedirs(WORK, exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=WORK)
    try:
        reply, wall, error = call_child(
            {"config": config_text, "out_dir": out_dir, "trace": trace}, timeout)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = reply if reply is not None else {"status": "failed", "error": error}
    result.update(label=label, traced=trace, wall_s=wall)
    result["gate_misses"] = gate(result)
    return result


def gate(r):
    """Reasons a run misses the correctness gate; empty when it passes."""
    if r["status"] != "ok":
        return [r["error"]]
    misses = []
    if not r["converged"]:
        misses.append("not converged")
    if r["rank"] < r["rank_required"]:
        misses.append("rank %d < %d" % (r["rank"], r["rank_required"]))
    if r["reported_iterations"] and r["iters"] > ITERATION_BUDGET * r["reported_iterations"]:
        misses.append("%d iterations > %d x %d published"
                      % (r["iters"], ITERATION_BUDGET, r["reported_iterations"]))
    for key, limit in GATE_LIMITS.items():
        value = r[key]
        if value is None:
            if key != "e_rho_rel_err":     # only variants 4 and 6 identify E
                misses.append("%s not reported" % key)
        elif not value <= limit:           # also catches NaN
            misses.append("%s = %.3g > %g" % (key, value, limit))
    return misses


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    p = int(100 * (1 - 10 / len(values)))
    if p < 50:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def describe(name, values, unit):
    med = statistics.median(values)
    tail = tail_percentile(values)
    extra = ("p%d %.6g" % tail) if tail else "no tail percentile below n=20"
    return "%-26s %.6g %s  (median of n=%d; %s)" % (name, med, unit, len(values), extra)


def environment():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "loadavg_at_start": os.getloadavg(),
            "blas_threads": BLAS_THREADS}


def measure(workload, seed, seconds, trace):
    """All runs of one benchmark invocation; returns (runs, env record)."""
    start = time.perf_counter()
    remaining = lambda: start + HARD_LIMIT_S - time.perf_counter()
    env = environment()
    seeds = [0] + ([seed] if seed else [])
    reply, _, error = call_child({"make_config": [workload] + seeds}, remaining())
    if reply is None:
        raise HarnessError("cannot generate the %s config: %s" % (workload, error))
    configs = reply["configs"]
    env.update(reply["versions"])
    runs = []
    if seed:
        runs.append(run_once(configs[str(seed)], False, "heldout seed %d" % seed,
                             remaining()))
    deadline = start + seconds
    traced_next = bool(trace)
    while remaining() > 0:
        timed = [r for r in runs if r["label"] == "seed 0"]
        kinds = {r["traced"] for r in timed}
        enough = len(timed) >= MIN_TIMED_RUNS and (not trace or kinds == {False, True})
        typical = statistics.median(r["wall_s"] for r in runs) if runs else 0.0
        if enough and time.perf_counter() + typical > deadline:
            break
        runs.append(run_once(configs["0"], traced_next, "seed 0", remaining()))
        traced_next = bool(trace) and not traced_next
    return runs, env


def summarize(runs, trace):
    """Print every run and metric; return the final JSON object."""
    failed = [r for r in runs if r["gate_misses"]]
    timed = [r for r in runs if r["label"] == "seed 0" and r["status"] == "ok"]
    untraced = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    wrong = [r for r in failed if r["status"] == "ok"]
    digests = {json.dumps(r["digests"], sort_keys=True) for r in timed}
    for r in runs:
        print("run %-16s traced=%d status=%s run_s=%s wall_s=%s cpu_s=%s speed=%s"
              " setup_s=%s setup_wall_s=%s iters=%s rss_mb=%.1f gate=%s digests=%s" % (
                  r["label"], r["traced"], r["status"],
                  "%.4f" % r["run_norm_s"] if "run_norm_s" in r else "-",
                  "%.4f" % r["run_s"] if "run_s" in r else "-",
                  "%.4f" % r["run_cpu_s"] if "run_cpu_s" in r else "-",
                  "%.3f" % r["run_speed"] if "run_speed" in r else "-",
                  "%.4f" % r["setup_norm_s"] if "setup_norm_s" in r else "-",
                  "%.4f" % (r["import_s"] + r["parse_s"]) if "parse_s" in r else "-",
                  r.get("iters", "-"), r.get("maxrss_mb", 0.0),
                  "pass" if not r["gate_misses"] else "; ".join(r["gate_misses"]),
                  json.dumps(r.get("digests", {}), sort_keys=True)))
    if not untraced:
        raise HarnessError("no untraced run of the published config succeeded")
    if len(digests) > 1:
        print("learner artifacts differ between runs of the same config")

    samples = {
        "run_s": [r["run_norm_s"] for r in untraced],
        "setup_s": [r["setup_norm_s"] for r in runs if "setup_norm_s" in r],
        "peak_rss_mb": [r["maxrss_mb"] for r in untraced],
    }
    for name, unit in END_TO_END.items():
        print("metric " + describe(name, samples[name], unit))
    print("wall   " + describe("run_s", [r["run_s"] for r in untraced], "s"))
    print("wall   " + describe("setup_s", [r["import_s"] + r["parse_s"] for r in runs
                                           if "parse_s" in r], "s"))
    print("speed  " + describe("host", [r["run_speed"] for r in untraced], "x nominal"))
    results = {key: statistics.median(r[key] for r in timed)
               for key in GATE_LIMITS if timed[0][key] is not None}
    results["ops_failed_frac"] = len(failed) / len(runs)
    for key, value in results.items():
        print("result %-26s %.6g" % (key, value))

    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END.items()}
    if trace:
        if not traced:
            raise HarnessError("no traced run of the published config succeeded")
        last = traced[-1]
        for s in last["spans"]:
            print("span %-24s parent=%-16s start=%.6f end=%.6f"
                  % (s["name"], s["parent"], s["start_s"], s["end_s"]))
        root = next(s for s in last["spans"] if s["name"] == "run_experiment")
        kids = sum(s["end_s"] - s["start_s"] for s in last["spans"]
                   if s["parent"] == "run_experiment")
        print("accounting run_experiment span %.6f s = child spans %.6f s + self %.6f s;"
              " child-measured run_s %.6f s" % (root["end_s"] - root["start_s"], kids,
                                                last["layers"]["experiment.self_s"],
                                                last["run_s"]))
        if last["missing"]:
            print("missing (renamed or removed): " + ", ".join(last["missing"]))
        layers = {}
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            layers[name] = None if None in values else statistics.median(values)
        layers["trace.overhead_s"] = (statistics.median(r["run_norm_s"] for r in traced)
                                      - metrics["run_s"]["value"])
        layers["run.wall_s"] = statistics.median(r["run_s"] for r in untraced)
        layers["setup.wall_s"] = statistics.median(
            r["import_s"] + r["parse_s"] for r in runs if "parse_s" in r)
        layers["host.speed"] = statistics.median(r["run_speed"] for r in untraced)
        layers.update(results)
        metrics = {name: {"value": layers.get(name), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        for name, entry in metrics.items():
            print("layer %-26s %s %s" % (name, entry["value"], entry["unit"]))
    return {"correct": not wrong and len(digests) <= 1, "attempted": len(runs),
            "failed": len(failed), "metrics": metrics}


def _terminate(signum, frame):
    sys.exit(128 + signum)     # unwinds through subprocess.run, which kills the child


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "regvi", "__init__.py")):
        sys.exit("perfbench: regvi sources not found under %s" % SRC)
    try:
        runs, env = measure(args.workload, args.seed, args.seconds, args.trace)
        print("env " + json.dumps(env, sort_keys=True))
        result = summarize(runs, args.trace)
    except HarnessError as exc:
        sys.exit("perfbench: %s" % exc)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
