"""The learner's model-free boundary, checked on the import graph itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import regvi
from regvi.experiment import learn_from_log
from regvi.oracle import LtiPlant

PACKAGE = Path(regvi.__file__).parent
LEARNER = ("linalg", "observer", "internal_model", "regression", "vi")


def _relative_imports(module):
    """Sibling modules named by every `from .x import ...`, at any depth."""
    tree = ast.parse((PACKAGE / (module + ".py")).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_relative_imports_are_found():
    assert _relative_imports("experiment") >= {"oracle", "sim", "vi", "linalg"}


def test_learner_never_reaches_oracle_or_plant_simulation():
    reached, todo = set(), list(LEARNER)
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(_relative_imports(module))
    assert not reached & {"oracle", "sim"}, sorted(reached)


def test_learner_imports_no_scipy():
    """The learner is numpy only: no learner module imports scipy, at any depth."""
    for module in LEARNER:
        tree = ast.parse((PACKAGE / (module + ".py")).read_text())
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
        names += [node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 0]
        assert not [name for name in names if name.split(".")[0] == "scipy"], module


def test_import_leaves_scipy_signal_unloaded():
    """scipy.signal (pole placement for p > 1 only) is imported where it is used,
    and no quadrature needs scipy.integrate."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = ("import sys, regvi; "
            "assert not {'scipy.signal', 'scipy.integrate'} & set(sys.modules)")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _perfbench_names():
    """The tuples of module-level names perfbench/child.py traces, read by ast."""
    tree = ast.parse((PACKAGE.parents[1] / "perfbench" / "child.py").read_text())
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            names[node.targets[0].id] = node.value

    def literal(node):    # a tuple literal, a name bound to one, or their sum
        if isinstance(node, ast.BinOp):
            return literal(node.left) + literal(node.right)
        if isinstance(node, ast.Name):
            return literal(names[node.id])
        return ast.literal_eval(node)
    return literal(names["EXPERIMENT_NAMES"]), literal(names["VI_NAMES"])


def test_perfbench_traced_names_exist():
    """Every name the benchmark's tracer rebinds is still a callable of its
    module, so no per-layer metric silently turns into `missing`."""
    import regvi.experiment
    import regvi.vi
    experiment_names, vi_names = _perfbench_names()
    assert "vi_run" in experiment_names and "check_rank" in vi_names
    for module, names in ((regvi.experiment, experiment_names), (regvi.vi, vi_names)):
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, (module.__name__, missing)


def test_learner_runs_on_known_matrices_only(nonzero_setup, nonzero_run):
    """learn_from_log takes the log, the variant, the grid, the known input
    block and the loop parameters -- no plant -- and learns the run's gain."""
    known, im = nonzero_setup["objs"].known, nonzero_setup["objs"].im
    B_rho = np.vstack([known.B_zeta, np.zeros((im.n_z, known.B_zeta.shape[1]))])
    args = (nonzero_setup["log"], 4, nonzero_setup["grid"], B_rho, nonzero_setup["vicfg"])
    assert not any(isinstance(arg, LtiPlant) for arg in args)
    _, verdict, result = learn_from_log(*args)
    assert verdict.satisfied and result.converged
    gain = np.loadtxt(Path(nonzero_run["out_dir"]) / "learned_gain.csv", delimiter=",", ndmin=2)
    assert np.array_equal(result.K_final, gain)
