"""The learner's model-free boundary, checked on the import graph itself."""

import ast
import os
import shutil
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

import regvi
from regvi.experiment import learn_from_log
from regvi.sim import LtiPlant

PACKAGE = Path(regvi.__file__).parent
LEARNER = ("linalg", "observer", "internal_model", "regression", "vi")
FILE_IO = {"csvrows", "os", "json", "tempfile", "shutil"}


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


def test_readme_layout_has_one_row_per_module():
    """README's "Library layout" table has exactly one row per module of the
    package (not `__init__` or `__main__`), so renaming or removing a module
    without its row fails here."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip() for line in section.splitlines()
            if line.startswith("| `regvi.")]
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(rows) == sorted("`regvi.%s`" % m for m in modules)


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


def _imports(module):
    """Every module that module imports: siblings by name, others by top-level package."""
    tree = ast.parse((PACKAGE / (module + ".py")).read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    return _relative_imports(module) | {
        name.split(".")[1] if name.startswith("regvi.") else name.split(".")[0]
        for name in names}


def _calls(module, names):
    """The line of each call in module of a function or method named in names."""
    tree = ast.parse((PACKAGE / (module + ".py")).read_text())
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & names]


def _defined(module):
    """The module-level functions and classes of module, and the members (fields,
    methods, properties) of its classes."""
    tree = ast.parse((PACKAGE / (module + ".py")).read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    members = {getattr(node, "name", None) or getattr(node.target, "id", None)
               for cls in classes for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AnnAssign))}
    names = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return names, members


def test_oracle_is_reached_from_experiment_alone():
    """Only experiment imports the oracle.  The simulator is physics: sim
    defines LtiPlant and imports nothing from the oracle, and no function of
    sim takes an oracle object -- sim names no class or function of the oracle
    and reads no attribute of an oracle class that the classes of sim and of
    the modules it imports lack."""
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert [m for m in modules if "oracle" in _imports(m)] == ["experiment"]
    assert "LtiPlant" in _defined("sim")[0] and "oracle" not in _imports("sim")
    oracle_names, oracle_members = _defined("oracle")
    oracle_only = oracle_members - set().union(
        *(_defined(m)[1] for m in modules if m == "sim" or m in _imports("sim")))
    tree = ast.parse((PACKAGE / "sim.py").read_text())
    assert not {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} & oracle_names
    read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert oracle_only >= {"M", "X_prime", "A_rho", "E_rho"} and not read & oracle_only


def test_only_experiment_writes_files():
    """Only experiment imports the CSV writer, and only the CSV writer forks,
    kills or reaps a process.  The learner and the simulator import no file-I/O
    module and call no open, so they do no file I/O."""
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert [m for m in modules if "csvrows" in _imports(m)] == ["experiment"]
    assert [m for m in modules if _calls(m, {"fork", "kill", "waitpid"})] == ["csvrows"]
    for module in (*LEARNER, "sim"):
        assert not _imports(module) & FILE_IO, module
        assert not _calls(module, {"open"}), module


def test_arrays_are_made_where_the_config_enters():
    """Outside experiment, which reads the config, only a dataclass's
    __post_init__ converts values to arrays: every other function takes float
    ndarrays and calls no np.asarray, np.asanyarray or np.atleast_*d."""
    coercions = {"asarray", "asanyarray", "atleast_1d", "atleast_2d", "atleast_3d"}
    stray = []
    for path in PACKAGE.glob("*.py"):
        if path.stem != "experiment":
            inits = [range(node.lineno, node.end_lineno + 1)
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"]
            stray += [(path.stem, line) for line in _calls(path.stem, coercions)
                      if not any(line in init for init in inits)]
    assert not stray, sorted(stray)


def _names(tree):
    """Every name tree reads, sets or imports, and every attribute it takes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_helper_has_a_caller():
    """Every module-level function and class of the package is named somewhere in
    it besides its own definition, so no helper outlives its last caller."""
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    named = Counter(name for tree in trees.values() for name in _names(tree))
    unused = [(module, node.name) for module, tree in trees.items() if module != "__init__"
              for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and named[node.name] == Counter(_names(node))[node.name]]
    assert not unused, sorted(unused)


def _imports_scipy(node):
    """Whether node is an import statement that imports scipy or a submodule."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    else:
        return False
    return any(name.split(".")[0] == "scipy" for name in names)


def test_learner_imports_no_scipy():
    """The learner is numpy only: no learner module imports scipy, at any depth."""
    for module in LEARNER:
        tree = ast.parse((PACKAGE / (module + ".py")).read_text())
        assert not any(_imports_scipy(node) for node in ast.walk(tree)), module


def test_scipy_is_imported_only_inside_a_function():
    """No module imports scipy at module level, so `import regvi` never pays for
    it; the one function that does is pole placement for p > 1."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if _imports_scipy(node):
                owners = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                found.append((path.stem, max(owners, key=lambda f: f.lineno).name
                              if owners else None))
    assert found == [("oracle", "place_observer_gain")]


def _named(name):
    """(module, innermost function or None) of every node of the package that
    names `name`, as a call, a bound name or an import."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if name in (getattr(node, "attr", None), getattr(node, "id", None),
                        getattr(node, "name", None)):
                owners = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                found.append((path.stem, max(owners, key=lambda f: f.lineno).name
                              if owners else None))
    return found


def test_lstsq_is_named_only_inside_vi_lstsq():
    """numpy's lstsq is reached only through `vi._lstsq`: no other function,
    and no module-level code, of the package names it, as a call, a bound name
    or an import.  So the one least-squares fit that is not a triangular
    solve on the stage's R factor, the identification of E, applies the one
    rank rule."""
    assert _named("lstsq") == [("vi", "_lstsq")]


def test_inv_is_named_nowhere():
    """No code of the package names numpy's inv: every linear system is
    solved."""
    assert _named("inv") == []


def test_import_leaves_scipy_signal_unloaded():
    """Importing regvi, parsing both presets and running every oracle solver on
    them (the parameterization, the regulator Sylvester equation, the CAREs and
    the theorem-4 check) loads no scipy module at all: the solvers are numpy's,
    and scipy.signal is imported only to place poles with p > 1."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import regvi
        from regvi.experiment import (PRESETS, _oracle_objects, _qbar, build_objects,
                                      make_vi_config, parse_config, serialize_config)
        from regvi.oracle import solve_care, verify_theorem4
        for name in PRESETS:
            cfg = parse_config(serialize_config(PRESETS[name]()))
            objs = build_objects(cfg)
            aux = _oracle_objects(objs)
            R = make_vi_config(cfg, objs).R
            solve_care(aux.A_rho, aux.B_rho, np.eye(aux.A_rho.shape[0]), R)
            verify_theorem4(objs.plant, aux, objs.im, _qbar(cfg, objs.plant.p, objs.im.n_z), R)
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
    """)
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


ORACLE_OBJECTS = ("place_observer_gain", "compute_parameterization", "build_augmented_aux")


def test_perfbench_traced_names_are_called(tmp_path, monkeypatch):
    """Every name the tracer rebinds in regvi.experiment is also called through
    that namespace by an unblinded run: variant 4 compares its gain with
    solve_care, variant 6 with verify_theorem4.  Each run simulates twice
    and exports the trajectory once, as the per-layer metrics assume, and
    builds each oracle object once; so does verify of each preset."""
    import json

    import regvi.experiment as experiment
    experiment_names, _ = _perfbench_names()
    calls = []
    for name in experiment_names:
        def counted(*args, _name=name, _fn=getattr(experiment, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(experiment, name, counted)
    seen = set()
    for preset in ("paper-e-nonzero", "paper-e-zero"):
        payload = json.loads(experiment.serialize_config(experiment.PRESETS[preset]()))
        payload.update(t_end=30.0, settle_time=29.0)
        cfg = experiment.parse_config(json.dumps(payload))
        calls.clear()
        experiment.run_experiment(cfg, str(tmp_path / preset))
        assert calls.count("export_trajectory_csv") == 1 and calls.count("simulate") == 2
        assert [calls.count(name) for name in ORACLE_OBJECTS] == [1, 1, 1], calls
        seen.update(calls)
        calls.clear()
        assert all(ok for _, ok, _ in experiment.verify(cfg))
        assert [calls.count(name) for name in ORACLE_OBJECTS] == [1, 1, 1], calls
    assert seen == set(experiment_names), sorted(set(experiment_names) - seen)


def test_perfbench_selftest_passes(tmp_path):
    """The benchmark harness's own self-tests pass against this src/, so a
    change that breaks the tracer's assumptions fails here.  They run on a
    copy, because they write and then delete a work directory beside src/."""
    root = PACKAGE.parents[1]
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("perfbench", "src"):
        shutil.copytree(root / name, tmp_path / name, ignore=ignore)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "selftest.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]


def test_package_exports_resolve():
    missing = [name for name in regvi.__all__ if not hasattr(regvi, name)]
    assert not missing, missing


def test_learner_runs_on_known_matrices_only(nonzero_setup, nonzero_run):
    """learn_from_log takes the log, the variant, the grid and the loop
    parameters with the known input block -- no plant -- and learns the run's gain."""
    known, im = nonzero_setup["objs"].known, nonzero_setup["objs"].im
    B_rho = np.vstack([known.B_zeta, np.zeros((im.n_z, known.B_zeta.shape[1]))])
    vicfg = replace(nonzero_setup["vicfg"], B=B_rho)
    args = (nonzero_setup["log"], 4, nonzero_setup["grid"], vicfg)
    assert not any(isinstance(arg, LtiPlant) for arg in args)
    _, verdict, result = learn_from_log(*args)
    assert verdict.satisfied and result.converged
    gain = np.loadtxt(Path(nonzero_run["out_dir"]) / "learned_gain.csv", delimiter=",", ndmin=2)
    assert np.array_equal(result.K_final, gain)
