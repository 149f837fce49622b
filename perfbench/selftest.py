"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py        (from the repository root, ~15 s)

Kept out of the project's pytest suite on purpose (the file name does not
match test_*.py): they check the harness, not regvi.
"""

import json
import os
import shutil
import signal
import sys
import tempfile
import time
import types
import unittest
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import child  # noqa: E402
import run  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


def tearDownModule():
    shutil.rmtree(run.WORK, ignore_errors=True)


def short_config(**changes):
    """nonzero-v4 at seed 0 with the given fields replaced."""
    cfg = json.loads(child.make_config("nonzero-v4", 0))
    cfg.update(changes)
    return json.dumps(cfg)


class TracerTest(unittest.TestCase):
    def test_traced_run_gives_learner_layers_their_parent(self):
        # A 1 s closed loop keeps this quick; the tracking gate may then miss,
        # which does not matter for the span tree.
        r = run.run_once(short_config(t_end=29.0, settle_time=28.5), True, "seed 0")
        self.assertEqual(r["missing"], [])
        parents = {(s["name"], s["parent"]) for s in r["spans"]}
        for name in ("build_regression", "check_rank", "vi_run"):
            self.assertIn((name, "learn_from_log"), parents)
        self.assertIn(("check_rank", "vi_run"), parents)
        self.assertIn(("learn_from_log", "run_experiment"), parents)
        self.assertIn(("validate_config", "parse_config"), parents)
        self.assertNotIn(None, r["layers"].values())
        self.assertEqual(r["layers"]["regression.rank_calls"], 2)

    def test_name_that_no_longer_exists_is_missing_not_zero(self):
        module = types.ModuleType("fake_layer")
        module.present = original = lambda: 1
        tracer = Tracer()
        tracer.install(module, ["present", "gone"])
        self.assertEqual(module.present(), 1)
        self.assertEqual(tracer.missing, ["fake_layer.gone"])
        self.assertIsNone(tracer.total("gone"))
        self.assertGreater(tracer.total("present"), 0.0)
        tracer.restore()
        self.assertIs(module.present, original)

        tracer = Tracer()
        tracer.install(types.ModuleType("empty"), child.EXPERIMENT_NAMES)
        with tracer.span("parse_config") as parse_span:
            pass
        with tracer.span("run_experiment") as run_span:
            pass
        with tempfile.TemporaryDirectory() as out_dir:
            layers = child.layer_metrics(tracer, run_span, parse_span, out_dir, 4)
        self.assertIsNotNone(layers.pop("experiment.self_s"))
        self.assertEqual(set(layers.values()), {None})


class AccountingTest(unittest.TestCase):
    def test_rank_failure_counts_as_failed_not_dropped(self):
        # 20 rows cannot determine the 36 unknowns of the reduced stage.
        bad = run.run_once(short_config(grid_s=20), False, "seed 0")
        self.assertEqual(bad["status"], "failed")
        self.assertTrue(bad["error"].startswith("RankConditionError"))
        self.assertTrue(bad["gate_misses"])
        good = {"label": "seed 0", "traced": False, "status": "ok", "error": None,
                "run_s": 5.0, "import_s": 0.8, "parse_s": 0.01, "maxrss_mb": 180.0,
                "run_norm_s": 4.0, "setup_norm_s": 0.7, "run_speed": 0.8,
                "iters": 5575, "converged": True, "rank": 36, "rank_required": 36,
                "reported_iterations": 10602, "gain_rel_err": 3e-5,
                "e_rho_rel_err": 3e-5, "tracking_max_err": 3e-7, "digests": {}}
        good["gate_misses"] = run.gate(good)
        self.assertEqual(good["gate_misses"], [])
        result = run.summarize([bad, good], trace=0)
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertTrue(result["correct"])

    def test_gate_rejects_nan_and_loose_gain(self):
        r = {"status": "ok", "converged": True, "rank": 36, "rank_required": 36,
             "reported_iterations": None, "iters": 10, "gain_rel_err": float("nan"),
             "e_rho_rel_err": None, "tracking_max_err": 0.02}
        self.assertEqual(len(run.gate(r)), 2)


class SpeedProbeTest(unittest.TestCase):
    def test_normalised_is_net_wall_time_times_mean_speed(self):
        probe = SpeedProbe()
        probe.samples = [(1.0, 0.001, 0.5), (2.0, 0.001, 1.5), (9.0, 0.001, 4.0)]
        self.assertAlmostEqual(probe.speed(0.0, 3.0), 1.0)
        self.assertAlmostEqual(probe.normalised(0.0, 3.0), 2.998)
        self.assertAlmostEqual(probe.speed(3.0, 4.0), 2.0)     # no sample inside
        self.assertIsNone(SpeedProbe().normalised(0.0, 1.0))

    def test_probe_samples_while_code_runs_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        probe = SpeedProbe()
        probe.start()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        probe.stop()
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertGreaterEqual(len(probe.samples), 5)
        self.assertTrue(all(speed > 0 for _, _, speed in probe.samples))


class WorkloadTest(unittest.TestCase):
    def test_seed_zero_is_the_preset_and_seeds_only_move_phases(self):
        from regvi import PRESETS, parse_config
        cfg = parse_config(child.make_config("zero-v6", 0))
        self.assertEqual(asdict(cfg), asdict(PRESETS["paper-e-zero"]()))
        a, b = (json.loads(child.make_config("nonzero-v3-h44", s)) for s in (0, 7))
        self.assertEqual(child.make_config("nonzero-v3-h44", 7),
                         child.make_config("nonzero-v3-h44", 7))
        phases = [t.pop("phase") for t in b["tones"]]
        self.assertTrue(all(0 < abs(p) <= 0.1 for p in phases))
        for t in a["tones"]:
            t.pop("phase")
        self.assertEqual(a, b)
        self.assertEqual((a["variant"], a["t_end"], a["settle_time"]), (3, 44.0, 42.0))

    def test_benchmark_json_names_the_harness_metrics(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as fh:
            spec = json.load(fh)
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
