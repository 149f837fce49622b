"""Benchmark workloads: a built-in preset plus the fields that differ from it.

Seed 0 is the configuration exactly as listed.  Any other seed redraws every
exploration tone phase from U(-0.1, 0.1) rad with numpy.random.default_rng(seed)
(see child.make_config); nothing else depends on the seed.
"""

WORKLOADS = {
    # Published tracking-only scenario: sim and CSV export dominate, VI is short.
    # Not listed in BENCHMARK.json: some held-out seeds (1, 9, 14, 28 of 1-30)
    # raise NotConvergedError, and the benchmark's workloads must not fail.
    "zero-v6": ("paper-e-zero", {}),
    # Published disturbance scenario: long VI on the pre-factored reduced path.
    "nonzero-v4": ("paper-e-nonzero", {}),
    # Same exploration data, structured-E VI that refactors its stage every
    # iteration, and half the closed-loop horizon.
    "nonzero-v3-h44": ("paper-e-nonzero",
                       {"variant": 3, "t_end": 44.0, "settle_time": 42.0}),
}

PHASE_HALF_WIDTH = 0.1   # rad
