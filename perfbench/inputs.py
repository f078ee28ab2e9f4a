"""Workload inputs, generated from the benchmark seed (standard library only).

The default seed reproduces the repository's ``benchmark.ini`` byte for byte
and the pinned references in ``reference.json``.  Any other seed jitters the
bump amplitude and centre and the ``dsl_fan`` step position a little, and
becomes the ``cli_bump`` battery seed, so that a claim can be re-checked on
inputs that were not used while writing the change.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 20260810

WORKLOADS = ("cli_bump", "sweep_bump", "dsl_fan")

# modulated Burgers, bump, delta = 0.005, five checks
CLI_TEMPLATE = """\
# Heterogeneous benchmark: modulated Burgers with a smooth bump.
# fronttrack run benchmark.ini --out results

[flux]
family = modulated_burgers
base = 1.0
amp = 0.5

[initial]
profile = bump
amp = {amp}
center = {center}
width = 1.0

[run]
delta = {delta}
window = -3, 3
cells = {cells}
t_end = 1.0
output_times = 0.5, 1.0
seed = {seed}
resolution = 2048

[checks]
names = {checks}

[tolerances]
entropy_pairs = {entropy_pairs}
entropy_quad = {entropy_quad}
"""

CLI_FULL = {"delta": "0.005", "cells": "1200",
            "checks": "tvd, entropy, lipschitz_l1, characteristics, inversion_bounds",
            "entropy_pairs": "20", "entropy_quad": "256"}
# shrunken input for the benchmark's own tests
CLI_SMALL = {"delta": "0.05", "cells": "200", "checks": "tvd, entropy, lipschitz_l1",
             "entropy_pairs": "2", "entropy_quad": "32"}

DSL_FLUX = "(1+0.5*sin(x))*u^2/2 + u^4/12"


def _bump(seed):
    """Bump amplitude and centre: exact at the default seed, jittered otherwise."""
    if seed == DEFAULT_SEED:
        return 0.8, 0.0
    rng = random.Random(seed)
    return round(0.8 * (1.0 + rng.uniform(-0.01, 0.01)), 6), round(rng.uniform(-0.05, 0.05), 6)


def cli_config_text(seed, small=False):
    amp, center = _bump(seed)
    return CLI_TEMPLATE.format(amp=repr(amp), center=repr(center), seed=seed,
                               **(CLI_SMALL if small else CLI_FULL))


def make_inputs(workload, seed, small=False):
    """JSON-able description of one workload's inputs for this seed."""
    if workload == "cli_bump":
        return {"config_text": cli_config_text(seed, small), "snapshots": 2}
    if workload == "sweep_bump":
        amp, center = _bump(seed)
        deltas = [0.05, 0.02, 0.01] if small else [0.005, 0.002, 0.001]
        # cells * delta = 6, as benchmark.ini (1200 at 0.005) and the acceptance suite pair them
        return {"amp": amp, "center": center, "width": 1.0, "deltas": deltas,
                "window": [-3.0, 3.0], "cells": [round(6.0 / d) for d in deltas],
                "work_window": [-6.0, 6.0], "times": [0.5, 1.0]}
    if workload == "dsl_fan":
        step = 0.0 if seed == DEFAULT_SEED else round(random.Random(seed).uniform(-0.2, 0.2), 6)
        return {"expr": DSL_FLUX, "values": [-0.8, 0.8], "breaks": [step],
                "delta": 0.05 if small else 0.003, "window": [-3.0, 3.0],
                "cells": 200 if small else 1200, "t_end": 1.0,
                "sample_times": 4 if small else 64, "sample_points": 128 if small else 2048}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
