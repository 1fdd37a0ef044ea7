"""Benchmark workloads and the seeded config generator.

Each workload is a complete webfem config: the benchmark fixes its own
inputs rather than reading the bundled configs, so a later change to those
does not silently change what is measured. The seed only moves the grid
bounds; the problem, the domain and the discretization stay the same.
"""

import copy
import json
import random
from pathlib import Path

# Largest shift of each grid bound. The unit disk stays inside the grid
# (bounds are at +-1.1, so every side keeps at least 0.05 of margin).
BOUNDS_JITTER = 0.05
BASE_BOUNDS = ((-1.1, 1.1), (-1.1, 1.1))

WORKLOADS = {
    "cutcell_deg3": {
        "why": "Cubic Poisson with deep cut-cell subdivision: nearly all "
               "quadrature points sit in boundary cells, so assembly and "
               "the Gram estimate dominate while CG is cheap.",
        "config": {
            "problem": {"type": "vcpe", "case": "disk_poisson"},
            "grid": {"kind": "uniform", "degree": 3, "cells": 4},
            "quadrature": {"subdivision_depth": [5, 7], "gauss_leaf": 3},
            "levels": 2,
        },
    },
    "plap_newton": {
        "why": "p-Laplacian (p=1.5) Newton with eps-continuation: dozens of "
               "Jacobian reassemblies over fixed tables, little quadrature.",
        "config": {
            "problem": {"type": "plap", "case": "plap_p15_w2p", "p": 1.5},
            "grid": {"kind": "uniform", "degree": 2, "cells": 8},
            "quadrature": {"subdivision_depth": 4},
            "levels": 2,
        },
    },
    "stokes_picard": {
        "why": "Carreau Stokes by Picard: mixed assembly with pressure "
               "tables, saddle solves and the dense inf-sup estimate.",
        "config": {
            "problem": {"type": "quasi_newtonian", "case": "stokes_carreau",
                        "a0": 2.0, "a_inf": 1.0, "r_carreau": 1.5,
                        "pressure_degree": 0, "pressure_macro": 2},
            "grid": {"kind": "uniform", "degree": 2, "cells": 8},
            "quadrature": {"subdivision_depth": 3},
            "levels": 2,
        },
    },
}


def jittered_bounds(seed):
    """Grid bounds for ``seed``: each side moves by at most BOUNDS_JITTER.

    Seed 0 keeps the base bounds exactly.
    """
    if seed == 0:
        return [list(b) for b in BASE_BOUNDS]
    rng = random.Random(seed)
    return [[round(lo + rng.uniform(-BOUNDS_JITTER, BOUNDS_JITTER), 12),
             round(hi + rng.uniform(-BOUNDS_JITTER, BOUNDS_JITTER), 12)]
            for lo, hi in BASE_BOUNDS]


def generate_config(workload, seed):
    """The webfem config of ``workload`` for ``seed`` (a fresh dict)."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"available: {sorted(WORKLOADS)}")
    cfg = copy.deepcopy(WORKLOADS[workload]["config"])
    cfg["name"] = f"{workload}-seed{seed}"
    cfg["grid"]["bounds"] = jittered_bounds(seed)
    return cfg


def write_config(workload, seed, out_dir):
    """Write the generated config as JSON under ``out_dir``; returns its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps(generate_config(workload, seed), indent=2,
                               sort_keys=True) + "\n")
    return path
