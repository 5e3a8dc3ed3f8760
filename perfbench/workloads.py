"""The benchmark's named workloads, as `PipelineConfig` dicts without a seed.

Each workload scales one axis of the default config (6 forcings x 1000
maps, about 150 s a run) down so that one layer keeps most of the run
time while an operation stays short enough to repeat several times in
one measured run:

- ``forcing-grid``: Lorenz-96 integration (library plus a fresh ground
  run) dominates; fit and select stay small with 10 maps.
- ``map-ensemble``: the dim-8 subset search of the fit stage dominates.
- ``vote-k3``: the same libraries at dim 4, where the fit is cheap and the
  select stage (general-k vote DP, member re-prediction) dominates.
"""

from __future__ import annotations

import copy

_SMALL_LIBRARY = {"forcings": [6.0, 8.0, 10.0], "n_seasons": 200}

WORKLOADS: dict[str, dict] = {
    # every third value of the 5.0..10.5 step-0.5 grid
    "forcing-grid": {
        "surrogate": {"forcings": [5.0, 6.5, 8.0, 9.5]},
        "embedding": {"n_maps": 10},
        "ground": {"mode": "fresh", "forcing": 7.75},
    },
    "map-ensemble": {
        "surrogate": _SMALL_LIBRARY,
        "embedding": {"n_maps": 110},
    },
    "vote-k3": {
        "surrogate": _SMALL_LIBRARY,
        "embedding": {"n_maps": 110, "dim": 4},
        "selection": {"vote_k": 3},
    },
}

DEFAULT_SEED = 7


def workload_config(name: str, seed: int) -> dict:
    """The workload's config dict with the benchmark seed filled in."""
    return {"seed": int(seed), **copy.deepcopy(WORKLOADS[name])}


def warmup_config(name: str, seed: int) -> dict:
    """A one-attractor, two-map miniature of the workload.

    Running it once before timing loads every lazily imported module and
    exercises the workload's code paths (dim, vote k, ground mode) at a
    fraction of an operation's cost.
    """
    cfg = workload_config(name, seed)
    cfg["surrogate"] = {**cfg["surrogate"], "forcings": [8.0], "n_seasons": 200}
    cfg["embedding"] = {**cfg["embedding"], "n_maps": 2}
    return cfg
