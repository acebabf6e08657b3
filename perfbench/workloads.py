"""Benchmark workloads: each is a `pdmarl run` config dict whose `seed` is
the workload seed. Each one loads a different layer of the trainer; the
README beside this file says which and why."""

from __future__ import annotations

import copy

DEFAULT_SEED = 0

# Shared by every workload: the 10-agent line's headline settings.
_COMMON = {
    "schema_version": 1,
    "gamma": 0.99,
    "kappa": 1,
    "horizon": 125,
    "batch_size": 5,
    "eta_theta": 0.05,
    "eta_mu": 10.0,
    "td": {"steps": 500},
    "constraint": {"kind": "entropy", "threshold": 0.25},
}

# `iterations` sets the length of one run; it is chosen so that one run
# takes a few seconds and a benchmark invocation holds several runs.
WORKLOADS = {
    # sampling plus the two TD critics are ~98% of an iteration
    "line10_k1": {
        "env": {"name": "synthetic_line", "n": 10},
        "objective": {"kind": "env_reward"},
        "iterations": 60,
    },
    # 4^5 = 1024 global pairs: the exact oracles fire every iteration
    "line5_oracle": {
        "env": {"name": "synthetic_line", "n": 5},
        "objective": {"kind": "env_reward"},
        "iterations": 5,
        "oracle_every": 1,
    },
    # large, sparsely touched truncated-Q tables and slow reward tabulation
    "wireless3": {
        "env": {"name": "wireless_grid", "side": 3, "deadline": 1},
        "objective": {"kind": "entropy"},
        "constraint": {"kind": "l2_action", "threshold": 0.1},
        "iterations": 10,
    },
}


def workload_config(name: str, seed: int) -> dict:
    """The config dict of workload ``name`` with the workload seed in it."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; one of {sorted(WORKLOADS)}")
    return copy.deepcopy({**_COMMON, **WORKLOADS[name], "seed": int(seed)})
