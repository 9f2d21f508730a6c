"""The workloads and why each was chosen (see README.md)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    kind: str                 # "online": one trace per job; "ensemble": one dropout_ensemble call
    check: str                # "duffing", "rig" or "ensemble": the checks and per-layer figures
    config: str | None = None  # shipped config, relative to the checkout root
    n_max: int | None = None   # acquisition.n_max override


# The uncapped duffing_noisy.yaml trace is not a workload: whether a trace
# reaches n_max = 100 (and starts pruning at n = 100) depends on the seed,
# so its fold points per second vary 30% from seed to seed, and a run of
# six traces cannot pin it.  README.md gives the figures.
WORKLOADS = {
    # local-model regime: the cap forces a prune after nearly every collection;
    # the analytic oracle answers in microseconds, so all time is the algorithm
    "duffing-capped": Workload("online", "duffing", "configs/duffing_noisy.yaml", n_max=40),
    # ~90% of the time is the rig's closed-loop simulation inside measure
    "rig-online": Workload("online", "rig", "configs/rig_trace.yaml"),
    # no oracle: likelihood fits and offline tracing on a generated sweep, 2 threads
    "ensemble-offline": Workload("ensemble", "ensemble"),
}

# ensemble-offline: dropout runs per dropout_ensemble call, and its protocol
ENSEMBLE = {"n_runs": 10, "dropout_fraction": 0.10, "fit_n_starts": 1, "max_steps": 100,
            "threads": 2}
