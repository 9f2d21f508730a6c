"""The benchmark's traced run still reaches the functions it wraps.

perfbench/layers.py replaces functions by name in driver, postprocess,
acquisition and csvio; a rename there would leave a per-layer figure at 0
without failing a benchmark run.  This runs one short capped trace under
its wrappers and checks the counts against the run's own artifacts.
"""

import importlib
from dataclasses import replace
from pathlib import Path

import pytest

from foldtrack import driver
from foldtrack.config import load_config
from foldtrack.errors import CollectionCap

ROOT = Path(__file__).resolve().parent.parent


def test_traced_run_counts_every_collection_of_its_log(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    cfg = load_config(ROOT / "configs" / "duffing_noisy.yaml")
    # beta_tol out of reach: every step ends at the collection cap
    cfg = replace(cfg, continuation=replace(cfg.continuation, max_steps=3),
                  acquisition=replace(cfg.acquisition, n_max=30, beta_tol=1e-6,
                                      max_points_per_step=3))
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        with pytest.warns(CollectionCap):
            result = driver.run_trace(cfg)
    finally:
        tracer.unpatch()
    figures = layers.reduce(tracer, 1, {})
    rows = len(list(result.collection_rows()))
    assert all(s.beta_final >= cfg.acquisition.beta_tol for s in result.steps)
    assert rows == 3 * len(result.steps) > 0
    assert figures["acquisition.collections"] == rows
    assert figures["continuation.correct.calls"] > 0
