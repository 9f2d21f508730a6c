"""The shipped example configs parse, validate, and carry the documented
rig-scale fixture constants."""

import json
from pathlib import Path

import pytest

from foldtrack.acquisition import AcquisitionConfig
from foldtrack.config import (ACQUISITION_KEYS, CONTINUATION_KEYS, ENSEMBLE_KEYS,
                              HYPER_FLAG_KEYS, NLFR_KEYS, OFFLINE_KEYS, RUN_KEYS,
                              SEED_THREADS_KEYS, SWEEP_KEYS, EnsembleConfig, HyperConfig,
                              InitConfig, NlfrConfig, OfflineConfig, RunConfig, SweepConfig,
                              config_from_dict, ensemble_config_from_dict, load_config,
                              load_raw, nlfr_config_from_dict, offline_config_from_dict,
                              sweep_config_from_dict)
from foldtrack.continuation import ContinuationConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["duffing.yaml", "duffing_noisy.yaml",
                                  "isola.yaml", "rig_trace.yaml"])
def test_trace_configs_parse(name):
    cfg = load_config(CONFIGS / name)
    assert cfg.continuation.max_steps > 0
    assert cfg.acquisition.beta_tol > 0


def test_rig_trace_carries_calibration_fixture():
    cfg = load_config(CONFIGS / "rig_trace.yaml")
    h = cfg.hyper.init
    assert (h.sigma_n2, h.sigma_f2, h.l_omega, h.l_A) == (0.02, 2.02, 0.30, 1.09)
    assert cfg.acquisition.beta_tol == 4.0e-2
    assert cfg.init.n0 == 25
    assert cfg.acquisition.n_test == 50


def test_rig_offline_carries_full_surface_fixture():
    cfg = offline_config_from_dict(load_raw(CONFIGS / "rig_offline.yaml"))
    h = cfg.hyper
    assert (h.sigma_n2, h.sigma_f2, h.l_omega, h.l_A) == (0.01, 2.66, 0.28, 0.73)


def test_rig_sweep_uses_hardware_grid():
    cfg = sweep_config_from_dict(load_raw(CONFIGS / "rig_sweep.yaml"))
    assert cfg.omega_step == 0.25
    assert cfg.A_step == 0.2


ORACLE = {"name": "duffing",
          "domain_box": {"omega_min": 0.95, "omega_max": 1.45, "A_min": 0.05, "A_max": 5.0}}


def defaults(cls, table):
    return {k: cls.__dataclass_fields__[k].default for k in table}


def fields(obj, table):
    return {k: getattr(obj, k) for k in table}


def test_minimal_configs_take_every_dataclass_default():
    run = config_from_dict({"oracle": ORACLE, "init": {"x0": {"omega": 1.1, "A": 1.4}},
                            "hyperparameters": {"init": {"sigma_n2": 1e-6, "sigma_f2": 0.05,
                                                         "l_omega": 0.05, "l_A": 0.45}}})
    sweep = sweep_config_from_dict({"oracle": ORACLE, "sweep": {
        "omega_start": 1.0, "omega_stop": 1.2, "A_start": 0.2, "A_stop": 3.0}})
    nlfr = nlfr_config_from_dict({"inputs": {}, "gamma_level": 0.3})
    ensemble = ensemble_config_from_dict({"inputs": {"dataset": "d.csv"}})
    offline = offline_config_from_dict({"inputs": {"dataset": "d.csv"}})
    given = {"omega_start", "omega_stop", "A_start", "A_stop", "gamma_level"}
    for obj, cls, table in [(run.continuation, ContinuationConfig, CONTINUATION_KEYS),
                            (run.acquisition, AcquisitionConfig, ACQUISITION_KEYS),
                            (run.hyper, HyperConfig, HYPER_FLAG_KEYS),
                            (run, RunConfig, RUN_KEYS),
                            (sweep, SweepConfig, SWEEP_KEYS),
                            (sweep, SweepConfig, SEED_THREADS_KEYS),
                            (nlfr, NlfrConfig, NLFR_KEYS),
                            (ensemble, EnsembleConfig, ENSEMBLE_KEYS),
                            (offline, OfflineConfig, OFFLINE_KEYS)]:
        keys = set(table) - given
        assert keys and fields(obj, keys) == defaults(cls, keys), cls.__name__
    assert run.init.grid_shape == InitConfig.__dataclass_fields__["grid_shape"].default


@pytest.mark.parametrize("parse, raw", [
    (config_from_dict, load_raw(CONFIGS / "isola.yaml")),
    (config_from_dict, load_raw(CONFIGS / "rig_trace.yaml")),
    (sweep_config_from_dict, load_raw(CONFIGS / "rig_sweep.yaml")),
    (ensemble_config_from_dict, {"inputs": {"dataset": "d.csv"}, "n_runs": 20,
                                 "dropout_fraction": 0.2, "threads": 2, "seed": 4}),
    (offline_config_from_dict, load_raw(CONFIGS / "rig_offline.yaml")),
], ids=["trace_isola", "trace_rig", "sweep", "ensemble", "offline"])
def test_manifest_config_parses_back_to_an_equal_config(parse, raw):
    cfg = parse(raw)
    assert parse(json.loads(json.dumps(cfg.to_dict()))) == cfg
