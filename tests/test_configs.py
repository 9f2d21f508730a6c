"""The shipped example configs parse, validate, and carry the documented
rig-scale fixture constants."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foldtrack.acquisition import AcquisitionConfig
from foldtrack.config import (ENSEMBLE, NLFR, OFFLINE, RUN, SWEEP, EnsembleConfig, HyperConfig,
                              InitConfig, NlfrConfig, OfflineConfig, RunConfig, SweepConfig,
                              config_from_dict, ensemble_config_from_dict, load_config,
                              load_raw, nlfr_config_from_dict, offline_config_from_dict,
                              rebase_inputs, sweep_config_from_dict)
from foldtrack.continuation import ContinuationConfig
from foldtrack.errors import ConfigError
from foldtrack.oracles import ISOLA_DOMAIN

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


def test_isola_without_domain_box_traces_in_the_isola_domain():
    raw = load_raw(CONFIGS / "isola.yaml")
    del raw["oracle"]["domain_box"]
    cfg = config_from_dict(raw)
    assert cfg.continuation.domain_box == cfg.oracle.domain_box == ISOLA_DOMAIN


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


@settings(max_examples=200, deadline=None)
@example(start=2, step=2, steps=24, past=0, digits=1)  # 0.2 + 24 * 0.2 = 5.000000000000001
@given(start=st.integers(-500, 500), step=st.integers(1, 300), steps=st.integers(0, 60),
       past=st.floats(0.0, 0.99), digits=st.integers(0, 3))
def test_decimal_grid_ends_at_or_before_its_stop(start, step, steps, past, digits):
    # a grid written in decimals has one value per whole step from start to
    # stop, the last one on or below stop even where start + i * step rounds up
    scale = 10 ** digits
    stop = (start + steps * step + int(past * step)) / scale
    cfg = sweep_config_from_dict({"oracle": ORACLE, "sweep": {
        "omega_start": 1.0, "omega_stop": 1.0,
        "A_start": start / scale, "A_stop": stop, "A_step": step / scale}})
    grid = cfg.A_grid()
    assert len(grid) == steps + 1
    assert max(grid) <= stop
    assert all(a < b for a, b in zip(grid, grid[1:]))


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
    for obj, cls, table in [(run.continuation, ContinuationConfig, RUN.keys["continuation"]),
                            (run.acquisition, AcquisitionConfig, RUN.keys["acquisition"]),
                            (run.hyper, HyperConfig, RUN.keys["hyperparameters"]),
                            (run, RunConfig, RUN),
                            (sweep, SweepConfig, SWEEP.keys["sweep"]),
                            (sweep, SweepConfig, SWEEP),
                            (nlfr, NlfrConfig, NLFR.keys["inputs"]),
                            (nlfr, NlfrConfig, NLFR),
                            (ensemble, EnsembleConfig, ENSEMBLE),
                            (offline, OfflineConfig, OFFLINE)]:
        # every scalar key of the table, less those the minimal configs give
        keys = {k for k, read in table.keys.items() if callable(read)} - given - {"units"}
        assert keys and fields(obj, keys) == defaults(cls, keys), cls.__name__
    assert run.init.grid_shape == InitConfig.__dataclass_fields__["grid_shape"].default


@pytest.mark.parametrize("parse, raw", [
    (config_from_dict, load_raw(CONFIGS / "isola.yaml")),
    (config_from_dict, load_raw(CONFIGS / "rig_trace.yaml")),
    (sweep_config_from_dict, load_raw(CONFIGS / "rig_sweep.yaml")),
    (nlfr_config_from_dict, {"inputs": {"datasets": ["d.csv"], "run_logs": ["r.csv"]},
                             "gamma_level": 0.3, "band": 0.1}),
    (ensemble_config_from_dict, {"inputs": {"dataset": "d.csv"}, "n_runs": 20,
                                 "dropout_fraction": 0.2, "threads": 2, "seed": 4}),
    (offline_config_from_dict, load_raw(CONFIGS / "rig_offline.yaml")),
], ids=["trace_isola", "trace_rig", "sweep", "nlfr", "ensemble", "offline"])
def test_manifest_config_parses_back_to_an_equal_config(parse, raw):
    cfg = parse(raw)
    assert parse(json.loads(json.dumps(cfg.to_dict()))) == cfg


DELETE = object()


def edited(raw, edit):
    """A copy of `raw` with each dotted key path of `edit` set to its value, or deleted."""
    raw = json.loads(json.dumps(raw))
    for path, value in edit.items():
        *sections, key = path.split(".")
        section = raw
        for s in sections:
            section = section[s]
        if value is DELETE:
            del section[key]
        else:
            section[key] = value
    return raw


TRACE_RAW = load_raw(CONFIGS / "duffing.yaml")
SWEEP_RAW = load_raw(CONFIGS / "rig_sweep.yaml")
INPUTS = {"inputs": {"dataset": "d.csv"}}
HYPER_MISSING = "missing required keys ['l_A', 'l_omega', 'sigma_f2']"


# the full text of each form of refusal, as the parser of each command words it
@pytest.mark.parametrize("parse, raw, message", [
    (config_from_dict, edited(TRACE_RAW, {"surprise": 1}),
     "config: unknown keys ['surprise'] (allowed: ['acquisition', 'continuation', "
     "'hyperparameters', 'init', 'oracle', 'seed', 'threads', 'units'])"),
    (config_from_dict, edited(TRACE_RAW, {"init": DELETE}),
     "config: missing required keys ['init']"),
    (config_from_dict, edited(TRACE_RAW, {"seed": "x"}),
     "config.seed: cannot read 'x' (invalid literal for int() with base 10: 'x')"),
    (sweep_config_from_dict, edited(SWEEP_RAW, {"seed": "x"}),
     "config.seed: cannot read 'x' (invalid literal for int() with base 10: 'x')"),
    (config_from_dict, edited(TRACE_RAW, {"oracle.seed": 3}),
     "oracle: unknown keys ['seed'] (allowed: ['domain_box', 'name', 'params'])"),
    (config_from_dict, edited(TRACE_RAW, {"init.x0.omega": "abc"}),
     "init.x0.omega: cannot read 'abc' (could not convert string to float: 'abc')"),
    (config_from_dict, edited(TRACE_RAW, {"init": None}), "init: expected a mapping, got NoneType"),
    (config_from_dict, edited(TRACE_RAW, {"hyperparameters.init.l_A": DELETE}),
     "hyperparameters.init: missing required keys ['l_A']"),
    (config_from_dict, edited(TRACE_RAW, {"hyperparameters.init.sigma_f2": -1.0}),
     "hyperparameters.init: hyperparameters must be strictly positive and finite, "
     "got (1e-06, -1.0, 0.05, 0.45)"),
    (config_from_dict, edited(TRACE_RAW, {"oracle.domain_box.omega_max": 0.5}),
     "oracle.domain_box: domain box must have positive extent"),
    (config_from_dict, edited(TRACE_RAW, {"continuation.h": 1e-9}),
     "continuation: need H_MIN (0.001) <= h <= h_max"),
    (config_from_dict, edited(TRACE_RAW, {"hyperparameters.bounds": {"sigma_n2": [1e-8, 1e-2]}}),
     f"hyperparameters.bounds: {HYPER_MISSING}"),
    (sweep_config_from_dict, edited(SWEEP_RAW, {"surprise": 1}),
     "sweep config: unknown keys ['surprise'] "
     "(allowed: ['oracle', 'seed', 'sweep', 'threads', 'units'])"),
    (nlfr_config_from_dict, {"inputs": {}, "gamma_level": 0.3, "surprise": 1},
     "nlfr config: unknown keys ['surprise'] (allowed: ['band', 'gamma_level', 'inputs'])"),
    (nlfr_config_from_dict, {"inputs": {"dataset": "d.csv"}, "gamma_level": 0.3},
     "nlfr.inputs: unknown keys ['dataset'] (allowed: ['datasets', 'run_logs'])"),
    (ensemble_config_from_dict, {**INPUTS, "n_runs": "many"},
     "ensemble.n_runs: cannot read 'many' (invalid literal for int() with base 10: 'many')"),
    (ensemble_config_from_dict, {**INPUTS, "max_steps": -1}, "ensemble: max_steps >= 0 required"),
    (offline_config_from_dict, {**INPUTS, "hyperparameters": {"sigma_n2": 0.01}},
     f"offline.hyperparameters: {HYPER_MISSING}"),
    (offline_config_from_dict, {**INPUTS, "h": 0.5, "h_max": 0.1},
     "offline: need H_MIN (0.001) <= h <= h_max"),
    (offline_config_from_dict, {"inputs": None},
     "offline.inputs: expected a mapping, got NoneType"),
    # an optional section other than null or {} is read, so a falsy non-mapping is refused
    (config_from_dict, edited(TRACE_RAW, {"acquisition": 0}),
     "acquisition: expected a mapping, got int"),
    (config_from_dict, edited(TRACE_RAW, {"continuation": False}),
     "continuation: expected a mapping, got bool"),
    (config_from_dict, edited(TRACE_RAW, {"init.half_widths": 0}),
     "init.half_widths: expected a mapping, got int"),
    (config_from_dict, edited(load_raw(CONFIGS / "isola.yaml"), {"oracle.domain_box": []}),
     "oracle.domain_box: expected a mapping, got list"),
    (offline_config_from_dict, {**INPUTS, "hyperparameters": False},
     "offline.hyperparameters: expected a mapping, got bool"),
], ids=["trace_unknown_key", "trace_missing_init", "trace_seed", "sweep_seed",
        "oracle_unknown_key", "x0_value", "init_null", "hyper_missing_key", "hyper_check",
        "domain_box_check", "continuation_check", "bounds_missing_keys", "sweep_unknown_key",
        "nlfr_unknown_key", "nlfr_inputs_unknown_key", "ensemble_value", "ensemble_check",
        "offline_hyper_missing_keys", "offline_check", "offline_inputs_null",
        "acquisition_zero", "continuation_false", "half_widths_zero", "isola_domain_box_list",
        "offline_hyper_false"])
def test_refusal_names_its_section_and_key(parse, raw, message):
    with pytest.raises(ConfigError) as e:
        parse(raw)
    assert str(e.value) == message


@pytest.mark.parametrize("empty", [None, {}], ids=["null", "empty"])
def test_optional_section_given_empty_reads_as_not_given(empty):
    isola = edited(load_raw(CONFIGS / "isola.yaml"), {"oracle.domain_box": empty})
    assert config_from_dict(isola).oracle.domain_box == ISOLA_DOMAIN
    bounds = edited(TRACE_RAW, {"hyperparameters.bounds": empty})
    assert config_from_dict(bounds).hyper.bounds is None
    assert offline_config_from_dict({**INPUTS, "hyperparameters": empty}).hyper is None


def test_load_raw_refuses_a_path_that_is_not_a_file(tmp_path):
    (tmp_path / "dir").mkdir()
    with pytest.raises(ConfigError, match=r"^config path is not a file: .*\bdir$"):
        load_raw(tmp_path / "dir")
    with pytest.raises(ConfigError, match=r"^config file not found: .*\bmissing\.yaml$"):
        load_raw(tmp_path / "missing.yaml")


@pytest.mark.parametrize("cfg, moved", [
    (OfflineConfig(dataset="data/d.csv"), {"inputs": {"dataset": "../../cfg/data/d.csv"}}),
    (EnsembleConfig(dataset="/abs/d.csv"), {"inputs": {"dataset": "/abs/d.csv"}}),
    (NlfrConfig(gamma_level=0.3, datasets=("d.csv", "/abs/d.csv"), run_logs=("../r.csv",)),
     {"inputs": {"datasets": ["../../cfg/d.csv", "/abs/d.csv"], "run_logs": ["../../r.csv"]}}),
    (sweep_config_from_dict({"oracle": {"name": "replay", "params": {"path": "d.csv", "tol": 0.1}},
                             "sweep": {"omega_start": 1, "omega_stop": 2, "A_start": 1,
                                       "A_stop": 2}}),
     {"oracle": {"params": {"path": "../../cfg/d.csv", "tol": 0.1}}}),
    (load_config(CONFIGS / "duffing.yaml"), {}),
], ids=["relative", "absolute", "nlfr", "replay_oracle", "no_inputs"])
def test_rebase_inputs_moves_relative_paths_alone(cfg, moved):
    # from cfg/ to out/run/: the manifest there names the files the config named
    got, want = rebase_inputs(cfg, "cfg", "out/run").to_dict(), cfg.to_dict()
    for section, values in moved.items():
        for key, value in values.items():
            want[section][key] = value
    assert got == want
