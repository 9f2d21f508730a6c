"""Declarative run configuration: YAML schema, strict validation, oracle factory.

A config file fully determines a run; the manifest written next to the run
artifacts embeds the resolved config so any run can be reproduced from its
manifest alone.  Unknown keys are rejected everywhere: unit confusion and
typos are the dominant operator errors with mixed Hz/mm/N quantities, so
every field is explicit and optionally annotated in the free-form `units`
block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .acquisition import AcquisitionConfig
from .continuation import ContinuationConfig
from .errors import ConfigError
from .geometry import DomainBox
from .gpr import FitBounds, Hyperparameters


def _opt_float(v):
    return None if v is None else float(v)


# One table per flat config section: each key and the reader that parses its
# value.  A parser passes on only the keys a config gives, so every default
# lives in its dataclass alone, and `to_dict` writes back the same keys.
CONTINUATION_KEYS = {"h": float, "h_min": float, "h_max": float, "newton_tol": float,
                     "newton_max_iter": int, "max_steps": int}
ACQUISITION_KEYS = {"n_test": int, "beta_tol": float, "n_max": int,
                    "ellipse_semi_omega": _opt_float, "ellipse_semi_A": _opt_float,
                    "max_points_per_step": int}
HYPER_FLAG_KEYS = {"fit": bool, "refit_each_step": bool, "n_starts": int}
SEED_THREADS_KEYS = {"seed": int, "threads": int}
RUN_KEYS = {**SEED_THREADS_KEYS, "measure_at_solution": bool}
SWEEP_KEYS = {"omega_start": float, "omega_stop": float, "omega_step": float,
              "A_start": float, "A_stop": float, "A_step": float}
NLFR_KEYS = {"gamma_level": float, "band": float}
ENSEMBLE_KEYS = {"n_runs": int, "dropout_fraction": float, "fit_n_starts": int,
                 "max_steps": int, **SEED_THREADS_KEYS}
OFFLINE_KEYS = {"max_steps": int, "h": float, "h_max": float, "seed": int}


def _read(d: dict, table: dict, where: str) -> dict:
    """The keys of `table` that `d` gives, each parsed by its reader."""
    out = {}
    for k, read in table.items():
        if k in d:
            try:
                out[k] = read(d[k])
            except (TypeError, ValueError) as e:
                raise ConfigError(f"{where}.{k}: cannot read {d[k]!r} ({e})") from e
    return out


def _fields(obj, table: dict) -> dict:
    """The attributes of `obj` named by the keys of `table`."""
    return {k: getattr(obj, k) for k in table}


def _require_keys(d: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")


@dataclass(frozen=True)
class OracleSpec:
    name: str
    params: dict = field(default_factory=dict)
    domain_box: DomainBox | None = None
    seed: int | None = None

    KNOWN = ("duffing", "isola", "rig", "replay")

    def __post_init__(self):
        if self.name not in self.KNOWN:
            raise ConfigError(f"unknown oracle '{self.name}'; known: {self.KNOWN}")

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params),
                "domain_box": self.domain_box.as_dict() if self.domain_box else None,
                "seed": self.seed}


@dataclass(frozen=True)
class InitConfig:
    """Seed-grid layout: n0 points regularly distributed around x0."""

    x0_omega: float
    x0_A: float
    grid_shape: tuple[int, int] = (5, 5)
    half_width_omega: float | None = None  # None -> one initial length scale
    half_width_A: float | None = None

    def __post_init__(self):
        if self.grid_shape[0] < 1 or self.grid_shape[1] < 1:
            raise ConfigError("init grid_shape entries must be >= 1")

    @property
    def n0(self) -> int:
        return self.grid_shape[0] * self.grid_shape[1]


@dataclass(frozen=True)
class HyperConfig:
    init: Hyperparameters
    bounds: FitBounds | None = None
    fit: bool = True
    refit_each_step: bool = False
    n_starts: int = 5


@dataclass(frozen=True)
class RunConfig:
    oracle: OracleSpec
    init: InitConfig
    hyper: HyperConfig
    continuation: ContinuationConfig
    acquisition: AcquisitionConfig
    seed: int = 0
    threads: int = 1
    measure_at_solution: bool = True
    units: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.acquisition.n_max < self.init.n0:
            raise ConfigError(
                f"acquisition.n_max ({self.acquisition.n_max}) must be >= the "
                f"initialization grid size n0 ({self.init.n0})")

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle.to_dict(),
            "init": {
                "x0": {"omega": self.init.x0_omega, "A": self.init.x0_A},
                "grid_shape": list(self.init.grid_shape),
                "half_widths": {"omega": self.init.half_width_omega, "A": self.init.half_width_A},
            },
            "hyperparameters": {
                "init": self.hyper.init.as_dict(),
                "bounds": {k: list(v) for k, v in self.hyper.bounds.as_dict().items()}
                          if self.hyper.bounds else None,
                **_fields(self.hyper, HYPER_FLAG_KEYS),
            },
            "continuation": _fields(self.continuation, CONTINUATION_KEYS),
            "acquisition": _fields(self.acquisition, ACQUISITION_KEYS),
            **_fields(self, RUN_KEYS),
            "units": dict(self.units),
        }


def _parse_domain_box(d, where) -> DomainBox:
    _require_keys(d, {"omega_min", "omega_max", "A_min", "A_max"},
                  {"omega_min", "omega_max", "A_min", "A_max"}, where)
    try:
        return DomainBox(float(d["omega_min"]), float(d["omega_max"]),
                         float(d["A_min"]), float(d["A_max"]))
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def _parse_hyper(d, where) -> Hyperparameters:
    _require_keys(d, {"sigma_n2", "sigma_f2", "l_omega", "l_A"},
                  {"sigma_n2", "sigma_f2", "l_omega", "l_A"}, where)
    try:
        return Hyperparameters.from_dict(d)
    except (ValueError, KeyError) as e:
        raise ConfigError(f"{where}: {e}") from e


def _parse_oracle(raw: dict) -> OracleSpec:
    _require_keys(raw, {"name", "params", "domain_box", "seed"}, {"name"}, "oracle")
    box = _parse_domain_box(raw["domain_box"], "oracle.domain_box") if raw.get("domain_box") else None
    return OracleSpec(name=raw["name"], params=dict(raw.get("params") or {}),
                      domain_box=box, seed=raw.get("seed"))


def config_from_dict(raw: dict) -> RunConfig:
    _require_keys(raw, {"oracle", "init", "hyperparameters", "continuation",
                        "acquisition", "units", *RUN_KEYS},
                  {"oracle", "init", "hyperparameters"}, "config")

    oracle = _parse_oracle(raw["oracle"])

    i = raw["init"]
    _require_keys(i, {"x0", "grid_shape", "half_widths"}, {"x0"}, "init")
    _require_keys(i["x0"], {"omega", "A"}, {"omega", "A"}, "init.x0")
    hw = i.get("half_widths") or {}
    _require_keys(hw, {"omega", "A"}, set(), "init.half_widths")
    grid = {}
    if i.get("grid_shape"):
        shape = i["grid_shape"]
        if len(shape) != 2:
            raise ConfigError("init.grid_shape must have two entries")
        grid["grid_shape"] = (int(shape[0]), int(shape[1]))
    init = InitConfig(x0_omega=float(i["x0"]["omega"]), x0_A=float(i["x0"]["A"]), **grid,
                      half_width_omega=_opt_float(hw.get("omega")),
                      half_width_A=_opt_float(hw.get("A")))

    h = raw["hyperparameters"]
    _require_keys(h, {"init", "bounds", *HYPER_FLAG_KEYS}, {"init"}, "hyperparameters")
    bounds = None
    if h.get("bounds"):
        b = h["bounds"]
        _require_keys(b, {"sigma_n2", "sigma_f2", "l_omega", "l_A"},
                      {"sigma_n2", "sigma_f2", "l_omega", "l_A"}, "hyperparameters.bounds")
        try:
            bounds = FitBounds(**{k: (float(v[0]), float(v[1])) for k, v in b.items()})
        except (ValueError, TypeError) as e:
            raise ConfigError(f"hyperparameters.bounds: {e}") from e
    hyper = HyperConfig(init=_parse_hyper(h["init"], "hyperparameters.init"), bounds=bounds,
                        **_read(h, HYPER_FLAG_KEYS, "hyperparameters"))

    c = raw.get("continuation") or {}
    _require_keys(c, set(CONTINUATION_KEYS), set(), "continuation")
    try:
        cont = ContinuationConfig(domain_box=oracle.domain_box,
                                  **_read(c, CONTINUATION_KEYS, "continuation"))
    except ValueError as e:
        raise ConfigError(f"continuation: {e}") from e

    a = raw.get("acquisition") or {}
    _require_keys(a, set(ACQUISITION_KEYS), set(), "acquisition")
    try:
        acq = AcquisitionConfig(**_read(a, ACQUISITION_KEYS, "acquisition"))
    except ValueError as e:
        raise ConfigError(f"acquisition: {e}") from e

    units = raw.get("units") or {}
    if not isinstance(units, dict):
        raise ConfigError("units must be a mapping of field name to unit string")

    return RunConfig(oracle=oracle, init=init, hyper=hyper, continuation=cont,
                     acquisition=acq, units={str(k): str(v) for k, v in units.items()},
                     **_read(raw, RUN_KEYS, "config"))


def load_config(path) -> RunConfig:
    """Read a YAML run config, or a run manifest (JSON) embedding one."""
    return config_from_dict(load_raw(path))


@dataclass(frozen=True)
class SweepConfig:
    """S-curve sweep plan: frequencies and the target-amplitude grid.

    The grid defaults follow the hardware-scale protocol (0.25 Hz frequency
    spacing, 0.2 mm amplitude steps); desk-scale configs override them.
    """

    oracle: OracleSpec
    omega_start: float
    omega_stop: float
    A_start: float
    A_stop: float
    omega_step: float = 0.25
    A_step: float = 0.2
    seed: int = 0
    threads: int = 1
    units: dict = field(default_factory=dict)

    def omegas(self):
        n = int(round((self.omega_stop - self.omega_start) / self.omega_step)) + 1
        return [self.omega_start + i * self.omega_step for i in range(max(n, 1))]

    def A_grid(self):
        n = int(round((self.A_stop - self.A_start) / self.A_step)) + 1
        return [self.A_start + i * self.A_step for i in range(max(n, 1))]

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle.to_dict(),
            "sweep": _fields(self, SWEEP_KEYS),
            **_fields(self, SEED_THREADS_KEYS), "units": dict(self.units),
        }


@dataclass(frozen=True)
class NlfrConfig:
    datasets: tuple[str, ...]
    run_logs: tuple[str, ...]
    gamma_level: float
    band: float = 0.05

    def to_dict(self) -> dict:
        return {"inputs": {"datasets": list(self.datasets), "run_logs": list(self.run_logs)},
                **_fields(self, NLFR_KEYS)}


@dataclass(frozen=True)
class EnsembleConfig:
    """Dropout-ensemble protocol: by default 300 runs, each with 10% of
    the points removed."""

    dataset: str
    n_runs: int = 300
    dropout_fraction: float = 0.10
    fit_n_starts: int = 1
    max_steps: int = 150
    seed: int = 0
    threads: int = 1

    def to_dict(self) -> dict:
        return {"inputs": {"dataset": self.dataset}, **_fields(self, ENSEMBLE_KEYS)}


@dataclass(frozen=True)
class OfflineConfig:
    dataset: str
    hyper: Hyperparameters | None = None
    x0: tuple[float, float] | None = None
    max_steps: int = 150
    h: float = 0.1
    h_max: float = 0.3
    seed: int = 0

    def to_dict(self) -> dict:
        return {"inputs": {"dataset": self.dataset},
                "hyperparameters": self.hyper.as_dict() if self.hyper else None,
                "x0": list(self.x0) if self.x0 else None, **_fields(self, OFFLINE_KEYS)}


def sweep_config_from_dict(raw: dict) -> SweepConfig:
    _require_keys(raw, {"oracle", "sweep", "units", *SEED_THREADS_KEYS},
                  {"oracle", "sweep"}, "sweep config")
    s = raw["sweep"]
    _require_keys(s, set(SWEEP_KEYS), {"omega_start", "omega_stop", "A_start", "A_stop"}, "sweep")
    return SweepConfig(oracle=_parse_oracle(raw["oracle"]), units=dict(raw.get("units") or {}),
                       **_read(s, SWEEP_KEYS, "sweep"), **_read(raw, SEED_THREADS_KEYS, "config"))


def nlfr_config_from_dict(raw: dict) -> NlfrConfig:
    _require_keys(raw, {"inputs", *NLFR_KEYS}, {"inputs", "gamma_level"}, "nlfr config")
    inp = raw["inputs"]
    _require_keys(inp, {"datasets", "run_logs"}, set(), "nlfr.inputs")
    return NlfrConfig(datasets=tuple(inp.get("datasets") or ()),
                      run_logs=tuple(inp.get("run_logs") or ()), **_read(raw, NLFR_KEYS, "nlfr"))


def ensemble_config_from_dict(raw: dict) -> EnsembleConfig:
    _require_keys(raw, {"inputs", *ENSEMBLE_KEYS}, {"inputs"}, "ensemble config")
    inp = raw["inputs"]
    _require_keys(inp, {"dataset"}, {"dataset"}, "ensemble.inputs")
    return EnsembleConfig(dataset=inp["dataset"], **_read(raw, ENSEMBLE_KEYS, "ensemble"))


def offline_config_from_dict(raw: dict) -> OfflineConfig:
    _require_keys(raw, {"inputs", "hyperparameters", "x0", *OFFLINE_KEYS}, {"inputs"},
                  "offline config")
    inp = raw["inputs"]
    _require_keys(inp, {"dataset"}, {"dataset"}, "offline.inputs")
    hyper = _parse_hyper(raw["hyperparameters"], "offline.hyperparameters") \
        if raw.get("hyperparameters") else None
    try:
        x0 = tuple(float(v) for v in raw["x0"]) if raw.get("x0") else None
    except (TypeError, ValueError):
        x0 = ()
    if x0 is not None and len(x0) != 2:
        raise ConfigError(f"offline.x0: expected two numbers [omega, A], got {raw['x0']!r}")
    return OfflineConfig(dataset=inp["dataset"], hyper=hyper, x0=x0,
                         **_read(raw, OFFLINE_KEYS, "offline"))


def load_raw(path) -> dict:
    """Read YAML or manifest JSON into the raw config mapping."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text(encoding="utf-8")
    try:
        raw = json.loads(text) if path.suffix == ".json" else yaml.safe_load(text)
    except (json.JSONDecodeError, yaml.YAMLError) as e:
        raise ConfigError(f"could not parse {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    if "config" in raw and ("versions" in raw or "config_sha256" in raw):
        raw = raw["config"]
    return raw


def make_oracle(spec: OracleSpec, run_seed: int = 0, base_dir: Path | None = None):
    """Instantiate the measurement back-end named by the config."""
    from .oracles import (DuffingOracle, DuffingParams, IsolaOracle, IsolaParams,
                          ISOLA_DOMAIN, ReplayOracle)

    seed = spec.seed if spec.seed is not None else run_seed
    params = dict(spec.params)
    try:
        if spec.name == "duffing":
            if spec.domain_box is None:
                raise ConfigError("duffing oracle requires oracle.domain_box")
            return DuffingOracle(DuffingParams(**params), spec.domain_box, seed=seed)
        if spec.name == "isola":
            return IsolaOracle(IsolaParams(**params),
                               spec.domain_box or ISOLA_DOMAIN, seed=seed)
        if spec.name == "rig":
            from .rig import RigOracle, RigParams
            if spec.domain_box is None:
                raise ConfigError("rig oracle requires oracle.domain_box")
            return RigOracle(RigParams(**params), spec.domain_box, seed=seed)
        if spec.name == "replay":
            from .csvio import read_dataset_csv
            path = Path(params.pop("path"))
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            ds = read_dataset_csv(path)
            return ReplayOracle(ds.X, ds.F, **params)
    except TypeError as e:
        raise ConfigError(f"bad parameters for oracle '{spec.name}': {e}") from e
    except KeyError as e:
        raise ConfigError(f"oracle '{spec.name}' missing parameter: {e}") from e
    raise ConfigError(f"unknown oracle '{spec.name}'")
