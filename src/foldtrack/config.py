"""Declarative run configuration: YAML schema, strict validation, oracle factory.

A config file fully determines a run; the manifest written next to the run
artifacts embeds the resolved config so any run can be reproduced from its
manifest alone.  Unknown keys are rejected everywhere: unit confusion and
typos are the dominant operator errors with mixed Hz/mm/N quantities, so
every field is explicit and optionally annotated in the free-form `units`
block.  For the same reason no value is coerced: every scalar is read by
the reader its key names, and a value of the wrong kind is a ConfigError
that names its section and key.
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


# Scalar readers.  Each refuses what bool() or int() would coerce: bool("false") is
# True, int(2.7) is 2.  A numeric string is a number: PyYAML reads 1e-6 as a string.
def _bool(v) -> bool:
    if not isinstance(v, bool):
        raise ValueError("expected true or false")
    return v


def _int(v) -> int:
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError("expected an integer")
    return int(v)


def _seed(v) -> int:
    v = _int(v)
    if v < 0:
        raise ValueError("expected a non-negative integer")
    return v


def _float(v) -> float:
    if isinstance(v, bool):
        raise ValueError("expected a number")
    return float(v)


def _str(v) -> str:
    if not isinstance(v, str):
        raise ValueError("expected a string")
    return v


def _mapping(v) -> dict:
    """A mapping, with null read as an empty one."""
    if v is None:
        return {}
    if not isinstance(v, dict):
        raise ValueError("expected a mapping")
    return dict(v)


def _optional(read):
    """`read`, with null read as None."""
    return lambda v: None if v is None else read(v)


def _list(read, n=None):
    """The reader of a list (of `n` values, if given), each value read by `read`."""
    def values(v):
        if not isinstance(v, list) or (n is not None and len(v) != n):
            raise ValueError(f"expected a list of {n or 'values'}")
        return tuple(read(x) for x in v)
    return values


# One table per config section: each key and the reader that parses its
# value.  A parser passes on only the keys a config gives, so every default
# lives in its dataclass alone, and `to_dict` writes back the same keys.
CONTINUATION_KEYS = {"h": _float, "h_min": _float, "h_max": _float, "newton_tol": _float,
                     "newton_max_iter": _int, "max_steps": _int}
ACQUISITION_KEYS = {"n_test": _int, "beta_tol": _float, "n_max": _int,
                    "ellipse_semi_omega": _optional(_float),
                    "ellipse_semi_A": _optional(_float), "max_points_per_step": _int}
HYPER_FLAG_KEYS = {"fit": _bool, "refit_each_step": _bool, "n_starts": _int}
SEED_THREADS_KEYS = {"seed": _seed, "threads": _int}
RUN_KEYS = {**SEED_THREADS_KEYS, "measure_at_solution": _bool}
SWEEP_KEYS = {k: _float for k in ("omega_start", "omega_stop", "omega_step",
                                  "A_start", "A_stop", "A_step")}
NLFR_KEYS = {"gamma_level": _float, "band": _float}
ENSEMBLE_KEYS = {"n_runs": _int, "dropout_fraction": _float, "fit_n_starts": _int,
                 "max_steps": _int, **SEED_THREADS_KEYS}
OFFLINE_KEYS = {"x0": _optional(_list(_float, 2)), "max_steps": _int, "h": _float,
                "h_max": _float, "seed": _seed}
ORACLE_KEYS = {"params": _mapping, "seed": _optional(_seed)}
INIT_KEYS = {"grid_shape": _list(_int, 2)}
X0_KEYS = {"omega": _float, "A": _float}
HALF_WIDTH_KEYS = {"omega": _optional(_float), "A": _optional(_float)}
BOX_KEYS = {k: _float for k in ("omega_min", "omega_max", "A_min", "A_max")}
HYPER_KEYS = {k: _float for k in ("sigma_n2", "sigma_f2", "l_omega", "l_A")}
BOUNDS_KEYS = {k: _list(_float, 2) for k in HYPER_KEYS}
INPUT_KEYS = {"dataset": _str}
NLFR_INPUT_KEYS = {k: _optional(_list(_str)) for k in ("datasets", "run_logs")}


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


def _section(d, table: dict, where: str, required=()) -> dict:
    """`_read` of the mapping `d`, whose keys come from `table`, `required` among them."""
    _require_keys(d, set(table), set(required), where)
    return _read(d, table, where)


def _checked(where: str, cls, **kw):
    """cls(**kw), with a value its checks refuse as a ConfigError that names `where`."""
    try:
        return cls(**kw)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def _at_least_one(obj, where: str, *keys: str):
    for k in keys:
        if getattr(obj, k) < 1:
            raise ConfigError(f"{where}.{k} must be >= 1, got {getattr(obj, k)}")


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
            raise ConfigError("init.grid_shape entries must be >= 1")
        for axis, n, w in zip(("omega", "A"), self.grid_shape,
                              (self.half_width_omega, self.half_width_A)):
            if n > 1 and w is not None and not w > 0:
                raise ConfigError(f"init.half_widths.{axis} must be > 0 for {n} points, got {w}")

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
        _at_least_one(self, "config", "threads")
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


def _parse_hyper(d, where) -> Hyperparameters:
    return _checked(where, Hyperparameters, **_section(d, HYPER_KEYS, where, HYPER_KEYS))


def _parse_oracle(raw: dict) -> OracleSpec:
    _require_keys(raw, {"name", "domain_box", *ORACLE_KEYS}, {"name"}, "oracle")
    where = "oracle.domain_box"
    box = _checked(where, DomainBox, **_section(raw["domain_box"], BOX_KEYS, where, BOX_KEYS)) \
        if raw.get("domain_box") else None
    return OracleSpec(name=raw["name"], domain_box=box, **_read(raw, ORACLE_KEYS, "oracle"))


def config_from_dict(raw: dict) -> RunConfig:
    _require_keys(raw, {"oracle", "init", "hyperparameters", "continuation",
                        "acquisition", "units", *RUN_KEYS},
                  {"oracle", "init", "hyperparameters"}, "config")

    oracle = _parse_oracle(raw["oracle"])

    i = raw["init"]
    _require_keys(i, {"x0", "half_widths", *INIT_KEYS}, {"x0"}, "init")
    x0 = _section(i["x0"], X0_KEYS, "init.x0", X0_KEYS)
    hw = _section(i.get("half_widths") or {}, HALF_WIDTH_KEYS, "init.half_widths")
    init = InitConfig(x0_omega=x0["omega"], x0_A=x0["A"], half_width_omega=hw.get("omega"),
                      half_width_A=hw.get("A"), **_read(i, INIT_KEYS, "init"))

    h = raw["hyperparameters"]
    _require_keys(h, {"init", "bounds", *HYPER_FLAG_KEYS}, {"init"}, "hyperparameters")
    where = "hyperparameters.bounds"
    bounds = _checked(where, FitBounds, **_section(h["bounds"], BOUNDS_KEYS, where, BOUNDS_KEYS)) \
        if h.get("bounds") else None
    hyper = HyperConfig(init=_parse_hyper(h["init"], "hyperparameters.init"), bounds=bounds,
                        **_read(h, HYPER_FLAG_KEYS, "hyperparameters"))

    cont = _checked("continuation", ContinuationConfig, domain_box=oracle.domain_box,
                    **_section(raw.get("continuation") or {}, CONTINUATION_KEYS, "continuation"))
    acq = _checked("acquisition", AcquisitionConfig,
                   **_section(raw.get("acquisition") or {}, ACQUISITION_KEYS, "acquisition"))

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

    def __post_init__(self):
        inf = float("inf")
        for axis in ("omega", "A"):
            start, stop, step = (getattr(self, f"{axis}_{k}") for k in ("start", "stop", "step"))
            if not (0.0 < step < inf and -inf < start <= stop < inf):
                raise ConfigError(f"sweep: need {axis}_step > 0 and {axis}_start <= {axis}_stop, "
                                  f"all finite; got {step} from {start} to {stop}")
        _at_least_one(self, "config", "threads")

    def omegas(self):
        n = int(round((self.omega_stop - self.omega_start) / self.omega_step)) + 1
        return [self.omega_start + i * self.omega_step for i in range(n)]

    def A_grid(self):
        n = int(round((self.A_stop - self.A_start) / self.A_step)) + 1
        return [self.A_start + i * self.A_step for i in range(n)]

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

    def __post_init__(self):
        _at_least_one(self, "ensemble", "n_runs", "fit_n_starts", "threads")
        self.continuation()

    def continuation(self) -> ContinuationConfig:
        return _checked("ensemble", ContinuationConfig, max_steps=self.max_steps)

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

    def __post_init__(self):
        self.continuation()

    def continuation(self) -> ContinuationConfig:
        return _checked("offline", ContinuationConfig, h=self.h, h_max=self.h_max,
                        max_steps=self.max_steps)

    def to_dict(self) -> dict:
        return {"inputs": {"dataset": self.dataset},
                "hyperparameters": self.hyper.as_dict() if self.hyper else None,
                **_fields(self, OFFLINE_KEYS)}


def sweep_config_from_dict(raw: dict) -> SweepConfig:
    _require_keys(raw, {"oracle", "sweep", "units", *SEED_THREADS_KEYS},
                  {"oracle", "sweep"}, "sweep config")
    sweep = _section(raw["sweep"], SWEEP_KEYS, "sweep",
                     {"omega_start", "omega_stop", "A_start", "A_stop"})
    return SweepConfig(oracle=_parse_oracle(raw["oracle"]), units=dict(raw.get("units") or {}),
                       **sweep, **_read(raw, SEED_THREADS_KEYS, "config"))


def nlfr_config_from_dict(raw: dict) -> NlfrConfig:
    _require_keys(raw, {"inputs", *NLFR_KEYS}, {"inputs", "gamma_level"}, "nlfr config")
    inp = _section(raw["inputs"], NLFR_INPUT_KEYS, "nlfr.inputs")
    return NlfrConfig(datasets=inp.get("datasets") or (), run_logs=inp.get("run_logs") or (),
                      **_read(raw, NLFR_KEYS, "nlfr"))


def ensemble_config_from_dict(raw: dict) -> EnsembleConfig:
    _require_keys(raw, {"inputs", *ENSEMBLE_KEYS}, {"inputs"}, "ensemble config")
    return EnsembleConfig(**_section(raw["inputs"], INPUT_KEYS, "ensemble.inputs", INPUT_KEYS),
                          **_read(raw, ENSEMBLE_KEYS, "ensemble"))


def offline_config_from_dict(raw: dict) -> OfflineConfig:
    _require_keys(raw, {"inputs", "hyperparameters", *OFFLINE_KEYS}, {"inputs"},
                  "offline config")
    hyper = _parse_hyper(raw["hyperparameters"], "offline.hyperparameters") \
        if raw.get("hyperparameters") else None
    return OfflineConfig(**_section(raw["inputs"], INPUT_KEYS, "offline.inputs", INPUT_KEYS),
                         hyper=hyper, **_read(raw, OFFLINE_KEYS, "offline"))


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

    if spec.domain_box is None and spec.name in ("duffing", "rig"):
        raise ConfigError(f"{spec.name} oracle requires oracle.domain_box")
    seed = spec.seed if spec.seed is not None else run_seed
    params = dict(spec.params)
    try:
        if spec.name == "duffing":
            return DuffingOracle(DuffingParams(**params), spec.domain_box, seed=seed)
        if spec.name == "isola":
            return IsolaOracle(IsolaParams(**params),
                               spec.domain_box or ISOLA_DOMAIN, seed=seed)
        if spec.name == "rig":
            from .rig import RigOracle, RigParams
            return RigOracle(RigParams(**params), spec.domain_box, seed=seed)
        if spec.name == "replay":
            from .csvio import read_dataset_csv
            path = Path(params.pop("path"))
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            ds = read_dataset_csv(path)
            return ReplayOracle(ds.X, ds.F, **params)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"oracle.params: bad parameters for oracle '{spec.name}': {e}") from e
    except KeyError as e:
        raise ConfigError(f"oracle.params: oracle '{spec.name}' missing parameter: {e}") from e
