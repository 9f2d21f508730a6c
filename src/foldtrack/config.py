"""Declarative run configuration: YAML schema, strict validation, oracle factory.

A config file fully determines a run; the manifest written next to the run
artifacts embeds the resolved config so any run can be reproduced from its
manifest alone.  Unknown keys are rejected everywhere: unit confusion and
typos are the dominant operator errors with mixed Hz/mm/N quantities, so
every field is explicit and optionally annotated in the free-form `units`
block.  For the same reason no value is coerced: every scalar is read by
the reader its key names, and a value of the wrong kind is a ConfigError
that names its section and key.

Each command's schema is declared once, as one table (`RUN`, `SWEEP`,
`NLFR`, `ENSEMBLE`, `OFFLINE`) of its keys, their readers, the required
keys and the dataclass each nested mapping builds or fills.  `_read` parses
a raw mapping by its table and `_write` writes a config back by the same
table; every `to_dict` returns `_write`, so the config a manifest embeds
parses back to an equal config.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import yaml

from .acquisition import AcquisitionConfig
from .continuation import ContinuationConfig
from .errors import ConfigError
from .geometry import DomainBox
from .gpr import HYPER_NAMES, FitBounds, Hyperparameters
from .oracles import (ISOLA_DOMAIN, DuffingOracle, DuffingParams, IsolaOracle, IsolaParams,
                      ReplayOracle)


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
    if isinstance(v, bool) or not math.isfinite(float(v)):
        raise ValueError("expected a finite number")
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


def _units(v) -> dict:
    """A mapping of strings to strings, with null read as an empty one."""
    v = _mapping(v)
    if not all(isinstance(s, str) for item in v.items() for s in item):
        raise ValueError("expected a mapping of strings to strings")
    return v


def _optional(read, none=None):
    """`read`, with null read as `none`."""
    return lambda v: none if v is None else read(v)


def _list(read, n=None):
    """The reader of a list (of `n` values, if given), each value read by `read`."""
    def values(v):
        if not isinstance(v, list) or (n is not None and len(v) != n):
            raise ValueError(f"expected a list of {n or 'values'}")
        return tuple(read(x) for x in v)
    return values


class _Table(NamedTuple):
    """One mapping of a config: each key with the reader of its value or the
    table of its nested mapping, and the keys it requires.

    A table with `cls` builds one, the argument `attr` (its key if None) of
    the enclosing object; a table without fills arguments of the enclosing
    object, `prefix` + key for each of its keys.  A nested mapping that is
    not required and given as null or `{}` reads as not given; any other
    value is read, so one that is no mapping is refused.  A key not
    given passes no argument, so every default lives in its dataclass alone.
    """

    keys: dict
    required: tuple = ()
    cls: type | None = None
    attr: str | None = None
    prefix: str = ""


def _read(d, table: _Table, where: str, label: str | None = None):
    """The object `table` builds from the mapping `d`, or the arguments it fills.

    A refusal of `d` itself names `label` (`where` if None), a refused value
    `where`.key, and a nested mapping is read at `where`.key, except that the
    sections of a run or sweep config are named from the top: `oracle`, not
    `config.oracle`.
    """
    label = label or where
    if not isinstance(d, dict):
        raise ConfigError(f"{label}: expected a mapping, got {type(d).__name__}")
    if unknown := set(d) - set(table.keys):
        raise ConfigError(f"{label}: unknown keys {sorted(unknown)} "
                          f"(allowed: {sorted(table.keys)})")
    if missing := set(table.required) - set(d):
        raise ConfigError(f"{label}: missing required keys {sorted(missing)}")
    kw = {}
    for k, read in table.keys.items():
        if isinstance(read, _Table):
            if k in table.required or d.get(k) not in (None, {}):
                got = _read(d[k], read, f"{where}.{k}".removeprefix("config."))
                kw.update({read.attr or k: got} if read.cls else got)
        elif k in d:
            try:
                kw[table.prefix + k] = read(d[k])
            except (TypeError, ValueError) as e:
                raise ConfigError(f"{where}.{k}: cannot read {d[k]!r} ({e})") from e
    return _checked(where, table.cls, **kw) if table.cls else kw


def _write(obj, table: _Table) -> dict:
    """The mapping that `_read` reads back by `table` as `obj` (for a table
    without `cls`, as the arguments of `obj` it fills)."""
    out = {}
    for k, read in table.keys.items():
        if not isinstance(read, _Table):
            v = getattr(obj, table.prefix + k)
            out[k] = list(v) if isinstance(v, tuple) else dict(v) if isinstance(v, dict) else v
        elif read.cls is None:
            out[k] = _write(obj, read)
        else:
            v = getattr(obj, read.attr or k)
            out[k] = None if v is None else _write(v, read)
    return out


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


@dataclass(frozen=True)
class OracleSpec:
    """The measurement back-end; an isola oracle without a domain box gets ISOLA_DOMAIN."""

    name: str
    params: dict = field(default_factory=dict)
    domain_box: DomainBox | None = None

    KNOWN = ("duffing", "isola", "rig", "replay")

    def __post_init__(self):
        if self.name not in self.KNOWN:
            raise ConfigError(f"unknown oracle '{self.name}'; known: {self.KNOWN}")
        if self.domain_box is None and self.name == "isola":
            object.__setattr__(self, "domain_box", ISOLA_DOMAIN)


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
    refit_each_step: bool = False


@dataclass(frozen=True)
class RunConfig:
    """An online trace; it continues within its oracle's domain box."""

    oracle: OracleSpec
    init: InitConfig
    hyper: HyperConfig
    continuation: ContinuationConfig = field(default_factory=ContinuationConfig)
    acquisition: AcquisitionConfig = field(default_factory=AcquisitionConfig)
    seed: int = 0
    threads: int = 1
    units: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "continuation",
                           replace(self.continuation, domain_box=self.oracle.domain_box))
        _at_least_one(self, "config", "threads")
        if self.acquisition.n_max < self.init.n0:
            raise ConfigError(
                f"acquisition.n_max ({self.acquisition.n_max}) must be >= the "
                f"initialization grid size n0 ({self.init.n0})")

    def to_dict(self) -> dict:
        return _write(self, RUN)


def _grid(start: float, stop: float, step: float) -> list[float]:
    """start + i * step for i = 0, 1, ... while i * step <= stop - start.

    A whole number of steps that reaches stop to within 1e-9 of a step
    counts as reaching it, and each value is clamped at stop, so no value
    lies past stop even by the round-off of start + i * step."""
    n = math.floor((stop - start) / step + 1e-9) + 1
    return [min(start + i * step, stop) for i in range(n)]


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
        return _grid(self.omega_start, self.omega_stop, self.omega_step)

    def A_grid(self):
        return _grid(self.A_start, self.A_stop, self.A_step)

    def to_dict(self) -> dict:
        return _write(self, SWEEP)


@dataclass(frozen=True)
class NlfrConfig:
    gamma_level: float
    datasets: tuple[str, ...] = ()
    run_logs: tuple[str, ...] = ()
    band: float = 0.05

    def to_dict(self) -> dict:
        return _write(self, NLFR)


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
        return _write(self, ENSEMBLE)


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
        return _write(self, OFFLINE)


# One table per command, declaring each key of its config once: `_read`
# parses a raw mapping by it and `_write` writes the config back by it.
_BOX = ("omega_min", "omega_max", "A_min", "A_max")
_AXES = ("omega", "A")
_HYPERPARAMETERS = _Table(dict.fromkeys(HYPER_NAMES, _float), HYPER_NAMES, Hyperparameters)
_ORACLE = _Table({"name": _str, "params": _mapping,
                  "domain_box": _Table(dict.fromkeys(_BOX, _float), _BOX, DomainBox)},
                 ("name",), OracleSpec)
_DATASET = _Table({"dataset": _str}, ("dataset",))
_RUN_SCALARS = {"seed": _seed, "threads": _int, "units": _units}

RUN = _Table({
    "oracle": _ORACLE,
    "init": _Table({"x0": _Table(dict.fromkeys(_AXES, _float), _AXES, prefix="x0_"),
                    "grid_shape": _list(_int, 2),
                    "half_widths": _Table(dict.fromkeys(_AXES, _optional(_float)),
                                          prefix="half_width_")},
                   ("x0",), InitConfig),
    "hyperparameters": _Table({"init": _HYPERPARAMETERS,
                               "bounds": _Table(dict.fromkeys(HYPER_NAMES, _list(_float, 2)),
                                                HYPER_NAMES, FitBounds),
                               "refit_each_step": _bool},
                              ("init",), HyperConfig, "hyper"),
    "continuation": _Table({"h": _float, "h_max": _float, "max_steps": _int},
                           cls=ContinuationConfig),
    "acquisition": _Table({"n_test": _int, "beta_tol": _float, "n_max": _int,
                           "max_points_per_step": _int}, cls=AcquisitionConfig),
    **_RUN_SCALARS}, ("oracle", "init", "hyperparameters"), RunConfig)
SWEEP = _Table({"oracle": _ORACLE,
                "sweep": _Table(dict.fromkeys(("omega_start", "omega_stop", "omega_step",
                                               "A_start", "A_stop", "A_step"), _float),
                                ("omega_start", "omega_stop", "A_start", "A_stop")),
                **_RUN_SCALARS}, ("oracle", "sweep"), SweepConfig)
NLFR = _Table({"inputs": _Table(dict.fromkeys(("datasets", "run_logs"),
                                              _optional(_list(_str), ()))),
               "gamma_level": _float, "band": _float}, ("inputs", "gamma_level"), NlfrConfig)
ENSEMBLE = _Table({"inputs": _DATASET, "n_runs": _int, "dropout_fraction": _float,
                   "fit_n_starts": _int, "max_steps": _int, "seed": _seed, "threads": _int},
                  ("inputs",), EnsembleConfig)
OFFLINE = _Table({"inputs": _DATASET, "hyperparameters": _HYPERPARAMETERS._replace(attr="hyper"),
                  "x0": _optional(_list(_float, 2)), "max_steps": _int, "h": _float,
                  "h_max": _float, "seed": _seed}, ("inputs",), OfflineConfig)


def config_from_dict(raw: dict) -> RunConfig:
    return _read(raw, RUN, "config")


def load_config(path) -> RunConfig:
    """Read a YAML run config, or a run manifest (JSON) embedding one."""
    return config_from_dict(load_raw(path))


def sweep_config_from_dict(raw: dict) -> SweepConfig:
    return _read(raw, SWEEP, "config", "sweep config")


def nlfr_config_from_dict(raw: dict) -> NlfrConfig:
    return _read(raw, NLFR, "nlfr", "nlfr config")


def ensemble_config_from_dict(raw: dict) -> EnsembleConfig:
    return _read(raw, ENSEMBLE, "ensemble", "ensemble config")


def offline_config_from_dict(raw: dict) -> OfflineConfig:
    return _read(raw, OFFLINE, "offline", "offline config")


def load_raw(path) -> dict:
    """Read YAML or manifest JSON into the raw config mapping."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    if not path.is_file():
        raise ConfigError(f"config path is not a file: {path}")
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


def rebase_inputs(cfg, base_dir, out_dir):
    """`cfg` with each relative input path it names moved from `base_dir`, where it
    starts, to `out_dir`; an absolute path stays as it is.

    The input paths are a dataset, nlfr's datasets and run logs, and a replay
    oracle's `path`.  A relative path starts at the directory of the file that
    names it, so a manifest written into `out_dir` with this config names the
    files that the config read from `base_dir` named.
    """
    def move(p):
        return p if os.path.isabs(p) else os.path.relpath(os.path.join(base_dir, p), out_dir)

    if isinstance(cfg, NlfrConfig):
        return replace(cfg, datasets=tuple(map(move, cfg.datasets)),
                       run_logs=tuple(map(move, cfg.run_logs)))
    if isinstance(cfg, (EnsembleConfig, OfflineConfig)):
        return replace(cfg, dataset=move(cfg.dataset))
    params = cfg.oracle.params
    if "path" not in params:
        return cfg
    return replace(cfg, oracle=replace(cfg.oracle, params={**params, "path": move(params["path"])}))


def make_oracle(spec: OracleSpec, run_seed: int = 0, base_dir: Path | None = None):
    """Instantiate the measurement back-end named by the config, seeded by `run_seed`."""
    if spec.domain_box is None and spec.name != "replay":
        raise ConfigError(f"{spec.name} oracle requires oracle.domain_box")
    params = dict(spec.params)
    try:
        if spec.name == "duffing":
            return DuffingOracle(DuffingParams(**params), spec.domain_box, seed=run_seed)
        if spec.name == "isola":
            return IsolaOracle(IsolaParams(**params), spec.domain_box, seed=run_seed)
        if spec.name == "rig":
            from .rig import RigOracle, RigParams
            return RigOracle(RigParams(**params), spec.domain_box, seed=run_seed)
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
