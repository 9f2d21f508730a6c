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
        c = self.continuation
        a = self.acquisition
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
                "fit": self.hyper.fit,
                "refit_each_step": self.hyper.refit_each_step,
                "n_starts": self.hyper.n_starts,
            },
            "continuation": {
                "h": c.h, "h_min": c.h_min, "h_max": c.h_max,
                "newton_tol": c.newton_tol, "newton_max_iter": c.newton_max_iter,
                "max_steps": c.max_steps,
            },
            "acquisition": {
                "n_test": a.n_test, "beta_tol": a.beta_tol, "n_max": a.n_max,
                "ellipse_semi_omega": a.ellipse_semi_omega, "ellipse_semi_A": a.ellipse_semi_A,
                "max_points_per_step": a.max_points_per_step,
            },
            "seed": self.seed,
            "threads": self.threads,
            "measure_at_solution": self.measure_at_solution,
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
                        "acquisition", "seed", "threads", "measure_at_solution", "units"},
                  {"oracle", "init", "hyperparameters"}, "config")

    oracle = _parse_oracle(raw["oracle"])

    i = raw["init"]
    _require_keys(i, {"x0", "grid_shape", "half_widths"}, {"x0"}, "init")
    _require_keys(i["x0"], {"omega", "A"}, {"omega", "A"}, "init.x0")
    hw = i.get("half_widths") or {}
    _require_keys(hw, {"omega", "A"}, set(), "init.half_widths")
    shape = i.get("grid_shape") or [5, 5]
    if len(shape) != 2:
        raise ConfigError("init.grid_shape must have two entries")
    init = InitConfig(x0_omega=float(i["x0"]["omega"]), x0_A=float(i["x0"]["A"]),
                      grid_shape=(int(shape[0]), int(shape[1])),
                      half_width_omega=None if hw.get("omega") is None else float(hw["omega"]),
                      half_width_A=None if hw.get("A") is None else float(hw["A"]))

    h = raw["hyperparameters"]
    _require_keys(h, {"init", "bounds", "fit", "refit_each_step", "n_starts"}, {"init"},
                  "hyperparameters")
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
                        fit=bool(h.get("fit", True)),
                        refit_each_step=bool(h.get("refit_each_step", False)),
                        n_starts=int(h.get("n_starts", 5)))

    c = raw.get("continuation") or {}
    _require_keys(c, {"h", "h_min", "h_max", "newton_tol", "newton_max_iter", "max_steps"},
                  set(), "continuation")
    try:
        cont = ContinuationConfig(
            h=float(c.get("h", 0.1)), h_min=float(c.get("h_min", 1e-3)),
            h_max=float(c.get("h_max", 0.5)), newton_tol=float(c.get("newton_tol", 1e-8)),
            newton_max_iter=int(c.get("newton_max_iter", 20)),
            domain_box=oracle.domain_box, max_steps=int(c.get("max_steps", 50)))
    except ValueError as e:
        raise ConfigError(f"continuation: {e}") from e

    a = raw.get("acquisition") or {}
    _require_keys(a, {"n_test", "beta_tol", "n_max", "ellipse_semi_omega",
                      "ellipse_semi_A", "max_points_per_step"}, set(), "acquisition")
    try:
        acq = AcquisitionConfig(
            n_test=int(a.get("n_test", 50)), beta_tol=float(a.get("beta_tol", 4e-2)),
            n_max=int(a.get("n_max", 100)),
            ellipse_semi_omega=None if a.get("ellipse_semi_omega") is None
                               else float(a["ellipse_semi_omega"]),
            ellipse_semi_A=None if a.get("ellipse_semi_A") is None else float(a["ellipse_semi_A"]),
            max_points_per_step=int(a.get("max_points_per_step", 10)))
    except ValueError as e:
        raise ConfigError(f"acquisition: {e}") from e

    units = raw.get("units") or {}
    if not isinstance(units, dict):
        raise ConfigError("units must be a mapping of field name to unit string")

    return RunConfig(oracle=oracle, init=init, hyper=hyper, continuation=cont,
                     acquisition=acq, seed=int(raw.get("seed", 0)),
                     threads=int(raw.get("threads", 1)),
                     measure_at_solution=bool(raw.get("measure_at_solution", True)),
                     units={str(k): str(v) for k, v in units.items()})


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
            "sweep": {"omega_start": self.omega_start, "omega_stop": self.omega_stop,
                      "omega_step": self.omega_step, "A_start": self.A_start,
                      "A_stop": self.A_stop, "A_step": self.A_step},
            "seed": self.seed, "threads": self.threads, "units": dict(self.units),
        }


@dataclass(frozen=True)
class NlfrConfig:
    datasets: tuple[str, ...]
    run_logs: tuple[str, ...]
    gamma_level: float
    band: float = 0.05

    def to_dict(self) -> dict:
        return {"inputs": {"datasets": list(self.datasets), "run_logs": list(self.run_logs)},
                "gamma_level": self.gamma_level, "band": self.band}


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
        return {"inputs": {"dataset": self.dataset}, "n_runs": self.n_runs,
                "dropout_fraction": self.dropout_fraction, "fit_n_starts": self.fit_n_starts,
                "max_steps": self.max_steps, "seed": self.seed, "threads": self.threads}


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
                "x0": list(self.x0) if self.x0 else None,
                "max_steps": self.max_steps, "h": self.h, "h_max": self.h_max,
                "seed": self.seed}


def sweep_config_from_dict(raw: dict) -> SweepConfig:
    _require_keys(raw, {"oracle", "sweep", "seed", "threads", "units"},
                  {"oracle", "sweep"}, "sweep config")
    s = raw["sweep"]
    _require_keys(s, {"omega_start", "omega_stop", "omega_step", "A_start", "A_stop", "A_step"},
                  {"omega_start", "omega_stop", "A_start", "A_stop"}, "sweep")
    return SweepConfig(oracle=_parse_oracle(raw["oracle"]),
                       omega_start=float(s["omega_start"]), omega_stop=float(s["omega_stop"]),
                       omega_step=float(s.get("omega_step", 0.25)),
                       A_start=float(s["A_start"]), A_stop=float(s["A_stop"]),
                       A_step=float(s.get("A_step", 0.2)),
                       seed=int(raw.get("seed", 0)), threads=int(raw.get("threads", 1)),
                       units=dict(raw.get("units") or {}))


def nlfr_config_from_dict(raw: dict) -> NlfrConfig:
    _require_keys(raw, {"inputs", "gamma_level", "band"}, {"inputs", "gamma_level"},
                  "nlfr config")
    inp = raw["inputs"]
    _require_keys(inp, {"datasets", "run_logs"}, set(), "nlfr.inputs")
    return NlfrConfig(datasets=tuple(inp.get("datasets") or ()),
                      run_logs=tuple(inp.get("run_logs") or ()),
                      gamma_level=float(raw["gamma_level"]),
                      band=float(raw.get("band", 0.05)))


def ensemble_config_from_dict(raw: dict) -> EnsembleConfig:
    _require_keys(raw, {"inputs", "n_runs", "dropout_fraction", "fit_n_starts",
                        "max_steps", "seed", "threads"}, {"inputs"}, "ensemble config")
    inp = raw["inputs"]
    _require_keys(inp, {"dataset"}, {"dataset"}, "ensemble.inputs")
    return EnsembleConfig(dataset=inp["dataset"], n_runs=int(raw.get("n_runs", 300)),
                          dropout_fraction=float(raw.get("dropout_fraction", 0.10)),
                          fit_n_starts=int(raw.get("fit_n_starts", 1)),
                          max_steps=int(raw.get("max_steps", 150)),
                          seed=int(raw.get("seed", 0)), threads=int(raw.get("threads", 1)))


def offline_config_from_dict(raw: dict) -> OfflineConfig:
    _require_keys(raw, {"inputs", "hyperparameters", "x0", "max_steps", "h", "h_max", "seed"},
                  {"inputs"}, "offline config")
    inp = raw["inputs"]
    _require_keys(inp, {"dataset"}, {"dataset"}, "offline.inputs")
    hyper = _parse_hyper(raw["hyperparameters"], "offline.hyperparameters") \
        if raw.get("hyperparameters") else None
    x0 = tuple(float(v) for v in raw["x0"]) if raw.get("x0") else None
    if x0 is not None and len(x0) != 2:
        raise ConfigError("offline.x0 must have two entries (omega, A)")
    return OfflineConfig(dataset=inp["dataset"], hyper=hyper, x0=x0,
                         max_steps=int(raw.get("max_steps", 150)),
                         h=float(raw.get("h", 0.1)), h_max=float(raw.get("h_max", 0.3)),
                         seed=int(raw.get("seed", 0)))


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
