"""CSV and manifest writers/readers; `write_rows` writes every CSV artifact.

Floats are serialized with repr (shortest round-trip form) so that re-running
a configuration reproduces every artifact byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import MissingInput
from .gpr import Dataset

DATASET_HEADER = ["omega", "A", "F"]
RUN_LOG_HEADER = ["step", "omega", "A", "gamma_model", "gamma_measured",
                  "t_omega", "t_A", "h", "newton_iters"]
COLLECTION_LOG_HEADER = ["step", "collection_idx", "omega_req", "A_req",
                         "omega_meas", "A_meas", "F_meas", "beta_max"]


def _cell(value) -> str:
    """None gives an empty cell, a str passes unchanged, an integer gives its
    digits, and any other value gives the repr of float(value)."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_rows(path, header, rows):
    """Write `header` and then every row of `rows`, one cell format for all."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])


def write_dataset_csv(path, dataset: Dataset):
    write_rows(path, DATASET_HEADER, np.column_stack([dataset.X, dataset.F]))


def read_dataset_csv(path) -> Dataset:
    path = Path(path)
    if not path.exists():
        raise MissingInput(f"dataset file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        header = next(r)
        if header != DATASET_HEADER:
            raise ValueError(f"unexpected dataset header {header}, want {DATASET_HEADER}")
        rows = [[float(c) for c in row] for row in r if row]
    arr = np.array(rows, dtype=float).reshape(-1, 3)
    return Dataset(arr[:, :2], arr[:, 2])


def write_run_log(path, step_rows):
    """step_rows: iterables matching RUN_LOG_HEADER order."""
    write_rows(path, RUN_LOG_HEADER, step_rows)


def read_run_log(path):
    """Returns a list of dicts with floats (gamma_measured may be None)."""
    path = Path(path)
    if not path.exists():
        raise MissingInput(f"run log not found: {path}")
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            out.append({
                "step": int(rec["step"]),
                "omega": float(rec["omega"]),
                "A": float(rec["A"]),
                "gamma_model": float(rec["gamma_model"]),
                "gamma_measured": float(rec["gamma_measured"]) if rec["gamma_measured"] else None,
                "t_omega": float(rec["t_omega"]),
                "t_A": float(rec["t_A"]),
                "h": float(rec["h"]),
                "newton_iters": int(rec["newton_iters"]),
            })
    return out


def write_collection_log(path, rows):
    write_rows(path, COLLECTION_LOG_HEADER, rows)


def config_digest(config_dict: dict) -> str:
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(path, *, config_dict: dict, seed: int, threads: int,
                   status: str, reason: str, outputs: list[str], extra: dict | None = None):
    import scipy

    from . import __version__

    manifest = {
        "config": config_dict,
        "config_sha256": config_digest(config_dict),
        "seed": seed,
        "threads": threads,
        "status": status,
        "reason": reason,
        "outputs": sorted(outputs),
        "versions": {
            "foldtrack": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if extra:
        manifest.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return manifest
