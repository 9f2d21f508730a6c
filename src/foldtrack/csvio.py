"""CSV and manifest writers/readers; `write_rows` writes every CSV artifact.

Floats are serialized with repr (shortest round-trip form) so that re-running
a configuration reproduces every artifact byte for byte.  A traced fold
curve, online (`run_log.csv`) or offline (`fold_curve.csv`), is one
`continuation.CurvePoint` per row: `run_log_rows` (which `write_run_log`
writes) and `read_run_log` are the only code that maps between the two, and
a log they read writes back the same.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .acquisition import CollectionRecord
from .continuation import CurvePoint, FoldPoint, Tangent
from .errors import MissingInput
from .gpr import Dataset

DATASET_HEADER = ["omega", "A", "F"]
RUN_LOG_HEADER = ["step", "omega", "A", "gamma_model", "gamma_measured",
                  "t_omega", "t_A", "h", "newton_iters"]
COLLECTION_LOG_HEADER = ["step", *CollectionRecord._fields]


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
    """The dataset of a DATASET_HEADER file; refuses a row of another length or a
    non-number, nan and inf included."""
    rows = _read_rows(path, DATASET_HEADER, "dataset", lambda k, *cells: _floats(*cells))
    arr = np.array(rows, dtype=float).reshape(-1, 3)
    return Dataset(arr[:, :2], arr[:, 2])


def _read_rows(path, header, what, parse) -> list:
    """parse(k, *cells) of each non-empty row k of the CSV file at `path`, after
    checking its header.

    A row whose cell count is not the header's, or that `parse` refuses with
    a ValueError, raises a ValueError that names the file and the row.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingInput(f"{what} file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        got = next(r, [])
        if got != header:
            raise ValueError(f"{path}: unexpected {what} header {got}, want {header}")
        out = []
        for k, row in enumerate(row for row in r if row):
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells, want {len(header)}")
                out.append(parse(k, *row))
            except ValueError as e:
                raise ValueError(f"{path}: row {k + 1}: {e}") from e
        return out


def run_log_rows(points):
    """One RUN_LOG_HEADER row per CurvePoint of `points`; a row's step is its index."""
    return ([k, *p.fold, p.gamma_measured, p.tangent.t_omega, p.tangent.t_A, p.h, p.newton_iters]
            for k, p in enumerate(points))


def write_run_log(path, points):
    write_rows(path, RUN_LOG_HEADER, run_log_rows(points))


def read_run_log(path) -> list[CurvePoint]:
    """The CurvePoints of a run log; refuses another header, row length, or step than its index."""
    return _read_rows(path, RUN_LOG_HEADER, "run log", _curve_point)


def _curve_point(k, step, omega, A, gamma_model, gamma_measured, t_omega, t_A, h, iters):
    """The CurvePoint of run-log row k; an empty gamma_measured reads as None."""
    if int(step) != k:
        raise ValueError(f"step {step}, want {k}")
    omega, A, gamma_model, t_omega, t_A, h = _floats(omega, A, gamma_model, t_omega, t_A, h)
    return CurvePoint(FoldPoint(omega, A, gamma_model), Tangent(t_omega, t_A), h, int(iters),
                      _floats(gamma_measured)[0] if gamma_measured else None)


def _floats(*cells) -> list[float]:
    """float() of each cell, refusing the nan and inf that float() reads."""
    values = list(map(float, cells))
    if not all(map(math.isfinite, values)):
        bad = [c for c, v in zip(cells, values) if not math.isfinite(v)]
        raise ValueError(f"non-finite number {', '.join(bad)}")
    return values


def write_collection_log(path, rows):
    write_rows(path, COLLECTION_LOG_HEADER, rows)


def config_digest(config_dict: dict) -> str:
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(path, *, config_dict: dict, seed: int, threads: int,
                   status: str, reason: str, outputs: list[str], extra: dict | None = None):
    import scipy

    from . import __version__
    from .blas import blas_threads

    manifest = {
        "config": config_dict,
        "config_sha256": config_digest(config_dict),
        "seed": seed,
        "threads": threads,
        "blas_threads": blas_threads(),
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
