"""The commands run numpy's and scipy's OpenBLAS on one thread, so a run's
bytes do not depend on the thread count the environment asks for."""

import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

from foldtrack.blas import blas_threads, pin_blas_threads
from foldtrack.config import load_raw

ROOT = Path(__file__).resolve().parent.parent


def test_pin_reads_back_one_thread_per_copy():
    assert pin_blas_threads() == blas_threads() == {"numpy": 1, "scipy": 1}


def test_capped_trace_bytes_do_not_depend_on_openblas_threads(tmp_path):
    # duffing_noisy.yaml with n_max 40, seed 160: unpinned, 2 threads traced
    # other fold points than 1 thread
    raw = load_raw(ROOT / "configs" / "duffing_noisy.yaml")
    raw["acquisition"]["n_max"] = 40
    config = tmp_path / "capped.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    runs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / f"threads_{threads}"
        res = subprocess.run([sys.executable, "-m", "foldtrack.cli", "trace", "--config",
                              str(config), "--seed", "160", "--out", str(out)],
                             env=env, capture_output=True, text=True)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["blas_threads"] == {"numpy": 1, "scipy": 1}
        csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        runs[threads] = (res.returncode, csvs)
    assert len(runs["1"][1]) == 3
    assert runs["1"] == runs["2"]
