"""One BLAS thread per process, set by the commands that own the process.

numpy and scipy each load their own OpenBLAS (`scipy_openblas64_` beside
numpy, `scipy_openblas` beside scipy), and each starts one thread per core.
A threaded reduction sums in another order, so the same seed and config
would write other bytes on a machine with another core count, and the
small matrices of a local model gain nothing from threads.  The CLI and
the scripts therefore pin both copies to one thread through the libraries'
own `scipy_openblas_set_num_threads*`, and the ensemble's forked worker
processes inherit the count; importing the package changes nothing.  Where
a copy is not found beside its package (a build that links another BLAS),
it is left as it is and missing from the counts read back.
"""

from __future__ import annotations

import ctypes
import importlib.util
from functools import cache
from pathlib import Path

# package -> suffix of its OpenBLAS copy's symbols
_COPIES = {"numpy": "64_", "scipy": ""}


@cache
def _openblas() -> dict:
    """{package: (set_num_threads, get_num_threads)} of each OpenBLAS copy found."""
    found = {}
    for package, suffix in _COPIES.items():
        libs = Path(importlib.util.find_spec(package).origin).parent.parent / f"{package}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            try:
                found[package] = (getattr(lib, f"scipy_openblas_set_num_threads{suffix}"),
                                  getattr(lib, f"scipy_openblas_get_num_threads{suffix}"))
            except AttributeError:
                continue
            break
    return found


def blas_threads() -> dict:
    """{package: threads} of each OpenBLAS copy, as the library reports it."""
    return {package: int(get()) for package, (_, get) in _openblas().items()}


def pin_blas_threads() -> dict:
    """Run numpy's and scipy's OpenBLAS on one thread; returns the counts read back."""
    for set_threads, _ in _openblas().values():
        set_threads(ctypes.c_int(1))
    return blas_threads()
