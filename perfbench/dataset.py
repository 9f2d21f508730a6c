"""Noisy Duffing S-curve sweep for the ensemble-offline workload.

A sweep holds the frequency fixed and steps the response amplitude, as an
S-curve measurement on a rig does: 15 frequencies from 1.00 to 1.21 rad/s
and 19 amplitudes from 0.2 to 3.0 each (285 points).  The grid covers the
cusp at omega ~ 1.035 and both fold branches up to A = 3.  Forces come from
the closed form in `locus.Duffing`; Gaussian noise with a standard deviation
of 1% of the mean force (~40 dB SNR) is drawn from the seed, and a force
is never negative.

    python3 perfbench/dataset.py --seed 0 --out dataset.csv
"""

from __future__ import annotations

import argparse
import csv

import numpy as np

from locus import Duffing

OMEGAS = np.linspace(1.00, 1.21, 15)
AMPLITUDES = np.linspace(0.2, 3.0, 19)
NOISE_SHARE = 0.01
BOX = (float(OMEGAS[0]), float(OMEGAS[-1]), float(AMPLITUDES[0]), float(AMPLITUDES[-1]))
# The continuation box: the data's frequencies, and amplitudes from 0.8 up.
# The whole fold locus in range (A from 1.13 at the cusp to 2.9) lies inside
# it.  With the data box itself (A from 0.2), about one dropout run in a few
# hundred steps from the cusp straight onto a spurious fold at the
# (1.0, 0.2) corner, two length scales away; that fault is reported in
# CHANGES.md and kept out of the workload by this box.
CONTINUATION_BOX = (BOX[0], BOX[1], 0.8, BOX[3])
# inside the data cloud, next to the lower fold at omega = 1.15 (A ~ 1.719)
START = (1.15, 1.7)


def sweep(seed: int, model: Duffing = Duffing()) -> np.ndarray:
    """(285, 3) rows of omega, A, F in sweep order."""
    W, A = np.meshgrid(OMEGAS, AMPLITUDES, indexing="ij")
    W, A = W.ravel(), A.ravel()
    F = model.force(W, A)
    sigma = NOISE_SHARE * float(F.mean())
    F = np.maximum(F + sigma * np.random.default_rng(seed).standard_normal(F.shape), 0.0)
    return np.column_stack([W, A, F])


def write_csv(path, rows):
    """The `omega,A,F` format that foldtrack's dataset reader takes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["omega", "A", "F"])
        for row in rows:
            w.writerow([repr(float(v)) for v in row])


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    write_csv(a.out, sweep(a.seed))
