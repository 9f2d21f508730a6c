"""Domain boxes: the admissible region of (omega, A) in physical units."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned admissible region in physical (omega, A) coordinates."""

    omega_min: float
    omega_max: float
    A_min: float
    A_max: float

    def __post_init__(self):
        if not (np.isfinite(self.omega_min) and np.isfinite(self.omega_max)
                and np.isfinite(self.A_min) and np.isfinite(self.A_max)):
            raise ValueError("domain box bounds must be finite")
        if self.omega_min >= self.omega_max or self.A_min >= self.A_max:
            raise ValueError("domain box must have positive extent")

    def contains(self, omega: float, A: float) -> bool:
        return (self.omega_min <= omega <= self.omega_max
                and self.A_min <= A <= self.A_max)

    def as_dict(self) -> dict:
        return {"omega_min": self.omega_min, "omega_max": self.omega_max,
                "A_min": self.A_min, "A_max": self.A_max}
