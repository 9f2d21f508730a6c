import numpy as np
import pytest

from foldtrack.blas import pin_blas_threads
from foldtrack.geometry import DomainBox
from foldtrack.gpr import Dataset, GprModel, Hyperparameters, build
from foldtrack.oracles import DuffingOracle, DuffingParams, duffing_gamma

# one BLAS thread, as the CLI runs, so no result depends on the core count
pin_blas_threads()

# "noise-free" in tests means a numerically negligible noise variance;
# the hyperparameter type keeps all entries strictly positive.
TINY_NOISE = 1e-12


@pytest.fixture(scope="session")
def duffing_params() -> DuffingParams:
    return DuffingParams(omega_n=1.0, zeta=0.02, alpha_3=0.05, noise_sigma=0.0)


@pytest.fixture(scope="session")
def duffing_box() -> DomainBox:
    return DomainBox(0.95, 1.45, 0.05, 5.0)


def duffing_grid_dataset(params: DuffingParams, center=(1.10, 1.41),
                         half=(0.05, 0.45), shape=(5, 5)) -> Dataset:
    omegas = np.linspace(center[0] - half[0], center[0] + half[0], shape[0])
    As = np.linspace(center[1] - half[1], center[1] + half[1], shape[1])
    X = np.array([[w, a] for w in omegas for a in As])
    F = duffing_gamma(params, X[:, 0], X[:, 1])
    return Dataset(X, F)


@pytest.fixture(scope="session")
def duffing_hyper() -> Hyperparameters:
    # hand-picked for the 5x5 grid: smooth enough to track the surface,
    # conditioned well enough (cond ~ 1e7) for the noise-free contracts
    return Hyperparameters(sigma_n2=TINY_NOISE, sigma_f2=0.04, l_omega=0.05, l_A=0.45)


@pytest.fixture(scope="session")
def duffing_model(duffing_params, duffing_hyper) -> GprModel:
    return build(duffing_grid_dataset(duffing_params), duffing_hyper)


@pytest.fixture()
def duffing_oracle(duffing_params, duffing_box) -> DuffingOracle:
    return DuffingOracle(duffing_params, duffing_box, seed=42)
