"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written from first principles (dense
linear algebra, finite differences, sign-change root scans, explicit model
updates) and never calls the code paths it is used to check.
"""

import math

import numpy as np
from scipy.optimize import brentq

from foldtrack.errors import DuplicatePoint


def se_kernel_matrix(X1, X2, sigma_f2, l_omega, l_A):
    """Dense SE covariance block, written independently of the package."""
    X1 = np.asarray(X1, dtype=float)
    X2 = np.asarray(X2, dtype=float)
    K = np.empty((len(X1), len(X2)))
    for i in range(len(X1)):
        for j in range(len(X2)):
            d = ((X1[i, 0] - X2[j, 0]) / l_omega) ** 2 + ((X1[i, 1] - X2[j, 1]) / l_A) ** 2
            K[i, j] = sigma_f2 * math.exp(-0.5 * d)
    return K


def dense_log_marginal(X, F, sigma_n2, sigma_f2, l_omega, l_A):
    """Log marginal likelihood via explicit inverse and determinant."""
    F = np.asarray(F, dtype=float)
    n = len(F)
    K = se_kernel_matrix(X, X, sigma_f2, l_omega, l_A) + sigma_n2 * np.eye(n)
    Kinv = np.linalg.inv(K)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return float(-0.5 * F @ Kinv @ F - 0.5 * logdet - 0.5 * n * math.log(2.0 * math.pi))


def dense_log_marginal_grad(X, F, sigma_n2, sigma_f2, l_omega, l_A):
    """Gradient of the log marginal likelihood w.r.t. the log-parameters, by explicit inverse.

    Rasmussen & Williams eq. 5.9: 1/2 tr((alpha alpha^T - K^-1) dK/dlog theta)
    for theta = (sigma_n2, sigma_f2, l_omega, l_A).
    """
    X = np.asarray(X, dtype=float)
    F = np.asarray(F, dtype=float)
    n = len(F)
    Kse = se_kernel_matrix(X, X, sigma_f2, l_omega, l_A)
    Kinv = np.linalg.inv(Kse + sigma_n2 * np.eye(n))
    alpha = Kinv @ F
    W = np.outer(alpha, alpha) - Kinv
    Do2 = np.subtract.outer(X[:, 0], X[:, 0]) ** 2 / l_omega**2
    Da2 = np.subtract.outer(X[:, 1], X[:, 1]) ** 2 / l_A**2
    dK = (sigma_n2 * np.eye(n), Kse, Kse * Do2, Kse * Da2)
    return np.array([0.5 * np.sum(W * d) for d in dK])


def dense_predict(X, F, x_star, sigma_n2, sigma_f2, l_omega, l_A):
    """Posterior mean and variance by dense algebra."""
    n = len(F)
    K = se_kernel_matrix(X, X, sigma_f2, l_omega, l_A) + sigma_n2 * np.eye(n)
    k = se_kernel_matrix(X, [x_star], sigma_f2, l_omega, l_A)[:, 0]
    Kinv = np.linalg.inv(K)
    mean = float(k @ Kinv @ np.asarray(F, dtype=float))
    var = float(sigma_f2 - k @ Kinv @ k)
    return mean, var



def dense_loo_mean_d_A_shift(X, F, x, sigma_n2, sigma_f2, l_omega, l_A):
    """dG/dA at x minus its value without each training point, by explicit inverse.

    Rasmussen & Williams eq. 5.12 with a dense K^-1: (K^-1 k')_i alpha_i / (K^-1)_ii,
    k' the A-derivative at x of the covariances k(X, x).
    """
    X = np.asarray(X, dtype=float)
    F = np.asarray(F, dtype=float)
    Kinv = np.linalg.inv(se_kernel_matrix(X, X, sigma_f2, l_omega, l_A)
                         + sigma_n2 * np.eye(len(F)))
    k_d_A = -(x[1] - X[:, 1]) / l_A**2 * se_kernel_matrix(X, [x], sigma_f2, l_omega, l_A)[:, 0]
    return (Kinv @ k_d_A) * (Kinv @ F) / np.diag(Kinv)


def fourier_series(a0, A, B, omega_hz, t):
    """a0/2 + sum_j A_j cos(2 pi j omega t) + B_j sin(2 pi j omega t), harmonic by harmonic."""
    out = np.full(len(t), 0.5 * a0)
    for j in range(len(A)):
        phase = 2.0 * math.pi * (j + 1) * omega_hz * t
        out += A[j] * np.cos(phase) + B[j] * np.sin(phase)
    return out


def lstsq_fourier_coeffs(signal, omega_hz, sample_rate, n_modes, t0):
    """(a0, A_j, B_j) of the record's last whole cycles by np.linalg.lstsq on cos/sin columns."""
    n = len(signal)
    period = sample_rate / omega_hz
    L = min(int(round(math.floor(n / period) * period)), n)
    t = t0 + np.arange(n - L, n) / sample_rate
    cols = [np.full(L, 0.5)]
    for j in range(1, n_modes + 1):
        cols += [np.cos(2.0 * math.pi * j * omega_hz * t), np.sin(2.0 * math.pi * j * omega_hz * t)]
    coef = np.linalg.lstsq(np.column_stack(cols), signal[n - L:], rcond=None)[0]
    return coef[0], coef[1::2], coef[2::2]

def cs_mean_derivs(X, alpha, sigma_f2, l_omega, l_A, x, h_omega, h_A):
    """High-precision derivative oracle for a GP posterior mean.

    Reimplements the mean sum(alpha_i k(x_i, x)) with a complex-capable SE
    kernel; first derivatives via complex step (machine precision), second
    derivatives via central differences of the complex-step first
    derivative (~1e-11 absolute).  No analytic derivative formulas used.
    """
    X = np.asarray(X, dtype=float)
    alpha = np.asarray(alpha, dtype=float)

    def mean(om, A):
        d = ((X[:, 0] - om) / l_omega) ** 2 + ((X[:, 1] - A) / l_A) ** 2
        return np.sum(alpha * sigma_f2 * np.exp(-0.5 * d))

    hc = 1e-30
    om, A = x

    def d_A_at(om_, A_):
        return mean(om_, A_ + 1j * hc).imag / hc

    d_om = mean(om + 1j * hc, A).imag / hc
    d_A = d_A_at(om, A)
    d_AA = (d_A_at(om, A + h_A) - d_A_at(om, A - h_A)) / (2 * h_A)
    d_om_A = (d_A_at(om + h_omega, A) - d_A_at(om - h_omega, A)) / (2 * h_omega)
    return float(mean(om, A).real if np.iscomplexobj(mean(om, A)) else mean(om, A)), \
        (float(d_om), float(d_A), float(d_AA), float(d_om_A))


def fd_mean_derivs(predict_mean, x, h_omega, h_A):
    """Central finite differences of a scalar surface at x = (omega, A).

    Returns (d/domega, d/dA, d2/dA2, d2/domega dA).
    """
    om, A = x
    f = predict_mean
    d_om = (f((om + h_omega, A)) - f((om - h_omega, A))) / (2 * h_omega)
    d_A = (f((om, A + h_A)) - f((om, A - h_A))) / (2 * h_A)
    d_AA = (f((om, A + h_A)) - 2 * f((om, A)) + f((om, A - h_A))) / h_A**2
    d_om_A = (f((om + h_omega, A + h_A)) - f((om + h_omega, A - h_A))
              - f((om - h_omega, A + h_A)) + f((om - h_omega, A - h_A))) / (4 * h_omega * h_A)
    return d_om, d_A, d_AA, d_om_A


# -- acquisition by explicit model updates --------------------------------------

def artificial_measurement(model, x) -> float:
    """Hypothetical observation: posterior mean plus one posterior std."""
    return model.predict_mean(x) + math.sqrt(model.predict_var(x))


def add_point_beta(model, x_cand, x_sol) -> float:
    """beta by adding the artificial measurement to the model and differencing dG/dA."""
    try:
        augmented = model.add_point(x_cand, artificial_measurement(model, x_cand))
    except DuplicatePoint:
        return 0.0
    return abs(augmented.predict_mean_derivs(x_sol).d_A - model.predict_mean_derivs(x_sol).d_A)


def downdate_influences(model, x_sol) -> np.ndarray:
    """|Leave-one-out change of dG/dA at x_sol|, by one `remove_point` per point."""
    g = model.predict_mean_derivs(x_sol).d_A
    return np.array([abs(model.remove_point(i).predict_mean_derivs(x_sol).d_A - g)
                     for i in range(model.n)])


# -- Duffing surface brute force ---------------------------------------------

def duffing_force(omega_n, zeta, alpha_3, omega, A):
    """Closed-form harmonic-balance force amplitude (independent copy)."""
    el = (omega_n**2 - omega**2) * A + 0.75 * alpha_3 * A**3
    dm = 2.0 * zeta * omega_n * omega * A
    return math.hypot(el, dm)


def duffing_dF_dA(omega_n, zeta, alpha_3, omega, A, h=1e-7):
    return (duffing_force(omega_n, zeta, alpha_3, omega, A + h)
            - duffing_force(omega_n, zeta, alpha_3, omega, A - h)) / (2 * h)


def duffing_fold_amplitudes(omega_n, zeta, alpha_3, omega, A_max=6.0, n_scan=4000):
    """All roots of dF/dA at a frequency, by sign scan plus bisection polish."""
    grid = np.linspace(1e-4, A_max, n_scan)
    g = np.array([duffing_dF_dA(omega_n, zeta, alpha_3, omega, a) for a in grid])
    roots = []
    for i in np.nonzero(np.diff(np.sign(g)) != 0)[0]:
        roots.append(brentq(lambda a: duffing_dF_dA(omega_n, zeta, alpha_3, omega, a),
                            grid[i], grid[i + 1], xtol=1e-12))
    return roots


def duffing_lower_fold_branch(omega_n, zeta, alpha_3, omega_lo, omega_hi, n=400,
                              A_max=6.0):
    """Dense (omega, A_fold, F_fold) table of the lower-amplitude fold branch.

    Vectorized grid scan for the first sign change of dF/dA per frequency,
    polished by bisection.
    """
    omegas = np.linspace(omega_lo, omega_hi, n)
    A = np.linspace(1e-4, A_max, 3000)
    h = 1e-7
    W, AA = np.meshgrid(omegas, A, indexing="ij")
    el_p = (omega_n**2 - W**2) * (AA + h) + 0.75 * alpha_3 * (AA + h) ** 3
    el_m = (omega_n**2 - W**2) * (AA - h) + 0.75 * alpha_3 * (AA - h) ** 3
    dm = 2.0 * zeta * omega_n * W
    g = (np.hypot(el_p, dm * (AA + h)) - np.hypot(el_m, dm * (AA - h))) / (2 * h)
    A_fold = np.empty(n)
    for i in range(n):
        flips = np.nonzero(np.diff(np.sign(g[i])) != 0)[0]
        assert len(flips), f"no fold at omega={omegas[i]}"
        lo, hi = A[flips[0]], A[flips[0] + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (duffing_dF_dA(omega_n, zeta, alpha_3, omegas[i], mid) > 0) == \
               (duffing_dF_dA(omega_n, zeta, alpha_3, omegas[i], lo) > 0):
                lo = mid
            else:
                hi = mid
        A_fold[i] = 0.5 * (lo + hi)
    F_fold = np.array([duffing_force(omega_n, zeta, alpha_3, w, a)
                       for w, a in zip(omegas, A_fold)])
    return omegas, A_fold, F_fold


# -- isola surface brute force ------------------------------------------------

def isola_fold_branches(params, box, n=6000):
    """Analytic fold branches of the engineered surface, as connected curves.

    Each connected fold curve is returned as an (omega, A) polyline ordered
    along the curve (down one side of the pair, through the vertex, up the
    other), restricted to the domain box.
    """
    from foldtrack.oracles import isola_gamma

    omegas = np.linspace(box.omega_min, box.omega_max, n)
    curves = []
    m1 = params.m1(omegas)
    specs = [(m1, params.rho1(omegas)), (np.full_like(omegas, params.m2), params.rho2(omegas))]
    for m, rho in specs:
        ok = rho > 0
        if not ok.any():
            continue
        low_A = m[ok] - np.sqrt(rho[ok])
        high_A = m[ok] + np.sqrt(rho[ok])
        w = omegas[ok]
        # traverse: high-omega end of low branch -> vertex -> high-omega end of high branch
        omega_path = np.concatenate([w[::-1], w])
        A_path = np.concatenate([low_A[::-1], high_A])
        inside = (A_path >= box.A_min) & (A_path <= box.A_max)
        curves.append((omega_path[inside], A_path[inside]))
    gammas = [np.asarray(isola_gamma(params, w, a)) for w, a in curves]
    return curves, gammas


def isola_marker_count(params, box, level, band):
    """Number of contiguous fold-curve arcs with force inside the band."""
    _, gammas = isola_fold_branches(params, box)
    count = 0
    for g in gammas:
        in_band = np.abs(g - level) <= band * level
        count += int(np.sum(np.diff(np.concatenate([[0], in_band.astype(int), [0]])) == 1))
    return count
