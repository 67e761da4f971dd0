"""Test-only reference implementations the package is checked against.

The nonlinearities, the output statistics and Hessian constants, the
sample contrast of the orthogonally-constrained likelihood, the blocking
matrix of its background signals and the extraction state (a, w, s and
output statistics) at one parameter: the solvers need only the contrast's
derivatives, so these live here as the independent oracle for the
finite-difference and statistics checks.  The derivatives themselves are
here too, in the per-problem form that includes the gradient in ``w``
(:func:`_mpdr_derivatives`), as the oracle of the solvers' kernel, the
steered power as a quadratic form (:func:`steered_powers`), the oracle of
its lag sums, and so are the draws of the Monte Carlo sources and of
numpy's Laplace parts in one array pass (:func:`laplace_parts`), the
SRP-PHAT search as it ran on scipy's Nelder-Mead
(:func:`srp_phat_nelder_mead`), the STFT as one transform of all of a
channel's frames (:func:`stft_one_shot`) and the numeric derivation of the
structured bound from the Fisher information matrix (:func:`fim`,
:func:`crib_capon_from_fim`), the oracle of ``bounds.crib_capon``.

Nonlinearities follow the conjugating score convention: for a circular
Gaussian source the score is ``phi(s) = conj(s)``, and the normalizer
``nu = E[phi(u) u]`` equals 1 for any exact score.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from blindcapon import bounds, capon_ive, monte_carlo
from blindcapon.core import (
    SnapshotMatrix,
    SteeringModel,
    complex_gaussian,
    complex_laplacean,
    covariance_factor,
    mpdr_weights,
    sample_covariance,
    steering,
)
from blindcapon.errors import BlindCaponError, DegenerateSignal, ScoreDegenerate


@dataclass(frozen=True)
class Nonlinearity:
    """Score surrogate ``phi`` with its Wirtinger derivatives.

    ``dphi_ds`` and ``dphi_dsconj`` are the derivatives of ``phi`` with
    respect to ``s`` and ``conj(s)`` of the (already normalized) argument.
    ``log_pdf`` is the log of the model density whose negative s-derivative
    is ``phi``; it is only needed for contrast evaluation, never by the
    optimizer itself.
    """

    name: str
    phi: Callable[[np.ndarray], np.ndarray]
    dphi_ds: Callable[[np.ndarray], np.ndarray]
    dphi_dsconj: Callable[[np.ndarray], np.ndarray]
    log_pdf: Optional[Callable[[np.ndarray], np.ndarray]] = None


def rational_nonlinearity() -> Nonlinearity:
    """``phi(s) = conj(s) / (1 + |s|^2)``.

    Satisfies ``phi(0) = 0`` and ``|phi(s)| <= 1/2``.  The derivatives are
    obtained by treating ``s`` and ``conj(s)`` as independent variables:

        dphi/ds       = -conj(s)^2 / (1 + |s|^2)^2
        dphi/dconj(s) =  1         / (1 + |s|^2)^2

    The matching log-density is ``-log(1 + |s|^2)`` (up to normalization).
    """
    def phi(s):
        return np.conj(s) / (1.0 + np.abs(s) ** 2)

    def dphi_ds(s):
        return -np.conj(s) ** 2 / (1.0 + np.abs(s) ** 2) ** 2

    def dphi_dsconj(s):
        return 1.0 / (1.0 + np.abs(s) ** 2) ** 2

    def log_pdf(s):
        return -np.log1p(np.abs(s) ** 2)

    return Nonlinearity("rational", phi, dphi_ds, dphi_dsconj, log_pdf)


def gaussian_score() -> Nonlinearity:
    """Exact circular-Gaussian score ``phi(s) = conj(s)`` (linear surrogate)."""
    return Nonlinearity(
        "gaussian",
        phi=np.conj,
        dphi_ds=lambda s: np.zeros_like(s),
        dphi_dsconj=lambda s: np.ones_like(s),
        log_pdf=lambda s: -np.abs(s) ** 2,
    )


@dataclass(frozen=True)
class SoiStatistics:
    """Sample statistics of an extracted signal under a given nonlinearity.

    All shape statistics (``nu``, ``rho``, ``xi``, ``eta``) are computed on
    the normalized samples ``u = s / sigma`` and therefore do not change
    when ``s`` is rescaled.  ``nu_imag`` is the imaginary part discarded
    when forming the real normalizer ``nu`` (diagnostic only).
    """

    sigma2: float
    nu: float
    rho: complex
    xi: float
    eta: complex
    nu_imag: float = 0.0


@dataclass(frozen=True)
class ExtractionState:
    """Consistent snapshot of the extractor at a parameter value ``lam``."""

    lam: float
    a: np.ndarray
    w: np.ndarray
    s: np.ndarray
    stats: SoiStatistics
    model: SteeringModel
    sigma2_solve: float     # 1 / (a^H C^-1 a) of the solve that gave w


def soi_statistics(s: np.ndarray, phi: Nonlinearity) -> SoiStatistics:
    """Sample statistics of the extracted signal.

    ``sigma2`` is the sample mean of ``|s|^2``; the remaining quantities
    are sample means over the normalized samples ``u = s / sigma``:

        nu  = Re E[phi(u) u]          rho = E[dphi/dconj(u)]
        xi  = Re E[dphi/dconj(u) |u|^2]
        eta = E[dphi/du u^2]
    """
    s = np.asarray(s)
    if s.size < 2:
        raise ValueError("need at least two samples")
    sigma2 = float(np.mean(np.abs(s) ** 2))
    if sigma2 < 1e-30:
        raise DegenerateSignal("extracted signal has zero power")
    u = s / np.sqrt(sigma2)
    nu_c = np.mean(phi.phi(u) * u)
    rho = complex(np.mean(phi.dphi_dsconj(u)))
    xi = float(np.real(np.mean(phi.dphi_dsconj(u) * np.abs(u) ** 2)))
    eta = complex(np.mean(phi.dphi_ds(u) * u ** 2))
    return SoiStatistics(
        sigma2=sigma2,
        nu=float(np.real(nu_c)),
        rho=rho,
        xi=xi,
        eta=eta,
        nu_imag=float(np.imag(nu_c)),
    )


def c_constants(stats: SoiStatistics):
    """Hessian constants ``(c1, c2, c3)`` from the sample statistics.

        c1 = (nu - rho) / (nu * sigma2)
        c3 = (xi - eta - nu) / (2 nu)
        c2 = -sigma2 * c1 - Re(c3)

    ``c1`` and ``c2`` are returned as reals (imaginary parts of ``rho`` and
    ``c3`` vanish for score-consistent nonlinearities and are discarded).
    """
    if abs(stats.nu) < 1e-12:
        raise ScoreDegenerate("nu is numerically zero")
    c1 = float(np.real(stats.nu - stats.rho)) / (stats.nu * stats.sigma2)
    c3 = (stats.xi - stats.eta - stats.nu) / (2.0 * stats.nu)
    c2 = -stats.sigma2 * c1 - float(np.real(c3))
    return c1, c2, complex(c3)


def extraction_state(
    x: SnapshotMatrix,
    model: SteeringModel,
    lam: float,
    phi: Nonlinearity,
    factor=None,
) -> ExtractionState:
    """Build the consistent state (a, w, s, statistics) at ``lam``."""
    a = steering(model, lam)
    if factor is None:
        factor = covariance_factor(sample_covariance(x.data))
    w, sigma2_solve = mpdr_weights(factor, a)
    s = w.conj() @ x.data
    stats = soi_statistics(s, phi)
    return ExtractionState(
        lam=float(lam), a=a, w=w, s=s, stats=stats, model=model,
        sigma2_solve=float(sigma2_solve),
    )


def blocking_matrix(a: np.ndarray) -> np.ndarray:
    """Blocking matrix ``B = [g, -gamma I]`` with ``a = [gamma, g^T]^T``.

    Satisfies ``B a = 0`` exactly, so the background ``z = B x`` contains no
    contribution of the source steered by ``a``.
    """
    d = a.size
    b = np.zeros((d - 1, d), dtype=complex)
    b[:, 0] = a[1:]
    b[:, 1:] = -a[0] * np.eye(d - 1)
    return b


def background_covariance(x: SnapshotMatrix, a: np.ndarray) -> np.ndarray:
    """Sample covariance of the background signals ``z = B x``."""
    return sample_covariance(blocking_matrix(a) @ x.data)


def contrast(
    x: SnapshotMatrix,
    lam: float,
    phi: Nonlinearity,
    model: SteeringModel,
    *,
    nu: float = None,
    c_z: np.ndarray = None,
) -> float:
    """Sample contrast at ``lam``: model log-pdf, output power and background
    terms of the orthogonally-constrained likelihood.

    Two evaluation modes share this function:

    * Default (``nu=None, c_z=None``): the self-contained profile form.  The
      background covariance is concentrated out, contributing
      ``-log det C_z(lam) - (d-1)``, and the model-pdf term enters unscaled
      (exact-score convention).  This is the form whose grid maximum locates
      the source.
    * Frozen plug-ins: with ``nu`` and ``c_z`` fixed at a reference state,
      the model-pdf term is scaled by ``1/nu`` (the effective score used by
      the optimizer is ``phi/nu``) and the background term is the Mahalanobis
      form ``-tr(c_z^-1 C_z(lam))``.  The exact derivative of this function
      at the reference point is :func:`first_derivative`;
      finite-difference checks must use this mode.

    The ``(d-2) log|gamma|^2`` term is identically zero for phase-shift
    steering (``gamma = a[0] = 1``) and is included literally.
    """
    if phi.log_pdf is None:
        raise ValueError(f"nonlinearity {phi.name!r} has no log_pdf")
    state = extraction_state(x, model, lam, phi)
    sigma2 = state.stats.sigma2
    m = float(np.mean(phi.log_pdf(state.s / np.sqrt(sigma2))))
    cz_lam = background_covariance(x, state.a)
    if nu is not None:
        m = m / nu
    if c_z is not None:
        bg = -float(np.real(np.trace(np.linalg.solve(c_z, cz_lam))))
    else:
        sign, logdet = np.linalg.slogdet(cz_lam)
        bg = -logdet - (x.d - 1)
    gam2 = float(np.abs(state.a[0]) ** 2)
    return m - np.log(sigma2) + bg + (x.d - 2) * np.log(gam2)


def _mpdr_derivatives(data, c_x, factor, a, v, w, phi_u, sigma2, sigma2_solve, nu, c1):
    """``(grad_w, d1, d2)`` of MPDR problems, by the formulas of
    :func:`grad_w`, :func:`first_derivative` and :func:`second_derivative_approx`.

    ``data``, ``c_x`` and ``factor`` are the problem's snapshots, covariance
    and :func:`core.covariance_factor`; ``a``, ``w`` and ``phi_u`` are the
    steering vector, MPDR weights and output scores at the current
    parameter, and ``sigma2_solve`` is the ``1 / (a^H C^-1 a)`` of the solve
    that gave ``w``.  The statistics ``sigma2``, ``nu`` and ``c1`` are
    inputs, so that :func:`stack_derivatives` can supply those of the joint
    nonlinearity.  Leading dimensions are a stack of problems (``data``
    ``(..., d, N)``, ``a`` ``(..., d)``, ``sigma2`` ``(...)``, ...) and give
    ``grad_w`` ``(..., d)`` and ``d1``, ``d2`` ``(...)``; ``v`` is shared.
    """
    sigma2, nu = np.asarray(sigma2), np.asarray(nu)
    av = a * v
    a_w = np.matvec(c_x, w) / sigma2[..., None]
    score_mean = np.matvec(data, phi_u) / (data.shape[-1] * np.sqrt(sigma2))[..., None]
    gw = a_w - score_mean / nu[..., None]
    # C^-1 = G^H G: both quadratic forms are inner products after G
    g_av = np.matvec(factor, av)
    d1 = -2.0 * sigma2 * np.imag(np.vecdot(np.matvec(factor, gw), g_av))
    # solve-consistent sigma^2 in the bracket keeps it >= 0 exactly
    bracket = sigma2_solve * np.real(np.vecdot(g_av, g_av)) - np.abs(np.vecdot(w, av)) ** 2
    d2 = 2.0 * c1 * sigma2 * bracket
    return gw, d1, d2


def stack_derivatives(x, c, factors, v, omegas, param):
    """Per problem ``(grad_w, d1, d2, nu)`` of the MPDR problems ``(x[k],
    c[k], factors[k])`` steered at ``exp(1j omegas[k] param v)``, under the
    joint rational nonlinearity ``phi_k(u) = conj(u_k) / (1 + sum_j
    |u_j|^2)``: the statistics of the outputs, then
    :func:`_mpdr_derivatives`."""
    a = np.exp(1j * ((omegas * param)[:, None] * v))
    w, sig2_solve = mpdr_weights(factors, a)
    s = np.matmul(w.conj()[:, None, :], x)[:, 0]
    frames = s.shape[1]
    sig2 = np.real(np.vecdot(s, s)) / frames
    u2 = np.abs(s) ** 2 / sig2[:, None]                       # |u_k|^2
    r = 1.0 / (1.0 + u2.sum(axis=0))
    phi = np.conj(s) * (r / np.sqrt(sig2)[:, None])
    # nu_k = mean(phi_k u_k) = mean(|u_k|^2 r) and
    # rho_k = mean(d phi_k / d conj(u_k)) = mean(r - |u_k|^2 r^2)
    nu = u2 @ r / frames
    rho = (r.sum() - u2 @ r ** 2) / frames
    c1 = (nu - rho) / (nu * sig2)
    gw, d1, d2 = _mpdr_derivatives(x, c, factors, a, v, w, phi, sig2, sig2_solve, nu, c1)
    return gw, d1, d2, nu


def kernel_derivatives(kernel, param):
    """:func:`stack_derivatives` of the problems of a ``capon_ice._MpdrStack``."""
    return stack_derivatives(kernel.x, kernel.c, kernel.factors, kernel.v, kernel.omegas, param)


def steered_powers(m, omegas, v, param):
    """Per problem ``(P, P', P'')``: the quadratic form ``P_k = Re a_k^H m_k
    a_k`` steered at ``a_k = exp(1j omegas_k param v)`` and its derivatives
    along ``param``, with ``b = da/dparam = 1j phases * a``: ``P' = 2 Re
    b^H m a`` and ``P'' = 2 Re (b^H m b - (phases^2 * a)^H m a)`` for
    Hermitian ``m``."""
    phases = omegas[:, None] * v
    a = np.exp(1j * (phases * param))
    b = 1j * phases * a
    m_a = np.matvec(m, a)
    p = np.real(np.vecdot(a, m_a))
    d1 = 2.0 * np.real(np.vecdot(b, m_a))
    d2 = 2.0 * np.real(np.vecdot(b, np.matvec(m, b)) - np.vecdot(phases * phases * a, m_a))
    return p, d1, d2


def _at_state(x, state):
    """:func:`stack_derivatives` of the narrowband problem of ``x`` at ``state.lam``."""
    c_x = sample_covariance(x.data)
    return stack_derivatives(
        x.data[None], c_x[None], covariance_factor(c_x)[None], state.model.v, np.ones(1),
        state.lam,
    )


def grad_w(x: SnapshotMatrix, state: ExtractionState) -> np.ndarray:
    """Wirtinger gradient of the contrast with respect to ``conj(w)``:

        grad = a(w) - (1/nu) * mean(phi(u(n)) x(n) / sigma)

    with ``a(w) = C_x w / sigma^2`` and the rational nonlinearity.
    Vanishes at the exact solution.
    """
    return _at_state(x, state)[0][0]


def first_derivative(x: SnapshotMatrix, state: ExtractionState) -> float:
    """Analytic derivative of the contrast along ``lam``:

        dC/dlam = -2 sigma^2 Im{ grad_w^H C_x^-1 (a * v) }
    """
    return float(_at_state(x, state)[1][0])


def second_derivative_approx(x: SnapshotMatrix, state: ExtractionState) -> float:
    """At-solution approximation of the second derivative:

        2 c1 sigma^2 ( sigma^2 (a*v)^H C_x^-1 (a*v) - |w^H (a*v)|^2 )

    The prefactor ``2 c1 sigma^2`` reduces to ``2 (nu - rho) / nu`` and uses
    the sample statistics; inside the bracket, ``sigma^2`` is taken
    solve-consistent (``1 / (a^H C^-1 a)`` on the loaded covariance) so the
    bracket is nonnegative by Cauchy-Schwarz exactly, making the sign the
    sign of ``c1`` (negative for super-Gaussian extracted signals).
    """
    return float(_at_state(x, state)[2][0])


def laplace_parts(rng: np.random.Generator, shape, scale: float) -> np.ndarray:
    """Laplace(0, ``scale``) parts of ``shape`` as numpy's C ``random_laplace``
    branches on each uniform of ``rng.random``, in one unblocked array pass
    of ``np.log``; the oracle of ``core.complex_laplacean``'s parts (it does
    not redraw a zero uniform)."""
    u = rng.random(shape)
    return np.where(u >= 0.5, 0.0 - scale * np.log((2.0 - u) - u), 0.0 + scale * np.log(u + u))


def draw_sources_loop(rng: np.random.Generator, law: str, d: int, n: int) -> np.ndarray:
    """``d x n`` sources of ``law`` drawn one source at a time."""
    sample = complex_laplacean if law == "laplacean" else complex_gaussian
    return np.vstack([sample(rng, n) for _ in range(d)])


def draw_sources(spec: monte_carlo.MixtureSpec) -> np.ndarray:
    """Unit-variance source matrix ``d x N`` for the spec's seed and law."""
    return monte_carlo._draw(spec)[1]


def srp_phat_nelder_mead(tensor, geom, theta_ini_deg, fmin_hz=100.0) -> float:
    """The SRP-PHAT DOA (degrees) maximized by Nelder-Mead in the angle
    from ``theta_ini_deg``: the per-bin cross-spectra PHAT-normalized
    elementwise and averaged over frames, as ``capon_ive.srp_phat`` forms
    them."""
    import scipy.optimize

    included = capon_ive._included_bins(tensor, fmin_hz)
    omegas = 2.0 * np.pi * tensor.bin_frequencies()[included]
    xn = tensor.data[included]
    xn = xn / np.maximum(np.abs(xn), 1e-30)
    r = np.einsum("kdt,ket->kde", xn, xn.conj()) / tensor.n_frames
    v = np.arange(geom.d, dtype=float)

    def power(theta):
        tau = capon_ive.theta_to_tau(geom, float(np.clip(theta, 0.0, 180.0)))
        a = np.exp(1j * np.outer(omegas * tau, v))               # (B, d)
        return float(np.real(np.einsum("kd,kde,ke->", a.conj(), r, a)))

    res = scipy.optimize.minimize(
        lambda t: -power(t[0]),
        x0=[theta_ini_deg],
        method="Nelder-Mead",
        options={"xatol": 1e-4, "fatol": 1e-10, "maxiter": 200},
    )
    return float(np.clip(res.x[0], 0.0, 180.0))


def stft_one_shot(signal, fft_len, hop) -> np.ndarray:
    """The ``(K, d, n_frames)`` data of ``capon_ive.stft``, each channel's
    frames windowed in one array and transformed by one ``rfft`` in double
    precision, then transposed into the tensor in its dtype."""
    signal = np.atleast_2d(np.asarray(signal))
    dtype = np.complex64 if signal.dtype == np.float32 else complex
    d, length = signal.shape
    win = capon_ive._sqrt_hann(fft_len)
    pad = np.zeros(fft_len)
    n_frames = (length + fft_len) // hop + 1
    out = np.empty((fft_len // 2 + 1, d, n_frames), dtype=dtype)
    for ch in range(d):
        padded = np.concatenate([pad, signal[ch], pad], dtype=float)
        frames = np.lib.stride_tricks.sliding_window_view(padded, fft_len)[::hop]
        out[:, ch, :] = np.fft.rfft(frames * win, axis=1).T
    return out


class SingularFim(BlindCaponError):
    """Fisher information matrix is singular (non-identifiable model)."""


def fim(kappa: float, sigma2: float, c_z: np.ndarray, v_tilde: np.ndarray) -> np.ndarray:
    """Fisher information matrix for the parameter vector [h^T, h^H, lam]^T.

    Block structure (z circular, Hermitian overall):

        [ kappa C_z      0          -i v~ ]
        [ 0          kappa C_z*      i v~ ]
        [ i v~^T     -i v~^T    2 sigma2 v~^T C_z^-1 v~ ]
    """
    c_z = np.asarray(c_z, dtype=complex)
    v_tilde = np.asarray(v_tilde, dtype=float)
    dm1 = c_z.shape[0]
    if c_z.shape != (dm1, dm1) or v_tilde.shape != (dm1,):
        raise ValueError("C_z must be (d-1)x(d-1) and v_tilde length d-1")
    if not np.allclose(c_z, c_z.conj().T):
        raise ValueError("C_z must be Hermitian")
    if kappa * sigma2 <= 1.0 + bounds._KAPPA_TOL:
        raise SingularFim(
            f"kappa*sigma2 = {kappa * sigma2} <= 1: lambda row is dependent"
        )
    t = float(np.real(v_tilde @ np.linalg.solve(c_z, v_tilde)))
    f = np.zeros((2 * dm1 + 1, 2 * dm1 + 1), dtype=complex)
    f[:dm1, :dm1] = kappa * c_z
    f[dm1:2 * dm1, dm1:2 * dm1] = kappa * c_z.conj()
    f[:dm1, -1] = -1j * v_tilde
    f[dm1:2 * dm1, -1] = 1j * v_tilde
    f[-1, :dm1] = 1j * v_tilde
    f[-1, dm1:2 * dm1] = -1j * v_tilde
    f[-1, -1] = 2.0 * sigma2 * t
    return f


def crib_capon_from_fim(
    kappa: float, sigma2: float, c_z: np.ndarray, v_tilde: np.ndarray, N: int
) -> float:
    """Numeric derivation route of the structured bound.

    Inverts the full FIM, extracts the upper-left CRLB block of ``h`` from
    ``N^-1 F^-1`` and pushes it through the ISR relation
    ``E[ISR] >= tr(C_z CRLB(h)) / sigma2``.
    """
    f = fim(kappa, sigma2, c_z, v_tilde)
    dm1 = np.asarray(c_z).shape[0]
    f_inv = np.linalg.inv(f)
    crlb_h = f_inv[:dm1, :dm1] / N
    return float(np.real(np.trace(np.asarray(c_z) @ crlb_h))) / sigma2
