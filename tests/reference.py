"""Test-only reference implementations the package is checked against.

The sample contrast of the orthogonally-constrained likelihood, the
blocking matrix of its background signals and the extraction state (a, w,
s and output statistics) at one parameter: the solvers need only the
contrast's derivatives, so these live here as the independent oracle for
the finite-difference and statistics checks.  The derivatives themselves
are here too, in the per-problem form that includes the gradient in ``w``
(:func:`_mpdr_derivatives`), as the oracle of the solvers' kernel, and so
are the per-source loops that draw the Monte Carlo sources.
"""

import numpy as np

from blindcapon.core import (
    ExtractionState,
    Nonlinearity,
    SnapshotMatrix,
    SteeringModel,
    complex_gaussian,
    complex_laplacean,
    covariance_factor,
    mpdr_weights,
    sample_covariance,
    soi_statistics,
    steering,
)


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
        factor = covariance_factor(sample_covariance(x))
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
    return sample_covariance(SnapshotMatrix(blocking_matrix(a) @ x.data))


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


def _at_state(x, state):
    """:func:`stack_derivatives` of the narrowband problem of ``x`` at ``state.lam``."""
    c_x = sample_covariance(x)
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


def draw_sources_loop(rng: np.random.Generator, law: str, d: int, n: int) -> np.ndarray:
    """``d x n`` sources of ``law`` drawn one source at a time."""
    sample = complex_laplacean if law == "laplacean" else complex_gaussian
    return np.vstack([sample(rng, n) for _ in range(d)])
