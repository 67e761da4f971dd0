"""Single-parameter Newton-Raphson search over the steering parameter.

The search maximizes the orthogonally-constrained sample contrast over the
scalar ``lam``.  Each iteration rebuilds the steering vector, the
minimum-power distortionless weights, the extracted signal and its sample
statistics, then takes a safeguarded Newton step computed from the analytic
first derivative and the at-solution approximation of the second derivative.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import core
from .core import (
    ExtractionState,
    Nonlinearity,
    SnapshotMatrix,
    SteeringModel,
    background_covariance,
    c_constants,
    covariance_factor,
    sample_covariance,
)
from .errors import Diverged

# runaway guard for non-periodic steering weights (see `_runaway_guard`)
_RUNAWAY_SPAN = 2.0 * np.pi ** 2


@dataclass(frozen=True)
class CaponConfig:
    """Settings of the Newton search.

    ``tol_w`` is the stopping threshold on the max-norm change of ``w``
    between iterations; ``step_cap`` bounds ``|delta lam|`` per iteration;
    ``damping`` scales every accepted step.
    """

    lambda_ini: float
    max_iters: int = 100
    tol_w: float = 1e-6
    step_cap: float = 0.5
    damping: float = 1.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol_w <= 0.0:
            raise ValueError("tol_w must be positive")
        if self.step_cap <= 0.0:
            raise ValueError("step_cap must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")


@dataclass(frozen=True)
class CaponResult:
    state: ExtractionState
    iterations: int
    converged: bool
    contrast_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    gradient_fallbacks: int = 0


def wrap_angle(lam: float) -> float:
    """Wrap into the principal interval (-pi, pi]."""
    out = -((-lam + np.pi) % (2.0 * np.pi) - np.pi)
    return float(out)


def contrast(
    x: SnapshotMatrix,
    lam: float,
    phi: Nonlinearity,
    model: SteeringModel = None,
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
      the source and which feeds ``CaponResult.contrast_trace``.
    * Frozen plug-ins: with ``nu`` and ``c_z`` fixed at a reference state,
      the model-pdf term is scaled by ``1/nu`` (the effective score used by
      the optimizer is ``phi/nu``) and the background term is the Mahalanobis
      form ``-tr(c_z^-1 C_z(lam))``.  The exact derivative of this function
      at the reference point is :func:`first_derivative`; finite-difference
      checks must use this mode.

    The ``(d-2) log|gamma|^2`` term is identically zero for phase-shift
    steering (``gamma = a[0] = 1``) and is included literally.
    """
    if phi.log_pdf is None:
        raise ValueError(f"nonlinearity {phi.name!r} has no log_pdf")
    if model is None:
        model = core.ula(x.d)
    state = core.extraction_state(x, model, lam, phi)
    sigma2 = state.stats.sigma2
    m = float(np.mean(phi.log_pdf(state.s / np.sqrt(sigma2))))
    cz_lam = background_covariance(x, state.a)
    if nu is not None:
        m = m / nu
    if c_z is not None:
        bg = -float(np.real(np.trace(scipy.linalg.solve(c_z, cz_lam, assume_a="her"))))
    else:
        sign, logdet = np.linalg.slogdet(cz_lam)
        bg = -logdet - (x.d - 1)
    gam2 = float(np.abs(state.a[0]) ** 2)
    return m - np.log(sigma2) + bg + (x.d - 2) * np.log(gam2)


def _mpdr_derivatives(data, c_x, factor, a, v, w, phi_u, sigma2, sigma2_solve, nu, c1):
    """``(grad_w, d1, d2)`` of one MPDR problem, by the formulas of
    :func:`grad_w`, :func:`first_derivative` and :func:`second_derivative_approx`.

    ``data``, ``c_x`` and ``factor`` are the problem's snapshots, covariance
    and loaded Cholesky factor; ``a``, ``w`` and ``phi_u`` are the steering
    vector, MPDR weights and output scores at the current parameter, and
    ``sigma2_solve`` is the ``1 / (a^H C^-1 a)`` of the solve that gave
    ``w``.  The statistics ``sigma2``, ``nu`` and ``c1`` are inputs, so that
    a broadband bin can supply those of the joint nonlinearity.
    """
    av = a * v
    ci_av = scipy.linalg.cho_solve(factor, av)
    a_w = (c_x @ w) / sigma2
    score_mean = (data * phi_u).mean(axis=1) / np.sqrt(sigma2)
    gw = a_w - score_mean / nu
    d1 = -2.0 * sigma2 * np.imag(np.vdot(gw, ci_av))
    # solve-consistent sigma^2 in the bracket keeps it >= 0 exactly
    bracket = sigma2_solve * np.real(np.vdot(av, ci_av)) - np.abs(np.vdot(w, av)) ** 2
    d2 = 2.0 * c1 * sigma2 * bracket
    return gw, float(d1), float(d2)


def _derivatives(x, state, phi, c_x=None, factor=None):
    """:func:`_mpdr_derivatives` of the narrowband problem at ``state``.

    ``c_x`` and ``factor`` are the sample covariance of ``x`` and its
    :func:`covariance_factor`, computed here when not given.
    """
    if c_x is None:
        c_x = sample_covariance(x)
        factor = covariance_factor(c_x)
    stats = state.stats
    c1, _, _ = c_constants(stats)
    u = state.s / np.sqrt(stats.sigma2)
    _, sigma2_solve = core.mpdr_weights(None, state.a, factor=factor)
    return _mpdr_derivatives(
        x.data, c_x, factor, state.a, state.model.v, state.w, phi.phi(u),
        stats.sigma2, sigma2_solve, stats.nu, c1,
    )


def grad_w(x: SnapshotMatrix, state: ExtractionState, phi: Nonlinearity) -> np.ndarray:
    """Wirtinger gradient of the contrast with respect to ``conj(w)``:

        grad = a(w) - (1/nu) * mean(phi(u(n)) x(n) / sigma)

    with ``a(w) = C_x w / sigma^2``.  Vanishes at the exact solution.
    """
    return _derivatives(x, state, phi)[0]


def first_derivative(x: SnapshotMatrix, state: ExtractionState, phi: Nonlinearity) -> float:
    """Analytic derivative of the contrast along ``lam``:

        dC/dlam = -2 sigma^2 Im{ grad_w^H C_x^-1 (a * v) }
    """
    return _derivatives(x, state, phi)[1]


def first_derivative_via_grad_a(
    x: SnapshotMatrix, state: ExtractionState, phi: Nonlinearity
) -> float:
    """Equivalent form ``-2 Im{ grad_a^H (a * v) }`` with
    ``grad_a = sigma^2 C_x^-1 grad_w`` (used for cross-checks)."""
    av = state.a * state.model.v
    factor = covariance_factor(sample_covariance(x))
    grad_a = state.stats.sigma2 * scipy.linalg.cho_solve(
        factor, grad_w(x, state, phi)
    )
    return float(-2.0 * np.imag(np.vdot(grad_a, av)))


def second_derivative_approx(
    x: SnapshotMatrix, state: ExtractionState, phi: Nonlinearity
) -> float:
    """At-solution approximation of the second derivative:

        2 c1 sigma^2 ( sigma^2 (a*v)^H C_x^-1 (a*v) - |w^H (a*v)|^2 )

    The prefactor ``2 c1 sigma^2`` reduces to ``2 (nu - rho) / nu`` and uses
    the sample statistics; inside the bracket, ``sigma^2`` is taken
    solve-consistent (``1 / (a^H C^-1 a)`` on the loaded covariance) so the
    bracket is nonnegative by Cauchy-Schwarz exactly, making the sign the
    sign of ``c1`` (negative for super-Gaussian extracted signals).
    """
    return _derivatives(x, state, phi)[2]


def _safeguarded_newton(start, build, derivatives, step_cap, project, cfg):
    """Safeguarded Newton iteration over one scalar parameter.

    ``build(param)`` returns a state with separating weights ``.w`` (one
    vector, or one per bin); ``derivatives(state)`` returns the first and
    approximate second derivative ``(d1, d2)`` along the parameter.  The
    Newton step is taken only when ``d2`` is negative (a maximum); otherwise
    a small gradient step of magnitude ``0.1 * step_cap`` in the ascent
    direction is used (a fallback).  Steps are clipped to ``step_cap``,
    scaled by ``cfg.damping`` and mapped back into the admissible region by
    ``project``.  Convergence is declared when the max-norm change of the
    weights between consecutive iterations falls to ``cfg.tol_w`` or below.

    Returns ``(state, visited, iterations, converged, fallbacks)``, where
    ``visited`` lists the parameter values from the start to ``state``.
    """
    param = start
    state = build(param)
    visited = [param]
    converged = False
    fallbacks = 0
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        d1, d2 = derivatives(state)
        if not (np.isfinite(d1) and np.isfinite(d2)):
            raise Diverged(f"non-finite derivatives at parameter {param}")
        if d2 < 0.0:
            delta = -d1 / d2
        else:
            # wrong curvature (c1 >= 0 mid-iteration): safeguarded ascent step
            delta = np.sign(d1) * 0.1 * step_cap
            fallbacks += 1
        delta = float(np.clip(delta, -step_cap, step_cap)) * cfg.damping
        param = project(param + delta)
        new_state = build(param)
        dw = float(np.max(np.abs(new_state.w - state.w)))
        state = new_state
        visited.append(param)
        if dw <= cfg.tol_w:
            converged = True
            break
    return state, visited, iterations, converged, fallbacks


def _runaway_guard(lambda_ini: float, lam: float) -> float:
    """Reject a non-periodic iterate more than ``2 pi^2`` from the start."""
    if abs(lam - lambda_ini) > _RUNAWAY_SPAN:
        raise Diverged(f"lam={lam} left the admissible region around lambda_ini")
    return lam


def run(
    x: SnapshotMatrix,
    model: SteeringModel,
    phi: Nonlinearity,
    cfg: CaponConfig,
    keep_trace: bool = True,
) -> CaponResult:
    """Safeguarded Newton iteration over ``lam``.

    Each iteration rebuilds ``a(lam)``, ``w(lam)``, ``s`` and the sample
    statistics with :func:`core.extraction_state`, evaluates the first
    derivative and the approximate second derivative, then updates ``lam``
    (see :func:`_safeguarded_newton` for the step rule and the stopping
    test).  For integer steering weights ``lam`` is wrapped into (-pi, pi]
    after every update; for non-periodic weights the iterate must stay
    within ``2 pi^2`` of the start or :class:`Diverged` is raised.  With
    ``keep_trace`` the profile contrast of every visited ``lam`` is
    returned as ``contrast_trace``.
    """
    c_x = sample_covariance(x)
    factor = covariance_factor(c_x)
    if model.is_integer:
        start, project = wrap_angle(cfg.lambda_ini), wrap_angle
    else:
        start = float(cfg.lambda_ini)
        project = functools.partial(_runaway_guard, cfg.lambda_ini)
    state, visited, iterations, converged, fallbacks = _safeguarded_newton(
        start,
        functools.partial(core.extraction_state, x, model, phi=phi, factor=factor),
        lambda st: _derivatives(x, st, phi, c_x, factor)[1:],
        cfg.step_cap,
        project,
        cfg,
    )
    trace = [contrast(x, lam, phi, model) for lam in visited] if keep_trace else []
    return CaponResult(
        state=state,
        iterations=iterations,
        converged=converged,
        contrast_trace=np.asarray(trace),
        gradient_fallbacks=fallbacks,
    )
