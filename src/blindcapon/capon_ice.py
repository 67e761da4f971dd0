"""Single-parameter Newton-Raphson search over the steering parameter.

The search maximizes the orthogonally-constrained sample contrast over the
scalar ``lam`` on the one-problem case of :class:`_MpdrStack`, the kernel
that the broadband search also uses.  Each iteration rebuilds the steering
vectors, MPDR weights and extracted signals, then steps the parameter by
the bracketed scalar search of :func:`_safeguarded_newton`: Newton steps
until the first derivative changes sign, then secant or bisection steps.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from . import core
from .core import (
    ExtractionState,
    Nonlinearity,
    SnapshotMatrix,
    SteeringModel,
    background_covariance,
    covariance_factor,
    mpdr_weights,
    sample_covariance,
)
from .errors import DegenerateSignal, Diverged, DomainError, ScoreDegenerate

# runaway guard for non-periodic steering weights (see `_runaway_guard`)
_RUNAWAY_SPAN = 2.0 * np.pi ** 2

# the scalar search stops when a step or the bracket falls to _TOL_SCALE
# of the parameter range; one step moves ``lam`` by at most _STEP_CAP
_TOL_SCALE = 1e-9
_STEP_CAP = 0.5

# before a bracket exists, steps at least double once |d1| has not fallen
# for this many consecutive iterations (see `_safeguarded_newton`)
_STALLS_BEFORE_GROWTH = 3

# A start whose MPDR output power keeps less than this share of the
# delay-and-sum power at the same steering is cancelling the source it is
# steered near (see `_capon_start`).  Such starts measure <= 2.1e-9 on
# lone sources over a -100 dB floor; the starts of the d=5 and d=8 Monte
# Carlo sweeps, with competing sources, measure >= 1.1e-5.
_SELF_CANCELLATION = 1e-7

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CaponResult:
    state: ExtractionState
    iterations: int
    converged: bool
    gradient_fallbacks: int             # Newton steps taken as ascent steps


def wrap_angle(lam: float) -> float:
    """Wrap into the principal interval (-pi, pi]."""
    out = -((-lam + np.pi) % (2.0 * np.pi) - np.pi)
    return float(out)


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
      at the reference point is :func:`first_derivative`; finite-difference
      checks must use this mode.

    The ``(d-2) log|gamma|^2`` term is identically zero for phase-shift
    steering (``gamma = a[0] = 1``) and is included literally.
    """
    if phi.log_pdf is None:
        raise ValueError(f"nonlinearity {phi.name!r} has no log_pdf")
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
    """``(grad_w, d1, d2)`` of MPDR problems, by the formulas of
    :func:`grad_w`, :func:`first_derivative` and :func:`second_derivative_approx`.

    ``data``, ``c_x`` and ``factor`` are the problem's snapshots, covariance
    and :func:`core.covariance_factor`; ``a``, ``w`` and ``phi_u`` are the
    steering vector, MPDR weights and output scores at the current
    parameter, and ``sigma2_solve`` is the ``1 / (a^H C^-1 a)`` of the solve
    that gave ``w``.  The statistics ``sigma2``, ``nu`` and ``c1`` are
    inputs, so that :class:`_MpdrStack` can supply those of the joint
    nonlinearity.  Leading dimensions are a stack of problems (``data``
    ``(..., d, N)``, ``a`` ``(..., d)``, ``sigma2`` ``(...)``, ...) and give
    ``grad_w`` ``(..., d)`` and ``d1``, ``d2`` ``(...)``; ``v`` is shared.
    """
    sigma2, nu = np.asarray(sigma2), np.asarray(nu)
    av = a * v
    a_w = np.matvec(c_x, w) / sigma2[..., None]
    # data @ phi_u, without a (..., d, N) temporary
    score_mean = np.matvec(data, phi_u) / (data.shape[-1] * np.sqrt(sigma2))[..., None]
    gw = a_w - score_mean / nu[..., None]
    # C^-1 = G^H G: both quadratic forms are inner products after G
    g_av = np.matvec(factor, av)
    d1 = -2.0 * sigma2 * np.imag(np.vecdot(np.matvec(factor, gw), g_av))
    # solve-consistent sigma^2 in the bracket keeps it >= 0 exactly
    bracket = sigma2_solve * np.real(np.vecdot(g_av, g_av)) - np.abs(np.vecdot(w, av)) ** 2
    d2 = 2.0 * c1 * sigma2 * bracket
    return gw, d1, d2


@dataclass(frozen=True)
class _StackStates:
    """Steering vectors, MPDR weights, outputs and output powers of a stack
    of problems at one parameter; ``sig2_solve`` holds the
    ``1 / (a^H C^-1 a)`` of each MPDR solve."""

    a: np.ndarray           # (B, d)
    w: np.ndarray           # (B, d)
    s: np.ndarray           # (B, N)
    sig2: np.ndarray        # (B,)
    sig2_solve: np.ndarray  # (B,)


class _MpdrStack:
    """B MPDR problems steered by one real parameter: the kernel of both
    solvers.

    Problem ``k`` has snapshots ``x[k]`` ``(d, N)``, sample covariance
    ``c[k]`` and :func:`core.covariance_factor` ``factors[k]``, and is
    steered at ``exp(1j omegas[k] param v)``.  The outputs share the joint
    rational nonlinearity

        phi_k(u) = conj(u_k) / (1 + sum_j |u_j|^2)

    which for one problem is :func:`core.rational_nonlinearity`.
    Narrowband CaponICE is the one-problem stack with ``omegas = [1]``; the
    broadband search stacks STFT bins at their angular frequencies.
    """

    def __init__(self, x, c, factors, v, omegas):
        self.x, self.c, self.factors = x, c, factors
        self.v, self.omegas = v, omegas

    def states(self, param: float) -> _StackStates:
        """MPDR weights, outputs and powers of all problems at ``param``;
        an output power below 1e-30 raises :class:`DegenerateSignal`."""
        a = np.exp(1j * ((self.omegas * param)[:, None] * self.v))
        w, sig2_solve = mpdr_weights(self.factors, a)
        s = np.matmul(w.conj()[:, None, :], self.x)[:, 0]       # w^H x per problem
        sig2 = np.real(np.vecdot(s, s)) / s.shape[1]
        if (sig2 < 1e-30).any():
            raise DegenerateSignal("extracted signal has zero power")
        return _StackStates(a, w, s, sig2, sig2_solve)

    def derivatives(self, st: _StackStates):
        """Per problem ``(grad_w, d1, d2, nu)`` along its own phase
        ``omegas[k] * param``, by :func:`_mpdr_derivatives` with the
        normalizers ``nu_k`` and ``rho_k`` of the joint nonlinearity; a
        ``|nu_k|`` below 1e-12 raises :class:`ScoreDegenerate`."""
        frames = st.s.shape[1]
        u2 = np.abs(st.s) ** 2 / st.sig2[:, None]                 # |u_k|^2
        r = 1.0 / (1.0 + u2.sum(axis=0))                          # (N,)
        phi = np.conj(st.s) * (r / np.sqrt(st.sig2)[:, None])
        # nu_k = mean(phi_k u_k) = mean(|u_k|^2 r) and
        # rho_k = mean(d phi_k / d conj(u_k)) = mean(r - |u_k|^2 r^2)
        nu = u2 @ r / frames                                      # (B,)
        if (np.abs(nu) < 1e-12).any():
            raise ScoreDegenerate("nu is numerically zero")
        rho = (r.sum() - u2 @ r ** 2) / frames
        c1 = (nu - rho) / (nu * st.sig2)
        gw, d1, d2 = _mpdr_derivatives(
            self.x, self.c, self.factors, st.a, self.v, st.w, phi,
            st.sig2, st.sig2_solve, nu, c1,
        )
        return gw, d1, d2, nu

    def joint_derivatives(self, st: _StackStates):
        """``(d1, d2)`` along ``param``: the means of the per-problem values
        with chain-rule factors ``omegas`` and ``omegas^2``."""
        _, d1, d2, _ = self.derivatives(st)
        # ndarray.sum / size: np.mean's value without its per-call overhead
        return (float((self.omegas * d1).sum() / d1.size),
                float((self.omegas ** 2 * d2).sum() / d2.size))


def _one_problem(x, model):
    """The narrowband problem of ``x`` as a one-problem :class:`_MpdrStack`."""
    c_x = sample_covariance(x)
    return _MpdrStack(x.data[None], c_x[None], covariance_factor(c_x)[None], model.v, np.ones(1))


def _at_state(x, state):
    """:meth:`_MpdrStack.derivatives` of the one-problem kernel of ``x`` at ``state.lam``."""
    kernel = _one_problem(x, state.model)
    return kernel.derivatives(kernel.states(state.lam))


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


def _safeguarded_newton(start, build, derivatives, max_step, scale, project, max_iters):
    """Bracketed search for a maximum over one scalar parameter.

    ``build(param)`` returns a state; ``derivatives(state)`` returns the
    first and approximate second derivative ``(d1, d2)`` along the
    parameter.  An iteration makes one call of each.

    Until ``d1`` has taken both signs, the step is the Newton step
    ``-d1/d2`` when ``d2`` is negative (a maximum), and an ascent step of
    ``0.1 * max_step`` otherwise (a fallback).  On a convex approach the
    at-solution ``d2`` makes those steps far too short: once ``|d1|`` has
    not fallen for ``_STALLS_BEFORE_GROWTH`` consecutive iterations, each
    step is at least twice the previous one.  Steps are capped at
    ``max_step``.  Once ``d1`` has taken both signs, ``lo`` (``d1 > 0``) and
    ``hi`` (``d1 < 0``) bracket a maximum, and the step is the secant
    through the last two iterates when it lands strictly inside the
    bracket, the bisection otherwise.

    The bracket lives in unwrapped coordinates; ``project`` maps a parameter
    into the admissible region (a wrap, a clip or a guard that raises) only
    to build the state.  The search has converged when a step or the
    bracket width falls to ``_TOL_SCALE * scale``, ``scale`` being the
    parameter range, or when the projected step does not move (a maximum
    on the edge of a clipped range).  At most ``max_iters`` iterations are
    taken; ``max_iters < 1`` raises :class:`DomainError` and non-finite
    derivatives raise :class:`Diverged`.  Each iteration (param, d1, d2,
    step) and each stop (reason, iterations, param, fallbacks) is logged at
    DEBUG level.

    Returns ``(state, param, iterations, converged, fallbacks)``, where
    ``param`` is the parameter of ``state``.
    """
    if max_iters < 1:
        raise DomainError(f"max_iters must be >= 1, got {max_iters}")
    tol = _TOL_SCALE * scale
    param = start
    state = build(param)
    unwrapped = param
    lo = hi = prev = None           # prev: (unwrapped, d1) of the last iterate
    step = 0.0
    stalls = fallbacks = iterations = 0
    reason = "max_iters"
    for iterations in range(1, max_iters + 1):
        d1, d2 = derivatives(state)
        if not (np.isfinite(d1) and np.isfinite(d2)):
            raise Diverged(f"non-finite derivatives at parameter {param}")
        if d1 > 0.0:
            lo = unwrapped
        elif d1 < 0.0:
            hi = unwrapped
        if lo is not None and hi is not None:
            target = 0.5 * (lo + hi)
            if d1 != prev[1]:
                secant = unwrapped - d1 * (unwrapped - prev[0]) / (d1 - prev[1])
                if lo < secant < hi:
                    target = secant
            step = target - unwrapped
        else:
            if d2 < 0.0:
                newton = -d1 / d2
            else:
                # wrong curvature (c1 >= 0 mid-iteration): safeguarded ascent step
                newton = math.copysign(0.1 * max_step, d1)
                fallbacks += 1
            stalls = stalls + 1 if prev is not None and abs(d1) >= abs(prev[1]) else 0
            if stalls >= _STALLS_BEFORE_GROWTH:
                newton = math.copysign(max(abs(newton), 2.0 * abs(step)), newton)
            step = min(max(newton, -max_step), max_step)
        logger.debug("param %.12g d1 %.6g d2 %.6g step %.6g", param, d1, d2, step)
        new_param = project(param + step)
        # the move in unwrapped coordinates: a wrap shifts by whole ranges
        moved = math.remainder(new_param - param, scale)
        if moved == 0.0:
            reason = "boundary" if abs(step) > tol else "step"
            break
        prev = (unwrapped, d1)
        unwrapped += moved
        param = new_param
        state = build(param)
        if abs(moved) <= tol:
            reason = "step"
            break
        if lo is not None and hi is not None and hi - lo <= tol:
            reason = "bracket"
            break
    logger.debug(
        "stop: %s after %d iterations at param %.12g, %d fallbacks",
        reason, iterations, param, fallbacks,
    )
    return state, param, iterations, reason != "max_iters", fallbacks


def _capon_start(c_x, factor, model, start, project):
    """Move a self-cancelling start to the Capon-spectrum peak nearby.

    At a start close to, but not on, a dominant source the MPDR weights
    null that source and the output is the noise floor, where the
    contrast is flat and the Newton search walks away.  The ratio of the
    Capon power ``1 / (a^H C^-1 a)`` to the delay-and-sum power
    ``a^H C a / d^2`` detects this; below ``_SELF_CANCELLATION`` the start
    is replaced by the maximizer of the Capon spectrum in
    ``[start - _STEP_CAP, start + _STEP_CAP]``: a coarse grid, then a bounded
    scalar search inside the bracket of the best grid point.  Any other
    start is returned unchanged.
    """
    def inverse_power(lam):
        # a^H C^-1 a on the loaded covariance, for one lam or a grid of them
        a = np.exp(1j * np.multiply.outer(model.v, lam))
        return np.sum(np.abs(factor @ a) ** 2, axis=0)

    a = core.steering(model, start)
    ratio = model.d ** 2 / (inverse_power(start) * np.real(np.vdot(a, c_x @ a)))
    if ratio >= _SELF_CANCELLATION:
        return start
    # spacing _STEP_CAP / 32 = 1/64, well inside the 2 pi / d main lobe of
    # a d-sensor ULA, so the best point brackets the peak
    grid = start + np.linspace(-_STEP_CAP, _STEP_CAP, 65)
    k = int(np.argmin(inverse_power(grid)))
    bracket = (grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)])
    peak = scipy.optimize.minimize_scalar(
        lambda lam: np.log(inverse_power(lam)),
        bounds=bracket, method="bounded", options={"xatol": 1e-10},
    )
    moved = project(float(peak.x))
    logger.debug(
        "start %.6g cancels its source (Capon/delay-and-sum power %.3g); "
        "moved to the Capon-spectrum peak %.10g", start, ratio, moved,
    )
    return moved


def _runaway_guard(lambda_ini: float, lam: float) -> float:
    """Reject a non-periodic iterate more than ``2 pi^2`` from the start."""
    if abs(lam - lambda_ini) > _RUNAWAY_SPAN:
        raise Diverged(f"lam={lam} left the admissible region around lambda_ini")
    return lam


def run(
    x: SnapshotMatrix,
    model: SteeringModel,
    lambda_ini: float,
    max_iters: int = 100,
) -> CaponResult:
    """Bracketed Newton search over ``lam`` from ``lambda_ini`` (radians),
    at most ``max_iters`` iterations, with the rational nonlinearity.

    A start at which the MPDR weights cancel the source they are steered
    near (a lone source over a quiet floor, a little way from the start) is
    first moved to the Capon-spectrum peak within 0.5 of it; every other
    start is used as given (see :func:`_capon_start`).  Each iteration
    rebuilds ``a(lam)``, ``w(lam)`` and ``s`` on the one-problem
    :class:`_MpdrStack`, evaluates the first derivative and the
    approximate second derivative, then updates ``lam`` by at most 0.5:
    Newton steps until the first derivative changes sign, secant or
    bisection steps inside the bracket after (see
    :func:`_safeguarded_newton`).  The search has converged when a step or
    the bracket falls to ``2 pi * 1e-9``.  For integer steering weights
    ``lam`` is wrapped into (-pi, pi] after every update; for non-periodic
    weights the iterate must stay within ``2 pi^2`` of the start or
    :class:`Diverged` is raised.  A non-finite start raises
    :class:`DomainError`.
    """
    if not math.isfinite(lambda_ini):
        raise DomainError(f"lambda_ini must be finite, got {lambda_ini}")
    kernel = _one_problem(x, model)
    if model.is_integer:
        start, project = wrap_angle(lambda_ini), wrap_angle
    else:
        start = float(lambda_ini)
        project = functools.partial(_runaway_guard, lambda_ini)
    start = _capon_start(kernel.c[0], kernel.factors[0], model, start, project)
    st, lam, iterations, converged, fallbacks = _safeguarded_newton(
        start,
        kernel.states,
        kernel.joint_derivatives,
        _STEP_CAP,
        2.0 * np.pi,
        project,
        max_iters,
    )
    state = ExtractionState(
        lam=lam, a=st.a[0], w=st.w[0], s=st.s[0], model=model,
        stats=core.soi_statistics(st.s[0], core.rational_nonlinearity()),
        sigma2_solve=float(st.sig2_solve[0]),
    )
    return CaponResult(
        state=state,
        iterations=iterations,
        converged=converged,
        gradient_fallbacks=fallbacks,
    )
