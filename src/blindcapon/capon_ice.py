"""Single-parameter Newton-Raphson search over the steering parameter.

The search maximizes the orthogonally-constrained sample contrast over the
scalar ``lam`` on the one-problem case of :class:`_MpdrStack`, the kernel
that the broadband search also uses.  Each iteration rebuilds the steering
vectors, MPDR weights and extracted signals, then steps the parameter by
the bracketed scalar search of :func:`_safeguarded_newton`: Newton steps,
grown or replaced by secant steps where they fall short, until the first
derivative changes sign, then secant or bisection steps.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    SnapshotMatrix,
    SteeringModel,
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
    lam: float                          # the last iterate
    a: np.ndarray                       # steering vector at lam
    w: np.ndarray                       # MPDR weights at lam, w^H a = 1
    iterations: int
    converged: bool
    gradient_fallbacks: int             # Newton steps taken as ascent steps


def wrap_angle(lam: float) -> float:
    """Wrap into the principal interval (-pi, pi]."""
    out = -((-lam + np.pi) % (2.0 * np.pi) - np.pi)
    return float(out)


@dataclass(frozen=True)
class _StackState:
    """Steering vectors, MPDR weights and outputs of a stack of problems at
    one parameter: ``sig2_solve`` is the ``1 / (a^H C^-1 a)`` of each MPDR
    solve, ``s = w^H x``, ``p = |s|^2`` and ``sig2`` the output powers."""

    a: np.ndarray           # (B, d)
    w: np.ndarray           # (B, d)
    sig2_solve: np.ndarray  # (B,)
    s: np.ndarray           # (B, N)
    p: np.ndarray           # (B, N)
    sig2: np.ndarray        # (B,)


class _MpdrStack:
    """B MPDR problems steered by one real parameter: the kernel of both
    solvers.

    Problem ``k`` has snapshots ``x[k]`` ``(d, N)``, sample covariance
    ``c[k]`` and :func:`core.covariance_factor` ``factors[k]``, and is
    steered at ``exp(1j omegas[k] param v)``.  The outputs share the joint
    rational nonlinearity

        phi_k(u) = conj(u_k) / (1 + sum_j |u_j|^2)

    which for one problem is the rational ``conj(u) / (1 + |u|^2)``.
    Narrowband CaponICE is the one-problem stack with ``omegas = [1]``; the
    broadband search stacks STFT bins at their angular frequencies.  An
    evaluation makes two passes over ``x``: ``s = w^H x`` and the score
    mean ``x conj(s r)``.

    Those two passes and the ``(B, N)`` arrays ``s``, ``p`` and ``r`` are in
    ``x``'s precision, single for the complex64 STFT of float32 audio.  The
    per-problem algebra is double: ``c``, ``factors``, the MPDR solves, the
    output powers and ``(d1, d2)``.
    """

    def __init__(self, x, c, factors, v, omegas):
        self.x, self.c, self.factors = x, c, factors
        self.v, self.omegas = v, omegas
        self._phases = omegas[:, None] * v          # a = exp(1j param phases)
        # chain-rule weights of the means over the problems
        self._d1_weights = omegas / omegas.size
        self._d2_weights = omegas ** 2 / omegas.size

    def state(self, param: float) -> _StackState:
        """MPDR weights and outputs of all problems at ``param``; an output
        power at most 1e-30 of ``sig2_solve`` raises :class:`DegenerateSignal`."""
        a = np.exp(1j * (self._phases * param))
        w, sig2_solve = mpdr_weights(self.factors, a)
        w_h = w.conj().astype(self.x.dtype, copy=False)
        s = np.matmul(w_h[:, None, :], self.x)[:, 0]            # w^H x per problem
        p = np.abs(s)
        p *= p
        sig2 = p.sum(axis=-1, dtype=float) / p.shape[-1]
        if (sig2 <= 1e-30 * sig2_solve).any():
            raise DegenerateSignal("extracted signal has zero power")
        return _StackState(a, w, sig2_solve, s, p, sig2)

    def derivatives(self, st: _StackState):
        """Per problem ``(d1, d2)`` along its own phase ``omegas[k] * param``:
        the first derivative

            d1 = -2 sigma^2 Im{ grad_w^H C^-1 (a * v) },
            grad_w = C w / sigma^2 - mean(phi(u) x / sigma) / nu,

        and the at-solution approximation of the second

            d2 = 2 c1 sigma^2 ( sigma_s^2 (a*v)^H C^-1 (a*v) - |w^H (a*v)|^2 ),
            c1 = (nu - rho) / (nu sigma^2),

        under the joint nonlinearity, whose normalizers are
        ``nu_k = mean(phi_k u_k)`` and ``rho_k = mean(d phi_k / d conj(u_k))``.
        ``sigma_s^2`` is the solve-consistent ``1 / (a^H C^-1 a)``, so the
        bracket is nonnegative by Cauchy-Schwarz and the sign of ``d2`` is
        the sign of ``c1``.  Overwrites ``st.s`` with ``s * r``; a ``nu_k``
        below 1e-12 raises :class:`ScoreDegenerate`.
        """
        frames = st.p.shape[-1]
        # r = 1 / (1 + sum_k |u_k|^2); nu_k = mean(|u_k|^2 r) and
        # rho_k = mean(r - |u_k|^2 r^2), with |u_k|^2 = p_k / sigma_k^2
        r = 1.0 / (1.0 + (1.0 / st.sig2).astype(st.p.dtype, copy=False) @ st.p)  # (N,)
        nu = st.p @ r / (frames * st.sig2)
        if (nu < 1e-12).any():
            raise ScoreDegenerate("nu is numerically zero")
        rho = (r.sum() - st.p @ (r * r) / st.sig2) / frames
        c1 = (nu - rho) / (nu * st.sig2)
        # sigma^2 G grad_w = G (C w - x conj(s r) / (N nu)), C^-1 = G^H G
        sr = np.multiply(st.s, r, out=st.s)
        score = np.vecdot(sr[:, None, :], self.x)                 # x conj(s r)
        h = np.matvec(self.c, st.w) - score / (frames * nu)[:, None]
        av = st.a * self.v
        g_av = np.matvec(self.factors, av)
        d1 = -2.0 * np.imag(np.vecdot(np.matvec(self.factors, h), g_av))
        bracket = st.sig2_solve * np.real(np.vecdot(g_av, g_av)) - np.abs(np.vecdot(st.w, av)) ** 2
        d2 = 2.0 * c1 * st.sig2 * bracket
        return d1, d2

    def joint_derivatives(self, param: float):
        """``(d1, d2)`` along ``param``, at ``param``: the means of the
        per-problem values with chain-rule factors ``omegas`` and
        ``omegas^2``."""
        d1, d2 = self.derivatives(self.state(param))
        return float(self._d1_weights @ d1), float(self._d2_weights @ d2)


def _one_problem(x, model, c_x, factor):
    """The narrowband problem of ``x`` as a one-problem :class:`_MpdrStack`."""
    return _MpdrStack(x.data[None], c_x[None], factor[None], model.v, np.ones(1))


def _safeguarded_newton(start, derivatives, max_step, scale, project, max_iters):
    """Bracketed search for a maximum over one scalar parameter.

    ``derivatives(param)`` returns the first and approximate second
    derivative ``(d1, d2)`` along the parameter.  An iteration makes one
    call, and none is made at the parameter the last step lands on.

    Until ``d1`` has taken both signs, the step is the Newton step
    ``-d1/d2`` when ``d2`` is negative (a maximum), and an ascent step of
    ``0.1 * max_step`` otherwise (a fallback).  On a convex approach the
    at-solution ``d2`` makes those steps far too short: once ``|d1|`` has
    not fallen for ``_STALLS_BEFORE_GROWTH`` consecutive iterations, each
    step is at least twice the previous one.  Where ``d2`` overstates the
    curvature on a concave approach, ``|d1|`` falls by a steady ratio:
    once it has fallen to between half and all of its last value for
    ``_STALLS_BEFORE_GROWTH`` consecutive iterations, and the secant slope
    ``s`` of ``d1`` through the last two iterates satisfies ``d2 < s < 0``,
    the step is the secant step ``-d1/s``, at most the longer of the Newton
    step and twice the previous step.  Steps are capped at ``max_step``.
    Once ``d1`` has taken both signs, ``lo`` (``d1 > 0``) and ``hi``
    (``d1 < 0``) bracket a maximum, and the step is the secant through the
    last two iterates when it lands strictly inside the bracket, the
    bisection otherwise.

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

    Returns ``(param, iterations, converged, fallbacks)``.
    """
    if max_iters < 1:
        raise DomainError(f"max_iters must be >= 1, got {max_iters}")
    tol = _TOL_SCALE * scale
    param = unwrapped = start
    lo = hi = prev = None           # prev: (unwrapped, d1) of the last iterate
    step = 0.0
    stalls = slow = fallbacks = iterations = 0
    reason = "max_iters"
    for iterations in range(1, max_iters + 1):
        d1, d2 = derivatives(param)
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
            # |d1| over its last value: >= 1 stalls, [0.5, 1) falls slowly
            ratio = 0.0 if prev is None else abs(d1) / abs(prev[1]) if prev[1] else math.inf
            stalls = stalls + 1 if ratio >= 1.0 else 0
            slow = slow + 1 if 0.5 <= ratio < 1.0 else 0
            longest = max(abs(newton), 2.0 * abs(step))
            if stalls >= _STALLS_BEFORE_GROWTH:
                newton = math.copysign(longest, newton)
            elif slow >= _STALLS_BEFORE_GROWTH:
                slope = (d1 - prev[1]) / (unwrapped - prev[0])
                if d2 < slope < 0.0:
                    newton = math.copysign(min(abs(d1 / slope), longest), d1)
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
    return param, iterations, reason != "max_iters", fallbacks


def _steered_powers(m, phases, param):
    """Per problem ``(P, P', P'')``: the power ``P_k = a_k^H m_k a_k``
    steered at ``a_k = exp(1j param phases_k)`` for Hermitian ``m``
    ``(B, d, d)`` and ``phases`` ``(B, d)``, and its derivatives along
    ``param``: with ``b = 1j phases * a``, ``P' = 2 Re b^H m a`` and
    ``P'' = 2 Re (b^H m b - (phases^2 * a)^H m a)``; three ``(B,)`` arrays."""
    a = np.exp(1j * (phases * param))
    b = 1j * phases * a
    m_a = np.matvec(m, a)
    p = np.real(np.vecdot(a, m_a))
    d1 = 2.0 * np.real(np.vecdot(b, m_a))
    d2 = 2.0 * np.real(np.vecdot(b, np.matvec(m, b)) - np.vecdot(phases * phases * a, m_a))
    return p, d1, d2


def _steered_power(m, phases, param):
    """:func:`_steered_powers` summed over the problems, as floats."""
    return tuple(float(t.sum()) for t in _steered_powers(m, phases, param))


def _capon_spectrum(inverses, phases):
    """``derivatives(param)`` for :func:`_safeguarded_newton` of the Capon
    spectrum ``-mean_k log(a_k^H C_k^-1 a_k)`` of the stack of inverse
    covariances ``inverses`` ``(B, d, d)``, steered at
    ``a_k = exp(1j param phases_k)``: per problem ``-log P`` has the
    derivatives ``-P'/P`` and ``(P'/P)^2 - P''/P``."""

    def derivatives(param):
        p, d1, d2 = _steered_powers(inverses, phases, param)
        slope = d1 / p
        return float(-slope.mean()), float((slope * slope - d2 / p).mean())

    return derivatives


def _capon_start(c_x, factor, model, start, project):
    """Move a self-cancelling start to the Capon-spectrum peak nearby.

    At a start close to, but not on, a dominant source the MPDR weights
    null that source and the output is the noise floor, where the
    contrast is flat and the Newton search walks away.  The ratio of the
    Capon power ``1 / (a^H C^-1 a)`` to the delay-and-sum power
    ``a^H C a / d^2`` detects this; below ``_SELF_CANCELLATION`` the start
    is replaced by the maximizer of the Capon spectrum, ``-log(a^H C^-1 a)``,
    that :func:`_safeguarded_newton` finds from the start within
    ``[start - _STEP_CAP, start + _STEP_CAP]``.  Any other start is returned
    unchanged.
    """
    a = core.steering(model, start)
    g_a = factor @ a                                    # a^H C^-1 a = |G a|^2
    ratio = model.d ** 2 / (np.real(np.vdot(g_a, g_a)) * np.real(np.vdot(a, c_x @ a)))
    if ratio >= _SELF_CANCELLATION:
        return start
    inverse = (factor.conj().T @ factor)[None]          # C^-1 = G^H G
    lo, hi = start - _STEP_CAP, start + _STEP_CAP
    peak, _, _, _ = _safeguarded_newton(
        start, _capon_spectrum(inverse, model.v[None]), _STEP_CAP, 2.0 * np.pi,
        lambda lam: min(max(lam, lo), hi), 100,
    )
    moved = project(peak)
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
    covariance=None,
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
    :class:`DomainError`.  ``covariance`` is ``x``'s pair of
    :func:`core.sample_covariance` and its factor, computed when omitted.
    """
    if not math.isfinite(lambda_ini):
        raise DomainError(f"lambda_ini must be finite, got {lambda_ini}")
    if covariance is None:
        c_x = sample_covariance(x)
        covariance = (c_x, covariance_factor(c_x))
    kernel = _one_problem(x, model, *covariance)
    if model.is_integer:
        start, project = wrap_angle(lambda_ini), wrap_angle
    else:
        start = float(lambda_ini)
        project = functools.partial(_runaway_guard, lambda_ini)
    start = _capon_start(*covariance, model, start, project)
    lam, iterations, converged, fallbacks = _safeguarded_newton(
        start, kernel.joint_derivatives, _STEP_CAP, 2.0 * np.pi, project, max_iters,
    )
    a = core.steering(model, lam)
    w, _ = mpdr_weights(covariance[1], a)
    return CaponResult(
        lam=lam,
        a=a,
        w=w,
        iterations=iterations,
        converged=converged,
        gradient_fallbacks=fallbacks,
    )
