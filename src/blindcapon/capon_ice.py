"""Single-parameter Newton-Raphson search over the steering parameter.

The search maximizes the orthogonally-constrained sample contrast over the
scalar ``lam`` on the one-problem case of :class:`_MpdrStack`, the kernel
that the broadband search also uses.  Each iteration rebuilds the steering
vectors, MPDR weights and extracted signals, then steps the parameter by
the bracketed scalar search of :func:`_safeguarded_newton`: Newton steps,
corrected by secant steps or grown where they fall short, until the first
derivative changes sign, then secant or bisection steps.
"""

import cmath
import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import SnapshotMatrix, SteeringModel, mpdr_weights
from .errors import DegenerateSignal, Diverged, DomainError, ScoreDegenerate

# runaway guard for non-periodic steering weights (see `_runaway_guard`)
_RUNAWAY_SPAN = 2.0 * np.pi ** 2

# the scalar search stops when a step falls to _TOL_SCALE of the parameter
# range; one step moves ``lam`` by at most _STEP_CAP
_TOL_SCALE = 1e-9
_STEP_CAP = 0.5

# before a bracket exists, steps at least double once |d1| has not fallen
# for this many consecutive iterations (see `_safeguarded_newton`)
_STALLS_BEFORE_GROWTH = 3

# before a bracket exists, an at-solution d2 within this share of its last
# value has a settled bias, and the secant slope of d1 is the curvature to
# step by (see `_safeguarded_newton`).  A tenth holds the secant back while
# a slowly settling d2 is still far off (13 iterations instead of 9 on a
# test peak with d2 3.5 times too steep); a half lets it step on a d2 still
# moving, and the d=5 lambda sweep takes 0.8 % more iterations
_STEADY_CURVATURE = 0.25

# A start moves to the Capon-spectrum peak that the scalar search climbs to
# within _START_WINDOW / d of it when that peak lies strictly inside the
# window and has at least _START_GAIN_DB more Capon power (see
# `_capon_start`).  A window of pi/(2d) reaches a competitor's peak from a
# weak source with none of its own; without the gain condition a start on a
# flat Capon spectrum wanders off a fixed point of the contrast search.
_START_WINDOW = np.pi / 4.0
_START_GAIN_DB = 1.0

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CaponResult:
    lam: float                          # the last iterate
    a: np.ndarray                       # steering vector at lam
    w: np.ndarray                       # MPDR weights at lam, w^H a = 1
    iterations: int
    converged: bool
    gradient_fallbacks: int             # steps where d2 >= 0: ascent or growth
    start_iterations: int               # of the Capon-peak climb before the search


def wrap_angle(lam: float) -> float:
    """Wrap into the principal interval (-pi, pi]."""
    out = -((-lam + np.pi) % (2.0 * np.pi) - np.pi)
    return float(out)


class _MpdrStack:
    """B MPDR problems steered by one real parameter: the kernel of both
    solvers.

    Problem ``k`` has snapshots ``x[k]`` ``(d, N)``, sample covariance
    ``c[k]`` and :func:`core.covariance_factor` ``factors[k]``, and is
    steered at ``core.steering(model, omegas[k] * param)``; ``v`` is the
    model's weights.  The outputs share the joint rational nonlinearity

        phi_k(u) = conj(u_k) / (1 + sum_j |u_j|^2)

    which for one problem is the rational ``conj(u) / (1 + |u|^2)``.
    Narrowband CaponICE is the one-problem stack with ``omegas = [1]``; the
    broadband search stacks STFT bins at their angular frequencies.  One
    evaluation, :meth:`derivatives`, is one iteration of either search and
    makes two passes over ``x``: ``s = w^H x`` and the score mean
    ``x conj(s r)``.

    Those two passes and the ``(B, N)`` arrays ``s``, ``p`` and ``r`` are in
    ``x``'s precision, single for the complex64 STFT of float32 audio.  The
    per-problem algebra is double: ``c``, ``factors``, the MPDR solves, the
    output powers and ``(d1, d2)``.
    """

    def __init__(self, x, c, factors, model, omegas):
        self.x, self.c, self.factors = x, c, factors
        self.model, self.v, self.omegas = model, model.v, omegas
        # chain-rule weights of the means over the problems
        self._d1_weights = omegas / omegas.size
        self._d2_weights = omegas ** 2 / omegas.size

    def derivatives(self, param: float):
        """Per problem ``(d1, d2)`` along its own phase ``omegas[k] * param``,
        from the steering vector ``a``, MPDR weights ``w`` and outputs
        ``s = w^H x`` at ``param``: the first derivative

            d1 = -2 sigma^2 Im{ grad_w^H C^-1 (a * v) },
            grad_w = C w / sigma^2 - mean(phi(u) x / sigma) / nu,

        and the at-solution approximation of the second

            d2 = 2 c1 sigma^2 ( sigma_s^2 (a*v)^H C^-1 (a*v) - |w^H (a*v)|^2 ),
            c1 = (nu - rho) / (nu sigma^2),

        under the joint nonlinearity, whose normalizers are
        ``nu_k = mean(phi_k u_k)`` and ``rho_k = mean(d phi_k / d conj(u_k))``.
        ``sigma_s^2`` is the solve-consistent ``1 / (a^H C^-1 a)``, so the
        bracket is nonnegative by Cauchy-Schwarz and the sign of ``d2`` is
        the sign of ``c1``.  An output power ``sigma^2`` at most 1e-30 of
        ``sigma_s^2`` raises :class:`DegenerateSignal`, a ``nu_k`` below
        1e-12 :class:`ScoreDegenerate`.
        """
        a = core.steering(self.model, self.omegas * param)
        w, sig2_solve = mpdr_weights(self.factors, a)
        w_h = w.conj().astype(self.x.dtype, copy=False)
        s = np.matmul(w_h[:, None, :], self.x)[:, 0]            # w^H x per problem
        p = np.abs(s)
        p *= p
        frames = p.shape[-1]
        sig2 = p.sum(axis=-1, dtype=float) / frames
        if (sig2 <= 1e-30 * sig2_solve).any():
            raise DegenerateSignal("extracted signal has zero power")
        # r = 1 / (1 + sum_k |u_k|^2); nu_k = mean(|u_k|^2 r) and
        # rho_k = mean(r - |u_k|^2 r^2), with |u_k|^2 = p_k / sigma_k^2
        r = 1.0 / (1.0 + (1.0 / sig2).astype(p.dtype, copy=False) @ p)  # (N,)
        nu = p @ r / (frames * sig2)
        if (nu < 1e-12).any():
            raise ScoreDegenerate("nu is numerically zero")
        rho = (r.sum() - p @ (r * r) / sig2) / frames
        c1 = (nu - rho) / (nu * sig2)
        # sigma^2 G grad_w = G (C w - x conj(s r) / (N nu)), C^-1 = G^H G
        sr = np.multiply(s, r, out=s)
        score = np.vecdot(sr[:, None, :], self.x)                 # x conj(s r)
        h = np.matvec(self.c, w) - score / (frames * nu)[:, None]
        av = a * self.v
        g_av = np.matvec(self.factors, av)
        d1 = -2.0 * np.imag(np.vecdot(np.matvec(self.factors, h), g_av))
        bracket = sig2_solve * np.real(np.vecdot(g_av, g_av)) - np.abs(np.vecdot(w, av)) ** 2
        d2 = 2.0 * c1 * sig2 * bracket
        return d1, d2

    def joint_derivatives(self, param: float):
        """``(d1, d2)`` along ``param``, at ``param``: the means of the
        per-problem values with chain-rule factors ``omegas`` and
        ``omegas^2``."""
        d1, d2 = self.derivatives(param)
        return float(self._d1_weights @ d1), float(self._d2_weights @ d2)


def _safeguarded_newton(start, derivatives, max_step, scale, project, max_iters):
    """Bracketed search for a maximum over one scalar parameter.

    ``derivatives(param)`` returns the first and approximate second
    derivative ``(d1, d2)`` along the parameter.  An iteration makes one
    call, and none is made at the parameter the last step lands on.

    Until ``d1`` has taken both signs, the step is the Newton step
    ``-d1/d2`` when ``d2`` is negative (a maximum), and an ascent step of
    ``0.1 * max_step`` otherwise (a fallback).  The at-solution ``d2`` is
    off the true curvature, so Newton steps alone shrink ``|d1|`` by a
    fixed ratio per step; the secant slope ``s`` of ``d1`` through the last
    two iterates corrects them.  When ``|d1|`` fell on the last step, ``d2``
    overstates the curvature (``d2 < s < 0``) and the bias of ``d2`` has
    settled, the step is the secant step ``-d1/s``.  The bias has settled
    when the last two ``d2`` agree within ``_STEADY_CURVATURE`` of the
    earlier one: a steady ``d2`` off by a near-constant factor leaves the
    secant slope as the measure of the curvature.  A secant step is at
    most the longer of the Newton step and twice the previous step.
    On a convex approach the at-solution ``d2`` makes the steps far too
    short: once ``|d1|`` has not fallen for ``_STALLS_BEFORE_GROWTH``
    consecutive iterations, each step is at least twice the previous one.
    Steps are capped at ``max_step``.  Once ``d1`` has taken both signs,
    ``lo`` (``d1 > 0``) and ``hi`` (``d1 < 0``) bracket a maximum, and the
    step is the secant through the last two iterates when it lands strictly
    inside the bracket, the bisection otherwise.

    The bracket lives in unwrapped coordinates; ``project`` maps a parameter
    into the admissible region (a wrap, a clip or a guard that raises) only to
    evaluate the derivatives.  The search has converged when a step falls to
    ``_TOL_SCALE * scale``, ``scale`` being the parameter range, or when the
    projected step does not move (a maximum on the edge of a clipped range);
    the bracket width needs no test of its own, since a step inside the
    bracket is shorter than the bracket.  At most ``max_iters`` iterations are
    taken; ``max_iters < 1`` raises :class:`DomainError` and non-finite
    derivatives raise :class:`Diverged`.  Each iteration (param, d1, d2, step
    and the rule that chose it: ``newton``, ``secant``, ``growth``,
    ``ascent``, ``bracket-secant`` or ``bisection``) and each stop (reason,
    iterations, param, fallbacks) is logged at DEBUG level.

    Returns ``(param, iterations, converged, fallbacks)``.
    """
    if max_iters < 1:
        raise DomainError(f"max_iters must be >= 1, got {max_iters}")
    tol = _TOL_SCALE * scale
    param = unwrapped = start
    lo = hi = prev = None           # prev: (unwrapped, d1, d2) of the last iterate
    step = 0.0
    stalls = fallbacks = iterations = 0
    reason = "max_iters"
    for iterations in range(1, max_iters + 1):
        d1, d2 = derivatives(param)
        if not (math.isfinite(d1) and math.isfinite(d2)):
            raise Diverged(f"non-finite derivatives at parameter {param}")
        if d1 > 0.0:
            lo = unwrapped
        elif d1 < 0.0:
            hi = unwrapped
        if lo is not None and hi is not None:
            target, rule = 0.5 * (lo + hi), "bisection"
            if d1 != prev[1]:
                secant = unwrapped - d1 * (unwrapped - prev[0]) / (d1 - prev[1])
                if lo < secant < hi:
                    target, rule = secant, "bracket-secant"
            step = target - unwrapped
        else:
            if d2 < 0.0:
                newton, rule = -d1 / d2, "newton"
            else:
                # wrong curvature (c1 >= 0 mid-iteration): safeguarded ascent step
                newton, rule = math.copysign(0.1 * max_step, d1), "ascent"
                fallbacks += 1
            # |d1| over its last value: >= 1 stalls, (0, 1) falls
            ratio = 0.0 if prev is None else abs(d1) / abs(prev[1]) if prev[1] else math.inf
            stalls = stalls + 1 if ratio >= 1.0 else 0
            longest = max(abs(newton), 2.0 * abs(step))
            if stalls >= _STALLS_BEFORE_GROWTH:
                newton, rule = math.copysign(longest, newton), "growth"
            elif 0.0 < ratio < 1.0:
                slope = (d1 - prev[1]) / (unwrapped - prev[0])
                steady = abs(d2 - prev[2]) <= _STEADY_CURVATURE * abs(prev[2])
                if steady and d2 < slope < 0.0:
                    newton, rule = math.copysign(min(abs(d1 / slope), longest), d1), "secant"
            step = min(max(newton, -max_step), max_step)
        logger.debug("param %.12g d1 %.6g d2 %.6g step %.6g rule %s", param, d1, d2, step, rule)
        new_param = project(param + step)
        # the move in unwrapped coordinates: a wrap shifts by whole ranges
        moved = math.remainder(new_param - param, scale)
        if moved == 0.0:
            reason = "boundary" if abs(step) > tol else "step"
            break
        prev = (unwrapped, d1, d2)
        unwrapped += moved
        param = new_param
        if abs(moved) <= tol:
            reason = "step"
            break
    logger.debug(
        "stop: %s after %d iterations at param %.12g, %d fallbacks",
        reason, iterations, param, fallbacks,
    )
    return param, iterations, reason != "max_iters", fallbacks


@functools.lru_cache(maxsize=16)
def _lag_weights(v_bytes):
    """``(weights, phases)``, read-only as the cache shares them, for the
    steering weights with bytes ``v_bytes``: for a Hermitian ``m``
    ``(d, d)``, ``m.ravel() @ weights`` holds the rows
    ``(h_L, 1j L h_L, -L^2 h_L)`` over lag 0 and the positive lags ``L`` of
    ``v``, its distinct differences ``v_j - v_i`` (grouped by exact
    equality, so a ULA has ``d - 1`` positive ones), with the lag sums
    ``c_L = sum_{v_j - v_i = L} m_ij``, ``h_0 = c_0`` and
    ``h_L = c_L + conj(c_-L) = 2 c_L``; ``phases`` is ``1j L``."""
    v = np.frombuffer(v_bytes)
    lags, which = np.unique(v[None, :] - v[:, None], return_inverse=True)
    kept = np.flatnonzero(lags >= 0.0)                  # lag 0 first
    lags = lags[kept]
    columns = (which.reshape(-1, 1) == kept) * np.where(lags > 0.0, 2.0, 1.0)
    weights = np.concatenate([columns, columns * (1j * lags), columns * -(lags * lags)], axis=1)
    phases = 1j * lags
    weights.flags.writeable = phases.flags.writeable = False
    return weights, phases


def _steered_powers(m, omegas, v):
    """``powers(param)``: per problem ``(P, P', P'')``, the power
    ``P_k = Re a_k^H m_k a_k`` steered at ``a_k = exp(1j omegas_k param v)``
    for a Hermitian ``m`` ``(B, d, d)``, and its derivatives along ``param``.

    With the rows ``(h_L, 1j L h_L, -L^2 h_L)`` over the lags of
    :func:`_lag_weights`, formed once here, and ``u = omegas_k param``,

        P = Re sum_L h_L e^(1j L u),
        P' = omegas_k Re sum_L 1j L h_L e^(1j L u),
        P'' = -omegas_k^2 Re sum_L L^2 h_L e^(1j L u),

    an evaluation of ``O(B d)`` for a ULA against the ``O(B d^2)`` of the
    quadratic form.  A stack gives three ``(B,)`` arrays.  One problem gives
    three floats, summed by scalar complex arithmetic, which over a few
    lags is faster than numpy calls."""
    weights, phases = _lag_weights(v.tobytes())
    rows = (m.reshape(len(m), -1) @ weights).reshape(len(m), 3, -1)
    if len(m) == 1:
        omega = float(omegas[0])
        terms = list(zip(phases.tolist(), *rows[0].tolist()))

        def powers(param):
            u = omega * param
            p = d1 = d2 = 0j
            for phase, r0, r1, r2 in terms:
                e = cmath.exp(phase * u)
                p += r0 * e
                d1 += r1 * e
                d2 += r2 * e
            return p.real, omega * d1.real, omega * omega * d2.real

        return powers

    scales = omegas ** np.arange(3.0)[:, None]

    def powers(param):
        e = np.exp(np.multiply.outer(omegas * param, phases))
        return tuple(np.real(rows @ e[:, :, None])[:, :, 0].T * scales)

    return powers


def _capon_spectrum(kernel):
    """``(derivatives, powers)`` of the Capon spectrum
    ``-mean_k log(a_k^H C_k^-1 a_k)`` of the :class:`_MpdrStack` ``kernel``,
    ``C_k^-1 = G_k^H G_k`` for its covariance factors: ``derivatives(param)``
    for :func:`_safeguarded_newton` and ``powers``, the
    :func:`_steered_powers` of the ``C_k^-1``.  Per problem ``-log P`` has
    the derivatives ``-P'/P`` and ``(P'/P)^2 - P''/P``.  An evaluation
    makes no pass over the snapshots."""
    factors = kernel.factors
    powers = _steered_powers(np.conj(factors.mT) @ factors, kernel.omegas, kernel.v)
    # one problem evaluates to floats
    mean = float if len(factors) == 1 else lambda values: float(np.mean(values))

    def derivatives(param):
        p, d1, d2 = powers(param)
        slope = d1 / p
        return mean(-slope), mean(slope * slope - d2 / p)

    return derivatives, powers


def _capon_start(kernel, start, project, max_iters):
    """The start of the contrast search from ``start`` on the one-problem
    :class:`_MpdrStack` ``kernel``; returns ``(start, iterations)``.

    Near a strong source the MPDR weights at the start partly cancel it
    (self-cancellation under steering mismatch), and the contrast search
    from there can walk to another source.  The Capon spectrum
    ``-log(a^H C^-1 a)`` still peaks at the source, so the scalar search
    :func:`_safeguarded_newton` first climbs it (:func:`_capon_spectrum`)
    from ``start``, clipped to ``start +- pi/(4d)``, in at most
    ``max_iters`` iterations.  The start moves to the peak only if the peak
    lies strictly inside that window and its Capon power
    ``1 / (a^H C^-1 a)`` is at least 1 dB above the start's; otherwise
    ``start`` is returned bit for bit.  The climb's iterations and one line
    on the decision are logged at DEBUG level.
    """
    derivatives, powers = _capon_spectrum(kernel)
    half = _START_WINDOW / kernel.v.size
    lo, hi = start - half, start + half
    peak, iterations, _, _ = _safeguarded_newton(
        start, derivatives, _STEP_CAP, 2.0 * np.pi, lambda lam: min(max(lam, lo), hi), max_iters,
    )
    gain_db = 10.0 * math.log10(powers(start)[0] / powers(peak)[0])
    moved = lo < peak < hi and gain_db >= _START_GAIN_DB
    logger.debug(
        "start %.10g %s; the Capon-spectrum peak is %.10g, %+.3g dB",
        start, "moved" if moved else "kept", peak, gain_db,
    )
    return (project(peak) if moved else start), iterations


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

    The search starts at the Capon-spectrum peak that a climb from
    ``lambda_ini`` reaches within ``pi/(4d)`` of it, if that peak has at
    least 1 dB more Capon power, and at ``lambda_ini`` otherwise (see
    :func:`_capon_start`).  The climb is the one that starts
    :func:`capon_ive.run_ive`, :func:`_capon_spectrum`, here of the
    one-problem :class:`_MpdrStack` that the search then runs on;
    ``start_iterations`` counts its iterations, of ``O(d)`` each, and
    ``iterations`` the search's.  Each iteration of the search rebuilds
    ``a(lam)``, ``w(lam)`` and ``s``, evaluates the first derivative and
    the approximate second derivative, then updates ``lam`` by at most
    0.5: Newton steps until the first derivative changes sign, secant or
    bisection steps inside the bracket after (see
    :func:`_safeguarded_newton`).  The search has converged when a step
    falls to ``2 pi * 1e-9``.  For integer steering weights
    ``lam`` is wrapped into (-pi, pi] after every update; for non-periodic
    weights the iterate must stay within ``2 pi^2`` of the start or
    :class:`Diverged` is raised.  A non-finite start raises
    :class:`DomainError`.  The search solves with ``x.covariance``.
    """
    if not math.isfinite(lambda_ini):
        raise DomainError(f"lambda_ini must be finite, got {lambda_ini}")
    c_x, factor = x.covariance
    kernel = _MpdrStack(x.data[None], c_x[None], factor[None], model, np.ones(1))
    if model.is_integer:
        start, project = wrap_angle(lambda_ini), wrap_angle
    else:
        start = float(lambda_ini)
        project = functools.partial(_runaway_guard, lambda_ini)
    start, start_iterations = _capon_start(kernel, start, project, max_iters)
    lam, iterations, converged, fallbacks = _safeguarded_newton(
        start, kernel.joint_derivatives, _STEP_CAP, 2.0 * np.pi, project, max_iters,
    )
    a = core.steering(model, lam)
    w, _ = mpdr_weights(factor, a)
    return CaponResult(
        lam=lam,
        a=a,
        w=w,
        iterations=iterations,
        converged=converged,
        gradient_fallbacks=fallbacks,
        start_iterations=start_iterations,
    )
