"""Contrast, derivatives and the narrowband Newton search."""

import logging
import math

import numpy as np
import pytest
import scipy.linalg

from blindcapon import baselines, capon_ice, core, monte_carlo
from blindcapon.errors import DegenerateSignal, Diverged, DomainError

import reference
from conftest import random_mixture

RNG = np.random.default_rng
PHI = reference.rational_nonlinearity()


def frozen_contrast(x, lam, phi, model, nu0, cz0):
    """Contrast with the score normalizer and background covariance frozen
    at a reference state; its exact derivative is `first_derivative`."""
    return reference.contrast(x, lam, phi, model, nu=nu0, c_z=cz0)


def plugin_functional(x, w, nu0, cz0, log_pdf):
    """Independent implementation of the orthogonally-constrained contrast as
    a free function of w (oracle for the Wirtinger gradient check):
    model log-pdf (scaled by 1/nu0), output power, Mahalanobis background
    with frozen covariance, and the (d-2) log|gamma|^2 term."""
    d, n = x.data.shape
    c = x.data @ x.data.conj().T / n
    s = w.conj() @ x.data
    sig2 = np.real(np.vdot(w, c @ w))
    u = s / np.sqrt(sig2)
    m = np.mean(log_pdf(u))
    a_w = (c @ w) / sig2
    gam, g = a_w[0], a_w[1:]
    z = np.outer(g, x.data[0]) - gam * x.data[1:]
    cz = z @ z.conj().T / n
    mah = np.real(np.trace(np.linalg.solve(cz0, cz)))
    return m / nu0 - np.log(sig2) - mah + (d - 2) * np.log(np.abs(gam) ** 2)


def first_derivative_via_grad_a(x, state):
    """Equivalent form ``-2 Im{ grad_a^H (a * v) }`` of the first
    derivative, with ``grad_a = sigma^2 C_x^-1 grad_w``."""
    av = state.a * state.model.v
    loaded = core.regularized(core.sample_covariance(x.data))
    grad_a = state.stats.sigma2 * scipy.linalg.solve(
        loaded, reference.grad_w(x, state), assume_a="her"
    )
    return float(-2.0 * np.imag(np.vdot(grad_a, av)))


# ---------------------------------------------------------------------------
# contrast
# ---------------------------------------------------------------------------

def test_contrast_grid_maximum_near_truth_d2():
    lam_star = 0.6
    rng = RNG(21)
    model = core.ula(2)
    a = np.exp(2j * np.pi * rng.random((2, 2)))
    a[:, 0] = core.steering(model, lam_star)
    u = np.vstack([core.complex_laplacean(rng, 10_000) for _ in range(2)])
    x = core.SnapshotMatrix(a @ u)  # iSIR = 0 dB
    grid = np.linspace(lam_star - 0.5, lam_star + 0.5, 101)
    values = [reference.contrast(x, lam, PHI, model) for lam in grid]
    assert abs(grid[int(np.argmax(values))] - lam_star) <= 0.02


def test_contrast_periodic_for_integer_weights():
    x, _, _, model = random_mixture(RNG(22), 4, 2000, 0.5)
    lam = -0.9
    c1 = reference.contrast(x, lam, PHI, model)
    c2 = reference.contrast(x, lam + 2 * np.pi, PHI, model)
    assert abs(c1 - c2) < 1e-9 * max(1.0, abs(c1))


def test_contrast_requires_log_pdf():
    x, _, _, model = random_mixture(RNG(23), 3, 100, 0.2)
    bare = reference.Nonlinearity("bare", PHI.phi, PHI.dphi_ds, PHI.dphi_dsconj, None)
    with pytest.raises(ValueError):
        reference.contrast(x, 0.1, bare, model)


# ---------------------------------------------------------------------------
# gradients and derivatives
# ---------------------------------------------------------------------------

def exact_gaussian_derivatives(x, model, lam):
    """`_mpdr_derivatives` at ``lam`` with the exact circular-Gaussian score
    of the output, phi(u) = conj(u), whose normalizer nu is 1 and whose c1
    is 0."""
    state = reference.extraction_state(x, model, lam, reference.gaussian_score())
    c_x = core.sample_covariance(x.data)
    u = state.s / np.sqrt(state.stats.sigma2)
    return reference._mpdr_derivatives(
        x.data, c_x, core.covariance_factor(c_x), state.a, model.v, state.w,
        np.conj(u), state.stats.sigma2, state.sigma2_solve, 1.0, 0.0,
    )


def test_grad_w_zero_for_exact_gaussian_score():
    # exact up to the covariance loading epsilon (1e-10)
    x, _, _, model = random_mixture(RNG(30), 4, 3000, 0.4)
    gw, _, _ = exact_gaussian_derivatives(x, model, 0.7)
    assert np.linalg.norm(gw) < 1e-7


def test_grad_w_small_at_ground_truth():
    x, _, _, model = random_mixture(RNG(31), 5, 100_000, 0.7)
    state = reference.extraction_state(x, model, 0.7, PHI)
    assert np.linalg.norm(reference.grad_w(x, state)) < 0.02


def test_grad_w_matches_wirtinger_fd_of_plugin_functional():
    x, _, _, model = random_mixture(RNG(32), 4, 2000, 0.5)
    lam0 = 0.23
    state = reference.extraction_state(x, model, lam0, PHI)
    nu0 = state.stats.nu
    cz0 = reference.background_covariance(x, state.a)
    gw = reference.grad_w(x, state)
    h = 1e-6
    w0 = state.w
    for j in range(x.d):
        e = np.zeros(x.d, dtype=complex)
        e[j] = 1.0
        f = lambda w: plugin_functional(x, w, nu0, cz0, PHI.log_pdf)
        d_re = (f(w0 + h * e) - f(w0 - h * e)) / (2 * h)
        d_im = (f(w0 + 1j * h * e) - f(w0 - 1j * h * e)) / (2 * h)
        fd = 0.5 * (d_re + 1j * d_im)
        assert abs(fd - gw[j]) < 1e-5 * max(1.0, np.abs(gw).max())


@pytest.mark.parametrize("seed,d,lam0", [(40, 3, 0.9), (41, 5, -0.4), (42, 8, 0.1)])
def test_first_derivative_matches_contrast_fd(seed, d, lam0):
    x, _, _, model = random_mixture(RNG(seed), d, 2000, 0.6)
    state = reference.extraction_state(x, model, lam0, PHI)
    nu0 = state.stats.nu
    cz0 = reference.background_covariance(x, state.a)
    analytic = reference.first_derivative(x, state)
    h = 1e-5
    fd = (
        frozen_contrast(x, lam0 + h, PHI, model, nu0, cz0)
        - frozen_contrast(x, lam0 - h, PHI, model, nu0, cz0)
    ) / (2 * h)
    assert abs(fd - analytic) <= 1e-5 * abs(analytic)


def test_first_derivative_forms_agree():
    x, _, _, model = random_mixture(RNG(44), 5, 1500, 0.3)
    state = reference.extraction_state(x, model, -0.7, PHI)
    d1 = reference.first_derivative(x, state)
    d2 = first_derivative_via_grad_a(x, state)
    assert abs(d1 - d2) < 1e-10 * max(1.0, abs(d1))


def test_first_derivative_zero_when_grad_zero():
    # exact Gaussian score makes grad_w vanish (up to the loading epsilon)
    x, _, _, model = random_mixture(RNG(45), 4, 1000, 0.2)
    _, d1, _ = exact_gaussian_derivatives(x, model, 0.9)
    assert abs(d1) < 1e-6


def test_first_derivative_small_at_grid_maximum():
    lam_star = 0.5
    x, _, _, model = random_mixture(RNG(46), 4, 20_000, lam_star)
    grid = np.linspace(lam_star - 0.2, lam_star + 0.2, 81)
    values = [reference.contrast(x, lam, PHI, model) for lam in grid]
    lam_max = grid[int(np.argmax(values))]
    state = reference.extraction_state(x, model, lam_max, PHI)
    d1 = reference.first_derivative(x, state)
    # at the grid argmax the derivative is bounded by curvature * grid step
    d2 = abs(reference.second_derivative_approx(x, state))
    assert abs(d1) <= 2.0 * d2 * (grid[1] - grid[0])


def test_second_derivative_degenerate_weights():
    x, _, _, _ = random_mixture(RNG(50), 4, 500, 0.3)
    flat = core.SteeringModel(np.zeros(4))
    state = reference.extraction_state(x, flat, 0.4, PHI)
    assert reference.second_derivative_approx(x, state) == 0.0


def test_second_derivative_closed_form_d2():
    # sample covariance exactly I_2, a = [1, e^{i lam}], w = a/2, sigma2 = 1/2
    lam = 0.3
    x = core.SnapshotMatrix(np.sqrt(2.0) * np.eye(2, dtype=complex))
    model = core.ula(2)
    a = core.steering(model, lam)
    w = a / 2.0
    stats = reference.SoiStatistics(sigma2=0.5, nu=0.5, rho=0.25, xi=0.0, eta=0.0)
    state = reference.ExtractionState(
        lam=lam, a=a, w=w, s=w.conj() @ x.data, stats=stats, model=model, sigma2_solve=0.5
    )
    c1, _, _ = reference.c_constants(stats)
    expected = 2.0 * c1 * 0.5 * 0.25
    got = reference.second_derivative_approx(x, state)
    assert abs(got - expected) < 1e-8


def test_second_derivative_negative_near_truth():
    x, _, _, model = random_mixture(RNG(51), 5, 50_000, -0.6)
    state = reference.extraction_state(x, model, -0.6, PHI)
    assert reference.second_derivative_approx(x, state) < 0.0


def test_steered_power_derivatives_match_finite_differences():
    rng = RNG(52)
    z = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    m = z + np.conj(np.swapaxes(z, -1, -2))                     # Hermitian, indefinite
    omegas = rng.uniform(0.5, 3.0, 3)
    v = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, 3)])      # non-integer
    phases = omegas[:, None] * v
    param, h = 0.37, 1e-4

    def power(p):
        a = np.exp(1j * phases * p)
        return float(np.real(np.einsum("kd,kde,ke->", a.conj(), m, a)))

    p, d1, d2 = (float(term.sum()) for term in capon_ice._steered_powers(m, omegas, v)(param))
    assert p == pytest.approx(power(param), rel=1e-12)
    fd1 = (power(param + h) - power(param - h)) / (2 * h)
    fd2 = (power(param + h) - 2 * power(param) + power(param - h)) / h ** 2
    assert d1 == pytest.approx(fd1, rel=1e-6)
    assert d2 == pytest.approx(fd2, rel=1e-5)


@pytest.mark.parametrize(
    "v", [core.ula(5).v, np.array([0.0, 0.35, 0.7, 1.4, 2.45])], ids=["ula5", "non-integer"]
)
def test_steered_power_lag_sums_match_the_quadratic_form(v):
    # the non-integer weights repeat the differences 0.35 and 0.7 exactly;
    # their two 1.05s differ in the last bit and stay two lags
    rng = RNG(53)
    z = rng.standard_normal((6, 5, 5)) + 1j * rng.standard_normal((6, 5, 5))
    m = z @ np.conj(np.swapaxes(z, -1, -2))                     # Hermitian, definite
    omegas = np.linspace(0.3, 3.0, 6)
    powers = capon_ice._steered_powers(m, omegas, v)
    for param in (-2.1, 0.0, 0.37, 1.9):
        for got, want in zip(powers(param), reference.steered_powers(m, omegas, v, param)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "v", [core.ula(5).v, np.array([0.0, 0.35, 0.7, 1.4, 2.45])], ids=["ula5", "non-integer"]
)
def test_capon_powers_match_the_quadratic_form(v):
    # the narrowband climb's scalar sum over lags, the one-problem
    # evaluation of the steered powers, against the quadratic form
    # a^H C^-1 a of the covariance factor and its derivatives
    x, _, _, _ = random_mixture(RNG(54), 5, 500, 0.4)
    factor = core.covariance_factor(core.sample_covariance(x.data))
    inverse = np.conj(factor.T) @ factor
    powers = capon_ice._steered_powers(inverse[None], np.ones(1), v)
    for lam in (-2.1, 0.0, 0.37, 1.9):
        want = [float(w[0]) for w in reference.steered_powers(inverse[None], np.ones(1), v, lam)]
        got = powers(lam)
        assert all(isinstance(g, float) for g in got)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * max(abs(w) for w in want)


@pytest.mark.parametrize(
    "v", [core.ula(5).v, np.array([0.0, 0.35, 0.7, 1.4, 2.45])], ids=["ula5", "non-integer"]
)
def test_one_problem_and_stack_evaluations_of_steered_powers_agree(v):
    # a one-problem stack is evaluated by scalar complex arithmetic, a
    # larger stack by numpy: both sides of that choice give the same powers
    # for the same Hermitian matrix, at a frequency other than 1
    rng = RNG(55)
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m = z @ np.conj(z.T)
    omega = 1.7
    one = capon_ice._steered_powers(m[None], np.array([omega]), v)
    stack = capon_ice._steered_powers(np.stack([m, m]), np.array([omega, omega]), v)
    for param in (-2.1, 0.0, 0.37, 1.9):
        got = one(param)
        want = [w[0] for w in stack(param)]
        assert all(isinstance(g, float) for g in got)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-14 * max(abs(w) for w in want)


# ---------------------------------------------------------------------------
# the Newton search
# ---------------------------------------------------------------------------

def test_config_validation():
    x, _, _, model = random_mixture(RNG(59), 3, 100, 0.2)
    with pytest.raises(DomainError):
        capon_ice.run(x, model, 0.0, max_iters=0)
    with pytest.raises(DomainError):
        capon_ice.run(x, model, math.nan)


def rank1_plus_floor_instance(rng, model, lam_star, n, eps):
    """Single source with a white floor whose sample covariance is exactly
    ``p a a^H + eps^2 I``: floor rows orthonormalized against the source and
    its score so sample cross couplings vanish."""
    d = model.d
    s = core.complex_laplacean(rng, n)
    sig = np.sqrt(np.mean(np.abs(s) ** 2))
    g = np.vstack([core.complex_gaussian(rng, n) for _ in range(d)])
    stack = np.vstack([s, PHI.phi(s / sig), g])
    q, _ = np.linalg.qr(stack.conj().T)
    floor = q[:, 2:2 + d].conj().T * np.sqrt(n)
    x = np.outer(core.steering(model, lam_star), s) + eps * floor
    return core.SnapshotMatrix(x)


def test_run_single_source_fast_convergence():
    # lone non-Gaussian source over an exact rank-1 + eps^2 I covariance:
    # Newton walks in from +0.1 and settles in a handful of iterations.
    # (At this -6 dB floor the sample optimum itself lies ~1e-3 from
    # lambda*.  Under a quiet floor the start cancels the source instead,
    # and `run` first moves it to the Capon-spectrum peak; see
    # test_run_recovers_lone_source_over_quiet_floor.)
    lam_star = 0.8
    model = core.ula(5)
    x = rank1_plus_floor_instance(RNG(60), model, lam_star, 10_000, eps=0.5)
    res = capon_ice.run(x, model, lam_star + 0.1)
    assert res.converged
    assert res.iterations <= 10
    assert abs(res.lam - lam_star) < 5e-3
    # the returned iterate is a 1e-6-accurate fixed point of the update
    state = reference.extraction_state(x, model, res.lam, PHI)
    d1 = reference.first_derivative(x, state)
    d2 = reference.second_derivative_approx(x, state)
    assert d2 < 0.0
    assert abs(d1 / d2) < 1e-6


def lone_source_instance(rng, model, lam_star, n=10_000):
    """The criterion-6 construction: a Laplacean source over a -100 dB
    white floor."""
    s = core.complex_laplacean(rng, n)
    floor = 1e-5 * np.vstack([core.complex_gaussian(rng, n) for _ in range(model.d)])
    return core.SnapshotMatrix(np.outer(core.steering(model, lam_star), s) + floor)


@pytest.mark.parametrize("seed", [601, 602])
@pytest.mark.parametrize(
    "v,lam_star,offset",
    [
        (None, 0.8, 0.1),
        (None, 0.8, -0.1),
        (None, 3.0, 0.1),
        (None, -3.05, -0.1),
        ([0.0, 0.7, 1.9, 2.6, 3.4], 0.8, 0.1),
    ],
)
def test_run_recovers_lone_source_over_quiet_floor(seed, v, lam_star, offset):
    # criterion 6 on other seeds, both sides of the source, across the wrap
    # and with non-integer weights: a start 0.1 away cancels the source, and
    # only the move to the Capon-spectrum peak brings Newton within 1e-6.
    # There |w| ~ 7e2 and dw/dlam ~ 1e10, so the stop must be on lam itself.
    model = core.ula(5) if v is None else core.SteeringModel(np.array(v))
    x = lone_source_instance(RNG(seed), model, lam_star)
    res = capon_ice.run(x, model, lam_star + offset, max_iters=300)
    assert abs(capon_ice.wrap_angle(res.lam - lam_star)) <= 1e-6
    assert res.converged
    assert res.iterations <= 10


def capon_power_db(factor, model, lam):
    """The Capon power ``1 / (a^H C^-1 a)`` at ``lam``, in dB."""
    g_a = factor @ core.steering(model, lam)
    return -10.0 * math.log10(np.real(np.vdot(g_a, g_a)))


def one_problem(x, model):
    """The narrowband problem of ``x`` as the one-problem kernel of `run`."""
    c_x = core.sample_covariance(x.data)
    return capon_ice._MpdrStack(
        x.data[None], c_x[None], core.covariance_factor(c_x)[None], model, np.ones(1)
    )


def start_decisions(caplog):
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith("start ")]


def test_capon_start_moves_to_a_stronger_peak_in_its_window(caplog):
    caplog.set_level(logging.DEBUG, logger="blindcapon.capon_ice")
    model = core.ula(5)
    half = np.pi / (4 * model.d)
    # a source 20 dB above the rest, and the criterion-6 lone source: a
    # start 0.1 away, inside the window, moves to the Capon peak nearby
    dominant, _, _, _ = random_mixture(RNG(63), 5, 500, 0.7, isir_db=20.0, competitor=0.25)
    lone = lone_source_instance(RNG(606), model, 0.8)
    for x, start in ((dominant, 0.6), (lone, 0.9)):
        caplog.clear()
        kernel = one_problem(x, model)
        factor = kernel.factors[0]
        moved, iterations = capon_ice._capon_start(kernel, start, capon_ice.wrap_angle, 100)
        assert 0.0 < abs(moved - start) < half
        assert capon_power_db(factor, model, moved) >= capon_power_db(factor, model, start) + 1.0
        # a peak: the Capon power falls on both sides
        for side in (-1e-4, 1e-4):
            assert capon_power_db(factor, model, moved + side) < capon_power_db(factor, model, moved)
        messages = [r.getMessage() for r in caplog.records]
        # the climb is the scalar search, which logs its iterations and stop
        assert sum(m.startswith("param ") for m in messages) == iterations
        assert sum(m.startswith("stop: ") for m in messages) == 1
        assert len(start_decisions(caplog)) == 1 and " moved;" in start_decisions(caplog)[0]
    # the criterion-6 start lands on the source
    assert abs(moved - 0.8) <= 1e-6


def test_capon_start_on_a_capon_peak_is_kept_bit_for_bit(caplog):
    caplog.set_level(logging.DEBUG, logger="blindcapon.capon_ice")
    model = core.ula(5)
    x, _, _, _ = random_mixture(RNG(63), 5, 500, 0.7, isir_db=20.0, competitor=0.25)
    kernel = one_problem(x, model)
    peak, _ = capon_ice._capon_start(kernel, 0.6, capon_ice.wrap_angle, 100)
    caplog.clear()
    kept, iterations = capon_ice._capon_start(kernel, peak, capon_ice.wrap_angle, 100)
    assert kept == peak and iterations >= 1
    assert len(start_decisions(caplog)) == 1 and " kept;" in start_decisions(caplog)[0]


def test_capon_start_does_not_take_a_peak_outside_its_window(caplog):
    caplog.set_level(logging.DEBUG, logger="blindcapon.capon_ice")
    # the lone source is 0.3 from the start, beyond pi/(4d) = 0.157: the
    # climb ends on the edge of the window, many dB up, and is not taken
    model = core.ula(5)
    x = lone_source_instance(RNG(606), model, 0.8)
    kernel = one_problem(x, model)
    factor = kernel.factors[0]
    edge = 1.1 - np.pi / (4 * model.d)
    assert capon_power_db(factor, model, edge) >= capon_power_db(factor, model, 1.1) + 1.0
    kept, _ = capon_ice._capon_start(kernel, 1.1, capon_ice.wrap_angle, 100)
    assert kept == 1.1
    assert len(start_decisions(caplog)) == 1 and " kept;" in start_decisions(caplog)[0]


# ---------------------------------------------------------------------------
# the scalar search on synthetic problems
# ---------------------------------------------------------------------------

def bump_search(start, project=lambda p: p, scale=10.0, max_step=1.0):
    """`_safeguarded_newton` on a unit-width Gaussian bump at 0, whose
    curvature turns positive beyond |p| = 1.  d2 is -2.5 everywhere, 2.5
    times the curvature at the maximum as with the at-solution d2 of the
    broadband fixture, so far out the Newton steps are e^(-p^2/2) / 2.5 of
    the distance.  Returns the search's result, the differentiated points
    followed by the returned one, and the differentiated points with their
    d1."""
    seen = []

    def derivatives(p):
        d1 = -p * math.exp(-0.5 * p * p)
        seen.append((p, d1))
        return d1, -2.5

    out = capon_ice._safeguarded_newton(start, derivatives, max_step, scale, project, 100)
    return out, np.array([p for p, _ in seen] + [out[0]]), seen


# from 5.0 with steps of up to 3, one secant lands outside the bracket
@pytest.mark.parametrize("start,max_step", [(4.0, 1.0), (5.0, 3.0)])
def test_search_grows_steps_on_a_convex_approach_then_brackets(start, max_step):
    (param, iterations, converged, fallbacks), built, seen = bump_search(
        start, max_step=max_step
    )
    assert converged and fallbacks == 0
    # one evaluation per iteration, none at the returned parameter
    assert len(seen) == iterations
    assert param != seen[-1][0]
    assert abs(param) <= 1e-8
    # growth turns e^-8-short Newton steps into max_step strides
    assert iterations <= 30
    moves = np.diff(built)
    assert np.all(np.abs(moves) <= max_step)
    assert np.max(np.abs(moves)) == max_step
    # once d1 has taken both signs, every point lands inside the bracket,
    # and the final bracket holds the maximum: d1 > 0 at lo, d1 < 0 at hi
    lo = hi = None
    for (p, d1), following in zip(seen, built[1:]):
        lo, hi = (p, hi) if d1 > 0 else (lo, p)
        if lo is not None and hi is not None:
            assert lo < following < hi
    assert lo < param < hi
    # the search stops at the first step within 1e-9 * scale
    tol = 1e-9 * 10.0
    assert abs(moves[-1]) <= tol
    assert np.all(np.abs(moves[:-1]) > tol)


def skewed_bump(p):
    """``(d1, d2)`` of a bump at 0 twice as wide on its left as on its
    right: from the left its curvature is -1/4, ten times below d2 = -2.5,
    so Newton steps cover a tenth of the way and |d1| falls slowly."""
    d1 = -(p / 4.0) * math.exp(-p * p / 8.0) if p < 0.0 else -p * math.exp(-0.5 * p * p)
    return d1, -2.5


@pytest.mark.parametrize("start", [-4.0, -6.0, -8.0])
def test_search_takes_secant_steps_where_newton_steps_fall_short(start):
    # Newton steps alone stop at max_iters, 1e-4 short of the peak
    param, iterations, converged, fallbacks = capon_ice._safeguarded_newton(
        start, skewed_bump, 1.0, 10.0, lambda p: p, 100
    )
    assert converged and fallbacks == 0
    assert abs(param) <= 1e-8
    assert iterations <= 40


def sharper_on_the_right(factor):
    """``derivatives`` of a concave peak at 0 that is twice as sharp on its
    right as on its left, ``d1 = -sinh(p)`` for ``p <= 0`` and
    ``-sinh(2p)/2`` beyond, with ``d2`` ``factor`` times the true curvature
    ``-cosh(p)`` or ``-cosh(2p)``."""

    def derivatives(p):
        c = 2.0 if p > 0.0 else 1.0
        return -math.sinh(c * p) / c, -factor * math.cosh(c * p)

    return derivatives


# the iterations before the secant correction, for the same cases:
# (1.03, -1) 7, (1.03, 1) 8, (3.5, -1) 29, (3.5, 1) 33
@pytest.mark.parametrize(
    "factor, start, most",
    [(1.03, -1.0, 6), (1.03, 1.0, 7), (3.5, -1.0, 10), (3.5, 1.0, 10)],
)
def test_search_corrects_a_constant_curvature_error_with_secant_steps(factor, start, most):
    # d2 is `factor` times the true curvature: a few per cent off, as near
    # the answers of the narrowband sweeps, or several times, as on a weak
    # broadband target.  Newton steps alone shrink |d1| by 1 - 1/factor per
    # step, secant steps superlinearly
    param, iterations, converged, fallbacks = capon_ice._safeguarded_newton(
        start, sharper_on_the_right(factor), 1.0, 10.0, lambda p: p, 100
    )
    assert converged and fallbacks == 0
    assert abs(param) <= 1e-12
    assert iterations <= most


def steepened_line(factor, drift=0.0):
    """``derivatives`` of a peak at 0 with the linear ``d1 = -p``, so the
    secant slope is the true curvature -1, and ``d2 = -factor (1 + drift
    p)``: a constant ``factor`` times too steep when ``drift`` is 0."""
    return lambda p: (-p, -factor * (1.0 + drift * p))


# at 3.75 the first secant step is capped at twice the Newton step before it
@pytest.mark.parametrize("factor, most", [(2.4, 3), (3.75, 4)])
def test_search_takes_the_secant_step_once_d2_is_steady(factor, most):
    # the at-solution d2 of the broadband fixture is 2.4 times too steep
    # and steady: |d1| falls by 1 - 1/factor per Newton step, and the
    # second step is the secant step to the answer
    param, iterations, converged, fallbacks = capon_ice._safeguarded_newton(
        1.0, steepened_line(factor), 1.0, 10.0, lambda p: p, 100
    )
    assert converged and fallbacks == 0
    assert abs(param) <= 1e-12
    assert iterations <= most


@pytest.mark.parametrize("drift, rules", [
    (-0.5, ["newton"] * 2 + ["secant"]),    # d2 moves by 83 %, then 4 %
    (0.0, ["newton", "secant"]),
])
def test_search_keeps_newton_steps_while_d2_moves(caplog, drift, rules):
    # the secant slope is the true curvature here, but a d2 that moves by
    # more than a quarter on a step does not show a settled bias: Newton
    # steps until it settles
    caplog.set_level(logging.DEBUG, logger="blindcapon.capon_ice")
    capon_ice._safeguarded_newton(1.0, steepened_line(2.4, drift), 1.0, 10.0, lambda p: p, 100)
    steps = [r.getMessage() for r in caplog.records if r.getMessage().startswith("param ")]
    assert [m.rsplit(" rule ", 1)[1] for m in steps[: len(rules)]] == rules


def test_search_logs_the_rule_of_each_step(caplog):
    caplog.set_level(logging.DEBUG, logger="blindcapon.capon_ice")
    rules = set()

    def search(start, derivatives, max_step):
        caplog.clear()
        out = capon_ice._safeguarded_newton(start, derivatives, max_step, 10.0, lambda p: p, 100)
        steps = [r.getMessage() for r in caplog.records if r.getMessage().startswith("param ")]
        assert len(steps) == out[1]
        found = [m.rsplit(" rule ", 1)[1] for m in steps]
        rules.update(found)
        return found

    # too-short Newton steps on a convex approach grow, then the bracket
    # closes by secant and, from 5 with steps of 3, by bisection
    assert search(4.0, lambda p: (-p * math.exp(-0.5 * p * p), -2.5), 1.0)[:4] == [
        "newton", "newton", "newton", "growth"]
    assert "bisection" in search(5.0, lambda p: (-p * math.exp(-0.5 * p * p), -2.5), 3.0)
    # a curvature 3.5 times too strong: secant steps where d2 moved by at
    # most a quarter on the last step, a Newton step where it moved by 39 %
    assert search(1.0, sharper_on_the_right(3.5), 1.0) == (
        ["newton", "secant", "newton"] + ["secant"] * 6)
    # a curvature 3 % too strong: d2 moves by 57 % and 36 %, then settles,
    # and secant steps follow
    assert search(1.0, sharper_on_the_right(1.03), 1.0) == ["newton"] * 3 + ["secant"] * 3
    # the wrong sign of curvature: ascent steps
    assert search(-1.0, lambda p: (-p, 1.0), 1.0)[0] == "ascent"
    assert rules == {"newton", "secant", "growth", "ascent", "bracket-secant", "bisection"}


def test_search_stop_scales_with_the_range():
    # over a 1e6 times wider range the search stops at a 1e6 times longer step
    (fine, fine_iters, _, _), _, _ = bump_search(0.3)
    (coarse, coarse_iters, converged, _), built, _ = bump_search(0.3, scale=1e7)
    assert converged
    assert coarse_iters < fine_iters
    assert abs(np.diff(built)[-1]) <= 1e-2
    assert abs(fine) <= 1e-8


@pytest.mark.parametrize("d1, d2", [(math.nan, -1.0), (1.0, -math.inf)])
def test_search_raises_on_non_finite_derivatives(d1, d2):
    with pytest.raises(Diverged, match="non-finite derivatives"):
        capon_ice._safeguarded_newton(0.3, lambda p: (d1, d2), 1.0, 10.0, lambda p: p, 100)


def test_search_stops_on_the_boundary_of_a_clipped_range(caplog):
    # the maximum at 0 lies outside [-3, -1]: d1 > 0 throughout, and the
    # search ends on the edge, where the projected step does not move
    caplog.set_level(logging.DEBUG, logger="blindcapon.capon_ice")
    (param, iterations, converged, _), _, seen = bump_search(
        -2.5, project=lambda p: min(max(p, -3.0), -1.0), scale=2.0
    )
    evaluated = np.array([p for p, _ in seen])
    assert converged
    # the last iteration is evaluated on the edge, and its step does not move
    assert param == evaluated[-1] == -1.0
    assert len(evaluated) == iterations
    assert np.all(np.diff(evaluated) > 0.0)
    assert "stop: boundary" in caplog.records[-1].getMessage()


def test_search_logs_each_iteration_and_the_stop(caplog):
    caplog.set_level(logging.DEBUG, logger="blindcapon.capon_ice")
    x, _, _, model = random_mixture(RNG(61), 5, 500, 0.5)
    res = capon_ice.run(x, model, 0.55)
    messages = [r.getMessage() for r in caplog.records if r.name == "blindcapon.capon_ice"]
    # the Capon-peak climb logs its iterations, its stop and the decision
    # on the start; the contrast search follows
    decision = [i for i, m in enumerate(messages) if m.startswith("start ")]
    assert len(decision) == 1
    climb, search = messages[: decision[0]], messages[decision[0] + 1:]
    assert sum(m.startswith("param ") for m in climb) == res.start_iterations
    assert climb[-1].startswith("stop: ")
    steps = [m for m in search if m.startswith("param ")]
    assert len(steps) == res.iterations
    assert all(" d1 " in m and " d2 " in m and " step " in m for m in steps)
    stop = search[-1]
    assert stop.startswith("stop: step")
    assert f"after {res.iterations} iterations" in stop
    assert f"{res.gradient_fallbacks} fallbacks" in stop
    # the library adds no handler of its own
    assert not logging.getLogger("blindcapon").handlers
    assert not logging.getLogger("blindcapon.capon_ice").handlers


def test_run_distortionless_after_iterations():
    x, _, _, model = random_mixture(RNG(61), 5, 500, 0.5)
    res = capon_ice.run(x, model, 0.55)
    assert abs(np.vdot(res.w, res.a) - 1.0) < 1e-10


def test_run_solves_once_per_iteration_and_once_at_the_answer(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return core.mpdr_weights(*args, **kwargs)

    monkeypatch.setattr(capon_ice, "mpdr_weights", counted)
    x, _, _, model = random_mixture(RNG(61), 5, 500, 0.5)
    res = capon_ice.run(x, model, 0.55)
    assert res.converged and res.iterations > 3
    assert len(calls) == res.iterations + 1


@pytest.mark.parametrize("case", ["secant", "moved start"])
def test_run_counts_every_kernel_evaluation(case, monkeypatch, caplog):
    # test_run_solves_once_per_iteration_and_once_at_the_answer on a search
    # from a kept start that takes secant steps, and on one whose start is
    # moved to the Capon peak first: one kernel evaluation and one MPDR solve
    # per counted iteration plus the solve of the final weights, and the climb
    # evaluates no kernel (as the broadband
    # test_run_ive_forms_one_covariance_stack_and_one_solve_per_iteration)
    calls = {"derivatives": 0, "mpdr_weights": 0}
    derivatives, solve = capon_ice._MpdrStack.derivatives, capon_ice.mpdr_weights

    def counted_derivatives(self, param):
        calls["derivatives"] += 1
        return derivatives(self, param)

    def counted_solve(*args, **kwargs):
        calls["mpdr_weights"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(capon_ice._MpdrStack, "derivatives", counted_derivatives)
    monkeypatch.setattr(capon_ice, "mpdr_weights", counted_solve)
    caplog.set_level(logging.DEBUG, logger="blindcapon.capon_ice")
    if case == "secant":
        x, _, _, model = random_mixture(RNG(62), 5, 500, 0.7, isir_db=10.0)
        start = 0.75
    else:
        model = core.ula(5)
        x, start = lone_source_instance(RNG(606), model, 0.8), 0.9
    res = capon_ice.run(x, model, start)
    assert res.converged and res.iterations > 2
    assert calls == {"derivatives": res.iterations, "mpdr_weights": res.iterations + 1}
    messages = [r.getMessage() for r in caplog.records]
    decision = [i for i, m in enumerate(messages) if m.startswith("start ")]
    assert len(decision) == 1
    assert any(m.endswith(" rule secant") for m in messages[decision[0] + 1:])
    assert (" moved;" in messages[decision[0]]) == (case == "moved start")


def test_run_restart_at_fixed_point_stays_put():
    # restarting at a converged iterate must take a (numerically) zero step
    x, _, _, model = random_mixture(RNG(62), 4, 800, 0.3)
    first = capon_ice.run(x, model, 0.35)
    assert first.converged
    again = capon_ice.run(x, model, first.lam)
    assert again.converged
    assert again.iterations <= 2
    assert abs(again.lam - first.lam) < 1e-6


def test_run_trace_monotone_tail():
    x, _, _, model = random_mixture(RNG(63), 5, 2000, -0.3)
    res = capon_ice.run(x, model, -0.25)
    # converged run ends at a (local) maximum: final value >= start value
    start = reference.contrast(x, -0.25, PHI, model)
    assert reference.contrast(x, res.lam, PHI, model) >= start - 1e-12


def test_run_never_evaluates_contrast(monkeypatch):
    # the search needs only the derivatives; the contrast is a test oracle,
    # with no copy in the package
    def forbidden(*args, **kwargs):
        raise AssertionError("run evaluated the contrast")

    monkeypatch.setattr(reference, "contrast", forbidden)
    assert not any(hasattr(m, "contrast") for m in (capon_ice, core))
    x, _, _, model = random_mixture(RNG(64), 5, 500, 0.5)
    res = capon_ice.run(x, model, 0.55)
    assert res.converged


def test_solvers_compute_no_statistics_or_eigendecomposition(monkeypatch):
    # CaponICE reads the kernel's arrays and FastICA whitens with the
    # Cholesky factor: neither computes output statistics, Hessian
    # constants or an eigendecomposition.  The nonlinearities, statistics
    # and state types are test oracles, with no copy in the package
    oracle = ("Nonlinearity", "rational_nonlinearity", "gaussian_score", "SoiStatistics",
              "ExtractionState", "soi_statistics", "c_constants")
    assert not any(hasattr(m, name) for m in (core, capon_ice, baselines) for name in oracle)

    def forbidden(*args, **kwargs):
        raise AssertionError("a solver called np.linalg.eigh")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    x, _, _, model = random_mixture(RNG(64), 5, 500, 0.5)
    res = capon_ice.run(x, model, 0.55)
    assert res.converged and res.iterations > 1
    w_ini, _ = core.mpdr_weights(core.covariance_factor(core.sample_covariance(x.data)),
                                 core.steering(model, 0.55))
    ica = baselines.fastica_one_unit(x, w_ini)
    assert ica.converged and ica.iterations > 1


@pytest.mark.parametrize("scale", [1e-15, 1e-20])
def test_run_is_scale_invariant(scale):
    # the zero-power check is relative to the solve's own power, so a quiet
    # recording is not mistaken for a silent one
    x, _, _, model = random_mixture(RNG(64), 5, 500, 0.5)
    ref = capon_ice.run(x, model, 0.55)
    res = capon_ice.run(core.SnapshotMatrix(scale * x.data), model, 0.55)
    assert res.iterations == ref.iterations
    assert res.lam == pytest.approx(ref.lam, abs=1e-12)


def test_run_on_non_integer_weights_diverges_beyond_the_runaway_span(monkeypatch):
    # a contrast that climbs forever: steps of 0.5 pass 2 pi^2 from the
    # start after 40 iterations on non-periodic weights, and wrap on a ULA
    monkeypatch.setattr(capon_ice._MpdrStack, "joint_derivatives", lambda self, p: (1.0, -1.0))
    x, _, _, _ = random_mixture(RNG(61), 5, 500, 0.5)
    with pytest.raises(Diverged, match="left the admissible region"):
        capon_ice.run(x, core.SteeringModel(np.array([0.0, 0.7, 1.9, 2.6, 3.4])), 0.5)
    res = capon_ice.run(x, core.ula(5), 0.5)
    assert (res.iterations, res.converged) == (100, False)


def test_zero_power_output_raises():
    d = 3
    kernel = capon_ice._MpdrStack(np.zeros((1, d, 10), dtype=complex), np.zeros((1, d, d)),
                                  np.eye(d)[None], core.ula(d), np.ones(1))
    with pytest.raises(DegenerateSignal):
        kernel.derivatives(0.3)


def test_run_success_rate_near_truth():
    # d=5, N=500, iSIR=0 dB, lambda_ini = lambda* + 0.05: >= 95% of 200 trials
    d, n, lam_star = 5, 500, 0.7
    successes = 0
    trials = 200
    for t in range(trials):
        rng = RNG(1000 + t)
        x, a, powers, model = random_mixture(rng, d, n, lam_star, competitor=0.25)
        res = capon_ice.run(x, model, lam_star + 0.05)
        gains = np.abs(res.w.conj() @ a) ** 2 * powers
        sir = 10 * np.log10(gains[0] / (np.sum(gains) - gains[0]))
        successes += sir > 3.0
    assert successes / trials >= 0.95


@pytest.mark.parametrize("isir_db", [10.0, 20.0])
def test_run_keeps_a_dominant_source(isir_db):
    # the Monte Carlo protocol (d=5, N=500, competitor at 0.25, start
    # lambda* + U(-0.1, 0.1)) with the source of interest 10 or 20 dB above
    # the rest: the MPDR weights at the start partly cancel it, and without
    # the move to the Capon peak 6 to 15 of 50 trials succeed at +20 dB
    base = monte_carlo.MixtureSpec(d=5, N=500, lambda_star=0.7, isir_db=0.0)
    records = monte_carlo.run_sweep(base, "isir_db", [isir_db], ["caponice"], trials=50,
                                    master_seed=7)
    assert sum(r.success for r in records) / len(records) >= 0.9


def test_wrap_angle():
    assert capon_ice.wrap_angle(np.pi) == pytest.approx(np.pi)
    assert capon_ice.wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert capon_ice.wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert capon_ice.wrap_angle(0.3) == pytest.approx(0.3)
