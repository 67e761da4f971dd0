"""Core types, steering, covariance, MPDR weights and sample statistics."""

import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from blindcapon import core
from blindcapon.errors import DegenerateSignal, ScoreDegenerate, SingularCovariance

import reference
from conftest import wirtinger_fd

RNG = np.random.default_rng


# ---------------------------------------------------------------------------
# steering
# ---------------------------------------------------------------------------

def test_steering_zero_phase():
    model = core.SteeringModel(np.array([0.0, 1, 2, 3, 4]))
    assert np.array_equal(core.steering(model, 0.0), np.ones(5))


def test_steering_pi_flips_second_sensor():
    model = core.SteeringModel(np.array([0.0, 1.0]))
    a = core.steering(model, np.pi)
    assert a[0] == 1.0
    assert abs(a[1] + 1.0) < 1e-15


def test_steering_quarter_ula5():
    # second mixing column of the simulation protocol: a(1/4) on a 5-ULA
    model = core.ula(5)
    a = core.steering(model, 0.25)
    expected = np.exp(1j * 0.25 * np.arange(5))
    np.testing.assert_allclose(a, expected, rtol=0, atol=1e-15)
    assert a[0] == 1.0
    np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-15)


def test_steering_periodicity_integer_weights():
    model = core.ula(6)
    lam = 0.813
    np.testing.assert_allclose(
        core.steering(model, lam), core.steering(model, lam + 2 * np.pi), atol=1e-12
    )


@pytest.mark.parametrize(
    "v", [np.arange(5.0), np.array([0.0, 0.35, 0.7, 1.4, 2.45])], ids=["ula5", "non-integer"]
)
def test_steering_of_a_stack_is_the_stacked_scalar_calls(v):
    # the kernels steer every problem by one call on an array of parameters
    model = core.SteeringModel(v)
    lams = RNG(11).uniform(-8.0, 8.0, (4, 3))
    stacked = core.steering(model, lams)
    assert stacked.shape == (4, 3, 5)
    scalar = np.array([[core.steering(model, float(lam)) for lam in row] for row in lams])
    assert stacked.tobytes() == scalar.tobytes()


def test_steering_model_validation():
    with pytest.raises(ValueError):
        core.SteeringModel(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        core.SteeringModel(np.array([0.0]))


# ---------------------------------------------------------------------------
# sample covariance
# ---------------------------------------------------------------------------

def test_covariance_rank_one():
    x = core.SnapshotMatrix(np.array([[1.0], [1.0j]])[:, [0, 0]][:, :1].repeat(2, axis=1))
    # two identical snapshots [1, i]; covariance equals the outer product
    c = core.sample_covariance(x.data)
    np.testing.assert_allclose(c, np.array([[1.0, -1.0j], [1.0j, 1.0]]), atol=1e-15)


def test_covariance_identity_columns():
    x = core.SnapshotMatrix(np.eye(2, dtype=complex))
    np.testing.assert_allclose(core.sample_covariance(x.data), 0.5 * np.eye(2), atol=1e-15)


def test_covariance_matches_bruteforce():
    rng = RNG(3)
    d, n = 4, 1000
    data = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    c = core.sample_covariance(core.SnapshotMatrix(data).data)
    brute = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            brute[i, j] = np.mean(data[i] * np.conj(data[j]))
    np.testing.assert_allclose(c, brute, atol=1e-12)
    np.testing.assert_allclose(c, c.conj().T, atol=1e-14)
    assert np.min(np.linalg.eigvalsh(c)) > -1e-12


def test_covariance_stack_matches_per_matrix_calls():
    # one call on a (B, d, N) stack is B calls, bit for bit; each matrix is
    # exactly Hermitian, and single-precision snapshots give complex128
    rng = RNG(4)
    x = rng.standard_normal((6, 4, 300)) + 1j * rng.standard_normal((6, 4, 300))
    for data in (x, x.astype(np.complex64)):
        c = core.sample_covariance(data)
        assert c.dtype == np.complex128 and c.shape == (6, 4, 4)
        for k in range(len(data)):
            assert np.array_equal(c[k], core.sample_covariance(data[k]))
        assert np.array_equal(c, np.conj(np.swapaxes(c, -1, -2)))


def test_snapshot_matrix_needs_enough_samples():
    with pytest.raises(ValueError):
        core.SnapshotMatrix(np.zeros((4, 3), dtype=complex))


# ---------------------------------------------------------------------------
# MPDR weights
# ---------------------------------------------------------------------------

def test_mpdr_identity_covariance():
    d = 6
    w, sigma2 = core.mpdr_weights(core.covariance_factor(np.eye(d, dtype=complex)), np.ones(d))
    np.testing.assert_allclose(w, np.ones(d) / d, rtol=1e-9)
    assert abs(sigma2 - 1.0 / d) < 1e-9


def test_mpdr_scalar_covariance():
    w, sigma2 = core.mpdr_weights(
        core.covariance_factor(4.0 * np.eye(2, dtype=complex)), np.array([1.0, 1.0])
    )
    np.testing.assert_allclose(w, [0.5, 0.5], rtol=1e-9)
    assert abs(sigma2 - 2.0) < 1e-8


def test_mpdr_distortionless_and_power_identity():
    rng = RNG(11)
    d = 5
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    c = m @ m.conj().T + d * np.eye(d)
    a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    w, sigma2 = core.mpdr_weights(core.covariance_factor(c), a)
    assert abs(np.vdot(w, a) - 1.0) < 1e-10
    # exact identity holds on the (diagonally loaded) matrix the solve uses;
    # the raw matrix agrees up to the loading epsilon
    loaded = core.regularized(c)
    assert abs(np.real(np.vdot(w, loaded @ w)) - sigma2) < 1e-12 * sigma2
    assert abs(np.real(np.vdot(w, c @ w)) - sigma2) < 1e-9 * sigma2


def test_mpdr_scaling_invariance():
    rng = RNG(12)
    d = 4
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    c = m @ m.conj().T + d * np.eye(d)
    a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    alpha = 0.3 - 1.7j
    factor = core.covariance_factor(c)
    w_a, _ = core.mpdr_weights(factor, a)
    w_scaled, _ = core.mpdr_weights(factor, alpha * a)
    np.testing.assert_allclose(w_scaled * np.conj(alpha), w_a, rtol=1e-10)


def test_mpdr_singular_covariance_raises():
    with pytest.raises(SingularCovariance):
        core.mpdr_weights(core.covariance_factor(np.zeros((3, 3), dtype=complex)), np.ones(3))


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def test_rational_bounded_and_zero_at_zero():
    phi = reference.rational_nonlinearity()
    assert phi.phi(np.array([0.0 + 0.0j]))[0] == 0.0
    rng = RNG(5)
    s = 3.0 * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
    assert np.max(np.abs(phi.phi(s))) <= 0.5 + 1e-15


@pytest.mark.parametrize("maker", [reference.rational_nonlinearity, reference.gaussian_score])
def test_wirtinger_derivatives_match_finite_differences(maker):
    nl = maker()
    rng = RNG(7)
    for s in rng.standard_normal(20) + 1j * rng.standard_normal(20):
        fd_ds, fd_dsc = wirtinger_fd(nl.phi, s)
        an_ds = nl.dphi_ds(np.array([s]))[0]
        an_dsc = nl.dphi_dsconj(np.array([s]))[0]
        scale = max(abs(fd_ds), abs(fd_dsc), 1e-3)
        assert abs(an_ds - fd_ds) / scale < 1e-6
        assert abs(an_dsc - fd_dsc) / scale < 1e-6


# ---------------------------------------------------------------------------
# SOI statistics
# ---------------------------------------------------------------------------

def test_nu_gaussian_matches_quadrature():
    # For circular Gaussian u, |u|^2 ~ Exp(1) and
    # nu = E[|u|^2/(1+|u|^2)] = 1 - e*E1(1) (independent quadrature identity).
    expected = 1.0 - np.e * scipy.special.exp1(1.0)
    s = core.complex_gaussian(RNG(42), 1_000_000)
    stats = reference.soi_statistics(s, reference.rational_nonlinearity())
    assert abs(stats.nu - expected) < 0.002
    assert abs(stats.nu_imag) < 0.002


def test_nu_exactly_one_for_exact_score():
    s = core.complex_laplacean(RNG(1), 5000) * 3.7
    stats = reference.soi_statistics(s, reference.gaussian_score())
    assert abs(stats.nu - 1.0) < 1e-12


def test_rho_matches_exp_quadrature():
    # rho = E[1/(1+|u|^2)^2] over |u|^2 ~ Exp(1), by direct quadrature
    expected, _ = scipy.integrate.quad(lambda t: np.exp(-t) / (1 + t) ** 2, 0, np.inf)
    n = 1_000_000
    s = core.complex_gaussian(RNG(43), n)
    stats = reference.soi_statistics(s, reference.rational_nonlinearity())
    u = s / np.sqrt(stats.sigma2)
    sample = 1.0 / (1.0 + np.abs(u) ** 2) ** 2
    se = np.std(sample) / np.sqrt(n)
    assert abs(np.real(stats.rho) - expected) < 3 * se + 1e-4
    np.testing.assert_allclose(np.real(stats.rho), np.mean(sample), rtol=1e-12)


def test_statistics_scale_consistency():
    s = core.complex_laplacean(RNG(9), 4096)
    phi = reference.rational_nonlinearity()
    st1 = reference.soi_statistics(s, phi)
    st2 = reference.soi_statistics(2.0 * s, phi)
    assert st2.sigma2 == 4.0 * st1.sigma2
    assert st2.nu == st1.nu
    assert st2.rho == st1.rho
    assert st2.xi == st1.xi
    assert st2.eta == st1.eta


def test_statistics_bit_reproducible():
    s = core.complex_laplacean(RNG(10), 1000)
    phi = reference.rational_nonlinearity()
    assert reference.soi_statistics(s, phi) == reference.soi_statistics(s, phi)


def test_degenerate_signal_raises():
    with pytest.raises(DegenerateSignal):
        reference.soi_statistics(np.zeros(10, dtype=complex), reference.rational_nonlinearity())


# ---------------------------------------------------------------------------
# Hessian constants
# ---------------------------------------------------------------------------

def test_c1_zero_when_nu_equals_rho():
    stats = reference.SoiStatistics(sigma2=1.0, nu=0.4, rho=0.4, xi=0.1, eta=0.05)
    c1, _, _ = reference.c_constants(stats)
    assert c1 == 0.0


def test_c_constants_arithmetic():
    # xi - eta - nu = 0  ->  c3 = 0 and c2 = -sigma2*c1 = -2*c1 at sigma2 = 2
    stats = reference.SoiStatistics(sigma2=2.0, nu=0.5, rho=0.25, xi=0.7, eta=0.2)
    c1, c2, c3 = reference.c_constants(stats)
    assert abs(c1 - 0.25) < 1e-15
    assert abs(c3) < 1e-15
    assert abs(c2 + 2.0 * c1) < 1e-15


def test_c3_vanishes_for_rational_on_laplacean():
    s = core.complex_laplacean(RNG(77), 1_000_000)
    stats = reference.soi_statistics(s, reference.rational_nonlinearity())
    _, _, c3 = reference.c_constants(stats)
    assert abs(c3) < 0.02


def test_score_degenerate_raises():
    stats = reference.SoiStatistics(sigma2=1.0, nu=1e-15, rho=0.0, xi=0.0, eta=0.0)
    with pytest.raises(ScoreDegenerate):
        reference.c_constants(stats)


# ---------------------------------------------------------------------------
# source laws
# ---------------------------------------------------------------------------

def test_laplacean_unit_variance_and_score():
    s = core.complex_laplacean(RNG(100), 200_000)
    assert abs(np.mean(np.abs(s) ** 2) - 1.0) < 0.02
    psi = core.laplacean_score(s)
    np.testing.assert_allclose(np.abs(psi) ** 2, 2.0, atol=1e-12)
    # score property E[s psi(s)] = 1
    assert abs(np.mean(s * psi) - 1.0) < 0.01


def test_laplacean_score_is_the_sign_formula_in_one_array():
    # the signs, zeros and non-finite parts included, element for element
    s = core.complex_laplacean(RNG(101), (3, 1000))
    s[0, :4] = [0.0, 1j, -2.0, complex(np.nan, -1.0)]
    want = np.sign(np.real(s)) - 1j * np.sign(np.imag(s))
    got = core.laplacean_score(s)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    # the output is the only full-size array: no temporaries of its size
    s = core.complex_laplacean(RNG(102), 1_000_000)
    tracemalloc.start()
    try:
        out = core.laplacean_score(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * out.nbytes


@pytest.mark.parametrize("shape", [(8, 5000), (3, 7), (64,)])
@pytest.mark.parametrize("law", ["laplacean", "gaussian"])
def test_complex_samples_are_the_pair_formula_bit_for_bit(law, shape):
    # the samplers write the scaled pairs straight into one complex array
    *rows, n = shape
    if law == "laplacean":
        # the parts are numpy's Laplace branches on whole arrays of uniforms
        got = core.complex_laplacean(RNG(21), shape)
        pairs = reference.laplace_parts(RNG(21), (*rows, 2, n), 1.0 / np.sqrt(2.0))
    else:
        got = core.complex_gaussian(RNG(21), shape)
        pairs = RNG(21).standard_normal((*rows, 2, n))
    want = (pairs[..., 0, :] + 1j * pairs[..., 1, :]) / np.sqrt(2.0)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(8, 5000), (3, 7), (64,), (1,), (4095,), (4096,), (4097,)])
def test_complex_laplacean_is_generator_laplace_to_the_last_bits(shape):
    # 2n uniforms of 4095, 4096 and 4097 samples end just under, on and just
    # past one draw block
    *rows, n = shape
    rng, laplace_rng = RNG(21), RNG(21)
    got = core.complex_laplacean(rng, shape)
    parts = reference.laplace_parts(RNG(21), (*rows, 2, n), 1.0 / np.sqrt(2.0))
    want = (parts[..., 0, :] + 1j * parts[..., 1, :]) / np.sqrt(2.0)
    assert got.tobytes() == want.tobytes()
    # numpy's draw with the C library's scalar log: the same uniforms, so the
    # same generator state after, and the parts within the array log's 2 ULP
    parts = laplace_rng.laplace(0.0, 1.0 / np.sqrt(2.0), (*rows, 2, n))
    want = (parts[..., 0, :] + 1j * parts[..., 1, :]) / np.sqrt(2.0)
    assert rng.bit_generator.state == laplace_rng.bit_generator.state
    np.testing.assert_array_max_ulp(got.view(float), want.view(float), maxulp=2)
    assert np.count_nonzero(got.view(float) != want.view(float)) < 0.01 * got.view(float).size


def test_complex_laplacean_redraws_a_zero_uniform():
    # as Generator.laplace does: the zero's sample takes the next uniform
    class ZeroFirst:
        def __init__(self):
            self.rng, self.drawn = RNG(5), 0

        def random(self, out):
            self.rng.random(out=out)
            if self.drawn == 0:
                out[3] = 0.0
            self.drawn += out.size

    stub = ZeroFirst()
    got = core.complex_laplacean(stub, (2, 50))
    assert np.isfinite(got).all()
    assert stub.drawn == 2 * got.size + 1
    parts = RNG(5).laplace(0.0, 1.0 / np.sqrt(2.0), 2 * got.size + 1)
    parts = np.delete(parts, 3).reshape(2, 2, 50)
    want = (parts[..., 0, :] + 1j * parts[..., 1, :]) / np.sqrt(2.0)
    np.testing.assert_array_max_ulp(got.view(float), want.view(float), maxulp=2)


def test_blocking_matrix_annihilates_steering():
    model = core.ula(5)
    a = core.steering(model, 0.37)
    b = reference.blocking_matrix(a)
    np.testing.assert_allclose(b @ a, 0.0, atol=1e-14)
