"""CRLB-induced ISR bounds and the Fisher-matrix derivation route."""

import math

import numpy as np
import pytest

from blindcapon import baselines, bounds, core
from blindcapon.errors import DomainError

import reference
from conftest import random_mixture

RNG = np.random.default_rng


def random_spd(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m @ m.conj().T + n * np.eye(n)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_crib_ice_reference_values():
    assert bounds.crib_ice(2.0, 5, 500) == pytest.approx(0.008)
    assert 10 * math.log10(bounds.crib_ice(2.0, 5, 500)) == pytest.approx(-20.97, abs=0.01)
    assert math.isinf(bounds.crib_ice(1.0, 5, 500))


def test_crib_capon_reference_values():
    assert bounds.crib_capon(2.0, 5, 500) == pytest.approx(0.0045)
    assert 10 * math.log10(bounds.crib_capon(2.0, 5, 500)) == pytest.approx(-23.47, abs=0.01)
    assert bounds.crib_capon(2.0, 2, 100) == pytest.approx(0.0075)
    assert math.isinf(bounds.crib_capon(1.0, 3, 100))


def test_domain_errors():
    with pytest.raises(DomainError):
        bounds.crib_ice(0.5, 4, 100)
    with pytest.raises(DomainError):
        bounds.crib_capon(0.99, 4, 100)
    with pytest.raises(DomainError):
        bounds.crib_ice(2.0, 1, 100)


def test_capon_below_ice_everywhere():
    rng = RNG(1)
    kb = 1.0 + 9.0 * rng.random(10_000)
    ds = rng.integers(2, 17, size=10_000)
    for k, d in zip(kb, ds):
        assert bounds.crib_capon(k, int(d), 100) < bounds.crib_ice(k, int(d), 100)


def test_bounds_decrease_in_kappa_and_scale_in_n():
    grid = np.linspace(1.01, 10.0, 50)
    ice = [bounds.crib_ice(k, 5, 200) for k in grid]
    capon = [bounds.crib_capon(k, 5, 200) for k in grid]
    assert np.all(np.diff(ice) < 0)
    assert np.all(np.diff(capon) < 0)
    assert bounds.crib_ice(2.0, 5, 400) == pytest.approx(bounds.crib_ice(2.0, 5, 200) / 2)
    assert bounds.crib_capon(2.0, 5, 400) == pytest.approx(bounds.crib_capon(2.0, 5, 200) / 2)


# ---------------------------------------------------------------------------
# Fisher information matrix
# ---------------------------------------------------------------------------

def test_fim_two_sensor_example():
    f = reference.fim(2.0, 1.0, np.array([[1.0]]), np.array([1.0]))
    expected = np.array(
        [[2.0, 0.0, -1.0j], [0.0, 2.0, 1.0j], [1.0j, -1.0j, 2.0]]
    )
    np.testing.assert_allclose(f, expected, atol=1e-15)


def test_fim_hermitian_positive_trace():
    rng = RNG(2)
    for _ in range(10):
        dm1 = int(rng.integers(1, 6))
        c_z = random_spd(rng, dm1)
        v_t = rng.standard_normal(dm1)
        kappa = float(1.5 + rng.random())
        sigma2 = float(0.5 + rng.random())
        if kappa * sigma2 <= 1.0:
            continue
        f = reference.fim(kappa, sigma2, c_z, v_t)
        np.testing.assert_allclose(f, f.conj().T, atol=1e-12)
        assert np.real(np.trace(f)) > 0.0


def test_fim_singular_at_gaussian():
    with pytest.raises(reference.SingularFim):
        reference.fim(1.0, 1.0, np.eye(2, dtype=complex), np.array([1.0, 2.0]))


def test_fim_route_reproduces_closed_form():
    # the key derivation check: numeric block inversion of F pushed through
    # the ISR relation must equal the closed form, for arbitrary inputs
    rng = RNG(3)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        c_z = random_spd(rng, d - 1)
        v_t = 0.1 + rng.random(d - 1)
        sigma2 = float(0.2 + 2.0 * rng.random())
        kappa_bar = float(1.05 + 5.0 * rng.random())
        kappa = kappa_bar / sigma2
        n = int(rng.integers(10, 2000))
        numeric = reference.crib_capon_from_fim(kappa, sigma2, c_z, v_t, n)
        closed = bounds.crib_capon(kappa_bar, d, n)
        assert abs(numeric - closed) <= 1e-8 * closed


def test_fim_route_invariant_to_nuisance_parameters():
    rng = RNG(4)
    d, n, kappa_bar = 5, 300, 2.5
    ref = None
    for _ in range(20):
        c_z = random_spd(rng, d - 1)
        v_t = 0.1 + rng.random(d - 1)
        sigma2 = float(0.2 + 3.0 * rng.random())
        val = reference.crib_capon_from_fim(kappa_bar / sigma2, sigma2, c_z, v_t, n)
        if ref is None:
            ref = val
        assert abs(val - ref) <= 1e-8 * ref


# ---------------------------------------------------------------------------
# empirical kappa_bar
# ---------------------------------------------------------------------------

def test_kappa_bar_gaussian_tends_to_one():
    s = core.complex_gaussian(RNG(5), 1_000_000)
    kb = bounds.empirical_kappa_bar_with_stderr(s, lambda u: np.conj(u))[0]
    assert abs(kb - 1.0) < 0.01


def test_kappa_bar_laplacean_reference_constant():
    # |psi|^2 = 2 identically for this law, so kappa_bar = 2 * sample variance
    s = core.complex_laplacean(RNG(6), 2_000_000)
    kb, se = bounds.empirical_kappa_bar_with_stderr(s, core.laplacean_score)
    assert kb > 1.0
    assert abs(kb - 2.0) < 3 * se
    assert se < 3e-3


def test_kappa_bar_scale_invariant():
    s = core.complex_gaussian(RNG(7), 10_000)
    kb1 = bounds.empirical_kappa_bar_with_stderr(s, lambda u: np.conj(u))[0]
    kb2 = bounds.empirical_kappa_bar_with_stderr(2.0 * s, lambda u: np.conj(u) / 4.0)[0]
    assert kb1 == kb2


def test_laplacean_bound_respected_by_fastica():
    # high-N FastICA ISR stays above the unstructured bound at kappa_bar = 2
    d, n = 4, 2000
    isrs = []
    for t in range(30):
        rng = RNG(800 + t)
        x, a, powers, model = random_mixture(rng, d, n, 0.6)
        c_x = core.sample_covariance(x.data)
        w_ini, _ = core.mpdr_weights(core.covariance_factor(c_x), core.steering(model, 0.6 + rng.uniform(-0.05, 0.05)))
        res = baselines.fastica_one_unit(x, w_ini)
        gains = np.abs(res.w.conj() @ a) ** 2 * powers
        sir = gains[0] / (np.sum(gains) - gains[0])
        if 10 * np.log10(sir) > 3.0:
            isrs.append(1.0 / sir)
    mean_isr = float(np.mean(isrs))
    stderr = float(np.std(isrs, ddof=1) / np.sqrt(len(isrs)))
    assert mean_isr >= bounds.crib_ice(2.0, d, n) - 2 * stderr


def test_crib_report_identifiable_flag():
    rep = bounds.crib_report(2.0, 5, 500)
    assert rep.identifiable
    assert rep.crib_capon == pytest.approx(0.0045)
    rep_gauss = bounds.crib_report(1.0, 5, 500)
    assert not rep_gauss.identifiable
    assert rep_gauss.crib_ice is None
