"""FastICA, Root MUSIC and TLS ESPRIT baselines."""

import numpy as np
import pytest

from blindcapon import baselines, core
from blindcapon.errors import RankDeficient

import reference
from conftest import random_mixture

RNG = np.random.default_rng


def noiseless_covariance(lam_star, d, load=1e-9):
    a = core.steering(core.ula(d), lam_star)
    return np.outer(a, a.conj()) + load * np.eye(d)


def two_source_snapshots(rng, lams, d, n, snr_db):
    model = core.ula(d)
    x = np.zeros((d, n), dtype=complex)
    for lam in lams:
        x += np.outer(core.steering(model, lam), core.complex_gaussian(rng, n))
    noise_amp = 10.0 ** (-snr_db / 20.0)
    x += noise_amp * (rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))) / np.sqrt(2)
    return core.sample_covariance(core.SnapshotMatrix(x).data)


# ---------------------------------------------------------------------------
# FastICA
# ---------------------------------------------------------------------------

def test_fastica_extracts_nongaussian_source():
    # one Laplacean source among Gaussians, initialized near it
    rng = RNG(10)
    d, n = 4, 10_000
    x, a, powers, model = random_mixture(
        rng, d, n, 0.5, laws=["laplacean"] + ["gaussian"] * (d - 1)
    )
    w_ini, _ = core.mpdr_weights(core.covariance_factor(core.sample_covariance(x.data)), core.steering(model, 0.55))
    res = baselines.fastica_one_unit(x, w_ini)
    assert res.converged
    gains = np.abs(res.w.conj() @ a) ** 2 * powers
    sir_db = 10 * np.log10(gains[0] / (np.sum(gains) - gains[0]))
    assert sir_db > 20.0


def test_fastica_gaussian_only_is_flagged_not_raised():
    rng = RNG(11)
    d, n = 4, 5000
    x, a, powers, model = random_mixture(rng, d, n, 0.3, laws=["gaussian"] * d)
    w_ini, _ = core.mpdr_weights(core.covariance_factor(core.sample_covariance(x.data)), core.steering(model, 0.3))
    res = baselines.fastica_one_unit(x, w_ini, max_iters=50)
    gains = np.abs(res.w.conj() @ a) ** 2 * powers
    sir_db = 10 * np.log10(gains[0] / (np.sum(gains) - gains[0]))
    assert (not res.converged) or sir_db <= 3.0


def test_fastica_output_satisfies_orthogonal_constraint():
    rng = RNG(12)
    x, _, _, model = random_mixture(rng, 5, 8000, 0.7)
    w_ini, _ = core.mpdr_weights(core.covariance_factor(core.sample_covariance(x.data)), core.steering(model, 0.72))
    res = baselines.fastica_one_unit(x, w_ini)
    z = reference.blocking_matrix(res.a) @ x.data
    s = res.w.conj() @ x.data
    corr = np.abs(z @ s.conj()) / x.N
    scale = np.sqrt(np.mean(np.abs(z) ** 2, axis=1) * np.mean(np.abs(s) ** 2))
    assert np.max(corr / scale) < 1e-6


def test_fastica_distortionless_convention():
    rng = RNG(13)
    x, _, _, model = random_mixture(rng, 4, 4000, -0.2)
    w_ini, _ = core.mpdr_weights(core.covariance_factor(core.sample_covariance(x.data)), core.steering(model, -0.18))
    res = baselines.fastica_one_unit(x, w_ini)
    assert abs(np.vdot(res.w, res.a) - 1.0) < 1e-10


def eigh_whitened_fastica(x, c, w_ini, max_iters):
    """The one-unit loop on data whitened symmetrically (by ``eigh``) with
    covariance ``c``, as ``fastica_one_unit`` ran before it took the shared
    Cholesky factor: the oracle for that prewhitening."""
    evals, evecs = np.linalg.eigh(c)
    v_white = evecs @ np.diag(evals ** -0.5) @ evecs.conj().T
    v_color = evecs @ np.diag(evals ** 0.5) @ evecs.conj().T
    xt = v_white @ x.data
    w = v_color @ w_ini
    w = w / np.linalg.norm(w)
    converged = False
    for iterations in range(1, max_iters + 1):
        y = w.conj() @ xt
        gy = 1.0 / (1.0 + np.abs(y) ** 2)
        gpy = -gy ** 2
        w_new = (xt * (np.conj(y) * gy)).mean(axis=1)
        w_new = w_new - np.mean(gy + np.abs(y) ** 2 * gpy) * w
        w_new = w_new / np.linalg.norm(w_new)
        crit = 1.0 - abs(np.vdot(w_new, w))
        w = w_new
        if crit <= 1e-6:
            converged = True
            break
    w_orig = v_white.conj().T @ w
    a_hat = (c @ w_orig) / float(np.real(np.vdot(w_orig, c @ w_orig)))
    return w_orig / np.conj(np.vdot(w_orig, a_hat)), iterations, converged


@pytest.mark.parametrize("d, law, seed", [
    (3, "laplacean", 20), (5, "laplacean", 21), (8, "laplacean", 22), (5, "gaussian", 23),
])
def test_fastica_matches_eigh_whitened_oracle(d, law, seed):
    # the Cholesky and the symmetric whitening of one covariance differ by
    # a unitary change of coordinates, under which the update is
    # equivariant: the same iterates, up to rounding.  The factor whitens
    # the loaded covariance, and so does the oracle: against the unloaded
    # one, w moves by the 1e-10 loading times the conditioning (2-4e-8
    # here).  On Gaussian data the iterates wander and amplify rounding
    # (1e-6 after 30 iterations), so the comparison stops at 20.
    rng = RNG(seed)
    x, _, _, model = random_mixture(rng, d, 1000, 0.5, competitor=0.25, laws=[law] * d)
    c_x = core.sample_covariance(x.data)
    factor = core.covariance_factor(c_x)
    w_ini, _ = core.mpdr_weights(factor, core.steering(model, 0.5 + rng.uniform(-0.1, 0.1)))
    w_ref, iterations, converged = eigh_whitened_fastica(x, core.regularized(c_x), w_ini, 20)
    res = baselines.fastica_one_unit(x, w_ini, max_iters=20)
    assert (res.iterations, res.converged) == (iterations, converged)
    assert converged == (law == "laplacean")
    assert np.linalg.norm(res.w - w_ref) <= 1e-8 * np.linalg.norm(w_ref)


def test_fastica_rejects_zero_init():
    x, _, _, _ = random_mixture(RNG(14), 3, 100, 0.0)
    with pytest.raises(ValueError):
        baselines.fastica_one_unit(x, np.zeros(3, dtype=complex))


# ---------------------------------------------------------------------------
# Root MUSIC
# ---------------------------------------------------------------------------

def test_root_music_noiseless_oracle():
    est = baselines.root_music(noiseless_covariance(0.5, 4), 1)
    assert abs(est[0] - 0.5) < 1e-5


def test_root_music_zero_angle():
    est = baselines.root_music(noiseless_covariance(0.0, 4), 1)
    assert abs(est[0]) < 1e-6


def test_root_music_two_sources():
    c = two_source_snapshots(RNG(15), (0.6, -0.6), 6, 10_000, snr_db=20.0)
    est = baselines.root_music(c, 2)
    assert est.size == 2
    for target in (0.6, -0.6):
        assert np.min(np.abs(est - target)) < 0.02


def test_root_music_scaling_invariance():
    c = noiseless_covariance(0.7, 5)
    e1 = baselines.root_music(c, 1)
    e2 = baselines.root_music(3.5 * c, 1)
    assert e1[0] == pytest.approx(e2[0], abs=1e-8)


def test_root_music_rank_checks():
    c = noiseless_covariance(0.2, 4)
    with pytest.raises(RankDeficient):
        baselines.root_music(c, 4)
    with pytest.raises(RankDeficient):
        baselines.root_music(c, 0)


# ---------------------------------------------------------------------------
# TLS ESPRIT
# ---------------------------------------------------------------------------

def test_tls_esprit_noiseless_oracle():
    est = baselines.tls_esprit(noiseless_covariance(0.5, 4), 1)
    assert abs(est[0] - 0.5) < 1e-5


def test_tls_esprit_zero_angle():
    est = baselines.tls_esprit(noiseless_covariance(0.0, 4), 1)
    assert abs(est[0]) < 1e-6


def test_tls_esprit_two_sources():
    c = two_source_snapshots(RNG(16), (0.6, -0.6), 6, 10_000, snr_db=20.0)
    est = baselines.tls_esprit(c, 2)
    for target in (0.6, -0.6):
        assert np.min(np.abs(est - target)) < 0.02


def test_music_esprit_agree_noiseless():
    for lam in (-0.9, -0.3, 0.45, 1.2):
        c = noiseless_covariance(lam, 5)
        m = baselines.root_music(c, 1)
        e = baselines.tls_esprit(c, 1)
        assert abs(m[0] - e[0]) < 1e-5
