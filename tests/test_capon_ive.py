"""STFT round trip, broadband steering, the joint-parameter search and
SRP-PHAT on the anechoic two-source fixture."""

import numpy as np
import pytest

from blindcapon import capon_ice, capon_ive, core
from blindcapon.errors import SpatialAliasWarning

RNG = np.random.default_rng


# ---------------------------------------------------------------------------
# STFT / iSTFT
# ---------------------------------------------------------------------------

def test_roundtrip_impulses():
    sig = np.zeros((3, 4000))
    sig[0, 137] = 1.0
    sig[1, 2000] = -0.5
    sig[2, 3999] = 0.25
    t = capon_ive.stft(sig, 1024, 128, 16000)
    rec = capon_ive.istft(t, length=4000)
    assert np.max(np.abs(rec - sig)) < 1e-8


def test_roundtrip_random_multichannel():
    sig = RNG(1).standard_normal((5, 16000))
    t = capon_ive.stft(sig, 1024, 128, 16000)
    rec = capon_ive.istft(t, length=16000)
    assert np.max(np.abs(rec - sig)) / np.max(np.abs(sig)) < 1e-8


def test_tone_lands_in_expected_bin():
    fs, f0 = 16000, 1000.0
    n = 8192
    sig = np.sin(2 * np.pi * f0 * np.arange(n) / fs)[None, :]
    t = capon_ive.stft(sig, 1024, 128, fs)
    power = np.mean(np.abs(t.data[:, 0, :]) ** 2, axis=1)
    peak = int(np.argmax(power))
    assert abs(peak - 64) <= 1


def test_stft_matches_frame_loop():
    sig = RNG(2).standard_normal((3, 5000))
    fft_len, hop = 512, 96
    t = capon_ive.stft(sig, fft_len, hop, 16000)
    win = np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(fft_len) / fft_len))
    padded = np.pad(sig, ((0, 0), (fft_len, fft_len)))
    n_frames = (padded.shape[1] - fft_len) // hop + 1
    ref = np.empty((fft_len // 2 + 1, 3, n_frames), dtype=complex)
    for m in range(n_frames):
        ref[:, :, m] = np.fft.rfft(padded[:, m * hop: m * hop + fft_len] * win, axis=1).T
    assert t.data.shape == ref.shape
    assert np.max(np.abs(t.data - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_stft_shape_contract():
    t = capon_ive.stft(np.zeros((2, 3000)), 512, 128, 8000)
    assert t.n_bins == 257
    assert t.n_channels == 2
    assert t.n_frames > 2


# ---------------------------------------------------------------------------
# broadband steering
# ---------------------------------------------------------------------------

def test_broadside_gives_ones_everywhere():
    geom = capon_ive.ArrayGeometry(spacing_m=0.05, d=5)
    for k in (0, 17, 256, 512):
        a = capon_ive.steering_broadband(geom, 90.0, k, 16000, 1024)
        np.testing.assert_allclose(a, np.ones(5), atol=1e-12)


def test_endfire_half_wavelength_flips_second_sensor():
    # spacing chosen so that omega_k * spacing / c = pi at bin 256 (4 kHz)
    c = 343.0
    geom = capon_ive.ArrayGeometry(spacing_m=c / 8000.0, d=3)
    a = capon_ive.steering_broadband(geom, 0.0, 256, 16000, 1024)
    assert abs(a[1] + 1.0) < 1e-12


def test_alias_warning_above_pi():
    c = 343.0
    geom = capon_ive.ArrayGeometry(spacing_m=c / 8000.0, d=3)
    with pytest.warns(SpatialAliasWarning):
        capon_ive.steering_broadband(geom, 0.0, 400, 16000, 1024)


def test_theta_tau_roundtrip_and_broadside_anchor():
    geom = capon_ive.ArrayGeometry(spacing_m=0.05, d=5)
    assert capon_ive.theta_to_tau(geom, 90.0) == pytest.approx(0.0, abs=1e-18)
    assert capon_ive.tau_to_theta(geom, 0.0) == pytest.approx(90.0)
    for theta in (10.0, 63.43, 120.0):
        tau = capon_ive.theta_to_tau(geom, theta)
        assert capon_ive.tau_to_theta(geom, tau) == pytest.approx(theta, abs=1e-9)


# ---------------------------------------------------------------------------
# joint derivatives
# ---------------------------------------------------------------------------

def oracle_joint_log_pdf(tensor, geom, tau, bins, perturb=None):
    """Independent reimplementation of the joint model log-pdf term; a
    single bin's phase parameter may be perturbed by ``perturb=(bin, h)``."""
    v = np.arange(geom.d, dtype=float)
    omegas = 2 * np.pi * tensor.bin_frequencies()
    total = None
    for k in bins:
        lam_k = omegas[k] * tau
        if perturb is not None and k == perturb[0]:
            lam_k += perturb[1]
        xk = tensor.data[k]
        ck = xk @ xk.conj().T / tensor.n_frames
        a = np.exp(1j * lam_k * v)
        w, _ = core.mpdr_weights(core.covariance_factor(ck), a)
        s = w.conj() @ xk
        u = s / np.sqrt(np.mean(np.abs(s) ** 2))
        mag = np.abs(u) ** 2
        total = mag if total is None else total + mag
    return float(np.mean(-np.log1p(total)))


@pytest.fixture(scope="module")
def small_tensor():
    rng = RNG(7)
    geom = capon_ive.ArrayGeometry(spacing_m=0.05, d=4)
    fs, n = 16000, 40960
    srcs = np.vstack([capon_ive.speech_shaped_noise(rng, n, fs) for _ in range(2)])
    mix = capon_ive.anechoic_phase_mix(srcs, (75.0, 110.0), geom, fs)
    mix = mix + 0.01 * rng.standard_normal(mix.shape)
    return capon_ive.stft(mix, 256, 64, fs), geom


def test_per_bin_first_derivative_matches_fd(small_tensor):
    tensor, geom = small_tensor
    bins = np.array([20, 40, 60, 80])
    tau = capon_ive.theta_to_tau(geom, 80.0)
    der = capon_ive.derivatives_at(tensor, geom, tau, bins=bins)
    h = 1e-7
    for i, k in enumerate(der.bins):
        up = oracle_joint_log_pdf(tensor, geom, tau, bins, perturb=(k, h))
        dn = oracle_joint_log_pdf(tensor, geom, tau, bins, perturb=(k, -h))
        fd = (up - dn) / (2 * h)
        analytic = der.nus[i] * der.per_bin_first[i]
        assert abs(fd - analytic) < 1e-4 * max(abs(analytic), 1e-6)


def test_tau_chain_rule_matches_fd(small_tensor):
    tensor, geom = small_tensor
    bins = np.array([20, 40, 60, 80])
    tau = capon_ive.theta_to_tau(geom, 80.0)
    der = capon_ive.derivatives_at(tensor, geom, tau, bins=bins)
    h = 1e-10
    up = oracle_joint_log_pdf(tensor, geom, tau + h, bins)
    dn = oracle_joint_log_pdf(tensor, geom, tau - h, bins)
    fd = (up - dn) / (2 * h)
    analytic = float(np.sum(der.omegas * der.nus * der.per_bin_first))
    assert abs(fd - analytic) < 1e-4 * max(abs(analytic), 1e-9)


def test_one_bin_is_the_narrowband_problem(small_tensor):
    # a single bin under the joint nonlinearity is narrowband CaponICE at
    # lam = omega_k tau with the rational nonlinearity
    tensor, geom = small_tensor
    tau = capon_ive.theta_to_tau(geom, 80.0)
    omegas = 2 * np.pi * tensor.bin_frequencies()
    phi = core.rational_nonlinearity()
    for k in (20, 40, 60, 80):
        der = capon_ive.derivatives_at(tensor, geom, tau, bins=[k])
        x = core.SnapshotMatrix(tensor.data[k])
        state = core.extraction_state(x, core.ula(geom.d), omegas[k] * tau, phi)
        d1 = capon_ice.first_derivative(x, state, phi)
        d2 = capon_ice.second_derivative_approx(x, state, phi)
        assert abs(der.per_bin_first[0] - d1) <= 1e-9 * abs(d1)
        assert abs(der.per_bin_second[0] - d2) <= 1e-9 * abs(d2)


def test_bin_stack_is_a_view_of_the_tensor(small_tensor):
    # a copy of the bins would add a (bins, d, frames) array to peak memory
    tensor, geom = small_tensor
    ctx = capon_ive._BinContext(tensor, geom, 100.0)
    assert np.shares_memory(ctx.x, tensor.data)


@pytest.mark.parametrize("theta", [70.0, 80.0, 105.0])
def test_stacked_kernel_matches_per_bin_loop(small_tensor, theta):
    tensor, geom = small_tensor
    ctx = capon_ive._BinContext(tensor, geom, 100.0)
    tau = capon_ive.theta_to_tau(geom, theta)
    st = ctx.states(tau)
    der = ctx.derivatives(st)
    v = np.arange(geom.d, dtype=float)
    omegas = 2 * np.pi * tensor.bin_frequencies()
    per_bin = []
    for k in ctx.bins:
        xk = tensor.data[k]
        ck = core.sample_covariance(core.SnapshotMatrix(xk))
        fac = core.covariance_factor(ck)
        a = np.exp(1j * omegas[k] * tau * v)
        w, sig2_solve = core.mpdr_weights(fac, a)
        per_bin.append((xk, ck, fac, a, w, sig2_solve, w.conj() @ xk))
    s = np.array([p[-1] for p in per_bin])
    u = s / np.sqrt(np.mean(np.abs(s) ** 2, axis=1))[:, None]
    s_tot = 1.0 + np.sum(np.abs(u) ** 2, axis=0)
    phi = np.conj(u) / s_tot
    sig2 = np.mean(np.abs(s) ** 2, axis=1)
    nu = np.real(np.mean(phi * u, axis=1))
    rho = np.real(np.mean((s_tot - np.abs(u) ** 2) / s_tot ** 2, axis=1))
    c1 = (nu - rho) / (nu * sig2)
    d1, d2 = np.array([
        capon_ice._mpdr_derivatives(
            xk, ck, fac, a, v, w, phi[i], sig2[i], sig2_solve, nu[i], c1[i]
        )[1:]
        for i, (xk, ck, fac, a, w, sig2_solve, _) in enumerate(per_bin)
    ]).T

    def close(got, want):
        # relative to the largest bin: d1 changes sign across the bins
        return np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    assert close(st.w, np.array([p[4] for p in per_bin]))
    assert close(st.sig2_solve, np.array([p[5] for p in per_bin]))
    assert close(der.nus, nu)
    assert close(der.per_bin_first, d1)
    assert close(der.per_bin_second, d2)


def test_silent_bin_is_dropped_by_the_search_and_passed_by_beamform(small_tensor):
    # an all-zero bin has no positive definite loading at all
    tensor, geom = small_tensor
    data = tensor.data.copy()
    data[30] = 0.0
    silent = capon_ive.StftTensor(data, tensor.sample_rate, tensor.fft_len, tensor.hop)
    ctx = capon_ive._BinContext(silent, geom, 100.0)
    assert list(ctx.flagged) == [30]
    assert 30 not in ctx.bins and ctx.bins.size == ctx.x.shape[0] == ctx.factors.shape[0]
    der = ctx.derivatives(ctx.states(capon_ive.theta_to_tau(geom, 80.0)))
    assert np.all(np.isfinite(der.per_bin_first)) and np.all(np.isfinite(der.per_bin_second))
    weights, extracted = capon_ive.beamform_at(silent, geom, 80.0)
    assert np.array_equal(weights[30], np.eye(geom.d)[0])
    assert not np.any(extracted[30])
    ref_weights, ref_extracted = capon_ive.beamform_at(tensor, geom, 80.0)
    others = np.arange(tensor.n_bins) != 30
    np.testing.assert_allclose(weights[others], ref_weights[others], rtol=1e-12, atol=0)
    np.testing.assert_allclose(extracted[others], ref_extracted[others], rtol=1e-12, atol=0)


def test_bin_order_invariance(small_tensor):
    tensor, geom = small_tensor
    bins = np.arange(10, 90)
    r1 = capon_ive.run_ive(tensor, geom, 84.0, bins=bins)
    r2 = capon_ive.run_ive(tensor, geom, 84.0, bins=RNG(3).permutation(bins))
    assert abs(r1.theta_deg - r2.theta_deg) < 1e-9


# ---------------------------------------------------------------------------
# extraction on the anechoic fixture
# ---------------------------------------------------------------------------

def test_run_ive_recovers_both_speakers(broadband_fixture):
    tensor = broadband_fixture.tensor()
    geom = broadband_fixture.geom
    iterations = []
    for theta_true in broadband_fixture.thetas_deg:
        res = capon_ive.run_ive(tensor, geom, theta_true + 5.0)
        assert res.converged
        assert res.gradient_fallbacks == 0
        assert abs(res.theta_deg - theta_true) < 0.5
        iterations.append(res.iterations)
    # the step rule's iteration counts from 68.43 and 95 degrees
    assert iterations == [19, 22]
    assert max(iterations) <= 25


@pytest.mark.parametrize("theta_ini", [75.43, 102.0])
def test_run_ive_converges_from_twelve_degrees_off(broadband_fixture, theta_ini):
    # 0.5-5 degrees from a source the joint contrast is convex: unbracketed
    # Newton steps stay far too short to get there in 100 iterations
    res = capon_ive.run_ive(broadband_fixture.tensor(), broadband_fixture.geom, theta_ini)
    assert res.converged
    assert min(abs(res.theta_deg - t) for t in broadband_fixture.thetas_deg) < 0.5


def test_run_ive_improves_sir(broadband_fixture):
    fx = broadband_fixture
    tensor = fx.tensor()
    res = capon_ive.run_ive(tensor, fx.geom, fx.thetas_deg[0] + 5.0)
    y = capon_ive.istft_mono(res.extracted, tensor, length=fx.mix.shape[1])
    improvement, soi, sir_in, sir_out = capon_ive.sir_improvement_db(
        y, fx.mix[0], fx.sources
    )
    assert soi == 0
    assert improvement > 10.0


def test_run_ive_distortionless_per_bin(broadband_fixture):
    fx = broadband_fixture
    tensor = fx.tensor()
    res = capon_ive.run_ive(tensor, fx.geom, fx.thetas_deg[1] + 5.0)
    omegas = 2 * np.pi * tensor.bin_frequencies()
    v = np.arange(fx.geom.d, dtype=float)
    for k in res.included_bins[:: max(1, res.included_bins.size // 40)]:
        a_k = np.exp(1j * omegas[k] * res.tau_s * v)
        assert abs(np.vdot(res.weights[k], a_k) - 1.0) < 1e-8


def test_single_source_passthrough():
    rng = RNG(9)
    fs, n = 16000, 48000
    geom = capon_ive.ArrayGeometry(spacing_m=0.05, d=5)
    src = capon_ive.speech_shaped_noise(rng, n, fs)
    mix = capon_ive.anechoic_phase_mix(src[None, :], [72.0], geom, fs)
    mix = mix + 3e-4 * rng.standard_normal(mix.shape)
    tensor = capon_ive.stft(mix, 1024, 128, fs)
    res = capon_ive.run_ive(tensor, geom, 77.0)
    assert abs(res.theta_deg - 72.0) < 0.1
    # heavy extraction loading: the lone source must pass through unharmed
    _, extracted = capon_ive.beamform_at(tensor, geom, res.theta_deg, loading=0.03)
    y = capon_ive.istft_mono(extracted, tensor, length=n)
    ref = mix[0]
    rel = np.linalg.norm(y - ref) / np.linalg.norm(ref)
    assert rel < 1e-3


# ---------------------------------------------------------------------------
# SRP-PHAT
# ---------------------------------------------------------------------------

def test_srp_phat_single_source():
    rng = RNG(11)
    fs, n = 16000, 32000
    geom = capon_ive.ArrayGeometry(spacing_m=0.05, d=5)
    src = capon_ive.speech_shaped_noise(rng, n, fs)
    mix = capon_ive.anechoic_phase_mix(src[None, :], [63.43], geom, fs)
    tensor = capon_ive.stft(mix, 1024, 128, fs)
    res = capon_ive.srp_phat(tensor, geom, 60.0)
    assert not res.stalled
    assert abs(res.theta_deg - 63.43) < 0.5


def test_srp_phat_two_sources(broadband_fixture):
    fx = broadband_fixture
    tensor = fx.tensor()
    for theta_true in fx.thetas_deg:
        res = capon_ive.srp_phat(tensor, fx.geom, theta_true + 5.0)
        assert abs(res.theta_deg - theta_true) < 1.0


def test_srp_phat_stalls_on_white_noise():
    rng = RNG(12)
    geom = capon_ive.ArrayGeometry(spacing_m=0.05, d=4)
    mix = rng.standard_normal((4, 16000))
    tensor = capon_ive.stft(mix, 1024, 128, 16000)
    res = capon_ive.srp_phat(tensor, geom, 70.0)
    assert res.stalled
    assert res.theta_deg == 70.0


# ---------------------------------------------------------------------------
# WAV io
# ---------------------------------------------------------------------------

def test_wav_roundtrip_float32(tmp_path):
    sig = RNG(13).standard_normal((3, 8000)) * 0.1
    path = tmp_path / "x.wav"
    capon_ive.write_wav(path, 16000, sig)
    rate, back = capon_ive.read_wav(path)
    assert rate == 16000
    assert back.shape == sig.shape
    assert np.max(np.abs(back - sig)) < 1e-6


def test_wav_reads_pcm16(tmp_path):
    import scipy.io.wavfile

    sig = (RNG(14).standard_normal(4000) * 5000).astype(np.int16)
    path = tmp_path / "p.wav"
    scipy.io.wavfile.write(path, 8000, sig)
    rate, back = capon_ive.read_wav(path)
    assert rate == 8000
    assert back.shape == (1, 4000)
    assert np.max(np.abs(back)) <= 1.0
