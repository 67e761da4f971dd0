"""STFT round trip, the delay convention, the joint-parameter search and
SRP-PHAT on the anechoic two-source fixture."""

import numpy as np
import pytest

from blindcapon import capon_ice, capon_ive, core
from blindcapon.errors import DomainError

import reference
from conftest import build_broadband_fixture, random_mixture, riff_bytes, wav_fmt

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


def test_stft_of_float32_samples_is_the_double_stft_rounded_once():
    sig = RNG(3).standard_normal((3, 5000)).astype(np.float32)
    single = capon_ive.stft(sig, 512, 96, 16000)
    double = capon_ive.stft(sig.astype(float), 512, 96, 16000)
    assert single.data.dtype == np.complex64 and double.data.dtype == np.complex128
    # the FFTs run in double precision; only the stored result is rounded
    assert np.array_equal(single.data, double.data.astype(np.complex64))
    exact = capon_ive.stft(RNG(3).standard_normal((3, 5000)), 512, 96, 16000)
    assert np.max(np.abs(single.data - exact.data)) <= 1e-6 * np.max(np.abs(exact.data))


def test_stft_of_int16_samples_is_double_precision():
    sig = RNG(4).integers(-2000, 2000, (2, 5000)).astype(np.int16)
    t = capon_ive.stft(sig, 512, 96, 16000)
    assert t.data.dtype == np.complex128
    assert np.array_equal(t.data, capon_ive.stft(sig.astype(float), 512, 96, 16000).data)


def test_stft_shape_contract():
    t = capon_ive.stft(np.zeros((2, 3000)), 512, 128, 8000)
    assert t.n_bins == 257
    assert t.n_channels == 2
    assert t.n_frames > 2


# ---------------------------------------------------------------------------
# DOA and delay
# ---------------------------------------------------------------------------

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
    kernel, kept, _ = capon_ive._bin_stack(tensor, geom, 100.0, bins=bins)
    d1, _ = kernel.derivatives(kernel.state(tau))
    nu = reference.kernel_derivatives(kernel, tau)[3]
    h = 1e-7
    for i, k in enumerate(kept):
        up = oracle_joint_log_pdf(tensor, geom, tau, bins, perturb=(k, h))
        dn = oracle_joint_log_pdf(tensor, geom, tau, bins, perturb=(k, -h))
        fd = (up - dn) / (2 * h)
        analytic = nu[i] * d1[i]
        assert abs(fd - analytic) < 1e-4 * max(abs(analytic), 1e-6)


def test_tau_chain_rule_matches_fd(small_tensor):
    tensor, geom = small_tensor
    bins = np.array([20, 40, 60, 80])
    tau = capon_ive.theta_to_tau(geom, 80.0)
    kernel, _, _ = capon_ive._bin_stack(tensor, geom, 100.0, bins=bins)
    d1, _ = kernel.derivatives(kernel.state(tau))
    nu = reference.kernel_derivatives(kernel, tau)[3]
    h = 1e-10
    up = oracle_joint_log_pdf(tensor, geom, tau + h, bins)
    dn = oracle_joint_log_pdf(tensor, geom, tau - h, bins)
    fd = (up - dn) / (2 * h)
    analytic = float(np.sum(kernel.omegas * nu * d1))
    assert abs(fd - analytic) < 1e-4 * max(abs(analytic), 1e-9)


def test_one_bin_is_the_narrowband_problem(small_tensor):
    # a single bin under the joint nonlinearity is narrowband CaponICE at
    # lam = omega_k tau with the rational nonlinearity
    tensor, geom = small_tensor
    tau = capon_ive.theta_to_tau(geom, 80.0)
    omegas = 2 * np.pi * tensor.bin_frequencies()
    phi = reference.rational_nonlinearity()
    for k in (20, 40, 60, 80):
        kernel, _, _ = capon_ive._bin_stack(tensor, geom, 100.0, bins=[k])
        bin_d1, bin_d2 = kernel.derivatives(kernel.state(tau))
        x = core.SnapshotMatrix(tensor.data[k])
        state = reference.extraction_state(x, core.ula(geom.d), omegas[k] * tau, phi)
        d1 = reference.first_derivative(x, state)
        d2 = reference.second_derivative_approx(x, state)
        assert abs(bin_d1[0] - d1) <= 1e-9 * abs(d1)
        assert abs(bin_d2[0] - d2) <= 1e-9 * abs(d2)


def test_kernel_derivatives_match_oracle(small_tensor):
    # the kernel's per-problem (d1, d2) against the per-problem formula that
    # includes grad_w, narrowband and on every bin of the stack
    for seed, d in ((80, 3), (81, 5), (82, 8)):
        x, _, _, model = random_mixture(RNG(seed), d, 1000, 0.4, competitor=-0.5)
        c_x = core.sample_covariance(x)
        kernel = capon_ice._one_problem(x, model, c_x, core.covariance_factor(c_x))
        for lam in (-2.0, -0.5, 0.3, 0.45, 1.2, 3.0):
            d1, d2 = kernel.derivatives(kernel.state(lam))
            _, want_d1, want_d2, _ = reference.kernel_derivatives(kernel, lam)
            assert abs(d1[0] - want_d1[0]) <= 1e-9 * abs(want_d1[0]), (d, lam)
            assert abs(d2[0] - want_d2[0]) <= 1e-9 * abs(want_d2[0]), (d, lam)
    tensor, geom = small_tensor
    kernel, kept, _ = capon_ive._bin_stack(tensor, geom, 100.0)
    assert kept.size == kernel.x.shape[0] > 100
    for theta in (70.0, 80.0, 105.0):
        tau = capon_ive.theta_to_tau(geom, theta)
        d1, d2 = kernel.derivatives(kernel.state(tau))
        _, want_d1, want_d2, _ = reference.kernel_derivatives(kernel, tau)
        # relative to the largest bin: d1 changes sign across the bins
        for got, want in ((d1, want_d1), (d2, want_d2)):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), theta


def test_bin_stack_is_a_view_of_the_tensor(small_tensor):
    # a copy of the bins would add a (bins, d, frames) array to peak memory
    tensor, geom = small_tensor
    kernel, _, _ = capon_ive._bin_stack(tensor, geom, 100.0)
    assert np.shares_memory(kernel.x, tensor.data)


@pytest.mark.parametrize("theta", [70.0, 80.0, 105.0])
def test_stacked_kernel_matches_per_bin_loop(small_tensor, theta):
    tensor, geom = small_tensor
    kernel, kept, _ = capon_ive._bin_stack(tensor, geom, 100.0)
    tau = capon_ive.theta_to_tau(geom, theta)
    st = kernel.state(tau)
    kernel_d1, kernel_d2 = kernel.derivatives(st)
    kernel_nu = reference.kernel_derivatives(kernel, tau)[3]
    v = np.arange(geom.d, dtype=float)
    omegas = 2 * np.pi * tensor.bin_frequencies()
    per_bin = []
    for k in kept:
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
        reference._mpdr_derivatives(
            xk, ck, fac, a, v, w, phi[i], sig2[i], sig2_solve, nu[i], c1[i]
        )[1:]
        for i, (xk, ck, fac, a, w, sig2_solve, _) in enumerate(per_bin)
    ]).T

    def close(got, want):
        # relative to the largest bin: d1 changes sign across the bins
        return np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    assert close(st.w, np.array([p[4] for p in per_bin]))
    assert close(st.sig2_solve, np.array([p[5] for p in per_bin]))
    assert close(kernel_nu, nu)
    assert close(kernel_d1, d1)
    assert close(kernel_d2, d2)


def test_silent_bin_is_dropped_by_the_search_and_passed_by_beamform(small_tensor):
    # an all-zero bin has no positive definite loading at all
    tensor, geom = small_tensor
    data = tensor.data.copy()
    data[30] = 0.0
    silent = capon_ive.StftTensor(data, tensor.sample_rate, tensor.fft_len, tensor.hop)
    kernel, kept, flagged = capon_ive._bin_stack(silent, geom, 100.0)
    assert list(flagged) == [30]
    assert 30 not in kept and kept.size == kernel.x.shape[0] == kernel.factors.shape[0]
    d1, d2 = kernel.derivatives(kernel.state(capon_ive.theta_to_tau(geom, 80.0)))
    assert np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))
    weights, extracted = capon_ive.beamform_at(silent, geom, 80.0)
    assert np.array_equal(weights[30], np.eye(geom.d)[0])
    assert not np.any(extracted[30])
    ref_weights, ref_extracted = capon_ive.beamform_at(tensor, geom, 80.0)
    others = np.arange(tensor.n_bins) != 30
    np.testing.assert_allclose(weights[others], ref_weights[others], rtol=1e-12, atol=0)
    np.testing.assert_allclose(extracted[others], ref_extracted[others], rtol=1e-12, atol=0)


@pytest.mark.parametrize("scale", [1e-16, 1e-20])
def test_run_ive_is_scale_invariant_per_bin(small_tensor, scale):
    # the joint nonlinearity normalizes each bin by its own power: quiet
    # bins are neither silent nor dropped
    tensor, geom = small_tensor
    data = tensor.data.copy()
    data[100:] *= scale
    quiet = capon_ive.StftTensor(data, tensor.sample_rate, tensor.fft_len, tensor.hop)
    ref = capon_ive.run_ive(tensor, geom, 80.0)
    res = capon_ive.run_ive(quiet, geom, 80.0)
    assert res.flagged_bins.size == 0 and res.iterations == ref.iterations
    assert res.theta_deg == pytest.approx(ref.theta_deg, abs=1e-9)


def test_run_ive_forms_one_covariance_stack_and_one_solve_per_iteration(
    small_tensor, monkeypatch
):
    # counted wherever run_ive, its kernel and its beamformer bind them: the
    # bin covariances feed both the search and the final weights, and the
    # search solves once per iteration, never at the point it stops on
    calls = {"_covariances": 0, "mpdr_weights": 0}

    def counted(name, fn):
        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return count

    monkeypatch.setattr(capon_ive, "_covariances", counted("_covariances", capon_ive._covariances))
    for module in (capon_ice, capon_ive):
        monkeypatch.setattr(module, "mpdr_weights", counted("mpdr_weights", core.mpdr_weights))
    tensor, geom = small_tensor
    res = capon_ive.run_ive(tensor, geom, 80.0)
    assert res.converged and res.iterations > 3
    assert calls == {"_covariances": 1, "mpdr_weights": res.iterations + 1}


def test_non_finite_start_is_a_domain_error(small_tensor):
    tensor, geom = small_tensor
    with pytest.raises(DomainError):
        capon_ive.run_ive(tensor, geom, float("nan"))
    with pytest.raises(DomainError):
        capon_ive.srp_phat(tensor, geom, float("inf"))


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
    # the step rule's iteration counts from 68.43 and 95 degrees, after the
    # climb to the Capon-spectrum peak
    assert iterations == [5, 5]
    assert max(iterations) <= 8


@pytest.mark.parametrize("theta_ini", [75.43, 102.0])
def test_run_ive_converges_from_twelve_degrees_off(broadband_fixture, theta_ini):
    # 0.5-5 degrees from a source the joint contrast is convex: unbracketed
    # Newton steps stay far too short to get there in 100 iterations
    res = capon_ive.run_ive(broadband_fixture.tensor(), broadband_fixture.geom, theta_ini)
    assert res.converged
    assert min(abs(res.theta_deg - t) for t in broadband_fixture.thetas_deg) < 0.5


def single_precision(fx, mix):
    """The complex64 STFT of ``mix`` as float32 samples, at ``fx``'s settings."""
    return capon_ive.stft(mix.astype(np.float32), fx.fft_len, fx.hop, fx.sample_rate)


@pytest.mark.parametrize(
    "seed, theta_ini, theta_source",
    [(71, 75.43, 63.43), (72, 102.0, 90.0), (2732832790, 102.0, 90.0)],
)
def test_run_ive_reaches_the_source_nearer_its_start(seed, theta_ini, theta_source):
    # searched from theta_ini itself these end at max_iters, at 74.23,
    # 101.05 and 104.41 degrees; the latter two climb towards true maxima
    # of the contrast that are no source.  The Capon-spectrum peak nearby
    # is the source's.
    fx = build_broadband_fixture(seed=seed)
    res = capon_ive.run_ive(single_precision(fx, fx.mix), fx.geom, theta_ini)
    assert res.converged
    assert abs(res.theta_deg - theta_source) < 0.05
    assert res.iterations <= 8


@pytest.fixture(scope="module")
def weak_target(broadband_fixture):
    """The fixture's scene with the 63.43-degree target 20 dB below the
    competitor, as a complex64 tensor."""
    fx = broadband_fixture
    sources = fx.sources * np.array([[0.1], [1.0]])
    mix = capon_ive.anechoic_phase_mix(sources, fx.thetas_deg, fx.geom, fx.sample_rate)
    mix = mix + 10.0 ** (-30.0 / 20.0) * RNG(2025).standard_normal(mix.shape)
    return single_precision(fx, mix), fx.geom


@pytest.mark.parametrize("offset", [5.0, -5.0, 2.0])
def test_run_ive_keeps_a_target_20_db_below_the_competitor(weak_target, offset):
    # the climb to the Capon-spectrum peak must not hand the search to the
    # louder source
    tensor, geom = weak_target
    res = capon_ive.run_ive(tensor, geom, 63.43 + offset)
    assert res.converged
    assert abs(res.theta_deg - 63.43) < 0.05


def test_capon_peak_derivatives_match_finite_differences(small_tensor, monkeypatch):
    # the first search of run_ive climbs -mean_k log(a_k^H C_k^-1 a_k) in tau
    tensor, geom = small_tensor
    searched = []
    delay_search = capon_ive._delay_search

    def record(geom, tau, omegas, derivatives, max_iters):
        searched.append(derivatives)
        return delay_search(geom, tau, omegas, derivatives, max_iters)

    monkeypatch.setattr(capon_ive, "_delay_search", record)
    capon_ive.run_ive(tensor, geom, 80.0)
    kernel, _, _ = capon_ive._bin_stack(tensor, geom, 100.0)

    def spectrum(tau):
        a = np.exp(1j * tau * np.outer(kernel.omegas, np.arange(geom.d)))
        g_a = np.einsum("kij,kj->ki", kernel.factors, a)
        return -np.mean(np.log(np.sum(np.abs(g_a) ** 2, axis=1)))

    h = 1e-3 / kernel.omegas.max()              # a milliradian at the top bin
    for theta in (70.0, 80.0, 100.0):
        tau = capon_ive.theta_to_tau(geom, theta)
        d1, d2 = searched[0](tau)
        fd1 = (spectrum(tau + h) - spectrum(tau - h)) / (2 * h)
        fd2 = (spectrum(tau + h) - 2 * spectrum(tau) + spectrum(tau - h)) / h ** 2
        assert d1 == pytest.approx(fd1, rel=1e-6)
        assert d2 == pytest.approx(fd2, rel=1e-4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-19, 1e-20])
def test_run_ive_searches_quiet_single_precision_audio(broadband_fixture, scale):
    # the snapshots' squares leave float32's range: the search runs on the
    # tensor scaled by a power of two, and the output keeps the input's scale
    fx = broadband_fixture
    ref = capon_ive.run_ive(single_precision(fx, fx.mix), fx.geom, 95.0)
    res = capon_ive.run_ive(single_precision(fx, scale * fx.mix), fx.geom, 95.0)
    assert res.converged and res.flagged_bins.size == 0
    assert res.theta_deg == pytest.approx(ref.theta_deg, abs=1e-5)
    quiet = res.extracted.astype(complex) / scale
    assert np.linalg.norm(quiet - ref.extracted) <= 1e-3 * np.linalg.norm(ref.extracted)


def test_run_ive_in_single_precision_matches_double(broadband_fixture):
    # the complex64 STFT of float32 audio, as extract forms it: the same
    # search to float32 rounding, every bin kept
    fx = broadband_fixture
    double = fx.tensor()
    single = capon_ive.stft(fx.mix.astype(np.float32), fx.fft_len, fx.hop, fx.sample_rate)
    assert single.data.dtype == np.complex64
    for theta in fx.thetas_deg:
        for offset in (5.0, -5.0):
            want = capon_ive.run_ive(double, fx.geom, theta + offset)
            got = capon_ive.run_ive(single, fx.geom, theta + offset)
            assert got.converged and want.converged, theta + offset
            assert got.flagged_bins.size == 0
            assert abs(got.iterations - want.iterations) <= 2, theta + offset
            assert got.theta_deg == pytest.approx(want.theta_deg, abs=1e-5)
            assert got.weights.dtype == np.complex128 and got.extracted.dtype == np.complex64


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


@pytest.mark.parametrize("offset", [-5.0, 5.0])
def test_srp_phat_matches_nelder_mead(broadband_fixture, offset):
    # the scalar search and the derivative-free oracle find the same peak
    fx = broadband_fixture
    tensor = fx.tensor()
    for theta_true in fx.thetas_deg:
        res = capon_ive.srp_phat(tensor, fx.geom, theta_true + offset)
        want = reference.srp_phat_nelder_mead(tensor, fx.geom, theta_true + offset)
        assert not res.stalled
        assert abs(res.theta_deg - want) < 1e-4


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


def test_wav_pcm8_roundtrip(tmp_path):
    import scipy.io.wavfile

    # 8-bit PCM is unsigned and centred at 128: silence must read as 0
    sig = np.clip(RNG(15).standard_normal((2, 4000)) * 0.3, -1.0, 127 / 128)
    sig[:, :100] = 0.0
    pcm = np.round(sig * 128.0 + 128.0).astype(np.uint8)
    path = tmp_path / "u8.wav"
    scipy.io.wavfile.write(path, 8000, pcm.T)
    rate, back = capon_ive.read_wav(path)
    assert rate == 8000
    assert back.shape == sig.shape
    assert not np.any(back[:, :100])
    assert np.max(np.abs(back - sig)) <= 0.5 / 128 + 1e-12


def scipy_read_wav(path):
    """``read_wav`` as it read files through ``scipy.io.wavfile``."""
    import scipy.io.wavfile

    rate, data = scipy.io.wavfile.read(path)
    data = np.atleast_2d(data.T if data.ndim == 2 else data)
    if data.dtype == np.uint8:
        return rate, (data.astype(float) - 128.0) / 128.0
    if data.dtype == np.int16:
        return rate, data.astype(float) / 32768.0
    if data.dtype == np.int32:
        return rate, data.astype(float) / 2147483648.0
    return rate, data.astype(float)


def _pcm(bits, channels, frames=301):
    width = (bits + 7) // 8
    return RNG(bits).integers(0, 256, frames * channels * width, dtype=np.uint8).tobytes()


def _floats(dtype, channels, frames=301):
    return (RNG(channels).standard_normal(frames * channels) * 0.3).astype(dtype).tobytes()


# (fmt chunk, other chunks before the data, data bytes)
WAV_CASES = {
    "pcm8-stereo": (wav_fmt(1, 2, 8), [], _pcm(8, 2)),
    "pcm12-mono": (wav_fmt(1, 1, 12), [], _pcm(12, 1)),
    "pcm16-mono": (wav_fmt(1, 1, 16), [], _pcm(16, 1)),
    "pcm24-3ch": (wav_fmt(1, 3, 24), [], _pcm(24, 3)),
    "pcm32-stereo": (wav_fmt(1, 2, 32), [], _pcm(32, 2)),
    "float32-5ch": (wav_fmt(3, 5, 32), [(b"fact", b"\x2d\x01\0\0")], _floats("<f4", 5)),
    "float64-mono": (wav_fmt(3, 1, 64), [], _floats("<f8", 1)),
    "extensible-pcm24-list": (
        wav_fmt(1, 2, 24, extensible=True), [(b"LIST", b"INFOabc")], _pcm(24, 2)),
    "extensible-float32-odd-junk": (
        wav_fmt(3, 2, 32, extensible=True), [(b"JUNK", b"x" * 5), (b"LIST", b"")],
        _floats("<f4", 2)),
    "odd-data-chunk": (wav_fmt(1, 1, 8), [(b"LIST", b"I")], _pcm(8, 1, frames=7)),
}


@pytest.mark.parametrize("case", list(WAV_CASES))
def test_read_wav_matches_scipy_reader(tmp_path, case):
    fmt, chunks, data = WAV_CASES[case]
    path = tmp_path / "case.wav"
    path.write_bytes(riff_bytes((b"fmt ", fmt), *chunks, (b"data", data)))
    rate, back = capon_ive.read_wav(path)
    want_rate, want = scipy_read_wav(path)
    assert rate == want_rate
    assert back.dtype == want.dtype and back.shape == want.shape
    np.testing.assert_array_equal(back, want)


@pytest.mark.parametrize("shape", [(1001,), (1, 999), (3, 1000)], ids=["mono", "one-row", "3ch"])
def test_write_wav_is_byte_identical_to_scipy(tmp_path, shape):
    import scipy.io.wavfile

    sig = RNG(16).standard_normal(shape) * 0.2
    capon_ive.write_wav(tmp_path / "ours.wav", 16000, sig)
    sig32 = sig.astype(np.float32)
    scipy.io.wavfile.write(tmp_path / "scipy.wav", 16000, sig32.T if sig32.ndim == 2 else sig32)
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


# ---------------------------------------------------------------------------
# speech-shaped noise: numpy Butterworth filters against scipy.signal
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fs", [8000, 16000, 44100])
@pytest.mark.parametrize("edges", [(150.0, 3800.0), 3.0], ids=["bandpass", "lowpass"])
def test_butterworth_filter_matches_scipy(fs, edges):
    import scipy.signal

    btype = "bandpass" if np.ndim(edges) else "lowpass"
    zpk = capon_ive._butter2(edges, fs)
    for ours, theirs in zip(zpk, scipy.signal.butter(2, edges, btype=btype, fs=fs, output="zpk")):
        np.testing.assert_allclose(ours, theirs, rtol=1e-13, atol=0)
    x = RNG(17).standard_normal(20000)
    want = scipy.signal.lfilter(*scipy.signal.butter(2, edges, btype=btype, fs=fs), x)
    got = capon_ive._zero_state_filter(zpk, x)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.sqrt(np.mean(want ** 2))


def scipy_speech_shaped_noise(rng, n, sample_rate):
    """``speech_shaped_noise`` as it was built with ``scipy.signal``."""
    import scipy.signal

    white = rng.standard_normal(n)
    b, a = scipy.signal.butter(2, [150.0, 3800.0], btype="bandpass", fs=sample_rate)
    shaped = scipy.signal.lfilter(b, a, white)
    b_env, a_env = scipy.signal.butter(2, 3.0, btype="lowpass", fs=sample_rate)
    env = np.abs(scipy.signal.lfilter(b_env, a_env, rng.standard_normal(n)))
    env = env / np.mean(env) + 0.05
    out = shaped * env
    return out / np.sqrt(np.mean(out ** 2))


# the conftest fixture's seed and the benchmark's extract-ive scene seeds
# (workload seeds 71 and 72 and the two scenes derived from each)
@pytest.mark.parametrize("seed", [2024, 71, 4204695409, 558023170, 72, 2732832790, 1744872926])
def test_speech_shaped_noise_matches_scipy_chain(seed):
    ours, theirs = RNG(seed), RNG(seed)
    for _ in range(2):
        got = capon_ive.speech_shaped_noise(ours, 80000, 16000)
        want = scipy_speech_shaped_noise(theirs, 80000, 16000)
        assert np.max(np.abs(got - want)) <= 1e-9
