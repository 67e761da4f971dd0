"""Broadband joint-parameter extension operating on STFT tensors.

A single physical parameter (the per-sensor-index delay ``tau``, reported
as a DOA in degrees) couples all frequency bins: bin ``k`` sees the
steering vector ``exp(1j omega_k tau v)``.  The bins are one stack of the
narrowband kernel, :class:`capon_ice._MpdrStack`, whose Newton steps
average the per-bin derivatives with chain-rule factors ``omega_k`` and
``omega_k^2``.  The per-bin source samples share a joint rational
nonlinearity, which ties the bins together statistically and removes the
permutation ambiguity.
"""

import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .capon_ice import (
    _STEP_CAP, _MpdrStack, _capon_spectrum, _safeguarded_newton, _steered_power,
)
from .core import COVARIANCE_EPS, covariance_factor, mpdr_weights
from .errors import DomainError, SingularCovariance
from .monte_carlo import SIR_CAP_DB


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: ``d`` sensors, ``spacing_m`` apart."""

    spacing_m: float
    d: int
    c: float = 343.0

    def __post_init__(self):
        if not 0.0 < self.spacing_m < np.inf:
            raise DomainError(f"spacing must be positive and finite, got {self.spacing_m}")
        if self.d < 2:
            raise DomainError("need at least two sensors")


@dataclass(frozen=True)
class StftTensor:
    """Complex STFT data of shape ``(K, d, n_frames)`` with K = fft_len/2+1.

    ``data`` keeps the precision it is given: complex64 data (what
    :func:`stft` makes of float32 samples) stays single precision, and any
    other data is stored as complex128.
    """

    data: np.ndarray
    sample_rate: float
    fft_len: int
    hop: int

    def __post_init__(self):
        data = np.asarray(self.data)
        data = data.astype(np.complex64 if data.dtype == np.complex64 else complex, copy=False)
        if data.ndim != 3:
            raise ValueError("expected (bins, channels, frames) tensor")
        k, d, frames = data.shape
        if k != self.fft_len // 2 + 1:
            raise ValueError(f"expected {self.fft_len // 2 + 1} bins, got {k}")
        if frames <= d:
            raise ValueError("need more frames than channels")
        object.__setattr__(self, "data", data)

    @property
    def n_bins(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def n_frames(self) -> int:
        return self.data.shape[2]

    def bin_frequencies(self) -> np.ndarray:
        return np.arange(self.n_bins) * self.sample_rate / self.fft_len


def _sqrt_hann(fft_len: int) -> np.ndarray:
    n = np.arange(fft_len)
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * n / fft_len))


def stft(signal: np.ndarray, fft_len: int, hop: int, sample_rate: float) -> StftTensor:
    """Multichannel STFT with a square-root Hann window.

    ``signal`` is ``(channels, samples)``; the signal is zero-padded by one
    window on each side so that, together with the matching synthesis window
    in :func:`istft`, the round trip reconstructs the input exactly.  That
    needs ``fft_len >= 2`` and ``1 <= hop < fft_len``; other values, or a
    NaN or infinite sample, raise :class:`DomainError`.

    float32 samples give a complex64 tensor, any other samples (int16
    included) a complex128 one.  The FFTs run in double precision either
    way; only the stored result is rounded.
    """
    if fft_len < 2:
        raise DomainError(f"FFT length must be >= 2, got {fft_len}")
    if not 1 <= hop < fft_len:
        raise DomainError(f"hop must be in [1, FFT length {fft_len}), got {hop}")
    signal = np.atleast_2d(np.asarray(signal))
    dtype = np.complex64 if signal.dtype == np.float32 else complex
    if not np.isfinite(signal).all():
        raise DomainError("signal has non-finite samples")
    d, length = signal.shape
    if length < fft_len:
        raise DomainError("signal shorter than one analysis window")
    win = _sqrt_hann(fft_len)
    pad = np.zeros(fft_len)
    n_frames = (length + fft_len) // hop + 1
    out = np.empty((fft_len // 2 + 1, d, n_frames), dtype=dtype)
    for ch in range(d):
        padded = np.concatenate([pad, signal[ch], pad], dtype=float)
        frames = np.lib.stride_tricks.sliding_window_view(padded, fft_len)[::hop]
        out[:, ch, :] = np.fft.rfft(frames * win, axis=1).T
    return StftTensor(out, sample_rate, fft_len, hop)


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum of the rows of ``frames`` ``(n_frames, fft_len)``, row ``m``
    shifted by ``m * hop`` samples."""
    n_frames, fft_len = frames.shape
    n_blocks = -(-fft_len // hop)
    out = np.zeros((n_frames + n_blocks, hop))
    # block r of frame m lands on output block m + r; taking r downwards
    # adds up every output sample in frame order, as a loop over frames would
    for r in reversed(range(n_blocks)):
        block = frames[:, r * hop: (r + 1) * hop]
        out[r: r + n_frames, : block.shape[1]] += block
    return out.ravel()[: fft_len + (n_frames - 1) * hop]


def istft(tensor: StftTensor, length: Optional[int] = None) -> np.ndarray:
    """Overlap-add inverse of :func:`stft` (square-root Hann synthesis).

    The inverse FFTs run in the tensor's precision, single for complex64
    (faster than in double, and no double copy of the spectrogram); the
    overlap-add sums in double."""
    k, d, n_frames = tensor.data.shape
    fft_len, hop = tensor.fft_len, tensor.hop
    win = _sqrt_hann(fft_len)
    wsum = _overlap_add(np.broadcast_to(win ** 2, (n_frames, fft_len)), hop)
    acc = np.empty((d, wsum.size))
    for ch in range(d):
        seg = np.fft.irfft(tensor.data[:, ch, :].T, n=fft_len, axis=1)
        seg *= win
        acc[ch] = _overlap_add(seg, hop)
    acc /= np.maximum(wsum, 1e-12)
    out = acc[:, fft_len:]
    if length is not None:
        out = out[:, :length]
    return out


def istft_mono(spec: np.ndarray, reference: StftTensor, length: Optional[int] = None) -> np.ndarray:
    """Inverse STFT of a single-channel spectrogram ``(K, n_frames)``."""
    mono = StftTensor(
        spec[:, None, :], reference.sample_rate, reference.fft_len, reference.hop
    )
    return istft(mono, length)[0]


def theta_to_tau(geom: ArrayGeometry, theta_deg: float) -> float:
    """Per-sensor-index delay for a far-field source at ``theta_deg``.

    Broadside (90 degrees) maps to zero delay; the cosine convention makes
    ``tau`` span ``[-spacing/c, spacing/c]`` over 180..0 degrees.
    """
    return geom.spacing_m * np.cos(np.radians(theta_deg)) / geom.c


def tau_to_theta(geom: ArrayGeometry, tau_s: float) -> float:
    return float(np.degrees(np.arccos(np.clip(tau_s * geom.c / geom.spacing_m, -1.0, 1.0))))


@dataclass(frozen=True)
class IveResult:
    theta_deg: float
    tau_s: float
    iterations: int                     # of the search from the Capon-spectrum peak
    start_iterations: int               # of the climb to that peak
    converged: bool
    weights: np.ndarray                 # (K, d) per-bin separating vectors
    extracted: np.ndarray               # (K, n_frames) extracted spectrogram
    included_bins: np.ndarray
    alias_bins: np.ndarray
    flagged_bins: np.ndarray            # bins dropped: their covariance does not factor
    gradient_fallbacks: int             # Newton steps taken as ascent steps


def _included_bins(tensor: StftTensor, fmin_hz: float) -> np.ndarray:
    """The bins at or above ``fmin_hz``, Nyquist excluded; none raises
    :class:`DomainError`."""
    mask = tensor.bin_frequencies() >= fmin_hz
    mask[-1] = False
    if not mask.any():
        raise DomainError(f"no frequency bins at or above {fmin_hz} Hz below Nyquist")
    return np.flatnonzero(mask)


def _take_bins(data: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """``data[bins]``, as a view of ``data`` when the bins are one
    increasing run (the included bins are), a copy otherwise."""
    first = bins[0]
    if np.array_equal(bins, np.arange(first, first + bins.size)):
        return data[first: first + bins.size]
    return data[bins]


def _covariances(x: np.ndarray) -> np.ndarray:
    """Sample covariance of each ``(d, frames)`` matrix of the stack ``x``,
    as :func:`core.sample_covariance` forms one, with no conjugated copy
    of ``x``.  The products are summed in ``x``'s precision; the
    covariances are complex128."""
    # vecdot conjugates its first argument: c[k, i, j] = mean_t x_ki conj(x_kj)
    c = np.vecdot(x[:, None, :, :], x[:, :, None, :]).astype(complex, copy=False)
    c /= x.shape[-1]
    return 0.5 * (c + np.conj(np.swapaxes(c, -1, -2)))


def _loaded_factors(c: np.ndarray, eps: float):
    """:func:`covariance_factor` of each matrix of the stack ``c`` at the
    relative loading ``eps``; returns ``(factors, ok)``, ``ok[k]`` false
    where matrix ``k`` does not factor (its factor is left zero).  The
    whole stack is factored at once, and matrix by matrix only if that
    fails."""
    ok = np.ones(len(c), dtype=bool)
    try:
        return covariance_factor(c, eps), ok
    except SingularCovariance:
        pass
    factors = np.zeros_like(c)
    for k, ck in enumerate(c):
        try:
            factors[k] = covariance_factor(ck, eps)
        except SingularCovariance:
            ok[k] = False
    return factors, ok


def _bin_stack(tensor, geom, fmin_hz, bins=None, covariances=None):
    """The included bins of a tensor as one :class:`capon_ice._MpdrStack`
    steered by the delay, its snapshots a view of the tensor; returns
    ``(kernel, bins, flagged)``, ``bins`` being the bins of the stack.
    ``covariances`` is the :func:`_covariances` stack of all the tensor's
    bins, computed when omitted.  A bin whose covariance does not factor
    at the solver loading is flagged and dropped.
    """
    if geom.d != tensor.n_channels:
        raise ValueError("geometry channel count does not match the tensor")
    if bins is None:
        bins = _included_bins(tensor, fmin_hz)
    bins = np.asarray(bins, dtype=int)
    if covariances is None:
        covariances = _covariances(tensor.data)
    x = _take_bins(tensor.data, bins)
    c = _take_bins(covariances, bins)
    factors, ok = _loaded_factors(c, COVARIANCE_EPS)
    flagged = bins[~ok]
    if not ok.any():
        raise SingularCovariance("every included bin has a singular covariance")
    if flagged.size:
        bins = bins[ok]
        x = _take_bins(tensor.data, bins)
        c, factors = c[ok], factors[ok]
    omegas = 2.0 * np.pi * tensor.bin_frequencies()[bins]
    kernel = _MpdrStack(x, c, factors, np.arange(geom.d, dtype=float), omegas)
    return kernel, bins, flagged


def _delay_search(geom, tau, omegas, derivatives, max_iters):
    """The scalar search of :func:`run_ive` from the delay ``tau``, for bins
    at ``omegas``: its step cap, clip to ``|tau| <= spacing/c`` and stop."""
    tau_max = geom.spacing_m / geom.c

    def clip(tau):
        return float(np.clip(tau, -tau_max, tau_max))

    return _safeguarded_newton(
        clip(tau), derivatives, _STEP_CAP / float(np.max(omegas)), 2.0 * tau_max, clip,
        max_iters,
    )


def _capon_peak(kernel, geom, tau, max_iters):
    """The peak of the broadband Capon spectrum
    ``-mean_k log(a_k^H C_k^-1 a_k)`` over the bins of ``kernel`` that
    :func:`_delay_search` climbs to from ``tau``; returns ``(tau, iterations)``.
    An evaluation costs ``O(B d^2)`` on the kernel's factors, with no pass
    over the frames."""
    f = kernel.factors
    inverses = np.conj(np.swapaxes(f, -1, -2)) @ f          # C^-1 = G^H G
    derivatives = _capon_spectrum(inverses, kernel.omegas[:, None] * kernel.v)
    peak, iterations, _, _ = _delay_search(geom, tau, kernel.omegas, derivatives, max_iters)
    return peak, iterations


def run_ive(
    tensor: StftTensor,
    geom: ArrayGeometry,
    theta_ini_deg: float,
    max_iters: int = 100,
    fmin_hz: float = 100.0,
) -> IveResult:
    """Joint bracketed Newton search over the single delay parameter, from
    the DOA ``theta_ini_deg`` (degrees), at most ``max_iters`` iterations.

    The search starts at the peak of the broadband Capon spectrum
    ``-mean_k log(a_k^H C_k^-1 a_k)`` that the same scalar search climbs to
    from ``theta_ini_deg``, in at most ``max_iters`` iterations of
    ``O(bins d^2)`` each on the bins' covariance factors
    (``start_iterations``); ``iterations`` counts the search from there.
    Per iteration each included bin rebuilds its steering vector,
    distortionless weights and normalized source samples; the joint
    rational nonlinearity

        phi_k(u) = conj(u_k) / (1 + sum_k |u_k|^2)

    couples the bins.  The delay update averages the per-bin first and
    second derivatives with chain-rule factors ``omega_k`` and
    ``omega_k^2`` and follows the narrowband step rule
    (:func:`capon_ice._safeguarded_newton`); steps are capped so the top
    included bin moves at most 0.5 radians, and the delay stays in the
    physical range ``|tau| <= spacing/c``.  The search has converged when a
    step or the bracket falls to 1e-9 of that range, ``2 spacing/c``, or
    when it rests on an end of the range.  Bins below ``fmin_hz`` and the
    Nyquist bin are excluded.  When the loudest bin's power lies outside
    ``[sqrt(tiny), sqrt(max)]`` of the tensor's precision (single precision
    audio near 1e-19 of full scale), both searches run on the tensor scaled
    by the power of two that brings that power near 1, which is exact; the
    result is on the input's scale.  A non-finite start raises
    :class:`DomainError`.
    """
    if not np.isfinite(theta_ini_deg):
        raise DomainError(f"theta_ini_deg must be finite, got {theta_ini_deg}")
    covariances = _covariances(tensor.data)
    searched = tensor
    # the search squares the snapshots in their own precision
    info = np.finfo(tensor.data.real.dtype)
    loudest = np.max(np.real(np.diagonal(covariances, axis1=-2, axis2=-1)))
    if not np.sqrt(info.tiny) <= loudest <= np.sqrt(info.max):
        scale = info.dtype.type(2.0 ** -(np.frexp(loudest)[1] // 2))
        searched = StftTensor(tensor.data * scale, tensor.sample_rate, tensor.fft_len, tensor.hop)
        covariances = _covariances(searched.data)
    kernel, bins, flagged = _bin_stack(searched, geom, fmin_hz, covariances=covariances)
    start, start_iterations = _capon_peak(
        kernel, geom, theta_to_tau(geom, theta_ini_deg), max_iters
    )
    tau, iterations, converged, fallbacks = _delay_search(
        geom, start, kernel.omegas, kernel.joint_derivatives, max_iters
    )
    weights, extracted = _beamform(
        tensor, geom, tau_to_theta(geom, tau), covariances, EXTRACTION_LOADING
    )
    alias = np.flatnonzero(np.abs(2.0 * np.pi * tensor.bin_frequencies() * tau) > np.pi)
    return IveResult(
        theta_deg=tau_to_theta(geom, tau),
        tau_s=tau,
        iterations=iterations,
        start_iterations=start_iterations,
        converged=converged,
        weights=weights,
        extracted=extracted,
        included_bins=bins,
        alias_bins=alias,
        flagged_bins=flagged,
        gradient_fallbacks=fallbacks,
    )


EXTRACTION_LOADING = 3e-3


def beamform_at(
    tensor: StftTensor,
    geom: ArrayGeometry,
    theta_deg: float,
    loading: float = EXTRACTION_LOADING,
):
    """Per-bin distortionless weights at a fixed DOA, plus the extracted
    spectrogram; returns ``(weights (K, d), extracted (K, n_frames))``.
    The weights are complex128; the spectrogram has the tensor's dtype.

    ``loading`` is the relative diagonal load of the per-bin covariances.
    The default is far heavier than the solver epsilon used during the
    parameter search: a broadband source spreads over each STFT bin, so the
    bin-center steering vector is slightly mismatched and an unloaded MPDR
    would partially cancel the target (superdirective self-nulling).  Bins
    whose MPDR problem is singular fall back to passing channel 0 through
    unchanged.
    """
    if geom.d != tensor.n_channels:
        raise ValueError("geometry channel count does not match the tensor")
    return _beamform(tensor, geom, theta_deg, _covariances(tensor.data), loading)


def _beamform(tensor, geom, theta_deg, covariances, loading):
    """:func:`beamform_at` given the :func:`_covariances` stack of all the
    tensor's bins."""
    k_all, d, _ = tensor.data.shape
    tau = theta_to_tau(geom, theta_deg)
    omegas = 2.0 * np.pi * tensor.bin_frequencies()
    a = np.exp(1j * np.outer(omegas * tau, np.arange(d, dtype=float)))
    factors, ok = _loaded_factors(covariances, loading)
    weights = np.zeros((k_all, d), dtype=complex)
    weights[ok], _ = mpdr_weights(factors[ok], a[ok])
    weights[~ok, 0] = 1.0
    w_h = weights.conj().astype(tensor.data.dtype, copy=False)
    extracted = np.matmul(w_h[:, None, :], tensor.data)[:, 0]
    extracted[~ok] = tensor.data[~ok, 0]
    return weights, extracted


@dataclass(frozen=True)
class SrpPhatResult:
    theta_deg: float
    stalled: bool


def srp_phat(
    tensor: StftTensor,
    geom: ArrayGeometry,
    theta_ini_deg: float,
    fmin_hz: float = 100.0,
) -> SrpPhatResult:
    """Steered-response power with phase transform, refined by a local
    search from ``theta_ini_deg``.

    The per-bin cross-spectra are PHAT-normalized elementwise and averaged
    over frames; the steered power is maximized in the delay by the scalar
    search of :func:`run_ive`, at most 100 iterations.  If the power there
    shows no spatial structure the initial angle is returned with
    ``stalled=True``.  A non-finite start raises :class:`DomainError`.
    """
    if not np.isfinite(theta_ini_deg):
        raise DomainError(f"theta_ini_deg must be finite, got {theta_ini_deg}")
    if geom.d != tensor.n_channels:
        raise ValueError("geometry channel count does not match the tensor")
    included = _included_bins(tensor, fmin_hz)
    omegas = 2.0 * np.pi * tensor.bin_frequencies()[included]
    xn = tensor.data[included]
    r = _covariances(xn / np.maximum(np.abs(xn), 1e-30))
    phases = omegas[:, None] * np.arange(geom.d, dtype=float)
    tau, _, _, _ = _delay_search(
        geom, theta_to_tau(geom, theta_ini_deg), omegas,
        lambda tau: _steered_power(r, phases, tau)[1:], 100,
    )
    theta = tau_to_theta(geom, tau)
    # the PHAT-normalized diagonal contributes exactly K*d; the off-diagonal
    # mass measures spatial coherence.  No coherence -> flagged stall.
    baseline = included.size * geom.d
    structure = (_steered_power(r, phases, tau)[0] - baseline) / (baseline * (geom.d - 1))
    stalled = structure < 0.01
    if stalled:
        theta = float(theta_ini_deg)
    return SrpPhatResult(theta_deg=theta, stalled=stalled)


# ---------------------------------------------------------------------------
# WAV handling and synthesis of anechoic phase-shift mixtures
# ---------------------------------------------------------------------------

# the KSDATAFORMAT sub-format GUID of WAVE_FORMAT_EXTENSIBLE after its tag
_SUBFORMAT_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def read_wav(path):
    """Read a RIFF WAV file as ``(sample_rate, (channels, samples) float64)``.

    Accepts PCM of 1 to 32 bits and 32- or 64-bit float, plain or as
    ``WAVE_FORMAT_EXTENSIBLE``, and skips other chunks (``LIST``, ...).  PCM
    of 8 bits or fewer is unsigned and reads as ``(x - 128) / 128``; wider
    PCM is scaled to [-1, 1) by its container (16-bit by 2**15, 24-bit by
    2**23, 32-bit by 2**31).  A file that is not RIFF/WAVE, has no ``fmt ``
    chunk before its ``data`` chunk or no ``data`` chunk, or another format
    tag or bit depth, zero channels or a block alignment other than
    channels x sample bytes raises :class:`DomainError`.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise DomainError(f"{path} is not a RIFF/WAVE file")
    pos, fmt = 12, b""
    while True:
        if pos + 8 > len(buf):
            raise DomainError(f"{path} has no data chunk")
        chunk_id, size = struct.unpack_from("<4sI", buf, pos)
        body = buf[pos + 8: pos + 8 + size]
        if chunk_id == b"data":
            break
        if chunk_id == b"fmt ":
            fmt = body
        pos += 8 + size + size % 2
    if len(fmt) < 16:
        raise DomainError(f"{path} has no valid fmt chunk before its data chunk")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == 0xFFFE and fmt[28:40] == _SUBFORMAT_TAIL:
        tag = struct.unpack_from("<I", fmt, 24)[0]
    if not (tag == 1 and 1 <= bits <= 32 or tag == 3 and bits in (32, 64)):
        raise DomainError(f"unsupported WAV format: tag {tag:#x}, {bits} bits")
    width = (bits + 7) // 8
    if channels == 0 or block_align != channels * width:
        raise DomainError(f"bad WAV block alignment {block_align} for {channels} x {bits} bits")
    count = len(body) // block_align * channels
    if tag == 3:
        data = np.frombuffer(body, f"<f{width}", count).astype(float)
    elif width == 1:
        data = (np.frombuffer(body, np.uint8, count).astype(float) - 128.0) / 128.0
    else:
        # each sample left-justified in 4 bytes: all wider PCM reads as int32
        padded = np.zeros((count, 4), dtype=np.uint8)
        padded[:, 4 - width:] = np.frombuffer(body, np.uint8, count * width).reshape(-1, width)
        data = padded.view("<i4")[:, 0].astype(float) / 2147483648.0
    return rate, data.reshape(-1, channels).T


def write_wav(path, sample_rate: float, signal: np.ndarray):
    """Write a mono or multichannel float32 WAV: IEEE float ``fmt `` chunk
    with ``cbSize``, ``fact`` chunk, interleaved samples."""
    signal = np.asarray(signal, dtype=np.float32)
    ch = signal.shape[0] if signal.ndim == 2 else 1
    data = np.ascontiguousarray(signal.T, dtype="<f4").tobytes()
    rate = int(sample_rate)
    with open(path, "wb") as fh:
        # RIFF size: "WAVE", fmt (8 + 18), fact (8 + 4) and data (8 + samples)
        fh.write(struct.pack("<4sI4s4sIHHIIHHH4sII4sI", b"RIFF", 50 + len(data), b"WAVE",
                             b"fmt ", 18, 3, ch, rate, rate * 4 * ch, 4 * ch, 32, 0,
                             b"fact", 4, len(data) // (4 * ch), b"data", len(data)))
        fh.write(data)


def _butter2(edges, sample_rate: float):
    """Zeros, poles and gain of the order-2 digital Butterworth filter with
    ``edges`` in Hz, low-pass for one edge and band-pass for two, by the
    steps of ``scipy.signal.butter(2, edges, fs=sample_rate,
    output="zpk")``: analog prototype, pre-warped edges, low-pass scaling
    or ``lp2bp``, bilinear transform."""
    warped = 4.0 * np.tan(np.pi * (np.atleast_1d(edges) / (sample_rate / 2)) / 2.0)
    p = -np.exp(1j * np.pi * np.array([-1.0, 1.0]) / 4)
    if warped.size == 1:
        z, p, k = np.zeros(0), warped[0] * p, warped[0] ** 2
    else:
        bw, wo = warped[1] - warped[0], np.sqrt(warped[0] * warped[1])
        p = p * bw / 2
        root = np.sqrt(p ** 2 - wo ** 2)
        z, p, k = np.zeros(2), np.concatenate([p + root, p - root]), bw ** 2
    z_z = np.concatenate([(4.0 + z) / (4.0 - z), -np.ones(p.size - z.size)])
    return z_z, (4.0 + p) / (4.0 - p), k * np.real(np.prod(4.0 - z) / np.prod(4.0 - p))


def _zero_state_filter(zpk, x: np.ndarray) -> np.ndarray:
    """``x`` through the filter ``zpk`` (as many zeros as distinct poles)
    from zero state, as ``scipy.signal.lfilter`` gives it: one real FFT
    convolution of length ``2 n`` with the first ``n`` samples of the
    impulse response, ``h[0] = k`` and ``h[t] = sum_j r_j p_j^t``."""
    z, p, k = zpk
    n = x.size
    ratios = p[None, :] / p[:, None]
    np.fill_diagonal(ratios, 0.0)
    r = k * np.prod(1.0 - z / p[:, None], axis=1) / np.prod(1.0 - ratios, axis=1)
    # spectrum of h[:n] at the 2n-point bins: k plus, per pole, the
    # geometric series sum_{t=1}^{n-1} q^t with q = p e^(-i pi f / n)
    f = np.arange(n + 1)
    rotation, sign = np.exp(-1j * np.pi * f / n), 1 - 2 * (f % 2)
    spectrum = np.full(n + 1, k, dtype=complex)
    for p_j, r_j in zip(p, r):
        q = p_j * rotation
        spectrum += r_j * (q - p_j ** n * sign) / (1.0 - q)
    return np.fft.irfft(np.fft.rfft(x, 2 * n) * spectrum, 2 * n)[:n]


def speech_shaped_noise(rng: np.random.Generator, n: int, sample_rate: float) -> np.ndarray:
    """Spectrally tilted noise with a slow random amplitude envelope.

    White noise through an order-2 Butterworth band-pass (150-3800 Hz),
    times the magnitude of white noise through an order-2 3 Hz low-pass.
    The envelope gives the across-frequency dependence and the
    super-Gaussian marginals that make the source identifiable for the
    joint nonlinearity.  The filters are scipy's Butterworth designs, run as
    ``lfilter`` would from zero state; the output equals that scipy chain to
    about 1e-10 of its RMS.
    """
    white = rng.standard_normal(n)
    shaped = _zero_state_filter(_butter2((150.0, 3800.0), sample_rate), white)
    env = np.abs(_zero_state_filter(_butter2(3.0, sample_rate), rng.standard_normal(n)))
    env = env / np.mean(env) + 0.05
    out = shaped * env
    return out / np.sqrt(np.mean(out ** 2))


def anechoic_phase_mix(
    sources: np.ndarray,
    thetas_deg: Sequence[float],
    geom: ArrayGeometry,
    sample_rate: float,
) -> np.ndarray:
    """Mix sources onto the array with exact per-bin phase shifts.

    Each source is fractionally delayed per sensor via a full-length FFT,
    so the mixture obeys ``x_k = sum_s a_k(theta_s) s_{s,k}`` at every
    frequency (the far-field anechoic model).
    """
    sources = np.atleast_2d(sources)
    n_sources, length = sources.shape
    if n_sources != len(thetas_deg):
        raise ValueError("one DOA per source required")
    omega = 2.0 * np.pi * np.fft.rfftfreq(length, 1.0 / sample_rate)
    out = np.zeros((geom.d, length))
    for src, theta in zip(sources, thetas_deg):
        tau = theta_to_tau(geom, theta)
        spec = np.fft.rfft(src)
        for j in range(geom.d):
            out[j] += np.fft.irfft(spec * np.exp(1j * omega * tau * j), n=length)
    return out


def projected_sir_db(y: np.ndarray, ref: np.ndarray) -> float:
    """SIR of ``y`` against a reference by least-squares projection.

    The projection is one scalar gain, so ``ref`` must be time-aligned with
    ``y`` (for a mix channel, the source's image at that microphone); a
    delayed or filtered reference reads low.
    """
    n = min(y.size, ref.size)
    y, ref = y[:n], ref[:n]
    denom = float(ref @ ref)
    if denom <= 0.0:
        return -SIR_CAP_DB
    alpha = float(ref @ y) / denom
    target = alpha * ref
    resid = y - target
    p_t = float(target @ target)
    p_r = float(resid @ resid)
    if p_r <= 0.0:
        return SIR_CAP_DB
    if p_t <= 0.0:
        return -SIR_CAP_DB
    return float(np.clip(10.0 * np.log10(p_t / p_r), -SIR_CAP_DB, SIR_CAP_DB))


def sir_improvement_db(y: np.ndarray, mix_channel: np.ndarray, refs: np.ndarray):
    """Output-minus-input SIR against the best-matching reference.

    Returns ``(improvement_db, soi, sir_in_db, sir_out_db)``; the SOI
    is the reference with the highest projected SIR in the output.  Each
    reference must be its source's image at the microphone of
    ``mix_channel``, time-aligned with it (see :func:`projected_sir_db`):
    with the dry signals of sources 1.5 m away in a simulated direct-path
    room, the improvement read -0.3 and -9.8 dB where the exact output-SIR
    gain was about 19 dB.
    """
    refs = np.atleast_2d(refs)
    sirs = [projected_sir_db(y, ref) for ref in refs]
    soi = int(np.argmax(sirs))
    sir_out = sirs[soi]
    sir_in = projected_sir_db(mix_channel, refs[soi])
    return sir_out - sir_in, soi, sir_in, sir_out
