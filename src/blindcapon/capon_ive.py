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

import functools
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .capon_ice import (
    _STEP_CAP, _MpdrStack, _capon_spectrum, _safeguarded_newton, _steered_powers,
)
from .core import (
    COVARIANCE_EPS, SIR_CAP_DB, SteeringModel, capped_sir_db, covariance_factor, mpdr_weights,
    sample_covariance, steering, ula,
)
from .errors import DomainError, SingularCovariance


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

    @property
    def model(self) -> SteeringModel:
        """The sensors' positions in units of ``spacing_m`` as a steering
        model: bin ``omega`` sees the delay ``tau`` as ``steering(model, omega * tau)``."""
        return ula(self.d)


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
            raise DomainError(f"need more frames than channels, got {frames} for {d} channels")
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

    @functools.cached_property
    def scaled(self):
        """``(x, c)``: the data as :func:`run_ive`, :func:`srp_phat` and
        :func:`beamform_at` use it, and the :func:`core.sample_covariance`
        of each bin of ``x``, formed on first use.

        ``x`` is ``data`` unless a bin's power lies outside ``[sqrt(tiny),
        sqrt(max)]`` of its precision (single precision audio near 1e-19 of
        full scale, or bins that span more than that range).  Then ``x`` is
        a copy with each bin scaled by the power of two that brings its
        power near 1; a bin below ``sqrt(tiny)`` takes its level from its
        largest sample instead, as the squares behind its power may have
        underflowed.  The scaling is exact, and the solvers' results are
        invariant to it.
        """
        x = self.data
        c = sample_covariance(x)
        # the solvers square the snapshots in their own precision
        info = np.finfo(x.real.dtype)
        power = np.max(np.real(np.diagonal(c, axis1=-2, axis2=-1)), axis=-1)
        # a bin this quiet may have had its squares underflow: its largest
        # sample, squared in double, gives its level (zero for a silent bin)
        low = power < np.sqrt(info.tiny)
        if low.any():
            power[low] = np.max(np.abs(x[low]), axis=(1, 2)).astype(float) ** 2
        # silent bins aside, each bin's power must lie in [sqrt(tiny), sqrt(max)]
        if np.any((power > 0.0) & (low | (power > np.sqrt(info.max)))):
            x = x * np.ldexp(info.dtype.type(1.0), -(np.frexp(power)[1] // 2))[:, None, None]
            c = sample_covariance(x)
        return x, c


def _sqrt_hann(fft_len: int) -> np.ndarray:
    n = np.arange(fft_len)
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * n / fft_len))


# frames windowed and transformed at a time by stft; 16 to 128 run alike
_STFT_BLOCK = 64


def stft(signal: np.ndarray, fft_len: int, hop: int, sample_rate: float) -> StftTensor:
    """Multichannel STFT with a square-root Hann window.

    ``signal`` is ``(channels, samples)``; the signal is zero-padded by one
    window on each side so that :func:`istft` of the tensor's ``data``, with
    the matching synthesis window, reconstructs the input exactly.  That
    needs ``fft_len >= 2`` and ``1 <= hop < fft_len``; other values, a NaN
    or infinite sample, or no more frames than channels raise
    :class:`DomainError`.

    float32 samples give a complex64 tensor, any other samples (int16
    included) a complex128 one.  The FFTs run in double precision either
    way; only the stored result is rounded.  Each channel's frames stream
    through one reused block, windowed there and transformed into the
    tensor: beyond the tensor, the memory is that block and one padded
    channel.  Each frame's FFT is independent of its block, so the tensor
    is bit-identical to one transform of all the frames.
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
    windowed = np.empty((_STFT_BLOCK, fft_len))
    for ch in range(d):
        padded = np.concatenate([pad, signal[ch], pad], dtype=float)
        frames = np.lib.stride_tricks.sliding_window_view(padded, fft_len)[::hop]
        for start in range(0, n_frames, _STFT_BLOCK):
            block = np.multiply(
                frames[start: start + _STFT_BLOCK], win, out=windowed[: n_frames - start]
            )
            out[:, ch, start: start + len(block)] = np.fft.rfft(block, axis=1).T
    return StftTensor(out, sample_rate, fft_len, hop)


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum over the frame axis of ``frames`` ``(..., n_frames, fft_len)``,
    frame ``m`` shifted by ``m * hop`` samples."""
    *lead, n_frames, fft_len = frames.shape
    n_blocks = -(-fft_len // hop)
    out = np.zeros((*lead, n_frames + n_blocks, hop))
    # block r of frame m lands on output block m + r; taking r downwards
    # adds up every output sample in frame order, as a loop over frames would
    for r in reversed(range(n_blocks)):
        block = frames[..., r * hop: (r + 1) * hop]
        out[..., r: r + n_frames, : block.shape[-1]] += block
    return out.reshape(*lead, -1)[..., : fft_len + (n_frames - 1) * hop]


def istft(spec: np.ndarray, fft_len: int, hop: int, length: Optional[int] = None) -> np.ndarray:
    """Overlap-add inverse of :func:`stft` (square-root Hann synthesis).

    ``spec`` is ``(K, ..., n_frames)``: one channel's ``(K, n_frames)``
    gives ``(samples,)`` and a tensor's ``data`` gives ``(d, samples)``.
    The inverse FFTs run in the spectrogram's precision, single for
    complex64 (faster than in double, and no double copy of the
    spectrogram); the overlap-add sums in double."""
    win = _sqrt_hann(fft_len)
    seg = np.fft.irfft(np.moveaxis(spec, 0, -1), n=fft_len, axis=-1)
    seg *= win
    wsum = _overlap_add(np.broadcast_to(win ** 2, seg.shape[-2:]), hop)
    out = _overlap_add(seg, hop)
    out /= np.maximum(wsum, 1e-12)
    return out[..., fft_len:][..., :length]


def theta_to_tau(geom: ArrayGeometry, theta_deg: float) -> float:
    """Per-sensor-index delay for a far-field source at ``theta_deg``.

    Broadside (90 degrees) maps to zero delay; the cosine convention makes
    ``tau`` span ``[-spacing/c, spacing/c]`` over 180..0 degrees.  A
    non-finite angle raises :class:`DomainError`.
    """
    if not np.isfinite(theta_deg):
        raise DomainError(f"DOA must be finite, got {theta_deg} degrees")
    return geom.spacing_m * np.cos(np.radians(theta_deg)) / geom.c


def tau_to_theta(geom: ArrayGeometry, tau_s: float) -> float:
    return float(np.degrees(np.arccos(np.clip(tau_s * geom.c / geom.spacing_m, -1.0, 1.0))))


@dataclass(frozen=True)
class IveResult:
    theta_deg: float
    iterations: int                     # of the search from the Capon-spectrum peak
    start_iterations: int               # of the climb to that peak
    start_fallbacks: int                # of the climb, as gradient_fallbacks
    converged: bool
    included_bins: np.ndarray
    alias_bins: np.ndarray
    flagged_bins: np.ndarray            # bins dropped: their covariance does not factor
    gradient_fallbacks: int             # of the search: steps where d2 >= 0 (ascent or growth)


def _included_bins(tensor: StftTensor, fmin_hz: float) -> slice:
    """The bins at or above ``fmin_hz``, below the Nyquist bin of an even
    ``fft_len``, as one slice: the bin frequencies increase, so those bins
    are one run.  None (a NaN ``fmin_hz`` included) raises
    :class:`DomainError`."""
    first = int(np.searchsorted(tensor.bin_frequencies(), fmin_hz))
    stop = tensor.n_bins - 1 + tensor.fft_len % 2
    if first >= stop:
        raise DomainError(f"no frequency bins at or above {fmin_hz} Hz below Nyquist")
    return slice(first, stop)


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


def _bin_stack(tensor, geom, fmin_hz):
    """The included bins of a tensor's :attr:`StftTensor.scaled` data as
    one :class:`capon_ice._MpdrStack` steered by the delay; returns
    ``(kernel, bins, flagged)``, ``bins`` being the bins of the stack.  The
    included bins are one slice (:func:`_included_bins`), so the stack's
    snapshots and covariances are views of that data and its covariances.
    A bin whose covariance does not factor at the solver
    loading is flagged and dropped by a boolean mask, which copies.
    """
    if geom.d != tensor.n_channels:
        raise ValueError("geometry channel count does not match the tensor")
    included = _included_bins(tensor, fmin_hz)
    bins = np.arange(tensor.n_bins)[included]
    x, c = (array[included] for array in tensor.scaled)
    factors, ok = _loaded_factors(c, COVARIANCE_EPS)
    if not ok.any():
        raise SingularCovariance("every included bin has a singular covariance")
    flagged = bins[~ok]
    if flagged.size:
        bins, x, c, factors = bins[ok], x[ok], c[ok], factors[ok]
    omegas = 2.0 * np.pi * tensor.bin_frequencies()[bins]
    kernel = _MpdrStack(x, c, factors, geom.model, omegas)
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
    ``O(bins d)`` each (``start_iterations``): the climb that also starts
    the narrowband search, :func:`capon_ice._capon_spectrum` of the bin
    stack.  ``iterations`` counts the search from there.
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
    step falls to 1e-9 of that range, ``2 spacing/c``, or when it rests on
    an end of the range.  Bins below ``fmin_hz`` and the Nyquist bin of an
    even FFT length are excluded.  Both searches run on the tensor's
    :attr:`StftTensor.scaled` data, whose quiet bins are scaled by exact
    powers of two.  The result is the direction alone: :func:`beamform_at`
    forms the extraction weights there.  A non-finite start raises
    :class:`DomainError`.
    """
    tau_ini = theta_to_tau(geom, theta_ini_deg)
    kernel, bins, flagged = _bin_stack(tensor, geom, fmin_hz)
    derivatives, _ = _capon_spectrum(kernel)
    start, start_iterations, _, start_fallbacks = _delay_search(
        geom, tau_ini, kernel.omegas, derivatives, max_iters
    )
    tau, iterations, converged, fallbacks = _delay_search(
        geom, start, kernel.omegas, kernel.joint_derivatives, max_iters
    )
    alias = np.flatnonzero(np.abs(2.0 * np.pi * tensor.bin_frequencies() * tau) > np.pi)
    return IveResult(
        theta_deg=tau_to_theta(geom, tau),
        iterations=iterations,
        start_iterations=start_iterations,
        start_fallbacks=start_fallbacks,
        converged=converged,
        included_bins=bins,
        alias_bins=alias,
        flagged_bins=flagged,
        gradient_fallbacks=fallbacks,
    )


EXTRACTION_LOADING = 3e-3


def beamform_at(tensor: StftTensor, geom: ArrayGeometry, theta_deg: float):
    """Per-bin distortionless weights at a fixed DOA, plus the extracted
    spectrogram; returns ``(weights (K, d), extracted (K, n_frames))``.
    The weights are complex128; the spectrogram has the tensor's dtype.

    The per-bin covariances take the relative diagonal load
    ``EXTRACTION_LOADING``, far heavier than the solver epsilon used during
    the parameter search: a broadband source spreads over each STFT bin, so
    the bin-center steering vector is slightly mismatched and an unloaded
    MPDR would partially cancel the target (superdirective self-nulling).  The
    weights solve with the :attr:`StftTensor.scaled` covariances, to whose
    exact power-of-two scaling they are invariant, and apply to the
    tensor's own data.  Bins whose MPDR problem is singular fall back to
    passing channel 0 through unchanged.
    """
    if geom.d != tensor.n_channels:
        raise ValueError("geometry channel count does not match the tensor")
    omegas = 2.0 * np.pi * tensor.bin_frequencies()
    a = steering(geom.model, omegas * theta_to_tau(geom, theta_deg))
    _, covariances = tensor.scaled
    factors, ok = _loaded_factors(covariances, EXTRACTION_LOADING)
    weights = np.zeros_like(a)
    weights[ok], _ = mpdr_weights(factors[ok], a[ok])
    weights[~ok, 0] = 1.0
    w_h = weights.conj().astype(tensor.data.dtype, copy=False)
    extracted = np.matmul(w_h[:, None, :], tensor.data)[:, 0]
    extracted[~ok] = tensor.data[~ok, 0]
    return weights, extracted


# bins PHAT-normalized at a time by srp_phat
_PHAT_BLOCK = 64


@dataclass(frozen=True)
class SrpPhatResult:
    theta_deg: float
    stalled: bool


def srp_phat(
    tensor: StftTensor,
    geom: ArrayGeometry,
    theta_ini_deg: float,
    max_iters: int = 100,
    fmin_hz: float = 100.0,
) -> SrpPhatResult:
    """Steered-response power with phase transform, refined by a local
    search from ``theta_ini_deg``.

    The per-bin cross-spectra of the :attr:`StftTensor.scaled` data are
    PHAT-normalized elementwise and averaged over frames; the steered power
    is maximized in the delay by the scalar search of :func:`run_ive`, at
    most ``max_iters`` iterations.  If the power there
    shows no spatial structure the initial angle is returned with
    ``stalled=True``.  A non-finite start raises :class:`DomainError`.
    """
    tau_ini = theta_to_tau(geom, theta_ini_deg)
    if geom.d != tensor.n_channels:
        raise ValueError("geometry channel count does not match the tensor")
    included = _included_bins(tensor, fmin_hz)
    omegas = 2.0 * np.pi * tensor.bin_frequencies()[included]
    x = tensor.scaled[0][included]
    # the PHAT-normalized snapshots exist a block of bins at a time; each
    # bin's covariance is its own product, so blocking does not change it
    r = np.empty((len(x), geom.d, geom.d), dtype=complex)
    for start in range(0, len(x), _PHAT_BLOCK):
        xn = x[start: start + _PHAT_BLOCK]
        r[start: start + len(xn)] = sample_covariance(xn / np.maximum(np.abs(xn), 1e-30))
    powers = _steered_powers(r, omegas, geom.model.v)
    tau, _, _, _ = _delay_search(
        geom, tau_ini, omegas,
        lambda tau: tuple(float(np.sum(term)) for term in powers(tau)[1:]), max_iters,
    )
    theta = tau_to_theta(geom, tau)
    # the PHAT-normalized diagonal contributes exactly K*d; the off-diagonal
    # mass measures spatial coherence.  No coherence -> flagged stall.
    baseline = len(x) * geom.d
    structure = (float(np.sum(powers(tau)[0])) - baseline) / (baseline * (geom.d - 1))
    stalled = structure < 0.01
    if stalled:
        theta = float(theta_ini_deg)
    return SrpPhatResult(theta_deg=theta, stalled=stalled)


EXTRACT_METHODS = ("ive", "srpphat+mpdr")


def extract(
    tensor: StftTensor,
    geom: ArrayGeometry,
    theta_ini_deg: float,
    method: str = "ive",
    max_iters: int = 100,
    fmin_hz: float = 100.0,
):
    """One extraction step: the direction search of ``method``, one of
    :data:`EXTRACT_METHODS` (:func:`run_ive` or :func:`srp_phat`), then
    :func:`beamform_at` there.  Returns ``(fields, extracted)``: the
    search's report under the names ``extract.json`` gives it, and the
    extracted spectrogram ``(K, n_frames)`` in the tensor's dtype."""
    if method == "ive":
        res = run_ive(tensor, geom, theta_ini_deg, max_iters, fmin_hz)
        fields = dict(
            theta_hat_deg=res.theta_deg, iterations=res.iterations,
            start_iterations=res.start_iterations, start_fallbacks=res.start_fallbacks,
            converged=res.converged, gradient_fallbacks=res.gradient_fallbacks,
            per_bin_flags={
                "included": res.included_bins.tolist(),
                "aliased": res.alias_bins.tolist(),
                "covariance_flagged": res.flagged_bins.tolist(),
            },
        )
    elif method == "srpphat+mpdr":
        srp = srp_phat(tensor, geom, theta_ini_deg, max_iters, fmin_hz)
        fields = dict(theta_hat_deg=srp.theta_deg, srp_stalled=srp.stalled, iterations=0)
    else:
        raise DomainError(f"unknown method {method!r}, expected one of {EXTRACT_METHODS}")
    _, extracted = beamform_at(tensor, geom, fields["theta_hat_deg"])
    return fields, extracted


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
    # chunks are views of the file's bytes: the data chunk is not copied
    # before numpy reads it
    chunks = memoryview(buf)
    pos, fmt = 12, b""
    while True:
        if pos + 8 > len(buf):
            raise DomainError(f"{path} has no data chunk")
        chunk_id, size = struct.unpack_from("<4sI", buf, pos)
        body = chunks[pos + 8: pos + 8 + size]
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
    with ``cbSize``, ``fact`` chunk, interleaved samples.  The samples are
    rounded into one interleaved float32 array (none for contiguous mono
    float32), which is written through a memoryview."""
    signal = np.asarray(signal)
    ch = signal.shape[0] if signal.ndim == 2 else 1
    data = memoryview(np.ascontiguousarray(signal.T, dtype="<f4").ravel()).cast("B")
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
        a = steering(geom.model, omega * theta_to_tau(geom, theta)).T
        a *= np.fft.rfft(src)
        out += np.fft.irfft(a, n=length)
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
    target = float(ref @ y) / denom * ref
    resid = y - target
    return capped_sir_db(float(target @ target), float(resid @ resid))


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
