"""Shared fixtures and numeric helpers for the test suite."""

import struct
from dataclasses import dataclass

import numpy as np
import pytest

from blindcapon import capon_ive, core


def wirtinger_fd(f, s, h=1e-6):
    """Central finite differences of a complex->complex function in the
    Wirtinger sense; returns ``(df/ds, df/dconj(s))``."""
    d_re = (f(s + h) - f(s - h)) / (2.0 * h)
    d_im = (f(s + 1j * h) - f(s - 1j * h)) / (2.0 * h)
    return 0.5 * (d_re - 1j * d_im), 0.5 * (d_re + 1j * d_im)


def random_mixture(rng, d, n, lam_star, isir_db=0.0, competitor=None, laws=None):
    """Unit-modulus random mixing with a structured first column.

    ``laws`` is an optional sequence of per-source laws ('laplacean' or
    'gaussian'); defaults to all Laplacean.
    """
    model = core.ula(d)
    a = np.exp(2j * np.pi * rng.random((d, d)))
    a[:, 0] = core.steering(model, lam_star)
    if competitor is not None:
        a[:, 1] = core.steering(model, competitor)
    if laws is None:
        laws = ["laplacean"] * d
    draws = {
        "laplacean": core.complex_laplacean,
        "gaussian": core.complex_gaussian,
    }
    u = np.vstack([draws[law](rng, n) for law in laws])
    p_int = 10.0 ** (-isir_db / 10.0)
    powers = np.r_[1.0, np.full(d - 1, p_int / (d - 1))]
    x = a @ (np.sqrt(powers)[:, None] * u)
    return core.SnapshotMatrix(x), a, powers, model


def riff_bytes(*chunks, form=b"WAVE"):
    """A RIFF file of the ``(chunk_id, body)`` chunks in order, each odd-sized
    body followed by its pad byte."""
    body = form + b"".join(
        cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) % 2)
        for cid, data in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def wav_fmt(tag, channels, bits, rate=8000, block_align=None, extensible=False):
    """Body of a ``fmt `` chunk; ``extensible`` wraps ``tag`` in a
    WAVE_FORMAT_EXTENSIBLE sub-format GUID."""
    if block_align is None:
        block_align = channels * ((bits + 7) // 8)
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate,
                      rate * block_align, block_align, bits)
    if extensible:
        fmt += struct.pack("<HHII", 22, bits, 0, tag)
        fmt += b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return fmt


@dataclass
class BroadbandFixture:
    mix: np.ndarray            # (d, L) microphone signals
    sources: np.ndarray        # (2, L) dry sources
    thetas_deg: tuple
    geom: capon_ive.ArrayGeometry
    sample_rate: int
    fft_len: int
    hop: int

    def tensor(self):
        return capon_ive.stft(self.mix, self.fft_len, self.hop, self.sample_rate)


def build_broadband_fixture(seed=2024, duration_s=5.0, fs=16000, d=5, floor_db=-30.0):
    """Anechoic two-source phase-shift mixture (63.43 and 90 degrees).

    A weak white sensor-noise floor keeps the per-bin problems well posed
    (a literally noise-free mixture lets the per-bin MPDR null the steered
    source itself, collapsing the attraction basins to slivers)."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * fs)
    geom = capon_ive.ArrayGeometry(spacing_m=0.05, d=d)
    thetas = (63.43, 90.0)
    sources = np.vstack(
        [capon_ive.speech_shaped_noise(rng, n, fs) for _ in thetas]
    )
    mix = capon_ive.anechoic_phase_mix(sources, thetas, geom, fs)
    mix = mix + 10.0 ** (floor_db / 20.0) * rng.standard_normal(mix.shape)
    return BroadbandFixture(
        mix=mix,
        sources=sources,
        thetas_deg=thetas,
        geom=geom,
        sample_rate=fs,
        fft_len=1024,
        hop=128,
    )


@pytest.fixture(scope="session")
def broadband_fixture():
    return build_broadband_fixture()


def write_fixture_wavs(fixture, root):
    """``fixture`` written out as float32 WAV files in ``root``; returns
    ``(mix_path, ref_paths, fixture)``."""
    mix_path = root / "mix.wav"
    capon_ive.write_wav(mix_path, fixture.sample_rate, fixture.mix)
    ref_paths = []
    for i, src in enumerate(fixture.sources):
        p = root / f"ref{i}.wav"
        capon_ive.write_wav(p, fixture.sample_rate, src)
        ref_paths.append(p)
    return mix_path, ref_paths, fixture


@pytest.fixture(scope="session")
def broadband_wavs(broadband_fixture, tmp_path_factory):
    """The fixture written out as WAV files for CLI-level tests."""
    return write_fixture_wavs(broadband_fixture, tmp_path_factory.mktemp("wavs"))
