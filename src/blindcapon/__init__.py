"""Blind Capon beamforming for phase-shift mixing models.

Modules: :mod:`core` (types, steering, MPDR solve), :mod:`capon_ice`
(single-parameter Newton search), :mod:`bounds` (Cramer-Rao-induced ISR
bounds), :mod:`baselines` (FastICA, Root MUSIC, TLS ESPRIT),
:mod:`monte_carlo` (simulation harness), :mod:`capon_ive` (broadband STFT
extension) and :mod:`cli`.

The one scipy subpackage in use, ``scipy.optimize``, is imported by SRP-PHAT
and the rare CaponICE start that needs it, so the package, a sweep, the
bounds and an IVE ``extract`` load none; WAV I/O and speech-shaped noise
are numpy only.
"""

from . import baselines, bounds, capon_ice, capon_ive, core, errors, monte_carlo

__version__ = "0.1.0"

__all__ = [
    "baselines",
    "bounds",
    "capon_ice",
    "capon_ive",
    "core",
    "errors",
    "monte_carlo",
    "__version__",
]
