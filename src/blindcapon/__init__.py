"""Blind Capon beamforming for phase-shift mixing models.

Modules: :mod:`core` (types, steering, MPDR solve), :mod:`capon_ice`
(single-parameter Newton search), :mod:`bounds` (Cramer-Rao-induced ISR
bounds), :mod:`baselines` (FastICA, Root MUSIC, TLS ESPRIT),
:mod:`monte_carlo` (simulation harness), :mod:`capon_ive` (broadband STFT
extension) and :mod:`cli`.
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
