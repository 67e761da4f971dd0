"""Cramer-Rao-induced lower bounds on the mean interference-to-signal ratio.

``crib_ice`` is the bound for the unstructured extraction model,
``crib_capon`` the bound for the phase-shift structured model, both in
closed form; ``empirical_kappa_bar_with_stderr`` estimates their input,
the source's non-Gaussianity, from samples.  The numeric derivation of the
structured bound from the Fisher information matrix, which must reproduce
the closed form, is a test oracle (``tests/reference.py``).
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

_KAPPA_TOL = 1e-12


@dataclass(frozen=True)
class CribReport:
    """Both bounds for given non-Gaussianity, dimension and sample count.

    ``kappa_bar = kappa * sigma^2 >= 1`` measures non-Gaussianity of the
    source; at ``kappa_bar = 1`` (circular Gaussian) the model is not
    identifiable and the bounds are reported as such instead of infinities.
    """

    kappa_bar: float
    d: int
    N: int
    identifiable: bool
    crib_ice: Optional[float] = None
    crib_capon: Optional[float] = None
    crib_ice_db: Optional[float] = None
    crib_capon_db: Optional[float] = None


def _check_domain(kappa_bar: float, d: int, N: int):
    if not math.isfinite(kappa_bar):
        raise DomainError(f"kappa_bar must be finite, got {kappa_bar}")
    if kappa_bar < 1.0 - _KAPPA_TOL:
        raise DomainError(f"kappa_bar must be >= 1, got {kappa_bar}")
    if d < 2:
        raise DomainError("need at least two sensors")
    if N < 1:
        raise DomainError("need at least one sample")


def crib_ice(kappa_bar: float, d: int, N: int) -> float:
    """Mean-ISR bound of the unstructured model: ``(d-1) / (N (kb-1))``."""
    _check_domain(kappa_bar, d, N)
    if kappa_bar <= 1.0 + _KAPPA_TOL:
        return math.inf
    return (d - 1) / (N * (kappa_bar - 1.0))


def crib_capon(kappa_bar: float, d: int, N: int) -> float:
    """Mean-ISR bound of the structured model:

        (1/N) * ( (d-1)/kb + (1/2) / (kb (kb-1)) )

    Independent of the background covariance, the source power and the
    steering weights; strictly below :func:`crib_ice` for d >= 2.
    """
    _check_domain(kappa_bar, d, N)
    if kappa_bar <= 1.0 + _KAPPA_TOL:
        return math.inf
    kb = kappa_bar
    return ((d - 1) / kb + 0.5 / (kb * (kb - 1.0))) / N


def empirical_kappa_bar_with_stderr(
    samples: np.ndarray, score: Callable[[np.ndarray], np.ndarray]
):
    """Estimate ``kappa_bar = E[|psi(s)|^2] * E[|s|^2]`` from i.i.d.
    samples; returns ``(kappa_bar, stderr)``, ``stderr`` its delta-method
    standard error, from one evaluation of the score and the powers."""
    samples = np.asarray(samples)
    a, b = np.abs(score(samples)) ** 2, np.abs(samples) ** 2
    ka, sg = np.mean(a), np.mean(b)
    var = np.var(sg * a + ka * b, ddof=1)
    return float(ka) * float(sg), float(np.sqrt(var / a.size))


def crib_report(kappa_bar: float, d: int, N: int) -> CribReport:
    """Evaluate both bounds; infinite bounds map to ``identifiable=False``."""
    ice = crib_ice(kappa_bar, d, N)
    capon = crib_capon(kappa_bar, d, N)
    if math.isinf(ice):
        return CribReport(kappa_bar=kappa_bar, d=d, N=N, identifiable=False)
    return CribReport(
        kappa_bar=kappa_bar,
        d=d,
        N=N,
        identifiable=True,
        crib_ice=ice,
        crib_capon=capon,
        crib_ice_db=10.0 * math.log10(ice),
        crib_capon_db=10.0 * math.log10(capon),
    )
