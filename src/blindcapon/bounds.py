"""Cramer-Rao-induced lower bounds on the mean interference-to-signal ratio.

``crib_ice`` is the bound for the unstructured extraction model,
``crib_capon`` the bound for the phase-shift structured model.  ``fim``
assembles the mixed complex/real Fisher information matrix from which the
structured bound is derived; ``crib_capon_from_fim`` follows that numeric
route end to end and must reproduce the closed form.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, SingularFim

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


def fim(kappa: float, sigma2: float, c_z: np.ndarray, v_tilde: np.ndarray) -> np.ndarray:
    """Fisher information matrix for the parameter vector [h^T, h^H, lam]^T.

    Block structure (z circular, Hermitian overall):

        [ kappa C_z      0          -i v~ ]
        [ 0          kappa C_z*      i v~ ]
        [ i v~^T     -i v~^T    2 sigma2 v~^T C_z^-1 v~ ]
    """
    c_z = np.asarray(c_z, dtype=complex)
    v_tilde = np.asarray(v_tilde, dtype=float)
    dm1 = c_z.shape[0]
    if c_z.shape != (dm1, dm1) or v_tilde.shape != (dm1,):
        raise ValueError("C_z must be (d-1)x(d-1) and v_tilde length d-1")
    if not np.allclose(c_z, c_z.conj().T):
        raise ValueError("C_z must be Hermitian")
    if kappa * sigma2 <= 1.0 + _KAPPA_TOL:
        raise SingularFim(
            f"kappa*sigma2 = {kappa * sigma2} <= 1: lambda row is dependent"
        )
    t = float(np.real(v_tilde @ np.linalg.solve(c_z, v_tilde)))
    f = np.zeros((2 * dm1 + 1, 2 * dm1 + 1), dtype=complex)
    f[:dm1, :dm1] = kappa * c_z
    f[dm1:2 * dm1, dm1:2 * dm1] = kappa * c_z.conj()
    f[:dm1, -1] = -1j * v_tilde
    f[dm1:2 * dm1, -1] = 1j * v_tilde
    f[-1, :dm1] = 1j * v_tilde
    f[-1, dm1:2 * dm1] = -1j * v_tilde
    f[-1, -1] = 2.0 * sigma2 * t
    return f


def crib_capon_from_fim(
    kappa: float, sigma2: float, c_z: np.ndarray, v_tilde: np.ndarray, N: int
) -> float:
    """Numeric derivation route of the structured bound.

    Inverts the full FIM, extracts the upper-left CRLB block of ``h`` from
    ``N^-1 F^-1`` and pushes it through the ISR relation
    ``E[ISR] >= tr(C_z CRLB(h)) / sigma2``.
    """
    f = fim(kappa, sigma2, c_z, v_tilde)
    dm1 = np.asarray(c_z).shape[0]
    f_inv = np.linalg.inv(f)
    crlb_h = f_inv[:dm1, :dm1] / N
    return float(np.real(np.trace(np.asarray(c_z) @ crlb_h))) / sigma2


def empirical_kappa_bar(samples: np.ndarray, score: Callable[[np.ndarray], np.ndarray]) -> float:
    """Estimate ``kappa_bar = E[|psi(s)|^2] * E[|s|^2]`` from i.i.d. samples."""
    samples = np.asarray(samples)
    kappa = float(np.mean(np.abs(score(samples)) ** 2))
    sigma2 = float(np.mean(np.abs(samples) ** 2))
    return kappa * sigma2


def empirical_kappa_bar_stderr(
    samples: np.ndarray, score: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Delta-method standard error of :func:`empirical_kappa_bar`."""
    samples = np.asarray(samples)
    n = samples.size
    a = np.abs(score(samples)) ** 2
    b = np.abs(samples) ** 2
    ka, sg = np.mean(a), np.mean(b)
    var = np.var(sg * a + ka * b, ddof=1)
    return float(np.sqrt(var / n))


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
