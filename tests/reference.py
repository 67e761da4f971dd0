"""Test-only reference implementations the package is checked against.

The sample contrast of the orthogonally-constrained likelihood, the
blocking matrix of its background signals and the extraction state (a, w,
s and output statistics) at one parameter: the solvers need only the
contrast's derivatives, so these live here as the independent oracle for
the finite-difference and statistics checks.
"""

import numpy as np

from blindcapon.core import (
    ExtractionState,
    Nonlinearity,
    SnapshotMatrix,
    SteeringModel,
    covariance_factor,
    mpdr_weights,
    sample_covariance,
    soi_statistics,
    steering,
)


def extraction_state(
    x: SnapshotMatrix,
    model: SteeringModel,
    lam: float,
    phi: Nonlinearity,
    factor=None,
) -> ExtractionState:
    """Build the consistent state (a, w, s, statistics) at ``lam``."""
    a = steering(model, lam)
    if factor is None:
        factor = covariance_factor(sample_covariance(x))
    w, sigma2_solve = mpdr_weights(factor, a)
    s = w.conj() @ x.data
    stats = soi_statistics(s, phi)
    return ExtractionState(
        lam=float(lam), a=a, w=w, s=s, stats=stats, model=model,
        sigma2_solve=float(sigma2_solve),
    )


def blocking_matrix(a: np.ndarray) -> np.ndarray:
    """Blocking matrix ``B = [g, -gamma I]`` with ``a = [gamma, g^T]^T``.

    Satisfies ``B a = 0`` exactly, so the background ``z = B x`` contains no
    contribution of the source steered by ``a``.
    """
    d = a.size
    b = np.zeros((d - 1, d), dtype=complex)
    b[:, 0] = a[1:]
    b[:, 1:] = -a[0] * np.eye(d - 1)
    return b


def background_covariance(x: SnapshotMatrix, a: np.ndarray) -> np.ndarray:
    """Sample covariance of the background signals ``z = B x``."""
    return sample_covariance(SnapshotMatrix(blocking_matrix(a) @ x.data))


def contrast(
    x: SnapshotMatrix,
    lam: float,
    phi: Nonlinearity,
    model: SteeringModel,
    *,
    nu: float = None,
    c_z: np.ndarray = None,
) -> float:
    """Sample contrast at ``lam``: model log-pdf, output power and background
    terms of the orthogonally-constrained likelihood.

    Two evaluation modes share this function:

    * Default (``nu=None, c_z=None``): the self-contained profile form.  The
      background covariance is concentrated out, contributing
      ``-log det C_z(lam) - (d-1)``, and the model-pdf term enters unscaled
      (exact-score convention).  This is the form whose grid maximum locates
      the source.
    * Frozen plug-ins: with ``nu`` and ``c_z`` fixed at a reference state,
      the model-pdf term is scaled by ``1/nu`` (the effective score used by
      the optimizer is ``phi/nu``) and the background term is the Mahalanobis
      form ``-tr(c_z^-1 C_z(lam))``.  The exact derivative of this function
      at the reference point is :func:`capon_ice.first_derivative`;
      finite-difference checks must use this mode.

    The ``(d-2) log|gamma|^2`` term is identically zero for phase-shift
    steering (``gamma = a[0] = 1``) and is included literally.
    """
    if phi.log_pdf is None:
        raise ValueError(f"nonlinearity {phi.name!r} has no log_pdf")
    state = extraction_state(x, model, lam, phi)
    sigma2 = state.stats.sigma2
    m = float(np.mean(phi.log_pdf(state.s / np.sqrt(sigma2))))
    cz_lam = background_covariance(x, state.a)
    if nu is not None:
        m = m / nu
    if c_z is not None:
        bg = -float(np.real(np.trace(np.linalg.solve(c_z, cz_lam))))
    else:
        sign, logdet = np.linalg.slogdet(cz_lam)
        bg = -logdet - (x.d - 1)
    gam2 = float(np.abs(state.a[0]) ** 2)
    return m - np.log(sigma2) + bg + (x.d - 2) * np.log(gam2)
