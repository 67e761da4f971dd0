"""Comparison methods: one-unit complex FastICA, Root MUSIC, TLS ESPRIT.

The DOA estimators assume a uniform linear array (integer steering weights
``v = [0, 1, ..., d-1]``) so that steering vectors are Vandermonde in
``exp(1j lam)``.
"""

from dataclasses import dataclass

import numpy as np

from . import core
from .core import ExtractionState, Nonlinearity, SnapshotMatrix, sample_covariance
from .errors import RankDeficient

_TIE_TOL = 1e-9
# FastICA stops when 1 - |<w_new, w>| falls to this
_FASTICA_TOL = 1e-6


@dataclass(frozen=True)
class DoaEstimate:
    """A DOA estimate with the full candidate set for multi-source scenes.

    ``lambda_hat`` is the preferred estimate; ``candidates`` holds one angle
    per assumed source so callers can select e.g. the candidate nearest an
    initial guess.
    """

    lambda_hat: float
    candidates: np.ndarray


@dataclass(frozen=True)
class FasticaResult:
    """Outcome of the one-unit fixed-point iteration.

    Non-convergence (e.g. on Gaussian-only mixtures) is reported through
    ``converged`` rather than an exception so that sweep harnesses can score
    the final iterate regardless.
    """

    state: ExtractionState
    converged: bool
    iterations: int


def _pick(candidates: np.ndarray, closeness: np.ndarray) -> float:
    """Best candidate by ``closeness``; ties within 1e-9 prefer small |lam|."""
    best = np.min(closeness)
    tied = np.flatnonzero(closeness <= best + _TIE_TOL)
    return float(candidates[tied[np.argmin(np.abs(candidates[tied]))]])


def fastica_one_unit(
    x: SnapshotMatrix,
    phi: Nonlinearity,
    w_ini: np.ndarray,
    max_iters: int = 200,
) -> FasticaResult:
    """One-unit complex FastICA on symmetrically prewhitened data.

    The fixed-point update with nonlinearity ``g(|y|^2)`` applied as
    ``phi(y) = conj(y) g(|y|^2)``:

        w <- E[x~ conj(y) g(|y|^2)] - E[g(|y|^2) + |y|^2 g'(|y|^2)] w

    followed by renormalization, where ``y = w^H x~`` on whitened ``x~``.
    Convergence is ``1 - |<w_new, w>| <= 1e-6``.  The returned state is in
    the original (unwhitened) coordinates with ``a = C_x w / sigma^2`` and
    ``w`` rescaled so that ``w^H a = 1``.
    """
    w_ini = np.asarray(w_ini, dtype=complex)
    if not np.any(w_ini):
        raise ValueError("w_ini must be nonzero")
    c_x = sample_covariance(x)
    evals, evecs = np.linalg.eigh(c_x)
    if np.min(evals) <= 0.0:
        evals = np.maximum(evals, 1e-12 * np.max(evals))
    v_white = evecs @ np.diag(evals ** -0.5) @ evecs.conj().T
    v_color = evecs @ np.diag(evals ** 0.5) @ evecs.conj().T
    xt = v_white @ x.data

    w = v_color @ w_ini
    w = w / np.linalg.norm(w)
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        y = w.conj() @ xt
        gy = 1.0 / (1.0 + np.abs(y) ** 2)
        gpy = -gy ** 2
        w_new = (xt * (np.conj(y) * gy)).mean(axis=1)
        w_new = w_new - np.mean(gy + np.abs(y) ** 2 * gpy) * w
        norm = np.linalg.norm(w_new)
        if norm < 1e-15:
            break
        w_new = w_new / norm
        crit = 1.0 - abs(np.vdot(w_new, w))
        w = w_new
        if crit <= _FASTICA_TOL:
            converged = True
            break

    w_orig = v_white.conj().T @ w
    sigma2 = float(np.real(np.vdot(w_orig, c_x @ w_orig)))
    a_hat = (c_x @ w_orig) / sigma2
    # rescale to the distortionless convention w^H a = 1
    scale = np.vdot(w_orig, a_hat)
    w_orig = w_orig / np.conj(scale)
    s = w_orig.conj() @ x.data
    stats = core.soi_statistics(s, phi)
    a_hat = (c_x @ w_orig) / stats.sigma2
    state = ExtractionState(
        lam=float("nan"), a=a_hat, w=w_orig, s=s, stats=stats, model=core.ula(x.d),
        sigma2_solve=float("nan"),  # w comes from no MPDR solve
    )
    return FasticaResult(state=state, converged=converged, iterations=iterations)


def root_music(c_x: np.ndarray, num_sources: int) -> DoaEstimate:
    """Root MUSIC for a ULA: roots of the noise-subspace polynomial.

    The polynomial ``a(1/z)^T M a(z)`` with ``M = E_n E_n^H`` has roots in
    conjugate-reciprocal pairs; the ``num_sources`` roots inside the unit
    circle closest to it give the candidate angles.
    """
    c_x = np.asarray(c_x, dtype=complex)
    d = c_x.shape[0]
    if not 1 <= num_sources < d:
        raise RankDeficient(f"need 1 <= num_sources < d, got {num_sources} vs d={d}")
    _, vecs = np.linalg.eigh(c_x)
    noise = vecs[:, : d - num_sources]
    m = noise @ noise.conj().T
    # c_k = sum of the k-th diagonal of M, k = -(d-1) .. d-1
    coeffs = np.array([np.trace(m, offset=k) for k in range(d - 1, -d, -1)])
    roots = np.roots(coeffs)
    inside = roots[np.abs(roots) < 1.0]
    if inside.size == 0:
        raise RankDeficient("no roots strictly inside the unit circle")
    order = np.argsort(1.0 - np.abs(inside))
    chosen = inside[order[:num_sources]]
    candidates = np.angle(chosen)
    closeness = 1.0 - np.abs(chosen)
    return DoaEstimate(lambda_hat=_pick(candidates, closeness), candidates=candidates)


def tls_esprit(c_x: np.ndarray, num_sources: int) -> DoaEstimate:
    """TLS ESPRIT for a ULA via shift invariance of the signal subspace.

    Solves ``U_1 Psi = U_2`` in the total-least-squares sense between the
    two maximally overlapping (d-1)-element subarrays; candidate angles are
    the angles of the rotation eigenvalues.
    """
    c_x = np.asarray(c_x, dtype=complex)
    d = c_x.shape[0]
    if not 1 <= num_sources < d:
        raise RankDeficient(f"need 1 <= num_sources < d, got {num_sources} vs d={d}")
    _, vecs = np.linalg.eigh(c_x)
    u_s = vecs[:, d - num_sources:]
    u1, u2 = u_s[:-1], u_s[1:]
    stacked = np.hstack([u1, u2])
    _, _, vh = np.linalg.svd(stacked, full_matrices=True)
    v = vh.conj().T
    k = num_sources
    v12 = v[:k, k:]
    v22 = v[k:, k:]
    try:
        psi = -v12 @ np.linalg.inv(v22)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient("TLS subblock V22 is singular") from exc
    rot = np.linalg.eigvals(psi)
    candidates = np.angle(rot)
    closeness = np.abs(1.0 - np.abs(rot))
    return DoaEstimate(lambda_hat=_pick(candidates, closeness), candidates=candidates)
