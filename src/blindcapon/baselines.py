"""Comparison methods: one-unit complex FastICA, Root MUSIC, TLS ESPRIT.

FastICA is prewhitened with the inverse Cholesky factor of the sample
covariance that the MPDR solves use, shared by all methods of a trial.

The DOA estimators assume a uniform linear array (integer steering weights
``v = [0, 1, ..., d-1]``) so that steering vectors are Vandermonde in
``exp(1j lam)``.  They return one candidate angle per assumed source; the
caller picks among them, e.g. the candidate nearest an initial guess.
"""

from dataclasses import dataclass

import numpy as np

from .core import SnapshotMatrix
from .errors import RankDeficient

# FastICA stops when 1 - |<w_new, w>| falls to this
_FASTICA_TOL = 1e-6


@dataclass(frozen=True)
class FasticaResult:
    """Outcome of the one-unit fixed-point iteration: the separating vector
    ``w`` and the mixing vector ``a`` (``w^H a = 1``).

    Non-convergence (e.g. on Gaussian-only mixtures) is reported through
    ``converged`` rather than an exception so that sweep harnesses can score
    the final iterate regardless.
    """

    a: np.ndarray
    w: np.ndarray
    converged: bool
    iterations: int


def fastica_one_unit(
    x: SnapshotMatrix,
    w_ini: np.ndarray,
    max_iters: int = 200,
) -> FasticaResult:
    """One-unit complex FastICA on data prewhitened by the inverse Cholesky
    factor ``G`` of the sample covariance ``C_x``: ``x~ = G x``, with
    ``(C_x, G)`` the data's ``x.covariance`` (``G`` whitens the diagonally
    loaded ``C_x``).  From ``w = G^-H w_ini``, with ``y = w^H x~`` and
    ``g = 1 / (1 + |y|^2)`` (so ``g + |y|^2 g' = g^2``), the update

        w <- E[x~ conj(y) g] - E[g^2] w

    is followed by renormalization until ``1 - |<w_new, w>| <= 1e-6``.  It
    is equivariant under a unitary change of whitened coordinates, so any
    whitening gives the same iterates.  The result is in the original
    coordinates: ``w = G^H w`` and ``a = C_x w / (w^H C_x w)``.
    """
    w_ini = np.asarray(w_ini, dtype=complex)
    if not np.any(w_ini):
        raise ValueError("w_ini must be nonzero")
    c_x, factor = x.covariance
    xt = factor @ x.data

    w = np.linalg.solve(factor.conj().T, w_ini)
    w = w / np.linalg.norm(w)
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        y = w.conj() @ xt
        g = 1.0 / (1.0 + (y.real ** 2 + y.imag ** 2))
        # N times the update, whose renormalization removes the factor
        w_new = xt @ (y.conj() * g) - (g @ g) * w
        norm = np.sqrt(np.vdot(w_new, w_new).real)
        if norm < 1e-15 * x.N:
            break
        w_new = w_new / norm
        converged = bool(1.0 - abs(np.vdot(w_new, w)) <= _FASTICA_TOL)
        w = w_new
        if converged:
            break

    w = factor.conj().T @ w
    c_w = c_x @ w
    return FasticaResult(
        a=c_w / np.real(np.vdot(w, c_w)), w=w, converged=converged, iterations=iterations,
    )


def _eigenvectors(c_x: np.ndarray, num_sources: int):
    """``(d, vecs)``: the size of ``c_x`` and its eigenvectors in ascending
    order of eigenvalue; :class:`RankDeficient` unless
    ``1 <= num_sources < d``."""
    c_x = np.asarray(c_x, dtype=complex)
    d = c_x.shape[0]
    if not 1 <= num_sources < d:
        raise RankDeficient(f"need 1 <= num_sources < d, got {num_sources} vs d={d}")
    return d, np.linalg.eigh(c_x)[1]


def root_music(c_x: np.ndarray, num_sources: int) -> np.ndarray:
    """Root MUSIC for a ULA: roots of the noise-subspace polynomial.

    The polynomial ``a(1/z)^T M a(z)`` with ``M = E_n E_n^H`` has roots in
    conjugate-reciprocal pairs; the angles of the ``num_sources`` roots
    inside the unit circle closest to it are returned, closest first.
    """
    d, vecs = _eigenvectors(c_x, num_sources)
    noise = vecs[:, : d - num_sources]
    m = noise @ noise.conj().T
    # c_k = sum of the k-th diagonal of M, k = -(d-1) .. d-1
    coeffs = np.array([np.trace(m, offset=k) for k in range(d - 1, -d, -1)])
    roots = np.roots(coeffs)
    inside = roots[np.abs(roots) < 1.0]
    if inside.size == 0:
        raise RankDeficient("no roots strictly inside the unit circle")
    order = np.argsort(1.0 - np.abs(inside))
    return np.angle(inside[order[:num_sources]])


def tls_esprit(c_x: np.ndarray, num_sources: int) -> np.ndarray:
    """TLS ESPRIT for a ULA via shift invariance of the signal subspace.

    Solves ``U_1 Psi = U_2`` in the total-least-squares sense between the
    two maximally overlapping (d-1)-element subarrays; the angles of the
    ``num_sources`` rotation eigenvalues are returned.
    """
    d, vecs = _eigenvectors(c_x, num_sources)
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
    return np.angle(np.linalg.eigvals(psi))
