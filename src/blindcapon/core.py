"""Domain types, steering model, sources, covariance and MPDR solve.

Everything here is a pure function of immutable inputs; all higher-level
algorithms (narrowband Newton search, broadband extension, baselines,
Monte Carlo harness) are built on top of these primitives.

Conventions
-----------
* Snapshots are stored as a complex ``d x N`` matrix (sensors x samples).
* The separating vector ``w`` acts as ``s = w^H x``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularCovariance

COVARIANCE_EPS = 1e-10


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteeringModel:
    """Phase-shift steering family ``a(lam) = exp(1j * lam * v)``.

    ``v`` holds the per-sensor phase weights; the first sensor is the phase
    reference, so ``v[0]`` must be exactly zero.
    """

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("steering weights must be a vector of length >= 2")
        if v[0] != 0.0:
            raise ValueError("first sensor is the phase reference: v[0] must be 0")
        object.__setattr__(self, "v", v)

    @property
    def d(self) -> int:
        return self.v.size

    @property
    def is_integer(self) -> bool:
        """True when all weights are integers (steering is 2*pi-periodic)."""
        return bool(np.all(self.v == np.round(self.v)))


def ula(d: int) -> SteeringModel:
    """Uniform linear array weights ``v = [0, 1, ..., d-1]``."""
    return SteeringModel(np.arange(d, dtype=float))


@dataclass(frozen=True)
class SnapshotMatrix:
    """Complex ``d x N`` observation matrix."""

    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=complex)
        if data.ndim != 2:
            raise ValueError("snapshot matrix must be 2-D (sensors x samples)")
        d, n = data.shape
        if n < d:
            raise ValueError(f"need N >= d snapshots, got d={d}, N={n}")
        object.__setattr__(self, "data", data)

    @property
    def d(self) -> int:
        return self.data.shape[0]

    @property
    def N(self) -> int:
        return self.data.shape[1]


# ---------------------------------------------------------------------------
# sources used throughout tests and the simulation harness
# ---------------------------------------------------------------------------

def _pairs_to_complex(parts: np.ndarray) -> np.ndarray:
    """``(parts[..., 0, :] + 1j * parts[..., 1, :]) / sqrt(2)`` bit for bit
    (numpy divides a complex by a real through its reciprocal), written
    into the real and imaginary parts of one complex array."""
    out = np.empty(parts.shape[:-2] + parts.shape[-1:], dtype=complex)
    np.multiply(parts[..., 0, :], 1.0 / np.sqrt(2.0), out=out.real)
    np.multiply(parts[..., 1, :], 1.0 / np.sqrt(2.0), out=out.imag)
    return out


def complex_laplacean(rng: np.random.Generator, n) -> np.ndarray:
    """Unit-variance complex Laplacean samples ``(L1 + i L2)/sqrt(2)``: ``n``
    of them, or an array of shape ``n = (d, N)`` whose rows are the stream
    of ``d`` calls with ``N``, each drawing its real parts first."""
    *rows, length = np.atleast_1d(n)
    return _pairs_to_complex(rng.laplace(0.0, 1.0 / np.sqrt(2.0), size=(*rows, 2, length)))


def complex_gaussian(rng: np.random.Generator, n) -> np.ndarray:
    """Unit-variance circular Gaussian samples: ``n`` of them, or an array of
    shape ``n = (d, N)`` drawn as :func:`complex_laplacean` draws its rows."""
    *rows, length = np.atleast_1d(n)
    return _pairs_to_complex(rng.standard_normal((*rows, 2, length)))


def laplacean_score(s: np.ndarray) -> np.ndarray:
    """True score of :func:`complex_laplacean`: ``sign(Re s) - i sign(Im s)``.

    Its squared modulus is 2 everywhere, so kappa_bar = 2 exactly for the
    unit-variance law.
    """
    return np.sign(np.real(s)) - 1j * np.sign(np.imag(s))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def steering(model: SteeringModel, lam: float) -> np.ndarray:
    """Steering vector ``exp(1j * lam * v)``; first entry is exactly 1."""
    return np.exp(1j * lam * model.v)


def sample_covariance(x: SnapshotMatrix) -> np.ndarray:
    """Sample covariance ``(1/N) sum_n x(n) x(n)^H`` (Hermitian PSD)."""
    data = x.data
    c = data @ data.conj().T / x.N
    return 0.5 * (c + c.conj().T)


def regularized(c: np.ndarray, eps: float = COVARIANCE_EPS) -> np.ndarray:
    """Diagonal loading ``C + eps * trace(C)/d * I`` applied before solves;
    ``c`` may be a stack ``(..., d, d)``, each matrix loaded by its own trace."""
    d = c.shape[-1]
    load = eps * np.real(np.trace(c, axis1=-2, axis2=-1)) / d
    return c + load[..., None, None] * np.eye(d)


def covariance_factor(c: np.ndarray, eps: float = COVARIANCE_EPS) -> np.ndarray:
    """Inverse Cholesky factor ``G = L^-1`` of the regularized covariance
    ``L L^H``, for repeated solves: ``C^-1 = G^H G``, so a solve is two
    mat-vecs.  ``c`` may be a stack ``(..., d, d)``; one matrix that is not
    positive definite fails the whole stack.
    """
    try:
        return np.linalg.inv(np.linalg.cholesky(regularized(c, eps)))
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(
            "covariance is not positive definite even after regularization"
        ) from exc


def mpdr_weights(factor: np.ndarray, a: np.ndarray):
    """Minimum-power distortionless weights under the orthogonal constraint.

    ``factor`` is the :func:`covariance_factor` of the covariance ``C`` and
    ``a`` the steering vector.  Returns ``(w, sigma2)`` with
    ``w = C^-1 a / (a^H C^-1 a)`` and ``sigma2 = 1 / (a^H C^-1 a) = w^H C w``
    on the loaded ``C``.  Leading dimensions are a stack of problems:
    ``factor`` ``(..., d, d)`` and ``a`` ``(..., d)`` give ``w`` ``(..., d)``
    and ``sigma2`` ``(...)``.
    """
    g_a = np.matvec(factor, a)
    denom = np.real(np.vecdot(g_a, g_a))
    if not ((denom > 0.0) & (denom < np.inf)).all():
        raise SingularCovariance("a^H C^-1 a is not positive")
    sigma2 = 1.0 / denom
    # vecmat conjugates its vector: conj(g_a^H G) = G^H g_a = C^-1 a
    return np.conj(np.vecmat(g_a, factor)) * sigma2[..., None], sigma2
