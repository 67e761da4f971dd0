"""Domain types, steering model, nonlinearities and sample statistics.

Everything here is a pure function of immutable inputs; all higher-level
algorithms (narrowband Newton search, broadband extension, baselines,
Monte Carlo harness) are built on top of these primitives.

Conventions
-----------
* Snapshots are stored as a complex ``d x N`` matrix (sensors x samples).
* The separating vector ``w`` acts as ``s = w^H x``.
* Nonlinearities follow the conjugating score convention: for a circular
  Gaussian source the score is ``phi(s) = conj(s)``, and the normalizer
  ``nu = E[phi(u) u]`` equals 1 for any exact score.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateSignal, ScoreDegenerate, SingularCovariance

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


@dataclass(frozen=True)
class Nonlinearity:
    """Score surrogate ``phi`` with its Wirtinger derivatives.

    ``dphi_ds`` and ``dphi_dsconj`` are the derivatives of ``phi`` with
    respect to ``s`` and ``conj(s)`` of the (already normalized) argument.
    ``log_pdf`` is the log of the model density whose negative s-derivative
    is ``phi``; it is only needed for contrast evaluation, never by the
    optimizer itself.
    """

    name: str
    phi: Callable[[np.ndarray], np.ndarray]
    dphi_ds: Callable[[np.ndarray], np.ndarray]
    dphi_dsconj: Callable[[np.ndarray], np.ndarray]
    log_pdf: Optional[Callable[[np.ndarray], np.ndarray]] = None


def rational_nonlinearity() -> Nonlinearity:
    """``phi(s) = conj(s) / (1 + |s|^2)``.

    Satisfies ``phi(0) = 0`` and ``|phi(s)| <= 1/2``.  The derivatives are
    obtained by treating ``s`` and ``conj(s)`` as independent variables:

        dphi/ds       = -conj(s)^2 / (1 + |s|^2)^2
        dphi/dconj(s) =  1         / (1 + |s|^2)^2

    The matching log-density is ``-log(1 + |s|^2)`` (up to normalization).
    """
    def phi(s):
        return np.conj(s) / (1.0 + np.abs(s) ** 2)

    def dphi_ds(s):
        return -np.conj(s) ** 2 / (1.0 + np.abs(s) ** 2) ** 2

    def dphi_dsconj(s):
        return 1.0 / (1.0 + np.abs(s) ** 2) ** 2

    def log_pdf(s):
        return -np.log1p(np.abs(s) ** 2)

    return Nonlinearity("rational", phi, dphi_ds, dphi_dsconj, log_pdf)


def gaussian_score() -> Nonlinearity:
    """Exact circular-Gaussian score ``phi(s) = conj(s)`` (linear surrogate)."""
    return Nonlinearity(
        "gaussian",
        phi=np.conj,
        dphi_ds=lambda s: np.zeros_like(s),
        dphi_dsconj=lambda s: np.ones_like(s),
        log_pdf=lambda s: -np.abs(s) ** 2,
    )


@dataclass(frozen=True)
class SoiStatistics:
    """Sample statistics of an extracted signal under a given nonlinearity.

    All shape statistics (``nu``, ``rho``, ``xi``, ``eta``) are computed on
    the normalized samples ``u = s / sigma`` and therefore do not change
    when ``s`` is rescaled.  ``nu_imag`` is the imaginary part discarded
    when forming the real normalizer ``nu`` (diagnostic only).
    """

    sigma2: float
    nu: float
    rho: complex
    xi: float
    eta: complex
    nu_imag: float = 0.0


@dataclass(frozen=True)
class ExtractionState:
    """Consistent snapshot of the extractor at a parameter value ``lam``."""

    lam: float
    a: np.ndarray
    w: np.ndarray
    s: np.ndarray
    stats: SoiStatistics
    model: SteeringModel
    sigma2_solve: float     # 1 / (a^H C^-1 a) of the solve that gave w


# ---------------------------------------------------------------------------
# sources used throughout tests and the simulation harness
# ---------------------------------------------------------------------------

def complex_laplacean(rng: np.random.Generator, n) -> np.ndarray:
    """Unit-variance complex Laplacean samples ``(L1 + i L2)/sqrt(2)``: ``n``
    of them, or an array of shape ``n = (d, N)`` whose rows are the stream
    of ``d`` calls with ``N``, each drawing its real parts first."""
    *rows, length = np.atleast_1d(n)
    L = rng.laplace(0.0, 1.0 / np.sqrt(2.0), size=(*rows, 2, length))
    return (L[..., 0, :] + 1j * L[..., 1, :]) / np.sqrt(2.0)


def complex_gaussian(rng: np.random.Generator, n) -> np.ndarray:
    """Unit-variance circular Gaussian samples: ``n`` of them, or an array of
    shape ``n = (d, N)`` drawn as :func:`complex_laplacean` draws its rows."""
    *rows, length = np.atleast_1d(n)
    g = rng.standard_normal((*rows, 2, length))
    return (g[..., 0, :] + 1j * g[..., 1, :]) / np.sqrt(2.0)


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


def soi_statistics(s: np.ndarray, phi: Nonlinearity) -> SoiStatistics:
    """Sample statistics of the extracted signal.

    ``sigma2`` is the sample mean of ``|s|^2``; the remaining quantities
    are sample means over the normalized samples ``u = s / sigma``:

        nu  = Re E[phi(u) u]          rho = E[dphi/dconj(u)]
        xi  = Re E[dphi/dconj(u) |u|^2]
        eta = E[dphi/du u^2]
    """
    s = np.asarray(s)
    if s.size < 2:
        raise ValueError("need at least two samples")
    sigma2 = float(np.mean(np.abs(s) ** 2))
    if sigma2 < 1e-30:
        raise DegenerateSignal("extracted signal has zero power")
    u = s / np.sqrt(sigma2)
    nu_c = np.mean(phi.phi(u) * u)
    rho = complex(np.mean(phi.dphi_dsconj(u)))
    xi = float(np.real(np.mean(phi.dphi_dsconj(u) * np.abs(u) ** 2)))
    eta = complex(np.mean(phi.dphi_ds(u) * u ** 2))
    return SoiStatistics(
        sigma2=sigma2,
        nu=float(np.real(nu_c)),
        rho=rho,
        xi=xi,
        eta=eta,
        nu_imag=float(np.imag(nu_c)),
    )


def c_constants(stats: SoiStatistics):
    """Hessian constants ``(c1, c2, c3)`` from the sample statistics.

        c1 = (nu - rho) / (nu * sigma2)
        c3 = (xi - eta - nu) / (2 nu)
        c2 = -sigma2 * c1 - Re(c3)

    ``c1`` and ``c2`` are returned as reals (imaginary parts of ``rho`` and
    ``c3`` vanish for score-consistent nonlinearities and are discarded).
    """
    if abs(stats.nu) < 1e-12:
        raise ScoreDegenerate("nu is numerically zero")
    c1 = float(np.real(stats.nu - stats.rho)) / (stats.nu * stats.sigma2)
    c3 = (stats.xi - stats.eta - stats.nu) / (2.0 * stats.nu)
    c2 = -stats.sigma2 * c1 - float(np.real(c3))
    return c1, c2, complex(c3)
