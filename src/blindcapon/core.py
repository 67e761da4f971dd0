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
# output SIRs are clipped to +-SIR_CAP_DB
SIR_CAP_DB = 150.0


def capped_sir_db(signal: float, interference: float) -> float:
    """``10 log10(signal / interference)`` clipped to +-SIR_CAP_DB; no signal
    reads -SIR_CAP_DB, and a signal with no interference +SIR_CAP_DB."""
    if signal <= 0.0:
        return -SIR_CAP_DB
    if interference <= 0.0:
        return SIR_CAP_DB
    return float(np.clip(10.0 * np.log10(signal / interference), -SIR_CAP_DB, SIR_CAP_DB))


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

    @property
    def covariance(self):
        """``(C, G)``: the :func:`sample_covariance` of the snapshots and its
        :func:`covariance_factor`, formed on first use and shared by every
        solver of this data.  A covariance that does not factor raises the
        same :class:`SingularCovariance` at every use."""
        if "_covariance" not in self.__dict__:
            c = sample_covariance(self.data)
            try:
                self.__dict__["_covariance"] = (c, covariance_factor(c))
            except SingularCovariance as exc:
                self.__dict__["_covariance"] = exc
        cached = self.__dict__["_covariance"]
        if isinstance(cached, SingularCovariance):
            raise cached
        return cached


# ---------------------------------------------------------------------------
# sources used throughout tests and the simulation harness
# ---------------------------------------------------------------------------

# uniforms per Laplacean draw block: one reused 64 KB buffer
_DRAW_BLOCK = 8192


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
    of ``d`` calls with ``N``, each drawing its real parts first.

    The parts are ``Generator.laplace``'s map of the same uniforms (a zero
    one redrawn), ``-s log((2 - u) - u)`` for u >= 1/2 and ``s log(u + u)``
    below, taken on blocks of uniforms as the smaller operand with the sign
    of ``2u - 1``; they differ from ``laplace``'s only where the array
    ``np.log`` differs from the scalar C ``log``, by at most 2 ULP."""
    *rows, length = np.atleast_1d(n)
    parts = np.empty((*rows, 2, length))
    flat = parts.reshape(-1)
    u = np.empty(min(flat.size, _DRAW_BLOCK))
    for start in range(0, flat.size, _DRAW_BLOCK):
        out = flat[start:start + _DRAW_BLOCK]
        v = u[:out.size]
        rng.random(out=v)
        while not v.all():
            first_zero = v.argmin()
            v[first_zero:-1] = v[first_zero + 1:]
            rng.random(out=v[-1:])
        np.subtract(2.0, v, out=out)
        out -= v
        v += v
        np.minimum(out, v, out=out)
        np.log(out, out=out)
        out *= 1.0 / np.sqrt(2.0)
        v -= 1.0
        np.copysign(out, v, out=out)
    return _pairs_to_complex(parts)


def complex_gaussian(rng: np.random.Generator, n) -> np.ndarray:
    """Unit-variance circular Gaussian samples: ``n`` of them, or an array of
    shape ``n = (d, N)`` drawn as :func:`complex_laplacean` draws its rows."""
    *rows, length = np.atleast_1d(n)
    return _pairs_to_complex(rng.standard_normal((*rows, 2, length)))


def laplacean_score(s: np.ndarray) -> np.ndarray:
    """True score of :func:`complex_laplacean`: ``sign(Re s) - i sign(Im s)``.

    Its squared modulus is 2 everywhere, so kappa_bar = 2 exactly for the
    unit-variance law.  The signs are written straight into the real and
    imaginary parts of one complex array, so no full-size temporary exists.
    """
    out = np.empty(np.shape(s), dtype=complex)
    np.sign(np.real(s), out=out.real)
    np.negative(np.sign(np.imag(s), out=out.imag), out=out.imag)
    return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def steering(model: SteeringModel, lam) -> np.ndarray:
    """Steering vector ``exp(1j * lam * v)``, first entry exactly 1: ``(d,)``
    for a scalar ``lam``, ``(..., d)`` for an array (each row its scalar call's bits)."""
    phase = np.multiply.outer(1j * lam, model.v)
    return np.exp(phase, out=phase)


def sample_covariance(x: np.ndarray) -> np.ndarray:
    """Sample covariance ``(1/N) sum_n x(n) x(n)^H`` of each ``(d, N)``
    matrix of the snapshots ``x`` ``(..., d, N)``: one matrix (a
    :class:`SnapshotMatrix`'s ``data``) or a stack of them (the bins of an
    STFT tensor).  The products are summed in ``x``'s precision with no
    conjugated copy of ``x``; the covariances are complex128 and exactly
    Hermitian."""
    # vecdot conjugates its first argument: c[..., i, j] = mean_n x_i conj(x_j)
    c = np.vecdot(x[..., None, :, :], x[..., :, None, :]).astype(complex, copy=False)
    c /= x.shape[-1]
    return 0.5 * (c + np.conj(np.swapaxes(c, -1, -2)))


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
