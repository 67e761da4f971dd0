"""Monte Carlo simulation harness: mixture generation, trial execution,
success-rate/SIR scoring, sweep orchestration and CSV/JSON output.

A trial draws a ``d x d`` mixture whose first two columns are phase-shift
steering vectors (the source of interest and a structured competitor) while
the remaining entries are random unit-modulus phases.  All methods inside a
trial see identical data and an identical initialization.
"""

import csv
import math
import time
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import baselines, bounds, capon_ice, core
from .core import SnapshotMatrix, complex_gaussian, complex_laplacean
from .errors import BlindCaponError, DomainError

SUCCESS_SIR_DB = 3.0
SIR_CAP_DB = 150.0
DEFAULT_COMPETITOR = 0.25
CSV_HEADER = (
    "grid_param,method,trial,seed,lambda_star,isir_db,lambda_hat,"
    "sir_out_db,success,iterations,runtime_s,converged,error"
)
KNOWN_METHODS = ("caponice", "fastica", "musicmpdr", "espritmpdr", "ini")
# number of plane-wave sources in the mixture model (SOI + structured competitor)
STRUCTURED_SOURCES = 2
# source laws a mixture can draw from, with their exact kappa_bar
SOURCE_LAWS = {"laplacean": 2.0, "gaussian": 1.0}


@dataclass(frozen=True)
class MixtureSpec:
    """Parameters of one synthetic mixture."""

    d: int
    N: int
    lambda_star: float
    isir_db: float
    lambda_competitor: float = DEFAULT_COMPETITOR
    source_law: str = "laplacean"
    seed: int = 0

    def __post_init__(self):
        if self.d < 3:
            raise DomainError(f"competitor construction needs d >= 3, got d={self.d}")
        if self.N < self.d:
            raise DomainError(f"need N >= d snapshots, got d={self.d}, N={self.N}")
        for name in ("lambda_star", "isir_db", "lambda_competitor"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.source_law not in SOURCE_LAWS:
            raise DomainError(f"unknown source law {self.source_law!r}")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one (mixture, method) pair."""

    spec: MixtureSpec
    grid_value: float
    method: str
    trial: int
    lambda_hat: float
    sir_out_db: float
    success: bool
    iterations: int
    runtime_s: float
    converged: bool = True
    error: str = ""                     # exception class of a failed method


def _draw(spec: MixtureSpec):
    """The draw order of ``spec.seed``: the ``d x d`` mixing phases in
    [0, 1), then the unit-variance ``d x N`` sources of the spec's law."""
    rng = np.random.default_rng(spec.seed)
    phases = rng.random((spec.d, spec.d))
    sample = complex_laplacean if spec.source_law == "laplacean" else complex_gaussian
    return phases, sample(rng, (spec.d, spec.N))


def source_powers(spec: MixtureSpec) -> np.ndarray:
    """SOI power 1; equal interferer powers summing to ``10^(-iSIR/10)``."""
    p_int = 10.0 ** (-spec.isir_db / 10.0)
    return np.r_[1.0, np.full(spec.d - 1, p_int / (spec.d - 1))]


def generate_mixture(spec: MixtureSpec):
    """Draw ``(x, A, powers)`` deterministically from ``spec.seed``.

    Columns 1 and 2 of ``A`` are the steering vectors of the SOI and the
    structured competitor; every other entry is a random unit-modulus phase.
    Channel-wise input SIR equals ``spec.isir_db`` exactly in expectation
    because all mixing entries have unit modulus.
    """
    phases, u = _draw(spec)
    model = core.ula(spec.d)
    a = np.exp(2j * np.pi * phases)
    a[:, 0] = core.steering(model, spec.lambda_star)
    a[:, 1] = core.steering(model, spec.lambda_competitor)
    powers = source_powers(spec)
    u *= np.sqrt(powers)[:, None]
    x = a @ u
    return SnapshotMatrix(x), a, powers


def output_sir(w: np.ndarray, a: np.ndarray, powers: np.ndarray) -> float:
    """Beamformer output SIR in dB of the source in column 0, capped to +-150:

        10 log10( |w^H a_0|^2 p_0 / sum_{j != 0} |w^H a_j|^2 p_j )
    """
    gains = np.abs(w.conj() @ a) ** 2 * powers
    soi = gains[0]
    interference = float(np.sum(gains) - soi)
    if soi <= 0.0:
        return -SIR_CAP_DB
    if interference <= 0.0:
        return SIR_CAP_DB
    return float(np.clip(10.0 * np.log10(soi / interference), -SIR_CAP_DB, SIR_CAP_DB))


def trial_seed_sequence(master_seed: int, grid_index: int, trial_index: int):
    """Deterministic per-trial seed material, shared by all methods.

    The data and the initialization draw come from separate child streams
    so adding methods never perturbs the data."""
    ss = np.random.SeedSequence([int(master_seed), int(grid_index), int(trial_index)])
    data_ss, ini_ss = ss.spawn(2)
    seed = int(data_ss.generate_state(1, np.uint64)[0])
    return seed, ini_ss


def _run_method(method, x, model, lam_ini, covariance):
    """Execute one method; returns (lambda_hat, w, iterations, converged).

    ``covariance()`` gives the trial's sample covariance and its
    :func:`core.covariance_factor`, which every method uses."""
    if method == "caponice":
        res = capon_ice.run(x, model, lam_ini, covariance=covariance())
        return res.lam, res.w, res.iterations, res.converged
    if method == "fastica":
        c_x, factor = covariance()
        w_ini, _ = core.mpdr_weights(factor, core.steering(model, lam_ini))
        res = baselines.fastica_one_unit(x, w_ini, (c_x, factor))
        return float("nan"), res.w, res.iterations, res.converged
    if method in ("musicmpdr", "espritmpdr"):
        c_x, factor = covariance()
        estimator = baselines.root_music if method == "musicmpdr" else baselines.tls_esprit
        cands = estimator(c_x, STRUCTURED_SOURCES).candidates
        lam_hat = float(cands[np.argmin(np.abs(cands - lam_ini))])
        w, _ = core.mpdr_weights(factor, core.steering(model, lam_hat))
        return lam_hat, w, 0, True
    if method == "ini":
        _, factor = covariance()
        w, _ = core.mpdr_weights(factor, core.steering(model, lam_ini))
        return lam_ini, w, 0, True
    raise ValueError(f"unknown method {method!r}")


def run_trial(
    spec: MixtureSpec,
    methods: Sequence[str],
    grid_value: float,
    trial_index: int,
    ini_seed,
    ini_radius: float = 0.1,
):
    """Run all methods on one mixture.

    The methods share one sample covariance and one factor of it, computed
    when the first of them runs; a failure to compute them is raised again
    for each method.  A method that raises a package error or
    a linear-algebra error, the shared factor's included, is recorded as a
    failed row (lambda_hat nan, -150 dB, not converged, the exception's
    class name as ``error``); any other exception is a bug and propagates."""
    x, a, powers = generate_mixture(spec)
    model = core.ula(spec.d)
    rng_ini = np.random.default_rng(ini_seed)
    lam_ini = spec.lambda_star + rng_ini.uniform(-ini_radius, ini_radius)
    shared = []

    def covariance():
        if not shared:
            try:
                c_x = core.sample_covariance(x)
                shared.append((c_x, core.covariance_factor(c_x)))
            except (BlindCaponError, np.linalg.LinAlgError) as exc:
                shared.append(exc)
        if isinstance(shared[0], Exception):
            raise shared[0]
        return shared[0]

    records = []
    for method in methods:
        t0 = time.perf_counter()
        error = ""
        try:
            lam_hat, w, iters, conv = _run_method(method, x, model, lam_ini, covariance)
            sir = output_sir(w, a, powers)
        except (BlindCaponError, np.linalg.LinAlgError) as exc:
            lam_hat, sir, iters, conv = float("nan"), -SIR_CAP_DB, 0, False
            error = type(exc).__name__
        runtime = time.perf_counter() - t0
        records.append(
            TrialRecord(
                spec=spec,
                grid_value=grid_value,
                method=method,
                trial=trial_index,
                lambda_hat=lam_hat,
                sir_out_db=sir,
                success=sir > SUCCESS_SIR_DB,
                iterations=iters,
                runtime_s=runtime,
                converged=conv,
                error=error,
            )
        )
    return records


def run_sweep(
    base: MixtureSpec,
    grid_param: str,
    grid_values: Sequence[float],
    methods: Sequence[str],
    trials: int,
    master_seed: int = 0,
    ini_radius: float = 0.1,
):
    """Sweep ``grid_param`` (``lambda_star`` or ``isir_db``) over
    ``grid_values``; every grid point runs ``trials`` independent mixtures.

    Runs serially and returns the records in (grid index, trial, method)
    order; the same arguments give the same records.
    """
    if grid_param not in ("lambda_star", "isir_db"):
        raise DomainError(f"unknown grid parameter {grid_param!r}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not 0.0 <= ini_radius < math.inf:
        raise DomainError(f"ini_radius must be finite and >= 0, got {ini_radius}")
    for m in methods:
        if m not in KNOWN_METHODS:
            raise DomainError(f"unknown method {m!r}")
    if not methods:
        return []

    records = []
    for gi, gv in enumerate(grid_values):
        for ti in range(trials):
            seed, ini_ss = trial_seed_sequence(master_seed, gi, ti)
            spec = replace(base, seed=seed, **{grid_param: float(gv)})
            records.extend(run_trial(spec, methods, float(gv), ti, ini_ss, ini_radius))
    return records


def _fmt(value) -> str:
    if isinstance(value, float):
        return "nan" if math.isnan(value) else f"{value:.9g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv(records: Iterable[TrialRecord], path):
    """One row per record, schema fixed by :data:`CSV_HEADER`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for r in records:
            writer.writerow(
                [
                    _fmt(r.grid_value),
                    r.method,
                    r.trial,
                    r.spec.seed,
                    _fmt(r.spec.lambda_star),
                    _fmt(r.spec.isir_db),
                    _fmt(r.lambda_hat),
                    _fmt(r.sir_out_db),
                    _fmt(r.success),
                    r.iterations,
                    _fmt(r.runtime_s),
                    _fmt(r.converged),
                    r.error,
                ]
            )


def aggregate(records: Sequence[TrialRecord], d: int, N: int, kappa_bar: float):
    """Per (grid point, method) success rate and mean successful-trial SIR,
    with the reference bounds for ``kappa_bar`` attached.

    ``kappa_bar`` is the exact value of the source law
    (:data:`SOURCE_LAWS`); at 1 the bounds are null (not identifiable).
    """
    report = bounds.crib_report(kappa_bar, d, N)
    by_point = {}
    for r in records:
        point = by_point.setdefault(r.grid_value, {})
        point.setdefault(r.method, []).append(r)
    points = []
    for gv in sorted(by_point):
        methods_out = {}
        for method, recs in sorted(by_point[gv].items()):
            sirs = np.array([r.sir_out_db for r in recs if r.success])
            isrs = 10.0 ** (-sirs / 10.0)
            n_s = int(sirs.size)
            methods_out[method] = {
                "trials": len(recs),
                "n_success": n_s,
                "success_rate": n_s / len(recs),
                "mean_sir_db": float(np.mean(sirs)) if n_s else None,
                "mean_isr": float(np.mean(isrs)) if n_s else None,
                "isr_stderr": float(np.std(isrs, ddof=1) / np.sqrt(n_s)) if n_s > 1 else None,
            }
        points.append({"grid_value": float(gv), "methods": methods_out})
    return {
        "d": d,
        "N": N,
        "kappa_bar": kappa_bar,
        "kappa_bar_stderr": 0.0,
        "crib_ice": report.crib_ice,
        "crib_capon": report.crib_capon,
        "crib_ice_db": report.crib_ice_db,
        "crib_capon_db": report.crib_capon_db,
        "points": points,
    }

