"""Write the golden rows that ``tests/test_golden.py`` compares against.

After a change that is meant to move them, run from the repository root

    PYTHONPATH=src python tests/make_golden.py

then name the rows that changed, and why, in CHANGES.md.  Each file under
``tests/golden/`` holds ``fields`` and ``rows``, one row a line:

* ``sweep_lambda.json``: all five ``simulate`` methods on a lambda* grid
  (d=5, N=500, 11 points x 20 trials, seed 7);
* ``sweep_isir.json``: all five methods on an input-SIR grid (d=8, N=1000,
  5 points x 20 trials, seed 8);
* ``capon_ice_run.json``: ``capon_ice.run`` on non-integer steering
  weights from six starts;
* ``extract.json``: ``extract`` by both methods from two starts on the
  criterion-7 fixture, scored against both sources: the direction, the
  search's counts, the per-bin flags and the output SIR;
* ``bounds.json``: the ``bounds`` report (d=5, N=500) at kappa_bar 1 and
  2, and from ``--estimate-kappa laplacean --samples 100000`` at seeds 0
  and 3.
"""

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from blindcapon import bounds, capon_ice, capon_ive, core, monte_carlo
from blindcapon.errors import BlindCaponError
from blindcapon.monte_carlo import MixtureSpec

from conftest import build_broadband_fixture

GOLDEN_DIR = Path(__file__).parent / "golden"

SWEEPS = {
    "sweep_lambda": dict(
        base=MixtureSpec(d=5, N=500, lambda_star=0.0, isir_db=0.0),
        grid_param="lambda_star", grid_values=np.linspace(-1.0, 1.0, 11), master_seed=7,
    ),
    "sweep_isir": dict(
        base=MixtureSpec(d=8, N=1000, lambda_star=0.7, isir_db=0.0),
        grid_param="isir_db", grid_values=np.linspace(-20.0, 20.0, 5), master_seed=8,
    ),
}
SWEEP_FIELDS = (
    "grid_value", "trial", "method", "lambda_hat", "sir_out_db", "success", "iterations",
    "converged", "error",
)

RUN_WEIGHTS = (0.0, 0.35, 0.7, 1.4, 2.45)
RUN_STARTS = (-0.6, -0.2, 0.3, 0.5, 0.7, 0.9)
RUN_FIELDS = (
    "start", "lam", "iterations", "start_iterations", "converged", "gradient_fallbacks",
    "sir_out_db", "error",
)

EXTRACT_STARTS = (68.43, 95.0)
EXTRACT_FIELDS = (
    "method", "theta_ini_deg", "theta_hat_deg", "iterations", "start_iterations",
    "start_fallbacks", "converged", "gradient_fallbacks", "srp_stalled",
    "included_aliased_flagged_bins", "soi_ref_index", "sir_out_db",
)

BOUNDS_KAPPAS = (1.0, 2.0)
BOUNDS_SEEDS = (0, 3)
BOUNDS_FIELDS = (
    "seed", "kappa_bar", "kappa_bar_stderr", "d", "N", "identifiable", "crib_ice",
    "crib_capon", "crib_ice_db", "crib_capon_db",
)


def _nan_to_none(value):
    return None if isinstance(value, float) and math.isnan(value) else value


def sweep_rows(name):
    records = monte_carlo.run_sweep(
        methods=monte_carlo.KNOWN_METHODS, trials=20, **SWEEPS[name]
    )
    return [[_nan_to_none(getattr(r, f)) for f in SWEEP_FIELDS] for r in records]


def run_rows():
    """``capon_ice.run`` from each start on a d=5, N=1000 Laplacean mixture
    whose source of interest (lambda 0.6) and competitor (lambda -0.4) are
    steered by non-integer weights."""
    model = core.SteeringModel(np.array(RUN_WEIGHTS))
    rng = np.random.default_rng(9)
    a = np.exp(2j * np.pi * rng.random((model.d, model.d)))
    a[:, 0] = core.steering(model, 0.6)
    a[:, 1] = core.steering(model, -0.4)
    powers = np.r_[1.0, np.full(model.d - 1, 0.25)]
    x = core.SnapshotMatrix(
        a @ (np.sqrt(powers)[:, None] * core.complex_laplacean(rng, (model.d, 1000)))
    )
    rows = []
    for start in RUN_STARTS:
        try:
            res = capon_ice.run(x, model, start)
        except BlindCaponError as exc:
            rows.append([start, None, 0, 0, False, 0, None, type(exc).__name__])
            continue
        rows.append([
            start, res.lam, res.iterations, res.start_iterations, res.converged,
            res.gradient_fallbacks, monte_carlo.output_sir(res.w, a, powers), "",
        ])
    return rows


def extract_rows(fixture):
    """What ``extract`` reports from each start by each method, at full
    precision: ``capon_ive.extract`` on the fixture's double precision
    tensor, scored against both sources.  (``extract`` itself runs on
    float32 samples, whose complex64 passes move theta-hat by up to 4e-10
    relative and the SIR by up to 8e-7 dB between BLAS kernels, too close
    to the bounds.)"""
    geom, fft_len, hop = fixture.geom, fixture.fft_len, fixture.hop
    tensor = fixture.tensor()
    rows = []
    for method in capon_ive.EXTRACT_METHODS:
        for theta in EXTRACT_STARTS:
            fields, spec = capon_ive.extract(tensor, geom, theta, method)
            y = capon_ive.istft(spec, fft_len, hop, length=fixture.mix.shape[1])
            _, soi, _, sir_out = capon_ive.sir_improvement_db(y, fixture.mix[0], fixture.sources)
            flags = fields.get("per_bin_flags")
            rows.append([
                method, theta, *(fields.get(f) for f in EXTRACT_FIELDS[2:-3]),
                flags and list(flags.values()), soi, sir_out,
            ])
    return rows


def bounds_rows():
    """What ``bounds --d 5 --n 500`` prints, at full precision: at each
    given kappa_bar (no seed, no standard error), then estimated from
    100000 Laplacean samples at each seed."""
    estimates = [(None, kappa, None) for kappa in BOUNDS_KAPPAS]
    for seed in BOUNDS_SEEDS:
        samples = core.complex_laplacean(np.random.default_rng(seed), 100_000)
        estimates.append(
            (seed, *bounds.empirical_kappa_bar_with_stderr(samples, core.laplacean_score))
        )
    rows = []
    for seed, kappa, stderr in estimates:
        report = asdict(bounds.crib_report(kappa, 5, 500))
        report.update(seed=seed, kappa_bar_stderr=stderr)
        rows.append([report[f] for f in BOUNDS_FIELDS])
    return rows


def dump(fields, rows):
    """JSON text of ``{"fields", "rows"}`` with one row a line."""
    lines = ",\n".join("  " + json.dumps(row, separators=(",", ":")) for row in rows)
    return f'{{"fields": {json.dumps(list(fields))},\n"rows": [\n{lines}\n]}}\n'


def main():
    GOLDEN_DIR.mkdir(exist_ok=True)
    tables = {name: (SWEEP_FIELDS, sweep_rows(name)) for name in SWEEPS}
    tables["capon_ice_run"] = RUN_FIELDS, run_rows()
    tables["extract"] = EXTRACT_FIELDS, extract_rows(build_broadband_fixture())
    tables["bounds"] = BOUNDS_FIELDS, bounds_rows()
    for name, (fields, rows) in tables.items():
        (GOLDEN_DIR / f"{name}.json").write_text(dump(fields, rows))
        print(f"{name}: {len(rows)} rows")


if __name__ == "__main__":
    main()
