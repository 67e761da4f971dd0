"""Command-line surface: deterministic, scriptable, CSV/JSON-emitting.

Subcommands
-----------
simulate : Monte Carlo sweep over the steering parameter or the input SIR.
bounds   : evaluate the Cramer-Rao-induced ISR bounds (closed form or from
           an empirical non-Gaussianity estimate).
extract  : broadband extraction from a multichannel WAV file.

Every command that writes files also writes a run manifest recording the
full flag set, the master seed and package versions; re-running with the
same flags reproduces outputs bit-identically apart from runtime fields.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import capon_ive, monte_carlo
from .core import complex_laplacean, laplacean_score
from .errors import BlindCaponError, DomainError


@dataclass
class RunManifest:
    command: str
    argv: list
    master_seed: int
    versions: dict
    outputs: list
    wall_clock_s: float
    timestamp_utc: str = field(default="")


def _versions() -> dict:
    return {
        "blindcapon": __version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def _round_floats(obj, digits=9):
    """Serialize every float with the given number of significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}") if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _write_json(payload: dict, path):
    with open(path, "w") as fh:
        json.dump(_round_floats(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(command, args_ns, seed, outputs, t0, out_dir):
    manifest = RunManifest(
        command=command,
        argv=args_ns.argv,
        master_seed=seed,
        versions=_versions(),
        outputs=[str(p) for p in outputs],
        wall_clock_s=time.perf_counter() - t0,
        timestamp_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )
    path = os.path.join(out_dir, f"{command}.manifest.json")
    _write_json(asdict(manifest), path)
    return path


def _default_outdir(explicit):
    if explicit:
        return explicit
    return os.environ.get("BLINDCAPON_OUTDIR", ".")


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, steps = spec.split(":")
        return np.linspace(float(lo), float(hi), int(steps))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be 'lo:hi:steps', got {spec!r}"
        ) from exc


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    base = monte_carlo.MixtureSpec(
        d=args.d,
        N=args.n,
        lambda_star=args.lambda_star,
        isir_db=args.isir_db,
        source_law=args.source_law,
    )
    out_dir = _default_outdir(args.out)
    os.makedirs(out_dir, exist_ok=True)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise DomainError(f"--methods names no method, got {args.methods!r}")
    if args.lambda_grid is not None:
        grid_param, grid_values = "lambda_star", args.lambda_grid
    else:
        grid_param, grid_values = "isir_db", args.isir_grid
    if grid_values.size == 0:
        raise DomainError("the sweep grid has no points (steps must be >= 1)")
    records = monte_carlo.run_sweep(
        base,
        grid_param,
        grid_values,
        methods,
        trials=args.trials,
        master_seed=args.seed,
        ini_radius=args.ini_radius,
    )
    csv_path = os.path.join(out_dir, "sweep.csv")
    json_path = os.path.join(out_dir, "sweep.json")
    monte_carlo.write_csv(records, csv_path)
    agg = monte_carlo.aggregate(
        records, args.d, args.n, monte_carlo.SOURCE_LAWS[args.source_law]
    )
    agg["grid_param"] = grid_param
    _write_json(agg, json_path)
    _write_manifest("simulate", args, args.seed, [csv_path, json_path], t0, out_dir)
    print(f"wrote {csv_path} ({len(records)} records) and {json_path}")
    return 0


def cmd_bounds(args) -> int:
    t0 = time.perf_counter()
    if args.estimate_kappa is not None:
        if args.estimate_kappa != "laplacean":
            raise DomainError(f"unknown source law {args.estimate_kappa!r}")
        if args.samples < 2:
            # the standard error needs two samples; fewer give NaN, not JSON
            raise DomainError(f"--samples must be >= 2, got {args.samples}")
        samples = complex_laplacean(np.random.default_rng(args.seed), args.samples)
        kappa_bar = bounds_mod.empirical_kappa_bar(samples, laplacean_score)
        stderr = bounds_mod.empirical_kappa_bar_stderr(samples, laplacean_score)
    else:
        kappa_bar, stderr = args.kappa_bar, None
    report = bounds_mod.crib_report(kappa_bar, args.d, args.n)
    payload = asdict(report)
    payload["identifiable"] = report.identifiable
    if stderr is not None:
        payload["kappa_bar_stderr"] = stderr
        payload["samples"] = args.samples
    sys.stdout.write(json.dumps(_round_floats(payload), indent=2, sort_keys=True) + "\n")
    if args.out:
        _write_json(payload, args.out)
        _write_manifest(
            "bounds", args, args.seed, [args.out], t0, os.path.dirname(args.out) or "."
        )
    return 0


def cmd_extract(args) -> int:
    t0 = time.perf_counter()
    out_dir = _default_outdir(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    rate, mix = capon_ive.read_wav(args.infile)
    if mix.shape[0] < 2:
        raise BlindCaponError("extraction needs at least two channels")
    geom = capon_ive.ArrayGeometry(spacing_m=args.spacing_m, d=mix.shape[0])
    # the STFT is single precision: scaling by the power of two that puts
    # the peak in [0.5, 1) is exact, and keeps float32 away from its range
    # limits at any input level
    _, exponent = np.frexp(np.max(np.abs(mix), initial=0.0))
    tensor = capon_ive.stft(
        np.ldexp(mix, -exponent).astype(np.float32), args.fft, args.hop, rate
    )

    report = {"method": args.method, "theta_ini_deg": args.theta_ini}
    if args.method == "ive":
        result = capon_ive.run_ive(
            tensor, geom, args.theta_ini, max_iters=args.max_iters, fmin_hz=args.fmin_hz
        )
        extracted_spec = result.extracted
        report.update(
            theta_hat_deg=result.theta_deg,
            iterations=result.iterations,
            start_iterations=result.start_iterations,
            converged=result.converged,
            gradient_fallbacks=result.gradient_fallbacks,
            per_bin_flags={
                "included": [int(k) for k in result.included_bins],
                "aliased": [int(k) for k in result.alias_bins],
                "covariance_flagged": [int(k) for k in result.flagged_bins],
            },
        )
    elif args.method == "srpphat+mpdr":
        srp = capon_ive.srp_phat(tensor, geom, args.theta_ini, fmin_hz=args.fmin_hz)
        _, extracted_spec = capon_ive.beamform_at(tensor, geom, srp.theta_deg)
        report.update(
            theta_hat_deg=srp.theta_deg, srp_stalled=srp.stalled, iterations=0
        )
    else:
        raise DomainError(f"unknown method {args.method!r}")

    y = np.ldexp(capon_ive.istft_mono(extracted_spec, tensor, length=mix.shape[1]), exponent)
    wav_path = os.path.join(out_dir, "extracted.wav")
    capon_ive.write_wav(wav_path, rate, y)
    outputs = [wav_path]

    if args.refs:
        refs = []
        for path in args.refs.split(","):
            ref_rate, ref = capon_ive.read_wav(path.strip())
            if ref_rate != rate:
                raise BlindCaponError(f"reference {path} sample rate mismatch")
            refs.append(ref[0])
        n = min(min(r.size for r in refs), y.size)
        refs = np.vstack([r[:n] for r in refs])
        improvement, soi, sir_in, sir_out = capon_ive.sir_improvement_db(
            y[:n], mix[0, :n], refs
        )
        report.update(
            sir_improvement_db=improvement,
            sir_in_db=sir_in,
            sir_out_db=sir_out,
            soi_ref_index=soi,
        )

    json_path = os.path.join(out_dir, "extract.json")
    _write_json(report, json_path)
    outputs.append(json_path)
    _write_manifest("extract", args, 0, outputs, t0, out_dir)
    print(f"theta_hat = {report['theta_hat_deg']:.4f} deg -> {wav_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blindcapon",
        description="Blind Capon beamforming: single-parameter extraction, "
        "performance bounds and the simulation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo sweep")
    sim.add_argument("--d", type=int, default=5)
    sim.add_argument("--n", type=int, default=500)
    sim.add_argument("--trials", type=int, default=100)
    grid = sim.add_mutually_exclusive_group(required=True)
    grid.add_argument("--lambda-grid", type=_parse_grid,
                      help="lo:hi:steps sweep of lambda*")
    grid.add_argument("--isir-grid", type=_parse_grid,
                      help="lo:hi:steps sweep of input SIR (dB)")
    sim.add_argument("--lambda-star", type=float, default=0.7,
                     help="fixed lambda* for iSIR sweeps")
    sim.add_argument("--isir-db", type=float, default=0.0,
                     help="fixed input SIR for lambda* sweeps")
    sim.add_argument("--methods", default="caponice,fastica")
    sim.add_argument("--source-law", default="laplacean",
                     choices=tuple(monte_carlo.SOURCE_LAWS))
    sim.add_argument("--ini-radius", type=float, default=0.1)
    sim.add_argument("--seed", type=int, default=0)
    # ignored: perfbench/workloads.py passes --threads 1; argparse exits on unknown flags
    sim.add_argument("--threads", help=argparse.SUPPRESS)
    sim.add_argument("--out", default=None, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    bnd = sub.add_parser("bounds", help="Cramer-Rao-induced ISR bounds")
    bnd.add_argument("--kappa-bar", type=float, default=None)
    bnd.add_argument("--estimate-kappa", default=None, metavar="LAW",
                     help="estimate kappa_bar empirically (law: laplacean)")
    bnd.add_argument("--samples", type=int, default=10_000_000)
    bnd.add_argument("--d", type=int, required=True)
    bnd.add_argument("--n", type=int, required=True)
    bnd.add_argument("--seed", type=int, default=0)
    bnd.add_argument("--out", default=None, help="optional JSON output path")
    bnd.set_defaults(func=cmd_bounds)

    ext = sub.add_parser(
        "extract", help="broadband extraction from WAV",
        description="Broadband extraction from a multichannel WAV file.  The "
        "STFT snapshots are single precision (complex64); covariances, "
        "beamformer weights and the DOA search are double.",
    )
    ext.add_argument("--in", dest="infile", required=True)
    ext.add_argument("--spacing-m", type=float, default=0.05)
    ext.add_argument("--theta-ini", type=float, required=True)
    ext.add_argument("--fft", type=int, default=1024)
    ext.add_argument("--hop", type=int, default=128)
    ext.add_argument("--fmin-hz", type=float, default=100.0)
    ext.add_argument("--max-iters", type=int, default=100)
    ext.add_argument("--refs", default=None,
                     help="comma-separated reference WAVs for SIR scoring, each the "
                          "source's image at microphone 0, time-aligned with the mix")
    ext.add_argument("--method", default="ive", choices=("ive", "srpphat+mpdr"))
    ext.add_argument("--out-dir", default=None)
    ext.set_defaults(func=cmd_extract)
    return parser


# flags whose values may start with '-' (grids, angles, dB values)
_DASH_VALUE_FLAGS = {
    "--lambda-grid", "--isir-grid", "--lambda-star", "--isir-db",
    "--theta-ini", "--kappa-bar", "--fmin-hz",
}


def _join_dash_values(argv):
    """Merge ``--flag value`` into ``--flag=value`` for flags whose values
    can begin with a dash, so argparse does not mistake them for options."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _DASH_VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(_join_dash_values(argv))
    args.argv = argv
    if args.command == "bounds" and args.kappa_bar is None and args.estimate_kappa is None:
        parser.error("bounds needs --kappa-bar or --estimate-kappa")
    try:
        return args.func(args)
    except BlindCaponError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
