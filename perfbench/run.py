"""blindcapon benchmark: closed-loop CLI workloads with per-layer tracing.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-lambda --seed 1 --seconds 20 --trace 0

``--trace 0`` times passes untraced and reports the end-to-end metrics;
``--trace 1`` times untraced passes, then runs one pass with every public
function of ``src/blindcapon`` wrapped in spans, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is the
result as one JSON object.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# serial BLAS, set before numpy loads: one caller, one core per workload
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"

# layers: the public functions reported per module (self time and calls)
LAYER_FUNCTIONS = {
    "core": ("covariance_factor", "mpdr_weights", "soi_statistics",
             "sample_covariance", "complex_laplacean"),
    "capon_ice": ("run",),
    "baselines": ("fastica_one_unit", "root_music", "tls_esprit"),
    "bounds": ("empirical_kappa_bar", "empirical_kappa_bar_stderr"),
    "monte_carlo": ("generate_mixture", "run_trial", "run_sweep", "aggregate",
                    "generator_kappa_bar", "write_csv"),
    "capon_ive": ("stft", "beamform_at", "istft", "read_wav", "write_wav",
                  "sir_improvement_db", "run_ive"),
    "cli": ("main",),
}
# tensor passes over the (bins, d, frames) STFT data per run_ive iteration:
# one in the state build (w^H x), three in the derivatives (C w, and the
# score mean)
IVE_TENSOR_PASSES = 4
COMPLEX_BYTES = 16


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="work per pass; 'tiny' is for the self-test")
    p.add_argument("--setup-only", metavar="DIR", default=None,
                   help=argparse.SUPPRESS)  # set-up probe, run in a child process
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _hooks():
    """Counters read at the layer boundaries from arguments and results."""

    def capon_run(c, res, args, kwargs):
        c["capon_ice.run.iters"] += res.iterations
        c["capon_ice.run.converged"] += bool(res.converged)
        c["capon_ice.run.fallbacks"] += res.gradient_fallbacks

    def fastica(c, res, args, kwargs):
        c["baselines.fastica_one_unit.iters"] += res.iterations
        c["baselines.fastica_one_unit.converged"] += bool(res.converged)

    def run_ive(c, res, args, kwargs):
        tensor = args[0]
        c["capon_ive.run_ive.iters"] += res.iterations
        c["capon_ive.run_ive.converged"] += bool(res.converged)
        c["capon_ive.run_ive.bytes"] += (
            res.iterations * res.included_bins.size * tensor.n_channels
            * tensor.n_frames * COMPLEX_BYTES * IVE_TENSOR_PASSES
        )

    return {
        "capon_ice.run": capon_run,
        "baselines.fastica_one_unit": fastica,
        "capon_ive.run_ive": run_ive,
    }


def layer_metrics(summary, counters):
    """Per-layer metrics as ``{name: (value, unit)}`` from a traced pass."""
    out = {}

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    for module, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            name = f"{module}.{fn}"
            out[f"{name}.calls"] = (calls(name), "count")
            out[f"{name}.self_s"] = (summary.get(name, {}).get("self_s", 0.0), "s")
        out[f"{module}.self_s"] = (
            sum((v["self_s"] for k, v in summary.items() if k.split(".")[0] == module), 0.0),
            "s")
    runs = calls("capon_ice.run")
    out["capon_ice.run.iters_per_call"] = (ratio(counters["capon_ice.run.iters"], runs), "count")
    out["capon_ice.run.converged_ratio"] = (ratio(counters["capon_ice.run.converged"], runs), "ratio")
    out["capon_ice.run.fallbacks"] = (int(counters["capon_ice.run.fallbacks"]), "count")
    out["capon_ice.contrast.calls"] = (calls("capon_ice.contrast"), "count")
    ica = calls("baselines.fastica_one_unit")
    out["baselines.fastica_one_unit.iters_per_call"] = (
        ratio(counters["baselines.fastica_one_unit.iters"], ica), "count")
    out["baselines.fastica_one_unit.converged_ratio"] = (
        ratio(counters["baselines.fastica_one_unit.converged"], ica), "ratio")
    ive_iters = counters["capon_ive.run_ive.iters"]
    out["capon_ive.run_ive.iters"] = (int(ive_iters), "count")
    out["capon_ive.run_ive.converged_ratio"] = (
        ratio(counters["capon_ive.run_ive.converged"], calls("capon_ive.run_ive")), "ratio")
    out["capon_ive.run_ive.s_per_iter"] = (
        ratio(summary.get("capon_ive.run_ive", {}).get("self_s", 0.0), ive_iters), "s")
    # computed from array sizes, not measured: ignores cache behaviour
    out["capon_ive.run_ive.bytes_per_iter"] = (
        ratio(counters["capon_ive.run_ive.bytes"], ive_iters), "B")
    return out


def structural_problems(metrics, pass_result, expected):
    """Checks that the tracer saw every call it should have."""
    problems = []

    def m(name):
        return metrics[name][0]

    capon_calls = m("capon_ice.run.calls")
    if "trials" in expected:
        trials = expected["trials"]
        if capon_calls != trials:
            problems.append(f"capon_ice.run.calls={capon_calls}, expected {trials} trials")
        # monte_carlo binds complex_laplacean directly: d draws per trial
        if m("core.complex_laplacean.calls") < trials:
            problems.append("core.complex_laplacean calls were missed")
        # capon_ice binds covariance_factor directly: one call per run
        if m("core.covariance_factor.calls") < capon_calls:
            problems.append("core.covariance_factor calls were missed")
        capon_iters = pass_result.newton_iters
        if m("core.mpdr_weights.calls") < capon_iters + capon_calls:
            problems.append(
                f"core.mpdr_weights.calls={m('core.mpdr_weights.calls')} < "
                f"CaponICE iterations + calls = {capon_iters + capon_calls}")
        if m("capon_ice.contrast.calls") != 0:
            problems.append("the sweep evaluated capon_ice.contrast")
    if "extract_calls" in expected:
        if m("capon_ive.run_ive.calls") != expected["extract_calls"]:
            problems.append(
                f"capon_ive.run_ive.calls={m('capon_ive.run_ive.calls')}, "
                f"expected {expected['extract_calls']}")
        if m("capon_ive.run_ive.iters") != pass_result.newton_iters:
            problems.append("run_ive iterations differ from the extract reports")
    return problems


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "blindcapon").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cli_threads": 1,
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def probe_setup(args, index):
    """Seconds from spawning a fresh process until its workload is ready."""
    probe_dir = WORK_ROOT / f"probe-{os.getpid()}-{index}"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--size", args.size, "--setup-only", str(probe_dir)]
    t0 = time.perf_counter()
    try:
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    lines = [ln for ln in done.stdout.splitlines() if ln.startswith("ready ")]
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(lines[-1].split()[1]) - t0


def main(argv=None):
    args = _parse_args(argv)
    if not (ROOT / "src" / "blindcapon" / "__init__.py").is_file():
        print(f"error: no blindcapon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads  # imports blindcapon: part of the set-up time

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]

    if args.setup_only:
        workload.setup(args.setup_only, args.seed, size)
        print(f"ready {time.perf_counter()!r}", flush=True)
        return 0

    run_dir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs = workload.setup(str(run_dir / "inputs"), args.seed, size)
        setup_samples = [probe_setup(args, i) for i in range(size.setup_repeats)]
        return _measure(args, workload, inputs, setup_samples)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def pass_seconds(passes):
    """Untraced wall time of one pass: per command, the median over passes."""
    return sum(statistics.median(walls) for walls in zip(*(p.command_s for p in passes)))


def _measure(args, workload, inputs, setup_samples):
    from blindcapon import (baselines, bounds, capon_ice, capon_ive, cli, core,
                            monte_carlo)

    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < args.seconds:
        passes.append(workload.run_pass(inputs))
    # a pass that fails its gate is counted as failed and not timed
    timed = [p for p in passes if p.ok] or passes
    untraced_s = pass_seconds(timed)

    traced = None
    layer = {}
    problems = []
    results_dir = WORK_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(
            [core, capon_ice, bounds, baselines, monte_carlo, capon_ive, cli],
            roots=("cli.main", "monte_carlo.run_trial"),
            hooks=_hooks(),
        )
        with tracer:
            traced = workload.run_pass(inputs)
        layer = layer_metrics(tracer.summary(), tracer.counters)
        problems += structural_problems(layer, traced, workload.structural_counts(inputs))
        traced_s = sum(traced.command_s)
        layer["trace.untraced_pass_s"] = (untraced_s, "s")
        layer["trace.traced_pass_s"] = (traced_s, "s")
        layer["trace.overhead_s"] = (traced_s - untraced_s, "s")
        layer["trace.spans"] = (len(tracer.spans), "count")
        layer["fail_rate"] = (traced.solves_failed / traced.solves, "ratio")
        layer["theta_err_deg"] = (traced.work.get("theta_err_deg", 0.0), "deg")
        layer["sir_improvement_db"] = (traced.work.get("sir_improvement_db", 0.0), "dB")
        tracer.write_spans(results_dir / f"{args.workload}-seed{args.seed}-spans.csv.gz")

    all_passes = passes + ([traced] if traced else [])
    for i, p in enumerate(all_passes):
        problems += [f"pass {i}: {msg}" for msg in p.problems]
    first = timed[0]
    e2e = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (first.solves / untraced_s, "1/s"),
        "newton_iters": (first.newton_iters, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (first.success_rate, "ratio"),
        "mean_sir_db": (first.mean_sir_db, "dB"),
    }
    env = environment(args)
    result = {
        "correct": not problems,
        "attempted": sum(len(p.command_s) for p in all_passes),
        "failed": sum(len(p.command_s) for p in all_passes if not p.ok),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in (layer if args.trace else e2e).items()},
    }
    record = {
        "environment": env, "result": result, "setup_samples_s": setup_samples,
        "passes": [vars(p) for p in all_passes], "end_to_end": e2e, "per_layer": layer,
    }
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    lines = [
        f"workload {args.workload} seed {args.seed}: {len(passes)} untraced passes"
        f" of {len(first.command_s)} commands, {first.solves} solves each",
        "setup_s samples: " + ", ".join(f"{s:.3f}" for s in setup_samples),
    ]
    lines += [f"pass {i} command s: " + ", ".join(f"{s:.3f}" for s in p.command_s)
              for i, p in enumerate(all_passes)]
    if "trials" in first.work:
        lines.append(f"trials_per_s = {first.work['trials'] / untraced_s:.6g}")
    if "audio_s" in first.work:
        lines.append(f"audio_s_per_s = {first.work['audio_s'] / untraced_s:.6g}")
        lines.append(f"theta_err_deg = {first.work['theta_err_deg']:.6g}, "
                     f"sir_improvement_db = {first.work['sir_improvement_db']:.6g}")
        lines.append("newton_iters by scene seed: " + ", ".join(
            f"{seed}: {' + '.join(map(str, its))}"
            for seed, its in first.work["iters_by_fixture"].items()))
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in {**e2e, **layer}.items()]
    lines += [f"PROBLEM {msg}" for msg in problems]
    lines.append("environment " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
