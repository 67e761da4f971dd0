"""Workloads of the blindcapon benchmark.

Each workload builds its inputs from the workload seed, then runs passes.
A pass is a fixed list of in-process ``blindcapon.cli.main([...])``
commands, the way a user runs the tool; every pass of a run repeats the
same commands on the same inputs.  Each command's outputs go through a
correctness gate right after it ends.
"""

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from blindcapon import bounds, capon_ive, cli, monte_carlo


@dataclass(frozen=True)
class Size:
    """Work per pass.  ``full`` is the benchmark; ``tiny`` is for the self-test.

    A sweep pass is ``(commands, trials)``: that many simulate commands with
    distinct seeds, each with that many trials per grid point.  Several
    commands give several timing samples, and many trials keep the pass's
    iteration count steady from seed to seed: CaponICE trials that stop at
    ``max_iters`` make the count heavy-tailed at d=8, iSIR -20 dB.  An
    extract pass covers ``extract_fixtures`` scenes for the same reason: one
    scene's Newton iteration count varies by about 15 % from seed to seed.
    """

    lambda_sweep: tuple
    isir_sweep: tuple
    extract_fixtures: int
    audio_s: float
    setup_repeats: int


SIZES = {
    "full": Size(lambda_sweep=(4, 25), isir_sweep=(6, 50), extract_fixtures=3,
                 audio_s=5.0, setup_repeats=3),
    "tiny": Size(lambda_sweep=(2, 1), isir_sweep=(2, 1), extract_fixtures=1,
                 audio_s=3.0, setup_repeats=1),
}

# broadband fixture: the acceptance suite's criterion-7 scene
FS = 16000
SPACING_M = 0.05
CHANNELS = 5
THETAS_DEG = (63.43, 90.0)
FLOOR_DB = -30.0
START_OFFSET_DEG = 5.0
MAX_THETA_ERR_DEG = 0.5
MIN_SIR_IMPROVEMENT_DB = 10.0

CRIB_FIELDS = ("crib_ice", "crib_capon", "crib_ice_db", "crib_capon_db")


@dataclass
class PassResult:
    """What one pass did and whether its outputs passed the gates.

    ``command_s`` holds the wall time of each command, in pass order.
    """

    command_s: list
    solves: int
    solves_failed: int
    newton_iters: int
    success_rate: float
    mean_sir_db: float
    work: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems


def _run_command(argv, problems):
    """Run one CLI command; returns its wall time in seconds."""
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a crashing command fails the gate, the run goes on
        problems.append(f"{argv[0]} raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0
    wall = time.perf_counter() - t0
    if code != 0:
        problems.append(f"{argv[0]} exited with {code}")
    return wall


class Sweep:
    """Simulate commands with distinct seeds, ``trials`` per grid point each."""

    def __init__(self, argv, grid_points, methods, size_attr):
        self.argv = argv
        self.grid_points = grid_points
        self.methods = methods
        self.size_attr = size_attr

    def setup(self, work_dir, seed, size):
        os.makedirs(work_dir, exist_ok=True)
        commands, trials = getattr(size, self.size_attr)
        return {
            "out": os.path.join(work_dir, "sweep"),
            "trials": trials,
            "seeds": [seed * 1000 + j for j in range(commands)],
        }

    def structural_counts(self, inputs):
        return {"trials": self.grid_points * inputs["trials"] * len(inputs["seeds"])}

    def run_pass(self, inputs):
        trials = inputs["trials"]
        rows = self.grid_points * trials * len(self.methods)
        run_sweep = monte_carlo.run_sweep
        captured = []

        def capture(*args, **kwargs):
            records = run_sweep(*args, **kwargs)
            captured.append(records)
            return records

        command_s, records, problems = [], [], []
        for seed in inputs["seeds"]:
            argv = list(self.argv) + [
                "--methods", ",".join(self.methods), "--trials", str(trials),
                "--seed", str(seed), "--threads", "1", "--out", inputs["out"],
            ]
            captured.clear()
            errors = []
            monte_carlo.run_sweep = capture
            try:
                command_s.append(_run_command(argv, errors))
            finally:
                monte_carlo.run_sweep = run_sweep
            got = captured[0] if captured else []
            if not errors:
                errors = self._gate(inputs["out"], got, rows)
            problems += [f"simulate --seed {seed}: {msg}" for msg in errors]
            records += got

        capon = [r for r in records if r.method == "caponice"]
        good = [r.sir_out_db for r in capon if r.success]
        return PassResult(
            command_s=command_s,
            solves=len(records),
            # run_trial records a raised method as converged=False at -150 dB
            solves_failed=sum(1 for r in records if not r.converged),
            newton_iters=sum(r.iterations for r in capon),
            success_rate=len(good) / len(capon) if capon else 0.0,
            mean_sir_db=float(np.mean(good)) if good else 0.0,
            work={"trials": len(capon)},
            problems=problems,
        )

    @staticmethod
    def _gate(out_dir, records, expected_rows):
        problems = []
        with open(os.path.join(out_dir, "sweep.csv"), newline="") as fh:
            rows = sum(1 for _ in csv.reader(fh)) - 1
        if rows != expected_rows:
            problems.append(f"sweep.csv has {rows} rows, expected {expected_rows}")
        if len(records) != expected_rows:
            problems.append(f"run_sweep returned {len(records)} records, expected {expected_rows}")
        with open(os.path.join(out_dir, "sweep.json")) as fh:
            agg = json.load(fh)
        ref = bounds.crib_report(agg["kappa_bar"], agg["d"], agg["N"])
        for name in CRIB_FIELDS:
            # sweep.json rounds floats to 9 significant digits
            if not math.isclose(agg[name], getattr(ref, name), rel_tol=1e-7):
                problems.append(
                    f"sweep.json {name}={agg[name]} but crib_report gives {getattr(ref, name)}")
        return problems


def build_fixture(seed, duration_s):
    """Two speech-shaped sources at 63.43 and 90 degrees on a 5-sensor ULA
    (0.05 m), anechoic phase-shift mixing plus a -30 dB white floor.
    Returns ``(mix (d, L), sources (2, L))``."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * FS)
    geom = capon_ive.ArrayGeometry(spacing_m=SPACING_M, d=CHANNELS)
    sources = np.vstack([capon_ive.speech_shaped_noise(rng, n, FS) for _ in THETAS_DEG])
    mix = capon_ive.anechoic_phase_mix(sources, THETAS_DEG, geom, FS)
    mix = mix + 10.0 ** (FLOOR_DB / 20.0) * rng.standard_normal(mix.shape)
    return mix, sources


def fixture_seeds(seed, count):
    """The workload seed itself, then ``count - 1`` seeds derived from it."""
    derived = np.random.SeedSequence(seed).spawn(count - 1)
    return [seed] + [int(ss.generate_state(1)[0]) for ss in derived]


class Extract:
    """One ``extract`` command per source and scene, started 5 degrees off
    the source's DOA."""

    def setup(self, work_dir, seed, size):
        fixtures = []
        for fixture_seed in fixture_seeds(seed, size.extract_fixtures):
            scene_dir = os.path.join(work_dir, f"scene{fixture_seed}")
            os.makedirs(scene_dir, exist_ok=True)
            mix, sources = build_fixture(fixture_seed, size.audio_s)
            scene = {"seed": fixture_seed, "mix": os.path.join(scene_dir, "mix.wav"),
                     "refs": [], "out": os.path.join(scene_dir, "extract")}
            capon_ive.write_wav(scene["mix"], FS, mix)
            for i, src in enumerate(sources):
                scene["refs"].append(os.path.join(scene_dir, f"ref{i}.wav"))
                capon_ive.write_wav(scene["refs"][-1], FS, src)
            fixtures.append(scene)
        return {"fixtures": fixtures, "audio_s": mix.shape[1] / FS}

    def structural_counts(self, inputs):
        return {"extract_calls": len(inputs["fixtures"]) * len(THETAS_DEG)}

    def run_pass(self, inputs):
        command_s, problems, reports = [], [], []
        theta_err, improvement, passed = [], [], 0
        iters_by_fixture = {}
        for scene in inputs["fixtures"]:
            for i, theta in enumerate(THETAS_DEG):
                out_dir = os.path.join(scene["out"], f"source{i}")
                errors = []
                command_s.append(_run_command(
                    [
                        "extract", "--in", scene["mix"], "--spacing-m", f"{SPACING_M}",
                        "--theta-ini", f"{theta + START_OFFSET_DEG:.2f}",
                        "--fft", "1024", "--hop", "128",
                        "--refs", ",".join(scene["refs"]), "--out-dir", out_dir,
                    ],
                    errors,
                ))
                if not errors:
                    with open(os.path.join(out_dir, "extract.json")) as fh:
                        report = json.load(fh)
                    reports.append(report)
                    iters_by_fixture.setdefault(scene["seed"], []).append(report["iterations"])
                    theta_err.append(abs(report["theta_hat_deg"] - theta))
                    improvement.append(report["sir_improvement_db"])
                    if theta_err[-1] < MAX_THETA_ERR_DEG and improvement[-1] > MIN_SIR_IMPROVEMENT_DB:
                        passed += 1
                    else:
                        errors.append(
                            f"theta error {theta_err[-1]:.4f} deg, SIR improvement "
                            f"{improvement[-1]:.2f} dB (criterion 7 needs < "
                            f"{MAX_THETA_ERR_DEG} deg and > {MIN_SIR_IMPROVEMENT_DB} dB)")
                problems += [f"extract scene {scene['seed']} source {i}: {msg}" for msg in errors]

        calls = len(command_s)
        return PassResult(
            command_s=command_s,
            solves=calls,
            solves_failed=calls - sum(1 for r in reports if r["converged"]),
            newton_iters=sum(r["iterations"] for r in reports),
            success_rate=passed / calls,
            mean_sir_db=float(np.mean([r["sir_out_db"] for r in reports])) if reports else 0.0,
            work={
                "audio_s": inputs["audio_s"] * calls,
                "theta_err_deg": max(theta_err, default=0.0),
                "sir_improvement_db": min(improvement, default=0.0),
                "iters_by_fixture": iters_by_fixture,
            },
            problems=problems,
        )


WORKLOADS = {
    # Paper's desk-scale figure: thousands of 5x5 solves on 500 samples, so
    # per-call overhead in capon_ice, core and baselines dominates.
    "sweep-lambda": Sweep(
        ["simulate", "--d", "5", "--n", "500", "--lambda-grid", "-1:1:21", "--isir-db", "0"],
        grid_points=21,
        methods=("caponice", "fastica"),
        size_attr="lambda_sweep",
    ),
    # Same layers at 10x the samples: Newton iterations are bound by O(dN)
    # passes, generate_mixture weighs more, and it is the only workload
    # running Root MUSIC and TLS ESPRIT.
    "sweep-isir-large": Sweep(
        ["simulate", "--d", "8", "--n", "5000", "--isir-grid", "-20:20:5", "--lambda-star", "0.7"],
        grid_points=5,
        methods=("caponice", "musicmpdr", "espritmpdr", "ini"),
        size_attr="isir_sweep",
    ),
    # Broadband extraction: all work in capon_ive, none in the narrowband layers.
    "extract-ive": Extract(),
}
