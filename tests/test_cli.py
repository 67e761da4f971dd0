"""Command-line surface: flags, outputs, determinism, manifests."""

import csv
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import blindcapon
from blindcapon import bounds, capon_ive, cli, monte_carlo
from conftest import riff_bytes, wav_fmt


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def simulate_args(out, extra=()):
    return [
        "simulate", "--d", "5", "--n", "200", "--trials", "3",
        "--lambda-grid", "-0.5:0.5:3", "--methods", "caponice,fastica",
        "--seed", "7", "--out", str(out), *extra,
    ]


def test_simulate_row_count_and_manifest(tmp_path):
    assert cli.main(simulate_args(tmp_path)) == 0
    rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 1 + 3 * 3 * 2
    assert rows[0][0] == "grid_param"
    agg = read_json(tmp_path / "sweep.json")
    assert agg["grid_param"] == "lambda_star"
    assert agg["crib_capon"] < agg["crib_ice"]
    assert agg["kappa_bar"] == 2
    assert agg["kappa_bar_stderr"] == 0
    assert agg["crib_capon"] == bounds.crib_report(2, 5, 200).crib_capon
    manifest = read_json(tmp_path / "simulate.manifest.json")
    assert manifest["master_seed"] == 7
    assert len(manifest["outputs"]) == 2
    assert "numpy" in manifest["versions"]


def test_simulate_deterministic_modulo_runtime(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(simulate_args(out1)) == 0
    # --threads is ignored; outputs never depended on it
    assert cli.main(simulate_args(out2, ["--threads", "4"])) == 0
    rows1, rows2 = read_csv(out1 / "sweep.csv"), read_csv(out2 / "sweep.csv")
    runtime_col = rows1[0].index("runtime_s")
    for r1, r2 in zip(rows1, rows2):
        assert r1[:runtime_col] == r2[:runtime_col]


def test_simulate_gaussian_law_has_no_bounds(tmp_path):
    assert cli.main(simulate_args(tmp_path, ["--source-law", "gaussian"])) == 0
    agg = read_json(tmp_path / "sweep.json")
    assert agg["kappa_bar"] == 1
    for name in ("crib_ice", "crib_capon", "crib_ice_db", "crib_capon_db"):
        assert agg[name] is None


def test_simulate_help_hides_threads(capsys):
    with pytest.raises(SystemExit):
        cli.main(["simulate", "--help"])
    assert "--threads" not in capsys.readouterr().out


def test_simulate_music_reports_lambda_hat(tmp_path):
    args = [
        "simulate", "--d", "5", "--n", "200", "--trials", "2",
        "--lambda-grid", "0.4:0.8:2", "--methods", "musicmpdr",
        "--seed", "3", "--out", str(tmp_path),
    ]
    assert cli.main(args) == 0
    rows = read_csv(tmp_path / "sweep.csv")
    lam_col = rows[0].index("lambda_hat")
    for row in rows[1:]:
        assert row[lam_col] not in ("", "nan")
        float(row[lam_col])


def test_simulate_isir_grid(tmp_path):
    args = [
        "simulate", "--d", "4", "--n", "200", "--trials", "2",
        "--isir-grid", "-10:10:2", "--lambda-star", "0.6",
        "--methods", "ini", "--seed", "5", "--out", str(tmp_path),
    ]
    assert cli.main(args) == 0
    agg = read_json(tmp_path / "sweep.json")
    assert agg["grid_param"] == "isir_db"
    assert [p["grid_value"] for p in agg["points"]] == [-10.0, 10.0]


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_closed_form(capsys):
    assert cli.main(["bounds", "--kappa-bar", "2", "--d", "5", "--n", "500"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["identifiable"] is True
    assert payload["crib_ice"] == pytest.approx(0.008)
    assert payload["crib_capon"] == pytest.approx(0.0045)


def test_bounds_gaussian_not_identifiable(capsys):
    assert cli.main(["bounds", "--kappa-bar", "1", "--d", "5", "--n", "500"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["identifiable"] is False
    assert payload["crib_ice"] is None


def test_bounds_estimate_kappa(capsys, tmp_path):
    out = tmp_path / "bounds.json"
    args = [
        "bounds", "--estimate-kappa", "laplacean", "--samples", "200000",
        "--d", "5", "--n", "500", "--seed", "1", "--out", str(out),
    ]
    assert cli.main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["kappa_bar"] - 2.0) < 0.05
    assert payload["kappa_bar_stderr"] > 0.0
    assert read_json(out) == payload
    assert (tmp_path / "bounds.manifest.json").exists()


def test_manifest_records_argv_passed_to_main(tmp_path):
    args = [
        "bounds", "--kappa-bar", "2", "--d", "5", "--n", "500",
        "--out", str(tmp_path / "bounds.json"),
    ]
    assert cli.main(args) == 0
    assert read_json(tmp_path / "bounds.manifest.json")["argv"] == args


def test_bounds_requires_kappa_source():
    with pytest.raises(SystemExit):
        cli.main(["bounds", "--d", "5", "--n", "500"])


def test_bounds_domain_error_exit_code(capsys):
    assert cli.main(["bounds", "--kappa-bar", "0.5", "--d", "5", "--n", "500"]) == 1


@pytest.mark.parametrize("kappa_bar", ["inf", "nan"])
def test_bounds_non_finite_kappa_exit_code(capsys, kappa_bar):
    assert cli.main(["bounds", "--kappa-bar", kappa_bar, "--d", "5", "--n", "500"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def test_extract_ive_with_refs(tmp_path, broadband_wavs):
    mix_path, ref_paths, fx = broadband_wavs
    out = tmp_path / "ive"
    args = [
        "extract", "--in", str(mix_path), "--spacing-m", "0.05",
        "--theta-ini", str(fx.thetas_deg[0] + 5.0),
        "--refs", ",".join(str(p) for p in ref_paths),
        "--out-dir", str(out),
    ]
    assert cli.main(args) == 0
    report = read_json(out / "extract.json")
    assert abs(report["theta_hat_deg"] - fx.thetas_deg[0]) < 0.5
    assert report["sir_improvement_db"] > 10.0
    assert report["soi_ref_index"] == 0
    assert (out / "extracted.wav").exists()
    assert (out / "extract.manifest.json").exists()


def test_extract_srpphat_mpdr(tmp_path, broadband_wavs):
    mix_path, ref_paths, fx = broadband_wavs
    out = tmp_path / "srp"
    args = [
        "extract", "--in", str(mix_path), "--spacing-m", "0.05",
        "--theta-ini", str(fx.thetas_deg[1] + 5.0),
        "--method", "srpphat+mpdr", "--out-dir", str(out),
    ]
    assert cli.main(args) == 0
    report = read_json(out / "extract.json")
    assert abs(report["theta_hat_deg"] - fx.thetas_deg[1]) < 1.0
    # optional-field contract: no refs -> no SIR fields, still success
    assert "sir_improvement_db" not in report


def extract_report(out, mix_path, theta_ini):
    """``extract.json`` of ``extract`` with the defaults on ``mix_path``."""
    assert cli.main(["extract", "--in", str(mix_path), "--theta-ini", str(theta_ini),
                     "--out-dir", str(out)]) == 0
    return read_json(out / "extract.json")


def test_extract_reports_the_single_precision_search(tmp_path, broadband_wavs):
    # the float32 WAV scaled by a power of two is the float32 mix exactly
    mix_path, _, fx = broadband_wavs
    theta_ini = fx.thetas_deg[0] + 5.0
    report = extract_report(tmp_path, mix_path, theta_ini)
    tensor = capon_ive.stft(fx.mix.astype(np.float32), fx.fft_len, fx.hop, fx.sample_rate)
    res = capon_ive.run_ive(tensor, fx.geom, theta_ini)
    assert report["theta_hat_deg"] == float(f"{res.theta_deg:.9g}")
    assert report["iterations"] == res.iterations


def test_extract_reports_and_logs_both_searches(tmp_path, broadband_wavs, caplog):
    # the climb to the Capon-spectrum peak, then the search from there
    caplog.set_level(logging.DEBUG, logger="blindcapon.capon_ice")
    mix_path, _, fx = broadband_wavs
    report = extract_report(tmp_path, mix_path, fx.thetas_deg[0] + 5.0)
    messages = [r.getMessage() for r in caplog.records if r.name == "blindcapon.capon_ice"]
    stops = [m for m in messages if m.startswith("stop: ")]
    assert len(stops) == 2
    assert f"after {report['start_iterations']} iterations" in stops[0]
    assert f"after {report['iterations']} iterations" in stops[1]
    steps = sum(m.startswith("param ") for m in messages)
    assert steps == report["start_iterations"] + report["iterations"]


def write_float64_wav(path, sample_rate, signal):
    data = np.ascontiguousarray(signal.T, dtype="<f8").tobytes()
    fmt = wav_fmt(3, signal.shape[0], 64, rate=sample_rate)
    path.write_bytes(riff_bytes((b"fmt ", fmt), (b"data", data)))


@pytest.mark.parametrize(
    "scale, write", [(1e-20, capon_ive.write_wav), (1e30, write_float64_wav)],
    ids=["1e-20-float32", "1e30-float64"],
)
def test_extract_is_scale_invariant(tmp_path, broadband_wavs, scale, write):
    # far below and above float32's 1/sigma^2 range: the single-precision
    # STFT is formed from the mix scaled to a peak in [0.5, 1)
    mix_path, _, fx = broadband_wavs
    theta_ini = fx.thetas_deg[1] + 5.0
    unit = extract_report(tmp_path / "unit", mix_path, theta_ini)
    scaled_path = tmp_path / "scaled.wav"
    write(scaled_path, fx.sample_rate, scale * fx.mix)
    scaled = extract_report(tmp_path / "scaled", scaled_path, theta_ini)
    assert scaled["converged"] and scaled["per_bin_flags"]["covariance_flagged"] == []
    assert scaled["theta_hat_deg"] == pytest.approx(unit["theta_hat_deg"], abs=1e-6)
    # and the output is scaled back
    _, y_unit = capon_ive.read_wav(tmp_path / "unit" / "extracted.wav")
    _, y_scaled = capon_ive.read_wav(tmp_path / "scaled" / "extracted.wav")
    assert np.std(y_scaled) == pytest.approx(scale * np.std(y_unit), rel=1e-4)


def test_extract_of_a_silent_mix_fails(tmp_path, capsys, broadband_wavs):
    _, _, fx = broadband_wavs
    path = tmp_path / "silent.wav"
    capon_ive.write_wav(path, fx.sample_rate, np.zeros_like(fx.mix))
    out = tmp_path / "ive"
    args = ["extract", "--in", str(path), "--theta-ini", "70", "--out-dir", str(out)]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith(
        "error: every included bin has a singular covariance")
    assert not (out / "extracted.wav").exists()


def test_extract_missing_file_fails(tmp_path):
    args = [
        "extract", "--in", str(tmp_path / "nope.wav"),
        "--theta-ini", "90", "--out-dir", str(tmp_path),
    ]
    assert cli.main(args) == 1


# ---------------------------------------------------------------------------
# bad values: an error line and exit code 1, no traceback
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "extra",
    [
        ["--d", "2"],
        ["--d", "5", "--n", "3"],
        ["--methods", "magic"],
        ["--lambda-star", "nan"],
        ["--ini-radius", "nan"],
        ["--ini-radius", "-0.1"],
        ["--lambda-grid", "0:1:0"],
        ["--methods", ","],
    ],
    ids=["d2", "n-below-d", "unknown-method", "lambda-star-nan", "ini-radius-nan",
         "ini-radius-negative", "lambda-grid-empty", "no-methods"],
)
def test_simulate_bad_value_exit_code(tmp_path, capsys, extra):
    out = tmp_path / "out"
    args = [
        "simulate", "--trials", "1", "--lambda-grid", "0:1:2", "--methods", "ini",
        "--out", str(out), *extra,
    ]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "sweep.csv").exists()


def test_simulate_zero_trials_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["simulate", "--trials", "0", "--lambda-grid", "0:1:2", "--methods", "ini",
            "--out", str(out)]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "sweep.csv").exists()


def test_bounds_zero_samples_exit_code(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    args = ["bounds", "--estimate-kappa", "laplacean", "--samples", "0",
            "--d", "5", "--n", "500", "--out", str(out)]
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert not out.exists()


def test_simulate_bad_grid_is_a_usage_error(tmp_path, capsys):
    args = ["simulate", "--lambda-grid", "0:1", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    assert "lo:hi:steps" in capsys.readouterr().err


def assert_extract_fails(tmp_path, capsys, broadband_wavs, extra):
    mix_path, _, fx = broadband_wavs
    out = tmp_path / "ive"
    args = [
        "extract", "--in", str(mix_path), "--theta-ini", str(fx.thetas_deg[0] + 5.0),
        "--out-dir", str(out), *extra,
    ]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "extracted.wav").exists()


def test_extract_max_iters_zero_exit_code(tmp_path, capsys, broadband_wavs):
    assert_extract_fails(tmp_path, capsys, broadband_wavs, ["--max-iters", "0"])


@pytest.mark.parametrize(
    "extra",
    [["--hop", "0"], ["--fft", "0"], ["--fft", "1024", "--hop", "1024"]],
    ids=["hop0", "fft0", "hop-not-below-fft"],
)
def test_extract_bad_stft_exit_code(tmp_path, capsys, broadband_wavs, extra):
    assert_extract_fails(tmp_path, capsys, broadband_wavs, extra)


@pytest.mark.parametrize(
    "extra",
    [
        ["--fmin-hz", "8000"],
        ["--fmin-hz", "9000"],
        ["--fmin-hz", "9000", "--method", "srpphat+mpdr"],
        ["--spacing-m", "0"],
        ["--spacing-m", "nan"],
        ["--spacing-m", "inf"],
    ],
    ids=["fmin-at-nyquist", "fmin-above-nyquist", "srpphat-fmin-above-nyquist", "spacing0",
         "spacing-nan", "spacing-inf"],
)
def test_extract_bad_band_or_geometry_exit_code(tmp_path, capsys, broadband_wavs, extra):
    assert_extract_fails(tmp_path, capsys, broadband_wavs, extra)


@pytest.mark.parametrize("method", ["ive", "srpphat+mpdr"])
def test_extract_non_finite_start_exit_code(tmp_path, capsys, broadband_wavs, method):
    assert_extract_fails(
        tmp_path, capsys, broadband_wavs, ["--theta-ini", "nan", "--method", method]
    )


@pytest.mark.parametrize("sample", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("method", ["ive", "srpphat+mpdr"])
def test_extract_non_finite_sample_exit_code(tmp_path, capsys, broadband_wavs, method, sample):
    _, _, fx = broadband_wavs
    mix = fx.mix.copy()
    mix[1, 1000] = sample
    path = tmp_path / "bad.wav"
    capon_ive.write_wav(path, fx.sample_rate, mix)
    out = tmp_path / "ive"
    args = ["extract", "--in", str(path), "--theta-ini", str(fx.thetas_deg[0] + 5.0),
            "--method", method, "--out-dir", str(out)]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith("error: signal has non-finite samples")
    assert not (out / "extracted.wav").exists()


# 16000 frames of 16-bit stereo noise: extraction runs on it if it is read at all
PCM16_STEREO = np.random.default_rng(5).integers(0, 256, 4 * 16000, dtype=np.uint8).tobytes()

BAD_WAVS = {
    "not-riff": b"not a wav file, just some text",
    "riff-not-wave": riff_bytes((b"data", PCM16_STEREO), form=b"AVI "),
    "data-before-fmt": riff_bytes((b"data", PCM16_STEREO), (b"fmt ", wav_fmt(1, 2, 16))),
    "no-data": riff_bytes((b"fmt ", wav_fmt(1, 2, 16)), (b"LIST", b"INFO")),
    "adpcm-tag": riff_bytes((b"fmt ", wav_fmt(2, 2, 16)), (b"data", PCM16_STEREO)),
    "float16": riff_bytes((b"fmt ", wav_fmt(3, 2, 16)), (b"data", PCM16_STEREO)),
    "pcm64": riff_bytes((b"fmt ", wav_fmt(1, 2, 64)), (b"data", PCM16_STEREO)),
    "zero-channels": riff_bytes(
        (b"fmt ", wav_fmt(1, 0, 16, block_align=4)), (b"data", PCM16_STEREO)),
    "block-align": riff_bytes(
        (b"fmt ", wav_fmt(1, 2, 16, block_align=3)), (b"data", PCM16_STEREO)),
}


@pytest.mark.parametrize("case", list(BAD_WAVS))
def test_extract_malformed_wav_exit_code(tmp_path, capsys, case):
    path = tmp_path / "bad.wav"
    path.write_bytes(BAD_WAVS[case])
    out = tmp_path / "ive"
    args = ["extract", "--in", str(path), "--theta-ini", "70", "--out-dir", str(out)]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "extract.json").exists()


# ---------------------------------------------------------------------------
# the runtime is numpy only
# ---------------------------------------------------------------------------

def run_without_scipy(code):
    """Run ``code`` in a fresh interpreter, with the package and this
    directory importable and every scipy import raising, and fail unless it
    exits cleanly."""
    code = "import sys\nsys.modules['scipy'] = None\n" + code
    src = os.path.dirname(os.path.dirname(blindcapon.__file__))
    path = [src, os.path.dirname(__file__), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr


def run_without_scipy_after(commands, code=""):
    """:func:`run_without_scipy` of ``code``, then ``cli.main`` on each argv."""
    run_without_scipy(
        code
        + "from blindcapon import cli\n"
        f"for argv in {commands!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
    )


def write_fixture_code(mix_path):
    """Code that builds the conftest broadband fixture and writes its mix."""
    return (
        "from blindcapon import capon_ive\n"
        "from conftest import build_broadband_fixture\n"
        "fx = build_broadband_fixture(duration_s=0.5)\n"
        f"capon_ive.write_wav({str(mix_path)!r}, fx.sample_rate, fx.mix)\n"
    )


def extract_args(mix_path, method, out_dir):
    return ["extract", "--in", str(mix_path), "--theta-ini", "70", "--fft", "512",
            "--hop", "128", "--method", method, "--out-dir", str(out_dir)]


def test_bounds_and_simulate_load_no_heavy_scipy(tmp_path):
    commands = [
        ["bounds", "--kappa-bar", "2", "--d", "5", "--n", "500"],
        ["simulate", "--trials", "2", "--lambda-grid", "0.3:0.3:1",
         "--methods", ",".join(monte_carlo.KNOWN_METHODS), "--out", str(tmp_path)],
    ]
    run_without_scipy_after(commands)
    manifest = read_json(tmp_path / "simulate.manifest.json")
    assert "numpy" in manifest["versions"]
    assert "scipy" not in manifest["versions"]


def test_extract_ive_loads_no_heavy_scipy(tmp_path):
    mix_path = tmp_path / "mix.wav"
    run_without_scipy_after([extract_args(mix_path, "ive", tmp_path / "ive")],
                            write_fixture_code(mix_path))


def test_broadband_fixture_build_loads_no_heavy_scipy(tmp_path):
    # speech_shaped_noise, anechoic_phase_mix and write_wav
    run_without_scipy(write_fixture_code(tmp_path / "mix.wav"))


def test_srpphat_mpdr_and_capon_start_need_no_scipy(tmp_path):
    # the SRP-PHAT delay search, and the criterion-6 lone source whose
    # CaponICE start 0.1 away cancels it and is refined
    mix_path = tmp_path / "mix.wav"
    code = write_fixture_code(mix_path) + (
        "import numpy as np\n"
        "from blindcapon import capon_ice, core\n"
        "rng, model = np.random.default_rng(606), core.ula(5)\n"
        "s = core.complex_laplacean(rng, 10_000)\n"
        "floor = 1e-5 * np.vstack([core.complex_gaussian(rng, 10_000) for _ in range(5)])\n"
        "x = core.SnapshotMatrix(np.outer(core.steering(model, 0.8), s) + floor)\n"
        "res = capon_ice.run(x, model, 0.9, max_iters=300)\n"
        "assert abs(res.lam - 0.8) <= 1e-6, res.lam\n"
    )
    run_without_scipy_after([extract_args(mix_path, "srpphat+mpdr", tmp_path / "mpdr")], code)
