"""Mixture generation, scoring, sweep orchestration and CSV output."""

import csv

import numpy as np
import pytest

from blindcapon import capon_ice, core, monte_carlo
from blindcapon.errors import Diverged, SingularCovariance
from blindcapon.monte_carlo import MixtureSpec

RNG = np.random.default_rng


def spec(**kw):
    base = dict(d=5, N=500, lambda_star=0.7, isir_db=0.0, seed=123)
    base.update(kw)
    return MixtureSpec(**base)


# ---------------------------------------------------------------------------
# mixture generation
# ---------------------------------------------------------------------------

def test_structured_columns_unit_modulus():
    _, a, _ = monte_carlo.generate_mixture(spec())
    np.testing.assert_allclose(np.abs(a[:, 0]), 1.0, atol=1e-15)
    np.testing.assert_allclose(np.abs(a[:, 1]), 1.0, atol=1e-15)
    model = core.ula(5)
    np.testing.assert_allclose(a[:, 0], core.steering(model, 0.7), atol=1e-15)
    np.testing.assert_allclose(a[:, 1], core.steering(model, 0.25), atol=1e-15)


def test_same_seed_bit_identical():
    x1, a1, p1 = monte_carlo.generate_mixture(spec())
    x2, a2, p2 = monte_carlo.generate_mixture(spec())
    assert np.array_equal(x1.data, x2.data)
    assert np.array_equal(a1, a2)
    assert np.array_equal(p1, p2)


def measured_isir_db(s):
    """Channel-averaged input SIR of the actually generated data."""
    _, a, powers = monte_carlo.generate_mixture(s)
    u = monte_carlo.draw_sources(s)
    per_source = powers * np.mean(np.abs(u) ** 2, axis=1)
    gains = np.abs(a) ** 2 * per_source  # d x d channel/source powers
    interference = gains[:, 1:].sum(axis=1)
    return float(np.mean(10.0 * np.log10(gains[:, 0] / interference)))


def test_measured_isir_matches_target():
    s = spec(N=10_000, isir_db=0.0)
    assert abs(measured_isir_db(s)) < 0.5
    s10 = spec(N=10_000, isir_db=10.0)
    assert abs(measured_isir_db(s10) - 10.0) < 0.5


def test_mixture_spec_validation():
    with pytest.raises(ValueError):
        spec(d=2)
    with pytest.raises(ValueError):
        spec(d=5, N=4)
    with pytest.raises(ValueError):
        spec(isir_db=float("inf"))
    with pytest.raises(ValueError):
        spec(lambda_star=float("nan"))
    with pytest.raises(ValueError):
        spec(lambda_competitor=float("-inf"))
    with pytest.raises(ValueError):
        spec(source_law="cauchy")


# ---------------------------------------------------------------------------
# output SIR
# ---------------------------------------------------------------------------

def test_output_sir_caps():
    a = np.eye(3, dtype=complex)
    powers = np.ones(3)
    w = np.array([1.0, 0.0, 0.0], dtype=complex)
    assert monte_carlo.output_sir(w, a, powers) == 150.0
    w_orth = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert monte_carlo.output_sir(w_orth, a, powers) == -150.0


def test_output_sir_matches_sample_domain_oracle():
    s = spec(N=100_000, seed=77)
    x, a, powers = monte_carlo.generate_mixture(s)
    u = monte_carlo.draw_sources(s)
    rng = RNG(5)
    w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    # sample-domain oracle: variance ratio of the separated components
    scaled = np.sqrt(powers)[:, None] * u
    comps = (w.conj() @ a)[:, None] * scaled
    p_soi = np.mean(np.abs(comps[0]) ** 2)
    p_int = np.mean(np.abs(comps[1:].sum(axis=0)) ** 2)
    oracle_db = 10 * np.log10(p_soi / p_int)
    assert abs(monte_carlo.output_sir(w, a, powers) - oracle_db) < 0.1


# ---------------------------------------------------------------------------
# sweep orchestration
# ---------------------------------------------------------------------------

def test_empty_methods_empty_records():
    assert monte_carlo.run_sweep(spec(), "lambda_star", [0.1], [], trials=3) == []


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        monte_carlo.run_sweep(spec(), "lambda_star", [0.1], ["magic"], trials=1)


def test_sweep_deterministic_and_complete():
    base = spec(N=200)
    grid = [0.4, 0.8]
    r1 = monte_carlo.run_sweep(base, "lambda_star", grid, ["caponice", "ini"], trials=3, master_seed=9)
    r2 = monte_carlo.run_sweep(base, "lambda_star", grid, ["caponice", "ini"], trials=3, master_seed=9)
    assert len(r1) == 2 * 3 * 2
    assert [(r.grid_value, r.trial, r.method) for r in r1] == [
        (g, t, m) for g in grid for t in range(3) for m in ("caponice", "ini")
    ]
    for a, b in zip(r1, r2):
        assert a.spec == b.spec
        assert a.method == b.method
        assert a.sir_out_db == b.sir_out_db
        assert a.lambda_hat == b.lambda_hat or (np.isnan(a.lambda_hat) and np.isnan(b.lambda_hat))


def test_methods_share_data_within_trial():
    base = spec(N=200)
    recs = monte_carlo.run_sweep(
        base, "lambda_star", [0.6], ["caponice", "ini", "musicmpdr"], trials=2, master_seed=4
    )
    by_trial = {}
    for r in recs:
        by_trial.setdefault(r.trial, []).append(r.spec.seed)
    for seeds in by_trial.values():
        assert len(set(seeds)) == 1


def test_isir_grid_sweep():
    base = spec(N=200, lambda_star=0.6)
    recs = monte_carlo.run_sweep(base, "isir_db", [-10.0, 10.0], ["ini"], trials=2, master_seed=5)
    assert {r.spec.isir_db for r in recs} == {-10.0, 10.0}
    assert all(r.spec.lambda_star == 0.6 for r in recs)


def test_trial_failure_recorded_not_raised():
    # gaussian sources make fastica non-convergent, still recorded
    base = spec(N=200, source_law="gaussian")
    recs = monte_carlo.run_sweep(base, "lambda_star", [0.5], ["fastica"], trials=2, master_seed=6)
    assert len(recs) == 2
    assert all(isinstance(r.sir_out_db, float) for r in recs)


def raiser(exc):
    def raise_exc(*args, **kwargs):
        raise exc
    return raise_exc


def test_trial_records_package_errors_and_raises_bugs(monkeypatch, tmp_path):
    def sweep():
        return monte_carlo.run_sweep(
            spec(N=200), "lambda_star", [0.5], ["caponice", "ini"], trials=1, master_seed=6
        )

    monkeypatch.setattr(capon_ice, "run", raiser(Diverged("forced")))
    failed, ini = sweep()
    assert failed.method == "caponice"
    assert np.isnan(failed.lambda_hat)
    assert failed.sir_out_db == -monte_carlo.SIR_CAP_DB
    assert not failed.success and not failed.converged
    assert ini.method == "ini" and ini.converged
    path = tmp_path / "sweep.csv"
    monte_carlo.write_csv([failed, ini], path)
    with open(path) as fh:
        header, failed_row, ini_row = list(csv.reader(fh))
    col = header.index("converged")
    assert (failed_row[col], ini_row[col]) == ("false", "true")
    assert (failed.error, ini.error) == ("Diverged", "")
    assert header[-1] == "error"
    assert (failed_row[-1], ini_row[-1]) == ("Diverged", "")

    monkeypatch.setattr(capon_ice, "run", raiser(TypeError("programming error")))
    with pytest.raises(TypeError):
        sweep()


def test_shared_covariance_failure_fails_each_method(monkeypatch):
    # CaponICE factors its own covariance; the other methods share one
    # factor, and its failure is a failed row for each of them
    monkeypatch.setattr(core, "covariance_factor", raiser(SingularCovariance("forced")))
    methods = ["caponice", "fastica", "musicmpdr", "espritmpdr", "ini"]
    recs = monte_carlo.run_sweep(spec(N=200), "lambda_star", [0.5], methods, trials=1, master_seed=6)
    assert [r.method for r in recs] == methods
    assert recs[0].converged and np.isfinite(recs[0].lambda_hat)
    for r in recs[1:]:
        assert np.isnan(r.lambda_hat)
        assert r.sir_out_db == -monte_carlo.SIR_CAP_DB
        assert not r.success and not r.converged


def test_trial_computes_one_shared_covariance(monkeypatch):
    calls = []
    sample_covariance = core.sample_covariance

    def counted(x):
        calls.append(x)
        return sample_covariance(x)

    monkeypatch.setattr(core, "sample_covariance", counted)
    methods = ["musicmpdr", "espritmpdr", "ini"]
    monte_carlo.run_sweep(spec(N=200), "lambda_star", [0.5], methods, trials=2, master_seed=6)
    assert len(calls) == 2
    monte_carlo.run_sweep(spec(N=200), "lambda_star", [0.5], ["caponice"], trials=2, master_seed=6)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# CSV and aggregation
# ---------------------------------------------------------------------------

def test_csv_schema_and_rows(tmp_path):
    base = spec(N=200)
    recs = monte_carlo.run_sweep(
        base, "lambda_star", [0.4, 0.9], ["caponice", "musicmpdr"], trials=2, master_seed=8
    )
    path = tmp_path / "sweep.csv"
    monte_carlo.write_csv(recs, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == monte_carlo.CSV_HEADER.split(",")
    assert len(rows) == 1 + 2 * 2 * 2
    lam_hat_col = rows[0].index("lambda_hat")
    music_rows = [r for r in rows[1:] if r[1] == "musicmpdr"]
    assert all(r[lam_hat_col] not in ("", "nan") for r in music_rows)


def test_aggregate_structure():
    base = spec(N=200)
    recs = monte_carlo.run_sweep(base, "lambda_star", [0.7], ["caponice", "ini"], trials=4, master_seed=11)
    agg = monte_carlo.aggregate(recs, d=5, N=200, kappa_bar=2.0)
    assert agg["crib_capon"] == pytest.approx((4 / 2 + 0.25) / 200)
    assert agg["crib_ice"] == pytest.approx(4 / 200)
    point = agg["points"][0]
    assert point["grid_value"] == 0.7
    for method in ("caponice", "ini"):
        m = point["methods"][method]
        assert m["trials"] == 4
        assert 0.0 <= m["success_rate"] <= 1.0
