"""Golden rows: the per-trial and per-search outputs that
``tests/make_golden.py`` wrote, recomputed and compared field by field.

Integers, flags, error names and bin lists match exactly; lambda-hat,
theta-hat, kappa_bar, its standard error and the bounds within 1e-9
relative, SIRs within 1e-6 dB absolute (a relative test fails near 0 dB).
Those bounds hold across numpy's and OpenBLAS's SIMD kernels, whose last
bits differ; a change that moves a row beyond them regenerates the rows
with the script and names them in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

import make_golden

RELATIVE = {
    "lambda_hat", "lam", "theta_hat_deg", "kappa_bar", "kappa_bar_stderr", "crib_ice",
    "crib_capon", "crib_ice_db", "crib_capon_db",
}
ABSOLUTE_DB = {"sir_out_db"}


def load(name):
    return json.loads((Path(__file__).parent / "golden" / f"{name}.json").read_text())


def mismatches(fields, rows, golden):
    """``(row, field, value, golden value)`` of each field outside its bound."""
    rows = json.loads(json.dumps(rows))
    out = []
    for i, (row, want) in enumerate(zip(rows, golden)):
        for field, got, ref in zip(fields, row, want):
            if ref is None or got is None or field not in RELATIVE | ABSOLUTE_DB:
                ok = got == ref
            elif field in RELATIVE:
                ok = abs(got - ref) <= 1e-9 * abs(ref)
            else:
                ok = abs(got - ref) <= 1e-6
            if not ok:
                out.append((i, field, got, ref))
    return out


def check(name, rows):
    golden = load(name)
    assert len(rows) == len(golden["rows"])
    bad = mismatches(golden["fields"], rows, golden["rows"])
    assert not bad, f"{len(bad)} fields of {name} moved, first {bad[:5]}"


@pytest.mark.parametrize("name", sorted(make_golden.SWEEPS))
def test_sweep_rows_match_golden(name):
    check(name, make_golden.sweep_rows(name))


def test_capon_ice_run_rows_match_golden():
    check("capon_ice_run", make_golden.run_rows())


def test_extract_rows_match_golden(broadband_fixture):
    check("extract", make_golden.extract_rows(broadband_fixture))


def test_bounds_rows_match_golden():
    check("bounds", make_golden.bounds_rows())
