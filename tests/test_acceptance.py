"""End-to-end acceptance gate.

Every preset runs at its full default configuration (3 sampled points
per prime, 2 primes, 8 consensus lines) with a wall-clock budget, and
every integer in every record must equal the frozen expectation table.
Two non-preset rank loci exercise the custom path, and negative
controls make sure the pipeline refuses to fabricate structure that is
not there.  Each test below is one pass/fail line of the gate.
"""

import json
from pathlib import Path
from time import perf_counter

import pytest

from gaussfocal.cli import ExperimentConfig, expectation_for, run_experiment
from gaussfocal.fieldcore import Fp, Rng
from gaussfocal.focal import (
    ContainmentFailed,
    characteristic_matrix,
    extract_reduced_power,
    fiber_family_chart,
    sing_containment,
)
from gaussfocal.gaussmap import gauss_fiber, tangent_space
from gaussfocal.varieties import MatrixShape, rank_locus_spec, variety_dim

RECORD_KEYS = ("n", "dim_x", "c", "r", "k", "focal_degree", "mu",
               "reduced_degree", "quadric_rank", "sing_containment")

_CACHE = {}
ALL_RECORDS = []


def full_run(name, m=None, features=(), spec_path=None):
    """One experiment at the full default configuration, cached."""
    key = (name, m, spec_path)
    if key not in _CACHE:
        cfg = ExperimentConfig(name, m=m, features=features,
                               spec_path=spec_path)
        start = perf_counter()
        records, failures = run_experiment(cfg)
        _CACHE[key] = (records, failures, perf_counter() - start)
        ALL_RECORDS.extend(records)
    return _CACHE[key]


def check_exact(records, failures, name, m=None):
    assert failures == [], failures
    assert len(records) == 6  # 3 trials x 2 primes
    exp = expectation_for(name, m)
    for rec in records:
        for key in RECORD_KEYS:
            if key in exp:
                assert rec[key] == exp[key], (
                    f"{rec['experiment']} trial {rec['trial']}: "
                    f"{key} = {rec[key]}, expected {exp[key]}")


def ok(line):
    print(f"ok: {line}")


def test_severi_2_exact_within_1s():
    records, failures, wall = full_run("severi-2")
    check_exact(records, failures, "severi-2")
    assert wall < 1.0, f"severi-2 took {wall:.2f}s, budget 1s"
    ok(f"severi-2: 6/6 records exact in {wall:.2f}s (< 1s)")


def test_severi_4_exact_within_5s():
    records, failures, wall = full_run("severi-4")
    check_exact(records, failures, "severi-4")
    assert wall < 5.0, f"severi-4 took {wall:.2f}s, budget 5s"
    ok(f"severi-4: 6/6 records exact in {wall:.2f}s (< 5s)")


def test_severi_8_exact_within_30s():
    records, failures, wall = full_run("severi-8")
    check_exact(records, failures, "severi-8")
    assert wall < 30.0, f"severi-8 took {wall:.2f}s, budget 30s"
    ok(f"severi-8: 6/6 records exact in {wall:.2f}s (< 30s)")


def test_severi_16_exact_soft_10min():
    records, failures, wall = full_run("severi-16", features=("albert",))
    check_exact(records, failures, "severi-16")
    if wall >= 600.0:
        pytest.skip(f"severi-16 correct but over its soft 10-minute "
                    f"budget ({wall:.0f}s)")
    ok(f"severi-16 (albert): 6/6 records exact in {wall:.2f}s (< 10min)")


def test_scorza_sy_presets():
    for name in ("scorza-sy-sym", "scorza-sy-gen"):
        for m in (3, 4):
            records, failures, _ = full_run(name, m=m)
            check_exact(records, failures, name, m)
    records, failures, wall = full_run("scorza-sy-skew", m=3)
    check_exact(records, failures, "scorza-sy-skew", 3)
    assert wall < 120.0, f"scorza-sy-skew m=3 took {wall:.1f}s, budget 2min"
    ok(f"scorza-sy presets (sym/gen m=3,4; skew m=3 in {wall:.1f}s): exact")


def test_scorza_max_presets():
    for name in ("scorza-max-sym", "scorza-max-gen", "scorza-max-skew"):
        for m in (2, 3):
            records, failures, wall = full_run(name, m=m)
            check_exact(records, failures, name, m)
            if name == "scorza-max-skew" and m == 3:
                assert wall < 120.0, (f"scorza-max-skew m=3 took "
                                      f"{wall:.1f}s, budget 2min")
    ok("scorza-max presets (sym/gen/skew m=2,3): exact, skew m=3 in budget")


def test_hyperband_exact_within_10s():
    records, failures, wall = full_run("hyperband")
    check_exact(records, failures, "hyperband")
    assert wall < 10.0, f"hyperband took {wall:.2f}s, budget 10s"
    ok(f"hyperband: 6/6 records exact in {wall:.2f}s (< 10s)")


def test_wide_generic_rank_locus_self_consistent(tmp_path):
    spec = tmp_path / "wide-generic.json"
    spec.write_text(json.dumps({
        "matrix": {"shape": "generic", "rows": 4, "cols": 5},
        "rank_bound": 3,
    }))
    records, failures, _ = full_run(None, spec_path=str(spec))
    assert failures == [], failures
    assert len(records) == 6
    for rec in records:
        assert (rec["n"], rec["dim_x"]) == (19, 17)
        assert (rec["r"], rec["k"], rec["c"]) == (9, 8, 4)
        assert rec["k"] == rec["dim_x"] - rec["r"]
        assert (rec["mu"], rec["reduced_degree"]) == (3, 3)
        assert rec["sing_containment"] == "Pass"
    ok("custom 4x5 generic rank-3 locus: k = dim - r and invariants hold")


def test_odd_skew_rank_locus_self_consistent(tmp_path):
    spec = tmp_path / "odd-skew.json"
    spec.write_text(json.dumps({
        "matrix": {"shape": "skew", "rows": 7, "cols": 7},
        "rank_bound": 4,
    }))
    records, failures, _ = full_run(None, spec_path=str(spec))
    assert failures == [], failures
    assert len(records) == 6
    for rec in records:
        assert (rec["n"], rec["dim_x"]) == (20, 17)
        assert (rec["r"], rec["k"], rec["c"]) == (12, 5, 7)
        assert rec["k"] == rec["dim_x"] - rec["r"]
        assert (rec["mu"], rec["reduced_degree"]) == (6, 2)
        assert rec["quadric_rank"] == 6
        assert rec["bounds"]["extremal_pattern"] == "Pass"
    ok("custom 7x7 skew rank-4 locus: k = dim - r and invariants hold")


def test_nondegenerate_surface_yields_no_focal_data(tmp_path):
    spec = tmp_path / "smooth-quadric.json"
    spec.write_text(json.dumps({
        "ambient_dim": 3,
        "generators": ["x0*x3 - x1*x2"],
    }))
    records, failures, _ = full_run(None, spec_path=str(spec))
    assert failures == [], failures
    assert records
    for rec in records:
        assert rec["k"] == 0
        assert rec["focal_degree"] is None
        assert rec["mu"] is None
        assert set(rec["bounds"].values()) == {"Skipped"}
    ok("negative control: a smooth quadric reports point fibres, "
       "no focal divisor is invented")


def test_false_witness_is_rejected():
    fp = Fp((1 << 61) - 1)
    rng = Rng(1234)
    spec = rank_locus_spec(MatrixShape.symmetric(3), 2, name="control")
    dim_x = variety_dim(spec, fp, rng)
    pt = spec.sampler(rng, fp)
    frame = tangent_space(spec, pt.coords, fp, dim_x)
    fib = gauss_fiber(spec, frame, fp, rng)
    chart = fiber_family_chart(fib, fp, rng)
    charm = characteristic_matrix(chart, fp)
    form = extract_reduced_power(charm, 1, 2, fp, rng)
    outsider = [rng.field(fp.p) for _ in range(spec.ambient_dim + 1)]
    with pytest.raises(ContainmentFailed):
        sing_containment(spec, fib, form, fp, rng, witnesses=[outsider])
    ok("negative control: a fabricated witness point trips containment")


def test_property_suites_present():
    here = Path(__file__).parent
    for mod in ("test_fieldcore.py", "test_mpoly.py", "test_varieties.py",
                "test_gaussmap.py", "test_focal.py", "test_cli.py"):
        assert (here / mod).is_file(), f"missing property suite {mod}"
    ok("per-module property suites present alongside the gate")


def test_bound_suite_on_every_record():
    if not ALL_RECORDS:
        full_run("severi-2")
    names = ("mu_ge_c_minus_1", "c_le_r_plus_1", "nonlinear_c_bound",
             "extremal_pattern")
    assert len(ALL_RECORDS) >= 6
    for rec in ALL_RECORDS:
        assert tuple(rec["bounds"]) == names
        assert "Fail" not in rec["bounds"].values(), rec
    ok(f"bound suite clean on all {len(ALL_RECORDS)} records")
