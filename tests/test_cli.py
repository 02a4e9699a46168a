"""Command-line layer: expression parsing, spec files, runs, reports."""

import importlib
import io
import json
import os
import pkgutil
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from itertools import combinations_with_replacement

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from shapes import var_index

import gaussfocal
from gaussfocal.cli import (
    _FibreFamily,
    _SCORZA_M,
    _SCORZA_SHAPES,
    _SEVERI_SHAPES,
    _Where,
    _build_parser,
    _witness_battery,
    _config_from_args,
    ArityError,
    ExperimentConfig,
    MAX_AMBIENT_DIM,
    MAX_DEGREE,
    MAX_GENERATORS,
    MAX_LINES,
    MAX_PAREN_DEPTH,
    MAX_SPEC_BYTES,
    MAX_TERMS,
    MAX_TRIALS,
    InputError,
    ParseError,
    build_plan,
    derive_primes,
    expectation_for,
    expectations,
    generator_count,
    homogeneous_degree,
    main,
    parse_expression,
    parse_spec_file,
    run_experiment,
    sweep_labels,
)
from gaussfocal.fieldcore import (
    Degeneracy,
    DegeneratePivot,
    Fp,
    Infeasible,
    Rng,
    Violation,
    ZeroInverse,
    is_probable_prime,
)
from gaussfocal.focal import (
    CharTooSmall,
    ContainmentFailed,
    DependentFamilyBasis,
    FamilyChart,
    characteristic_matrix,
    focal_report,
    hyperband_chart,
)
from gaussfocal.gaussmap import (
    FiberVerificationFailed,
    NoCodimension,
    PointOffVariety,
)
from gaussfocal.varieties import (
    HyperbandFamily,
    MatrixShape,
    WitnessPoint,
    rank_locus_generators,
    rank_locus_spec,
    sample_rank_point,
)

P = (1 << 61) - 1
FP = Fp(P)

RECORD_KEYS = [
    "experiment", "prime", "seed", "trial", "n", "dim_x", "c", "r", "k",
    "focal_degree", "mu", "reduced_degree", "quadric_rank",
    "sing_containment", "bounds", "wall_time",
]


# --- expression parsing ---------------------------------------------------------


def test_parse_simple_quadric():
    poly = parse_expression("x0*x3 - x1*x2", 4)
    assert poly.terms == {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}


def test_parse_precedence_and_power():
    poly = parse_expression("x0 + 2*x1^3", 2)
    assert poly.terms == {(1, 0): 1, (0, 3): 2}
    square = parse_expression("(x0 + x1)^2", 2)
    assert square.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_parse_whitespace_insensitive():
    a = parse_expression("x0 *x3-x1* x2", 4)
    b = parse_expression("x0*x3-x1*x2", 4)
    assert a.terms == b.terms


def test_parse_unary_minus():
    poly = parse_expression("-x0*x1 + x1^2", 2)
    assert poly.terms == {(1, 1): -1, (0, 2): 1}
    assert parse_expression("-x0^2", 2).terms == {(2, 0): -1}
    assert parse_expression("x0 - -+x1", 2).terms == {(1, 0): 1, (0, 1): 1}
    # a long run of signs is a loop, not one recursion per sign
    assert parse_expression("-" * 5001 + "x1", 2).terms == {(0, 1): -1}


def test_parse_paren_depth_bounded():
    deep = "(" * MAX_PAREN_DEPTH + "x0" + ")" * MAX_PAREN_DEPTH
    assert parse_expression(deep, 2).terms == {(1, 0): 1}
    with pytest.raises(ParseError) as err:
        parse_expression("(" + deep + ")", 2)
    assert (err.value.line, err.value.col) == (1, MAX_PAREN_DEPTH + 1)
    with pytest.raises(ParseError):
        parse_expression("(" * 2000 + "x0" + ")" * 2000, 2)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expression("x0 + * x1", 4)
    assert err.value.line == 1
    assert err.value.col == 6


def test_parse_error_unbalanced():
    with pytest.raises(ParseError):
        parse_expression("(x0 + x1", 4)


def test_parse_error_bad_exponent():
    with pytest.raises(ParseError):
        parse_expression("x0^x1", 4)


def test_parse_unbounded_power_rejected():
    with pytest.raises(ParseError) as err:
        parse_expression("(x0+x1)^200000", 2)
    assert (err.value.line, err.value.col) == (1, 9)
    with pytest.raises(ParseError):
        parse_expression("2^200000", 2)
    with pytest.raises(ParseError):
        parse_expression("x0" + "*x0" * MAX_DEGREE, 2)
    assert parse_expression(f"x0^{MAX_DEGREE}", 2).degree() == MAX_DEGREE


def test_parse_arity_error():
    with pytest.raises(ArityError):
        parse_expression("x5", 4)


def test_parse_long_sum_is_bounded():
    # a sum collects its terms in place; past MAX_TERMS terms it is an
    # input error at the sign that starts the first term over the limit
    mons = ["*".join(f"x{i}" for i in e)
            for e in combinations_with_replacement(range(40), 3)]
    src = " + ".join(mons[:MAX_TERMS])
    assert len(parse_expression(src, 40).terms) == MAX_TERMS
    with pytest.raises(ParseError) as err:
        parse_expression(src + " - " + mons[MAX_TERMS], 40)
    assert (err.value.line, err.value.col) == (1, len(src) + 2)
    assert "more than" in err.value.reason


def test_parse_reads_a_long_sum_only_up_to_its_bound():
    # tokens are read one at a time, so a 1 MiB sum stops at the sign
    # of term MAX_TERMS + 1 without tokenizing the rest of the input
    src = "x0*x1 + " * 131072
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_expression(src, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.reason == f"sum has more than {MAX_TERMS} terms"
    assert (err.value.line, err.value.col) == (1, 8 * MAX_TERMS - 1)
    assert peak < 5 << 20


def test_parse_over_long_digit_run_is_a_parse_error():
    # past Python's int-string digit limit, int() raises a bare ValueError
    with pytest.raises(ParseError) as err:
        parse_expression("1" + "0" * 5000 + "*x0", 2)
    assert (err.value.line, err.value.col) == (1, 1)
    with pytest.raises(ParseError) as err:
        parse_expression("x0 +\n  x" + "1" * 5000, 2)
    assert (err.value.line, err.value.col) == (2, 3)


def test_homogeneous_degree():
    assert homogeneous_degree(parse_expression("x0*x1 - x2^2", 3)) == 2
    assert homogeneous_degree(parse_expression("x0^2 + x1", 3)) is None


# --- spec files -----------------------------------------------------------------


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if isinstance(payload, dict)
                    else payload)
    return str(path)


def test_spec_file_matrix(tmp_path):
    path = _write(tmp_path, "sym.json",
                  {"matrix": {"shape": "symmetric", "rows": 3, "cols": 3},
                   "rank_bound": 2})
    spec = parse_spec_file(path)
    assert spec.ambient_dim == 5
    assert len(spec.generators) == 1
    assert spec.singular is not None
    pt = spec.sampler(Rng(5), FP)
    assert all(g.eval(pt.coords, FP) == 0 for g in spec.generators)


def test_spec_file_explicit_with_singular(tmp_path):
    path = _write(tmp_path, "cone.json",
                  {"ambient_dim": 3,
                   "generators": ["x1^2 - x0*x2"],
                   "singular_generators": ["x0", "x1", "x2"]})
    spec = parse_spec_file(path)
    assert spec.ambient_dim == 3
    assert len(spec.singular.generators) == 3
    assert spec.singular.sampler is None
    pt = spec.sampler(Rng(7), FP)
    assert spec.generators[0].eval(pt.coords, FP) == 0
    assert any(spec.generators[0].grad(pt.coords, FP))


def test_spec_file_rejections(tmp_path):
    with pytest.raises(ParseError):
        parse_spec_file(_write(tmp_path, "broken.json", "{not json"))
    with pytest.raises(ParseError):
        parse_spec_file(_write(tmp_path, "expr.json",
                               {"ambient_dim": 3, "generators": ["x0 + * x1"]}))
    with pytest.raises(InputError):  # no sampler for several generators
        parse_spec_file(_write(tmp_path, "multi.json",
                               {"ambient_dim": 3,
                                "generators": ["x0*x2 - x1^2", "x1*x3 - x2^2"]}))
    with pytest.raises(InputError):  # skew ranks are even
        parse_spec_file(_write(tmp_path, "odd.json",
                               {"matrix": {"shape": "skew", "rows": 6, "cols": 6},
                                "rank_bound": 3}))
    with pytest.raises(InputError):  # inhomogeneous generator
        parse_spec_file(_write(tmp_path, "inhom.json",
                               {"ambient_dim": 3, "generators": ["x0^2 + x1"]}))
    with pytest.raises(InputError):  # identically zero generator
        parse_spec_file(_write(tmp_path, "zero.json",
                               {"ambient_dim": 3, "generators": ["x0 - x0"]}))
    with pytest.raises(InputError):  # unknown matrix shape
        parse_spec_file(_write(tmp_path, "shape.json",
                               {"matrix": {"shape": "hankel", "rows": 3, "cols": 3},
                                "rank_bound": 1}))
    # JSON booleans load as Python bools, which are ints
    for name, spec in [
            ("rb.json", {"matrix": {"shape": "generic", "rows": 3, "cols": 3},
                         "rank_bound": True}),
            ("rows.json", {"matrix": {"shape": "generic", "rows": True,
                                      "cols": 3}, "rank_bound": 1}),
            ("cols.json", {"matrix": {"shape": "generic", "rows": 3,
                                      "cols": True}, "rank_bound": 1}),
            ("dim.json", {"ambient_dim": True, "generators": ["x0*x1"]})]:
        with pytest.raises(InputError):
            parse_spec_file(_write(tmp_path, name, spec))


# --- configuration plumbing -----------------------------------------------------


def test_derive_primes_deterministic():
    ps = derive_primes(1729, 2)
    assert ps == derive_primes(1729, 2)
    assert len(set(ps)) == 2
    for p in ps:
        assert p >= 1 << 60
        assert is_probable_prime(p)


def test_expectation_tables_cover_presets():
    tbl = expectations()
    assert tbl["severi-8"]["r"] == 8
    assert expectation_for("scorza-sy-gen", 4)["mu"] == 6
    assert expectation_for("hyperband", None)["kernel_at_focus"] == 2


def test_sweep_labels_gate_albert():
    plain = sweep_labels(())
    assert "severi-16" not in [name for name, _ in plain]
    assert ("severi-2", None) in plain
    assert ("scorza-max-skew", 3) in plain
    with_albert = sweep_labels(("albert",))
    assert ("severi-16", None) in with_albert


# --- end-to-end runs ------------------------------------------------------------


def test_run_severi2_records():
    cfg = ExperimentConfig("severi-2", prime=P, trials=2, seed=505)
    records, failures = run_experiment(cfg)
    assert failures == []
    assert len(records) == 2
    expect = expectations()["severi-2"]
    for rec in records:
        assert sorted(rec) == sorted(RECORD_KEYS)
        for key in ("n", "dim_x", "c", "r", "k", "focal_degree",
                    "mu", "reduced_degree", "quadric_rank"):
            assert rec[key] == expect[key]
        assert rec["sing_containment"] == "Pass"
        assert set(rec["bounds"].values()) == {"Pass"}
        assert rec["prime"] == P


def test_run_hyperband_record():
    cfg = ExperimentConfig("hyperband", prime=P, trials=1, seed=31)
    records, failures = run_experiment(cfg)
    assert failures == []
    rec = records[0]
    assert (rec["n"], rec["dim_x"], rec["c"]) == (6, 5, 3)
    assert (rec["r"], rec["k"]) == (4, 1)
    assert (rec["focal_degree"], rec["mu"], rec["reduced_degree"]) == (4, 4, 1)
    assert rec["quadric_rank"] is None
    assert rec["sing_containment"] == "Pass"
    assert rec["bounds"]["extremal_pattern"] == "Pass"


def test_run_scorza_max_sym_m3():
    cfg = ExperimentConfig("scorza-max-sym", m=3, prime=P, trials=1, seed=99)
    records, failures = run_experiment(cfg)
    assert failures == []
    rec = records[0]
    assert (rec["r"], rec["k"], rec["c"]) == (3, 5, 2)
    assert (rec["mu"], rec["reduced_degree"]) == (1, 3)
    assert rec["quadric_rank"] is None
    assert rec["sing_containment"] == "Pass"


def test_main_json_deterministic(capsys):
    argv = ["run", "severi-2", "--json", "--trials", "1", "--primes", "1",
            "--seed", "7"]
    assert main(argv) == 0
    out1 = capsys.readouterr().out
    assert main(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    records = json.loads(out1)
    assert len(records) == 1
    assert "wall_time" not in records[0]
    assert records[0]["experiment"] == "severi-2"


def test_main_table_output(capsys):
    rc = main(["run", "severi-2", "--trials", "1", "--prime", str(P),
               "--seed", "11"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "severi-2" in out
    assert "PASS" in out


def test_main_jsonl_appends(tmp_path, capsys):
    log = str(tmp_path / "runs.jsonl")
    base = ["run", "severi-2", "--trials", "1", "--prime", str(P),
            "--jsonl-out", log]
    assert main(base + ["--seed", "1"]) == 0
    assert main(base + ["--seed", "2"]) == 0
    capsys.readouterr()
    lines = [json.loads(s) for s in
             open(log).read().strip().splitlines()]
    assert len(lines) == 2
    assert all("wall_time" in rec for rec in lines)
    assert lines[0]["seed"] != lines[1]["seed"]


def test_input_errors_exit_4(tmp_path, capsys):
    assert main(["run", "no-such-experiment"]) == 4
    assert main(["run", "severi-16", "--trials", "1"]) == 4
    assert main(["run", "scorza-sy-sym", "--m", "9"]) == 4
    assert main(["run", "severi-2", "--m", "3"]) == 4
    assert main(["run", "severi-2", "--prime", "91"]) == 4
    # 2^89 - 1 is prime, but past one 64-bit word per draw
    assert main(["run", "severi-2", "--prime", str((1 << 89) - 1)]) == 4
    assert main(["run", "severi-2", "--prime", str(1 << 64)]) == 4
    # a run's size is bounded too; these would otherwise run for hours
    capsys.readouterr()
    for flag, limit in (("--trials", MAX_TRIALS), ("--lines", MAX_LINES)):
        for value in (limit + 1, 100000000):
            assert main(["run", "severi-2", "--trials", "1", "--primes", "1",
                         flag, str(value)]) == 4
            assert capsys.readouterr().err == (
                f"error: {flag[2:]} {value} exceeds the limit {limit}\n")
    assert main(["custom", "--spec", str(tmp_path / "missing.json")]) == 4
    bad = tmp_path / "bad.json"
    bad.write_text('{"ambient_dim": 3, "generators": ["x0 + * x1"]}')
    assert main(["custom", "--spec", str(bad)]) == 4
    huge = tmp_path / "huge.json"
    huge.write_text('{"ambient_dim": 4, "generators": ["(x0+x1)^200000"]}')
    assert main(["custom", "--spec", str(huge)]) == 4
    rejected = [
        {"ambient_dim": 15,
         "generators": ["(" + "+".join(f"x{i}" for i in range(16)) + ")^12"]},
        {"ambient_dim": 200000, "generators": ["x0*x1"]},
        {"matrix": {"shape": "generic", "rows": 40, "cols": 40},
         "rank_bound": 3},
        # too many minors to count: the coordinate bound must come first
        {"matrix": {"shape": "generic", "rows": 10**9, "cols": 10**9},
         "rank_bound": 10**6},
        {"ambient_dim": 3, "generators": ["x0*x1 - x2*x3"],
         "singular_generators": ["x0"] * (MAX_GENERATORS + 1)},
        {"ambient_dim": 3, "generators": ["x0*x1 - x2*x3"],
         "singular_generators": 5},
        {"matrix": None},  # found by the random-spec test below
    ]
    for i, spec in enumerate(rejected):
        path = _write(tmp_path, f"rejected{i}.json", spec)
        assert main(["custom", "--spec", path]) == 4
        assert capsys.readouterr().err.startswith("error: ")
    # parentheses past MAX_PAREN_DEPTH, and a run of signs with no operand,
    # must end in a parse error, not run the recursive descent out of stack
    for i, gen in enumerate(["(" * 2000 + "x0*x1" + ")" * 2000, "-" * 5000]):
        path = _write(tmp_path, f"deep{i}.json",
                      {"ambient_dim": 3, "generators": [gen]})
        assert main(["custom", "--spec", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(line 1, column " in err
        assert "Traceback" not in err
    # a sum past MAX_TERMS terms, and a literal or variable index past
    # Python's int-string digit limit, are parse errors, not a traceback
    # or a quadratic parse
    for i, gen in enumerate([" + ".join(["x0*x1"] * 20000),
                             "1" + "0" * 4999 + "*x0*x1 - x2^2",
                             "x1" + "0" * 4999 + "*x0 - x2^2"]):
        path = _write(tmp_path, f"long{i}.json",
                      {"ambient_dim": 3, "generators": [gen]})
        assert main(["custom", "--spec", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(line 1, column " in err
    # JSON nested past the parser's recursion limit, a JSON number past the
    # int-string digit limit, and a file that is not UTF-8, are input
    # errors too
    nested = tmp_path / "nested.json"
    nested.write_text('{"ambient_dim": ' + "[" * 100000 + "]" * 100000 + "}")
    digits = tmp_path / "digits.json"
    digits.write_text('{"matrix": {"shape": "generic", "rows": 3, "cols": 3},'
                      ' "rank_bound": 1' + "0" * 4999 + "}")
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + '{"ambient_dim": 3}'.encode("utf-16-le"))
    for path in (nested, digits, utf16):
        assert main(["custom", "--spec", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def _cap_address_space():
    limit = 1 << 30  # 1 GiB: a spec read whole would die, not swap
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_oversize_spec_files_exit_4_without_being_read_whole(tmp_path):
    # a valid spec padded one byte past the limit, and an endless file;
    # the command runs in a child process under an address-space cap, so
    # a reader that grows without bound shows as a traceback here
    spec = json.dumps({"ambient_dim": 3, "generators": ["x0*x3 - x1*x2"]})
    big = tmp_path / "big.json"
    big.write_text(spec + " " * (MAX_SPEC_BYTES + 1 - len(spec)))
    src = os.path.dirname(os.path.dirname(gaussfocal.__file__))
    entry = "import sys; from gaussfocal.cli import main; sys.exit(main())"
    paths = [str(big)] + [p for p in ["/dev/zero"] if os.path.exists(p)]
    for path in paths:
        run = subprocess.run(
            [sys.executable, "-c", entry, "custom", "--spec", path],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=20, preexec_fn=_cap_address_space)
        assert run.returncode == 4
        assert run.stdout == "" and "Traceback" not in run.stderr
        assert run.stderr.splitlines() == [
            f"error: size of spec file {path} exceeds the limit "
            f"{MAX_SPEC_BYTES}"]
    # one byte less, and it is read
    big.write_text(spec + " " * (MAX_SPEC_BYTES - len(spec)))
    assert parse_spec_file(big).ambient_dim == 3


def test_parse_errors_name_the_generator(tmp_path):
    deep = "(" * 70 + "x2" + ")" * 70
    path = _write(tmp_path, "deep.json",
                  {"ambient_dim": 3, "generators": ["x0*x1 - x2*x3"],
                   "singular_generators": ["x0", "x1", deep]})
    with pytest.raises(ParseError) as err:
        parse_spec_file(path)
    assert (err.value.line, err.value.col) == (1, MAX_PAREN_DEPTH + 1)
    assert str(err.value) == (
        "singular generator 2: parentheses nest deeper than the limit "
        f"{MAX_PAREN_DEPTH} (line 1, column {MAX_PAREN_DEPTH + 1} of that "
        "generator)")


def test_input_bounds_admit_every_preset():
    shapes = list(_SEVERI_SHAPES.values())
    shapes += [make(m) for make in _SCORZA_SHAPES.values() for m in _SCORZA_M]
    for shape, rb in shapes:
        assert shape.ambient_dim <= MAX_AMBIENT_DIM
        count = generator_count(shape, rb)
        assert 1 <= count <= MAX_GENERATORS
        if shape.num_vars <= 36:  # cheap enough to build and count
            assert count == len(rank_locus_generators(shape, rb))


def test_every_preset_builds_one_singular_stratum():
    runs = [(name, None) for name in [*_SEVERI_SHAPES, "severi-16"]]
    runs += [(name, m) for name in _SCORZA_SHAPES for m in _SCORZA_M]
    for name, m in runs:
        spec = build_plan(ExperimentConfig(name, m=m, features=("albert",))).spec
        assert spec.singular is not None, name
        assert spec.singular.singular is None, name


def test_witness_battery_flags_a_sampler_off_a_batched_rank_locus():
    shape = MatrixShape.generic(3, 3)
    spec = rank_locus_spec(shape, 1)
    assert spec.locus is not None
    assert _witness_battery(spec, FP, Rng(5)) == []
    spec.sampler = partial(sample_rank_point, shape, 2)  # draws rank 2
    assert _witness_battery(spec, FP, Rng(5)) == [
        "generator 0 misses sampled point 0"]
    # rank-one samples, then E₁₁ + E₂₂ third: of the nine 2×2 minors, only
    # the last, on rows and columns {1, 2}, is not 0 there
    draws = []

    def sampler(rng, fp):
        draws.append(None)
        if len(draws) < 3:
            return sample_rank_point(shape, 1, rng, fp)
        x = [0] * shape.num_vars
        x[var_index(shape, 1, 1)] = x[var_index(shape, 2, 2)] = 1
        return WitnessPoint(x)

    spec.sampler = sampler
    assert _witness_battery(spec, FP, Rng(5)) == [
        "generator 8 misses sampled point 2"]


def test_matrix_spec_bounds_its_singular_stratum_before_building(tmp_path):
    # 121 minors of order 10, but 3025 of order 9 below them
    path = _write(tmp_path, "gen11.json",
                  {"matrix": {"shape": "generic", "rows": 11, "cols": 11},
                   "rank_bound": 9})
    with pytest.raises(InputError) as err:
        parse_spec_file(path)
    assert str(err.value) == (
        f"singular generator count 3025 exceeds the limit {MAX_GENERATORS}")


def test_corank_one_spec_builds_two_strata_under_a_memory_cap(tmp_path):
    # one 15x15 determinant and the 120 minors of order 14 below it; the
    # strata further down are never built, so a 1 GiB cap is far off
    path = _write(tmp_path, "sym15.json",
                  {"matrix": {"shape": "symmetric", "rows": 15},
                   "rank_bound": 14})
    src = os.path.dirname(os.path.dirname(gaussfocal.__file__))
    code = ("import sys; from gaussfocal.cli import parse_spec_file; "
            "spec = parse_spec_file(sys.argv[1]); "
            "print(len(spec.generators), len(spec.singular.generators))")
    run = subprocess.run(
        [sys.executable, "-c", code, path], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=5,
        preexec_fn=_cap_address_space)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1", "120"]


def test_deformation_span_mismatch_exits_2(monkeypatch, capsys):
    def padded_chart(fam, fp):  # a fifth, motionless deformation: span 4
        chart = hyperband_chart(fam, fp)
        still = [[0] * len(row) for row in chart.bmats[0]]
        return FamilyChart(chart.basis, chart.bmats + [still])

    monkeypatch.setattr("gaussfocal.cli.hyperband_chart", padded_chart)
    assert main(["run", "hyperband", "--trials", "1", "--prime", str(P)]) == 2
    assert "normal directions" in capsys.readouterr().err


def test_hyperband_wrong_predictor_fails_containment(monkeypatch):
    monkeypatch.setattr(HyperbandFamily, "predictor",
                        lambda self: [1, 0, 0, 0, 0, 0, 0])
    records, failures = run_experiment(ExperimentConfig(
        "hyperband", prime=P, trials=1, seed=5))
    assert records[0]["sing_containment"] == "Fail"
    assert (f"computed focus differs from the marked surface point "
            f"(experiment hyperband, prime {P}, trial 0, stage containment "
            f"and focus)") in failures


def test_expectation_mismatch_names_prime_trial_and_stage(monkeypatch,
                                                          capsys):
    # record checks run as the trial's last stage, and a problem line ends
    # like an exit-2/3 message, with where the run stood
    def wrong_mu(name, m):
        return dict(expectation_for(name, m), mu=2)

    monkeypatch.setattr("gaussfocal.cli.expectation_for", wrong_mu)
    argv = ["run", "severi-2", "--trials", "2", "--prime", str(P)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out.endswith("verdict: FAIL (2 problems)\n")
    assert captured.err == "".join(
        f"problem: mu = 1, expected 2 (experiment severi-2, prime {P}, "
        f"trial {t}, stage record)\n" for t in range(2))


def test_fibre_judge_skips_a_trial_without_a_form_and_draws_nothing():
    spec = rank_locus_spec(MatrixShape.symmetric(3), 2)  # severi-2
    rng = Rng(105)
    fam = _FibreFamily(spec, 4, 2, FP, rng, _Where("severi-2", P))
    rep = focal_report(characteristic_matrix(fam.chart, FP), FP, rng, 8)
    form, rep.reduced_form = rep.reduced_form, None
    state = rng._state
    assert fam.judge(rep) == ("Skipped", [])
    assert rng._state == state
    # with a form, judge draws the random lines that find its zeros
    rep.reduced_form = form
    assert fam.judge(rep) == ("Pass", [])
    assert rng._state != state


def test_invariant_violation_names_experiment_prime_trial_and_stage(
        tmp_path, capsys):
    # x4 is no singular locus of the cone x0*x2 = x1^2: its focal zero
    # escapes it, and the message says where that happened
    path = _write(tmp_path, "wrong.json",
                  {"ambient_dim": 4, "generators": ["x0*x2 - x1^2"],
                   "singular_generators": ["x4"]})
    for extra in ([], ["--json"]):
        rc = main(["custom", "--spec", path, "--trials", "1", "--prime",
                   str(P), "--seed", "1729"] + extra)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        err = captured.err
        assert err.startswith("invariant violation: focal zero escapes")
        assert "experiment custom-wrong" in err
        assert f"prime {P}" in err
        assert "trial 0" in err
        assert "stage containment" in err


@pytest.mark.parametrize("target, error, code, stage", [
    ("tangent_space", PointOffVariety, 2, "fibre"),
    ("tangent_space", NoCodimension, 2, "fibre"),
    ("characteristic_matrix", DependentFamilyBasis, 2,
     "characteristic matrix"),
    ("fiber_family_chart", DegeneratePivot, 3, "chart"),
    ("characteristic_matrix", Infeasible, 2, "characteristic matrix"),
    ("focal_report", ZeroInverse, 3, "profile and extraction"),
    ("gauss_fiber", FiberVerificationFailed, 2, "fibre"),
    ("focal_report", CharTooSmall, 3, "profile and extraction"),
    ("sing_containment", ContainmentFailed, 2, "containment and focus"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_library_errors_exit_with_code_and_place(target, error, code, stage,
                                                 monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(f"gaussfocal.cli.{target}", fail)
    rc = main(["run", "severi-2", "--trials", "1", "--prime", str(P)])
    captured = capsys.readouterr()
    assert rc == code
    assert captured.out == ""
    kind = "degeneracy" if code == 3 else "invariant violation"
    assert captured.err == (f"{kind}: injected (experiment severi-2, "
                            f"prime {P}, trial 0, stage {stage})\n")
    assert "Traceback" not in captured.err


def test_every_library_error_has_exactly_one_exit_class():
    # the base class is what main reads the exit code from: InputError 4,
    # Violation 2, Degeneracy 3
    bases = (InputError, Violation, Degeneracy)
    seen = []
    for info in pkgutil.iter_modules(gaussfocal.__path__):
        module = importlib.import_module(f"gaussfocal.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__
                    and obj not in bases):
                seen.append(obj.__name__)
                assert sum(issubclass(obj, b) for b in bases) == 1, obj
    # not a vacuous walk: the 20 library errors, ParseError and ArityError
    assert len(seen) >= 22


def _slots(cfg):
    return [getattr(cfg, name) for name in ExperimentConfig.__slots__]


def test_cli_defaults_are_the_config_defaults():
    # each command builds its configs as main does, with no options given
    parse = _build_parser().parse_args
    ns = parse(["run", "severi-2"])
    assert _slots(_config_from_args(ns, experiment=ns.experiment, m=ns.m)) \
        == _slots(ExperimentConfig("severi-2"))
    ns = parse(["custom", "--spec", "F"])
    assert _slots(_config_from_args(ns, spec_path=ns.spec)) == \
        _slots(ExperimentConfig(None, spec_path="F"))
    ns = parse(["sweep"])
    labels = sweep_labels(_config_from_args(ns).features)
    assert labels == sweep_labels(())
    for name, m in labels:
        assert _slots(_config_from_args(ns, experiment=name, m=m)) == \
            _slots(ExperimentConfig(name, m=m))


def test_run_prints_the_sweep_records_of_its_preset(monkeypatch, capsys):
    # the sweep runs its presets in this order, and sorts their records
    labels = [("severi-4", None), ("severi-2", None)]
    monkeypatch.setattr("gaussfocal.cli.sweep_labels", lambda _: labels)
    args = ["--json", "--trials", "2", "--primes", "2", "--seed", "11"]
    assert main(["sweep", *args]) == 0
    swept = json.loads(capsys.readouterr().out)
    assert [r["experiment"] for r in swept] == ["severi-2"] * 4 + \
        ["severi-4"] * 4
    for name, _ in labels:
        assert main(["run", name, *args]) == 0
        assert json.loads(capsys.readouterr().out) == \
            [r for r in swept if r["experiment"] == name]


def test_expectation_mismatch_exits_2(monkeypatch, capsys):
    monkeypatch.setitem(expectations()["severi-2"], "r", 99)
    rc = main(["run", "severi-2", "--trials", "1", "--prime", str(P),
               "--seed", "3"])
    capsys.readouterr()
    assert rc == 2


def test_custom_smooth_quadric_reported_not_degenerate(tmp_path, capsys):
    path = _write(tmp_path, "quadric.json",
                  {"ambient_dim": 3, "generators": ["x0*x3 - x1*x2"]})
    rc = main(["custom", "--spec", path, "--trials", "1", "--prime", str(P),
               "--seed", "13"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "non-degenerate" in out.lower()


def test_custom_matrix_spec_runs(tmp_path, capsys):
    path = _write(tmp_path, "sym.json",
                  {"matrix": {"shape": "symmetric", "rows": 3, "cols": 3},
                   "rank_bound": 2})
    rc = main(["custom", "--spec", path, "--trials", "1", "--prime", str(P),
               "--seed", "17", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    rec = json.loads(out)[0]
    assert (rec["r"], rec["k"], rec["c"], rec["mu"]) == (2, 2, 2, 1)
    assert rec["sing_containment"] == "Pass"


def test_custom_cone_with_singular_descriptor(tmp_path, capsys):
    path = _write(tmp_path, "cone.json",
                  {"ambient_dim": 3,
                   "generators": ["x1^2 - x0*x2"],
                   "singular_generators": ["x0", "x1", "x2"]})
    rc = main(["custom", "--spec", path, "--trials", "1", "--prime", str(P),
               "--seed", "19", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    rec = json.loads(out)[0]
    assert (rec["r"], rec["k"], rec["focal_degree"]) == (1, 1, 1)
    assert rec["c"] is None
    assert rec["sing_containment"] == "Pass"
    assert set(rec["bounds"].values()) == {"Skipped"}


@pytest.mark.parametrize("generator", ["x0*x1", "x0"])
def test_custom_constant_gauss_map_has_no_focal_divisor(generator, tmp_path,
                                                        capsys):
    # hyperplanes (and a union of two): the Gauss map is constant, r = 0
    path = _write(tmp_path, "flat.json",
                  {"ambient_dim": 4, "generators": [generator]})
    rc = main(["custom", "--spec", path, "--trials", "1", "--prime", str(P),
               "--seed", "23", "--json"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "Traceback" not in captured.err
    rec = json.loads(captured.out)[0]
    assert (rec["r"], rec["k"]) == (0, 3)
    assert rec["focal_degree"] is None
    assert rec["sing_containment"] == "Skipped"


# --- exit-code contract under random input --------------------------------------

_TOKENS = ["x0", "x1", "x2", "x3", "x7", "2", "0", "+", "-", "*", "^", "(",
           ")", " ", "x", "1.5", "y0"]


@st.composite
def _hypersurfaces(draw):
    """A small random hypersurface spec: a homogeneous form of degree ≤ 3
    in P^2..P^4 with a few small coefficients, sometimes a singular-locus
    descriptor."""
    ambient = draw(st.integers(2, 4), "ambient")
    deg = draw(st.integers(1, 3), "degree")
    var = st.integers(0, ambient)
    terms = []
    for _ in range(draw(st.integers(1, 4), "terms")):
        coef = draw(st.integers(-3, 3), "coefficient")
        mono = "*".join(f"x{draw(var, 'variable')}" for _ in range(deg))
        terms.append(f"({coef})*{mono}")
    spec = {"ambient_dim": ambient, "generators": [" + ".join(terms)]}
    if draw(st.booleans(), "singular"):
        spec["singular_generators"] = [f"x{draw(var, 'variable')}"
                                       for _ in range(draw(st.integers(1, 3)))]
    return json.dumps(spec)


_TOKEN_SOUP = st.lists(st.sampled_from(_TOKENS), min_size=1,
                       max_size=12).map("".join)
_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 20),
                    st.text(max_size=6),
                    st.lists(_TOKEN_SOUP, max_size=3))
_SPEC_TEXTS = st.one_of(
    st.text(max_size=30),
    st.dictionaries(st.sampled_from(["ambient_dim", "generators", "matrix",
                                     "rank_bound", "singular_generators"]),
                    _VALUES, max_size=4).map(json.dumps),
    st.builds(lambda shape, rows, cols, rb: json.dumps(
        {"matrix": {"shape": shape, "rows": rows, "cols": cols},
         "rank_bound": rb}),
        st.sampled_from(["symmetric", "generic", "skew", "hankel"]),
        st.integers(-1, 4), st.integers(-1, 4), st.integers(-1, 4)),
    _TOKEN_SOUP.map(lambda gen: json.dumps({"ambient_dim": 3,
                                            "generators": [gen]})),
    _hypersurfaces(),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=_SPEC_TEXTS, seed=st.integers(0, 2**16))
def test_random_specs_keep_the_exit_code_contract(text, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["custom", "--spec", path, "--trials", "1",
                       "--primes", "1", "--lines", "2", "--seed", str(seed)])
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


# Every rank locus below full rank with at most 28 coordinates: symmetric
# n ≤ 6, generic r ≤ c ≤ 6, skew n ≤ 8 with an even rank bound.  Symmetric
# 6×6 rank 5 and generic 5×5 rank 4 take seconds each; CI runs them as
# scorza-max-sym m = 5 and scorza-max-gen m = 4.
_RANK_LOCI = [
    locus for locus in
    [("symmetric", n, n, rb) for n in range(2, 7) for rb in range(1, n)]
    + [("generic", r, c, rb) for r in range(2, 7) for c in range(r, 7)
       if r * c <= 28 for rb in range(1, r)]
    + [("skew", n, n, rb) for n in range(4, 9) for rb in range(2, n - 1, 2)]
    if locus not in (("symmetric", 6, 6, 5), ("generic", 5, 5, 4))]


@settings(max_examples=25, deadline=None)
@given(locus=st.sampled_from(_RANK_LOCI), seed=st.integers(0, 2**16))
def test_random_rank_loci_keep_the_focal_invariants(locus, seed):
    shape, rows, cols, rb = locus
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "locus.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"matrix": {"shape": shape, "rows": rows,
                                  "cols": cols}, "rank_bound": rb}, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["custom", "--spec", path, "--trials", "1",
                       "--primes", "1", "--seed", str(seed), "--json"])
    assert (rc, err.getvalue()) == (0, "")
    (rec,) = json.loads(out.getvalue())
    assert rec["k"] == rec["dim_x"] - rec["r"]
    assert "Fail" not in rec["bounds"].values()
    if rec["k"] > 0:
        assert rec["focal_degree"] == rec["r"]
        assert rec["mu"] * rec["reduced_degree"] == rec["r"]
