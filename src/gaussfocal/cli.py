"""Experiment runner: presets, custom inputs, reporting.

The command line exposes three subcommands.  ``run`` executes a named
preset (rank loci of symmetric/generic/skew matrices, the exceptional
27-coordinate cubic, or the moving-line family in P^6), ``custom`` runs
the same pipeline on a user-supplied variety, and ``sweep`` runs every
preset back to back.  Each trial samples a point, computes the Gauss
fibre and its first-order family, and measures the focal divisor; the
integers that come out are compared against a frozen expectation table
shipped as package data.

Exit codes: 0 all checks pass, 2 expectation/invariant failure,
3 degeneracy retries exhausted, 4 bad input.  An error's base class
decides its code: ``InputError``, or ``fieldcore``'s ``Violation`` and
``Degeneracy``.  Run settings default on ``ExperimentConfig`` only.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path
from time import perf_counter

from .fieldcore import (
    Degeneracy,
    Fp,
    Rng,
    Violation,
    derive_seed,
    is_probable_prime,
    mat_rank,
    random_prime,
    vecmat,
)
from .focal import (
    FocalReport,
    char_kernel_at_point,
    characteristic_matrix,
    chart_independence,
    check_bounds,
    fiber_family_chart,
    focal_profile,
    focal_report,
    hyperband_chart,
    sing_containment,
)
from .gaussmap import gauss_fiber, tangent_space
from .mpoly import SparsePoly
from .varieties import (
    MatrixShape,
    albert_cubic,
    fiber_codim_data,
    generator_count,
    hyperband_dims,
    hyperband_family,
    hypersurface_spec,
    rank_locus_spec,
    singular_rank,
    variety_dim,
)

_SCORZA_M = (2, 3, 4, 5)
_MIN_PRIME = 1 << 32


class InputError(ValueError):
    """Anything wrong with arguments or input files (exit code 4)."""


class ParseError(InputError):
    """Syntax error in an expression or spec file, with its position."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.reason = message
        self.line = line
        self.col = col


class ArityError(InputError):
    """A variable index beyond the declared ambient dimension."""


# --- expression parsing ---------------------------------------------------------
#
# Grammar:  expr   := term (('+'|'-') term)*
#           term   := factor ('*' factor)*
#           factor := ('+'|'-')* atom ('^' INT)?
#           atom   := VAR | INT | '(' expr ')'
# Variables are x0..xN; whitespace is free; everything else is an error.
# A run of signs is read in a loop, and parentheses nest at most
# MAX_PAREN_DEPTH deep, so no input runs the recursive descent out of stack.
# Powers and products are expanded as they are parsed, so each is checked
# first: its degree against MAX_DEGREE, and each multiplication's count of
# term products against MAX_TERMS.  An exponent like 200000 or a 16-term
# sum to the 12th power is an input error, not an expansion that never
# ends.  A sum collects its terms in place, in linear time, and holds at
# most MAX_TERMS of them.  Spec files are bounded too: ambient dimension
# MAX_AMBIENT_DIM, and MAX_GENERATORS singular generators, or minors or
# sub-Pfaffians in each of a matrix spec's two strata, counted before
# either is built; every preset fits (scorza-sy-skew m=5, the largest, has
# 924 in 66 coordinates).  A spec file is read only up to MAX_SPEC_BYTES
# bytes, and a run has at most MAX_TRIALS trials per prime and MAX_LINES lines.

MAX_DEGREE = 64
MAX_PAREN_DEPTH = 64
MAX_TERMS = 10_000
MAX_AMBIENT_DIM = 128
MAX_GENERATORS = 2_000
MAX_TRIALS = 1_000
MAX_LINES = 1_000
MAX_SPEC_BYTES = 1 << 20


def _tokenize(src):
    """Tokens (kind, value, line, col), read one at a time, ending with
    an "end" token."""
    line, col, i = 1, 1, 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "+-*^()":
            yield (ch, None, line, col)
            col += 1
            i += 1
            continue
        if ch == "x" or ch.isdigit():
            start = j = i + (ch == "x")
            while j < len(src) and src[j].isdigit():
                j += 1
            if j == start:
                raise ParseError("variable needs an index, like x0", line, col)
            try:
                value = int(src[start:j])
            except ValueError:  # past the int-string digit limit, or like ²
                raise ParseError(f"cannot read a number of {j - start} "
                                 "digits as a decimal integer", line,
                                 col) from None
            yield ("var" if ch == "x" else "int", value, line, col)
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    yield ("end", None, line, col)


def _bounded_mul(a, b, line, col):
    products = len(a.terms) * len(b.terms)
    if products > MAX_TERMS:
        raise ParseError(f"expansion needs {products} term products, over "
                         f"the limit {MAX_TERMS}", line, col)
    return a * b


class _ExprParser:
    """Recursive descent over a token stream with one token of lookahead,
    so a bound stops the parse before the rest of the input is read."""

    def __init__(self, tokens, nvars):
        self.tokens = tokens
        self.ahead = next(tokens)
        self.depth = 0
        self.nvars = nvars

    def peek(self):
        return self.ahead

    def take(self):
        tok = self.ahead
        self.ahead = next(self.tokens, tok)  # "end" is the last token
        return tok

    def fail(self, message):
        kind, _, line, col = self.peek()
        shown = "end of input" if kind == "end" else repr(kind)
        raise ParseError(f"{message}, found {shown}", line, col)

    def expr(self):
        terms = dict(self.term().terms)
        count = 1
        while self.peek()[0] in "+-":
            op, _, line, col = self.take()
            count += 1
            if count > MAX_TERMS:
                raise ParseError(f"sum has more than {MAX_TERMS} terms",
                                 line, col)
            sign = 1 if op == "+" else -1
            for e, c in self.term().terms.items():
                terms[e] = terms.get(e, 0) + sign * c
        return SparsePoly(self.nvars, terms)

    def term(self):
        poly = self.factor()
        while self.peek()[0] == "*":
            _, _, line, col = self.take()
            rhs = self.factor()
            degree = poly.degree() + rhs.degree()
            if degree > MAX_DEGREE:
                raise ParseError(f"product of degree {degree} exceeds the "
                                 f"degree limit {MAX_DEGREE}", line, col)
            poly = _bounded_mul(poly, rhs, line, col)
        return poly

    def factor(self):
        negate = False
        while self.peek()[0] in "+-":
            negate ^= self.take()[0] == "-"
        poly = self.atom()
        if self.peek()[0] == "^":
            self.take()
            if self.peek()[0] != "int":
                self.fail("expected an integer exponent after '^'")
            _, power, line, col = self.take()
            # constants count as degree 1, so the exponent is bounded too
            if max(poly.degree(), 1) * power > MAX_DEGREE:
                raise ParseError(f"power ^{power} exceeds the degree limit "
                                 f"{MAX_DEGREE}", line, col)
            base, poly = poly, SparsePoly(self.nvars, {(0,) * self.nvars: 1})
            for _ in range(power):
                poly = _bounded_mul(poly, base, line, col)
        return -poly if negate else poly

    def atom(self):
        kind, value, line, col = self.peek()
        if kind == "var":
            self.take()
            if value >= self.nvars:
                raise ArityError(
                    f"x{value} exceeds the ambient dimension "
                    f"(variables run x0..x{self.nvars - 1})")
            return SparsePoly.var(self.nvars, value)
        if kind == "int":
            self.take()
            return SparsePoly(self.nvars, {(0,) * self.nvars: value})
        if kind == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise ParseError(f"parentheses nest deeper than the limit "
                                 f"{MAX_PAREN_DEPTH}", line, col)
            self.take()
            self.depth += 1
            poly = self.expr()
            if self.peek()[0] != ")":
                self.fail("expected ')'")
            self.take()
            self.depth -= 1
            return poly
        self.fail("expected a variable, number or '('")


def parse_expression(src: str, nvars: int) -> SparsePoly:
    parser = _ExprParser(_tokenize(src), nvars)
    poly = parser.expr()
    if parser.peek()[0] != "end":
        parser.fail("unexpected trailing input")
    return poly


def homogeneous_degree(poly: SparsePoly):
    """The common total degree of all terms, or None if they disagree
    (or the polynomial is zero)."""
    degrees = {sum(e) for e in poly.terms}
    return degrees.pop() if len(degrees) == 1 else None


# --- spec files -----------------------------------------------------------------


def _bound(what, value, limit):
    if value > limit:
        raise InputError(f"{what} {value} exceeds the limit {limit}")


def _parsed_generator(src, nvars, what):
    if not isinstance(src, str):
        raise InputError(f"{what} must be a string expression")
    try:
        poly = parse_expression(src, nvars)
    except ParseError as exc:
        # keep the error and its position, and say whose position it is
        exc.args = (f"{what}: {exc.reason} (line {exc.line}, column "
                    f"{exc.col} of that generator)",)
        raise
    if not poly.terms:
        raise InputError(f"{what} is identically zero: {src!r}")
    if homogeneous_degree(poly) is None:
        raise InputError(f"{what} is not homogeneous: {src!r}")
    return poly


def parse_spec_file(path):
    """Load a custom variety: either a matrix rank locus or an explicit
    homogeneous hypersurface with optional singular-locus generators."""
    p = Path(path)
    try:
        with p.open("rb") as handle:
            raw = handle.read(MAX_SPEC_BYTES + 1)
        if len(raw) > MAX_SPEC_BYTES:
            raise InputError(f"size of spec file {path} exceeds the limit "
                             f"{MAX_SPEC_BYTES}")
        # newlines read as in text mode, so JSON error positions hold
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read spec file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}",
                         exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise InputError(f"JSON in {path} nests too deeply") from exc
    except ValueError as exc:  # an integer past the int-string digit limit
        raise InputError(f"JSON in {path} holds a number too long to "
                         f"read") from exc
    if not isinstance(data, dict):
        raise InputError("spec file must hold a JSON object")
    if ("matrix" in data) == ("ambient_dim" in data):
        raise InputError(
            "spec needs exactly one of 'matrix' or 'ambient_dim'")

    if "matrix" in data:
        desc = data["matrix"]
        if not isinstance(desc, dict):
            raise InputError("'matrix' must be a JSON object")
        kind = desc.get("shape")
        if kind not in ("symmetric", "generic", "skew"):
            raise InputError(f"unknown matrix shape {kind!r} "
                             "(use symmetric, generic or skew)")
        rows, cols = desc.get("rows"), desc.get("cols", desc.get("rows"))
        # JSON true/false load as bool, an int subclass: test ``type``
        if not (type(rows) is int and type(cols) is int
                and rows >= 2 and cols >= 2):
            raise InputError("matrix rows/cols must be integers >= 2")
        if kind in ("symmetric", "skew") and rows != cols:
            raise InputError(f"{kind} matrices must be square")
        rb = data.get("rank_bound")
        if type(rb) is not int or rb < 1:
            raise InputError("rank_bound must be a positive integer")
        if kind == "skew" and rb % 2:
            raise InputError("skew matrices have even rank; "
                             "use an even rank_bound")
        shape = MatrixShape(kind, rows, cols)
        # the coordinate bound first keeps the binomials small
        _bound("ambient dimension", shape.ambient_dim, MAX_AMBIENT_DIM)
        _bound("generator count", generator_count(shape, rb), MAX_GENERATORS)
        _bound("singular generator count", generator_count(
            shape, singular_rank(shape, rb)), MAX_GENERATORS)
        try:
            return rank_locus_spec(shape, rb, name=p.stem)
        except ValueError as exc:
            raise InputError(str(exc)) from exc

    ambient = data["ambient_dim"]
    if type(ambient) is not int or ambient < 2:
        raise InputError("ambient_dim must be an integer >= 2")
    _bound("ambient dimension", ambient, MAX_AMBIENT_DIM)
    nvars = ambient + 1
    gens = data.get("generators")
    if not isinstance(gens, list) or not gens:
        raise InputError("'generators' must be a non-empty list")
    if len(gens) > 1:
        raise InputError(
            "explicit specs support exactly one generator (a hypersurface); "
            "multi-generator varieties have no general point sampler — "
            "use the matrix form for rank loci")
    prog = _parsed_generator(gens[0], nvars, "generator 0").compile()
    singular = None
    if "singular_generators" in data:
        sg = data["singular_generators"]
        if not isinstance(sg, list) or not sg:
            raise InputError("'singular_generators' must be a non-empty list")
        _bound("singular generator count", len(sg), MAX_GENERATORS)
        singular = [_parsed_generator(g, nvars, f"singular generator {i}")
                    .compile() for i, g in enumerate(sg)]
    return hypersurface_spec(p.stem, prog, singular)


# --- experiment registry --------------------------------------------------------


class ExperimentConfig:
    __slots__ = ("experiment", "m", "prime", "prime_count", "trials", "lines",
                 "seed", "features", "verify", "spec_path")

    def __init__(self, experiment, m=None, prime=None, prime_count=2,
                 trials=3, lines=8, seed=1729, features=(),
                 verify="basic", spec_path=None):
        self.experiment = experiment
        self.m = m
        self.prime = prime
        self.prime_count = prime_count
        self.trials = trials
        self.lines = lines
        self.seed = seed
        self.features = tuple(features)
        self.verify = verify
        self.spec_path = spec_path


class ExperimentPlan:
    """One experiment's spec (``None`` for hyperband) and expectations."""

    __slots__ = ("label", "spec", "expect")

    def __init__(self, label, spec, expect):
        self.label = label
        self.spec = spec
        self.expect = expect


_EXPECTATIONS = None


def expectations() -> dict:
    global _EXPECTATIONS
    if _EXPECTATIONS is None:
        text = (resources.files("gaussfocal") / "data" /
                "expectations.json").read_text()
        _EXPECTATIONS = json.loads(text)
    return _EXPECTATIONS


def expectation_for(name, m):
    entry = expectations().get(name)
    if entry is not None and m is not None:
        entry = entry[str(m)]
    return entry


_SCORZA_SHAPES = {
    "scorza-sy-sym": lambda m: (MatrixShape.symmetric(m + 1), 2),
    "scorza-sy-gen": lambda m: (MatrixShape.generic(m + 1, m + 1), 2),
    "scorza-sy-skew": lambda m: (MatrixShape.skew(2 * m + 2), 4),
    "scorza-max-sym": lambda m: (MatrixShape.symmetric(m + 1), m),
    "scorza-max-gen": lambda m: (MatrixShape.generic(m + 1, m + 1), m),
    "scorza-max-skew": lambda m: (MatrixShape.skew(2 * m + 2), 2 * m),
}

_SEVERI_SHAPES = {
    "severi-2": (MatrixShape.symmetric(3), 2),
    "severi-4": (MatrixShape.generic(3, 3), 2),
    "severi-8": (MatrixShape.skew(6), 4),
}


def _validate_config(cfg):
    for feature in cfg.features:
        if feature != "albert":
            raise InputError(f"unknown feature {feature!r}")
    if cfg.verify not in ("basic", "full"):
        raise InputError("verify level must be 'basic' or 'full'")
    if not isinstance(cfg.trials, int) or cfg.trials < 1:
        raise InputError("trials must be a positive integer")
    _bound("trials", cfg.trials, MAX_TRIALS)
    if not isinstance(cfg.lines, int) or cfg.lines < 1:
        raise InputError("lines must be a positive integer")
    _bound("lines", cfg.lines, MAX_LINES)
    if cfg.prime is not None:
        # below 2^32 random sampling is not generic; Rng draws one 64-bit
        # word per field element
        if not (isinstance(cfg.prime, int)
                and _MIN_PRIME <= cfg.prime < 1 << 64):
            raise InputError("the prime must satisfy 2^32 <= p < 2^64")
        if not is_probable_prime(cfg.prime):
            raise InputError(f"{cfg.prime} is not prime")
    elif not 1 <= cfg.prime_count <= 8:
        raise InputError("prime count must be between 1 and 8")


def build_plan(cfg: ExperimentConfig) -> ExperimentPlan:
    _validate_config(cfg)
    name = cfg.experiment
    if cfg.spec_path is not None:
        spec = parse_spec_file(cfg.spec_path)
        return ExperimentPlan(f"custom-{spec.name}", spec, None)
    if name in _SCORZA_SHAPES:
        m = 3 if cfg.m is None else cfg.m
        if m not in _SCORZA_M:
            raise InputError(f"{name} supports m in {list(_SCORZA_M)}")
        shape, rb = _SCORZA_SHAPES[name](m)
        spec = rank_locus_spec(shape, rb, name=f"{name}-m{m}")
        return ExperimentPlan(f"{name}-m{m}", spec, expectation_for(name, m))
    if cfg.m is not None:
        raise InputError("--m applies only to the scorza presets")
    if name in _SEVERI_SHAPES:
        shape, rb = _SEVERI_SHAPES[name]
        spec = rank_locus_spec(shape, rb, name=name)
        return ExperimentPlan(name, spec, expectation_for(name, None))
    if name == "severi-16":
        if "albert" not in cfg.features:
            raise InputError("severi-16 needs '--features albert'")
        return ExperimentPlan(name, albert_cubic(name),
                              expectation_for(name, None))
    if name == "hyperband":
        return ExperimentPlan(name, None, expectation_for(name, None))
    raise InputError(f"unknown experiment {name!r}")


def sweep_labels(features):
    labels = [("severi-2", None), ("severi-4", None), ("severi-8", None)]
    if "albert" in features:
        labels.append(("severi-16", None))
    labels += [(name, 3) for name in _SCORZA_SHAPES]
    labels.append(("hyperband", None))
    return labels


def derive_primes(seed: int, count: int):
    """Word-size primes derived deterministically from the master seed."""
    rng = Rng(derive_seed(seed, 0x9E37))
    out = []
    while len(out) < count:
        p = random_prime(rng)
        if p not in out:
            out.append(p)
    return out


# --- the pipeline ---------------------------------------------------------------


_CHECK_KEYS = ("n", "dim_x", "c", "r", "k", "focal_degree", "mu",
               "reduced_degree", "quadric_rank", "sing_containment")


def _verify_record(record, expect):
    fails = []
    if expect:
        for key in _CHECK_KEYS:
            if key in expect and record[key] != expect[key]:
                fails.append(f"{key} = {record[key]}, expected {expect[key]}")
    degree = record["focal_degree"]
    if degree is not None and degree != record["r"]:
        fails.append(f"focal degree {degree} differs from the Gauss rank "
                     f"{record['r']}")
    mu, red = record["mu"], record["reduced_degree"]
    if None not in (mu, red, degree) and mu * red != degree:
        fails.append(f"mu * reduced degree = {mu * red} != {degree}")
    for bname, status in record["bounds"].items():
        if status == "Fail":
            fails.append(f"bound {bname} failed")
    return fails


def _record(plan, prime, seed_t, trial, fam, rep, containment, wall):
    return {
        "experiment": plan.label,
        "prime": prime,
        "seed": seed_t,
        "trial": trial,
        "n": fam.n,
        "dim_x": fam.dim_x,
        "c": fam.c,
        "r": fam.r,
        "k": fam.k,
        "focal_degree": rep.degree,
        "mu": rep.mu,
        "reduced_degree": rep.reduced_degree,
        "quadric_rank": rep.q_rank,
        "sing_containment": containment,
        "bounds": check_bounds(rep, fam.c),
        "wall_time": round(wall, 6),
    }


# A family source draws one trial's first-order family and knows how to
# judge it: it supplies the record's n/dim_x/c/r/k, the chart (None when
# there is no focal divisor), the containment verdict (``judge``), the
# --verify full cross-check and the expectations beyond the record
# (``extras``).


class _FibreFamily:
    """The Gauss fibres of a variety, at a sampled point."""

    def __init__(self, spec, dim_x, c, fp, rng, where):
        self.spec, self.fp, self.rng = spec, fp, rng
        where.stage = "sample"
        self.pt = spec.sampler(rng, fp)
        where.stage = "fibre"
        frame = tangent_space(spec, self.pt.coords, fp, dim_x)
        self.fib = gauss_fiber(spec, frame, fp, rng)
        self.n, self.dim_x, self.c = spec.ambient_dim, dim_x, c
        self.r, self.k = self.fib.r, self.fib.k
        # point fibres, or a constant Gauss map (r = 0): no focal divisor
        where.stage = "chart"
        self.chart = (fiber_family_chart(self.fib, fp, rng)
                      if self.k and self.r else None)

    def judge(self, rep):
        """The record's containment status and any failure messages."""
        form = rep.reduced_form
        if form is None:
            return "Skipped", []
        return sing_containment(self.spec, self.fib, form, self.fp, self.rng,
                                self.pt.witnesses).status, []

    def cross_check(self, charm, rep, lines):
        if chart_independence(charm, self.fib, self.fp, self.rng):
            return []
        return ["two independent charts gave non-proportional focal forms"]

    def extras(self, charm, rep):
        return {}


class _HyperbandFamily:
    """A random 4-parameter line family in P^6 with a marked focus."""

    def __init__(self, fp, rng, where):
        self.fp, self.rng = fp, rng
        where.stage = "sample"
        self.fam = hyperband_family(rng, fp)
        self.dim_x, self.dim_f = hyperband_dims(self.fam, fp, rng)
        where.stage = "chart"
        self.chart = hyperband_chart(self.fam, fp)
        self.n, self.c = 6, self.dim_x - self.dim_f
        self.r, self.k = self.chart.r, self.chart.k

    def judge(self, rep):
        if rep.focus is None:
            return "Skipped", []
        focus = vecmat(rep.focus, self.chart.basis, self.fp)
        marked = self.fam.predictor()
        if any(focus) and any(marked) and \
                mat_rank([focus, marked], self.fp) == 1:  # proportional
            return "Pass", []
        return "Fail", ["computed focus differs from the marked surface point"]

    def cross_check(self, charm, rep, lines):
        fp, rng = self.fp, self.rng
        fam2 = hyperband_family(rng, fp)
        charm2 = characteristic_matrix(hyperband_chart(fam2, fp), fp)
        profile2, _ = focal_profile(charm2, fp, rng, lines)
        if profile2 == rep.profile:
            return []
        return [f"a second random family gave profile {profile2} "
                f"instead of {rep.profile}"]

    def extras(self, charm, rep):
        kernel = None if rep.focus is None else \
            char_kernel_at_point(charm, rep.focus, self.fp)
        return {"profile": [list(pair) for pair in rep.profile],
                "kernel_at_focus": kernel, "dim_f": self.dim_f}


def _trial(plan, cfg, fp, prime, trial, dim_x, c, where):
    seed_t = derive_seed(cfg.seed, prime, trial)
    rng = Rng(seed_t)
    start = perf_counter()
    if plan.spec is None:
        fam = _HyperbandFamily(fp, rng, where)
    else:
        fam = _FibreFamily(plan.spec, dim_x, c, fp, rng, where)
    failures = []
    if fam.chart is None:
        rep = FocalReport(r=fam.r)
        containment = "Skipped"
    else:
        where.stage = "characteristic matrix"
        charm = characteristic_matrix(fam.chart, fp)
        where.stage = "profile and extraction"
        rep = focal_report(charm, fp, rng, cfg.lines)
        if rep.extraction_error:
            failures += where.located(
                [f"extraction failed: {rep.extraction_error}"])
        where.stage = "containment and focus"
        containment, fails = fam.judge(rep)
        failures += where.located(fails)
        for key, got in fam.extras(charm, rep).items():
            if plan.expect and got != plan.expect[key]:
                failures += where.located(
                    [f"{key} = {got}, expected {plan.expect[key]}"])
        if cfg.verify == "full":
            where.stage = "cross-check"
            failures += where.located(fam.cross_check(charm, rep, cfg.lines))
    record = _record(plan, prime, seed_t, trial, fam, rep, containment,
                     perf_counter() - start)
    return record, failures


def _witness_battery(spec, fp, rng):
    """The first generator program not 0 at one of 25 sampled points."""
    for k in range(25):
        x = spec.sampler(rng, fp).coords
        for i, g in enumerate(spec.generators):
            if g.eval(x, fp):
                return [f"generator {i} misses sampled point {k}"]
    return []


class _Where:
    """Where a run stands: experiment, prime, trial and stage.  An error
    that ends the run leaves ``run_experiment`` carrying it as
    ``err.where``, so the exit message can name it; a problem that does
    not end it is ``located`` when it is found."""

    __slots__ = ("label", "prime", "trial", "stage")

    def __init__(self, label, prime):
        self.label, self.prime = label, prime
        self.trial, self.stage = None, "dimension"

    def __str__(self):
        trial = "" if self.trial is None else f", trial {self.trial}"
        return (f"experiment {self.label}, prime {self.prime}{trial}, "
                f"stage {self.stage}")

    def located(self, messages):
        """``messages``, each ending with where the run stands now."""
        return [f"{message} ({self})" for message in messages]


def run_experiment(cfg: ExperimentConfig):
    """All trials of one experiment; returns (records, failure messages)."""
    plan = build_plan(cfg)
    if cfg.prime is not None:
        primes = [cfg.prime]
    else:
        primes = derive_primes(cfg.seed, cfg.prime_count)
    records, failures = [], []
    for prime in sorted(primes):
        where = _Where(plan.label, prime)
        try:
            fp = Fp(prime)
            dim_x = c = None
            if plan.spec is not None:
                rng_dim = Rng(derive_seed(cfg.seed, prime, 1 << 20))
                dim_x = variety_dim(plan.spec, fp, rng_dim)
                c = fiber_codim_data(plan.spec, dim_x, fp, rng_dim)
                if cfg.verify == "full":
                    failures += where.located(
                        _witness_battery(plan.spec, fp, rng_dim))
            for trial in range(cfg.trials):
                where.trial = trial
                record, fails = _trial(plan, cfg, fp, prime, trial, dim_x, c,
                                       where)
                records.append(record)
                where.stage = "record"
                failures += fails + where.located(
                    _verify_record(record, plan.expect))
        except (Degeneracy, Violation) as err:
            err.where = where
            raise
    return records, failures


# --- reporting ------------------------------------------------------------------


_TABLE_COLUMNS = (
    ("experiment", "experiment"),
    ("N", "n"),
    ("dimX", "dim_x"),
    ("r", "r"),
    ("k", "k"),
    ("mu", "mu"),
    ("red.deg", "reduced_degree"),
    ("rank q", "quadric_rank"),
    ("contain", "sing_containment"),
    ("bounds", "bounds"),
)


def _cell(record, key):
    value = record[key]
    if key == "bounds":
        return "".join(status[0] for status in value.values()) or "-"
    return "-" if value is None else str(value)


def _strip_time(record):
    return {k: v for k, v in record.items() if k != "wall_time"}


def emit_report(records, failures, json_mode=False, jsonl_out=None):
    if jsonl_out is not None:
        with open(jsonl_out, "a") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    if json_mode:
        print(json.dumps([_strip_time(r) for r in records], indent=2,
                         sort_keys=True))
    else:
        rows = [[_cell(r, key) for _, key in _TABLE_COLUMNS] for r in records]
        headers = [title for title, _ in _TABLE_COLUMNS]
        widths = [max(len(h), *(len(row[i]) for row in rows)) if rows
                  else len(h) for i, h in enumerate(headers)]
        for row in [headers, *rows]:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                  .rstrip())
        if failures:
            print(f"verdict: FAIL ({len(failures)} problems)")
        elif records and all(r["k"] == 0 for r in records):
            print("verdict: PASS — non-degenerate Gauss map "
                  "(point fibres, no focal divisor)")
        else:
            noun = "record" if len(records) == 1 else "records"
            print(f"verdict: PASS ({len(records)} {noun})")
    for message in failures:
        print(f"problem: {message}", file=sys.stderr)


# --- entry point ----------------------------------------------------------------


def _in_context(err):
    where = getattr(err, "where", None)
    return str(err) if where is None else f"{err} ({where})"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


# The options that fill ExperimentConfig slots.  They have no argparse
# default: an option left out is None, and the config's default holds.
_CONFIG_OPTIONS = ("prime", "prime_count", "trials", "lines", "seed",
                   "features", "verify")


def _add_common(sub):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--prime", type=int, help="run over this one prime")
    group.add_argument("--primes", type=int, dest="prime_count",
                       metavar="K", help="number of derived primes")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--trials", type=int, help="sampled points per prime")
    sub.add_argument("--lines", type=int, help="profile consensus lines")
    out = sub.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true",
                     help="emit a JSON array instead of the table")
    out.add_argument("--jsonl-out", metavar="FILE", default=None,
                     help="append one JSON record per trial to FILE")
    sub.add_argument("--verify", choices=("basic", "full"))
    sub.add_argument("--features", nargs="*", metavar="NAME",
                     help="optional features (albert)")


def _build_parser():
    parser = _Parser(prog="gaussfocal",
                     description="Focal divisors of Gauss-degenerate "
                                 "varieties over big prime fields.")
    subs = parser.add_subparsers(dest="command")
    run = subs.add_parser("run", help="run one preset experiment")
    run.add_argument("experiment")
    run.add_argument("--m", type=int,
                     help="size parameter for the scorza presets")
    _add_common(run)
    custom = subs.add_parser("custom", help="run a user-supplied variety")
    custom.add_argument("--spec", required=True, metavar="FILE")
    _add_common(custom)
    sweep = subs.add_parser("sweep", help="run every preset")
    _add_common(sweep)
    return parser


def _config_from_args(ns, experiment=None, m=None, spec_path=None):
    given = {}
    for name in _CONFIG_OPTIONS:
        if getattr(ns, name) is not None:
            given[name] = getattr(ns, name)
    return ExperimentConfig(experiment, m=m, spec_path=spec_path, **given)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            raise InputError("pick a command: run, custom or sweep")
        if ns.command == "sweep":
            runs = [(name, m, None) for name, m
                    in sweep_labels(_config_from_args(ns).features)]
        else:
            opts = vars(ns)
            runs = [(opts.get("experiment"), opts.get("m"), opts.get("spec"))]
        records, failures = [], []
        for run in runs:
            recs, fails = run_experiment(_config_from_args(ns, *run))
            records += recs
            failures += fails
        records.sort(key=lambda rec: (rec["experiment"], rec["prime"],
                                      rec["trial"]))
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except Degeneracy as err:
        print(f"degeneracy: {_in_context(err)}", file=sys.stderr)
        return 3
    except Violation as err:
        print(f"invariant violation: {_in_context(err)}", file=sys.stderr)
        return 2
    try:
        emit_report(records, failures, json_mode=ns.json,
                    jsonl_out=ns.jsonl_out)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
