"""Characteristic matrices of first-order fibre families, focal divisors,
multiplicity profiles, reduced-form extraction and the bound battery."""

from itertools import permutations, product
from math import comb
from types import SimpleNamespace

import pytest

from gaussfocal import gaussmap
from gaussfocal.cli import parse_expression
from gaussfocal.fieldcore import (
    DegeneratePivot,
    Dual2Fp,
    DualFp,
    Fp,
    Rng,
    kernel_basis,
    lagrange_interpolate,
    mat_rank,
    random_combination,
    rref,
    solve_affine,
    vecmat,
)
from gaussfocal.focal import (
    CharMatrix,
    ContainmentFailed,
    DegenerateLines,
    DeformationSpanMismatch,
    DependentFamilyBasis,
    ExtractionFailed,
    FamilyChart,
    FocalReport,
    MAX_EXPLICIT_COEFFS,
    NonVanishingTransversalComponent,
    NotDegenerate,
    PencilForm,
    ReducedForm,
    _pencil_form,
    _pencil_line,
    _pencil_slices,
    _proportional,
    _reduce_by,
    _series_root,
    _simplex_nodes,
    _verify_power,
    char_kernel_at_point,
    characteristic_matrix,
    chart_independence,
    check_bounds,
    extract_reduced_power,
    fiber_family_chart,
    focal_profile,
    focal_report,
    form_zero_point,
    hyperband_chart,
    quadric_rank,
    sing_containment,
)
from gaussfocal.gaussmap import (
    FiberVerificationFailed,
    SingularSamplePoint,
    fiber_system,
    first_order_fiber,
    gauss_fiber,
    tangent_space,
)
from gaussfocal.mpoly import (
    PolyProgram,
    SparsePoly,
    on_line,
    squarefree_profile,
    up_deg,
    up_deriv,
    up_divmod,
    up_gcd,
    up_roots,
    up_trim,
)
from gaussfocal.varieties import (
    MatrixShape,
    RankDeficientSample,
    VarietySpec,
    WitnessPoint,
    fiber_codim_data,
    hyperband_family,
    rank_locus_spec,
)

P = (1 << 61) - 1
FP = Fp(P)


def pipeline(spec, dim, seed):
    rng = Rng(seed)
    pt = spec.sampler(rng, FP)
    frame = tangent_space(spec, pt.coords, FP, expected_dim=dim)
    fib = gauss_fiber(spec, frame, FP, rng)
    return pt, frame, fib, rng


def judged(spec, fib, pt, rng, rep):
    """A rank-locus trial's verdict on a report: the containment of its
    reduced form, as the trial checks it."""
    return sing_containment(spec, fib, rep.reduced_form, FP, rng,
                            witnesses=pt.witnesses)


def center_system(fib, fp):
    """The center fibre system S₀ of ``fib``, built again over F_p."""
    frame = fib.frame
    return fiber_system(frame.gens, frame.x, frame.tangent,
                        frame.tan_pivots, fp)


def coeff_kernel(fib, fp):
    """The k+1 center kernel vectors k₀ of the fibre system, with
    ``fib.basis = K₀·tangent``."""
    rows, piv = rref(center_system(fib, fp), fp, reduced=False)
    return kernel_basis(rows, piv, len(fib.frame.tangent), fp)


def quadric_spec():
    prog = parse_expression("x0*x3 - x1*x2", 4).compile()

    def sampler(rng, fp):
        a, c = rng.field(fp.p), rng.field(fp.p)
        return WitnessPoint([1, a, c, a * c % fp.p])

    return VarietySpec("smooth-quadric-3", 3, [prog], None, sampler)


def cone_spec():
    prog = parse_expression("x1^2 - x0*x2", 4).compile()

    def sampler(rng, fp):
        s, t, u = (rng.field(fp.p) for _ in range(3))
        return WitnessPoint([s * s % fp.p, s * t % fp.p, t * t % fp.p, u])

    return VarietySpec("conic-cone", 3, [prog], None, sampler)


def tilted_cone_spec():
    """The cone x1² = x0·(x2 − x3), with vertex (0, 0, 1, 1)."""
    prog = parse_expression("x1^2 - x0*(x2 - x3)", 4).compile()

    def sampler(rng, fp):
        s, t, u = (rng.field(fp.p) for _ in range(3))
        return WitnessPoint([s * s % fp.p, s * t % fp.p,
                             (t * t + u) % fp.p, u])

    return VarietySpec("tilted-cone", 3, [prog], None, sampler)


def test_chart_first_order_data():
    spec = rank_locus_spec(MatrixShape.symmetric(3), 2)
    pt, frame, fib, rng = pipeline(spec, 4, 101)
    chart = fiber_family_chart(fib, FP, rng)
    assert (chart.k, chart.r) == (2, 2)
    assert len(chart.bmats) == 2
    assert all(len(B) == 3 and len(B[0]) == 6 for B in chart.bmats)
    # deformation rows stay inside the frozen tangent space
    jac = [g.grad(frame.x, FP) for g in frame.gens]
    for B in chart.bmats:
        for row in B:
            assert all(FP.dot(row, g) == 0 for g in jac)
    # the chosen directions really are transversal to the fibre
    assert mat_rank(fib.basis + chart.dirs, FP) == 5


def test_chart_rejects_point_fibers():
    spec = quadric_spec()
    pt, frame, fib, rng = pipeline(spec, 2, 7)
    assert fib.k == 0
    with pytest.raises(NotDegenerate):
        fiber_family_chart(fib, FP, rng)


def _dual_tangent(fiber, w, dring):
    """x + εw and the tangent basis there, on the center's pivots."""
    frame = fiber.frame
    x_eps = [dring.make(xi, wi) for xi, wi in zip(frame.x, w)]
    jac = [g.grad(x_eps, dring) for g in frame.gens]
    rows, piv = rref(jac, dring)
    assert piv == frame.tan_pivots
    return x_eps, kernel_basis(rows, piv, len(frame.x), dring)


def _columns(packed, count, p):
    """The per-vector columns of rows packed over ``count`` vectors (as
    ``hessian_rows`` and ``hess_vec`` give them): entry i of column j is
    slope j of row i, a DualFp pair."""
    ring2 = Dual2Fp(p, count)
    rows = [ring2.decode(row) for row in packed]
    return [[(cs[j], ts[j]) for _, cs, ts in rows] for j in range(count)]


def _packed(cols, units, p):
    """``_columns``' inverse, with the rows' unit parts ``units``."""
    ring2 = Dual2Fp(p, len(cols))
    return [ring2.encode(unit, [c for c, _ in row], [t for _, t in row])
            for unit, row in zip(units, zip(*cols))]


def _dense_system(gens, x_eps, tangent_eps, dring):
    """Every t_a·(H(ε)·t_b), both triangles, as dots over all coordinates.
    ``hess_vec`` takes vectors over F_p, so each image is built as
    H(ε)·(t₀ + ε·t₁) = H(ε)·t₀ + ε·H₀·t₁."""
    p, count = dring.p, len(tangent_eps)
    x0 = [u for u, _ in x_eps]
    t0 = [[u for u, _ in t] for t in tangent_eps]
    t1 = [[s for _, s in t] for t in tangent_eps]
    rows = []
    for g in gens:
        moving = _columns(g.hess_vec(x_eps, t0, dring), count, p)
        still = _columns(g.hess_vec(x0, t1, Fp(p)), count, p)
        images = [[(u, (s + h) % p) for (u, s), (h, _) in zip(*pair)]
                  for pair in zip(moving, still)]
        rows += [[dring.dot(ta, img) for img in images]
                 for ta in tangent_eps]
    return rows


def _first_order_by_dual_rref(fiber, tangent_eps, sys_rows, dring):
    """Oracle: the whole fibre system reduced over the dual ring, on the
    center's pivot columns, its canonical kernel, and the slopes of the
    kernel vectors in the dual tangent basis."""
    srows, spiv = rref(sys_rows, dring)
    assert spiv == fiber.sys_pivots
    ckernel = kernel_basis(srows, spiv, len(tangent_eps), dring)
    bmat = []
    for coeffs, center_row in zip(ckernel, fiber.basis):
        dual_row = vecmat(coeffs, tangent_eps, dring)
        assert [u for u, _ in dual_row] == center_row
        bmat.append([s for _, s in dual_row])
    return bmat


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DegeneratePivot:
        return DegeneratePivot


@pytest.mark.parametrize("p", [P, 101])
@pytest.mark.parametrize("shape,rb,dim", [
    (MatrixShape.symmetric(3), 2, 4),
    (MatrixShape.skew(8), 6, 26),     # Pfaffian nodes
    (MatrixShape.generic(3, 4), 2, 9),  # det nodes
])
def test_first_order_fiber_matches_dual_rref_oracle(shape, rb, dim, p):
    fp, dring = Fp(p), DualFp(p)
    spec = rank_locus_spec(shape, rb)
    compared = 0
    for seed in range(6):
        rng = Rng(seed)
        try:
            pt = spec.sampler(rng, fp)
            frame = tangent_space(spec, pt.coords, fp, expected_dim=dim)
            fib = gauss_fiber(spec, frame, fp, rng)
        except (RankDeficientSample, SingularSamplePoint,
                FiberVerificationFailed):
            continue
        for _ in range(3):
            w = random_combination(frame.tangent, fp, rng)
            x_eps, tangent_eps = _dual_tangent(fib, w, dring)
            sys_rows = _dense_system(frame.gens, x_eps, tangent_eps, dring)
            want = _outcome(_first_order_by_dual_rref, fib, tangent_eps,
                            sys_rows, dring)
            assert _outcome(first_order_fiber, fib, w, fp) == want
            compared += want is not DegeneratePivot
    assert compared >= 9


def test_first_order_tangent_off_the_center_pivots_is_rejected():
    # the dual Jacobian's unit part is the center Jacobian, so its pivots
    # are the center's; a frame that records others is refused
    pt, frame, fib, rng = _sym3_fiber(141)
    w = random_combination(frame.tangent, FP, rng)
    assert len(first_order_fiber(fib, w, FP)) == fib.k + 1
    frame.tan_pivots = frame.tan_pivots[:-1] + [frame.tan_pivots[-1] + 1]
    with pytest.raises(DegeneratePivot, match="tangent pivots"):
        first_order_fiber(fib, w, FP)


def _times_kernel(rows, fiber, dring, fp):
    """The columns S(ε)·k₀ of a dense dual system, one per k₀."""
    return [[dring.dot(row, [dring.lift(c) for c in k0]) for row in rows]
            for k0 in coeff_kernel(fiber, fp)]


@pytest.mark.parametrize("p", [P, 101])
@pytest.mark.parametrize("shape,rb,dim", [
    (MatrixShape.symmetric(3), 2, 4),
    (MatrixShape.skew(8), 6, 26),     # Pfaffian nodes
    (MatrixShape.generic(3, 4), 2, 9),  # det nodes
])
def test_fiber_columns_match_dense_system_times_kernel(monkeypatch, shape,
                                                       rb, dim, p):
    # the columns first_order_fiber reads, packed over the center kernel
    # vectors, are the dense dual system times each of them, and each
    # generator's Hessian sweep carries the k+1 fibre basis rows, not the
    # n+1 tangent vectors
    fp, dring = Fp(p), DualFp(p)
    spec = rank_locus_spec(shape, rb)
    real_rows, real_hess = gaussmap.hessian_rows, PolyProgram.hess_vec
    seen, widths = [], []

    def recorded_cols(*args):
        packed = real_rows(*args)
        seen.append(_columns(packed, len(args[4]), p))
        return packed

    def recorded_hess(self, x, vs, ring):
        widths.append(len(vs))
        return real_hess(self, x, vs, ring)

    compared = 0
    for seed in range(4):
        rng = Rng(seed)
        try:
            pt = spec.sampler(rng, fp)
            frame = tangent_space(spec, pt.coords, fp, expected_dim=dim)
            fib = gauss_fiber(spec, frame, fp, rng)
        except (RankDeficientSample, SingularSamplePoint,
                FiberVerificationFailed):
            continue
        for _ in range(2):
            w = random_combination(frame.tangent, fp, rng)
            seen.clear()
            widths.clear()
            with monkeypatch.context() as mp:
                mp.setattr("gaussfocal.gaussmap.hessian_rows", recorded_cols)
                mp.setattr(PolyProgram, "hess_vec", recorded_hess)
                _outcome(first_order_fiber, fib, w, fp)
            assert widths == [fib.k + 1] * len(frame.gens)
            x_eps, tangent_eps = _dual_tangent(fib, w, dring)
            # k₀·T(ε) is the fibre basis row itself: k₀·T₁ = 0
            kernel = coeff_kernel(fib, fp)
            assert [vecmat(k0, frame.tangent, fp) for k0 in kernel] == \
                fib.basis
            for k0, row in zip(kernel, fib.basis):
                assert vecmat([dring.lift(c) for c in k0], tangent_eps,
                              dring) == [dring.lift(u) for u in row]
            rows = _dense_system(frame.gens, x_eps, tangent_eps, dring)
            assert seen == [_times_kernel(rows, fib, dring, fp)]
            assert all(u == 0 for col in seen[0] for u, _ in col)
            compared += 1
    assert compared >= 4


def _kernel_column(fib, f):
    """Index of the center kernel vector that is 1 at the free column f:
    a bump at (i, f) of S(ε) moves row i of that S(ε)·k₀ column only."""
    return next(j for j, k0 in enumerate(coeff_kernel(fib, FP))
                if k0[f] == 1)


def _bump(col, i, part):
    u, s = col[i]
    col[i] = ((u + 1) % P, s) if part == "unit" else (u, (s + 1) % P)


def _scripted_columns(monkeypatch, edit):
    """Pass every S(ε)·k₀ column set that ``first_order_fiber`` computes
    through ``edit(cols, call)``, call counting from 1, decoded from the
    packed rows and encoded back; returns the list of calls."""
    real = gaussmap.hessian_rows
    calls = []

    def scripted(*args):
        packed = real(*args)
        count, p = len(args[4]), args[5].p
        cols = _columns(packed, count, p)
        calls.append(len(calls) + 1)
        edit(cols, calls[-1])
        return _packed(cols, [row[:2] for row in packed], p)

    monkeypatch.setattr("gaussfocal.gaussmap.hessian_rows", scripted)
    return calls


def _sym3_fiber(seed):
    spec = rank_locus_spec(MatrixShape.symmetric(3), 2)
    return pipeline(spec, 4, seed)


def test_first_order_unit_part_off_the_center_system_is_rejected(monkeypatch):
    # S₀·k₀ = 0 for every center kernel vector: a unit part off zero means
    # the first-order system drifted off its center
    pt, frame, fib, rng = _sym3_fiber(141)
    w = random_combination(frame.tangent, FP, rng)
    _scripted_columns(monkeypatch, lambda cols, call: _bump(cols[-1], -1,
                                                            "unit"))
    with pytest.raises(DegeneratePivot, match="drifted"):
        first_order_fiber(fib, w, FP)


def _non_flat_bump(fib, inside_q):
    """A row i, among the rows Q of S₀ or outside them, and a free
    column f such that adding ε at (i, f) puts S₁·k₀ outside the column
    span of S₀ for the kernel vector k₀ that is 1 at f: e_i pairs
    nonzero with a left-kernel vector of S₀."""
    cols = [list(col) for col in zip(*center_system(fib, FP))]
    left = kernel_basis(*rref(cols, FP, reduced=False), len(cols[0]), FP)
    i = next(i for vec in left for i, v in enumerate(vec)
             if v and (i in fib.sys_rows) == inside_q)
    f = next(c for c in range(len(fib.frame.tangent))
             if c not in fib.sys_pivots)
    return i, f


def test_non_flat_first_order_system_is_rejected(monkeypatch):
    # the flatness check reads only the rows outside Q, which c₁ does not
    # solve by construction; a bump inside Q moves c₁ and must show there
    pt, frame, fib, rng = _sym3_fiber(143)
    dring = DualFp(P)
    w = random_combination(frame.tangent, FP, rng)
    x_eps, tangent_eps = _dual_tangent(fib, w, dring)
    for inside_q in (True, False):
        i, f = _non_flat_bump(fib, inside_q)
        j = _kernel_column(fib, f)
        rows = [list(row) for row in
                _dense_system(frame.gens, x_eps, tangent_eps, dring)]
        _bump(rows[i], f, "slope")
        # the dual elimination leaves a nonzero residual row here too
        with pytest.raises(DegeneratePivot):
            _first_order_by_dual_rref(fib, tangent_eps, rows, dring)
        seen = []

        def bump_slope(cols, call):
            _bump(cols[j], i, "slope")
            seen.append(cols)

        with monkeypatch.context() as mp:
            _scripted_columns(mp, bump_slope)
            with pytest.raises(DegeneratePivot, match="not flat"):
                first_order_fiber(fib, w, FP)
        # the column bump is the dense bump at (i, f) times the kernel
        assert seen == [_times_kernel(rows, fib, dring, FP)]
    # unbumped, the same direction lifts
    assert len(first_order_fiber(fib, w, FP)) == fib.k + 1


@pytest.mark.parametrize("defect", ["unit", "slope"])
def test_chart_redraws_after_a_degenerate_first_order_fibre(monkeypatch,
                                                            defect):
    pt, frame, fib, rng = _sym3_fiber(145)
    i, f = _non_flat_bump(fib, True)
    j = _kernel_column(fib, f)

    def first_call_broken(cols, call):
        if call == 1:
            _bump(cols[j], i, defect)

    calls = _scripted_columns(monkeypatch, first_call_broken)
    chart = fiber_family_chart(fib, FP, rng)
    # the first draw failed at its first direction; the second kept all r
    assert len(calls) == 1 + fib.r
    dring = DualFp(P)
    for w, bmat in zip(chart.dirs, chart.bmats):
        x_eps, tangent_eps = _dual_tangent(fib, w, dring)
        rows = _dense_system(frame.gens, x_eps, tangent_eps, dring)
        assert bmat == _first_order_by_dual_rref(fib, tangent_eps, rows,
                                                 dring)


def test_char_matrix_is_linear_in_fibre_coords():
    spec = rank_locus_spec(MatrixShape.symmetric(3), 2)
    pt, frame, fib, rng = pipeline(spec, 4, 103)
    chart = fiber_family_chart(fib, FP, rng)
    charm = characteristic_matrix(chart, FP)
    assert charm.r == 2 and all(len(row) == 2 for row in charm.entries)
    t1 = [rng.field(P) for _ in range(3)]
    t2 = [rng.field(P) for _ in range(3)]
    c = rng.field(P)
    m1, m2 = charm.value(t1, FP), charm.value(t2, FP)
    msum = charm.value([(a + b) % P for a, b in zip(t1, t2)], FP)
    mscaled = charm.value([c * a % P for a in t1], FP)
    for j in range(2):
        for l in range(2):
            assert msum[j][l] == (m1[j][l] + m2[j][l]) % P
            assert mscaled[j][l] == c * m1[j][l] % P


def test_severi2_full_report():
    spec = rank_locus_spec(MatrixShape.symmetric(3), 2)
    pt, frame, fib, rng = pipeline(spec, 4, 105)
    chart = fiber_family_chart(fib, FP, rng)
    charm = characteristic_matrix(chart, FP)
    c = fiber_codim_data(spec, 4, FP, rng)
    assert c == 2
    rep = focal_report(charm, FP, rng, 8)
    assert rep.r == 2 and rep.degree == 2
    assert rep.profile == ((1, 2),)
    assert (rep.mu, rep.reduced_degree) == (1, 2)
    assert rep.q_rank == 3
    containment = judged(spec, fib, pt, rng, rep)
    assert containment.status == "Pass"
    assert containment.witnesses == 2 and containment.zeros > 0
    assert char_kernel_at_point(charm, rep.focus, FP) == 1
    assert list(check_bounds(rep, c).values()) == ["Pass"] * 4
    while True:
        t = [rng.field(P) for _ in range(3)]
        if charm.det_at(t, FP):
            break
    assert char_kernel_at_point(charm, t, FP) == 0


def test_scorza_sym_m3_report():
    spec = rank_locus_spec(MatrixShape.symmetric(4), 2)
    pt, frame, fib, rng = pipeline(spec, 6, 107)
    chart = fiber_family_chart(fib, FP, rng)
    charm = characteristic_matrix(chart, FP)
    c = fiber_codim_data(spec, 6, FP, rng)
    assert c == 3
    rep = focal_report(charm, FP, rng, 8)
    assert rep.degree == 4
    assert rep.profile == ((2, 2),)
    assert (rep.mu, rep.reduced_degree) == (2, 2)
    assert rep.q_rank == 3
    assert judged(spec, fib, pt, rng, rep).status == "Pass"
    assert list(check_bounds(rep, c).values()) == ["Pass"] * 4


def test_severi8_skew_report():
    spec = rank_locus_spec(MatrixShape.skew(6), 4)
    pt, frame, fib, rng = pipeline(spec, 13, 109)
    assert (fib.k, fib.r) == (5, 8)
    chart = fiber_family_chart(fib, FP, rng)
    charm = characteristic_matrix(chart, FP)
    c = fiber_codim_data(spec, 13, FP, rng)
    assert c == 5
    rep = focal_report(charm, FP, rng, 8)
    assert rep.degree == 8
    assert rep.profile == ((4, 2),)
    assert (rep.mu, rep.reduced_degree) == (4, 2)
    assert rep.q_rank == 6
    containment = judged(spec, fib, pt, rng, rep)
    assert containment.status == "Pass"
    assert containment.witnesses == 2
    assert list(check_bounds(rep, c).values()) == ["Pass"] * 4


def test_cone_focus_is_the_vertex():
    spec = cone_spec()
    pt, frame, fib, rng = pipeline(spec, 2, 11)
    assert (fib.k, fib.r) == (1, 1)
    chart = fiber_family_chart(fib, FP, rng)
    charm = characteristic_matrix(chart, FP)
    profile, degree = focal_profile(charm, FP, rng, 8)
    assert profile == ((1, 1),) and degree == 1
    rf = extract_reduced_power(charm, 1, 1, FP, rng)
    t0 = form_zero_point(rf, FP, rng)
    focus = vecmat(t0, chart.basis, FP)
    assert mat_rank([focus, [0, 0, 0, 1]], FP) == 1
    assert char_kernel_at_point(charm, t0, FP) == 1
    rep = focal_report(charm, FP, rng, 8)
    assert (rep.mu, rep.reduced_degree) == (1, 1)
    assert judged(spec, fib, pt, rng, rep).status == "Skipped"
    assert list(check_bounds(rep, 2).values()) == \
        ["Pass", "Pass", "Skipped", "Skipped"]


def test_expanded_form_matches_implicit_form():
    spec = rank_locus_spec(MatrixShape.symmetric(4), 2)
    pt, frame, fib, rng = pipeline(spec, 6, 113)
    chart = fiber_family_chart(fib, FP, rng)
    charm = characteristic_matrix(chart, FP)
    rf1 = extract_reduced_power(charm, 2, 2, FP, rng)
    rf2 = _pencil_form(charm, 2, 2, FP, rng)
    assert rf1.basis is None and rf2.basis is not None
    _verify_power(charm, rf2, 2, FP, rng)
    base = None
    for _ in range(5):
        t = [rng.field(P) for _ in range(3)]
        v1, v2 = rf1.value(t, FP), rf2.value(t, FP)
        if base is None:
            assert v1 and v2
            base = (v1, v2)
            continue
        assert v1 * base[1] % P == v2 * base[0] % P


def _root_values_by_determinants(charm, basis, d, fp):
    """The simplex root data from r+2 determinants and an interpolation
    per line: the oracle for the pencil + charpoly evaluation."""
    p, r = fp.p, charm.r
    tstar = basis[0]
    vals = {}
    for node in _simplex_nodes(len(basis) - 1, d):
        if not any(node):
            vals[node] = 1
            continue
        dirv = [0] * len(tstar)
        for i, c in enumerate(node):
            dirv = [(a + c * b) % p for a, b in zip(dirv, basis[i + 1])]
        values = [charm.det_at([(a + s * b) % p for a, b in
                                zip(tstar, dirv)], fp) for s in range(r + 2)]
        f = lagrange_interpolate(values, r, fp)
        if up_deg(f) != r:
            return None
        sf = up_divmod(f, up_gcd(f, up_deriv(f, fp), fp), fp)[0]
        if up_deg(sf) != d:
            return None
        s0 = sf[0]  # sf at s = 0, and below at s = 1
        if s0 == 0:
            return None
        vals[node] = sum(sf) * fp.inv(s0) % p
    return vals


def test_implicit_form_matches_root_values_by_determinants():
    spec = rank_locus_spec(MatrixShape.skew(6), 4)
    pt, frame, fib, rng = pipeline(spec, 13, 119)
    charm = characteristic_matrix(fiber_family_chart(fib, FP, rng), FP)
    nv, d = charm.k + 1, 2  # severi-8: det M = c·q^4 with q a quadric
    form = _pencil_form(charm, 4, d, FP, rng)
    # nodes along random directions from t*: the unit vectors of the
    # form's basis can be focal points, where the oracle's lines drop
    # degree
    basis = [form.basis[0]] + [[rng.field(P) for _ in range(nv)]
                               for _ in range(nv - 1)]
    want = _root_values_by_determinants(charm, basis, d, FP)
    assert want is not None and len(want) == 21
    for node, value in want.items():
        t = basis[0]
        for c, b in zip(node, basis[1:]):
            t = [(u + c * v) % P for u, v in zip(t, b)]
        assert form.value(t, FP) == value


def up_mul(f, g, fp):
    """Schoolbook product of ascending coefficient lists, trimmed."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return up_trim([v % fp.p for v in out])


def _power_series(g, mu, length):
    out = [1]
    for _ in range(mu):
        out = up_mul(out, g, FP)
    return (out + [0] * length)[:length]


def test_series_root_inverts_a_power():
    rng = Rng(0x5E21)
    for mu, d in [(1, 3), (2, 2), (4, 3), (8, 2), (5, 1)]:
        r = mu * d
        inv = [0] + [FP.inv(n) for n in range(1, r + 1)]
        g = [1] + [rng.field(P) for _ in range(d)]
        root = _series_root(_power_series(g, mu, r + 1), mu, inv, FP)
        assert root == g + [0] * (r - d)  # the tail past d is zero


def test_non_power_leaves_a_tail_and_fails_extraction():
    mu, d = 3, 1
    inv = [0] + [FP.inv(n) for n in range(1, mu * d + 1)]
    # (1 + s)(1 + 2s)(1 + 3s) is no cube: its cube root does not stop
    f = [1]
    for a in (1, 2, 3):
        f = up_mul(f, [1, a], FP)
    assert any(_series_root(f, mu, inv, FP)[d + 1:])
    # det M = t0·t1·(t0 + t1) read as a cube of a linear form
    form = _pencil_form(_diagonal_charm(), mu, d, FP, Rng(143))
    with pytest.raises(ExtractionFailed):
        form.value([2, 5], FP)
    with pytest.raises(ExtractionFailed):
        _verify_power(_diagonal_charm(), form, mu, FP, Rng(145))
    # with 2 coefficients it takes the explicit path, whose node values
    # reject it before any expansion
    with pytest.raises(ExtractionFailed, match="power on a line"):
        extract_reduced_power(_diagonal_charm(), mu, d, FP, Rng(149))


def test_quadric_rank_of_an_implicit_form():
    spec = rank_locus_spec(MatrixShape.skew(6), 4)  # severi-8
    pt, frame, fib, rng = pipeline(spec, 13, 147)
    charm = characteristic_matrix(fiber_family_chart(fib, FP, rng), FP)
    explicit = extract_reduced_power(charm, 4, 2, FP, rng)
    implicit = _pencil_form(charm, 4, 2, FP, rng)
    assert explicit.basis is None and implicit.basis is not None
    assert quadric_rank(implicit, FP) == quadric_rank(explicit, FP) == 6


class _ScriptedRng:
    """Hands out fixed field elements in order, for scripted draws."""

    def __init__(self, values):
        self.values = iter(values)

    def field(self, p):
        return next(self.values)


def _diagonal_charm():
    """M(t) = diag(t0, t1, t0 + t1): det M = t0·t1·(t0 + t1)."""
    zero = [0, 0]
    forms = [[1, 0], [0, 1], [1, 1]]
    return CharMatrix([[forms[j] if l == j else zero for l in range(3)]
                       for j in range(3)], 1)


def _recording_profile(monkeypatch):
    seen = []

    def recording(poly, fp):
        seen.append(up_trim(list(poly)))
        return squarefree_profile(poly, fp)

    monkeypatch.setattr("gaussfocal.focal.squarefree_profile", recording)
    return seen


def test_profile_lines_come_off_the_pencil(monkeypatch):
    spec = rank_locus_spec(MatrixShape.symmetric(4), 2)
    pt, frame, fib, rng = pipeline(spec, 6, 127)
    charm = characteristic_matrix(fiber_family_chart(fib, FP, rng), FP)
    seen = _recording_profile(monkeypatch)
    focal_profile(charm, FP, Rng(131), lines=6)
    draws = Rng(131)  # the same stream: a, then d, for every line
    assert len(seen) == 6
    for poly in seen:
        a = [draws.field(P) for _ in range(charm.k + 1)]
        d = [draws.field(P) for _ in range(charm.k + 1)]
        assert up_deg(poly) == charm.r
        scale = charm.det_at(d, FP)  # the line polynomial over det M(d)
        assert [c * scale % P for c in poly] == \
            on_line(charm.det_at, charm.r, a, d, FP)


def test_profile_skips_a_direction_with_singular_matrix(monkeypatch):
    charm = _diagonal_charm()
    seen = _recording_profile(monkeypatch)
    # M(1, 0) = diag(1, 0, 1) is singular: that line drops to degree 2
    rng = _ScriptedRng([2, 3, 1, 0, 2, 3, 5, 7])
    assert focal_profile(charm, FP, rng, lines=1) == (((1, 3),), 3)
    scale = charm.det_at([5, 7], FP)
    assert [[c * scale % P for c in poly] for poly in seen] == \
        [on_line(charm.det_at, 3, [2, 3], [5, 7], FP)]
    with pytest.raises(DegenerateLines):
        focal_profile(charm, FP, _ScriptedRng([2, 3, 0, 1] * 16), lines=1)


def test_pencil_slices_are_none_exactly_at_a_singular_base():
    dirs = [[2, 3], [5, 7], [0, 1]]
    diagonal = _diagonal_charm()
    for base in ([1, 0], [0, 4], [3, P - 3]):  # a zero on the diagonal
        assert _pencil_slices(diagonal, base, dirs, FP) is None
    rng = Rng(151)
    generic = CharMatrix([[[rng.field(P) for _ in range(2)] for _ in range(4)]
                          for _ in range(4)], 1)
    for charm, base in [(diagonal, [2, 5]), (generic, [3, 11])]:
        mbase = charm.value(base, FP)
        assert charm.det_at(base, FP)
        slices = _pencil_slices(charm, base, dirs, FP)
        assert len(slices) == len(dirs)
        for v, sl in zip(dirs, slices):
            assert [vecmat(row, sl, FP) for row in mbase] == \
                charm.value(v, FP)
        assert _pencil_slices(charm, base, [], FP) == []  # k = 0: no slices


def _severi2_charm():
    spec = rank_locus_spec(MatrixShape.symmetric(3), 2)
    pt, frame, fib, rng = pipeline(spec, 4, 105)
    return characteristic_matrix(fiber_family_chart(fib, FP, rng), FP), rng


def test_pencil_form_redraws_past_a_singular_basis():
    charm, rng = _severi2_charm()
    nv = charm.k + 1
    # a focal point: M(t*) is singular there, so that t* is skipped
    focal_pt = form_zero_point(extract_reduced_power(charm, 1, 2, FP, rng),
                               FP, rng)
    assert focal_pt[0] and charm.det_at(focal_pt, FP) == 0
    second = [rng.field(P) for _ in range(nv)]
    form = _pencil_form(charm, 1, 2, FP, _ScriptedRng(focal_pt + second))
    assert form.basis[0] == second
    drawn = _pencil_form(charm, 1, 2, FP, Rng(153))
    assert _proportional(form.value, drawn.value, nv, FP, Rng(155), 5)


def test_pencil_form_skips_a_tstar_with_zero_first_coordinate():
    charm, rng = _severi2_charm()
    nv = charm.k + 1
    # M(off) is nonsingular, but y_0 = t_0/t*_0 needs t*_0 ≠ 0
    off = [0] + [rng.field(P) for _ in range(nv - 1)]
    assert charm.det_at(off, FP)
    tstar = [rng.field(P) for _ in range(nv)]
    form = _pencil_form(charm, 1, 2, FP, _ScriptedRng(off + tstar))
    units = [[int(i == j) for j in range(nv)] for i in range(1, nv)]
    assert form.basis == [tstar] + units
    assert form.value(tstar, FP) == 1
    # every value is q(t)/q(t*): the expanded form agrees with that scale
    explicit = extract_reduced_power(charm, 1, 2, FP, rng)
    at_tstar = explicit.value(tstar, FP)
    for t in [off] + [[rng.field(P) for _ in range(nv)] for _ in range(5)]:
        assert form.value(t, FP) * at_tstar % P == explicit.value(t, FP)


def _reduced_by_rref(chart, fp):
    """Oracle for ``characteristic_matrix``'s entries: each B row minus
    its pivot-column entries times the rows of A's reduced RREF."""
    rows, piv = rref(chart.basis, fp)
    free = [c for c in range(len(chart.basis[0])) if c not in piv]

    def reduce(row):
        out = list(row)
        for lead, pc in zip(rows, piv):
            out = [(a - row[pc] * b) % P for a, b in zip(out, lead)]
        return [out[c] for c in free]

    blocks = [[reduce(row) for row in bmat] for bmat in chart.bmats]
    _, cols = rref([row for block in blocks for row in block], fp)
    return [[[row[l] for row in block] for l in cols] for block in blocks]


@pytest.mark.parametrize("shape,rb,dim,seed", [
    (MatrixShape.symmetric(4), 2, 6, 113),  # scorza-sy-sym m=3
    (MatrixShape.skew(6), 4, 13, 109),      # severi-8
])
def test_char_matrix_entries_match_reduced_rref_oracle(shape, rb, dim, seed):
    pt, frame, fib, rng = pipeline(rank_locus_spec(shape, rb), dim, seed)
    chart = fiber_family_chart(fib, FP, rng)
    assert characteristic_matrix(chart, FP).entries == \
        _reduced_by_rref(chart, FP)


def _mono(e, t):
    out = 1
    for ti, ei in zip(t, e):
        out = out * pow(ti, ei, P) % P
    return out


def _all_pde_rows(charm, mu, exps, t):
    """All nv rows q·∂_i f − μ·f·∂_i q at t, with ∂_i det M(t) read as the
    s coefficient of det M(t + s·e_i): each row is linear in the
    coefficients of q, which the rows at enough points pin down."""
    nv = charm.k + 1
    f = charm.det_at(t, FP)
    want = []
    for i in range(nv):
        unit = [int(i == j) for j in range(nv)]
        line = on_line(charm.det_at, charm.r, t, unit, FP) + [0, 0]
        assert line[0] == f
        row = []
        for e in exps:  # q·∂_i f − μ·f·∂_i q for q the monomial e
            v = _mono(e, t) * line[1]
            if e[i]:
                low = list(e)
                low[i] -= 1
                v -= mu * f * e[i] * _mono(low, t)
            row.append(v % P)
        want.append(row)
    return want


def _degree_monomials(nv, d):
    return sorted(e for e in product(range(d + 1), repeat=nv) if sum(e) == d)


def _extract_with_all_rows(charm, mu, d, rng):
    """q's coefficients from the first-order PDE system on all nv rows
    per point, sampled until its solution space is one line; returns the
    terms of q.  An oracle independent of the pencil."""
    nv = charm.k + 1
    exps = _degree_monomials(nv, d)
    npts = -(-len(exps) // (nv - 1)) + 2
    rows, drawn = [], 0
    for _ in range(5):
        while drawn < npts:
            drawn += 1
            t = [rng.field(P) for _ in range(nv)]
            if charm.det_at(t, FP):
                rows += _all_pde_rows(charm, mu, exps, t)
        kern = kernel_basis(*rref(rows, FP, reduced=False), len(exps), FP)
        if len(kern) <= 1:
            break
        npts += -(-npts // 2)
    assert len(kern) == 1
    return {e: c for e, c in zip(exps, kern[0]) if c}


@pytest.mark.parametrize("shape, rb, dim, mu, d", [
    (MatrixShape.symmetric(4), 2, 6, 2, 2),
    (MatrixShape.generic(4, 4), 3, 14, 2, 3),  # the det4 hypersurface
])
def test_linear_system_matches_all_rows_oracle(shape, rb, dim, mu, d):
    # the expanded form and the PDE system's kernel agree up to one scalar
    spec = rank_locus_spec(shape, rb)
    pt, frame, fib, rng = pipeline(spec, dim, 139)
    charm = characteristic_matrix(fiber_family_chart(fib, FP, rng), FP)
    assert mu * d == charm.r
    form = extract_reduced_power(charm, mu, d, FP, Rng(141))
    assert form.basis is None
    got = form.poly.terms
    want = _extract_with_all_rows(charm, mu, d, Rng(141))
    assert got.keys() == want.keys()
    e0 = next(iter(want))
    scale = got[e0] * FP.inv(want[e0]) % P
    assert scale and all(got[e] == scale * c % P for e, c in want.items())


def test_vanishing_focal_form_fails_extraction():
    # det M ≡ 0: no basis has a nonsingular M(t*)
    charm = CharMatrix([[[1, 0], [0, 1]], [[0, 0], [0, 0]]], 1)
    with pytest.raises(ExtractionFailed, match="nonsingular M"):
        extract_reduced_power(charm, 1, 2, FP, Rng(139))


def _product_charm(forms):
    """M(t) = diag(L_1(t), …, L_r(t)): det M = L_1·…·L_r."""
    zero = [0] * len(forms[0])
    return CharMatrix([[forms[j] if l == j else zero
                        for l in range(len(forms))]
                       for j in range(len(forms))], len(forms[0]) - 1)


@pytest.mark.parametrize("k, explicit", [(9, True), (10, False)])
def test_explicit_form_up_to_the_coefficient_bound(k, explicit):
    # a cubic on k + 1 coordinates has comb(k + 3, 3) coefficients:
    # 220 at k = 9, the last size that is expanded, and 286 at k = 10
    assert (comb(k + 3, 3) <= MAX_EXPLICIT_COEFFS) == explicit
    rng = Rng(0xB0 + k)
    forms = [[rng.field(P) for _ in range(k + 1)] for _ in range(3)]
    form = extract_reduced_power(_product_charm(forms), 1, 3, FP, rng)
    assert (form.basis is None) == explicit
    assert form.degree() == 3

    def product_of_forms(t, fp):
        out = 1
        for f in forms:
            out = out * fp.dot(f, t) % fp.p
        return out

    assert _proportional(form.value, product_of_forms, k + 1, FP, rng, 5)


def test_deformation_row_off_the_tangent_space_is_rejected():
    spec = rank_locus_spec(MatrixShape.symmetric(3), 2)
    pt, frame, fib, rng = pipeline(spec, 4, 121)
    chart = fiber_family_chart(fib, FP, rng)
    characteristic_matrix(chart, FP)  # the genuine chart decomposes
    stacked = fib.basis + chart.dirs
    while True:
        off = [rng.field(P) for _ in range(len(fib.basis[0]))]
        if mat_rank(stacked + [off], FP) == len(stacked) + 1:
            break
    bmats = [[list(row) for row in bmat] for bmat in chart.bmats]
    bmats[1][2] = [(a + b) % P for a, b in zip(bmats[1][2], off)]
    moved = FamilyChart(chart.basis, bmats, chart.dirs)
    with pytest.raises(NonVanishingTransversalComponent):
        characteristic_matrix(moved, FP)


# --- packed products against their dot-product oracles --------------------


def _leibniz_det(mat, p):
    det = 0
    for perm in permutations(range(len(mat))):
        term = 1
        for i, j in enumerate(perm):
            term = term * mat[i][j]
        swaps = sum(perm[i] > perm[j] for i in range(len(perm))
                    for j in range(i + 1, len(perm)))
        det += -term if swaps % 2 else term
    return det % p


def test_char_matrix_value_matches_dots_and_follows_the_prime():
    """value(t) is the matrix of dots e·t and det_at its determinant, at
    points with coordinates outside [0, p), under whichever prime reads
    it: entries drawn mod 2^61 − 1 are reduced again under F_101."""
    rng = Rng(0x9AC)
    r, k = 5, 3
    charm = CharMatrix([[[rng.field(P) for _ in range(k + 1)]
                         for _ in range(r)] for _ in range(r)], k)
    for fp in (Fp(101), Fp(P), Fp(101)):
        for _ in range(4):
            t = [rng.below(4 * fp.p) - 2 * fp.p for _ in range(k + 1)]
            want = [[fp.dot(e, t) for e in row] for row in charm.entries]
            assert charm.value(t, fp) == want
            assert charm.det_at(t, fp) == _leibniz_det(want, fp.p)


def test_pencil_form_value_matches_dots():
    """K = Σ y_i·S_i, packed, gives the value that K taken entry by entry
    by dots gives, at points with coordinates outside [0, p)."""
    rng = Rng(0x9AD)
    k = 3
    lin = [[rng.field(P) for _ in range(k + 1)] for _ in range(2)]
    charm = _product_charm([lin[0], lin[0], lin[1], lin[1]])  # (L_0·L_1)^2
    units = [[int(i == j) for j in range(k + 1)] for i in range(1, k + 1)]
    tstar = [1 + rng.field(P - 1) for _ in range(k + 1)]
    slices = _pencil_slices(charm, tstar, units, FP)
    form = PencilForm([tstar] + units, slices, 2, 2, FP)
    inv = [0] + [pow(n, -1, P) for n in range(1, 5)]
    for _ in range(6):
        t = [rng.below(4 * P) - 2 * P for _ in range(k + 1)]
        y0 = t[0] * pow(tstar[0], -1, P) % P
        y = [(ti - y0 * si) % P for ti, si in zip(t[1:], tstar[1:])]
        kmat = [[FP.dot(y, [sl[a][b] for sl in slices]) for b in range(4)]
                for a in range(4)]
        g = _series_root(_pencil_line(kmat, FP), 2, inv, FP)
        assert not any(g[3:])
        want = sum(gn * pow(y0, 2 - n, P) for n, gn in enumerate(g[:3])) % P
        assert form.value(t, FP) == want
        # and it is q(t)/q(t*) for q = L_0·L_1
        assert want * FP.dot(lin[0], tstar) * FP.dot(lin[1], tstar) % P \
            == FP.dot(lin[0], t) * FP.dot(lin[1], t) % P


@pytest.mark.parametrize("p", [2, 101, 4294967311, P, (1 << 64) - 59])
def test_reduce_by_matches_row_by_row_reduction(p):
    """Rows with entries outside [0, p), reduced by echelon rows in
    pivot order and read on some columns, as the scalar loop did it."""
    fp, rng = Fp(p), Rng(0x9AE + p % 97)
    for nlead, ncols in [(0, 4), (1, 5), (3, 9), (6, 13)]:
        base = [[rng.field(p) for _ in range(ncols)] for _ in range(nlead)]
        leads, pivots = rref(base, fp, reduced=False)
        rows = [[rng.field(p) + (rng.below(7) - 3) * p for _ in range(ncols)]
                for _ in range(5)]
        keep = [c for c in range(ncols) if rng.below(3)]
        want = []
        for row in rows:
            red = [v % p for v in row]
            for lead, pc in zip(leads, pivots):
                c = red[pc]
                red = [(a - c * b) % p for a, b in zip(red, lead)]
            assert all(red[pc] == 0 for pc in pivots)
            want.append([red[c] for c in keep])
        assert _reduce_by(rows, leads, pivots, p, keep) == want


def _char_matrix_framed(chart, fp):
    """The framed construction: each B row decomposed over [Λ; w], with
    the w_l coefficients as the entries.  Oracle for the quotient one."""
    k1, r = chart.k + 1, chart.r
    stacked_t = [list(col) for col in zip(*(chart.basis + chart.dirs))]
    entries = [[[0] * k1 for _ in range(r)] for _ in range(r)]
    for j, bmat in enumerate(chart.bmats):
        for i, row in enumerate(bmat):
            coeffs = solve_affine(stacked_t, row, fp)
            for l in range(r):
                entries[j][l][i] = coeffs[k1 + l]
    return CharMatrix(entries, chart.k)


@pytest.mark.parametrize("shape,rb,dim,seed", [
    (MatrixShape.skew(6), 4, 13, 123),        # severi-8
    (MatrixShape.generic(4, 4), 3, 14, 125),  # scorza-max-gen m=3
])
def test_quotient_matrix_matches_framed_oracle(shape, rb, dim, seed):
    spec = rank_locus_spec(shape, rb)
    pt, frame, fib, rng = pipeline(spec, dim, seed)
    chart = fiber_family_chart(fib, FP, rng)
    quot = characteristic_matrix(chart, FP)
    framed = _char_matrix_framed(chart, FP)
    ratios = set()
    for _ in range(5):
        t = [rng.field(P) for _ in range(chart.k + 1)]
        dq = quot.det_at(t, FP)
        assert dq
        ratios.add(framed.det_at(t, FP) * FP.inv(dq) % P)
    assert len(ratios) == 1 and ratios != {0}
    # a focal point: a root of det M on a random line
    r, roots = quot.r, []
    while not roots:
        a = [rng.field(P) for _ in range(chart.k + 1)]
        d = [rng.field(P) for _ in range(chart.k + 1)]
        values = [quot.det_at([(x + s * y) % P for x, y in zip(a, d)], FP)
                  for s in range(r + 1)]
        roots = up_roots(lagrange_interpolate(values, r, FP), FP, rng)
    focus = [(x + roots[0] * y) % P for x, y in zip(a, d)]
    kernel = char_kernel_at_point(quot, focus, FP)
    assert kernel >= 1
    assert char_kernel_at_point(framed, focus, FP) == kernel


def test_deformation_span_other_than_r_is_rejected():
    chart = hyperband_chart(hyperband_family(Rng(33), FP), FP)
    still = [[0] * len(row) for row in chart.bmats[0]]
    padded = FamilyChart(chart.basis, chart.bmats + [still])  # r = 5, span 4
    with pytest.raises(DeformationSpanMismatch):
        characteristic_matrix(padded, FP)


def test_dependent_family_basis_is_rejected():
    chart = hyperband_chart(hyperband_family(Rng(35), FP), FP)
    twice = FamilyChart(chart.basis[:1] * 2, chart.bmats)
    with pytest.raises(DependentFamilyBasis):
        characteristic_matrix(twice, FP)


def test_perturbed_form_fails_containment():
    spec = rank_locus_spec(MatrixShape.symmetric(3), 2)
    pt, frame, fib, rng = pipeline(spec, 4, 115)
    chart = fiber_family_chart(fib, FP, rng)
    charm = characteristic_matrix(chart, FP)
    rf = extract_reduced_power(charm, 1, 2, FP, rng)
    bad = dict(rf.poly.terms)
    bad[(2, 0, 0)] = (bad.get((2, 0, 0), 0) + 1) % P
    with pytest.raises(ContainmentFailed):
        sing_containment(spec, fib, ReducedForm(SparsePoly(3, bad)), FP, rng,
                         witnesses=pt.witnesses)


def test_containment_rejects_a_zero_off_a_batched_singular_stratum():
    # generic 3×3 rank ≤ 2; its singular stratum, rank ≤ 1, is cut out by
    # the nine 2×2 minors.  On the span of E₀₀ and E₁₁ the zeros of
    # t₀·t₁ are rank-one axes, and those of t₀ - t₁ are multiples of
    # E₀₀ + E₁₁, where exactly one minor is not 0.
    shape = MatrixShape.generic(3, 3)
    spec = rank_locus_spec(shape, 2)
    assert spec.singular.locus is not None
    span = [[0] * 9, [0] * 9]
    span[0][shape.var_index(0, 0)] = span[1][shape.var_index(1, 1)] = 1
    fib = SimpleNamespace(basis=span)
    axes = ReducedForm(SparsePoly(2, {(1, 1): 1}))
    got = sing_containment(spec, fib, axes, FP, Rng(119))
    assert (got.status, got.zeros > 0) == ("Pass", True)
    diagonal = ReducedForm(SparsePoly(2, {(1, 0): 1, (0, 1): -1}))
    with pytest.raises(ContainmentFailed, match="escapes the singular locus"):
        sing_containment(spec, fib, diagonal, FP, Rng(119))


def test_chart_independence():
    spec = rank_locus_spec(MatrixShape.symmetric(3), 2)
    pt, frame, fib, rng = pipeline(spec, 4, 117)
    charm = characteristic_matrix(fiber_family_chart(fib, FP, rng), FP)
    assert chart_independence(charm, fib, FP, rng)
    # a chart of another fibre is rejected: both cones have line fibres
    # through their vertex, the focus, which sits at different points of
    # the canonical fibre coordinates
    pt, frame, fib, rng = pipeline(cone_spec(), 2, 117)
    _, _, other, other_rng = pipeline(tilted_cone_spec(), 2, 119)
    own = characteristic_matrix(fiber_family_chart(fib, FP, rng), FP)
    foreign = characteristic_matrix(
        fiber_family_chart(other, FP, other_rng), FP)
    assert (foreign.r, foreign.k) == (own.r, own.k) == (1, 1)
    assert chart_independence(own, fib, FP, rng)
    assert not chart_independence(foreign, fib, FP, rng)


def test_proportional():
    def quad(t, fp):
        return (t[0] * t[1] - t[2] ** 2) % fp.p

    def scaled(t, fp):
        return 7 * quad(t, fp) % fp.p

    assert _proportional(scaled, quad, 3, FP, Rng(1), 5)
    assert not _proportional(quad, lambda t, fp: t[0], 3, FP, Rng(2), 5)
    # no point where both sides are nonzero: nothing verified
    assert not _proportional(lambda t, fp: 0, lambda t, fp: 0, 3, FP,
                             Rng(3), 5)
    # one side vanishes at the first point only: proportional elsewhere,
    # but a point where exactly one side is zero is a failure
    seen = []

    def late(t, fp):
        seen.append(t)
        return 0 if len(seen) == 1 else quad(t, fp)

    assert not _proportional(quad, late, 3, FP, Rng(4), 5)
    assert len(seen) == 1


def test_quadric_rank_small_cases():
    conic = SparsePoly(3, {(1, 0, 1): 1, (0, 2, 0): -1})
    assert quadric_rank(ReducedForm(conic), FP) == 3
    assert quadric_rank(ReducedForm(SparsePoly(3, {(2, 0, 0): 1})), FP) == 1
    assert quadric_rank(ReducedForm(SparsePoly(3, {(1, 1, 0): 1})), FP) == 2


def test_check_bounds_fail_and_skip():
    rep = FocalReport(r=2, mu=1, reduced_degree=1)
    assert check_bounds(rep, 4) == {
        "mu_ge_c_minus_1": "Fail", "c_le_r_plus_1": "Fail",
        "nonlinear_c_bound": "Skipped", "extremal_pattern": "Skipped"}
    # the table's bounds cell prints the statuses in this order
    assert list(check_bounds(rep, 4)) == ["mu_ge_c_minus_1", "c_le_r_plus_1",
                                          "nonlinear_c_bound",
                                          "extremal_pattern"]
    rep = FocalReport(r=8, mu=4, reduced_degree=2)
    assert list(check_bounds(rep, 5).values()) == ["Pass"] * 4
    rep = FocalReport(r=4, mu=4, reduced_degree=1)
    assert list(check_bounds(rep, None).values()) == ["Skipped"] * 4


def test_hyperband_general_chart():
    rng = Rng(31)
    fam = hyperband_family(rng, FP)
    chart = hyperband_chart(fam, FP)
    assert (chart.k, chart.r) == (1, 4)
    charm = characteristic_matrix(chart, FP)
    # the image span collapsed from 5 columns to r = 4
    assert charm.r == 4 and all(len(row) == 4 for row in charm.entries)
    profile, degree = focal_profile(charm, FP, rng, 8)
    assert profile == ((4, 1),) and degree == 4
    rf = extract_reduced_power(charm, 4, 1, FP, rng)
    t0 = form_zero_point(rf, FP, rng)
    assert char_kernel_at_point(charm, t0, FP) == 2
    focus = vecmat(t0, chart.basis, FP)
    assert mat_rank([focus, fam.predictor()], FP) == 1
