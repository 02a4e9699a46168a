"""Tangent frames and the linear fibres along which the tangent space is
constant."""

from operator import add, mul
from unittest.mock import patch

import pytest
from shapes import var_index

from gaussfocal.fieldcore import (
    Dual2Fp,
    DualFp,
    Fp,
    Rng,
    kernel_basis,
    mat_rank,
    random_combination,
    rref,
    vecmat,
)
from gaussfocal.gaussmap import (
    FiberVerificationFailed,
    NoCodimension,
    PointOffVariety,
    SingularSamplePoint,
    TangentFrame,
    _verify_fiber,
    fiber_system,
    first_order_fiber,
    gauss_fiber,
    hessian_rows,
    tangent_space,
)
from gaussfocal.cli import parse_expression
from gaussfocal.mpoly import PolyProgram
from gaussfocal.varieties import (
    MatrixShape,
    VarietySpec,
    WitnessPoint,
    albert_cubic,
    fiber_codim_data,
    rank_locus_spec,
    sample_rank_point,
)

P = (1 << 61) - 1
FP = Fp(P)


def quadric_spec():
    prog = parse_expression("x0*x3 - x1*x2", 4).compile()

    def sampler(rng, fp):
        a, c = rng.field(fp.p), rng.field(fp.p)
        return WitnessPoint([1, a, c, a * c % fp.p])

    return VarietySpec("smooth-quadric-3", 3, [prog], None, sampler)


def cone_spec():
    # cone in P^3 over a plane conic, vertex (0:0:0:1)
    prog = parse_expression("x1^2 - x0*x2", 4).compile()

    def sampler(rng, fp):
        s, t, u = (rng.field(fp.p) for _ in range(3))
        return WitnessPoint([s * s % fp.p, s * t % fp.p, t * t % fp.p, u])

    return VarietySpec("conic-cone", 3, [prog], None, sampler)


def test_tangent_quadric_at_corner():
    spec = quadric_spec()
    frame = tangent_space(spec, [1, 0, 0, 0], FP, expected_dim=2)
    assert frame.n == 2
    assert len(frame.tangent) == 3
    # tangent hyperplane is {x3 = 0}
    assert all(row[3] == 0 for row in frame.tangent)
    assert mat_rank(frame.tangent + [[1, 0, 0, 0]], FP) == 3  # x inside


def test_tangent_rejects_singular_point():
    spec = rank_locus_spec(MatrixShape.symmetric(3), 2)
    pt = sample_rank_point(MatrixShape.symmetric(3), 1, Rng(5), FP)
    with pytest.raises(SingularSamplePoint):
        tangent_space(spec, pt.coords, FP, expected_dim=4)


def test_tangent_rejects_off_variety_point():
    spec = quadric_spec()
    with pytest.raises(PointOffVariety):
        tangent_space(spec, [1, 1, 1, 2], FP, expected_dim=2)


def unit_matrix(shape, *cells):
    """Coordinates of the sum of the unit matrices E_ij at ``cells``."""
    x = [0] * shape.num_vars
    for i, j in cells:
        x[var_index(shape, i, j)] = 1
    return x


# generic 3×3 rank ≤ 1, cut out by its nine 2×2 minors: E₀₀ lies on it,
# and at E₀₀ + E₁₁ exactly one minor, on rows and columns {0, 1}, is not 0
SEGRE = MatrixShape.generic(3, 3)


def test_tangent_rejects_a_point_off_a_batched_rank_locus():
    spec = rank_locus_spec(SEGRE, 1)
    assert spec.locus is not None
    off = unit_matrix(SEGRE, (0, 0), (1, 1))
    assert sum(bool(g.eval(off, FP)) for g in spec.generators) == 1
    assert not spec.vanishes(off, FP)
    with pytest.raises(PointOffVariety):
        tangent_space(spec, off, FP, expected_dim=4)
    assert tangent_space(spec, unit_matrix(SEGRE, (0, 0)), FP,
                         expected_dim=4).codim == 4


def test_fibre_check_rejects_a_foreign_vector_on_a_batched_rank_locus():
    spec = rank_locus_spec(SEGRE, 1)
    rng = Rng(23)
    frame = tangent_space(spec, unit_matrix(SEGRE, (0, 0)), FP, expected_dim=4)
    fib = gauss_fiber(spec, frame, FP, rng)
    assert fib.k == 0
    _verify_fiber(fib, FP, rng, spec)
    # the span of E₀₀ and E₁₁ holds the base point, but its points off the
    # two axes have one nonzero minor
    fib.basis = fib.basis + [unit_matrix(SEGRE, (1, 1))]
    with pytest.raises(FiberVerificationFailed,
                       match="a fibre point misses the variety"):
        _verify_fiber(fib, FP, rng, spec)


def test_tangent_needs_a_positive_codimension():
    with pytest.raises(NoCodimension):
        tangent_space(quadric_spec(), [1, 0, 0, 0], FP, expected_dim=3)


def test_fiber_smooth_quadric_is_point():
    spec = quadric_spec()
    rng = Rng(7)
    pt = spec.sampler(rng, FP)
    frame = tangent_space(spec, pt.coords, FP, expected_dim=2)
    fib = gauss_fiber(spec, frame, FP, rng)
    assert (fib.k, fib.r) == (0, 2)
    assert mat_rank(fib.basis + [pt.coords], FP) == 1  # fibre = the point


def test_fiber_cone_is_ruling():
    spec = cone_spec()
    rng = Rng(11)
    pt = spec.sampler(rng, FP)
    frame = tangent_space(spec, pt.coords, FP, expected_dim=2)
    fib = gauss_fiber(spec, frame, FP, rng)
    assert (fib.k, fib.r) == (1, 1)
    # the ruling passes through the vertex
    assert mat_rank(fib.basis + [[0, 0, 0, 1]], FP) == 2


FIBER_CASES = [
    (MatrixShape.symmetric(3), 2, 4, 2, 2),
    (MatrixShape.generic(3, 3), 2, 7, 3, 4),
    (MatrixShape.symmetric(4), 2, 6, 2, 4),
    (MatrixShape.generic(4, 4), 2, 11, 3, 8),
    (MatrixShape.skew(6), 4, 13, 5, 8),
    (MatrixShape.symmetric(4), 3, 8, 5, 3),
    (MatrixShape.skew(8), 6, 26, 14, 12),
]


@pytest.mark.parametrize("shape,rb,dim,k,r", FIBER_CASES)
def test_fiber_dims_on_rank_loci(shape, rb, dim, k, r):
    spec = rank_locus_spec(shape, rb)
    rng = Rng(13)
    pt = spec.sampler(rng, FP)
    frame = tangent_space(spec, pt.coords, FP, expected_dim=dim)
    assert frame.n == dim
    fib = gauss_fiber(spec, frame, FP, rng)
    assert (fib.k, fib.r) == (k, r)
    # point inside fibre, fibre basis has the right size
    assert len(fib.basis) == k + 1
    assert mat_rank(fib.basis + [pt.coords], FP) == k + 1
    # fibre points satisfy every generator, not just the frame subset
    y = [0] * (shape.ambient_dim + 1)
    for row in fib.basis:
        c = rng.field(P)
        y = [(a + c * b) % P for a, b in zip(y, row)]
    assert all(g.eval(y, FP) == 0 for g in spec.generators)


def test_fiber_cubic27():
    spec = albert_cubic()
    rng = Rng(17)
    pt = spec.sampler(rng, FP)
    frame = tangent_space(spec, pt.coords, FP, expected_dim=25)
    fib = gauss_fiber(spec, frame, FP, rng)
    assert (fib.k, fib.r) == (9, 16)


def test_fiber_codim_data():
    rng = Rng(19)
    spec = rank_locus_spec(MatrixShape.symmetric(3), 2)
    assert fiber_codim_data(spec, 4, FP, rng) == 2
    spec = rank_locus_spec(MatrixShape.symmetric(4), 2)
    assert fiber_codim_data(spec, 6, FP, rng) == 3
    assert fiber_codim_data(quadric_spec(), 2, FP, rng) is None


def test_fiber_reproducible_across_points_and_primes():
    spec = rank_locus_spec(MatrixShape.generic(3, 3), 2)
    seen = set()
    for p in (P, 10**9 + 7):
        fp = Fp(p)
        rng = Rng(23)
        for _ in range(3):
            pt = spec.sampler(rng, fp)
            frame = tangent_space(spec, pt.coords, fp, expected_dim=7)
            fib = gauss_fiber(spec, frame, fp, rng)
            seen.add((fib.k, fib.r))
    assert seen == {(3, 4)}


def _unpacked(packed, count, ring):
    """Rows packed over ``count`` vectors (``hessian_rows``, and the
    gradient of ``hess_vec``) as plain rows: entry j of a row is its
    slope j, over F_p its unit part (the d-parts are then 0)."""
    ring2 = Dual2Fp(ring.p, count)
    rows = [ring2.decode(row)[1:] for row in packed]
    if isinstance(ring, Fp):
        assert not any(any(ts) for _, ts in rows)
        return [cs for cs, _ in rows]
    return [list(zip(cs, ts)) for cs, ts in rows]


def _on_pivots(tangent, pivots, ring):
    """Each tangent vector on the pivot columns, as ``hessian_rows`` takes
    it: its unit parts and its d-parts over F_p[d], () over F_p."""
    on_p = [[t[c] for c in pivots] for t in tangent]
    if isinstance(ring, Fp):
        return [(tp, ()) for tp in on_p]
    return [tuple(map(list, zip(*tp))) for tp in on_p]


def test_fiber_system_over_dual_ring_matches_per_vector_images():
    # the dual-ring fibre system is only ever read through the chart's
    # S(ε)·k₀ columns: each image H(x)·β for β over F_p on its own, the
    # gradient over F_p[d, e] at x_i + β_i·e, read off its e-slope; then
    # every entry t_a·H·β as a plain dot over a canonical dual tangent
    # basis.  Its unit parts over F_p are the center fibre system.
    ring, flat = DualFp(P), Dual2Fp(P, 1)
    rng = Rng(97)
    gens = (rank_locus_spec(MatrixShape.skew(8), 6).generators[:2]
            + rank_locus_spec(MatrixShape.skew(8), 4).generators[:1])
    arity = gens[0].arity
    elem = lambda: (rng.field(P), rng.field(P))
    x = [elem() for _ in range(arity)]
    rows, piv = rref([[elem() for _ in range(arity)] for _ in range(3)], ring)
    tangent = kernel_basis(rows, piv, arity, ring)
    frame = TangentFrame(x, gens, piv, tangent, arity - 4, 3)

    def per_vector(x, tangent, vecs, ring):
        over_fp = ring is FP
        lift = (lambda a: (a, 0)) if over_fp else tuple
        out = []
        for g in gens:
            images = []
            for v in vecs:
                grad = g.grad([flat.encode(lift(xi), [vi])
                               for xi, vi in zip(x, v)], flat)
                slopes = [flat.decode(gi)[1:] for gi in grad]
                images.append([cs[0] if over_fp else (cs[0], ts[0])
                               for cs, ts in slopes])
            out += [[ring.dot(ta, img) for img in images] for ta in tangent]
        return out

    betas = [[rng.field(P) for _ in range(arity)] for _ in range(3)]
    assert _unpacked(hessian_rows(gens, x, _on_pivots(tangent, piv, ring),
                                  piv, betas, ring), 3,
                     ring) == per_vector(x, tangent, betas, ring)
    x0, t0 = [u for u, _ in x], [[u for u, _ in t] for t in tangent]
    assert fiber_system(gens, x0, t0, piv, FP) == \
        per_vector(x0, t0, t0, FP)


def _combine(ring2, elems, coefs):
    """Σ_i a_i·elems[i] per coefficient pair (t0, t1), a_i = t0[i] +
    t1[i]·d, or t0[i] in F_p when t1 is None, unit part 0: one bound sum
    per pair, and every element reduced once when a pair's bound leaves
    the slot range."""
    out = []
    _, _, cs, ts, bs = zip(*elems)
    for t0, t1 in coefs:
        scale = t0 if t1 is None else list(map(add, t0, t1))
        bound = sum(map(mul, scale, bs))
        if bound >= ring2._limit:
            elems = list(map(ring2._reduced, elems))
            _, _, cs, ts, bs = zip(*elems)
            bound = sum(map(mul, scale, bs))
        c, t = sum(map(mul, t0, cs)), sum(map(mul, t0, ts))
        if t1 is not None:
            t += sum(map(mul, t1, cs))
        out.append((0, 0, c, t, bound))
    return out


def _hessian_rows_by_combine(gens, x, tangent, pivots, vecs, ring):
    """Oracle for ``hessian_rows``: each row u[f] + t_a[P]·u[P] as a ring
    sum of u[f] and a combination with a bound of its own."""
    ring2 = Dual2Fp(ring.p, len(vecs))
    free = sorted(set(range(len(x))) - set(pivots))
    coefs = [[t[c] for c in pivots] for t in tangent]
    coefs = [(tp, None) if isinstance(ring, Fp) else tuple(zip(*tp))
             for tp in coefs]
    rows = []
    for g in gens:
        images = g.hess_vec(x, vecs, ring)
        rows += map(ring2.add, [images[f] for f in free],
                    _combine(ring2, [images[c] for c in pivots], coefs))
    return rows


@pytest.mark.parametrize("wide", [False, True], ids=["swept", "wide"])
@pytest.mark.parametrize("over", ["Fp", "Fp[d]"])
@pytest.mark.parametrize("p", [4294967311, (1 << 64) - 59])
@pytest.mark.parametrize("shape,rb,dim", [
    (MatrixShape.skew(8), 4, 21),       # Pfaffian nodes
    (MatrixShape.generic(3, 4), 2, 9),  # det nodes
])
def test_hessian_rows_match_the_per_row_bound_combination(shape, rb, dim,
                                                          p, over, wide):
    # one bound per sweep, from Dual2Fp.fit, against a bound per row: the
    # same slots mod p, over F_p and over F_p[d], also when every image
    # is padded by a multiple of p past the sweep's threshold, so that
    # the images are reduced once; the returned bound covers every slot.
    # Without the unit slots the d-slopes are the same and C is 0.
    from test_fieldcore import _dominated

    fp = Fp(p)
    spec = rank_locus_spec(shape, rb)
    rng = Rng(37)
    frame = tangent_space(spec, spec.sampler(rng, fp).coords, fp, dim)
    x, tangent, ring = frame.x, frame.tangent, fp
    if over == "Fp[d]":
        ring = DualFp(p)
        w = random_combination(frame.tangent, fp, rng)
        x = [ring.make(xi, wi) for xi, wi in zip(frame.x, w)]
        rows, piv = rref([g.grad(x, ring) for g in frame.gens], ring)
        assert piv == frame.tan_pivots
        tangent = kernel_basis(rows, piv, len(x), ring)
    vecs = [[rng.field(p) for _ in x] for _ in range(3)]
    ring2 = Dual2Fp(p, len(vecs))
    weight = 2 * p * len(frame.tan_pivots) + 1
    # (q·p) in every slot of C, −(q·p) in every slot of T
    pad = (ring2._limit // weight // p + 1) * p
    ones = sum(1 << s for s in ring2._shifts)
    real_hess, real_reduced = PolyProgram.hess_vec, Dual2Fp._reduced
    padded_images, reduced = set(), []

    def padded(prog, *args):
        images = real_hess(prog, *args)
        if not wide:
            return images
        assert pad * weight >= ring2._limit > pad + max(u[4] for u in images)
        images = [(a0, a1, c + pad * ones, t - pad * ones, b + pad)
                  for a0, a1, c, t, b in images]
        padded_images.update(images)
        return images

    def counted(ring2, a):
        reduced.append(a in padded_images)
        return real_reduced(ring2, a)

    args = (frame.gens, x, tangent, frame.tan_pivots, vecs, ring)
    on_p = _on_pivots(tangent, frame.tan_pivots, ring)
    with patch.object(PolyProgram, "hess_vec", padded):
        want = _hessian_rows_by_combine(*args)
        with patch.object(Dual2Fp, "_reduced", counted):
            got = hessian_rows(*args[:2], on_p, *args[3:])
        slopes = hessian_rows(*args[:2], on_p, *args[3:], units=False)
    # padded, each image of each sweep is reduced once
    assert sum(reduced) == wide * len(frame.gens) * len(x)
    assert [ring2.decode(row) for row in got] == \
        [ring2.decode(row) for row in want]
    assert all(row[4] < ring2._limit and _dominated(ring2, row)
               for row in got)
    assert [row[2] for row in slopes] == [0] * len(got)
    assert [ring2.slots(row[3]) for row in slopes] == \
        [ring2.slots(row[3]) for row in got]


def _dense_block_dots(gens, x, tangent, vecs, ring):
    rows = []
    for g in gens:
        images = [list(col) for col in zip(*_unpacked(
            g.hess_vec(x, vecs, ring), len(vecs), ring))]
        rows += [[ring.dot(ta, img) for img in images] for ta in tangent]
    return rows


@pytest.mark.parametrize("shape,rb,dim", [
    (MatrixShape.symmetric(3), 2, 4),
    (MatrixShape.skew(8), 6, 26),
    (MatrixShape.generic(3, 4), 2, 9),
])
def test_fiber_system_on_kernel_basis_tangents_matches_dense_dots(shape, rb,
                                                                  dim):
    # canonical kernel-basis tangents are 1 at their free column and
    # otherwise supported on the pivot columns; the pivot-gather dots must
    # equal full dots, also when a pivot entry is zero (over F_p[d], in
    # the chart's S(ε)·k₀ columns: when its unit part or all of it is zero)
    spec = rank_locus_spec(shape, rb)
    rng = Rng(29)
    pt = spec.sampler(rng, FP)
    frame = tangent_space(spec, pt.coords, FP, expected_dim=dim)
    pc = frame.tan_pivots[0]
    tangent = [list(t) for t in frame.tangent]
    tangent[0][pc] = 0
    assert fiber_system(frame.gens, frame.x, tangent, frame.tan_pivots,
                        FP) == \
        _dense_block_dots(frame.gens, frame.x, tangent, tangent, FP)
    dring = DualFp(P)
    w = random_combination(frame.tangent, FP, rng)
    x_eps = [dring.make(xi, wi) for xi, wi in zip(frame.x, w)]
    jac = [g.grad(x_eps, dring) for g in frame.gens]
    rows, piv = rref(jac, dring)
    assert piv == frame.tan_pivots
    tangent = kernel_basis(rows, piv, len(frame.x), dring)
    tangent[0][pc] = dring.zero
    tangent[1][pc] = (0, tangent[1][pc][1] or 1)
    betas = [[rng.field(P) for _ in frame.x] for _ in range(3)]
    on_p = _on_pivots(tangent, frame.tan_pivots, dring)
    assert _unpacked(hessian_rows(frame.gens, x_eps, on_p,
                                  frame.tan_pivots, betas, dring), 3,
                     dring) == \
        _dense_block_dots(frame.gens, x_eps, tangent, betas, dring)


@pytest.mark.parametrize("shape,rb,dim", [
    (MatrixShape.symmetric(3), 2, 4),
    (MatrixShape.skew(8), 6, 26),     # Pfaffian nodes
])
def test_solver_matrix_inverts_the_center_system_and_lifts_the_fibre(
        shape, rb, dim):
    # sys_solver's first ρ rows are S₀[Q, P]⁻¹ and its other rows R, with
    # R·S₀[Q, P] = S₀[out, P], against the fibre system built densely; the
    # packed solve by it gives each direction's B matrix of the dual-rref
    # oracle
    from test_focal import (_dense_system, _dual_tangent,
                            _first_order_by_dual_rref)

    spec = rank_locus_spec(shape, rb)
    rng = Rng(31)
    pt = spec.sampler(rng, FP)
    frame = tangent_space(spec, pt.coords, FP, expected_dim=dim)
    fib = gauss_fiber(spec, frame, FP, rng)
    system = fiber_system(frame.gens, frame.x, frame.tangent,
                          frame.tan_pivots, FP)
    rho = len(fib.sys_pivots)
    assert rho == fib.r
    assert sorted(fib.sys_rows + fib.sys_outside) == list(range(len(system)))
    assert len(fib.sys_solver) == len(system)

    def on_p(rows):
        return [[system[i][c] for c in fib.sys_pivots] for i in rows]

    def times(a, b):
        return [vecmat(row, b, FP) for row in a]

    square = on_p(fib.sys_rows)
    inverse, relation = fib.sys_solver[:rho], fib.sys_solver[rho:]
    identity = [[int(i == j) for j in range(rho)] for i in range(rho)]
    assert times(inverse, square) == identity
    assert times(square, inverse) == identity
    assert times(relation, square) == on_p(fib.sys_outside)
    dring = DualFp(P)
    dirs = [random_combination(frame.tangent, FP, rng) for _ in range(3)]
    want = []
    for w in dirs:
        x_eps, tangent_eps = _dual_tangent(fib, w, dring)
        rows = _dense_system(frame.gens, x_eps, tangent_eps, dring)
        want.append(_first_order_by_dual_rref(fib, tangent_eps, rows, dring))
    assert first_order_fiber(fib, dirs, FP) == want
