"""Tangent frames and the linear fibres along which the tangent space is
constant."""

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
    """A gradient packed over ``count`` vectors (``hess_vec``) as plain
    rows: entry j of a row is its slope j, over F_p its unit part (the
    d-parts are then 0)."""
    ring2 = Dual2Fp(ring.p, count)
    rows = [ring2.decode(row)[1:] for row in packed]
    if isinstance(ring, Fp):
        assert not any(any(ts) for _, ts in rows)
        return [cs for cs, _ in rows]
    return [list(zip(cs, ts)) for cs, ts in rows]


def _random_slopes(tangent, pivots, count, p, rng):
    """``count`` e-slope vectors per tangent vector, slopes[j][a], random
    on the pivot columns and zero off them, as T₁ is."""
    return [[[rng.field(p) if c in pivots else 0 for c in range(len(t))]
             for t in tangent] for _ in range(count)]


def _on_pivots(tangent, pivots, slopes, p):
    """Each tangent vector t_a + Σ_j slopes[j][a]·e_j on the pivot
    columns, as ``hessian_rows`` takes it: its residues, and its e-slopes
    packed over j (() for none)."""
    ring2 = Dual2Fp(p, len(slopes))
    return [([t[c] for c in pivots],
             [ring2.pack([s[a][c] for s in slopes]) for c in pivots]
             if slopes else ()) for a, t in enumerate(tangent)]


def _decoded(rows, count, p):
    """Rows of ``hessian_rows`` as (d-part, C's slots, T's slots)."""
    ring2 = Dual2Fp(p, count)
    return [(row[1], ring2.slots(row[2]), ring2.slots(row[3]))
            for row in rows]


def _dense_products(gens, x, tangent, slopes, vecs, ring):
    """Oracle for ``hessian_rows``: per (g, t_a), the ring product of
    t_a + Σ_j slopes[j][a]·e_j with g's gradient at x + Σ_j v_j·e_j, one
    ``Dual2Fp.dot`` over every coordinate, as (d-part, C's slots, T's
    slots)."""
    ring2 = Dual2Fp(ring.p, len(vecs))
    rows = []
    for g in gens:
        images = g.hess_vec(x, vecs, ring)
        for a, t in enumerate(tangent):
            ta = [ring2.encode((tc, 0), [s[a][c] for s in slopes])
                  for c, tc in enumerate(t)]
            (_, a1), cs, ts = ring2.decode(ring2.dot(ta, images))
            rows.append((a1, cs, ts))
    return rows


def test_fiber_system_over_dual_ring_matches_per_vector_images():
    # each image H(x)·v for v over F_p on its own, the gradient over
    # F_p[d, e] at x_i + v_i·e, contracted with t_a + s·e for that v's
    # e-slopes s of t_a by a product over F_p[d, e]: the d-part and the
    # slopes e of the products are those that hessian_rows packs over the
    # vectors.  Its unit slopes over F_p are the center fibre system.
    ring, flat = DualFp(P), Dual2Fp(P, 1)
    rng = Rng(97)
    gens = (rank_locus_spec(MatrixShape.skew(8), 6).generators[:2]
            + rank_locus_spec(MatrixShape.skew(8), 4).generators[:1])
    arity = gens[0].arity
    x = [(rng.field(P), rng.field(P)) for _ in range(arity)]
    rows, piv = rref([[rng.field(P) for _ in range(arity)]
                      for _ in range(3)], FP, reduced=False)
    tangent = kernel_basis(rows, piv, arity, FP)

    def per_vector(x, tangent, slopes, vecs, ring):
        lift = (lambda a: (a, 0)) if ring is FP else tuple
        out = []
        for g in gens:
            per_v = []
            for j, v in enumerate(vecs):
                grad = g.grad([flat.encode(lift(xi), [vi])
                               for xi, vi in zip(x, v)], flat)
                ta = [[flat.encode((tc, 0), [slopes[j][a][c]] if slopes
                                   else []) for c, tc in enumerate(t)]
                      for a, t in enumerate(tangent)]
                per_v.append([flat.decode(flat.dot(t, grad)) for t in ta])
            for prods in zip(*per_v):
                assert len({unit for unit, _, _ in prods}) == 1
                out.append((prods[0][0][1], [cs[0] for _, cs, _ in prods],
                            [ts[0] for _, _, ts in prods]))
        return out

    betas = [[rng.field(P) for _ in range(arity)] for _ in range(3)]
    slopes = _random_slopes(tangent, piv, 3, P, rng)
    on_p = _on_pivots(tangent, piv, slopes, P)
    assert _decoded(hessian_rows(gens, x, on_p, piv, betas, ring), 3, P) \
        == per_vector(x, tangent, slopes, betas, ring)
    x0 = [u for u, _ in x]
    assert fiber_system(gens, x0, tangent, piv, FP) == \
        [cs for _, cs, _ in per_vector(x0, tangent, [], tangent, FP)]


@pytest.mark.parametrize("wide", [False, True], ids=["swept", "wide"])
@pytest.mark.parametrize("over", ["Fp", "Fp[d]"])
@pytest.mark.parametrize("p", [4294967311, (1 << 64) - 59])
@pytest.mark.parametrize("shape,rb,dim", [
    (MatrixShape.skew(8), 4, 21),       # Pfaffian nodes
    (MatrixShape.generic(3, 4), 2, 9),  # det nodes
])
def test_hessian_rows_match_the_per_row_bound_combination(shape, rb, dim,
                                                          p, over, wide):
    # one bound per sweep, from Dual2Fp.fit, against exact products over
    # F_p[d][e_1..e_m] on every coordinate: the same slots
    # mod p, at x over F_p with no e-slopes (the fibre system) and at
    # x + d·k with e-slopes (a chart's lift), also when every image is
    # padded by a multiple of p past the sweep's threshold, so that the
    # images are reduced once; the returned bound covers every slot.
    # Without the unit slots the d-part and the d-slopes are the same and
    # C is 0.
    from test_fieldcore import _dominated

    fp = Fp(p)
    spec = rank_locus_spec(shape, rb)
    rng = Rng(37)
    frame = tangent_space(spec, spec.sampler(rng, fp).coords, fp, dim)
    x, tangent, pivots, ring = frame.x, frame.tangent, frame.tan_pivots, fp
    vecs = [[rng.field(p) for _ in x] for _ in range(3)]
    slopes = []
    if over == "Fp[d]":
        ring = DualFp(p)
        k = random_combination(frame.tangent, fp, rng)
        x = [ring.make(xi, ki) for xi, ki in zip(frame.x, k)]
        slopes = _random_slopes(tangent, pivots, len(vecs), p, rng)
    ring2 = Dual2Fp(p, len(vecs))
    weight = 2 * p * len(pivots) + 1
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

    on_p = _on_pivots(tangent, pivots, slopes, p)
    with patch.object(PolyProgram, "hess_vec", padded):
        want = _dense_products(frame.gens, x, tangent, slopes, vecs, ring)
        with patch.object(Dual2Fp, "_reduced", counted):
            got = hessian_rows(frame.gens, x, on_p, pivots, vecs, ring)
        slopes_only = hessian_rows(frame.gens, x, on_p, pivots, vecs, ring,
                                   units=False)
    # padded, each image of each sweep is reduced once
    assert sum(reduced) == wide * len(frame.gens) * len(x)
    assert _decoded(got, len(vecs), p) == want
    assert all(row[4] < ring2._limit and _dominated(ring2, row)
               for row in got)
    assert [row[2] for row in slopes_only] == [0] * len(got)
    assert [(a1, ts) for a1, _, ts in _decoded(slopes_only, len(vecs), p)] \
        == [(a1, ts) for a1, _, ts in want]


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
    # otherwise supported on the pivot columns; the pivot-gather products
    # must equal products over all coordinates, also when a pivot entry
    # is zero (in a chart's lift, at x + d·k: when its residue, its
    # e-slopes or all of it is zero)
    spec = rank_locus_spec(shape, rb)
    rng = Rng(29)
    pt = spec.sampler(rng, FP)
    frame = tangent_space(spec, pt.coords, FP, expected_dim=dim)
    pc, pivots = frame.tan_pivots[0], frame.tan_pivots
    tangent = [list(t) for t in frame.tangent]
    tangent[0][pc] = 0
    assert fiber_system(frame.gens, frame.x, tangent, pivots, FP) == \
        _dense_block_dots(frame.gens, frame.x, tangent, tangent, FP)
    dring = DualFp(P)
    k = random_combination(frame.tangent, FP, rng)
    x_k = [dring.make(xi, ki) for xi, ki in zip(frame.x, k)]
    dirs = [random_combination(frame.tangent, FP, rng) for _ in range(3)]
    slopes = _random_slopes(tangent, pivots, len(dirs), P, rng)
    tangent[1][pc] = 0
    for s in slopes:
        s[1][pc] = s[2][pc] = 0
    on_p = _on_pivots(tangent, pivots, slopes, P)
    assert _decoded(hessian_rows(frame.gens, x_k, on_p, pivots, dirs,
                                 dring), len(dirs), P) == \
        _dense_products(frame.gens, x_k, tangent, slopes, dirs, dring)


def _det4_program():
    from test_focal import det4_spec
    return det4_spec().generators[0]


@pytest.mark.parametrize("p", [101, P, (1 << 64) - 59])
@pytest.mark.parametrize("make_prog,kind", [
    (_det4_program, "sum"),
    (lambda: rank_locus_spec(MatrixShape.generic(3, 4), 2).generators[0],
     "det"),
    (lambda: rank_locus_spec(MatrixShape.skew(8), 6).generators[0], "pf"),
], ids=["det4", "gen34", "skew8"])
def test_lift_sweep_swaps_the_roles_of_its_two_nilpotents(make_prog, kind,
                                                          p):
    # first_order_fiber sweeps at x + d·k over the directions w_j, where
    # the fibre system at x + ε·w_j sweeps over the fibre vectors k: as
    # D³g is symmetric, d-slope j of the one is d-slope k of the other,
    # D³g(x)[k, w_j, ·].  The sweep's d-part is H(x)·k and its unit
    # slope j H(x)·w_j, each against the F_p[ε] gradient at x + ε·v
    dring = DualFp(p)
    g = make_prog()
    assert g.kind == kind
    rng = Rng(p % 1009)
    x = [rng.field(p) for _ in range(g.arity)]
    dirs = [[rng.field(p) for _ in x] for _ in range(3)]
    fibre = [[rng.field(p) for _ in x] for _ in range(2)]

    def at(v):
        return [dring.make(xi, vi) for xi, vi in zip(x, v)]

    def sweep(v, vecs):
        ring2 = Dual2Fp(p, len(vecs))
        return [ring2.decode(u) for u in g.hess_vec(at(v), vecs, dring)]

    def hess(v):
        return [s for _, s in g.grad(at(v), dring)]

    by_direction = [sweep(w, fibre) for w in dirs]
    for b, k in enumerate(fibre):
        swept = sweep(k, dirs)
        assert [a1 for (_, a1), _, _ in swept] == hess(k)
        for j, w in enumerate(dirs):
            assert [cs[j] for _, cs, _ in swept] == hess(w)
            assert [ts[j] for _, _, ts in swept] == \
                [ts[b] for _, _, ts in by_direction[j]]
    assert any(ts[0] for _, _, ts in swept)


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
