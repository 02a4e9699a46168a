"""Polynomial programs (sums, determinants, Pfaffians), gradients, and
univariate helpers."""

from itertools import permutations
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from shapes import var_index

from gaussfocal.cli import derive_primes
from gaussfocal.fieldcore import (Dual2Fp, DualFp, Fp, Rng, _fp_sweep,
                                  is_probable_prime)
from gaussfocal.mpoly import (
    CharTooSmall,
    LINE_ATTEMPTS,
    PolyProgram,
    SparsePoly,
    _jacobi,
    _pf_solver,
    _sqrt_mod,
    det_ring,
    line_zeros,
    on_line,
    restrict_to_line,
    squarefree_profile,
    up_deg,
    up_divmod,
    up_gcd,
    up_monic,
    up_pow_mod,
    up_roots,
    up_sub,
    up_trim,
)
from gaussfocal.varieties import MatrixShape, rank_locus_spec

F7 = Fp(7)
F101 = Fp(101)


def _dual_over(ring):
    """The dual extension of F_p (F_p[e]) or of F_p[d] (F_p[d, e])."""
    return DualFp(ring.p) if isinstance(ring, Fp) else Dual2Fp(ring.p, 1)


def _dual_eps(ring):
    """The slope unit e of _dual_over(ring)."""
    if isinstance(ring, Fp):
        return (0, 1)
    return _dual_over(ring).encode((0, 0), [1], [0])


def _dual_embed(ring, a):
    """Lift an element of ``ring`` into _dual_over(ring) with zero slope."""
    if isinstance(ring, Fp):
        return (a, 0)
    return _dual_over(ring).encode(a, [0], [0])


def _dual_slope(ring, a):
    """The slope, over ``ring``, of an element of _dual_over(ring)."""
    if isinstance(ring, Fp):
        return a[1]
    _, (c,), (t,) = _dual_over(ring).decode(a)
    return (c, t)


def _value(ring, a):
    """A ring element in comparable form: a Dual2Fp element keeps its
    slopes unreduced, so it compares through ``decode``."""
    return ring.decode(a) if isinstance(ring, Dual2Fp) else a


def _values(ring, xs):
    return [_value(ring, a) for a in xs]


def _grad_forward(prog, x, ring):
    """Per-coordinate forward-mode gradient; reference oracle for grad()."""
    dring = _dual_over(ring)
    eps = _dual_eps(ring)
    base = [_dual_embed(ring, xi) for xi in x]
    out = []
    for i in range(prog.arity):
        pt = list(base)
        pt[i] = dring.add(pt[i], eps)
        out.append(_dual_slope(ring, prog.eval(pt, dring)))
    return out


def up_mul(f, g, fp):
    """Schoolbook product of ascending coefficient lists, trimmed."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return up_trim([v % fp.p for v in out])


def up_eval(f, x, fp):
    """Horner's rule."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % fp.p
    return acc


def sym2x2_det():
    """det [[x0, x1], [x1, x2]] as a program on 3 variables."""
    return PolyProgram.det(3, [[0, 1], [1, 2]])


def test_eval_det_program():
    prog = sym2x2_det()
    assert prog.eval([1, 0, 1], F7) == 1
    assert prog.degree == 2


def test_eval_homogeneity():
    prog = sym2x2_det()
    fp = Fp(10007)
    rng = Rng(5)
    for _ in range(20):
        x = [rng.field(fp.p) for _ in range(3)]
        lam = 1 + rng.below(fp.p - 1)
        lx = [fp.mul(lam, v) for v in x]
        assert prog.eval(lx, fp) == fp.mul(pow(lam, prog.degree, fp.p), prog.eval(x, fp))


def test_pfaffian_standard_symplectic():
    prog = PolyProgram.pf(6, [[0, 1, 2], [3, 4], [5]])
    # upper triangle of [[0,1,0,0],[-1,0,0,0],[0,0,0,1],[0,0,-1,0]]
    assert prog.eval([1, 0, 0, 0, 0, 1], F7) == 1


def test_pfaffian_4x4_formula():
    # Pf of skew 4x4 with upper entries (a,b,c,d,e,g) is a*g - b*e + c*d
    prog = PolyProgram.pf(6, [[0, 1, 2], [3, 4], [5]])
    fp = Fp(10007)
    rng = Rng(17)
    for _ in range(50):
        v = [rng.field(fp.p) for _ in range(6)]
        want = (v[0] * v[5] - v[1] * v[4] + v[2] * v[3]) % fp.p
        assert prog.eval(v, fp) == want


def test_pfaffian_squared_is_determinant():
    fp = Fp(1000003)
    rng = Rng(23)
    for n in (2, 4, 6, 8):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        pf_prog = PolyProgram.pf(len(pairs), _skew_upper(n))
        for _ in range(10):
            v = [rng.field(fp.p) for _ in pairs]
            # the numeric skew matrix with upper triangle v
            mat = [[0] * n for _ in range(n)]
            for (i, j), vij in zip(pairs, v):
                mat[i][j], mat[j][i] = vij, fp.neg(vij)
            pf = pf_prog.eval(v, fp)
            assert fp.mul(pf, pf) == det_ring(mat, fp)


def _random_element(ring, rng):
    if isinstance(ring, Fp):
        return rng.field(ring.p)
    if isinstance(ring, DualFp):
        return (rng.field(ring.p), rng.field(ring.p))
    unit = (rng.field(ring.p), rng.field(ring.p))
    return ring.encode(unit, [rng.field(ring.p) for _ in range(ring.m)],
                       [rng.field(ring.p) for _ in range(ring.m)])


def _matchings(idx):
    """Perfect matchings of the sorted index list, as lists of pairs."""
    if not idx:
        yield []
        return
    i, rest = idx[0], idx[1:]
    for t, j in enumerate(rest):
        for tail in _matchings(rest[:t] + rest[t + 1:]):
            yield [(i, j)] + tail


def _parity(perm):
    inversions = sum(1 for a in range(len(perm))
                     for b in range(a + 1, len(perm)) if perm[a] > perm[b])
    return inversions % 2


def _pf_partials_oracle(entry, n, ring):
    """d Pf / d a_ij for every i < j, from the permutation expansion
    Pf = Σ_M sgn(i1 j1 i2 j2 …) Π a_{i_k j_k} over perfect matchings M."""
    out = {}
    for match in _matchings(list(range(n))):
        sign = _parity([v for pair in match for v in pair])
        for pair in match:
            term = ring.one
            for other in match:
                if other != pair:
                    term = ring.mul(term, entry[other])
            if sign:
                term = ring.neg(term)
            out[pair] = ring.add(out.get(pair, ring.zero), term)
    return out


_RINGS = pytest.mark.parametrize(
    "ring", [Fp(101), Fp((1 << 61) - 1), DualFp((1 << 61) - 1),
             Dual2Fp((1 << 61) - 1, 1)],
    ids=lambda r: f"{type(r).__name__}-{r.p}")


def _sparse_entries(keys, ring, rng):
    """Random entries by key, about a quarter of them zero, so the
    expansion skips terms."""
    return {key: ring.zero if rng.below(4) == 0 else _random_element(ring, rng)
            for key in keys}


def _skew(entry, n, ring):
    mat = [[ring.zero] * n for _ in range(n)]
    for (i, j), v in entry.items():
        mat[i][j], mat[j][i] = v, ring.neg(v)
    return mat


@_RINGS
def test_bitmask_pfaffian_against_det_and_permutation_expansion(ring):
    rng = Rng(73)
    for n in (4, 6, 8):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        full = (1 << n) - 1
        for _ in range(3):
            entry = _sparse_entries(pairs, ring, rng)
            upper = [[entry[i, j] for j in range(i + 1, n)] for i in range(n)]
            oracle = _pf_partials_oracle(entry, n, ring)
            # every perfect matching pairs index 0 exactly once
            want = ring.zero
            for j in range(1, n):
                want = ring.add(want, ring.mul(entry[0, j], oracle[0, j]))
            # the cofactors with and without the full Pfaffian in the memo
            for warm in (True, False):
                pf = _pf_solver(upper, ring)
                if warm:
                    assert _value(ring, pf(full)) == _value(ring, want)
                    assert _value(ring, ring.mul(want, want)) == _value(
                        ring, _naive_det(_skew(entry, n, ring), ring))
                for i, j in pairs:
                    cof = pf(full ^ 1 << i ^ 1 << j)
                    if (i + j) % 2 == 0:
                        cof = ring.neg(cof)
                    assert _value(ring, cof) == _value(ring, oracle[i, j])


@_RINGS
def test_pf_node_grad_matches_permutation_expansion(ring):
    # the upper entries are variables in shuffled order, so the
    # bookkeeping of entry positions against coordinates is exercised too
    rng = Rng(97)
    for n in (4, 6, 8, 10):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        order = list(range(len(pairs)))
        for t in range(len(order) - 1, 0, -1):
            u = rng.below(t + 1)
            order[t], order[u] = order[u], order[t]
        var = dict(zip(pairs, order))
        prog = PolyProgram.pf(len(pairs), [
            [var[i, j] for j in range(i + 1, n)] for i in range(n - 1)])
        for _ in range(2):
            entry = _sparse_entries(pairs, ring, rng)
            x = [None] * len(pairs)
            for pair, v in var.items():
                x[v] = entry[pair]
            oracle = _pf_partials_oracle(entry, n, ring)
            grad = prog.grad(x, ring)
            assert _values(ring, [grad[var[pair]] for pair in pairs]) == \
                _values(ring, [oracle[pair] for pair in pairs])


def _generic_grid(n):
    """The n×n grid of coordinates x_{i·n+j}."""
    return [[i * n + j for j in range(n)] for i in range(n)]


def _skew_upper(n):
    """The upper triangle of an n×n skew matrix of coordinates, its
    entries numbered row by row."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [[pairs.index((i, j)) for j in range(i + 1, n)]
            for i in range(n - 1)]


def _minor(mat, i, j):
    return [row[:j] + row[j + 1:] for k, row in enumerate(mat) if k != i]


def _naive_det(mat, ring):
    """Cofactor expansion along the first row, over any ring."""
    if not mat:
        return ring.one
    acc = ring.zero
    for j, v in enumerate(mat[0]):
        term = ring.mul(v, _naive_det(_minor(mat, 0, j), ring))
        acc = ring.add(acc, ring.neg(term) if j % 2 else term)
    return acc


@_RINGS
def test_det_ring_and_det_node_grad_match_cofactor_expansion(ring):
    # det(A) and every ∂det/∂a_ij = (-1)^(i+j)·det(A without row i, col j);
    # n = 7 is a 14-index Pfaffian block over the dual rings
    rng = Rng(89)
    for n in range(1, 8):
        prog = PolyProgram.det(n * n, _generic_grid(n))
        for _ in range(3):
            flat = list(_sparse_entries(range(n * n), ring, rng).values())
            mat = [flat[i * n:(i + 1) * n] for i in range(n)]
            assert _value(ring, det_ring(mat, ring)) == \
                _value(ring, _naive_det(mat, ring))
            want = []
            for i in range(n):
                for j in range(n):
                    cof = _naive_det(_minor(mat, i, j), ring)
                    want.append(ring.neg(cof) if (i + j) % 2 else cof)
            assert _values(ring, prog.grad(flat, ring)) == \
                _values(ring, want)


def test_det_ring_over_dual_rings_lifts_the_field_determinant():
    # det(A + εB) = det A + ε·Σ_ij (-1)^(i+j)·det(A_ij)·b_ij, for every
    # size and sign pattern; the minors A_ij go through field elimination
    fp = Fp(10007)
    ring = DualFp(fp.p)
    rng = Rng(83)
    for n in range(1, 8):
        a = [[rng.field(fp.p) for _ in range(n)] for _ in range(n)]
        b = [[rng.field(fp.p) for _ in range(n)] for _ in range(n)]
        slope = sum((-1) ** (i + j) * det_ring(_minor(a, i, j), fp) * b[i][j]
                    for i in range(n) for j in range(n)) % fp.p
        mat = [[(u, s) for u, s in zip(ra, rb)] for ra, rb in zip(a, b)]
        assert det_ring(mat, ring) == (det_ring(a, fp), slope)
        ring2 = Dual2Fp(fp.p, 1)
        packed = [[ring2.encode(x, [0], [0]) for x in row] for row in mat]
        assert ring2.decode(det_ring(packed, ring2)) == \
            ((det_ring(a, fp), slope), [0], [0])


def test_det_matches_cofactor_expansion():
    fp = Fp(10007)
    rng = Rng(31)

    def naive_det(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0] % fp.p
        acc = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            term = mat[0][j] * naive_det(minor)
            acc += term if j % 2 == 0 else -term
        return acc % fp.p

    for n in (2, 3, 4):
        prog = PolyProgram.det(n * n, _generic_grid(n))
        for _ in range(10):
            v = [rng.field(fp.p) for _ in range(n * n)]
            mat = [[v[i * n + j] for j in range(n)] for i in range(n)]
            assert prog.eval(v, fp) == naive_det(mat)


# --- gradients ---------------------------------------------------------------


def test_grad_det_small():
    prog = sym2x2_det()
    # gradient is (x2, -2*x1, x0)
    assert prog.grad([1, 0, 1], F7) == [1, 0, 1]
    assert prog.grad([2, 3, 5], F7) == [5, (-6) % 7, 2]


def test_grad_power():
    prog = SparsePoly(1, {(3,): 1}).compile()
    assert prog.grad([2], F7) == [(3 * 4) % 7]


def test_grad_euler_identity():
    fp = Fp(1000003)
    rng = Rng(47)
    prog = sym2x2_det()
    for _ in range(30):
        x = [rng.field(fp.p) for _ in range(3)]
        g = prog.grad(x, fp)
        lhs = 0
        for xi, gi in zip(x, g):
            lhs = (lhs + xi * gi) % fp.p
        assert lhs == fp.mul(fp.lift(prog.degree), prog.eval(x, fp))


def test_grad_matches_forward_dual_on_random_programs():
    fp = Fp(1000003)
    rng = Rng(59)
    for _ in range(50):
        nv = 2 + rng.below(4)
        terms = {}
        for _ in range(1 + rng.below(5)):
            e = tuple(rng.below(3) for _ in range(nv))
            terms[e] = 1 + rng.below(fp.p - 1)
        poly = SparsePoly(nv, terms)
        prog = poly.compile()
        x = [rng.field(fp.p) for _ in range(nv)]
        assert prog.grad(x, fp) == _grad_forward(prog, x, fp)


@pytest.mark.parametrize("p", [101, (1 << 62) - 57])
def test_sum_programs_over_fp_match_the_generic_ring_loop(p):
    # over F_p a sum's value and gradient are plain integer products,
    # reduced once; the ring loop over the same field, reached through a
    # ring that is not an Fp, is the reference.  The draws include
    # negative coefficients, constant terms and powers, and the zero
    # program is one of the programs
    fp = Fp(p)
    ring = SimpleNamespace(p=p, zero=0, one=1, lift=fp.lift, add=fp.add,
                           mul=fp.mul)
    rng = Rng(p)
    progs = [SparsePoly(3, terms).compile()
             for terms in ({}, {(0, 0, 0): -5, (3, 0, 1): -1})]
    for _ in range(40):
        nv = 1 + rng.below(4)
        terms = {tuple(rng.below(4) for _ in range(nv)):
                 rng.below(2 * p) - p for _ in range(1 + rng.below(6))}
        terms[(0,) * nv] = rng.below(3) - 1
        progs.append(SparsePoly(nv, terms).compile())
    for prog in progs:
        for _ in range(3):
            x = [p - 1] + [rng.field(p) for _ in range(prog.arity - 1)]
            assert prog.eval(x, fp) == prog.eval(x, ring)
            assert prog.grad(x, fp) == prog.grad(x, ring)
    x = [rng.field(p) for _ in range(3)]
    assert progs[0].eval(x, fp) == 0 and progs[0].grad(x, fp) == [0] * 3


def test_grad_matches_forward_dual_on_det_pf():
    fp = Fp(1000003)
    rng = Rng(61)
    n = 4
    prog = PolyProgram.det(n * n, _generic_grid(n))
    for _ in range(5):
        x = [rng.field(fp.p) for _ in range(n * n)]
        assert prog.grad(x, fp) == _grad_forward(prog, x, fp)
    m = 15
    prog = PolyProgram.pf(m, _skew_upper(6))
    for _ in range(5):
        x = [rng.field(fp.p) for _ in range(m)]
        assert prog.grad(x, fp) == _grad_forward(prog, x, fp)


def test_grad_works_over_dual_ring():
    ring = DualFp(10007)
    prog = sym2x2_det()
    rng = Rng(67)
    for _ in range(10):
        x = [(rng.field(ring.p), rng.field(ring.p)) for _ in range(3)]
        g = prog.grad(x, ring)
        # unit parts must equal the plain gradient of the unit point
        fp = Fp(ring.p)
        gu = prog.grad([u for u, _ in x], fp)
        assert [u for u, _ in g] == gu


def _products(packed, ring, count):
    """The per-vector lists [H(x)·v for v in vs] of ``hess_vec``'s packed
    gradient over Dual2Fp(p, count): over F_p the unit part of each
    slope, over F_p[d] the slope itself."""
    ring2 = Dual2Fp(ring.p, count)
    slopes = [ring2.decode(g)[1:] for g in packed]
    if isinstance(ring, Fp):
        assert all(not any(ts) for _, ts in slopes)
        return [[cs[j] for cs, _ in slopes] for j in range(count)]
    return [[(cs[j], ts[j]) for cs, ts in slopes] for j in range(count)]


def test_hess_vec():
    prog = sym2x2_det()
    # Hessian of x0*x2 - x1^2 is constant [[0,0,1],[0,-2,0],[1,0,0]]
    hv = _products(prog.hess_vec([3, 1, 4], [[1, 1, 1]], F7), F7, 1)[0]
    assert hv == [1, (-2) % 7, 1]


@pytest.mark.parametrize("rank_bound", [4, 6])
def test_hess_vec_over_dual_ring_matches_embedded_gradient(rank_bound):
    # hess_vec at a point over F_p[d], of a vector over F_p: the gradient
    # over F_p[d, e] at x + e·v, built here the long way (lift, scale by
    # e, add) and sliced to its e-slope.  A 6×6 sub-Pfaffian is cubic,
    # where H(x)·v = H(v)·x; the 8×8 one is quartic and tells x and v
    # apart.
    gen = rank_locus_spec(MatrixShape.skew(8), rank_bound).generators[0]
    p = (1 << 61) - 1
    ring, dring = DualFp(p), Dual2Fp(p, 1)
    rng = Rng(79)
    for _ in range(3):
        x = [_random_element(ring, rng) for _ in range(gen.arity)]
        v = [rng.field(p) for _ in range(gen.arity)]
        pt = [dring.add(_dual_embed(ring, xi), dring.mul(
            _dual_eps(ring), _dual_embed(ring, ring.lift(vi))))
              for xi, vi in zip(x, v)]
        want = [_dual_slope(ring, gi) for gi in gen.grad(pt, dring)]
        got = _products(gen.hess_vec(x, [v], ring), ring, 1)[0]
        assert got == want
        # unit parts: the Hessian at the unit point, over F_p
        fp = Fp(p)
        assert [u for u, _ in got] == _products(gen.hess_vec(
            [u for u, _ in x], [v], fp), fp, 1)[0]


def test_hess_vec_linear_is_zero():
    prog = SparsePoly(2, {(1, 0): 1, (0, 1): 3}).compile()
    assert _products(prog.hess_vec([1, 2], [[3, 4]], F7), F7, 1)[0] == \
        [0, 0]


def _hess_vec_oracle(prog, x, v, ring):
    """H(x)·v for one vector v over F_p: the e-slope of the gradient at
    x + e·v.  Over F_p that is one sweep over F_p[e]; over F_p[d] one
    over F_p[d, e], with the point built the long way (lift, scale by e,
    add)."""
    if isinstance(ring, Fp):
        return [gi[1] for gi in prog.grad(list(zip(x, v)), DualFp(ring.p))]
    dring = Dual2Fp(ring.p, 1)
    pt = [dring.add(_dual_embed(ring, xi), dring.mul(
        _dual_eps(ring), _dual_embed(ring, ring.lift(vi))))
          for xi, vi in zip(x, v)]
    return [_dual_slope(ring, gi) for gi in prog.grad(pt, dring)]


def _pow_mul_program():
    """A compiled sparse quartic whose powers are repeated indices of
    its terms."""
    poly = SparsePoly(3, {(3, 1, 0): 2, (0, 2, 2): 5, (1, 1, 2): 7,
                          (0, 0, 4): 1, (2, 0, 2): 3})
    return poly.compile()


_HESS_PROGRAMS = [
    ("pfaffian-skew8", rank_locus_spec(MatrixShape.skew(8), 6).generators[0]),
    ("det-generic3x4",
     rank_locus_spec(MatrixShape.generic(3, 4), 2).generators[0]),
    ("sparse-pow-mul", _pow_mul_program()),
]


@pytest.mark.parametrize("prog,ring", [
    pytest.param(prog, cls((1 << 61) - 1), id=name + suffix)
    for name, prog in _HESS_PROGRAMS
    for cls, suffix in ((DualFp, ""), (Fp, "-Fp"))])
def test_batched_hess_vec_matches_per_vector_oracle(prog, ring):
    rng = Rng(83)
    for count in (1, prog.arity):
        x = [_random_element(ring, rng) for _ in range(prog.arity)]
        vs = [[rng.field(ring.p) for _ in range(prog.arity)]
              for _ in range(count)]
        got = _products(prog.hess_vec(x, vs, ring), ring, count)
        assert got == [_hess_vec_oracle(prog, x, v, ring) for v in vs]


def test_hess_vec_of_a_degree_nine_product_at_a_word_size_prime():
    # the gradient's prefix products run through nine factors, so the
    # packed slopes leave their slot range and are reduced on the way;
    # every product still matches the one-vector oracle, over F_p and
    # over F_p[d], with up to 16 vectors in one sweep
    p = (1 << 64) - 59
    poly = SparsePoly(3, {(4, 2, 3): 5, (9, 0, 0): 1, (0, 3, 6): p - 7,
                          (1, 1, 1): 2})
    prog = poly.compile()
    assert prog.degree == 9
    rng = Rng(101)
    real, reductions = Dual2Fp._reduced, []

    def counted(ring, a):
        reductions.append(a[4] >= ring.p)
        return real(ring, a)

    for ring in (Fp(p), DualFp(p)):
        for count in (1, 5, 16):
            x = [_random_element(ring, rng) for _ in range(3)]
            vs = [[rng.field(p) for _ in range(3)]
                  for _ in range(count)]
            with patch.object(Dual2Fp, "_reduced", counted):
                got = _products(prog.hess_vec(x, vs, ring), ring, count)
            assert got == [_hess_vec_oracle(prog, x, v, ring) for v in vs]
    assert any(reductions)


def _hess_vec_every_coordinate(prog, x, vs, ring):
    """``hess_vec`` with every coordinate encoded, read or not."""
    ring2 = Dual2Fp(ring.p, len(vs))
    lift = (lambda a: (a, 0)) if isinstance(ring, Fp) else tuple
    return prog.grad([ring2.encode(lift(xi), [v[i] for v in vs])
                      for i, xi in enumerate(x)], ring2)


_PARTIAL_READERS = [
    ("det-minor-of-generic3x4",
     rank_locus_spec(MatrixShape.generic(3, 4), 2).generators[0]),
    ("pf-sub-of-skew8",
     rank_locus_spec(MatrixShape.skew(8), 4).generators[0]),
    # x1, x2 and x4 appear in no term
    ("sum-skipping-coordinates",
     SparsePoly(6, {(2, 0, 0, 1, 0, 0): 3, (0, 0, 0, 0, 0, 3): 5,
                    (1, 0, 0, 0, 0, 1): 7}).compile()),
    ("sum-with-constant",
     SparsePoly(5, {(0,) * 5: 11, (0, 2, 0, 0, 1): 2,
                    (1, 0, 0, 0, 0): 4}).compile()),
]


@pytest.mark.parametrize("prog", [pytest.param(prog, id=name)
                                  for name, prog in _PARTIAL_READERS])
def test_hess_vec_encoding_read_coordinates_matches_every_coordinate(prog):
    # the coordinates no term or grid entry reads stay ``zero``: the
    # packed gradient is the very one of encoding all of them, and only
    # the read ones are encoded
    rows = ([idx for _, idx in prog.body] if prog.kind == "sum"
            else prog.body)
    read = {i for row in rows for i in row}
    assert len(read) < prog.arity
    p = (1 << 61) - 1
    rng = Rng(107)
    real, encoded = Dual2Fp.encode, []

    def counted(ring2, *args):
        encoded.append(1)
        return real(ring2, *args)

    for ring in (Fp(p), DualFp(p)):
        for count in (1, 4):
            x = [_random_element(ring, rng) for _ in range(prog.arity)]
            vs = [[rng.field(p) for _ in range(prog.arity)]
                  for _ in range(count)]
            encoded.clear()
            with patch.object(Dual2Fp, "encode", counted):
                got = prog.hess_vec(x, vs, ring)
            assert len(encoded) == len(read)
            assert got == _hess_vec_every_coordinate(prog, x, vs, ring)


def _expanded_det(nv, grid):
    """det of the grid of coordinates, expanded over permutations
    (Leibniz)."""
    out = SparsePoly(nv, {})
    for perm in permutations(range(len(grid))):
        term = SparsePoly(nv, {(0,) * nv: -1 if _parity(perm) else 1})
        for row, j in zip(grid, perm):
            term = term * SparsePoly.var(nv, row[j])
        out = out + term
    return out


def _expanded_pf(nv, upper):
    """Pf of the skew matrix with this upper triangle of coordinates,
    expanded over perfect matchings."""
    out = SparsePoly(nv, {})
    for match in _matchings(list(range(len(upper) + 1))):
        sign = _parity([v for pair in match for v in pair])
        term = SparsePoly(nv, {(0,) * nv: -1 if sign else 1})
        for i, j in match:
            term = term * SparsePoly.var(nv, upper[i][j - i - 1])
        out = out + term
    return out


def _sym_grid(n):
    shape = MatrixShape.symmetric(n)
    return [[var_index(shape, i, j) for j in range(n)] for i in range(n)]


_SHAPES = {
    "det-generic3": (9, "det", _generic_grid(3)),
    "det-generic4": (16, "det", _generic_grid(4)),
    "det-symmetric3": (6, "det", _sym_grid(3)),
    "pf-6": (15, "pf", _skew_upper(6)),
}


@pytest.mark.parametrize("name", list(_SHAPES))
def test_det_and_pf_programs_match_their_expanded_sums(name):
    # the same polynomial as a det or pf program and as the sum that
    # compile() gives of its expansion: equal values, gradients and
    # Hessian products over F_p, F_p[e] and F_p[d][e_1, e_2], about a
    # quarter of the coordinates zero; the symmetric grid repeats
    # coordinates, so its gradient adds two cofactors per entry
    nv, kind, body = _SHAPES[name]
    prog = getattr(PolyProgram, kind)(nv, body)
    expand = _expanded_det if kind == "det" else _expanded_pf
    flat = expand(nv, body).compile()
    assert (prog.kind, flat.kind, prog.degree) == (kind, "sum", flat.degree)
    p = (1 << 61) - 1
    rng = Rng(103)
    for ring in (Fp(p), DualFp(p), Dual2Fp(p, 2)):
        for _ in range(3):
            x = list(_sparse_entries(range(nv), ring, rng).values())
            assert _value(ring, prog.eval(x, ring)) == \
                _value(ring, flat.eval(x, ring))
            assert _values(ring, prog.grad(x, ring)) == \
                _values(ring, flat.grad(x, ring))
    # Hessian products at points over F_p and over F_p[d]
    for ring in (Fp(p), DualFp(p)):
        for count in (1, 3):
            x = list(_sparse_entries(range(nv), ring, rng).values())
            vs = [[rng.field(p) for _ in range(nv)] for _ in range(count)]
            assert _products(prog.hess_vec(x, vs, ring), ring, count) == \
                _products(flat.hess_vec(x, vs, ring), ring, count)


# --- line restriction --------------------------------------------------------


def quadric_prog():
    """x0·x2 − x1² on 3 variables."""
    return SparsePoly(3, {(1, 0, 1): 1, (0, 2, 0): -1}).compile()


def test_restrict_to_line():
    f = quadric_prog()
    assert restrict_to_line(f, [1, 0, 0], [0, 0, 1], F101) == [0, 1]
    assert restrict_to_line(f, [0, 1, 0], [1, 0, 1], F101) == [100, 0, 1]
    sq = SparsePoly(3, {(0, 2, 0): 1}).compile()
    assert restrict_to_line(sq, [1, 0, 0], [0, 0, 1], F101) == []


def test_on_line_interpolates_and_checks_the_surplus_value():
    f = quadric_prog()
    a, d = [1, 2, 3], [4, 5, 6]
    poly = on_line(f.eval, 2, a, d, F101)
    for s in range(20):
        x = [(u + s * v) % 101 for u, v in zip(a, d)]
        assert up_eval(poly, s, F101) == f.eval(x, F101)
    assert on_line(lambda t, fp: 0, 3, a, d, F101) == []
    # (1 + s)^3 read as a quadric: the fourth value is off the parabola
    cube = SparsePoly(3, {(3, 0, 0): 1}).compile()
    with pytest.raises(ValueError, match="surplus"):
        on_line(cube.eval, 2, [1, 0, 0], [1, 0, 0], F101)
    # deg + 2 distinct abscissae need p > deg + 1
    with pytest.raises(CharTooSmall):
        on_line(f.eval, 2, a, d, Fp(3))
    assert on_line(f.eval, 2, a, d, Fp(5)) == \
        restrict_to_line(f, a, d, Fp(5))


def test_line_zeros_yields_sorted_zeros_from_at_most_attempts_lines():
    f = quadric_prog()
    lines = []

    def restrict(a, d):
        lines.append((a, d))
        return restrict_to_line(f, a, d, F101)

    found = 0
    for pts in line_zeros(restrict, 3, F101, Rng(5)):
        a, d = lines[-1]
        i = next(i for i, v in enumerate(d) if v)
        ss = [(x[i] - a[i]) * F101.inv(d[i]) % 101 for x in pts]
        assert ss == sorted(ss)
        assert pts == [[(u + s * v) % 101 for u, v in zip(a, d)] for s in ss]
        assert all(f.eval(x, F101) == 0 for x in pts)
        poly = restrict_to_line(f, a, d, F101)
        assert len(ss) == sum(up_eval(poly, s, F101) == 0 for s in range(101))
        found += 1
    assert LINE_ATTEMPTS == 32
    assert len(lines) == LINE_ATTEMPTS and found >= 1
    drawn = []  # t^2 + 1 has no root in F_7: every line is drawn
    assert list(line_zeros(lambda a, d: drawn.append(a) or [1, 0, 1],
                           3, F7, Rng(6))) == []
    assert len(drawn) == LINE_ATTEMPTS


# --- univariate helpers ------------------------------------------------------


def test_squarefree_profile_mixed():
    # (t-1)^2 (t+2) over F_101: coefficients ascending
    f = [2, 98, 0, 1]
    assert squarefree_profile(f, F101) == [(1, 1), (2, 1)]


def test_squarefree_profile_cube_of_irreducible():
    # (t^2+1)^3 over F_7; -1 is not a square mod 7
    sq = [1, 0, 1]
    f = up_mul(up_mul(sq, sq, F7), sq, F7)
    assert squarefree_profile(f, F7) == [(3, 2)]


def test_squarefree_profile_squarefree():
    f = [0, 2, 98 % 101, 1]  # t(t-1)(t-2) = t^3 - 3t^2 + 2t
    assert squarefree_profile(f, F101) == [(1, 3)]


def test_squarefree_char_too_small():
    with pytest.raises(CharTooSmall):
        squarefree_profile([1, 1, 1, 1, 1, 1, 1], Fp(5))


def test_squarefree_reconstruction_randomized():
    fp = Fp(1000003)
    rng = Rng(73)
    for _ in range(100):
        # product of distinct random monic linear factors with multiplicities
        roots = set()
        while len(roots) < 1 + rng.below(4):
            roots.add(rng.field(fp.p))
        f = [1]
        want = {}
        for root in roots:
            m = 1 + rng.below(3)
            want[m] = want.get(m, 0) + 1
            for _ in range(m):
                f = up_mul(f, [fp.neg(root), 1], fp)
        prof = squarefree_profile(f, fp)
        assert prof == sorted(want.items())
        assert sum(m * d for m, d in prof) == up_deg(f)


def test_up_roots():
    f = up_mul([98, 1], [96, 1], F101)  # (t-3)(t-5)
    assert sorted(up_roots(f, F101, Rng(1))) == [3, 5]
    assert up_roots([1, 0, 1], F7, Rng(2)) == []  # irreducible over F_7
    g = up_mul(up_mul([94, 1], [96, 1], F101), [90, 1], F101)
    assert sorted(up_roots(g, F101, Rng(3))) == [5, 7, 11]


def test_up_roots_in_characteristic_two_raises():
    # Over F_2 the probe (x + a)^0 is 1 and never splits t(t + 1).
    with pytest.raises(CharTooSmall):
        up_roots([0, 1, 1], Fp(2), Rng(1))


WORD_PRIME = (1 << 64) - 59  # the largest prime the CLI accepts


@pytest.mark.parametrize("seed", [11, 12])
def test_up_roots_planted_over_a_word_size_prime(seed):
    fp, rng = Fp(WORD_PRIME), Rng(seed)
    p = fp.p
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    quad = [p - c, 0, 1]  # t^2 - c, irreducible: c is a non-residue
    for deg in range(1, 17):
        planted = set()
        while len(planted) < deg:
            planted.add(rng.field(p))
        f = [1]
        for root in planted:
            f = up_mul(f, [fp.neg(root), 1], fp)
        assert sorted(up_roots(f, fp, rng)) == sorted(planted)
        assert sorted(up_roots(up_mul(f, quad, fp), fp, rng)) == sorted(planted)


def _pow_mod_reference(base, e, mod, fp):
    """base^e mod ``mod`` by square and multiply on coefficient lists."""
    acc = [1]
    b = up_divmod(base, mod, fp)[1]
    while e:
        if e & 1:
            acc = up_divmod(up_mul(acc, b, fp), mod, fp)[1]
        b = up_divmod(up_mul(b, b, fp), mod, fp)[1]
        e >>= 1
    return acc


@pytest.mark.parametrize("p", [7, 101, *derive_primes(1729, 2), WORD_PRIME])
def test_up_pow_mod_matches_square_and_multiply(p):
    # The base is x + a: a = 0 is the Frobenius x^p, a = p - 1 puts the
    # largest residue in every multiply step.
    fp, rng = Fp(p), Rng(p)
    for n in range(1, 17):
        monic = [rng.field(p) for _ in range(n)] + [1]
        lead = 2 + rng.below(p - 2)
        for mod in (monic, [v * lead % p for v in monic]):
            for a in (0, 1, p - 1, rng.field(p)):
                for e in (0, 1, 2, 3, p, (p - 1) // 2, rng.u64()):
                    assert (up_pow_mod(a, e, mod, fp)
                            == _pow_mod_reference([a, 1], e, mod, fp))
    assert up_pow_mod(3, 5, [2], fp) == []  # everything is 0 mod a unit


# The largest primes below 2^64 in each class mod 8: a square root is one
# power for 3 and 7, and Tonelli–Shanks with 2-adic valuation 2 (class 5)
# or 5 (class 1, 2^64 - 95).
WORD_PRIMES_MOD_8 = {1: (1 << 64) - 95, 3: (1 << 64) - 189,
                     5: (1 << 64) - 59, 7: (1 << 64) - 257}


def test_word_primes_are_primes_in_their_classes():
    for cls, p in WORD_PRIMES_MOD_8.items():
        assert is_probable_prime(p) and p % 8 == cls


def _roots_by_probes(f, fp, rng):
    """The root finder with polynomial probes all the way down: g =
    gcd(x^p - x, f), then Cantor–Zassenhaus splits until degree 1.  Its
    powers come from the schoolbook reference, which gives the same
    polynomials as the packed power it used."""
    if fp.p == 2:
        raise CharTooSmall("characteristic 2: root splitting needs an odd p")
    f = up_monic(up_trim([v % fp.p for v in f]), fp)
    if up_deg(f) <= 0:
        return []
    x = [0, 1]
    xp = _pow_mod_reference(x, fp.p, f, fp)
    g = up_gcd(up_sub(xp, x, fp), f, fp)
    roots = []
    stack = [g]
    half = (fp.p - 1) // 2
    while stack:
        h = stack.pop()
        d = up_deg(h)
        if d <= 0:
            continue
        if d == 1:
            roots.append(fp.neg(h[0]))
            continue
        while True:
            a = rng.field(fp.p)
            probe = _pow_mod_reference([a, 1], half, h, fp)
            s = up_gcd(up_sub(probe, [1], fp), h, fp)
            if 0 < up_deg(s) < d:
                stack.append(s)
                stack.append(up_divmod(h, s, fp)[0])
                break
    return roots


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 97, 101, 257,
                               *WORD_PRIMES_MOD_8.values()])
def test_up_roots_replays_the_polynomial_probes(p):
    # Closed forms at degree <= 2 must return the same list and leave the
    # shared Rng in the same state as probing down to degree 1.
    fp, src = Fp(p), Rng(p)
    cases = [[], [0, 0], [src.field(p) or 1]]
    for deg in range(1, 7):
        for _ in range(6):
            cases.append([src.field(p) for _ in range(deg)]
                         + [src.field(p) or 1])
            for repeats in (False, True):
                f = [src.field(p) or 1]
                while up_deg(f) < deg:
                    root = src.field(p)
                    double = repeats and up_deg(f) + 2 <= deg and src.below(2)
                    for _ in range(1 + double):
                        f = up_mul(f, [fp.neg(root), 1], fp)
                cases.append(f)
    # unreduced and untrimmed coefficients, a double root, an irreducible
    cases += [[p - 1 + p, -1, 1, 0, 0], [1, -2, 1], [1, 0, 1], [-3, 0, 1]]
    for f in cases:
        seed = src.u64()
        want_rng, got_rng = Rng(seed), Rng(seed)
        assert up_roots(f, fp, got_rng) == _roots_by_probes(f, fp, want_rng)
        assert got_rng._state == want_rng._state


@pytest.mark.parametrize("p", [17, 97, 193, 257, 7681, 7, 13])
def test_sqrt_mod_on_every_nonzero_square(p):
    squares = {x * x % p for x in range(1, p)}
    for a in squares:
        r = _sqrt_mod(a, p)
        assert 0 <= r < p and r * r % p == a
    # Tonelli–Shanks stops on a non-square or 0 (for p ≡ 3 mod 4 the one
    # power returns some residue, and the caller has checked its input).
    for a in set(range(p)) - squares if p % 4 == 1 else ():
        with pytest.raises(ValueError):
            _sqrt_mod(a, p)


@pytest.mark.parametrize("p", WORD_PRIMES_MOD_8.values())
def test_sqrt_mod_over_word_size_primes(p):
    rng = Rng(p)
    for _ in range(200):
        a = pow(1 + rng.below(p - 1), 2, p)
        r = _sqrt_mod(a, p)
        assert 0 <= r < p and r * r % p == a


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 97, 101, 193, 257, 7681,
                               4294967311, *WORD_PRIMES_MOD_8.values()])
def test_jacobi_symbol_is_eulers_criterion(p):
    rng = Rng(p)
    values = (range(-p, 2 * p) if p < 300
              else [0, 1, 2, p - 1, p, 2 * p + 3, -5]
              + [rng.field(p) for _ in range(300)])
    for a in values:
        euler = pow(a, (p - 1) // 2, p)
        assert _jacobi(a, p) == (-1 if euler == p - 1 else euler)


@pytest.mark.parametrize("p", [4294967311, (1 << 64) - 59])
def test_small_det_closed_form_matches_the_sweep(p):
    fp, rng = Fp(p), Rng(p)
    for n in (1, 2, 3):
        for trial in range(60):
            mat = [[rng.field(p) for _ in range(n)] for _ in range(n)]
            if trial % 3 == 1:  # a row that is a combination of the others
                c = [rng.field(p) for _ in range(n)]
                i = rng.below(n)
                mat[i] = [sum(c[k] * mat[k][j] for k in range(n) if k != i)
                          % p for j in range(n)]
            elif trial % 3 == 2:  # unreduced entries, some negative
                mat = [[v - p * rng.below(3) for v in row] for row in mat]
            _, pivots, det = _fp_sweep(mat, p, False, False)
            assert det_ring(mat, fp) == (det if len(pivots) == n else 0)
        assert det_ring([[0] * n for _ in range(n)], fp) == 0


def test_up_gcd_monic():
    f = up_mul([1, 1], [2, 1], F7)
    g = up_mul([1, 1], [3, 1], F7)
    assert up_gcd(f, g, F7) == [1, 1]


# --- sparse polynomials ------------------------------------------------------


def test_sparse_poly_eval_and_partial():
    q = SparsePoly(2, {(2, 0): 1, (0, 1): 3})  # x0^2 + 3*x1
    prog = q.compile()
    assert prog.eval([2, 5], F101) == (4 + 15) % 101
    assert prog.grad([2, 5], F101) == [4, 3]
    assert q.degree() == prog.degree == 2
    # x0^3·x1^2 over F_p[e]: one term with repeated indices
    cube = SparsePoly(2, {(3, 2): 5}).compile()
    ring = DualFp(101)
    val, slope = cube.eval([ring.make(2, 1), ring.make(3, 0)], ring)
    assert (val, slope) == (5 * 8 * 9 % 101, 5 * 3 * 4 * 9 % 101)
    assert cube.grad([2, 3], F101) == [5 * 3 * 4 * 9 % 101, 5 * 8 * 2 * 3 % 101]
