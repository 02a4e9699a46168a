"""Straight-line polynomial programs, gradients, and univariate helpers."""

import pytest

from gaussfocal.fieldcore import DualFp, Fp, Rng
from gaussfocal.mpoly import (
    CharTooSmall,
    ProgramBuilder,
    SparsePoly,
    restrict_to_line,
    squarefree_profile,
    up_deg,
    up_gcd,
    up_mul,
    up_roots,
    _grad_forward,
)

F7 = Fp(7)
F101 = Fp(101)


def sym2x2_det():
    """det [[x0, x1], [x1, x2]] as a program on 3 variables."""
    b = ProgramBuilder(3)
    x0, x1, x2 = b.x(0), b.x(1), b.x(2)
    return b.build(b.det([[x0, x1], [x1, x2]]))


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
        lam = rng.nonzero(fp.p)
        lx = [fp.mul(lam, v) for v in x]
        assert prog.eval(lx, fp) == fp.mul(pow(lam, prog.degree, fp.p), prog.eval(x, fp))


def test_pfaffian_standard_symplectic():
    b = ProgramBuilder(1)
    one, zero = b.c(1), b.c(0)
    # upper triangle of [[0,1,0,0],[-1,0,0,0],[0,0,0,1],[0,0,-1,0]]
    prog = b.build(b.pf([[one, zero, zero], [zero, zero], [one]]))
    assert prog.eval([0], F7) == 1


def test_pfaffian_4x4_formula():
    # Pf of skew 4x4 with upper entries (a,b,c,d,e,g) is a*g - b*e + c*d
    b = ProgramBuilder(6)
    a, bb, c, d, e, g = (b.x(i) for i in range(6))
    prog = b.build(b.pf([[a, bb, c], [d, e], [g]]))
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
        m = n * (n - 1) // 2
        b = ProgramBuilder(m)
        upper = []
        k = 0
        for i in range(n):
            row = []
            for _ in range(i + 1, n):
                row.append(b.x(k))
                k += 1
            upper.append(row[: n - 1 - i])
        pf_prog = b.build(b.pf(upper))
        # full skew matrix for the determinant
        b2 = ProgramBuilder(m)
        grid = [[None] * n for _ in range(n)]
        k = 0
        for i in range(n):
            grid[i][i] = b2.c(0)
            for j in range(i + 1, n):
                grid[i][j] = b2.x(k)
                grid[j][i] = -b2.x(k)
                k += 1
        det_prog = b2.build(b2.det(grid))
        for _ in range(10):
            v = [rng.field(fp.p) for _ in range(m)]
            pf = pf_prog.eval(v, fp)
            assert fp.mul(pf, pf) == det_prog.eval(v, fp)


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
        b = ProgramBuilder(n * n)
        grid = [[b.x(i * n + j) for j in range(n)] for i in range(n)]
        prog = b.build(b.det(grid))
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
    b = ProgramBuilder(1)
    prog = b.build(b.x(0) ** 3)
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
            terms[e] = rng.nonzero(fp.p)
        poly = SparsePoly(nv, terms)
        prog = poly.compile()
        x = [rng.field(fp.p) for _ in range(nv)]
        assert prog.grad(x, fp) == _grad_forward(prog, x, fp)


def test_grad_matches_forward_dual_on_det_pf():
    fp = Fp(1000003)
    rng = Rng(61)
    n = 4
    b = ProgramBuilder(n * n)
    prog = b.build(b.det([[b.x(i * n + j) for j in range(n)] for i in range(n)]))
    for _ in range(5):
        x = [rng.field(fp.p) for _ in range(n * n)]
        assert prog.grad(x, fp) == _grad_forward(prog, x, fp)
    m = 15
    b = ProgramBuilder(m)
    upper, k = [], 0
    for i in range(6):
        row = [b.x(k + t) for t in range(6 - 1 - i)]
        k += 6 - 1 - i
        upper.append(row)
    prog = b.build(b.pf(upper))
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


def test_hess_vec():
    prog = sym2x2_det()
    # Hessian of x0*x2 - x1^2 is constant [[0,0,1],[0,-2,0],[1,0,0]]
    hv = prog.hess_vec([3, 1, 4], [1, 1, 1], F7)
    assert hv == [1, (-2) % 7, 1]


def test_hess_vec_linear_is_zero():
    b = ProgramBuilder(2)
    prog = b.build(b.x(0) + b.c(3) * b.x(1))
    assert prog.hess_vec([1, 2], [3, 4], F7) == [0, 0]


# --- line restriction --------------------------------------------------------


def quadric_prog():
    b = ProgramBuilder(3)
    return b.build(b.x(0) * b.x(2) - b.x(1) ** 2)


def test_restrict_to_line():
    f = quadric_prog()
    assert restrict_to_line(f, [1, 0, 0], [0, 0, 1], F101) == [0, 1]
    assert restrict_to_line(f, [0, 1, 0], [1, 0, 1], F101) == [100, 0, 1]
    b = ProgramBuilder(3)
    sq = b.build(b.x(1) ** 2)
    assert restrict_to_line(sq, [1, 0, 0], [0, 0, 1], F101) == []


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


def test_up_gcd_monic():
    f = up_mul([1, 1], [2, 1], F7)
    g = up_mul([1, 1], [3, 1], F7)
    assert up_gcd(f, g, F7) == [1, 1]


# --- sparse polynomials ------------------------------------------------------


def test_sparse_poly_eval_and_partial():
    q = SparsePoly(2, {(2, 0): 1, (0, 1): 3})  # x0^2 + 3*x1
    assert q.eval([2, 5], F101) == (4 + 15) % 101
    dq = q.partial(0)
    assert dq.eval([2, 5], F101) == 4
    assert q.partial(1).eval([2, 5], F101) == 3
    assert q.degree() == 2
