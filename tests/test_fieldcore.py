"""Arithmetic and exact linear algebra over F_p and its dual extension."""

from operator import mul
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfocal.fieldcore import (
    DegeneratePivot,
    DualFp,
    Dual2Fp,
    Fp,
    Infeasible,
    Rng,
    ZeroInverse,
    charpoly,
    derive_seed,
    dual_partials,
    is_probable_prime,
    kernel_basis,
    lagrange_interpolate,
    mat_rank,
    pack_row,
    random_combination,
    random_prime,
    rref,
    solve_affine,
    unpack_row,
)

from gaussfocal.mpoly import _pf_solver, det_ring, up_trim

F7 = Fp(7)
F101 = Fp(101)


def matvec(mat, v, ring):
    return [ring.dot(row, v) for row in mat]


def test_inverse_small_cases():
    assert F7.inv(2) == 4
    assert F7.inv(1) == 1
    assert F101.inv(10) == 91  # 10 * 91 = 910 = 9 * 101 + 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroInverse):
        F7.inv(0)


def test_inverse_law_randomized():
    fp = Fp(1000003)
    rng = Rng(0xF1E1D)
    for _ in range(1000):
        a = 1 + rng.below(fp.p - 1)
        assert fp.mul(a, fp.inv(a)) == 1


def test_field_ops_mod_p():
    assert F7.add(5, 4) == 2
    assert F7.mul(3, 5) == 1
    assert F7.neg(3) == 4
    assert F7.lift(-1) == 6


# --- matrices over F_p ----------------------------------------------------


def _rank_and_kernel(mat, ring):
    """Rank and a right-kernel basis from the forward sweep of ``rref``
    alone; rank + len(kernel) == #columns."""
    rows, pivots = rref(mat, ring, reduced=False)
    return len(pivots), kernel_basis(rows, pivots, len(mat[0]), ring)


def test_rank_and_kernel_rank_one():
    rank, ker = _rank_and_kernel([[1, 1], [2, 2]], F7)
    assert rank == 1
    assert len(ker) == 1
    # kernel must be the line spanned by (1, 6); basis vector may be scaled
    v = ker[0]
    assert matvec([[1, 1], [2, 2]], v, F7) == [0, 0]
    assert v[0] == F7.neg(v[1])


def test_rank_and_kernel_identity():
    rank, ker = _rank_and_kernel([[1, 0], [0, 1]], F7)
    assert rank == 2 and ker == []


def test_rank_zero_matrix():
    rank, ker = _rank_and_kernel([[0, 0], [0, 0]], F7)
    assert rank == 0
    assert len(ker) == 2


def test_kernel_vectors_always_annihilate():
    fp = Fp(10007)
    rng = Rng(99)
    for _ in range(50):
        n, m = 2 + rng.below(5), 2 + rng.below(5)
        mat = [[rng.field(fp.p) for _ in range(m)] for _ in range(n)]
        rank, ker = _rank_and_kernel(mat, fp)
        assert rank + len(ker) == m
        for v in ker:
            assert matvec(mat, v, fp) == [0] * n


def test_rank_invariant_under_row_shuffle():
    fp = Fp(10007)
    rng = Rng(12345)
    for _ in range(50):
        n = 2 + rng.below(6)
        mat = [[rng.field(fp.p) for _ in range(n)] for _ in range(n)]
        shuffled = list(mat)
        # Fisher-Yates with the deterministic stream
        for i in range(n - 1, 0, -1):
            j = rng.below(i + 1)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        assert mat_rank(mat, fp) == mat_rank(shuffled, fp)


def test_solve_affine_particular_and_kernel():
    # the solution is the particular one: zero on the free column 1, which
    # spans the kernel
    assert solve_affine([[1, 0], [0, 0]], [3, 0], F7) == [3, 0]
    assert solve_affine([[1, 2], [2, 4]], [3, 6], F7) == [3, 0]


def test_solve_affine_infeasible():
    with pytest.raises(Infeasible):
        solve_affine([[1, 0], [0, 0]], [0, 1], F7)


def test_solve_affine_random_consistency():
    fp = Fp(10007)
    rng = Rng(777)
    for _ in range(50):
        n, m = 2 + rng.below(4), 2 + rng.below(4)
        mat = [[rng.field(fp.p) for _ in range(m)] for _ in range(n)]
        x = [rng.field(fp.p) for _ in range(m)]
        b = matvec(mat, x, fp)
        assert matvec(mat, solve_affine(mat, b, fp), fp) == b


# --- elimination against the Gauss–Jordan oracle ------------------------------

# The oracles' scalar steps over F_p and F_p[ε], local to the tests so
# that no oracle shares code with the elimination it checks.


def _unit(ring, a):
    """Whether a is a unit of F_p or of F_p[ε]."""
    return (a[0] if isinstance(ring, DualFp) else a) != 0


def _inverse(ring, a):
    """a⁻¹ in F_p; in F_p[ε], (a0 + εa1)⁻¹ = a0⁻¹ − ε·a0⁻²·a1."""
    p = ring.p
    if isinstance(ring, DualFp):
        i = pow(a[0], -1, p)
        return (i, -i * i * a[1] % p)
    return pow(a, -1, p)


def _axpy(ring, a, x, y):
    """a·x + y, entry by entry."""
    return [ring.add(ring.mul(a, s), t) for s, t in zip(x, y)]


def _gauss_jordan(mat, ring):
    """Textbook Gauss–Jordan with unit pivots: every pivot clears its
    column in every other row, along the full row.  The oracle of
    ``rref``, which sweeps forward on trailing columns first."""
    rows = [list(r) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if _unit(ring, rows[i][c])),
                  None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = _inverse(ring, rows[r][c])
        rows[r] = [ring.mul(piv, v) for v in rows[r]]
        for i in range(nrows):
            if i != r and not ring.is_zero(rows[i][c]):
                rows[i] = _axpy(ring, ring.neg(rows[i][c]), rows[r], rows[i])
        pivots.append(c)
        r += 1
    for i in range(r, nrows):
        if any(not ring.is_zero(v) for v in rows[i]):
            raise DegeneratePivot("nonzero residual row without unit pivot")
    return rows[:r], pivots


def _kernel_from_rref(rows, pivots, ncols, ring):
    """The canonical kernel read off a reduced echelon form: v[f] = 1 and
    v[pc] = −row[f].  The oracle of ``kernel_basis``."""
    kernel = []
    for f in range(ncols):
        if f not in pivots:
            v = [ring.zero] * ncols
            v[f] = ring.one
            for row, pc in zip(rows, pivots):
                v[pc] = ring.neg(row[f])
            kernel.append(v)
    return kernel


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (DegeneratePivot, Infeasible) as err:
        return type(err)


@st.composite
def _matrices(draw, p):
    """Tall, wide or square matrices over F_p, often of low rank, with
    zero columns and repeated rows mixed in."""
    n, m = draw(st.integers(1, 7), "rows"), draw(st.integers(1, 7), "cols")
    residue = st.one_of(st.sampled_from([0, 0, 1, p - 1]),
                        st.integers(0, p - 1))
    rank = draw(st.integers(0, min(n, m)), "rank")
    left = draw(st.lists(st.lists(residue, min_size=rank, max_size=rank),
                         min_size=n, max_size=n), "left")
    right = draw(st.lists(st.lists(residue, min_size=m, max_size=m),
                          min_size=rank, max_size=rank), "right")
    mat = [[sum(a * b for a, b in zip(row, col)) % p for col in
            zip(*right)] if rank else [0] * m for row in left]
    for c in draw(st.sets(st.integers(0, m - 1), max_size=2), "zero cols"):
        for row in mat:
            row[c] = 0
    if draw(st.booleans(), "repeat a row"):
        mat.insert(draw(st.integers(0, n), "at"),
                   list(mat[draw(st.integers(0, n - 1), "row")]))
    return mat


@pytest.mark.parametrize("p", [101, (1 << 61) - 1])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_elimination_matches_gauss_jordan(p, data):
    fp = Fp(p)
    mat = data.draw(_matrices(p), "mat")
    ncols = len(mat[0])
    rows, pivots = _gauss_jordan(mat, fp)
    assert rref(mat, fp) == (rows, pivots)
    assert mat_rank(mat, fp) == len(pivots)
    kernel = _kernel_from_rref(rows, pivots, ncols, fp)
    assert kernel_basis(rows, pivots, ncols, fp) == kernel
    assert _rank_and_kernel(mat, fp) == (len(pivots), kernel)
    b = data.draw(st.lists(st.integers(0, p - 1), min_size=len(mat),
                           max_size=len(mat)), "b")
    want = _outcome(solve_affine, mat, b, fp)
    with patch("gaussfocal.fieldcore.rref", _gauss_jordan):
        assert _outcome(solve_affine, mat, b, fp) == want


@st.composite
def _dual_matrices(draw, p):
    """Matrices over F_p[ε] as rows of (unit, slope) pairs, with unit
    parts from ``_matrices``, and three shapes mixed in:

    - ghost columns, with zero unit parts and nonzero slopes: a pivot row
      then carries (0, s) left of its pivot, and its row updates must
      start there.  Under the slopes S·U + U·T of (I + εS)·U·(I + εT),
      which has the rank of U, a ghost column's slopes are U·T's and
      every residual row cancels;
    - zero rows;
    - residual rows that repeat another row's unit part: (a + εb) times
      that row cancels, while fresh slopes leave a nonzero row that
      raises ``DegeneratePivot``.
    """
    units = draw(_matrices(p), "units")
    n, m = len(units), len(units[0])
    slope = st.one_of(st.just(0), st.integers(0, p - 1))
    ghosts = draw(st.sets(st.integers(0, m - 1), max_size=2), "ghost cols")
    for row in units:
        for c in ghosts:
            row[c] = 0
    if draw(st.booleans(), "equivalent"):
        square = lambda k: st.lists(st.lists(st.integers(0, p - 1),
                                             min_size=k, max_size=k),
                                    min_size=k, max_size=k)
        s, t = draw(square(n), "S"), draw(square(m), "T")
        slopes = [[(sum(a * b for a, b in zip(srow, col)) +
                    sum(a * b for a, b in zip(urow, tcol))) % p
                   for col, tcol in zip(zip(*units), zip(*t))]
                  for srow, urow in zip(s, units)]
    else:
        slopes = [[draw(st.integers(1, p - 1), "ghost slope") if c in ghosts
                   else draw(slope, "slope") for c in range(m)]
                  for _ in range(n)]
    mat = [list(zip(*pair)) for pair in zip(units, slopes)]
    for _ in range(draw(st.integers(0, 2), "zero rows")):
        mat.insert(draw(st.integers(0, len(mat)), "at"), [(0, 0)] * m)
    for _ in range(draw(st.integers(0, 2), "residual rows")):
        row = mat[draw(st.integers(0, len(mat) - 1), "of row")]
        if draw(st.booleans(), "cancels"):
            a = (draw(st.integers(1, p - 1), "a"), draw(slope, "b"))
            new = [DualFp(p).mul(a, v) for v in row]
        else:
            new = [(u, draw(slope, "fresh slope")) for u, _ in row]
        mat.insert(draw(st.integers(0, len(mat)), "at"), new)
    return mat


@pytest.mark.parametrize("p", [101, (1 << 61) - 1])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dual_elimination_matches_gauss_jordan(p, data):
    """Over F_p[ε] the echelon rows give the kernels of the Gauss–Jordan
    form, or ``DegeneratePivot`` on both sides; the pivots are the unit
    part's."""
    fp, ring = Fp(p), DualFp(p)
    mat = data.draw(_dual_matrices(p), "mat")
    units = [[u for u, _ in row] for row in mat]
    ncols = len(mat[0])
    want = _outcome(_gauss_jordan, mat, ring)
    echelon = _outcome(rref, mat, ring, reduced=False)
    if want is not DegeneratePivot:
        rows, pivots = want
        assert pivots == _gauss_jordan(units, fp)[1] == echelon[1]
        kernel = _kernel_from_rref(rows, pivots, ncols, ring)
        assert kernel_basis(*echelon, ncols, ring) == kernel
        assert kernel_basis(rows, pivots, ncols, ring) == kernel
        assert _outcome(_rank_and_kernel, mat, ring) == (len(pivots), kernel)
    else:
        assert echelon is DegeneratePivot
        assert _outcome(_rank_and_kernel, mat, ring) is DegeneratePivot


# --- the packed F_p sweep against the list path ---------------------------

SWEEP_PRIMES = [2, 3, 101, 4294967311, (1 << 61) - 1, (1 << 64) - 59]


def _list_rref(mat, ring, reduced=True):
    """The list-row elimination that the packed F_p sweep and the F_p[ε]
    pair elimination replaced, for any ring with unit pivots: a forward
    sweep on trailing columns, then back-substitution, last pivot first,
    each row update an axpy from the lead row's first nonzero entry on;
    ``DegeneratePivot`` on a nonzero row that no unit pivot clears."""
    rows = [list(r) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0

    def clear(c, lead, below):
        lo = next(j for j, v in enumerate(lead) if not ring.is_zero(v))
        for row in below:
            if not ring.is_zero(row[c]):
                row[lo:] = _axpy(ring, ring.neg(row[c]), lead[lo:], row[lo:])

    pivots, r = [], 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if _unit(ring, rows[i][c])),
                  None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = _inverse(ring, rows[r][c])
        rows[r] = [ring.mul(piv, v) for v in rows[r]]
        clear(c, rows[r], rows[r + 1:])
        pivots.append(c)
        r += 1
    if any(not ring.is_zero(v) for row in rows[r:] for v in row):
        raise DegeneratePivot("nonzero residual row without unit pivot")
    if reduced:
        for i in range(r - 1, 0, -1):
            clear(pivots[i], rows[i], rows[:i])
    return rows[:r], pivots


def _list_det(mat, fp):
    """The scalar F_p determinant that the packed sweep replaced."""
    p = fp.p
    a = [row[:] for row in mat]
    n = len(a)
    det = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] % p), None)
        if pr is None:
            return 0
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            det = -det
        piv = a[c][c]
        det = det * piv % p
        ipiv = pow(piv, -1, p)
        for i in range(c + 1, n):
            f = a[i][c] * ipiv % p
            if f:
                ri, rc = a[i], a[c]
                for j in range(c, n):
                    ri[j] = (ri[j] - f * rc[j]) % p
    return det % p


@st.composite
def _raw_matrices(draw, p):
    """Matrices up to 12×40, tall, wide or square, often of low rank and
    with zero rows, whose entries are residues shifted by multiples of p
    (so negative or ≥ p)."""
    n, m = draw(st.integers(1, 12), "rows"), draw(st.integers(1, 40), "cols")
    residue = st.one_of(st.sampled_from([0, 0, 1, p - 1]),
                        st.integers(0, p - 1))
    rank = draw(st.integers(0, min(n, m)), "rank")
    left = draw(st.lists(st.lists(residue, min_size=rank, max_size=rank),
                         min_size=n, max_size=n), "left")
    right = draw(st.lists(st.lists(residue, min_size=m, max_size=m),
                          min_size=rank, max_size=rank), "right")
    mat = [[sum(a * b for a, b in zip(row, col)) % p for col in
            zip(*right)] if rank else [0] * m for row in left]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2), "zero rows"):
        mat[i] = [0] * m
    shift = draw(st.lists(st.integers(-3, 3), min_size=n * m,
                          max_size=n * m), "multiples of p")
    return [[v + shift[i * m + j] * p for j, v in enumerate(row)]
            for i, row in enumerate(mat)]


@pytest.mark.parametrize("p", SWEEP_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_sweep_matches_the_list_path(p, data):
    """The rows and pivots of ``rref``, reduced or not, and the F_p
    determinant, sign included, are those of the list-row elimination."""
    fp = Fp(p)
    mat = data.draw(_raw_matrices(p), "mat")
    residues = [[v % p for v in row] for row in mat]
    for reduced in (True, False):
        assert rref(mat, fp, reduced) == _list_rref(residues, fp, reduced)
    n = min(len(mat), len(mat[0]))
    square = [row[:n] for row in mat[:n]]
    det = det_ring(square, fp)
    assert det == _list_det(square, fp)
    order = data.draw(st.permutations(range(n)), "row order")
    swaps = sum(order[i] > order[j] for i in range(n) for j in range(i + 1, n))
    assert det_ring([square[i] for i in order], fp) == \
        (-det if swaps % 2 else det) % p


def test_packed_sweep_at_its_widest_carry():
    """A dense, full-rank 40×40 matrix of p − 1 off the diagonal and
    p − 2 on it, −(J + I) at p = 2^64 − 59 (determinant (−1)^40·41): the
    widest slots, and rows that take an update at every pivot above
    them."""
    p, n = (1 << 64) - 59, 40
    fp = Fp(p)
    mat = [[p - 2 if i == j else p - 1 for j in range(n)] for i in range(n)]
    assert rref(mat, fp) == _list_rref(mat, fp)
    assert rref(mat, fp)[0] == [[int(i == j) for j in range(n)]
                                for i in range(n)]
    assert rref(mat, fp, reduced=False) == _list_rref(mat, fp, reduced=False)
    assert det_ring(mat, fp) == _list_det(mat, fp) == n + 1


@pytest.mark.parametrize("p", SWEEP_PRIMES)
def test_row_codec_round_trips_at_every_length(p):
    """pack_row and unpack_row are inverse up to reduction mod p, also on
    rows long enough to be split by halves, and unpack_row scales."""
    rng = Rng(0xC0DEC + p % 89)
    w = 2 * p.bit_length() + 3
    for n in (0, 1, 2, 31, 32, 33, 64, 65, 100, 1096):
        row = [rng.field(p) + (rng.below(7) - 3) * p for _ in range(n)]
        v = pack_row(row, p, w)
        assert v == sum((x % p) << (w * c) for c, x in enumerate(row))
        assert unpack_row(v, n, p, w) == [x % p for x in row]
        assert unpack_row(v, n, p, w, 5) == [5 * x % p for x in row]


def test_packed_sweep_of_empty_matrices():
    fp = Fp(101)
    assert rref([], fp) == ([], []) and det_ring([], fp) == 1
    assert rref([[], []], fp) == ([], [])
    assert rref([[0, 0], [0, 0]], fp) == ([], []) and mat_rank([[0]], fp) == 0


# --- the F_p[ε] pair elimination against the list path ------------------------


@pytest.mark.parametrize("p", [7, 101, (1 << 61) - 1])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dual_elimination_matches_the_list_path(p, data):
    """Over F_p[ε] ``rref`` gives the echelon rows and pivots of the
    list-row elimination, or ``DegeneratePivot`` on both sides."""
    ring = DualFp(p)
    mat = data.draw(_dual_matrices(p), "mat")
    assert _outcome(rref, mat, ring, reduced=False) == \
        _outcome(_list_rref, mat, ring, reduced=False)


def test_dual_elimination_refuses_the_reduced_form():
    """Over F_p[ε] ``rref`` makes the echelon form only: asked for the
    reduced one, it raises rather than return echelon rows."""
    ring = DualFp(101)
    mat = [[(1, 2), (3, 4)], [(5, 6), (7, 8)]]
    with pytest.raises(ValueError, match="reduced=False"):
        rref(mat, ring)
    with pytest.raises(ValueError, match="reduced=False"):
        rref(mat, ring, reduced=True)
    assert rref(mat, ring, reduced=False)[1] == [0, 1]


# --- dual numbers ----------------------------------------------------------


def test_dual_ring_laws_randomized():
    ring = DualFp(10007)
    rng = Rng(0xD0A1)
    rand = lambda: (rng.field(ring.p), rng.field(ring.p))
    for _ in range(1000):
        a, b, c = rand(), rand(), rand()
        lhs = ring.mul(a, ring.add(b, c))
        rhs = ring.add(ring.mul(a, b), ring.mul(a, c))
        assert lhs == rhs
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    # eps * eps = 0
    assert ring.mul((0, 1), (0, 1)) == ring.zero


def test_dual_pivot_scaling():
    """``rref`` scales the row [a + εb, 1] to [1, (a + εb)⁻¹], where
    (a + εb)⁻¹ = a⁻¹ − ε·a⁻²·b, and a row whose only nonzero entry (0, b)
    has no unit part raises ``DegeneratePivot``."""
    ring = DualFp(101)
    a = (3, 5)
    rows, pivots = rref([[a, ring.one]], ring, reduced=False)
    assert pivots == [0] and rows[0][0] == ring.one
    assert rows[0][1] == (34, -34 * 34 * 5 % 101)  # 3·34 = 102 = 1 mod 101
    assert ring.mul(a, rows[0][1]) == ring.one
    with pytest.raises(DegeneratePivot):
        rref([[(0, 4), ring.zero]], ring, reduced=False)


def test_dual_kernel_full_rank():
    ring = DualFp(101)
    mat = [[(1, 1), ring.zero], [ring.zero, ring.one]]  # (1, 1) = 1 + eps
    rank, ker = _rank_and_kernel(mat, ring)
    assert rank == 2 and ker == []


def test_dual_kernel_degenerate_pivot():
    ring = DualFp(101)
    with pytest.raises(DegeneratePivot):
        _rank_and_kernel([[(0, 1), ring.zero]], ring)


def test_dual_kernel_unit_lift():
    # row (1, 1+eps): kernel spanned by (-1-eps, 1); checked by direct product
    ring = DualFp(101)
    mat = [[ring.one, (1, 1)]]
    rank, ker = _rank_and_kernel(mat, ring)
    assert rank == 1 and len(ker) == 1
    v = ker[0]
    s = ring.add(ring.mul(mat[0][0], v[0]), ring.mul(mat[0][1], v[1]))
    assert s == ring.zero
    assert v[0] == (100, 100) and v[1] == ring.one


def _encode(ring, flat):
    """The Dual2Fp element of a flat residue tuple (a0, a1, c_1, t_1, …)."""
    return ring.encode(flat[:2], flat[2::2], flat[3::2])


def _decode(ring, a):
    """The flat residue tuple of a Dual2Fp element."""
    unit, cs, ts = ring.decode(a)
    return unit + tuple(v for pair in zip(cs, ts) for v in pair)


def test_dual2_matches_nested_dual():
    p = 10007
    flat = Dual2Fp(p, 1)
    inner = DualFp(p)

    def nested_mul(a, b):
        # (a0 + a1·e)(b0 + b1·e) with coefficients in F_p[d]
        return (inner.mul(a[0], b[0]),
                inner.add(inner.mul(a[0], b[1]), inner.mul(a[1], b[0])))

    rng = Rng(4242)
    unflat = lambda x: ((x[0], x[1]), (x[2], x[3]))
    for _ in range(300):
        a = tuple(rng.field(p) for _ in range(4))
        b = tuple(rng.field(p) for _ in range(4))
        got = _decode(flat, flat.mul(_encode(flat, a), _encode(flat, b)))
        want = nested_mul(unflat(a), unflat(b))
        assert unflat(got) == want


# --- ring vector kernels -----------------------------------------------------

KERNEL_RINGS = [ring for p in ((1 << 61) - 1, 101)
                for ring in (Fp(p), DualFp(p), Dual2Fp(p, 1), Dual2Fp(p, 3))]


def _ring_id(ring):
    m = getattr(ring, "m", 1)
    return f"{type(ring).__name__}-{ring.p}" + (f"-m{m}" if m != 1 else "")


def _ring_elements(ring):
    """Elements of ``ring``, with components drawn often from 0 and p − 1;
    a Dual2Fp element is drawn as its flat residue tuple and encoded."""
    p = ring.p
    residue = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    if isinstance(ring, Fp):
        return residue
    if isinstance(ring, DualFp):
        return st.tuples(residue, residue)
    return st.tuples(*[residue] * (2 + 2 * ring.m)).map(
        lambda flat: _encode(ring, flat))


def _value(ring, a):
    """A ring element in comparable form (``_decode`` for Dual2Fp, whose
    slopes stay unreduced)."""
    return _decode(ring, a) if isinstance(ring, Dual2Fp) else a


def _top(ring):
    """The element with every component p − 1."""
    if isinstance(ring, Fp):
        return ring.lift(-1)
    if isinstance(ring, DualFp):
        return (ring.p - 1,) * 2
    return _encode(ring, (ring.p - 1,) * (2 + 2 * ring.m))


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=_ring_id)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_kernels_match_elementwise_fold(ring, data):
    n = data.draw(st.integers(0, 8), label="n")
    vec = st.lists(_ring_elements(ring), min_size=n, max_size=n)
    u, v = data.draw(vec, "u"), data.draw(vec, "v")
    top = _top(ring)
    for x, y in ((u, v), ([top] * n, [top] * n)):
        acc = ring.zero
        for s, t in zip(x, y):
            acc = ring.add(acc, ring.mul(s, t))
        assert _value(ring, ring.dot(x, y)) == _value(ring, acc)


def _slope(x, j):
    """The image of the flat x under F_p[d][e_1..e_m] -> F_p[d][e] that
    sends e_j to e and every other e_i to 0: the unit part and slope j."""
    return x[:2] + x[2 + 2 * j:4 + 2 * j]


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("p", [(1 << 61) - 1, 101])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dual2_slopes_project_onto_dual2(p, m, data):
    ring, one_slope = Dual2Fp(p, m), Dual2Fp(p, 1)
    assert len(_decode(ring, ring.zero)) == 2 + 2 * m
    e1 = _encode(ring, (0, 0, 1) + (0,) * (2 * m - 1))
    assert _slope(_decode(ring, e1), 0) == (0, 0, 1, 0)
    assert ring.mul(e1, e1) == ring.zero
    elem = _ring_elements(ring)
    n = data.draw(st.integers(0, 5), label="n")
    vec = st.lists(elem, min_size=n, max_size=n)
    a, b = data.draw(elem, "a"), data.draw(elem, "b")
    u, v = data.draw(vec, "u"), data.draw(vec, "v")
    top = _top(ring)

    def pr(x):  # slope j of a packed element, packed over one slope
        return _encode(one_slope, _slope(_decode(ring, x), j))

    def same(x, y):  # a projected element against a one-slope one
        return _decode(one_slope, pr(x)) == _decode(one_slope, y)

    for j in range(m):
        prs = lambda xs: [pr(x) for x in xs]
        assert same(ring.mul(a, b), one_slope.mul(pr(a), pr(b)))
        assert same(ring.add(a, b), one_slope.add(pr(a), pr(b)))
        assert same(ring.neg(a), one_slope.neg(pr(a)))
        assert same(ring.lift(b[0]), one_slope.lift(b[0]))
        for x, y in ((u, v), ([top] * n, [top] * n)):
            assert same(ring.dot(x, y), one_slope.dot(prs(x), prs(y)))
    # e_i·e_j = 0: a product of two pure slopes vanishes, exactly
    pure = lambda x: _encode(ring, (0, 0) + _decode(ring, x)[2:])
    assert ring.mul(pure(a), pure(b)) == ring.zero


# --- packed Dual2Fp against nested dual numbers -------------------------------

# Both ends of the --prime range and primes far below it: the slot width
# comes from the bit length of p.
PACKED_PRIMES = [7, 101, (1 << 32) + 15, (1 << 61) - 1, (1 << 64) - 59]


class _Nested:
    """F_p[d][e_1..e_m] as (A, [S_1..S_m]), every part a DualFp pair
    u + s·d, with the ring laws written out: the oracle for Dual2Fp."""

    def __init__(self, p):
        self.inner = DualFp(p)

    @staticmethod
    def of(flat):
        return tuple(flat[:2]), list(zip(flat[2::2], flat[3::2]))

    @staticmethod
    def flat(a):
        return a[0] + tuple(v for slope in a[1] for v in slope)

    def add(self, a, b):
        r = self.inner
        return r.add(a[0], b[0]), [r.add(s, u) for s, u in zip(a[1], b[1])]

    def mul(self, a, b):
        r = self.inner
        return r.mul(a[0], b[0]), [r.add(r.mul(a[0], u), r.mul(s, b[0]))
                                   for s, u in zip(a[1], b[1])]

    def neg(self, a):
        r = self.inner
        return r.neg(a[0]), [r.neg(s) for s in a[1]]

    def dot(self, u, v):
        acc = ((0, 0), [(0, 0)] * len(u[0][1])) if u else None
        for a, b in zip(u, v):
            acc = self.add(acc, self.mul(a, b))
        return acc


class _Reductions:
    """Counts the slot reductions ``Dual2Fp`` makes while installed."""

    def __init__(self):
        self.count = 0
        real = Dual2Fp._reduced

        def counted(ring, a):
            self.count += a[4] >= ring.p
            return real(ring, a)

        self.patch = patch.object(Dual2Fp, "_reduced", counted)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_packed_dual2_matches_nested_duals_across_slot_reductions(data):
    p = data.draw(st.sampled_from(PACKED_PRIMES), label="p")
    m = data.draw(st.integers(0, 16), label="m")
    ring, oracle = Dual2Fp(p, m), _Nested(p)
    residue = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    flats = st.tuples(*[residue] * (2 + 2 * m))
    seeds = data.draw(st.lists(flats, min_size=1, max_size=5), label="pool")
    ops = data.draw(st.lists(st.tuples(
        st.sampled_from(["mul", "add", "neg", "dot", "fit"]),
        st.integers(0, 99), st.integers(0, 99), st.integers(1, 6)),
        min_size=8, max_size=40), label="ops")
    # twelve products by the all-(p − 1) element leave the slot range
    # at every p, so the chains below run through reductions
    top = (p - 1,) * (2 + 2 * m)
    packed = [_encode(ring, f) for f in seeds + [top]]
    nested = [oracle.of(f) for f in seeds + [top]]
    tally = _Reductions()
    with tally.patch:
        for _ in range(12):
            packed.append(ring.mul(packed[-1], packed[len(seeds)]))
            nested.append(oracle.mul(nested[-1], nested[len(seeds)]))
        for kind, i, j, n in ops:
            i, j, count = i % len(packed), j % len(packed), len(packed)
            if kind == "mul":
                got, want = ring.mul(packed[i], packed[j]), \
                    oracle.mul(nested[i], nested[j])
            elif kind == "add":
                got, want = ring.add(packed[i], packed[j]), \
                    oracle.add(nested[i], nested[j])
            elif kind == "neg":
                got, want = ring.neg(packed[i]), oracle.neg(nested[i])
            else:
                us = [(i + t) % count for t in range(n)]
                vs = [(j + t) % count for t in range(n)]
                if kind == "dot":
                    got = ring.dot([packed[t] for t in us],
                                   [packed[t] for t in vs])
                    want = oracle.dot([nested[t] for t in us],
                                      [nested[t] for t in vs])
                else:  # coefficients from unit parts, in F_p[d] and F_p
                    coefs = [nested[t][0] for t in vs]
                    t0, t1 = (list(part) for part in zip(*coefs))
                    elems = [nested[t] for t in us]
                    got = _fit_combination(ring, [packed[t] for t in us],
                                           t0, t1)
                    in_fp = _fit_combination(ring, [packed[t] for t in us],
                                             t0)
                    in_fp_want = oracle.dot(
                        [((c, 0), [(0, 0)] * m) for c in t0], elems)
                    assert _decode(ring, in_fp) == \
                        oracle.flat(((0, 0), in_fp_want[1]))
                    assert _dominated(ring, in_fp)
                    want = oracle.dot([(c, [(0, 0)] * m) for c in coefs],
                                      elems)
                    want = ((0, 0), want[1])
            assert _decode(ring, got) == oracle.flat(want)
            assert got[4] < ring._limit  # every slot stays decodable
            assert _dominated(ring, got)
            packed.append(got)
            nested.append(want)
    assert tally.count > 0 or m == 0


def _wide(ring, oracle, flats):
    """For each flat element, the widest-bound product of it by powers of
    the all-(p − 1) element that stays below the slot limit, packed and
    nested: operands whose slots are far from reduced."""
    top = (ring.p - 1,) * (2 + 2 * ring.m)
    out = []
    for flat in flats:
        x, y = _encode(ring, flat), oracle.of(flat)
        widest = (x, y)
        for _ in range(40):
            x = ring.mul(x, _encode(ring, top))
            y = oracle.mul(y, oracle.of(top))
            widest = max(widest, (x, y), key=lambda pair: pair[0][4])
        out.append(widest)
    return out


def _fit_combination(ring, elems, t0, t1=None):
    """Σ a_i·elems[i] with unit part 0, for a_i = t0[i] + t1[i]·d, or
    a_i = t0[i] in F_p when t1 is None: the sums of products on the
    packed parts that ``gaussmap`` runs, under the one bound that
    ``Dual2Fp.fit`` gives for the coefficients' total."""
    elems, bound = ring.fit(elems, sum(t0) + sum(t1 or ()))
    cs, ts = [a[2] for a in elems], [a[3] for a in elems]
    c, t = sum(map(mul, t0, cs)), sum(map(mul, t0, ts))
    if t1 is not None:
        t += sum(map(mul, t1, cs))
    return (0, 0, c, t, bound)


def _dominated(ring, a):
    """Whether a's bound covers every signed slot of C and T."""
    w = ring._mask.bit_length()
    return all(abs((((v + ring._offset) >> s) & ring._mask) - ring._limit)
               <= a[4] for v in a[2:4] for s in range(0, ring.m * w, w))


def _fast_bound(u, v):
    """The bound a ``dot`` of u and v computes before any reduction."""
    return sum((a[0] + a[1]) * b[4] + (b[0] + b[1]) * a[4]
               for a, b in zip(u, v))


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_overflowing_dot_reduces_each_operand_once(p):
    ring, oracle, rng = Dual2Fp(p, 3), _Nested(p), Rng(p)
    flats = [tuple(1 + rng.below(p - 1) for _ in range(8)) for _ in range(12)]
    pairs = _wide(ring, oracle, flats)
    u, v = [x for x, _ in pairs[:6]], [x for x, _ in pairs[6:]]
    assert _fast_bound(u, v) >= ring._limit  # the fast path cannot run
    unreduced = sum(x[4] >= p for x in u + v)
    tally = _Reductions()
    with tally.patch:
        got = ring.dot(u, v)
    assert tally.count == unreduced > 0  # each wide operand, once
    want = oracle.dot([y for _, y in pairs[:6]], [y for _, y in pairs[6:]])
    assert _decode(ring, got) == oracle.flat(want)
    assert got[4] < ring._limit


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_overflowing_combine_matches_dot_after_one_reduction(p):
    # a combination with coefficients in F_p[d], then in F_p, of wide
    # operands whose largest bound times the coefficients' total leaves
    # the slot range: ``fit`` reduces each operand once, and the sums on
    # the packed parts are the nested-dual dot
    ring, oracle, rng = Dual2Fp(p, 3), _Nested(p), Rng(p + 1)
    flats = [tuple(1 + rng.below(p - 1) for _ in range(8)) for _ in range(8)]
    pairs = _wide(ring, oracle, flats)
    elems = [x for x, _ in pairs]
    assert min(x[4] for x in elems) >= p
    coefs = [p - 1] * len(elems)
    for t1 in (coefs, None):
        assert max(x[4] for x in elems) * sum(coefs) >= ring._limit
        tally = _Reductions()
        with tally.patch:
            got = _fit_combination(ring, elems, coefs, t1)
        assert tally.count == len(elems)  # each element reduced once
        lifted = [((c, 0 if t1 is None else c), [(0, 0)] * 3)
                  for c in coefs]
        want = oracle.dot(lifted, [y for _, y in pairs])
        assert _decode(ring, got) == oracle.flat(((0, 0), want[1]))
        assert got[4] < ring._limit and _dominated(ring, got)


def test_dual_partials_match_hand_derivatives():
    # f(x, y, z) = (x²·y + 3z, y·z − x³), differentiated by hand
    p = 10007
    fp = Fp(p)

    def f(pt, ring):
        x, y, z = pt
        x2 = ring.mul(x, x)
        return [ring.add(ring.mul(x2, y), ring.mul(ring.lift(3), z)),
                ring.add(ring.mul(y, z), ring.neg(ring.mul(x2, x)))]

    x, y, z = point = [5, 10006, 1234]
    hand = [[2 * x * y, -3 * x * x], [x * x, z], [3, y]]  # row i: ∂/∂x_i
    runs = list(dual_partials(f, point, p))
    assert [[u for u, _ in out] for out in runs] == [f(point, fp)] * 3
    assert [[s for _, s in out] for out in runs] == \
        [[fp.lift(d) for d in row] for row in hand]


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_dual2_keeps_exact_zeros(p):
    # the Pfaffian expansion skips an entry that equals ``zero`` and the
    # gradient sweep an adjoint that ``is_zero``: an exact zero must stay
    # that tuple through products, sums and dots, also with a factor
    # whose slots are far from reduced
    for m in (0, 1, 16):
        ring = Dual2Fp(p, m)
        zero = ring.zero
        assert _encode(ring, (0,) * (2 + 2 * m)) == zero
        big = _encode(ring, (p - 1,) * (2 + 2 * m))
        for _ in range(3):
            big = ring.mul(big, big)
        assert m == 0 or big[4] >= p
        assert ring.mul(zero, big) == zero == ring.mul(big, zero)
        assert ring.add(zero, zero) == zero == ring.neg(zero)
        assert ring.dot([zero] * 3, [big] * 3) == zero
        assert ring.fit([zero] * 3, 21) == ([zero] * 3, 0)
        assert _fit_combination(ring, [zero] * 3, [1, 2, 3], [4, 5, 6]) == \
            zero
        assert ring.is_zero(zero) and (m == 0 or not ring.is_zero(big))
        # a 4×4 Pfaffian whose row 0 is zero expands to no term at all
        upper = [[zero] * 3, [big, big], [big]]
        assert _pf_solver(upper, ring)(0b1111) == zero


# --- interpolation ----------------------------------------------------------


def _horner(coeffs, s, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * s + c) % p
    return acc


def test_lagrange_small_parabola():
    # values 1, 2, 5 at s = 0, 1, 2 over F_101 -> t^2 + 1
    coeffs = lagrange_interpolate([1, 2, 5], 2, F101)
    assert coeffs == [1, 0, 1]


def test_lagrange_roundtrip_randomized():
    fp = Fp(1000003)
    rng = Rng(31337)
    for _ in range(100):
        d = rng.below(21)
        coeffs = [rng.field(fp.p) for _ in range(d + 1)]
        values = [_horner(coeffs, s, fp.p) for s in range(d + 1)]
        back = lagrange_interpolate(values, d, fp)
        back += [0] * (d + 1 - len(back))
        assert back == coeffs


@pytest.mark.parametrize("p", [(1 << 61) - 1, 101])
def test_newton_maps_round_trip(p):
    """Values at 0..n−1 of a Newton form Σ_j c_j·s(s − 1)…(s − j + 1),
    evaluated directly, interpolate to that form's power coefficients,
    expanded here; and power coefficients come back from their values."""
    fp = Fp(p)
    rng = Rng(0x4E57)
    for n in range(1, 22):
        for _ in range(3):
            newton = [rng.field(p) for _ in range(n)]
            values, want, falling = [0] * n, [0] * n, [1]
            for j, c in enumerate(newton):
                for s in range(n):
                    values[s] += c * _horner(falling, s, p)
                for i, f in enumerate(falling):
                    want[i] = (want[i] + c * f) % p
                falling = [(a - j * b) % p
                           for a, b in zip([0] + falling, falling + [0])]
            values = [v % p for v in values]
            assert lagrange_interpolate(values, n - 1, fp) == up_trim(want)
            coeffs = [rng.field(p) for _ in range(n)]
            values = [_horner(coeffs, s, p) for s in range(n)]
            assert lagrange_interpolate(values, n - 1, fp) == \
                up_trim(coeffs)


# --- characteristic polynomials ---------------------------------------------


def _charpoly_by_interpolation(mat, fp):
    """det(x·I − A) interpolated from determinants at n+2 points."""
    n = len(mat)
    values = []
    for x in range(n + 2):
        shifted = [[((x if i == j else 0) - v) % fp.p
                    for j, v in enumerate(row)] for i, row in enumerate(mat)]
        values.append(det_ring(shifted, fp))
    return lagrange_interpolate(values, n, fp)


@pytest.mark.parametrize("p", [(1 << 61) - 1, 101])
def test_charpoly_matches_interpolated_determinants(p):
    fp = Fp(p)
    rng = Rng(0xC4A2)
    for n in range(17):
        # dense, then sparser and sparser: the sparse ones leave zero
        # subdiagonal columns and pivots that need a row/column swap
        for density in (1, 3, 6):
            mat = [[rng.field(p) if rng.below(density) == 0 else 0
                    for _ in range(n)] for _ in range(n)]
            got = charpoly(mat, fp)
            assert len(got) == n + 1 and got[-1] == 1
            assert got == _charpoly_by_interpolation(mat, fp)


def test_charpoly_structured_cases():
    fp = F101
    # upper triangular: zero subdiagonal everywhere, roots on the diagonal
    tri = [[2, 5, 7], [0, 3, 1], [0, 0, 4]]
    assert charpoly(tri, fp) == _charpoly_by_interpolation(tri, fp)
    # the only nonzero below the subdiagonal sits at the bottom: the
    # reduction must swap it up before eliminating
    swap = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [9, 0, 0, 0]]
    assert charpoly(swap, fp) == _charpoly_by_interpolation(swap, fp)
    low = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [3, 5, 0, 0]]
    assert charpoly(low, fp) == _charpoly_by_interpolation(low, fp)
    assert charpoly([], fp) == [1]


# --- rng / primes -----------------------------------------------------------


def test_rng_determinism():
    a = Rng(123)
    b = Rng(123)
    assert [a.u64() for _ in range(10)] == [b.u64() for _ in range(10)]
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)


def test_rng_below_bounds():
    rng = Rng(9)
    assert rng.below(1) == 0
    assert 0 <= rng.below(1 << 64) < 1 << 64
    for n in (0, -3, (1 << 64) + 1, (1 << 89) - 1):
        with pytest.raises(ValueError):
            rng.below(n)


@pytest.mark.parametrize("p", [2, 101, (1 << 61) - 1, (1 << 64) - 59])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_combination_is_the_axpy_fold(p, data):
    """One draw per row, in row order, and Σ draw·row mod p: the result
    of the axpy fold y ← draw·row + y from y = 0, with the same draws, and
    the generator left where the fold leaves it."""
    fp = Fp(p)
    n = data.draw(st.integers(1, 6), "cols")
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n,
                                       max_size=n), min_size=1, max_size=6),
                     "rows")
    seed = data.draw(st.integers(0, (1 << 64) - 1), "seed")
    got_rng, want_rng = Rng(seed), Rng(seed)
    want = [0] * n
    for row in rows:
        a = want_rng.field(p)
        want = [(a * s + t) % p for s, t in zip(row, want)]
    assert random_combination(rows, fp, got_rng) == want
    assert got_rng.u64() == want_rng.u64()


def test_prime_generation():
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(2**61)
    rng = Rng(7)
    for _ in range(3):
        q = random_prime(rng)
        assert (1 << 60) <= q < (1 << 62)
        assert is_probable_prime(q)
