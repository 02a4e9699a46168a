"""Polynomial programs and univariate polynomial utilities.

A ``PolyProgram`` is a polynomial in one of two shapes, evaluated over
any coefficient ring from ``fieldcore`` -- the prime field, or a dual
extension when derivatives are needed.  A *sum* is an explicit form: its
terms (c, (i_1, …, i_d)), a power x^e as e repeated indices.  Such a
form is written one way, as a ``SparsePoly`` (exponent tuple -> integer
coefficient, with + - and *), which is only built: ``compile`` gives its
sum, and every value and derivative of the form comes from that.  A
*det* or *pf* is one minor or one sub-Pfaffian of a matrix of
coordinates, held as its grid (or upper triangle) of coordinate indices
and never expanded.  The gradient of a sum takes prefix and suffix
products per term.  Pfaffians, and determinants over rings other than
F_p, go through one division-free expansion over bitmask-memoized
sub-Pfaffians (a determinant is the Pfaffian of [[0, M], [-Mᵀ, 0]] up to
sign), which also gives their gradients as signed cofactors
(``add_cofactors``, which also serves every gradient of a rank locus).
Hessian-vector products evaluate the gradient over a dual extension and
read off the slopes: over F_p and over F_p[d] alike, one gradient over
F_p[d][e_1..e_m] gives the products with m vectors at once, each vector
seeded along its own e_j (vector forward mode over the gradient).

Univariate polynomials over F_p are plain ascending coefficient lists.
They come from forms restricted to lines: ``on_line`` is the one line
restriction, and ``line_zeros`` the one loop that finds zeros of a form
as roots on random lines.  ``up_roots`` solves every factor of degree
≤ 2 in closed form (discriminant, Jacobi symbol, square root mod p) and
replays that factor's splitting draws on its roots as Legendre symbols,
so the shared random stream moves as it would under polynomial probes.
Above degree 2 it takes powers (x + a)^e modulo f on Kronecker-packed
integers: a residue is one Python int with a fixed bit width per
coefficient, so a squaring is one integer product, and a multiply by
x + a a shift by one slot plus a scalar multiple.
"""

from __future__ import annotations

from .fieldcore import (Degeneracy, Dual2Fp, Fp, _fp_sweep,
                        lagrange_interpolate, pack_row)


class CharTooSmall(Degeneracy):
    """Field characteristic too small for a degree-sensitive routine."""


# --- polynomial programs -------------------------------------------------------


class PolyProgram:
    """A polynomial on ``arity`` coordinates in one of two shapes.

    ``kind == "sum"``: ``body`` is the terms (c, (i_1, …, i_d)) of an
    explicit form in the order of their sorted exponents, each
    c·x_{i_1}⋯x_{i_d}, a power x^e as e repeated indices
    (``SparsePoly.compile``).  ``kind == "det"``: ``body`` is an
    n×n grid of coordinate indices, and the value is the determinant of
    that matrix of coordinates.  ``kind == "pf"``: ``body`` is the rows
    of the upper triangle of a skew matrix of coordinate indices, row i
    holding entries (i, i+1), …, (i, n-1) for i < n - 1, and the value
    is its Pfaffian.  ``degree`` is the total degree (of the top term of
    a sum); the rank loci are homogeneous.
    """

    __slots__ = ("arity", "kind", "body", "degree")

    def __init__(self, arity, kind, body, degree):
        self.arity = arity
        self.kind = kind
        self.body = body
        self.degree = degree

    @classmethod
    def det(cls, arity, grid) -> "PolyProgram":
        """The determinant of the n×n grid of coordinate indices."""
        grid = tuple(tuple(row) for row in grid)
        return cls(arity, "det", grid, len(grid))

    @classmethod
    def pf(cls, arity, upper) -> "PolyProgram":
        """The Pfaffian of the n×n skew matrix, n even, whose upper
        triangle is these n - 1 rows of coordinate indices."""
        upper = tuple(tuple(row) for row in upper)
        return cls(arity, "pf", upper, (len(upper) + 1) // 2)

    def _entries(self, x):
        """The det or pf matrix (its upper triangle for pf) at x."""
        return [[x[i] for i in row] for row in self.body]

    def eval(self, x, ring):
        if self.kind == "det":
            return det_ring(self._entries(x), ring)
        if self.kind == "pf":
            full = (1 << len(self.body) + 1) - 1
            return _pf_solver(self._entries(x), ring)(full)
        lift, add, mul = ring.lift, ring.add, ring.mul
        acc = None
        for c, idx in self.body:
            if c != 1 or not idx:
                v, rest = lift(c), idx
            else:
                v, rest = x[idx[0]], idx[1:]
            for i in rest:
                v = mul(v, x[i])
            acc = v if acc is None else add(acc, v)
        return ring.zero if acc is None else acc

    def grad(self, x, ring):
        """Gradient at x: per term of a sum, prefix and suffix products
        of its factors; for det and pf, the signed sub-Pfaffian
        cofactors of one bitmask expansion (``add_cofactors``)."""
        out = [ring.zero] * self.arity
        add, mul = ring.add, ring.mul
        if self.kind == "sum":
            for c, idx in self.body:
                pre = [ring.lift(c)]
                for i in idx[:-1]:
                    pre.append(mul(pre[-1], x[i]))
                suf = None
                for k in range(len(idx) - 1, -1, -1):
                    i = idx[k]
                    out[i] = add(out[i], pre[k] if suf is None
                                 else mul(pre[k], suf))
                    suf = x[i] if suf is None else mul(suf, x[i])
            return out
        mat = self._entries(x)
        if self.kind == "det":
            det_ring(mat, ring)  # unread value: goes with ROADMAP item 1
            n = len(mat)
            return add_cofactors(
                out, _pf_solver(_det_block(mat, ring), ring), range(2 * n),
                [[None] * n + list(row) for row in self.body], n, ring)
        return add_cofactors(
            out, _pf_solver(mat, ring), range(len(mat) + 1),
            [[None] * (i + 1) + list(row) for i, row in enumerate(self.body)],
            0, ring)

    def hess_vec(self, x, vs, ring):
        """Hessian-vector products H(x)·v for the vectors v in vs over
        F_p, at a point x over F_p or over F_p[d], packed over the
        vectors.

        One gradient sweep over F_p[d][e_1..e_m] (``Dual2Fp(p, len(vs))``)
        at x + Σ_j v_j·e_j gives them all, and it is returned as it is:
        entry i of (H(x)·v_j) is slope j of gradient entry i, its unit
        part in slot j of C and its d-part in slot j of T.  Over F_p the
        point enters with zero d-part, so T is 0 and each product is the
        unit part of its slope.  Coordinates no term or grid entry reads
        stay ``zero``.
        """
        ring2 = Dual2Fp(ring.p, len(vs))
        x = [(xi, 0) for xi in x] if isinstance(ring, Fp) else x
        point = [ring2.zero] * self.arity
        rows = [t for _, t in self.body] if self.kind == "sum" else self.body
        for i in {i for row in rows for i in row}:
            point[i] = ring2.encode(x[i], [v[i] for v in vs])
        return self.grad(point, ring2)


# --- determinant / Pfaffian value kernels -------------------------------------


def det_ring(mat, ring):
    """Determinant over an arbitrary commutative ring.  Over F_p it is
    the cofactor expansion up to 3×3, and beyond that the signed product
    of the pivots of the one packed-row elimination
    (``fieldcore._fp_sweep``); otherwise det M = (-1)^(n(n-1)/2)·Pf(B)
    with B = [[0, M], [-Mᵀ, 0]], one bitmask Pfaffian expansion
    (``_pf_solver`` on ``_det_block``)."""
    n = len(mat)
    if isinstance(ring, Fp):
        p = ring.p
        if n == 3:
            (a, b, c), (d, e, f), (g, h, i) = mat
            return (a * (e * i - f * h) - b * (d * i - f * g)
                    + c * (d * h - e * g)) % p
        if n == 2:
            (a, b), (c, d) = mat
            return (a * d - b * c) % p
        if n == 1:
            return mat[0][0] % p
        _, pivots, det = _fp_sweep(mat, p, False, False)
        return det if len(pivots) == n else 0
    got = _pf_solver(_det_block(mat, ring), ring)((1 << 2 * n) - 1)
    return ring.neg(got) if n * (n - 1) // 2 % 2 else got


def _det_block(mat, ring):
    """Rows 0..n-1 of the upper triangle of B = [[0, M], [-Mᵀ, 0]] for an
    n×m matrix M: row i is n - 1 - i zeros, then M's row i.  Every index
    set the expansion reaches from a set with as many of B's first n
    indices as of its last m holds that balance, so the all-zero rows
    n..n+m-1 are never read and are left out.  Lowest index i then pairs
    only with the n + j, and the sub-Pfaffians are the minors on (row
    suffix, column subset), up to sign."""
    n = len(mat)
    return [[ring.zero] * (n - 1 - i) + list(row) for i, row in enumerate(mat)]


def _pf_solver(upper, ring):
    """Pfaffians of the principal submatrices of a skew matrix.

    ``upper[i]`` holds the entries (i, i+1), (i, i+2), … of the upper
    triangle.  The returned function takes an index set as a bitmask.
    The Pfaffian of each pair {i, j} is its entry; a larger set expands
    along its lowest index as one ``ring.dot`` of signed entries against
    sub-Pfaffians, memoized on the mask (division-free).  The full
    Pfaffian touches each reachable mask once, and the cofactor of the
    entry (i, j) is (-1)^(i+j+1)·Pf(mask without i and j), read off the
    same memo table.
    """
    zero, neg, dot = ring.zero, ring.neg, ring.dot
    memo = {0: ring.one}
    rows, negated = [], []
    for i, row in enumerate(upper):
        for j, v in enumerate(row, i + 1):
            memo[1 << i | 1 << j] = v
        pad = [None] * (i + 1)
        rows.append(pad + row)
        negated.append(pad + [neg(v) for v in row])

    def pf(mask):
        got = memo.get(mask)
        if got is not None:
            return got
        low = mask & -mask
        i = low.bit_length() - 1
        entries, signed = rows[i], (rows[i], negated[i])
        rest = mask ^ low
        coefs, subs = [], []
        sign = 0
        left = rest
        while left:
            bit = left & -left
            j = bit.bit_length() - 1
            if entries[j] != zero:
                other = rest ^ bit
                sub = memo.get(other)
                coefs.append(signed[sign][j])
                subs.append(pf(other) if sub is None else sub)
            sign ^= 1
            left ^= bit
        got = memo[mask] = dot(coefs, subs)
        return got

    return pf


def add_cofactors(out, pf, sub, coord, rows, ring):
    """Add to ``out`` the signed cofactors of the Pfaffian on the
    ascending index set ``sub`` of a skew matrix, read off its memo ``pf``
    (``_pf_solver``): for positions a < c of ``sub``, with i = sub[a] and
    j = sub[c], (-1)^(a+c+1+flip)·Pf(sub without i and j) goes to
    ``out[coord[i][j]]``, the coordinate of the entry (i, j).  For a
    minor of M, read as the Pfaffian of B = [[0, M], [-Mᵀ, 0]]
    (``_det_block``), the first ``rows`` indices of ``sub`` are its rows
    and the rest its columns: only a row pairs with a column, and
    flip = rows·(rows-1)/2 is the sign between det and Pf.  For a
    sub-Pfaffian ``rows`` is 0.  Zero cofactors are skipped."""
    add, neg, is_zero = ring.add, ring.neg, ring.is_zero
    full = sum(1 << i for i in sub)
    flip, size = rows * (rows - 1) // 2, len(sub)
    for a in range(rows or size - 1):
        i = sub[a]
        at, rest = coord[i], full ^ 1 << i
        for c in range(max(a + 1, rows), size):
            j = sub[c]
            cof = pf(rest ^ 1 << j)
            if not is_zero(cof):
                t = at[j]
                out[t] = add(out[t], cof if (a + c + flip) % 2 else neg(cof))
    return out


# --- sparse multivariate polynomials ------------------------------------------


class SparsePoly:
    """Explicit multivariate polynomial: exponent tuple -> integer
    coefficient.  It is only built; ``compile`` gives the program that
    evaluates and differentiates it."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def var(cls, nvars: int, i: int) -> "SparsePoly":
        return cls(nvars, {tuple(int(t == i) for t in range(nvars)): 1})

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return SparsePoly(self.nvars, out)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + -other

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return SparsePoly(self.nvars, out)

    def compile(self) -> PolyProgram:
        """The sum-shaped program of this form: its terms in sorted
        order, x^e as e repeated indices."""
        body = tuple((c, tuple(i for i, ei in enumerate(e)
                               for _ in range(ei)))
                     for e, c in sorted(self.terms.items()))
        return PolyProgram(self.nvars, "sum", body,
                           max((len(idx) for _, idx in body), default=0))


# --- univariate polynomials over F_p (ascending coefficient lists) -----------


def up_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def up_deg(f) -> int:
    return len(f) - 1


def up_sub(f, g, fp):
    n = max(len(f), len(g))
    out = [(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)
           for i in range(n)]
    return up_trim([v % fp.p for v in out])


def up_scale(f, k, fp):
    return up_trim([v * k % fp.p for v in f])


def up_monic(f, fp):
    if not f:
        return []
    return up_scale(f, fp.inv(f[-1]), fp)


def up_divmod(f, g, fp):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    p = fp.p
    r = [v % p for v in f]
    q = [0] * max(0, len(r) - len(g) + 1)
    inv_lead = fp.inv(g[-1])
    dg = len(g) - 1
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i] * inv_lead % p
        if c:
            q[i - dg] = c
            for j, b in enumerate(g):
                r[i - dg + j] = (r[i - dg + j] - c * b) % p
    return up_trim(q), up_trim(r)


def up_gcd(f, g, fp):
    a, b = up_trim(list(f)), up_trim(list(g))
    while b:
        a, b = b, up_divmod(a, b, fp)[1]
    return up_monic(a, fp)


def up_deriv(f, fp):
    return up_trim([i * f[i] % fp.p for i in range(1, len(f))])


def up_pow_mod(a, e, mod, fp):
    """(x + a)^e modulo the nonzero polynomial ``mod``, left to right on
    Kronecker-packed residues.  A residue c_0 + … + c_{n-1}·x^{n-1}
    modulo the monic f = mod/lead (n = deg f) is the integer Σ c_i·2^{w·i}.
    A squaring is one integer product; its slots n + j fold back through
    packed rows of x^(n+j) mod f, and every slot stays below
    (2n - 1)·(p - 1)² < 2^w, so none carries into the next.  A multiply
    by x + a is the residue shifted up one slot plus a times it, the slot
    shifted past x^(n-1) folded back through the row of x^n mod f.  For
    a = 0 (the Frobenius x^p) the squaring before it is not reduced
    first: its slots then stay below 2n·(p - 1)²."""
    p = fp.p
    f = up_monic(mod, fp)
    n = len(f) - 1
    if n < 1:
        return []
    w = 2 * p.bit_length() + n.bit_length() + 1
    mask, top, nw = (1 << w) - 1, (n - 1) * w, n * w
    shifts = range(0, nw, w)
    xn = [-c % p for c in f[:n]]
    rows, r = [], xn
    for _ in range(max(n - 1, 1)):  # x^n mod f even at n = 1: the multiply
        rows.append(pack_row(r, p, w))
        r = [(c + r[-1] * b) % p for c, b in zip([0] + r, xn)]
    acc = 1
    for bit in bin(e)[2:]:
        t = acc * acc
        hi = t >> nw
        t &= (1 << nw) - 1
        for row in rows:
            t += (hi & mask) % p * row
            hi >>= w
        if bit == "1":
            if a:
                t = sum(((t >> s) & mask) % p << s for s in shifts)
            t = (((t & (1 << top) - 1) << w) + a * t
                 + (t >> top) % p * rows[0])
        acc = sum(((t >> s) & mask) % p << s for s in shifts)
    return up_trim([(acc >> s) & mask for s in shifts])


def squarefree_profile(f, fp):
    """Multiplicity profile [(m, d), ...]: distinct irreducible factors of
    multiplicity m contribute total degree d.  Yun's algorithm; requires
    p > deg f so derivatives behave."""
    f = up_trim([v % fp.p for v in f])
    d = up_deg(f)
    if d <= 0:
        return []
    if fp.p <= d:
        raise CharTooSmall(f"characteristic {fp.p} <= degree {d}")
    f = up_monic(f, fp)
    df = up_deriv(f, fp)
    a = up_gcd(f, df, fp)
    b = up_divmod(f, a, fp)[0]
    c = up_divmod(df, a, fp)[0]
    d_ = up_sub(c, up_deriv(b, fp), fp)
    out = {}
    i = 1
    while up_deg(b) > 0:
        g = up_gcd(b, d_, fp)
        dg = up_deg(g)
        if dg > 0:
            out[i] = out.get(i, 0) + dg
        b = up_divmod(b, g, fp)[0]
        c = up_divmod(d_, g, fp)[0]
        d_ = up_sub(c, up_deriv(b, fp), fp)
        i += 1
    return sorted(out.items())


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for an odd n > 0, by the binary algorithm
    (Cohen, Alg. 1.4.10): shifts, remainders and reciprocity, no power.
    For a prime n it is Euler's criterion a^((n-1)/2) read as -1, 0 or 1."""
    a %= n
    t = 1
    while a:
        z = (a & -a).bit_length() - 1
        a >>= z
        if z & 1 and n & 7 in (3, 5):
            t = -t
        if a & n & 2:
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


def _sqrt_mod(a, p):
    """A square root of the nonzero square a modulo the odd prime p: one
    power when p ≡ 3 (mod 4), otherwise Tonelli–Shanks (Cohen, Alg. 1.5.1)
    with the smallest quadratic non-residue, found with no random draw."""
    if p & 3 == 3:
        return pow(a, (p + 1) >> 2, p)
    e = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^e·q, q odd
    q = (p - 1) >> e
    z = 2
    while _jacobi(z, p) != -1:
        z += 1
    y, r = pow(z, q, p), e
    x = pow(a, q >> 1, p)
    b, x = a * x * x % p, a * x % p
    while b != 1:
        m, t = 1, b * b % p
        while t != 1 and m < r:
            m, t = m + 1, t * t % p
        if m == r:
            raise ValueError(f"{a} is not a nonzero square mod {p}")
        t = pow(y, 1 << r - m - 1, p)
        y, r, x, b = t * t % p, m, x * t % p, b * t * t % p
    return x


def _small_roots(h, p):
    """The distinct roots in F_p of the monic h of degree ≤ 2, in closed
    form: the discriminant, its Legendre symbol and one square root."""
    if len(h) < 3:
        return [-h[0] % p] if len(h) == 2 else []
    c, b = h[0], h[1]
    disc, half = (b * b - 4 * c) % p, (p + 1) >> 1
    if disc == 0:
        return [-b * half % p]
    if _jacobi(disc, p) != 1:
        return []
    s = _sqrt_mod(disc, p)
    return [(s - b) * half % p, (-s - b) * half % p]


def up_roots(f, fp, rng):
    """All roots of f in F_p (each once); requires an odd p, since over
    F_2 the splitting probe (x + a)^((p-1)/2) is always 1.

    For f of degree ≥ 3 they are the roots of g = gcd(x^p - x, f), and a
    piece h of degree ≥ 3 is split by random draws a into
    s = gcd((x + a)^((p-1)/2) - 1, h) and h/s, h/s first (Cantor and
    Zassenhaus, Math. Comp. 36, 1981).  Every piece of degree ≤ 2 (f
    itself, g, or a piece of a split) is solved in closed form, and its
    draws are replayed on its two roots: r falls in s exactly when
    (r + a)^((p-1)/2) = 1, a Legendre symbol.  So the same values of a
    are drawn and the roots come in the same order as with polynomial
    probes all the way down, and the shared ``rng`` stream stays in
    step."""
    p = fp.p
    if p == 2:
        raise CharTooSmall("characteristic 2: root splitting needs an odd p")
    f = up_monic(up_trim([v % p for v in f]), fp)
    if up_deg(f) > 2:
        f = up_gcd(up_sub(up_pow_mod(0, p, f, fp), [0, 1], fp), f, fp)
    roots = []
    stack = [f]
    half = (p - 1) // 2
    while stack:
        h = stack.pop()
        d = up_deg(h)
        if d <= 2:
            got = _small_roots(h, p)
            if len(got) == 2:
                r, t = got
                while True:
                    a = rng.field(p)
                    inside = _jacobi(r + a, p) == 1
                    if inside != (_jacobi(t + a, p) == 1):
                        break
                if inside:
                    got = [t, r]
            roots += got
            continue
        while True:
            a = rng.field(p)
            probe = up_pow_mod(a, half, h, fp)
            s = up_gcd(up_sub(probe, [1], fp), h, fp)
            if 0 < up_deg(s) < d:
                stack.append(s)
                stack.append(up_divmod(h, s, fp)[0])
                break
    return roots


# --- the random-line toolkit ---------------------------------------------------


def on_line(func, deg, a, d, fp):
    """The polynomial s ↦ func(a + s·d, fp) of degree ≤ deg, ascending
    ([] for the zero polynomial), interpolated from its values at
    s = 0, …, deg + 1; the surplus value must lie on it too."""
    if fp.p <= deg + 1:
        raise CharTooSmall(f"characteristic {fp.p} <= degree {deg} + 1")
    p = fp.p
    values = [func([(av + s * dv) % p for av, dv in zip(a, d)], fp)
              for s in range(deg + 2)]
    return lagrange_interpolate(values, deg, fp)


def restrict_to_line(prog, a, d, fp):
    """``on_line`` for a polynomial program."""
    return on_line(prog.eval, prog.degree, a, d, fp)


LINE_ATTEMPTS = 32


def line_zeros(restrict, nv, fp, rng):
    """Zeros on random lines a + s·d in F_p^nv, where ``restrict(a, d)``
    is the form on the line: one list of points, sorted by s, per line
    that has roots, from at most ``LINE_ATTEMPTS`` lines."""
    for _ in range(LINE_ATTEMPTS):
        a = [rng.field(fp.p) for _ in range(nv)]
        d = [rng.field(fp.p) for _ in range(nv)]
        roots = up_roots(restrict(a, d), fp, rng)
        if roots:
            yield [[(av + s * dv) % fp.p for av, dv in zip(a, d)]
                   for s in sorted(roots)]
