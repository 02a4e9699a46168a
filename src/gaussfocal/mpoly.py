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
sign), which also gives their gradients as signed cofactors.
Hessian-vector products evaluate the gradient over a dual extension and
read off the slopes: over F_p and over F_p[d] alike, one gradient over
F_p[d][e_1..e_m] gives the products with m vectors at once, each vector
seeded along its own e_j (vector forward mode over the gradient).

Univariate polynomials over F_p are plain ascending coefficient lists.
They come from forms restricted to lines: ``on_line`` is the one line
restriction, and ``line_zeros`` the one loop that finds zeros of a form
as roots on random lines.  ``up_roots`` takes its powers modulo f on
Kronecker-packed integers: a residue is one Python int with a fixed bit
width per coefficient, so a product of residues is one integer product.
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
        cofactors of one bitmask expansion."""
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
        n = len(mat)
        if self.kind == "det":
            det_ring(mat, ring)  # unread value: goes with ROADMAP item 1
            pf = _pf_solver(_det_block(mat, ring), ring)
            pairs = [(i, n + j) for i in range(n) for j in range(n)]
            flip, full = n * (n - 1) // 2, (1 << 2 * n) - 1
        else:
            n += 1
            pf, flip, full = _pf_solver(mat, ring), 0, (1 << n) - 1
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        ids = [t for row in self.body for t in row]
        for t, (i, j) in zip(ids, pairs):
            cof = pf(full ^ 1 << i ^ 1 << j)
            if (i + j + flip) % 2 == 0:  # sign (-1)^(i+j+1+flip)
                cof = ring.neg(cof)
            if not ring.is_zero(cof):
                out[t] = add(out[t], cof)
        return out

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
    the signed product of the pivots of the one packed-row elimination
    (``fieldcore._fp_sweep``); otherwise det M = (-1)^(n(n-1)/2)·Pf(B)
    with B = [[0, M], [-Mᵀ, 0]], one bitmask Pfaffian expansion
    (``_pf_solver`` on ``_det_block``)."""
    n = len(mat)
    if isinstance(ring, Fp):
        _, pivots, det = _fp_sweep(mat, ring.p, False, False)
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


def up_pow_mod(base, e, mod, fp):
    """base^e modulo the nonzero polynomial ``mod``, by square and multiply
    on Kronecker-packed residues.  A residue c_0 + … + c_{n-1}·x^{n-1}
    modulo the monic f = mod/lead (n = deg f) is the integer Σ c_i·2^{w·i},
    so a product is one integer product.  Its slots n + j fold back through
    packed rows of x^(n+j) mod f, and every slot stays below
    (2n - 1)·(p - 1)² < 2^w, so none carries into the next."""
    p = fp.p
    f = up_monic(mod, fp)
    n = len(f) - 1
    w = 2 * p.bit_length() + n.bit_length() + 1
    mask = (1 << w) - 1
    shifts = range(0, n * w, w)
    xn = [-c % p for c in f[:n]]
    rows, r = [], xn
    for _ in range(n - 1):
        rows.append(pack_row(r, p, w))
        r = [(a + r[-1] * b) % p for a, b in zip([0] + r, xn)]

    def mulmod(a, b):
        t = a * b
        hi = t >> n * w
        t &= (1 << n * w) - 1
        for row in rows:
            t += (hi & mask) % p * row
            hi >>= w
        return sum(((t >> s) & mask) % p << s for s in shifts)

    b = pack_row(up_divmod(base, f, fp)[1], p, w)
    acc = 1
    while e:
        if e & 1:
            acc = mulmod(acc, b)
        b = mulmod(b, b)
        e >>= 1
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


def up_roots(f, fp, rng):
    """All roots of f in F_p (each once), via gcd with x^p - x and
    randomized equal-degree splitting; requires an odd p, since over F_2
    the splitting probe (x + a)^((p-1)/2) is always 1."""
    if fp.p == 2:
        raise CharTooSmall("characteristic 2: root splitting needs an odd p")
    f = up_monic(up_trim([v % fp.p for v in f]), fp)
    if up_deg(f) <= 0:
        return []
    x = [0, 1]
    xp = up_pow_mod(x, fp.p, f, fp)
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
            probe = up_pow_mod([a, 1], half, h, fp)
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
