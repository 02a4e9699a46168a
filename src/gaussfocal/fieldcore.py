"""Exact arithmetic kernels: prime fields, dual numbers, and linear algebra.

Everything downstream works over F_p for a word-size prime p (default
range [2^60, 2^62)), or over the dual extension F_p[eps]/(eps^2) used for
exact first-order derivatives.  F_p[d][e_1..e_m], which carries m
second-order derivatives at once, exists only for the gradient sweeps
of Hessian-vector products: it has no inverse, and nothing eliminates
over it.  Field elements are plain Python integers in [0, p); dual
elements are tuples of integers, and an element of F_p[d][e_1..e_m]
keeps its m slopes packed, unreduced, in the slots of two integers, so
that its arithmetic works on whole integers.  The ring objects below
hold only the modulus and their constants and expose the operations, so
vectors and matrices stay ordinary lists and the hot loops avoid
per-element object overhead.  ``dual_partials``, the one dual-number
Jacobian, runs a function once per coordinate over F_p[eps].

Each ring also carries its own vector kernels, ``dot(u, v)`` and, on
F_p and F_p[eps], ``axpy(a, x, y)`` (a·x + y); they accumulate unreduced
Python integers and reduce once per output component (the delayed
reduction of FFLAS-FFPACK; Dumas, Giorgi and Pernet, ACM TOMS 2008).
Dot products, vector-matrix products and the row updates of ``rref``
over F_p[eps] go through them.  Over F_p a row is one packed integer
(``pack_row``), reduced only as a pivot row or when read out: that one
elimination (``_fp_sweep``) serves ``rref``, ``mat_rank``,
``solve_affine`` and ``mpoly.det_ring``.

Matrix routines eliminate with unit pivots: a forward sweep that updates
only the trailing columns of each row, then, for the reduced row echelon
form only, clearing above the pivots, which ``mat_rank`` and
``kernel_basis`` do without.  The characteristic polynomial goes through
Hessenberg form instead.  Over a field every nonzero entry is a unit;
over a dual ring a pivot must have a nonzero unit part, and inputs whose
rank drops on the unit parts raise ``DegeneratePivot`` so callers can
resample.

Interpolation runs only on the integer nodes 0, 1, 2, …, as two
triangular maps on a line: values to Newton coefficients
(``newton_divided``) and Newton to power coefficients
(``newton_to_power``).  ``lagrange_interpolate`` composes them on one
line; the focal extraction expands a small reduced form by running them
axis by axis on a simplex grid.

Every library error derives from one of two bases, which decide the
command line's exit code: ``Degeneracy`` (3), a random draw that no
retry got past, or ``Violation`` (2), a failed invariant.
"""

from __future__ import annotations

from operator import lshift, mul as _mul


class Degeneracy(Exception):
    """A random draw that resampling could not get past (exit code 3)."""


class Violation(Exception):
    """A mathematical invariant failed (exit code 2)."""


class ZeroInverse(Degeneracy):
    """Inversion of zero (or of a non-unit dual number)."""


class DegeneratePivot(Degeneracy):
    """Row reduction over a non-field ring hit a column with no unit pivot."""


class Infeasible(Violation):
    """Right-hand side outside the column span of the system matrix."""


_M64 = (1 << 64) - 1


class Rng:
    """Deterministic 64-bit generator (splitmix64).

    A tiny explicit stream keeps runs byte-reproducible across Python
    versions, which the reporting layer relies on.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _M64

    def u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _M64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return (z ^ (z >> 31)) & _M64

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias."""
        if not 1 <= n <= _M64 + 1:  # one 64-bit word per draw
            raise ValueError("below() needs 1 <= n <= 2^64")
        lim = _M64 + 1 - (_M64 + 1) % n
        while True:
            v = self.u64()
            if v < lim:
                return v % n

    def field(self, p: int) -> int:
        return self.below(p)


def derive_seed(base: int, *indices: int) -> int:
    """Stable seed derivation; order-sensitive in the indices."""
    z = (base ^ 0xA5A5A5A55A5A5A5A) & _M64
    for v in indices:
        z = (z + 0x9E3779B97F4A7C15 * (v + 1)) & _M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        z ^= z >> 31
    return z & _M64


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; the fixed base set is deterministic below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: Rng) -> int:
    """A random prime in [2^60, 2^62)."""
    lo, hi = 1 << 60, 1 << 62
    while True:
        n = lo + rng.below(hi - lo)
        n |= 1
        if n < hi and is_probable_prime(n):
            return n


class Fp:
    """The prime field F_p on plain integer residues."""

    __slots__ = ("p",)
    zero = 0
    one = 1

    def __init__(self, p: int):
        self.p = p

    def lift(self, a: int) -> int:
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroInverse("division by zero in F_p")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a) -> bool:
        return a != 0

    def dot(self, u, v):
        return sum(map(_mul, u, v)) % self.p

    def axpy(self, a, x, y):
        p = self.p
        return [(a * s + t) % p for s, t in zip(x, y)]


class DualFp:
    """F_p[eps]/(eps^2) on integer pairs (unit, slope)."""

    __slots__ = ("p",)
    zero = (0, 0)
    one = (1, 0)

    def __init__(self, p: int):
        self.p = p

    def lift(self, a: int):
        return (a % self.p, 0)

    def make(self, unit: int, slope: int):
        return (unit % self.p, slope % self.p)

    def add(self, a, b):
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def mul(self, a, b):
        p = self.p
        return (a[0] * b[0] % p, (a[0] * b[1] + a[1] * b[0]) % p)

    def neg(self, a):
        p = self.p
        return (-a[0] % p, -a[1] % p)

    def inv(self, a):
        if a[0] == 0:
            raise ZeroInverse("non-unit dual number")
        p = self.p
        i = pow(a[0], -1, p)
        return (i, -(i * i % p) * a[1] % p)

    def is_zero(self, a) -> bool:
        return a == (0, 0)

    def is_unit(self, a) -> bool:
        return a[0] != 0

    def dot(self, u, v):
        s0 = s1 = 0
        for (a0, a1), (b0, b1) in zip(u, v):
            s0 += a0 * b0
            s1 += a0 * b1 + a1 * b0
        p = self.p
        return (s0 % p, s1 % p)

    def axpy(self, a, x, y):
        p = self.p
        a0, a1 = a
        return [((a0 * s0 + t0) % p, (a0 * s1 + a1 * s0 + t1) % p)
                for (s0, s1), (t0, t1) in zip(x, y)]


class Dual2Fp:
    """F_p[d][e_1..e_m]/(d^2, e_i·e_j) on packed tuples (a0, a1, C, T, b).

    (a0 + a1·d) + Σ_j (c_j + t_j·d)·e_j is a point of F_p[d], kept
    reduced, and m slopes over F_p[d], unreduced in signed w-bit slots:
    C = Σ_j c_j·2^(w·j), T likewise, and b bounds every |c_j| and |t_j|.
    As e_i·e_j = 0, (A + Σ S_j e_j)(B + Σ U_j e_j) = AB + Σ (A·U_j +
    S_j·B) e_j is six products of a residue by a packed integer, and
    ``add``, ``neg`` and ``dot`` work on whole integers too (Kronecker
    substitution; von zur Gathen and Gerhard, Modern Computer Algebra,
    §8.4).  With w = 4·bits(p) + 8 there is one overflow rule, one bound
    test per operation: one whose bound would leave (−2^(w−1), 2^(w−1))
    reduces its operands' slots mod p, once, and runs again; a caller's
    sum of products with residue coefficients tests the bound of ``fit``.
    Reduced operands bound a length-n ``dot`` by 4n·p² < 2^(w−1) for
    n < 2^(2·bits(p)+5).  An exact zero keeps bound 0: it stays ``zero``.
    A sweep over this ring carries m first-order deformations of an F_p[d]
    computation at once: its gradient gives m Hessian-vector products,
    which is all it is for (no inverse, no ``axpy``).  ``encode`` and
    ``decode`` convert from and to residues; m = 1 is F_p[d, e]/(d^2, e^2).
    """

    __slots__ = ("p", "m", "zero", "one", "_limit", "_mask", "_shifts",
                 "_offset")

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        w = 4 * p.bit_length() + 8
        self._limit = 1 << (w - 1)
        self._mask = (1 << w) - 1
        self._shifts = range(0, m * w, w)
        # adding 2^(w−1) to every slot makes each one a w-bit digit
        self._offset = sum(self._limit << s for s in self._shifts)
        self.zero = (0, 0, 0, 0, 0)
        self.one = (1, 0, 0, 0, 0)

    def slots(self, v):
        """The m slots of the packed integer v, reduced mod p."""
        v += self._offset
        p, mask, half = self.p, self._mask, self._limit
        return [((v >> s & mask) - half) % p for s in self._shifts]

    def pack(self, slots):
        """Σ_j slots[j]·2^(w·j), for residues in [0, p)."""
        return sum(map(lshift, slots, self._shifts))

    def encode(self, unit, cs=(), ts=()):
        """The element with point ``unit`` = (a0, a1) and slopes
        c_j + t_j·d, from residues in [0, p); missing trailing c_j or t_j
        are zero."""
        c, t = self.pack(cs), self.pack(ts)
        return (*unit, c, t, self.p - 1 if c or t else 0)

    def decode(self, a):
        """(unit, cs, ts) of ``a``, every slot reduced: ``encode``'s
        inverse."""
        return (a[0], a[1]), self.slots(a[2]), self.slots(a[3])

    def _reduced(self, a):
        """``a`` with its slots reduced mod p, so that b < p."""
        if a[4] < self.p:
            return a
        return self.encode(*self.decode(a))

    def lift(self, a: int):
        return (a % self.p, 0, 0, 0, 0)

    def add(self, a, b):
        bound = a[4] + b[4]
        if bound >= self._limit:
            return self.add(self._reduced(a), self._reduced(b))
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p, a[2] + b[2],
                a[3] + b[3], bound)

    def mul(self, a, b):
        a0, a1, c, t, ba = a
        b0, b1, u, v, bb = b
        bound = (a0 + a1) * bb + (b0 + b1) * ba
        if bound >= self._limit:
            return self.mul(self._reduced(a), self._reduced(b))
        p = self.p
        return (a0 * b0 % p, (a0 * b1 + a1 * b0) % p, a0 * u + b0 * c,
                a0 * v + a1 * u + b0 * t + b1 * c, bound)

    def neg(self, a):
        p = self.p
        return (-a[0] % p, -a[1] % p, -a[2], -a[3], a[4])

    def is_zero(self, a) -> bool:
        return not (a[0] or a[1] or a[2] or a[3])

    def dot(self, u, v):
        s0 = s1 = c = t = bound = 0
        for (a0, a1, ac, at, ba), (b0, b1, bc, bt, bb) in zip(u, v):
            s0 += a0 * b0
            s1 += a0 * b1 + a1 * b0
            c += a0 * bc + b0 * ac
            t += a0 * bt + a1 * bc + b0 * at + b1 * ac
            bound += (a0 + a1) * bb + (b0 + b1) * ba
        if bound >= self._limit:  # the overflow rule: reduce, run again
            return self.dot(list(map(self._reduced, u)),
                            list(map(self._reduced, v)))
        p = self.p
        return (s0 % p, s1 % p, c, t, bound)

    def fit(self, elems, weight):
        """``elems``, and one bound on the slots of every combination of
        them whose coefficients' residue parts total at most ``weight``;
        if that leaves the slot range, each element is reduced mod p once."""
        if max((a[4] for a in elems), default=0) * weight >= self._limit:
            elems = list(map(self._reduced, elems))
        return elems, max((a[4] for a in elems), default=0) * weight

    def fit_slopes(self, elems, weight):
        """``fit`` on the d-slopes T of ``elems`` alone, reduced alone: their
        packed integers, without the bound."""
        big = max((a[4] for a in elems), default=0) * weight >= self._limit
        return [self.pack(self.slots(a[3])) if big else a[3] for a in elems]


def dual_partials(func, point, p):
    """``func(point + eps·e_i, F_p[eps])`` for each coordinate i in turn:
    its unit parts are func at ``point``, its slopes the partials in x_i."""
    ring = DualFp(p)
    for i in range(len(point)):
        yield func([ring.make(v, 1 if t == i else 0)
                    for t, v in enumerate(point)], ring)


# --- vectors and matrices ---------------------------------------------------


def vecmat(v, mat, ring):
    return [ring.dot(v, col) for col in zip(*mat)]


def rref(mat, ring, reduced=True):
    """Reduced row echelon form with unit pivots.

    Returns ``(rows, pivots)``.  Over F_p this is ``_fp_sweep``.  Over
    F_p[ε] a forward sweep clears each pivot column below its pivot, then
    back-substitution clears it above, last pivot first; a row update
    covers only the lead row's columns from its first nonzero entry on,
    and the unit parts are eliminated exactly as the unit-part matrix is
    over F_p, so the pivots are the unit part's.  ``reduced=False`` stops
    before clearing above the pivots, with rows in echelon form: enough
    for the rank, the pivots and ``kernel_basis``.  Raises
    ``DegeneratePivot`` when a non-field ring leaves a nonzero row that no
    unit pivot can clear.
    """
    if isinstance(ring, Fp):
        rows, pivots, _ = _fp_sweep(mat, ring.p, reduced, True)
        return [[0] * c + row for row, c in zip(rows, pivots)], pivots
    rows = [list(r) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    is_unit, is_zero = ring.is_unit, ring.is_zero
    mul, neg, inv, axpy = ring.mul, ring.neg, ring.inv, ring.axpy

    def clear(c, lead, below):
        lo = next(j for j, v in enumerate(lead) if not is_zero(v))
        tail = lead[lo:]
        for row in below:
            f = row[c]
            if not is_zero(f):
                row[lo:] = axpy(neg(f), tail, row[lo:])

    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if is_unit(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = inv(rows[r][c])
        rows[r] = [mul(piv, v) for v in rows[r]]
        clear(c, rows[r], rows[r + 1:])
        pivots.append(c)
        r += 1
    for i in range(r, nrows):
        if any(not is_zero(v) for v in rows[i]):
            raise DegeneratePivot("nonzero residual row without unit pivot")
    if reduced:
        for i in range(r - 1, 0, -1):
            clear(pivots[i], rows[i], rows[:i])
    return rows[:r], pivots


def pack_row(values, p, w):
    """Σ_c (values[c] mod p)·2^(w·c): one non-negative w-bit slot per
    value (Kronecker substitution; von zur Gathen and Gerhard, Modern
    Computer Algebra, §8.4).  A long row is packed by halves, so the cost
    grows as n·log n in its length n, not as n²."""
    n = len(values)
    if n > 32:
        h = n // 2
        return pack_row(values[:h], p, w) | pack_row(values[h:], p, w) << h * w
    v = 0
    for x in reversed(values):
        v = v << w | x % p
    return v


def unpack_row(v, n, p, w, scale=1):
    """The n slots of ``pack_row``'s v, each times ``scale``, mod p; a long
    row is split by halves."""
    if n > 32:
        h = n // 2
        return (unpack_row(v & ((1 << h * w) - 1), h, p, w, scale)
                + unpack_row(v >> h * w, n - h, p, w, scale))
    mask = (1 << w) - 1
    return [(v >> s & mask) * scale % p for s in range(0, n * w, w)]


def _fp_sweep(mat, p, reduced, keep):
    """The one F_p elimination, behind ``rref`` and ``mpoly.det_ring``.

    A row is one integer (``pack_row``), with w = 2·bits(p) + bits(2n + 1)
    for n = min(rows, cols).  A row update, row += (p − f)·lead, adds less
    than p² to each slot, and a row takes at most n of them before it is a
    pivot row and n after, so no slot carries.  A row is reduced mod p
    (and scaled to a unit pivot) when it becomes a pivot row, and when it
    is read out.  Rows not yet pivot rows drop their leading slots at each
    pivot; after columns without a pivot the column searched sits a few
    slots up and is read from those low slots alone, so such columns cost
    no whole-row shift.  With ``reduced`` each pivot row also clears its
    column in the pivot rows above it.  Returns ``(rows, pivots, det)``:
    each row of ``rref`` from its pivot column on, and the pivots' product
    signed by the row swaps, the determinant of a square matrix of full
    rank.  Without ``keep`` (the determinant) it stops at the last row's
    pivot, as nothing reads that row.
    """
    ncols = len(mat[0]) if mat else 0
    w = 2 * p.bit_length() + (2 * min(len(mat), ncols) + 1).bit_length()
    mask = (1 << w) - 1
    rows = [pack_row(row, p, w) for row in mat]
    leads, pivots, out, det, skip = [], [], [], 1, 0
    for c in range(ncols):
        if not rows:
            break
        s = skip * w  # column c is slot ``skip`` of the rows not yet pivots
        low = mask << s
        fs = [((v & low) >> s) % p for v in rows]
        for j, f in enumerate(fs):
            if f:
                break
        else:
            skip += 1
            continue
        if j:
            rows[0], rows[j], fs[j] = rows[j], rows[0], fs[0]
            det = -det
        det = det * f % p
        if len(rows) == 1 and not keep:
            return out, pivots + [c], det
        vals = unpack_row(rows[0] >> s, ncols - c, p, w, pow(f, -1, p))
        lead = pack_row(vals, p, w)
        if reduced:
            for i, pc in enumerate(pivots):
                t = (c - pc) * w
                g = (leads[i] >> t & mask) % p
                if g:
                    leads[i] += (p - g) * lead << t
        tail, s, skip = lead >> w, s + w, 0
        rows = [(v >> s) + (p - f) * tail if f else v >> s
                for v, f in zip(rows[1:], fs[1:])]
        leads.append(lead)
        pivots.append(c)
        out.append(vals)
    if reduced:
        out = [unpack_row(v, ncols - c, p, w) for v, c in zip(leads, pivots)]
    return out, pivots, det


def kernel_basis(rows, pivots, ncols, ring):
    """Canonical right-kernel basis, one vector per free column f, from
    the rows of ``rref``, reduced or not.  Each vector is back-substituted
    on its own: v[f] = 1, then, last pivot first, v[pc] = −row·v over f
    and the later pivot columns (the rest of the row meets zeros of v)."""
    kernel = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = {f: ring.one}
        for row, pc in zip(rows[::-1], pivots[::-1]):
            v[pc] = ring.neg(ring.dot([row[c] for c in v], list(v.values())))
        kernel.append([v.get(c, ring.zero) for c in range(ncols)])
    return kernel


def mat_rank(mat, ring) -> int:
    _, pivots = rref(mat, ring, reduced=False)
    return len(pivots)


def solve_affine(mat, b, ring):
    """A solution x of ``mat @ x = b``, zero on every free column.

    Raises ``Infeasible`` when b lies outside the column span, which is
    when the augmented column [mat | b] takes a pivot of its own.
    """
    ncols = len(mat[0]) if mat else 0
    rows, pivots = rref([list(row) + [bv] for row, bv in zip(mat, b)], ring)
    if pivots and pivots[-1] == ncols:
        raise Infeasible("right-hand side outside column span")
    part = [ring.zero] * ncols
    for row, pc in zip(rows, pivots):
        part[pc] = row[ncols]
    return part


def random_combination(rows, fp, rng):
    """A random F_p-linear combination of ``rows``, one draw per row."""
    y = [0] * len(rows[0])
    for row in rows:
        y = fp.axpy(rng.field(fp.p), row, y)
    return y


def charpoly(mat, fp):
    """Characteristic polynomial det(x·I − A) over F_p, ascending, monic.

    A similarity transform takes A to upper Hessenberg form H, and the
    leading principal minors of x·I − H then satisfy a short recurrence
    (Cohen, A Course in Computational Algebraic Number Theory, Alg.
    2.2.9): O(n^3) field operations and no division by a polynomial.
    """
    p = fp.p
    n = len(mat)
    h = [[v % p for v in row] for row in mat]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue  # column m-1 is already zero below the subdiagonal
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        inv = pow(h[m][m - 1], -1, p)
        hm = h[m]
        # H ← L⁻¹·H·L with L = I + Σ u_i·e_i·e_mᵀ: all row updates use the
        # untouched row m, then column m takes every update at once.
        mults = []
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % p
            if u:
                hi = h[i]
                h[i] = hi[:m - 1] + [(a - u * b) % p
                                     for a, b in zip(hi[m - 1:], hm[m - 1:])]
                mults.append((i, u))
        if mults:
            for row in h:
                row[m] = (row[m] + sum(u * row[i] for i, u in mults)) % p
    polys = [[1]]
    for m in range(n):
        # (x − h[m][m])·P_m, then the subdiagonal-product corrections
        prev = polys[m]
        cur = [0] + prev
        hmm = h[m][m]
        for j, c in enumerate(prev):
            cur[j] -= hmm * c
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            w = t * h[i][m] % p
            if w:
                for j, c in enumerate(polys[i]):
                    cur[j] -= w * c
        polys.append([c % p for c in cur])
    return polys[n]


def newton_divided(values, fp):
    """Newton coefficients of the values at s = 0, 1, 2, …: divided
    differences, where nodes j apart differ by j, so level j takes one
    inverse.  Coefficient j reads only the values at 0..j."""
    p = fp.p
    coef = list(values)
    for j in range(1, len(coef)):
        inv = fp.inv(j)
        for i in range(len(coef) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * inv % p
    return coef


def newton_to_power(coef, fp):
    """Power coefficients, ascending, of Σ_j c_j·s(s − 1)…(s − j + 1), by
    nested multiplication with (s − j).  Power coefficient i reads only
    the Newton coefficients from i on."""
    p = fp.p
    poly = []
    for j in range(len(coef) - 1, -1, -1):
        poly = [(a - j * b) % p for a, b in zip([0] + poly, poly + [0])]
        poly[0] = (poly[0] + coef[j]) % p
    return poly


def lagrange_interpolate(values, degree_bound, fp):
    """Coefficients (ascending, trimmed) of the unique poly of degree <=
    bound through the values at s = 0, 1, 2, ….

    Newton interpolation through every value: the Newton coefficients
    past the bound must vanish, which checks the surplus values exactly.
    """
    if len(values) < degree_bound + 1:
        raise ValueError("need at least degree_bound + 1 values")
    coef = newton_divided(values, fp)
    if any(coef[degree_bound + 1:]):
        raise ValueError("surplus value off the interpolated polynomial")
    poly = newton_to_power(coef[:degree_bound + 1], fp)
    while poly and poly[-1] == 0:
        poly.pop()
    return poly
