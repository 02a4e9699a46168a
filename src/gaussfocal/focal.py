"""Focal divisors of first-order families of linear spaces.

A family chart holds a center space Λ (rows of A) together with matrices
B_j describing how Λ moves to first order along r directions.  The
characteristic matrix M(t) has one construction: reduce every B row
modulo Λ, and row j of M(t) is t·B_j in the r normal directions that
the reduced rows span.  A family whose deformations span any other
number of normal directions is rejected.  det M is the focal form: a
degree-r hypersurface in Λ whose multiplicity structure, reduced
equation, quadric rank and containment in the singular locus are what
the rest of the package reports on.  A Gauss-fibre chart draws its
transversal directions here and takes their first-order fibres, r B
matrices over F_p, from one ``gaussmap.first_order_fiber`` call: no
slot of its packed dual numbers reaches this module.

Everything here is exact arithmetic over F_p: derivatives come from dual
numbers, multiplicities from univariate squarefree decomposition along
lines.  det M on a line is always read as a matrix pencil:
det(M(t) + s·M(v)) is det M(t) times det(I + s·M(t)⁻¹M(v)), so one
elimination and one characteristic polynomial give the line polynomial
up to the constant det M(t), which is never needed.  The reduced form q
of det M = c·q^μ comes from that pencil too: on the line
t* + s·v the pencil polynomial is (q(t* + s·v)/q(t*))^μ, so its μ-th
root as a power series (Miller's recurrence) gives q on any line, and a
root that does not stop at degree d rejects the form.  A q with few
coefficients is then expanded from its values on a simplex grid; a q
with many stays implicit.  Matrices read many times are packed once
(``fieldcore.pack_row``): M(t)'s k+1 coefficient layers, the pencil
slices of K, and Λ's echelon rows that reduce the B rows.  A focal
report holds only what the divisor gives (profile, q, its quadric rank,
a focal point); containment and the bounds are judged by the trial that
reads them.
"""

from __future__ import annotations

from math import comb
from operator import mul as _mul

from .fieldcore import (
    Degeneracy,
    DegeneratePivot,
    Infeasible,
    Violation,
    charpoly,
    dual_partials,
    mat_rank,
    newton_divided,
    newton_to_power,
    pack_row,
    random_combination,
    rref,
    solve_affine,
    unpack_row,
    vecmat,
)
from .gaussmap import first_order_fiber
from .mpoly import (
    CharTooSmall,
    SparsePoly,
    det_ring,
    line_zeros,
    on_line,
    squarefree_profile,
)


class NotDegenerate(Violation):
    """The fibres are points; there is no family to take a chart of."""


class ChartFailed(Degeneracy):
    """All retries at drawing transversal deformation directions failed."""


class NonVanishingTransversalComponent(Violation):
    """A deformation row left the tangent space: bad chart or bad center."""


class DeformationSpanMismatch(Violation):
    """The deformations do not span exactly r normal directions."""


class DependentFamilyBasis(Violation):
    """The rows meant to span the center space Λ are linearly dependent."""


class DegenerateLines(Degeneracy):
    """Line sampling kept hitting degree drops in the focal form."""


class ProfileDisagreement(Violation):
    """Non-degenerate lines produced different multiplicity patterns."""


class ExtractionFailed(Violation):
    """The focal form is not a perfect power of a single reduced form."""


class ContainmentFailed(Violation):
    """A focal point escaped the singular locus (or a witness missed it)."""


# --- family charts -----------------------------------------------------------


class FamilyChart:
    """First-order family of linear spaces: Λ(ε) = rowspan(A + ε B_j)."""

    __slots__ = ("basis", "bmats", "dirs", "k", "r")

    def __init__(self, basis, bmats, dirs=None):
        self.basis = basis
        self.bmats = bmats
        self.dirs = dirs
        self.k = len(basis) - 1
        self.r = len(bmats)


def fiber_family_chart(fiber, fp, rng) -> FamilyChart:
    """Chart of the fibre family at ``fiber``: r transversal directions
    w_j and the corresponding first-order deformations of the fibre."""
    if fiber.k == 0:
        raise NotDegenerate("point fibres admit no focal geometry")
    frame = fiber.frame
    for _ in range(16):
        dirs = [random_combination(frame.tangent, fp, rng)
                for _ in range(fiber.r)]
        if mat_rank(fiber.basis + dirs, fp) != fiber.k + 1 + fiber.r:
            continue
        try:
            return FamilyChart(fiber.basis,
                               first_order_fiber(fiber, dirs, fp), dirs)
        except DegeneratePivot:
            continue
    raise ChartFailed("no transversal direction set survived 16 draws")


def hyperband_chart(fam, fp) -> FamilyChart:
    """Chart of an explicitly parametrized line family: differentiate the
    2×(N+1) chart matrix in each parameter with dual numbers."""
    basis = fam.chart_matrix(fam.center, fp)
    bmats = []
    for dual_rows in dual_partials(fam.chart_matrix, fam.center, fp.p):
        if [[u for u, _ in row] for row in dual_rows] != basis:
            raise ChartFailed("family chart drifted at its own center")
        bmats.append([[s for _, s in row] for row in dual_rows])
    return FamilyChart(basis, bmats)


# --- characteristic matrices --------------------------------------------------


def _pack_layers(layers, p):
    """Equal-shape matrices as integers, entries mod p in w-bit slots row
    by row (``pack_row``): w = 2·bits(p) + bits(len(layers)) holds any
    combination of them all by residues (``_combination``)."""
    w = 2 * p.bit_length() + len(layers).bit_length()
    return w, [pack_row([v for row in m for v in row], p, w) for m in layers]


def _combination(packed, y, r, p):
    """Σ_i y_i·layers[i] for ``_pack_layers`` r×r layers, as residue
    rows."""
    w, ints = packed
    vals = unpack_row(sum(map(_mul, map(p.__rmod__, y), ints)), r * r, p, w)
    return [vals[i:i + r] for i in range(0, r * r, r)]


class CharMatrix:
    """Square matrix of homogeneous linear forms on Λ.

    ``entries[j][l]`` is the coefficient vector (length k+1) of the form
    in row j, column l; ``value`` instantiates the matrix at a point t as
    Σ_i t_i·M_i, from the k+1 coefficient layers M_i, packed on the first
    read under each prime.
    """

    __slots__ = ("entries", "r", "k", "_layers")

    def __init__(self, entries, k):
        self.entries = entries
        self.r = len(entries)
        self.k = k
        self._layers = None

    def value(self, t, fp):
        if self._layers is None or self._layers[0] != fp.p:
            self._layers = fp.p, _pack_layers(
                [[[e[i] for e in row] for row in self.entries]
                 for i in range(self.k + 1)], fp.p)
        return _combination(self._layers[1], t, self.r, fp.p)

    def det_at(self, t, fp):
        return det_ring(self.value(t, fp), fp)


def _reduce_by(rows, leads, pivots, p, keep):
    """The columns ``keep`` of ``rows`` reduced by the echelon rows
    ``leads`` with unit pivots, in pivot order, on rows packed by
    ``pack_row`` and leads packed once; no slot passes
    (len(leads) + 1)·p² < 2^w."""
    w = 2 * p.bit_length() + (len(leads) + 1).bit_length()
    mask = (1 << w) - 1
    packed = [(pack_row(lead, p, w), pc * w)
              for lead, pc in zip(leads, pivots)]
    out = []
    for row in rows:
        v = pack_row(row, p, w)
        for lead, s in packed:
            f = (v >> s & mask) % p
            if f:
                v += (p - f) * lead
        vals = unpack_row(v, len(row), p, w)
        out.append([vals[c] for c in keep])
    return out


def characteristic_matrix(chart: FamilyChart, fp) -> CharMatrix:
    """The r×r matrix of linear forms t ↦ (t·B_j mod Λ).

    Every B row is reduced modulo Λ = rowspan(A) by A's echelon rows in
    pivot order, to the one representative zero on every pivot column.
    The reduced rows of all B_j must span exactly r normal directions
    (else ``DeformationSpanMismatch``), and M keeps the r pivot columns
    of that span, so det M is the focal form up to a nonzero constant.
    A chart with transversal directions w_1..w_r must also keep its
    deformations in the tangent space: the reduced [w̄; B̄] has rank r,
    or a deformation row left it (``NonVanishingTransversalComponent``).
    That rank is the span's plus the rank of each w̄ reduced by the
    span's echelon rows, so the span is eliminated once.
    """
    p, k1, r = fp.p, chart.k + 1, chart.r
    arr, apiv = rref(chart.basis, fp, reduced=False)
    if len(apiv) != k1:
        raise DependentFamilyBasis("family basis rows are dependent")
    free = [c for c in range(len(chart.basis[0])) if c not in set(apiv)]
    flat = _reduce_by([row for bmat in chart.bmats for row in bmat], arr,
                      apiv, p, free)
    srows, cols = rref(flat, fp, reduced=False)
    if chart.dirs is not None and len(cols) + mat_rank(_reduce_by(
            _reduce_by(chart.dirs, arr, apiv, p, free), srows, cols, p,
            range(len(free))), fp) != r:
        raise NonVanishingTransversalComponent(
            "a deformation row left the tangent space")
    if len(cols) != r:
        raise DeformationSpanMismatch(
            f"the deformations span {len(cols)} normal directions, "
            f"not r = {r}")
    entries = [[[flat[j * k1 + i][l] for i in range(k1)] for l in cols]
               for j in range(r)]
    return CharMatrix(entries, chart.k)


# --- focal profiles -----------------------------------------------------------


def focal_profile(charm: CharMatrix, fp, rng, lines: int):
    """Consensus multiplicity profile over random lines in Λ.

    Returns (profile, total degree) where the profile is a tuple of
    (multiplicity, class degree) pairs.  Degree-dropped lines are thrown
    away and redrawn; surviving lines must agree exactly.  Each line
    a + s·d is read off the pencil through d: det M(a + s·d) is det M(d)
    times the reversal of det(I + s·M(d)⁻¹M(a)), which is monic of
    degree r, so a singular M(d) is the degree drop.
    """
    consensus, total = None, None
    for _ in range(lines):
        prof = None
        for _attempt in range(16):
            a = [rng.field(fp.p) for _ in range(charm.k + 1)]
            d = [rng.field(fp.p) for _ in range(charm.k + 1)]
            slices = _pencil_slices(charm, d, [a], fp)
            if slices is None:
                continue
            prof = tuple(squarefree_profile(
                _pencil_line(slices[0], fp)[::-1], fp))
            break
        if prof is None:
            raise DegenerateLines("the focal form kept dropping degree")
        if consensus is None:
            consensus = prof
            total = sum(m * d_ for m, d_ in prof)
        elif prof != consensus:
            raise ProfileDisagreement(f"line profiles differ: "
                                      f"{consensus} vs {prof}")
    return consensus, total


# --- reduced-form extraction ---------------------------------------------------


class ReducedForm:
    """An explicit form on Λ: ``poly`` in native fibre coordinates,
    evaluated by its compiled program.

    Every reduced form offers ``nvars``, ``degree()`` and ``value(t, fp)``
    on native fibre coordinates, and ``basis``: None here, the private
    basis of Λ-coordinates of an implicit ``PencilForm``.
    """

    __slots__ = ("poly", "basis", "nvars", "_prog")

    def __init__(self, poly: SparsePoly):
        self.poly = poly
        self.basis = None
        self.nvars = poly.nvars
        self._prog = poly.compile()

    def degree(self) -> int:
        return self.poly.degree()

    def value(self, t, fp):
        return self._prog.eval(t, fp)


def _series_root(f, mu, inv, fp):
    """g = f^(1/μ) as a power series modulo s^len(f), for f_0 = 1 and
    g_0 = 1, by J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2,
    §4.7):  n·g_n = Σ_{j=1..n} (j/μ − (n − j))·f_j·g_{n−j}.  ``inv[n]``
    is n⁻¹ for 1 ≤ n < len(f), and μ < len(f)."""
    p = fp.p
    imu = inv[mu]
    g = [1] + [0] * (len(f) - 1)
    for n in range(1, len(f)):
        acc = sum((j * imu - n + j) * f[j] * g[n - j]
                  for j in range(1, n + 1))
        g[n] = acc % p * inv[n] % p
    return g


class PencilForm(ReducedForm):
    """The reduced form q held implicitly by the pencil at t*, in the
    basis [t*, e_1..e_k] of Λ (t*_0 ≠ 0).

    With S_i = M(t*)⁻¹M(e_i), a point t = y_0·t* + Σ y_i·e_i, that is
    y_0 = t_0/t*_0 and y_i = t_i − y_0·t*_i, gives K = Σ y_i·S_i (the
    slices packed once, by ``_pack_layers``), and
    det(I + s·K) = (q(t* + s·v)/q(t*))^μ on the line through
    v = Σ y_i·e_i.  Its μ-th root g (``_series_root``) must stop at
    degree d, or det M is not a μ-th power on that line
    (``ExtractionFailed``); then q(t)/q(t*) = y_0^d·g(1/y_0) =
    Σ_n g_n·y_0^(d−n).
    """

    __slots__ = ("mu", "d", "_t0inv", "_slices", "_inv")

    def __init__(self, basis, slices, mu, d, fp):
        self.poly = None
        self.basis = basis
        self.nvars = len(basis)
        self.mu, self.d = mu, d
        self._t0inv = pow(basis[0][0], -1, fp.p)
        self._slices = _pack_layers(slices, fp.p)
        self._inv = [0] + [pow(n, -1, fp.p) for n in range(1, mu * d + 1)]

    def degree(self) -> int:
        return self.d

    def value(self, t, fp):
        p, d, r = fp.p, self.d, self.mu * self.d
        y0 = t[0] * self._t0inv % p
        y = [(ti - y0 * si) % p for ti, si in zip(t[1:], self.basis[0][1:])]
        kmat = _combination(self._slices, y, r, p)
        g = _series_root(_pencil_line(kmat, fp), self.mu, self._inv, fp)
        if any(g[d + 1:]):
            raise ExtractionFailed(f"det M is not a {self.mu}-th power "
                                   f"on a line")
        return sum(gn * pow(y0, d - n, p)
                   for n, gn in enumerate(g[:d + 1])) % p


def _pencil_slices(charm, base, dirs, fp):
    """The matrices M(base)⁻¹·M(v) for v in dirs, from one elimination of
    [M(base) | M(v_1) | … | M(v_k)]; None when M(base) is singular."""
    r = charm.r
    blocks = [charm.value(v, fp) for v in dirs]
    rows, pivots = rref([m + [v for blk in blocks for v in blk[a]]
                         for a, m in enumerate(charm.value(base, fp))], fp)
    if pivots[:r] != list(range(r)):
        return None
    return [[row[(i + 1) * r:(i + 2) * r] for row in rows]
            for i in range(len(blocks))]


def _pencil_line(kmat, fp):
    """All r+1 coefficients, ascending, of det(I + s·K), which is
    det(M(base) + s·M(v)) / det M(base) for K = M(base)⁻¹·M(v): with
    χ(x) = det(x·I − K) the s^m coefficient is (−1)^m·χ_{r−m}, one
    characteristic polynomial instead of r+1 determinants."""
    r = len(kmat)
    chi = charpoly(kmat, fp)
    return [(-chi[r - m] if m % 2 else chi[r - m]) % fp.p
            for m in range(r + 1)]


def _pencil_form(charm, mu, d, fp, rng):
    """The implicit form of q at a random t* with t*_0 ≠ 0 and M(t*)
    nonsingular: the pencil slices M(t*)⁻¹M(e_i) (``PencilForm``)."""
    nv = charm.k + 1
    units = [[int(i == j) for j in range(nv)] for i in range(1, nv)]
    for _ in range(8):
        tstar = [rng.field(fp.p) for _ in range(nv)]
        if tstar[0] == 0:
            continue
        slices = _pencil_slices(charm, tstar, units, fp)
        if slices is None:
            continue
        return PencilForm([tstar] + units, slices, mu, d, fp)
    raise ExtractionFailed("no t* with a nonsingular M(t*) in 8 draws")


def _simplex_nodes(k, d):
    if k == 0:
        return [()]
    out = []
    for head in range(d + 1):
        for rest in _simplex_nodes(k - 1, d - head):
            out.append((head,) + rest)
    return out


def _expand(form, fp):
    """The explicit ``ReducedForm`` of an implicit one, from its values
    at the native simplex nodes t = (1, e), |e| ≤ d: ``newton_divided``
    along every axis line of the grid, then ``newton_to_power`` along
    every axis line.  Both maps are triangular on a line, so the lines
    inside the simplex suffice as long as every axis is differenced
    before any goes back to powers; both fix a line of one node.  The
    result at e is the coefficient of t₀^(d−|e|)·tᵉ."""
    d, nv = form.d, form.nvars
    nodes = _simplex_nodes(nv - 1, d)
    grid = {e: form.value([1, *e], fp) for e in nodes}
    starts = [e for e in nodes if sum(e) < d]
    for step in (newton_divided, newton_to_power):
        for i in range(nv - 1):
            for node in starts:
                if node[i]:
                    continue
                line = [node[:i] + (j,) + node[i + 1:]
                        for j in range(d - sum(node) + 1)]
                grid.update(zip(line, step([grid[e] for e in line], fp)))
    return ReducedForm(SparsePoly(nv, {(d - sum(e),) + e: c
                                       for e, c in grid.items() if c}))


def _proportional(f, g, nv, fp, rng, points):
    """Whether f = c·g for one constant c ≠ 0, tested at random points of
    F_p^nv: ``points`` of them where neither side vanishes, from at most
    64 draws.  A point where exactly one side vanishes is a failure."""
    base = None
    for _ in range(64):
        if points == 0:
            break
        t = [rng.field(fp.p) for _ in range(nv)]
        fv, gv = f(t, fp), g(t, fp)
        if base is None:
            if fv == 0 or gv == 0:
                if (fv == 0) != (gv == 0):
                    return False
                continue
            base = (fv, gv)
        elif fv * base[1] % fp.p != gv * base[0] % fp.p:
            return False
        points -= 1
    return points == 0


def _verify_power(charm, form, mu, fp, rng):
    def q_mu(t, fp):
        return pow(form.value(t, fp), mu, fp.p)

    if not _proportional(charm.det_at, q_mu, charm.k + 1, fp, rng, 10):
        raise ExtractionFailed("power identity failed at a fresh point")


MAX_EXPLICIT_COEFFS = 220


def extract_reduced_power(charm: CharMatrix, mu: int, reduced_degree: int,
                          fp, rng) -> ReducedForm:
    """The form q with det M = c·q^μ, verified at 10 fresh points.

    q comes from the pencil: a ``PencilForm`` keeps the slices at a
    random basis of Λ and evaluates q(t)/q(t*) as the μ-th root of one
    characteristic polynomial, checking at every point that the root
    stops at degree d.  Up to ``MAX_EXPLICIT_COEFFS`` coefficients that
    form is expanded into an explicit ``ReducedForm`` from its values on
    the simplex grid (``_expand``); with more, q stays implicit.
    """
    if mu * reduced_degree != charm.r:
        raise ExtractionFailed("multiplicity times reduced degree "
                               "must equal the focal degree")
    if fp.p <= charm.r:
        raise CharTooSmall("field too small for the focal degree")
    form = _pencil_form(charm, mu, reduced_degree, fp, rng)
    if comb(charm.k + reduced_degree, reduced_degree) <= MAX_EXPLICIT_COEFFS:
        form = _expand(form, fp)
    _verify_power(charm, form, mu, fp, rng)
    return form


# --- reduced-form consumers ----------------------------------------------------


def quadric_rank(form: ReducedForm, fp) -> int:
    """Rank of a quadric form (char ≠ 2): the rank of its Gram matrix in
    the form's basis (the unit vectors when it has none), read by
    polarization, G_ij = q(b_i + b_j) − q(b_i) − q(b_j) and G_ii =
    2·q(b_i).  The rank depends neither on the basis nor on the scale."""
    n, p = form.nvars, fp.p
    basis = form.basis or [[int(i == j) for j in range(n)] for i in range(n)]
    diag = [form.value(b, fp) for b in basis]
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * diag[i] % p
        for j in range(i):
            both = [(u + v) % p for u, v in zip(basis[i], basis[j])]
            gram[i][j] = gram[j][i] = \
                (form.value(both, fp) - diag[i] - diag[j]) % p
    return mat_rank(gram, fp)


def _zero_lines(form: ReducedForm, fp, rng):
    """``line_zeros`` of the form on random lines in Λ."""
    return line_zeros(
        lambda a, d: on_line(form.value, form.degree(), a, d, fp),
        form.nvars, fp, rng)


def form_zero_point(form: ReducedForm, fp, rng):
    """A point of {form = 0} in fibre coordinates, via random lines."""
    return next((pts[0] for pts in _zero_lines(form, fp, rng)), None)


class Containment:
    __slots__ = ("status", "zeros", "witnesses")

    def __init__(self, status, zeros, witnesses):
        self.status = status
        self.zeros = zeros
        self.witnesses = witnesses


def sing_containment(spec, fiber, form: ReducedForm, fp, rng,
                     witnesses=None) -> Containment:
    """Checks that the reduced focal form lands in the singular locus.

    Zeros of the form (sampled through random lines in Λ) must satisfy
    every singular-locus generator; rank-decomposition witnesses of the
    center point must lie on Λ and on the form.  Violations raise
    ContainmentFailed; with nothing to check the verdict is Skipped.
    """
    zeros = 0
    if spec.singular is not None:
        for lines, pts in enumerate(_zero_lines(form, fp, rng), 1):
            for t in pts:
                z = vecmat(t, fiber.basis, fp)
                if not spec.singular.vanishes(z, fp):
                    raise ContainmentFailed(
                        f"focal zero escapes the singular locus: {z}")
                zeros += 1
            if lines == 5:
                break
    checked = 0
    if witnesses:
        at = [list(col) for col in zip(*fiber.basis)]
        for w in witnesses:
            try:
                tco = solve_affine(at, w, fp)
            except Infeasible as exc:
                raise ContainmentFailed(
                    "a witness point lies outside the fibre") from exc
            if not fp.is_zero(form.value(tco, fp)):
                raise ContainmentFailed(
                    "a witness point misses the reduced focal form")
            checked += 1
    status = "Pass" if (zeros or checked) else "Skipped"
    return Containment(status, zeros, checked)


def char_kernel_at_point(charm: CharMatrix, t, fp) -> int:
    """Kernel dimension of the characteristic matrix at a point of Λ."""
    return charm.r - mat_rank(charm.value(t, fp), fp)


# --- reports and bound checks ---------------------------------------------------


class FocalReport:
    """What one focal divisor gives: its profile, μ and d, the reduced
    form (or why it could not be extracted), its quadric rank and a
    focal point."""

    __slots__ = ("r", "degree", "profile", "mu", "reduced_degree",
                 "reduced_form", "q_rank", "focus", "extraction_error")

    def __init__(self, r=None, degree=None, profile=None, mu=None,
                 reduced_degree=None):
        self.r = r
        self.degree = degree
        self.profile = profile
        self.mu = mu
        self.reduced_degree = reduced_degree
        self.reduced_form = None
        self.q_rank = None
        self.focus = None
        self.extraction_error = None


def _verdict(holds):
    return "Pass" if holds else "Fail"


def check_bounds(report: FocalReport, c) -> dict:
    """The inequality battery on a report and the fibre codimension c, in
    a fixed order: each bound's name maps to Pass, Fail or Skipped (an
    input it needs is missing, or, for the extremal pattern, c is not
    r/2 + 1)."""
    mu, r = report.mu, report.r
    red = report.reduced_degree
    bounds = {}
    if c is None or mu is None:
        bounds["mu_ge_c_minus_1"] = "Skipped"
    else:
        bounds["mu_ge_c_minus_1"] = _verdict(mu >= c - 1)
    if c is None or r is None:
        bounds["c_le_r_plus_1"] = "Skipped"
    else:
        bounds["c_le_r_plus_1"] = _verdict(c <= r + 1)
    if c is None or r is None or red is None or red < 2:
        bounds["nonlinear_c_bound"] = "Skipped"
    else:
        bounds["nonlinear_c_bound"] = _verdict(2 * c <= r + 2)
    if c is None or r is None or mu is None or red is None or 2 * c != r + 2:
        bounds["extremal_pattern"] = "Skipped"
    else:
        bounds["extremal_pattern"] = _verdict(
            (mu >= c and red == 1) or (mu == r // 2 and red == 2))
    return bounds


def focal_report(charm: CharMatrix, fp, rng, lines: int) -> FocalReport:
    """Profile over ``lines`` random lines, extraction, quadric rank and a
    focal point (``focus``, in fibre coordinates) for one characteristic
    matrix, rolled into a report."""
    profile, degree = focal_profile(charm, fp, rng, lines)
    rep = FocalReport(r=charm.r, degree=degree, profile=profile)
    if len(profile) == 1:
        rep.mu, rep.reduced_degree = profile[0]
        try:
            rep.reduced_form = extract_reduced_power(
                charm, rep.mu, rep.reduced_degree, fp, rng)
        except ExtractionFailed as exc:
            rep.extraction_error = str(exc)
    form = rep.reduced_form
    if form is not None:
        if rep.reduced_degree == 2:
            rep.q_rank = quadric_rank(form, fp)
        rep.focus = form_zero_point(form, fp, rng)
    return rep


def chart_independence(charm, fiber, fp, rng) -> bool:
    """The characteristic matrix ``charm`` of a chart of ``fiber`` and
    that of one freshly drawn chart must give proportional focal forms
    (checked at 5 random points)."""
    fresh = characteristic_matrix(fiber_family_chart(fiber, fp, rng), fp)
    return _proportional(charm.det_at, fresh.det_at, fiber.k + 1, fp, rng, 5)
