"""Tangent spaces and the linear fibres along which they stay constant.

All linear algebra happens on the affine cone: points are coordinate
vectors of length N+1 and the tangent space at a smooth point is the
kernel of the Jacobian of a transversal subset of the generators.  The
fibre through a point collects the tangent directions v with
t^T H(g) v = 0 for every tangent t and every generator g of the subset;
its correctness is then re-checked against the full generator list, read
at each point by ``VarietySpec.vanishes`` (one matrix rank on a rank
locus of more than one generator, the programs one by one otherwise).
The first-order fibres of a focal chart, its B matrices, are solved here
in one call per chart with the center fibre's solver matrix.  Only each
direction's Jacobian and its elimination are over F_p[ε], and its T₁ is
one F_p back-substitution.  As D³g is symmetric, the chart then takes
one Hessian sweep per fibre vector and generator, packed over all its
directions: the check S₀·k₀ = 0, the solve and the flatness check run
once per fibre vector on rows packed over the directions.
"""

from __future__ import annotations

from operator import mul

from .fieldcore import (
    Degeneracy,
    DegeneratePivot,
    Dual2Fp,
    DualFp,
    Violation,
    kernel_basis,
    mat_rank,
    pack_row,
    random_combination,
    rref,
    unpack_row,
    vecmat,
)


class SingularSamplePoint(Degeneracy):
    """Jacobian rank at the sampled point differs from the codimension."""


class FiberVerificationFailed(Violation):
    """A computed fibre failed one of its a-posteriori checks."""


class PointOffVariety(Violation):
    """A generator does not vanish where a tangent frame is asked for."""


class NoCodimension(Violation):
    """The expected dimension is not below the ambient one."""


class TangentFrame:
    """A smooth point together with a transversal generating subset.

    ``gens`` are the generators whose gradients at ``x`` already span the
    full conormal space, ``tangent`` is the canonical kernel basis of
    their Jacobian, and ``tan_pivots`` records which coordinate columns
    carried the pivots, so that an elimination over a dual ring can be
    checked to keep the same echelon shape.
    """

    __slots__ = ("x", "gens", "tan_pivots", "tangent", "n", "codim")

    def __init__(self, x, gens, tan_pivots, tangent, n, codim):
        self.x = x
        self.gens = gens
        self.tan_pivots = tan_pivots
        self.tangent = tangent
        self.n = n
        self.codim = codim


def tangent_space(spec, coords, fp, expected_dim: int) -> TangentFrame:
    """Tangent frame at ``coords``, or ``SingularSamplePoint`` when the
    Jacobian rank of the generators is not ``ambient_dim - expected_dim``."""
    codim = spec.ambient_dim - expected_dim
    if codim <= 0:
        raise NoCodimension("expected dimension must be below the ambient "
                            "one")
    if not spec.vanishes(coords, fp):
        raise PointOffVariety(f"{spec.name}: point is not on the variety")
    grads = spec.jacobian(coords, fp)
    # pivot columns of the transpose: the first gradients, in generator
    # order, that are independent of the ones before them
    _, picked = rref([list(col) for col in zip(*grads)], fp, reduced=False)
    if len(picked) != codim:
        raise SingularSamplePoint(f"{spec.name}: Jacobian rank {len(picked)} "
                                  f"differs from codimension {codim}")
    rows, pivots = rref([grads[i] for i in picked], fp, reduced=False)
    tangent = kernel_basis(rows, pivots, spec.ambient_dim + 1, fp)
    return TangentFrame(list(coords), [spec.generators[i] for i in picked],
                        pivots, tangent, expected_dim, codim)


class GaussFiber:
    """Linear fibre through ``frame.x``: basis rows span it, ``k`` is its
    projective dimension and ``r = n - k`` the tangent-map rank.

    It also keeps what ``first_order_fiber`` solves with, from the center
    fibre system S₀ over F_p: the pivot columns P of its RREF
    (``sys_pivots``; ``basis = K₀·tangent`` for its canonical kernel K₀,
    the k+1 vectors k₀), the rows Q of S₀ independent on P
    (``sys_rows``), the other rows (``sys_outside``) and one solver
    matrix (``sys_solver``): the rows of S₀[Q, P]⁻¹, then those of
    R = S₀[out, P]·S₀[Q, P]⁻¹.  S₀·c = −y has a solution c on P exactly
    when y[out] = R·y[Q], and then c[P] = −S₀[Q, P]⁻¹·y[Q].
    """

    __slots__ = ("frame", "basis", "k", "r", "sys_pivots", "sys_rows",
                 "sys_outside", "sys_solver")

    def __init__(self, frame, basis, k, r, sys_pivots, sys_rows,
                 sys_outside, sys_solver):
        self.frame = frame
        self.basis = basis
        self.k = k
        self.r = r
        self.sys_pivots = sys_pivots
        self.sys_rows = sys_rows
        self.sys_outside = sys_outside
        self.sys_solver = sys_solver


def hessian_rows(gens, x, on_pivots, pivots, vecs, ring, units=True):
    """Rows t_a·u per (generator g, tangent vector t_a), u the gradient of
    g at x + Σ_j v_j·e_j over ``Dual2Fp(p, len(vecs))``, for x over F_p
    or over F_p[d]: one Hessian sweep per g (``hess_vec``) over the F_p
    vectors v_j in ``vecs``, slope j of u being H_g·v_j.  A canonical
    kernel vector t_a is 1 at its free column f and otherwise on the
    ``pivots`` P, where ``on_pivots`` gives it as t0 + Σ_j s_j·e_j: its
    residues t0 and its e-slopes S, packed over j (() for none).  So
    t_a·u = u[f] + t_a[P]·u[P], and a row is that product but for its
    unit part ∇g·t_a, left 0: its d-part a1[f] + t0·a1[P], reduced, its
    d-slopes T = T[f] + t0·T[P] + a1[P]·S and, with ``units``, its unit
    slopes C = C[f] + t0·C[P] + a0[P]·S (else 0), packed sums of products
    under one ``Dual2Fp.fit`` bound per sweep."""
    p = ring.p
    ring2 = Dual2Fp(p, len(vecs))
    free = sorted(set(range(len(x))) - set(pivots))
    weight = 2 * p * len(pivots) + 1
    rows = []
    for g in gens:
        images, bound = ring2.fit(g.hess_vec(x, vecs, ring), weight)
        bound = max(bound, p * weight)  # S's slots are residues, < p
        a0s, a1s, cs, ts = ([images[c][k] for c in pivots] for k in range(4))
        for f, (t0, s) in zip(free, on_pivots):
            _, a1, c, t, _ = images[f]
            a1 = (a1 + sum(map(mul, t0, a1s))) % p
            t += sum(map(mul, t0, ts)) + sum(map(mul, a1s, s))
            c = (c + sum(map(mul, t0, cs)) + sum(map(mul, a0s, s))
                 if units else 0)
            rows.append((0, a1, c, t, bound))
    return rows


def fiber_system(gens, x, tangent, pivots, fp):
    """The bilinear system cutting the fibre out of the tangent space at
    x, over F_p: row (g, a), column b is t_a·(H_g·t_b), in the
    coordinates of the tangent basis."""
    ring2 = Dual2Fp(fp.p, len(tangent))
    on_pivots = [([t[c] for c in pivots], ()) for t in tangent]
    return [ring2.slots(row[2])
            for row in hessian_rows(gens, x, on_pivots, pivots, tangent, fp)]


def gauss_fiber(spec, frame, fp, rng) -> GaussFiber:
    """Fibre of the tangent map through ``frame.x``.

    The system only involves the frame's transversal subset; membership
    of the resulting linear space in the variety is then re-checked
    against every generator, by ``spec.vanishes``, at random points.
    """
    tan = frame.tangent
    system = fiber_system(frame.gens, frame.x, tan, frame.tan_pivots, fp)
    rows, sys_pivots = rref(system, fp, reduced=False)
    basis = [vecmat(c, tan, fp)
             for c in kernel_basis(rows, sys_pivots, len(tan), fp)]
    if not basis:
        raise FiberVerificationFailed("fibre lost the base point itself")
    # one elimination of [S₀[:, P]ᵀ | I] gives [E·S₀[:, P]ᵀ | E] with
    # E = S₀[Q, P]⁻ᵀ for the rows Q it pivots on: its right block holds
    # S₀[Q, P]⁻¹ and its left block Rᵀ at the columns outside Q
    rho, nrows = len(sys_pivots), len(system)
    ext, sys_rows = rref([[row[c] for row in system]
                          + [int(i == j) for j in range(rho)]
                          for i, c in enumerate(sys_pivots)], fp)
    in_q = set(sys_rows)
    outside = [i for i in range(nrows) if i not in in_q]
    solver = [[row[c] for row in ext]
              for c in [*range(nrows, nrows + rho), *outside]]
    k = len(basis) - 1
    fiber = GaussFiber(frame, basis, k, frame.n - k, sys_pivots, sys_rows,
                       outside, solver)
    _verify_fiber(fiber, fp, rng, spec)
    return fiber


def _verify_fiber(fiber, fp, rng, spec):
    frame = fiber.frame
    if mat_rank(fiber.basis + [frame.x], fp) != len(fiber.basis):
        raise FiberVerificationFailed("base point is outside the fibre span")
    for _ in range(10):
        y = random_combination(fiber.basis, fp, rng)
        if not spec.vanishes(y, fp):
            raise FiberVerificationFailed("a fibre point misses the variety")
    for _ in range(5):
        y = random_combination(fiber.basis, fp, rng)
        jac_y = [g.grad(y, fp) for g in frame.gens]
        if mat_rank(jac_y, fp) != frame.codim:
            raise FiberVerificationFailed(
                "tangent space degenerates along the fibre")
        for row in jac_y:
            for t in frame.tangent:
                if fp.dot(row, t):
                    raise FiberVerificationFailed(
                        "tangent space moves along the fibre")


def first_order_fiber(fiber, dirs, fp):
    """B matrices of the fibre at x + εw, one per w in ``dirs``, aligned
    with the center fibre; ``DegeneratePivot`` when a w has none.

    Only each Jacobian at x + εw and its elimination are over F_p[ε]; the
    elimination runs the center's on the unit parts, so its pivots P must
    be the center's, with echelon rows U₀ + ε·U₁.  The tangent basis
    T₀ + ε·T₁ has T₁ zero off P and, last pivot first, T₁[P_i] =
    −U₁[i]·T₀ − Σ_{j>i} U₀[i][P_j]·T₁[P_j]: one F_p back-substitution on
    T₀'s columns, packed once per chart.  The fibre row k₀·T₀ keeps its
    coordinates k₀ in T(ε), as J(ε)·(k₀·T₀) = ε·(w·H·k₀·T₀) = 0, so of
    the fibre system S₀ + ε·S₁ at w only S(ε)·k₀ is read, for the k+1
    center kernel vectors k₀ with fibre rows k = k₀·T₀.  Its slope at row
    (g, a) is t_a·D³g(x)[w, k] + T₁[a]·H_g(x)·k, and D³g is symmetric: so
    each k takes one Hessian sweep per generator at x + d·k over all the
    directions at once, packed over them as e-slopes, and ``hessian_rows``
    contracts it with each t_a + Σ_w T₁(w)[a]·e_w.  A row's d-part is
    t_a·H_g(x)·k, the unit part S₀·k₀, which must vanish.  k₀ lifts to
    k₀ + ε·c₁ with S₀·c₁ = −S₁·k₀: ``sys_solver`` times the d-slopes of
    the rows Q, the only parts read and reduced, gives −c₁ at every w and
    what the other rows' slopes must be, or the system is not flat.  The
    B row, the ε part of (k₀ + ε·c₁)·(T₀ + ε·T₁), is c₁·T₀ on rows of T₀
    packed once per chart.
    """
    frame = fiber.frame
    p, x, tan, pivots = fp.p, frame.x, frame.tangent, frame.tan_pivots
    dring, ring2 = DualFp(p), Dual2Fp(p, len(dirs))
    rho = len(fiber.sys_pivots)
    # T₀'s columns and rows; a slot sums under N + 1 + |P| terms < p²
    width = 2 * p.bit_length() + (len(x) + len(pivots)).bit_length()
    columns = [pack_row(col, p, width) for col in zip(*tan)]
    tan_rows = [pack_row(tan[c], p, width) for c in fiber.sys_pivots]
    t1s = []
    for w in dirs:
        x_eps = [dring.make(xi, wi) for xi, wi in zip(x, w)]
        rows, piv = rref([g.grad(x_eps, dring) for g in frame.gens], dring,
                         reduced=False)
        if piv != pivots:
            raise DegeneratePivot("tangent pivots moved off the center's")
        t1, t1_packed = [None] * len(pivots), [0] * len(pivots)
        for i in reversed(range(len(pivots))):
            v = sum(s * col for (_, s), col in zip(rows[i], columns) if s)
            v += sum(rows[i][pc][0] * t for pc, t in
                     zip(pivots[i + 1:], t1_packed[i + 1:]))
            t1[i] = unpack_row(v, len(tan), p, width, p - 1)
            t1_packed[i] = pack_row(t1[i], p, width)
        t1s.append(t1)
    # each t_a on P: its residues, and T₁[a][P] packed over the directions
    slopes = [[ring2.pack(s) for s in zip(*at_pi)] for at_pi in zip(*t1s)]
    on_pivots = [([t[c] for c in pivots], s)
                 for t, s in zip(tan, zip(*slopes))]
    brows = []
    for k in fiber.basis:
        x_k = [dring.make(xi, ki) for xi, ki in zip(x, k)]
        packed = hessian_rows(frame.gens, x_k, on_pivots, pivots, dirs,
                              dring, units=False)
        if any(row[1] for row in packed):
            raise DegeneratePivot("first-order fibre system drifted off "
                                  "its center")
        # T_i − R_i·T[Q] for i outside Q: each term within half the range
        on_q = ring2.fit_slopes([packed[i] for i in fiber.sys_rows],
                                2 * rho * p)
        outside = ring2.fit_slopes([packed[i] for i in fiber.sys_outside], 2)
        solved = [sum(map(mul, row, on_q)) for row in fiber.sys_solver]
        for t, want in zip(outside, solved[rho:]):
            if any(ring2.slots(t - want)):
                raise DegeneratePivot("first-order fibre system is not "
                                      "flat: no lift of a kernel vector")
        c1 = zip(*(ring2.slots(-y) for y in solved[:rho]))
        brows.append([unpack_row(sum(map(mul, c, tan_rows)), len(x), p,
                                 width) for c in c1])
    return [list(bmat) for bmat in zip(*brows)]
