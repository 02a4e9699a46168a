"""Varieties: rank loci, explicit hypersurfaces, a line family in P^6,
and the 27-coordinate cubic of 3x3 Hermitian matrices over split octonions.

A variety is presented by black-box generator programs plus a point
sampler.  Rank loci of symmetric/generic/skew matrices are cut out by
minors or sub-Pfaffians and sampled through explicit low-rank sums whose
summands are retained as witnesses.  Dimensions are always measured, not
assumed: the Jacobian of the generators at sampled smooth points.

A point is on a variety when ``VarietySpec.vanishes``, and every gradient
there comes from ``.jacobian``: for a rank locus with more than one
generator, one rank of its matrix and one Pfaffian memo of it; otherwise
the programs one by one (explicit specs, the Albert cubic and a locus of
one full det or Pf).  A det program's value over F_p comes from
elimination, or from a closed form up to 3×3; a Pf program's value and
every det or Pf gradient come from the bitmask memo.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from math import comb

from .fieldcore import Degeneracy, dual_partials, mat_rank
from .mpoly import (
    PolyProgram,
    SparsePoly,
    _det_block,
    _pf_solver,
    add_cofactors,
    line_zeros,
    restrict_to_line,
)


class RankDeficientSample(Degeneracy):
    """Sampler exhausted its retries without hitting the target stratum."""


class InconsistentDim(Degeneracy):
    """Jacobian-rank dimension probes disagreed across samples."""


class DegenerateSurface(Degeneracy):
    """Random surfaces for the line family failed the genericity check."""


class MatrixShape:
    """Coordinate layout for symmetric / generic / skew matrices of variables."""

    __slots__ = ("kind", "nrows", "ncols")

    def __init__(self, kind: str, nrows: int, ncols: int):
        self.kind = kind
        self.nrows = nrows
        self.ncols = ncols

    @classmethod
    def symmetric(cls, n: int) -> "MatrixShape":
        return cls("symmetric", n, n)

    @classmethod
    def generic(cls, nrows: int, ncols: int) -> "MatrixShape":
        return cls("generic", nrows, ncols)

    @classmethod
    def skew(cls, n: int) -> "MatrixShape":
        return cls("skew", n, n)

    @property
    def num_vars(self) -> int:
        n = self.nrows
        if self.kind == "symmetric":
            return n * (n + 1) // 2
        if self.kind == "skew":
            return n * (n - 1) // 2
        return self.nrows * self.ncols

    @property
    def ambient_dim(self) -> int:
        return self.num_vars - 1

    def matrix(self, x):
        """The nrows×ncols matrix of the coordinates x, the inverse of
        ``from_matrix``: row by row, each row's upper half is a run of x,
        mirrored below the diagonal (negated, zero diagonal, for skew)."""
        n, m, skew = self.nrows, self.ncols, self.kind == "skew"
        if self.kind == "generic":
            return [list(x[i * m:(i + 1) * m]) for i in range(n)]
        out, k = [], 0
        for i in range(n):
            out.append([-row[i] if skew else row[i] for row in out]
                       + [0] * skew + list(x[k:k + n - i - skew]))
            k += n - i - skew
        return out

    def from_matrix(self, mat, p: int):
        """The coordinates of a matrix: its rows' upper halves, in turn."""
        skew = self.kind == "skew"
        if self.kind == "generic":
            return [v % p for row in mat for v in row]
        return [v % p for i, row in enumerate(mat) for v in row[i + skew:]]


def _minor_order(shape: MatrixShape, rank_bound: int) -> int:
    """Order of the minors cutting out {rank <= rank_bound}: rank_bound+1,
    or the next even order for the sub-Pfaffians of a skew shape."""
    return rank_bound + (2 + rank_bound % 2 if shape.kind == "skew" else 1)


def singular_rank(shape: MatrixShape, rank_bound: int) -> int:
    """Rank bound of the singular locus of {rank <= rank_bound}: the
    next-lower rank stratum, two lower for skew (whose ranks are even);
    below 1 there is none."""
    return rank_bound - (2 if shape.kind == "skew" else 1)


def generator_count(shape: MatrixShape, rank_bound: int) -> int:
    """How many minors (or sub-Pfaffians, skew) ``rank_locus_generators``
    builds for this shape and rank bound, counted without building any;
    0 below rank 1, where ``rank_locus_spec`` builds no stratum."""
    size = _minor_order(shape, rank_bound)
    rows = comb(shape.nrows, size) if rank_bound >= 1 else 0
    if shape.kind == "symmetric":
        return rows * (rows + 1) // 2  # minor(I, J) = minor(J, I)
    return rows * comb(shape.ncols, size) if shape.kind == "generic" else rows


def _locus_sets(shape: MatrixShape, size: int):
    """The minors of order ``size`` (sub-Pfaffians, skew) as index sets of
    the locus matrix (``VarietySpec.jacobian``), in the order
    ``rank_locus_generators`` builds them: each set of ``size`` indices of
    a skew shape, else rows I and columns J as I + (n + J) (for symmetric,
    only I <= J)."""
    if shape.kind == "skew":
        yield from combinations(range(shape.nrows), size)
        return
    n = shape.nrows
    for ri in combinations(range(n), size):
        for ci in combinations(range(shape.ncols), size):
            if shape.kind == "symmetric" and ri > ci:
                continue  # minor(I,J) = minor(J,I)
            yield ri + tuple(n + j for j in ci)


def rank_locus_generators(shape: MatrixShape, rank_bound: int):
    """Programs cutting out {rank <= rank_bound}: the minors, or the
    sub-Pfaffians for skew, of order ``_minor_order``."""
    if rank_bound < 1:
        raise ValueError("rank bound must be at least 1")
    size = _minor_order(shape, rank_bound)
    grid = shape.matrix(range(shape.num_vars))
    if shape.kind == "skew":
        return [PolyProgram.pf(shape.num_vars,
                               [[grid[i][j] for j in sub[a + 1:]]
                                for a, i in enumerate(sub[:-1])])
                for sub in _locus_sets(shape, size)]
    n = shape.nrows
    return [PolyProgram.det(shape.num_vars,
                            [[grid[i][j - n] for j in sub[size:]]
                             for i in sub[:size]])
            for sub in _locus_sets(shape, size)]


class WitnessPoint:
    __slots__ = ("coords", "witnesses")

    def __init__(self, coords, witnesses=None):
        self.coords = coords
        self.witnesses = witnesses


def sample_rank_point(shape: MatrixShape, rank_bound: int, rng, fp) -> WitnessPoint:
    """A random matrix of exact rank ``rank_bound`` as a sum of rank-one
    (or rank-two, skew) summands; the summand coordinates are kept."""
    p = fp.p
    n, m = shape.nrows, shape.ncols
    skew = shape.kind == "skew"
    if skew and rank_bound % 2:
        raise ValueError("skew matrices have even rank")
    for _ in range(16):
        summands = []
        for _ in range(rank_bound // 2 if skew else rank_bound):
            u = [rng.field(p) for _ in range(n)]
            v = u if shape.kind == "symmetric" else [rng.field(p) for _ in range(m)]
            if skew:
                summands.append([[(ui * vj - vi * uj) % p for uj, vj in zip(u, v)]
                                 for ui, vi in zip(u, v)])
            else:
                summands.append([[ui * vj % p for vj in v] for ui in u])
        total = [[sum(col) % p for col in zip(*rows)]
                 for rows in zip(*summands)]
        if mat_rank(total, fp) != rank_bound:
            continue
        coords = shape.from_matrix(total, p)
        if any(coords):
            return WitnessPoint(coords, [shape.from_matrix(s, p) for s in summands])
    raise RankDeficientSample(
        f"no exact rank-{rank_bound} sample for {shape.kind}({n},{m})")


class VarietySpec:
    """A variety given by generator programs, with an optional descriptor
    of its singular locus (itself a VarietySpec) and a smooth-point sampler.

    ``vanishes`` is the one membership test of a point over F_p and
    ``jacobian`` gives every generator's gradient there, in generator
    order.  A rank locus with more than one generator keeps ``locus`` =
    (shape, minor order): it vanishes when rank M(x) < minor order, and
    its gradients are the signed cofactors (``add_cofactors``) of one
    bitmask Pfaffian memo (``_pf_solver``) of the skew matrix itself or of
    B = [[0, M], [-Mᵀ, 0]], where a minor on rows I and columns J of order
    s is (-1)^(s(s-1)/2)·Pf(B on I ∪ (n+J)).  Other specs loop over their
    programs, which stay for the dual-ring sweeps and the witness battery.
    """

    __slots__ = ("name", "ambient_dim", "generators", "singular", "sampler",
                 "locus")

    def __init__(self, name, ambient_dim, generators, singular, sampler,
                 locus=None):
        self.name = name
        self.ambient_dim = ambient_dim
        self.generators = generators
        self.singular = singular
        self.sampler = sampler
        self.locus = locus

    def vanishes(self, x, fp) -> bool:
        """Whether every generator vanishes at x: on a locus, whether the
        rank of M(x) is below the minor order."""
        if self.locus is None:
            return not any(g.eval(x, fp) for g in self.generators)
        shape, size = self.locus
        return mat_rank(shape.matrix(x), fp) < size

    def jacobian(self, x, fp):
        """Every generator's gradient at x."""
        if self.locus is None:
            return [g.grad(x, fp) for g in self.generators]
        shape, size = self.locus
        mat, coord = shape.matrix(x), shape.matrix(range(shape.num_vars))
        if shape.kind == "skew":
            rows, upper = 0, [row[i + 1:] for i, row in enumerate(mat[:-1])]
        else:  # B's index n + j is M's column j
            rows, upper = size, _det_block(mat, fp)
            coord = [[None] * shape.nrows + row for row in coord]
        pf = _pf_solver(upper, fp)
        return [add_cofactors([0] * shape.num_vars, pf, sub, coord, rows, fp)
                for sub in _locus_sets(shape, size)]


def _rank_stratum(name, shape: MatrixShape, rank_bound: int) -> VarietySpec:
    """{rank <= rank_bound} with no singular locus; its ``locus`` is set
    when more than one generator cuts it out."""
    gens = rank_locus_generators(shape, rank_bound)
    locus = (shape, _minor_order(shape, rank_bound)) if len(gens) > 1 else None
    return VarietySpec(name, shape.ambient_dim, gens, None,
                       partial(sample_rank_point, shape, rank_bound), locus)


def rank_locus_spec(shape: MatrixShape, rank_bound: int, name=None) -> VarietySpec:
    """The locus {rank <= rank_bound} with its singular locus, the
    ``singular_rank`` stratum.  That stratum carries no singular locus of
    its own: the focal checks read only the one below the variety."""
    if name is None:
        name = f"{shape.kind}-{shape.nrows}x{shape.ncols}-rank{rank_bound}"
    spec = _rank_stratum(name, shape, rank_bound)
    if not spec.generators:
        raise ValueError("rank bound does not constrain this shape")
    sing_rb = singular_rank(shape, rank_bound)
    if sing_rb >= 1:
        spec.singular = _rank_stratum(name + "-singular", shape, sing_rb)
    return spec


def _pencil_roots(prog, fp, rng):
    """Points of {prog = 0}: the first root on each line of ``line_zeros``."""
    for x, *_ in line_zeros(lambda a, d: restrict_to_line(prog, a, d, fp),
                            prog.arity, fp, rng):
        yield x


def hypersurface_spec(name, prog, singular=None) -> VarietySpec:
    """The hypersurface {prog = 0}, sampled at smooth pencil roots;
    ``singular`` lists generators of its singular locus, if known."""

    def sampler(rng, fp):
        for x in _pencil_roots(prog, fp, rng):
            if any(x) and any(prog.grad(x, fp)):
                return WitnessPoint(x)
        raise RankDeficientSample("no smooth pencil point on the hypersurface")

    if singular is not None:
        singular = VarietySpec(name + "-singular", prog.arity - 1, singular,
                               None, None)
    return VarietySpec(name, prog.arity - 1, [prog], singular, sampler)


def variety_dim(spec: VarietySpec, fp, rng) -> int:
    """Projective dimension via Jacobian rank at 5 sampled points; all
    must agree."""
    dims = set()
    for _ in range(5):
        pt = spec.sampler(rng, fp)
        dims.add(spec.ambient_dim - mat_rank(spec.jacobian(pt.coords, fp), fp))
    if len(dims) != 1:
        raise InconsistentDim(f"{spec.name}: dimension probes gave {sorted(dims)}")
    return dims.pop()


def fiber_codim_data(spec: VarietySpec, dim_x: int, fp, rng):
    """Codimension of the singular locus inside the variety, measured by
    Jacobian probes on the singular stratum; ``None`` when the variety
    carries no singular-locus description."""
    if spec.singular is None or spec.singular.sampler is None:
        return None
    return dim_x - variety_dim(spec.singular, fp, rng)


# --- a 4-parameter family of lines in P^6 --------------------------------------


class HyperbandFamily:
    """Lines spanned by a moving surface point and a direction inside the
    3-space spanned by its tangent plane and a second surface point.

    Parameters: (a, b) locate the point on the first surface (affine chart
    of the plane), (v1, v2) pick the direction.  The 14 quadrics are
    compiled programs that evaluate over dual rings, so the family
    differentiates exactly; the tangent plane's two partials are read
    off one gradient per quadric.
    """

    __slots__ = ("quads_x", "quads_s", "center", "fp")

    def __init__(self, quads_x, quads_s, center, fp):
        self.quads_x = [q.compile() for q in quads_x]
        self.quads_s = [q.compile() for q in quads_s]
        self.center = center
        self.fp = fp

    def surface_point(self, a, b, ring):
        u = (a, b, ring.one)
        return [q.eval(u, ring) for q in self.quads_x]

    def span_frame(self, uparams, ring):
        u = (*uparams, ring.one)
        grads = [q.grad(u, ring) for q in self.quads_x]
        d1 = [g[0] for g in grads]
        d2 = [g[1] for g in grads]
        s = [q.eval(u, ring) for q in self.quads_s]
        return [self.surface_point(*uparams, ring), d1, d2, s]

    def chart_matrix(self, params, ring):
        a, b, v1, v2 = params
        x, d1, d2, s = self.span_frame((a, b), ring)
        row2 = [ring.add(ring.add(c1, ring.mul(v1, c2)), ring.mul(v2, c3))
                for c1, c2, c3 in zip(d1, d2, s)]
        return [x, row2]

    def predictor(self):
        """The marked surface point of the center line (the expected focus)."""
        a, b = self.center[:2]
        return self.surface_point(a, b, self.fp)


def _random_quadric(rng, p):
    exps = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    return SparsePoly(3, {e: rng.field(p) for e in exps})


def hyperband_family(rng, fp) -> HyperbandFamily:
    for _ in range(16):
        quads_x = [_random_quadric(rng, fp.p) for _ in range(7)]
        quads_s = [_random_quadric(rng, fp.p) for _ in range(7)]
        center = tuple(rng.field(fp.p) for _ in range(4))
        fam = HyperbandFamily(quads_x, quads_s, center, fp)
        if mat_rank(fam.span_frame(center[:2], fp), fp) != 4:
            continue
        if mat_rank(fam.chart_matrix(center, fp), fp) != 2:
            continue
        return fam
    raise DegenerateSurface("random quadric surfaces kept failing the span check")


def _map_jacobian_rank(func, arity, fp, rng):
    """Rank of the Jacobian of  func: F_p^arity -> F_p^out  at a random point."""
    base = [rng.field(fp.p) for _ in range(arity)]
    return mat_rank([[s for _, s in out]
                     for out in dual_partials(func, base, fp.p)], fp)


def hyperband_dims(fam: HyperbandFamily, fp, rng):
    """(dim of the swept 4-fold's ambient closure, dim of the base surface),
    measured as parametrization Jacobian ranks at 3 random points."""

    def sweep(args, ring):
        l0, l1, a, b, v1, v2 = args
        r0, r1 = fam.chart_matrix((a, b, v1, v2), ring)
        return [ring.add(ring.mul(l0, c0), ring.mul(l1, c1))
                for c0, c1 in zip(r0, r1)]

    def cone(args, ring):
        lam, a, b = args
        return [ring.mul(lam, c) for c in fam.surface_point(a, b, ring)]

    dims_x, dims_f = set(), set()
    for _ in range(3):
        dims_x.add(_map_jacobian_rank(sweep, 6, fp, rng) - 1)
        dims_f.add(_map_jacobian_rank(cone, 3, fp, rng) - 1)
    if len(dims_x) != 1 or len(dims_f) != 1:
        raise InconsistentDim("family sweep ranks varied across probes")
    return dims_x.pop(), dims_f.pop()


# --- split octonions and the 27-coordinate cubic --------------------------------
#
# Octonions are held as 8 SparsePolys (alpha, u1, u2, u3, beta, v1, v2, v3)
# in vector-matrix form; the product is the classical one with two cross
# products, giving a division-free integer formula.


def _cross(p, q):
    return [p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0]]


def _oct_mul(z, w):
    za, zu, zb, zv = z[0], z[1:4], z[4], z[5:8]
    wa, wu, wb, wv = w[0], w[1:4], w[4], w[5:8]
    cross_v = _cross(zv, wv)
    cross_u = _cross(zu, wu)
    alpha = za * wa + zu[0] * wv[0] + zu[1] * wv[1] + zu[2] * wv[2]
    beta = zb * wb + zv[0] * wu[0] + zv[1] * wu[1] + zv[2] * wu[2]
    u = [za * wu[i] + wb * zu[i] - cross_v[i] for i in range(3)]
    v = [wa * zv[i] + zb * wv[i] + cross_u[i] for i in range(3)]
    return [alpha] + u + [beta] + v


def _oct_conj(z):
    return [z[4], -z[1], -z[2], -z[3], z[0], -z[5], -z[6], -z[7]]


def _oct_norm(z):
    return z[0] * z[4] - z[1] * z[5] - z[2] * z[6] - z[3] * z[7]


def _oct_trace(z):
    return z[0] + z[4]


def _hermitian_slots():
    x = [SparsePoly.var(27, i) for i in range(27)]
    return x[0], x[1], x[2], x[3:11], x[11:19], x[19:27]


def _albert_norm_program():
    a, bb, c, x1, x2, x3 = _hermitian_slots()
    t123 = _oct_trace(_oct_mul(_oct_mul(x1, x2), x3))
    n = (a * bb * c - a * _oct_norm(x1) - bb * _oct_norm(x2)
         - c * _oct_norm(x3) + t123)
    return n.compile()


def _albert_adjoint_programs():
    """27 quadratic programs, one compiled SparsePoly each: the adjoint
    of a Hermitian 3x3 matrix, whose vanishing defines the
    16-dimensional singular locus."""
    a, bb, c, x1, x2, x3 = _hermitian_slots()
    forms = [bb * c - _oct_norm(x1), c * a - _oct_norm(x2),
             a * bb - _oct_norm(x3)]
    forms += [t - a * s for t, s in zip(_oct_mul(_oct_conj(x3), _oct_conj(x2)), x1)]
    forms += [t - bb * s for t, s in zip(_oct_mul(_oct_conj(x1), _oct_conj(x3)), x2)]
    forms += [t - c * s for t, s in zip(_oct_mul(_oct_conj(x2), _oct_conj(x1)), x3)]
    return [f.compile() for f in forms]


def albert_cubic(name: str = "hermitian-octonion-cubic") -> VarietySpec:
    norm = _albert_norm_program()
    adj = _albert_adjoint_programs()

    def adjoint_coords(coords, fp):
        return [g.eval(coords, fp) for g in adj]

    def sample_singular(rng, fp):
        # a pencil meets the cubic in a root over F_p about 2/3 of the
        # time; the adjoint of the hit is a point of the singular locus
        for x0 in _pencil_roots(norm, fp, rng):
            e = adjoint_coords(x0, fp)
            if any(e):
                return e
        raise RankDeficientSample("no pencil root on the cubic")

    def sampler(rng, fp):
        for _ in range(16):
            e1 = sample_singular(rng, fp)
            e2 = sample_singular(rng, fp)
            coords = [(u + v) % fp.p for u, v in zip(e1, e2)]
            if not any(coords) or norm.eval(coords, fp) != 0:
                continue
            if any(norm.grad(coords, fp)):
                return WitnessPoint(coords, [e1, e2])
        raise RankDeficientSample("no smooth two-term sample on the cubic")

    singular = VarietySpec(name + "-singular", 26, adj, None,
                           lambda rng, fp: WitnessPoint(sample_singular(rng, fp)))
    return VarietySpec(name, 26, [norm], singular, sampler)
