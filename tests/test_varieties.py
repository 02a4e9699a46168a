"""Matrix rank loci, their samplers, the line-family construction, and the
27-coordinate cubic."""

import pytest
from test_cli import _RANK_LOCI

from gaussfocal.fieldcore import DualFp, Fp, Rng, mat_rank
from gaussfocal.mpoly import PolyProgram, restrict_to_line, up_deg
from gaussfocal.varieties import (
    DegenerateSurface,
    InconsistentDim,
    MatrixShape,
    RankDeficientSample,
    WitnessPoint,
    albert_cubic,
    generator_count,
    hypersurface_spec,
    hyperband_dims,
    hyperband_family,
    rank_locus_generators,
    rank_locus_spec,
    sample_rank_point,
    singular_rank,
    variety_dim,
)

P = (1 << 61) - 1  # convenient large prime
FP = Fp(P)


def to_matrix(shape, coords, p):
    """The full matrix of a coordinate vector (inverse of from_matrix)."""
    out = [[0] * shape.ncols for _ in range(shape.nrows)]
    for i in range(shape.nrows):
        for j in range(shape.ncols):
            if shape.kind == "skew":
                if i == j:
                    continue
                v = coords[shape.var_index(i, j)]
                out[i][j] = v if i < j else -v % p
            else:
                out[i][j] = coords[shape.var_index(i, j)]
    return out


# --- shapes -------------------------------------------------------------------


def test_shape_coordinate_counts():
    assert MatrixShape.symmetric(3).num_vars == 6
    assert MatrixShape.generic(3, 4).num_vars == 12
    assert MatrixShape.skew(6).num_vars == 15
    assert MatrixShape.symmetric(3).ambient_dim == 5
    assert MatrixShape.skew(8).ambient_dim == 27


def test_shape_matrix_roundtrip():
    # MatrixShape.matrix is the inverse of from_matrix, and agrees mod p
    # with the var_index walk of to_matrix; a skew matrix is antisymmetric
    # over the integers, with a zero diagonal
    rng = Rng(3)
    for shape in (MatrixShape.symmetric(4), MatrixShape.symmetric(5),
                  MatrixShape.generic(3, 5), MatrixShape.generic(5, 3),
                  MatrixShape.skew(6), MatrixShape.skew(7), MatrixShape.skew(9)):
        coords = [rng.field(P) for _ in range(shape.num_vars)]
        mat = to_matrix(shape, coords, P)
        assert len(mat) == shape.nrows and len(mat[0]) == shape.ncols
        assert shape.from_matrix(mat, P) == coords
        got = shape.matrix(coords)
        assert shape.from_matrix(got, P) == coords
        assert [[v % P for v in row] for row in got] == mat
        n = shape.nrows
        if shape.kind == "symmetric":
            assert all(mat[i][j] == mat[j][i] for i in range(n) for j in range(n))
        if shape.kind == "skew":
            assert all(mat[i][j] == (-mat[j][i]) % P for i in range(n) for j in range(n))
            assert all(got[i][i] == 0 for i in range(n))
            assert all(got[i][j] == -got[j][i] for i in range(n) for j in range(n))


# --- rank locus generators ------------------------------------------------------


def test_generator_counts():
    assert len(rank_locus_generators(MatrixShape.symmetric(3), 1)) == 6
    assert len(rank_locus_generators(MatrixShape.symmetric(3), 2)) == 1
    assert len(rank_locus_generators(MatrixShape.generic(3, 3), 2)) == 1
    assert len(rank_locus_generators(MatrixShape.generic(3, 4), 2)) == 4
    assert len(rank_locus_generators(MatrixShape.skew(6), 2)) == 15
    assert len(rank_locus_generators(MatrixShape.skew(6), 4)) == 1
    assert len(rank_locus_generators(MatrixShape.skew(8), 4)) == 28
    assert len(rank_locus_generators(MatrixShape.skew(7), 4)) == 7


def test_generator_degrees():
    for g in rank_locus_generators(MatrixShape.symmetric(4), 2):
        assert g.degree == 3
    for g in rank_locus_generators(MatrixShape.skew(8), 4):
        assert g.degree == 3  # Pfaffians of 6x6 blocks


@pytest.mark.parametrize("shape,rb", [
    (MatrixShape.symmetric(4), 2),
    (MatrixShape.generic(3, 3), 2),
    (MatrixShape.skew(6), 4),
    (MatrixShape.skew(8), 4),
    (MatrixShape.generic(4, 5), 3),
])
def test_sample_and_vanish(shape, rb):
    gens = rank_locus_generators(shape, rb)
    rng = Rng(11)
    for _ in range(10):
        pt = sample_rank_point(shape, rb, rng, FP)
        assert any(v for v in pt.coords)
        mat = to_matrix(shape, pt.coords, P)
        assert mat_rank(mat, FP) == rb
        for g in gens:
            assert g.eval(pt.coords, FP) == 0


def test_witnesses_on_base_variety():
    shape = MatrixShape.symmetric(4)
    base = rank_locus_generators(shape, 1)
    rng = Rng(13)
    pt = sample_rank_point(shape, 2, rng, FP)
    assert pt.witnesses and len(pt.witnesses) == 2
    total = [0] * shape.num_vars
    for w in pt.witnesses:
        for g in base:
            assert g.eval(w, FP) == 0
        total = [(a + b) % P for a, b in zip(total, w)]
    assert total == pt.coords

    shape = MatrixShape.skew(8)
    base = rank_locus_generators(shape, 2)
    pt = sample_rank_point(shape, 4, rng, FP)
    assert pt.witnesses and len(pt.witnesses) == 2
    for w in pt.witnesses:
        for g in base:
            assert g.eval(w, FP) == 0


def _three_branch_sample(shape, rank_bound, rng, fp):
    """The rank sampler as it was written before its summands shared one
    loop: one branch per shape, kept as the oracle for its draws."""
    p = fp.p
    n, m = shape.nrows, shape.ncols
    for _ in range(16):
        summands = []
        if shape.kind == "symmetric":
            for _ in range(rank_bound):
                v = [rng.field(p) for _ in range(n)]
                summands.append([[v[i] * v[j] % p for j in range(n)]
                                 for i in range(n)])
        elif shape.kind == "generic":
            for _ in range(rank_bound):
                u = [rng.field(p) for _ in range(n)]
                v = [rng.field(p) for _ in range(m)]
                summands.append([[u[i] * v[j] % p for j in range(m)]
                                 for i in range(n)])
        else:
            for _ in range(rank_bound // 2):
                u = [rng.field(p) for _ in range(n)]
                v = [rng.field(p) for _ in range(n)]
                summands.append([[(u[i] * v[j] - v[i] * u[j]) % p
                                  for j in range(n)] for i in range(n)])
        total = [[0] * m for _ in range(n)]
        for s in summands:
            for i in range(n):
                for j in range(m):
                    total[i][j] = (total[i][j] + s[i][j]) % p
        if mat_rank(total, fp) != rank_bound:
            continue
        coords = shape.from_matrix(total, p)
        if any(coords):
            return WitnessPoint(coords,
                                [shape.from_matrix(s, p) for s in summands])
    raise RankDeficientSample("oracle found no exact-rank sample")


@pytest.mark.parametrize("shape,rbs", [
    (MatrixShape.symmetric(4), (1, 2, 3)),
    (MatrixShape.symmetric(6), (5,)),
    (MatrixShape.generic(3, 5), (1, 2, 3)),
    (MatrixShape.generic(5, 2), (1, 2)),
    (MatrixShape.skew(8), (2, 4, 6, 8)),
    (MatrixShape.skew(7), (2, 4, 6)),
])
def test_sampler_draws_match_the_three_branch_oracle(shape, rbs):
    for rb in rbs:
        for seed in (0, 1, 7, 1729):
            got_rng, want_rng = Rng(seed), Rng(seed)
            got = sample_rank_point(shape, rb, got_rng, FP)
            want = _three_branch_sample(shape, rb, want_rng, FP)
            assert got.coords == want.coords
            assert got.witnesses == want.witnesses
            assert got_rng.field(P) == want_rng.field(P)  # same draw count


def _small_rank_loci():
    """Every rank locus on at most 28 coordinates, at every rank bound
    whose minors fit in the matrix."""
    shapes = [MatrixShape.symmetric(n) for n in range(2, 8)]
    shapes += [MatrixShape.skew(n) for n in range(4, 9)]
    shapes += [MatrixShape.generic(r, c) for r in range(2, 15)
               for c in range(2, 15) if r * c <= 28]
    for shape in shapes:
        step = 2 if shape.kind == "skew" else 1
        for rb in range(step, min(shape.nrows, shape.ncols) - step + 1, step):
            yield shape, rb


def test_rank_loci_build_one_counted_singular_stratum():
    loci = list(_small_rank_loci())
    assert len(loci) > 40
    for shape, rb in loci:
        assert shape.num_vars <= 28
        spec = rank_locus_spec(shape, rb)
        assert generator_count(shape, rb) == len(spec.generators)
        below = singular_rank(shape, rb)
        if spec.singular is None:
            assert below < 1 and generator_count(shape, below) == 0
            continue
        assert spec.singular.singular is None
        assert generator_count(shape, below) == \
            len(spec.singular.generators) == \
            len(rank_locus_generators(shape, below))


# --- every generator at one point ----------------------------------------------


def _program_rows(spec, x, fp):
    return ([g.eval(x, fp) for g in spec.generators],
            [g.grad(x, fp) for g in spec.generators])


def _check_batch_matches_programs(spec, fp, rng):
    """``vanishes`` is whether no program's value is nonzero, and
    ``jacobian`` equals the programs' gradients in generator order, at
    two sampled points of the stratum, at a point with a quarter of its
    coordinates zero and at a random point off it."""
    nv = spec.ambient_dim + 1
    points = [spec.sampler(rng, fp).coords for _ in range(2)]
    points.append([rng.field(fp.p) if rng.below(4) else 0 for _ in range(nv)])
    points.append([rng.field(fp.p) for _ in range(nv)])
    for k, x in enumerate(points):
        values, jacobian = _program_rows(spec, x, fp)
        assert spec.vanishes(x, fp) is (not any(values))
        assert spec.jacobian(x, fp) == jacobian
        if k < 2:
            assert not any(values)  # a sampled point is on the stratum
    assert any(values)  # the random point is off the stratum


_BATCHED_LOCI = [(MatrixShape(kind, rows, cols), rb)
                 for kind, rows, cols, rb in _RANK_LOCI]
_BATCHED_LOCI.append((MatrixShape.skew(12), 4))  # scorza-sy-skew m = 5


@pytest.mark.parametrize("p", [101, P])
def test_rank_locus_values_and_jacobian_match_the_programs(p):
    fp, rng = Fp(p), Rng(p % 1000 + 3)
    batched = 0
    for shape, rb in _BATCHED_LOCI:
        spec = rank_locus_spec(shape, rb)
        for stratum in (spec, spec.singular):
            if stratum is None:
                continue
            # a stratum of one generator, its full det or Pf, keeps the
            # program path; every other one is batched
            assert (stratum.locus is None) == (len(stratum.generators) == 1)
            batched += stratum.locus is not None
            _check_batch_matches_programs(stratum, fp, rng)
    assert batched > len(_BATCHED_LOCI)


def test_a_fresh_spec_batches_its_own_shape():
    # specs evaluated and dropped free their ids for reuse; a fresh spec
    # must still read its own shape, not one kept for a freed spec
    for n in range(4, 9):
        for rb in range(1, n - 2):
            for shape in (MatrixShape.generic(n - 2, n),
                          MatrixShape.symmetric(n)):
                spec = rank_locus_spec(shape, rb)
                spec.vanishes([1] * shape.num_vars, FP)
                spec.jacobian([1] * shape.num_vars, FP)
    rng = Rng(71)
    for shape, rb in ((MatrixShape.skew(7), 4), (MatrixShape.generic(3, 5), 2),
                      (MatrixShape.symmetric(5), 3)):
        spec = rank_locus_spec(shape, rb)
        _check_batch_matches_programs(spec, FP, rng)
        _check_batch_matches_programs(spec.singular, FP, rng)


def _counted_program_calls(monkeypatch):
    calls = []
    for name in ("eval", "grad"):
        real = getattr(PolyProgram, name)

        def counted(self, x, ring, _real=real):
            calls.append(self)
            return _real(self, x, ring)

        monkeypatch.setattr(PolyProgram, name, counted)
    return calls


def test_which_specs_take_the_program_path(monkeypatch):
    quadric = rank_locus_generators(MatrixShape.generic(2, 2), 1)[0]
    albert = albert_cubic()
    cone = hypersurface_spec("quadric", quadric, [quadric])
    # each spec with the spec whose sampler draws points on it: the cone's
    # singular descriptor has no sampler, and its one generator is the cone's
    program_specs = [
        (rank_locus_spec(MatrixShape.symmetric(3), 2),) * 2,   # one det
        (rank_locus_spec(MatrixShape.generic(4, 4), 3),) * 2,  # one det
        (rank_locus_spec(MatrixShape.skew(6), 4),) * 2,        # one Pf
        (cone, cone), (cone.singular, cone),
        (albert, albert), (albert.singular, albert.singular),
    ]
    batched = rank_locus_spec(MatrixShape.skew(6), 4).singular
    rng = Rng(73)
    points = [source.sampler(rng, FP).coords for _, source in program_specs]
    calls = _counted_program_calls(monkeypatch)
    for (spec, _), x in zip(program_specs, points):
        assert spec.locus is None
        del calls[:]
        # on the variety, no value stops the loop early: one eval each
        assert spec.vanishes(x, FP)
        spec.jacobian(x, FP)
        assert calls == spec.generators * 2
    assert batched.locus is not None
    del calls[:]
    batched.vanishes([1] * 15, FP)
    batched.jacobian([1] * 15, FP)
    assert calls == []


# the bound itself: every kind of shape, on both strata, at rank exactly the
# stratum's bound and one step (two for skew) above it
_BOUND_LOCI = [(MatrixShape.skew(7), 4), (MatrixShape.skew(9), 6),
               (MatrixShape.generic(3, 5), 2), (MatrixShape.generic(5, 3), 2),
               (MatrixShape.symmetric(5), 3)]


@pytest.mark.parametrize("p", [101, P])
def test_vanishes_holds_at_the_rank_bound_and_fails_above_it(p):
    fp, rng = Fp(p), Rng(p % 1000 + 5)
    for shape, rb in _BOUND_LOCI:
        spec = rank_locus_spec(shape, rb)
        below = singular_rank(shape, rb)
        for stratum, bound in ((spec, rb), (spec.singular, below)):
            assert stratum.locus is not None  # the rank test, not the programs
            above = bound + (2 if shape.kind == "skew" else 1)
            for rank, want in ((bound, True), (above, False)):
                for _ in range(3):
                    x = sample_rank_point(shape, rank, rng, fp).coords
                    got = stratum.vanishes(x, fp)
                    assert got is want
                    assert got is not any(g.eval(x, fp)
                                          for g in stratum.generators)


def test_hypersurface_line_degree():
    rng = Rng(17)
    det3 = rank_locus_generators(MatrixShape.symmetric(3), 2)[0]
    pf6 = rank_locus_generators(MatrixShape.skew(6), 4)[0]
    det4 = rank_locus_generators(MatrixShape.generic(4, 4), 3)[0]
    for prog, want in ((det3, 3), (pf6, 3), (det4, 4)):
        for _ in range(5):
            a = [rng.field(P) for _ in range(prog.arity)]
            b = [rng.field(P) for _ in range(prog.arity)]
            assert up_deg(restrict_to_line(prog, a, b, FP)) == want


# --- dimensions ----------------------------------------------------------------


@pytest.mark.parametrize("shape,rb,dim", [
    (MatrixShape.symmetric(3), 2, 4),
    (MatrixShape.symmetric(3), 1, 2),
    (MatrixShape.symmetric(4), 2, 6),
    (MatrixShape.generic(3, 3), 2, 7),
    (MatrixShape.generic(3, 3), 1, 4),
    (MatrixShape.generic(4, 4), 2, 11),
    (MatrixShape.skew(6), 4, 13),
    (MatrixShape.skew(6), 2, 8),
    (MatrixShape.skew(8), 4, 21),
    (MatrixShape.generic(4, 5), 3, 17),
    (MatrixShape.skew(7), 4, 17),
])
def test_variety_dim(shape, rb, dim):
    spec = rank_locus_spec(shape, rb)
    assert variety_dim(spec, FP, Rng(19)) == dim


def test_rank_locus_spec_descriptors():
    spec = rank_locus_spec(MatrixShape.symmetric(3), 2)
    assert spec.ambient_dim == 5
    assert len(spec.generators) == 1
    assert spec.singular is not None
    assert len(spec.singular.generators) == 6
    assert variety_dim(spec.singular, FP, Rng(59)) == 2
    # skew singular stratum drops the rank bound by two
    spec = rank_locus_spec(MatrixShape.skew(6), 4)
    assert len(spec.singular.generators) == 15
    assert variety_dim(spec.singular, FP, Rng(61)) == 8
    spec = rank_locus_spec(MatrixShape.symmetric(3), 1)
    assert spec.singular is None


# --- the line family in P^6 -----------------------------------------------------


def test_hyperband_chart_center():
    fam = hyperband_family(Rng(23), FP)
    a = fam.chart_matrix(fam.center, FP)
    assert len(a) == 2 and len(a[0]) == 7
    assert mat_rank(a, FP) == 2
    # first chart row is the marked surface point, which is the predicted focus
    assert a[0] == fam.predictor()
    # the enveloping span (point, two tangent partials, second surface) is 3-dim
    assert mat_rank(fam.span_frame(fam.center[:2], FP), FP) == 4


def test_hyperband_chart_dual_evaluation():
    fam = hyperband_family(Rng(29), FP)
    ring = DualFp(P)
    params = [ring.make(c, s) for c, s in zip(fam.center, (1, 2, 3, 4))]
    mat = fam.chart_matrix(params, ring)
    center = fam.chart_matrix(fam.center, FP)
    assert [[u for u, _ in row] for row in mat] == center
    # some slope must be nonzero, the family is not constant
    assert any(s for row in mat for _, s in row)


def test_hyperband_dims():
    fam = hyperband_family(Rng(31), FP)
    dim_x, dim_f = hyperband_dims(fam, FP, Rng(37))
    assert (dim_x, dim_f) == (5, 2)


# --- the 27-variable cubic -------------------------------------------------------


def diag_coords(a, b, c):
    v = [0] * 27
    v[0], v[1], v[2] = a, b, c
    return v


def test_cubic_on_diagonal():
    spec = albert_cubic()
    f = spec.generators[0]
    assert f.degree == 3
    assert f.eval(diag_coords(2, 3, 5), FP) == 30
    # adjoint of a diagonal is the diagonal of 2x2 complementary products
    adj = [g.eval(diag_coords(2, 3, 5), FP) for g in spec.singular.generators]
    assert adj[:3] == [15, 10, 6]
    assert all(v == 0 for v in adj[3:])


def test_cubic_homogeneity():
    f = albert_cubic().generators[0]
    rng = Rng(41)
    for _ in range(10):
        x = [rng.field(P) for _ in range(27)]
        lam = 1 + rng.below(P - 1)
        lx = [v * lam % P for v in x]
        assert f.eval(lx, FP) == pow(lam, 3, P) * f.eval(x, FP) % P


def test_adjoint_of_adjoint_is_norm_times_identity():
    spec = albert_cubic()
    f = spec.generators[0]
    adj_progs = spec.singular.generators
    rng = Rng(43)
    for _ in range(10):
        x = [rng.field(P) for _ in range(27)]
        ax = [g.eval(x, FP) for g in adj_progs]
        aax = [g.eval(ax, FP) for g in adj_progs]
        n = f.eval(x, FP)
        assert aax == [n * v % P for v in x]


def test_cubic_sampler():
    spec = albert_cubic()
    f = spec.generators[0]
    rng = Rng(47)
    for _ in range(5):
        pt = spec.sampler(rng, FP)
        assert f.eval(pt.coords, FP) == 0
        assert any(v for v in f.grad(pt.coords, FP))
        assert pt.witnesses and len(pt.witnesses) == 2
        for w in pt.witnesses:
            # each witness is a singular point: the cubic and all 27
            # adjoint quadrics vanish there
            assert f.eval(w, FP) == 0
            assert all(g.eval(w, FP) == 0 for g in spec.singular.generators)


def test_cubic_dim():
    spec = albert_cubic()
    assert variety_dim(spec, FP, Rng(53)) == 25
    assert variety_dim(spec.singular, FP, Rng(55)) == 16
