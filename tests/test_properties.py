"""Property tests on random piecewise-constant coefficient tables.

Examples are derandomized with a fixed count, so the suite stays
deterministic.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy import sparse

from cylgap import analysis, assemble, coeff, eig, experiments, grid

import proofs
from conftest import same_bits
from proofs import cellwise_oracle

RESOLUTION = (4, 8)  # axial, cross cells per unit
# kind -> (mesh kind, ell, grading, whole boundary Dirichlet)
MESH_KINDS = {
    "full": ("full-cylinder", 2, 1, False),
    "half-plus": ("half-plus", 2, 1, False),
    "half-minus": ("half-minus", 2, 1, False),
    "graded": ("full-cylinder", 2, 2, False),
    "full-dirichlet": ("full-cylinder", 2, 1, True),
}
# both ends free: W1 extended constantly along the axis is a trial vector
FREE_ENDS = ("full", "graded")
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=20,
                             deadline=None, database=None)


def uncouple(A, k):
    """The cell matrices A with row and column k zero off the diagonal (a
    principal block of each, so still positive definite); A itself when
    k is None."""
    if k is not None:
        diag = A[:, k, k].copy()
        A[:, k, :] = A[:, :, k] = 0.0
        A[:, k, k] = diag
    return A


@st.composite
def tables(draw, n=2, p=1, coupled=True, uncoupled=None):
    """Piecewise-constant n x n field with 1-4 cells along the first cross
    coordinate on (-1, 1), each cell matrix R R^T + 0.2 I with R drawn
    entrywise from [-1, 1]; without ``coupled`` the A12 blocks are 0, and
    an ``uncoupled`` axis k has A[k, j] = A[j, k] = 0 for every j != k."""
    cuts = draw(st.lists(st.integers(-7, 7), max_size=3, unique=True))
    bounds = [-1.0] + sorted(c / 8.0 for c in cuts) + [1.0]
    entry = st.floats(-1.0, 1.0, allow_nan=False)
    size = n * n * (len(bounds) - 1)
    R = np.array(draw(st.lists(entry, min_size=size, max_size=size)))
    R = R.reshape(-1, n, n)
    A = R @ R.transpose(0, 2, 1) + 0.2 * np.eye(n)
    if not coupled:
        A[:, :p, p:] = A[:, p:, :p] = 0.0
    return coeff.piecewise_constant_field(bounds, uncouple(A, uncoupled),
                                          p=p)


def first_value(K, M):
    return eig.smallest_eigenpairs(K, M)[0].value


def cross_values(field):
    """(mu1, Lambda1) at the cross resolution of the cylinder meshes."""
    mesh = grid.build_mesh("cross-section", omega=(-1, 1),
                           resolution=RESOLUTION[1])
    return tuple(first_value(*assemble.assemble_cross_section(
        mesh, field, reduced=reduced)) for reduced in (False, True))


def cylinder_mesh(kind):
    mesh_kind, ell, grading, dirichlet = MESH_KINDS[kind]
    mesh = grid.build_mesh(mesh_kind, ell=ell, omega=(-1, 1),
                           resolution=RESOLUTION, grading=grading)
    return grid.with_full_dirichlet(mesh) if dirichlet else mesh


def cylinder_forms(field, kind):
    return assemble.assemble_cylinder(cylinder_mesh(kind), field)


def cylinder_value(field, kind):
    return first_value(*cylinder_forms(field, kind))


@PROPERTY_SETTINGS
@given(field=tables())
def test_schur_floor_and_sandwich(field):
    """Lambda1 <= lambda1 on every mesh (the shift floor of cylinder
    solves), and lambda1 <= mu1 where both ends are free."""
    mu1, Lambda1 = cross_values(field)
    for kind in MESH_KINDS:
        lam = cylinder_value(field, kind)
        assert lam >= Lambda1 * (1 - 1e-12), kind
        if kind in FREE_ENDS:
            assert lam <= mu1 * (1 + 1e-12), kind


@PROPERTY_SETTINGS
@given(field=tables())
def test_band_cholesky_certifies_the_floor(field):
    """The banded factor of K - sigma M exists for sigma just below the
    dense lambda1 and fails just above it, so a factored shift is a proof
    that lambda1 > sigma."""
    for kind in MESH_KINDS:
        K, M = cylinder_forms(field, kind)
        lam = scipy.linalg.eigh(proofs.full(K).toarray(),
                                proofs.full(M).toarray(),
                                subset_by_index=[0, 0])[0][0]
        rows = eig.BandRows(K, M)
        assert eig._factor(rows, lam * (1 - 1e-6), None) is not None
        assert eig._factor(rows, lam * (1 + 1e-6), None) is None


# fields of each shape, with the meshes of their pencils: a 1D
# cross-section (p = 1, n = 2), a 2D one (p = 1, n = 3: boxes with 7, 5,
# 2 or 1 free nodes on a cross axis, where the 2D cross factors are
# gathered onto their free grid) and the multi-direction cylinder (p = 2,
# n = 3)
BOX_OMEGA = ((-1, 1), (-1, 1))
FIELD_SHAPES = {
    (2, 1): [cylinder_mesh(kind) for kind in MESH_KINDS]
    + [grid.build_mesh("cross-section", omega=(-1, 1),
                       resolution=RESOLUTION[1])],
    (3, 1): [grid.build_mesh("full-cylinder", ell=1, omega=BOX_OMEGA,
                             resolution=(2, 3, 3)),
             grid.build_mesh("half-plus", ell=1, omega=BOX_OMEGA,
                             resolution=(2, 1.5, 1.5)),
             grid.build_mesh("cross-section", omega=BOX_OMEGA,
                             resolution=4),
             grid.build_mesh("cross-section", omega=BOX_OMEGA,
                             resolution=(1.5, 1))],
    (3, 2): [grid.build_mesh("multi-direction", ell=1, omega=(-1, 1),
                             resolution=(2, 2, 4)),
             grid.with_full_dirichlet(grid.build_mesh(
                 "multi-direction", ell=1, omega=(-1, 1),
                 resolution=(2, 2, 4)))],
}
# a coupled box field whose A varies over the cross-section
BOX_FIELD = coeff.field_from_entries(
    3, 1, {(0, 0): 1.0, (0, 1): 0.3, (0, 2): lambda x: 0.2 * x[:, 1],
           (1, 1): lambda x: 1.0 + 0.25 * x[:, 0] ** 2, (1, 2): 0.1,
           (2, 2): 1.0})
FIXED_FIELDS = [coeff.model_field(0.6), coeff.asymmetric_model_field(0.5),
                BOX_FIELD, coeff.multi_model_field(0.6)]
any_field = st.one_of(st.sampled_from(FIXED_FIELDS),
                      *(tables(n, p) for n, p in FIELD_SHAPES))


def field_pencils(field):
    """(mesh, A, (K, M)) of ``field`` on every mesh of its shape, with A
    the coefficient of the pencil at points of the mesh, the cross-section
    ones both plain (A22) and Schur-reduced."""
    for mesh in FIELD_SHAPES[field.n, field.p]:
        if mesh.domain_kind != "cross-section":
            yield (mesh, lambda x, p=mesh.n_axial: field.eval_many(x[:, p:]),
                   assemble.assemble_cylinder(mesh, field))
            continue
        yield (mesh, lambda x: field.eval_many(x)[:, field.p:, field.p:],
               assemble.assemble_cross_section(mesh, field))
        yield (mesh, lambda x: coeff.schur_reduce_many(field, x),
               assemble.assemble_cross_section(mesh, field, True))


def oracle_band(K, M, shift):
    """Lower band of K - shift M in LAPACK storage, sliced from the CSR
    lower triangles of the forms' whole matrices (``proofs.full``), with b
    the farthest stored offset."""
    Kl, Ml = (sparse.tril(proofs.full(form), format="csr")
              for form in (K, M))
    b = max(int((low.row - low.col).max())
            for low in (Kl.tocoo(), Ml.tocoo()))
    A = (Kl - shift * Ml).tocoo()
    band = np.zeros((b + 1, K.dim))
    band[A.row - A.col, A.col] = A.data
    return band


def check_terms_against_the_oracles(field, shift, seed):
    """The forms' matrices (their ``lower`` triangles) match the cellwise
    oracle; the band of K - shift M filled from the Kronecker terms
    equals, bit for bit, the band sliced from those lower triangles; and
    the terms apply K and M to a vector and to a block as the assembled
    matrices do."""
    rng = np.random.default_rng(seed)
    for mesh, coefficient, (K, M) in field_pencils(field):
        kind = K.provenance["mesh"]
        oracle = cellwise_oracle(mesh, coefficient, field.piecewise_constant)
        for form, ref in zip((K, M), oracle):
            dev = np.abs(proofs.full(form).toarray() - ref).max()
            assert dev <= 1e-13 * np.abs(ref).max(), kind
        assert np.array_equal(eig.BandRows(K, M).band(shift, None),
                              oracle_band(K, M, shift)), kind
        for form in (K, M):
            for u in (rng.standard_normal(form.dim),
                      rng.standard_normal((form.dim, 3))):
                got, ref = form @ u, proofs.full(form) @ u
                assert got.shape == u.shape, kind
                assert np.linalg.norm(got - ref) <= \
                    1e-14 * np.linalg.norm(ref), kind


@PROPERTY_SETTINGS
@given(field=any_field, shift=st.floats(0.0, 4.0),
       seed=st.integers(0, 2**32 - 1))
def test_kronecker_terms_match_the_lower_oracle(field, shift, seed):
    check_terms_against_the_oracles(field, shift, seed)


@pytest.mark.parametrize("field", FIXED_FIELDS, ids=lambda f: f.signature)
def test_every_shape_matches_the_lower_oracle(field):
    """Each field shape, box cross-sections, box cylinders and p = 2
    meshes included, whatever the draws above picked."""
    check_terms_against_the_oracles(field, 1.5, 0)


@PROPERTY_SETTINGS
@given(field=tables())
def test_comparison_pencils_below_the_shift_guess(field):
    """The comparisons that make a held lambda1 a proven shift guess: the
    mixed lambda1 lies below the all-Dirichlet one on the same mesh, and
    the full cylinder at ell = L / 2 below both half-cylinders of length
    L on matched meshes (extension by zero)."""
    assert cylinder_value(field, "full") <= \
        cylinder_value(field, "full-dirichlet") * (1 + 1e-12)
    L = MESH_KINDS["half-plus"][1]
    mesh = grid.build_mesh("full-cylinder", ell=L / 2, omega=(-1, 1),
                           resolution=RESOLUTION)
    short = first_value(*assemble.assemble_cylinder(mesh, field))
    for kind in ("half-plus", "half-minus"):
        assert short <= cylinder_value(field, kind) * (1 + 1e-12), kind


# the meshes of the small-basis property: four 2D kinds and the small box
# with two elongated directions (n = 175)
BASIS_MESHES = [cylinder_mesh(kind) for kind in
                ("full", "half-plus", "graded", "full-dirichlet")]
BOX_MESH = FIELD_SHAPES[3, 2][0]


@PROPERTY_SETTINGS
@given(field=tables(), box_field=tables(3, 2), count=st.integers(1, 3),
       floor_gap=st.floats(0.05, 1.0), guess_gap=st.floats(1e-4, 1e-2))
def test_small_basis_misses_no_pair(field, box_field, count, floor_gap,
                                    guess_gap):
    """A Lanczos basis of 2 count + 4 vectors finds the ``count``
    smallest eigenvalues of the dense pencil to the gate's relative 1e-10,
    shifted at a floor ``floor_gap`` below lambda1 and at a guess
    ``guess_gap`` below it that the factor certifies (both relative)."""
    pencils = [assemble.assemble_cylinder(mesh, field)
               for mesh in BASIS_MESHES]
    pencils.append(assemble.assemble_cylinder(BOX_MESH, box_field))
    for K, M in pencils:
        dense = scipy.linalg.eigh(proofs.full(K).toarray(),
                                  proofs.full(M).toarray(), eigvals_only=True,
                                  subset_by_index=[0, count - 1])
        floor = dense[0] * (1 - floor_gap)
        for guess in (None, dense[0] * (1 - guess_gap)):
            pairs = eig.smallest_eigenpairs(K, M, count=count, floor=floor,
                                            guess=guess)
            np.testing.assert_allclose([p.value for p in pairs], dense,
                                       rtol=1e-10,
                                       err_msg=K.provenance["mesh"])


@PROPERTY_SETTINGS
@given(field=tables())
def test_kronecker_assembly_matches_the_oracle_in_and_out_of_a_block(field):
    """Forms assembled outside any ``solve_memo`` block, and twice inside
    one (the second from the block's slot-matrix entries), match the
    cellwise oracle; the in-block forms equal the fresh ones bitwise."""
    for kind in ("full", "half-plus"):
        mesh = cylinder_mesh(kind)
        fresh = assemble.assemble_cylinder(mesh, field)
        with experiments.solve_memo():
            first = assemble.assemble_cylinder(mesh, field)
            held = len(assemble._MEMO.get())
            second = assemble.assemble_cylinder(mesh, field)
            assert len(assemble._MEMO.get()) == held > 0, kind
        oracle = cellwise_oracle(mesh, lambda x: field.eval_many(x[:, 1:]),
                                 field.piecewise_constant)
        for forms in (fresh, first, second):
            for form, ref in zip(forms, oracle):
                dev = np.abs(proofs.full(form).toarray() - ref).max()
                assert dev <= 1e-13 * np.abs(ref).max(), kind
        assert same_bits(first, fresh) and same_bits(second, fresh), kind


MULTI = coeff.multi_model_field(0.6)
# every field builder of the package (random tables below stand for the
# piecewise-constant ones); those of n = 3 and p = 1 have a 2D
# cross-section
FIELD_BUILDERS = [
    coeff.model_field(0.6), coeff.identity_field(), coeff.identity_field(3),
    coeff.diagonal_field([2.0, 3.0]), coeff.diagonal_field([1.0, 2.0, 3.0]),
    coeff.diagonal_field([1.0, 2.0, 3.0], p=2),
    coeff.asymmetric_model_field(0.5), coeff.variable_a22_field(0.6),
    coeff.neg_coupling_field(), MULTI,
    coeff.row_restriction_field(MULTI, 0),
    coeff.row_restriction_field(MULTI, 1),
    BOX_FIELD]
CROSS_MESHES = {d: grid.build_mesh("cross-section", omega=omega,
                                   resolution=res)
                for d, omega, res in ((1, (-1, 1), RESOLUTION[1]),
                                      (2, BOX_OMEGA, 4))}


@pytest.mark.parametrize("field", FIELD_BUILDERS, ids=lambda f: f.signature)
def test_cross_pencil_is_the_cross_block_of_the_set(field):
    """The stiffness terms of the cross-section pencil of A, read from
    the cross block of A's slot set, equal bit for bit the slot matrices
    of A22 alone, less those of the entries that A22 leaves zero."""
    mesh = CROSS_MESHES[field.cross_dim]
    K, _ = assemble.assemble_cross_section(mesh, field)
    oracle = [S for row in proofs.a22_slots(mesh, field) for S in row
              if S.any()]
    assert len(K.terms) == len(oracle)
    for (X,), S in zip(K.terms, oracle):
        assert np.array_equal(X.toarray(), S)


@PROPERTY_SETTINGS
@given(field=st.one_of(*(tables(n, p) for n, p in FIELD_SHAPES)))
def test_table_cross_pencil_is_the_cross_block_of_the_set(field):
    test_cross_pencil_is_the_cross_block_of_the_set(field)


def coupling_of(field):
    """The cross context of ``field`` at the cross resolution of the
    cylinder meshes, and the midpoint audit of its W1."""
    ctx = experiments.cross_context(
        field, experiments.ExperimentConfig(resolution=RESOLUTION[1]))
    return ctx, proofs.coupling_audit(field, ctx.W1, ctx.mesh)


@PROPERTY_SETTINGS
@given(field=tables())
def test_coupling_is_the_midpoint_audit(field):
    """On a table W1' is constant per cell and A is sampled at midpoints,
    so the Schur energy drop equals the audit's sum of vol g^t A11^-1 g,
    g = A12 W1'.  The drop is a difference of two energies of size mu1,
    so 1e-12 mu1 absolute is allowed too: where the coupling is below
    the rounding of A22 the reduced samples round to A22 and the drop is
    0 while the audit is not."""
    ctx, audit = coupling_of(field)
    assert ctx.coupling == pytest.approx(audit.norm**2, rel=1e-12,
                                         abs=1e-12 * ctx.mu1)
    assert ctx.coupled == (audit.norm > experiments.TOL_CON)


@PROPERTY_SETTINGS
@given(field=tables(coupled=False))
def test_uncoupled_table_drops_nothing(field):
    ctx, audit = coupling_of(field)
    assert ctx.coupling == 0.0 and not ctx.coupled
    assert audit.norm == 0.0


@pytest.mark.parametrize("field", [
    coeff.model_field(0.0), coeff.model_field(0.6),
    coeff.asymmetric_model_field(0.5), coeff.identity_field(),
    coeff.diagonal_field([2.0, 3.0]), coeff.neg_coupling_field(),
    coeff.variable_a22_field(0.6), coeff.multi_model_field(0.6)],
    ids=lambda f: f.signature)
def test_coupled_verdict_matches_the_audit(field):
    ctx, audit = coupling_of(field)
    assert ctx.coupled == (audit.norm > experiments.TOL_CON)
    if not ctx.coupled:
        assert ctx.coupling == 0.0


def test_uncoupled_field_sits_on_the_floor():
    """With delta = 0 the floor is attained: lambda1 = Lambda1."""
    field = coeff.model_field(0.0)
    _, Lambda1 = cross_values(field)
    assert cylinder_value(field, "full") == pytest.approx(Lambda1, rel=1e-12)


# kind -> (mesh kind, ell, grading); the odd full cylinder has 9 axial
# cells, so one cell straddles x1 = 0, which is a node on the others
DENSITY_MESHES = {
    "full-even": ("full-cylinder", 2, 1),
    "full-odd": ("full-cylinder", 1.125, 1),
    "graded": ("full-cylinder", 2, 2),
    "half-plus": ("half-plus", 2, 1),
}


def plus_box_energy(mesh, field, full):
    """u.Ku of the restriction of ``full`` to the [0, ell] part of the
    mesh, under the cellwise oracle; its ends are free, so only lateral
    (zero) values are dropped."""
    axis = mesh.axis_partitions[0]
    plus = axis >= 0.0
    box = grid.TensorMesh("full-cylinder",
                          [axis[plus], *mesh.cross_partitions], 1, mesh.ell)
    K, _ = cellwise_oracle(box, lambda x: field.eval_many(x[:, 1:]),
                           field.piecewise_constant)
    u = proofs.restrict_free(box, full.reshape(mesh.shape)[plus].ravel())
    return float(u @ K @ u)


@PROPERTY_SETTINGS
@given(field=tables(), seed=st.integers(0, 2**32 - 1))
def test_axial_densities_add_up_to_the_forms(field, seed):
    """Per-axial-point energies of a random nodal vector sum to u.Ku (and,
    without a field, to its plain |grad u|^2), masses to u.Mu, and where
    x1 = 0 is a node the x1 > 0 energies are the energy of the [0, ell]
    part."""
    rng = np.random.default_rng(seed)
    for kind, (mesh_kind, ell, grading) in DENSITY_MESHES.items():
        mesh = grid.build_mesh(mesh_kind, ell=ell, omega=(-1, 1),
                               resolution=RESOLUTION, grading=grading)
        u = rng.standard_normal(mesh.n_free)
        full = mesh.scatter_free(u)
        K, M = assemble.assemble_cylinder(mesh, field)
        KI, _ = assemble.assemble_cylinder(mesh, coeff.identity_field())
        mass, energy, x1q = analysis.axial_densities(
            full, mesh.axis_partitions, field)
        _, plain, _ = analysis.axial_densities(full, mesh.axis_partitions)
        assert energy.sum() == pytest.approx(proofs.energy(K, u),
                                             rel=1e-12), kind
        assert plain.sum() == pytest.approx(proofs.energy(KI, u),
                                            rel=1e-12), kind
        assert mass.sum() == pytest.approx(proofs.energy(M, u),
                                           rel=1e-12), kind
        if np.any(mesh.axis_partitions[0] == 0.0):
            assert energy[x1q > 0.0].sum() == pytest.approx(
                plus_box_energy(mesh, field, full), rel=1e-12), kind
        else:
            assert kind == "full-odd"


@PROPERTY_SETTINGS
@given(field=tables())
def test_nu_half_rows_pass(field):
    """On nested half-cylinder meshes both truncation sequences are
    nonincreasing, and the reflection identity holds."""
    cfg = experiments.ExperimentConfig(resolution=RESOLUTION[1],
                                       axial_resolution=RESOLUTION[0])
    records = experiments.exp_nu_half(field, [1, 2, 3], cfg)
    assert len(records) == 7
    assert all(r.passed for r in records), [r.note for r in records]


@st.composite
def even_tables(draw, n=2, p=1, uncoupled=None):
    """A table drawn as in ``tables`` on (0, 1) and mirrored onto (-1, 0),
    so the field is even in X2 (property (S)).  Its cuts, at multiples of
    1/4, miss the cell centres of ``SECTOR_MESHES``, where the midpoint
    rule samples it: a sample on a cut reads the cell above it on both
    sides, and no longer mirrors.  An ``uncoupled`` axis has row and
    column zero off the diagonal, as in ``tables``."""
    cuts = draw(st.lists(st.integers(1, 3), max_size=2, unique=True))
    half = [0.0] + sorted(c / 4.0 for c in cuts) + [1.0]
    entry = st.floats(-1.0, 1.0, allow_nan=False)
    size = n * n * (len(half) - 1)
    R = np.array(draw(st.lists(entry, min_size=size, max_size=size)))
    R = R.reshape(-1, n, n)
    A = uncouple(R @ R.transpose(0, 2, 1) + 0.2 * np.eye(n), uncoupled)
    return coeff.piecewise_constant_field(
        [-x for x in half[:0:-1]] + half, np.concatenate([A[::-1], A]), p=p)


def sector_meshes(odd):
    """Every point-symmetric mesh kind, with an odd or an even number of
    unknowns: an odd count of cells on a symmetric axis puts no node at
    0, and a clamped axis has one node fewer free than cells."""
    res, cross = (4, 8) if odd else (3.75, 7.5)
    full = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                           resolution=(res, cross))
    return {
        "full": full,
        "full-dirichlet": grid.with_full_dirichlet(grid.build_mesh(
            "full-cylinder", ell=2, omega=(-1, 1), resolution=(4, cross)
            if odd else (3.75, 8))),
        "graded": grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                                  resolution=(4, cross), grading=2),
        "p2": grid.build_mesh("multi-direction", ell=1, omega=(-1, 1),
                              resolution=(2, 2, 4 if odd else 3.5)),
        "cross-section": grid.build_mesh("cross-section", omega=(-1, 1),
                                         resolution=cross),
    }


SECTOR_MESHES = {f"{name}-{parity}": mesh
                 for parity, odd in (("odd", True), ("even", False))
                 for name, mesh in sector_meshes(odd).items()}


def test_sector_meshes_have_both_parities():
    for name, mesh in SECTOR_MESHES.items():
        assert mesh.n_free % 2 == name.endswith("-odd"), name


@PROPERTY_SETTINGS
@given(field=even_tables(), box_field=even_tables(3, 2))
def test_one_pair_solve_runs_in_the_even_sector(field, box_field):
    """On even tables every symmetric mesh kind gives point-symmetric
    forms, and their one-pair solve runs in the even sector: it matches
    the dense lambda1 of the whole pencil to the gate's relative 1e-10,
    its vector is exactly symmetric under the reversal of the unknowns
    (a whole-pencil solve rounds), and its residual on the whole forms
    keeps DEFAULT_TOL."""
    for name, mesh in SECTOR_MESHES.items():
        if mesh.domain_kind == "cross-section":
            K, M = assemble.assemble_cross_section(mesh, field)
        else:
            K, M = assemble.assemble_cylinder(
                mesh, box_field if mesh.n_axial == 2 else field)
        assert K.point_symmetric and M.point_symmetric, name
        dense = scipy.linalg.eigh(proofs.full(K).toarray(),
                                  proofs.full(M).toarray(), eigvals_only=True,
                                  subset_by_index=[0, 0])[0]
        pair = eig.smallest_eigenpairs(K, M)[0]
        assert pair.value == pytest.approx(dense, rel=1e-10), name
        assert np.array_equal(pair.vector, pair.vector[::-1]), name
        assert pair.residual <= eig.DEFAULT_TOL, name


# meshes of the tables with a zeroed axial row: the multi-direction meshes
# mirror their axial axes, with an odd and an even number of nodes on
# each, and free (mixed) ends, where the pencil separates, or clamped
# ones; the p = 1 full cylinders have free ends, or clamped ends with an
# even and an odd number of free axial nodes, and on the half cylinders
# an end is clamped.  A pencil with a clamped end on the axis does not
# separate and is solved like any other
SEPARATED_MESHES = {
    2: {f"{name}-{ends}": grid.with_full_dirichlet(mesh)
        if ends == "dirichlet" else mesh
        for name, mesh in (
            ("odd", grid.build_mesh("multi-direction", ell=1, omega=(-1, 1),
                                    resolution=(2, 2, 4))),
            ("even", grid.build_mesh("multi-direction", ell=1,
                                     omega=(-1, 1),
                                     resolution=(2.5, 2.5, 3.5))))
        for ends in ("mixed", "dirichlet")},
    1: {"full-free": grid.build_mesh("full-cylinder", ell=1, omega=(-1, 1),
                                     resolution=(3, 4)),
        "full-even": grid.with_full_dirichlet(grid.build_mesh(
            "full-cylinder", ell=1, omega=(-1, 1), resolution=(2.5, 4))),
        "full-odd": grid.with_full_dirichlet(grid.build_mesh(
            "full-cylinder", ell=1, omega=(-1, 1), resolution=(3, 4))),
        "half-plus": grid.build_mesh("half-plus", ell=2, omega=(-1, 1),
                                     resolution=(2.5, 4)),
        "half-minus": grid.build_mesh("half-minus", ell=2, omega=(-1, 1),
                                      resolution=(2.5, 4))}}


@PROPERTY_SETTINGS
@given(data=st.data(), axis=st.integers(0, 1))
def test_one_pair_solve_separates_an_uncoupled_axis(data, axis):
    """A table with axial row ``axis`` zeroed leaves that axis (or an
    earlier one, where the draw zeroes it too) uncoupled, and a one-pair
    solve separates it where both its ends are free: its vector is then
    exactly constant along the axis (a whole-pencil solve rounds).  With
    a clamped end no axis is recorded.  Either way the solve matches the
    dense lambda1 of the whole pencil to the gate's relative 1e-10, and
    its residual on the whole forms keeps DEFAULT_TOL.  The p = 2 tables
    are drawn general and even in X2 (then the reduced pencil runs in its
    point-even sector)."""
    fields = [data.draw(tables(3, 2, uncoupled=axis)),
              data.draw(even_tables(3, 2, uncoupled=axis)),
              data.draw(tables(2, 1, uncoupled=0))]
    for field in fields:
        for name, mesh in SEPARATED_MESHES[field.p].items():
            K, M = assemble.assemble_cylinder(mesh, field)
            k = K.uncoupled_axis
            assert M.uncoupled_axis == k, name
            free = not any(map(any, mesh.clamped[:mesh.n_axial]))
            assert (k is not None) == free, name
            dense = scipy.linalg.eigh(proofs.full(K).toarray(),
                                      proofs.full(M).toarray(),
                                      eigvals_only=True,
                                      subset_by_index=[0, 0])[0]
            pair = eig.smallest_eigenpairs(K, M)[0]
            assert pair.value == pytest.approx(dense, rel=1e-10), name
            if free:
                assert k <= axis, name
                u = pair.vector.reshape([len(f) for f in mesh.axis_free])
                assert np.array_equal(u, np.flip(u, k)), name
            assert pair.residual <= eig.DEFAULT_TOL, name
