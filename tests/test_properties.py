"""Property tests on random piecewise-constant coefficient tables.

Examples are derandomized with a fixed count, so the suite stays
deterministic; every pencil is small enough for the dense solve.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from cylgap import analysis, assemble, coeff, eig, experiments, grid
from cylgap.errors import FactorizationFailed

from test_assemble import cellwise_oracle

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


@st.composite
def tables(draw):
    """Piecewise-constant 2x2 field with 1-4 cells on (-1, 1), each cell
    matrix R R^T + 0.2 I with R drawn entrywise from [-1, 1]."""
    cuts = draw(st.lists(st.integers(-7, 7), max_size=3, unique=True))
    bounds = [-1.0] + sorted(c / 8.0 for c in cuts) + [1.0]
    entry = st.floats(-1.0, 1.0, allow_nan=False)
    R = np.array(draw(st.lists(entry, min_size=4 * (len(bounds) - 1),
                               max_size=4 * (len(bounds) - 1))))
    R = R.reshape(-1, 2, 2)
    return coeff.piecewise_constant_field(
        bounds, R @ R.transpose(0, 2, 1) + 0.2 * np.eye(2))


def first_value(K, M):
    assert K.dim <= eig.DENSE_CUTOFF
    return eig.smallest_eigenpairs(K, M)[0].value


def cross_values(field):
    """(mu1, Lambda1) at the cross resolution of the cylinder meshes."""
    mesh = grid.build_mesh("cross-section", omega=(-1, 1),
                           resolution=RESOLUTION[1])
    return tuple(first_value(*assemble.assemble_cross_section(
        mesh, field, reduced=reduced)) for reduced in (False, True))


def cylinder_forms(field, kind):
    mesh_kind, ell, grading, dirichlet = MESH_KINDS[kind]
    mesh = grid.build_mesh(mesh_kind, ell=ell, omega=(-1, 1),
                           resolution=RESOLUTION, grading=grading)
    if dirichlet:
        mesh = grid.with_full_dirichlet(mesh)
    return assemble.assemble_cylinder(mesh, field)


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
        Kf, Mf = (form.full() for form in cylinder_forms(field, kind))
        lam = scipy.linalg.eigh(Kf.toarray(), Mf.toarray(),
                                subset_by_index=[0, 0])[0][0]
        eig._factor(eig._shifted(Kf, Mf, lam * (1 - 1e-6)))
        with pytest.raises(FactorizationFailed):
            eig._factor(eig._shifted(Kf, Mf, lam * (1 + 1e-6)))


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
    u = box.restrict_free(full.reshape(mesh.shape)[plus].ravel())
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
        assert energy.sum() == pytest.approx(K.energy(u), rel=1e-12), kind
        assert plain.sum() == pytest.approx(KI.energy(u), rel=1e-12), kind
        assert mass.sum() == pytest.approx(M.energy(u), rel=1e-12), kind
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
