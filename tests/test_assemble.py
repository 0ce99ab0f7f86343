import ast
import collections
import itertools
import pathlib
import re

import numpy as np
import pytest

from cylgap import analysis, assemble, coeff, eig, grid
from cylgap import experiments as ex
from cylgap.errors import DimensionMismatch, MeshMismatch, NotElliptic

import cylgap
import proofs
from conftest import BOTH_ROWS, MU1, same_bits


def interp_sq_integral_1d(part, values):
    """Exact integral of the square of a 1D piecewise-linear nodal function."""
    a, b = values[:-1], values[1:]
    h = np.diff(part)
    return float(np.sum(h * (a * a + a * b + b * b) / 3.0))


def test_reference_tables_match_loop_form():
    # the Kronecker-product tables against the per-point products they
    # replace: same factors in the same order, so equal bit for bit
    xi = assemble.gauss_points_01()
    n1 = np.stack([1.0 - xi, xi])
    d1 = np.array([-1.0, 1.0])
    meshes = {1: grid.build_mesh("cross-section", resolution=3),
              2: grid.build_mesh("cross-section", omega=((-1, 1), (0, 2)),
                                 resolution=3),
              3: grid.build_mesh("multi-direction", ell=2, resolution=2,
                                 grading=2)}
    for d in (1, 2, 3):
        N, G = assemble.reference_basis(d)
        combos = list(itertools.product((0, 1), repeat=d))
        for qi, qc in enumerate(combos):
            for ki, kc in enumerate(combos):
                vals = [n1[kc[a], qc[a]] for a in range(d)]
                assert N[qi, ki] == np.prod(vals)
                for b in range(d):
                    parts = list(vals)
                    parts[b] = d1[kc[b]]
                    assert G[qi, b, ki] == np.prod(parts)
        pts = assemble.quadrature_coords(meshes[d])
        for qi, qc in enumerate(combos):
            off = np.array([xi[c] for c in qc])
            assert np.array_equal(pts[:, qi],
                                  meshes[d].cell_origins()
                                  + meshes[d].cell_sizes() * off)


TABLE = coeff.piecewise_constant_field(
    [-1.0, -0.3, 0.2, 1.0],
    [[[2.0, 0.5], [0.5, 1.0]], [[1.0, -0.3], [-0.3, 2.0]],
     [[1.5, 0.2], [0.2, 1.2]]])
BOX = coeff.field_from_entries(
    3, 1, {(0, 0): 1.0, (0, 1): 0.3, (0, 2): lambda x: 0.2 * x[:, 1],
           (1, 1): lambda x: 1.0 + 0.25 * x[:, 0] ** 2, (1, 2): 0.1,
           (2, 2): 1.0}, kind="box")
BOX_OMEGA = ((-1, 1), (0, 2))

ORACLE_CASES = {
    "full": (coeff.asymmetric_model_field(0.5), "full-cylinder", {}),
    "half-plus": (coeff.asymmetric_model_field(0.5), "half-plus", {}),
    "half-minus": (coeff.variable_a22_field(0.4), "half-minus", {}),
    "graded": (coeff.neg_coupling_field(), "full-cylinder",
               {"ell": 4, "grading": 3}),
    "graded-half": (coeff.model_field(0.6), "half-plus",
                    {"ell": 4, "grading": 2}),
    "dirichlet": (coeff.asymmetric_model_field(0.5), "dirichlet",
                  {"ell": 4, "grading": 2}),
    "multi": (coeff.multi_model_field(0.6), "multi-direction",
              {"resolution": (3, 2, 6), "grading": 2}),
    "multi-dirichlet": (coeff.multi_model_field(0.6), "dirichlet",
                        {"resolution": (3, 2, 6)}),
    "box": (BOX, "full-cylinder",
            {"omega": BOX_OMEGA, "resolution": (2, 4, 3), "grading": 2}),
    "table": (TABLE, "half-plus", {"ell": 4, "grading": 2}),
    "cross": (coeff.asymmetric_model_field(0.5), "cross-section", {}),
    "cross-reduced": (coeff.asymmetric_model_field(0.5), "reduced", {}),
    "cross-table": (TABLE, "cross-section", {}),
    "cross-table-reduced": (TABLE, "reduced", {}),
    "cross-box": (BOX, "cross-section",
                  {"omega": BOX_OMEGA, "resolution": (5, 4)}),
    "cross-box-reduced": (BOX, "reduced",
                          {"omega": BOX_OMEGA, "resolution": (5, 4)}),
    "cross-multi-reduced": (coeff.multi_model_field(0.6), "reduced", {}),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_kronecker_assembly_matches_cellwise_oracle(case):
    field, kind, opts = ORACLE_CASES[case]
    cross = kind in ("cross-section", "reduced")
    opts = {"ell": 2, "omega": (-1, 1), "resolution": 8 if cross else (4, 8),
            "grading": 1, **opts}
    p = field.p
    if cross:
        mesh = grid.build_mesh("cross-section", omega=opts["omega"],
                               resolution=opts["resolution"])
        reduced = kind == "reduced"
        K, M = assemble.assemble_cross_section(mesh, field, reduced=reduced)
        if reduced:
            mats = lambda x: coeff.schur_reduce_many(field, x)
        else:
            mats = lambda x: field.eval_many(x)[:, p:, p:]
    else:
        cyl = "multi-direction" if p == 2 else "full-cylinder"
        mesh = grid.build_mesh(cyl if kind == "dirichlet" else kind,
                               ell=opts["ell"], omega=opts["omega"],
                               resolution=opts["resolution"],
                               grading=opts["grading"])
        if kind == "dirichlet":
            mesh = grid.with_full_dirichlet(mesh)
        K, M = assemble.assemble_cylinder(mesh, field)
        mats = lambda x: field.eval_many(x[:, p:])
    Ko, Mo = proofs.cellwise_oracle(mesh, mats, field.piecewise_constant)
    for form, oracle in ((K, Ko), (M, Mo)):
        dev = np.abs(proofs.full(form).toarray() - oracle).max()
        assert dev <= 1e-13 * np.abs(oracle).max()


class TestCylinderAssembly:
    @pytest.mark.parametrize("kind, field, omega, res", [
        ("full-cylinder", coeff.asymmetric_model_field(0.5), (-1, 1), (4, 8)),
        ("multi-direction", coeff.multi_model_field(0.6), (-1, 1),
         (3, 3, 8)),
        ("half-plus", BOX, BOX_OMEGA, (3, 4, 3)),
    ], ids=["full-cylinder", "multi-direction", "box-half-plus"])
    def test_samples_cross_section_only(self, kind, field, omega, res):
        # A depends on X2 only, so one assembly needs A at the Gauss
        # points of the cross cells, not at those of every cylinder cell
        points = []

        def counting(x):
            points.append(len(x))
            return field.eval_many(x)

        wrapped = coeff.CoefficientField(field.n, field.p, counting)
        mesh = grid.build_mesh(kind, ell=4, omega=omega, resolution=res,
                               grading=2)
        assemble.assemble_cylinder(mesh, wrapped)
        q = field.cross_dim
        n_cross_cells = int(np.prod(mesh.cells_shape[field.p:]))
        assert 0 < sum(points) <= 2**q * n_cross_cells


    def test_identity_field_pins_lambda_to_mu(self):
        # delta = 0: the x1 direction decouples; lambda equals the
        # cross-section value of the very same cross partition
        field = coeff.identity_field()
        for res in (8, 16):
            mesh = grid.build_mesh("full-cylinder", ell=1, omega=(-1, 1),
                                   resolution=res)
            K, M = assemble.assemble_cylinder(mesh, field)
            lam = eig.smallest_eigenpairs(K, M)[0].value
            cm = grid.build_mesh("cross-section", omega=(-1, 1),
                                 resolution=res)
            Kc, Mc = assemble.assemble_cross_section(cm, field)
            mu = eig.smallest_eigenpairs(Kc, Mc)[0].value
            assert lam == pytest.approx(mu, abs=1e-9)
        assert lam == pytest.approx(MU1, abs=2e-3)

    def test_partition_of_unity_mass(self, model06):
        mesh = grid.build_mesh("half-plus", ell=4, omega=(-1, 1),
                               resolution=(4, 4))
        _, M = assemble.assemble_cylinder(mesh, model06)
        ones = np.ones(mesh.n_free)
        # independent oracle: the free-node indicator is a tensor product
        # of 1D hat interpolants, so its square integrates in closed form
        gx = np.ones(len(mesh.axis_partitions[0]))
        gx[-1] = 0.0
        gy = np.ones(len(mesh.axis_partitions[1]))
        gy[0] = gy[-1] = 0.0
        oracle = (interp_sq_integral_1d(mesh.axis_partitions[0], gx)
                  * interp_sq_integral_1d(mesh.axis_partitions[1], gy))
        assert proofs.energy(M, ones) == pytest.approx(oracle, rel=1e-12)
        assert proofs.full(M).sum() == pytest.approx(oracle, rel=1e-10)

    def test_w1_interpolant_stiffness_energy(self, model06):
        # u = W1(x2) on the cylinder: cross terms vanish and
        # u^t K u -> 2 ell int |W1'|^2 = 2 ell mu1
        errs = []
        for res in (16, 32, 64):
            mesh = grid.build_mesh("full-cylinder", ell=1, omega=(-1, 1),
                                   resolution=res)
            K, _ = assemble.assemble_cylinder(mesh, model06)
            vals = np.cos(np.pi * proofs.node_coords(mesh)[:, 1] / 2.0)
            vals[proofs.dirichlet_nodes(mesh)] = 0.0
            u = proofs.restrict_free(mesh, vals)
            errs.append(abs(proofs.energy(K, u) - 2.0 * MU1))
        assert errs[2] < errs[0]
        assert errs[2] < 2e-3

    def test_mass_row_sums_positive(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=8, grading=2)
        _, M = assemble.assemble_cylinder(mesh, model06)
        full = proofs.full(M)
        assert np.all(np.asarray(full.sum(axis=1)).ravel() > 0.0)
        np.linalg.cholesky(full.toarray())  # raises unless M is SPD

    def test_dimension_mismatch(self, model06):
        mesh = grid.build_mesh("multi-direction", ell=2, omega=(-1, 1),
                               resolution=(2, 2, 4))
        with pytest.raises(DimensionMismatch):
            assemble.assemble_cylinder(mesh, model06)
        cm = grid.build_mesh("cross-section", omega=(-1, 1), resolution=8)
        with pytest.raises(MeshMismatch):
            assemble.assemble_cylinder(cm, model06)

    def test_not_elliptic_propagates(self):
        bad = coeff.field_from_entries(
            2, 1, {(0, 0): 1.0, (0, 1): lambda p: 1.5 * p[:, 0], (1, 1): 1.0},
            kind="user")
        mesh = grid.build_mesh("full-cylinder", ell=1, omega=(-1, 1),
                               resolution=8)
        with pytest.raises(NotElliptic):
            assemble.assemble_cylinder(mesh, bad)

    def test_reflection_conjugation_invariance(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=8)
        K, M = assemble.assemble_cylinder(mesh, model06)
        perm = proofs.free_reflection_permutation(mesh)
        Kf = proofs.full(K).toarray()
        np.testing.assert_allclose(Kf[np.ix_(perm, perm)], Kf, atol=1e-12)

    def test_deterministic_assembly(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=8)
        K1, M1 = assemble.assemble_cylinder(mesh, model06)
        K2, M2 = assemble.assemble_cylinder(mesh, model06)
        K1, M1, K2, M2 = map(proofs.full, (K1, M1, K2, M2))
        assert np.array_equal(K1.data, K2.data)
        assert np.array_equal(M1.data, M2.data)
        assert np.array_equal(K1.indices, K2.indices)


class TestSlotMemo:
    @staticmethod
    def meshes():
        cyl = grid.build_mesh("full-cylinder", ell=6, omega=(-1, 1),
                              resolution=(4, 8))
        half = grid.build_mesh("half-plus", ell=6, omega=(-1, 1),
                               resolution=(4, 8))
        return cyl, half, grid.with_full_dirichlet(cyl)

    def test_each_distinct_set_is_built_once_in_a_block(self, model06,
                                                        slot_builds):
        cyl, half, _ = self.meshes()
        full = cyl.scatter_free(np.ones(cyl.n_free))
        with ex.solve_memo():
            for _ in range(2):
                assemble.assemble_cylinder(cyl, model06)
                assemble.assemble_cylinder(half, model06)
                assemble.assemble_cylinder(cyl, model06.reflected())
                analysis.axial_densities(full, cyl.axis_partitions, model06)
                analysis.axial_densities(full, cyl.axis_partitions)
        # the two axial factors and the cross slots of A, of the reflected
        # A and of C = I; the cross mass is the C = I set's value slot, and
        # diagnostics share the assembly's cross sets
        assert len(slot_builds) == len(set(slot_builds)) == 5

    def test_each_1d_factor_is_a_view_of_its_set(self, model06):
        # a 1D restriction slices the columns of its all-node set's DIA
        # data, so the store holds the all-node sets and no restriction
        cyl = self.meshes()[0]
        full = cyl.scatter_free(np.ones(cyl.n_free))
        with ex.solve_memo():
            forms = [assemble.assemble_cylinder(mesh, model06)
                     for mesh in self.meshes()]
            analysis.axial_densities(full, cyl.axis_partitions, model06)
            store = assemble._MEMO.get()
            kinds = collections.Counter(key[0] for key in store)
            sets = [S.data for key, rows in store.items()
                    if key[0] == "slots" for row in rows for S in row]
            keys = [key for key in store if key[0] == "slots"]
        factors = [F for pair in forms for form in pair
                   for term in form.terms for F in term]
        assert len(factors) == 3 * (4 * 2 + 2)
        for F in factors:
            assert sum(np.shares_memory(F.data, data) for data in sets) == 1
        # the axial sets of the full cylinder (mixed and clamped alike)
        # and of the half one, and the cross sets of A and of C = I
        assert len(keys) == 4 and all(len(key) == 4 for key in keys)
        # besides them: A's samples on the cross mesh, and the factor
        # meshes of the cross partition and of the two axial partitions
        assert kinds == {"slots": 4, "samples": 1, "mesh": 3}

    def test_block_values_equal_fresh_ones_bitwise(self, model06):
        meshes = self.meshes()
        cyl = meshes[0]

        def everything():
            # the reflected field's samples differ from A's in bytes only
            forms = [assemble.assemble_cylinder(m, f) for m in meshes
                     for f in (model06, model06.reflected())]
            pair = eig.smallest_eigenpairs(*forms[0])[0]
            return forms, pair, [
                analysis.concentration_split(pair, cyl, model06),
                analysis.decay_profile(pair.vector, cyl),
                analysis.symmetry_defect(pair.vector, cyl)]

        forms, pair, diagnostics = everything()
        with ex.solve_memo():
            for _ in range(2):
                held_forms, held_pair, held_diagnostics = everything()
                assert same_bits(held_forms, forms)
                assert np.array_equal(held_pair.vector, pair.vector)
                assert held_diagnostics == diagnostics

    def test_nothing_is_stored_outside_a_block(self, model06, slot_builds,
                                               samplings):
        cyl = self.meshes()[0]
        assert assemble._MEMO.get() is None
        first = assemble.assemble_cylinder(cyl, model06)
        again = assemble.assemble_cylinder(cyl, model06)
        assert same_bits(first, again)
        assert len(slot_builds) == 2 * 3  # axial factor, cross slots, mass
        assert len(samplings) == 2
        with ex.solve_memo():
            assemble.assemble_cylinder(cyl, model06)
        assert assemble._MEMO.get() is None
        assemble.assemble_cylinder(cyl, model06)
        assert len(slot_builds) == 4 * 3
        assert len(samplings) == 4

    def test_each_field_is_sampled_once_in_a_block(self, model06,
                                                   samplings):
        # a field, its reflection, its Schur reduction and a row
        # restriction are four samplings, whatever reads them
        meshes = self.meshes()
        cyl = meshes[0]
        cross = assemble.factor_mesh(cyl.cross_partitions)
        reflected = model06.reflected()
        row = coeff.row_restriction_field(coeff.multi_model_field(0.6), 0)
        with ex.solve_memo():
            for _ in range(2):
                for mesh, field in itertools.product(
                        meshes, (model06, reflected, row)):
                    assemble.assemble_cylinder(mesh, field)
                for reduced in (False, True):
                    assemble.assemble_cross_section(cross, model06, reduced)
                pair = eig.smallest_eigenpairs(
                    *assemble.assemble_cylinder(cyl, model06))[0]
                analysis.concentration_split(pair, cyl, model06)
                analysis.decay_profile(pair.vector, cyl)
                analysis.symmetry_defect(pair.vector, cyl)
        assert len(samplings) == len(set(samplings)) == 4
        assert set(samplings) == {(cross.key, model06, False),
                                  (cross.key, reflected, False),
                                  (cross.key, model06, True),
                                  (cross.key, row, False)}


class TestCrossSection:
    def test_unreduced_converges_to_mu1(self):
        field = coeff.model_field(0.6)
        mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=64)
        K, M = assemble.assemble_cross_section(mesh, field)
        mu = eig.smallest_eigenpairs(K, M)[0].value
        assert mu == pytest.approx(MU1, abs=2e-4)

    def test_reduced_converges_to_lambda1(self):
        field = coeff.model_field(0.6)
        mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=64)
        K, M = assemble.assemble_cross_section(mesh, field, reduced=True)
        lam = eig.smallest_eigenpairs(K, M)[0].value
        assert lam == pytest.approx(0.64 * MU1, abs=2e-4)
        assert 0.64 * MU1 == pytest.approx(1.5791367, abs=1e-7)

    def test_restricts_only_the_slots_it_reads(self, model06, monkeypatch):
        # a plain cross-section pencil reads the cross block of A's set,
        # one of its four slot matrices in 1D, and the cross mass
        restricted = []
        restrict = assemble._restrict

        def counted(S, shape, free):
            restricted.append(S)
            return restrict(S, shape, free)

        monkeypatch.setattr(assemble, "_restrict", counted)
        mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=8)
        K, _ = assemble.assemble_cross_section(mesh, model06)
        assert len(restricted) == 2 and len(K.terms) == 1

    def test_diagonal_reduced_equals_unreduced(self):
        field = coeff.diagonal_field([2.0, 3.0])
        mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=16)
        K0, M0 = assemble.assemble_cross_section(mesh, field)
        K1, M1 = assemble.assemble_cross_section(mesh, field, reduced=True)
        np.testing.assert_array_equal(proofs.full(K0).data,
                                      proofs.full(K1).data)
        np.testing.assert_array_equal(proofs.full(M0).data,
                                      proofs.full(M1).data)

    def test_convergence_order_two(self):
        field = coeff.identity_field()
        errs = []
        for res in (16, 32, 64):
            mesh = grid.build_mesh("cross-section", omega=(-1, 1),
                                   resolution=res)
            K, M = assemble.assemble_cross_section(mesh, field)
            mu = eig.smallest_eigenpairs(K, M)[0].value
            errs.append(abs(mu - MU1))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for q in orders:
            assert 1.8 <= q <= 2.2

    def test_2d_box_cross_section(self):
        field = coeff.identity_field(n=3, p=1)
        mesh = grid.build_mesh("cross-section", omega=((-1, 1), (-1, 1)),
                               resolution=16)
        K, M = assemble.assemble_cross_section(mesh, field)
        mu = eig.smallest_eigenpairs(K, M)[0].value
        assert mu == pytest.approx(2 * MU1, rel=2e-3)


class TestDirichletCylinder:
    def test_identity_square_spectrum(self):
        field = coeff.identity_field()
        mesh = grid.build_mesh("full-cylinder", ell=1, omega=(-1, 1),
                               resolution=32)
        K, M = assemble.assemble_cylinder(
            grid.with_full_dirichlet(mesh), field)
        sig = eig.smallest_eigenpairs(K, M)[0].value
        assert sig == pytest.approx(np.pi**2 / 2.0, rel=2e-3)

    def test_dirichlet_dominates_mixed(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=8)
        K, M = assemble.assemble_cylinder(mesh, model06)
        Kd, Md = assemble.assemble_cylinder(
            grid.with_full_dirichlet(mesh), model06)
        lam = eig.smallest_eigenpairs(K, M)[0].value
        sig = eig.smallest_eigenpairs(Kd, Md)[0].value
        assert lam <= sig + 1e-10

    def test_inverse_square_rate(self, model06, cross32):
        # sigma - mu ~ C / L^2 with a stable fitted constant
        cs, residuals = [], []
        for L in (2, 4, 8):
            mesh = grid.build_mesh("full-cylinder", ell=L, omega=(-1, 1),
                                   resolution=(8, 32))
            Kd, Md = assemble.assemble_cylinder(
                grid.with_full_dirichlet(mesh), model06)
            pair = eig.smallest_eigenpairs(Kd, Md)[0]
            cs.append((pair.value - cross32["mu1"]) * L * L)
            residuals.append(pair.residual)
        assert max(cs) / min(cs) < 1.3
        # eig.LANCZOS_TOL pins the residuals: 1.4e-11 at most when
        # measured, and 1.9e-10 (at L = 4) with LANCZOS_TOL 10 times looser
        assert max(residuals) <= 1e-10


class TestFormStorage:
    def test_lower_triangle_only(self, model06):
        mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=8)
        K, _ = assemble.assemble_cross_section(mesh, model06)
        low = K.lower.tocoo()
        assert np.all(low.row >= low.col)
        full = proofs.full(K)
        np.testing.assert_allclose((full - full.T).toarray(), 0.0, atol=0.0)

    def test_provenance(self, model06):
        mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=8)
        K, _ = assemble.assemble_cross_section(mesh, model06)
        assert "model-delta" in K.provenance["field"]
        assert K.provenance["quadrature"] == "gauss2"

    def test_midpoint_rule_for_tables(self):
        field = coeff.piecewise_constant_field(
            [-1.0, 0.0, 1.0], [np.diag([2.0, 2.0]), np.diag([1.0, 1.0])])
        mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=8)
        K, _ = assemble.assemble_cross_section(mesh, field)
        assert K.provenance["quadrature"] == "midpoint"

    def test_package_reads_no_private_provenance(self, model06):
        # the "_"-prefixed entries (the mesh and field objects) are kept
        # for the benchmark tracer; the package identifies a form by its
        # public "mesh" key and "field" signature
        mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=8)
        K, _ = assemble.assemble_cross_section(mesh, model06)
        private = [k for k in K.provenance if k.startswith("_")]
        reads = [re.compile(rf"""(\[|\.get\()\s*["']{re.escape(k)}["']""")
                 for k in private]
        src = pathlib.Path(assemble.__file__).parent
        hits = [f"{path.name}:{n}: {line.strip()}"
                for path in sorted(src.glob("*.py"))
                for n, line in enumerate(path.read_text().splitlines(), 1)
                if any(r.search(line) for r in reads)]
        assert hits == []


class TestMirrorAxis:
    """A form records the index of the first axial axis that its samples
    leave uncoupled and whose ends are both free, whatever its partition;
    None where no such axis exists, so an uncoupled axis with a clamped
    end is not recorded."""

    @staticmethod
    def axis(field, kind, ell=2, dirichlet=False, mesh=None):
        if mesh is None:
            mesh = grid.build_mesh(kind, ell=ell, omega=(-1, 1),
                                   resolution=(3,) * field.p + (4,))
        if dirichlet:
            mesh = grid.with_full_dirichlet(mesh)
        K, M = assemble.assemble_cylinder(mesh, field)
        axis = K.uncoupled_axis
        assert M.uncoupled_axis == axis
        if axis is not None:
            assert not any(mesh.clamped[axis])
        return axis

    def test_the_uncoupled_axial_row_is_recorded(self):
        field = coeff.multi_model_field(0.6)
        assert self.axis(field, "multi-direction") == 1
        assert self.axis(field, "multi-direction", dirichlet=True) is None
        assert self.axis(coeff.diagonal_field([1.0, 1.0, 1.0], p=2),
                         "multi-direction") == 0

    def test_a_coupled_row_records_no_axis(self, model06):
        # x1 and x2 couple to each other, not to the cross direction
        axial = coeff.field_from_entries(
            3, 2, {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0, (0, 1): 0.3},
            kind="axial-pair")
        assert self.axis(BOTH_ROWS, "multi-direction") is None
        assert self.axis(axial, "multi-direction") is None
        assert self.axis(model06, "full-cylinder") is None

    # the uncoupled axis of the two tests below has a clamped end, so no
    # axis is recorded; with both ends free it is, mirrored or not

    def test_an_end_clamped_alone_records_no_axis(self):
        uncoupled = coeff.model_field(0.0)
        assert self.axis(uncoupled, "full-cylinder") == 0
        for kind in ("half-plus", "half-minus"):
            assert self.axis(uncoupled, kind) is None
        # a half-plus mesh on a partition symmetric about 0
        x = np.linspace(-1.0, 1.0, 5)
        half = grid.TensorMesh("half-plus", [x, x], 1, 1.0)
        assert self.axis(uncoupled, None, mesh=half) is None

    def test_a_partition_that_does_not_mirror_records_no_axis(self):
        # a partition that is not symmetric about 0, with both ends clamped
        # or both free
        uncoupled = coeff.model_field(0.0)
        x = np.array([-1.0, -0.4, 0.0, 0.5, 1.0])
        mesh = grid.TensorMesh("full-cylinder", [x, np.linspace(-1, 1, 5)],
                               1, 1.0)
        assert self.axis(uncoupled, None, dirichlet=True, mesh=mesh) is None
        assert self.axis(uncoupled, None, mesh=mesh) == 0


def test_package_defines_only_what_a_run_reaches():
    # a module-level def or class, or a public method or property of a
    # class, is dead when no Name or Attribute outside dead bodies (and
    # outside __init__.py, which only re-exports) refers to it; repeat
    # until nothing changes.  The console script cli.main is the one entry
    # point; dunders are called by Python itself.  So is a defaulted
    # parameter that no call passes, and a dataclass field that no code
    # reads (the two scans below).  Code only tests need belongs in
    # tests/proofs.py
    src = pathlib.Path(assemble.__file__).parent
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))
             if path.name != "__init__.py"}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def public_methods(cls):
        return [node for node in cls.body if isinstance(node, kinds[:2])
                and not node.name.startswith("_")]

    # (key, owner, def, body): a module-level def or class, or a public
    # method owned by its class, with the nodes whose references it keeps
    # alive; a class keeps all but its public methods alive, and other
    # module statements have no key and always live
    units = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, kinds):
                units.append((None, None, None, [node]))
                continue
            methods = (public_methods(node)
                       if isinstance(node, ast.ClassDef) else [])
            units.append(((mod, node.name), None, node,
                          [n for n in ast.iter_child_nodes(node)
                           if n not in methods]))
            units += [((mod, f"{node.name}.{m.name}"), (mod, node.name), m,
                       [m]) for m in methods]
    exempt = {("cli", "main"),
              # the benchmark's tracer (perfbench/tracer.py) reads it
              # until ROADMAP item 1b/8 replaces that tracer
              ("assemble", "KroneckerForm.lower")}
    dead = set()
    while True:
        names = set()
        for key, owner, node, body in units:
            if key in dead or owner in dead:
                continue
            refs = {n.id if isinstance(n, ast.Name) else n.attr
                    for part in body for n in ast.walk(part)
                    if isinstance(n, (ast.Name, ast.Attribute))}
            # a def's references to itself do not keep it alive
            names |= refs - {node.name} if node else refs
        new = {key for key, _, node, _ in units
               if key and key not in dead and node.name not in names}
        new -= exempt
        if not new:
            break
        dead |= new
    assert sorted(dead) == []
    assert _defaults_no_call_passes(trees) == []
    assert _fields_no_code_reads(trees) == []
    assert _reaches_into_assembly(trees) == []


# calls that sample a coefficient field or build a slot set from samples
SAMPLING_CALLS = {"eval_many", "schur_reduce_many", "coefficient_samples",
                  "_sample", "_build_slots"}


def _reaches_into_assembly(trees):
    """``analysis: name`` for each private name of ``assemble`` that
    ``analysis`` reads (through its module alias or imported alone), and
    ``module: call`` for each call of ``SAMPLING_CALLS`` outside
    ``assemble``, which samples each field once per block, and ``coeff``,
    which defines the evaluation.  There is no exception: property (S)
    is read off the samples that assembly already took."""
    found = []
    aliases = {alias.asname or alias.name
               for node in ast.walk(trees["analysis"])
               if isinstance(node, ast.ImportFrom) and not node.module
               for alias in node.names if alias.name == "assemble"}
    for node in ast.walk(trees["analysis"]):
        if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name) and node.value.id in aliases:
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "assemble":
            names = [alias.name for alias in node.names]
        else:
            names = []
        found += [f"analysis: {name}" for name in names
                  if name.startswith("_")]
    for mod, tree in trees.items():
        if mod in ("assemble", "coeff"):
            continue
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr",
                                                        None))
                if name in SAMPLING_CALLS:
                    found.append(f"{mod}: {name}")
    return found


def _defaults_no_call_passes(trees):
    """``module.def(parameter)`` for each defaulted parameter of a def
    (nested defs and methods included; a class call passes to its
    ``__init__``) that no call in the package passes, by keyword, by
    position, or through ``*`` or ``**``; callees match by name.  The
    defaults of the public API (``cylgap.__all__``) and of the console
    script ``cli.main`` are for callers outside the package."""
    exempt = set(cylgap.__all__) | {"main"}
    calls = {}
    for tree in trees.values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                func = call.func
                name = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(name, []).append(call)
    unpassed = []
    for mod, tree in trees.items():
        for owner in ast.walk(tree):
            if not isinstance(getattr(owner, "body", None), list):
                continue  # a lambda's body is one expression
            for node in owner.body:
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                method = isinstance(owner, ast.ClassDef)
                name = (owner.name if method and node.name == "__init__"
                        else node.name)
                if name in exempt:
                    continue
                args = node.args
                positional = (args.posonlyargs + args.args)[method:]
                defaulted = [
                    (i, a.arg) for i, a in enumerate(positional)
                    if i >= len(positional) - len(args.defaults)] + [
                    (None, a.arg) for a, d in zip(args.kwonlyargs,
                                                  args.kw_defaults) if d]
                for i, arg in defaulted:
                    if not any(
                            any(k.arg in (arg, None) for k in call.keywords)
                            or any(isinstance(a, ast.Starred)
                                   for a in call.args)
                            or (i is not None and len(call.args) > i)
                            for call in calls.get(name, [])):
                        unpassed.append(f"{mod}.{name}({arg})")
    return unpassed


def _fields_no_code_reads(trees):
    """``module.Class.field`` for each field of a dataclass that no
    attribute load in the package names.  ``SweepRecord``'s fields are
    the CSV columns, written through ``vars``; the benchmark's tracer
    (perfbench/tracer.py) reads ``KroneckerForm.provenance`` until
    ROADMAP item 1b replaces that tracer."""
    exempt = {"experiments.SweepRecord", "assemble.KroneckerForm.provenance"}
    reads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    unread = []
    for mod, tree in trees.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in cls.decorator_list):
                unread += [f"{mod}.{cls.name}.{st.target.id}"
                           for st in cls.body if isinstance(st, ast.AnnAssign)
                           and st.target.id not in reads]
    return [name for name in unread
            if name not in exempt and name.rpartition(".")[0] not in exempt]


def test_kronecker_products_span_free_nodes_only(model06):
    # Dirichlet elimination happens on the factors: every factor of a
    # term is already restricted to the free indices of its axes, so the
    # terms span the free nodes and no matrix over clamped nodes is formed
    cyl = grid.build_mesh("full-cylinder", ell=16, omega=(-1, 1),
                          resolution=(8, 16))
    multi = grid.build_mesh("multi-direction", ell=4, omega=(-1, 1),
                            resolution=(3, 3, 12))
    for mesh, field in ((cyl, model06),
                        (grid.with_full_dirichlet(multi),
                         coeff.multi_model_field(0.6))):
        K, M = assemble.assemble_cylinder(mesh, field)
        sizes = [len(free) for free in mesh.axis_free[:mesh.n_axial]]
        sizes.append(assemble.factor_mesh(mesh.cross_partitions).n_free)
        assert K.dim == M.dim == np.prod(sizes) == mesh.n_free
        # one term of K per nonzero entry of the constant A (of
        # p + n_cross slots squared: 4 of model06's 4, 5 of the
        # multi-model field's 9), one term for M
        nonzero = np.count_nonzero(field.eval_many(np.zeros((1, 1))))
        assert len(K.terms) == nonzero and len(M.terms) == 1
        assert nonzero == (4 if mesh is cyl else 5)
        for term in K.terms + M.terms:
            assert [F.shape for F in term] == [(m, m) for m in sizes]
    assert cyl.n_free == 7967
