import numpy as np
import pytest

from cylgap import assemble, coeff, eig, grid
from cylgap.errors import DimensionMismatch, MeshMismatch, NotElliptic

from conftest import MU1


def interp_sq_integral_1d(part, values):
    """Exact integral of the square of a 1D piecewise-linear nodal function."""
    a, b = values[:-1], values[1:]
    h = np.diff(part)
    return float(np.sum(h * (a * a + a * b + b * b) / 3.0))


class TestCylinderAssembly:
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
        assert M.energy(ones) == pytest.approx(oracle, rel=1e-12)
        assert M.full().sum() == pytest.approx(oracle, rel=1e-10)

    def test_w1_interpolant_stiffness_energy(self, model06):
        # u = W1(x2) on the cylinder: cross terms vanish and
        # u^t K u -> 2 ell int |W1'|^2 = 2 ell mu1
        errs = []
        for res in (16, 32, 64):
            mesh = grid.build_mesh("full-cylinder", ell=1, omega=(-1, 1),
                                   resolution=res)
            K, _ = assemble.assemble_cylinder(mesh, model06)
            vals = np.cos(np.pi * mesh.node_coords()[:, 1] / 2.0)
            vals[mesh.dirichlet_nodes] = 0.0
            u = mesh.restrict_free(vals)
            errs.append(abs(K.energy(u) - 2.0 * MU1))
        assert errs[2] < errs[0]
        assert errs[2] < 2e-3

    def test_mass_row_sums_positive(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=8, grading=2)
        _, M = assemble.assemble_cylinder(mesh, model06)
        full = M.full()
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
        perm = grid.free_reflection_permutation(mesh)
        Kf = K.full().toarray()
        np.testing.assert_allclose(Kf[np.ix_(perm, perm)], Kf, atol=1e-12)

    def test_deterministic_assembly(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=8)
        K1, M1 = assemble.assemble_cylinder(mesh, model06)
        K2, M2 = assemble.assemble_cylinder(mesh, model06)
        assert np.array_equal(K1.values, K2.values)
        assert np.array_equal(M1.values, M2.values)
        assert np.array_equal(K1.col_indices, K2.col_indices)


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

    def test_diagonal_reduced_equals_unreduced(self):
        field = coeff.diagonal_field([2.0, 3.0])
        mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=16)
        K0, M0 = assemble.assemble_cross_section(mesh, field)
        K1, M1 = assemble.assemble_cross_section(mesh, field, reduced=True)
        np.testing.assert_array_equal(K0.values, K1.values)
        np.testing.assert_array_equal(M0.values, M1.values)

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
        K, M = assemble.assemble_dirichlet_cylinder(mesh, field)
        sig = eig.smallest_eigenpairs(K, M)[0].value
        assert sig == pytest.approx(np.pi**2 / 2.0, rel=2e-3)

    def test_dirichlet_dominates_mixed(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=8)
        K, M = assemble.assemble_cylinder(mesh, model06)
        Kd, Md = assemble.assemble_dirichlet_cylinder(mesh, model06)
        lam = eig.smallest_eigenpairs(K, M)[0].value
        sig = eig.smallest_eigenpairs(Kd, Md)[0].value
        assert lam <= sig + 1e-10

    def test_inverse_square_rate(self, model06, cross32):
        # sigma - mu ~ C / L^2 with a stable fitted constant
        cs = []
        for L in (2, 4, 8):
            mesh = grid.build_mesh("full-cylinder", ell=L, omega=(-1, 1),
                                   resolution=(8, 32))
            Kd, Md = assemble.assemble_dirichlet_cylinder(mesh, model06)
            sig = eig.smallest_eigenpairs(Kd, Md)[0].value
            cs.append((sig - cross32["mu1"]) * L * L)
        assert max(cs) / min(cs) < 1.3


class TestFormStorage:
    def test_lower_triangle_only(self, model06):
        mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=8)
        K, _ = assemble.assemble_cross_section(mesh, model06)
        low = K.lower.tocoo()
        assert np.all(low.row >= low.col)
        full = K.full()
        np.testing.assert_allclose((full - full.T).toarray(), 0.0, atol=0.0)

    def test_coordinate_dump_round_trip(self, tmp_path, model06):
        mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=8)
        K, _ = assemble.assemble_cross_section(mesh, model06)
        path = tmp_path / "K.txt"
        assemble.dump_coordinate(K, path)
        rows, cols, vals = [], [], []
        for line in path.read_text().splitlines():
            i, j, v = line.split()
            rows.append(int(i))
            cols.append(int(j))
            vals.append(float(v))
        ref = K.lower.tocoo()
        np.testing.assert_array_equal(rows, ref.row)
        np.testing.assert_array_equal(cols, ref.col)
        np.testing.assert_allclose(vals, ref.data, rtol=0, atol=0)

    def test_provenance(self, model06):
        mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=8)
        K, M = assemble.assemble_cross_section(mesh, model06)
        assert K.kind == "stiffness" and M.kind == "mass"
        assert "model-delta" in K.provenance["field"]
        assert K.provenance["quadrature"] == "gauss2"

    def test_midpoint_rule_for_tables(self):
        field = coeff.piecewise_constant_field(
            [-1.0, 0.0, 1.0], [np.diag([2.0, 2.0]), np.diag([1.0, 1.0])])
        mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=8)
        K, _ = assemble.assemble_cross_section(mesh, field)
        assert K.provenance["quadrature"] == "midpoint"
