import ast
import itertools
import pathlib
import re

import numpy as np
import pytest

from cylgap import assemble, coeff, eig, grid
from cylgap.errors import DimensionMismatch, MeshMismatch, NotElliptic

import proofs
from conftest import MU1


def interp_sq_integral_1d(part, values):
    """Exact integral of the square of a 1D piecewise-linear nodal function."""
    a, b = values[:-1], values[1:]
    h = np.diff(part)
    return float(np.sum(h * (a * a + a * b + b * b) / 3.0))


def cellwise_oracle(mesh, mats, midpoint):
    """Dense (K, M) assembled cell by cell: the coefficient sampled at every
    2-point Gauss point of every cell (at its centre when ``midpoint``),
    one einsum over all cells, Dirichlet rows and columns dropped."""
    d = mesh.ndim
    N, G = assemble.reference_basis(d)
    nq = 2**d
    h = mesh.cell_sizes()
    vol = mesh.cell_volumes()
    if midpoint:
        C = np.repeat(mats(mesh.cell_centers())[:, None], nq, axis=1)
    else:
        pts = assemble.quadrature_coords(mesh).reshape(-1, d)
        C = mats(pts).reshape(mesh.n_cells, nq, d, d)
    Cs = C / h[:, None, :, None] / h[:, None, None, :]
    Kloc = np.einsum("cqab,qai,qbj->cij", Cs, G, G) * (vol / nq)[:, None, None]
    Mloc = vol[:, None, None] * (N.T @ N / nq)
    cells = mesh.cell_node_indices()
    idx = (cells[:, :, None], cells[:, None, :])
    free = np.ix_(mesh.free_nodes, mesh.free_nodes)
    out = []
    for loc in (Kloc, Mloc):
        full = np.zeros((mesh.n_nodes, mesh.n_nodes))
        np.add.at(full, idx, loc)
        out.append(full[free])
    return out


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
    Ko, Mo = cellwise_oracle(mesh, mats, field.piecewise_constant)
    for form, oracle in ((K, Ko), (M, Mo)):
        dev = np.abs(form.full().toarray() - oracle).max()
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
        perm = proofs.free_reflection_permutation(mesh)
        Kf = K.full().toarray()
        np.testing.assert_allclose(Kf[np.ix_(perm, perm)], Kf, atol=1e-12)

    def test_deterministic_assembly(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=8)
        K1, M1 = assemble.assemble_cylinder(mesh, model06)
        K2, M2 = assemble.assemble_cylinder(mesh, model06)
        assert np.array_equal(K1.lower.data, K2.lower.data)
        assert np.array_equal(M1.lower.data, M2.lower.data)
        assert np.array_equal(K1.lower.indices, K2.lower.indices)


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
        np.testing.assert_array_equal(K0.lower.data, K1.lower.data)
        np.testing.assert_array_equal(M0.lower.data, M1.lower.data)

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
        cs = []
        for L in (2, 4, 8):
            mesh = grid.build_mesh("full-cylinder", ell=L, omega=(-1, 1),
                                   resolution=(8, 32))
            Kd, Md = assemble.assemble_cylinder(
                grid.with_full_dirichlet(mesh), model06)
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


def test_package_defines_only_what_a_run_reaches():
    # a module-level def or class is dead when no Name or Attribute
    # outside dead bodies (and outside __init__.py, which only re-exports)
    # refers to it; repeat until nothing changes.  The console script
    # cli.main is the one entry point.  Code only tests need belongs in
    # tests/proofs.py
    src = pathlib.Path(assemble.__file__).parent
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))
             if path.name != "__init__.py"}
    defs = {(mod, node.name): node for mod, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}
    dead = set()
    while True:
        names = set()
        for mod, tree in trees.items():
            for node in tree.body:
                key = (mod, getattr(node, "name", None))
                if key in dead:
                    continue
                refs = {n.id if isinstance(n, ast.Name) else n.attr
                        for n in ast.walk(node)
                        if isinstance(n, (ast.Name, ast.Attribute))}
                # a def's references to itself do not keep it alive
                names |= refs - {key[1]} if key in defs else refs
        new = {key for key in defs
               if key not in dead and key[1] not in names} - {("cli", "main")}
        if not new:
            break
        dead |= new
    assert sorted(dead) == []


def test_kronecker_products_span_free_nodes_only(model06, monkeypatch):
    # Dirichlet elimination happens on the factors: every Kronecker
    # product is already n_free x n_free, so no matrix over clamped nodes
    # is formed and sliced afterwards
    shapes = []
    kron = assemble._kron

    def recording_kron(factors):
        out = kron(factors)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(assemble, "_kron", recording_kron)
    cyl = grid.build_mesh("full-cylinder", ell=16, omega=(-1, 1),
                          resolution=(8, 16))
    multi = grid.build_mesh("multi-direction", ell=4, omega=(-1, 1),
                            resolution=(3, 3, 12))
    for mesh, field in ((cyl, model06),
                        (grid.with_full_dirichlet(multi),
                         coeff.multi_model_field(0.6))):
        shapes.clear()
        K, M = assemble.assemble_cylinder(mesh, field)
        n = mesh.n_free
        assert K.dim == M.dim == n
        # p + n_cross slots squared for K, one product for M
        assert len(shapes) == mesh.ndim**2 + 1
        assert set(shapes) == {(n, n)}
    assert cyl.n_free == 7967
