import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import splu

from cylgap import assemble, coeff, eig, experiments, grid
from cylgap.errors import FactorizationFailed

import proofs
from conftest import MU1


def separable_mixed_spectrum(ell, kmax=6, mmax=6):
    """Analytic eigenvalues of the identity-field mixed problem on
    (-ell, ell) x (-1, 1): Dirichlet modes in x2, Neumann modes in x1."""
    vals = []
    for k in range(1, kmax + 1):
        for m in range(0, mmax + 1):
            vals.append((k * np.pi / 2.0) ** 2 + (m * np.pi / (2 * ell)) ** 2)
    return sorted(vals)


@pytest.fixture(scope="module")
def pencil_1d():
    mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=64)
    K, M = assemble.assemble_cross_section(mesh, coeff.identity_field())
    return K, M


def schur_floor(field, resolution):
    """Lambda1 - margin of ``field`` at a cross resolution: the shift
    that ``solve_cylinder`` uses."""
    ctx = experiments.cross_context(
        field, experiments.ExperimentConfig(resolution=resolution))
    return ctx.Lambda1 - ctx.margin


@pytest.fixture(scope="module")
def pencil_3d():
    """Multi-direction (p = 2) pencil with 2535 free nodes, its two
    smallest eigenvalues from a dense solve and its Schur floor."""
    field = coeff.multi_model_field(0.6)
    mesh = grid.build_mesh("multi-direction", ell=2, omega=(-1, 1),
                           resolution=(3, 3, 8))
    K, M = assemble.assemble_cylinder(mesh, field)
    dense = scipy.linalg.eigh(K.full().toarray(), M.full().toarray(),
                              subset_by_index=[0, 1])[0]
    return K, M, dense, schur_floor(field, 8)


@pytest.fixture(scope="module")
def cylinder_16():
    """The full model cylinder at ell = 16 (n = 7 967, with the
    near-degenerate end pair), its Schur floor and the margin below it."""
    field = coeff.model_field(0.6)
    mesh = grid.build_mesh("full-cylinder", ell=16, omega=(-1, 1),
                           resolution=(8, 16))
    K, M = assemble.assemble_cylinder(mesh, field)
    assert K.dim == 7967
    ctx = experiments.cross_context(
        field, experiments.ExperimentConfig(resolution=16))
    return K, M, ctx.Lambda1 - ctx.margin, ctx.margin


class CountingFactor:
    """A banded Cholesky factor that counts its solves, one per operator
    application of shift-invert Lanczos."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = 0

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b)


@pytest.fixture()
def factors(monkeypatch):
    """Every banded factor made from here on, as a CountingFactor; a
    factor that fails is not listed."""
    made = []
    factor = eig._factor

    def counting_factor(A):
        made.append(CountingFactor(factor(A)))
        return made[-1]

    monkeypatch.setattr(eig, "_factor", counting_factor)
    return made


class TestSmallestEigenpairs:
    def test_1d_identity_spectrum(self, pencil_1d):
        pairs = eig.smallest_eigenpairs(*pencil_1d, count=2)
        assert pairs[0].value == pytest.approx(MU1, abs=3e-4)
        assert pairs[1].value == pytest.approx(np.pi**2, abs=1e-2)
        assert pairs[0].value < pairs[1].value

    def test_identity_pencil(self):
        mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=16)
        _, M = assemble.assemble_cross_section(mesh, coeff.identity_field())
        pairs = eig.smallest_eigenpairs(M, M, count=3)
        for p in pairs:
            assert p.value == pytest.approx(1.0, abs=1e-12)
        # any M-orthonormal set is valid
        V = np.stack([p.vector for p in pairs], axis=1)
        G = V.T @ (M.full() @ V)
        np.testing.assert_allclose(G, np.eye(3), atol=1e-8)

    def test_model_strictly_inside_bounds(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=1, omega=(-1, 1),
                               resolution=32)
        K, M = assemble.assemble_cylinder(mesh, model06)
        lam = eig.smallest_eigenpairs(K, M)[0].value
        margin = 1e-2  # a-priori discretization allowance
        assert 0.64 * MU1 + margin < lam < MU1 - margin

    def test_normalization_and_residual(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=16)
        K, M = assemble.assemble_cylinder(mesh, model06)
        pairs = eig.smallest_eigenpairs(K, M, count=3, tol=1e-9)
        Mf = M.full()
        for p in pairs:
            assert p.vector @ (Mf @ p.vector) == pytest.approx(1.0, abs=1e-10)
            assert p.residual <= 1e-9
        # pairwise M-orthogonal
        V = np.stack([p.vector for p in pairs], axis=1)
        G = V.T @ (Mf @ V)
        assert np.abs(G - np.eye(3)).max() <= 1e-8

    def test_first_vector_constant_sign(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=4, omega=(-1, 1),
                               resolution=8)
        K, M = assemble.assemble_cylinder(mesh, model06)
        u = eig.smallest_eigenpairs(K, M)[0].vector
        assert u.min() >= -1e-8 * u.max()

    def test_rayleigh_matches_value(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=16)
        K, M = assemble.assemble_cylinder(mesh, model06)
        p = eig.smallest_eigenpairs(K, M, tol=1e-9)[0]
        assert K.energy(p.vector) / M.energy(p.vector) == pytest.approx(
            p.value, rel=1e-8)

    def test_pencil_scaling(self, pencil_1d):
        K, M = pencil_1d
        base = eig.smallest_eigenpairs(K, M, count=2)
        K7, M7 = (assemble.SparseSymmetricForm(f.dim, f.lower * 7.5, f.kind)
                  for f in (K, M))
        both = eig.smallest_eigenpairs(K7, M7, count=2)
        only_k = eig.smallest_eigenpairs(K7, M, count=2)
        for b, s, k in zip(base, both, only_k):
            assert s.value == pytest.approx(b.value, rel=1e-10)
            assert k.value == pytest.approx(7.5 * b.value, rel=1e-10)

    def test_degenerate_marking(self):
        K = sparse.diags([1.0, 1.0 + 1e-12, 2.0]).tocsr()
        M = sparse.identity(3, format="csr")
        pairs = eig.smallest_eigenpairs(K, M, count=2)
        assert pairs[0].degenerate and pairs[1].degenerate

    def test_indefinite_pencil_rejected(self):
        K = sparse.diags([-1.0, 1.0, 2.0]).tocsr()
        M = sparse.identity(3, format="csr")
        with pytest.raises(FactorizationFailed):
            eig.smallest_eigenpairs(K, M)

    def test_parameter_validation(self, pencil_1d):
        K, M = pencil_1d
        with pytest.raises(ValueError):
            eig.smallest_eigenpairs(K, M, count=7)
        with pytest.raises(ValueError):
            eig.smallest_eigenpairs(K, M, tol=1e-13)

    def test_arpack_path_matches_dense(self, model06):
        # > DENSE_CUTOFF free nodes forces the shift-invert path
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=16)
        K, M = assemble.assemble_cylinder(mesh, model06)
        assert K.dim > eig.DENSE_CUTOFF
        dense = scipy.linalg.eigh(K.full().toarray(), M.full().toarray(),
                                  subset_by_index=[0, 1])[0]
        for floor in (0.0, schur_floor(model06, 16)):
            pairs = eig.smallest_eigenpairs(K, M, count=2, tol=1e-9,
                                            floor=floor)
            assert pairs[0].value == pytest.approx(dense[0], rel=1e-10)
            assert pairs[1].value == pytest.approx(dense[1], rel=1e-10)

    @pytest.mark.parametrize("count", [1, 2])
    def test_arpack_path_matches_dense_3d(self, pencil_3d, count):
        K, M, dense, schur = pencil_3d
        assert K.dim > eig.DENSE_CUTOFF
        for floor in (0.0, schur):
            pairs = eig.smallest_eigenpairs(K, M, count=count, tol=1e-9,
                                            floor=floor)
            assert len(pairs) == count
            for p, d in zip(pairs, dense):
                assert p.value == pytest.approx(d, rel=1e-10)

    @pytest.mark.parametrize("resolution", [4, 16])  # dense, ARPACK
    def test_floor_above_lambda1_rejected(self, model06, resolution):
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=resolution)
        K, M = assemble.assemble_cylinder(mesh, model06)
        assert (K.dim > eig.DENSE_CUTOFF) == (resolution == 16)
        lam = scipy.linalg.eigh(K.full().toarray(), M.full().toarray(),
                                subset_by_index=[0, 1])[0]
        with pytest.raises(FactorizationFailed, match="floor"):
            eig.smallest_eigenpairs(K, M, floor=(lam[0] + lam[1]) / 2)

    def test_floor_with_unshared_pattern(self):
        # tridiagonal K against a diagonal M takes the general difference
        n = eig.DENSE_CUTOFF + 100
        K = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n),
                         format="csr")
        M = sparse.identity(n, format="csr")
        exact = 4 * np.sin(np.arange(1, 3) * np.pi / (2 * (n + 1)))**2
        pairs = eig.smallest_eigenpairs(K, M, count=2, floor=exact[0] / 2)
        for p, e in zip(pairs, exact):
            assert p.value == pytest.approx(e, rel=1e-10)

    def test_schur_floor_saves_operator_applications(self, cylinder_16,
                                                     factors):
        K, M, schur, _ = cylinder_16
        values = [eig.smallest_eigenpairs(K, M, seed=0, floor=floor)[0].value
                  for floor in (0.0, schur)]
        assert values[1] == pytest.approx(values[0], rel=1e-10)
        at_zero, at_floor = (f.solves for f in factors)
        assert at_floor < at_zero  # 75 against 129 when measured

    def test_singular_above_cutoff_is_factorization_failed(self):
        n = eig.DENSE_CUTOFF + 100
        K = sparse.diags(np.arange(n, dtype=float)).tocsr()  # K[0, 0] = 0
        M = sparse.identity(n, format="csr")
        with pytest.raises(FactorizationFailed, match="singular"):
            eig.smallest_eigenpairs(K, M)

    def test_symmetric_ordering_fills_less_than_default(self, pencil_3d):
        # the band stores n (b + 1) values: 537 420 against an L + U fill
        # of 673 164 for SuperLU's default ordering when measured
        Kf = pencil_3d[0].full()
        band = eig._factor(Kf).band
        default = splu(Kf.tocsc())
        assert band.size < default.L.nnz + default.U.nnz

    @pytest.mark.parametrize("kind, dirichlet, grading, resolution", [
        ("full-cylinder", False, 1, (4, 8)),
        ("half-plus", False, 1, (4, 8)),
        ("half-minus", False, 1, (4, 8)),
        ("full-cylinder", False, 2, (4, 8)),
        ("full-cylinder", True, 1, (4, 8)),
        ("multi-direction", False, 1, (2, 2, 4)),
    ], ids=["full", "half-plus", "half-minus", "graded", "full-dirichlet",
            "p2"])
    def test_band_read_is_max_offset(self, model06, kind, dirichlet,
                                     grading, resolution):
        field = coeff.multi_model_field(0.6) if kind == "multi-direction" \
            else model06
        mesh = grid.build_mesh(kind, ell=2, omega=(-1, 1),
                               resolution=resolution, grading=grading)
        if dirichlet:
            mesh = grid.with_full_dirichlet(mesh)
        Kf = assemble.assemble_cylinder(mesh, field)[0].full()
        coo = Kf.tocoo()
        assert eig._half_bandwidth(Kf) == np.abs(coo.row - coo.col).max()

    def test_separable_second_eigenvalue(self):
        field = coeff.identity_field()
        mesh = grid.build_mesh("full-cylinder", ell=1, omega=(-1, 1),
                               resolution=32)
        K, M = assemble.assemble_cylinder(mesh, field)
        pairs = eig.smallest_eigenpairs(K, M, count=2, tol=1e-9)
        exact = separable_mixed_spectrum(1.0)
        assert pairs[0].value == pytest.approx(exact[0], rel=3e-3)
        assert pairs[1].value == pytest.approx(exact[1], rel=3e-3)


class TestGuessedShift:
    """A guess above the floor is a shift the banded factor certifies or
    rejects; a rejected guess leaves the floor solve as it was."""

    def test_guess_above_lambda1_falls_back_to_the_floor(self, cylinder_16,
                                                         factors):
        K, M, floor, _ = cylinder_16
        at_floor = eig.smallest_eigenpairs(K, M, count=2, floor=floor)
        guessed = eig.smallest_eigenpairs(K, M, count=2, floor=floor,
                                          guess=at_floor[0].value + 1e-3)
        for g, f in zip(guessed, at_floor):
            assert g.value == f.value
            np.testing.assert_array_equal(g.vector, f.vector)
        # the guess did not factor; both solves ran on a floor factor
        assert [f.solves for f in factors] == [factors[0].solves] * 2

    @pytest.mark.parametrize("count", [1, 2])
    def test_guess_below_lambda1_is_used(self, cylinder_16, factors, count):
        K, M, floor, margin = cylinder_16
        at_floor = eig.smallest_eigenpairs(K, M, count=count, floor=floor)
        # the guess a run makes from this pencil's own lambda_1
        guessed = eig.smallest_eigenpairs(
            K, M, count=count, floor=floor,
            guess=at_floor[0].value - margin)
        for g, f in zip(guessed, at_floor):
            assert g.value == pytest.approx(f.value, rel=1e-12)
        at_floor_solves, guessed_solves = (f.solves for f in factors)
        assert guessed_solves <= min(25, at_floor_solves)
        # 21 against 75 at count 1 and 87 at count 2 when measured

    def test_floor_at_or_above_lambda1_raises_whatever_the_guess(
            self, cylinder_16):
        K, M, floor, _ = cylinder_16
        lam = eig.smallest_eigenpairs(K, M, floor=floor)[0].value
        for bad_floor in (lam * (1 + 1e-6), lam + 0.1):
            for guess in (None, floor, bad_floor + 0.1):
                with pytest.raises(FactorizationFailed, match="floor"):
                    eig.smallest_eigenpairs(K, M, floor=bad_floor,
                                            guess=guess)

    def test_dense_path_ignores_the_guess(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=4)
        K, M = assemble.assemble_cylinder(mesh, model06)
        assert K.dim <= eig.DENSE_CUTOFF
        plain = eig.smallest_eigenpairs(K, M)[0]
        guessed = eig.smallest_eigenpairs(K, M, guess=2 * plain.value)[0]
        assert guessed.value == plain.value


class TestTrialSpaceMonotonicity:
    def test_mixed_below_dirichlet(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=4, omega=(-1, 1),
                               resolution=8)
        K, M = assemble.assemble_cylinder(mesh, model06)
        Kd, Md = assemble.assemble_cylinder(
            grid.with_full_dirichlet(mesh), model06)
        lam = eig.smallest_eigenpairs(K, M)[0].value
        sig = eig.smallest_eigenpairs(Kd, Md)[0].value
        assert lam <= sig + 1e-8

    def test_half_cylinder_upper_bounds_half_length(self, model06):
        # lambda_{L/2} <= tilde-lambda_L^+ via exact extension by zero
        L = 8
        half = grid.build_mesh("half-plus", ell=L, omega=(-1, 1),
                               resolution=(8, 16))
        cyl = grid.build_mesh("full-cylinder", ell=L / 2, omega=(-1, 1),
                              resolution=(8, 16))
        Kh, Mh = assemble.assemble_cylinder(half, model06)
        Kc, Mc = assemble.assemble_cylinder(cyl, model06)
        ph = eig.smallest_eigenpairs(Kh, Mh, tol=1e-9)[0]
        pc = eig.smallest_eigenpairs(Kc, Mc, tol=1e-9)[0]
        assert pc.value <= ph.value + 1e-8
        # matrix-level check: the extension preserves both energies
        ext = proofs.extend_by_zero(half, cyl, ph.vector, shift=-L / 2)
        assert Kc.energy(ext) == pytest.approx(Kh.energy(ph.vector),
                                               rel=1e-12)
        assert Mc.energy(ext) == pytest.approx(Mh.energy(ph.vector),
                                               rel=1e-12)

    def test_half_monotone_in_length(self, model06):
        vals = []
        for L in (4, 8):
            mesh = grid.build_mesh("half-plus", ell=L, omega=(-1, 1),
                                   resolution=(8, 16))
            K, M = assemble.assemble_cylinder(mesh, model06)
            vals.append(eig.smallest_eigenpairs(K, M, tol=1e-9)[0].value)
        assert vals[1] <= vals[0] + 1e-9
