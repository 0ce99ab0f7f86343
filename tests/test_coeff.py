import numpy as np
import pytest

from cylgap import assemble, coeff, eig, experiments, grid
from cylgap.errors import ConditionConFails, NotElliptic, SingularBlock

import proofs
from conftest import MU1, random_spd


def constant_field(A, p=1):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return coeff.CoefficientField(
        n, p, lambda pts: np.broadcast_to(A, (len(pts), n, n)).copy(),
        kind="user")


def brute_force_schur_value(B, Z2, lo=-10.0, hi=10.0, step=1e-3):
    """Grid minimization over z1 with a quadratic refinement through the
    best grid point; independent of the Schur formula."""
    zs = np.arange(lo, hi + step, step)
    Z2 = np.atleast_1d(Z2)
    V = np.column_stack([zs, np.broadcast_to(Z2, (len(zs), len(Z2)))])
    vals = np.einsum("ki,ij,kj->k", V, B, V)
    i = int(np.argmin(vals))
    if 0 < i < len(zs) - 1:
        y0, y1, y2 = vals[i - 1], vals[i], vals[i + 1]
        denom = y0 - 2 * y1 + y2
        if denom > 0:
            dz = 0.5 * (y0 - y2) / denom * step
            z = zs[i] + dz
            v = np.concatenate(([z], Z2)) @ B @ np.concatenate(([z], Z2))
            return min(v, vals[i])
    return vals[i]


class TestEllipticityBounds:
    def test_model_delta_06(self, model06):
        b = proofs.ellipticity_bounds(model06, np.linspace(-1, 1, 9))
        assert b.lambda_a == pytest.approx(0.4, abs=1e-14)
        assert b.c_a == pytest.approx(1.6, abs=1e-14)

    def test_identity(self):
        b = proofs.ellipticity_bounds(coeff.identity_field(),
                                     np.linspace(-1, 1, 5))
        assert (b.lambda_a, b.c_a) == (1.0, 1.0)

    def test_piecewise_extremes(self):
        field = coeff.piecewise_constant_field(
            [-1.0, 0.0, 1.0],
            [np.diag([2.0, 3.0]), np.diag([1.0, 5.0])])
        samples = np.linspace(-0.9, 0.9, 10)
        b = proofs.ellipticity_bounds(field, samples)
        # oracle: direct eigenvalue enumeration per sample
        per = np.linalg.eigvalsh(field.eval_many(samples))
        assert b.lambda_a == per[:, 0].min() == 1.0
        assert b.c_a == per[:, -1].max() == 5.0

    def test_not_elliptic(self):
        bad = constant_field([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(NotElliptic):
            proofs.ellipticity_bounds(bad, [0.0])

    def test_attaining_points_reported(self):
        field = coeff.asymmetric_model_field(0.5)
        b = proofs.ellipticity_bounds(field, np.linspace(-1, 1, 33))
        # coupling grows with x2, so extremes sit at the right edge
        assert b.argmin[0] == pytest.approx(1.0)
        assert b.argmax[0] == pytest.approx(1.0)


class TestSchurReduce:
    def test_model_is_one_minus_delta_squared(self):
        for delta in (0.0, 0.3, 0.6, 0.9):
            red = proofs.schur_reduce(coeff.model_field(delta), 0.1)
            assert red[0, 0] == pytest.approx(1 - delta**2, abs=1e-15)

    def test_identity_scalar_one(self):
        assert proofs.schur_reduce(coeff.identity_field(), 0.3)[0, 0] == 1.0

    def test_model_identity_expansion(self, rng):
        # (A_delta xi).xi == (1-d^2) xi2^2 + (xi1 + d xi2)^2 at random xi
        for delta in (0.2, 0.6, 0.95):
            A = proofs.at(coeff.model_field(delta), 0.0)
            for xi in rng.standard_normal((10, 2)):
                lhs = xi @ A @ xi
                rhs = (1 - delta**2) * xi[1] ** 2 + (xi[0] + delta * xi[1]) ** 2
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_against_brute_force_grid(self, rng):
        B = random_spd(rng, 3)
        field = constant_field(B, p=1)
        red = proofs.schur_reduce(field, [0.0, 0.0])
        for Z2 in rng.standard_normal((5, 2)):
            value = Z2 @ red @ Z2 + 0.0
            brute = brute_force_schur_value(B, Z2)
            assert value == pytest.approx(brute, abs=1e-6)

    def test_hundred_random_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 4))
            B = random_spd(rng, n, scale=float(rng.uniform(0, 2)))
            field = constant_field(B, p=1)
            red = proofs.schur_reduce(field, np.zeros(n - 1))
            Z2 = rng.standard_normal(n - 1)
            assert Z2 @ red @ Z2 == pytest.approx(
                brute_force_schur_value(B, Z2), abs=1e-6)

    def test_block_diagonal_returns_a22(self, rng):
        A22 = random_spd(rng, 2)
        A = np.zeros((3, 3))
        A[0, 0] = 2.0
        A[1:, 1:] = A22
        red = proofs.schur_reduce(constant_field(A), [0.0, 0.0])
        np.testing.assert_array_equal(red, A22)

    def test_preserves_ellipticity_floor(self, rng):
        field = coeff.variable_a22_field(0.6)
        pts = np.linspace(-1, 1, 21)
        lam = proofs.ellipticity_bounds(field, pts).lambda_a
        red = coeff.schur_reduce_many(field, pts)
        assert np.linalg.eigvalsh(red)[:, 0].min() >= lam - 1e-14

    def test_singular_block(self):
        bad = coeff.CoefficientField(
            2, 1, lambda pts: np.tile(np.array([[1e-15, 0.0], [0.0, 1.0]]),
                                      (len(pts), 1, 1)), kind="user")
        with pytest.raises(SingularBlock):
            proofs.schur_reduce(bad, 0.0)

    def test_p2_equals_two_single_axis_reductions(self, rng):
        # sequential elimination of the two elongated axes, block-diagonal A11
        for _ in range(20):
            B = random_spd(rng, 3)
            B[0, 1] = B[1, 0] = 0.0
            full = proofs.schur_reduce(constant_field(B, p=2), [0.0])
            step1 = proofs.schur_reduce(constant_field(B, p=1), [0.0, 0.0])
            step2 = proofs.schur_reduce(constant_field(step1, p=1), [0.0])
            np.testing.assert_allclose(full, step2, atol=1e-12)


class TestSchurMinimizer:
    def test_model_minimizer(self):
        z1 = proofs.schur_minimizer(coeff.model_field(0.6), 0.0, [1.0])
        assert z1[0] == pytest.approx(-0.6, abs=1e-15)

    def test_diagonal_gives_zero(self):
        z1 = proofs.schur_minimizer(coeff.diagonal_field([2.0, 3.0]), 0.2,
                                   [1.5])
        assert z1[0] == 0.0

    def test_attains_schur_value(self, rng):
        B = random_spd(rng, 3)
        field = constant_field(B, p=1)
        Z2 = rng.standard_normal(2)
        z1 = proofs.schur_minimizer(field, [0.0, 0.0], Z2)
        z = np.concatenate([z1, Z2])
        assert z @ B @ z == pytest.approx(
            Z2 @ proofs.schur_reduce(field, [0.0, 0.0]) @ Z2, abs=1e-12)

    def test_randomized_dominance_p2(self, rng):
        B = random_spd(rng, 3)
        field = constant_field(B, p=2)
        Z2 = np.array([1.0])
        z1 = proofs.schur_minimizer(field, [0.0], Z2)
        best = np.concatenate([z1, Z2]) @ B @ np.concatenate([z1, Z2])
        cands = rng.standard_normal((10_000, 2)) * 3.0
        vals = np.einsum("mi,ij,mj->m",
                         np.concatenate([cands, np.ones((10_000, 1))], axis=1),
                         B,
                         np.concatenate([cands, np.ones((10_000, 1))], axis=1))
        assert best <= vals.min() + 1e-12


class TestConditionCon:
    """Condition (Con) is the Schur energy drop c = W1.(K - K_red)W1 of the
    cross context; ``proofs.coupling_audit`` is its midpoint oracle and
    reports the boundary-flux integrals."""

    def test_diagonal_field_fails(self, cross32):
        field = coeff.diagonal_field([1.0, 1.0])
        ctx = experiments.cross_context(
            field, experiments.ExperimentConfig(resolution=32))
        assert ctx.coupling == 0.0 and not ctx.coupled
        with pytest.raises(ConditionConFails):
            experiments.exp_gap(field, [4], experiments.ExperimentConfig(
                resolution=8, axial_resolution=4))
        mesh = cross32["mesh"]
        K, M = assemble.assemble_cross_section(mesh, field)
        rep = proofs.coupling_audit(
            field, eig.smallest_eigenpairs(K, M)[0], mesh)
        assert rep.norm == 0.0
        assert rep.signed_integral == 0.0

    def test_model_holds_with_zero_signed_integral(self, model06, cross32):
        rep = proofs.coupling_audit(model06, cross32["W1"], cross32["mesh"])
        assert rep.norm > experiments.TOL_CON
        # int delta W1' W1 = delta [W1^2/2]_{-1}^{1} = 0; quadrature
        # refinement shrinks the defect
        fine = grid.build_mesh("cross-section", omega=(-1, 1), resolution=128)
        Kf, Mf = assemble.assemble_cross_section(fine, model06)
        W1f = eig.smallest_eigenpairs(Kf, Mf)[0]
        rep_f = proofs.coupling_audit(model06, W1f, fine)
        assert abs(rep_f.signed_integral) < abs(rep.signed_integral) + 1e-12
        assert abs(rep_f.signed_integral) < 1e-4

    def test_model_norm_squared_converges(self, model06):
        # c -> delta^2 * int (W1')^2 = delta^2 mu1 = 0.8883
        target = 0.36 * MU1
        errs = []
        for res in (32, 64, 128):
            ctx = experiments.cross_context(
                model06, experiments.ExperimentConfig(resolution=res))
            assert ctx.coupled
            errs.append(abs(ctx.coupling - target))
        assert errs[-1] < 5e-3
        assert errs[-1] < errs[0]
        assert 0.36 * MU1 == pytest.approx(0.8883, abs=1e-4)

    def test_neg_coupling_pointwise_flag(self, cross32):
        field = coeff.neg_coupling_field(0.5)
        mesh = cross32["mesh"]
        K, M = assemble.assemble_cross_section(mesh, field)
        W1 = eig.smallest_eigenpairs(K, M)[0]
        rep = proofs.coupling_audit(field, W1, mesh)
        assert rep.norm > experiments.TOL_CON and rep.pointwise_nonpositive
        assert rep.signed_integral < 0.0

    def test_two_axis_field_reports_per_row_integrals(self, cross32):
        field = coeff.multi_model_field(0.6)
        mesh = cross32["mesh"]
        K, M = assemble.assemble_cross_section(mesh, field)
        W1 = eig.smallest_eigenpairs(K, M)[0]
        rep = proofs.coupling_audit(field, W1, mesh)
        assert rep.norm > experiments.TOL_CON
        assert rep.signed_integral.shape == (2,)
        # only the first elongated axis couples
        assert abs(rep.signed_integral[1]) < 1e-14


class TestFieldPlumbing:
    def test_reflected_negates_coupling(self, model06):
        A = proofs.at(model06, 0.2)
        At = proofs.at(model06.reflected(), 0.2)
        assert At[0, 1] == -A[0, 1]
        assert At[0, 0] == A[0, 0] and At[1, 1] == A[1, 1]

    def test_evenness(self, model06):
        xs = np.linspace(-0.9, 0.9, 7)
        assert model06.is_even(xs)
        assert not coeff.asymmetric_model_field(0.5).is_even(xs)

    def test_table_round_trip(self, tmp_path):
        path = tmp_path / "field.txt"
        path.write_text(
            "# piecewise field\n"
            "2 1\n"
            "-1.0 0.0  2.0 0.1 3.0\n"
            " 0.0 1.0  1.0 0.0 5.0\n")
        field = coeff.field_from_table(path)
        assert field.piecewise_constant
        np.testing.assert_allclose(proofs.at(field, -0.5),
                                   [[2.0, 0.1], [0.1, 3.0]])
        np.testing.assert_allclose(proofs.at(field, 0.5),
                                   [[1.0, 0.0], [0.0, 5.0]])
        b = proofs.ellipticity_bounds(field, np.linspace(-0.9, 0.9, 16))
        assert b.lambda_a == pytest.approx(1.0)
        assert b.c_a == 5.0

    def test_table_rejects_gaps(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n-1 0 1 0 1\n0.5 1 1 0 1\n")
        with pytest.raises(ValueError):
            coeff.field_from_table(path)

    def test_signature_tells_fields_apart(self):
        assert (coeff.diagonal_field([1, 2]).signature
                != coeff.diagonal_field([3, 4]).signature)
        bounds = [-1.0, 0.0, 1.0]
        a = coeff.piecewise_constant_field(bounds, [np.eye(2)] * 2)
        b = coeff.piecewise_constant_field(bounds, [np.eye(2), 2 * np.eye(2)])
        assert a.signature != b.signature
        assert a.signature == coeff.piecewise_constant_field(
            bounds, [np.eye(2)] * 2).signature

    def test_row_restriction_blocks(self, rng):
        field = coeff.multi_model_field(0.6)
        B0 = proofs.at(coeff.row_restriction_field(field, 0), 0.2)
        np.testing.assert_allclose(B0, [[1.0, 0.6], [0.6, 1.0]])
        B1 = proofs.at(coeff.row_restriction_field(field, 1), 0.2)
        np.testing.assert_allclose(B1, [[1.0, 0.0], [0.0, 1.0]])

    def test_quadrature_audit(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=1, omega=(-1, 1),
                               resolution=4)
        pts = assemble.quadrature_coords(mesh).reshape(-1, mesh.ndim)
        b = proofs.ellipticity_bounds(model06, pts[:, mesh.n_axial:])
        assert b.lambda_a == pytest.approx(0.4)
