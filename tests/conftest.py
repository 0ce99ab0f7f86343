import numpy as np
import pytest

from cylgap import assemble, coeff, eig, grid

MU1 = (np.pi / 2.0) ** 2
# a p = 2 table whose axial rows both couple to the cross direction, so
# no axial axis is uncoupled and its pencils do not separate; it is even
# in X2, so its full-cylinder pencils are point-symmetric
BOTH_ROWS = coeff.piecewise_constant_field(
    [-1.0, 1.0], [[[1.0, 0.0, 0.3], [0.0, 1.0, 0.3], [0.3, 0.3, 1.0]]], p=2)


@pytest.fixture(scope="session")
def model06():
    return coeff.model_field(0.6)


@pytest.fixture(scope="session")
def cross32(model06):
    """Cross-section mesh at 32 cells/unit with the model eigenpairs."""
    mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=32)
    K, M = assemble.assemble_cross_section(mesh, model06)
    W1 = eig.smallest_eigenpairs(K, M, count=2)[0]
    Kr, Mr = assemble.assemble_cross_section(mesh, model06, reduced=True)
    w1 = eig.smallest_eigenpairs(Kr, Mr, count=1)[0]
    return {"mesh": mesh, "K": K, "M": M, "W1": W1, "w1": w1,
            "mu1": W1.value, "Lambda1": w1.value}


def same_bits(a, b):
    """Forms, or nested lists of them, with equal dimensions and bitwise
    equal Kronecker factors, term by term (DIA data and offsets)."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same_bits, a, b))
    if isinstance(a, assemble.KroneckerForm):
        return a.dim == b.dim and same_bits(a.terms, b.terms)
    return a.shape == b.shape and all(
        np.array_equal(getattr(a, k), getattr(b, k))
        for k in ("data", "offsets"))


def holds(q, op, t, margin):
    """Whether the claim ``q op t`` of a ``SweepRecord.require`` holds with
    its margin: against the claim, q op t + margin for ``>`` and ``>=``,
    q op t - margin for ``<`` and ``<=``."""
    bound = t + margin if op[0] == ">" else t - margin
    return {"<": q < bound, "<=": q <= bound, ">": q > bound,
            ">=": q >= bound}[op]


def random_spd(rng, n, scale=1.0):
    R = rng.standard_normal((n, n))
    A = R @ R.T
    return A + (0.1 + scale) * np.eye(n)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def slot_builds(monkeypatch):
    """Every slot-matrix set built from here on, as its mesh key,
    ``n_values`` and the shape and bytes of its samples."""
    builds = []
    build = assemble._build_slots

    def counted(mesh, C, n_values):
        builds.append((mesh.key, n_values, C.shape, C.tobytes()))
        return build(mesh, C, n_values)

    monkeypatch.setattr(assemble, "_build_slots", counted)
    return builds


@pytest.fixture()
def samplings(monkeypatch):
    """Every coefficient sampling made from here on, as its cross mesh
    key, field and ``reduced``: the key it is stored under in a block."""
    made = []
    sample = assemble._sample

    def counted(cross, field, reduced):
        made.append((cross.key, field, reduced))
        return sample(cross, field, reduced)

    monkeypatch.setattr(assemble, "_sample", counted)
    return made
