"""Portable regression check: a fresh run of each committed config against
the committed reference CSVs, compared by the benchmark's correctness
gate (identity and ``passed`` columns exact, eigenvalue columns to a
relative tolerance) rather than byte for byte.  A traced run of the
benchmark's child on a small config checks that the names its tracer
rebinds and reads still exist, a plain run of the same config that it
forms no CSR pencil, and its experiments how many requires they make."""

import csv
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest
from scipy import sparse

from cylgap import cli, eig, grid
from cylgap import experiments as ex

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_gate():
    spec = importlib.util.spec_from_file_location(
        "perfbench_gate", ROOT / "perfbench" / "gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


# reference directory under perfbench/reference -> committed config
CONFIGS = {"asymmetric": "asymmetric_showcase.cfg",
           "model_gap": "model_gap.cfg",
           "multi_direction": "multi_direction.cfg"}
# most shift-invert operator applications a run of each config may make
# on factors of more than LARGE unknowns, with a Lanczos basis of
# 2 count + 4 vectors stopped at eig.LANCZOS_TOL; ARPACK's start vector
# is seeded, so the count repeats exactly (267, 151 and 42 with every
# pencil whole; 214, 151 and 26 since one-pair solves of point-symmetric
# pencils run in their even sector; 23 on multi_direction in quarter
# sectors of x2 -> -x2 and the point reflection, and none since its
# one-pair solves separate the uncoupled x2 into 2D pencils of at most
# 288 unknowns)
LARGE = 400
MAX_APPLICATIONS = {"asymmetric": 151, "model_gap": 214,
                    "multi_direction": 0}
# most applications on factors of any size, the cross-section and short
# cylinder pencils included (365, 191 and 105 with every pencil whole;
# 323, 191 and 96 in even sectors, 93 on multi_direction in quarters and
# 90 separated)
MAX_ALL_APPLICATIONS = {"asymmetric": 191, "model_gap": 323,
                        "multi_direction": 90}
# most unknowns a run may sweep: the sum, over all applications, of the
# unknowns of the factor applied; a one-pair solve of a point-symmetric
# pencil sweeps its even sector, about half the pencil, and of a
# multi_direction pencil its reduced pencil (1 111 863 and 271 755 on
# model_gap and multi_direction with every pencil whole, 123 816 on
# multi_direction in even sectors and 56 190 in quarter sectors;
# asymmetric has no point-symmetric pencil)
MAX_SWEPT = {"asymmetric": 473070, "model_gap": 642634,
             "multi_direction": 9480}
# most band values a run may sweep: the sum, over all applications, of
# n (b + 1) for the factor applied, the values that the two triangular
# sweeps read (64 365 468 on multi_direction in even sectors and
# 14 187 600 in quarter sectors)
MAX_BAND_SWEPT = {"asymmetric": 15572560, "model_gap": 21430138,
                  "multi_direction": 220440}
# most slot-matrix sets a run may build: one per distinct set (77, 180
# and 26 when every assembly and diagnostic built its own)
MAX_SLOT_BUILDS = {"asymmetric": 22, "model_gap": 35, "multi_direction": 9}
# most coefficient samplings a run may make: one per distinct (cross
# mesh, field, reduced) triple, each made once (29, 54 and 9 when every
# assembly and diagnostic sampled afresh)
MAX_SAMPLINGS = {"asymmetric": 4, "model_gap": 7, "multi_direction": 6}
# most TensorMesh constructions a run may make: one per solve_cylinder
# call and cross-context mesh, and one factor mesh per partition (87,
# 185 and 21 when every assembly and diagnostic built its own factor
# meshes)
MAX_MESHES = {"asymmetric": 49, "model_gap": 88, "multi_direction": 10}
# most eigen-solves a run may make: one per distinct pencil; a row
# restriction of multi_direction borrows its field's cross pencils
MAX_SOLVES = {"asymmetric": 20, "model_gap": 38, "multi_direction": 9}


@pytest.mark.parametrize("workload", list(CONFIGS))
def test_config_matches_reference(tmp_path, monkeypatch, slot_builds,
                                  samplings, workload):
    out = tmp_path / workload
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(out))
    applications = []
    shift_invert = eig.BandCholesky.shift_invert

    def counted(chol, M, y):
        applications.append(chol.band.shape)
        return shift_invert(chol, M, y)

    monkeypatch.setattr(eig.BandCholesky, "shift_invert", counted)
    solves = []
    smallest = eig.smallest_eigenpairs

    def solved(*args, **kwargs):
        solves.append(1)
        return smallest(*args, **kwargs)

    monkeypatch.setattr(eig, "smallest_eigenpairs", solved)
    meshes = []
    init = grid.TensorMesh.__init__

    def built(mesh, *args, **kwargs):
        meshes.append(1)
        init(mesh, *args, **kwargs)

    monkeypatch.setattr(grid.TensorMesh, "__init__", built)
    cli.run(str(ROOT / "configs" / CONFIGS[workload]))
    result = load_gate().check(ROOT / "perfbench" / "reference" / workload,
                               out)
    assert result.rows > 0
    assert result.ok, result.problems
    assert sum(n > LARGE for _, n in applications) \
        <= MAX_APPLICATIONS[workload]
    assert 0 < len(applications) <= MAX_ALL_APPLICATIONS[workload]
    assert sum(n for _, n in applications) <= MAX_SWEPT[workload]
    assert sum(b1 * n for b1, n in applications) <= MAX_BAND_SWEPT[workload]
    assert len(slot_builds) <= MAX_SLOT_BUILDS[workload]
    assert 0 < len(samplings) == len(set(samplings)) \
        <= MAX_SAMPLINGS[workload]
    assert 0 < len(meshes) <= MAX_MESHES[workload]
    assert len(solves) <= MAX_SOLVES[workload]
    # every solve's residual keeps a decade below eig.DEFAULT_TOL (at most
    # 2.6e-11 when measured), so an eig.LANCZOS_TOL loose enough to bring
    # a residual near DEFAULT_TOL fails here before any row fails its
    # residual check (9.5e-10 on asymmetric at LANCZOS_TOL = DEFAULT_TOL)
    residuals = [float(row["residual"]) for path in sorted(out.glob("*.csv"))
                 for row in csv.DictReader(path.open())
                 if row.get("residual")]
    assert residuals and max(residuals) <= eig.DEFAULT_TOL / 10


TRACE_CFG = """
[run]
experiments = bounds, nu-half, second
output_dir = {out}
seed = 0

[field]
kind = model
delta = 0.6

[mesh]
resolution = 8
axial_resolution = 4

[schedules]
ell_bounds = 1 2
l_half = 2 4
l_second = 4 6
"""


def test_benchmark_trace_reads_the_package(tmp_path):
    """The benchmark's traced child runs a small config to the end, and
    its tracer still finds the names it rebinds and reads: 13 solves of
    13 distinct pencils (10 cylinders and the 3 cross-section pencils of
    the one cross context), each assembled once.  A subprocess keeps the
    rebinding out of this process."""
    cfg = tmp_path / "trace.cfg"
    cfg.write_text(TRACE_CFG.format(out=tmp_path / "out"))
    result = tmp_path / "result.json"
    env = {k: v for k, v in os.environ.items() if k != cli.ENV_OUTPUT_DIR}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(cfg),
         str(result), repr(time.perf_counter()), "--trace"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text())
    layers = out["layers"]
    assert out["exit"] == 0
    assert layers["eig.calls"] == layers["eig.distinct"] == 13
    assert layers["assemble.calls"] == 13
    assert layers["experiments.cross_context.builds"] == 1
    # the sizes the tracer reads from each form's ``lower`` and ``dim``
    assert layers["eig.nnz_sum"] == 23569
    assert layers["eig.unknowns_max"] == 735
    assert layers["assemble.dofs_sum"] == 2881


# requires per experiment of TRACE_CFG: on each bounds row the sandwich
# and the strict placement of the coupled model (2 + 2); on the second
# length of each nu-half side its truncation step, and the reflection
# row; on each second row lambda1 < lambda2 and lambda2 below the
# half-plus value, and the shrink of the gap from the row before
TRACE_REQUIRES = {"bounds": 8, "nu-half": 3, "second": 5}


def test_trace_config_requires_every_check(tmp_path):
    """Each row of the small config records every require it makes, so a
    check that is dropped changes a count: the numbers are finite and
    the labels of a row distinct."""
    path = tmp_path / "trace.cfg"
    path.write_text(TRACE_CFG.format(out=tmp_path / "out"))
    rc = cli.parse_config(str(path))
    field = cli.make_field(rc)
    counts = {}
    with ex.solve_memo():
        for name in rc.experiments:
            records, _ = cli.EXECUTORS[name](field, rc)
            assert all(rec.passed for rec in records), name
            counts[name] = sum(len(rec.checks) for rec in records)
            for rec in records:
                labels = [label for label, *_ in rec.checks]
                assert len(set(labels)) == len(labels), labels
                assert all(math.isfinite(v) for _, q, _, t, margin
                           in rec.checks for v in (q, t, margin))
    assert counts == TRACE_REQUIRES


def test_run_builds_no_csr_pencil(tmp_path, monkeypatch):
    """A run fills every band and applies K and M from the Kronecker
    factors, which assembly stores as DIA arrays: it forms no Kronecker
    product, no CSR lower triangle and no CSR or COO matrix, and every
    row passes."""
    def refuse(*args, **kwargs):
        raise AssertionError("a CSR pencil was built on the run path")

    for name in ("kron", "tril", "csr_matrix", "csr_array", "coo_matrix",
                 "coo_array"):
        monkeypatch.setattr(sparse, name, refuse)
    monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)
    out = tmp_path / "out"
    cfg = tmp_path / "guard.cfg"
    cfg.write_text(TRACE_CFG.format(out=out))
    assert cli.run(str(cfg)) == 0
    rows = [row for path in sorted(out.glob("*.csv"))
            for row in csv.DictReader(path.open())]
    assert len(rows) == 9 and all(r["passed"] == "true" for r in rows)
