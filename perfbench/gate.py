"""Correctness gate: compare one run's CSVs with the reference outputs.

A record CSV (one with a ``passed`` column) is checked row by row:

- the identity columns and the ``passed`` cell equal the reference;
- every eigenvalue column is within ``RTOL`` relative of the reference.

The other numeric columns are derived from eigenpairs and are not
compared.  Some of them move with the seed: ``residual`` and
``symmetry_defect`` are roundoff-sized, the reflection row's ``gap`` is a
difference of two equal eigenvalues, ``d_plus``, ``d_minus``, ``n_plus``
and ``n_minus`` move by up to about 1e-9 because the lambda1/lambda2 pair
at L = 16 is near-degenerate, and ``end_distance`` by about 1e-10.

A CSV without a ``passed`` column (``decay_profile.csv``) must keep its
header and row count.
"""

from __future__ import annotations

import csv
import os

RTOL = 1e-10

EIGEN_COLUMNS = ("lambda1", "lambda2", "sigma1", "lambda_half_plus",
                 "lambda_half_minus", "nu_plus", "nu_minus", "mu1_disc",
                 "Lambda1_disc")
IDENTITY_COLUMNS = ("experiment", "field_kind", "delta", "n", "p", "ell",
                    "resolution", "grading")


def _read(path):
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    return (rows[0], rows[1:]) if rows else ([], [])


def _rel_dev(ref, got):
    """Relative deviation of two CSV cells; None when they cannot match."""
    if ref == "" or got == "":
        return 0.0 if ref == got else None
    a, b = float(ref), float(got)
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def _row_problems(header, ref_row, got_row):
    """Reasons a row fails the gate, and its largest eigenvalue deviation."""
    problems = []
    worst = 0.0
    ref = dict(zip(header, ref_row))
    got = dict(zip(header, got_row))
    for col in IDENTITY_COLUMNS + ("passed",):
        if ref.get(col) != got.get(col):
            problems.append(f"{col} {got.get(col)!r} != {ref.get(col)!r}")
    for col in EIGEN_COLUMNS:
        if col not in ref:
            continue
        dev = _rel_dev(ref[col], got.get(col, ""))
        if dev is None or dev > RTOL:
            problems.append(f"{col} {got.get(col)!r} vs {ref[col]!r}")
        if dev is not None:
            worst = max(worst, dev)
    return problems, worst


class GateResult:
    """Rows checked and failed in one run, with the reasons."""

    def __init__(self):
        self.rows = 0
        self.failed = 0
        self.structure_ok = True
        self.max_rel_dev = 0.0
        self.problems = []

    @property
    def ok(self):
        return self.structure_ok and self.failed == 0


def check(ref_dir, out_dir, crashed=False):
    """Gate the CSVs in ``out_dir`` against ``ref_dir``.

    With ``crashed`` (the run ended by an error, not by its verdict)
    every reference row fails.
    """
    result = GateResult()
    for name in sorted(os.listdir(ref_dir)):
        header, ref_rows = _read(os.path.join(ref_dir, name))
        is_record = "passed" in header
        if is_record:
            result.rows += len(ref_rows)
        path = os.path.join(out_dir, name)
        problem = None
        if crashed:
            problem = "run crashed"
        elif not os.path.exists(path):
            problem = "missing"
        else:
            got_header, got_rows = _read(path)
            if got_header != header or len(got_rows) != len(ref_rows):
                problem = (f"header or row count differs ({len(got_rows)} "
                           f"rows, reference {len(ref_rows)})")
        if problem:
            result.problems.append(f"{name}: {problem}")
            if is_record:
                result.failed += len(ref_rows)
            else:
                result.structure_ok = False
            continue
        if not is_record:
            continue
        for i, (ref_row, got_row) in enumerate(zip(ref_rows, got_rows)):
            problems, worst = _row_problems(header, ref_row, got_row)
            result.max_rel_dev = max(result.max_rel_dev, worst)
            if problems:
                result.failed += 1
                result.problems.append(f"{name} row {i + 1}: "
                                       + "; ".join(problems))
    return result
