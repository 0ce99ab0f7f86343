"""Check that the correctness gate catches what it should.

Usage, from the root of a checkout: python3 perfbench/gate_selftest.py

For every workload's reference CSVs: an unchanged copy passes; each
eigenvalue column, perturbed in one row by twice the required tolerance
(1e-10 relative), fails exactly that row, and perturbed by half of it
passes; a flipped ``passed`` cell, a missing CSV and a crashed run fail
their rows.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys
import tempfile

import gate
from run import BENCH_DIR, WORK_DIR, WORKLOADS

# the tolerance the gate must hold, independent of ``gate.RTOL``
REQUIRED_RTOL = 1e-10


def _rewrite(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _cases(ref_dir):
    """(description, mutate(copy_dir), expected failed rows) per case."""
    total = gate.check(ref_dir, ref_dir).rows
    yield "unchanged", lambda d: None, 0
    yield "crashed run", None, total
    for name in sorted(os.listdir(ref_dir)):
        header, rows = gate._read(os.path.join(ref_dir, name))
        if "passed" not in header:
            continue
        yield f"{name} missing", \
            lambda d, n=name: os.remove(os.path.join(d, n)), len(rows)
        ip = header.index("passed")

        def flip(d, n=name, h=header, rs=rows, ip=ip):
            changed = [list(r) for r in rs]
            changed[0][ip] = "false" if changed[0][ip] == "true" else "true"
            _rewrite(os.path.join(d, n), h, changed)

        yield f"{name} passed flipped", flip, 1
        for col in gate.EIGEN_COLUMNS:
            if col not in header:
                continue
            ic = header.index(col)
            hit = next((i for i, r in enumerate(rows) if r[ic] != ""), None)
            if hit is None:
                continue
            for factor, expect in ((2.0, 1), (0.5, 0)):
                def perturb(d, n=name, h=header, rs=rows, i=hit, c=ic,
                            f=factor):
                    changed = [list(r) for r in rs]
                    value = float(changed[i][c])
                    changed[i][c] = repr(value * (1 + f * REQUIRED_RTOL))
                    _rewrite(os.path.join(d, n), h, changed)

                yield (f"{name} {col} row {hit + 1} x(1+{factor:g}e-10)",
                       perturb, expect)


def main():
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="gate-", dir=WORK_DIR)
    bad = checked = 0
    try:
        for workload in WORKLOADS:
            ref_dir = os.path.join(BENCH_DIR, "reference", workload)
            for i, (what, mutate, expect) in enumerate(_cases(ref_dir)):
                copy = os.path.join(work, f"{workload}-{i}")
                shutil.copytree(ref_dir, copy)
                if mutate is None:
                    got = gate.check(ref_dir, copy, crashed=True).failed
                else:
                    mutate(copy)
                    got = gate.check(ref_dir, copy).failed
                checked += 1
                if got != expect:
                    bad += 1
                    print(f"FAIL {workload}: {what}: {got} rows failed, "
                          f"expected {expect}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    print(f"gate self-test: {checked - bad}/{checked} cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
