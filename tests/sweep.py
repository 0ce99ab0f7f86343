"""The verdicts of the 2D experiments on random coupled fields.

Draws piecewise-constant 2 x 2 tables (p = 1) from a seed: 1-4 cells on
(-1, 1) cut at multiples of 1/8, each cell matrix R R^T + 0.2 I with R
drawn entrywise from [-1, 1], so A12 is nonzero.  Every experiment of
``cylgap.cli.EXPERIMENTS`` but ``multi-direction`` (which needs p = 2)
runs on each table at its default lengths and the default
``ExperimentConfig``, one ``solve_memo`` block per table as in a
``cylgap run``.  Then one line per (experiment, label) of
``SweepRecord.checks`` says how many tables fail that require, and for
each failed row its table, length, q, op, t and margin.  An experiment
that raises is listed under the name of its exception, and a row that
raises under ``row error``.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/sweep.py --seed 1 --tables 40
"""

from __future__ import annotations

import argparse
import time
from collections import defaultdict

import numpy as np

from cylgap import cli, coeff
from cylgap import experiments as ex
from cylgap.errors import CylgapError

from conftest import holds


def draw_table(rng):
    cuts = rng.choice(np.arange(-7, 8), size=rng.integers(0, 4),
                      replace=False)
    bounds = [-1.0] + sorted(c / 8.0 for c in cuts) + [1.0]
    R = rng.uniform(-1.0, 1.0, size=(len(bounds) - 1, 2, 2))
    return coeff.piecewise_constant_field(
        bounds, R @ R.transpose(0, 2, 1) + 0.2 * np.eye(2))


def sweep(seed, n_tables):
    """{(experiment, label): [(table, line) of each failed row]}, with
    every (experiment, label) that some row required."""
    rng = np.random.default_rng(seed)
    failed = defaultdict(list)
    names = [name for name in cli.EXPERIMENTS if name != "multi-direction"]
    for table in range(n_tables):
        field = draw_table(rng)
        with ex.solve_memo():
            for name in names:
                experiment, _, lengths = cli.EXPERIMENTS[name]
                try:
                    out = experiment(field, lengths, ex.ExperimentConfig())
                except CylgapError as exc:
                    failed[name, type(exc).__name__].append(
                        (table, str(exc)))
                    continue
                for rec in out[0] if isinstance(out, tuple) else out:
                    ok = True
                    for label, q, op, t, margin in rec.checks:
                        rows = failed[name, label]  # a line per label
                        if not holds(q, op, t, margin):
                            ok = False
                            rows.append((table, f"ell={rec.ell}: {q:.6g} "
                                         f"{op} {t:.6g}, margin {margin:.3g}"))
                    if ok and not rec.passed:  # the row raised
                        failed[name, "row error"].append(
                            (table, f"ell={rec.ell}: {rec.note}"))
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tables", type=int, default=40)
    args = parser.parse_args()
    t0 = time.perf_counter()
    failed = sweep(args.seed, args.tables)
    for (name, label), rows in sorted(failed.items()):
        tables = len({table for table, _ in rows})
        print(f"{name:<15} {label:<28} {tables:>3}/{args.tables} tables "
              "fail")
        for table, line in rows:
            print(f"    table {table} {line}")
    print(f"seed {args.seed}, {args.tables} tables, "
          f"{time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
