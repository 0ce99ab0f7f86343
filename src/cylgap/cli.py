"""Command-line entry point: run experiments from a config file, plot CSV
columns to SVG, and summarize result directories.

Config format: ``[section]`` headers with ``key = value`` lines and ``#``
comments.  Unknown sections or keys are rejected with line numbers.
Exit codes: 0 all assertions passed, 2 assertion failures, 1 errors.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import coeff as coeff_mod
from . import eig
from . import experiments as ex
from ._svg import render_line_plot
from .errors import ConfigError, CylgapError, MissingColumn
from .experiments import CSV_COLUMNS, SweepRecord

ENV_OUTPUT_DIR = "CYLGAP_OUTPUT_DIR"


def _decay(field, lengths, cfg):
    """``exp_decay`` with its fitted profiles as the decay_profile.csv
    table."""
    records, profiles = ex.exp_decay(field, lengths, cfg)
    rows = [{"ell": ell, "r": r, "mass": m, "grad_mass": g}
            for ell, prof in profiles
            for (r, m), (_, g) in zip(prof.masses, prof.grad_masses)]
    return records, {"decay_profile.csv": (["ell", "r", "mass", "grad_mass"],
                                           rows)}


# name -> (experiment(field, lengths, cfg), schedule key, default lengths);
# an experiment returns its records, or (``decay``) its records and its
# extra CSV tables {csv name: (header, rows)}
EXPERIMENTS = {
    "bounds": (ex.exp_bounds_sweep, "ell_bounds",
               [0.1, 0.5, 1.0, 2.0, 4.0, 8.0]),
    "limit-zero": (ex.exp_limit_zero, "ell_zero", [0.4, 0.2, 0.1, 0.05]),
    "nu-half": (ex.exp_nu_half, "l_half", [4.0, 8.0, 16.0]),
    "limit-infinity": (ex.exp_limit_infinity, "l_infinity",
                       [8.0, 12.0, 16.0]),
    "gap": (ex.exp_gap, "l_gap", [8.0, 12.0, 16.0]),
    "second": (ex.exp_second_eigenvalue, "l_second", [8.0, 12.0, 16.0]),
    "dirichlet": (ex.exp_dirichlet_comparison, "l_dirichlet",
                  [4.0, 8.0, 16.0]),
    "decay": (_decay, "ell_decay", [12.0]),
    "end-profile": (ex.exp_end_profile, "ell_end_profile",
                    [6.0, 10.0, 14.0]),
    "multi-direction": (ex.exp_multi_direction, "l_multi", [2.0, 4.0]),
}


def _executor(experiment, key):
    def execute(field, rc):
        out = experiment(field, rc.schedules[key], rc.cfg)
        return out if isinstance(out, tuple) else (out, {})
    return execute


# name -> executor(field, rc) returning (records, {csv name: table})
EXECUTORS = {name: _executor(experiment, key)
             for name, (experiment, key, _) in EXPERIMENTS.items()}

_FLOAT, _INT, _STR, _FLIST, _SLIST = "float", "int", "str", "floatlist", "strlist"

SCHEMA = {
    "run": {"experiments": _SLIST, "output_dir": _STR, "seed": _INT,
            "parallelism": _INT},
    "field": {"kind": _STR, "delta": _FLOAT, "delta0": _FLOAT, "c": _FLOAT,
              "a11": _FLOAT, "n": _INT, "p": _INT, "table": _STR,
              "diag": _FLIST},
    "domain": {"omega": _FLIST},
    "mesh": {"resolution": _FLOAT, "axial_resolution": _FLOAT,
             "grading": _FLOAT, "node_cap": _INT, "res3d_axial": _FLOAT,
             "res3d_cross": _FLOAT},
    "solver": {"tol": _FLOAT},
    "schedules": {key: _FLIST for _, key, _ in EXPERIMENTS.values()},
    "tolerances": {"conv_tol": _FLOAT, "tol_inf": _FLOAT},
}


@dataclass
class RunConfig:
    """A parsed config file.  Every key outside ``[run] experiments,
    output_dir, parallelism``, ``[field]`` and ``[schedules]`` sets the
    ``cfg`` field of the same name (``[domain] omega`` after reshaping)."""

    experiments: list = dc_field(default_factory=lambda: ["bounds"])
    output_dir: str = "out"
    field_kind: str = "model"
    field_params: dict = dc_field(default_factory=dict)
    schedules: dict = dc_field(default_factory=lambda: {
        key: list(lengths) for _, key, lengths in EXPERIMENTS.values()})
    cfg: ex.ExperimentConfig = dc_field(default_factory=ex.ExperimentConfig)


def _convert(raw, typ, path, lineno, key):
    try:
        if typ == _FLOAT:
            return float(raw)
        if typ == _INT:
            return int(raw)
        if typ == _FLIST:
            vals = [float(v) for v in raw.replace(",", " ").split()]
            if not vals:
                raise ValueError("empty list")
            return vals
        if typ == _SLIST:
            return [v.strip() for v in raw.replace(",", " ").split() if v.strip()]
        return raw
    except ValueError as exc:
        raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {exc}")


def parse_config(path):
    """Parse and validate a config file into a RunConfig."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    rc = RunConfig()
    section = None
    seen = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if text.startswith("[") and text.endswith("]"):
                section = text[1:-1].strip().lower()
                if section not in SCHEMA:
                    raise ConfigError(f"{path}:{lineno}: unknown section "
                                      f"[{section}]")
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            if section is None:
                raise ConfigError(f"{path}:{lineno}: key outside any section")
            key, raw = (t.strip() for t in text.split("=", 1))
            key = key.lower()
            if key not in SCHEMA[section]:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}' in "
                                  f"[{section}]")
            if (section, key) in seen:
                raise ConfigError(f"{path}:{lineno}: duplicate key '{key}' "
                                  f"(first at line {seen[(section, key)]})")
            seen[(section, key)] = lineno
            val = _convert(raw, SCHEMA[section][key], path, lineno, key)
            _apply(rc, section, key, val, path, lineno)
    _validate(rc, path)
    return rc


def _apply(rc, section, key, val, path, lineno):
    if section == "run" and key == "experiments":
        names = val
        if names == ["all"]:
            names = list(EXPERIMENTS)
        for n in names:
            if n not in EXPERIMENTS:
                raise ConfigError(f"{path}:{lineno}: unknown experiment "
                                  f"'{n}'")
        rc.experiments = names
    elif section == "run" and key == "output_dir":
        rc.output_dir = val
    elif section == "run" and key == "parallelism":
        # goes once the benchmark's configs stop writing it (ROADMAP item 1)
        if val != 1:
            raise ConfigError(f"{path}:{lineno}: parallelism must be 1 "
                              "(runs are serial)")
    elif section == "field":
        if key == "kind":
            rc.field_kind = val
        else:
            rc.field_params[key] = val
    elif section == "domain":
        if len(val) not in (2, 4) or val[0] >= val[1] or \
                (len(val) == 4 and val[2] >= val[3]):
            raise ConfigError(f"{path}:{lineno}: omega must be 'lo hi' "
                              "(or a box 'lo hi lo hi')")
        rc.cfg.omega = tuple(val) if len(val) == 2 else \
            ((val[0], val[1]), (val[2], val[3]))
    elif section == "schedules":
        rc.schedules[key] = val
    else:
        setattr(rc.cfg, key, val)


def _validate(rc, path):
    cfg = rc.cfg
    if cfg.tol <= 0 or cfg.conv_tol <= 0 or cfg.tol_inf <= 0:
        raise ConfigError(f"{path}: tolerances must be positive")
    if cfg.tol < eig.MIN_TOL:
        raise ConfigError(f"{path}: solver.tol must be at least "
                          f"{eig.MIN_TOL:g}")
    if cfg.seed < 0:
        raise ConfigError(f"{path}: run.seed must be non-negative")
    for name, sched in rc.schedules.items():
        if not sched:
            raise ConfigError(f"{path}: schedule {name} is empty")
        increasing = all(b > a for a, b in zip(sched, sched[1:]))
        decreasing = all(b < a for a, b in zip(sched, sched[1:]))
        if len(sched) > 1 and not (increasing or decreasing):
            raise ConfigError(f"{path}: schedule {name} must be sorted")
        if any(v <= 0 for v in sched):
            raise ConfigError(f"{path}: schedule {name} must be positive")
    for key in SCHEMA["mesh"]:
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"{path}: mesh.{key} must be positive")


def make_field(rc):
    """The coefficient field of ``[field]``; a builder that rejects its
    parameters or cannot read its table raises ``ConfigError``."""
    kind = rc.field_kind
    par = rc.field_params
    try:
        if kind == "model":
            return coeff_mod.model_field(par.get("delta", 0.6))
        if kind == "identity":
            return coeff_mod.identity_field(par.get("n", 2), par.get("p", 1))
        if kind == "diagonal":
            diag = par.get("diag", [1.0] * par.get("n", 2))
            return coeff_mod.diagonal_field(diag, p=par.get("p", 1))
        if kind == "asymmetric":
            return coeff_mod.asymmetric_model_field(par.get("delta0", 0.5))
        if kind == "variable-a22":
            return coeff_mod.variable_a22_field(par.get("delta", 0.6))
        if kind == "neg-coupling":
            return coeff_mod.neg_coupling_field(par.get("c", 0.5),
                                                par.get("a11", 2.0))
        if kind == "multi-model":
            return coeff_mod.multi_model_field(par.get("delta", 0.6))
        if kind == "table":
            if "table" not in par:
                raise ConfigError("field kind 'table' needs table = <path>")
            return coeff_mod.field_from_table(par["table"])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"field kind '{kind}': {exc}") from exc
    raise ConfigError(f"unknown field kind '{kind}'")


def _fmt_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_records_csv(path, records):
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for rec in records:
            w.writerow([_fmt_cell(getattr(rec, c)) for c in CSV_COLUMNS])


def _write_table_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt_cell(row.get(c)) for c in header])


def run(config_path):
    """Execute the configured experiments; write CSVs and a summary.

    The experiments share one ``solve_memo`` block, so the run assembles
    and solves each distinct pencil once."""
    rc = parse_config(config_path)
    outdir = os.environ.get(ENV_OUTPUT_DIR, rc.output_dir)
    os.makedirs(outdir, exist_ok=True)
    field = make_field(rc)
    omega_dim = np.size(rc.cfg.omega) // 2
    if field.cross_dim != omega_dim:
        raise ConfigError(
            f"field kind '{rc.field_kind}' has cross dimension "
            f"{field.cross_dim}, but omega has dimension {omega_dim}")
    summary_lines = []
    any_fail = False
    t0 = time.perf_counter()
    with ex.solve_memo():
        for name in rc.experiments:
            t_exp = time.perf_counter()
            try:
                records, extras = EXECUTORS[name](field, rc)
            except CylgapError as exc:
                records = [SweepRecord(experiment=name, field_kind=field.kind,
                                       n=field.n, p=field.p, passed=False,
                                       note=f"{type(exc).__name__}: {exc}")]
                extras = {}
            write_records_csv(os.path.join(outdir, f"{name}.csv"), records)
            for fname, (header, rows) in extras.items():
                _write_table_csv(os.path.join(outdir, fname), header, rows)
            n_pass = sum(1 for r in records if r.passed)
            ok = n_pass == len(records)
            any_fail = any_fail or not ok
            dt = time.perf_counter() - t_exp
            summary_lines.append(
                f"{'PASS' if ok else 'FAIL'}  {name:<16} "
                f"{n_pass}/{len(records)} rows passed  ({dt:.1f}s)")
            for r in records:
                if not r.passed:
                    summary_lines.append(f"      row ell={r.ell}: {r.note}")
    total = time.perf_counter() - t0
    summary_lines.append(f"total wall time: {total:.1f}s")
    with open(os.path.join(outdir, "summary.txt"), "w",
              encoding="utf-8") as f:
        f.write("\n".join(summary_lines) + "\n")
    print("\n".join(summary_lines))
    return 2 if any_fail else 0


def _read_csv(path):
    if not os.path.exists(path):
        raise MissingColumn(f"CSV not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise MissingColumn(f"{path}: empty CSV")
    return rows[0], rows[1:]


def plot(csv_path, x_column, y_columns, out_svg, logy=False, group=None):
    """Self-contained SVG line plot of CSV columns."""
    header, rows = _read_csv(csv_path)
    for col in [x_column, *y_columns] + ([group] if group else []):
        if col not in header:
            raise MissingColumn(f"{csv_path}: no column '{col}'")
    if not rows:
        raise MissingColumn(f"{csv_path}: no data rows")
    ix = header.index(x_column)
    series = []
    groups = [None]
    if group:
        ig = header.index(group)
        groups = sorted({row[ig] for row in rows if row[ig] != ""})
    for gval in groups:
        for ycol in y_columns:
            iy = header.index(ycol)
            pts = []
            for row in rows:
                if group and row[header.index(group)] != gval:
                    continue
                if row[ix] == "" or row[iy] == "":
                    continue
                try:
                    pts.append((float(row[ix]), float(row[iy])))
                except ValueError as exc:
                    raise MissingColumn(
                        f"{csv_path}: columns '{x_column}' and '{ycol}' "
                        f"must be numeric ({exc})") from exc
            if not pts:
                continue
            pts.sort(key=lambda p: p[0])
            label = ycol if gval is None else f"{ycol}[{group}={gval}]"
            series.append((label, [p[0] for p in pts], [p[1] for p in pts]))
    if not series:
        raise MissingColumn(f"{csv_path}: no plottable data in "
                            f"{[x_column, *y_columns]}")
    render_line_plot(series, out_svg, logy=logy, x_label=x_column,
                     y_label=",".join(y_columns),
                     title=os.path.basename(csv_path))
    return 0


def report(directory):
    """Summarize pass/fail over every record CSV in a directory."""
    if not os.path.isdir(directory):
        raise ConfigError(f"not a directory: {directory}")
    names = sorted(n for n in os.listdir(directory) if n.endswith(".csv"))
    any_fail = False
    printed = False
    for name in names:
        header, rows = _read_csv(os.path.join(directory, name))
        if "passed" not in header:
            continue
        ip = header.index("passed")
        inote = header.index("note") if "note" in header else None
        n_pass = sum(1 for r in rows if r[ip] == "true")
        ok = n_pass == len(rows)
        any_fail = any_fail or not ok
        printed = True
        print(f"{'PASS' if ok else 'FAIL'}  {name:<24} {n_pass}/{len(rows)}")
        if not ok and inote is not None:
            for r in rows:
                if r[ip] != "true":
                    print(f"      {r[inote]}")
    if not printed:
        print(f"no experiment CSVs found in {directory}")
    return 2 if any_fail else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cylgap",
        description="Eigenvalue experiments on elongating cylinders")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run experiments from a config file")
    p_run.add_argument("config")
    p_plot = sub.add_parser("plot", help="plot CSV columns to SVG")
    p_plot.add_argument("csv")
    p_plot.add_argument("--x", required=True)
    p_plot.add_argument("--y", required=True,
                        help="comma-separated y columns")
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--logy", action="store_true")
    p_plot.add_argument("--group", default=None,
                        help="one polyline per distinct value of this column")
    p_rep = sub.add_parser("report", help="summarize a results directory")
    p_rep.add_argument("directory")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run(args.config)
        if args.command == "plot":
            ycols = [c.strip() for c in args.y.split(",") if c.strip()]
            return plot(args.csv, args.x, ycols, args.out, logy=args.logy,
                        group=args.group)
        if args.command == "report":
            return report(args.directory)
    except CylgapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
