"""Command-line entry point: run experiments from a config file, plot CSV
columns to SVG, and summarize result directories.

Config format: ``[section]`` headers with ``key = value`` lines and ``#``
comments.  Unknown sections or keys, and values their key's parser in
``SCHEMA`` rejects, are reported with line numbers.
Exit codes: 0 all assertions passed, 2 assertion failures, 1 errors.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import math
import os
import sys
import time
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import coeff as coeff_mod
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

# [field] kind -> its coefficient builder; the builder's keyword
# parameters are the kind's keys, and it owns their defaults
FIELD_KINDS = {
    "model": coeff_mod.model_field,
    "identity": coeff_mod.identity_field,
    "diagonal": coeff_mod.diagonal_field,
    "asymmetric": coeff_mod.asymmetric_model_field,
    "variable-a22": coeff_mod.variable_a22_field,
    "neg-coupling": coeff_mod.neg_coupling_field,
    "multi-model": coeff_mod.multi_model_field,
    "table": coeff_mod.field_from_table,
}


def _number(raw):
    """A finite float: ``float`` also parses ``nan`` and ``inf``, which
    no length, resolution or coefficient is."""
    try:
        val = float(raw)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise ValueError(f"must be a finite number, not {raw!r}")
    return val


def _integer(raw):
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"must be an integer, not {raw!r}") from None


def _numbers(raw):
    vals = [_number(v) for v in raw.replace(",", " ").split()]
    if not vals:
        raise ValueError("must list at least one number")
    return vals


def _checked(parse, ok, need):
    """``parse``, whose value must pass ``ok``: it must be ``need``."""
    def parser(raw):
        val = parse(raw)
        if not ok(val):
            raise ValueError(f"must be {need}")
        return val
    return parser


def _experiments(raw):
    names = raw.replace(",", " ").split()
    if not names:
        raise ValueError("must name at least one experiment")
    for name in names:
        if name not in EXPERIMENTS:
            raise ValueError(f"names unknown experiment '{name}'")
    return names


def _omega(raw):
    v = _numbers(raw)
    if len(v) not in (2, 4) or v[0] >= v[1] or \
            (len(v) == 4 and v[2] >= v[3]):
        raise ValueError("must be 'lo hi' (or a box 'lo hi lo hi')")
    return tuple(v) if len(v) == 2 else ((v[0], v[1]), (v[2], v[3]))


def _lengths(raw):
    v = _numbers(raw)
    if min(v) <= 0:
        raise ValueError("must be positive")
    steps = np.diff(v)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValueError("must be sorted")
    return v


_POSITIVE = _checked(_number, lambda v: v > 0, "positive")

# section -> key -> parser: raw text to value, ValueError for a bad one
SCHEMA = {
    "run": {"experiments": _experiments, "output_dir": str,
            "seed": _checked(_integer, lambda v: v >= 0, "non-negative"),
            # goes once the benchmark's configs stop writing it (ROADMAP
            # item 1)
            "parallelism": _checked(_integer, lambda v: v == 1,
                                    "1 (runs are serial)")},
    "field": {"kind": _checked(str, FIELD_KINDS.__contains__,
                               "one of " + ", ".join(FIELD_KINDS)),
              "delta": _number, "delta0": _number, "c": _number,
              "a11": _number, "n": _integer, "p": _integer, "table": str,
              "diag": _numbers},
    "domain": {"omega": _omega},
    "mesh": {"resolution": _POSITIVE, "axial_resolution": _POSITIVE},
    "schedules": {key: _lengths for _, key, _ in EXPERIMENTS.values()},
}


@dataclass
class RunConfig:
    """A parsed config file.  ``[run] experiments`` and ``output_dir`` set
    the fields of the same name; ``[field] kind`` sets ``field_kind`` and
    the other ``[field]`` keys ``field_params``, the keyword arguments of
    the kind's builder in ``FIELD_KINDS``; ``[schedules]`` keys replace
    their experiment's lengths.  ``[run] seed`` and every ``[domain]`` and
    ``[mesh]`` key set the ``cfg`` field of the same name, and no key
    sets anything else there: solves take ``eig.DEFAULT_TOL``, meshes and
    factors the memory budget ``errors.MEMORY_BUDGET``, the verdicts
    their constants in ``experiments``, and ``multi-direction`` its own
    mesh.  ``[run] parallelism`` parses only as 1 and sets nothing: runs
    are serial."""

    experiments: list = dc_field(default_factory=lambda: ["bounds"])
    output_dir: str = "out"
    field_kind: str = "model"
    field_params: dict = dc_field(default_factory=dict)
    schedules: dict = dc_field(default_factory=lambda: {
        key: list(lengths) for _, key, lengths in EXPERIMENTS.values()})
    cfg: ex.ExperimentConfig = dc_field(default_factory=ex.ExperimentConfig)


def _read_text(path, error):
    """The text of the UTF-8 file ``path``, newlines untranslated; a file
    that cannot be read or decoded raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def parse_config(path):
    """Parse a config file into a RunConfig.  Each value goes through its
    ``SCHEMA`` parser, and a value it rejects raises ``ConfigError`` at
    its line."""
    got = {section: {} for section in SCHEMA}
    section = None
    seen = {}
    lines = _read_text(path, ConfigError).splitlines()
    for lineno, line in enumerate(lines, 1):
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
        try:
            got[section][key] = SCHEMA[section][key](raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {key} {exc}") from None
    rc = RunConfig()
    run, field = got["run"], got["field"]
    rc.experiments = run.get("experiments", rc.experiments)
    rc.output_dir = run.get("output_dir", rc.output_dir)
    rc.field_kind = field.pop("kind", rc.field_kind)
    rc.field_params = field
    rc.schedules.update(got["schedules"])
    rc.cfg = replace(rc.cfg, seed=run.get("seed", rc.cfg.seed),
                     **got["domain"], **got["mesh"])
    return rc


def make_field(rc):
    """The coefficient field of ``[field]``: the kind's builder called
    with ``rc.field_params``.  A key the builder does not take, a
    parameter it lacks, a value it rejects or a table it cannot read
    raises ``ConfigError``."""
    kind = rc.field_kind
    builder = FIELD_KINDS[kind]
    try:
        inspect.signature(builder).bind(**rc.field_params)
    except TypeError as exc:
        raise ConfigError(f"field kind '{kind}': {exc}") from None
    try:
        return builder(**rc.field_params)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"field kind '{kind}': {exc}") from exc


def _fmt_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_table_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt_cell(row.get(c)) for c in header])


def run(config_path):
    """Execute the configured experiments; write CSVs and a summary.

    The experiments share one ``solve_memo`` block, so the run assembles
    and solves each distinct pencil once.  A config, field or omega that
    is rejected ends the run before it makes the output directory."""
    rc = parse_config(config_path)
    field = make_field(rc)
    omega_dim = np.size(rc.cfg.omega) // 2
    if field.cross_dim != omega_dim:
        raise ConfigError(
            f"field kind '{rc.field_kind}' has cross dimension "
            f"{field.cross_dim}, but omega has dimension {omega_dim}")
    outdir = os.environ.get(ENV_OUTPUT_DIR, rc.output_dir)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory: {exc}") from exc
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
            _write_table_csv(os.path.join(outdir, f"{name}.csv"),
                             CSV_COLUMNS, [vars(r) for r in records])
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
    """The header of a CSV file and its rows as {column: cell}; a row
    whose cell count differs from the header's raises ``MissingColumn``
    at its line."""
    reader = csv.reader(io.StringIO(_read_text(path, MissingColumn),
                                    newline=""))
    header = next(reader, None)
    if header is None:
        raise MissingColumn(f"{path}: empty CSV")
    rows = []
    for cells in reader:
        if len(cells) != len(header):
            raise MissingColumn(f"{path}:{reader.line_num}: {len(cells)} "
                                f"cells under a header of {len(header)}")
        rows.append(dict(zip(header, cells)))
    return header, rows


def plot(csv_path, x_column, y_columns, out_svg, logy=False, group=None):
    """Self-contained SVG line plot of CSV columns."""
    header, rows = _read_csv(csv_path)
    for col in [x_column, *y_columns] + ([group] if group else []):
        if col not in header:
            raise MissingColumn(f"{csv_path}: no column '{col}'")
    if not rows:
        raise MissingColumn(f"{csv_path}: no data rows")
    series = []
    groups = [None]
    if group:
        groups = sorted({row[group] for row in rows if row[group] != ""})
    for gval in groups:
        for ycol in y_columns:
            pts = []
            for row in rows:
                if group and row[group] != gval:
                    continue
                if row[x_column] == "" or row[ycol] == "":
                    continue
                try:
                    pts.append((_number(row[x_column]), _number(row[ycol])))
                except ValueError as exc:
                    raise MissingColumn(f"{csv_path}: column '{x_column}' "
                                        f"or '{ycol}' {exc}") from exc
            if logy:
                pts = [p for p in pts if p[1] > 0]
            if not pts:
                continue
            pts.sort(key=lambda p: p[0])
            label = ycol if gval is None else f"{ycol}[{group}={gval}]"
            series.append((label, [p[0] for p in pts], [p[1] for p in pts]))
    if not series:
        raise MissingColumn(f"{csv_path}: no {'positive ' if logy else ''}"
                            f"plottable data in {[x_column, *y_columns]}")
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
        failed = [r for r in rows if r["passed"] != "true"]
        any_fail = any_fail or bool(failed)
        printed = True
        print(f"{'FAIL' if failed else 'PASS'}  {name:<24} "
              f"{len(rows) - len(failed)}/{len(rows)}")
        if "note" in header:
            for r in failed:
                print(f"      {r['note']}")
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
