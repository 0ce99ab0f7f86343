"""Benchmark: the committed cylgap configs, end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload model_gap --seed 0 --seconds 30 --trace 0

Load: a closed loop with one client.  Each timed repeat is one
``cylgap run`` of the workload's config in a fresh interpreter, with
``parallelism = 1``, ``CYLGAP_PARALLELISM`` and ``CYLGAP_OUTPUT_DIR``
unset and OpenBLAS at its default thread count.  The seed goes into a
derived copy of the config (``[run] seed`` seeds ARPACK's start vector),
which writes into a temporary directory under ``.perfbench_work/``.
Repeats run back to back until the next one would end past ``--seconds``
(at least one).  Every repeat is checked by the correctness gate
(``gate.py``) against the reference CSVs in ``perfbench/reference/``.

``--trace 0`` prints the end-to-end metrics: medians over the repeats of
``run_s`` (``cli.run`` from config load to ``summary.txt``), ``setup_s``
(interpreter start to the field being built), ``cpu_s`` (user + system
seconds of the run process during ``run_s``) and ``peak_rss_mb``.

``--trace 1`` alternates an untraced and a traced repeat on the same seed
and prints the per-layer metrics of the traced ones (``tracer.py``); the
traced run's CSVs must be byte-identical to the untraced run's, and
``trace.overhead_s`` is the traced minus the untraced ``run_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (rows checked), ``failed`` (rows that failed
the gate) and ``metrics``; the line before it holds the details (every
repeat, the environment and the gate's worst deviation).  Exits 2 without
a result when the checkout holds no ``src/cylgap`` or no config.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import gate
import tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
CHILD_TIMEOUT_S = 60

# workload -> committed config; its reference CSVs are reference/<workload>
WORKLOADS = {
    "model_gap": "configs/model_gap.cfg",
    "multi_direction": "configs/multi_direction.cfg",
    "asymmetric": "configs/asymmetric_showcase.cfg",
}

END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}


def _per_layer_units():
    units = {}
    for layer in tracer.BUSY_LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.s": "s"})
    for layer in tracer.LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "eig.distinct": "count", "eig.reuse_ratio": "ratio",
        "eig.arpack_calls": "count", "eig.dense_calls": "count",
        "eig.arpack_s": "s", "eig.dense_s": "s", "eig.unknowns_max": "dof",
        "eig.nnz_sum": "nnz", "assemble.distinct": "count",
        "assemble.dofs_sum": "dof",
        "experiments.cross_context.calls": "count",
        "experiments.cross_context.builds": "count",
        "cli.csv_s": "s", "cli.csv_bytes": "B", "setup.import_s": "s",
        "trace.run_s": "s", "trace.overhead_s": "s",
        "trace.unaccounted_s": "s"})
    for name in tracer.EXPERIMENT_NAMES:
        units[f"experiments.{name}.s"] = "s"
    return units


PER_LAYER = _per_layer_units()


def derived_config(text, seed, output_dir):
    """The config with ``[run]`` seed, output_dir and parallelism set (every
    committed config has a ``[run]`` section)."""
    forced = {"seed": str(seed), "output_dir": output_dir,
              "parallelism": "1"}
    out, section = [], None
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            out.append(line)
            if section == "run":
                out.extend(f"{k} = {v}" for k, v in forced.items())
            continue
        key = stripped.split("=", 1)[0].strip().lower()
        if section == "run" and "=" in stripped and key in forced:
            continue
        out.append(line)
    return "\n".join(out) + "\n"


def child_env(root):
    """Environment of a repeat: the package from ``src``, no cylgap
    overrides, and bytecode caching on, as for an installed package."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("CYLGAP_PARALLELISM", "CYLGAP_OUTPUT_DIR",
                        "PYTHONDONTWRITEBYTECODE")}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Repeat:
    """One fresh-interpreter run of the workload and its gate verdict."""

    def __init__(self, root, env, config_text, seed, ref_dir, rep_dir,
                 trace):
        os.makedirs(rep_dir)
        self.out_dir = os.path.join(rep_dir, "out")
        config = os.path.join(rep_dir, "run.cfg")
        with open(config, "w", encoding="utf-8") as f:
            f.write(derived_config(config_text, seed, self.out_dir))
        result_path = os.path.join(rep_dir, "result.json")
        t0 = time.perf_counter()
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), config,
               result_path, repr(t0)] + (["--trace"] if trace else [])
        try:
            proc = subprocess.run(cmd, cwd=root, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            self.exit = proc.returncode
            self.stderr = proc.stderr[-2000:]
        except subprocess.TimeoutExpired:
            self.exit, self.stderr = -1, f"timed out after {CHILD_TIMEOUT_S}s"
        self.result = None
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as f:
                self.result = json.load(f)
        # exit 2 is cylgap's verdict "some rows failed": gate those rows
        self.gate = gate.check(ref_dir, self.out_dir,
                               crashed=self.exit not in (0, 2))

    @property
    def ok(self):
        return self.exit == 0 and self.gate.ok

    def summary(self):
        keep = ("run_s", "setup_s", "import_s", "cpu_s", "peak_rss_mb")
        row = {k: self.result[k] for k in keep} if self.result else {}
        row.update(exit=self.exit, rows=self.gate.rows,
                   failed=self.gate.failed)
        return row


def same_csvs(dir_a, dir_b):
    names = sorted(n for n in os.listdir(dir_a) if n.endswith(".csv"))
    if names != sorted(n for n in os.listdir(dir_b) if n.endswith(".csv")):
        return False
    return all(filecmp.cmp(os.path.join(dir_a, n), os.path.join(dir_b, n),
                           shallow=False) for n in names)


def median_of(repeats, key):
    return statistics.median(r.result[key] for r in repeats)


def layer_metrics(plain, traced):
    """Per-layer metrics of the traced repeats (medians), with the import
    time of every repeat and the tracing overhead."""
    keys = traced[0].result["layers"].keys()
    out = {k: statistics.median(r.result["layers"][k] for r in traced)
           for k in keys}
    out["setup.import_s"] = median_of(plain + traced, "import_s")
    run_traced = median_of(traced, "run_s")
    out["trace.run_s"] = run_traced
    out["trace.overhead_s"] = run_traced - median_of(plain, "run_s")
    self_keys = [k for k in keys if k.endswith(".self_s")]
    out["trace.unaccounted_s"] = statistics.median(
        r.result["run_s"] - sum(r.result["layers"][k] for k in self_keys)
        for r in traced)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # a terminated benchmark raises, so subprocess.run kills and reaps the
    # repeat in flight
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    config_path = os.path.join(root, WORKLOADS[args.workload])
    ref_dir = os.path.join(BENCH_DIR, "reference", args.workload)
    for need in (os.path.join(root, "src", "cylgap", "cli.py"), config_path,
                 ref_dir):
        if not os.path.exists(need):
            print(f"perfbench: missing {need}; run from the root of a "
                  "cylgap checkout", file=sys.stderr)
            return 2
    with open(config_path, encoding="utf-8") as f:
        config_text = f.read()
    env = child_env(root)

    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-",
                            dir=os.path.join(root, WORK_DIR))
    try:
        def repeat(name, trace):
            return Repeat(root, env, config_text, args.seed, ref_dir,
                          os.path.join(work, name), trace)

        # untimed: byte-compiles the package, as an installed one is, and
        # brings the machine out of idle (on a shared 2-vCPU VM the first
        # run after a 15 s pause measured up to 40% slower)
        repeat("warmup", False)
        plain, traced, identical = [], [], True
        t_start = time.perf_counter()
        while True:
            t_rep = time.perf_counter()
            i = len(plain)
            if not args.trace:
                plain.append(repeat(f"plain{i}", False))
            else:
                # alternate which side of a pair runs first
                order = (False, True) if i % 2 == 0 else (True, False)
                names = {False: f"plain{i}", True: f"traced{i}"}
                pair = {t: repeat(names[t], t) for t in order}
                plain.append(pair[False])
                traced.append(pair[True])
                identical = identical and pair[False].exit == 0 and \
                    pair[True].exit == 0 and \
                    same_csvs(pair[False].out_dir, pair[True].out_dir)
            now = time.perf_counter()
            if now - t_start + (now - t_rep) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass

    repeats = plain + traced
    measured_plain = [r for r in plain if r.result]
    measured_traced = [r for r in traced if r.result]
    if not measured_plain or (args.trace and not measured_traced):
        for r in repeats:
            print(r.stderr, file=sys.stderr)
        print("perfbench: no repeat produced a measurement", file=sys.stderr)
        return 1
    attempted = sum(r.gate.rows for r in repeats)
    failed = sum(r.gate.failed for r in repeats)
    correct = all(r.ok for r in repeats) and identical

    if args.trace:
        values = layer_metrics(measured_plain, measured_traced)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": median_of(measured_plain, k), "unit": u}
                   for k, u in END_TO_END.items()}

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "repeats": [r.summary() for r in repeats],
        "rows_failed_ratio": failed / attempted if attempted else 1.0,
        "gate_max_rel_dev": max(r.gate.max_rel_dev for r in repeats),
        "gate_problems": [p for r in repeats for p in r.gate.problems][:20],
        "traced_csvs_identical": identical if args.trace else None,
        "environment": measured_plain[0].result["environment"],
    }
    print("detail " + json.dumps(detail))
    for r in repeats:
        if r.exit != 0:
            print(r.stderr, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
