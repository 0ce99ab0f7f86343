"""One timed ``cylgap run`` in a fresh interpreter.

Usage: python3 perfbench/child.py CONFIG RESULT_JSON SPAWN_TIME [--trace]

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process (a system-wide monotonic clock on Linux), so the set-up time
includes interpreter start-up.  The run's exit code is ``cli.run``'s: 0
when every row passed, 2 on assertion failures, 1 on a cylgap error.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time


def _environment():
    import numpy
    import scipy

    def blas(cfg):
        deps = cfg.get("Build Dependencies", {}).get("blas", {})
        return deps.get("openblas configuration") or deps.get("name", "?")

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__.CONFIG),
        "scipy_blas": blas(scipy.__config__.CONFIG),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv):
    config, result_path, spawn = argv[0], argv[1], float(argv[2])
    trace = "--trace" in argv[3:]
    import cylgap.cli as cli
    from cylgap.errors import CylgapError
    t_import = time.perf_counter()

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    marks = {}
    make_field = cli.make_field

    def timed_make_field(rc):
        field = make_field(rc)
        marks["setup_end"] = time.perf_counter()
        return field

    cli.make_field = timed_make_field

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        rc = cli.run(config)
    except CylgapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        rc = 1
    t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "exit": rc,
        "run_s": t1 - t0,
        "import_s": t_import - spawn,
        "setup_s": marks.get("setup_end", t1) - spawn,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "environment": _environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
