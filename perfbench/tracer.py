"""Layer spans recorded from outside the package.

``Tracer.install`` rebinds the public functions of each ``cylgap`` module
to timing wrappers.  Callers look these names up at call time (``eig.x``
through a module alias, or a module global), so every call goes through
a wrapper.  A wrapper records one span: its layer, name, duration and the
time its child spans cover.  Spans stay in memory; ``Tracer.metrics``
folds them into per-layer metrics when the run has ended.

A layer's ``calls`` and busy time ``s`` count only its outermost spans (a
span whose parent is in another layer), so a call that re-enters its own
layer is not counted twice.  Its ``self_s`` sums, over all its spans, the
span's duration minus the part its child spans cover.  The root span is
``cli.run``, so the self times of all layers add up to the traced run.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import time

LAYERS = ("grid", "coeff", "assemble", "eig", "analysis", "experiments",
          "cli")
# layers reported with their call count and busy time; experiments and
# cli contain every other layer, so only their self time is reported
BUSY_LAYERS = ("grid", "coeff", "assemble", "eig", "analysis")
EXPERIMENT_NAMES = ("bounds", "limit-zero", "nu-half", "limit-infinity",
                    "gap", "second", "dirichlet", "decay", "end-profile",
                    "multi-direction")


ASSEMBLERS = ("assemble_cylinder", "assemble_dirichlet_cylinder",
              "assemble_cross_section")
CSV_WRITERS = ("write_records_csv", "_write_table_csv")


class Span:
    __slots__ = ("layer", "name", "dur", "child", "outermost", "info",
                 "arpack")

    def __init__(self, layer, name, outermost):
        self.layer = layer
        self.name = name
        self.outermost = outermost
        self.dur = 0.0
        self.child = 0.0
        self.info = None
        self.arpack = False


def form_key(form):
    """Identity of an assembled form: the domain kind, the partition and
    Dirichlet-mask bytes of its mesh, the field signature and whether the
    cross coefficient was Schur-reduced.  ``TensorMesh.signature`` holds
    only cell counts and ``ell``, so it is not used."""
    prov = form.provenance
    mesh = prov["_mesh"]
    h = hashlib.blake2b(digest_size=16)
    h.update(mesh.domain_kind.encode())
    for part in mesh.axis_partitions:
        h.update(part.tobytes())
    h.update(mesh.dirichlet_mask.tobytes())
    h.update(prov["_field"].signature.encode())
    h.update(b"reduced" if prov.get("reduced") else b"plain")
    return h.hexdigest()


def _stiffness_nnz(form):
    low = form.lower
    return 2 * low.nnz - int((low.diagonal() != 0).sum())


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._cross_cache = {}
        self._cross_cache_len = 0

    # -- recording -------------------------------------------------------

    def _wrap(self, layer, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            span = Span(layer, name,
                        parent is None or parent.layer != layer)
            stack.append(span)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.dur = time.perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent.child += span.dur
                self.spans.append(span)
            if hook is not None:
                # outside the span: the hook's time is tracing overhead
                span.info = hook(args, kwargs, out)
            return out

        return wrapper

    def _mark_arpack(self, fn):
        """ARPACK entry inside ``smallest_eigenpairs``: flags the enclosing
        eig span so that its time counts on the ARPACK path."""
        inner = self._wrap("eig", "arpack", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                self._stack[-1].arpack = True
            return inner(*args, **kwargs)

        return wrapper

    # -- hooks: size and identity of layer calls -------------------------

    @staticmethod
    def _eig_info(args, kwargs, out):
        K = args[0]
        count = kwargs.get("count", args[2] if len(args) > 2 else 1)
        return {"key": (form_key(K), count), "n": K.dim,
                "nnz": _stiffness_nnz(K)}

    @staticmethod
    def _assemble_info(args, kwargs, out):
        K = out[0]
        return {"key": form_key(K), "dofs": K.dim}

    def _cross_info(self, args, kwargs, out):
        size = len(self._cross_cache)
        built = size > self._cross_cache_len
        self._cross_cache_len = size
        return {"built": built}

    @staticmethod
    def _csv_info(args, kwargs, out):
        return {"bytes": os.path.getsize(args[0])}

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer module, plus the
        experiment dispatch table, ARPACK and the CSV writers."""
        import cylgap.cli as cli
        from cylgap import eig, experiments

        hooks = {("eig", "smallest_eigenpairs"): self._eig_info,
                 ("experiments", "cross_context"): self._cross_info}
        hooks.update({("assemble", n): self._assemble_info
                      for n in ASSEMBLERS})
        hooks.update({("cli", n): self._csv_info for n in CSV_WRITERS})
        self._cross_cache = experiments._CROSS_CACHE
        self._cross_cache_len = len(self._cross_cache)
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"cylgap.{layer}"]
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and \
                        obj.__module__ == module.__name__ and \
                        (not name.startswith("_") or (layer, name) in hooks):
                    wrappers[obj] = self._wrap(layer, name, obj,
                                               hooks.get((layer, name)))
        wrappers[eig.eigsh] = self._mark_arpack(eig.eigsh)
        # rebind every alias: module globals, ``from x import y`` copies
        # and the package's re-exports
        for modname, module in list(sys.modules.items()):
            if modname != "cylgap" and not modname.startswith("cylgap."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
        for name, fn in list(cli.EXECUTORS.items()):
            cli.EXECUTORS[name] = self._wrap("experiments", f"run:{name}", fn)

    # -- aggregation -----------------------------------------------------

    def metrics(self):
        """Per-layer counts, busy and self times, and call sizes."""
        spans = self.spans
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s.dur - s.child for s in spans
                                         if s.layer == layer)
        for layer in BUSY_LAYERS:
            top = [s for s in spans if s.layer == layer and s.outermost]
            out[f"{layer}.calls"] = len(top)
            out[f"{layer}.s"] = sum(s.dur for s in top)

        # eig and assemble count their operations, not helper calls
        solves = [s for s in spans if s.name == "smallest_eigenpairs"]
        sized = [s.info for s in solves if s.info]
        arpack = [s for s in solves if s.arpack]
        dense = [s for s in solves if not s.arpack]
        distinct = len({i["key"] for i in sized})
        out.update({
            "eig.calls": len(solves),
            "eig.distinct": distinct,
            "eig.reuse_ratio": distinct / len(solves) if solves else 1.0,
            "eig.arpack_calls": len(arpack),
            "eig.dense_calls": len(dense),
            "eig.arpack_s": sum(s.dur for s in arpack),
            "eig.dense_s": sum(s.dur for s in dense),
            "eig.unknowns_max": max((i["n"] for i in sized), default=0),
            "eig.nnz_sum": sum(i["nnz"] for i in sized),
        })
        builds = [s.info for s in spans if s.layer == "assemble"
                  and s.outermost and s.name in ASSEMBLERS and s.info]
        out["assemble.calls"] = len(builds)
        out["assemble.distinct"] = len({i["key"] for i in builds})
        out["assemble.dofs_sum"] = sum(i["dofs"] for i in builds)

        cross = [s for s in spans if s.name == "cross_context"]
        out["experiments.cross_context.calls"] = len(cross)
        out["experiments.cross_context.builds"] = sum(
            1 for s in cross if s.info and s.info["built"])
        for name in EXPERIMENT_NAMES:
            out[f"experiments.{name}.s"] = sum(
                s.dur for s in spans if s.name == f"run:{name}")
        csv_spans = [s for s in spans if s.name in CSV_WRITERS]
        out["cli.csv_s"] = sum(s.dur for s in csv_spans)
        out["cli.csv_bytes"] = sum(s.info["bytes"] for s in csv_spans
                                   if s.info)
        return out
