"""Spans and counts at hypercauchy's layer boundaries, recorded from outside.

``Tracer.installed()`` replaces each function in ``TRACED`` with a wrapper
in every ``hypercauchy`` module namespace that binds it, so names bound at
import (``cli.build_mesh``, ``bvp.refine``, ``bvp.gradient_stencil``) are
wrapped where they are used, and puts the originals back on exit.  Each
wrapper records a span (key, start, end, parent) and the counts of its
layer; spans stay in memory until ``metrics()`` derives busy time, self time
and coverage from them.  Nothing inside ``src/`` changes.
"""

import contextlib
import functools
from array import array
import inspect
import sys
import time

import numpy as np

from hypercauchy import surface

# (module, function, span key).  Functions sharing a key form one layer;
# spans without metrics of their own still count toward trace.coverage.
# Every public function of _corpus is traced under the key "corpus".  A
# function missing from the package is skipped and listed in ``missing``.
TRACED = (
    ("_accel", "accum_left", "accel.accum"),
    ("_accel", "accum_right", "accel.accum"),
    ("_accel", "pv_matrix", "accel.pv_matrix"),
    ("_accel", "pb_rhs", "accel.pb_rhs"),
    ("cauchy", "principal_value_nodes", "cauchy.pv_nodes"),
    ("cauchy", "principal_value", "cauchy.principal_value"),
    ("cauchy", "_singular_cell_corrections", "cauchy.correction"),
    ("cauchy", "gradient_stencil", "cauchy.gradient_stencil"),
    ("cauchy", "_build_gradient_stencil", "cauchy.gradient_stencil.build"),
    ("cauchy", "cauchy_integral", "cauchy.cauchy_integral"),
    ("cauchy", "boundary_limit", "cauchy.boundary_limit"),
    ("cauchy", "plemelj_values", "cauchy.plemelj_values"),
    ("cauchy", "symmetric_difference_limit", "cauchy.symmetric_difference"),
    ("cauchy", "span_indicator", "cauchy.span_indicator"),
    ("surface", "refine", "bvp.refine"),
    ("bvp", "solve_jump_rm", "bvp.solve"),
    ("bvp", "solve_constant_gap", "bvp.solve"),
    ("bvp", "solve_dirichlet", "bvp.solve"),
    ("bvp", "solve_characteristic_sie", "bvp.solve"),
    ("bvp", "jump_residual", "bvp.residual"),
    ("bvp", "constant_gap_residual", "bvp.residual"),
    ("bvp", "poincare_bertrand_discrepancy", "bvp.poincare_bertrand"),
    ("bvp", "_kernel_matrix", "bvp.kernel_matrix"),
    ("fueter", "boundary_moment", "fueter.boundary_moment"),
    ("fueter", "order_at_infinity", "fueter.order_at_infinity"),
    ("surface", "build_mesh", "surface.build_mesh"),
    ("clifford_core", "product", "clifford.product"),
    ("clifford_core", "conjugate", "clifford.conjugate"),
    ("clifford_core", "paravector_inverse", "clifford.paravector_inverse"),
    ("clifford_core", "Paravector.as_multivector", "clifford.as_multivector"),
)

# name -> unit of every per-layer metric, in output order
METRICS = {
    "accel.accum.calls": "count",
    "accel.accum.single_target_calls": "count",
    "accel.accum.pairs": "count",
    "accel.accum.busy_s": "s",
    "accel.accum.pairs_per_s": "1/s",
    "accel.accum.bytes_computed": "B",
    "accel.pv_matrix.pairs": "count",
    "accel.pv_matrix.busy_s": "s",
    "accel.pv_matrix.pairs_per_s": "1/s",
    "accel.pb_rhs.pairs": "count",
    "accel.pb_rhs.busy_s": "s",
    "accel.pb_rhs.pairs_per_s": "1/s",
    "cauchy.pv_nodes.calls": "count",
    "cauchy.pv_nodes.calls_per_mesh": "count",
    "cauchy.pv_nodes.self_s": "s",
    "cauchy.correction.busy_s": "s",
    "cauchy.gradient_stencil.meshes": "count",
    "cauchy.gradient_stencil.busy_s": "s",
    "cauchy.cauchy_integral.calls": "count",
    "cauchy.boundary_limit.calls": "count",
    "cauchy.boundary_limit.busy_s": "s",
    "bvp.refine.calls": "count",
    "bvp.refined.busy_s": "s",
    "bvp.solve.busy_s": "s",
    "bvp.kernel_matrix.busy_s": "s",
    "bvp.kernel_matrix.bytes": "B",
    "fueter.boundary_moment.calls": "count",
    "fueter.boundary_moment.busy_s": "s",
    "surface.build_mesh.calls": "count",
    "surface.build_mesh.busy_s": "s",
    "surface.nodes_built": "count",
    "corpus.busy_s": "s",
    "clifford.product.calls": "count",
    "clifford.product.busy_s": "s",
}

# Metrics that must repeat exactly between two traced passes.
COUNTS = tuple(k for k, unit in METRICS.items() if unit in ("count", "B"))


def _mesh_arg(args, kwargs):
    mesh = args[0] if args else kwargs.get("mesh")
    return mesh if isinstance(mesh, surface.SurfaceMesh) else None


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.key_ids = {}
        self.key_names = []
        self.active = []         # open spans per key id
        self.open_refined = 0    # open spans on a refined mesh
        self.stack = []
        # one entry per span, in opening order
        self.keys = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.outermost = array("b")     # no open span of the same key
        self.refined_root = array("b")  # on a refined mesh, none open
        self.refined_flag = array("b")  # on a refined mesh
        self.counts = dict.fromkeys(COUNTS, 0)
        self.refined = {}    # id -> mesh returned by refine (kept alive)
        self.pv_meshes = {}  # id -> mesh passed to principal_value_nodes
        self.missing = []

    def _key_id(self, key):
        if key not in self.key_ids:
            self.key_ids[key] = len(self.key_names)
            self.key_names.append(key)
            self.active.append(0)
        return self.key_ids[key]

    def _open(self, kid, start, on_refined):
        index = len(self.keys)
        self.keys.append(kid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(start)
        self.ends.append(start)
        self.outermost.append(self.active[kid] == 0)
        self.refined_root.append(on_refined and not self.open_refined)
        self.refined_flag.append(on_refined)
        self.active[kid] += 1
        self.open_refined += on_refined
        self.stack.append(index)
        return index

    def _close(self, kid, index):
        self.stack.pop()
        self.active[kid] -= 1
        self.open_refined -= self.refined_flag[index]
        # last, so the bookkeeping cost falls inside the span
        self.ends[index] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, key):
        """Record a span around a block of the benchmark's own code."""
        kid = self._key_id(key)
        index = self._open(kid, time.perf_counter(), False)
        try:
            yield
        finally:
            self._close(kid, index)

    def _count(self, key, args, kwargs, result):
        c = self.counts
        calls = key + ".calls"
        if calls in c:
            c[calls] += 1
        if key == "accel.accum":
            ctx, targets, nodes = args[:3]
            m = np.atleast_2d(targets).shape[0]
            pairs = m * len(nodes)
            c["accel.accum.single_target_calls"] += m == 1
            c["accel.accum.pairs"] += pairs
            # the (targets, nodes, n+1) float64 kernel block E
            c["accel.accum.bytes_computed"] += pairs * (ctx.n + 1) * 8
        elif key == "accel.pv_matrix":
            c["accel.pv_matrix.pairs"] += len(args[1]) ** 2
        elif key == "accel.pb_rhs":
            # N pairs for the target row plus N^2 for the exchanged sum
            n_nodes = len(args[1])
            c["accel.pb_rhs.pairs"] += n_nodes * n_nodes + n_nodes
        elif key == "cauchy.pv_nodes":
            mesh = _mesh_arg(args, kwargs)
            self.pv_meshes[id(mesh)] = mesh
        elif key == "cauchy.gradient_stencil.build":
            c["cauchy.gradient_stencil.meshes"] += 1
        elif key == "bvp.refine":
            self.refined[id(result)] = result
        elif key == "bvp.kernel_matrix":
            c["bvp.kernel_matrix.bytes"] += result.nbytes
        elif key == "surface.build_mesh":
            c["surface.nodes_built"] += result.node_count

    def _wrap(self, key, fn):
        kid = self._key_id(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            mesh = _mesh_arg(args, kwargs)
            index = self._open(kid, start, mesh is not None
                               and id(mesh) in self.refined)
            try:
                result = fn(*args, **kwargs)
                self._count(key, args, kwargs, result)
                return result
            finally:
                self._close(kid, index)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED function wherever hypercauchy binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hypercauchy" or name.startswith("hypercauchy.")]
        corpus = "hypercauchy._corpus"
        traced = TRACED + tuple(
            ("_corpus", name, "corpus")
            for name, fn in vars(sys.modules.get(corpus, object)).items()
            if inspect.isfunction(fn) and fn.__module__ == corpus
            and not name.startswith("_"))
        patched = []
        for mod_name, path, key in traced:
            owner = sys.modules.get("hypercauchy." + mod_name)
            cls_name, _, fn_name = path.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, fn_name, None)
            if original is None:
                self.missing.append("%s.%s" % (mod_name, path))
                continue
            wrapper = self._wrap(key, original)
            if cls_name:
                setattr(owner, fn_name, wrapper)
                patched.append((owner, fn_name, original))
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    def metrics(self, item_prefix="cli.item."):
        """Per-layer metrics of the recorded spans, as name -> value."""
        names = self.key_names
        is_item = [k.startswith(item_prefix) for k in names]
        busy = [0.0] * len(names)
        self_time = [0.0] * len(names)
        children = [0.0] * len(self.keys)
        covered = wall = refined = 0.0
        for index in range(len(self.keys) - 1, -1, -1):
            kid, parent = self.keys[index], self.parents[index]
            dur = self.ends[index] - self.starts[index]
            self_time[kid] += dur - children[index]
            if parent >= 0:
                children[parent] += dur
            if self.outermost[index]:
                busy[kid] += dur
            if self.refined_root[index]:
                refined += dur
            if is_item[kid]:
                wall += dur
            elif parent >= 0 and is_item[self.keys[parent]]:
                covered += dur
        busy = dict(zip(names, busy))
        self_s = dict(zip(names, self_time))

        out = {name: 0.0 for name in METRICS}
        out.update(self.counts)
        for name in METRICS:
            layer, _, metric = name.rpartition(".")
            if metric == "busy_s":
                out[name] = busy.get(layer, 0.0)
            elif metric == "pairs_per_s" and busy.get(layer):
                out[name] = out[layer + ".pairs"] / busy[layer]
        meshes = len(self.pv_meshes)
        out["cauchy.pv_nodes.calls_per_mesh"] = (
            out["cauchy.pv_nodes.calls"] / meshes if meshes else 0.0)
        out["cauchy.pv_nodes.self_s"] = self_s.get("cauchy.pv_nodes", 0.0)
        out["bvp.refined.busy_s"] = refined
        out["trace.coverage"] = covered / wall if wall > 0 else 0.0
        out["trace.spans"] = len(self.keys)
        out["items"] = {key[len(item_prefix):]: busy[key]
                        for key in busy if key.startswith(item_prefix)}
        return out
