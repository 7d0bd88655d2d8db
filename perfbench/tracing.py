"""Layer tracing for the benchmark, installed from outside the package.

`Tracer.install` replaces public callables of `planaralg` with wrappers
that open a span on entry and close it on exit.  Nothing under `src/` is
edited: the wrappers are bound into every `planaralg` module namespace that
holds the original object (so `from .tangles import include` in `symmetry`
and `cli` is covered) and onto the classes for the operators, and
`uninstall` puts the originals back.

A span is (name, start, end, parent).  Each closing span adds its
duration to its parent's child time, so a span's self time is its duration
minus the time its child spans cover.  Spans of the coarse layers are kept
in memory and written out at the end of the run; the per-operation spans of
the scalar ring, the element algebra and the loop enumeration run hundreds
of thousands of times per job, so they are folded into per-name totals as
they close instead of being stored one by one.

A target that no longer exists (a later refactor renamed or removed it) is
recorded as absent, and every metric that needs it is left out of the
report instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from fractions import Fraction

perf = time.perf_counter

# Span names whose individual spans are not stored (only their totals).
HOT_PREFIXES = ("radical.", "graph.elem_", "graph.enumerate", "symmetry.act")

# Operators and public methods wrapped besides the functions of
# `planaralg.__all__`: (module, class, attribute, span name).
CLASS_TARGETS = (
    ("radical", "RadicalScalar", "__mul__", "radical.mul"),
    ("radical", "RadicalScalar", "__rmul__", "radical.mul"),
    ("radical", "RadicalScalar", "__add__", "radical.add"),
    ("radical", "RadicalScalar", "__radd__", "radical.add"),
    ("radical", "RadicalScalar", "__sub__", "radical.sub"),
    ("radical", "RadicalScalar", "__rsub__", "radical.sub"),
    ("radical", "RadicalScalar", "__neg__", "radical.neg"),
    ("radical", "RadicalScalar", "__pow__", "radical.pow"),
    ("radical", "RadicalScalar", "__eq__", "radical.eq"),
    ("radical", "RadicalScalar", "sqrt", "radical.sqrt"),
    ("radical", "RadicalScalar", "invert", "radical.invert"),
    ("graph", "PlanarElement", "__mul__", "graph.elem_mul"),
    ("graph", "PlanarElement", "__rmul__", "graph.elem_scale"),
    ("graph", "PlanarElement", "scaled", "graph.elem_scale"),
    ("graph", "PlanarElement", "__add__", "graph.elem_add"),
    ("graph", "PlanarElement", "__sub__", "graph.elem_sub"),
    ("graph", "PlanarElement", "__neg__", "graph.elem_neg"),
    ("graph", "PlanarElement", "__eq__", "graph.elem_eq"),
    ("graph", "BipartiteGraph", "iter_loops", "graph.enumerate"),
    ("graph", "BipartiteGraph", "enumerate_loops", "graph.enumerate"),
    ("graph", "BipartiteGraph", "paths_from", "graph.enumerate"),
    ("graph", "BipartiteGraph", "unit", "graph.unit"),
)

# Module-level names outside `__all__` that a layer metric needs.
EXTRA_FUNCTIONS = (("cli", "main"),)

# Span names that the functions of `__all__` must provide; a missing one
# makes its metrics absent.
EXPECTED_FUNCTION_SPANS = (
    "graph.build_graph",
    "tangles.include",
    "tangles.shift",
    "tangles.expect",
    "tangles.jones_projection",
    "tangles.jones_projection_raw",
    "tangles.trace",
    "tangles.verify_temperley_lieb",
    "symmetry.close_group",
    "symmetry.act",
    "symmetry.fixed_dims_report",
    "symmetry.verify_planar_subalgebra",
    "markov.analyze",
    "markov.word_norm",
    "markov.jones_tower",
    "markov.loop_space_dim",
    "radical.sqrt_of_int",
)

GENERATORS = ("include", "shift", "expect", "jones_projection", "trace")
MODULES = ("radical", "graph", "tangles", "symmetry", "markov", "cli")


class Tracer:
    """Span stack, per-name totals, counters and the kept spans of one run."""

    def __init__(self):
        # A frame is [start, child time, id of the nearest kept span].
        self.stack = []
        self.acc = {}  # name -> [calls, total s, self s]
        self.counts = Counter()
        self.spans = []  # (span_id, parent_id, name, start, end)
        self.absent = set()
        self.present = set()
        self.verifying = 0  # depth of verify_planar_subalgebra spans
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)

    # -- spans ----------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self.stack[-1][2] if self.stack else None
        if name.startswith(HOT_PREFIXES):
            self.stack.append([perf(), 0.0, parent])
        else:
            self._next_id += 1
            self.stack.append([perf(), 0.0, self._next_id, parent])

    def exit(self, name: str) -> float:
        end = perf()
        frame = self.stack.pop()
        duration = end - frame[0]
        acc = self.acc.get(name)
        if acc is None:
            acc = self.acc[name] = [0, 0.0, 0.0]
        acc[0] += 1
        acc[1] += duration
        acc[2] += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration
        if len(frame) == 4:
            self.spans.append((frame[2], frame[3], name, frame[0], end))
        return duration

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name):
        """Wrapper that records a span named `name` around each call.

        The hot per-operation spans bypass `enter`/`exit`: the same
        bookkeeping inlined, since they run hundreds of thousands of times
        per job and their overhead is reported as trace.overhead_ratio."""
        tracer = self
        stack = self.stack
        acc = self.acc.setdefault(name, [0, 0.0, 0.0])
        hook = _RESULT_HOOKS.get(name)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                counts = tracer.counts
                while True:
                    tracer.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(name)
                    counts["graph.loops"] += 1
                    yield item

            return gen_wrapper

        if not name.startswith(HOT_PREFIXES):
            verifier = name == "symmetry.verify_planar_subalgebra"

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.enter(name)
                tracer.verifying += verifier
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.verifying -= verifier
                    tracer.exit(name)
                if hook is not None:
                    hook(tracer, result)
                return result

            return wrapper

        def timed(*args, **kwargs):
            frame = [perf(), 0.0, stack[-1][2] if stack else None]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - frame[0]
                stack.pop()
                acc[0] += 1
                acc[1] += duration
                acc[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        if name == "graph.elem_mul":
            scale_acc = self.acc.setdefault("graph.elem_scale", [0, 0.0, 0.0])
            counts = self.counts

            @functools.wraps(fn)
            def elem_mul_wrapper(self_, other):
                if type(other) is not type(self_):
                    # Scalar multiples go through the same operator; count them apart.
                    frame = [perf(), 0.0, stack[-1][2] if stack else None]
                    stack.append(frame)
                    try:
                        return fn(self_, other)
                    finally:
                        duration = perf() - frame[0]
                        stack.pop()
                        scale_acc[0] += 1
                        scale_acc[1] += duration
                        scale_acc[2] += duration - frame[1]
                        if stack:
                            stack[-1][1] += duration
                result = timed(self_, other)
                counts["graph.elem_mul_terms_out"] += len(result.terms)
                if tracer.verifying:
                    counts["symmetry.verify_products"] += 1
                return result

            return elem_mul_wrapper

        if name == "radical.mul":
            counts = self.counts

            @functools.wraps(fn)
            def scalar_mul_wrapper(self_, other):
                if self_.is_rational() and (
                    isinstance(other, (int, Fraction)) or (hasattr(other, "is_rational") and other.is_rational())
                ):
                    counts["radical.mul_rational"] += 1
                return timed(self_, other)

            return scalar_mul_wrapper

        return functools.wraps(fn)(timed)

    def install(self, package) -> None:
        """Wrap the public callables of `package` (the imported `planaralg`)."""
        modules = [m for n, m in list(sys.modules.items()) if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for export in getattr(package, "__all__", ()):
            obj = getattr(package, export, None)
            if inspect.isfunction(obj) and obj.__module__.startswith(package.__name__ + "."):
                layer = obj.__module__.rsplit(".", 1)[1]
                self._patch_function(modules, obj, f"{layer}.{obj.__name__}")
        for layer, attr in EXTRA_FUNCTIONS:
            module = sys.modules.get(f"{package.__name__}.{layer}")
            if module is None:
                continue  # not imported by this process, so never called
            obj = getattr(module, attr, None)
            if inspect.isfunction(obj):
                self._patch_function(modules, obj, f"{layer}.{attr}")
            else:
                self.absent.add(f"{layer}.{attr}")
        wrapped_by_class = {}
        for layer, cls_name, attr, name in CLASS_TARGETS:
            module = sys.modules.get(f"{package.__name__}.{layer}")
            cls = getattr(module, cls_name, None) if module else None
            original = cls.__dict__.get(attr) if isinstance(cls, type) else None
            if not callable(original):
                self.absent.add(name)
                continue
            key = (cls, id(original), name)
            wrapper = wrapped_by_class.get(key)
            if wrapper is None:
                wrapper = wrapped_by_class[key] = self._wrap(original, name)
            self._patches.append((cls, attr, original))
            setattr(cls, attr, wrapper)
            self.present.add(name)
        for name in EXPECTED_FUNCTION_SPANS:
            if name not in self.present:
                self.absent.add(name)

    def _patch_function(self, modules, original, name) -> None:
        wrapper = self._wrap(original, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        self.present.add(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals and counters, in a form that can cross a process boundary."""
        return {
            "calls": {k: v[0] for k, v in self.acc.items()},
            "total": {k: v[1] for k, v in self.acc.items()},
            "self": {k: v[2] for k, v in self.acc.items()},
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
        }



def _count_generator(tracer: Tracer, result) -> None:
    terms = getattr(result, "terms", None)
    if isinstance(terms, dict):
        tracer.counts["tangles.gen_terms_out"] += len(terms)


def _count_relation_checks(tracer: Tracer, result) -> None:
    tracer.counts["tangles.checks"] += len(result)
    tracer.counts["tangles.checks_failed"] += sum(1 for c in result if not c.passed)


def _count_subalgebra_checks(tracer: Tracer, result) -> None:
    tracer.counts["symmetry.checks"] += len(result.checks)
    tracer.counts["symmetry.checks_failed"] += sum(1 for c in result.checks if not c.passed)


_RESULT_HOOKS = {f"tangles.{g}": _count_generator for g in GENERATORS}
_RESULT_HOOKS["tangles.verify_temperley_lieb"] = _count_relation_checks
_RESULT_HOOKS["symmetry.verify_planar_subalgebra"] = _count_subalgebra_checks


def write_spans(path, span_sets) -> None:
    """JSON lines, one per kept span; `job` tells the spans of separate
    CLI processes apart (None for spans of this process)."""
    with open(path, "w", encoding="utf-8") as handle:
        for job, spans in span_sets:
            for span_id, parent, name, start, end in spans:
                record = {"job": job, "id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                handle.write(json.dumps(record) + "\n")


class Totals:
    """Merged snapshots of the traced jobs of one run."""

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.absent = set()

    def add(self, snap: dict) -> None:
        self.calls.update(snap["calls"])
        self.total.update(snap["total"])
        self.self_time.update(snap["self"])
        self.counts.update(snap["counts"])
        self.absent.update(snap["absent"])

    def module_self(self, module: str) -> float:
        return sum(v for k, v in self.self_time.items() if k.startswith(module + "."))
