"""In-memory spans around the calls into tamecount's layers.

The benchmark does not edit the package.  A traced run replaces, for its
own duration, the module attributes through which the layers call each
other (for example ``tamecount.asymptotics.line_threshold``) with
wrappers that open a span, call the original and record counts from its
arguments and result.  ``Tracer.uninstall`` puts every original back.

A span is ``[name, start, end, parent, request, attrs]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (or
-1), ``request`` the id of the request being served, ``attrs`` a dict of
counts.
"""
from __future__ import annotations

import contextlib
import importlib
import time


def _lp_shape(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    nnz = sum(1 for row, _, _ in problem.constraints for c in row if c)
    return {"rows": len(problem.constraints), "cols": len(problem.variables),
            "nnz": nnz, "feasible": result.status == "optimal"}


def _count(key):
    return lambda args, kwargs, result: {key: len(result)}


def _constraints(args, kwargs, result):
    return {"constraints": len(result.constraints)}


# (module, attribute, span name, attrs from (args, kwargs, result)).  A
# function imported by name into several modules is wrapped at each
# import site that the workloads reach.
PATCHES = [
    ("tamecount.catalog", "resolve_entry", "catalog.resolve", None),
    ("tamecount.catalog", "tame_types", "ramtypes.tame_types", _count("types")),
    ("tamecount.perm", "normal_subgroups", "perm.normal_subgroups", None),
    ("tamecount.concentration", "normal_subgroups", "perm.normal_subgroups", None),
    ("tamecount.concentration", "classify", "concentration.classify", None),
    ("tamecount.concentration", "analysis_witnesses", "concentration.witnesses",
     _count("witnesses")),
    ("tamecount.cli", "analysis_witnesses", "concentration.witnesses",
     _count("witnesses")),
    ("tamecount.asymptotics", "subconvexity_matrix", "regions.matrix", None),
    ("tamecount.asymptotics", "build_region", "regions.build_region", _constraints),
    ("tamecount.asymptotics", "line_threshold", "hull_lp.threshold", None),
    ("tamecount.hull_lp", "line_threshold", "hull_lp.threshold", None),
    ("tamecount.asymptotics", "hull_membership", "hull_lp.membership", None),
    ("tamecount.hull_lp", "hull_membership", "hull_lp.membership", None),
    ("tamecount.hull_lp", "lp_solve", "hull_lp.lp_solve", _lp_shape),
    ("tamecount.hull_lp", "verify_certificate", "hull_lp.verify", None),
    ("tamecount.cli", "analyze", "asymptotics.analyze", None),
]


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    request = None

    @contextlib.contextmanager
    def span(self, name):
        yield {}

    paused = contextlib.nullcontext


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._saved = []
        self._paused = 0

    def _open(self, name):
        if self._paused:
            return None
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request, {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        if index is None:
            return
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self._open(name)
        attrs = {} if index is None else self.spans[index][5]
        try:
            yield attrs
        finally:
            self._close(index)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the checker rebuilds references."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if attrs is not None and index is not None:
                self.spans[index][5].update(attrs(args, kwargs, result))
            return result
        return traced

    def patch(self, module_name, attr, replacement):
        module = importlib.import_module(module_name)
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        """Wrap every patch site the package still has.  A site that a later
        version renames or removes is skipped, so its layer reads 0 and the
        benchmark's span test names it."""
        for module_name, attr, name, attrs in PATCHES:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                self.patch(module_name, attr, self.wrap(name, getattr(module, attr), attrs))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass
# ---------------------------------------------------------------------------

def _outermost(spans, name):
    """Spans called `name` with no ancestor of the same name (no double count)."""
    out = []
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out.append(span)
    return out


def _inclusive(spans, name):
    return sum(s[2] - s[1] for s in _outermost(spans, name))


def _self_time(spans, name):
    total = 0.0
    for i, span in enumerate(spans):
        if span[0] != name:
            continue
        children = sum(c[2] - c[1] for c in spans if c[3] == i)
        total += (span[2] - span[1]) - children
    return total


def _within(spans, span, name):
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans):
    """Per-layer seconds and counts of one pass, keyed by metric name."""
    def attr_sum(name, key):
        return sum(s[5].get(key, 0) for s in spans if s[0] == name)

    lps = [s for s in spans if s[0] == "hull_lp.lp_solve"]
    memberships = [s for s in spans if s[0] == "hull_lp.membership"]
    in_membership = sum(1 for s in lps if _within(spans, s, "hull_lp.membership"))
    feasible = sum(1 for s in lps if s[5].get("feasible"))
    return {
        "catalog.resolve_s": _inclusive(spans, "catalog.resolve"),
        "perm.closure_s": _inclusive(spans, "perm.closure"),
        "perm.classes_s": _inclusive(spans, "perm.classes"),
        "perm.normal_subgroups_s": _inclusive(spans, "perm.normal_subgroups"),
        "perm.normal_subgroups_calls": len(
            [s for s in spans if s[0] == "perm.normal_subgroups"]),
        "perm.group_order": attr_sum("perm.closure", "order"),
        "perm.class_count": attr_sum("perm.classes", "classes"),
        "ramtypes.tame_types_s": _inclusive(spans, "ramtypes.tame_types"),
        "ramtypes.type_count": attr_sum("ramtypes.tame_types", "types"),
        "concentration.classify_s": _inclusive(spans, "concentration.classify"),
        "concentration.witnesses_s": _inclusive(spans, "concentration.witnesses"),
        "concentration.witness_count": sum(
            s[5].get("witnesses", 0) for s in _outermost(spans, "concentration.witnesses")),
        "regions.matrix_s": _inclusive(spans, "regions.matrix"),
        "regions.build_region_s": _inclusive(spans, "regions.build_region"),
        "regions.constraint_count": attr_sum("regions.build_region", "constraints"),
        "hull_lp.lp_solve_s": _inclusive(spans, "hull_lp.lp_solve"),
        "hull_lp.lp_solves": len(lps),
        "hull_lp.lp_rows": max((s[5]["rows"] for s in lps), default=0),
        "hull_lp.lp_cols": max((s[5]["cols"] for s in lps), default=0),
        "hull_lp.lp_nnz": max((s[5]["nnz"] for s in lps), default=0),
        "hull_lp.threshold_s": _inclusive(spans, "hull_lp.threshold"),
        "hull_lp.membership_s": _inclusive(spans, "hull_lp.membership"),
        "hull_lp.lps_per_membership": (in_membership / len(memberships)
                                       if memberships else 0.0),
        "hull_lp.lp_feasible_ratio": feasible / len(lps) if lps else 0.0,
        "hull_lp.verify_s": _inclusive(spans, "hull_lp.verify"),
        "asymptotics.analyze_self_s": _self_time(spans, "asymptotics.analyze"),
        "cli.serialize_s": _inclusive(spans, "cli.serialize"),
    }


def jsonable(spans):
    """Spans as JSON records, times in seconds from the first span's start."""
    origin = spans[0][1] if spans else 0.0
    return [{"name": name, "start": start - origin, "end": end - origin,
             "parent": parent, "request": request, **attrs}
            for name, start, end, parent, request, attrs in spans]
