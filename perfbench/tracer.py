"""Outside-in spans around the public functions of each omstrata layer.

``Tracer.install`` replaces every binding of a target function (in its
defining module, in each omstrata module that imported it, and in the
benchmark's own modules) with a wrapper that records one span per call:
name, start, end, parent span and op id.  The wrapped function itself runs
unmodified.  Spans are kept in memory and written out when the run ends.

Self time is a span's duration minus the durations of its direct children;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from math import comb
from time import perf_counter

OP_SPAN = "op"


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _count_om_of(counters, args, result):
    arrangement = args[0]
    n = len(arrangement)
    live = sum(1 for _, v in arrangement.elements if not v.is_zero())
    counters["om.om_of.elements"] += n
    counters["om.cocircuits"] += len(result.cocircuits)
    counters["om.om_of.sign_evals"] += comb(live, 2) * n


def _count_covectors(counters, args, result):
    counters["om.covectors"] += len(result)


def _count_build(counters, args, result):
    counters["construction.points"] += len(result.points)
    bits = max(max(_bits(p.x), _bits(p.y)) for _, p in result.points)
    counters["construction.coord_bits_max"] = max(counters["construction.coord_bits_max"], bits)


def _count_projection(counters, args, result):
    bits = max(max(_bits(v.x), _bits(v.y), _bits(v.z)) for _, v in result.elements)
    counters["grassmann.coord_bits_max"] = max(counters["grassmann.coord_bits_max"], bits)


def _count_render(counters, args, result):
    if isinstance(result, str):
        counters["serialization.bytes"] += len(result.encode("utf-8"))


# (span name, defining module, attribute path, counter hook or None)
TARGETS = (
    ("geometry.line_through", "omstrata.geometry", "line_through", None),
    ("geometry.line_intersect", "omstrata.geometry", "line_intersect", None),
    ("geometry.cross_ratio", "omstrata.geometry", "cross_ratio", None),
    ("geometry.perspective_normalize", "omstrata.geometry", "perspective_normalize", None),
    ("linalg.solve_linear", "omstrata.linalg", "solve_linear", None),
    ("linalg.matrix_rank", "omstrata.linalg", "matrix_rank", None),
    ("om.om_of", "omstrata.om", "om_of", _count_om_of),
    ("om.chirotope_of", "omstrata.om", "chirotope_of", None),
    ("om.covectors_of", "omstrata.om", "covectors_of", _count_covectors),
    ("om.om_equal", "omstrata.om", "om_equal", None),
    ("om.strong_map", "omstrata.om", "strong_map", None),
    ("om.weak_map", "omstrata.om", "weak_map", None),
    ("om.underlying_matroid", "omstrata.om", "underlying_matroid", None),
    ("om.fingerprint", "omstrata.om", "OrientedMatroid.fingerprint", None),
    ("om.delete_loops", "omstrata.om", "OrientedMatroid.delete_loops", None),
    ("grassmann.Subspace", "omstrata.grassmann", "Subspace.__init__", None),
    ("grassmann.projection_arrangement", "omstrata.grassmann", "projection_arrangement",
     _count_projection),
    ("grassmann.subspace_om", "omstrata.grassmann", "subspace_om", None),
    ("grassmann.family_om", "omstrata.grassmann", "family_om", None),
    ("grassmann.same_stratum", "omstrata.grassmann", "same_stratum", None),
    ("construction.build", "omstrata.construction", "build", _count_build),
    ("construction.cross_ratio_ledger", "omstrata.construction", "cross_ratio_ledger", None),
    ("construction.certificate", "omstrata.construction", "certificate", None),
    ("construction.delta_arrangement", "omstrata.construction", "delta_arrangement", None),
    ("construction.scale_degeneration", "omstrata.construction", "scale_degeneration", None),
    ("construction.limit_arrangement", "omstrata.construction", "limit_arrangement", None),
    ("serialization.render", "omstrata.serialization", "render_report", _count_render),
    ("serialization.render", "omstrata.serialization", "document_to_json", _count_render),
    ("serialization.render", "omstrata.serialization", "render_family", _count_render),
    # The JSON text of a rendered family is produced by the benchmark's own
    # helper (the same call the CLI's ``build`` makes), so it is a
    # serialization span too.
    ("serialization.render", "workloads", "family_json", _count_render),
)


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op_id = -1

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside an op, e.g. an output check
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def install(self, extra_modules=()) -> None:
        """Wrap every target at every name that binds it."""
        modules = [m for k, m in sys.modules.items() if k == "omstrata" or k.startswith("omstrata.")]
        modules.extend(extra_modules)
        by_name = {getattr(m, "__name__", ""): m for m in modules}
        for name, module_name, attr, count in TARGETS:
            owner = by_name[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original, count)
            setattr(owner, leaf, wrapper)
            if path:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    @contextmanager
    def op(self, op_id: int):
        """The root span of one op; layer spans inside it are its children."""
        self.op_id = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (OP_SPAN, start, end, -1, op_id)

    def summary(self) -> tuple[dict[str, float], dict[str, int], float, float]:
        """Self time and call count per span name, run time, unattributed time.

        Run time is the summed duration of the op spans; unattributed time is
        the op spans' own self time, i.e. benchmark glue outside every layer.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        run_s = unattributed = 0.0
        for (name, start, end, parent, _), inner in zip(self.spans, child_time):
            own = end - start - inner
            if name == OP_SPAN:
                run_s += end - start
                unattributed += own
            else:
                self_s[name] += own
                calls[name] += 1
        return self_s, calls, run_s, unattributed

    def write(self, path) -> None:
        """All spans as JSON lines: name, start, end, parent, op id."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

