"""Spans around calls into the public functions of each `quadrics` module,
installed from outside the package by rebinding those names, and the
per-layer metrics derived from them.

A span records its name, start, end, the span that was open when it began
(its parent) and the job it belongs to.  Spans stay in memory until the run
ends.  Hot per-element calls (field raw operations, raw_q/raw_b, Vector
arithmetic, is_on_quadric) get no span, because a span there would cost as
much as the call; the micro-probes time them instead.
"""

import functools
import math
import sys
from collections import defaultdict
from time import perf_counter_ns

TARGETS = {
    "fields": ["Field.__init__"],
    "quadform": ["reflect", "reflection_matrix", "is_isometry",
                 "dickson", "GroupElement.__mul__", "GroupElement.apply"],
    "quadric": ["enumerate_quadric", "count_report"],
    "action": ["GroupContext.__init__", "trace_zero_reflection_vectors",
               "enumerate_isometries", "so_model_closure", "enumerate_group",
               "stabilizer", "orbit", "verify_homogeneous", "verify_similitude_orbit"],
    "transport": ["TransportCertificate.__init__", "TransportCertificate.verify",
                  "quadric_transport"],
    "spinfactor": ["verify_projective_space"],
    "cli": ["main"],
}
MODULES = tuple(TARGETS)


def _size(args, kwargs, result):
    return len(result)


# Work counts taken from a call's arguments or result, stored on its span.
NOTES = {
    "quadric.enumerate_quadric": _size,
    "action.trace_zero_reflection_vectors": _size,
    "action.enumerate_group": _size,
    "action.stabilizer": _size,
    "action.orbit": _size,
    "action.enumerate_isometries": lambda args, kwargs, result: args[0].shape == "even",
    "spinfactor.verify_projective_space":
        lambda args, kwargs, result: args[0].q ** (2 * args[1] + 2),
}

# The library call each command wraps; the rest of cli.main is CLI overhead.
ENTRY_POINTS = {"quadric.count_report", "action.verify_homogeneous",
                "action.verify_similitude_orbit", "spinfactor.verify_projective_space",
                "transport.quadric_transport"}


def percentile(values, pct):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Tracer:
    """Records spans while installed; `job` tags the spans of the current job."""

    def __init__(self):
        self.spans = []   # [name, start_ns, end_ns, parent index or -1, job, note]
        self.job = None
        self._stack = []
        self._undo = []

    def install(self):
        package = [m for name, m in sys.modules.items()
                   if name == "quadrics" or name.startswith("quadrics.")]
        for module_name, attrs in TARGETS.items():
            module = sys.modules["quadrics." + module_name]
            for attr in attrs:
                name = f"{module_name}.{attr}"
                owner_name, _, method = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[method]
                    self._rebind(owner, method, original, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._rebind(holder, key, original, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def _rebind(self, holder, key, original, wrapper):
        setattr(holder, key, wrapper)
        self._undo.append((holder, key, original))

    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if note is not None:
                record[5] = note(args, kwargs, result)
            return result
        return span


def layer_metrics(spans):
    """Per-layer metrics of one traced pass."""
    durations = defaultdict(list)
    notes = defaultdict(list)
    child_ns = [defaultdict(int) for _ in spans]
    self_ns = dict.fromkeys(MODULES, 0)
    for name, start, end, parent, _, note in spans:
        durations[name].append(end - start)
        if note is not None:
            notes[name].append(note)
        if parent >= 0:
            child_ns[parent][name] += end - start
    for (name, start, end, *_), children in zip(spans, child_ns):
        self_ns[name.partition(".")[0]] += end - start - sum(children.values())

    def exclusive_ms(name, minus):
        return [(spans[i][2] - spans[i][1] - sum(child_ns[i][c] for c in minus)) / 1e6
                for i in range(len(spans)) if spans[i][0] == name]

    def total_s(name):
        return sum(durations[name]) / 1e9

    even = [end - start for name, start, end, _, _, is_even in spans
            if name == "action.enumerate_isometries" and is_even]
    group_elements = sum(notes["action.enumerate_group"])
    search = exclusive_ms("transport.quadric_transport", ["transport.TransportCertificate.__init__"])
    assembly = exclusive_ms("transport.TransportCertificate.__init__",
                            ["transport.TransportCertificate.verify"])
    verify = exclusive_ms("transport.TransportCertificate.verify", [])
    overhead = exclusive_ms("cli.main", ENTRY_POINTS)
    metrics = {
        "fields.constructions": len(durations["fields.Field.__init__"]),
        "fields.construct_ms": total_s("fields.Field.__init__") * 1e3,
        "quadric.enumerate_s": total_s("quadric.enumerate_quadric"),
        "quadric.points": sum(notes["quadric.enumerate_quadric"]),
        "action.group_s": total_s("action.enumerate_group"),
        "action.group_elements": group_elements,
        "action.stabilizer_s": total_s("action.stabilizer"),
        "action.even_group_s": sum(even) / 1e9,
        "action.orbit_s": total_s("action.orbit"),
        "action.orbit_points": sum(notes["action.orbit"]),
        "action.generators": sum(notes["action.trace_zero_reflection_vectors"]),
        "action.useful_ratio": (sum(notes["action.stabilizer"]) / group_elements
                                if group_elements else 0.0),
        "action.similitude_s": total_s("action.verify_similitude_orbit"),
        "transport.search_ms_p50": percentile(search, 50),
        "transport.search_ms_p99": percentile(search, 99),
        "transport.assembly_ms_p50": percentile(assembly, 50),
        "transport.verify_ms_p50": percentile(verify, 50),
        "spinfactor.verify_s": total_s("spinfactor.verify_projective_space"),
        "spinfactor.vectors": sum(notes["spinfactor.verify_projective_space"]),
        "cli.overhead_ms_p50": percentile(overhead, 50),
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = self_ns[module] / 1e9
    return metrics
