"""Spans and counters recorded from outside the package.

`install` wraps each traced callable at every module where a caller looks
it up: a function imported with `from .solver import solve_forward` is a
separate binding in the importing module, so patching only the defining
module would miss those calls.  Every `polyscat` module attribute that is
the same object as the target gets its own wrapper, named after that
module (`stability.solve_forward`, `solver.solve_forward`).  Methods are
patched on their class, which every caller reaches.

Spans (name, start, end, parent, op id) and counters live in memory and
are reduced to the per-layer metrics when the run ends.  A wrapper whose
tracer is disabled calls straight through.
"""

import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (defining module, attribute) of traced functions, and what to count from
# a call besides its span
FUNCTIONS = [
    ("solver", "solve_forward"), ("solver", "far_field_from_volume"),
    ("solver", "scattered_at_points"), ("solver", "near_field_on_annulus"),
    ("solver", "gmres"),
    ("fields", "h2_surrogate"),
    ("geom", "hausdorff_distance"), ("geom", "admissibility_report"),
    ("geom", "check_q_angle"),
    ("cgo", "solve_faddeev"), ("cgo", "contraction_estimate"),
    ("cgo", "build_cgo"),
    ("rellich", "calibrate"), ("rellich", "decompose_far_field"),
    ("rellich", "quantitative_rellich"),
    ("specfun", "certify_hankel_bounds"),
    ("stability", "run_support_stability_experiment"),
    ("stability", "run_corner_lower_bound_experiment"),
    ("stability", "check_orthogonality"),
    ("cli", "cmd_calibrate"), ("cli", "cmd_solve"), ("cli", "cmd_verify"),
    ("cli", "cmd_stability"), ("cli", "write_text"),
]
# called tens of thousands of times per certificate: counted, no span
COUNTED = [("specfun", "hankel_h1_log_abs")]
METHODS = [
    ("solver", "GreenConvolution", "__init__"),
    ("solver", "GreenConvolution", "apply"),
    ("cgo", "FaddeevGreen", "__init__"),
    ("cgo", "FaddeevGreen", "apply"),
    ("fields", "ContrastField", "evaluate"),
]


def _matvec_bytes(conv, x):
    """Bytes one GreenConvolution.apply moves, computed from its buffer
    sizes (complex128): zero-fill and copy-in of the padded buffer, d
    read+write passes each for the forward and inverse FFT, the product
    with the kernel symbol (two reads, one write), and the input read.
    A count from array sizes; cache misses are not included."""
    P = int(np.prod(conv._pad))
    N = int(np.asarray(x).size)
    d = len(conv._pad)
    return 16 * ((4 * d + 4) * P + 2 * N)


def _on_result(tracer, name, args, kwargs, result):
    if name == "solve_forward":
        tracer.add("gmres_iters", result.iterations)
    elif name == "contraction_estimate":
        tracer.peak("contraction_factor", result)
    elif name == "calibrate":
        trials = kwargs.get("trials", args[3] if len(args) > 3 else 100)
        tracer.add("cal_trials", trials)
        tracer.add("cal_useful", result.trials)
    elif name == "scattered_at_points":
        points = kwargs.get("points", args[1] if len(args) > 1 else None)
        tracer.add("near_field_pts", len(np.atleast_2d(points)))
    elif name == "write_text":
        text = kwargs.get("text", args[1] if len(args) > 1 else "")
        tracer.add("bytes_written", len(text.encode()))
    elif name == "GreenConvolution.apply":
        tracer.per_call("matvec_bytes", _matvec_bytes(args[0], args[1]))


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, op]
        self.counters = defaultdict(float)   # (op, name) -> value
        self.calls = defaultdict(list)       # (op, name) -> per-call values
        self._stack = []
        self.op = None
        self.enabled = False

    def add(self, name, value=1.0):
        if self.op is not None:
            self.counters[(self.op, name)] += value

    def peak(self, name, value):
        if self.op is not None:
            key = (self.op, name)
            self.counters[key] = max(self.counters.get(key, 0.0), float(value))

    def per_call(self, name, value):
        if self.op is not None:
            self.calls[(self.op, name)].append(value)

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, span_name, fn, result_key=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.begin(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if result_key is not None:
                _on_result(tracer, result_key, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counting(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.add(name)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


def _sites(original, attr):
    """(short module name, module) of every polyscat module binding attr to
    the original object."""
    for name, mod in list(sys.modules.items()):
        if (name == "polyscat" or name.startswith("polyscat.")) and \
                getattr(mod, attr, None) is original:
            yield name.rsplit(".", 1)[-1], mod


def install(tracer):
    """Wrap every traced callable at every site it is looked up from."""
    for owner, attr in FUNCTIONS:
        original = getattr(sys.modules[f"polyscat.{owner}"], attr)
        for site, mod in list(_sites(original, attr)):
            setattr(mod, attr, tracer.wrap(f"{site}.{attr}", original, attr))
    for owner, attr in COUNTED:
        original = getattr(sys.modules[f"polyscat.{owner}"], attr)
        for site, mod in list(_sites(original, attr)):
            setattr(mod, attr, tracer.counting(attr, original))
    for owner, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"polyscat.{owner}"], cls_name)
        name = f"{cls_name}.{meth}"
        setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), name))


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics
# ---------------------------------------------------------------------------

class OpView:
    """The spans and counters of one traced op."""

    def __init__(self, tracer, op, spans, children):
        self.tracer = tracer
        self.op = op
        self.spans = spans          # indices of this op's spans
        self.children = children    # span index -> child span indices

    def _dur(self, i):
        s = self.tracer.spans[i]
        return s[2] - s[1]

    def _match(self, i, attr, site):
        name = self.tracer.spans[i][0]
        site_name, _, rest = name.partition(".")
        if name == attr:   # method spans are named Class.method
            return True
        return rest == attr and (site is None or site_name == site)

    def durations(self, attr, site=None):
        return [self._dur(i) for i in self.spans if self._match(i, attr, site)]

    def total(self, attr, site=None):
        return float(sum(self.durations(attr, site)))

    def calls(self, attr, site=None):
        return len(self.durations(attr, site))

    def self_time(self, attr, site=None):
        out = 0.0
        for i in self.spans:
            if self._match(i, attr, site):
                out += self._dur(i) - sum(self._dur(c) for c in self.children[i])
        return out

    def counter(self, name):
        return float(self.tracer.counters.get((self.op, name), 0.0))


def _ratio(num, den):
    return num / den if den > 0 else 0.0


# name -> (unit, per-op function of an OpView); per-call medians are
# handled separately in `layer_metrics`
PER_OP = {
    "solver.kernel_builds": ("count", lambda v: v.calls("GreenConvolution.__init__")),
    "solver.kernel_build_s": ("s", lambda v: v.total("GreenConvolution.__init__")),
    "solver.matvecs": ("count", lambda v: v.calls("GreenConvolution.apply")),
    "solver.gmres_iters": ("count", lambda v: v.counter("gmres_iters")),
    "solver.gmres_self_s": ("s", lambda v: v.self_time("gmres", "solver")),
    "solver.far_field_s": ("s", lambda v: v.total("far_field_from_volume")),
    "solver.near_field_s": ("s", lambda v: v.total("scattered_at_points")),
    "solver.near_field_pts_per_s": ("1/s", lambda v: _ratio(
        v.counter("near_field_pts"), v.total("scattered_at_points"))),
    "solver.solve_s": ("s", lambda v: v.total("solve_forward")),
    "fields.contrast_eval_s": ("s", lambda v: v.total("ContrastField.evaluate")),
    "fields.h2_surrogate_s": ("s", lambda v: v.total("h2_surrogate")),
    "geom.hausdorff_s": ("s", lambda v: v.total("hausdorff_distance")),
    "geom.admissibility_s": ("s", lambda v: v.total("admissibility_report")),
    "geom.q_angle_s": ("s", lambda v: v.total("check_q_angle")),
    "cgo.green_build_s": ("s", lambda v: v.total("FaddeevGreen.__init__")),
    "cgo.green_applies": ("count", lambda v: v.calls("FaddeevGreen.apply")),
    "cgo.remainder_solve_s": ("s", lambda v: v.total("solve_faddeev")),
    "cgo.contraction_factor": ("ratio", lambda v: v.counter("contraction_factor")),
    "rellich.calibrate_s": ("s", lambda v: v.total("calibrate")),
    "rellich.calibration_useful_ratio": ("ratio", lambda v: _ratio(
        v.counter("cal_useful"), v.counter("cal_trials"))),
    "rellich.decompose_s": ("s", lambda v: v.total("decompose_far_field")),
    "rellich.pipeline_s": ("s", lambda v: v.total("quantitative_rellich")),
    "specfun.certificate_s": ("s", lambda v: v.total("certify_hankel_bounds")),
    "specfun.hankel_log_evals": ("count", lambda v: v.counter("hankel_h1_log_abs")),
    "stability.solves": ("count", lambda v: v.calls("solve_forward", "stability")),
    "stability.support_experiment_s": ("s", lambda v: v.total(
        "run_support_stability_experiment")),
    "stability.corner_experiment_s": ("s", lambda v: v.total(
        "run_corner_lower_bound_experiment")),
    "stability.orthogonality_s": ("s", lambda v: v.total("check_orthogonality")),
    "cli.calibrate_s": ("s", lambda v: v.total("cmd_calibrate")),
    "cli.solve_s": ("s", lambda v: v.total("cmd_solve")),
    "cli.verify_s": ("s", lambda v: v.total("cmd_verify")),
    "cli.stability_s": ("s", lambda v: v.total("cmd_stability")),
    "cli.bytes_written": ("B", lambda v: v.counter("bytes_written")),
}
PER_CALL = {
    "solver.matvec_s": ("s", "GreenConvolution.apply"),
    "cgo.green_apply_s": ("s", "FaddeevGreen.apply"),
}
TRACE_METRICS = {
    "solver.matvec_bytes": "computed_B",
    "trace.span_coverage": "ratio",
    "trace.traced_p50_s": "s",
    "trace.untraced_p50_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.ops": "count",
}


def layer_metrics(tracer, op_spans, timed_ops):
    """Per-layer metrics: the median over traced ops of each per-op figure,
    per-call medians over every call, span coverage of the op wall time and
    the tracing overhead.

    op_spans maps op id -> index of that op's root span; timed_ops lists
    (schedule slot, traced, seconds) of every completed op.  The overhead
    is the median over slots run both ways of traced / untraced time - 1,
    so that it compares ops of the same kind; in a run too short for any
    slot to run both ways, it compares the two medians."""
    children = defaultdict(list)
    by_op = defaultdict(list)
    roots = set(op_spans.values())
    for i, (_, _, _, parent, op) in enumerate(tracer.spans):
        if parent >= 0:
            children[parent].append(i)
        if op is not None and i not in roots:
            by_op[op].append(i)
    views = [OpView(tracer, op, by_op[op], children) for op in op_spans]

    def med(values):
        return float(statistics.median(values)) if values else 0.0

    out = {}
    for name, (unit, fn) in PER_OP.items():
        out[name] = (med([fn(v) for v in views]), unit)
    for name, (unit, attr) in PER_CALL.items():
        out[name] = (med([d for v in views for d in v.durations(attr)]), unit)
    coverage = []
    for op, root in op_spans.items():
        s = tracer.spans[root]
        covered = sum(tracer.spans[c][2] - tracer.spans[c][1] for c in children[root])
        coverage.append(covered / (s[2] - s[1]))
    by_slot = defaultdict(lambda: ([], []))
    for slot, traced_op, dt in timed_ops:
        by_slot[slot][0 if traced_op else 1].append(dt)
    ratios = [med(t) / med(u) for t, u in by_slot.values() if t and u]
    traced = med([dt for _, t, dt in timed_ops if t])
    untraced = med([dt for _, t, dt in timed_ops if not t])
    if not ratios and untraced:
        ratios = [traced / untraced]
    values = {
        "solver.matvec_bytes": med([b for op in op_spans for b in
                                    tracer.calls.get((op, "matvec_bytes"), [])]),
        "trace.span_coverage": med(coverage),
        "trace.traced_p50_s": traced,
        "trace.untraced_p50_s": untraced,
        "trace.overhead_frac": med(ratios) - 1.0 if ratios else 0.0,
        "trace.ops": float(len(op_spans)),
    }
    for name, unit in TRACE_METRICS.items():
        out[name] = (values[name], unit)
    return out
