"""Span tracing of the program from outside its source.

The tracer replaces a public function of ``twosphere`` with a timing wrapper
under the name the calling module binds: ``twosphere.calibrate.dlt_estimate``
is the DLT as the calibration loop calls it. Spans (name, start, end, parent
span, op id, with wall and process CPU time) and counts are kept in memory
and written out when the run ends. A span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import threading
import time

# ---------------------------------------------------------------------------
# count hooks: (tracer, args, kwargs) before the call, (..., result) after it
# ---------------------------------------------------------------------------


def stack_mb(bundle) -> float:
    """Computed nbytes of the fringe stacks a bundle holds, in MB; an op
    reports the largest bundle it renders, loads or decodes."""
    return sum(img.nbytes for stack in bundle.stacks.values() for img in stack) / 1e6


def _after_bundle(tr, args, kwargs, result):
    tr.peak("simulate.stack_mb", stack_mb(result))


# the workloads write and read float32 bundles, the CLI's default format
def _after_write_f32(tr, args, kwargs, result):
    tr.add("imageio.bytes_written", os.path.getsize(args[0]) + os.path.getsize(f"{args[0]}.json"))


def _after_read_f32(tr, args, kwargs, result):
    tr.add("imageio.bytes_read", os.path.getsize(args[0]) + os.path.getsize(f"{args[0]}.json"))


def _after_decode_wrapped(tr, args, kwargs, result):
    tr.add("phase.decoded_px", result[0].size)


def _before_decode_bundle(tr, args, kwargs):
    tr.add("pipeline.decode_bundle_calls", 1)
    tr.peak("simulate.stack_mb", stack_mb(args[0]))


def _after_sample(tr, args, kwargs, result):
    tr.add("pipeline.sampled_px", len(result))


def _after_assemble(tr, args, kwargs, result):
    tr.add("pipeline.correspondences", sum(len(obs) for obs in result))


def _before_center(tr, args, kwargs):
    tr.add("sphere.center_calls", 1)
    if args and args[0] is tr.first_conic:
        tr.add("calibrate.candidates", 1)


def _before_lift(tr, args, kwargs):
    tr.add("sphere.lifted_px", len(args[0]))


def _before_dlt(tr, args, kwargs):
    tr.add("projector.dlt_calls", 1)
    tr.add("projector.dlt_rows", 2 * len(args[1]))  # rows of the 2n x 12 design matrix


def _before_calibrate(tr, args, kwargs):
    tr.first_conic = args[0].obs1.conic


def _after_calibrate(tr, args, kwargs, result):
    tr.add("calibrate.lm_iters", result.iterations)


def _after_cloud(tr, args, kwargs, result):
    tr.add("reconstruct.points", result[2]["points"])


def _after_ply(tr, args, kwargs, result):
    tr.add("reconstruct.ply_bytes", os.path.getsize(args[0]))


# (binding "module:attribute", layer metric fed by the span's self time or
#  None for a count-only wrapper, before hook, after hook)
BINDINGS = [
    ("twosphere.cli:render_scene", "simulate.render_s", None, _after_bundle),
    ("twosphere.simulate:SceneBundle.save", "simulate.save_s", None, None),
    ("twosphere.simulate:SceneBundle.load", "simulate.load_s", None, _after_bundle),
    ("twosphere.imageio:write_float32", None, None, _after_write_f32),
    ("twosphere.imageio:read_float32", None, None, _after_read_f32),
    ("twosphere.phase:decode_wrapped", "phase.decode_wrapped_s", None, _after_decode_wrapped),
    ("twosphere.phase:unwrap_ladder", "phase.unwrap_s", None, None),
    ("twosphere.pipeline:decode_bundle", "pipeline.decode_bundle_s", _before_decode_bundle, None),
    ("twosphere.pipeline:sample_interior_pixels", None, None, _after_sample),
    ("twosphere.pipeline:assemble_observations", "pipeline.assemble_self_s", None,
     _after_assemble),
    ("twosphere.pipeline:fit_conic", "geometry.fit_conic_s", None, None),
    ("twosphere.calibrate:constraint_pair", "geometry.constraint_pair_s", None, None),
    ("twosphere.calibrate:sphere_center_from_conic", "sphere.center_s", _before_center, None),
    ("twosphere.calibrate:lift_pixel_to_sphere", "sphere.lift_s", _before_lift, None),
    ("twosphere.calibrate:dlt_estimate", "projector.dlt_s", _before_dlt, None),
    ("twosphere.calibrate:project_points", "projector.project_s", None, None),
    ("twosphere.calibrate:decompose", "projector.decompose_s", None, None),
    ("twosphere.pipeline:calibrate", "calibrate.self_s", _before_calibrate, _after_calibrate),
    ("twosphere.cli:reconstruct_cloud", "reconstruct.cloud_self_s", None, _after_cloud),
    ("twosphere.cli:write_ply", "reconstruct.ply_s", None, _after_ply),
    ("twosphere.cli:cmd_simulate", "cli.simulate_s", None, None),
    ("twosphere.cli:cmd_calibrate", "cli.calibrate_s", None, None),
    ("twosphere.cli:cmd_reconstruct", "cli.reconstruct_s", None, None),
]

OP_SPAN = "op"
CALIBRATE_SPAN = "twosphere.pipeline.calibrate"

# the per-layer metrics a traced run reports, with their units
LAYER_METRICS = {
    "simulate.render_s": "s",
    "simulate.stack_mb": "MB",
    "simulate.save_s": "s",
    "simulate.load_s": "s",
    "imageio.bytes_written": "bytes",
    "imageio.bytes_read": "bytes",
    "phase.decode_wrapped_s": "s",
    "phase.decoded_px": "px",
    "phase.unwrap_s": "s",
    "pipeline.decode_bundle_s": "s",
    "pipeline.decode_bundle_calls": "count",
    "pipeline.assemble_self_s": "s",
    "pipeline.correspondences": "count",
    "pipeline.valid_frac": "ratio",
    "geometry.fit_conic_s": "s",
    "geometry.constraint_pair_s": "s",
    "sphere.center_s": "s",
    "sphere.center_calls": "count",
    "sphere.lift_s": "s",
    "sphere.lifted_px": "px",
    "projector.dlt_s": "s",
    "projector.dlt_calls": "count",
    "projector.dlt_rows": "count",
    "projector.project_s": "s",
    "projector.decompose_s": "s",
    "calibrate.self_s": "s",
    "calibrate.wall_s": "s",
    "calibrate.cpu_per_wall": "ratio",
    "calibrate.candidates": "count",
    "calibrate.feasible_frac": "ratio",
    "calibrate.us_per_candidate": "us",
    "calibrate.lm_iters": "count",
    "reconstruct.cloud_self_s": "s",
    "reconstruct.points": "count",
    "reconstruct.ply_s": "s",
    "reconstruct.ply_bytes": "bytes",
    "cli.simulate_s": "s",
    "cli.calibrate_s": "s",
    "cli.reconstruct_s": "s",
}


class Tracer:
    """In-memory spans and counts; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, op, parent, t0, t1, cpu0, cpu1]
        self.counts: dict = {}  # op id -> {count name: value}
        self.op = None
        self.root = None  # index of the current op's span
        self.first_conic = None
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()  # counts may come from calibration worker threads
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value) -> None:
        with self._lock:
            per_op = self.counts.setdefault(self.op, {})
            per_op[key] = per_op.get(key, 0) + value

    def peak(self, key: str, value) -> None:
        with self._lock:
            per_op = self.counts.setdefault(self.op, {})
            per_op[key] = max(per_op.get(key, value), value)

    def begin(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        rec = [name, self.op, parent, time.perf_counter(), None, time.process_time(), None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        rec[6] = time.process_time()
        self._stack().pop()

    def start_op(self, op_id) -> None:
        self.op = op_id
        self.root = None
        self._op_rec = self.begin(OP_SPAN)
        self.root = len(self.spans) - 1

    def finish_op(self) -> None:
        self.end(self._op_rec)
        self.root = None

    # -- patching ------------------------------------------------------

    def _wrap(self, name, fn, timed, before, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            rec = tracer.begin(name) if timed else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if rec is not None:
                    tracer.end(rec)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        self.missing = []
        for binding, metric, before, after in BINDINGS:
            module_name, attr = binding.split(":")
            owner, leaf = importlib.import_module(module_name), attr
            if "." in attr:
                cls_name, leaf = attr.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__.get(leaf)  # the classmethod itself, not a bound method
            else:
                raw = getattr(owner, leaf, None)
            if raw is None:
                self.missing.append(binding)
                continue
            name = f"{module_name}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, metric is not None, before, after))
            else:
                new = self._wrap(name, raw, metric is not None, before, after)
            self._saved.append((owner, leaf, raw))
            setattr(owner, leaf, new)

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._saved):
            setattr(owner, leaf, raw)
        self._saved.clear()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

SPAN_METRIC = {b.replace(":", "."): m for b, m, _, _ in BINDINGS if m}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its children's (clipped) intervals."""
    children: dict[int, list] = {}
    for rec in spans:
        if rec[2] is not None:
            children.setdefault(rec[2], []).append(rec)
    out = []
    for i, rec in enumerate(spans):
        t0, t1 = rec[3], rec[4]
        kids = [(max(c[3], t0), min(c[4], t1)) for c in children.get(i, ()) if c[4] is not None]
        out.append((t1 - t0) - _covered([k for k in kids if k[1] > k[0]]))
    return out


def per_op_layers(tracer: Tracer) -> dict:
    """op id -> {per-layer metric: value} (self times in s, counts, ratios)."""
    selfs = self_times(tracer.spans)
    ops: dict = {}
    for rec, self_s in zip(tracer.spans, selfs):
        vals = ops.setdefault(rec[1], {})
        if rec[0] == OP_SPAN:
            vals["op.wall_s"] = rec[4] - rec[3]
            vals["op.self_s"] = self_s
            continue
        key = SPAN_METRIC[rec[0]]
        vals[key] = vals.get(key, 0.0) + self_s
        if rec[0] == CALIBRATE_SPAN:
            vals["calibrate.wall_s"] = vals.get("calibrate.wall_s", 0.0) + rec[4] - rec[3]
            vals["calibrate.cpu_s"] = vals.get("calibrate.cpu_s", 0.0) + rec[6] - rec[5]
    for op_id, vals in ops.items():
        vals.update(tracer.counts.get(op_id, {}))
        wall = vals.get("calibrate.wall_s", 0.0)
        candidates = vals.get("calibrate.candidates", 0)
        sampled = vals.pop("pipeline.sampled_px", 0)
        vals["calibrate.cpu_per_wall"] = vals.pop("calibrate.cpu_s", 0.0) / wall if wall else 0.0
        vals["calibrate.feasible_frac"] = (
            vals.get("projector.dlt_calls", 0) / candidates if candidates else 0.0
        )
        vals["calibrate.us_per_candidate"] = 1e6 * wall / candidates if candidates else 0.0
        vals["pipeline.valid_frac"] = (
            vals.get("pipeline.correspondences", 0) / sampled if sampled else 0.0
        )
    return ops


def layer_summary(tracer: Tracer) -> tuple[dict, dict]:
    """Median over traced ops of every per-layer metric (0 where a layer did not
    run), and each timed layer's median share of op wall time."""
    ops = list(per_op_layers(tracer).values())
    metrics = {
        name: float(statistics.median(op.get(name, 0.0) for op in ops)) if ops else 0.0
        for name in LAYER_METRICS
    }
    shares = {}
    for name in sorted({*SPAN_METRIC.values(), "op.self_s"}):
        shares[name] = (
            float(statistics.median(op.get(name, 0.0) / op["op.wall_s"] for op in ops))
            if ops else 0.0
        )
    return metrics, shares


def span_dump(tracer: Tracer) -> dict:
    """The recorded spans and counts, in a JSON-ready form."""
    return {
        "fields": ["name", "op", "parent", "start_s", "end_s", "cpu_start_s", "cpu_end_s"],
        "spans": tracer.spans,
        "counts": {str(k): v for k, v in tracer.counts.items()},
        "unbound": tracer.missing,
    }
