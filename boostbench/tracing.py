"""Spans and counters recorded around the public functions of each layer.

A traced run wraps functions at their module attributes, including the
names that other boostdet modules imported (``boostdet.cli.scan``,
``boostdet.learner.eval_batch``, ...), and puts every original back when
it ends. Spans (name, start, end, parent, operation) and counts are kept
in memory and written out once the run is over. An untraced run creates
no Tracer and so wraps nothing.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager

FAMILIES = ("haar", "cp", "symhaar", "nconnex")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_windows(tracer, args, kwargs, result):
    tracer.add("features.eval_batch.windows", len(_arg(args, kwargs, 1, "stack")))


def level_windows(frame_w: int, frame_h: int, levels) -> int:
    """Window origins visited over (window_w, window_h, stride) levels."""
    return sum(len(range(0, frame_w - w + 1, s)) * len(range(0, frame_h - h + 1, s))
               for w, h, s in levels)


def _count_scan(tracer, args, kwargs, result):
    from boostdet.detector import ScanConfig

    model = _arg(args, kwargs, 0, "model")
    frame = _arg(args, kwargs, 1, "frame")
    cfg = _arg(args, kwargs, 2, "cfg") or ScanConfig()
    # the original pyramid_levels, so this count adds no span of its own
    levels = tracer.originals[("boostdet.detector", "pyramid_levels")](
        frame.width, frame.height, cfg)
    windows = level_windows(frame.width, frame.height, levels)
    tracer.add("detector.windows", windows)
    tracer.add("detector.stage_evals", windows * len(model.stages))
    tracer.add("detector.scan.detections", len(result))


def _count_nms(tracer, args, kwargs, result):
    tracer.add("detector.nms.in", len(_arg(args, kwargs, 0, "detections")))
    tracer.add("detector.nms.out", len(result))


def _count_pgm_bytes(tracer, args, kwargs, result):
    tracer.add("pgm.load_pgm.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_rows(tracer, args, kwargs, result):
    tracer.add("cli.parse_detections_csv.rows", sum(len(v) for v in result.values()))


def _count_points(tracer, args, kwargs, result):
    tracer.add("evalkit.points", len(result))


# (module, attribute, span name, counter). Every module that imported a
# layer function by name is listed, so each call site is seen.
TARGETS = (
    ("boostdet.features", "eval_batch", "features.eval_batch", _count_windows),
    ("boostdet.learner", "eval_batch", "features.eval_batch", _count_windows),
    ("boostdet.boosting", "eval_batch", "features.eval_batch", _count_windows),
    ("boostdet.learner", "random_feature", "learner.random_feature", None),
    ("boostdet.learner", "mutate", "learner.mutate", None),
    ("boostdet.learner", "search_best", "learner.search_best", None),
    ("boostdet.pipeline", "search_best", "learner.search_best", None),
    ("boostdet.pipeline", "train_detector", "pipeline.train_detector", None),
    ("boostdet.boosting", "train", "boosting.train", None),
    ("boostdet.pipeline", "train", "boosting.train", None),
    ("boostdet.boosting", "update_weights", "boosting.update_weights", None),
    ("boostdet.imaging", "build_integral", "imaging.build_integral", None),
    ("boostdet.detector", "build_integral", "imaging.build_integral", None),
    ("boostdet.boosting", "build_integral", "imaging.build_integral", None),
    ("boostdet.detector", "pyramid_levels", "detector.pyramid_levels", None),
    ("boostdet.detector", "scan", "detector.scan", _count_scan),
    ("boostdet.cli", "scan", "detector.scan", _count_scan),
    ("boostdet.detector", "nms", "detector.nms", _count_nms),
    ("boostdet.cli", "nms", "detector.nms", _count_nms),
    ("boostdet.evalkit", "roc_curve", "evalkit.roc_curve", _count_points),
    ("boostdet.cli", "roc_curve", "evalkit.roc_curve", _count_points),
    ("boostdet.evalkit", "pr_curve", "evalkit.pr_curve", None),
    ("boostdet.cli", "pr_curve", "evalkit.pr_curve", None),
    ("boostdet.pgm", "load_pgm", "pgm.load_pgm", _count_pgm_bytes),
    ("boostdet.cli", "load_pgm", "pgm.load_pgm", _count_pgm_bytes),
    ("boostdet.modelio", "load_model", "modelio.load_model", None),
    ("boostdet.cli", "load_model", "modelio.load_model", None),
    ("boostdet.dataset", "parse_annotations", "dataset.parse_annotations", None),
    ("boostdet.cli", "parse_annotations", "dataset.parse_annotations", None),
    ("boostdet.cli", "parse_detections_csv", "cli.parse_detections_csv", _count_rows),
)


class Tracer:
    """Spans and per-family counts of one traced phase, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.span_ops: list[int] = []
        self.ops: list[tuple[str, int, str]] = []  # (workload, op id, family)
        self.counts: dict[tuple[str, str], float] = {}
        self.originals: dict[tuple[str, str], object] = {}
        self.probe_ns: dict[int, int] = {}  # innermost open span -> probe time in it
        self.probe_calls = 0
        self._stack: list[int] = []
        self._op = -1

    # -- recording ---------------------------------------------------------

    def begin_op(self, workload: str, op_id: int, family: str = "") -> None:
        """Spans and counts from here on belong to this operation."""
        self.ops.append((workload, op_id, family))
        self._op = len(self.ops) - 1

    @property
    def family(self) -> str:
        return self.ops[self._op][2] if self._op >= 0 else ""

    def add(self, metric: str, value: float) -> None:
        key = (metric, self.family)
        self.counts[key] = self.counts.get(key, 0) + value

    def generation(self, t, gen, best, mean) -> None:
        """``progress`` callback for train_detector: one tick per population."""
        self.add("learner.generations", 1)

    def probe(self, elapsed_ns: int) -> None:
        """A host-speed probe ran inside the innermost open span.

        Called from a signal handler between two bytecodes, so it only
        reads the span stack.
        """
        i = self._stack[-1] if self._stack else -1
        self.probe_ns[i] = self.probe_ns.get(i, 0) + elapsed_ns
        self.probe_calls += 1

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.span_ops.append(self._op)
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        patched = []
        try:
            for module_name, attr, name, counter in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self.originals[(module_name, attr)] = original
                patched.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    # -- summaries ---------------------------------------------------------

    def layer_totals(self) -> dict[tuple[str, str], list[int]]:
        """(span name, family) -> [calls, total ns, self ns].

        Self time is a span's duration minus the durations of its direct
        children and the probe time inside it; one thread runs everything,
        so children never overlap. Probe time is the row ("bench.probe", "").
        """
        child_ns = [0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child_ns[p] += self.ends[i] - self.starts[i]
        totals: dict[tuple[str, str], list[int]] = {}
        for i, name in enumerate(self.names):
            op = self.span_ops[i]
            family = self.ops[op][2] if op >= 0 else ""
            row = totals.setdefault((name, family), [0, 0, 0])
            duration = self.ends[i] - self.starts[i]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child_ns[i] - self.probe_ns.get(i, 0)
        probe_total = sum(self.probe_ns.values())
        if self.probe_calls:
            totals[("bench.probe", "")] = [self.probe_calls, probe_total, probe_total]
        return totals

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,parent,name,workload,op,family,start_ns,end_ns\n")
            for i, name in enumerate(self.names):
                op = self.span_ops[i]
                workload, op_id, family = self.ops[op] if op >= 0 else ("", -1, "")
                fh.write(f"{i},{self.parents[i]},{name},{workload},{op_id},{family},"
                         f"{self.starts[i]},{self.ends[i]}\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (metric, unit, better, source, field). source is a span name (field
# "calls", "s" or "self_s") or a counter name (field "count"); ratios are
# computed in layer_metrics. Per-family metrics take a ".<family>" suffix.
PER_FAMILY = (
    ("features.eval_batch.calls", "count", "lower", "features.eval_batch", "calls"),
    ("features.eval_batch.s", "s", "lower", "features.eval_batch", "s"),
    ("features.eval_batch.windows", "count", "lower", "features.eval_batch.windows", "count"),
    ("learner.random_feature.calls", "count", "lower", "learner.random_feature", "calls"),
    ("learner.random_feature.s", "s", "lower", "learner.random_feature", "s"),
    ("learner.mutate.calls", "count", "lower", "learner.mutate", "calls"),
    ("learner.mutate.s", "s", "lower", "learner.mutate", "s"),
    ("learner.generations", "count", "lower", "learner.generations", "count"),
    ("learner.search_best.self_s", "s", "lower", "learner.search_best", "self_s"),
    ("boosting.train.self_s", "s", "lower", "boosting.train", "self_s"),
    ("boosting.update_weights.calls", "count", "lower", "boosting.update_weights", "calls"),
    ("boosting.update_weights.s", "s", "lower", "boosting.update_weights", "s"),
    ("detector.stage_evals", "count", "lower", "detector.stage_evals", "count"),
    ("detector.scan.s", "s", "lower", "detector.scan", "s"),
    ("detector.scan.detections", "count", "lower", "detector.scan.detections", "count"),
    ("detector.nms.s", "s", "lower", "detector.nms", "s"),
    ("detector.nms.in", "count", "lower", "detector.nms.in", "count"),
    ("detector.nms.out", "count", "lower", "detector.nms.out", "count"),
    ("detector.nms.keep_ratio", "ratio", "higher", "", "ratio"),
)

PER_RUN = (
    ("imaging.build_integral.calls", "count", "lower", "imaging.build_integral", "calls"),
    ("imaging.build_integral.s", "s", "lower", "imaging.build_integral", "s"),
    ("detector.windows", "count", "lower", "detector.windows", "count"),
    ("pgm.load_pgm.calls", "count", "lower", "pgm.load_pgm", "calls"),
    ("pgm.load_pgm.s", "s", "lower", "pgm.load_pgm", "s"),
    ("pgm.load_pgm.bytes", "bytes", "lower", "pgm.load_pgm.bytes", "count"),
    ("modelio.load_model.s", "s", "lower", "modelio.load_model", "s"),
    ("cli.detect.self_s", "s", "lower", "cli.detect", "self_s"),
    ("cli.parse_detections_csv.s", "s", "lower", "cli.parse_detections_csv", "s"),
    ("cli.parse_detections_csv.rows", "count", "lower", "cli.parse_detections_csv.rows", "count"),
    ("dataset.parse_annotations.s", "s", "lower", "dataset.parse_annotations", "s"),
    ("evalkit.roc_curve.s", "s", "lower", "evalkit.roc_curve", "s"),
    ("evalkit.pr_curve.s", "s", "lower", "evalkit.pr_curve", "s"),
    ("evalkit.points", "count", "lower", "evalkit.points", "count"),
    ("cli.eval.self_s", "s", "lower", "cli.eval", "self_s"),
)

# reported by the traced run itself, not by a layer
OVERHEAD = ("trace.overhead", "%", "lower")


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{name}.{family}", unit, better)
             for name, unit, better, _, _ in PER_FAMILY for family in FAMILIES]
    specs += [(name, unit, better) for name, unit, better, _, _ in PER_RUN]
    specs.append(OVERHEAD)
    return specs


def layer_metrics(tracer: Tracer, passes: int, time_scale: float) -> dict[str, float]:
    """Every per-layer metric except the overhead, averaged per pass.

    Span seconds are multiplied by ``time_scale``, the host-speed factor
    of the traced phase.
    """
    totals = tracer.layer_totals()

    def value(source: str, field: str, family: str | None) -> float:
        families = FAMILIES + ("",) if family is None else (family,)
        if field == "count":
            return sum(tracer.counts.get((source, f), 0) for f in families)
        index = {"calls": 0, "s": 1, "self_s": 2}[field]
        scale = 1 if field == "calls" else 1e-9 * time_scale
        return sum(totals.get((source, f), [0, 0, 0])[index] for f in families) * scale

    out: dict[str, float] = {}
    for name, _, _, source, field in PER_FAMILY:
        for family in FAMILIES:
            if field == "ratio":
                kept = value("detector.nms.out", "count", family)
                seen = value("detector.nms.in", "count", family)
                out[f"{name}.{family}"] = kept / seen if seen else 0.0
            else:
                out[f"{name}.{family}"] = value(source, field, family) / passes
    for name, _, _, source, field in PER_RUN:
        out[name] = value(source, field, None) / passes
    return out


def layer_table(tracer: Tracer, wall_s: float) -> list[str]:
    """Self time, share of the traced wall time, calls and ratios per span name."""
    totals: dict[str, list[int]] = {}
    for (name, _), row in tracer.layer_totals().items():
        agg = totals.setdefault(name, [0, 0, 0])
        for k in range(3):
            agg[k] += row[k]
    counts: dict[str, float] = {}
    for (metric, _), v in tracer.counts.items():
        counts[metric] = counts.get(metric, 0) + v

    lines = [f"{'layer':34s} {'self_s':>10s} {'share':>7s} {'calls':>9s} {'total_s':>10s}  ratio"]
    for name in sorted(totals, key=lambda n: -totals[n][2]):
        calls, total_ns, self_ns = totals[name]
        ratio = ""
        if name == "features.eval_batch" and total_ns:
            windows = counts.get("features.eval_batch.windows", 0)
            ratio = (f"{windows / (total_ns * 1e-9):.4g} windows/s "
                     f"({windows:.0f} windows / {total_ns * 1e-9:.4f} s)")
        elif name == "detector.nms" and counts.get("detector.nms.in"):
            kept, seen = counts["detector.nms.out"], counts["detector.nms.in"]
            ratio = f"keep_ratio {kept / seen:.4f} ({kept:.0f} out / {seen:.0f} in)"
        share = self_ns * 1e-9 / wall_s if wall_s else 0.0
        lines.append(f"{name:34s} {self_ns * 1e-9:10.4f} {share:7.2%} {calls:9d} "
                     f"{total_ns * 1e-9:10.4f}  {ratio}")
    return lines
