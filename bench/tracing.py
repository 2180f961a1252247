"""Span tracing of triboost's layers, installed from outside the package.

``Tracer.install`` rebinds the public entry points of each module (and the
held-out refit, which has no public name) to wrappers that record a span:
name, start, end, parent span and job id.  Every reference to a wrapped
function in the loaded ``triboost`` modules is replaced, so calls between
modules (``pipeline`` calling ``gbdt.fit``, ``cli`` calling
``run_pipeline``) are seen too.  ``close`` puts the originals back.

Spans are recorded only while a job or a set-up step is active and only on
the thread that created the tracer; the split search's worker threads run
no wrapped code, so one stack gives every span its parent.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

from triboost import cli, gbdt, metrics, objectives, panel, pipeline, scenario

FIT_CHILDREN_OUTSIDE_GROW = frozenset(
    {"gbdt.find_best_split", "objectives.grad_hess", "objectives.loss"}
)


def _count_split(counts, args, kwargs, result) -> None:
    counts["split_found"] += result is not None
    counts["split_rows"] += len(args[0])


def _count_predict(counts, args, kwargs, result) -> None:
    model, features = args[0], args[1]
    counts["predict_tree_rows"] += len(features) * len(model.trees)


def _cli_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


# (owner, attribute, span name, counter); a callable span name is given the
# call's arguments.
LAYERS = [
    (gbdt, "find_best_split", "gbdt.find_best_split", _count_split),
    (gbdt, "fit", "gbdt.fit", None),
    (gbdt, "leaf_weight", "gbdt.leaf_weight", None),
    (gbdt.GbdtModel, "predict", "gbdt.predict", _count_predict),
    (gbdt, "load_model", "gbdt.load_model", None),
    (gbdt, "save_model", "gbdt.save_model", None),
    *[
        (cls, method, f"objectives.{method}", None)
        for cls in (
            objectives.Stage1Objective,
            objectives.Stage2Objective,
            objectives.Stage3Objective,
            objectives.ConstraintOnlyObjective,
        )
        for method in ("grad_hess", "loss")
    ],
    (objectives, "pred_ratio", "objectives.pred_ratio", None),
    (objectives, "stage3_target", "objectives.stage3_target", None),
    (panel, "load_panel_csv", "panel.load_panel_csv", None),
    (panel.PanelDataset, "from_records", "panel.from_records", None),
    (panel, "save_panel_csv", "panel.save_panel_csv", None),
    (scenario, "generate", "scenario.generate", None),
    (scenario, "write_scenario", "scenario.write_scenario", None),
    (pipeline, "run_pipeline", "pipeline.run_pipeline", None),
    (pipeline, "run_stage1", "pipeline.run_stage1", None),
    (pipeline, "run_stage2", "pipeline.run_stage2", None),
    (pipeline, "run_stage3", "pipeline.run_stage3", None),
    (pipeline, "diagnose", "pipeline.diagnose", None),
    (pipeline, "trivial_solution_probe", "pipeline.trivial_solution_probe", None),
    (pipeline, "_held_out_bias", "pipeline.held_out_bias", None),
    (metrics, "product_metrics", "metrics.product_metrics", None),
    (metrics, "category_adherence", "metrics.category_adherence", None),
    (cli, "main", _cli_name, None),
]


class Tracer:
    """In-memory spans and counters of one benchmark run."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, job id)
        self.spans: list[tuple[str, float, float, int, str] | None] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.job: str | None = None
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str | Callable, fn: Callable, count: Callable | None = None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = tracer.job
            if job is None or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                label = name(args, kwargs) if callable(name) else name
                tracer.spans[idx] = (label, start, end, parent, job)
            if count is not None:
                count(tracer.counts[job], args, kwargs, result)
            return result

        return traced

    @contextmanager
    def active(self, job: str, name: str):
        """Record everything called inside the block under ``job``, below
        one root span called ``name``."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self.job = job
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.job = None
            self._stack.pop()
            self.spans[idx] = (name, start, end, -1, job)

    def install(self) -> None:
        for owner, attr, name, count in LAYERS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, raw, classmethod(self.wrap(name, raw.__func__, count)))
            elif isinstance(owner, type):
                self._set(owner, attr, raw, self.wrap(name, raw, count))
            else:
                traced = self.wrap(name, raw, count)
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").partition(".")[0] != "triboost":
                        continue
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._set(module, key, raw, traced)

    def _set(self, owner, attr: str, raw, new) -> None:
        setattr(owner, attr, new)
        self._restore.append((owner, attr, raw))

    def close(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one recorded span adds to a call, measured on a no-op."""
        def noop() -> None:
            return None

        traced = self.wrap("calibrate", noop)
        mark = len(self.spans)
        self.job = "calibrate"
        try:
            t0 = time.perf_counter()
            for _ in range(calls):
                traced()
            t1 = time.perf_counter()
            for _ in range(calls):
                noop()
            t2 = time.perf_counter()
        finally:
            self.job = None
            del self.spans[mark:]
        return max(0.0, ((t1 - t0) - (t2 - t1)) / calls)

    def job_spans(self, job: str) -> list[tuple[int, tuple]]:
        return [(i, s) for i, s in enumerate(self.spans) if s[4] == job]


def self_times(spans: list[tuple[int, tuple]]) -> dict[str, list[float]]:
    """Per span name: [calls, total duration, self time].  A span's self
    time is its duration minus the durations of its direct children, which
    never overlap because all spans come from one thread."""
    child_time: dict[int, float] = defaultdict(float)
    for _, (_, start, end, parent, _) in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, _, _) in spans:
        row = table[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_time[i]
    return table


def grow_self_time(spans: list[tuple[int, tuple]]) -> float:
    """Time inside ``gbdt.fit`` not spent in its objective calls or split
    searches: tree growth, leaf updates and bookkeeping."""
    fit_spans = {i: end - start for i, (name, start, end, _, _) in spans if name == "gbdt.fit"}
    total = sum(fit_spans.values())
    for _, (name, start, end, parent, _) in spans:
        if parent in fit_spans and name in FIT_CHILDREN_OUTSIDE_GROW:
            total -= end - start
    return total
