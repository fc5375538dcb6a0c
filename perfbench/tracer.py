"""Span tracing of rhflow from outside the package.

A Tracer replaces the module and class attributes that rhflow's callers
look up (for example ``rhflow.flow.rhs`` or ``rhflow.cli.run``) with
wrappers that record a span (id, parent id, name, start, end) per call.
Spans stay in memory; ``summary()`` turns them into the per-layer
metrics and ``write_spans()`` writes them out once the run is over.
Every wrapped attribute is restored when ``installed()`` exits, also on
error.  The wrappers return what the wrapped function returns, so a
traced run produces the same trajectory bit for bit.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ANALYSIS_CHECKS = ("check_metric_distortion", "monitor_S_evolution", "pick_blowup_points",
                   "check_volume_evolution", "check_min_S_monotone", "check_gradient_bound",
                   "check_phi_max_principle", "parabolic_rescale")

# The six scenario ids of the verify suite; each names a per-layer metric.
SCENARIO_IDS = ("flat_stationary", "torus_list", "shrinking_sphere",
                "shrinking_cylinder", "perturbed_cylinder", "perturbed_torus")

# (module or class, attribute, span name).  Names imported by name are
# patched in the importing module, since that is where the caller looks
# them up.
SPAN_TARGETS = (
    ("rhflow.flow", "run", "flow.run"),
    ("rhflow.cli", "run", "flow.run"),
    ("rhflow.verification", "run", "flow.run"),
    ("rhflow.flow", "rhs", "flow.rhs"),
    ("rhflow.flow", "curvature_fields", "geometry.curvature.flow"),
    ("rhflow.analysis", "curvature_fields", "geometry.curvature.analysis"),
    ("rhflow.flow", "make_monitor_record", "analysis.monitor_record"),
    ("rhflow.analysis.MonitorState", "update", "analysis.monitor_update"),
    *(("rhflow.analysis", check, f"analysis.{check}") for check in ANALYSIS_CHECKS),
    ("rhflow.christoffel", "curvature_oracle_check", "christoffel.oracle_check"),
    ("rhflow.runio", "save_snapshot", "runio.save_snapshot"),
    ("rhflow.runio", "write_series", "runio.series"),
    ("rhflow.runio", "append_series", "runio.series"),
    ("rhflow.runio", "save_checkpoint", "runio.checkpoint"),
    ("rhflow.runio", "load_checkpoint", "runio.checkpoint"),
    ("rhflow.runio", "read_series", "runio.read_series"),
    ("rhflow.cli", "cmd_run", "cli.run"),
    ("rhflow.cli", "cmd_resume", "cli.resume"),
    ("rhflow.verification", "evaluate_case", "verification.case"),
    ("rhflow.verification", "exact_state", "oracles.exact_state"),
    ("rhflow.oracles", "exact_state", "oracles.exact_state"),
)

# Counted but not spanned: step attempts (private, so optional) and
# WarpedState validations.
COUNT_TARGETS = (
    ("rhflow.flow", "_try_step"),
    ("rhflow.geometry.WarpedState", "__post_init__"),
)

_CFL_RTOL = 1e-9


def _resolve(path: str):
    """Module or class named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class _RunContext:
    """What the step hooks need to know about the flow.run in progress."""

    def __init__(self, config, initial, now):
        self.c_cfl = config.c_cfl
        self.fmin_h = _fmin_h(initial)
        self.last_step = now


def _fmin_h(state):
    f = getattr(state, "f", None)
    return None if f is None else float(np.min(f)) * state.h


class Tracer:
    """Wraps rhflow's public functions and keeps spans in memory."""

    def __init__(self):
        self.spans: list[tuple] = []        # (id, parent id or -1, name, start, end)
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.counts: Counter = Counter()
        self.case_s: dict[str, float] = defaultdict(float)
        self.dts: list[float] = []
        self.step_s: list[float] = []
        self._run: _RunContext | None = None

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        try:
            for owner_path, attr, name in SPAN_TARGETS:
                self._patch(_resolve(owner_path), attr, self._span_wrapper(name, attr))
            for owner_path, attr in COUNT_TARGETS:
                owner = _resolve(owner_path)
                if attr in vars(owner):
                    self._patch(owner, attr, self._count_wrapper(attr))
            yield self
        finally:
            self.restore()

    def _patch(self, owner, attr, make_wrapper):
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, attr):
        enter, leave = {
            "run": (self._enter_run, self._leave_run),
            "update": (self._enter_update, self._leave_update),
            "evaluate_case": (None, self._leave_case),
            "append_series": (self._file_size, self._leave_append),
            "write_series": (None, self._leave_write),
            "save_snapshot": (None, self._leave_write),
            "save_checkpoint": (None, self._leave_write),
        }.get(attr, (None, None))

        def make(fn):
            spans, stack, clock = self.spans, self._stack, time.perf_counter

            def wrapper(*args, **kwargs):
                sid = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(sid)
                token = enter(args) if enter else None
                result = None
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end = clock()
                    stack.pop()
                    spans[sid] = (sid, parent, name, start, end)
                    if leave:
                        leave(args, token, result, start, end)
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def _count_wrapper(self, attr):
        def make(fn):
            if attr == "_try_step":
                def wrapper(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    if self._run is not None and result is None:
                        self.counts["flow.halved_steps"] += 1
                    return result
            else:
                def wrapper(*args, **kwargs):
                    if self._run is not None:
                        self.counts["flow.warped_states"] += 1
                    return fn(*args, **kwargs)
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    # -- hooks ------------------------------------------------------------

    def _enter_run(self, args):
        outer, self._run = self._run, _RunContext(args[0], args[1], time.perf_counter())
        return outer

    def _leave_run(self, args, outer, result, start, end):
        self._run = outer

    @staticmethod
    def _enter_update(args):
        return args[0].prev_t

    def _leave_update(self, args, prev_t, result, start, end):
        state, run = args[1], self._run
        dt = state.t - prev_t
        self.dts.append(dt)
        if run is None:
            return
        if run.fmin_h is not None:
            bound = run.c_cfl * run.fmin_h ** 2
            if abs(dt - bound) <= _CFL_RTOL * bound:
                self.counts["flow.cfl_steps"] += 1
            run.fmin_h = _fmin_h(state)
        self.step_s.append(end - run.last_step)
        run.last_step = end

    def _leave_case(self, args, token, result, start, end):
        self.case_s[args[0].scenario.id] += end - start
        if result is not None:
            self.counts["verification.rows"] += len(result[0])

    @staticmethod
    def _file_size(args) -> int:
        path = Path(args[0])
        return path.stat().st_size if path.exists() else 0

    def _leave_write(self, args, token, result, start, end):
        self.counts["runio.bytes_written"] += self._file_size(args)

    def _leave_append(self, args, size_before, result, start, end):
        self.counts["runio.bytes_written"] += self._file_size(args) - size_before

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[Counter, dict, dict]:
        """(calls, total seconds, self seconds) per span name; self time
        is a span's duration minus the durations of its child spans."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        for sid, _, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[sid]
        return calls, total, self_s

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        calls, total, self_s = self.self_times()
        counts = self.counts
        steps = calls["analysis.monitor_update"]

        def mean_us(*names):
            n = sum(calls[x] for x in names)
            return 1e6 * sum(total[x] for x in names) / n if n else 0.0

        def per_step(value):
            return value / steps if steps else 0.0

        dts = np.asarray(self.dts) if self.dts else np.zeros(1)
        step_us = 1e6 * np.asarray(self.step_s) if self.step_s else np.zeros(1)
        out = {
            "flow.steps": steps,
            "flow.cfl_share": per_step(counts["flow.cfl_steps"]),
            "flow.halved_steps": counts["flow.halved_steps"],
            "flow.dt_min": float(np.min(dts)),
            "flow.dt_p50": float(np.median(dts)),
            "flow.step_us.p50": float(np.percentile(step_us, 50)),
            "flow.step_us.p99": float(np.percentile(step_us, 99)),
            "flow.rhs.calls": calls["flow.rhs"],
            "flow.rhs.us": mean_us("flow.rhs"),
            "flow.rhs_per_step": per_step(calls["flow.rhs"]),
            "flow.run.self_s": self_s["flow.run"],
            "geometry.curvature.flow.calls": calls["geometry.curvature.flow"],
            "geometry.curvature.analysis.calls": calls["geometry.curvature.analysis"],
            "geometry.curvature.us": mean_us("geometry.curvature.flow",
                                             "geometry.curvature.analysis"),
            "geometry.warped_states_per_step": per_step(counts["flow.warped_states"]),
            "analysis.records": calls["analysis.monitor_record"],
            "analysis.monitor_update.us": mean_us("analysis.monitor_update"),
            "analysis.monitor_record.us": mean_us("analysis.monitor_record"),
        }
        for check in ANALYSIS_CHECKS:
            out[f"analysis.{check}.s"] = total[f"analysis.{check}"]
        out.update({
            "christoffel.oracle_check.s": total["christoffel.oracle_check"],
            "runio.save_snapshot.calls": calls["runio.save_snapshot"],
            "runio.save_snapshot.us": mean_us("runio.save_snapshot"),
            "runio.series.s": total["runio.series"],
            "runio.checkpoint.s": total["runio.checkpoint"],
            "runio.read_series.s": total["runio.read_series"],
            "runio.bytes_written": counts["runio.bytes_written"],
            "cli.run.self_s": self_s["cli.run"],
            "cli.resume.self_s": self_s["cli.resume"],
        })
        for sid in SCENARIO_IDS:
            out[f"verification.case.{sid}.s"] = self.case_s.get(sid, 0.0)
        out["verification.rows"] = counts["verification.rows"]
        out["oracles.exact_state.calls"] = calls["oracles.exact_state"]
        return {k: float(v) for k, v in out.items()}

    def write_spans(self, path):
        """Write the spans as CSV: id, parent, name, start, end (seconds)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f}\n")
