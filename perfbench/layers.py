"""Per-layer metrics computed from a :class:`tracer.Tracer`'s spans.

Counts and times are per traced round, so they repeat exactly between runs
of one workload. Each round has two top-level calls, and metrics are scoped
by them: the names without a prefix count only the spans under the
workload's path (``run_experiment`` or ``run_pipeline``), so the grid's
counts match its schedule and the detect paths show no training work; the
``train.`` names count only the spans under ``train_pipeline``.

A function that the package no longer has makes the metrics built on it
absent: they are left out of the result and named in
:attr:`LayerReport.absent`. A layer the workload never calls reads 0, as do
the recovery shares on workloads that make no attack.
"""

from __future__ import annotations

import inspect
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from tracer import Span, Tracer

# An edge counts as kept when its learned weight is above this.
KEPT_WEIGHT = 0.5
RECOVERY_RATE = 0.5
PATH_ROOTS = ("experiments.run_experiment", "pipeline.run_pipeline")
TRAIN_ROOTS = ("pipeline.train_pipeline",)


@dataclass
class _Attack:
    adjacency: object
    original: np.ndarray
    rate: float
    receipt: object


class Recovery(NamedTuple):
    """How one GSL fit's learned structure treats the edges an attack edited.

    The ``_kept``/``_restored`` fields are shares of edges whose learned
    weight ends above KEPT_WEIGHT; the ``_weight`` fields are mean learned
    weights, which move before any edge crosses that line.
    """

    kind: str
    rate: float
    inserted_kept: float
    genuine_kept: float
    removed_restored: float
    inserted_weight: float
    genuine_weight: float


@dataclass
class Recorder:
    """Hooks that keep what the metrics need from call arguments and results."""

    attacks: list[_Attack] = field(default_factory=list)
    recovery: list[Recovery] = field(default_factory=list)

    def hooks(self) -> dict:
        return {
            "models.backward": self._backward,
            "gsl.refine_structure": lambda b, r: {"steps": int(b.arguments["steps"])},
            "gsl.refine_report": self._refine_report,
            "flows.parse_flows": lambda b, r: {"rows": r[1].rows_total},
            "flows.build_snapshot": lambda b, r: {"flows": len(b.arguments["flows"])},
            "attacks.apply": self._apply,
            "gsl.fit": self._fit,
            "pipeline.run_pipeline": lambda b, r: {"windows_failed": r["windows_failed"]},
        }

    @staticmethod
    def _backward(bound: inspect.BoundArguments, result) -> dict:
        return {"kind": bound.arguments["params"].kind}

    @staticmethod
    def _refine_report(bound: inspect.BoundArguments, result) -> dict:
        n = bound.arguments["state"].a.shape[0]
        return {"pairs": n * (n - 1) // 2}

    def _apply(self, bound: inspect.BoundArguments, result) -> dict:
        perturbed, receipt = result
        self.attacks.append(_Attack(
            adjacency=perturbed.adjacency,
            original=np.asarray(bound.arguments["snapshot"].adjacency),
            rate=float(bound.arguments["spec"].rate),
            receipt=receipt,
        ))
        return {"edited": len(receipt.edges_added) + len(receipt.edges_removed)}

    def _fit(self, bound: inspect.BoundArguments, result) -> dict:
        observed = bound.arguments["a"]
        attack = next((x for x in reversed(self.attacks) if x.adjacency is observed),
                      None)
        if attack is None:
            return {}
        s = np.asarray(result[0])
        inserted = attack.receipt.edges_added
        removed = attack.receipt.edges_removed
        gone = set(removed)
        genuine = [(i, j) for i, j in zip(*np.nonzero(np.triu(attack.original, 1)))
                   if (i, j) not in gone]
        self.recovery.append(Recovery(
            str(bound.arguments["gnn_kind"]), attack.rate,
            _kept(s, inserted), _kept(s, genuine), _kept(s, removed),
            _mean_weight(s, inserted), _mean_weight(s, genuine),
        ))
        return {}


def _weights(s: np.ndarray, pairs) -> np.ndarray:
    if not pairs:
        return np.zeros(0)
    rows, cols = np.array(pairs, dtype=np.int64).T
    return s[rows, cols]


def _kept(s: np.ndarray, pairs) -> float:
    w = _weights(s, pairs)
    return float(np.mean(w > KEPT_WEIGHT)) if w.size else 0.0


def _mean_weight(s: np.ndarray, pairs) -> float:
    w = _weights(s, pairs)
    return float(w.mean()) if w.size else 0.0


class _Absent(Exception):
    pass


@dataclass
class LayerReport:
    metrics: dict[str, dict]
    absent: list[str]
    # Windows behind pipeline.detect.window_ms.p50: too few for a tail
    # percentile, so the count is printed for people instead.
    windows: int = 0


def _scoped(spans: list[Span], roots: tuple[str, ...]) -> list[Span]:
    """The spans whose top-level ancestor calls one of ``roots``."""
    top: list[int] = []
    for i, span in enumerate(spans):
        # A parent is always recorded before its children.
        top.append(i if span.parent < 0 else top[span.parent])
    return [span for span, t in zip(spans, top) if spans[t].func in roots]


class _View:
    """Aggregates over one scope of the spans, per round."""

    def __init__(self, tracer: Tracer, recorder: Recorder, rounds: int,
                 roots: tuple[str, ...]):
        self.tracer = tracer
        self.recorder = recorder
        self.rounds = rounds
        self.by_func: dict[str, list[Span]] = defaultdict(list)
        for span in _scoped(tracer.spans, roots):
            self.by_func[span.func].append(span)

    def need(self, func: str) -> list[Span]:
        if func not in self.tracer.functions:
            raise _Absent(func)
        return self.by_func.get(func, [])

    def outer(self, func: str) -> list[Span]:
        return [s for s in self.need(func) if not s.nested]

    def calls(self, func: str) -> float:
        return len(self.outer(func)) / self.rounds

    def ms(self, func: str) -> float:
        return sum(s.seconds for s in self.outer(func)) * 1e3 / self.rounds

    def self_ms(self, func: str) -> float:
        return sum(s.seconds - s.child for s in self.need(func)) * 1e3 / self.rounds

    def hooked(self, func: str) -> None:
        """Raise _Absent when the hook on ``func`` could not read a call."""
        self.need(func)
        if func in self.tracer.hook_errors:
            raise _Absent(f"{func} ({self.tracer.hook_errors[func]})")

    def attr(self, func: str, key: str, spans=None) -> list:
        self.hooked(func)
        return [s.attrs[key] for s in (spans if spans is not None else self.outer(func))]

    def per(self, func: str, key: str, scale: float) -> float:
        """Time of ``func`` per unit of the attribute ``key``."""
        units = sum(self.attr(func, key))
        return sum(s.seconds for s in self.outer(func)) * scale / units if units else 0.0

    def backward(self, kind: str) -> list[Span]:
        spans = self.outer("models.backward")
        kinds = self.attr("models.backward", "kind", spans)
        return [s for s, k in zip(spans, kinds) if k == kind]

    def svd_logging_share(self) -> float:
        spans = self.outer("numerics.svd")
        self.need("gsl.objective")
        spans_all = self.tracer.spans
        logged = sum(1 for s in spans
                     if s.parent >= 0 and spans_all[s.parent].func == "gsl.objective")
        return logged / len(spans) if spans else 0.0

    def recovery(self, field: str, kind=None) -> float:
        """Mean of a Recovery field over the GSL fits at RECOVERY_RATE."""
        self.hooked("attacks.apply")
        self.hooked("gsl.fit")
        rows = [r for r in self.recorder.recovery
                if r.rate == RECOVERY_RATE and kind in (None, r.kind)]
        return float(np.mean([getattr(r, field) for r in rows])) if rows else 0.0

    def window_ms(self) -> list[float]:
        return sorted(s.seconds * 1e3 for s in self.outer("pipeline.detect"))


def _us_per_call(spans: list[Span]) -> float:
    return sum(s.seconds for s in spans) * 1e6 / len(spans) if spans else 0.0


# name, unit, value. Every name here is listed in BENCHMARK.json.
def _table(v: _View):
    ms, calls, self_ms = v.ms, v.calls, v.self_ms
    return [
        ("numerics.svd.calls", "count", lambda: calls("numerics.svd")),
        ("numerics.svd.ms", "ms", lambda: ms("numerics.svd")),
        ("numerics.svd.logging_share", "ratio", v.svd_logging_share),
        ("numerics.svt.calls", "count", lambda: calls("numerics.svt")),
        ("numerics.svt.self_ms", "ms", lambda: self_ms("numerics.svt")),
        ("numerics.soft_threshold.ms", "ms", lambda: ms("numerics.soft_threshold")),
        ("numerics.symmetrize_clamp.ms", "ms", lambda: ms("numerics.symmetrize_clamp")),
        ("numerics.require_matrix.ms", "ms", lambda: ms("numerics.require_matrix")),
        *[row for kind in ("gcn", "sage", "mlp") for row in (
            (f"models.backward.{kind}.calls", "count",
             lambda kind=kind: len(v.backward(kind)) / v.rounds),
            (f"models.backward.{kind}.us_per_call", "us",
             lambda kind=kind: _us_per_call(v.backward(kind))),
        )],
        ("models.adam_step.ms", "ms", lambda: ms("models.adam_step")),
        ("models.train.ms", "ms", lambda: ms("models.train")),
        ("models.model_logits.ms", "ms", lambda: ms("models.model_logits")),
        ("gsl.fit.calls", "count", lambda: calls("gsl.fit")),
        ("gsl.fit.self_ms", "ms", lambda: self_ms("gsl.fit")),
        ("gsl.objective.calls", "count", lambda: calls("gsl.objective")),
        ("gsl.objective.ms", "ms", lambda: ms("gsl.objective")),
        ("gsl.refine_structure.calls", "count", lambda: calls("gsl.refine_structure")),
        ("gsl.refine_structure.ms_per_step", "ms",
         lambda: v.per("gsl.refine_structure", "steps", 1e3)),
        ("gsl.refine_structure.self_ms", "ms", lambda: self_ms("gsl.refine_structure")),
        ("gsl.refine_report.us_per_pair", "us",
         lambda: v.per("gsl.refine_report", "pairs", 1e6)),
        *[(f"gsl.recovery.{prefix}{share}", "ratio",
           lambda share=share, kind=kind: v.recovery(share, kind))
          for kind, prefix in ((None, ""), ("gcn", "gcn."), ("sage", "sage."))
          for share in Recovery._fields[2:5]],
        *[(f"gsl.recovery.{weight}", "weight", lambda weight=weight: v.recovery(weight))
          for weight in Recovery._fields[5:]],
        ("flows.parse_flows.rows", "count",
         lambda: sum(v.attr("flows.parse_flows", "rows")) / v.rounds),
        ("flows.parse_flows.us_per_row", "us",
         lambda: v.per("flows.parse_flows", "rows", 1e6)),
        ("flows.window.ms", "ms", lambda: ms("flows.window")),
        ("flows.build_snapshot.calls", "count", lambda: calls("flows.build_snapshot")),
        ("flows.build_snapshot.us_per_flow", "us",
         lambda: v.per("flows.build_snapshot", "flows", 1e6)),
        ("graphs.sbm_generate.ms", "ms", lambda: ms("graphs.sbm_generate")),
        ("graphs.smoothness.ms", "ms", lambda: ms("graphs.smoothness")),
        ("attacks.apply.ms", "ms", lambda: ms("attacks.apply")),
        ("attacks.apply.edges_edited", "count",
         lambda: sum(v.attr("attacks.apply", "edited")) / v.rounds),
        ("pipeline.run_pipeline.ms", "ms", lambda: ms("pipeline.run_pipeline")),
        ("pipeline.run_pipeline.windows_failed", "count",
         lambda: sum(v.attr("pipeline.run_pipeline", "windows_failed")) / v.rounds),
        ("pipeline.detect.calls", "count", lambda: calls("pipeline.detect")),
        ("pipeline.detect.window_ms.p50", "ms",
         lambda: float(np.percentile(v.window_ms(), 50)) if v.window_ms() else 0.0),
        ("pipeline.DetectorBundle.load.ms", "ms", lambda: ms("pipeline.DetectorBundle.load")),
        ("pipeline.Alert.to_json_line.calls", "count",
         lambda: calls("pipeline.Alert.to_json_line")),
        ("experiments.run_experiment.self_ms", "ms",
         lambda: self_ms("experiments.run_experiment")),
        ("trace.spans", "count", lambda: len(v.tracer.spans) / v.rounds),
    ]


def _train_table(v: _View):
    ms = v.ms
    return [
        ("train.pipeline.train_pipeline.ms", "ms", lambda: ms("pipeline.train_pipeline")),
        ("train.experiments.load_merged_snapshot.ms", "ms",
         lambda: ms("experiments.load_merged_snapshot")),
        ("train.flows.parse_flows.us_per_row", "us",
         lambda: v.per("flows.parse_flows", "rows", 1e6)),
        ("train.gsl.fit.self_ms", "ms", lambda: v.self_ms("gsl.fit")),
        ("train.gsl.objective.ms", "ms", lambda: ms("gsl.objective")),
        ("train.numerics.svd.ms", "ms", lambda: ms("numerics.svd")),
        ("train.numerics.svt.self_ms", "ms", lambda: v.self_ms("numerics.svt")),
        ("train.models.backward.us_per_call", "us",
         lambda: _us_per_call(v.outer("models.backward"))),
        ("train.models.adam_step.ms", "ms", lambda: ms("models.adam_step")),
        ("train.gsl.refine_report.us_per_pair", "us",
         lambda: v.per("gsl.refine_report", "pairs", 1e6)),
    ]


def layer_report(tracer: Tracer, recorder: Recorder, rounds: int) -> LayerReport:
    path = _View(tracer, recorder, rounds, PATH_ROOTS)
    rows = _table(path) + _train_table(_View(tracer, recorder, rounds, TRAIN_ROOTS))
    metrics: dict[str, dict] = {}
    absent: list[str] = []
    for name, unit, compute in rows:
        try:
            value = float(compute())
        except _Absent as missing:
            absent.append(f"{name}: {missing.args[0]} not found")
            continue
        if not math.isfinite(value):
            absent.append(f"{name}: not finite")
            continue
        metrics[name] = {"value": value, "unit": unit}
    windows = sum(1 for s in path.by_func.get("pipeline.detect", []) if not s.nested)
    return LayerReport(metrics=metrics, absent=absent, windows=windows)


def run_traced(runner, seconds: float):
    """Run the workload with every second round traced.

    Returns the outcome and the per-layer report, which carries the tracing
    overhead: the fastest traced path time minus the fastest untraced one.
    """
    recorder = Recorder()
    tracer = Tracer(hooks=recorder.hooks())
    outcome = runner.run(seconds, tracer=tracer)
    traced = sum(1 for r in outcome.rounds if r.traced)
    report = layer_report(tracer, recorder, traced)
    plain = outcome.fastest("run_s", traced=False)
    overhead = outcome.fastest("run_s", traced=True) - plain
    report.metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    report.metrics["trace.overhead_share"] = {"value": overhead / plain if plain else 0.0,
                                              "unit": "ratio"}
    return outcome, report
