"""Evaluation: stratified splits, detection metrics, and the robustness grid.

The grid trains five detectors per run: a structure-blind DNN, plain GCN and
GraphSAGE on the observed graph, and the structure-learning variants of both.
Under poisoning each attack rate trains them afresh on the perturbed graph;
under evasion they train once per run on the clean graph and every rate
only evaluates them on its perturbed copy.
Each (model, attack rate, run) cell reports accuracy, precision, recall, and
F1 on held-out nodes, with the malicious class as the positive class.

The grid's units are its independent trainings: one per (rate, model)
under poisoning, one per model under evasion. Whoever runs a unit prepares
its run (graph, split, z-scoring, one attack per rate), once for each
stretch of consecutive units of that run. The units are dealt out once to
one worker interpreter per usable CPU, at most one per unit of a run, and
each worker runs BLAS single-threaded. The outputs are byte-identical to
running the units in this process, which is what happens with one usable
CPU. Every worker prepares its own copy of each run it trains in, so near
the 2,000-node ceiling peak memory grows with the worker count.
``taskset -c 0 gridsentry experiment ...`` leaves one usable CPU and so
runs the grid in this process, which is how to profile it.
"""

from __future__ import annotations

import os
import pickle
import sys
import warnings
from contextlib import suppress
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import attacks, codec, gsl
from .errors import DataError
from .flows import (FlowTable, apply_zscore, build_snapshot,
                    compute_zscore_stats, parse_flows, window)
from .graphs import GraphSnapshot, SbmSpec, sbm_generate
from .models import GnnParams, TrainConfig, _forward, _prepare, predict, train
from .numerics import _check_dense_side, make_rng

# Each grid model: the classifier kind behind it, and whether it learns the
# structure jointly (``gsl.fit``) or trains on the observed graph as is.
_GRID_MODELS = {"DNN": ("mlp", False), "GCN": ("gcn", False),
                "GraphSAGE": ("sage", False), "GSL-GCN": ("gcn", True),
                "GSL-GraphSAGE": ("sage", True)}
MODELS = tuple(_GRID_MODELS)
# Poisoning attacks the graph each model trains on, evasion the graph it is
# scored on.
ATTACK_KINDS = ("poisoning", "evasion")

# Windows with fewer devices are left out of a graph merged from a flow CSV:
# the default for training (``PipelineConfig.min_nodes``) and for a CSV grid.
MIN_WINDOW_NODES = 10


def split(labels: np.ndarray, train_frac: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified train/test masks: floor(train_frac * n) training nodes total.

    Nodes are shuffled per class; per-class training counts start at
    floor(train_frac * class_size) and the remainder is assigned by largest
    fractional part, so every class lands within one node of the target
    fraction. Classes with fewer than two members are rejected.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    if not 0.0 < train_frac < 1.0:
        raise ValueError(f"train_frac must lie in (0, 1), got {train_frac}")
    target = int(np.floor(train_frac * n))
    rng = make_rng(seed)
    classes = np.unique(labels)
    members = {c: np.flatnonzero(labels == c) for c in classes}
    for c, idx in members.items():
        if idx.size < 2:
            raise DataError(f"class {c} has {idx.size} member(s); need at least 2")
    base = {c: int(np.floor(train_frac * idx.size)) for c, idx in members.items()}
    short = target - sum(base.values())
    remainders = sorted(
        classes,
        key=lambda c: (-(train_frac * members[c].size - base[c]), c),
    )
    for c in remainders[:max(short, 0)]:
        base[c] += 1
    train_mask = np.zeros(n, dtype=bool)
    for c in classes:
        order = rng.permutation(members[c])
        train_mask[order[: base[c]]] = True
    return train_mask, ~train_mask


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    fn: int
    tn: int

    @classmethod
    def from_predictions(cls, y_true, y_pred, mask) -> "Confusion":
        y_true = np.asarray(y_true, dtype=np.int64)
        y_pred = np.asarray(y_pred, dtype=np.int64)
        m = np.asarray(mask, dtype=bool)
        t, p = y_true[m], y_pred[m]
        return cls(
            tp=int(np.sum((t == 1) & (p == 1))),
            fp=int(np.sum((t == 0) & (p == 1))),
            fn=int(np.sum((t == 1) & (p == 0))),
            tn=int(np.sum((t == 0) & (p == 0))),
        )


class MetricValues(NamedTuple):
    accuracy: float
    precision: float
    recall: float
    f1: float


def metrics(confusion: Confusion) -> MetricValues:
    """Standard detection metrics; zero denominators yield zero, not NaN."""
    tp, fp, fn, tn = confusion.tp, confusion.fp, confusion.fn, confusion.tn
    total = tp + fp + fn + tn
    if total == 0:
        raise ValueError("empty confusion")
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricValues(accuracy, precision, recall, f1)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one robustness grid.

    Exactly one data source must be set: an ``sbm`` generator spec or a flow
    ``csv_path``. Per run r, every random choice is seeded with
    base_seed + r: graph generation, the split, the attack, and weight
    initialization.
    """

    sbm: Optional[SbmSpec] = None
    csv_path: Optional[str] = None
    models: tuple[str, ...] = MODELS
    rates: tuple[float, ...] = (0.0, 0.1, 0.5)
    runs: int = 10
    base_seed: int = 0
    train_frac: float = 0.8
    attack_kind: str = "poisoning"
    structure_mode: str = "dice"
    feature_sigma: float = 0.5
    feature_fraction: Optional[float] = None
    window_seconds: int = 300
    max_flows: Optional[int] = None
    gsl: gsl.GslConfig = field(default_factory=gsl.GslConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if (self.sbm is None) == (self.csv_path is None):
            raise ValueError("set exactly one of sbm or csv_path")
        if self.sbm is not None:
            _check_dense_side(self.sbm.n, "sbm graph")
        if self.runs < 1:
            raise ValueError("runs must be positive")
        unknown = [m for m in self.models if m not in MODELS]
        if unknown:
            raise ValueError(f"unknown models {unknown}; valid: {list(MODELS)}")
        for name, values in (("models", self.models), ("rates", self.rates)):
            repeats = sorted({v for v in values if values.count(v) > 1})
            if repeats:
                raise ValueError(f"{name} repeat {repeats}; list each once")
        if self.attack_kind not in ATTACK_KINDS:
            raise ValueError(f"attack_kind must be one of {ATTACK_KINDS}, "
                             f"got {self.attack_kind!r}")
        for rate in self.rates or (0.0,):  # an empty grid's attack is checked too
            self.attack_spec(rate, self.base_seed)
        if not 0.0 < self.train_frac < 1.0:
            raise ValueError(f"train_frac must lie in (0, 1), got {self.train_frac}")
        if self.max_flows is not None and self.max_flows < 1:
            raise ValueError(f"max_flows must be at least 1, got {self.max_flows}")
        if self.window_seconds <= 0:
            raise ValueError(
                f"window_seconds must be positive, got {self.window_seconds}")

    def attack_spec(self, rate: float, seed: int) -> attacks.PerturbationSpec:
        """The attack the grid applies at ``rate`` in the run seeded ``seed``."""
        return attacks.PerturbationSpec(
            rate=rate, structure_mode=self.structure_mode,
            feature_sigma=self.feature_sigma,
            feature_fraction=self.feature_fraction, seed=seed)

    def to_dict(self) -> dict:
        """Every setting, leaving out the data source that is not set."""
        doc = codec.encode(self)
        del doc["csv_path" if self.sbm is not None else "sbm"]
        return doc


@dataclass
class CellResult:
    model: str
    rate: float
    runs: list[MetricValues]
    mean: MetricValues
    std: MetricValues


@dataclass
class MetricsReport:
    """A grid's cells, with the config and the seeds they came from."""

    FORMAT_VERSION = 1

    config: dict
    seeds: list[int]
    cells: list[CellResult]

    def cell(self, model: str, rate: float) -> CellResult:
        for c in self.cells:
            if c.model == model and c.rate == rate:
                return c
        raise KeyError(f"no cell for ({model}, {rate})")


@dataclass
class ExperimentResult:
    report: MetricsReport
    # (model, rate, run) -> objective history for the structure-learning cells.
    histories: dict[tuple[str, float, int], list[gsl.ObjectiveParts]]


def _aggregate(values: list[MetricValues]) -> tuple[MetricValues, MetricValues]:
    arr = np.array(values)
    mean = arr.mean(axis=0)
    std = arr.std(axis=0, ddof=1) if len(values) > 1 else np.zeros(4)
    return MetricValues(*mean.tolist()), MetricValues(*std.tolist())


def load_merged_snapshot(csv_path, window_seconds: int, min_nodes: int,
                         max_flows: Optional[int] = None) -> GraphSnapshot:
    """Build one training graph from a flow CSV.

    Windows with fewer than ``min_nodes`` devices are dropped, then all
    remaining flows are aggregated over the span from the first kept window's
    start to the last one's end: node and edge sets are the unions over the
    kept windows and features summarize every kept flow. With ``max_flows``,
    only the first ``max_flows`` usable flows are read (``parse_flows``'
    ``limit``). Training and the grid read the labels, so a CSV without a
    label column raises DataError, as does a graph of more devices than the
    dense ceiling of ``numerics``.
    """
    flows, _ = parse_flows(csv_path, limit=max_flows)
    if flows.label is None:
        raise DataError(f"{csv_path} has no label column; training needs "
                        "labelled flows")
    if not len(flows):
        raise DataError(f"no usable flows in {csv_path}")
    kept: list[FlowTable] = []
    spans: list = []
    for bounds, bucket in window(flows, window_seconds):
        if len(set(bucket.src) | set(bucket.dst)) >= min_nodes:
            kept.append(bucket)
            spans.append(bounds)
    if not kept:
        raise DataError(
            f"every window has fewer than {min_nodes} devices; nothing to train on"
        )
    try:
        return build_snapshot(FlowTable.concat(kept), (spans[0][0], spans[-1][1]))
    except ValueError as exc:  # above the dense ceiling
        raise DataError(f"{csv_path}: {exc}") from exc


class _Trained(NamedTuple):
    """One grid model after training: weights, learned structure, fit history."""

    params: GnnParams
    structure: Optional[np.ndarray]
    history: Optional[list[gsl.ObjectiveParts]]


def _train_model(model: str, snapshot: GraphSnapshot, cfg: ExperimentConfig,
                 mask: np.ndarray, seed: int) -> _Trained:
    """Train one grid model on ``snapshot``; GSL models also learn a structure."""
    kind, learns_structure = _GRID_MODELS[model]
    if not learns_structure:
        result = train(snapshot, snapshot.adjacency, cfg.train, kind, mask, seed)
        return _Trained(result.params, None, None)
    s_final, theta, state = gsl.fit(
        snapshot.adjacency, snapshot.features, snapshot.labels,
        kind, cfg.gsl, cfg.train, mask, seed,
    )
    return _Trained(theta, s_final, state.objective_history)


def _predictions(trained: _Trained, snapshot: GraphSnapshot,
                 gsl_cfg: gsl.GslConfig, evasion: bool) -> np.ndarray:
    """Every node's predicted class from a trained grid model.

    Plain models read ``snapshot``'s graph as is. A GSL model reads the
    structure it learned, except under evasion, where it was trained on the
    clean graph and re-refines the perturbed one with frozen weights. Each
    of these is an adjacency by construction, so none is checked again.
    """
    if trained.structure is None:
        s = snapshot.adjacency
    elif evasion:
        s = gsl.refine_structure(snapshot, snapshot.features, trained.params,
                                 gsl_cfg, gsl.REFINE_STEPS)
    else:
        s = trained.structure
    prop = _prepare(trained.params.kind, s, snapshot.features)
    return predict(_forward(trained.params, prop)[0])


def _grid_units(cfg: ExperimentConfig) -> list[tuple[int, str, tuple[float, ...]]]:
    """Every independent training of the grid as ``(run, model, rates)``, in
    grid order: one per (rate, model) under poisoning, and one per model
    under evasion, which scores it at every rate."""
    if cfg.attack_kind == "evasion":
        return [(r, model, tuple(cfg.rates))
                for r in range(cfg.runs) for model in cfg.models]
    return [(r, model, (rate,)) for r in range(cfg.runs)
            for rate in cfg.rates for model in cfg.models]


def _prepare_run(cfg: ExperimentConfig, merged: Optional[GraphSnapshot], seed: int
                 ) -> tuple[GraphSnapshot, np.ndarray, dict[float, GraphSnapshot]]:
    """The run seeded ``seed``: its clean graph, training mask, and the
    attacked graph at each rate."""
    if cfg.sbm is not None:
        snapshot = sbm_generate(replace(cfg.sbm, seed=seed))
    else:
        snapshot = merged
    train_mask, _ = split(snapshot.labels, cfg.train_frac, seed)
    if cfg.csv_path is not None:
        # Standardize with training-node statistics for this run's split.
        stats = compute_zscore_stats(snapshot.features[train_mask])
        snapshot = replace(snapshot, features=apply_zscore(snapshot.features, stats))
    perturbed = {rate: attacks.apply(snapshot, cfg.attack_spec(rate, seed))[0]
                 for rate in cfg.rates}
    return snapshot, train_mask, perturbed


def _run_units(cfg: ExperimentConfig, merged: Optional[GraphSnapshot], units: list
               ) -> Iterator[tuple[list[MetricValues],
                                   Optional[list[gsl.ObjectiveParts]]]]:
    """Yield, for each of ``units`` in turn, the test-node metrics at each of
    its rates and a GSL model's fit history.

    A run is prepared once for each stretch of consecutive units of that run.
    Under evasion a model trains on the clean graph, since the attack only
    reaches the graphs it is scored on.
    """
    evasion = cfg.attack_kind == "evasion"
    prepared = None
    for run, model, rates in units:
        seed = cfg.base_seed + run
        if prepared != run:
            snapshot, train_mask, perturbed = _prepare_run(cfg, merged, seed)
            prepared = run
        train_on = snapshot if evasion else perturbed[rates[0]]
        trained = _train_model(model, train_on, cfg, train_mask, seed)
        scores = []
        for rate in rates:
            y_pred = _predictions(trained, perturbed[rate], cfg.gsl, evasion)
            conf = Confusion.from_predictions(snapshot.labels, y_pred, ~train_mask)
            scores.append(metrics(conf))
        yield scores, trained.history


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full (model x rate x run) grid and aggregate the metrics."""
    merged = None
    if cfg.csv_path is not None:
        merged = load_merged_snapshot(cfg.csv_path, cfg.window_seconds,
                                      MIN_WINDOW_NODES, cfg.max_flows)

    seeds = [cfg.base_seed + r for r in range(cfg.runs)]
    per_cell: dict[tuple[str, float], list[MetricValues]] = {
        (m, rate): [] for m in cfg.models for rate in cfg.rates
    }
    histories: dict[tuple[str, float, int], list[gsl.ObjectiveParts]] = {}
    units = _grid_units(cfg)
    workers = _worker_count(len(units) // cfg.runs)
    if workers < 2:
        outcomes = _run_units(cfg, merged, units)
    else:
        outcomes = _run_in_workers(cfg, merged, units, workers)
    for (r, model, rates), (scores, history) in zip(units, outcomes):
        for rate, values in zip(rates, scores):
            per_cell[(model, rate)].append(values)
            if history is not None:
                histories[(model, rate, r)] = history

    cells = []
    for model in cfg.models:
        for rate in cfg.rates:
            runs = per_cell[(model, rate)]
            mean, std = _aggregate(runs)
            cells.append(CellResult(model=model, rate=rate, runs=runs,
                                    mean=mean, std=std))
    report = MetricsReport(config=cfg.to_dict(), seeds=seeds, cells=cells)
    return ExperimentResult(report=report, histories=histories)


# ---------------------------------------------------------------------------
# Worker interpreters


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_WORKER_CODE = "from gridsentry.experiments import _serve; _serve()"


def _worker_count(units: int) -> int:
    """Worker interpreters for runs of ``units`` units: one per usable CPU,
    at most one per unit."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, units)


class _Failed(NamedTuple):
    """A unit's exception in a worker, with the traceback it had there."""

    error: Exception
    text: str


class _WorkerTraceback(Exception):
    """The worker-side traceback of a unit's exception, chained as its cause."""


def _run_in_workers(cfg: ExperimentConfig, merged: Optional[GraphSnapshot],
                    units: list, workers: int) -> list:
    """Run the grid's ``units`` in ``workers`` worker interpreters (``_serve``)
    and return their outcomes in grid order.

    GSL fits take several times as long as plain trainings, so they are
    dealt out first, round-robin, and each share is then sorted back into
    grid order. Each worker gets one request, runs its share with BLAS
    single-threaded, and sends back one reply. Every worker is waited for,
    and killed first if the grid failed. Each unit's warnings are issued
    again here, through one warnings registry, and the exception of the
    earliest failing unit in grid order is raised, after the warnings of the
    units before it, as if the units had run here.
    """
    import subprocess  # here, so that importing the package stays cheap

    env = dict(os.environ, **dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    package_root = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    order = sorted(range(len(units)), key=lambda k: not _GRID_MODELS[units[k][1]][1])
    shares = [sorted(order[w::workers]) for w in range(workers)]
    outcomes = {}
    procs = []
    finished = False
    try:
        for _ in shares:
            procs.append(subprocess.Popen([sys.executable, "-c", _WORKER_CODE],
                                          stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE, env=env))
        for proc, share in zip(procs, shares):
            request = (np.geterr(), cfg, merged, [units[k] for k in share])
            try:
                pickle.dump(request, proc.stdin, pickle.HIGHEST_PROTOCOL)
                proc.stdin.close()
            except BrokenPipeError:
                raise _lost(proc) from None
        for proc, share in zip(procs, shares):
            try:
                outcomes.update(zip(share, pickle.load(proc.stdout)))
            except (EOFError, pickle.UnpicklingError):
                raise _lost(proc) from None
        finished = True
    finally:
        for proc in procs:
            if not finished:
                proc.kill()
            with suppress(BrokenPipeError):  # input a dead worker never read
                proc.stdin.close()
            proc.stdout.close()
            proc.wait()
    # A worker stops at its first failure, and its share is in grid order,
    # so every unit before the earliest failure has an outcome.
    registry: dict = {}
    results = []
    for k in range(len(units)):
        result, caught = outcomes[k]
        for category, message, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno,
                                   registry=registry)
        if isinstance(result, _Failed):
            raise result.error from _WorkerTraceback(result.text)
        results.append(result)
    return results


def _lost(proc) -> RuntimeError:
    return RuntimeError(f"grid worker {proc.pid} exited with status {proc.wait()} "
                        "before returning its results")


def _serve() -> None:
    """A worker: run the share of the grid that stdin requests, and write
    its outcomes to stdout.

    The request is the parent's numpy error settings, the grid's config, its
    merged CSV graph or None, and the worker's units in grid order. The
    outcomes are, per unit, the result of ``_run_units`` or a ``_Failed``,
    and the distinct warnings the unit raised; the share stops at its first
    failure. Interrupts are left to the parent, which kills its workers.
    """
    import signal
    import traceback

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    out, sys.stdout = sys.stdout.buffer, sys.stderr  # stdout carries outcomes only
    errors, cfg, merged, units = pickle.load(sys.stdin.buffer)
    np.seterr(**errors)
    results = _run_units(cfg, merged, units)
    outcomes = []
    for _ in units:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = next(results)
            except Exception as exc:  # the parent raises it again
                result = _Failed(exc, traceback.format_exc())
        outcomes.append((result, list(dict.fromkeys(
            (w.category, str(w.message), w.filename, w.lineno) for w in caught))))
        if isinstance(result, _Failed):
            break
    pickle.dump(outcomes, out, pickle.HIGHEST_PROTOCOL)
    out.flush()


# ---------------------------------------------------------------------------
# Rendering


def report_to_json(report: MetricsReport) -> str:
    """The ``report.json`` text: ``codec.dumps`` with a two-space indent."""
    return codec.dumps(report, indent=2)


def report_to_markdown(report: MetricsReport) -> str:
    """One table per metric: rows are models, columns are attack rates."""
    models = list(dict.fromkeys(c.model for c in report.cells))
    rates = list(dict.fromkeys(c.rate for c in report.cells))
    lines = ["# Robustness report", ""]
    lines.append(f"- runs per cell: {len(report.seeds)}")
    lines.append(f"- seeds: {', '.join(str(s) for s in report.seeds)}")
    lines.append("")
    for metric in ("accuracy", "precision", "recall", "f1"):
        lines.append(f"## {metric}")
        lines.append("")
        header = "| model | " + " | ".join(f"{rate * 100:g}%" for rate in rates) + " |"
        lines.append(header)
        lines.append("| --- |" + " --- |" * len(rates))
        for model in models:
            row = [model]
            for rate in rates:
                cell = report.cell(model, rate)
                mean = getattr(cell.mean, metric)
                std = getattr(cell.std, metric)
                row.append(f"{mean:.3f} ± {std:.3f}")
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    return "\n".join(lines)


def render_report(report: MetricsReport, fmt: str = "markdown") -> str:
    if fmt == "json":
        return report_to_json(report)
    if fmt == "markdown":
        return report_to_markdown(report)
    raise ValueError(f"unknown report format {fmt!r}")


def write_history_csv(history: list[gsl.ObjectiveParts], path) -> None:
    """Objective trace as CSV: iteration index plus each weighted term."""
    lines = [",".join(("iteration",) + gsl.ObjectiveParts._fields)]
    for i, parts in enumerate(history):
        lines.append(",".join([str(i)] + [f"{v:.12g}" for v in parts]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
