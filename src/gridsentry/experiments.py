"""Evaluation: stratified splits, detection metrics, and the robustness grid.

The grid trains five detectors per run: a structure-blind DNN, plain GCN and
GraphSAGE on the observed graph, and the structure-learning variants of both.
Under poisoning each attack rate trains them afresh on the perturbed graph;
under evasion they train once per run on the clean graph and every rate
only evaluates them on its perturbed copy.
Each (model, attack rate, run) cell reports accuracy, precision, recall, and
F1 on held-out nodes, with the malicious class as the positive class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import attacks, codec, gsl
from .errors import DataError
from .flows import (FeatureConfig, apply_zscore, build_snapshot,
                    compute_zscore_stats, parse_flows, window)
from .graphs import GraphSnapshot, SbmSpec, sbm_generate
from .models import GnnParams, TrainConfig, model_logits, predict, train
from .numerics import make_rng

MODELS = ("DNN", "GCN", "GraphSAGE", "GSL-GCN", "GSL-GraphSAGE")

REPORT_FORMAT_VERSION = 1

# Inference-time structure refinement budget for GSL models under evasion.
EVASION_REFINE_STEPS = 20

# Model kind behind each grid model that trains on the observed graph as is.
_PLAIN_KINDS = {"DNN": "mlp", "GCN": "gcn", "GraphSAGE": "sage"}


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
        if self.runs < 1:
            raise ValueError("runs must be positive")
        unknown = [m for m in self.models if m not in MODELS]
        if unknown:
            raise ValueError(f"unknown models {unknown}; valid: {list(MODELS)}")
        for rate in self.rates:
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rates must lie in [0, 1], got {rate}")
        if self.attack_kind not in attacks.KINDS:
            raise ValueError(f"attack_kind must be one of {attacks.KINDS}")

    def to_dict(self) -> dict:
        """Every setting, leaving out the data source that is not set."""
        doc = codec.encode(self)
        del doc["csv_path" if self.sbm is not None else "sbm"]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return codec.decode(cls, doc, "experiment")


@dataclass
class CellResult:
    model: str
    rate: float
    runs: list[MetricValues]
    mean: MetricValues
    std: MetricValues


@dataclass
class MetricsReport:
    config: dict
    seeds: list[int]
    cells: list[CellResult]

    def cell(self, model: str, rate: float) -> CellResult:
        for c in self.cells:
            if c.model == model and c.rate == rate:
                return c
        raise KeyError(f"no cell for ({model}, {rate})")

    def to_dict(self) -> dict:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "config": self.config,
            "seeds": list(self.seeds),
            "cells": [
                {
                    "model": c.model,
                    "rate": c.rate,
                    "runs": [m._asdict() for m in c.runs],
                    "mean": c.mean._asdict(),
                    "std": c.std._asdict(),
                }
                for c in self.cells
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricsReport":
        if doc.get("format_version") != REPORT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported report format_version {doc.get('format_version')!r}"
            )
        cells = [
            CellResult(
                model=c["model"],
                rate=float(c["rate"]),
                runs=[MetricValues(**m) for m in c["runs"]],
                mean=MetricValues(**c["mean"]),
                std=MetricValues(**c["std"]),
            )
            for c in doc["cells"]
        ]
        return cls(config=doc["config"], seeds=list(doc["seeds"]), cells=cells)


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


def load_merged_snapshot(csv_path, window_seconds: int = 300, min_nodes: int = 10,
                         max_flows: Optional[int] = None) -> GraphSnapshot:
    """Build one training graph from a flow CSV.

    Windows with fewer than ``min_nodes`` devices are dropped, then all
    remaining flows are aggregated over the full span: node and edge sets are
    the unions over the kept windows and features summarize every kept flow.
    """
    records, _ = parse_flows(csv_path)
    if max_flows is not None:
        records = records[:max_flows]
    if not records:
        raise DataError(f"no usable flows in {csv_path}")
    cfg = FeatureConfig(window_seconds=window_seconds)
    kept: list = []
    for _, bucket in window(records, cfg):
        devices = {f.src for f in bucket} | {f.dst for f in bucket}
        if len(devices) >= min_nodes:
            kept.extend(bucket)
    if not kept:
        raise DataError(
            f"every window has fewer than {min_nodes} devices; nothing to train on"
        )
    span = FeatureConfig(window_seconds=int(max(f.timestamp for f in kept))
                         + window_seconds)
    return build_snapshot(kept, span)


class _Trained(NamedTuple):
    """One grid model after training: weights, learned structure, fit history."""

    params: GnnParams
    structure: Optional[np.ndarray]
    history: Optional[list[gsl.ObjectiveParts]]


def _train_model(model: str, snapshot: GraphSnapshot, cfg: ExperimentConfig,
                 mask: np.ndarray, seed: int) -> _Trained:
    """Train one grid model on ``snapshot``; GSL models also learn a structure."""
    if model in _PLAIN_KINDS:
        result = train(snapshot, snapshot.adjacency, cfg.train, _PLAIN_KINDS[model],
                       mask, seed)
        return _Trained(result.params, None, None)
    if model not in ("GSL-GCN", "GSL-GraphSAGE"):
        raise ValueError(f"unknown model {model!r}")
    kind = "gcn" if model == "GSL-GCN" else "sage"
    s_final, theta, state = gsl.fit(
        snapshot.adjacency, snapshot.features, snapshot.labels,
        kind, cfg.gsl, cfg.train, mask, seed,
    )
    return _Trained(theta, s_final, state.objective_history)


def _predictions(model: str, trained: _Trained, snapshot: GraphSnapshot,
                 gsl_cfg: gsl.GslConfig, evasion: bool) -> np.ndarray:
    """Every node's predicted class from a trained grid model.

    Plain models read ``snapshot``'s graph as is. A GSL model reads the
    structure it learned, except under evasion, where it was trained on the
    clean graph and re-refines the perturbed one with frozen weights.
    """
    if model in _PLAIN_KINDS:
        s = snapshot.adjacency
    elif evasion:
        s = gsl.refine_structure(snapshot.adjacency, snapshot.features,
                                 trained.params, gsl_cfg, EVASION_REFINE_STEPS)
    else:
        s = trained.structure
    return predict(model_logits(trained.params, s, snapshot.features))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full (model x rate x run) grid and aggregate the metrics."""
    merged = None
    if cfg.csv_path is not None:
        merged = load_merged_snapshot(cfg.csv_path, cfg.window_seconds,
                                      max_flows=cfg.max_flows)

    seeds = [cfg.base_seed + r for r in range(cfg.runs)]
    evasion = cfg.attack_kind == "evasion"
    per_cell: dict[tuple[str, float], list[MetricValues]] = {
        (m, rate): [] for m in cfg.models for rate in cfg.rates
    }
    histories: dict[tuple[str, float, int], list[gsl.ObjectiveParts]] = {}

    for r, seed_r in enumerate(seeds):
        if cfg.sbm is not None:
            snapshot = sbm_generate(replace(cfg.sbm, seed=seed_r))
        else:
            # Standardize with training-node statistics for this run's split.
            snapshot = merged
        train_mask, test_mask = split(snapshot.labels, cfg.train_frac, seed_r)
        if cfg.csv_path is not None:
            stats = compute_zscore_stats(snapshot.features[train_mask])
            snapshot = GraphSnapshot(
                node_ids=list(snapshot.node_ids),
                adjacency=snapshot.adjacency,
                features=apply_zscore(snapshot.features, stats),
                labels=snapshot.labels,
                window=snapshot.window,
                feature_names=list(snapshot.feature_names),
            )
        # Evasion attacks only the graph a model is evaluated on, so each
        # model trains once per run on the clean graph.
        clean_models = {model: _train_model(model, snapshot, cfg, train_mask, seed_r)
                        for model in cfg.models} if evasion else {}
        for rate in cfg.rates:
            pspec = attacks.PerturbationSpec(
                kind=cfg.attack_kind,
                rate=rate,
                structure_mode=cfg.structure_mode,
                feature_sigma=cfg.feature_sigma,
                feature_fraction=cfg.feature_fraction,
                seed=seed_r,
            )
            perturbed, _ = attacks.apply(snapshot, pspec,
                                         "inference" if evasion else "training")
            for model in cfg.models:
                trained = clean_models[model] if evasion else _train_model(
                    model, perturbed, cfg, train_mask, seed_r)
                y_pred = _predictions(model, trained, perturbed, cfg.gsl, evasion)
                conf = Confusion.from_predictions(snapshot.labels, y_pred, test_mask)
                per_cell[(model, rate)].append(metrics(conf))
                if trained.history is not None:
                    histories[(model, rate, r)] = trained.history

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
# Rendering


def report_to_json(report: MetricsReport) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


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
    lines = ["iteration,total,task,nuclear,l1,smooth,prox"]
    for i, parts in enumerate(history):
        lines.append(
            f"{i},{parts.total:.12g},{parts.task:.12g},{parts.nuclear:.12g},"
            f"{parts.l1:.12g},{parts.smooth:.12g},{parts.prox:.12g}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
