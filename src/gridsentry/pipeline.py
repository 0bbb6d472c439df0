"""Streaming detection pipeline: train a detector bundle, then score windows.

Training merges the flow CSV into one device graph, learns a refined
structure plus classifier jointly, and persists everything needed at
inference. Detection replays new flows window by window: each snapshot gets
a short label-free structure refinement with frozen weights, every node is
scored, and nodes at or above the score threshold become alerts.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import codec, gsl
from .errors import DataError, NumericError
from .experiments import (MIN_WINDOW_NODES, load_merged_snapshot,
                          write_history_csv)
from .flows import (apply_zscore, build_snapshot, compute_zscore_stats,
                    parse_flows, window)
from .graphs import GraphSnapshot
from .models import AdamConfig, GnnParams, _forward, _prepare, softmax


def _sig12(value: float) -> float:
    """Round to at most 12 significant digits for stable serialization.

    A zero, the weight of most pruned edges, is already round and keeps its
    sign without the format and parse.
    """
    if value == 0:
        return float(value)
    return float(f"{value:.12g}")


@dataclass(frozen=True)
class DetectSettings:
    """The settings detection reads, stored in every bundle beside its weights."""

    window_seconds: int = 300
    score_threshold: float = 0.5
    isolate_threshold: float = 0.9
    detect_refine_steps: int = gsl.REFINE_STEPS
    gsl: gsl.GslConfig = field(default_factory=gsl.GslConfig)

    def __post_init__(self):
        if self.window_seconds <= 0:
            raise ValueError(
                f"window_seconds must be positive, got {self.window_seconds}")
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ValueError("score_threshold must lie in [0, 1]")
        if not 0.0 <= self.isolate_threshold <= 1.0:
            raise ValueError("isolate_threshold must lie in [0, 1]")
        if self.detect_refine_steps < 0:
            raise ValueError("detect_refine_steps must be non-negative")


@dataclass(frozen=True)
class PipelineConfig(DetectSettings):
    """Training-side settings: the detect settings, plus how to fit the model.

    ``train`` holds the Adam settings of ``gsl.fit``, whose step count the
    ``gsl`` block sets."""

    gnn_kind: str = "gcn"
    min_nodes: int = MIN_WINDOW_NODES
    seed: int = 0
    train: AdamConfig = field(default_factory=AdamConfig)

    def __post_init__(self):
        if self.gnn_kind not in ("gcn", "sage"):
            raise ValueError("pipeline gnn_kind must be 'gcn' or 'sage'")
        super().__post_init__()
        if self.min_nodes < 1:
            raise ValueError("min_nodes must be positive")


@dataclass(frozen=True, kw_only=True)
class DetectorBundle(DetectSettings):
    """Everything inference needs, persisted as one versioned JSON document.

    A bundle built in code gets the same checks as a loaded one: the detect
    settings, the standardization statistics (finite, and positive
    deviations), every weight's shape against the feature count, and a
    given ``model_version`` against the digest of the weights. An empty one
    is set to that digest.
    """

    FORMAT_VERSION = 2

    params: GnnParams
    zscore_mean: np.ndarray
    zscore_std: np.ndarray
    feature_names: list[str]
    model_version: str = ""

    def __post_init__(self):
        super().__post_init__()
        if self.zscore_mean.shape != self.zscore_std.shape:
            raise ValueError("zscore mean/std shapes disagree")
        for name in ("zscore_mean", "zscore_std"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} contains non-finite entries")
        if np.any(self.zscore_std <= 0):
            raise ValueError("zscore std entries must be positive")
        if len(self.feature_names) != self.zscore_mean.shape[0]:
            raise ValueError("feature_names length disagrees with zscore stats")
        self.params.check_shapes(len(self.feature_names))
        digest = hashlib.sha256(
            json.dumps(codec.encode(self.params), sort_keys=True).encode()
        ).hexdigest()[:12]
        version = f"{self.params.kind}-b{self.FORMAT_VERSION}-{digest}"
        if self.model_version and self.model_version != version:
            raise ValueError(f"model_version {self.model_version!r} does not "
                             f"match the weights, which hash to {version!r}")
        object.__setattr__(self, "model_version", version)

    @classmethod
    def load(cls, path) -> "DetectorBundle":
        return codec.load(path, "detector bundle", cls, level="bundle")


@dataclass
class Alert:
    """One malicious-device finding for one window."""

    window: tuple[float, float]
    device_id: str
    malicious_score: float
    predicted_class: str
    structural_flags: list[dict]
    recommended_action: str
    model_version: str

    def to_json_line(self) -> str:
        doc = {
            "window": [_sig12(self.window[0]), _sig12(self.window[1])],
            "device_id": self.device_id,
            "malicious_score": _sig12(self.malicious_score),
            "predicted_class": self.predicted_class,
            "structural_flags": [
                {
                    "pruned_edge_to": f["pruned_edge_to"],
                    "learned_weight": _sig12(f["learned_weight"]),
                }
                for f in self.structural_flags
            ],
            "recommended_action": self.recommended_action,
            "model_version": self.model_version,
        }
        return json.dumps(doc, separators=(",", ":"))


def train_from_snapshot(snapshot: GraphSnapshot,
                        cfg: PipelineConfig) -> tuple[DetectorBundle, gsl.GslState]:
    """Fit detector weights and structure on one labeled training graph."""
    if snapshot.labels is None:
        raise DataError("training snapshot has no labels")
    if snapshot.n_nodes < cfg.min_nodes:
        raise DataError(
            f"training graph has {snapshot.n_nodes} nodes; need at least {cfg.min_nodes}"
        )
    stats = compute_zscore_stats(snapshot.features)
    features = apply_zscore(snapshot.features, stats)
    _, theta, state = gsl.fit(snapshot.adjacency, features, snapshot.labels,
                              cfg.gnn_kind, cfg.gsl, cfg.train,
                              np.ones(snapshot.n_nodes, dtype=bool), cfg.seed)
    bundle = DetectorBundle(
        params=theta,
        zscore_mean=stats[0],
        zscore_std=stats[1],
        feature_names=list(snapshot.feature_names),
        **{f.name: getattr(cfg, f.name) for f in fields(DetectSettings)},
    )
    return bundle, state


def train_pipeline(csv_path, cfg: PipelineConfig,
                   out_dir) -> tuple[DetectorBundle, gsl.GslState]:
    """Train from a flow CSV and persist the bundle plus fit diagnostics.

    Writes ``bundle.json``, ``objective_history.csv``, and
    ``refine_report.json`` (structure changes with device identifiers) under
    ``out_dir``.
    """
    merged = load_merged_snapshot(csv_path, cfg.window_seconds,
                                  min_nodes=cfg.min_nodes)
    bundle, state = train_from_snapshot(merged, cfg)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    codec.save(bundle, out / "bundle.json", indent=2)
    write_history_csv(state.objective_history, out / "objective_history.csv")
    ids = merged.node_ids
    named = gsl.StructureDiff(**{
        key: [(ids[i], ids[j], _sig12(w)) for i, j, w in pairs]
        for key, pairs in vars(gsl.refine_report(state)).items()})
    codec.save(named, out / "refine_report.json", indent=2)
    return bundle, state


def detect(snapshot: GraphSnapshot, bundle: DetectorBundle) -> list[Alert]:
    """Score one raw-featured snapshot and emit alerts for suspicious nodes.

    Features are standardized with the bundle's training statistics, the
    structure gets ``detect_refine_steps`` label-free refinement steps with
    frozen weights, and every node whose malicious-class probability reaches
    the score threshold produces an alert. Alerts carry the refined-away
    edges touching the node as structural flags, the pairs
    ``gsl.refine_report`` lists as pruned, read for the alerted nodes only.

    The snapshot checked its adjacency and features when it was built, and
    nothing here checks them again. The refined structure is an adjacency
    by construction; ``models._prepare`` checks it for finite entries, as
    it does every structure a fit or training pass reads, before scoring.
    """
    feats = snapshot.features
    if feats.shape[1] != bundle.zscore_mean.shape[0]:
        raise DataError(
            f"snapshot has {feats.shape[1]} features but the bundle expects "
            f"{bundle.zscore_mean.shape[0]}"
        )
    if list(snapshot.feature_names) != list(bundle.feature_names):
        raise DataError("snapshot feature names do not match the bundle")
    features = apply_zscore(feats, (bundle.zscore_mean, bundle.zscore_std))
    params = bundle.params
    refined = gsl.refine_structure(snapshot, features, params, bundle.gsl,
                                   bundle.detect_refine_steps)
    logits, _ = _forward(params, _prepare(params.kind, refined, features))
    scores = softmax(logits)[:, 1]

    # Both matrices are symmetric, so a node's row holds all its pairs.
    adjacency = snapshot.adjacency
    ids = snapshot.node_ids
    alerts = []
    # Every node not below the threshold alerts, a NaN score too.
    for idx in np.flatnonzero(~(scores < bundle.score_threshold)):
        score = float(scores[idx])
        row = refined[idx]
        pruned = (adjacency[idx] > 0) & (row < gsl.PRUNED_WEIGHT)
        flags = sorted(({"pruned_edge_to": ids[j], "learned_weight": float(row[j])}
                        for j in np.flatnonzero(pruned)),
                       key=lambda f: f["pruned_edge_to"])
        action = "isolate" if score >= bundle.isolate_threshold else "notify"
        alerts.append(
            Alert(
                window=snapshot.window,
                device_id=ids[idx],
                malicious_score=score,
                predicted_class="malicious",
                structural_flags=flags,
                recommended_action=action,
                model_version=bundle.model_version,
            )
        )
    return alerts


def run_pipeline(csv_path, bundle_path, out_path, diag=None) -> dict:
    """Replay a flow CSV through the detector, one window at a time.

    Alerts are appended to ``out_path`` as JSON lines ordered by window start
    and then device id; an unwritable ``out_path`` fails before the CSV is
    read. A summary JSON object lands on the diagnostic stream.
    A window that fails to build or score with a ValueError (bad values, or
    a window above the dense ceiling of ``numerics``) or a NumericError is
    logged under its exception class and skipped; any other exception
    propagates. If more than half of the windows fail the run is declared
    unusable.
    """
    diag = diag if diag is not None else sys.stderr
    bundle = DetectorBundle.load(bundle_path)
    # An unwritable output fails here, before any flow is read; appending
    # leaves an existing file as it is if the CSV then fails to parse.
    open(out_path, "a", encoding="utf-8").close()
    flows, stats = parse_flows(csv_path)

    processed = 0
    failed = 0
    alert_count = 0
    failures: list[str] = []
    with open(out_path, "w", encoding="utf-8") as handle:
        for bounds, bucket in window(flows, bundle.window_seconds):
            try:
                window_alerts = detect(build_snapshot(bucket, bounds), bundle)
            except (ValueError, NumericError) as exc:  # logged, window skipped
                failed += 1
                failures.append(f"{type(exc).__name__}: window "
                                f"[{bounds[0]}, {bounds[1]}): {exc}")
                continue
            processed += 1
            for alert in window_alerts:
                handle.write(alert.to_json_line() + "\n")
                alert_count += 1

    summary = {
        "windows_processed": processed,
        "windows_failed": failed,
        "alerts": alert_count,
        "parse_stats": codec.encode(stats),
        "failures": failures,
    }
    print(json.dumps(summary, sort_keys=True), file=diag)
    total = processed + failed
    if total and failed / total > 0.5:
        raise DataError(
            f"{failed} of {total} windows failed; detection run is unusable"
        )
    return summary
