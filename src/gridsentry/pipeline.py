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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import codec, gsl
from .errors import DataError, NumericError, load_json_object
from .flows import (FeatureConfig, apply_zscore, build_snapshot,
                    compute_zscore_stats, parse_flows, window)
from .graphs import GraphSnapshot
from .models import GnnParams, TrainConfig, model_logits, softmax
from .numerics import require_matrix

BUNDLE_FORMAT_VERSION = 1

DEFAULT_SCORE_THRESHOLD = 0.5
DEFAULT_ISOLATE_THRESHOLD = 0.9
DEFAULT_REFINE_STEPS = 20
MIN_TRAIN_NODES = 10


def _sig12(value: float) -> float:
    """Round to at most 12 significant digits for stable serialization."""
    return float(f"{value:.12g}")


@dataclass(frozen=True)
class PipelineConfig:
    """Training-side settings for the detection pipeline."""

    window_seconds: int = 300
    gnn_kind: str = "gcn"
    min_nodes: int = MIN_TRAIN_NODES
    score_threshold: float = DEFAULT_SCORE_THRESHOLD
    isolate_threshold: float = DEFAULT_ISOLATE_THRESHOLD
    detect_refine_steps: int = DEFAULT_REFINE_STEPS
    seed: int = 0
    gsl: gsl.GslConfig = field(default_factory=gsl.GslConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.gnn_kind not in ("gcn", "sage"):
            raise ValueError("pipeline gnn_kind must be 'gcn' or 'sage'")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ValueError("score_threshold must lie in [0, 1]")
        if not 0.0 <= self.isolate_threshold <= 1.0:
            raise ValueError("isolate_threshold must lie in [0, 1]")
        if self.detect_refine_steps < 0:
            raise ValueError("detect_refine_steps must be non-negative")
        if self.min_nodes < 1:
            raise ValueError("min_nodes must be positive")

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        return codec.decode(cls, doc, "pipeline")


@dataclass
class DetectorBundle:
    """Everything inference needs, persisted as one versioned JSON document."""

    params: GnnParams
    gsl_cfg: gsl.GslConfig
    zscore_mean: np.ndarray
    zscore_std: np.ndarray
    feature_names: list[str]
    window_seconds: int
    score_threshold: float = DEFAULT_SCORE_THRESHOLD
    isolate_threshold: float = DEFAULT_ISOLATE_THRESHOLD
    detect_refine_steps: int = DEFAULT_REFINE_STEPS
    model_version: str = ""
    format_version: int = BUNDLE_FORMAT_VERSION

    def __post_init__(self):
        self.zscore_mean = np.asarray(self.zscore_mean, dtype=np.float64)
        self.zscore_std = np.asarray(self.zscore_std, dtype=np.float64)
        if self.zscore_mean.shape != self.zscore_std.shape:
            raise ValueError("zscore mean/std shapes disagree")
        if np.any(self.zscore_std <= 0):
            raise ValueError("zscore std entries must be positive")
        if len(self.feature_names) != self.zscore_mean.shape[0]:
            raise ValueError("feature_names length disagrees with zscore stats")
        if not self.model_version:
            digest = hashlib.sha256(
                json.dumps(self.params.to_dict(), sort_keys=True).encode()
            ).hexdigest()[:12]
            self.model_version = f"{self.params.kind}-b{self.format_version}-{digest}"

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "model_version": self.model_version,
            "params": self.params.to_dict(),
            "gsl": codec.encode(self.gsl_cfg),
            "zscore_mean": self.zscore_mean.tolist(),
            "zscore_std": self.zscore_std.tolist(),
            "feature_names": list(self.feature_names),
            "window_seconds": self.window_seconds,
            "score_threshold": self.score_threshold,
            "isolate_threshold": self.isolate_threshold,
            "detect_refine_steps": self.detect_refine_steps,
        }

    def save(self, path) -> None:
        text = json.dumps(self.to_dict(), sort_keys=True, indent=2)
        Path(path).write_text(text + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "DetectorBundle":
        return load_json_object(path, "detector bundle", cls.from_dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "DetectorBundle":
        if doc.get("format_version") != BUNDLE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported bundle format_version {doc.get('format_version')!r}"
            )
        return cls(
            params=GnnParams.from_dict(doc["params"]),
            gsl_cfg=codec.decode(gsl.GslConfig, doc["gsl"], "gsl"),
            zscore_mean=np.asarray(doc["zscore_mean"], dtype=np.float64),
            zscore_std=np.asarray(doc["zscore_std"], dtype=np.float64),
            feature_names=list(doc["feature_names"]),
            window_seconds=int(doc["window_seconds"]),
            score_threshold=float(doc["score_threshold"]),
            isolate_threshold=float(doc["isolate_threshold"]),
            detect_refine_steps=int(doc["detect_refine_steps"]),
            model_version=str(doc["model_version"]),
        )


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
        gsl_cfg=cfg.gsl,
        zscore_mean=stats[0],
        zscore_std=stats[1],
        feature_names=list(snapshot.feature_names),
        window_seconds=cfg.window_seconds,
        score_threshold=cfg.score_threshold,
        isolate_threshold=cfg.isolate_threshold,
        detect_refine_steps=cfg.detect_refine_steps,
    )
    return bundle, state


def train_pipeline(csv_path, cfg: PipelineConfig,
                   out_dir) -> tuple[DetectorBundle, gsl.GslState]:
    """Train from a flow CSV and persist the bundle plus fit diagnostics.

    Writes ``bundle.json``, ``objective_history.csv``, and
    ``refine_report.json`` (structure changes with device identifiers) under
    ``out_dir``.
    """
    from .experiments import load_merged_snapshot, write_history_csv

    merged = load_merged_snapshot(csv_path, cfg.window_seconds,
                                  min_nodes=cfg.min_nodes)
    bundle, state = train_from_snapshot(merged, cfg)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle.save(out / "bundle.json")
    write_history_csv(state.objective_history, out / "objective_history.csv")
    diff = gsl.refine_report(state)
    named = {
        "pruned": [[merged.node_ids[i], merged.node_ids[j], _sig12(w)]
                   for i, j, w in diff.pruned],
        "added": [[merged.node_ids[i], merged.node_ids[j], _sig12(w)]
                  for i, j, w in diff.added],
    }
    (out / "refine_report.json").write_text(
        json.dumps(named, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return bundle, state


def detect(snapshot: GraphSnapshot, bundle: DetectorBundle) -> list[Alert]:
    """Score one raw-featured snapshot and emit alerts for suspicious nodes.

    Features are standardized with the bundle's training statistics, the
    structure gets ``detect_refine_steps`` label-free refinement steps with
    frozen weights, and every node whose malicious-class probability reaches
    the score threshold produces an alert. Alerts carry the refined-away
    edges touching the node as structural flags.
    """
    feats = require_matrix(snapshot.features, "snapshot features")
    if feats.shape[1] != bundle.zscore_mean.shape[0]:
        raise DataError(
            f"snapshot has {feats.shape[1]} features but the bundle expects "
            f"{bundle.zscore_mean.shape[0]}"
        )
    if list(snapshot.feature_names) != list(bundle.feature_names):
        raise DataError("snapshot feature names do not match the bundle")
    features = apply_zscore(feats, (bundle.zscore_mean, bundle.zscore_std))
    refined = gsl.refine_structure(snapshot.adjacency, features, bundle.params,
                                   bundle.gsl_cfg, bundle.detect_refine_steps)
    scores = softmax(model_logits(bundle.params, refined, features))[:, 1]

    diff = gsl.refine_report(gsl.GslState(s=refined, a=snapshot.adjacency,
                                          theta=bundle.params))
    flags_by_node: dict[int, list[dict]] = {}
    for i, j, weight in diff.pruned:
        flags_by_node.setdefault(i, []).append(
            {"pruned_edge_to": snapshot.node_ids[j], "learned_weight": weight}
        )
        flags_by_node.setdefault(j, []).append(
            {"pruned_edge_to": snapshot.node_ids[i], "learned_weight": weight}
        )

    alerts = []
    for idx, device in enumerate(snapshot.node_ids):
        score = float(scores[idx])
        if score < bundle.score_threshold:
            continue
        flags = sorted(flags_by_node.get(idx, ()),
                       key=lambda f: f["pruned_edge_to"])
        action = "isolate" if score >= bundle.isolate_threshold else "notify"
        alerts.append(
            Alert(
                window=snapshot.window,
                device_id=device,
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
    and then device id. A summary JSON object lands on the diagnostic stream.
    A window that fails to build or score with a ValueError (bad values, or
    a window above the dense ceiling of ``numerics``) or a NumericError is
    logged under its exception class and skipped; any other exception
    propagates. If more than half of the windows fail the run is declared
    unusable.
    """
    diag = diag if diag is not None else sys.stderr
    bundle = DetectorBundle.load(bundle_path)
    records, stats = parse_flows(csv_path)

    windows = []
    if records:
        windows = window(records, FeatureConfig(window_seconds=bundle.window_seconds))

    processed = 0
    failed = 0
    alert_count = 0
    out = Path(out_path)
    failures: list[str] = []
    with open(out, "w", encoding="utf-8") as handle:
        for bounds, bucket in windows:
            try:
                snapshot = build_snapshot(
                    bucket, FeatureConfig(window_seconds=bundle.window_seconds)
                )
                window_alerts = detect(snapshot, bundle)
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
        "parse_stats": stats.to_dict(),
        "failures": failures,
    }
    print(json.dumps(summary, sort_keys=True), file=diag)
    total = processed + failed
    if total and failed / total > 0.5:
        raise DataError(
            f"{failed} of {total} windows failed; detection run is unusable"
        )
    return summary
