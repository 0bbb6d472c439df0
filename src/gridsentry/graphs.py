"""Graph snapshots, spectral helpers, and a seeded block-model generator."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import load_json_object
from .numerics import make_rng, require_matrix

SNAPSHOT_FORMAT_VERSION = 1


def _check_adjacency(a: np.ndarray, name: str = "adjacency") -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError(f"{name} must be symmetric")
    if np.any(np.diagonal(a) != 0.0):
        raise ValueError(f"{name} must have a zero diagonal")
    if a.size and (a.min() < 0.0 or a.max() > 1.0):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    return a


@dataclass
class GraphSnapshot:
    """One time-windowed device communication graph.

    ``adjacency`` is symmetric with zero diagonal and entries in [0, 1];
    ``features`` holds one row per node; ``labels``, when present, are 0 for
    benign and 1 for malicious nodes. Arrays are copied and frozen at
    construction, so a snapshot never mutates underneath its consumers.
    """

    node_ids: list[str]
    adjacency: np.ndarray
    features: np.ndarray
    labels: Optional[np.ndarray] = None
    window: tuple[float, float] = (0.0, 0.0)
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        n = len(self.node_ids)
        if len(set(self.node_ids)) != n:
            raise ValueError("node_ids must be unique")
        adj = require_matrix(self.adjacency, "adjacency").copy()
        _check_adjacency(adj)
        if adj.shape[0] != n:
            raise ValueError(
                f"adjacency is {adj.shape[0]}x{adj.shape[0]} but there are {n} node ids"
            )
        feats = require_matrix(self.features, "features").copy()
        if feats.shape[0] != n:
            raise ValueError(f"features has {feats.shape[0]} rows for {n} nodes")
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64).copy()
            if lab.shape != (n,):
                raise ValueError(f"labels must have shape ({n},), got {lab.shape}")
            if lab.size and not np.all((lab == 0) | (lab == 1)):
                raise ValueError("labels must be 0 or 1")
            lab.setflags(write=False)
            self.labels = lab
        start, end = float(self.window[0]), float(self.window[1])
        if not (math.isfinite(start) and math.isfinite(end)) or end < start:
            raise ValueError(f"bad window bounds {self.window}")
        self.window = (start, end)
        if not self.feature_names:
            self.feature_names = [f"f{j:02d}" for j in range(feats.shape[1])]
        if len(self.feature_names) != feats.shape[1]:
            raise ValueError(
                f"{len(self.feature_names)} feature names for {feats.shape[1]} columns"
            )
        adj.setflags(write=False)
        feats.setflags(write=False)
        self.adjacency = adj
        self.features = feats

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def to_dict(self) -> dict:
        return {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "node_ids": list(self.node_ids),
            "adjacency": self.adjacency.tolist(),
            "features": self.features.tolist(),
            "labels": None if self.labels is None else self.labels.tolist(),
            "window": [self.window[0], self.window[1]],
            "feature_names": list(self.feature_names),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GraphSnapshot":
        version = doc.get("format_version")
        if version != SNAPSHOT_FORMAT_VERSION:
            raise ValueError(f"unsupported snapshot format_version {version!r}")
        labels = doc.get("labels")
        return cls(
            node_ids=list(doc["node_ids"]),
            adjacency=np.asarray(doc["adjacency"], dtype=np.float64),
            features=np.asarray(doc["features"], dtype=np.float64),
            labels=None if labels is None else np.asarray(labels, dtype=np.int64),
            window=(float(doc["window"][0]), float(doc["window"][1])),
            feature_names=list(doc["feature_names"]),
        )


def save_snapshot(snapshot: GraphSnapshot, path) -> None:
    """Canonical JSON on disk: sorted keys, compact separators, newline at end."""
    text = json.dumps(snapshot.to_dict(), sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_snapshot(path) -> GraphSnapshot:
    """Read a snapshot file; one that cannot be read or built from is a DataError."""
    return load_json_object(path, "snapshot", GraphSnapshot.from_dict)


def _gcn_normalization(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degrees of S + I, D^{-1/2}, and D^{-1/2} (S + I) D^{-1/2}; ``s`` is not checked."""
    degree = s.sum(axis=1) + 1.0
    inv_sqrt = 1.0 / np.sqrt(degree)
    return degree, inv_sqrt, (s + np.eye(s.shape[0])) * np.outer(inv_sqrt, inv_sqrt)


def normalized_adjacency(s) -> np.ndarray:
    """Degree-normalized propagation matrix with self-loops.

    Returns D^{-1/2} (S + I) D^{-1/2} where D is the diagonal of row sums of
    S + I. The self-loop keeps every degree >= 1, so no division can blow up.
    """
    arr = require_matrix(s, "structure matrix")
    return _gcn_normalization(_check_adjacency(arr, "structure matrix"))[2]


def laplacian(s) -> np.ndarray:
    """Unnormalized graph Laplacian D - S."""
    arr = require_matrix(s, "structure matrix")
    _check_adjacency(arr, "structure matrix")
    return np.diag(arr.sum(axis=1)) - arr


def smoothness(s, x) -> float:
    """Quadratic feature variation tr(X^T L X) over the graph.

    Equals 0.5 * sum_ij S[i, j] * ||x_i - x_j||^2 for symmetric S, so it is
    non-negative whenever S is non-negative.
    """
    feats = require_matrix(x, "features")
    lap = laplacian(s)
    if feats.shape[0] != lap.shape[0]:
        raise ValueError(
            f"features has {feats.shape[0]} rows for a {lap.shape[0]}-node graph"
        )
    return float(np.trace(feats.T @ lap @ feats))


@dataclass(frozen=True)
class SbmSpec:
    """Two-block stochastic block model with Gaussian node features.

    Labels are assigned round-robin (node i gets class i mod 2). Same-class
    pairs are wired with probability ``p_in``, cross-class pairs with
    ``p_out``. Feature rows are the class mean (+signal/2 on every coordinate
    for class 0, -signal/2 for class 1) plus N(0, noise_sigma^2) noise.
    """

    n: int = 200
    classes: int = 2
    p_in: float = 0.1
    p_out: float = 0.01
    feature_dim: int = 16
    signal: float = 1.0
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n}")
        if self.classes != 2:
            raise ValueError("only two-class generation is supported")
        if not (0.0 <= self.p_out < self.p_in <= 1.0):
            raise ValueError(
                f"need 0 <= p_out < p_in <= 1, got p_in={self.p_in} p_out={self.p_out}"
            )
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")


def sbm_generate(spec: SbmSpec) -> GraphSnapshot:
    """Sample one labeled snapshot from the block model, deterministically per seed.

    Draw order is fixed: one uniform per node pair (row-major upper triangle),
    then the full feature-noise block.
    """
    rng = make_rng(spec.seed)
    n = spec.n
    labels = np.arange(n, dtype=np.int64) % spec.classes

    rows, cols = np.triu_indices(n, 1)
    draws = rng.random(rows.size)
    hit = draws < np.where(labels[rows] == labels[cols], spec.p_in, spec.p_out)
    adj = np.zeros((n, n))
    adj[rows[hit], cols[hit]] = adj[cols[hit], rows[hit]] = 1.0

    means = np.where(labels[:, None] == 0, spec.signal / 2.0, -spec.signal / 2.0)
    feats = means * np.ones((n, spec.feature_dim))
    feats = feats + rng.standard_normal((n, spec.feature_dim)) * spec.noise_sigma

    return GraphSnapshot(
        node_ids=[f"dev{i:04d}" for i in range(n)],
        adjacency=adj,
        features=feats,
        labels=labels,
        window=(0.0, 300.0),
    )
