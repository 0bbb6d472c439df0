"""Graph snapshots, spectral helpers, and a seeded block-model generator."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .numerics import make_rng, require_matrix


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
    benign and 1 for malicious nodes. Arrays are copied and frozen, and the
    name lists copied, at construction, so a snapshot never mutates
    underneath its consumers.
    """

    FORMAT_VERSION = 1

    node_ids: list[str]
    adjacency: np.ndarray
    features: np.ndarray
    labels: Optional[np.ndarray] = None
    window: tuple[float, float] = (0.0, 0.0)
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.node_ids = list(self.node_ids)
        self.feature_names = list(self.feature_names)
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
            lab = np.asarray(self.labels)
            if lab.shape != (n,):
                raise ValueError(f"labels must have shape ({n},), got {lab.shape}")
            if lab.size and not np.all((lab == 0) | (lab == 1)):
                raise ValueError("labels must be 0 or 1")
            lab = lab.astype(np.int64)
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

    def __reduce__(self):
        # Unpickling rebuilds the snapshot through the constructor, so one
        # sent to another interpreter is checked and read-only there too.
        return (GraphSnapshot, (self.node_ids, self.adjacency, self.features,
                                self.labels, self.window, self.feature_names))

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)


def _gcn_normalization(s: np.ndarray, row_sum: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degrees of S + I, D^{-1/2}, and D^{-1/2} (S + I) D^{-1/2}, from S and
    its row sums ``row_sum``; ``s`` is not checked.

    The propagation matrix is built in one n x n array with the bits of
    (S + I) * outer(d^{-1/2}, d^{-1/2}): adding 0.0 after the product turns
    the -0.0 that a -0.0 entry of S gives into the +0.0 that -0.0 + 0.0
    gives. (Only a negative entry whose product underflows could tell the
    two apart; an adjacency has none.)
    """
    degree = row_sum + 1.0
    inv_sqrt = 1.0 / np.sqrt(degree)
    s_hat = np.outer(inv_sqrt, inv_sqrt)
    diagonal = (np.diagonal(s) + 1.0) * np.diagonal(s_hat)
    s_hat *= s
    s_hat += 0.0
    np.fill_diagonal(s_hat, diagonal)
    return degree, inv_sqrt, s_hat


def _smoothness(s: np.ndarray, row_sum: np.ndarray, x: np.ndarray) -> float:
    """tr(X^T L X) = sum_i d_i ||x_i||^2 - sum(X * (S X)), with the degrees
    d = ``row_sum``, the row sums of S, and without forming L; nothing is
    checked."""
    sq = np.einsum("ij,ij->i", x, x)
    return float(row_sum @ sq - np.einsum("ij,ij->", x, s @ x))


def smoothness(s, x) -> float:
    """Quadratic feature variation tr(X^T L X) over the graph.

    Equals 0.5 * sum_ij S[i, j] * ||x_i - x_j||^2 for symmetric S, so it is
    non-negative whenever S is non-negative. ``s`` must be an adjacency
    (symmetric, zero diagonal, finite entries in [0, 1]): this checks it and
    the features, then sums the rows of S and calls the formula that
    ``gsl.objective`` shares, which does not form L.
    """
    feats = require_matrix(x, "features")
    arr = _check_adjacency(require_matrix(s, "structure matrix"), "structure matrix")
    if feats.shape[0] != arr.shape[0]:
        raise ValueError(
            f"features has {feats.shape[0]} rows for a {arr.shape[0]}-node graph"
        )
    return _smoothness(arr, arr.sum(axis=1), feats)


@dataclass(frozen=True)
class SbmSpec:
    """Two-block stochastic block model with Gaussian node features.

    Labels are assigned round-robin (node i gets class i mod 2). Same-class
    pairs are wired with probability ``p_in``, cross-class pairs with
    ``p_out``. Feature rows are the class mean (+signal/2 on every coordinate
    for class 0, -signal/2 for class 1) plus N(0, noise_sigma^2) noise.
    """

    n: int = 200
    p_in: float = 0.1
    p_out: float = 0.01
    feature_dim: int = 16
    signal: float = 1.0
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n}")
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
    labels = np.arange(n, dtype=np.int64) % 2

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
