"""Seeded structure and feature perturbations for robustness experiments.

An attack only perturbs: :func:`apply` edits the graph it is given and
returns the copy. Whether that graph is the one a model trains on
(poisoning) or the one it is scored on (evasion) is the grid's
``attack_kind``, decided in ``experiments``. Structure edits come in two
modes: ``random`` flips uniformly chosen node pairs, ``dice`` deletes
same-label edges and inserts cross-label edges, which is the classic
label-aware heuristic. Every edit is returned in a receipt so experiments
can reconcile exactly what changed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .graphs import GraphSnapshot, _check_adjacency
from .numerics import make_rng, require_matrix

STRUCTURE_MODES = ("random", "dice")


@dataclass(frozen=True)
class PerturbationSpec:
    """What to perturb and how much; not when, which is the grid's choice.

    ``rate`` scales the edge budget: exactly floor(rate * edge_count) pairs
    are modified. ``feature_fraction`` defaults to the rate; Gaussian noise
    with ``feature_sigma`` is added to that fraction of node feature rows.
    ``perturb_structure`` and ``perturb_features`` each seed a generator
    with the same ``seed``, so their edge and feature-row choices are
    correlated, not independent.
    """

    rate: float = 0.0
    structure_mode: str = "dice"
    feature_sigma: float = 0.5
    feature_fraction: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.structure_mode not in STRUCTURE_MODES:
            raise ValueError(
                f"structure_mode must be one of {STRUCTURE_MODES}, got {self.structure_mode!r}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {self.rate}")
        if self.feature_sigma < 0:
            raise ValueError("feature_sigma must be non-negative")
        if self.feature_fraction is not None and not 0.0 <= self.feature_fraction <= 1.0:
            raise ValueError("feature_fraction must lie in [0, 1]")

    @property
    def effective_feature_fraction(self) -> float:
        return self.rate if self.feature_fraction is None else self.feature_fraction


@dataclass
class PerturbationReceipt:
    """Exact record of one perturbation; replaying it reproduces the output."""

    edges_added: list[tuple[int, int]] = field(default_factory=list)
    edges_removed: list[tuple[int, int]] = field(default_factory=list)
    nodes_feature_perturbed: list[int] = field(default_factory=list)


def _flip(out: np.ndarray, rows: np.ndarray, cols: np.ndarray,
          value: float) -> list[tuple[int, int]]:
    """Set the symmetric pairs (rows, cols) of ``out`` to ``value``; the pairs, sorted."""
    out[rows, cols] = out[cols, rows] = value
    return sorted(zip(rows.tolist(), cols.tolist()))


def perturb_structure(a: np.ndarray, labels: Optional[np.ndarray],
                      spec: PerturbationSpec) -> tuple[np.ndarray, PerturbationReceipt]:
    """Flip exactly floor(rate * edge_count) node pairs, seeded by the spec.

    ``random`` mode flips distinct uniformly-drawn pairs (edge -> removed,
    non-edge -> added). ``dice`` mode adds ceil(k/2) cross-label edges and
    removes floor(k/2) same-label edges. Raises when the candidate pools are
    too small for the requested budget.
    """
    a = _check_adjacency(require_matrix(a, "adjacency"))
    if not np.all((a == 0) | (a == 1)):
        raise ValueError("structure perturbation needs a binary adjacency")
    n = a.shape[0]
    m = int(round(np.triu(a, k=1).sum()))
    k = int(math.floor(spec.rate * m))
    out = a.copy()
    if k == 0:
        return out, PerturbationReceipt()

    rng = make_rng(spec.seed)
    if spec.structure_mode == "random":
        n_pairs = n * (n - 1) // 2
        if k > n_pairs:
            raise ValueError(
                f"random mode needs {k} candidate pairs, only {n_pairs} exist"
            )
        # Linear index over the row-major upper triangle.
        chosen = rng.choice(n_pairs, size=k, replace=False)
        rows, cols = (idx[chosen] for idx in np.triu_indices(n, k=1))
        edge = a[rows, cols] > 0
        return out, PerturbationReceipt(
            edges_added=_flip(out, rows[~edge], cols[~edge], 1.0),
            edges_removed=_flip(out, rows[edge], cols[edge], 0.0),
        )

    if labels is None:
        raise ValueError("dice mode needs node labels")
    labels = np.asarray(labels, dtype=np.int64)
    n_add = (k + 1) // 2
    n_remove = k // 2
    same = labels[:, None] == labels[None, :]
    add_rows, add_cols = np.nonzero(np.triu((a == 0) & ~same, k=1))
    remove_rows, remove_cols = np.nonzero(np.triu((a == 1) & same, k=1))
    if add_rows.size < n_add:
        raise ValueError(
            f"dice mode needs {n_add} cross-label non-edges, "
            f"only {add_rows.size} available"
        )
    if remove_rows.size < n_remove:
        raise ValueError(
            f"dice mode needs {n_remove} same-label edges, "
            f"only {remove_rows.size} available"
        )
    add = rng.choice(add_rows.size, size=n_add, replace=False)
    remove = rng.choice(remove_rows.size, size=n_remove, replace=False)
    return out, PerturbationReceipt(
        edges_added=_flip(out, add_rows[add], add_cols[add], 1.0),
        edges_removed=_flip(out, remove_rows[remove], remove_cols[remove], 0.0),
    )


def perturb_features(x: np.ndarray, spec: PerturbationSpec) -> tuple[np.ndarray, list[int]]:
    """Add N(0, feature_sigma^2) noise to a seeded fraction of feature rows."""
    x = require_matrix(x, "features")
    n = x.shape[0]
    count = int(math.floor(spec.effective_feature_fraction * n))
    out = x.copy()
    if count == 0:
        return out, []
    rng = make_rng(spec.seed)
    chosen = sorted(int(i) for i in rng.choice(n, size=count, replace=False))
    if spec.feature_sigma > 0:
        out[chosen] += rng.standard_normal((count, x.shape[1])) * spec.feature_sigma
    return out, chosen


def apply(snapshot: GraphSnapshot,
          spec: PerturbationSpec) -> tuple[GraphSnapshot, PerturbationReceipt]:
    """Perturb the structure and the features of ``snapshot`` as ``spec`` says.

    Returns the perturbed copy and the receipt of every edit. Raises
    ValueError when the snapshot cannot take the attack: a non-binary
    adjacency, no labels under ``dice``, or too few candidate pairs.
    """
    adjacency, receipt = perturb_structure(snapshot.adjacency, snapshot.labels, spec)
    features, nodes = perturb_features(snapshot.features, spec)
    receipt.nodes_feature_perturbed = nodes
    return replace(snapshot, adjacency=adjacency, features=features), receipt
