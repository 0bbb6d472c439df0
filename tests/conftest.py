"""Shared fixtures: committed synthetic graphs and flow CSV paths.

The block-model fixtures are regenerated from their specs on every run;
determinism of the generator is itself under test, so the constants here
are the committed ground truth.
"""

import csv

import numpy as np
import pytest
from hypothesis import settings

from gridsentry import gsl, models
from gridsentry.attacks import PerturbationSpec, apply
from gridsentry.experiments import split
from gridsentry.graphs import SbmSpec, sbm_generate
from gridsentry.numerics import require_matrix

from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"

# Property tests draw the same examples on every run and have no per-example
# time limit, so a slow or loaded machine neither fails them on time nor
# draws examples that a rerun cannot repeat.
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")

# Main regression fixture for the structure optimizer: dense enough for the
# attack to have room, features strong enough that pruning is identifiable.
SBM60 = SbmSpec(n=60, p_in=0.25, p_out=0.02, feature_dim=8,
                signal=1.5, noise_sigma=0.8, seed=7)

# Harsher-features variant used by the evasion drop check.
SBM60_SHARP = SbmSpec(n=60, p_in=0.2, p_out=0.02, feature_dim=8,
                      signal=2.0, noise_sigma=1.0, seed=7)

# Small graph for the step-by-step descent check.
SBM12 = SbmSpec(n=12, p_in=0.8, p_out=0.1, feature_dim=4,
                signal=1.5, noise_sigma=0.5, seed=11)

DICE_HALF = PerturbationSpec(kind="poisoning", rate=0.5, structure_mode="dice",
                             seed=7)


@pytest.fixture(scope="session")
def sbm60():
    return sbm_generate(SBM60)


@pytest.fixture(scope="session")
def sbm60_sharp():
    return sbm_generate(SBM60_SHARP)


@pytest.fixture(scope="session")
def sbm12():
    return sbm_generate(SBM12)


@pytest.fixture(scope="session")
def poisoned60(sbm60):
    return apply(sbm60, DICE_HALF, phase="training")


@pytest.fixture(scope="session")
def masks60(sbm60):
    return split(sbm60.labels, 0.8, seed=7)


@pytest.fixture(scope="session")
def flows_train_csv():
    return DATA_DIR / "flows_train.csv"


@pytest.fixture(scope="session")
def flows_detect_csv():
    return DATA_DIR / "flows_detect.csv"


def without_column(src, dst, name):
    """Copy the flow CSV ``src`` to ``dst`` without the column ``name``."""
    with open(src, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    k = rows[0].index(name)
    with open(dst, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(
            row[:k] + row[k + 1:] for row in rows)


def random_symmetric(n, seed, density=0.5):
    """Non-negative symmetric zero-diagonal test matrix."""
    rng = np.random.default_rng(seed)
    raw = rng.random((n, n)) * (rng.random((n, n)) < density)
    sym = np.triu(raw, k=1)
    return sym + sym.T


def normalized_adjacency(s):
    """The GCN's propagation matrix D^{-1/2} (S + I) D^{-1/2}, D the row sums
    of S + I, as three array operations: the oracle for the package's
    in-place build."""
    inv_sqrt = 1.0 / np.sqrt(s.sum(axis=1) + 1.0)
    return (s + np.eye(len(s))) * np.outer(inv_sqrt, inv_sqrt)


def reference_logits(kind, s, x, w):
    """A GCN's or GraphSAGE's logits with each product grouped as written:
    S_hat (X W1) and S_hat (H W2) for the GCN, the row means of S X and of
    S H for GraphSAGE (0 on an isolated row)."""
    if kind == "gcn":
        s_hat = normalized_adjacency(s)
        h = np.maximum(s_hat @ (x @ w["w1"]), 0.0)
        return s_hat @ (h @ w["w2"])
    row_sum = s.sum(axis=1, keepdims=True)
    safe = np.where(row_sum > 0, row_sum, 1.0)

    def mean(m):
        return np.where(row_sum > 0, (s @ m) / safe, 0.0)

    h = np.maximum(x @ w["w1_self"] + mean(x) @ w["w1_neigh"], 0.0)
    return h @ w["w2_self"] + mean(h) @ w["w2_neigh"]


def masked_cross_entropy(logits, labels, mask):
    """Mean negative log-likelihood over the masked nodes, from the package's
    own loss helpers: the oracle for ``models._loss_grad_logits``."""
    logits = require_matrix(logits, "logits")
    rows, picked = models._targets(labels, mask, len(logits))
    shifted, _, total = models._shifted_exp(logits.take(rows, axis=0))
    return models._mean_nll(shifted, total, picked)


def copy_params(params):
    """``params`` with its weights copied, so a probe can edit them in place."""
    return models.GnnParams(kind=params.kind,
                            weights={k: w.copy() for k, w in params.weights.items()})


def reference_loss(logits, labels, mask):
    """Mean cross-entropy of the masked rows, by log-softmax."""
    z = logits[mask] - logits[mask].max(axis=1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -log_p[np.arange(len(z)), np.asarray(labels)[mask]].mean()


def _task_pass(s, x, labels, mask, params, structure):
    prop = models._prepare(params.kind, s, np.asarray(x, dtype=np.float64))
    targets = models._targets(labels, mask, np.shape(s)[0])
    return models._gradients(prop, targets, params, structure=structure)


def task_loss(s, x, labels, mask, params):
    """The task loss at ``s``, as ``gsl.fit`` records it from
    ``models._gradients``."""
    return _task_pass(s, x, labels, mask, params, False)[0]


def task_factors(s, x, labels, mask, params):
    """The structure-gradient factors of the task loss at ``s``, as ``gsl.fit``
    takes them from ``models._gradients``; None for the MLP."""
    return _task_pass(s, x, labels, mask, params, True)[2]


def objective_at(s, a, signal, task, cfg):
    """``gsl.objective`` at ``s``, with the row sums and S - A it takes formed
    here as ``gsl.fit`` forms them."""
    return gsl.objective(s, s.sum(axis=1), s - a, signal, task, cfg)


def dense_structure_gradient(s, x, labels, mask, params):
    """The symmetrized task gradient for the raw structure, (G + G^T) / 2,
    multiplied out from ``task_factors``; zero for the MLP. Under a
    symmetric perturbation of the pair (i, j), (j, i) the directional
    derivative is twice the off-diagonal entry."""
    factors = task_factors(s, x, labels, mask, params)
    if factors is None:
        return np.zeros(np.shape(s))
    grad = factors.u @ factors.v.T + factors.r[:, None]
    return (grad + grad.T) / 2.0
