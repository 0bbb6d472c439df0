"""Joint optimization of graph structure and classifier parameters.

The observed adjacency is treated as untrusted: classifier updates alternate
with proximal structure updates that pull the working structure matrix toward
a sparse, low-rank graph that is smooth in a node signal Z and anchored near
the observation. The objective is

    task loss
    + alpha_nuclear * ||S||_*          (low rank)
    + alpha_l1 * ||S||_1               (sparsity)
    + beta_smooth * tr(Z^T L_S Z)      (smoothness of the node signal Z)
    + lambda_prox * ||S - A||_F^2      (anchor to the observed graph)

and one structure step is a gradient step on the smooth terms followed by the
two proximal maps and a projection back onto symmetric [0, 1] matrices with a
zero diagonal.

Z defaults to the node features, the classic feature-smoothness prior. ``fit``
and ``refine_structure`` measure smoothness on class beliefs instead (see
``class_beliefs``): an edge whose endpoints are believed to sit in different
classes pays up to ``beta_smooth``, an edge inside one class pays nothing. On
raw features the pull grows with feature dimension and noise and cannot tell
an attacker's cross-class edge from a genuine one once features are weak;
beliefs are probabilities, so the same weights hold at any feature scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import NumericError
from .graphs import smoothness
from .models import (AdamState, GnnParams, TrainConfig, _check_mask, _prepare,
                     _Propagation, adam_step, backward, init_params,
                     masked_cross_entropy, model_logits, own_logits, softmax)
from .numerics import (nuclear_norm, require_matrix, soft_threshold, svt,
                       symmetrize_clamp)

# refine_report weight thresholds: an original edge whose learned weight
# falls below PRUNED_WEIGHT counts as pruned, a non-edge rising above
# ADDED_WEIGHT counts as added.
PRUNED_WEIGHT = 0.1
ADDED_WEIGHT = 0.5


@dataclass(frozen=True)
class GslConfig:
    """Weights and schedule for the alternating optimization.

    ``alpha_nuclear``, ``alpha_l1`` and ``lambda_prox`` were tuned on the
    60-node two-block test fixture (8 features, signal 1.5, noise 0.8);
    ``beta_smooth`` and ``eta_s`` were set on the 200-node block models of
    the acceptance gate and on the detect path. Because ``fit`` and
    refinement measure smoothness on class beliefs, which lie in [0, 1], no
    weight scales with feature dimension or noise: an edge whose endpoints'
    beliefs disagree completely is pushed down with ``beta_smooth`` = 0.5,
    more than the anchor's largest restoring pull 2 * ``lambda_prox`` = 0.3,
    so it is cut, while an edge inside one believed class keeps its anchor.
    At ``eta_s`` = 0.2 the cut edge falls below the pruning weight 0.1
    within 13 steps even without the sparsity terms, inside the default
    detect-time budget of 20. ``eta_s = 0``
    freezes the structure entirely, which reduces ``fit`` to plain
    classifier training.
    """

    alpha_nuclear: float = 0.25
    alpha_l1: float = 5e-4
    beta_smooth: float = 0.5
    lambda_prox: float = 0.15
    eta_s: float = 0.2
    inner_theta_steps: int = 5
    outer_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha_nuclear", "alpha_l1", "beta_smooth", "lambda_prox"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.eta_s < 0:
            raise ValueError("eta_s must be non-negative")
        if self.inner_theta_steps < 0 or self.outer_iters < 0:
            raise ValueError("iteration counts must be non-negative")


class ObjectiveParts(NamedTuple):
    """Weighted objective terms as they enter the total."""

    total: float
    task: float
    nuclear: float
    l1: float
    smooth: float
    prox: float


@dataclass
class GslState:
    """Working state of one fit: current structure, anchor, and parameters."""

    s: np.ndarray
    a: np.ndarray
    theta: GnnParams
    iteration: int = 0
    objective_history: list[ObjectiveParts] = field(default_factory=list)
    # Node signal the smoothness term is measured on; None means the features.
    signal: Optional[np.ndarray] = None


def objective(s, theta: GnnParams, x: np.ndarray, labels: np.ndarray,
              mask, a: np.ndarray, cfg: GslConfig,
              signal: Optional[np.ndarray] = None) -> ObjectiveParts:
    """Evaluate every objective term; weights of zero skip their computation.

    ``s`` is the structure matrix, raw or prepared for ``theta``'s kind
    (``models._prepare``). The smoothness term is measured on ``signal``, the
    features when omitted.
    """
    signal = x if signal is None else signal
    task = masked_cross_entropy(model_logits(theta, s, x), labels, mask)
    if isinstance(s, _Propagation):
        s = s.s
    nuclear = 0.0
    if cfg.alpha_nuclear > 0:
        nuclear = cfg.alpha_nuclear * nuclear_norm(s)
    l1 = cfg.alpha_l1 * float(np.abs(s).sum()) if cfg.alpha_l1 > 0 else 0.0
    smooth = cfg.beta_smooth * smoothness(s, signal) if cfg.beta_smooth > 0 else 0.0
    prox = cfg.lambda_prox * float(((s - a) ** 2).sum()) if cfg.lambda_prox > 0 else 0.0
    total = task + nuclear + l1 + smooth + prox
    if not math.isfinite(total):
        raise NumericError(
            f"non-finite objective: task={task} nuclear={nuclear} l1={l1} "
            f"smooth={smooth} prox={prox}"
        )
    return ObjectiveParts(total, task, nuclear, l1, smooth, prox)


def _half_sq_dists(x: np.ndarray) -> np.ndarray:
    """Pairwise 0.5 * ||x_i - x_j||^2, the smoothness gradient for symmetric S."""
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    return 0.5 * d2


def _sigmoid(t: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def _fit_logistic(features: np.ndarray, targets: np.ndarray,
                  iters: int = 25, ridge: float = 1.0) -> np.ndarray:
    """Ridge-penalized logistic regression by at most ``iters`` Newton steps."""
    coef = np.zeros(features.shape[1])
    for _ in range(iters):
        p = _sigmoid(features @ coef)
        grad = features.T @ (p - targets) + ridge * coef
        hess = (features * (p * (1.0 - p))[:, None]).T @ features \
            + ridge * np.eye(features.shape[1])
        step = np.linalg.solve(hess, grad)
        coef = coef - step
        if np.abs(step).max() <= 1e-12:
            break
    return coef


def class_beliefs(theta: GnnParams, a: np.ndarray, x: np.ndarray,
                  labels: Optional[np.ndarray] = None, mask=None) -> np.ndarray:
    """Per-node class probabilities, the signal ``fit`` and refinement smooth.

    The classifier's reading of each node's own features (the model applied
    on an empty graph) is the evidence that needs no labels; without labels
    (inference time) the beliefs are its softmax. With labels, masked nodes
    are pinned to their one-hot label and every other node combines its own
    logit margin with the label vote of its labelled neighbours in ``a``,
    sum_j a_ij (2 y_j - 1). The combination is a logistic regression fitted
    on the masked nodes, so strong features outweigh a poisoned neighbourhood
    and weak features defer to it.
    """
    if mask is None:
        return softmax(own_logits(theta, x))
    m = np.asarray(mask, dtype=bool)
    labels = np.asarray(labels, dtype=np.int64)
    p = labels.astype(np.float64)
    if not m.all():
        own = own_logits(theta, x)
        vote = a[:, m] @ (2.0 * labels[m] - 1.0)
        evidence = np.column_stack([own[:, 1] - own[:, 0], vote, np.ones(len(m))])
        coef = _fit_logistic(evidence[m], p[m])
        p[~m] = _sigmoid(evidence[~m] @ coef)
    return np.column_stack([1.0 - p, p])


def _structure_gradient(state: GslState, x: np.ndarray, labels: Optional[np.ndarray],
                        mask, cfg: GslConfig, propagation: Optional[_Propagation],
                        smooth_grad: Optional[np.ndarray]) -> np.ndarray:
    """Gradient of the smooth objective terms at ``state.s``; see ``structure_step``."""
    s, a = state.s, state.a
    if propagation is not None and propagation.s is not s:
        raise ValueError("propagation was prepared from another structure matrix")
    if smooth_grad is None:
        signal = x if state.signal is None else state.signal
        smooth_grad = cfg.beta_smooth * _half_sq_dists(signal)
    grad_task = None
    if mask is None:
        grad = smooth_grad + 2.0 * cfg.lambda_prox * (s - a)
    else:
        _, _, grad_task = backward(s if propagation is None else propagation,
                                   x, labels, mask, state.theta)
        grad = grad_task + smooth_grad + 2.0 * cfg.lambda_prox * (s - a)
    if not np.all(np.isfinite(grad)):
        task_max = 0.0 if grad_task is None else np.abs(grad_task).max()
        raise NumericError(
            "non-finite structure gradient: "
            f"max|task|={task_max:.3e} "
            f"max|anchor|={np.abs(s - a).max():.3e}"
        )
    return grad


def structure_step(state: GslState, x: np.ndarray, labels: Optional[np.ndarray], mask,
                   cfg: GslConfig, *, propagation: Optional[_Propagation] = None,
                   smooth_grad: Optional[np.ndarray] = None) -> np.ndarray:
    """One proximal structure update; the state itself is left untouched.

    Without a ``mask`` (inference time) only the priors drive S. A caller
    that steps repeatedly can pass what it already holds: ``propagation``,
    ``state.s`` prepared for ``state.theta``, and ``smooth_grad``, the
    smoothness gradient ``beta_smooth * _half_sq_dists(signal)``.
    """
    # The gradient's arrays are freed before the proximal maps run.
    stepped = state.s - cfg.eta_s * _structure_gradient(
        state, x, labels, mask, cfg, propagation, smooth_grad)
    stepped = soft_threshold(stepped, cfg.eta_s * cfg.alpha_l1)
    stepped = svt(stepped, cfg.eta_s * cfg.alpha_nuclear)
    return symmetrize_clamp(stepped)


def fit(a: np.ndarray, x: np.ndarray, labels: np.ndarray, gnn_kind: str,
        gsl_cfg: GslConfig, train_cfg: TrainConfig, mask, seed: int,
        hidden: int = 16) -> tuple[np.ndarray, GnnParams, GslState]:
    """Alternate classifier epochs with structure steps for a fixed budget.

    Starts from S = A and parameters Glorot-initialized from ``seed``; the
    task loss is taken over the nodes in ``mask``. Each outer iteration
    runs ``inner_theta_steps`` Adam updates of the classifier on the task
    loss, refreshes the class beliefs the smoothness term is measured on,
    then takes one structure step. The weighted objective, with that
    iteration's beliefs, is recorded before the loop and after every outer
    iteration. There is no convergence test: the budget is the schedule,
    which keeps runs reproducible. Each S is prepared for the classifier once
    (``models._prepare``); its objective, the next inner steps and its
    structure step share that.
    """
    a = require_matrix(a, "observed adjacency").copy()
    x = require_matrix(x, "features")
    labels = np.asarray(labels, dtype=np.int64)
    mask = _check_mask(mask, a.shape[0])

    theta = init_params(gnn_kind, x.shape[1], hidden=hidden, classes=2, seed=seed)
    adam = AdamState.for_params(theta)
    state = GslState(s=a.copy(), a=a, theta=theta, iteration=0,
                     signal=class_beliefs(theta, a, x, labels, mask))
    prop = _prepare(gnn_kind, state.s)
    state.objective_history.append(
        objective(prop, theta, x, labels, mask, a, gsl_cfg, state.signal)
    )

    for it in range(gsl_cfg.outer_iters):
        for _ in range(gsl_cfg.inner_theta_steps):
            loss, grads, _ = backward(prop, x, labels, mask, theta, structure=False)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite task loss at outer iteration {it}")
            adam_step(theta, grads, adam, train_cfg)
        state.signal = class_beliefs(theta, a, x, labels, mask)
        state.s = structure_step(state, x, labels, mask, gsl_cfg, propagation=prop)
        prop = None  # free the old arrays before the new ones are built
        prop = _prepare(gnn_kind, state.s)
        state.iteration = it + 1
        state.objective_history.append(
            objective(prop, theta, x, labels, mask, a, gsl_cfg, state.signal)
        )
    return state.s, theta, state


def refine_structure(a: np.ndarray, x: np.ndarray, theta: GnnParams,
                     cfg: GslConfig, steps: int) -> np.ndarray:
    """Short label-free structure refinement with frozen parameters.

    This is the inference-time pass: starting from the observed adjacency,
    run ``steps`` structure updates driven by the priors alone, with
    smoothness measured on the frozen classifier's reading of each node's own
    features. Edges between nodes it places in different classes are the
    ones cut. Those beliefs are frozen, so the smoothness gradient is
    computed once for all steps.
    """
    a = require_matrix(a, "observed adjacency").copy()
    state = GslState(s=a.copy(), a=a, theta=theta, signal=class_beliefs(theta, a, x))
    smooth_grad = cfg.beta_smooth * _half_sq_dists(state.signal)
    for _ in range(steps):
        state.s = structure_step(state, x, None, None, cfg, smooth_grad=smooth_grad)
    return state.s


@dataclass
class StructureDiff:
    """Edges the optimizer suppressed or invented, with learned weights."""

    pruned: list[tuple[int, int, float]]
    added: list[tuple[int, int, float]]

    def to_dict(self) -> dict:
        return {
            "pruned": [[i, j, w] for i, j, w in self.pruned],
            "added": [[i, j, w] for i, j, w in self.added],
        }


def refine_report(state: GslState) -> StructureDiff:
    """Compare learned weights against the observed adjacency.

    Original edges whose weight fell below 0.1 are reported as pruned;
    non-edges whose weight rose above 0.5 are reported as added. Pairs are
    listed upper-triangle, sorted.
    """
    s, a = state.s, state.a

    def listing(mask: np.ndarray) -> list[tuple[int, int, float]]:
        rows, cols = np.nonzero(np.triu(mask, 1))
        return [(int(i), int(j), float(s[i, j])) for i, j in zip(rows, cols)]

    return StructureDiff(pruned=listing((a > 0) & (s < PRUNED_WEIGHT)),
                         added=listing(~(a > 0) & (s > ADDED_WEIGHT)))
