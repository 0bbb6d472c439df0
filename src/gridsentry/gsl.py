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

The task and smoothness gradients both have low rank (``models._gradients``
returns the task gradient as factors), so a step multiplies one pair of
n x k factors, with k a few dozen, instead of building the chain rule in
n x n temporaries; only the anchor term is a full matrix. ``_structure_step``
is the one structure update: ``fit`` takes one step at a time with the task
factors, and ``refine_structure`` takes its whole label-free budget in one
call. Without the low-rank prior, the proximal maps and the projection are
one in-place clamp.

Each property of a structure matrix is checked in one place. ``fit``
checks the observed adjacency at entry (symmetric, zero diagonal, entries
in [0, 1], within the dense ceiling). ``refine_structure`` reads it from a
``graphs.GraphSnapshot``, which made those checks when it was built, and
checks only its side against the dense ceiling. ``models._prepare`` checks
each S a GCN or GraphSAGE pass reads for finite entries, once, and sums its
rows for every kind: each S of a fit, and the refined S that
``pipeline.detect`` scores. ``_structure_step`` checks nothing and keeps
the adjacency properties by construction, and ``objective`` checks only
that its total is finite: ``fit`` records each S with the row sums
``_prepare`` formed and an S - A that the next step then consumes in place.
Refinement starts at S = A, where S - A is zero, so its first step skips
the anchor term.

Z is a node signal. ``fit`` and ``refine_structure`` measure smoothness on
class beliefs, not on raw features (the classic prior): an edge whose
endpoints are believed to sit in different
classes pays up to ``beta_smooth``, an edge inside one class pays nothing. On
raw features the pull grows with feature dimension and noise and cannot tell
an attacker's cross-class edge from a genuine one once features are weak;
beliefs are probabilities, so the same weights hold at any feature scale.

The low-rank prior (the nuclear norm of Pro-GNN; Jin et al., KDD 2020) is
opt-in: ``alpha_nuclear`` defaults to 0. The belief-smoothness and anchor
terms do the separating, and on the package's fixtures the prior bought no
measurable accuracy while its eigendecompositions took about half of a
robustness grid's time and most of detection's. With it off, no
eigensolver runs, and the label-free refinement at detect time acts on each
entry alone, so ``_structure_step`` takes all its steps in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import NumericError
from .graphs import GraphSnapshot, _check_adjacency, _smoothness
from .models import (AdamConfig, AdamState, GnnParams, _check_mask, _Factors,
                     _forward, _gradients, _loss_grad_logits, _prepare,
                     _targets, adam_step, init_params, own_logits, softmax)
from .numerics import (_check_dense_side, nuclear_norm, require_matrix,
                       require_square, soft_threshold, svt, symmetrize_clamp)

# refine_report weight thresholds: an original edge whose learned weight
# falls below PRUNED_WEIGHT counts as pruned, a non-edge rising above
# ADDED_WEIGHT counts as added.
PRUNED_WEIGHT = 0.1
ADDED_WEIGHT = 0.5

# Label-free refinement steps a trained model takes on a graph it has not
# seen: at detect time (a bundle's default) and under evasion in the grid.
REFINE_STEPS = 20


@dataclass(frozen=True)
class GslConfig:
    """Weights and schedule for the alternating optimization.

    ``alpha_l1`` and ``lambda_prox`` were tuned on the
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

    ``alpha_nuclear`` weighs the low-rank prior and is off by default. At
    0.25, the value it was tuned to alongside ``alpha_l1``, each structure
    step paid a full eigendecomposition and each recorded objective an
    eigenvalue solve, yet over ten seeds at 50 % DICE it moved no mean GSL
    F1 on the two 200-node block models by more than 0.009, inside the
    seed-to-seed spread. Bundles and configs that store a positive weight
    keep the prior and the step-by-step refinement.
    """

    alpha_nuclear: float = 0.0
    alpha_l1: float = 5e-4
    beta_smooth: float = 0.5
    lambda_prox: float = 0.15
    eta_s: float = 0.2
    inner_theta_steps: int = 5
    outer_iters: int = 100

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
    """Working state of one fit or refinement: structure, anchor and signal.

    The state checks nothing. ``fit`` checks ``a``; ``refine_structure``
    takes it from a ``GraphSnapshot``, which checked it, and starts with
    ``s`` the same array as ``a``.
    """

    s: np.ndarray
    a: np.ndarray
    objective_history: list[ObjectiveParts] = field(default_factory=list)
    # Node signal the smoothness term is measured on; ``_structure_step`` reads it.
    signal: Optional[np.ndarray] = None


def objective(s: np.ndarray, row_sum: np.ndarray, anchor: np.ndarray,
              signal: np.ndarray, task: float, cfg: GslConfig) -> ObjectiveParts:
    """Weigh every objective term at ``s``; weights of zero skip their computation.

    Each argument is a piece the caller already holds: ``row_sum`` the row
    sums of ``s`` and ``anchor`` = S - A, both of which ``fit`` forms once
    per S (``models._prepare`` sums the rows), and ``task`` the task loss at
    ``s``, which ``fit`` takes from ``models._gradients``. The smoothness
    term is measured on ``signal`` with the formula of ``graphs.smoothness``.
    Nothing here checks ``s``: ``fit`` checks the observed adjacency at
    entry, ``models._prepare`` checks each S for finite entries (the MLP's
    excepted), and the structure step keeps S an adjacency by construction.
    A non-finite total raises NumericError. ``anchor`` is read, not changed.
    """
    smooth = cfg.beta_smooth * _smoothness(s, row_sum, signal) if cfg.beta_smooth > 0 else 0.0
    nuclear = 0.0
    if cfg.alpha_nuclear > 0:
        nuclear = cfg.alpha_nuclear * nuclear_norm(s)
    l1 = cfg.alpha_l1 * float(s.sum()) if cfg.alpha_l1 > 0 else 0.0
    prox = cfg.lambda_prox * float((anchor ** 2).sum()) if cfg.lambda_prox > 0 else 0.0
    total = task + nuclear + l1 + smooth + prox
    if not math.isfinite(total):
        raise NumericError(
            f"non-finite objective: task={task} nuclear={nuclear} l1={l1} "
            f"smooth={smooth} prox={prox}"
        )
    return ObjectiveParts(total, task, nuclear, l1, smooth, prox)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def _fit_logistic(features: np.ndarray, targets: np.ndarray,
                  start: Optional[np.ndarray] = None, iters: int = 25,
                  ridge: float = 1.0) -> np.ndarray:
    """Ridge-penalized logistic regression by at most ``iters`` Newton steps
    from ``start``, zero when omitted.

    The problem is strictly convex, so every start reaches the one optimum;
    a start near it takes fewer steps.
    """
    coef = np.zeros(features.shape[1]) if start is None else start
    ridge_eye = ridge * np.eye(features.shape[1])
    for _ in range(iters):
        p = _sigmoid(features @ coef)
        grad = features.T @ (p - targets) + ridge * coef
        hess = (features * (p * (1.0 - p))[:, None]).T @ features + ridge_eye
        step = np.linalg.solve(hess, grad)
        coef = coef - step
        if np.abs(step).max() <= 1e-12:
            break
    return coef


def _labelled_beliefs(theta: GnnParams, x: np.ndarray, labels: np.ndarray,
                      m: np.ndarray, vote: np.ndarray,
                      start: Optional[np.ndarray] = None
                      ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-node class probabilities, the signal ``fit`` smooths, and the
    regression's coefficients (None when every node is labelled).

    Masked nodes are pinned to their one-hot label. Every other node
    combines its own logit margin (the model on an empty graph) with its
    labelled neighbours' vote, ``vote = _label_vote(a, labels, m)``, by a
    logistic regression fitted on the masked nodes, so strong features
    outweigh a poisoned neighbourhood and weak features defer to it.
    ``fit`` computes the vote once and starts each regression from the
    coefficients of the one before (``start``).
    """
    p = labels.astype(np.float64)
    coef = None
    if not m.all():
        own = own_logits(theta, x)
        evidence = np.column_stack([own[:, 1] - own[:, 0], vote, np.ones(len(m))])
        coef = _fit_logistic(evidence[m], p[m], start)
        p[~m] = _sigmoid(evidence[~m] @ coef)
    return np.column_stack([1.0 - p, p]), coef


def _label_vote(a: np.ndarray, labels: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Each node's labelled-neighbour vote, sum_j a_ij (2 y_j - 1) over masked j."""
    return a[:, m] @ (2.0 * labels[m] - 1.0)


def _geometric_total(q: float, steps: int) -> float:
    """1 + r + ... + r^(steps - 1) for r = 1 - q: exactly 1.0 for one step."""
    if steps <= 1 or q == 0.0:
        return float(steps)
    if q == 1.0:  # r = 0: every later step lands on the fixed point again
        return 1.0
    return -math.expm1(steps * math.log1p(-q)) / q  # accurate for r near 1


def _descend(s: np.ndarray, anchor: Optional[np.ndarray], grad: np.ndarray,
             cfg: GslConfig, scale: float) -> np.ndarray:
    """s - scale eta_s (grad + 2 lambda_prox anchor), averaged with its
    transpose, for ``anchor`` = S - A. ``grad`` is overwritten, and the
    result is built in ``anchor``'s memory.

    ``anchor`` None stands for S = A: the zero anchor term is skipped and the
    result is a new array. Adding it would change no bit. It could only turn
    a -0.0 of ``grad`` into +0.0, and ``grad`` has none: a matrix product
    sums each entry from +0.0.
    """
    if anchor is not None:
        anchor *= 2.0 * cfg.lambda_prox
        grad += anchor
    grad *= -(cfg.eta_s * scale)
    grad += s
    out = np.add(grad, grad.T, out=anchor)
    out *= 0.5
    return out


def _structure_step(state: GslState, cfg: GslConfig, steps: int,
                    task: Optional[_Factors],
                    anchor: Optional[np.ndarray] = None) -> np.ndarray:
    """``steps`` proximal structure updates; the state itself is left untouched.

    ``state.s`` must be symmetric, with entries in [0, 1] and a zero
    diagonal, as every structure the optimizer makes is; the step does not
    check it, and returns such a structure again by construction (the
    symmetric average, the clamp and the zeroed diagonal below), so what
    ``fit`` checks of the observed adjacency at entry holds for every S.
    Smoothness is measured on ``state.signal``. ``task`` holds the
    task-gradient factors ``models._gradients`` returns for ``state.s``;
    without them (inference time) only the priors drive S. ``anchor`` is
    S - A for ``state.s`` when the caller holds it (``fit`` formed it for
    its objective record); the first step consumes it in place. When it is
    omitted it is formed here, unless ``state.s`` is ``state.a`` itself
    (refinement's start): that anchor is zero, and the first step skips it.

    The task and smoothness gradients have low rank, so their sum is one
    product L R^T of n x k factors, with k = h + c + z + 2 for the GCN
    (h hidden units, c classes, a signal of z columns; 22 at the defaults)
    and h + d + z + 2 for GraphSAGE (d features):

    * task: U V^T + r 1^T;
    * smoothness: beta / 2 ||z_i - z_j||^2
      = beta / 2 (sq_i + sq_j) - beta z_i . z_j, sq the squared row norms.

    The rank-one parts share two columns. The product is formed once and
    held fixed over the steps; the anchor 2 lambda_prox (S - A) follows S.
    The task term is not symmetric; averaging the step with its transpose
    symmetrizes its gradient, because S and A are symmetric.

    Without the nuclear prior and with 2 eta_s lambda_prox <= 1, a step acts
    on each entry alone: soft-thresholding the symmetric step by
    tau = eta_s alpha_l1 and clamping it to [0, 1] is clamping step - tau,
    and the unclamped path s_t = s + (1 + r + ... + r^(t-1)) delta, with
    r = 1 - 2 eta_s lambda_prox and delta the first step's move, runs
    monotonically from s, inside [0, 1], toward its fixed point. It leaves
    [0, 1] at most once and never comes back, so clamping every step is
    clamping once, and all ``steps`` are taken in one O(n^2) pass, in place
    on the product, matching the step-by-step path to rounding. Otherwise
    each step goes through ``soft_threshold``, ``svt`` and
    ``symmetrize_clamp``.
    """
    s, a, signal = state.s, state.a, state.signal
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if signal is None:
        raise ValueError("the structure step needs state.signal to measure smoothness on")
    half_sq = 0.5 * cfg.beta_smooth * np.einsum("ij,ij->i", signal, signal)
    left, right, rows = [-cfg.beta_smooth * signal], [signal], half_sq
    if task is not None:
        left.append(task.u)
        right.append(task.v)
        rows = rows + task.r
    ones = np.ones(s.shape[0])
    left = np.column_stack([*left, rows, ones])
    right = np.column_stack([*right, ones, half_sq])
    grad = left @ right.T
    if not np.all(np.isfinite(grad)):
        raise NumericError(
            "non-finite structure gradient: "
            f"max|factors|={np.abs(left).max():.3e}x{np.abs(right).max():.3e}"
        )
    q = 2.0 * cfg.eta_s * cfg.lambda_prox  # 1 - r
    tau = cfg.eta_s * cfg.alpha_l1
    if anchor is None and s is not a:
        anchor = s - a
    if cfg.eta_s * cfg.alpha_nuclear == 0 and q <= 1.0:
        total = _geometric_total(q, steps)
        stepped = _descend(s, anchor, grad, cfg, total)
        stepped -= total * tau
        np.clip(stepped, 0.0, 1.0, out=stepped)
        np.fill_diagonal(stepped, 0.0)
        return stepped
    for t in range(steps):
        stepped = _descend(s, anchor if t == 0 else s - a,
                           grad if t == steps - 1 else grad.copy(), cfg, 1.0)
        s = symmetrize_clamp(svt(soft_threshold(stepped, tau),
                                 cfg.eta_s * cfg.alpha_nuclear))
    return s if steps else s.copy()


def fit(a: np.ndarray, x: np.ndarray, labels: np.ndarray, gnn_kind: str,
        gsl_cfg: GslConfig, adam_cfg: AdamConfig, mask,
        seed: int) -> tuple[np.ndarray, GnnParams, GslState]:
    """Alternate classifier Adam steps with structure steps for a fixed budget.

    Starts from S = A and parameters Glorot-initialized from ``seed``; the
    task loss is taken over the nodes in ``mask``. Each outer iteration
    runs ``inner_theta_steps`` Adam updates of the classifier on the task
    loss, refreshes the class beliefs the smoothness term is measured on
    (``_labelled_beliefs``), then takes one structure step. So a fit takes
    ``outer_iters`` x ``inner_theta_steps`` Adam steps with the settings
    ``adam_cfg``. The weighted objective,
    with that iteration's beliefs, is recorded before the loop and after
    every outer iteration. There is no convergence test: the
    budget is the schedule, which keeps runs reproducible.

    ``fit`` checks its inputs once, here: ``a`` must be an adjacency
    (symmetric, zero diagonal, entries in [0, 1]) within the dense ceiling.
    Each later S comes from ``_structure_step``, which keeps those
    properties by construction, without checking. Each S is prepared once
    (``models._prepare``) for its ``models._gradients`` passes, which is
    its one check (for finite entries; the MLP's S is not checked) and its
    one sum of rows; S - A is formed once alongside, and both serve the
    record at that S (``objective``) before the structure step consumes
    S - A. With every node labelled the beliefs are the labels, built once.
    A recorded task term is the loss of the next pass at the same S and
    parameters, the first inner step's or the structure step's; the last
    record takes its own from a forward pass, with no gradients.
    """
    a = _check_adjacency(require_square(a, "observed adjacency"),
                         "observed adjacency").copy()
    x = require_matrix(x, "features")
    labels = np.asarray(labels, dtype=np.int64)
    mask = _check_mask(mask, a.shape[0])

    theta = init_params(gnn_kind, x.shape[1], seed=seed)
    targets = _targets(labels, mask, a.shape[0])
    adam = AdamState.for_params(theta)
    vote = _label_vote(a, labels, mask)
    signal, coef = _labelled_beliefs(theta, x, labels, mask, vote)
    state = GslState(s=a.copy(), a=a, signal=signal)
    prop = _prepare(gnn_kind, state.s, x)
    anchor = state.s - a
    refresh = not mask.all()  # with every node labelled the beliefs stay put

    def record(task):
        state.objective_history.append(
            objective(state.s, prop.row_sum, anchor, state.signal, task, gsl_cfg))

    for it in range(gsl_cfg.outer_iters):
        for step in range(gsl_cfg.inner_theta_steps):
            loss, grads, _ = _gradients(prop, targets, theta)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite task loss at outer iteration {it}")
            if step == 0:  # S and theta are still those of the record due
                record(loss)
            adam_step(theta, grads, adam, adam_cfg)
        loss, _, task = _gradients(prop, targets, theta, structure=True)
        if gsl_cfg.inner_theta_steps == 0:  # before the beliefs move on
            record(loss)
        if refresh:
            state.signal, coef = _labelled_beliefs(theta, x, labels, mask, vote, coef)
        state.s = _structure_step(state, gsl_cfg, 1, task, anchor)
        prop = None  # free the old arrays before the new ones are built
        prop = _prepare(gnn_kind, state.s, x)
        anchor = state.s - a
    record(_loss_grad_logits(_forward(theta, prop)[0], targets)[0])
    return state.s, theta, state


def refine_structure(snapshot: GraphSnapshot, x: np.ndarray, theta: GnnParams,
                     cfg: GslConfig, steps: int) -> np.ndarray:
    """Short label-free structure refinement of ``snapshot``'s graph with
    frozen parameters.

    This is the inference-time pass: starting from the observed adjacency,
    ``_structure_step`` takes ``steps`` updates driven by the priors alone,
    with smoothness measured on the frozen classifier's reading of each
    node's own features ``x`` (its softmax on an empty graph), one row per
    node of the snapshot; ``pipeline.detect`` passes them standardized.
    Edges between nodes it places in different classes are the ones cut.
    Without the nuclear prior, and with 2 eta_s lambda_prox <= 1, that is
    one O(n^2) pass whatever ``steps`` is.

    The snapshot checked its adjacency when it was built (symmetric, zero
    diagonal, finite entries in [0, 1]) and holds it read-only, so it is not
    checked again: only its side is checked against the dense ceiling. The
    result keeps those properties by construction.
    """
    a = snapshot.adjacency
    _check_dense_side(a.shape[0], "observed adjacency")
    state = GslState(s=a, a=a, signal=softmax(own_logits(theta, x)))
    return _structure_step(state, cfg, steps, None)


@dataclass
class StructureDiff:
    """Edges the optimizer suppressed or invented, with learned weights.

    A pair names its nodes by index, or by device id in a saved report.
    """

    pruned: list[tuple[int | str, int | str, float]]
    added: list[tuple[int | str, int | str, float]]


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
