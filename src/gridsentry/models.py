"""Node classifiers with hand-written backpropagation.

Three model kinds share one parameter container:

* ``gcn``  - two layers over the degree-normalized adjacency with self-loops,
* ``sage`` - two layers of self + weighted-mean-neighbor aggregation over the
  raw structure matrix,
* ``mlp``  - structure-blind two-layer perceptron baseline.

``backward`` returns the loss and exact gradients for every weight matrix.
``_gradients``, which it calls, can also return the gradient for the raw
structure matrix feeding the model, the term that lets structure updates
descend the task loss. It has low rank, G = U V^T + r 1^T with U and V of
width hidden + classes (GCN) or hidden + features (GraphSAGE) and r a
per-row term, so it comes as those factors (``_Factors``), in O(n (h + c))
or O(n (h + d)) memory; ``gsl._structure_step`` folds them into one product.
The MLP ignores the structure and has no factors.

Every pass runs on a structure bound to its features by ``_prepare``,
which builds what the pass derives from the structure (its row sums, the
GCN's normalized propagation matrix, GraphSAGE's inverse row sums) and
propagates the features through it once: the GCN's S_hat X and
GraphSAGE's first neighbour mean, as in SGC (Wu et al., ICML 2019).
``backward`` and ``model_logits`` take plain arrays and prepare them for
their one pass; ``train`` and ``gsl.fit`` prepare each structure once for
all their passes, check their labels and mask once (``_targets``) and call
``_gradients`` directly, and ``pipeline.detect`` scores its refined
structure through ``_forward`` on one ``_prepare``.

The n x n products of a pass are then all at class width: the forward
pass multiplies the structure into the n x c second-layer term (GCN:
S_hat (H W2); GraphSAGE: S (H W2_neigh)), and the backward pass pushes the
n x c logit gradient back through it once. That is 2 n^2 c multiply-adds
a training step. Asked for the structure factors, the GCN adds one n x n
product at hidden width, S_hat^T dz1; GraphSAGE's factors need none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import NumericError
from .graphs import GraphSnapshot, _check_adjacency, _gcn_normalization
from .numerics import make_rng, require_matrix

KINDS = ("gcn", "sage", "mlp")

# Every model separates benign (0) from malicious (1) nodes.
CLASSES = 2

_PARAM_KEYS = {
    "gcn": ("w1", "w2"),
    "mlp": ("w1", "w2"),
    "sage": ("w1_self", "w1_neigh", "w2_self", "w2_neigh"),
}


def _weight_shapes(kind: str, in_dim: int, hidden: int) -> dict[str, tuple[int, int]]:
    """Each weight's shape: ``w1*`` is features x hidden, ``w2*`` hidden x classes."""
    layers = {"w1": (in_dim, hidden), "w2": (hidden, CLASSES)}
    return {key: layers[key[:2]] for key in _PARAM_KEYS[kind]}


@dataclass
class GnnParams:
    """Weight matrices for one model, keyed in a fixed per-kind order.

    The matrices are copied at construction, in that order, into one flat
    buffer and held as views of it, so ``adam_step`` updates them all in one
    pass. The first weight gives the input feature count (its rows) and the
    hidden width (its columns); every shape must agree with them and with
    the ``CLASSES`` outputs.
    """

    FORMAT_VERSION = 2

    kind: str
    weights: dict[str, np.ndarray]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        expected = _PARAM_KEYS[self.kind]
        if set(self.weights) != set(expected):
            raise ValueError(
                f"{self.kind} expects weights {expected}, got {tuple(self.weights)}"
            )
        self.weights = {key: self.weights[key] for key in expected}
        self._pack()
        self.check_shapes(self.weights[expected[0]].shape[0])

    def _pack(self) -> None:
        """Copy the weights into one flat buffer; ``weights`` holds views of it."""
        arrays = {key: require_matrix(w, f"weight {key}")
                  for key, w in self.weights.items()}
        self._flat = np.concatenate([w.ravel() for w in arrays.values()])
        offset = 0
        for key, w in arrays.items():
            self.weights[key] = self._flat[offset:offset + w.size].reshape(w.shape)
            offset += w.size

    def _flat_weights(self) -> np.ndarray:
        """The buffer the weight matrices are views of; repacked if one was rebound."""
        if any(w.base is not self._flat for w in self.weights.values()):
            self._pack()
        return self._flat

    def check_shapes(self, in_dim: int) -> None:
        """Raise ValueError unless every weight fits ``in_dim`` input features,
        the hidden width of the first weight and the ``CLASSES`` outputs."""
        hidden = next(iter(self.weights.values())).shape[1]
        for key, shape in _weight_shapes(self.kind, in_dim, hidden).items():
            if self.weights[key].shape != shape:
                raise ValueError(
                    f"weight {key} has shape {self.weights[key].shape}, which "
                    f"disagrees with hidden={hidden}, classes={CLASSES} "
                    f"and {in_dim} features")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_params(kind: str, in_dim: int, hidden: int = 16, seed: int = 0) -> GnnParams:
    """Glorot-uniform weights, drawn in the fixed per-kind key order."""
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    rng = make_rng(seed)
    weights = {key: _glorot(rng, *shape) for key, shape
               in _weight_shapes(kind, in_dim, hidden).items()}
    return GnnParams(kind=kind, weights=weights)


# ---------------------------------------------------------------------------
# Forward passes


@dataclass(frozen=True)
class _Propagation:
    """One structure matrix bound to one feature matrix for a model kind's passes.

    Built by ``_prepare``; no public function takes or returns one.
    ``model_logits``, ``backward`` and ``pipeline.detect`` build one for
    their single pass, and ``train`` and ``gsl.fit`` one per structure for
    all their passes. ``s`` is the validated matrix, ``x`` the features
    and, for every kind, ``row_sum`` the row sums of S, which ``gsl.fit``'s
    objective record reads too. GCN: ``degree`` = ``row_sum`` + 1 (row sums of S + I),
    ``inv_sqrt`` = D^{-1/2}, ``s_hat`` = D^{-1/2} (S + I) D^{-1/2} and
    ``s_hat_x`` = S_hat X. GraphSAGE: ``inv``, the inverse row sums, 0 on
    isolated rows, and ``n1``, the features' neighbour means. The derived
    arrays are read-only.
    """

    s: np.ndarray
    x: np.ndarray
    row_sum: np.ndarray
    degree: np.ndarray | None = None
    inv_sqrt: np.ndarray | None = None
    s_hat: np.ndarray | None = None
    s_hat_x: np.ndarray | None = None
    inv: np.ndarray | None = None
    n1: np.ndarray | None = None


def _prepare(kind: str, s, x: np.ndarray) -> _Propagation:
    """Validate ``s``, sum its rows, and propagate the features ``x`` through
    it once for ``kind``.

    GCN and GraphSAGE need a finite square matrix; no adjacency check is
    made here (``model_logits`` makes it for the GCN; the structures that
    ``gsl.fit``, ``pipeline.detect`` and the grid's scoring prepare are
    adjacencies by construction). The MLP's passes ignore ``s``, which is
    not checked, but its row sums are formed too: ``gsl.fit``'s objective
    record reads them for every kind.
    """
    if kind == "mlp":
        s = np.asarray(s, dtype=np.float64)
    else:
        s = require_matrix(s, "structure matrix")
        if s.shape[0] != s.shape[1]:
            raise ValueError(f"structure matrix must be square, got {s.shape}")
    row_sum = s.sum(axis=1)
    derived = {"row_sum": row_sum}
    if kind == "gcn":
        degree, inv_sqrt, s_hat = _gcn_normalization(s, row_sum)
        derived.update(degree=degree, inv_sqrt=inv_sqrt, s_hat=s_hat,
                       s_hat_x=s_hat @ x)
    elif kind == "sage":
        inv = np.where(row_sum > 0, 1.0 / np.where(row_sum > 0, row_sum, 1.0), 0.0)
        derived.update(inv=inv, n1=inv[:, None] * (s @ x))
    for arr in derived.values():
        arr.setflags(write=False)
    return _Propagation(s, x, **derived)


def _forward(params: GnnParams, prop: _Propagation) -> tuple[np.ndarray, dict]:
    """Logits plus the intermediates ``_gradients`` chains through.

    Every n x n product here multiplies the structure into an n x classes
    matrix, the second layer's.
    """
    w, x = params.weights, prop.x
    if params.kind == "gcn":
        z1 = prop.s_hat_x @ w["w1"]
        h1 = np.maximum(z1, 0.0)
        q = h1 @ w["w2"]
        return prop.s_hat @ q, dict(z1=z1, h1=h1, q=q)
    if params.kind == "sage":
        # Row-normalized aggregation; isolated rows aggregate to the zero vector.
        z1 = x @ w["w1_self"] + prop.n1 @ w["w1_neigh"]
        h1 = np.maximum(z1, 0.0)
        # Layer 2's neighbour term mean(h) W2_neigh, projected to the classes
        # before the aggregation, so the n x n product is at class width.
        m2 = prop.inv[:, None] * (prop.s @ (h1 @ w["w2_neigh"]))
        return h1 @ w["w2_self"] + m2, dict(z1=z1, h1=h1, m2=m2)
    z1 = x @ w["w1"]
    h1 = np.maximum(z1, 0.0)
    return h1 @ w["w2"], dict(z1=z1, h1=h1)


def own_logits(params: GnnParams, x: np.ndarray) -> np.ndarray:
    """Logits from each node's own features alone: the model on an edgeless graph.

    Equals ``model_logits`` on an all-zero structure, where the GCN's
    propagation matrix is the identity and GraphSAGE's neighbour means vanish.
    """
    w = params.weights
    first, second = ("w1_self", "w2_self") if params.kind == "sage" else ("w1", "w2")
    return np.maximum(x @ w[first], 0.0) @ w[second]


def model_logits(params: GnnParams, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Kind-appropriate forward pass on the structure matrix ``s`` and features ``x``.

    The GCN path checks that the structure is a valid adjacency: symmetric,
    zero diagonal, entries in [0, 1].
    """
    prop = _prepare(params.kind, s, x)
    if params.kind == "gcn":
        _check_adjacency(prop.s, "structure matrix")
    return _forward(params, prop)[0]


# ---------------------------------------------------------------------------
# Loss and gradients


def _shifted_exp(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Logits shifted by their row maximum, their exponentials, and the row sums."""
    # Elementwise operations across the few class columns cost less than
    # reductions along rows that short, and give the same maxima and, for
    # two classes, the same sums.
    shifted = logits - reduce(np.maximum, logits.T)[:, None]
    expd = np.exp(shifted)
    return shifted, expd, reduce(np.add, expd.T)[:, None]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise class probabilities, shifted by the row maximum for stability."""
    _, expd, total = _shifted_exp(logits)
    return expd / total


def _check_mask(mask, n: int) -> np.ndarray:
    m = np.asarray(mask, dtype=bool)
    if m.shape != (n,):
        raise ValueError(f"mask must have shape ({n},), got {m.shape}")
    if not m.any():
        raise ValueError("mask selects no nodes")
    return m


class _Targets(NamedTuple):
    """What the loss reads of the labels and mask: the masked rows, and the
    flat position of each one's label in an array of those rows' logits."""

    rows: np.ndarray
    picked: np.ndarray


def _targets(labels, mask, n: int) -> _Targets:
    """Check ``mask`` against ``n`` nodes and locate the masked labels."""
    rows = np.flatnonzero(_check_mask(mask, n))
    labels = np.asarray(labels, dtype=np.int64)
    return _Targets(rows, np.arange(len(rows)) * CLASSES + labels.take(rows))


def _mean_nll(shifted: np.ndarray, total: np.ndarray, picked: np.ndarray) -> float:
    """Mean negative log-likelihood; ``picked`` holds the flat positions in
    ``shifted`` of each row's label."""
    nll = shifted.ravel()[picked] - np.log(total.ravel())
    return float(-(nll.sum() / len(nll)))  # the bits of nll.mean(), faster


def _loss_grad_logits(logits, targets: _Targets) -> tuple[float, np.ndarray]:
    """The mean masked cross-entropy and its logit gradient from one exp pass.

    Only the masked rows are exponentiated; the others have zero gradient.
    """
    if not np.isfinite(logits).all():
        raise NumericError("classifier logits overflowed during training")
    rows, picked = targets
    shifted, expd, total = _shifted_exp(logits.take(rows, axis=0))
    part = expd / total
    part.ravel()[picked] -= 1.0
    part /= len(rows)
    grad = np.zeros(logits.shape)
    grad[rows] = part
    return _mean_nll(shifted, total, picked), grad


class _Factors(NamedTuple):
    """The raw structure gradient G = u @ v.T + r[:, None], before symmetrization."""

    u: np.ndarray
    v: np.ndarray
    r: np.ndarray


def _gradients(prop: _Propagation, targets: _Targets, params: GnnParams,
               structure: bool = False
               ) -> tuple[float, dict[str, np.ndarray], _Factors | None]:
    """Loss, weight gradients and structure-gradient factors from one forward pass.

    The factors are None with ``structure=False`` and for the MLP. ``prop``
    must be bound to a checked feature matrix, and ``targets`` come from
    ``_targets``.
    """
    w, x = params.weights, prop.x
    logits, c = _forward(params, prop)
    loss, g = _loss_grad_logits(logits, targets)
    factors = None

    if params.kind == "mlp":
        dz1 = (g @ w["w2"].T) * (c["z1"] > 0)
        return loss, {"w1": x.T @ dz1, "w2": c["h1"].T @ g}, None

    if params.kind == "gcn":
        s_hat, z1 = prop.s_hat, c["z1"]
        dq = s_hat.T @ g
        dz1 = (dq @ w["w2"].T) * (z1 > 0)
        grads = {"w1": prop.s_hat_x.T @ dz1, "w2": c["h1"].T @ dq}
        if structure:
            # With M = g q^T + dz1 xw^T (q = h1 W2, xw = X W1), the gradient
            # for s_hat, chain through s_hat = D^{-1/2} (S + I) D^{-1/2}: the
            # direct term D^{-1/2} M D^{-1/2}, plus the coupling through the
            # degree of node i, phi_i = -(row sum + column sum of M * s_hat)_i
            # / (2 d_i). Those sums come from the forward pass (s_hat q,
            # s_hat xw) and from dq, dxw, with no n x n product.
            dxw = s_hat.T @ dz1
            q, xw = c["q"], x @ w["w1"]
            row_sum = (g * logits).sum(axis=1) + (dz1 * z1).sum(axis=1)
            col_sum = (q * dq).sum(axis=1) + (xw * dxw).sum(axis=1)
            inv_sqrt = prop.inv_sqrt[:, None]
            factors = _Factors(inv_sqrt * np.hstack([g, dz1]),
                               inv_sqrt * np.hstack([q, xw]),
                               -(row_sum + col_sum) / (2.0 * prop.degree))
        return loss, grads, factors

    inv, n1, h1 = prop.inv[:, None], prop.n1, c["h1"]
    sg = prop.s.T @ (inv * g)  # S^T pushes the layer-2 neighbour term back
    dz1 = (g @ w["w2_self"].T + sg @ w["w2_neigh"].T) * (c["z1"] > 0)
    grads = {
        "w1_self": x.T @ dz1,
        "w1_neigh": n1.T @ dz1,
        "w2_self": h1.T @ g,
        "w2_neigh": h1.T @ sg,
    }
    if structure:
        # d/dS[i,j] of the weighted mean row i is (h_j - mean_i) / rowsum_i;
        # isolated rows have inv = 0 so nothing flows. The mean's term,
        # (t2 * n2).sum(1) with n2 the mean of h, is inv (g * m2).sum(1).
        t2 = inv * (g @ w["w2_neigh"].T)
        t1 = inv * (dz1 @ w["w1_neigh"].T)
        factors = _Factors(np.hstack([t2, t1]), np.hstack([h1, x]),
                           -(prop.inv * (g * c["m2"]).sum(axis=1)
                             + (t1 * n1).sum(axis=1)))
    return loss, grads, factors


def backward(s: np.ndarray, x: np.ndarray, labels: np.ndarray, mask,
             params: GnnParams) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus exact gradients for all weights at the structure matrix ``s``.

    ``s`` is not checked to be an adjacency, so gradients can be probed
    anywhere. The structure, features, labels and mask are checked and
    prepared on every call; ``train`` and ``gsl.fit`` do that once per
    structure and call ``_gradients``.
    """
    x = require_matrix(x, "features")
    targets = _targets(labels, mask, x.shape[0])
    loss, grads, _ = _gradients(_prepare(params.kind, s, x), targets, params)
    return loss, grads


def predict(logits: np.ndarray) -> np.ndarray:
    """Argmax class per node; ties go to the lower class index."""
    return np.argmax(logits, axis=1)


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class AdamConfig:
    """Full-batch Adam settings, the ones ``gsl.fit`` reads.

    ``weight_decay`` is classic L2-in-the-gradient decay applied to every
    weight matrix.
    """

    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 5e-4

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.eps <= 0 or self.weight_decay < 0:
            raise ValueError("eps must be positive and weight_decay non-negative")


@dataclass(frozen=True)
class TrainConfig(AdamConfig):
    """Adam settings plus the epoch count of ``train``, which the grid's
    plain models use."""

    epochs: int = 200

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        super().__post_init__()


@dataclass
class AdamState:
    """Adam moments, flat and in the order of ``GnnParams``' weight buffer."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: GnnParams) -> "AdamState":
        size = params._flat_weights().size
        return cls(m=np.zeros(size), v=np.zeros(size))


def adam_step(params: GnnParams, grads: dict[str, np.ndarray], state: AdamState,
              cfg: AdamConfig) -> None:
    """One in-place Adam update with L2 decay folded into the gradient.

    The update runs once over the model's flat weight buffer, which the weight
    matrices are views of, with the per-entry arithmetic of a per-matrix loop.
    """
    state.step += 1
    t = state.step
    w = params._flat_weights()
    g = np.concatenate([grads[key].ravel() for key in params.weights])
    g += cfg.weight_decay * w
    state.m = cfg.beta1 * state.m + (1 - cfg.beta1) * g
    state.v = cfg.beta2 * state.v + (1 - cfg.beta2) * g * g
    m_hat = state.m / (1 - cfg.beta1 ** t)
    v_hat = state.v / (1 - cfg.beta2 ** t)
    w -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


@dataclass
class TrainResult:
    params: GnnParams
    losses: list[float]


def train(snapshot: GraphSnapshot, s: np.ndarray, cfg: TrainConfig, kind: str,
          mask, seed: int) -> TrainResult:
    """Full-batch training of one model on the given structure matrix.

    The loss is taken over the nodes in ``mask``; ``seed`` draws the initial
    weights. The per-epoch loss is recorded before each update, so
    ``losses[0]`` is the loss at initialization. The structure, labels and
    mask are checked and prepared once, for every epoch.
    """
    if snapshot.labels is None:
        raise ValueError("training needs a labeled snapshot")
    x = snapshot.features
    params = init_params(kind, x.shape[1], seed=seed)
    targets = _targets(snapshot.labels, mask, snapshot.n_nodes)
    state = AdamState.for_params(params)
    prop = _prepare(kind, s, x)
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        loss, grads, _ = _gradients(prop, targets, params)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite training loss at epoch {epoch}")
        losses.append(loss)
        adam_step(params, grads, state, cfg)
    return TrainResult(params=params, losses=losses)
