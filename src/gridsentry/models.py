"""Node classifiers with hand-written backpropagation.

Three model kinds share one parameter container:

* ``gcn``  - two layers over the degree-normalized adjacency with self-loops,
* ``sage`` - two layers of self + weighted-mean-neighbor aggregation over the
  raw structure matrix,
* ``mlp``  - structure-blind two-layer perceptron baseline.

``backward`` returns exact gradients for every weight matrix and, unless
asked not to, for the raw structure matrix feeding the model; the structure
gradient (symmetrized, as the joint optimizer consumes it) is what lets
structure updates descend the task loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import PROGRAM_SET
from .errors import NumericError
from .graphs import GraphSnapshot, _check_adjacency
from .numerics import make_rng, require_matrix

MODEL_FORMAT_VERSION = 1

KINDS = ("gcn", "sage", "mlp")

_PARAM_KEYS = {
    "gcn": ("w1", "w2"),
    "mlp": ("w1", "w2"),
    "sage": ("w1_self", "w1_neigh", "w2_self", "w2_neigh"),
}


@dataclass
class GnnParams:
    """Weight matrices for one model, keyed in a fixed per-kind order."""

    kind: str
    weights: dict[str, np.ndarray]
    hidden: int = 16
    classes: int = 2

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        expected = _PARAM_KEYS[self.kind]
        if tuple(self.weights.keys()) != expected:
            raise ValueError(
                f"{self.kind} expects weights {expected}, got {tuple(self.weights)}"
            )
        for key, w in self.weights.items():
            self.weights[key] = require_matrix(w, f"weight {key}")

    def copy(self) -> "GnnParams":
        return GnnParams(
            kind=self.kind,
            weights={k: w.copy() for k, w in self.weights.items()},
            hidden=self.hidden,
            classes=self.classes,
        )

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": self.kind,
            "hidden": self.hidden,
            "classes": self.classes,
            "weights": {k: w.tolist() for k, w in self.weights.items()},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GnnParams":
        if doc.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(
                f"unsupported model format_version {doc.get('format_version')!r}"
            )
        kind = doc["kind"]
        if kind not in _PARAM_KEYS:
            raise ValueError(f"unknown model kind {kind!r}")
        weights = {
            key: np.asarray(doc["weights"][key], dtype=np.float64)
            for key in _PARAM_KEYS[kind]
        }
        params = cls(kind=kind, weights=weights,
                     hidden=int(doc["hidden"]), classes=int(doc["classes"]))
        first = next(iter(params.weights.values()))
        if first.shape[1] != params.hidden:
            raise ValueError(
                f"first-layer width {first.shape[1]} disagrees with hidden={params.hidden}"
            )
        last = params.weights["w2" if kind != "sage" else "w2_self"]
        if last.shape != (params.hidden, params.classes):
            raise ValueError(f"second-layer shape {last.shape} is inconsistent")
        return params


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_params(kind: str, in_dim: int, hidden: int = 16, classes: int = 2,
                seed: int = 0) -> GnnParams:
    """Glorot-uniform weights, drawn in the fixed per-kind key order."""
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    rng = make_rng(seed)
    dims = {
        "w1": (in_dim, hidden), "w2": (hidden, classes),
        "w1_self": (in_dim, hidden), "w1_neigh": (in_dim, hidden),
        "w2_self": (hidden, classes), "w2_neigh": (hidden, classes),
    }
    weights = {key: _glorot(rng, *dims[key]) for key in _PARAM_KEYS[kind]}
    return GnnParams(kind=kind, weights=weights, hidden=hidden, classes=classes)


# ---------------------------------------------------------------------------
# Forward passes


def _weighted_neighbor_mean(s: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized aggregation; isolated rows aggregate to the zero vector."""
    row_sum = s.sum(axis=1)
    inv = np.where(row_sum > 0, 1.0 / np.where(row_sum > 0, row_sum, 1.0), 0.0)
    return inv[:, None] * (s @ h), inv


def _forward(params: GnnParams, s: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Logits plus the intermediates ``backward`` chains through.

    The GCN propagates with D^{-1/2} (S + I) D^{-1/2}; ``s`` is not checked.
    """
    w = params.weights
    if params.kind == "gcn":
        degree = s.sum(axis=1) + 1.0
        inv_sqrt = 1.0 / np.sqrt(degree)
        s_hat = (s + np.eye(s.shape[0])) * np.outer(inv_sqrt, inv_sqrt)
        xw = x @ w["w1"]
        z1 = s_hat @ xw
        h1 = np.maximum(z1, 0.0)
        q = h1 @ w["w2"]
        return s_hat @ q, dict(degree=degree, inv_sqrt=inv_sqrt, s_hat=s_hat,
                               xw=xw, z1=z1, h1=h1, q=q)
    if params.kind == "sage":
        n1, inv = _weighted_neighbor_mean(s, x)
        z1 = x @ w["w1_self"] + n1 @ w["w1_neigh"]
        h1 = np.maximum(z1, 0.0)
        n2, _ = _weighted_neighbor_mean(s, h1)
        return h1 @ w["w2_self"] + n2 @ w["w2_neigh"], dict(inv=inv, n1=n1, z1=z1,
                                                           h1=h1, n2=n2)
    if params.kind == "mlp":
        z1 = x @ w["w1"]
        h1 = np.maximum(z1, 0.0)
        return h1 @ w["w2"], dict(z1=z1, h1=h1)
    raise ValueError(f"unknown model kind {params.kind!r}")


def own_logits(params: GnnParams, x: np.ndarray) -> np.ndarray:
    """Logits from each node's own features alone: the model on an edgeless graph.

    Equals ``model_logits`` on an all-zero structure, where the GCN's
    propagation matrix is the identity and GraphSAGE's neighbour means vanish.
    """
    w = params.weights
    first, second = ("w1_self", "w2_self") if params.kind == "sage" else ("w1", "w2")
    return np.maximum(x @ w[first], 0.0) @ w[second]


def model_logits(params: GnnParams, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Kind-appropriate forward pass from the raw structure matrix.

    The GCN path first checks that ``s`` is a valid adjacency: symmetric,
    zero diagonal, entries in [0, 1].
    """
    if params.kind == "gcn":
        s = _check_adjacency(require_matrix(s, "structure matrix"), "structure matrix")
    return _forward(params, s, x)[0]


# ---------------------------------------------------------------------------
# Loss and gradients


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise class probabilities, shifted by the row maximum for stability."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def _check_mask(mask, n: int) -> np.ndarray:
    m = np.asarray(mask, dtype=bool)
    if m.shape != (n,):
        raise ValueError(f"mask must have shape ({n},), got {m.shape}")
    if not m.any():
        raise ValueError("mask selects no nodes")
    return m


def masked_cross_entropy(logits: np.ndarray, labels: np.ndarray, mask) -> float:
    """Mean negative log-likelihood over the masked nodes."""
    logits = require_matrix(logits, "logits")
    m = _check_mask(mask, logits.shape[0])
    labels = np.asarray(labels, dtype=np.int64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    picked = log_probs[np.arange(logits.shape[0]), labels]
    return float(-picked[m].mean())


def _loss_grad_logits(logits, labels, mask) -> tuple[float, np.ndarray]:
    if not np.all(np.isfinite(logits)):
        raise NumericError("classifier logits overflowed during training")
    m = _check_mask(mask, logits.shape[0])
    probs = softmax(logits)
    n = logits.shape[0]
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad[~m] = 0.0
    grad /= m.sum()
    return masked_cross_entropy(logits, labels, mask), grad


def backward(s: np.ndarray, x: np.ndarray, labels: np.ndarray, mask,
             params: GnnParams, structure: bool = True
             ) -> tuple[float, dict[str, np.ndarray], np.ndarray | None]:
    """Loss plus exact gradients for all weights and for the raw structure.

    The structure gradient is returned symmetrized, (G + G^T) / 2, which is
    the form the joint optimizer consumes; under a symmetric perturbation of
    the pair (i, j), (j, i) the directional derivative is twice the
    off-diagonal entry. With ``structure=False`` it is not computed and
    ``None`` takes its place; the loss and weight gradients are the same.
    """
    x = require_matrix(x, "features")
    labels = np.asarray(labels, dtype=np.int64)
    w = params.weights
    if params.kind != "mlp":
        s = require_matrix(s, "structure matrix")
    logits, c = _forward(params, s, x)
    loss, g = _loss_grad_logits(logits, labels, mask)

    if params.kind == "mlp":
        dz1 = (g @ w["w2"].T) * (c["z1"] > 0)
        grads = {"w1": x.T @ dz1, "w2": c["h1"].T @ g}
        grad_s = np.zeros_like(np.asarray(s, dtype=np.float64)) if structure else None
        return loss, grads, grad_s

    if params.kind == "gcn":
        s_hat, inv_sqrt = c["s_hat"], c["inv_sqrt"]
        dq = s_hat.T @ g
        dz1 = (dq @ w["w2"].T) * (c["z1"] > 0)
        grads = {"w1": x.T @ (s_hat.T @ dz1), "w2": c["h1"].T @ dq}
        if not structure:
            return loss, grads, None

        # Chain through s_hat = D^{-1/2} (S + I) D^{-1/2}: the direct entry
        # term, plus the row/column coupling through the degree of node i.
        g_hat = g @ c["q"].T + dz1 @ c["xw"].T
        prod = g_hat * s_hat
        phi = -(prod.sum(axis=1) + prod.sum(axis=0)) / (2.0 * c["degree"])
        grad_s = g_hat * np.outer(inv_sqrt, inv_sqrt) + phi[:, None]
        return loss, grads, (grad_s + grad_s.T) / 2.0

    inv, n1, n2, h1 = c["inv"], c["n1"], c["n2"], c["h1"]
    dn2 = g @ w["w2_neigh"].T
    t2 = inv[:, None] * dn2
    dh1 = g @ w["w2_self"].T + s.T @ t2
    dz1 = dh1 * (c["z1"] > 0)
    grads = {
        "w1_self": x.T @ dz1,
        "w1_neigh": n1.T @ dz1,
        "w2_self": h1.T @ g,
        "w2_neigh": n2.T @ g,
    }
    if not structure:
        return loss, grads, None
    t1 = inv[:, None] * (dz1 @ w["w1_neigh"].T)
    # d/dS[i,j] of the weighted mean row i is (h_j - mean_i) / rowsum_i;
    # isolated rows have inv = 0 so nothing flows.
    grad_s = (t2 @ h1.T - (t2 * n2).sum(axis=1)[:, None]) \
        + (t1 @ x.T - (t1 * n1).sum(axis=1)[:, None])
    return loss, grads, (grad_s + grad_s.T) / 2.0


def predict(logits: np.ndarray) -> np.ndarray:
    """Argmax class per node; ties go to the lower class index."""
    return np.argmax(logits, axis=1)


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainConfig:
    """Full-batch Adam settings plus the node masks.

    ``weight_decay`` is classic L2-in-the-gradient decay applied to every
    weight matrix; ``val_mask`` is carried for reporting only, training runs
    a fixed number of epochs.
    """

    epochs: int = 200
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 5e-4
    # Set by the program (per-run seed, split masks), never read from a config.
    seed: int = field(default=0, metadata=PROGRAM_SET)
    train_mask: np.ndarray | None = field(default=None, metadata=PROGRAM_SET)
    val_mask: np.ndarray | None = field(default=None, metadata=PROGRAM_SET)
    test_mask: np.ndarray | None = field(default=None, metadata=PROGRAM_SET)

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.eps <= 0 or self.weight_decay < 0:
            raise ValueError("eps must be positive and weight_decay non-negative")

    def validate_masks(self, n: int) -> None:
        if self.train_mask is None:
            raise ValueError("train_mask is required")
        train = _check_mask(self.train_mask, n)
        for name in ("val_mask", "test_mask"):
            other = getattr(self, name)
            if other is None:
                continue
            other = np.asarray(other, dtype=bool)
            if other.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
            if np.any(train & other):
                raise ValueError(f"{name} overlaps the train mask")


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: GnnParams) -> "AdamState":
        return cls(
            step=0,
            m={k: np.zeros_like(w) for k, w in params.weights.items()},
            v={k: np.zeros_like(w) for k, w in params.weights.items()},
        )


def adam_step(params: GnnParams, grads: dict[str, np.ndarray], state: AdamState,
              cfg: TrainConfig) -> None:
    """One in-place Adam update with L2 decay folded into the gradient."""
    state.step += 1
    t = state.step
    for key, w in params.weights.items():
        g = grads[key] + cfg.weight_decay * w
        state.m[key] = cfg.beta1 * state.m[key] + (1 - cfg.beta1) * g
        state.v[key] = cfg.beta2 * state.v[key] + (1 - cfg.beta2) * g * g
        m_hat = state.m[key] / (1 - cfg.beta1 ** t)
        v_hat = state.v[key] / (1 - cfg.beta2 ** t)
        params.weights[key] = w - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


@dataclass
class TrainResult:
    params: GnnParams
    losses: list[float]


def train(snapshot: GraphSnapshot, s: np.ndarray, cfg: TrainConfig, kind: str,
          hidden: int = 16) -> TrainResult:
    """Full-batch training of one model on the given structure matrix.

    The per-epoch loss is recorded before each update, so ``losses[0]`` is
    the loss at initialization.
    """
    if snapshot.labels is None:
        raise ValueError("training needs a labeled snapshot")
    n = snapshot.n_nodes
    cfg.validate_masks(n)
    params = init_params(kind, snapshot.features.shape[1], hidden=hidden,
                         classes=2, seed=cfg.seed)
    state = AdamState.for_params(params)
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        loss, grads, _ = backward(s, snapshot.features, snapshot.labels,
                                  cfg.train_mask, params, structure=False)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite training loss at epoch {epoch}")
        losses.append(loss)
        adam_step(params, grads, state, cfg)
    return TrainResult(params=params, losses=losses)
