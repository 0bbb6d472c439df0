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

Everything a forward pass derives from the structure matrix alone (the
GCN's normalized propagation matrix, GraphSAGE's inverse row sums) is built
once per matrix by ``_prepare``. ``backward`` and ``model_logits`` take the
raw matrix or that prepared value, so ``train`` and ``gsl.fit`` prepare each
structure once instead of once per pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .graphs import GraphSnapshot, _check_adjacency, _gcn_normalization
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
        if not isinstance(doc, dict):
            raise ValueError("model params must be a JSON object")
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


@dataclass(frozen=True)
class _Propagation:
    """The structure-only part of one model kind's forward pass.

    Built once per structure matrix by ``_prepare`` and read by every
    ``backward`` and ``model_logits`` call on that matrix. ``s`` is the
    validated matrix itself. GCN: ``degree`` (row sums of S + I),
    ``inv_sqrt`` = D^{-1/2} and ``s_hat`` = D^{-1/2} (S + I) D^{-1/2}.
    GraphSAGE: ``inv``, the inverse row sums, 0 on isolated rows. MLP:
    nothing. The derived arrays are read-only.
    """

    kind: str
    s: np.ndarray
    degree: np.ndarray | None = None
    inv_sqrt: np.ndarray | None = None
    s_hat: np.ndarray | None = None
    inv: np.ndarray | None = None


def _prepare(kind: str, s) -> _Propagation:
    """Validate ``s`` and build what every forward pass of ``kind`` needs from it.

    GCN and GraphSAGE need a finite square matrix; no adjacency check is
    made here (``model_logits`` makes it for the GCN). The MLP ignores ``s``.
    """
    if kind == "mlp":
        return _Propagation(kind, np.asarray(s, dtype=np.float64))
    s = require_matrix(s, "structure matrix")
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"structure matrix must be square, got {s.shape}")
    if kind == "gcn":
        degree, inv_sqrt, s_hat = _gcn_normalization(s)
        derived = {"degree": degree, "inv_sqrt": inv_sqrt, "s_hat": s_hat}
    else:
        row_sum = s.sum(axis=1)
        derived = {"inv": np.where(row_sum > 0,
                                   1.0 / np.where(row_sum > 0, row_sum, 1.0), 0.0)}
    for arr in derived.values():
        arr.setflags(write=False)
    return _Propagation(kind, s, **derived)


def _as_propagation(kind: str, s) -> _Propagation:
    """``s`` itself when it is already prepared for ``kind``, else ``_prepare``."""
    if not isinstance(s, _Propagation):
        return _prepare(kind, s)
    if s.kind != kind:
        raise ValueError(f"structure prepared for {s.kind!r} fed to a {kind!r} model")
    return s


def _forward(params: GnnParams, prop: _Propagation, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Logits plus the intermediates ``backward`` chains through."""
    w = params.weights
    if params.kind == "gcn":
        xw = x @ w["w1"]
        z1 = prop.s_hat @ xw
        h1 = np.maximum(z1, 0.0)
        q = h1 @ w["w2"]
        return prop.s_hat @ q, dict(xw=xw, z1=z1, h1=h1, q=q)
    if params.kind == "sage":
        # Row-normalized aggregation; isolated rows aggregate to the zero vector.
        n1 = prop.inv[:, None] * (prop.s @ x)
        z1 = x @ w["w1_self"] + n1 @ w["w1_neigh"]
        h1 = np.maximum(z1, 0.0)
        n2 = prop.inv[:, None] * (prop.s @ h1)
        return h1 @ w["w2_self"] + n2 @ w["w2_neigh"], dict(n1=n1, z1=z1, h1=h1, n2=n2)
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


def model_logits(params: GnnParams, s, x: np.ndarray) -> np.ndarray:
    """Kind-appropriate forward pass from the raw or prepared structure matrix.

    The GCN path first checks that the structure is a valid adjacency:
    symmetric, zero diagonal, entries in [0, 1].
    """
    prop = _as_propagation(params.kind, s)
    if params.kind == "gcn":
        _check_adjacency(prop.s, "structure matrix")
    return _forward(params, prop, x)[0]


# ---------------------------------------------------------------------------
# Loss and gradients


def _shifted_exp(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Logits shifted by their row maximum, their exponentials, and the row sums."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return shifted, expd, expd.sum(axis=1, keepdims=True)


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


def _mean_nll(shifted: np.ndarray, total: np.ndarray, labels: np.ndarray,
              m: np.ndarray) -> float:
    log_probs = shifted - np.log(total)
    picked = log_probs[np.arange(shifted.shape[0]), labels]
    return float(-picked[m].mean())


def masked_cross_entropy(logits: np.ndarray, labels: np.ndarray, mask) -> float:
    """Mean negative log-likelihood over the masked nodes."""
    logits = require_matrix(logits, "logits")
    m = _check_mask(mask, logits.shape[0])
    labels = np.asarray(labels, dtype=np.int64)
    shifted, _, total = _shifted_exp(logits)
    return _mean_nll(shifted, total, labels, m)


def _loss_grad_logits(logits, labels, mask) -> tuple[float, np.ndarray]:
    """``masked_cross_entropy`` and its logit gradient from one exp pass."""
    if not np.all(np.isfinite(logits)):
        raise NumericError("classifier logits overflowed during training")
    m = _check_mask(mask, logits.shape[0])
    shifted, expd, total = _shifted_exp(logits)
    grad = expd / total
    grad[np.arange(logits.shape[0]), labels] -= 1.0
    grad[~m] = 0.0
    grad /= m.sum()
    return _mean_nll(shifted, total, labels, m), grad


def backward(s, x: np.ndarray, labels: np.ndarray, mask,
             params: GnnParams, structure: bool = True
             ) -> tuple[float, dict[str, np.ndarray], np.ndarray | None]:
    """Loss plus exact gradients for all weights and for the raw structure.

    ``s`` is the raw structure matrix or one prepared for this model kind
    (``_prepare``); a loop over one structure prepares it once. It is not
    checked to be an adjacency, so gradients can be probed anywhere.
    The structure gradient is returned symmetrized, (G + G^T) / 2, which is
    the form the joint optimizer consumes; under a symmetric perturbation of
    the pair (i, j), (j, i) the directional derivative is twice the
    off-diagonal entry. With ``structure=False`` it is not computed and
    ``None`` takes its place; the loss and weight gradients are the same.
    """
    x = require_matrix(x, "features")
    labels = np.asarray(labels, dtype=np.int64)
    w = params.weights
    prop = _as_propagation(params.kind, s)
    logits, c = _forward(params, prop, x)
    loss, g = _loss_grad_logits(logits, labels, mask)

    if params.kind == "mlp":
        dz1 = (g @ w["w2"].T) * (c["z1"] > 0)
        grads = {"w1": x.T @ dz1, "w2": c["h1"].T @ g}
        return loss, grads, np.zeros_like(prop.s) if structure else None

    if params.kind == "gcn":
        s_hat, inv_sqrt = prop.s_hat, prop.inv_sqrt
        dq = s_hat.T @ g
        dz1 = (dq @ w["w2"].T) * (c["z1"] > 0)
        grads = {"w1": x.T @ (s_hat.T @ dz1), "w2": c["h1"].T @ dq}
        if not structure:
            return loss, grads, None

        # Chain through s_hat = D^{-1/2} (S + I) D^{-1/2}: the direct entry
        # term, plus the row/column coupling through the degree of node i.
        grad_s = g @ c["q"].T + dz1 @ c["xw"].T
        prod = grad_s * s_hat
        phi = -(prod.sum(axis=1) + prod.sum(axis=0)) / (2.0 * prop.degree)
        del prod
        grad_s *= np.outer(inv_sqrt, inv_sqrt)
        grad_s += phi[:, None]
        return loss, grads, _symmetrized(grad_s)

    inv, n1, n2, h1 = prop.inv, c["n1"], c["n2"], c["h1"]
    dn2 = g @ w["w2_neigh"].T
    t2 = inv[:, None] * dn2
    dh1 = g @ w["w2_self"].T + prop.s.T @ t2
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
    grad_s = t2 @ h1.T
    grad_s -= (t2 * n2).sum(axis=1)[:, None]
    first_layer = t1 @ x.T
    first_layer -= (t1 * n1).sum(axis=1)[:, None]
    grad_s += first_layer
    return loss, grads, _symmetrized(grad_s)


def _symmetrized(grad_s: np.ndarray) -> np.ndarray:
    """(G + G^T) / 2.

    The structure gradients build their n x n arrays in place, with the same
    arithmetic bit for bit: fresh arrays of that size cost page faults and
    set the structure step's peak memory.
    """
    sym = grad_s + grad_s.T
    sym /= 2.0
    return sym


def predict(logits: np.ndarray) -> np.ndarray:
    """Argmax class per node; ties go to the lower class index."""
    return np.argmax(logits, axis=1)


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch Adam settings; training runs a fixed number of epochs.

    ``weight_decay`` is classic L2-in-the-gradient decay applied to every
    weight matrix.
    """

    epochs: int = 200
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 5e-4

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.eps <= 0 or self.weight_decay < 0:
            raise ValueError("eps must be positive and weight_decay non-negative")


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
          mask, seed: int, hidden: int = 16) -> TrainResult:
    """Full-batch training of one model on the given structure matrix.

    The loss is taken over the nodes in ``mask``; ``seed`` draws the initial
    weights. The per-epoch loss is recorded before each update, so
    ``losses[0]`` is the loss at initialization.
    """
    if snapshot.labels is None:
        raise ValueError("training needs a labeled snapshot")
    mask = _check_mask(mask, snapshot.n_nodes)
    params = init_params(kind, snapshot.features.shape[1], hidden=hidden,
                         classes=2, seed=seed)
    state = AdamState.for_params(params)
    prop = _prepare(kind, s)
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        loss, grads, _ = backward(prop, snapshot.features, snapshot.labels,
                                  mask, params, structure=False)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite training loss at epoch {epoch}")
        losses.append(loss)
        adam_step(params, grads, state, cfg)
    return TrainResult(params=params, losses=losses)
