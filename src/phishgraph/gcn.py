"""Graph convolutional classifier: forward pass, weighted loss, training.

The forward pass follows the symmetric-normalized propagation rule: every
layer computes activations(A_hat @ H @ W) with ReLU on hidden layers and a
row-wise softmax on the two-unit output layer. Inverted dropout is applied to
hidden activations only while training. There are no bias terms unless
explicitly enabled, keeping the layer rule literal.

The loss is a class-weighted cross-entropy summed over the masked nodes,
L = -sum_i w(y_i) * log p_i(y_i), with the log clamped at 1e-12 so a
confidently wrong prediction cannot produce an infinite loss. Inverse
frequency weights are w_c = N / (2 * N_c), which equalizes the total weight
mass of the two classes.

Gradients are exact and analytic (fused softmax/cross-entropy at the output,
ReLU masks, dropout masks reused from the forward pass, and the transposed
operator for the propagation step). Training is full batch, deterministic
for a fixed (seed, config, data) triple, with Adam by default and plain
gradient descent available for gradient checking.
"""
from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ClassAbsent, InvalidConfig, ShapeMismatch, StorageError
from .evaluate import MetricsReport, confusion, metrics
from .graph import GraphBatch, SparseMatrix, spmv

MODEL_MAGIC = b"PHGM"
MODEL_VERSION = 1

_LOG_CLAMP = 1e-12
WEIGHT_MODES = ("uniform", "inverse_frequency", "manual")
OPTIMIZERS = ("adam", "gd")


@dataclass(frozen=True)
class GcnConfig:
    hidden_dims: tuple[int, ...] = (64, 32)
    dropout_rate: float = 0.5
    learning_rate: float = 0.01
    epochs: int = 200
    weight_mode: str = "inverse_frequency"
    manual_weights: tuple[float, float] | None = None
    seed: int = 0
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    threshold: float = 0.5
    use_bias: bool = False

    def validate(self) -> None:
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise InvalidConfig("hidden_dims must be a non-empty list of widths")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidConfig("dropout_rate must lie in [0, 1)")
        if self.learning_rate <= 0:
            raise InvalidConfig("learning_rate must be positive")
        if self.epochs < 1:
            raise InvalidConfig("epochs must be at least 1")
        if self.weight_mode not in WEIGHT_MODES:
            raise InvalidConfig(f"unknown weight mode {self.weight_mode!r}")
        if self.weight_mode == "manual":
            if self.manual_weights is None or len(self.manual_weights) != 2:
                raise InvalidConfig("manual weight mode needs a (benign, phishing) pair")
            if any(w <= 0 for w in self.manual_weights):
                raise InvalidConfig("manual weights must be positive")
        if self.optimizer not in OPTIMIZERS:
            raise InvalidConfig(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 < self.threshold < 1.0:
            raise InvalidConfig("threshold must lie in (0, 1)")
        if self.seed < 0:
            raise InvalidConfig("seed must be non-negative")

    def to_json(self) -> dict:
        return {
            "hidden_dims": list(self.hidden_dims),
            "dropout_rate": self.dropout_rate,
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "weight_mode": self.weight_mode,
            "manual_weights": (
                list(self.manual_weights) if self.manual_weights else None
            ),
            "seed": self.seed,
            "optimizer": self.optimizer,
            "threshold": self.threshold,
            "use_bias": self.use_bias,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "GcnConfig":
        kwargs = dict(payload)
        if "hidden_dims" in kwargs:
            kwargs["hidden_dims"] = tuple(kwargs["hidden_dims"])
        if kwargs.get("manual_weights") is not None:
            kwargs["manual_weights"] = tuple(kwargs["manual_weights"])
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


@dataclass
class GcnModel:
    """Layer weights W(l); dims chain input -> hidden... -> 2 classes."""

    weights: list[np.ndarray]
    biases: list[np.ndarray] | None = None

    def __post_init__(self):
        for a, b in zip(self.weights, self.weights[1:]):
            if a.shape[1] != b.shape[0]:
                raise ShapeMismatch("consecutive layer dimensions do not chain")
        if self.weights[-1].shape[1] != 2:
            raise ShapeMismatch("final layer must have 2 output units")
        if self.biases is not None and len(self.biases) != len(self.weights):
            raise ShapeMismatch("bias count != layer count")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple([self.weights[0].shape[0]] + [w.shape[1] for w in self.weights])

    def copy(self) -> "GcnModel":
        return GcnModel(
            [w.copy() for w in self.weights],
            None if self.biases is None else [b.copy() for b in self.biases],
        )


def init_model(
    n_features: int, hidden_dims: tuple[int, ...], seed: int, use_bias: bool = False
) -> GcnModel:
    """Glorot-uniform initialization: U(-b, b) with b = sqrt(6/(fan_in+fan_out))."""
    rng = np.random.default_rng(seed)
    dims = [n_features, *hidden_dims, 2]
    weights = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    biases = [np.zeros(w.shape[1]) for w in weights] if use_bias else None
    return GcnModel(weights, biases)


@dataclass
class ForwardCache:
    # per layer, the operand multiplied by W(l): A_hat @ H(l) when the layer
    # propagates first, H(l) itself when it propagates after the product
    weight_inputs: list[np.ndarray]
    pre_activation: list[np.ndarray]   # Z(l) for hidden layers (ReLU inputs)
    dropout_masks: list[np.ndarray | None]


def _propagates_after(w: np.ndarray) -> bool:
    """True when a layer narrows, so A_hat @ (H @ W) moves fewer columns."""
    return w.shape[1] < w.shape[0]


def forward(
    model: GcnModel,
    adj: SparseMatrix,
    X: np.ndarray,
    training: bool = False,
    dropout_rate: float = 0.0,
    dropout_seed: int = 0,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the propagation rule; returns row-stochastic probabilities.

    Each layer multiplies A_hat into its narrower side: A_hat @ (H @ W) when
    the layer narrows, (A_hat @ H) @ W otherwise.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.weights[0].shape[0]:
        raise ShapeMismatch(
            f"feature width {X.shape} does not match first layer "
            f"({model.weights[0].shape[0]})"
        )
    if adj.n_cols != X.shape[0]:
        raise ShapeMismatch("adjacency size does not match feature rows")

    rng = np.random.default_rng(dropout_seed)
    drop = training and dropout_rate > 0.0
    keep = 1.0 - dropout_rate

    h = X
    weight_inputs: list[np.ndarray] = []
    pre_activation: list[np.ndarray] = []
    masks: list[np.ndarray | None] = []
    n_hidden = len(model.weights) - 1
    for layer, w in enumerate(model.weights):
        if _propagates_after(w):
            weight_inputs.append(h)
            z = spmv(adj, h @ w)
        else:
            p = spmv(adj, h)
            weight_inputs.append(p)
            z = p @ w
        if model.biases is not None:
            z = z + model.biases[layer]
        if layer == n_hidden:
            break
        pre_activation.append(z)
        h = np.maximum(z, 0.0)
        if drop:
            mask = (rng.random(h.shape) < keep).astype(np.float64) / keep
            h = h * mask
            masks.append(mask)
        else:
            masks.append(None)

    shifted = z - z.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    return probs, ForwardCache(weight_inputs, pre_activation, masks)


def class_weights(
    labels: np.ndarray,
    mode: str = "inverse_frequency",
    manual: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """(w_benign, w_phishing) for the given training labels.

    Inverse frequency means w_c = N / (2 * N_c): with both classes present it
    makes the two classes contribute equal total weight to the loss.
    """
    if mode == "uniform":
        return (1.0, 1.0)
    if mode == "manual":
        if manual is None or len(manual) != 2:
            raise InvalidConfig("manual mode requires a (benign, phishing) pair")
        return (float(manual[0]), float(manual[1]))
    if mode != "inverse_frequency":
        raise InvalidConfig(f"unknown weight mode {mode!r}")
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    counts = np.bincount(labels, minlength=2)
    if counts[0] == 0 or counts[1] == 0:
        raise ClassAbsent(
            "inverse-frequency weighting needs both classes in the training labels"
        )
    return (n / (2.0 * counts[0]), n / (2.0 * counts[1]))


def weighted_ce_loss(
    probs: np.ndarray,
    labels: np.ndarray,
    weights: tuple[float, float],
    mask: np.ndarray | None = None,
) -> float:
    """Sum-form weighted cross-entropy over the masked nodes."""
    labels = np.asarray(labels, dtype=np.int64)
    if mask is None:
        mask = np.ones(len(labels), dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return 0.0
    p_true = probs[idx, labels[idx]]
    w = np.asarray(weights)[labels[idx]]
    return float(-(w * np.log(np.maximum(p_true, _LOG_CLAMP))).sum())


def backward(
    model: GcnModel,
    cache: ForwardCache,
    probs: np.ndarray,
    labels: np.ndarray,
    weights: tuple[float, float],
    mask: np.ndarray,
    adj_t: SparseMatrix,
) -> tuple[list[np.ndarray], list[np.ndarray] | None]:
    """Analytic gradients of the weighted loss for every layer.

    `adj_t` is the transpose of the propagation operator (equal to it when
    symmetrized). The dropout masks cached by the forward pass are reused so
    the gradient matches the exact function that was evaluated. A layer that
    propagated after its product takes A_hat^T @ delta first, then W^T; the
    others take delta @ W^T first, so each pass moves the narrow side.
    """
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    n = probs.shape[0]

    upstream = probs.copy()
    upstream[np.arange(n), labels] -= 1.0
    node_weight = np.asarray(weights)[labels]
    upstream *= (node_weight * mask)[:, None]

    grads_w: list[np.ndarray] = [np.zeros_like(w) for w in model.weights]
    grads_b = (
        [np.zeros_like(b) for b in model.biases] if model.biases is not None else None
    )

    n_hidden = len(model.weights) - 1
    for layer in range(n_hidden, -1, -1):
        delta = upstream
        if layer < n_hidden:
            if cache.dropout_masks[layer] is not None:
                delta = delta * cache.dropout_masks[layer]
            delta = delta * (cache.pre_activation[layer] > 0.0)
        if grads_b is not None:
            grads_b[layer] = delta.sum(axis=0)
        w = model.weights[layer]
        after = _propagates_after(w)
        if after:
            delta = spmv(adj_t, delta)
        grads_w[layer] = cache.weight_inputs[layer].T @ delta
        if layer > 0:
            upstream = delta @ w.T if after else spmv(adj_t, delta @ w.T)
    return grads_w, grads_b


class GradientDescentState:
    """Plain full-batch gradient descent."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, model: GcnModel, grads_w, grads_b) -> None:
        for w, g in zip(model.weights, grads_w):
            w -= self.learning_rate * g
        if model.biases is not None and grads_b is not None:
            for b, g in zip(model.biases, grads_b):
                b -= self.learning_rate * g


class AdamState:
    def __init__(self, model: GcnModel, cfg: GcnConfig):
        self.lr = cfg.learning_rate
        self.beta1 = cfg.adam_beta1
        self.beta2 = cfg.adam_beta2
        self.eps = cfg.adam_eps
        self.t = 0
        self.m_w = [np.zeros_like(w) for w in model.weights]
        self.v_w = [np.zeros_like(w) for w in model.weights]
        if model.biases is not None:
            self.m_b = [np.zeros_like(b) for b in model.biases]
            self.v_b = [np.zeros_like(b) for b in model.biases]

    def _update(self, param, grad, m, v):
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad * grad
        m_hat = m / (1 - self.beta1**self.t)
        v_hat = v / (1 - self.beta2**self.t)
        param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def step(self, model: GcnModel, grads_w, grads_b) -> None:
        self.t += 1
        for w, g, m, v in zip(model.weights, grads_w, self.m_w, self.v_w):
            self._update(w, g, m, v)
        if model.biases is not None and grads_b is not None:
            for b, g, m, v in zip(model.biases, grads_b, self.m_b, self.v_b):
                self._update(b, g, m, v)


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)        # sum form
    losses_mean: list[float] = field(default_factory=list)   # sum / |mask|
    train_accuracy: list[float] = field(default_factory=list)
    train_weighted_f1: list[float] = field(default_factory=list)
    final_test: MetricsReport | None = None
    class_weights: tuple[float, float] = (1.0, 1.0)
    config: dict = field(default_factory=dict)
    seed: int = 0
    wall_time_s: float = 0.0  # measured but excluded from artifacts

    def to_dict(self) -> dict:
        return {
            "losses": self.losses,
            "losses_mean": self.losses_mean,
            "train_accuracy": self.train_accuracy,
            "train_weighted_f1": self.train_weighted_f1,
            "final_test": None if self.final_test is None else self.final_test.to_dict(),
            "class_weights": list(self.class_weights),
            "config": self.config,
            "seed": self.seed,
        }


def train(batch: GraphBatch, cfg: GcnConfig) -> tuple[GcnModel, TrainReport]:
    """Full-batch training; deterministic for a fixed (seed, config, data)."""
    cfg.validate()
    start = time.perf_counter()
    X = batch.features.rows
    w_pair = class_weights(
        batch.labels[batch.train_mask], cfg.weight_mode, cfg.manual_weights
    )
    model = init_model(X.shape[1], cfg.hidden_dims, cfg.seed, cfg.use_bias)
    adj_t = batch.norm_adj.transpose()
    optimizer = (
        AdamState(model, cfg)
        if cfg.optimizer == "adam"
        else GradientDescentState(cfg.learning_rate)
    )
    report = TrainReport(
        class_weights=w_pair, config=cfg.to_json(), seed=cfg.seed
    )
    n_train = int(batch.train_mask.sum())
    for epoch in range(cfg.epochs):
        probs, cache = forward(
            model,
            batch.norm_adj,
            X,
            training=True,
            dropout_rate=cfg.dropout_rate,
            dropout_seed=_epoch_seed(cfg.seed, epoch),
        )
        loss = weighted_ce_loss(probs, batch.labels, w_pair, batch.train_mask)
        report.losses.append(loss)
        report.losses_mean.append(loss / n_train if n_train else 0.0)
        grads_w, grads_b = backward(
            model, cache, probs, batch.labels, w_pair, batch.train_mask, adj_t
        )
        optimizer.step(model, grads_w, grads_b)
        # train metrics come from a clean inference pass on the updated
        # weights, so the last entry describes the returned model
        pred, _ = predict(model, batch.norm_adj, X, cfg.threshold)
        epoch_metrics = metrics(confusion(pred, batch.labels, batch.train_mask))
        report.train_accuracy.append(epoch_metrics.accuracy)
        report.train_weighted_f1.append(epoch_metrics.weighted_f1)

    if batch.test_mask.any():
        pred, _ = predict(model, batch.norm_adj, X, cfg.threshold)
        report.final_test = metrics(confusion(pred, batch.labels, batch.test_mask))
    report.wall_time_s = time.perf_counter() - start
    return model, report


def _epoch_seed(seed: int, epoch: int) -> int:
    # Distinct, reproducible dropout stream per epoch.
    return (seed * 1_000_003 + epoch) % (2**63)


def predict(
    model: GcnModel, adj: SparseMatrix, X: np.ndarray, threshold: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """(labels, phishing probabilities); phishing iff p >= threshold."""
    probs, _ = forward(model, adj, X, training=False)
    p_phish = probs[:, 1]
    return (p_phish >= threshold).astype(np.int64), p_phish


def save_model(
    model: GcnModel,
    path: str | Path,
    config: GcnConfig,
    feature_names: tuple[str, ...],
) -> None:
    """Versioned binary weights plus a JSON sidecar (<path>.json).

    The sidecar carries the config, seed, and feature-name registry so a model
    is only ever applied to a matching feature layout.
    """
    dims = model.dims
    parts = [
        struct.pack(
            "<4sHHB",
            MODEL_MAGIC,
            MODEL_VERSION,
            len(model.weights),
            1 if model.biases is not None else 0,
        )
    ]
    for d in dims:
        parts.append(struct.pack("<I", d))
    for w in model.weights:
        parts.append(np.ascontiguousarray(w).tobytes())
    if model.biases is not None:
        for b in model.biases:
            parts.append(np.ascontiguousarray(b).tobytes())
    Path(path).write_bytes(b"".join(parts))
    sidecar = {
        "config": config.to_json(),
        "seed": config.seed,
        "feature_names": list(feature_names),
    }
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_model(path: str | Path) -> tuple[GcnModel, dict]:
    blob = Path(path).read_bytes()
    head = struct.Struct("<4sHHB")
    if len(blob) < head.size:
        raise StorageError(f"model file too short: {path}")
    magic, version, n_layers, has_bias = head.unpack_from(blob, 0)
    if magic != MODEL_MAGIC:
        raise StorageError(f"not a model file (bad magic): {path}")
    if version != MODEL_VERSION:
        raise StorageError(f"unsupported model version {version}: {path}")
    offset = head.size
    dims = []
    for _ in range(n_layers + 1):
        (d,) = struct.unpack_from("<I", blob, offset)
        dims.append(d)
        offset += 4
    weights = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        count = fan_in * fan_out
        w = np.frombuffer(blob, dtype=np.float64, count=count, offset=offset)
        weights.append(w.reshape(fan_in, fan_out).copy())
        offset += 8 * count
    biases = None
    if has_bias:
        biases = []
        for fan_out in dims[1:]:
            b = np.frombuffer(blob, dtype=np.float64, count=fan_out, offset=offset)
            biases.append(b.copy())
            offset += 8 * fan_out
    if offset != len(blob):
        raise StorageError(f"model file truncated or padded: {path}")
    sidecar_path = Path(str(path) + ".json")
    sidecar = (
        json.loads(sidecar_path.read_text(encoding="utf-8"))
        if sidecar_path.exists()
        else {}
    )
    return GcnModel(weights, biases), sidecar
