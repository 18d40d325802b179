"""Graph convolutional classifier: forward pass, weighted loss, training.

The forward pass follows the symmetric-normalized propagation rule: every
layer computes activations(A_hat @ H @ W) with ReLU on hidden layers and a
row-wise softmax on the two-unit output layer. Inverted dropout is applied to
hidden activations only while training, as a boolean keep mask per hidden
layer (drawn in blocks) and the one scale 1/keep. There are no bias terms
unless explicitly enabled, keeping the layer rule literal.

The loss is a class-weighted cross-entropy summed over the masked nodes,
L = -sum_i w(y_i) * log p_i(y_i), with the log clamped at 1e-12 so a
confidently wrong prediction cannot produce an infinite loss. Inverse
frequency weights are w_c = N / (2 * N_c), which equalizes the total weight
mass of the two classes.

Gradients are exact and analytic (fused softmax/cross-entropy at the output,
ReLU masks, dropout masks reused from the forward pass, and the transposed
operator for the propagation step). An epoch holds only what backward reads:
ReLU runs in place and is cached as a bool mask, and backward writes each
upstream gradient into the cached operand it has just spent. Training is
full batch, deterministic for a fixed (seed, config, data) triple, with Adam
by default and plain gradient descent available for gradient checking. Both
optimizers step one parameter list, `GcnModel.params`: every layer's
weights, then every layer's biases when enabled, the order model.bin stores
them in; `backward` returns its gradients in that order. Dropout never
touches the input features, so when the first layer propagates before its
product, training computes A_hat @ X once and every forward pass reuses it.
A loss or a weight that turns non-finite stops training with
TrainingDiverged. ``GcnConfig`` checks its fields when it is built,
``dataclasses.replace`` included, so ``train`` never sees an invalid one;
the CLI's choices come from ``WEIGHT_MODES`` and ``OPTIMIZERS``.
"""
from __future__ import annotations

import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, ShapeMismatch, TrainingDiverged
from .evaluate import MetricsReport, class_weights, confusion, metrics
from .graph import GraphBatch, SparseMatrix, spmv
from .storage import write_json

MODEL_MAGIC = b"PHGM"
MODEL_VERSION = 1

_LOG_CLAMP = 1e-12
WEIGHT_MODES = ("uniform", "inverse_frequency", "manual")
OPTIMIZERS = ("adam", "gd")
# Adam's moment decay rates and denominator floor (Kingma & Ba defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
DROPOUT_BLOCK = 8192  # doubles (64 KiB) per draw of a dropout keep mask


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
    threshold: float = 0.5
    use_bias: bool = False

    def __post_init__(self):
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise InvalidConfig("hidden_dims must be a non-empty list of widths")
        if max(self.hidden_dims) >= 2**63:  # numpy sizes arrays in int64
            raise InvalidConfig(f"hidden_dims must be below 2**63, not {max(self.hidden_dims)}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidConfig("dropout_rate must lie in [0, 1)")
        if not 0 < self.learning_rate < np.inf:
            raise InvalidConfig("learning_rate must be positive and finite")
        if self.epochs < 1:
            raise InvalidConfig("epochs must be at least 1")
        if self.weight_mode not in WEIGHT_MODES:
            raise InvalidConfig(f"unknown weight mode {self.weight_mode!r}")
        if self.weight_mode == "manual":
            if self.manual_weights is None or len(self.manual_weights) != 2:
                raise InvalidConfig("manual weight mode needs a (benign, phishing) pair")
            if not all(0 < w < np.inf for w in self.manual_weights):
                raise InvalidConfig("manual weights must be positive and finite")
        elif self.manual_weights is not None:
            raise InvalidConfig("manual weights need weight mode 'manual'")
        if self.optimizer not in OPTIMIZERS:
            raise InvalidConfig(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 < self.threshold < 1.0:
            raise InvalidConfig("threshold must lie in (0, 1)")
        if self.seed < 0:
            raise InvalidConfig("seed must be non-negative")


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

    @property
    def params(self) -> list[np.ndarray]:
        """Weights, then biases if any: the order model.bin stores them in."""
        return self.weights + (self.biases or [])


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
    # propagates first, else H(l); backward spends and clears those above 0
    weight_inputs: list[np.ndarray | None]
    active: list[np.ndarray]   # per hidden layer, Z(l) > 0: where ReLU passes
    # per hidden layer, the units inverted dropout kept (None when off); a
    # kept unit is multiplied by dropout_scale = 1/keep
    dropout_masks: list[np.ndarray | None]
    dropout_scale: float


def dropout_mask(rng: np.random.Generator, shape: tuple[int, ...], keep: float) -> np.ndarray:
    """``rng.random(shape) < keep``, drawn DROPOUT_BLOCK doubles at a time:
    the generator fills a buffer in C order, one 64-bit word per double."""
    mask = np.empty(shape, dtype=bool)
    flat, block = mask.reshape(-1), np.empty(DROPOUT_BLOCK)
    for start in range(0, flat.size, DROPOUT_BLOCK):
        part = block[: min(DROPOUT_BLOCK, flat.size - start)]
        np.less(rng.random(out=part), keep, out=flat[start : start + part.size])
    return mask


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
    *,
    propagated_x: np.ndarray | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the propagation rule; returns row-stochastic probabilities.

    Each layer multiplies A_hat into its narrower side: A_hat @ (H @ W) when
    the layer narrows, (A_hat @ H) @ W otherwise. `propagated_x`, if given,
    is A_hat @ X; it stands in for that product when the first layer
    propagates first and is unused when it narrows.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.weights[0].shape[0]:
        raise ShapeMismatch(
            f"feature width {X.shape} does not match first layer "
            f"({model.weights[0].shape[0]})"
        )
    if adj.n_cols != X.shape[0]:
        raise ShapeMismatch("adjacency size does not match feature rows")
    if propagated_x is not None and propagated_x.shape != (adj.n_rows, X.shape[1]):
        raise ShapeMismatch("propagated features do not match A_hat @ X")

    rng = np.random.default_rng(dropout_seed)
    drop = training and dropout_rate > 0.0
    keep = 1.0 - dropout_rate
    scale = 1.0 / keep if drop else 1.0

    h = X
    weight_inputs: list[np.ndarray] = []
    active: list[np.ndarray] = []
    masks: list[np.ndarray | None] = []
    n_hidden = len(model.weights) - 1
    for layer, w in enumerate(model.weights):
        if _propagates_after(w):
            weight_inputs.append(h)
            z = spmv(adj, h @ w)
        else:
            p = spmv(adj, h) if layer or propagated_x is None else propagated_x
            weight_inputs.append(p)
            z = p @ w
        if model.biases is not None:
            z += model.biases[layer]
        if layer == n_hidden:
            break
        active.append(z > 0.0)
        h = np.maximum(z, 0.0, out=z)
        if drop:
            # a kept unit is rounded once (h * 1/keep); a dropped one keeps
            # its zero's sign, so the bits are those of h * (mask / keep)
            mask = dropout_mask(rng, h.shape, keep)
            h *= mask
            h *= scale
            masks.append(mask)
        else:
            masks.append(None)

    shifted = z - z.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    return probs, ForwardCache(weight_inputs, active, masks, scale)


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
) -> list[np.ndarray]:
    """Analytic gradients of the weighted loss, aligned with `model.params`.

    `adj_t` is the transpose of the propagation operator (equal to it when
    symmetrized). The dropout masks cached by the forward pass are reused so
    the gradient matches the exact function that was evaluated. A layer that
    propagated after its product takes A_hat^T @ delta first, then W^T; the
    others take delta @ W^T first, so each pass moves the narrow side.

    It consumes `cache`: above layer 0, delta @ W^T overwrites the cached
    operand its weight gradient has spent. Layer 0's (X or A_hat @ X) is read.
    """
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    n = probs.shape[0]

    upstream = probs.copy()
    upstream[np.arange(n), labels] -= 1.0
    node_weight = np.asarray(weights)[labels]
    upstream *= (node_weight * mask)[:, None]

    n_layers = len(model.weights)
    # each entry is set below, top layer first; a bias follows all weights
    grads = [None] * (2 * n_layers if model.biases is not None else n_layers)

    n_hidden = n_layers - 1
    for layer in range(n_hidden, -1, -1):
        # upstream is this backward's own array, so delta is updated in place
        delta, upstream = upstream, None
        if layer < n_hidden:
            if cache.dropout_masks[layer] is not None:
                delta *= cache.dropout_masks[layer]
                delta *= cache.dropout_scale
            delta *= cache.active[layer]
        if model.biases is not None:
            grads[n_layers + layer] = delta.sum(axis=0)
        w = model.weights[layer]
        after = _propagates_after(w)
        if after:
            delta = spmv(adj_t, delta)
        grads[layer] = cache.weight_inputs[layer].T @ delta
        if layer > 0:
            upstream = np.matmul(delta, w.T, out=cache.weight_inputs[layer])
            cache.weight_inputs[layer] = None  # spent: it now holds upstream
            if not after:
                del delta
                upstream = spmv(adj_t, upstream)
    return grads


class GradientDescentState:
    """Plain full-batch gradient descent."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        for p, g in zip(params, grads, strict=True):
            p -= self.learning_rate * g


class AdamState:
    """Adam with one first and second moment per parameter array."""

    def __init__(self, params: list[np.ndarray], learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        for p, g, m, v in zip(params, grads, self.m, self.v, strict=True):
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            m_hat = m / (1 - ADAM_BETA1**self.t)
            v_hat = v / (1 - ADAM_BETA2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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

    def to_dict(self) -> dict:
        final = None if self.final_test is None else self.final_test.to_dict()
        return {**asdict(self), "final_test": final}


def train(batch: GraphBatch, cfg: GcnConfig) -> tuple[GcnModel, TrainReport]:
    """Full-batch training; deterministic for a fixed (seed, config, data)."""
    X = batch.features.rows
    w_pair = class_weights(
        batch.labels[batch.train_mask], cfg.weight_mode, cfg.manual_weights
    )
    model = init_model(X.shape[1], cfg.hidden_dims, cfg.seed, cfg.use_bias)
    params = model.params
    adj_t = batch.norm_adj.transpose()
    optimizer = (
        AdamState(params, cfg.learning_rate)
        if cfg.optimizer == "adam"
        else GradientDescentState(cfg.learning_rate)
    )
    report = TrainReport(
        class_weights=w_pair, config=asdict(cfg), seed=cfg.seed
    )
    n_train = int(batch.train_mask.sum())
    # Dropout only touches hidden units, so A_hat @ X is the same in every
    # pass that propagates before the first product.
    propagated_x = None
    if not _propagates_after(model.weights[0]):
        propagated_x = spmv(batch.norm_adj, X)
        propagated_x.setflags(write=False)
    # A run that overflows is reported by the non-finite loss or weight
    # check, as TrainingDiverged; numpy's warnings would only come before it.
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            probs, cache = forward(
                model,
                batch.norm_adj,
                X,
                training=True,
                dropout_rate=cfg.dropout_rate,
                dropout_seed=_epoch_seed(cfg.seed, epoch),
                propagated_x=propagated_x,
            )
            loss = weighted_ce_loss(probs, batch.labels, w_pair, batch.train_mask)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"training diverged: loss {loss} at epoch {epoch + 1} of {cfg.epochs}"
                )
            report.losses.append(loss)
            report.losses_mean.append(loss / n_train if n_train else 0.0)
            grads = backward(
                model, cache, probs, batch.labels, w_pair, batch.train_mask, adj_t
            )
            optimizer.step(params, grads)
            # free this pass's activations before the next ones are allocated
            del probs, cache, grads
            if not all(np.isfinite(p).all() for p in params):
                raise TrainingDiverged(
                    f"training diverged: a weight turned non-finite at epoch "
                    f"{epoch + 1} of {cfg.epochs}"
                )
            # train metrics come from a clean inference pass on the updated
            # weights, so the last pass also scores the returned model on test
            pred, _ = predict(
                model, batch.norm_adj, X, cfg.threshold, propagated_x=propagated_x
            )
            epoch_metrics = metrics(confusion(pred, batch.labels, batch.train_mask))
            report.train_accuracy.append(epoch_metrics.accuracy)
            report.train_weighted_f1.append(epoch_metrics.weighted_f1)

    if batch.test_mask.any():
        report.final_test = metrics(confusion(pred, batch.labels, batch.test_mask))
    return model, report


def _epoch_seed(seed: int, epoch: int) -> int:
    # Distinct, reproducible dropout stream per epoch.
    return (seed * 1_000_003 + epoch) % (2**63)


def predict(
    model: GcnModel,
    adj: SparseMatrix,
    X: np.ndarray,
    threshold: float = 0.5,
    *,
    propagated_x: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(labels, phishing probabilities); phishing iff p >= threshold."""
    probs, _ = forward(model, adj, X, training=False, propagated_x=propagated_x)
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
    for p in model.params:
        parts.append(np.ascontiguousarray(p).tobytes())
    Path(path).write_bytes(b"".join(parts))
    write_json(
        str(path) + ".json",
        {"config": asdict(config), "seed": config.seed, "feature_names": list(feature_names)},
    )

