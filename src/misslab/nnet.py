"""Feed-forward networks trained by mini-batch gradient descent.

One network class and one early-stopped training loop (`fit`) serve three
jobs: the binary classifier, the target generator, and the reconstruction
network inside the autoencoder imputer. Hidden layers are ReLU; the output
head is a single sigmoid unit trained with binary cross entropy or a linear
layer trained with squared error restricted to a cell mask. Dropout (inverted
scaling, so inference needs no rescaling) hits the last hidden layer only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rng import rng_for
from .data import Dataset, validate_matrix


@dataclass
class MlpSpec:
    hidden_layers: list[int] = field(default_factory=lambda: [20, 20])
    dropout_rate: float = 0.2

    def __post_init__(self):
        if any(w <= 0 for w in self.hidden_layers):
            raise ValueError("hidden layer widths must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")


@dataclass
class TrainConfig:
    max_epochs: int = 200
    batch_size: int = 64
    learning_rate: float = 0.01
    patience: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.patience > self.max_epochs:
            raise ValueError("patience cannot exceed max_epochs")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _bce_with_logits(z: np.ndarray, y: np.ndarray) -> float:
    # max(z,0) - y*z + log(1 + exp(-|z|)) is the stable per-sample form.
    per = np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))
    return float(per.mean())


class FeedForward:
    """Weights, forward pass, and analytic gradients for one network."""

    def __init__(self, layer_sizes: list[int], output: str = "sigmoid-binary",
                 dropout_rate: float = 0.0, seed: int = 0):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.output = output
        self.dropout_rate = float(dropout_rate)
        rng = rng_for(seed, "init")
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
            self.biases.append(np.zeros(fan_out))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def _forward(self, x: np.ndarray, rng: np.random.Generator | None):
        """Activations per layer; `rng` draws dropout on the last hidden layer."""
        acts = [x]
        drop_mask = None
        for layer in range(self.n_layers):
            z = acts[-1] @ self.weights[layer] + self.biases[layer]
            last = layer == self.n_layers - 1
            if last:
                acts.append(z)          # output head stays pre-activation here
                continue
            a = np.maximum(z, 0.0)
            if rng is not None and self.dropout_rate > 0.0 and layer == self.n_layers - 2:
                keep = 1.0 - self.dropout_rate
                drop_mask = (rng.random(a.shape) < keep) / keep
                a = a * drop_mask
            acts.append(a)
        return acts, drop_mask

    def logits(self, x: np.ndarray,
               rng: np.random.Generator | None = None) -> np.ndarray:
        acts, _ = self._forward(np.asarray(x, dtype=np.float64), rng)
        return acts[-1]

    def loss(self, x: np.ndarray, y: np.ndarray,
             loss_mask: np.ndarray | None = None) -> float:
        z = self.logits(x)
        if self.output == "sigmoid-binary":
            return _bce_with_logits(z.ravel(), np.asarray(y, dtype=np.float64))
        diff = z - y
        if loss_mask is None:
            return float(np.mean(diff * diff))
        w = np.asarray(loss_mask, dtype=np.float64)
        total = w.sum()
        if total == 0:
            raise ValueError("loss mask selects no cells")
        return float(np.sum(w * diff * diff) / total)

    def grads(self, x: np.ndarray, y: np.ndarray,
              loss_mask: np.ndarray | None = None,
              rng: np.random.Generator | None = None):
        """dL/dW, dL/db for every layer (backpropagation)."""
        x = np.asarray(x, dtype=np.float64)
        acts, drop_mask = self._forward(x, rng)
        z = acts[-1]
        if self.output == "sigmoid-binary":
            y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
            delta = (_sigmoid(z) - y) / z.shape[0]
        else:
            diff = z - y
            if loss_mask is None:
                delta = 2.0 * diff / diff.size
            else:
                w = np.asarray(loss_mask, dtype=np.float64)
                total = w.sum()
                if total == 0:
                    raise ValueError("loss mask selects no cells")
                delta = 2.0 * w * diff / total

        grads_w = [np.empty(0)] * self.n_layers
        grads_b = [np.empty(0)] * self.n_layers
        for layer in range(self.n_layers - 1, -1, -1):
            grads_w[layer] = acts[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer == 0:
                break
            delta = delta @ self.weights[layer].T
            if drop_mask is not None and layer - 1 == self.n_layers - 2:
                delta = delta * drop_mask
            delta = delta * (acts[layer] > 0.0)
        return grads_w, grads_b

    def apply_grads(self, grads_w, grads_b, lr: float) -> None:
        for layer in range(self.n_layers):
            self.weights[layer] -= lr * grads_w[layer]
            self.biases[layer] -= lr * grads_b[layer]

    def snapshot(self) -> list[np.ndarray]:
        return [w.copy() for w in self.weights] + [b.copy() for b in self.biases]

    def restore(self, snap: list[np.ndarray]) -> None:
        n = self.n_layers
        self.weights = [w.copy() for w in snap[:n]]
        self.biases = [b.copy() for b in snap[n:]]


def gradient_check(net: FeedForward, x: np.ndarray, y: np.ndarray,
                   loss_mask: np.ndarray | None = None,
                   eps: float = 1e-5) -> float:
    """Max relative error of analytic gradients vs central finite differences.

    Dropout is off (deterministic loss); tiny gradients are guarded so the
    ratio stays meaningful.
    """
    grads_w, grads_b = net.grads(x, y, loss_mask)
    worst = 0.0
    params = list(net.weights) + list(net.biases)
    grads = list(grads_w) + list(grads_b)
    for p, g in zip(params, grads):
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            keep = flat_p[i]
            flat_p[i] = keep + eps
            up = net.loss(x, y, loss_mask)
            flat_p[i] = keep - eps
            down = net.loss(x, y, loss_mask)
            flat_p[i] = keep
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(numeric) + abs(flat_g[i]), 1e-8)
            worst = max(worst, abs(numeric - flat_g[i]) / denom)
    return worst


@dataclass
class MlpModel:
    net: FeedForward
    # One row per epoch, as `fit`'s `score` returns it.
    training_history: list = field(default_factory=list)
    best_epoch: int = 0
    best_valid_loss: float = np.inf


def fit(net: FeedForward, rows: int, epochs: int, batch_size: int, lr: float,
        patience: int, shuffle_rng: np.random.Generator, grads, score) -> MlpModel:
    """Mini-batch descent on `rows` rows, one step per shuffled batch along
    `grads(batch_rows)`; each epoch records `score()` = (validation loss,
    history row). Stops after `patience` epochs without improvement and
    restores the best epoch's weights."""
    model = MlpModel(net=net)
    best_snap = net.snapshot()
    since_best = 0
    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(rows)
        for start in range(0, rows, batch_size):
            net.apply_grads(*grads(order[start:start + batch_size]), lr)
        valid_loss, row = score()
        model.training_history.append(row)
        if valid_loss < model.best_valid_loss:
            model.best_valid_loss = valid_loss
            model.best_epoch = epoch
            best_snap = net.snapshot()
            since_best = 0
        else:
            since_best += 1
            if since_best >= patience:
                break
    net.restore(best_snap)
    return model


def _loss_and_accuracy(net: FeedForward, x: np.ndarray,
                       y: np.ndarray) -> tuple[float, float]:
    """Cross entropy and 0.5-threshold accuracy from one forward pass."""
    z = net.logits(x).ravel()
    accuracy = float(np.mean((_sigmoid(z) >= 0.5).astype(np.float64) == y))
    return _bce_with_logits(z, y), accuracy


def train_mlp(train: Dataset, valid: Dataset, spec: MlpSpec | None = None,
              cfg: TrainConfig | None = None) -> MlpModel:
    """Binary classifier early-stopped on validation loss. History rows are
    (train_loss, valid_loss, train_acc, valid_acc)."""
    spec = spec or MlpSpec()
    cfg = cfg or TrainConfig()
    if train.rows == 0:
        raise ValueError("training set is empty")
    if train.target is None or valid.target is None:
        raise ValueError("train and valid need targets")
    if train.mask.any() or valid.mask.any():
        raise ValueError("training requires fully observed data")
    if train.cols != valid.cols:
        raise ValueError("train/valid column counts differ")

    sizes = [train.cols] + list(spec.hidden_layers) + [1]
    net = FeedForward(sizes, output="sigmoid-binary",
                      dropout_rate=spec.dropout_rate, seed=cfg.seed)
    x, y = train.features, train.target
    xv, yv = valid.features, valid.target
    dropout_rng = rng_for(cfg.seed, "dropout")

    def grads(idx):
        return net.grads(x[idx], y[idx], rng=dropout_rng)

    def score():
        train_loss, train_acc = _loss_and_accuracy(net, x, y)
        valid_loss, valid_acc = _loss_and_accuracy(net, xv, yv)
        return valid_loss, (train_loss, valid_loss, train_acc, valid_acc)

    return fit(net, x.shape[0], cfg.max_epochs, cfg.batch_size, cfg.learning_rate,
               cfg.patience, rng_for(cfg.seed, "shuffle"), grads, score)


def predict_mlp(model: MlpModel, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities, labels); label 1 wherever probability >= 0.5."""
    x = validate_matrix(data)
    if np.isnan(x).any():
        raise ValueError("prediction requires fully observed data")
    if x.shape[1] != model.net.layer_sizes[0]:
        raise ValueError(
            f"data has {x.shape[1]} columns, model expects {model.net.layer_sizes[0]}")
    probs = _sigmoid(model.net.logits(x).ravel())
    return probs, (probs >= 0.5).astype(np.int64)
