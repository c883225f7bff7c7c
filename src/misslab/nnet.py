"""Feed-forward networks trained by mini-batch gradient descent.

One network class and one early-stopped training loop (`fit`) serve three
jobs: the binary classifier, the target generator, and the reconstruction
network inside the autoencoder imputer. Hidden layers are ReLU; the output
head is a single sigmoid unit trained with binary cross entropy or a linear
layer trained with squared error restricted to a cell mask. Dropout (inverted
scaling, so inference needs no rescaling) hits the last hidden layer only.

A network's weights live in one flat vector and a step is one update of it.
Each epoch, `fit` hands the shuffled row order to its caller once; the caller
gathers that epoch's rows and draws its dropout or corruption in one call, and
batches are slices. Classification cells score only the validation loss per
epoch; the target generator keeps the full four-column history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rng import rng_for
from .data import Dataset, observed_matrix


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
    # 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, in one pass.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _bce_with_logits(z: np.ndarray, y: np.ndarray) -> float:
    # max(z,0) - y*z + log(1 + exp(-|z|)) is the stable per-sample form.
    per = np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))
    return float(per.mean())


class FeedForward:
    """Weights, forward pass, and analytic gradients for one network.

    Every weight matrix and bias vector is a view into one flat vector,
    `params`; `grads` fills `grad`, laid out the same way, so a step is one
    vector update."""

    def __init__(self, layer_sizes: list[int], output: str = "sigmoid-binary",
                 dropout_rate: float = 0.0, seed: int = 0):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.output = output
        self.dropout_rate = float(dropout_rate)
        pairs = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        self.n_layers = len(pairs)
        self.params = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in pairs))
        self.grad = np.empty_like(self.params)
        self.weights, self.biases = self._views(self.params)
        self._grad_w, self._grad_b = self._views(self.grad)
        rng = rng_for(seed, "init")
        for w in self.weights:
            w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])

    def _views(self, flat: np.ndarray):
        """Per-layer (weights, biases) views into a parameter-shaped vector."""
        weights, biases, start = [], [], 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            weights.append(flat[start:start + fan_in * fan_out].reshape(fan_in, fan_out))
            start += fan_in * fan_out
            biases.append(flat[start:start + fan_out])
            start += fan_out
        return weights, biases

    def dropout_mask(self, rng: np.random.Generator, rows: int) -> np.ndarray | None:
        """Inverted-dropout factors for `rows` rows of the last hidden layer,
        or None when nothing drops."""
        if self.dropout_rate == 0.0 or self.n_layers < 2:
            return None
        keep = 1.0 - self.dropout_rate
        return (rng.random((rows, self.layer_sizes[-2])) < keep) / keep

    def _forward(self, x: np.ndarray, drop: np.ndarray | None):
        """Activations per layer; `drop` multiplies the last hidden layer."""
        acts = [x]
        head = self.n_layers - 1
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w
            z += b
            if layer < head:                   # the output head stays pre-activation
                np.maximum(z, 0.0, out=z)
                if drop is not None and layer == head - 1:
                    z *= drop
            acts.append(z)
        return acts

    def logits(self, x: np.ndarray) -> np.ndarray:
        return self._forward(np.asarray(x, dtype=np.float64), None)[-1]

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
              drop: np.ndarray | None = None) -> np.ndarray:
        """dL/d`params` by backpropagation, written into and returned as
        `grad`. A loss mask that selects no cell gives a zero gradient."""
        x = np.asarray(x, dtype=np.float64)
        acts = self._forward(x, drop)
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
                    self.grad.fill(0.0)
                    return self.grad
                delta = 2.0 * w * diff / total

        head = self.n_layers - 1
        for layer in range(head, -1, -1):
            np.matmul(acts[layer].T, delta, out=self._grad_w[layer])
            np.add.reduce(delta, axis=0, out=self._grad_b[layer])
            if layer == 0:
                break
            delta = delta @ self.weights[layer].T
            if drop is not None and layer == head:
                delta *= drop
            delta *= acts[layer] > 0.0
        return self.grad

    def snapshot(self) -> np.ndarray:
        return self.params.copy()

    def restore(self, snap: np.ndarray) -> None:
        self.params[...] = snap


@dataclass
class MlpModel:
    net: FeedForward
    # One row per epoch, as `fit`'s `score` returns it.
    training_history: list = field(default_factory=list)
    best_epoch: int = 0
    best_valid_loss: float = np.inf


def fit(net: FeedForward, rows: int, epochs: int, batch_size: int, lr: float,
        patience: int, shuffle_rng: np.random.Generator, epoch, score) -> MlpModel:
    """Mini-batch descent on `rows` rows. Each epoch hands its shuffled row
    order to `epoch(order)` once, which gathers that epoch's arrays and
    returns `grads(batch)`, the gradient on a slice of the order; one step
    per batch follows it. Each epoch then records `score()` = (validation
    loss, history row). Stops after `patience` epochs without improvement
    and restores the best epoch's weights."""
    model = MlpModel(net=net)
    best_snap = net.snapshot()
    since_best = 0
    for number in range(1, epochs + 1):
        grads = epoch(shuffle_rng.permutation(rows))
        for start in range(0, rows, batch_size):
            net.params -= lr * grads(slice(start, start + batch_size))
        valid_loss, row = score()
        model.training_history.append(row)
        if valid_loss < model.best_valid_loss:
            model.best_valid_loss = valid_loss
            model.best_epoch = number
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
              cfg: TrainConfig | None = None, full_history: bool = True) -> MlpModel:
    """Binary classifier early-stopped on validation loss. History rows are
    (train_loss, valid_loss, train_acc, valid_acc), or the validation loss
    alone when not `full_history`; the weights are the same either way."""
    spec = spec or MlpSpec()
    cfg = cfg or TrainConfig()
    if train.rows == 0:
        raise ValueError("training set is empty")
    if train.target is None or valid.target is None:
        raise ValueError("train and valid need targets")
    observed_matrix(train.features, "training")
    observed_matrix(valid.features, "training")
    if train.cols != valid.cols:
        raise ValueError("train/valid column counts differ")

    sizes = [train.cols] + list(spec.hidden_layers) + [1]
    net = FeedForward(sizes, output="sigmoid-binary",
                      dropout_rate=spec.dropout_rate, seed=cfg.seed)
    x, y = train.features, train.target
    xv, yv = valid.features, valid.target
    dropout_rng = rng_for(cfg.seed, "dropout")

    def epoch(order):
        xo, yo = x[order], y[order]
        drop = net.dropout_mask(dropout_rng, order.size)
        if drop is None:
            return lambda batch: net.grads(xo[batch], yo[batch])
        return lambda batch: net.grads(xo[batch], yo[batch], drop=drop[batch])

    def score():
        if not full_history:
            valid_loss = net.loss(xv, yv)
            return valid_loss, valid_loss
        train_loss, train_acc = _loss_and_accuracy(net, x, y)
        valid_loss, valid_acc = _loss_and_accuracy(net, xv, yv)
        return valid_loss, (train_loss, valid_loss, train_acc, valid_acc)

    return fit(net, x.shape[0], cfg.max_epochs, cfg.batch_size, cfg.learning_rate,
               cfg.patience, rng_for(cfg.seed, "shuffle"), epoch, score)


def predict_mlp(model: MlpModel, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities, labels); label 1 wherever probability >= 0.5."""
    x = observed_matrix(data, "prediction")
    if x.shape[1] != model.net.layer_sizes[0]:
        raise ValueError(
            f"data has {x.shape[1]} columns, model expects {model.net.layer_sizes[0]}")
    probs = _sigmoid(model.net.logits(x).ravel())
    return probs, (probs >= 0.5).astype(np.int64)
