"""Feed-forward networks trained by mini-batch gradient descent.

One network class and one early-stopped training loop (`fit`) serve three
jobs: the binary classifier, the target generator, and the reconstruction
network inside the autoencoder imputer. Hidden layers are ReLU; the output
head is a single sigmoid unit trained with binary cross entropy or a linear
layer trained with squared error restricted to a cell mask. Dropout (inverted
scaling, so inference needs no rescaling) hits the last hidden layer only.

Networks of one shape train side by side as a stack: network s keeps its
weights in row s of one (networks x parameters) array, each layer's pass is
one `np.matmul` over the stack, and a step is one update of the array. Each
network keeps its own seed, shuffle and dropout streams, patience and best
weights, and leaves the stack when it stops early; numpy computes a stacked
product as one BLAS call per network, so each ends with the bits it would
get trained alone. The target generator, the autoencoder and a lone
classifier are stacks of one, a run's classification cells are stacks of
many (`train_mlps`), and every stack has the same 3-D layout.
Each epoch, `fit` hands the shuffled row orders to its caller once; the
caller gathers that epoch's rows and draws its dropout or corruption in one
call, and batches are slices. Classification cells score only the
validation loss per epoch; the target generator keeps the full four-column
history.
"""

from __future__ import annotations

import copy
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
    """Weights, forward pass, and analytic gradients for a stack of networks
    of one shape, trained side by side; one network is a stack of one.

    Network s keeps every weight matrix and bias vector as a view into row s
    of `params` (networks x parameters). Each layer has one (networks,
    fan_in, fan_out) weight view and one (networks, 1, fan_out) bias view,
    whatever the stack's size, so a layer's pass is one `np.matmul` over the
    stack, which numpy makes as one BLAS call per network: each network gets
    the bits it would get alone. `grads` fills `grad`, laid out as `params`,
    so a step is one update. Inputs, targets and loss masks are stacked (one
    slice per network) or shared 2-D rows that broadcast against every
    network; activations and `logits` are (networks, rows, units)."""

    def __init__(self, layer_sizes: list[int], output: str = "sigmoid-binary",
                 dropout_rate: float = 0.0, seed: int | list[int] = 0):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.output = output
        self.dropout_rate = float(dropout_rate)
        pairs = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        self.n_layers = len(pairs)
        seeds = [seed] if np.ndim(seed) == 0 else list(seed)
        self._bind(np.zeros((len(seeds), sum((fan_in + 1) * fan_out
                                             for fan_in, fan_out in pairs))))
        for s, net_seed in enumerate(seeds):
            rng = rng_for(net_seed, "init")
            for w in self._views(self.params[s:s + 1])[0]:
                w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[-2])

    def _bind(self, params: np.ndarray) -> None:
        """Make `params` the stack's weights, with a gradient of its layout."""
        self.params = params
        self.grad = np.empty_like(params)
        self.weights, self.biases = self._views(self.params)
        self._grad_w, self._grad_b = self._views(self.grad)

    def _views(self, flat: np.ndarray):
        """Per-layer (weights, biases) views into a parameter-shaped array."""
        weights, biases, start = [], [], 0
        size = flat.shape[0]
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            weights.append(flat[:, start:start + fan_in * fan_out].reshape(
                size, fan_in, fan_out))
            start += fan_in * fan_out
            biases.append(flat[:, start:start + fan_out].reshape(size, 1, fan_out))
            start += fan_out
        return weights, biases

    def dropout_mask(self, rngs: list[np.random.Generator],
                     rows: int) -> np.ndarray | None:
        """Inverted-dropout factors for `rows` rows of the last hidden layer,
        drawn for network s from rngs[s], or None when nothing drops."""
        if self.dropout_rate == 0.0 or self.n_layers < 2:
            return None
        keep = 1.0 - self.dropout_rate
        return np.stack([rng.random((rows, self.layer_sizes[-2])) < keep
                         for rng in rngs]) / keep

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
        """(networks, rows, outputs)."""
        return self._forward(np.asarray(x, dtype=np.float64), None)[-1]

    def loss(self, x: np.ndarray, y: np.ndarray,
             loss_mask: np.ndarray | None = None) -> np.ndarray:
        """Each network's loss, reduced over that network's rows alone."""
        z = self.logits(x)
        if self.output == "sigmoid-binary":
            y = np.broadcast_to(np.asarray(y, dtype=np.float64), z.shape[:-1])
            return np.array([_bce_with_logits(zs, ys) for zs, ys in zip(z[..., 0], y)])
        if loss_mask is None:
            raise ValueError("a linear head needs a loss mask")
        diffs = z - y
        losses = []
        for w, diff in zip(np.broadcast_to(np.asarray(loss_mask, dtype=np.float64),
                                           diffs.shape), diffs):
            total = w.sum()
            if total == 0:
                raise ValueError("loss mask selects no cells")
            losses.append(np.sum(w * diff * diff) / total)
        return np.array(losses)

    def grads(self, x: np.ndarray, y: np.ndarray,
              loss_mask: np.ndarray | None = None,
              drop: np.ndarray | None = None) -> np.ndarray:
        """dL/d`params` by backpropagation, written into and returned as
        `grad`. A network whose loss mask selects no cell gets a zero
        gradient."""
        acts = self._forward(np.asarray(x, dtype=np.float64), drop)
        z = acts[-1]
        empty = None
        # The output deltas are computed in place, in the order of
        # (sigmoid(z) - y) / rows and 2 * w * (z - y) / total.
        if self.output == "sigmoid-binary":
            delta = _sigmoid(z)
            delta -= np.asarray(y, dtype=np.float64)[..., None]
            delta /= z.shape[-2]
        elif loss_mask is None:
            raise ValueError("a linear head needs a loss mask")
        else:
            delta = z - y
            w = np.asarray(loss_mask, dtype=np.float64)
            total = w.sum(axis=(-2, -1), keepdims=w.ndim == 3)
            if not all(total.flat):              # a network's mask selects no cell
                empty = (total == 0).ravel()
                total = np.where(total == 0, 1.0, total)
            delta *= 2.0 * w
            delta /= total

        head = self.n_layers - 1
        for layer in range(head, -1, -1):
            np.matmul(acts[layer].swapaxes(-1, -2), delta, out=self._grad_w[layer])
            np.add.reduce(delta, axis=-2, keepdims=True, out=self._grad_b[layer])
            if layer == 0:
                break
            delta = delta @ self.weights[layer].swapaxes(-1, -2)
            if drop is not None and layer == head:
                delta *= drop
            delta *= acts[layer] > 0.0
        if empty is not None:
            self.grad[np.broadcast_to(empty, self.grad.shape[:1])] = 0.0
        return self.grad


@dataclass
class MlpModel:
    net: FeedForward
    # One row per epoch, as `fit`'s `score` returns it.
    training_history: list = field(default_factory=list)
    best_epoch: int = 0
    best_valid_loss: float = np.inf


def fit(net: FeedForward, rows: int, epochs: int, batch_size: int, lr: float,
        patience: int, shuffle_rngs: list[np.random.Generator], epoch,
        score) -> list[MlpModel]:
    """Mini-batch descent of every network of the stack `net` on `rows` rows
    each. Network s shuffles with shuffle_rngs[s]. Each epoch hands the live
    networks' positions in the original stack and their shuffled row orders
    (live networks x rows) to `epoch(live, orders)` once, which gathers that
    epoch's arrays and returns `grads(batch)`, the gradient on a slice of the
    orders; one step per batch follows it. Each epoch then records
    `score(live)` = (validation losses, history rows), one per live network.
    A network stops after `patience` epochs without improvement and leaves
    the stack; at the end each holds its best epoch's weights. Returns one
    model per network, each a stack of one."""
    models = [MlpModel(net=net) for _ in shuffle_rngs]
    best = net.params.copy()
    since_best = [0] * len(models)
    live = np.arange(len(models))
    for number in range(1, epochs + 1):
        grads = epoch(live, np.array([shuffle_rngs[s].permutation(rows) for s in live]))
        for start in range(0, rows, batch_size):
            step = grads(slice(start, start + batch_size))
            step *= lr
            net.params -= step
        losses, history = score(live)
        going = []
        for i, s in enumerate(live.tolist()):
            model = models[s]
            model.training_history.append(history[i])
            if losses[i] < model.best_valid_loss:
                model.best_valid_loss = losses[i]
                model.best_epoch = number
                best[s] = net.params[i]
                since_best[s] = 0
                going.append(i)
            else:
                since_best[s] += 1
                if since_best[s] < patience:
                    going.append(i)
        if len(going) < live.size:
            if not going:
                break
            net._bind(net.params[going])          # the stopped leave the stack
            live = live[going]
    net._bind(best)
    for s, model in enumerate(models):       # each a stack of one on its row
        model.net = copy.copy(net)
        model.net._bind(best[s:s + 1])
    return models


def _loss_and_accuracy(net: FeedForward, x: np.ndarray,
                       y: np.ndarray) -> list[tuple[float, float]]:
    """Per network: cross entropy and 0.5-threshold accuracy from one
    forward pass."""
    out = []
    for z, labels in zip(net.logits(x)[..., 0], y):
        accuracy = float(np.mean((_sigmoid(z) >= 0.5).astype(np.float64) == labels))
        out.append((_bce_with_logits(z, labels), accuracy))
    return out


def train_mlps(tasks: list[tuple[Dataset, Dataset, int]], spec: MlpSpec | None = None,
               cfg: TrainConfig | None = None,
               full_history: bool = True) -> list[MlpModel]:
    """Binary classifiers of one shape, each early-stopped on validation
    loss, trained as one stack: a task is (train, valid, seed), and each
    network trains on its own rows with its own seed (cfg.seed is not
    read). Every task needs as many training rows, and as many validation
    rows, as the first. History rows are (train_loss, valid_loss, train_acc,
    valid_acc), or the validation loss alone when not `full_history`; the
    weights are the same either way, and the same as trained alone."""
    spec = spec or MlpSpec()
    cfg = cfg or TrainConfig()
    for train, valid, _ in tasks:
        if train.rows == 0:
            raise ValueError("training set is empty")
        if train.target is None or valid.target is None:
            raise ValueError("train and valid need targets")
        observed_matrix(train.features, "training")
        observed_matrix(valid.features, "training")
        if train.cols != valid.cols:
            raise ValueError("train/valid column counts differ")
        if (train.rows, valid.rows) != (tasks[0][0].rows, tasks[0][1].rows):
            raise ValueError("stacked networks need equal row counts")

    seeds = [seed for _, _, seed in tasks]
    sizes = [tasks[0][0].cols] + list(spec.hidden_layers) + [1]
    net = FeedForward(sizes, output="sigmoid-binary",
                      dropout_rate=spec.dropout_rate, seed=seeds)
    x = np.stack([train.features for train, _, _ in tasks])
    y = np.stack([train.target for train, _, _ in tasks])
    xv = np.stack([valid.features for _, valid, _ in tasks])
    yv = np.stack([valid.target for _, valid, _ in tasks])
    dropout_rngs = [rng_for(seed, "dropout") for seed in seeds]

    def epoch(live, orders):
        rows = orders + (live * orders.shape[1])[:, None]   # into the stacked tables
        xo, yo = np.take(x.reshape(-1, x.shape[-1]), rows, axis=0), np.take(y, rows)
        drop = net.dropout_mask([dropout_rngs[s] for s in live], orders.shape[1])
        return lambda batch: net.grads(xo[:, batch], yo[:, batch],
                                       drop=None if drop is None else drop[:, batch])

    def score(live):
        live = slice(None) if live.size == len(tasks) else live    # no copy while all live
        if not full_history:
            valid_loss = net.loss(xv[live], yv[live]).tolist()
            return valid_loss, valid_loss
        train_scores = _loss_and_accuracy(net, x[live], y[live])
        valid_scores = _loss_and_accuracy(net, xv[live], yv[live])
        rows = [(train_loss, valid_loss, train_acc, valid_acc) for (train_loss, train_acc),
                (valid_loss, valid_acc) in zip(train_scores, valid_scores)]
        return [row[1] for row in rows], rows

    return fit(net, x.shape[1], cfg.max_epochs, cfg.batch_size, cfg.learning_rate,
               cfg.patience, [rng_for(seed, "shuffle") for seed in seeds], epoch, score)


def train_mlp(train: Dataset, valid: Dataset, spec: MlpSpec | None = None,
              cfg: TrainConfig | None = None, full_history: bool = True) -> MlpModel:
    """One binary classifier early-stopped on validation loss: a stack of
    one, seeded with cfg.seed (see `train_mlps`)."""
    cfg = cfg or TrainConfig()
    return train_mlps([(train, valid, cfg.seed)], spec, cfg, full_history)[0]


def predict_mlp(model: MlpModel, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities, labels); label 1 wherever probability >= 0.5."""
    x = observed_matrix(data, "prediction")
    if x.shape[1] != model.net.layer_sizes[0]:
        raise ValueError(
            f"data has {x.shape[1]} columns, model expects {model.net.layer_sizes[0]}")
    probs = _sigmoid(model.net.logits(x).ravel())
    return probs, (probs >= 0.5).astype(np.int64)
