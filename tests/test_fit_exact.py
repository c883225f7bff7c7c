"""The shared training loop, bit for bit against the two loops it replaced:
`train_mlp`'s (classifier and target generator, dropout drawn per batch) and
`impute_dae`'s (corruption drawn per batch, masked held-out loss). The
oracle below is that code, kept as it was, with the network's old
`_forward(train=...)` and `loss_and_grads`.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from misslab._rng import child_seed, rng_for
from misslab.data import from_matrix, mask_of, validate_matrix
from misslab.imputers import DaeSpec, ImputerSpec, _mean_filled, impute_dae, run_imputer
from misslab.missingness import combine_recovered
from misslab.nnet import (
    FeedForward,
    MlpModel,
    MlpSpec,
    TrainConfig,
    _bce_with_logits,
    _loss_and_accuracy,
    _sigmoid,
    train_mlp,
)

NAN = np.nan


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

def oracle_forward(net, x, train, rng):
    acts = [x]
    drop_mask = None
    for layer in range(net.n_layers):
        z = acts[-1] @ net.weights[layer] + net.biases[layer]
        last = layer == net.n_layers - 1
        if last:
            acts.append(z)
            continue
        a = np.maximum(z, 0.0)
        if train and net.dropout_rate > 0.0 and layer == net.n_layers - 2:
            keep = 1.0 - net.dropout_rate
            drop_mask = (rng.random(a.shape) < keep) / keep
            a = a * drop_mask
        acts.append(a)
    return acts, drop_mask


def oracle_loss_and_grads(net, x, y, loss_mask=None, train=False, rng=None):
    x = np.asarray(x, dtype=np.float64)
    acts, drop_mask = oracle_forward(net, x, train, rng)
    z = acts[-1]
    if net.output == "sigmoid-binary":
        y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
        loss = _bce_with_logits(z.ravel(), y.ravel())
        delta = (_sigmoid(z) - y) / z.shape[0]
    else:
        diff = z - y
        if loss_mask is None:
            loss = float(np.mean(diff * diff))
            delta = 2.0 * diff / diff.size
        else:
            w = np.asarray(loss_mask, dtype=np.float64)
            total = w.sum()
            if total == 0:
                raise ValueError("loss mask selects no cells")
            loss = float(np.sum(w * diff * diff) / total)
            delta = 2.0 * w * diff / total

    grads_w = [np.empty(0)] * net.n_layers
    grads_b = [np.empty(0)] * net.n_layers
    for layer in range(net.n_layers - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer == 0:
            break
        delta = delta @ net.weights[layer].T
        if drop_mask is not None and layer - 1 == net.n_layers - 2:
            delta = delta * drop_mask
        delta = delta * (acts[layer] > 0.0)
    return loss, grads_w, grads_b


def oracle_train_mlp(train, valid, spec, cfg):
    sizes = [train.cols] + list(spec.hidden_layers) + [1]
    net = FeedForward(sizes, output="sigmoid-binary",
                      dropout_rate=spec.dropout_rate, seed=cfg.seed)
    x, y = train.features, train.target
    xv, yv = valid.features, valid.target
    shuffle_rng = rng_for(cfg.seed, "shuffle")
    dropout_rng = rng_for(cfg.seed, "dropout")

    model = MlpModel(net=net)
    best_snap = net.snapshot()
    since_best = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            _, gw, gb = oracle_loss_and_grads(net, x[idx], y[idx], train=True,
                                              rng=dropout_rng)
            net.apply_grads(gw, gb, cfg.learning_rate)
        train_loss, train_acc = _loss_and_accuracy(net, x, y)
        valid_loss, valid_acc = _loss_and_accuracy(net, xv, yv)
        model.training_history.append((train_loss, valid_loss, train_acc, valid_acc))
        if valid_loss < model.best_valid_loss:
            model.best_valid_loss = valid_loss
            model.best_epoch = epoch
            best_snap = net.snapshot()
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    net.restore(best_snap)
    return model


def oracle_impute_dae(holed, spec, seed=0):
    """Returns (filled copy, diagnostics, trained network)."""
    x = validate_matrix(holed)
    n, d = x.shape
    mask = mask_of(x)
    filled = _mean_filled(x)
    observed = ~mask.astype(bool)

    hold_rng = rng_for(seed, "dae", "holdout")
    holdout = (hold_rng.random((n, d)) < 0.1) & observed
    if not holdout.any():
        first = np.argwhere(observed)[0]
        holdout[first[0], first[1]] = True
    train_cells = observed & ~holdout

    widths = list(spec.encoder_widths) if spec.encoder_widths else [2 * d, d]
    hidden = widths + widths[-2::-1]
    net = FeedForward([2 * d] + hidden + [d], output="linear",
                      dropout_rate=0.0, seed=child_seed(seed, "dae", "net"))
    inputs = np.column_stack([filled, mask.astype(np.float64)])
    target = filled
    shuffle_rng = rng_for(seed, "dae", "shuffle")
    corrupt_rng = rng_for(seed, "dae", "corrupt")

    best_loss = np.inf
    best_snap = net.snapshot()
    best_epoch = 0
    since_best = 0
    trace = []
    train_w = train_cells.astype(np.float64)
    hold_w = holdout.astype(np.float64)
    for epoch in range(1, spec.epochs + 1):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            idx = order[start:start + spec.batch_size]
            batch = inputs[idx].copy()
            zap = corrupt_rng.random((idx.size, d)) < spec.corruption_rate
            batch[:, :d][zap] = 0.0
            _, gw, gb = oracle_loss_and_grads(net, batch, target[idx],
                                              loss_mask=train_w[idx])
            net.apply_grads(gw, gb, spec.learning_rate)
        valid_loss = net.loss(inputs, target, loss_mask=hold_w)
        trace.append(valid_loss)
        if valid_loss < best_loss:
            best_loss = valid_loss
            best_snap = net.snapshot()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= spec.patience:
                break
    net.restore(best_snap)
    reconstruction = net.logits(inputs)
    recovered = combine_recovered(x, reconstruction, mask)
    return recovered, {"sweeps_run": len(trace), "best_epoch": best_epoch,
                       "convergence_trace": trace}, net


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_weights(net, other):
    for w, v in zip(net.weights + net.biases, other.weights + other.biases):
        assert_same_bits(w, v)


def blobs(seed, n, flip=False):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack([rng.normal(-1.0, 1.0, size=(half, 3)),
                   rng.normal(1.0, 1.0, size=(n - half, 3))])
    y = np.concatenate([np.zeros(half), np.ones(n - half)])
    return from_matrix(x, target=1.0 - y if flip else y)


# name: (dropout, max_epochs, patience, batch_size, learning rate, rows,
#        flipped validation labels, whether early stopping ends the run)
MLP_CASES = {
    "no-dropout-stops-early": (0.0, 40, 4, 16, 0.5, 160, True, True),
    "dropout-stops-early": (0.2, 40, 4, 16, 0.5, 160, True, True),
    "no-dropout-runs-out": (0.0, 12, 5, 32, 0.05, 160, False, False),
    "dropout-runs-out": (0.2, 12, 5, 32, 0.05, 160, False, False),
    "patience-equals-epochs": (0.2, 9, 9, 16, 0.5, 160, True, False),
    "ragged-batches": (0.2, 15, 3, 37, 0.3, 101, False, None),
}


@pytest.mark.parametrize("case", list(MLP_CASES))
def test_train_mlp_matches_the_old_loop(case):
    dropout, epochs, patience, batch, lr, rows, flip, stops = MLP_CASES[case]
    train, valid = blobs(1, rows), blobs(2, 60, flip)
    spec = MlpSpec(hidden_layers=[8, 6], dropout_rate=dropout)
    cfg = TrainConfig(max_epochs=epochs, batch_size=batch, learning_rate=lr,
                      patience=patience, seed=7)
    model = train_mlp(train, valid, spec, cfg)
    expected = oracle_train_mlp(train, valid, spec, cfg)
    assert_same_weights(model.net, expected.net)
    assert model.training_history == expected.training_history
    assert model.best_epoch == expected.best_epoch
    assert model.best_valid_loss == expected.best_valid_loss
    if stops is not None:
        assert (len(model.training_history) < epochs) == stops


def unit_table(seed, n, d, rate, full_column=None):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, 1))
    raw = base + 0.5 * rng.normal(size=(n, d))
    x = (raw - raw.min(axis=0)) / (raw.max(axis=0) - raw.min(axis=0))
    hide = rng.random((n, d)) < rate
    hide[np.all(hide, axis=1), 0] = False
    if full_column is not None:
        hide[:, full_column] = False
    holed = x.copy()
    holed[hide] = NAN
    return holed


# name: (DaeSpec arguments, rows, fully observed column, whether early
#        stopping ends the run)
DAE_CASES = {
    "stops-early": (dict(epochs=80, patience=3, learning_rate=0.2), 90, None, True),
    "runs-out": (dict(epochs=6, patience=4), 90, None, False),
    "patience-equals-epochs": (dict(epochs=7, patience=7), 90, None, False),
    "ragged-batches": (dict(epochs=10, patience=3, batch_size=17), 75, None, None),
    "fully-observed-column": (dict(epochs=10, patience=4, encoder_widths=[5]), 80, 2, None),
}


@pytest.mark.parametrize("case", list(DAE_CASES))
def test_impute_dae_matches_the_old_loop(case, monkeypatch):
    kwargs, rows, full_column, stops = DAE_CASES[case]
    holed = unit_table(3, rows, 4, 0.25, full_column)
    spec = DaeSpec(**kwargs)
    nets = []

    class Kept(FeedForward):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            nets.append(self)

    monkeypatch.setattr("misslab.imputers.FeedForward", Kept)
    result = impute_dae(holed, spec, seed=11)
    filled, diagnostics, net = oracle_impute_dae(holed, spec, seed=11)
    (trained,) = nets
    assert_same_weights(trained, net)
    assert_same_bits(result.copies[0], filled)
    assert result.diagnostics == [diagnostics]
    if stops is not None:
        assert (diagnostics["sweeps_run"] < spec.epochs) == stops


# ---------------------------------------------------------------------------
# What the benchmark reads
# ---------------------------------------------------------------------------

@pytest.fixture
def tracer(monkeypatch):
    # perfbench is a directory of scripts, not a package: load its tracer
    # from the file, registered only for the test (its dataclasses look
    # their module up by name).
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("epochs, patience, flip", [(40, 4, True), (7, 7, False)],
                         ids=["stops-early", "runs-out"])
def test_benchmark_counts_the_epochs_run(tracer, epochs, patience, flip):
    # Training ends `patience` epochs after the best one, or at the limit.
    train, valid = blobs(1, 160), blobs(2, 60, flip)
    args = (train, valid, MlpSpec(hidden_layers=[8], dropout_rate=0.2),
            TrainConfig(max_epochs=epochs, batch_size=16, learning_rate=0.5,
                        patience=patience, seed=7))
    model = train_mlp(*args)
    run = min(model.best_epoch + patience, epochs)
    assert tracer._mlp_counts(args, {}, model) == {"epochs": run, "row_epochs": run * 160}

    holed = unit_table(3, 90, 4, 0.25)
    dae = DaeSpec(epochs=epochs, patience=patience, learning_rate=0.2)
    args = (holed, ImputerSpec("dae", dae=dae, seed=11))
    result = run_imputer(*args)
    (diagnostics,) = result.diagnostics
    run = min(diagnostics["best_epoch"] + patience, epochs)
    counts = tracer._imputer_counts(args, {}, result)
    assert counts["sweeps"] == run and counts["cells_filled"] == int(np.isnan(holed).sum())
