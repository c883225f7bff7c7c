"""The shared training loop, bit for bit against the loops it replaced:
`train_mlp`'s (classifier and target generator, dropout drawn per batch) and
`impute_dae`'s (corruption drawn per batch, masked held-out loss), and
stacked training (`train_mlps`) against each network trained alone by that
oracle. The oracle below is that code, kept as it was: one network at a
time, per-layer weight lists stepped one by one, the old
`_forward(train=...)` and `loss_and_grads`, the two-branch sigmoid, and
every draw made batch by batch. It keeps its weights in its own `OracleNet`.
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
from misslab.nnet import (FeedForward, MlpModel, MlpSpec, TrainConfig, _sigmoid, train_mlp,
                          train_mlps)

NAN = np.nan


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

def oracle_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def oracle_bce_with_logits(z, y):
    per = np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))
    return float(per.mean())


def oracle_init(layer_sizes, seed):
    rng = rng_for(seed, "init")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
        biases.append(np.zeros(fan_out))
    return weights, biases


class OracleNet:
    """One network's settings and its per-layer weight and bias arrays."""

    def __init__(self, layer_sizes, output, dropout_rate, seed):
        self.output, self.dropout_rate = output, dropout_rate
        self.n_layers = len(layer_sizes) - 1
        self.weights, self.biases = oracle_init(layer_sizes, seed)


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


def oracle_logits(net, x):
    return oracle_forward(net, np.asarray(x, dtype=np.float64), False, None)[0][-1]


def oracle_masked_loss(net, x, y, loss_mask):
    diff = oracle_logits(net, x) - y
    w = np.asarray(loss_mask, dtype=np.float64)
    return float(np.sum(w * diff * diff) / w.sum())


def oracle_loss_and_accuracy(net, x, y):
    z = oracle_logits(net, x).ravel()
    accuracy = float(np.mean((oracle_sigmoid(z) >= 0.5).astype(np.float64) == y))
    return oracle_bce_with_logits(z, y), accuracy


def oracle_loss_and_grads(net, x, y, loss_mask=None, train=False, rng=None):
    x = np.asarray(x, dtype=np.float64)
    acts, drop_mask = oracle_forward(net, x, train, rng)
    z = acts[-1]
    if net.output == "sigmoid-binary":
        y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
        loss = oracle_bce_with_logits(z.ravel(), y.ravel())
        delta = (oracle_sigmoid(z) - y) / z.shape[0]
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


def oracle_apply_grads(net, grads_w, grads_b, lr):
    for layer in range(net.n_layers):
        net.weights[layer] -= lr * grads_w[layer]
        net.biases[layer] -= lr * grads_b[layer]


def oracle_snapshot(net):
    return [w.copy() for w in net.weights] + [b.copy() for b in net.biases]


def oracle_restore(net, snap):
    for kept, now in zip(snap, net.weights + net.biases):
        now[...] = kept


def oracle_train_mlp(train, valid, spec, cfg):
    sizes = [train.cols] + list(spec.hidden_layers) + [1]
    net = OracleNet(sizes, "sigmoid-binary", spec.dropout_rate, cfg.seed)
    x, y = train.features, train.target
    xv, yv = valid.features, valid.target
    shuffle_rng = rng_for(cfg.seed, "shuffle")
    dropout_rng = rng_for(cfg.seed, "dropout")

    model = MlpModel(net=net)
    best_snap = oracle_snapshot(net)
    since_best = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            _, gw, gb = oracle_loss_and_grads(net, x[idx], y[idx], train=True,
                                              rng=dropout_rng)
            oracle_apply_grads(net, gw, gb, cfg.learning_rate)
        train_loss, train_acc = oracle_loss_and_accuracy(net, x, y)
        valid_loss, valid_acc = oracle_loss_and_accuracy(net, xv, yv)
        model.training_history.append((train_loss, valid_loss, train_acc, valid_acc))
        if valid_loss < model.best_valid_loss:
            model.best_valid_loss = valid_loss
            model.best_epoch = epoch
            best_snap = oracle_snapshot(net)
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    oracle_restore(net, best_snap)
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
    sizes = [2 * d] + hidden + [d]
    net = OracleNet(sizes, "linear", 0.0, child_seed(seed, "dae", "net"))
    inputs = np.column_stack([filled, mask.astype(np.float64)])
    target = filled
    shuffle_rng = rng_for(seed, "dae", "shuffle")
    corrupt_rng = rng_for(seed, "dae", "corrupt")

    best_loss = np.inf
    best_snap = oracle_snapshot(net)
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
            oracle_apply_grads(net, gw, gb, spec.learning_rate)
        valid_loss = oracle_masked_loss(net, inputs, target, hold_w)
        trace.append(valid_loss)
        if valid_loss < best_loss:
            best_loss = valid_loss
            best_snap = oracle_snapshot(net)
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= spec.patience:
                break
    oracle_restore(net, best_snap)
    reconstruction = oracle_logits(net, inputs)
    recovered = combine_recovered(x, reconstruction)
    return recovered, {"sweeps_run": len(trace), "best_epoch": best_epoch,
                       "convergence_trace": trace}, net


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_weights(net, oracle, s=0):
    """Network s of the stack `net` holds the oracle network's weights."""
    size = net.params.shape[0]
    for w, v in zip(net.weights + net.biases, oracle.weights + oracle.biases):
        assert_same_bits(w.reshape(size, *v.shape)[s], v)


def blobs(seed, n, flip=False):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack([rng.normal(-1.0, 1.0, size=(half, 3)),
                   rng.normal(1.0, 1.0, size=(n - half, 3))])
    y = np.concatenate([np.zeros(half), np.ones(n - half)])
    return from_matrix(x, target=1.0 - y if flip else y)


# name: (dropout, max_epochs, patience, batch_size, learning rate, rows,
#        flipped validation labels, whether early stopping ends the run,
#        hidden layer widths)
MLP_CASES = {
    "no-dropout-stops-early": (0.0, 40, 4, 16, 0.5, 160, True, True, [8, 6]),
    "dropout-stops-early": (0.2, 40, 4, 16, 0.5, 160, True, True, [8, 6]),
    "no-dropout-runs-out": (0.0, 12, 5, 32, 0.05, 160, False, False, [8, 6]),
    "dropout-runs-out": (0.2, 12, 5, 32, 0.05, 160, False, False, [8, 6]),
    "patience-equals-epochs": (0.2, 9, 9, 16, 0.5, 160, True, False, [8, 6]),
    "ragged-batches": (0.2, 15, 3, 37, 0.3, 101, False, None, [8, 6]),
    "no-hidden-layer": (0.2, 15, 3, 37, 0.3, 101, True, None, []),
    "one-hidden-layer": (0.2, 20, 4, 16, 0.5, 160, True, None, [7]),
}


def mlp_case(case):
    dropout, epochs, patience, batch, lr, rows, flip, stops, hidden = MLP_CASES[case]
    train, valid = blobs(1, rows), blobs(2, 60, flip)
    spec = MlpSpec(hidden_layers=hidden, dropout_rate=dropout)
    cfg = TrainConfig(max_epochs=epochs, batch_size=batch, learning_rate=lr,
                      patience=patience, seed=7)
    return train, valid, spec, cfg, stops


@pytest.mark.parametrize("case", list(MLP_CASES))
def test_train_mlp_matches_the_old_loop(case):
    train, valid, spec, cfg, stops = mlp_case(case)
    model = train_mlp(train, valid, spec, cfg)
    expected = oracle_train_mlp(train, valid, spec, cfg)
    assert_same_weights(model.net, expected.net)
    assert model.training_history == expected.training_history
    assert model.best_epoch == expected.best_epoch
    assert model.best_valid_loss == expected.best_valid_loss
    if stops is not None:
        assert (len(model.training_history) < cfg.max_epochs) == stops


@pytest.mark.parametrize("case", list(MLP_CASES))
def test_validation_only_score_trains_the_same_network(case):
    train, valid, spec, cfg, _ = mlp_case(case)
    full = train_mlp(train, valid, spec, cfg)
    lean = train_mlp(train, valid, spec, cfg, full_history=False)
    assert_same_bits(lean.net.params, full.net.params)
    assert lean.best_epoch == full.best_epoch
    assert lean.best_valid_loss == full.best_valid_loss
    assert lean.training_history == [row[1] for row in full.training_history]


@pytest.mark.parametrize("sizes, output", [([3, 8, 6, 1], "sigmoid-binary"),
                                           ([4, 1], "sigmoid-binary"),
                                           ([8, 8, 4, 8, 4], "linear")])
def test_flat_parameters_start_from_the_old_draws(sizes, output):
    net = FeedForward(sizes, output=output, seed=5)
    weights, biases = oracle_init(sizes, 5)
    for now, kept in zip(net.weights + net.biases, weights + biases):
        assert_same_bits(now.reshape(kept.shape), kept)
        assert np.shares_memory(now, net.params)
    assert net.params.size == sum(w.size + b.size for w, b in zip(weights, biases))
    # A stack starts each network from its own seed's draws.
    stack = FeedForward(sizes, output=output, seed=[9, 5, 6])
    for s, seed in enumerate([9, 5, 6]):
        assert_same_weights(stack, OracleNet(sizes, output, 0.0, seed), s)


# name: (flipped validation labels per network, dropout, max_epochs, patience,
#        batch_size, learning rate, rows, hidden layer widths, whether early
#        stopping ends each network's run)
STACK_CASES = {
    "one-network": ((False,), 0.2, 40, 4, 16, 0.5, 160, [8, 6], [True]),
    "two-no-dropout-shrinks": ((False, False), 0.0, 40, 4, 16, 0.5, 160, [8, 6],
                               [True, True]),
    "five-shrink-often": ((True, False, True, False, True), 0.2, 40, 4, 16, 0.5, 160,
                          [8, 6], [True] * 5),
    "five-some-run-out": ((True, False, True, False, True), 0.2, 12, 5, 32, 0.05, 160,
                          [8, 6], [True, False, True, False, True]),
    "five-all-run-out": ((False,) * 5, 0.2, 12, 5, 32, 0.05, 160, [8, 6], [False] * 5),
    "no-hidden-layer": ((True, False), 0.2, 15, 3, 37, 0.3, 101, [], [True, False]),
    "partial-last-batch": ((True, False, True, False, True), 0.2, 15, 3, 37, 0.3, 101,
                           [8, 6], [True, False, True, False, True]),
}


@pytest.mark.parametrize("full_history", [True, False], ids=["full", "lean"])
@pytest.mark.parametrize("case", list(STACK_CASES))
def test_stacked_networks_match_each_trained_alone(case, full_history):
    # Each network has its own rows, validation rows and seed, so the stack
    # shrinks as networks stop; each must end as the oracle trains it alone.
    flips, dropout, epochs, patience, batch, lr, rows, hidden, stops = STACK_CASES[case]
    tasks = [(blobs(10 + s, rows), blobs(20 + s, 60, flip), 7 + s)
             for s, flip in enumerate(flips)]
    spec = MlpSpec(hidden_layers=hidden, dropout_rate=dropout)
    cfg = TrainConfig(max_epochs=epochs, batch_size=batch, learning_rate=lr,
                      patience=patience, seed=0)
    models = train_mlps(tasks, spec, cfg, full_history)
    for model, (train, valid, seed), stop in zip(models, tasks, stops):
        expected = oracle_train_mlp(train, valid, spec, TrainConfig(
            max_epochs=epochs, batch_size=batch, learning_rate=lr, patience=patience,
            seed=seed))
        assert_same_weights(model.net, expected.net)
        history = expected.training_history
        assert model.training_history == (history if full_history
                                          else [row[1] for row in history])
        assert model.best_epoch == expected.best_epoch
        assert model.best_valid_loss == expected.best_valid_loss
        assert (len(history) < epochs) == stop
    if len(tasks) > 1 and any(stops):        # networks left the stack mid-run
        assert len({len(m.training_history) for m in models}) > 1


def test_stacked_tasks_need_equal_row_counts():
    train, valid = blobs(1, 40), blobs(2, 20)
    with pytest.raises(ValueError, match="equal row counts"):
        train_mlps([(train, valid, 1), (blobs(3, 41), valid, 2)])
    with pytest.raises(ValueError, match="equal row counts"):
        train_mlps([(train, valid, 1), (train, blobs(4, 21), 2)])


# The stack keeps each network's bits only because numpy computes a stacked
# product as one BLAS call per slice, and a stacked row sum as each slice's
# own sum. The shapes are those of the classifier (10 -> 20 -> 20 -> 1, 64-row
# batches and a partial one) and its validation pass; a numpy or BLAS build
# that breaks this must fail here, not move a table.
PRODUCT_SHAPES = [(64, 10, 20), (64, 20, 20), (64, 20, 1), (27, 20, 20), (27, 20, 1),
                  (400, 10, 20), (400, 20, 1), (1, 8, 6), (37, 8, 6)]


@pytest.mark.parametrize("rows, fan_in, fan_out", PRODUCT_SHAPES)
def test_stacked_products_equal_per_slice_products(rows, fan_in, fan_out):
    rng = np.random.default_rng(rows * 1000 + fan_in * 10 + fan_out)
    size = 5
    # Slices as the training loop takes them: batches out of epoch arrays, and
    # weights out of one flat parameter row per network.
    a = rng.normal(size=(size, rows + 9, fan_in))[:, 4:4 + rows]
    d = rng.normal(size=(size, rows + 9, fan_out))[:, 4:4 + rows]
    flat = rng.normal(size=(size, fan_in * fan_out + 3))
    w = flat[:, 3:].reshape(size, fan_in, fan_out)
    grad = np.empty((size, fan_in * fan_out + fan_out + 3))
    out = grad[:, 3:3 + fan_in * fan_out].reshape(size, fan_in, fan_out)
    bias = grad[:, 3 + fan_in * fan_out:]
    forward, shared = a @ w, a[0] @ w
    back = d @ w.swapaxes(-1, -2)
    np.matmul(a.swapaxes(-1, -2), d, out=out)
    np.add.reduce(d, axis=-2, out=bias)
    for s in range(size):
        assert_same_bits(forward[s], a[s] @ w[s])
        assert_same_bits(shared[s], a[0] @ w[s])
        assert_same_bits(back[s], d[s] @ w[s].T)
        assert_same_bits(out[s], a[s].T @ d[s])
        assert_same_bits(bias[s], np.add.reduce(d[s], axis=0))


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
    "one-row-batches": (dict(epochs=4, patience=2, batch_size=1), 30, None, None),
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
# The sigmoid
# ---------------------------------------------------------------------------

def test_sigmoid_matches_the_two_branch_form_bit_for_bit():
    edges = np.array([0.0, -0.0, 1e3, -1e3, np.inf, -np.inf, 36.0, -36.0,
                      745.0, -745.0, 5e-324, -5e-324])
    draws = np.random.default_rng(0).normal(scale=10.0, size=10_000)
    for z in (edges, draws, draws.reshape(100, 100), draws[:60].reshape(60, 1)):
        with np.errstate(over="ignore"):
            expected = oracle_sigmoid(z)
        assert_same_bits(_sigmoid(z), expected)


def test_sigmoid_of_nan_is_nan():
    z = np.array([NAN, 0.0, -NAN])
    with np.errstate(invalid="ignore"):
        expected = oracle_sigmoid(z)
    got = _sigmoid(z)
    assert np.isnan(got[[0, 2]]).all() and np.isnan(expected[[0, 2]]).all()
    assert got[1] == expected[1] == 0.5


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


@pytest.mark.parametrize("epochs, patience, flip", [(40, 4, True), (7, 7, False)],
                         ids=["stops-early", "runs-out"])
def test_benchmark_counts_a_classification_cells_epochs(tracer, epochs, patience, flip):
    # A classification cell's training keeps one validation loss per epoch.
    train, valid = blobs(1, 160), blobs(2, 60, flip)
    args = (train, valid, MlpSpec(hidden_layers=[8], dropout_rate=0.2),
            TrainConfig(max_epochs=epochs, batch_size=16, learning_rate=0.5,
                        patience=patience, seed=7), False)
    model = train_mlp(*args)
    run = min(model.best_epoch + patience, epochs)
    assert all(isinstance(row, float) for row in model.training_history)
    assert tracer._mlp_counts(args, {}, model) == {"epochs": run, "row_epochs": run * 160}
