"""Analytic gradients against central finite differences, for the tests."""

import numpy as np


def gradient_check(net, x: np.ndarray, y: np.ndarray,
                   loss_mask: np.ndarray | None = None,
                   eps: float = 1e-5) -> float:
    """Max relative error of `net.grads` vs central finite differences.

    Dropout is off (deterministic loss); tiny gradients are guarded so the
    ratio stays meaningful.
    """
    grad = net.grads(x, y, loss_mask).ravel().copy()
    params = net.params.reshape(-1)      # a stack of one: its one row, as a view
    worst = 0.0
    for i in range(params.size):
        keep = params[i]
        params[i] = keep + eps
        (up,) = net.loss(x, y, loss_mask)
        params[i] = keep - eps
        (down,) = net.loss(x, y, loss_mask)
        params[i] = keep
        numeric = (up - down) / (2.0 * eps)
        denom = max(abs(numeric) + abs(grad[i]), 1e-8)
        worst = max(worst, abs(numeric - grad[i]) / denom)
    return worst
