"""Adam with bias correction, plus global-norm gradient clipping, over the
flat buffers of a `ParamStore`.

Both work on the store's gradient runs: the places of the parameters that
received a gradient, adjacent ones merged. A mono-lingual training batch
gives two runs at most (the shared weights and one embedding), so each
update is a few array operations whatever the number of tensors, and the
other language's embedding and its moments are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ParamStore

# Kingma and Ba's defaults (arXiv:1412.6980)
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    learning_rate: float = 1e-4
    step: int = 0
    # flat like ParamStore.data; zero until a parameter's first gradient
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None


def clip_global_norm(params: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Returns the pre-clip norm. Parameters without a gradient are skipped
    (a mono-lingual batch never touches the other language's embedding).
    The squares are summed per parameter in name order, in float64.
    """
    total = 0.0
    for name, p in params.items():
        if p.grad is not None:
            total += float(np.add.reduce(np.square(params.grad[params.span(name)],
                                                   dtype=np.float64)))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        factor = max_norm / norm
        for run in params.gradient_runs():
            params.grad[run] *= factor
    return norm


def adam_update(params: ParamStore, state: AdamState) -> None:
    """One Adam step over every parameter with a gradient; gradients are
    cleared after. Parameters without one keep their values and moments."""
    if state.first_moment is None:
        state.first_moment = np.zeros_like(params.data)
        state.second_moment = np.zeros_like(params.data)
    state.step += 1
    t = state.step
    # lr * m_hat / (sqrt(v_hat) + eps), with the bias corrections folded into scalars
    step_size = state.learning_rate / (1.0 - BETA1 ** t)
    v_scale = 1.0 / (1.0 - BETA2 ** t)
    for run in params.gradient_runs():
        g, m, v = params.grad[run], state.first_moment[run], state.second_moment[run]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        denom = v * v_scale
        np.sqrt(denom, out=denom)
        denom += EPSILON
        update = step_size * m
        update /= denom
        params.data[run] -= update
    params.zero_grads()
