"""Adam with bias correction, plus global-norm gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import ParamStore

# Kingma and Ba's defaults (arXiv:1412.6980)
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    learning_rate: float = 1e-4
    step: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)


def clip_global_norm(params: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Returns the pre-clip norm. Parameters without a gradient are skipped
    (a mono-lingual batch never touches the other language's embedding).
    """
    total = 0.0
    for _, p in params.items():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        factor = max_norm / norm
        for _, p in params.items():
            if p.grad is not None:
                p.grad *= factor
    return norm


def adam_update(params: ParamStore, state: AdamState) -> None:
    """One Adam step over every parameter with a gradient; gradients are
    cleared after. Parameters without one keep their values and moments."""
    state.step += 1
    t = state.step
    # lr * m_hat / (sqrt(v_hat) + eps), with the bias corrections folded into scalars
    step_size = state.learning_rate / (1.0 - BETA1 ** t)
    v_scale = 1.0 / (1.0 - BETA2 ** t)
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m = state.first_moment.get(name)
        v = state.second_moment.get(name)
        if m is None:
            m = state.first_moment[name] = np.zeros_like(p.data)
            v = state.second_moment[name] = np.zeros_like(p.data)
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        denom = v * v_scale
        np.sqrt(denom, out=denom)
        denom += EPSILON
        update = step_size * m
        update /= denom
        p.data -= update
        p.grad = None
