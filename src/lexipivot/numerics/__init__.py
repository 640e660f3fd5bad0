from .decoder import caption_loss
from .lstm import LstmWeights, lstm_step
from .optim import AdamState, adam_update, clip_global_norm
from .params import ParamStore
from .tensor import Tensor, cross_entropy_rows, grad_enabled, no_grad

__all__ = [
    "AdamState",
    "LstmWeights",
    "ParamStore",
    "Tensor",
    "adam_update",
    "caption_loss",
    "clip_global_norm",
    "cross_entropy_rows",
    "grad_enabled",
    "lstm_step",
    "no_grad",
]
