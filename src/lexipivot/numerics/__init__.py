from .attention import additive_attention
from .decoder import decoder_unroll
from .lstm import LstmWeights, lstm_step
from .optim import AdamState, adam_update, clip_global_norm
from .params import ParamStore
from .tensor import (
    Tensor,
    add,
    as_tensor,
    concat_cols,
    concat_rows,
    cross_entropy_rows,
    gather_cols,
    grad_enabled,
    matmul,
    no_grad,
    reshape,
    row_slice,
    scale,
    tanh,
)

__all__ = [
    "AdamState",
    "LstmWeights",
    "ParamStore",
    "Tensor",
    "adam_update",
    "add",
    "additive_attention",
    "as_tensor",
    "clip_global_norm",
    "concat_cols",
    "concat_rows",
    "cross_entropy_rows",
    "decoder_unroll",
    "gather_cols",
    "grad_enabled",
    "lstm_step",
    "matmul",
    "no_grad",
    "reshape",
    "row_slice",
    "scale",
    "tanh",
]
