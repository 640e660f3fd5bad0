from .bleu import bleu4
from .decoding import generate_caption
from .model import ModelDims, MultiLingualModel
from .training import (
    EpochStat,
    TrainingConfig,
    TrainingLog,
    interleave,
    split_by_scene,
    train,
)

__all__ = [
    "EpochStat",
    "ModelDims",
    "MultiLingualModel",
    "TrainingConfig",
    "TrainingLog",
    "bleu4",
    "generate_caption",
    "interleave",
    "split_by_scene",
    "train",
]
