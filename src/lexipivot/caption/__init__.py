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
    "interleave",
    "split_by_scene",
    "train",
]
