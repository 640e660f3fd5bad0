"""Named parameter store with a bit-exact binary serialization: an
`arrayfile` container of magic "LXPV" with one float64 array per parameter."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..arrayfile import read_arrays, write_arrays
from .tensor import Tensor

MAGIC = b"LXPV"


class ParamStore:
    """Uniquely named trainable tensors; iteration is sorted by name."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        for name in self.names():
            yield name, self._params[name]

    def zero_grads(self) -> None:
        for _, p in self.items():
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of all parameter values (for snapshots)."""
        return {name: p.data.copy() for name, p in self.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore values in place, preserving tensor identity and dtype."""
        for name, p in self.items():
            p.data[...] = arrays[name].astype(p.data.dtype, copy=False)

    def save(self, path) -> None:
        write_arrays(path, MAGIC, "<f8", {}, {name: p.data for name, p in self.items()})

    @classmethod
    def load(cls, path) -> "ParamStore":
        store = cls()
        for name, data in read_arrays(path, MAGIC, "<f8")[1].items():
            store.add(name, Tensor(data))
        return store
