"""Named parameter store with a bit-exact binary serialization.

File layout (all integers little-endian):
  magic "LXPV" | version u32 | param count u32
  per parameter, in sorted-name order:
    name length u32 | UTF-8 name | rank u32 | dims u64 each | float64 data
"""

from __future__ import annotations

import math
import struct
from typing import Iterator

import numpy as np

from ..errors import FormatError, InputError
from .tensor import Tensor

MAGIC = b"LXPV"
VERSION = 1


class ParamStore:
    """Uniquely named trainable tensors; iteration is sorted by name."""

    def __init__(self, rng_seed: int = 0):
        self._params: dict[str, Tensor] = {}
        self.rng_seed = int(rng_seed)

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise InputError(f"duplicate parameter name: {name!r}")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

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
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", VERSION, len(self._params)))
            for name, p in self.items():
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                dims = p.data.shape
                fh.write(struct.pack("<I", len(dims)))
                fh.write(struct.pack(f"<{len(dims)}Q", *dims))
                fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path, rng_seed: int = 0) -> "ParamStore":
        store = cls(rng_seed=rng_seed)
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != MAGIC:
            raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
        try:
            version, count = struct.unpack_from("<II", blob, 4)
            if version != VERSION:
                raise FormatError(f"{path}: unsupported version {version}")
            offset = 12
            for _ in range(count):
                (name_len,) = struct.unpack_from("<I", blob, offset)
                offset += 4
                name = blob[offset:offset + name_len].decode("utf-8")
                if name in store:
                    raise FormatError(f"{path}: parameter {name!r} appears twice")
                offset += name_len
                (rank,) = struct.unpack_from("<I", blob, offset)
                offset += 4
                dims = struct.unpack_from(f"<{rank}Q", blob, offset)
                offset += 8 * rank
                size = math.prod(dims)
                if offset + 8 * size > len(blob):
                    raise FormatError(f"{path}: parameter {name!r} claims shape {dims}, "
                                      f"past the end of the file")
                data = np.frombuffer(blob, dtype="<f8", count=size, offset=offset)
                offset += 8 * size
                store.add(name, Tensor(data.reshape(dims).copy()))
        except (struct.error, ValueError) as exc:
            raise FormatError(f"{path}: truncated or corrupt parameter file: {exc}") from exc
        if offset != len(blob):
            raise FormatError(f"{path}: {len(blob) - offset} trailing bytes at offset {offset}")
        return store
