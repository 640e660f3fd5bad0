"""Named parameter store over flat buffers, with a bit-exact binary
serialization: an `arrayfile` container of magic "LXPV" with one float32
array per parameter.

The values of all parameters are views of one flat array (`data`), and
their gradients views of a second one (`grad`), laid out in the order the
store was given its arrays. An optimizer then updates a run of adjacent
parameters with one array operation instead of one per tensor.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..arrayfile import read_arrays, write_arrays
from ..errors import InputError
from .tensor import Tensor

MAGIC = b"LXPV"


class _Param(Tensor):
    """A parameter tensor whose gradient lands in its view of the store's
    flat gradient buffer; `grad` is None until a gradient arrives."""

    __slots__ = ("_grad_view",)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self._grad_view[...] = g
            self.grad = self._grad_view
        else:
            self.grad += g


class ParamStore:
    """Uniquely named trainable tensors; iteration is sorted by name, the
    flat layout follows the order of `arrays`."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        arrays = {name: np.asarray(arr) for name, arr in arrays.items()}
        dtype = np.result_type(np.float32, *arrays.values())
        self.data = np.empty(sum(arr.size for arr in arrays.values()), dtype=dtype)
        self.grad = np.zeros_like(self.data)
        self._params: dict[str, _Param] = {}
        self._spans: dict[str, slice] = {}
        offset = 0
        for name, arr in arrays.items():
            span = self._spans[name] = slice(offset, offset + arr.size)
            offset = span.stop
            p = _Param(self.data[span].reshape(arr.shape), requires_grad=True)
            p.data[...] = arr
            p._grad_view = self.grad[span].reshape(arr.shape)
            self._params[name] = p

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        for name in self.names():
            yield name, self._params[name]

    def span(self, name: str) -> slice:
        """The parameter's place in the flat buffers."""
        return self._spans[name]

    def gradient_runs(self) -> list[slice]:
        """The places in the flat buffers of every parameter with a gradient,
        adjacent ones merged into one run."""
        runs: list[slice] = []
        for name, span in self._spans.items():
            if self._params[name].grad is None:
                continue
            if runs and runs[-1].stop == span.start:
                runs[-1] = slice(runs[-1].start, span.stop)
            else:
                runs.append(span)
        return runs

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    def save(self, path) -> None:
        """Write the parameters in name order. Only a float32 store can be
        saved: the file holds float32, and a wider store would be rounded."""
        if self.data.dtype != np.float32:
            raise InputError(f"{path}: a weights file holds float32 parameters, "
                             f"not {self.data.dtype}")
        write_arrays(path, MAGIC, "<f4", {}, {name: p.data for name, p in self.items()})

    @classmethod
    def load(cls, path) -> "ParamStore":
        """The float32 parameters of a weights file, laid out in file order."""
        return cls(read_arrays(path, MAGIC, "<f4")[1])
