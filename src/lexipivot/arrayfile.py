"""One binary container for the pipeline's array files.

Checkpoint weights (`.lxpv`), region features (`.lxpf`) and word-feature
tables (`.lxwf`) share one layout, integers little-endian:

  magic (4 bytes) | version u32 | header length u32
  | UTF-8 JSON header {"meta": {...}, "arrays": [[name, dtype, shape], ...]}
  | the arrays' little-endian bytes in C order, in header order

The magic names the kind of file, so one kind is never read as another.
The meta object holds a kind's other data; all arrays of a kind share its
dtype. Any departure from the layout is a FormatError.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import FormatError

VERSION = 2
_PREFIX = struct.Struct("<4sII")  # magic, version, header length


def write_arrays(path, magic: bytes, dtype: str, meta: dict,
                 arrays: dict[str, np.ndarray]) -> None:
    """Write `meta` and `arrays`, each converted to `dtype` ("<f4" or "<f8")."""
    arrays = {name: np.asarray(arr, dtype=dtype, order="C") for name, arr in arrays.items()}
    entries = [[name, dtype, list(arr.shape)] for name, arr in arrays.items()]
    header = json.dumps({"meta": meta, "arrays": entries}, sort_keys=True,
                        separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(magic, VERSION, len(header)))
        fh.write(header)
        for arr in arrays.values():
            fh.write(arr.data)


def read_arrays(path, magic: bytes, dtype: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(meta, {name: array} in file order) of a container of kind `magic`
    whose arrays all have `dtype`. Each claimed size is checked against the
    file length before anything is allocated; each array owns its data."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != magic:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {magic!r}")
    if len(blob) < _PREFIX.size:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    _, version, header_len = _PREFIX.unpack_from(blob)
    if version != VERSION:
        raise FormatError(f"{path}: {magic.decode()} version {version} is not supported "
                          f"(expected version {VERSION}); regenerate the file")
    offset = _PREFIX.size + header_len
    if offset > len(blob):
        raise FormatError(f"{path}: header of {header_len} bytes runs past the end of the file")
    try:
        header = json.loads(blob[_PREFIX.size:offset].decode("utf-8"))
        meta, entries = header["meta"], header["arrays"]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise FormatError(f"{path}: malformed header ({exc!r:.80})") from exc
    if not isinstance(meta, dict) or not isinstance(entries, list):
        raise FormatError(f"{path}: header meta is not an object or arrays not a list")
    arrays: dict[str, np.ndarray] = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
                and isinstance(entry[2], list)
                and all(type(n) is int and n >= 0 for n in entry[2])):
            raise FormatError(f"{path}: array entry {entry!r:.60} is not [name, dtype, shape]")
        name, found, shape = entry
        if found != dtype:
            raise FormatError(f"{path}: array {name!r} has dtype {found!r:.20}, "
                              f"expected {dtype!r}")
        if name in arrays:
            raise FormatError(f"{path}: array {name!r} appears twice")
        count = math.prod(shape)
        end = offset + count * np.dtype(dtype).itemsize
        if end > len(blob):
            raise FormatError(f"{path}: array {name!r} claims shape {tuple(shape)}, "
                              f"past the end of the file")
        try:
            arrays[name] = np.frombuffer(blob, dtype, count, offset).reshape(shape).copy()
        except (ValueError, OverflowError) as exc:  # an empty array of absurd dims
            raise FormatError(f"{path}: array {name!r} has shape {tuple(shape)} ({exc})") from exc
        offset = end
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes at offset {offset}")
    return meta, arrays
