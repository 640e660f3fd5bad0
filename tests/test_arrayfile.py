"""The one binary container behind checkpoints, region features and word
tables: its layout, its round trip and the FormatError of every departure."""

import json
import struct

import numpy as np
import pytest

from lexipivot.arrayfile import VERSION, read_arrays, write_arrays
from lexipivot.errors import FormatError

from helpers import edit_header, pack_container

MAGIC = b"TEST"


def sample_arrays():
    rng = np.random.default_rng(3)
    return {"scalar": np.array(0.5), "empty": np.zeros((0, 4)),
            "grid": rng.normal(size=(2, 3, 4)), "wörd": rng.normal(size=5)}


def write_sample(path, dtype="<f8"):
    write_arrays(path, MAGIC, dtype, {"language": "de", "ids": [3, 17]}, sample_arrays())


def test_round_trip_keeps_meta_order_shapes_and_bits(tmp_path):
    path = tmp_path / "a.bin"
    write_sample(path)
    meta, arrays = read_arrays(path, MAGIC, "<f8")
    assert meta == {"language": "de", "ids": [3, 17]}
    expected = sample_arrays()
    assert list(arrays) == list(expected)
    for name, arr in arrays.items():
        assert arr.dtype == np.float64 and arr.shape == expected[name].shape
        assert arr.tobytes() == expected[name].tobytes()
        assert arr.flags.writeable and arr.flags.owndata


def test_float32_round_trip(tmp_path):
    path = tmp_path / "a.bin"
    write_sample(path, "<f4")
    _, arrays = read_arrays(path, MAGIC, "<f4")
    assert arrays["grid"].dtype == np.float32
    assert np.array_equal(arrays["grid"], sample_arrays()["grid"].astype(np.float32))


def test_layout(tmp_path):
    path = tmp_path / "a.bin"
    write_arrays(path, MAGIC, "<f8", {"k": 1},
                 {"b": np.array([1.0, 2.0]), "a": np.array([[3.0]])})
    blob = path.read_bytes()
    magic, version, length = struct.unpack_from("<4sII", blob)
    assert (magic, version) == (MAGIC, VERSION) == (b"TEST", 2)
    assert json.loads(blob[12:12 + length].decode("utf-8")) == {
        "meta": {"k": 1}, "arrays": [["b", "<f8", [2]], ["a", "<f8", [1, 1]]]}
    assert blob[12 + length:] == np.array([1.0, 2.0, 3.0], dtype="<f8").tobytes()


def test_deterministic_bytes(tmp_path):
    write_sample(tmp_path / "1.bin")
    write_sample(tmp_path / "2.bin")
    assert (tmp_path / "1.bin").read_bytes() == (tmp_path / "2.bin").read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "a.bin"
    write_sample(path)
    with pytest.raises(FormatError, match="bad magic b'TEST', expected b'LXPV'"):
        read_arrays(path, b"LXPV", "<f8")


def test_other_version_names_the_file_and_its_version(tmp_path):
    path = tmp_path / "old.bin"
    path.write_bytes(MAGIC + struct.pack("<II", 1, 0))
    with pytest.raises(FormatError, match=r"old\.bin: TEST version 1 is not supported"):
        read_arrays(path, MAGIC, "<f8")


@pytest.mark.parametrize("cut", [0, 2, 6, 11, 20, -1])
def test_truncation(tmp_path, cut):
    path = tmp_path / "a.bin"
    write_sample(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:cut] if cut >= 0 else blob[:-8])
    with pytest.raises(FormatError):
        read_arrays(path, MAGIC, "<f8")


def test_trailing_bytes(tmp_path):
    path = tmp_path / "a.bin"
    write_sample(path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="1 trailing bytes"):
        read_arrays(path, MAGIC, "<f8")


def test_duplicate_name(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(pack_container(MAGIC, {"meta": {}, "arrays": [["x", "<f8", [1]],
                                                                   ["x", "<f8", [1]]]},
                                    bytes(16)))
    with pytest.raises(FormatError, match="array 'x' appears twice"):
        read_arrays(path, MAGIC, "<f8")


def test_shape_past_the_end_is_a_format_error(tmp_path):
    # 2**33 x 2**33 values: past the end of the file, and a count that wraps
    # to 0 in 64-bit integer arithmetic
    path = tmp_path / "a.bin"
    write_sample(path)
    edit_header(path, lambda header: header["arrays"][2].__setitem__(2, [2**33, 2**33]))
    with pytest.raises(FormatError, match="'grid' claims shape .*past the end"):
        read_arrays(path, MAGIC, "<f8")


def test_header_length_past_the_end(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, 1000) + b"{}")
    with pytest.raises(FormatError, match="runs past the end"):
        read_arrays(path, MAGIC, "<f8")


@pytest.mark.parametrize("header,fragment", [
    ([], "malformed header"),
    ({"meta": {}}, "malformed header"),
    ({"meta": [], "arrays": []}, "meta is not an object"),
    ({"meta": {}, "arrays": {}}, "arrays not a list"),
    ({"meta": {}, "arrays": [["x", "<f8"]]}, "not \\[name, dtype, shape\\]"),
    ({"meta": {}, "arrays": [[1, "<f8", [1]]]}, "not \\[name, dtype, shape\\]"),
    ({"meta": {}, "arrays": [["x", "<f8", [-1]]]}, "not \\[name, dtype, shape\\]"),
    ({"meta": {}, "arrays": [["x", "<f8", [True]]]}, "not \\[name, dtype, shape\\]"),
    ({"meta": {}, "arrays": [["x", "<f8", [1.0]]]}, "not \\[name, dtype, shape\\]"),
    ({"meta": {}, "arrays": [["x", "<f4", [2]]]}, "'x' has dtype '<f4', expected '<f8'"),
    ({"meta": {}, "arrays": [["x", "<f8", [0, 2**70]]]}, "'x' has shape"),
], ids=["list", "no arrays", "meta list", "arrays object", "short entry", "numeric name",
        "negative dim", "bool dim", "float dim", "other dtype", "empty of absurd dims"])
def test_malformed_header(tmp_path, header, fragment):
    path = tmp_path / "a.bin"
    path.write_bytes(pack_container(MAGIC, header, bytes(8)))
    with pytest.raises(FormatError, match=fragment):
        read_arrays(path, MAGIC, "<f8")


def test_header_that_is_not_utf8_json(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, 3) + b"{\xff}")
    with pytest.raises(FormatError, match="malformed header"):
        read_arrays(path, MAGIC, "<f8")
