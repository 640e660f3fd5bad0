import json
import struct

import numpy as np
import pytest

from lexipivot.corpus import write_features
from lexipivot.errors import FormatError, InputError
from lexipivot.numerics import ParamStore

from helpers import edit_header


def build_store():
    rng = np.random.default_rng(42)
    arrays = {"zeta": rng.normal(size=(3, 2)), "alpha.weight": rng.normal(size=5),
              "mid": np.array(3.14159)}
    return ParamStore({name: arr.astype(np.float32) for name, arr in arrays.items()})


def test_names_are_unique(tmp_path):
    """The store keeps one tensor per name, so weights that name one twice
    are refused when read."""
    def rename_zeta(header):
        header["arrays"][2][0] = "mid"

    path = tmp_path / "twice.lxpv"
    build_store().save(path)
    edit_header(path, rename_zeta)
    with pytest.raises(FormatError, match="array 'mid' appears twice"):
        ParamStore.load(path)


def test_iteration_sorted_by_name():
    assert [n for n, _ in build_store().items()] == ["alpha.weight", "mid", "zeta"]


def test_round_trip_bit_exact(tmp_path):
    store = build_store()
    p1 = tmp_path / "a.lxpv"
    p2 = tmp_path / "b.lxpv"
    store.save(p1)
    loaded = ParamStore.load(p1)
    for (n1, t1), (n2, t2) in zip(store.items(), loaded.items()):
        assert n1 == n2
        assert t1.data.shape == t2.data.shape
        assert np.array_equal(t1.data, t2.data)
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    store = build_store()
    path = tmp_path / "s.lxpv"
    store.save(path)
    blob = path.read_bytes()
    magic, version, header_len = struct.unpack_from("<4sII", blob)
    assert (magic, version) == (b"LXPV", 2)
    header = json.loads(blob[12:12 + header_len].decode("utf-8"))
    assert header == {"meta": {}, "arrays": [["alpha.weight", "<f4", [5]], ["mid", "<f4", []],
                                             ["zeta", "<f4", [3, 2]]]}
    data = np.frombuffer(blob, dtype="<f4", offset=12 + header_len)
    assert np.array_equal(data, np.concatenate([t.data.ravel() for _, t in store.items()]))


def test_weights_are_stored_as_float32(tmp_path):
    store = build_store()
    path = tmp_path / "f.lxpv"
    store.save(path)
    assert ParamStore.load(path).data.dtype == np.float32


def test_saving_a_float64_store_is_an_input_error(tmp_path):
    """A weights file holds float32, and rounding a wider store on the way
    would lose its values silently."""
    path = tmp_path / "wide.lxpv"
    with pytest.raises(InputError, match="float32 parameters, not float64"):
        ParamStore({"w": np.array([0.1, -2.5])}).save(path)
    assert not path.exists()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.lxpv"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        ParamStore.load(path)


def test_other_kind_of_container_is_a_bad_magic(tmp_path):
    path = tmp_path / "features.lxpf"
    write_features(path, [3], np.zeros((1, 2, 2)))
    with pytest.raises(FormatError, match="bad magic b'LXPF', expected b'LXPV'"):
        ParamStore.load(path)


def test_truncated_file(tmp_path):
    store = build_store()
    path = tmp_path / "t.lxpv"
    store.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(FormatError):
        ParamStore.load(path)


def test_trailing_bytes(tmp_path):
    store = build_store()
    path = tmp_path / "x.lxpv"
    store.save(path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        ParamStore.load(path)


def test_values_and_gradients_are_views_of_the_flat_buffers():
    """Laid out in the order given; a gradient lands in the flat gradient
    buffer, and parameters without one are left out of the gradient runs."""
    store = build_store()
    assert [store.span(n) for n in ("zeta", "alpha.weight", "mid")] == \
        [slice(0, 6), slice(6, 11), slice(11, 12)]
    assert np.array_equal(store.data[6:11], store["alpha.weight"].data)
    store["alpha.weight"].data[0] = 7.0
    assert store.data[6] == 7.0
    assert store.gradient_runs() == []
    store["zeta"].accumulate_grad(np.ones((3, 2)))
    store["mid"].accumulate_grad(np.array(2.0))
    store["mid"].accumulate_grad(np.array(0.5))
    assert store.gradient_runs() == [slice(0, 6), slice(11, 12)]
    assert np.array_equal(store.grad[[0, 5, 11]], [1.0, 1.0, 2.5])
    store["alpha.weight"].accumulate_grad(np.zeros(5))
    assert store.gradient_runs() == [slice(0, 12)]
    store.zero_grads()
    assert store.gradient_runs() == [] and store["zeta"].grad is None


def test_layout_dtype_follows_the_arrays():
    assert ParamStore({"w": np.zeros(2, dtype=np.float32)}).data.dtype == np.float32
    assert ParamStore({"w": np.zeros(2, dtype=np.float32), "v": np.zeros(1)}).data.dtype \
        == np.float64
