"""Content-fingerprint correctness: stability and sensitivity."""

import dataclasses
import gc
import importlib
import os
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.core.api import MobiusConfig
from repro.baselines.deepspeed import DeepSpeedConfig
from repro.hardware.topology import topo_1_3, topo_2_2, datacenter_server
from repro.models.spec import build_gpt_like
from repro.models.zoo import gpt_8b
from repro.perf.fingerprint import canonical_bytes, fingerprint
from tests.helpers import make_trace

# ``repro.perf`` re-exports the function under the module's name.
fingerprint_module = importlib.import_module("repro.perf.fingerprint")


class TestStability:
    def test_identical_specs_hash_identically(self):
        assert fingerprint(gpt_8b()) == fingerprint(gpt_8b())

    def test_identical_topologies_hash_identically(self):
        assert fingerprint(topo_2_2()) == fingerprint(topo_2_2())

    def test_identical_configs_hash_identically(self):
        assert fingerprint(MobiusConfig()) == fingerprint(MobiusConfig())
        assert fingerprint(DeepSpeedConfig()) == fingerprint(DeepSpeedConfig())

    def test_stable_across_processes(self):
        """The same spec built in a fresh interpreter hashes identically."""
        program = (
            "from repro.models.zoo import gpt_8b\n"
            "from repro.core.api import MobiusConfig\n"
            "from repro.hardware.topology import topo_2_2\n"
            "from repro.perf.fingerprint import fingerprint\n"
            "print(fingerprint((gpt_8b(), topo_2_2(), MobiusConfig())))\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"  # prove hash() salting is irrelevant
        child = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        here = fingerprint((gpt_8b(), topo_2_2(), MobiusConfig()))
        assert child.stdout.strip() == here

    def test_collection_encodings_are_canonical(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
        assert fingerprint({1, 2, 3}) == fingerprint({3, 2, 1})
        assert fingerprint((1, 2)) != fingerprint([1, 2])


class TestSensitivity:
    def test_any_config_field_changes_the_hash(self):
        base = MobiusConfig()
        changed = {
            "microbatch_size": 2,
            "n_microbatches": 7,
            "partition_method": "max-stage",
            "mapping_method": "sequential",
            "partition_time_limit": 1.25,
            "partition_max_nodes": 500,
            "prefetch": False,
            "use_priorities": False,
            "bandwidth": 9.9e9,
        }
        assert set(changed) == {f.name for f in dataclasses.fields(base)}
        for field, value in changed.items():
            mutated = dataclasses.replace(base, **{field: value})
            assert fingerprint(mutated) != fingerprint(base), field

    def test_retired_config_field_keeps_the_digest(self):
        # MobiusConfig lost a constant field; its retired-field entry keeps
        # the digest (and every cell digest built on it) unchanged.
        assert fingerprint(MobiusConfig()) == (
            "5f0fccd1c9651ffd67b9b0d256735fedc16c4be6fe8a26ac1fc42695b7f4af9f"
        )

    def test_layer_fields_change_the_hash(self):
        base = build_gpt_like("m", n_blocks=2, hidden_dim=64, n_heads=2)
        layer = base.layers[1]
        for field in ("param_count", "fwd_flops_per_sample", "name", "kind"):
            value = getattr(layer, field)
            bumped = value + 1 if isinstance(value, (int, float)) else value + "x"
            mutated_layer = dataclasses.replace(layer, **{field: bumped})
            layers = (base.layers[0], mutated_layer, *base.layers[2:])
            mutated = dataclasses.replace(base, layers=layers)
            assert fingerprint(mutated) != fingerprint(base), field

    def test_topology_shape_and_bandwidth_change_the_hash(self):
        assert fingerprint(topo_2_2()) != fingerprint(topo_1_3())
        assert fingerprint(topo_2_2()) != fingerprint(datacenter_server())
        slower = topo_2_2()
        slower.pcie_bandwidth = slower.pcie_bandwidth / 2
        assert fingerprint(slower) != fingerprint(topo_2_2())

    def test_numeric_edge_cases_distinguished(self):
        assert fingerprint(0.0) != fingerprint(-0.0)
        assert fingerprint(float("nan")) != fingerprint(float("inf"))
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint(True) != fingerprint(1)


@dataclasses.dataclass(unsafe_hash=True)
class _Mutable:
    x: int = 0


@dataclasses.dataclass(frozen=True, slots=True)
class _FrozenSlots:
    x: int = 0


@dataclasses.dataclass
class _MutableWithHook:
    x: int = 0

    def __mobius_fingerprint__(self):
        return ("hook", self.x)


class _Opaque:
    def __mobius_fingerprint__(self):
        return ("opaque", 1)


class TestEncoding:
    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            fingerprint(object())

    @pytest.mark.parametrize(
        "value",
        [_Mutable(), (1, _Mutable()), {"key": _Mutable()}, {_Mutable()}],
        ids=["bare", "in-tuple", "dict-value", "set-element"],
    )
    def test_mutable_dataclass_raises_naming_its_class(self, value):
        with pytest.raises(TypeError, match=r"mutable dataclass .*\._Mutable'"):
            fingerprint(value)

    def test_frozen_slots_dataclass_encodes(self):
        assert fingerprint(_FrozenSlots(1)) == fingerprint(_FrozenSlots(1))
        assert fingerprint(_FrozenSlots(1)) != fingerprint(_FrozenSlots(2))

    def test_fingerprint_hook_takes_precedence(self):
        assert fingerprint(_Opaque()) == fingerprint(_Opaque())
        # The hook decides the encoding, so a mutable dataclass that defines
        # one is hashed through it rather than rejected.
        assert fingerprint(_MutableWithHook(1)) != fingerprint(_MutableWithHook(2))

    def test_numpy_arrays_supported(self):
        a = np.arange(6, dtype=np.float64)
        assert fingerprint(a) == fingerprint(a.copy())
        assert fingerprint(a) != fingerprint(a.reshape(2, 3))
        assert fingerprint(a) != fingerprint(a.astype(np.float32))

    def test_canonical_bytes_is_prefix_free_enough(self):
        # Concatenation ambiguities must not collide: ("ab", "c") vs ("a", "bc").
        assert canonical_bytes(("ab", "c")) != canonical_bytes(("a", "bc"))
        assert canonical_bytes(("1", 1)) != canonical_bytes((1, "1"))


@dataclasses.dataclass(frozen=True)
class _Box:
    value: object


def _memo_entry(value):
    entry = fingerprint_module._MEMO.get(id(value))
    if entry is None or entry[0]() is not value:
        return None
    return entry[1]


class TestMemo:
    def test_hit_matches_a_fresh_equal_instance(self):
        model = gpt_8b()
        first = fingerprint(model)
        assert _memo_entry(model) is not None
        assert fingerprint(model) == first == fingerprint(gpt_8b())
        assert fingerprint((model, topo_2_2())) == fingerprint((gpt_8b(), topo_2_2()))

    def test_equal_values_never_share_an_entry(self):
        # 1 == 1.0 == True, so the boxes compare equal, yet each encodes
        # its own value: the memo is keyed by identity.
        boxes = [_Box(1), _Box(1.0), _Box(True)]
        assert boxes[0] == boxes[1] == boxes[2]
        for _ in range(2):
            assert len({fingerprint(box) for box in boxes}) == 3

    def test_nested_entries_are_slices_of_the_outermost(self):
        model = gpt_8b()
        encoded = canonical_bytes(model)
        assert _memo_entry(model) is encoded
        layer = _memo_entry(model.layers[3])
        assert isinstance(layer, memoryview) and layer.obj is encoded
        assert bytes(layer) == canonical_bytes(gpt_8b().layers[3])

    @pytest.mark.parametrize(
        "content",
        [[1, 2], {"k": 1}, {1, 2}, np.arange(2), bytearray(b"ab"), (1, [2])],
        ids=["list", "dict", "set", "ndarray", "bytearray", "list-in-tuple"],
    )
    def test_mutable_content_is_never_memoized(self, content):
        box = _Box(content)
        outer = _Box((box, "x"))
        before = fingerprint(outer)
        assert _memo_entry(box) is None and _memo_entry(outer) is None
        assert fingerprint(outer) == before

    def test_list_append_changes_the_digest(self):
        box = _Box([1, 2])
        before = fingerprint(box)
        box.value.append(3)
        assert fingerprint(box) != before

    def test_immutable_containers_are_memoized(self):
        box = _Box((frozenset({_Box(1), _Box("a")}), np.float64(2.5), None, b"x"))
        fingerprint(box)
        assert _memo_entry(box) is not None

    def test_trace_rehashed_after_one_more_span(self):
        trace = make_trace(2, [(0, 0.0, 1.0, "fwd")])
        before = fingerprint(trace)
        assert fingerprint(trace) == before
        longer = make_trace(2, [(0, 0.0, 1.0, "fwd"), (1, 1.0, 2.0, "bwd")])
        assert fingerprint(longer) != before
        assert _memo_entry(trace.compute[0]) is None
        assert _memo_entry(longer.compute[0]) is None

    def test_pickle_and_repr_unchanged_by_hashing(self):
        model = build_gpt_like("m", n_blocks=2, hidden_dim=64, n_heads=2)
        config = MobiusConfig()
        before = (pickle.dumps(model), repr(model), pickle.dumps(config), repr(config))
        fingerprint((model, config))
        assert _memo_entry(model) is not None
        assert (pickle.dumps(model), repr(model), pickle.dumps(config), repr(config)) == before
        assert dataclasses.replace(model) == model

    def test_entry_dies_with_the_instance(self):
        model = build_gpt_like("m", n_blocks=2, hidden_dim=64, n_heads=2)
        fingerprint(model)
        keys = {id(model), *(id(layer) for layer in model.layers)}
        assert keys <= set(fingerprint_module._MEMO)
        del model
        gc.collect()
        assert not keys & set(fingerprint_module._MEMO)

    def test_slots_dataclass_encodes_without_an_entry(self):
        value = _FrozenSlots(3)
        assert fingerprint(value) == fingerprint(value) == fingerprint(_FrozenSlots(3))
        assert id(value) not in fingerprint_module._MEMO

    def test_threads_hashing_one_spec_agree(self):
        model = gpt_8b()
        expected = fingerprint(gpt_8b())
        barrier = threading.Barrier(8)
        digests = []

        def worker():
            barrier.wait()
            digests.append(fingerprint(model))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert digests == [expected] * 8
        assert bytes(_memo_entry(model)) == canonical_bytes(gpt_8b())
