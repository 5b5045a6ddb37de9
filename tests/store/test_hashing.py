"""Scenario content-key semantics: stability, sensitivity, uncacheability."""

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

import repro

from repro.api import PlatformBuilder, Scenario
from repro.soc.config import InterconnectKind
from repro.store import (
    UncacheableScenarioError,
    canonical_value,
    default_code_version,
    scenario_key,
)


def _config(**overrides):
    config = PlatformBuilder().pes(2).wrapper_memories(1).build()
    return dataclasses.replace(config, **overrides) if overrides else config


def _scenario(**kwargs):
    defaults = dict(name="point", config=_config(), workload="fir",
                    params={"num_samples": 8, "seed": 3}, seed=42)
    defaults.update(kwargs)
    return Scenario(**defaults)


_KEY_OF_DEFAULT_SCENARIO = r"""
from repro.api import PlatformBuilder, Scenario
print(Scenario(name="point", config=PlatformBuilder().pes(2).wrapper_memories(1)
               .build(), workload="fir", params={"num_samples": 8, "seed": 3},
               seed=42).cache_key())
"""


def _key_under(root):
    """``_scenario().cache_key()`` in a fresh interpreter importing the
    ``repro`` package found under ``root``."""
    done = subprocess.run(
        [sys.executable, "-c", _KEY_OF_DEFAULT_SCENARIO],
        env=dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-3000:]
    return done.stdout.strip()


class TestKeyStability:
    def test_key_is_deterministic(self):
        assert _scenario().cache_key() == _scenario().cache_key()

    def test_param_dict_ordering_does_not_matter(self):
        a = _scenario(params={"num_samples": 8, "seed": 3})
        b = _scenario(params={"seed": 3, "num_samples": 8})
        assert a.cache_key() == b.cache_key()

    def test_override_dict_ordering_does_not_matter(self):
        a = _scenario(overrides={"x": 1, "y": 2})
        b = _scenario(overrides={"y": 2, "x": 1})
        assert a.cache_key() == b.cache_key()

    def test_key_shape(self):
        key = _scenario().cache_key()
        assert len(key) == 64
        assert int(key, 16) >= 0  # hex digest

    def test_module_function_matches_method(self):
        scenario = _scenario()
        assert scenario.cache_key() == scenario_key(scenario)


class TestKeySensitivity:
    def test_config_change_misses(self):
        a = _scenario(config=_config())
        b = _scenario(config=_config(num_memories=2))
        assert a.cache_key() != b.cache_key()

    def test_enum_config_change_misses(self):
        a = _scenario(config=_config())
        b = _scenario(
            config=_config(interconnect=InterconnectKind.CROSSBAR))
        assert a.cache_key() != b.cache_key()

    def test_seed_change_misses(self):
        assert _scenario(seed=1).cache_key() != _scenario(seed=2).cache_key()

    def test_workload_change_misses(self):
        assert (_scenario(workload="fir", params={}).cache_key()
                != _scenario(workload="matmul", params={}).cache_key())

    def test_param_change_misses(self):
        a = _scenario(params={"num_samples": 8})
        b = _scenario(params={"num_samples": 16})
        assert a.cache_key() != b.cache_key()

    def test_max_time_change_misses(self):
        assert (_scenario(max_time=None).cache_key()
                != _scenario(max_time=10_000).cache_key())

    def test_code_version_salt_misses(self):
        scenario = _scenario()
        assert (scenario.cache_key()
                == scenario.cache_key(code_version=default_code_version()))
        assert (scenario.cache_key(code_version="a")
                != scenario.cache_key(code_version="b"))

    def test_one_changed_source_byte_misses(self, tmp_path):
        """The default salt digests the package's own sources: a copy of
        the package with one byte changed keys the same scenario anew."""
        copy = tmp_path / "repro"
        shutil.copytree(os.path.dirname(repro.__file__), copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert _key_under(tmp_path) == _scenario().cache_key()
        source = copy / "kernel" / "simulator.py"
        data = bytearray(source.read_bytes())
        data[data.index(b"discrete-event")] = ord("D")
        source.write_bytes(bytes(data))
        assert _key_under(tmp_path) != _scenario().cache_key()


class TestUncacheable:
    def test_inline_factory_raises(self):
        def factory(config, **params):
            return []

        scenario = _scenario(workload=factory, params={})
        with pytest.raises(UncacheableScenarioError, match="inline workload"):
            scenario.cache_key()


class TestCanonicalValue:
    def test_scalars_pass_through(self):
        assert canonical_value(None) is None
        assert canonical_value(True) is True
        assert canonical_value(7) == 7
        assert canonical_value("x") == "x"

    def test_float_full_precision(self):
        assert canonical_value(0.1) == ["float", repr(0.1)]

    def test_enum_carries_class(self):
        tagged = canonical_value(InterconnectKind.MESH)
        assert tagged[0] == "enum"
        assert tagged[1].endswith("InterconnectKind")
        assert tagged[2] == "mesh"

    def test_dataclass_carries_class_and_fields(self):
        tagged = canonical_value(_config())
        assert tagged[0] == "dataclass"
        assert tagged[1].endswith("PlatformConfig")
        assert ["num_pes", 2] in tagged[2]

    def test_sets_are_order_free(self):
        assert canonical_value({3, 1, 2}) == canonical_value({2, 3, 1})

    def test_dicts_are_order_free(self):
        assert (canonical_value({"a": 1, "b": 2})
                == canonical_value({"b": 2, "a": 1}))


class TestCanonicalUnambiguity:
    """Tagged forms must never collide with literal container values."""

    def test_literal_list_does_not_collide_with_float_tag(self):
        assert canonical_value(["float", "1.0"]) != canonical_value(1.0)

    def test_literal_list_does_not_collide_with_bytes_tag(self):
        assert (canonical_value(["bytes", "ff"])
                != canonical_value(bytes.fromhex("ff")))

    def test_nested_list_tag_does_not_collide(self):
        assert (canonical_value(["list", "x"])
                != canonical_value([["x"]]))
        assert canonical_value(["list", "x"]) != canonical_value(["x"])

    def test_int_and_str_dict_keys_stay_distinct(self):
        assert canonical_value({1: "x"}) != canonical_value({"1": "x"})

    def test_scenario_keys_differ_for_colliding_literals(self):
        a = _scenario(params={"p": 1.0})
        b = _scenario(params={"p": ["float", "1.0"]})
        assert a.cache_key() != b.cache_key()
