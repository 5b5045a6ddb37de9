"""Stable content hashing of scenarios — the result-store cache key.

A :class:`~repro.api.scenario.Scenario` is plain data (config dataclass +
registry workload name + params + seed + limits), so two scenarios that
describe the same experiment can be given the same *content key*:
:func:`scenario_key` canonicalizes the scenario into a JSON document with
deterministic ordering (dict keys sorted, enums by class+value, dataclasses
by class+field map, floats by ``repr``) and hashes it with SHA-256.  The key
is what :class:`~repro.store.store.ResultStore` indexes results by — equal
key means "this exact simulation has already been run".

Every key is salted with a *code version* (:func:`default_code_version`, a
digest of the package's own source files) so results cached by any other
build of the simulator never masquerade as results of the current one;
callers can pass their own salt (e.g. a git commit hash) instead.

Not everything is hashable: a scenario whose workload is an inline factory
(not a registry name) has behaviour the key cannot see, and
:func:`scenario_key` raises :class:`UncacheableScenarioError` for it — the
runner treats such scenarios as permanent cache misses.  Result *checks*
are represented by their ``module.qualname`` (their code is covered by the
code-version salt like all other repo code).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
from typing import Optional

#: Schema tag of the canonical document; bump on canonicalization changes.
KEY_SCHEMA = "repro.store.key/v2"


@functools.lru_cache(maxsize=None)
def default_code_version() -> str:
    """Default salt: SHA-256 over the package's ``*.py`` files, one line of
    relative path and content digest each, in sorted path order.  Computed
    once per process, on the first key; any change to the simulator's
    source makes every earlier result a miss."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for path in sorted(os.path.relpath(os.path.join(directory, name), root)
                       for directory, _dirs, files in os.walk(root)
                       for name in files if name.endswith(".py")):
        with open(os.path.join(root, path), "rb") as handle:
            content = hashlib.sha256(handle.read()).hexdigest()
        digest.update(f"{path.replace(os.sep, '/')}\0{content}\n".encode())
    return "repro-src/" + digest.hexdigest()


class UncacheableScenarioError(ValueError):
    """The scenario has no stable content key (e.g. an inline workload
    factory, whose behaviour the key cannot observe)."""


def canonical_value(value: object) -> object:
    """Recursively convert ``value`` into a JSON-stable representation.

    The output is deterministic across processes and interpreter runs and
    *unambiguous*: JSON scalars (``None``/bool/int/str) pass through, and
    every other value becomes a ``[tag, ...]`` list whose first element
    names its kind — including plain lists (``["list", ...]``) and dicts
    (``["dict", [[key, value], ...]]``) — so a literal param value such as
    ``["float", "1.0"]`` can never canonicalize to the same document as
    the float ``1.0``, and dict keys ``1`` and ``"1"`` stay distinct.
    Container ordering is preserved for sequences, dict/set entries are
    sorted by their canonical encoding, enums and dataclasses carry their
    class names, and floats go through ``repr`` so the full precision
    participates in the key.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return ["float", repr(value)]
    if isinstance(value, bytes):
        return ["bytes", value.hex()]
    if isinstance(value, enum.Enum):
        return ["enum", _type_name(type(value)), canonical_value(value.value)]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = [[f.name, canonical_value(getattr(value, f.name))]
                  for f in dataclasses.fields(value)]
        return ["dataclass", _type_name(type(value)),
                sorted(fields, key=lambda pair: pair[0])]
    if isinstance(value, dict):
        items = [[canonical_value(key), canonical_value(item)]
                 for key, item in value.items()]
        return ["dict", sorted(items, key=lambda pair: _encode(pair[0]))]
    if isinstance(value, (list, tuple)):
        return ["list"] + [canonical_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return ["set", sorted(_encode(canonical_value(item))
                              for item in value)]
    if callable(value):
        return ["callable", _callable_name(value)]
    if hasattr(value, "__dict__"):
        return ["object", _type_name(type(value)),
                canonical_value(vars(value))]
    return ["repr", repr(value)]


def _encode(canonical: object) -> str:
    """Deterministic JSON encoding of an already-canonical node (used to
    order dict/set entries)."""
    return json.dumps(canonical, sort_keys=True, separators=(",", ":"))


def _type_name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _callable_name(fn: object) -> str:
    module = getattr(fn, "__module__", None) or "?"
    qualname = getattr(fn, "__qualname__", None) or repr(fn)
    return f"{module}.{qualname}"


def canonical_scenario(scenario, *, code_version: Optional[str] = None) -> dict:
    """The canonical key document of one scenario (pre-hash form).

    Raises :class:`UncacheableScenarioError` when the scenario's workload
    is an inline factory: the registry *name* is the only workload
    reference whose behaviour is pinned by repo code (and therefore by the
    code-version salt).
    """
    if not isinstance(scenario.workload, str):
        raise UncacheableScenarioError(
            f"scenario {scenario.name!r} references an inline workload "
            f"factory ({_callable_name(scenario.workload)}); only "
            f"registry-named workloads have a stable content key"
        )
    return {
        "schema": KEY_SCHEMA,
        "code_version": code_version or default_code_version(),
        "name": scenario.name,
        # Partitioning is execution strategy, not simulated hardware: a
        # partitioned run only enters the store when bit-identical to the
        # sequential one, so both share a key (normalized to partitions=1).
        "config": canonical_value(dataclasses.replace(
            scenario.config, partitions=1, pdes_epoch_cycles=None)),
        "workload": scenario.workload,
        "params": canonical_value(scenario.params),
        "seed": scenario.seed,
        "max_time": scenario.max_time,
        "expect_finished": scenario.expect_finished,
        "checks": [_callable_name(check) for check in scenario.checks],
        "overrides": canonical_value(scenario.overrides),
    }


def scenario_key(scenario, *, code_version: Optional[str] = None) -> str:
    """SHA-256 content key of a scenario (64 hex chars).

    Equal keys mean "the same simulation under the same code": the same
    canonicalized config, workload name, params, seed, limits, checks and
    code-version salt.  Dict ordering never matters; any value change —
    one config field, one param, the seed — produces a different key.
    """
    document = canonical_scenario(scenario, code_version=code_version)
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
