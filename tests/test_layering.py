"""The package layer order, pinned.

Module-level imports inside ``repro`` may only point *down* this order::

    kernel < fabric < memory < {interconnect, noc, wrapper} < {cache, dev}
           < sw < {check, obs} < soc < {pdes, store} < api < analysis

with ``isa < iss`` beside it (``iss`` sits level with ``cache``/``dev``).
So ``kernel/probes.py`` stays at the bottom, and the suites
(``check``, ``obs``) are never imported by the layers they observe.
In-function (lazy) imports may point up or sideways only when listed in
``LAZY_UPWARD``.  A package ``__init__``'s export table counts as the
module-level imports it stands for.
"""

import ast
import os

import repro

LAYERS = [
    {"kernel", "isa"},
    {"fabric"},
    {"memory"},
    {"interconnect", "noc", "wrapper"},
    {"cache", "dev", "iss"},
    {"sw"},
    {"check", "obs"},
    {"soc"},
    {"pdes", "store"},
    {"api"},
    {"analysis"},
]
RANK = {package: rank for rank, layer in enumerate(LAYERS)
        for package in layer}

#: The lazy imports that reach a peer or a higher layer: (file, target).
LAZY_UPWARD = {
    ("obs/export.py", "api"),      # the export CLI's demo scenario
    ("pdes/partition.py", "api"),  # _build_seeded_workload
}

ROOT = os.path.dirname(repro.__file__)


def _targets(node, package_parts):
    """Top-level ``repro`` subpackages an import statement names."""
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
    else:
        # Relative imports resolve against the importing file's package.
        base = (package_parts[:len(package_parts) - (node.level - 1)]
                if node.level else [])
        module = base + (node.module.split(".") if node.module else [])
        names = ([module] if len(module) > 1
                 else [module + [alias.name] for alias in node.names])
    return {parts[1] for parts in names
            if parts[0] == "repro" and len(parts) > 1 and parts[1] in RANK}


def _module_level(body):
    """Import nodes at module level, looking through ``if``/``try``."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            blocks = [node.body, node.orelse, getattr(node, "finalbody", [])]
            blocks += [handler.body for handler in getattr(node, "handlers", [])]
            for block in blocks:
                yield from _module_level(block)


def _table_imports(tree):
    """The ``lazy_exports`` table of an ``__init__`` as import statements."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"):
            for key, names in ast.literal_eval(node.args[1]).items():
                module = key.lstrip(".")
                yield ast.ImportFrom(
                    module=module or None, level=len(key) - len(module),
                    names=[ast.alias(name=name) for name in names])


def _edges():
    """``(file, source package, target package, is_lazy)`` for every
    cross-package import under ``src/repro``."""
    for directory, _dirs, files in os.walk(ROOT):
        for filename in files:
            path = os.path.join(directory, filename)
            parts = os.path.relpath(path, ROOT).split(os.sep)
            if not filename.endswith(".py") or len(parts) < 2:
                continue
            with open(path) as handle:
                tree = ast.parse(handle.read())
            package_parts = ["repro"] + parts[:-1]
            table = list(_table_imports(tree))
            eager = set(_module_level(tree.body)) | set(table)
            for node in list(ast.walk(tree)) + table:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for target in _targets(node, package_parts) - {parts[0]}:
                        yield "/".join(parts), parts[0], target, node not in eager


def test_every_package_has_a_layer():
    packages = {entry for entry in os.listdir(ROOT)
                if os.path.isfile(os.path.join(ROOT, entry, "__init__.py"))}
    assert packages == set(RANK)


def test_module_level_imports_point_down_the_layer_order():
    upward = sorted({(file, target) for file, source, target, lazy in _edges()
                     if not lazy and RANK[target] >= RANK[source]})
    assert upward == []


def test_lazy_upward_imports_are_exactly_the_listed_exceptions():
    upward = {(file, target) for file, source, target, lazy in _edges()
              if lazy and RANK[target] >= RANK[source]}
    assert upward == LAZY_UPWARD
