"""The lazy export tables behave like the eager ``__init__`` s they replaced.

Every package ``__init__`` under ``src/repro`` serves its ``__all__``
through :func:`repro._lazy.lazy_exports`.  For each package, in a fresh
interpreter (so nothing another test imported can hide a broken entry):
each public name resolves to the very object its defining submodule holds
and is then cached; ``dir()`` is ``__all__``; ``from package import *``
works; an unknown name raises ``AttributeError`` naming the package, so
``hasattr``, ``inspect`` and ``doctest`` keep working; and the helper
imports nothing but the modules its tables name — the result store's
unpickler resolves ``repro.*`` globals through it, and a payload must not
be able to load ``repro.analysis.serve`` by asking for it.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

import repro

ROOT = os.path.dirname(repro.__file__)


def _packages():
    """``{dotted package name: its __init__.py}`` below (not including) repro."""
    found = {}
    for directory, _dirs, files in os.walk(ROOT):
        if "__init__.py" in files and directory != ROOT:
            relative = os.path.relpath(directory, ROOT).replace(os.sep, ".")
            found[f"repro.{relative}"] = os.path.join(directory, "__init__.py")
    return found


def _parse(path):
    """``(table, __all__, other import statements)`` of one ``__init__``."""
    with open(path) as handle:
        tree = ast.parse(handle.read())
    table = declared = None
    imports = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"):
            table = ast.literal_eval(node.args[1])
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            declared = ast.literal_eval(node.value)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.append(ast.unparse(node))
    return table, declared, imports


PACKAGES = _packages()
TABLES = {name: _parse(path)[0] for name, path in PACKAGES.items()}


def test_root_lists_every_subpackage_on_disk():
    on_disk = {entry for entry in os.listdir(ROOT)
               if os.path.isfile(os.path.join(ROOT, entry, "__init__.py"))}
    assert sorted(repro.__all__) == sorted(on_disk)
    for name in on_disk:
        assert f":mod:`repro.{name}`" in repro.__doc__, name


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_init_is_a_docstring_an_all_and_one_table(package):
    table, declared, imports = _parse(PACKAGES[package])
    assert table is not None and declared is not None
    # No eager re-export survives beside the table.
    assert len(imports) == 1 and imports[0].endswith(
        "_lazy import lazy_exports"), imports
    exported = [name for names in table.values() for name in names]
    assert sorted(exported) == sorted(declared)
    assert len(set(declared)) == len(declared)


#: Runs in a fresh interpreter: argv = package, JSON of every table.
_CHILD = r"""
import doctest, importlib, inspect, json, os, sys, types
import repro._lazy as lazy

name, tables = sys.argv[1], json.loads(sys.argv[2])
calls = []
real = lazy.import_module
def recording(module, package=None):
    calls.append((module, package))
    return real(module, package)
lazy.import_module = recording

package = importlib.import_module(name)
table = tables[name]

# A submodule is not an export: asking for one by name (the unpickler's
# find_class does) neither finds nor loads it.
for entry in os.listdir(os.path.dirname(package.__file__)):
    stem = entry[:-3] if entry.endswith(".py") else entry
    if stem.startswith("_") or f"{name}.{stem}" in sys.modules:
        continue
    assert not hasattr(package, stem), stem
    assert f"{name}.{stem}" not in sys.modules, stem
assert calls == []

assert sorted(dir(package)) == sorted(package.__all__)
for missing in ("no_such_name", "__wrapped__", "Platfrom"):
    assert not hasattr(package, missing)
    try:
        getattr(package, missing)
    except AttributeError as exc:
        assert name in str(exc) and missing in str(exc), exc
    else:
        raise AssertionError(missing)

for module, names in table.items():
    for public in names:
        assert public not in vars(package), public
        value = getattr(package, public)
        defining = importlib.import_module(module, name)
        assert value is getattr(defining, public), public
        assert vars(package)[public] is value, public  # cached
        assert not isinstance(value, types.ModuleType), public
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == defining.__name__, public

namespace = {}
exec(f"from {name} import *", namespace)
assert set(package.__all__) <= set(namespace)
assert dict(inspect.getmembers(package)).keys() == set(package.__all__)
doctest.DocTestFinder().find(package)

# Every import the helper made, for this package or one it pulled in, is
# an entry of that package's own table.
assert calls
for module, owner in calls:
    assert module in tables[owner], (module, owner)
"""


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_exports_resolve_in_a_fresh_interpreter(package):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(ROOT), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, package, json.dumps(TABLES)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-3000:]


def test_star_import_of_the_root_loads_every_subpackage():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(ROOT))
    done = subprocess.run(
        [sys.executable, "-c",
         "from repro import *\n"
         "import repro, sys\n"
         "assert all(globals()[name] is sys.modules[f'repro.{name}']"
         " for name in repro.__all__)\n"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-3000:]


def test_kernel_exports_every_wait_kind():
    """A process yields an ``int``, an ``Event`` or a ``Hold``; the two
    wait objects are public names of :mod:`repro.kernel`."""
    import repro.kernel as kernel
    from repro.kernel.event import Event
    from repro.kernel.simulator import Hold

    assert {"Event", "Hold"} <= set(kernel.__all__)
    assert kernel.Event is Event and kernel.Hold is Hold
