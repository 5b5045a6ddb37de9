"""Lazy package exports (PEP 562): the one helper behind every ``__init__``.

A package ``__init__`` lists its public names in ``__all__`` and hands
:func:`lazy_exports` a table of the modules that define them; a name is
imported from its module on first attribute access and then cached in the
package's globals, so ``from repro.noc import NocConfig`` loads
``noc/config.py`` and not ``noc/mesh.py``.  Loading follows use: what a
run never names it never compiles.
"""

from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(namespace: dict, table: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package with globals ``namespace``.

    ``table`` maps a module name, relative to the package, to the public
    names it defines.  Only modules named there are ever imported — the
    result store's unpickler resolves ``repro.*`` globals through here —
    and any other name raises ``AttributeError`` like a plain module, which
    is what ``hasattr``, ``inspect`` and the ``from package import
    submodule`` fallback rely on.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(origin[name], package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return list(namespace["__all__"])

    return __getattr__, __dir__
