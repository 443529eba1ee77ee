"""Lazy package exports (PEP 562), shared by the ``repro`` package ``__init__``s.

A package re-exports its public names from the submodules that define
them, but imports a submodule only on the first access to one of its
names.  So ``import repro.cli`` -- or any module below a package -- does
not also load every sibling the package re-exports, and with them numpy.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, MutableMapping, Sequence, Tuple


def lazy_exports(
    namespace: MutableMapping[str, Any], exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` of a package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps a
    defining module, relative to the package, to the names it exports.  The
    first access to a name imports its module and binds the name in the
    package, so later lookups skip the hook.  Usage in a package
    ``__init__``::

        __all__, __getattr__, __dir__ = lazy_exports(globals(), {".mod": ("Name",)})
    """
    package = namespace["__name__"]
    origin: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return list(origin), __getattr__, __dir__
