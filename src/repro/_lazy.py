"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules imports
every submodule, and with them numpy and the baseline schedulers, even
when the caller needs one small piece (the circuit replay needs neither).
:func:`lazy_exports` builds the module-level ``__getattr__``/``__dir__``
pair that imports a submodule only when one of its names is first read,
so every public name stays reachable exactly where it was.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    Args:
        package: the package's ``__name__``.
        exports: ``{submodule: names}``; each name is re-exported from
            ``package.submodule``.  An empty ``names`` re-exports the
            submodule itself under its own name.
    """
    origin: Dict[str, Tuple[str, bool]] = {}
    for submodule, names in exports.items():
        if not names:
            origin[submodule] = (submodule, True)
        for name in names:
            origin[name] = (submodule, False)

    def __getattr__(name: str) -> Any:
        try:
            submodule, whole = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(f"{package}.{submodule}")
        value = module if whole else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
