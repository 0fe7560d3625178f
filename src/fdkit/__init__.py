"""fdkit: functional dependencies over relational schemas.

Closures, implication, covers, keys, BCNF/3NF checking, decomposition and
synthesis, backed by a finite relation-instance laboratory that serves as
an independent brute-force oracle.

Exports are lazy: ``import fdkit`` loads no submodule, and the first use
of a name imports the submodules in order up to the one that exports it.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("errors", "fds", "covers", "instances", "design", "reductions", "dsl")
_homes = {}


def __getattr__(name: str):
    # an export is read from its home module on every access, never stored
    # here, so a name patched and restored there reads the same here
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    modules = map(__getattr__, _MODULES)
    while name not in _homes and (module := next(modules, None)):
        _homes.update(dict.fromkeys(module.__all__, module))
    if name in _homes:
        return getattr(_homes[name], name)
    if name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = exports = ["__version__", *_homes]
    return exports


def __dir__():
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
