"""Deferred exports (PEP 562): a package imports eagerly only what trace ->
compile -> forward calls, and a submodule holding any other name on first read."""

import importlib
import sys
import types


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Loading a submodule binds it on its package, also when an unpickler
        # imports it by full name: keep ``passes.split_module`` the function.
        if not (isinstance(value, types.ModuleType) and name in vars(value)
                and value.__name__ == f"{self.__name__}.{name}"):
            super().__setattr__(name, value)


def attach(package: str, exports: dict):
    """Make *package* a ``_Package``; return its ``(__getattr__, __dir__)``.  *exports*
    maps each deferred submodule to the names it provides, space-separated; a
    listed name the submodule does not define is the submodule itself."""
    owner = {name: sub for sub, names in exports.items() for name in names.split()}
    sys.modules[package].__class__ = _Package

    def __getattr__(name):
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{owner[name]}")
        value = vars(module).get(name, module)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__
