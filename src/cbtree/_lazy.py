"""Modules imported on first use, so a command that never calls one never loads it.

numpy in every module, ``topology`` in ``model``, and in ``cli`` the library
modules and ``dataclasses``, are bound as ``LazyModule`` globals: importing
``cbtree.cli`` then loads no library module, and a command loads only the
modules it calls.
"""

import importlib


class LazyModule:
    """The global ``name`` of ``namespace`` until its first attribute lookup,
    which imports ``module`` and rebinds that global to it (idempotent, so
    threads may race on it)."""

    def __init__(self, namespace: dict, name: str, module: str):
        self._namespace, self._name, self._module = namespace, name, module

    def __getattr__(self, attr: str):
        module = importlib.import_module(self._module)
        self._namespace[self._name] = module
        return getattr(module, attr)
