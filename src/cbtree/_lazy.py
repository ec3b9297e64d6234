"""numpy imported on first use, so a command that never calls it never loads it."""


class LazyNumpy:
    """A module's ``np`` until its first attribute lookup, which imports numpy
    and rebinds that global to it (idempotent, so threads may race on it)."""

    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy
        self._namespace["np"] = numpy
        return getattr(numpy, name)
