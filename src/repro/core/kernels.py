"""The name of the sampling path, for ``perfbench`` only.

The samplers call NumPy directly; there is no kernel tier to choose.
``perfbench/workloads.py`` still reports a tier name in its host line
through :func:`resolve_kernels`, so this module keeps that one name alive
until the benchmark harness drops the field (ROADMAP item 6 removes this
module with it).  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from types import SimpleNamespace

__all__ = ["resolve_kernels"]

_NUMPY = SimpleNamespace(name="numpy")


def resolve_kernels(kernels=None):
    """The fixed NumPy path: an object whose ``name`` is ``"numpy"``."""
    return _NUMPY
