"""Compiled kernels for the simulators' fast paths.

Each simulator layer has one Python oracle and one C fast path:
:class:`~repro.cache.fastsim.FastHierarchy` and
:class:`~repro.cache.batchsim.BatchHierarchy` (one C walk per trace,
access by access through L1 → L2 → LLC) for the cache hierarchy, the
generator-engine DES and its C twin for the eviction buffers, the
Python COBRA machines and a count-only C replay for Binning,
:meth:`GSharePredictor.simulate <repro.cpu.branch.GSharePredictor.simulate>`
and a C walk for the branch predictor, and NumPy code and one C pass each
for software PB's bin counts, bin-major order and C-Buffer occupancy
(:mod:`repro.pb.bins`, :mod:`repro.pb.cbuffer`). The C kernels are one
translation unit (:mod:`repro.cache.kernels.cnative`), compiled on first
use with the system C compiler. Every caller takes the C path exactly
when :func:`cnative.available() <repro.cache.kernels.cnative.available>` is
true, so the host decides and no option does;
:func:`~repro.cache.batchsim.make_hierarchy` is that choice for the cache.
"""

from __future__ import annotations

from repro.cache.kernels import cnative

__all__ = ["select_backend"]


def select_backend() -> str:
    """The path this host runs: ``"cnative"`` when the C kernel library
    builds and loads, ``"python"`` (the oracles) otherwise."""
    return "cnative" if cnative.available() else "python"
