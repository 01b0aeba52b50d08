"""Small shared helpers used across the :mod:`repro` package.

Importing this module loads no numpy (every package ``__init__`` imports
:func:`lazy_exports` from it); the helpers that need numpy import it when
they run.
"""

from __future__ import annotations

import importlib
import numbers
import sys

__all__ = [
    "as_index_array",
    "check_positive",
    "check_power_of_two",
    "is_power_of_two",
    "lazy_exports",
    "next_power_of_two",
    "out_of_bins",
    "rng_from_seed",
    "stable_order",
]


def rng_from_seed(seed):
    """Return a :class:`numpy.random.Generator` from ``seed``.

    ``seed`` may be ``None`` (non-deterministic), an integer, or an existing
    generator (returned unchanged so callers can thread one RNG through).
    """
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_positive(name, value):
    """Raise ``ValueError`` unless ``value`` is a positive integer.

    NumPy integers count (NumPy registers them as ``numbers.Integral``);
    booleans do not.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def is_power_of_two(value):
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def check_power_of_two(name, value):
    """Raise ``ValueError`` unless ``value`` is a positive power of two."""
    check_positive(name, value)
    if not is_power_of_two(value):
        raise ValueError(f"{name} must be a power of two, got {value}")
    return int(value)


def next_power_of_two(value):
    """Smallest power of two ``>= value`` (``value`` must be positive)."""
    check_positive("value", value)
    return 1 << (int(value) - 1).bit_length()


def as_index_array(values, name="indices"):
    """Coerce ``values`` to a 1-D int64 numpy array, validating shape."""
    import numpy as np

    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def out_of_bins(indices, position, shift, num_bins):
    """The ``ValueError`` for update ``position`` of ``indices``, whose bin
    ``indices[position] >> shift`` lies outside ``[0, num_bins)``. The C
    binning passes and their NumPy oracle raise the same one."""
    index = int(indices[position])
    return ValueError(
        f"update {position} has index {index}, whose bin {index >> shift} "
        f"lies outside [0, {num_bins})"
    )


def stable_order(keys):
    """Exactly ``np.argsort(keys, kind="stable")`` for non-negative integer
    ``keys``, in time linear in their number.

    NumPy sorts 16-bit keys by radix (skipping a byte every key shares),
    so the order is built in least-significant-digit passes over 16-bit
    digits. Each later pass sorts the next digit, gathered through the
    order so far; stability makes the passes compose. The digit count comes
    from the largest key, so no digit is dropped.
    """
    import numpy as np

    keys = np.asarray(keys)
    if not np.issubdtype(keys.dtype, np.integer):
        raise TypeError(f"keys must be integers, got dtype {keys.dtype}")
    if len(keys) == 0:
        return np.empty(0, dtype=np.intp)
    if keys.min() < 0:
        raise ValueError("keys must be non-negative")
    order = np.argsort(keys.astype(np.uint16, copy=False), kind="stable")
    for shift in range(16, int(keys.max()).bit_length(), 16):
        digit = (keys >> shift).astype(np.uint16)[order]
        order = order[np.argsort(digit, kind="stable")]
    return order


def lazy_exports(module, exports):
    """A module-level ``__getattr__`` (PEP 562) that imports re-exports on
    first use.

    ``exports`` maps a submodule's dotted name to the names ``module``
    re-exports from it; a name equal to the submodule's last component is
    the submodule itself. The first lookup of a name imports its submodule
    and binds the name in ``module``, so later lookups never come back
    here. A package whose ``__init__`` re-exports through this helper costs
    its importers nothing they do not use.
    """
    sources = {name: source for source, names in exports.items() for name in names}

    def __getattr__(name):
        source = sources.get(name)
        if source is None:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        value = importlib.import_module(source)
        if source != f"{module}.{name}":
            value = getattr(value, name)
        setattr(sys.modules[module], name, value)
        return value

    return __getattr__
