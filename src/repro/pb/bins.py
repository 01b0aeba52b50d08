"""Bin geometry and the binning primitive of Propagation Blocking.

A :class:`BinSpec` fixes the number of bins and the power-of-two bin range
(Section III-C: practical PB uses power-of-two ranges so computing a
tuple's bin is a bit shift). :meth:`BinSpec.bin_major_order` is the one
bin-major sort: bins are FIFO, so a stable partition by bin ID reproduces
the order in which the Accumulate phase replays updates, and
:func:`bin_updates` reorders an update stream by it exactly as a PB
execution does.

The bin counts (:meth:`BinSpec.binned`) and the order
(:meth:`BinnedStream.order`) are PB's counting sort, Init's count then
Binning's placement: each is one C pass
(:func:`~repro.cache.kernels.cnative.bin_counts`,
:func:`~repro.cache.kernels.cnative.bin_order`) exactly when
:func:`cnative.available() <repro.cache.kernels.cnative.available>` is
true, and NumPy code, their oracle, otherwise. An index whose bin lies
outside ``[0, num_bins)`` raises the same ``ValueError`` on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import (
    as_index_array,
    check_positive,
    is_power_of_two,
    next_power_of_two,
    out_of_bins,
)

__all__ = ["BinSpec", "BinnedStream", "bin_updates", "bin_counts", "bin_offsets"]


@dataclass(frozen=True)
class BinSpec:
    """Geometry of a PB binning configuration.

    ``bin_range`` is the number of consecutive indices mapped to one bin;
    ``num_bins`` is derived so bins cover ``[0, num_indices)``.
    :meth:`binned` counts a stream's bins in one C pass when the kernel
    library loads, with NumPy code as its oracle.
    """

    num_indices: int
    bin_range: int

    def __post_init__(self):
        check_positive("num_indices", self.num_indices)
        check_positive("bin_range", self.bin_range)
        if not is_power_of_two(self.bin_range):
            raise ValueError(
                f"bin_range must be a power of two, got {self.bin_range}"
            )

    @classmethod
    def from_num_bins(cls, num_indices, num_bins):
        """Spec with the smallest power-of-two range giving <= num_bins bins."""
        check_positive("num_bins", num_bins)
        bin_range = next_power_of_two(-(-num_indices // num_bins))
        return cls(num_indices, bin_range)

    @property
    def num_bins(self):
        """Number of bins covering the index namespace."""
        return -(-self.num_indices // self.bin_range)

    @property
    def shift(self):
        """log2(bin_range): tuples are binned with ``index >> shift``."""
        return self.bin_range.bit_length() - 1

    def bin_of(self, index):
        """Bin ID of a single index."""
        if not 0 <= index < self.num_indices:
            raise IndexError(f"index {index} outside [0, {self.num_indices})")
        return index >> self.shift

    def bins_of(self, indices):
        """Vectorized bin IDs for an index array."""
        return np.asarray(indices, dtype=np.int64) >> self.shift

    def binned(self, indices):
        """The stream's :class:`BinnedStream`: the stream and each bin's
        update count, counted in one pass (one C pass when the kernel
        library loads)."""
        from repro.cache.kernels import cnative

        indices = np.ascontiguousarray(as_index_array(indices))
        if cnative.available():
            counts = cnative.bin_counts(indices, self.shift, self.num_bins)
        else:
            ids = indices >> self.shift
            outside = (ids < 0) | (ids >= self.num_bins)
            if outside.any():
                raise out_of_bins(
                    indices, int(np.argmax(outside)), self.shift, self.num_bins
                )
            counts = np.bincount(ids, minlength=self.num_bins)
        return BinnedStream(indices, self.shift, counts)

    def bin_major_order(self, indices, limit=None):
        """The first ``limit`` positions of the stable bin-major order.

        Equals ``np.argsort(self.bins_of(indices), kind="stable")[:limit]``
        (all positions when ``limit`` is None); see
        :meth:`BinnedStream.order`.
        """
        return self.binned(indices).order(limit)


@dataclass(frozen=True)
class BinnedStream:
    """An update stream binned under one :class:`BinSpec`: ``indices`` is
    the stream (contiguous int64), each update's bin is ``index >>
    shift``, and ``counts`` holds each bin's update count.

    A phase list's Binning and Accumulate builders both read the same
    stream at the same spec, so they derive it once and share it. The bin ids
    themselves are never stored: the C path never builds them, and the
    NumPy path computes them when it needs them.
    """

    indices: np.ndarray
    shift: int
    counts: np.ndarray

    def order(self, limit=None):
        """The first ``limit`` positions of the stable bin-major order.

        With the kernel library this is one C pass that places each update
        at its bin's next slot, counting-sort style, from the bin offsets.
        The NumPy oracle, like the Init phase's counting pass, finds the
        cutoff bin from the counts, the first whose cumulative count
        reaches ``limit``; only updates in bins up to it are then sorted,
        on ids cast to the narrowest unsigned dtype that holds them (8- and
        16-bit keys take NumPy's radix sort).
        """
        from repro.cache.kernels import cnative

        n = len(self.indices)
        limit = n if limit is None else min(limit, n)
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        if cnative.available():
            return cnative.bin_order(
                self.indices, self.shift, self.counts, limit
            )
        cutoff = int(np.searchsorted(np.cumsum(self.counts), limit))
        ids = (self.indices >> self.shift).astype(
            _narrowest_unsigned(len(self.counts) - 1), copy=False
        )
        selected = np.flatnonzero(ids <= cutoff)
        order = np.argsort(ids[selected], kind="stable")[:limit]
        return selected[order]

    def line_transfers(self, per_line):
        """``(full_lines, partial_lines)`` when each bin is written out in
        lines of ``per_line`` updates: every full line, then each bin's
        partial last line."""
        full_lines = int(np.sum(self.counts // per_line))
        partial_lines = int(np.count_nonzero(self.counts % per_line))
        return full_lines, partial_lines


def _narrowest_unsigned(max_id):
    """uint8 or uint16 when ``max_id`` fits, else int64."""
    for dtype in (np.uint8, np.uint16):
        if max_id <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def bin_counts(indices, spec: BinSpec):
    """Tuples destined to each bin (the Init phase's per-bin sizing pass)."""
    return spec.binned(indices).counts


def bin_offsets(counts):
    """Exclusive prefix sum of bin counts — the BinOffset array.

    Software PB precomputes this to lay bins out contiguously in memory;
    COBRA loads the same offsets into LLC C-Buffer tags (Figure 9).
    """
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def bin_updates(indices, values, spec: BinSpec):
    """Reorder an update stream into bin-major (PB Accumulate) order.

    Returns ``(binned_indices, binned_values, offsets)`` where
    ``binned_indices[offsets[b]:offsets[b + 1]]`` are bin ``b``'s updates in
    original stream order (bins are FIFO). ``values`` may be None for
    kernels whose update carries no payload.
    """
    indices = as_index_array(indices)
    if len(indices) and indices.max() >= spec.num_indices:
        raise ValueError("update stream contains indices beyond num_indices")
    binned = spec.binned(indices)
    order = binned.order()
    offsets = bin_offsets(binned.counts)
    binned_indices = indices[order]
    if values is None:
        return binned_indices, None, offsets
    values = np.asarray(values)
    if len(values) != len(indices):
        raise ValueError("values must parallel indices")
    return binned_indices, values[order], offsets
