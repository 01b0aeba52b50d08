"""Software coalescing-buffer (C-Buffer) model.

Software PB amortizes bin writes with one cacheline-sized buffer per bin
(Section III-C / IV): tuples append to the bin's C-Buffer, and a full
C-Buffer is bulk-transferred to the in-memory bin with non-temporal stores.
This module computes, for a given update stream, everything the
performance model needs about that process: the per-tuple C-Buffer access
trace, the per-tuple "did the buffer just fill?" branch outcomes, and the
full/partial line transfer counts. The occupancy behind the outcomes is
one C pass exactly when the kernel library loads, and its NumPy oracle
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_index_array, check_positive
from repro.pb.bins import BinSpec, bin_offsets

__all__ = ["CBufferModel"]


@dataclass(frozen=True)
class CBufferModel:
    """C-Buffers for one :class:`BinSpec` and tuple size.

    :meth:`occupancy_before`, behind :meth:`full_events`, is one C pass
    when the kernel library loads, with NumPy code as its oracle.
    """

    spec: BinSpec
    tuple_bytes: int
    line_bytes: int = 64

    def __post_init__(self):
        check_positive("tuple_bytes", self.tuple_bytes)
        check_positive("line_bytes", self.line_bytes)
        if self.line_bytes % self.tuple_bytes:
            raise ValueError("tuple size must divide the line size")

    @property
    def tuples_per_line(self):
        """Tuples a C-Buffer holds before it must be drained."""
        return self.line_bytes // self.tuple_bytes

    @property
    def num_buffers(self):
        """One C-Buffer per bin."""
        return self.spec.num_bins

    @property
    def footprint_bytes(self):
        """Total C-Buffer storage (what must fit in cache for fast Binning)."""
        return self.num_buffers * self.line_bytes

    def buffer_ids(self, indices):
        """C-Buffer (== bin) ID each update lands in."""
        return self.spec.bins_of(as_index_array(indices))

    def occupancy_before(self, indices):
        """Per-update running occupancy of its C-Buffer, pre-insertion.

        Update ``k`` of bin ``b`` sees occupancy ``k mod tuples_per_line``:
        one C pass (:func:`~repro.cache.kernels.cnative.bin_occupancy`)
        when the kernel library loads, else the NumPy oracle, a group
        cumulative count over the bin-major order.
        """
        from repro.cache.kernels import cnative

        indices = as_index_array(indices)
        if cnative.available():
            return cnative.bin_occupancy(
                indices, self.spec.shift, self.spec.num_bins,
                self.tuples_per_line,
            )
        binned = self.spec.binned(indices)
        position_sorted = np.arange(len(indices), dtype=np.int64) - np.repeat(
            bin_offsets(binned.counts)[:-1], binned.counts
        )
        position = np.empty(len(indices), dtype=np.int64)
        position[binned.order()] = position_sorted
        return position % self.tuples_per_line

    def full_events(self, indices):
        """Boolean per update: did this insertion fill its C-Buffer?

        These are the outcomes of software PB's per-tuple "buffer full?"
        branch — the branch COBRA eliminates (Figure 12, bottom). A
        buffer's occupancy depends only on earlier updates, so the events
        of a stream prefix are the prefix of the stream's events.
        """
        return self.occupancy_before(indices) == self.tuples_per_line - 1

    def transfer_counts(self, indices):
        """(full_lines, partial_lines) moved to in-memory bins.

        ``full_lines`` are the bulk non-temporal transfers during Binning;
        ``partial_lines`` are the residual flushes at the end of Binning
        (non-empty buffers drained before Accumulate starts).
        """
        binned = self.spec.binned(as_index_array(indices))
        return binned.line_transfers(self.tuples_per_line)

    def bin_write_lines(self, num_updates):
        """Total DRAM lines occupied by the binned update stream."""
        total_bytes = num_updates * self.tuple_bytes
        return -(-total_bytes // self.line_bytes)
