"""Hierarchy configuration shared by the Python oracle and the C fast path."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro._util import check_positive

__all__ = ["HierarchyConfig", "MAX_STREAMS", "MAX_WAYS", "POLICIES"]

#: Replacement policies both simulators implement.
POLICIES = ("lru", "plru", "drrip")

#: The C walk keeps a set's replacement state in one 64-bit word, DRRIP's
#: as 2 bits per way. Its stream table marks free slots in one 64-bit word
#: and indexes them with 128 buckets, so the index is at most half full.
MAX_WAYS = 32
MAX_STREAMS = 64


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry and policies of the simulated three-level hierarchy.

    Defaults are the scaled Table II machine (DESIGN.md Section 5): sizes
    are 16x smaller than the paper's so that scaled-down inputs preserve
    the paper's working-set-to-cache ratios. A level has at most
    :data:`MAX_WAYS` ways and the prefetcher 1 to :data:`MAX_STREAMS`
    streams; its fields are checked whether or not it is on.
    """

    l1_bytes: int = 2 * 1024
    l1_ways: int = 8
    l1_policy: str = "plru"
    l2_bytes: int = 16 * 1024
    l2_ways: int = 8
    l2_policy: str = "plru"
    llc_bytes: int = 128 * 1024
    llc_ways: int = 16
    llc_policy: str = "drrip"
    line_bytes: int = 64
    prefetch: bool = True
    prefetch_streams: int = 16
    prefetch_degree: int = 4
    prefetch_threshold: int = 2
    l1_reserved_ways: int = 0
    l2_reserved_ways: int = 0
    llc_reserved_ways: int = 0

    def __post_init__(self):
        for name in ("l1_bytes", "l1_ways", "l2_bytes", "l2_ways",
                     "llc_bytes", "llc_ways", "line_bytes", "prefetch_streams",
                     "prefetch_degree", "prefetch_threshold"):
            check_positive(name, getattr(self, name))
        if self.prefetch_streams > MAX_STREAMS:
            raise ValueError(
                f"prefetch_streams must be at most {MAX_STREAMS}, "
                f"got {self.prefetch_streams}"
            )
        for level, size, ways, reserved, policy in [
            ("l1", self.l1_bytes, self.l1_ways, self.l1_reserved_ways,
             self.l1_policy),
            ("l2", self.l2_bytes, self.l2_ways, self.l2_reserved_ways,
             self.l2_policy),
            ("llc", self.llc_bytes, self.llc_ways, self.llc_reserved_ways,
             self.llc_policy),
        ]:
            if policy not in POLICIES:
                raise ValueError(
                    f"unknown {level} replacement policy {policy!r}; "
                    f"expected one of {POLICIES}"
                )
            if ways > MAX_WAYS:
                raise ValueError(
                    f"{level}_ways must be at most {MAX_WAYS}, got {ways}"
                )
            if size % (ways * self.line_bytes):
                raise ValueError(f"{level} size not divisible by ways*line")
            if not 0 <= reserved < ways:
                raise ValueError(
                    f"{level} reserved ways must lie in [0, {ways})"
                )

    def sets(self, level):
        """Number of sets at ``level`` ('l1', 'l2', or 'llc')."""
        size = getattr(self, f"{level}_bytes")
        ways = getattr(self, f"{level}_ways")
        return size // (ways * self.line_bytes)

    def lines(self, level):
        """Line capacity of ``level``."""
        return getattr(self, f"{level}_bytes") // self.line_bytes

    def with_reserved(self, l1=None, l2=None, llc=None):
        """Copy with the given reserved-way counts."""
        return replace(
            self,
            l1_reserved_ways=self.l1_reserved_ways if l1 is None else l1,
            l2_reserved_ways=self.l2_reserved_ways if l2 is None else l2,
            llc_reserved_ways=self.llc_reserved_ways if llc is None else llc,
        )
