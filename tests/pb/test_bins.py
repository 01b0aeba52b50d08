"""Tests for bin geometry and the binning primitive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.kernels import cnative
from repro.pb import BinSpec, CBufferModel, bin_counts, bin_offsets, bin_updates
from repro.pb.bins import _narrowest_unsigned
from repro.workloads.base import RegionSpec, Segment

#: Bin counts on both sides of each narrow-dtype boundary.
BOUNDARY_BINS = (256, 257, 65_536, 65_537)


@pytest.fixture(params=["cnative", "numpy"])
def binning_path(request, monkeypatch):
    """Run the test on the C binning passes (skipped without the kernel
    library) and on their NumPy oracle."""
    if request.param == "numpy":
        monkeypatch.setattr(cnative, "available", lambda: False)
    elif not cnative.available():
        pytest.skip("the C kernel library is unavailable")
    return request.param


class TestBinSpec:
    def test_num_bins(self):
        spec = BinSpec(num_indices=1000, bin_range=256)
        assert spec.num_bins == 4

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError, match="power of two"):
            BinSpec(1000, 100)

    def test_from_num_bins(self):
        spec = BinSpec.from_num_bins(1 << 16, 256)
        assert spec.bin_range == 256
        assert spec.num_bins == 256

    def test_from_num_bins_rounds_range_up(self):
        spec = BinSpec.from_num_bins(1000, 3)
        assert spec.bin_range == 512  # ceil(1000/3)=334 -> 512
        assert spec.num_bins == 2

    def test_shift_matches_range(self):
        spec = BinSpec(1 << 12, 64)
        assert spec.shift == 6
        assert spec.bin_of(63) == 0
        assert spec.bin_of(64) == 1

    def test_bin_of_bounds(self):
        spec = BinSpec(100, 32)
        with pytest.raises(IndexError):
            spec.bin_of(100)

    def test_bins_of_vectorized(self):
        spec = BinSpec(256, 16)
        indices = np.arange(256)
        assert np.array_equal(spec.bins_of(indices), indices // 16)


class TestBinCounts:
    def test_counts(self):
        spec = BinSpec(64, 16)
        counts = bin_counts(np.array([0, 1, 17, 63]), spec)
        assert np.array_equal(counts, [2, 1, 0, 1])

    def test_offsets_exclusive(self):
        offsets = bin_offsets(np.array([2, 0, 3]))
        assert np.array_equal(offsets, [0, 2, 2, 5])


class TestBinUpdates:
    def test_bin_major_order(self):
        spec = BinSpec(64, 16)
        indices = np.array([40, 3, 20, 5, 60])
        binned, vals, offsets = bin_updates(indices, np.arange(5), spec)
        assert np.array_equal(binned, [3, 5, 20, 40, 60])
        assert np.array_equal(vals, [1, 3, 2, 0, 4])

    def test_fifo_within_bin(self):
        spec = BinSpec(64, 64)  # everything in one bin
        indices = np.array([9, 2, 7, 2])
        binned, vals, _ = bin_updates(indices, np.arange(4), spec)
        assert np.array_equal(binned, indices)  # order preserved
        assert np.array_equal(vals, np.arange(4))

    def test_values_none(self):
        spec = BinSpec(64, 16)
        binned, vals, offsets = bin_updates(np.array([20, 3]), None, spec)
        assert vals is None
        assert np.array_equal(binned, [3, 20])

    def test_offsets_partition_stream(self):
        spec = BinSpec(64, 16)
        indices = np.array([40, 3, 20, 5, 60, 61])
        binned, _, offsets = bin_updates(indices, None, spec)
        for b in range(spec.num_bins):
            chunk = binned[offsets[b] : offsets[b + 1]]
            assert np.all(chunk >> spec.shift == b)

    def test_out_of_range_rejected(self):
        spec = BinSpec(64, 16)
        with pytest.raises(ValueError, match="beyond"):
            bin_updates(np.array([64]), None, spec)

    @pytest.mark.parametrize("indices, message", [
        ([1, 70, 200], r"update 1 has index 70, whose bin 4 lies outside \[0, 4\)"),
        ([5, 63, -1], r"update 2 has index -1, whose bin -1 lies outside \[0, 4\)"),
    ])
    def test_index_outside_the_bins_rejected(self, binning_path, indices, message):
        spec = BinSpec(64, 16)
        with pytest.raises(ValueError, match=message):
            spec.binned(indices)
        with pytest.raises(ValueError, match=message):
            bin_counts(indices, spec)
        with pytest.raises(ValueError, match=message):
            CBufferModel(spec, tuple_bytes=8).occupancy_before(indices)

    def test_value_length_checked(self):
        spec = BinSpec(64, 16)
        with pytest.raises(ValueError, match="parallel"):
            bin_updates(np.array([1, 2]), np.array([1.0]), spec)

    @given(
        st.lists(st.integers(0, 1023), min_size=0, max_size=500),
        st.sampled_from([16, 64, 256, 1024]),
    )
    @settings(max_examples=60, deadline=None)
    def test_binning_is_a_permutation(self, raw, bin_range):
        indices = np.array(raw, dtype=np.int64)
        spec = BinSpec(1024, bin_range)
        values = np.arange(len(indices))
        binned, vals, offsets = bin_updates(indices, values, spec)
        # Same multiset of (index, value) pairs.
        assert sorted(zip(binned, vals)) == sorted(zip(indices, values))
        # Offsets end at the stream length and bins are range-disjoint.
        assert offsets[-1] == len(indices)
        assert np.all(np.diff(binned >> spec.shift) >= 0)


@st.composite
def binned_streams(draw, random_specs=False):
    """A BinSpec at a dtype boundary (or, with ``random_specs``, as often
    any spec of up to 2^18 indices) and a uniform, Zipf-skewed or
    all-equal stream over its namespace (possibly empty)."""
    if random_specs and draw(st.booleans()):
        spec = BinSpec(draw(st.integers(1, 1 << 18)), 1 << draw(st.integers(0, 12)))
    else:
        bin_range = draw(st.sampled_from([1, 8]))
        spec = BinSpec(draw(st.sampled_from(BOUNDARY_BINS)) * bin_range, bin_range)
    n = draw(st.integers(0, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "zipf", "equal"]))
    if kind == "uniform":
        indices = rng.integers(0, spec.num_indices, n)
    elif kind == "zipf":
        # Most updates land in bin 0, so a small limit cuts off there.
        indices = np.minimum(rng.zipf(2.0, n) - 1, spec.num_indices - 1)
    else:
        indices = np.full(n, rng.integers(0, spec.num_indices))
    return spec, indices.astype(np.int64)


def limits_around(draw, n):
    return [0, 1, max(n - 1, 0), n, n + 5, draw(st.integers(0, n + 10))]


class TestBinMajorOrder:
    def test_dtype_follows_the_largest_bin_id(self):
        assert _narrowest_unsigned(255) == np.uint8
        assert _narrowest_unsigned(256) == np.uint16
        assert _narrowest_unsigned(65_535) == np.uint16
        assert _narrowest_unsigned(65_536) == np.int64

    @pytest.mark.parametrize("num_bins", BOUNDARY_BINS)
    @pytest.mark.parametrize("limit", [None, 0, 1, 5])
    def test_empty_stream(self, num_bins, limit):
        spec = BinSpec(num_bins, 1)
        order = spec.bin_major_order(np.zeros(0, dtype=np.int64), limit)
        assert len(order) == 0

    def test_skewed_stream_cuts_off_at_bin_zero(self):
        spec = BinSpec(1 << 12, 16)
        indices = np.array([0] * 50 + [4000, 17, 3] + [5] * 50)
        order = spec.bin_major_order(indices, 60)
        expected = np.argsort(spec.bins_of(indices), kind="stable")[:60]
        assert np.array_equal(order, expected)
        assert np.all(spec.bins_of(indices[order]) == 0)

    @given(binned_streams(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_int64_stable_argsort_prefix(self, stream, data):
        spec, indices = stream
        full = np.argsort(spec.bins_of(indices), kind="stable")
        assert np.array_equal(spec.bin_major_order(indices), full)
        for limit in limits_around(data.draw, len(indices)):
            assert np.array_equal(
                spec.bin_major_order(indices, limit), full[:limit]
            )

    @given(binned_streams(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_full_events_of_a_prefix_are_its_prefix(self, stream, data):
        spec, indices = stream
        model = CBufferModel(spec, tuple_bytes=8)
        events = model.full_events(indices)
        for limit in limits_around(data.draw, len(indices)):
            assert np.array_equal(
                model.full_events(indices[:limit]), events[:limit]
            )

    @given(st.integers(1, 500), st.data())
    @settings(max_examples=50, deadline=None)
    def test_segment_count_bounds_its_sample(self, n, data):
        region = RegionSpec("r", 4, 1000)
        indices = np.arange(n) % 1000
        with pytest.raises(ValueError, match="count"):
            Segment(region, indices, count=n - 1)
        limit = data.draw(st.integers(0, n))
        sampled = Segment(region, indices[:limit], count=n)
        assert (sampled.count, len(sampled.indices)) == (n, limit)
        assert Segment(region, indices).count == n
