"""PB's binning primitives: the C passes against their NumPy oracle.

``BinSpec.binned`` (bin counts), ``BinnedStream.order`` (the bin-major
order prefix) and ``CBufferModel.occupancy_before`` (C-Buffer occupancy)
each run one C pass exactly when ``cnative.available()`` is true, and NumPy
code otherwise. Hypothesis draws bin specs on both sides of the order's
narrow-dtype boundaries and random ones, uniform, Zipf-skewed, all-equal
and empty streams, limits around the stream length and tuple sizes from 1
to 64 bytes; both paths must give the same arrays, dtypes included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.kernels import cnative
from repro.pb import BinSpec, CBufferModel
from tests.pb.test_bins import binned_streams, limits_around

needs_kernels = pytest.mark.skipif(
    not cnative.available(), reason="the C kernel library is unavailable"
)

KERNELS = ("bin_counts", "bin_order", "bin_occupancy")


def binning(spec, indices, limits, tuple_bytes):
    """Counts, one order per limit and the occupancy, on the current path."""
    binned = spec.binned(indices)
    orders = [binned.order(limit) for limit in limits]
    model = CBufferModel(spec, tuple_bytes)
    return [binned.counts, *orders, model.occupancy_before(indices)]


@needs_kernels
@given(
    binned_streams(random_specs=True),
    st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_c_path_matches_the_oracle(stream, tuple_bytes, data):
    spec, indices = stream
    limits = [None, *limits_around(data.draw, len(indices))]
    native = binning(spec, indices, limits, tuple_bytes)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cnative, "available", lambda: False)
        oracle = binning(spec, indices, limits, tuple_bytes)
    for got, expected in zip(native, oracle):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


class TestBackendDispatch:
    SPEC = BinSpec(1024, 64)
    INDICES = np.random.default_rng(7).integers(0, 1024, 500)

    def expected(self):
        """Counts, a 100-long order prefix and the occupancy (8 tuples a
        line) by their definitions: a running count per bin and the
        stable argsort."""
        ids = (self.INDICES >> self.SPEC.shift).tolist()
        seen = [0] * self.SPEC.num_bins
        occupancy = []
        for b in ids:
            occupancy.append(seen[b] % 8)
            seen[b] += 1
        return [seen, np.argsort(ids, kind="stable")[:100], occupancy]

    def run(self):
        return binning(self.SPEC, self.INDICES, [100], tuple_bytes=8)

    @needs_kernels
    def test_c_kernels_run_when_the_library_loads(self, monkeypatch):
        calls = []

        def recording(name, kernel):
            def kernel_call(*args):
                calls.append(name)
                return kernel(*args)

            return kernel_call

        for name in KERNELS:
            monkeypatch.setattr(
                cnative, name, recording(name, getattr(cnative, name))
            )
        for got, expected in zip(self.run(), self.expected()):
            assert np.array_equal(got, expected)
        assert calls == list(KERNELS)

    def test_numpy_runs_without_the_library(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a C binning pass ran without the library")

        monkeypatch.setattr(cnative, "available", lambda: False)
        for name in KERNELS:
            monkeypatch.setattr(cnative, name, unreachable)
        for got, expected in zip(self.run(), self.expected()):
            assert np.array_equal(got, expected)
