"""Tests for slab/pencil decompositions and scatter/gather round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.decomp import SlabDecomposition


class TestSlabDecomposition:
    def test_shapes(self):
        d = SlabDecomposition(n=16, ranks=4)
        assert d.mz == 4 and d.my == 4
        assert d.local_spectral_shape() == (4, 16, 9)
        assert d.local_physical_shape() == (16, 4, 16)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            SlabDecomposition(n=16, ranks=5)

    def test_slices_partition_domain(self):
        d = SlabDecomposition(n=16, ranks=4)
        covered = []
        for r in range(4):
            s = d.spectral_slice(r)
            covered.extend(range(s.start, s.stop))
        assert covered == list(range(16))

    def test_rank_bounds_checked(self):
        d = SlabDecomposition(n=16, ranks=4)
        with pytest.raises(ValueError):
            d.spectral_slice(4)
        with pytest.raises(ValueError):
            d.physical_slice(-1)

    def test_spectral_scatter_gather_roundtrip(self, rng):
        d = SlabDecomposition(n=16, ranks=4)
        g = rng.standard_normal((16, 16, 9)) + 1j * rng.standard_normal((16, 16, 9))
        assert np.array_equal(d.gather_spectral(d.scatter_spectral(g)), g)

    def test_physical_scatter_gather_roundtrip(self, rng):
        d = SlabDecomposition(n=16, ranks=8)
        u = rng.standard_normal((16, 16, 16))
        assert np.array_equal(d.gather_physical(d.scatter_physical(u)), u)

    def test_scatter_shape_validation(self):
        d = SlabDecomposition(n=16, ranks=4)
        with pytest.raises(ValueError):
            d.scatter_spectral(np.zeros((8, 8, 5)))
        with pytest.raises(ValueError):
            d.gather_physical([np.zeros((16, 4, 16))] * 3)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([8, 12, 16, 24]),
        ranks=st.sampled_from([1, 2, 4]),
    )
    def test_roundtrip_property(self, n, ranks):
        d = SlabDecomposition(n=n, ranks=ranks)
        rng = np.random.default_rng(n * ranks)
        u = rng.standard_normal((n, n, n))
        assert np.array_equal(d.gather_physical(d.scatter_physical(u)), u)

