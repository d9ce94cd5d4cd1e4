"""Tests for pack / all-to-all / unpack global transposes."""

import numpy as np
import pytest

from repro.dist.decomp import SlabDecomposition
from repro.dist.transpose import (
    pack_blocks,
    transpose_exchange,
    unpack_blocks,
)
from repro.dist.virtual_mpi import VirtualComm

#: The DNS step's two slab transposes: kz-slabs -> y-slabs and back.
TO_Y = dict(pack_axis=1, unpack_axis=0)
TO_KZ = dict(pack_axis=0, unpack_axis=1)


class TestPackUnpack:
    def test_pack_unpack_roundtrip(self, rng):
        a = rng.standard_normal((4, 8, 6))
        for axis in range(3):
            parts = {0: 4, 1: 8, 2: 6}[axis] // 2
            blocks = pack_blocks(a, axis, parts)
            assert all(b.flags.c_contiguous for b in blocks)
            assert np.array_equal(unpack_blocks(blocks, axis), a)

    def test_pack_rejects_uneven_split(self, rng):
        with pytest.raises(ValueError):
            pack_blocks(rng.standard_normal((4, 5, 6)), 1, 2)


class TestSlabTransposes:
    def test_transposes_are_inverses(self, rng):
        comm = VirtualComm(4)
        d = SlabDecomposition(n=16, ranks=4)
        locals_ = [
            rng.standard_normal(d.local_spectral_shape()).astype(complex)
            for _ in range(4)
        ]
        there = transpose_exchange(comm, locals_, **TO_Y)
        assert all(t.shape == (16, 4, 9) for t in there)
        back = transpose_exchange(comm, there, **TO_KZ)
        for r in range(4):
            assert np.array_equal(back[r], locals_[r])

    def test_transpose_relocates_correct_elements(self):
        """Element (kz, y, x) on the owner of kz must land at the owner of y."""
        comm = VirtualComm(2)
        d = SlabDecomposition(n=4, ranks=2)
        full = np.arange(4 * 4 * 3, dtype=float).reshape(4, 4, 3)
        locals_ = d.scatter_spectral(full)
        moved = transpose_exchange(comm, locals_, **TO_Y)
        # After the transpose rank r owns y-slab r with full kz extent.
        for r in range(2):
            ys = d.physical_slice(r)
            assert np.array_equal(moved[r], full[:, ys, :])

    def test_single_rank_transpose_is_identity_reshape(self, rng):
        comm = VirtualComm(1)
        d = SlabDecomposition(n=8, ranks=1)
        loc = rng.standard_normal(d.local_spectral_shape())
        out = transpose_exchange(comm, [loc], **TO_Y)
        assert np.array_equal(out[0], loc)

    def test_exchange_records_traffic(self, rng):
        comm = VirtualComm(4)
        d = SlabDecomposition(n=16, ranks=4)
        locals_ = [np.zeros(d.local_spectral_shape(), dtype=np.complex128)] * 4
        transpose_exchange(comm, locals_, **TO_Y)
        rec = comm.stats.records[-1]
        assert rec.kind == "alltoall"
        # Each peer block: (mz, my, nxh) complex128.
        assert rec.p2p_bytes == 4 * 4 * 9 * 16

    def test_generic_exchange_axes(self, rng):
        comm = VirtualComm(2)
        locals_ = [rng.standard_normal((6, 4, 2)) for _ in range(2)]
        moved = transpose_exchange(comm, locals_, pack_axis=0, unpack_axis=1)
        assert all(m.shape == (3, 8, 2) for m in moved)
        back = transpose_exchange(comm, moved, pack_axis=1, unpack_axis=0)
        for r in range(2):
            assert np.array_equal(back[r], locals_[r])
