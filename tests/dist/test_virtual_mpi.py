"""Tests for the in-process virtual MPI collectives."""

import numpy as np
import pytest

from repro.dist.virtual_mpi import VirtualComm


class TestAlltoall:
    def test_block_routing(self):
        comm = VirtualComm(3)
        send = [
            [np.full(2, 10 * r + s) for s in range(3)] for r in range(3)
        ]
        recv = comm.alltoall(send)
        for s in range(3):
            for r in range(3):
                assert np.all(recv[s][r] == 10 * r + s)

    def test_alltoall_is_an_involution(self):
        """Exchanging twice returns every block to its origin."""
        rng = np.random.default_rng(0)
        comm = VirtualComm(4)
        send = [[rng.standard_normal(5) for _ in range(4)] for _ in range(4)]
        back = comm.alltoall(comm.alltoall(send))
        for r in range(4):
            for s in range(4):
                assert np.array_equal(back[r][s], send[r][s])

    def test_copies_do_not_alias(self):
        comm = VirtualComm(2)
        send = [[np.zeros(3) for _ in range(2)] for _ in range(2)]
        recv = comm.alltoall(send)
        recv[0][0][:] = 99.0
        assert np.all(send[0][0] == 0.0)

    def test_wrong_rank_count_rejected(self):
        comm = VirtualComm(3)
        with pytest.raises(ValueError):
            comm.alltoall([[np.zeros(1)] * 3] * 2)
        with pytest.raises(ValueError):
            comm.alltoall([[np.zeros(1)] * 2] * 3)

    def test_stats_recorded(self):
        comm = VirtualComm(2)
        send = [[np.zeros(4, dtype=np.float32) for _ in range(2)] for _ in range(2)]
        comm.alltoall(send)
        assert comm.stats.count("alltoall") == 1
        rec = comm.stats.records[0]
        assert rec.p2p_bytes == 16
        assert rec.total_bytes == 64


class TestOtherCollectives:
    def test_allreduce_sum_default(self):
        comm = VirtualComm(4)
        assert comm.allreduce([1, 2, 3, 4]) == [10, 10, 10, 10]

    def test_allreduce_arrays(self):
        comm = VirtualComm(2)
        out = comm.allreduce([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        assert np.allclose(out[0], [4.0, 6.0])

    def test_size_validation(self):
        with pytest.raises(ValueError):
            VirtualComm(0)


class TestAliasingContract:
    """Collectives must hand every rank an *independent* result.

    The historical implementation returned the same object to all ranks
    (``[acc] * size``) — an in-place edit on one rank silently mutated the
    others, semantics no real MPI has and exactly the class of bug the
    process-pool backend surfaces as a virtual-vs-procs mismatch.
    """

    def test_allreduce_results_do_not_alias(self):
        comm = VirtualComm(3)
        out = comm.allreduce([np.ones(2), np.ones(2), np.ones(2)])
        out[0][:] = -1.0
        assert np.all(out[1] == 3.0)
        assert np.all(out[2] == 3.0)

    def test_allreduce_result_does_not_alias_inputs(self):
        comm = VirtualComm(2)
        a, b = np.ones(2), np.ones(2)
        out = comm.allreduce([a, b])
        out[0][:] = 50.0
        assert np.all(a == 1.0) and np.all(b == 1.0)


class TestByteAccounting:
    """Per-peer sizes must be recorded truthfully, not from send[0][0]."""

    def test_uneven_blocks_recorded_min_max(self):
        comm = VirtualComm(2)
        send = [
            [np.zeros(1, dtype=np.float64), np.zeros(4, dtype=np.float64)],
            [np.zeros(2, dtype=np.float64), np.zeros(8, dtype=np.float64)],
        ]
        comm.alltoall(send)
        rec = comm.stats.records[-1]
        assert rec.p2p_min_bytes == 8
        assert rec.p2p_max_bytes == 64
        assert rec.p2p_bytes == 64  # largest message, not send[0][0] (=8)
        assert rec.total_bytes == 8 + 32 + 16 + 64
        assert rec.messages == 4
        assert not rec.uniform

    def test_uniform_blocks_stay_uniform(self):
        comm = VirtualComm(2)
        send = [[np.zeros(4, dtype=np.float32)] * 2 for _ in range(2)]
        comm.alltoall(send)
        rec = comm.stats.records[-1]
        assert rec.uniform
        assert rec.p2p_min_bytes == rec.p2p_max_bytes == rec.p2p_bytes == 16

    @pytest.mark.parametrize("n,P,npencils,nv,q", [
        (16, 4, 2, 3, 2), (24, 2, 3, 3, 1), (32, 4, 4, 6, 4),
    ])
    def test_matches_costmodel_p2p_bytes(self, n, P, npencils, nv, q):
        """The functional layer's accounting equals the analytic model's.

        Blocks shaped (nv, q, n/np, n/P, n/P) in float32 are exactly one
        peer message of the paper's batched exchange, so the recorded
        per-peer size must equal ``alltoall_p2p_bytes`` with no slack.
        """
        from repro.mpi.costmodel import alltoall_p2p_bytes

        comm = VirtualComm(P)
        block = np.zeros(
            (nv, q, n // npencils, n // P, n // P), dtype=np.float32
        )
        comm.alltoall([[block] * P for _ in range(P)])
        rec = comm.stats.records[-1]
        model = alltoall_p2p_bytes(n, P, npencils, nv=nv, q=q, wordsize=4)
        assert rec.p2p_bytes == model
        assert rec.p2p_min_bytes == rec.p2p_max_bytes == model
        assert rec.total_bytes == P * P * model
        assert rec.messages == P * P


class TestReceiveWindows:
    """``ialltoall(send, recv=windows)``: blocks land in the caller's memory."""

    @staticmethod
    def _case(P=3, seed=0):
        rng = np.random.default_rng(seed)
        send = [[rng.standard_normal((2, r + 1, s + 2)) for s in range(P)]
                for r in range(P)]
        # Rank s's windows: strided views of one array it owns, block r at
        # rows [2r, 2r + 2) of the columns its blocks' shapes select.
        slabs = [np.full((2 * P, P + 1, s + 2), np.nan) for s in range(P)]
        recv = [[slabs[s][2 * r:2 * r + 2, :r + 1] for r in range(P)]
                for s in range(P)]
        return send, slabs, recv

    def test_arrays_land_where_the_allocating_form_returns_them(self):
        send, slabs, recv = self._case()
        comm = VirtualComm(3)
        expect = comm.ialltoall(send).wait()
        got = comm.ialltoall(send, recv=recv).wait()
        assert got is recv
        for s in range(3):
            for r in range(3):
                assert np.array_equal(recv[s][r], expect[s][r])
            assert np.isnan(slabs[s]).sum() == sum(
                2 * (3 - r) * (s + 2) for r in range(3)  # untouched columns
            )
        assert comm.stats.records[0] == comm.stats.records[1]

    def test_bad_windows_rejected_before_any_byte_moves(self):
        comm = VirtualComm(3)
        for spoil, match in [
            (lambda recv, send: recv.pop(), "per-rank entries"),
            (lambda recv, send: recv[1].pop(), "blocks, expected 3"),
            (lambda recv, send: recv[2].__setitem__(
                0, np.empty((2, 1, 5))), r"receive window for rank 0 is"),
            (lambda recv, send: recv[2].__setitem__(
                0, np.empty((2, 1, 4), np.float32)), "float32"),
            (lambda recv, send: recv[0].__setitem__(
                1, send[2][1][:, :2, :2]), "overlaps a send block"),
        ]:
            send, slabs, recv = self._case()
            spoil(recv, send)
            with pytest.raises(ValueError, match=match):
                comm.ialltoall(send, recv=recv)
            assert all(np.isnan(slab).all() for slab in slabs)
        assert comm.stats.records == []

    def test_dropped_chunk_leaves_windows_untouched_and_reposts(self):
        from repro.dist.virtual_mpi import TransientCommFault
        from repro.verify.faults import CommFaultPlan

        send, slabs, recv = self._case()
        comm = VirtualComm(3)
        comm.fault_injector = CommFaultPlan(seed=0, drop_rate=1.0,
                                            max_consecutive=1)
        with pytest.raises(TransientCommFault) as fault:
            comm.ialltoall(send, recv=recv).wait()
        assert fault.value.dropped
        assert all(np.isnan(slab).all() for slab in slabs)
        comm.ialltoall(send, recv=recv).wait()  # the re-post, same bytes
        clean = self._case()
        VirtualComm(3).ialltoall(clean[0], recv=clean[2]).wait()
        for slab, expect in zip(slabs, clean[1]):
            assert np.array_equal(slab, expect, equal_nan=True)

    def test_retries_exhausted_still_raises(self):
        from repro.dist.virtual_mpi import TransientCommFault
        from repro.verify.faults import CommFaultPlan

        send, slabs, recv = self._case()
        comm = VirtualComm(3)
        comm.fault_injector = CommFaultPlan(seed=0, late_rate=1.0,
                                            max_consecutive=10)
        handle = comm.ialltoall(send, recv=recv)
        for _ in range(4):
            with pytest.raises(TransientCommFault):
                handle.wait()
        assert not handle.complete
        assert all(np.isnan(slab).all() for slab in slabs)
