"""Tests for the distributed Navier-Stokes solver vs the serial ground truth."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.dist.dist_solver import DistributedNavierStokesSolver
from repro.dist.virtual_mpi import VirtualComm
from repro.spectral.grid import SpectralGrid
from repro.spectral.initial import random_isotropic_field, taylor_green_field
from repro.spectral.solver import NavierStokesSolver, SolverConfig


def pair(grid, u0, ranks, **cfg_kw):
    defaults = dict(nu=0.02, scheme="rk2", phase_shift=False, seed=11)
    defaults.update(cfg_kw)
    serial = NavierStokesSolver(grid, u0, SolverConfig(**defaults))
    dist = DistributedNavierStokesSolver(
        grid, VirtualComm(ranks), u0, SolverConfig(**defaults)
    )
    return serial, dist


class TestDistributedDiagnostics:
    def test_energy_matches_serial(self, grid24, rng):
        u0 = random_isotropic_field(grid24, rng, energy=0.5)
        serial, dist = pair(grid24, u0, ranks=4)
        from repro.spectral.diagnostics import dissipation_rate, kinetic_energy

        assert dist.kinetic_energy() == pytest.approx(
            kinetic_energy(serial.u_hat, grid24), rel=1e-12
        )
        assert dist.dissipation_rate() == pytest.approx(
            dissipation_rate(serial.u_hat, grid24, 0.02), rel=1e-12
        )

    def test_divergence_free_on_every_rank(self, grid24, rng):
        u0 = random_isotropic_field(grid24, rng, energy=0.5)
        _, dist = pair(grid24, u0, ranks=4)
        dist.step(0.005)
        kx, ky, kz = grid24.k_vectors
        for r, u in enumerate(dist.u_hat):
            kz_r = kz[dist.decomp.spectral_slice(r)]
            div = 1j * (kx * u[0] + ky * u[1] + kz_r * u[2])
            assert np.abs(div).max() < 1e-10


class TestDiagnosticsEvery:
    def test_skipped_steps_report_nan_like_the_serial_solver(self, grid16, rng):
        u0 = random_isotropic_field(grid16, rng, energy=0.5)
        serial, dist = pair(grid16, u0, ranks=2, diagnostics_every=3)
        for step in range(1, 7):
            rs, rd = serial.step(0.005), dist.step(0.005)
            if step % 3:
                assert math.isnan(rd.energy) and math.isnan(rd.dissipation)
                assert math.isnan(rs.energy)
            else:
                assert rd.energy == pytest.approx(rs.energy, rel=1e-12)
                assert rd.dissipation == pytest.approx(rs.dissipation, rel=1e-12)

    def test_zero_disables_and_skips_the_allreduce(self, grid16, rng):
        u0 = random_isotropic_field(grid16, rng, energy=0.5)
        _, dist = pair(grid16, u0, ranks=2, diagnostics_every=0)
        before = dist.comm.stats.count("allreduce")
        assert math.isnan(dist.step(0.005).energy)
        assert dist.comm.stats.count("allreduce") == before
        assert dist.kinetic_energy() > 0  # still there on demand


class TestRankFootprint:
    """Each rank's stages write every value the scheme still needs and
    nothing else: a right-hand side overwrites the stage state it is
    evaluated at, and a combination writes its sums over the inputs it has
    read.  RK2 keeps one state-shaped stage buffer (``r1``, then ``E (u +
    dt/2 r1)``) beside the state, which holds ``u*`` and then ``r2``; RK4
    keeps three (the stage state, ``k1`` and ``k2``, which turn into the
    running sums).  Beside them: the state and the product spectra."""

    @pytest.mark.parametrize("scheme,stages", [("rk2", 1), ("rk4", 3)])
    @pytest.mark.parametrize("npencils", [None, 4], ids=["slab", "ooc"])
    def test_stage_buffers_per_rank(self, grid24, rng, scheme, stages, npencils):
        u0 = random_isotropic_field(grid24, rng, energy=0.5)
        with DistributedNavierStokesSolver(
            grid24, VirtualComm(2), u0, SolverConfig(nu=0.02, scheme=scheme),
            npencils=npencils,
        ) as dist:
            dist.step(1e-3)
            held = {key: sum(b.nbytes for b in bufs)
                    for key, bufs in dist._buffers.items() if key != "spectra"}
            state = sum(s.nbytes for s in dist._state)
        assert len(held) == stages
        assert sum(held.values()) == stages * state


def _steady_step_growth(grid, rng, scheme, scalars, every=0, **engine):
    """tracemalloc peak growth of one RK step (a diagnostics step if
    ``every``) after two warm-up steps, and the bound it must stay under:
    one ring slot of the engine's pencils, and never a whole real slab."""
    from repro.cuda.arena import ring_bytes

    u0 = random_isotropic_field(grid, rng, energy=1.0)
    config = SolverConfig(nu=0.02, scheme=scheme, seed=11,
                          diagnostics_every=every)
    with DistributedNavierStokesSolver(
        grid, VirtualComm(2), u0, config, **engine,
    ) as dist:
        for _ in range(scalars):
            dist.add_scalar(u0[0], schmidt=1.0, mean_gradient=0.5)
        for _ in range(2):  # warm-up: every buffer claimed
            dist.step(1e-3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dist.step(1e-3)
            growth = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        fft = dist.fft
    pencil = max(ring_bytes(grid.n, grid.n // 2, fft.npencils, fft.inflight)[:2])
    slab = grid.n**3 // 2 * np.dtype(grid.dtype).itemsize
    return growth, min(pencil, slab)


class TestOutOfCoreStepAllocatesNoSlab:
    @pytest.mark.parametrize("scalars,pipeline,every", [
        pytest.param(scalars, pipeline, every, id=f"{scalars}-{pipeline}"
                     + ("-diagnostics" if every else ""))
        for scalars in (0, 1) for pipeline in ("sync", "threads")
        for every in (0, 1)
    ])
    def test_whole_step_transforms_included(self, rng, pipeline, scalars,
                                            every):
        """After warm-up a whole out-of-core RK2 step — transforms and the
        energy and dissipation sums included — claims no slab: results land
        in the solver's arrays, the exchange in the engine's send region and
        transposed slab, every stage kernel's into its ring slot, and the
        diagnostics sum block by block.  What is left is interpreter small
        change; 64^3 so that one pencil (288 KiB) stands clear of it and
        well under one slab (1056 KiB; the engine used to claim six per
        transform)."""
        growth, pencil = _steady_step_growth(
            SpectralGrid(64), rng, "rk2", scalars, every, npencils=4,
            pipeline=pipeline)
        assert growth < pencil, (
            f"a steady out-of-core step allocated {growth} B at its peak, "
            f">= one pencil ({pencil} B)"
        )

    @pytest.mark.parametrize("npencils,scheme,every", [
        pytest.param(None, "rk2", 0, id="None-rk2"),
        pytest.param(None, "rk4", 0, id="None-rk4"),
        pytest.param(4, "rk4", 0, id="4-rk4"),
        pytest.param(None, "rk2", 1, id="None-rk2-diagnostics")])
    def test_whole_slab_and_rk4(self, rng, npencils, scheme, every):
        """The same for the whole slab (``npencils`` unset: one pencil),
        where a pencil is a slab, and for RK4's four stages."""
        growth, bound = _steady_step_growth(
            SpectralGrid(64), rng, scheme, 0, every, npencils=npencils)
        assert growth < bound, (
            f"a steady {scheme} step allocated {growth} B at its peak, "
            f">= {bound} B"
        )


class TestWholeSlabFootprint:
    """What ``npencils`` unset costs in process, in words (8 bytes per grid
    point): the tracemalloc peak over construction and two RK2 steps at
    P = 2, 48^3.  One pencil holds the state and its stage buffer, the
    product spectra, and the engine's send region (6 fields, claimed once
    at the larger of a substage's two exchanges) and ring; the transposed
    slab lands in the right-hand side's buffer, dead until the assembly
    writes it.  That is 28.9 words inline and 34.1 on threads, where the
    window is capped at the phase's two items.  Four pencils, inline, hold
    20.4."""

    @pytest.mark.parametrize("pipeline,npencils,words", [
        pytest.param("sync", None, 30.0, id="sync-30.0"),
        pytest.param("threads", None, 36.0, id="threads-36.0"),
        pytest.param("sync", 4, 22.0, id="sync-4pencils-22.0")])
    def test_step_peak_words_per_point(self, rng, pipeline, npencils, words):
        grid = SpectralGrid(48)
        u0 = random_isotropic_field(grid, rng, energy=1.0)
        config = SolverConfig(nu=0.02, diagnostics_every=0)
        tracemalloc.start()
        try:
            with DistributedNavierStokesSolver(
                grid, VirtualComm(2), u0, config, pipeline=pipeline,
                npencils=npencils,
            ) as dist:
                for _ in range(2):
                    dist.step(1e-3)
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (grid.n**3 * 8) <= words


class TestTransposedSlabLanding:
    """Each substage's transposed slab lands in the right-hand side's
    buffer unless that buffer is the state and the state is still read:
    transformed unshifted (``phase_shift=False``'s last stages), or its
    u_y read by a scalar's mean-gradient term.  Those stages keep the
    engine's own slab; every stage steps bit-identically to the engine
    with no landing lent."""

    @pytest.mark.parametrize("npencils,heights", [
        pytest.param(None, None, id="1pencil"),
        pytest.param(4, None, id="4pencils"),
        # rank 0's arrays are empty: only rank 1's show the aliasing
        pytest.param(None, (0, 16), id="1pencil-heights0,16")])
    @pytest.mark.parametrize("scheme,shift,gradient,lent", [
        pytest.param("rk2", True, None, [True, True], id="rk2-shift"),
        pytest.param("rk4", True, None, [True] * 4, id="rk4-shift"),
        pytest.param("rk2", True, 0.0, [True, True], id="rk2-shift-S1"),
        pytest.param("rk2", True, 0.5, [True, False],
                     id="rk2-shift-S1-gradient"),
        pytest.param("rk4", True, 0.5, [True, True, False, False],
                     id="rk4-shift-S1-gradient"),
        pytest.param("rk2", False, None, [True, False], id="rk2-noshift"),
        pytest.param("rk4", False, None, [True, True, False, False],
                     id="rk4-noshift")])
    def test_which_stages_lend_and_that_nothing_moves(
        self, grid16, rng, monkeypatch, npencils, heights, scheme, shift,
        gradient, lent
    ):
        from repro.dist.outofcore import OutOfCoreSlabFFT

        u0 = random_isotropic_field(grid16, rng, energy=0.5)
        config = SolverConfig(nu=0.02, scheme=scheme, phase_shift=shift,
                              seed=11, diagnostics_every=0)
        calls = []
        product_spectra = OutOfCoreSlabFFT.product_spectra

        def run(lend: bool):
            def spy(self, *args, land=None, **kw):
                calls.append(land is not None)
                return product_spectra(self, *args,
                                       land=land if lend else None, **kw)

            monkeypatch.setattr(OutOfCoreSlabFFT, "product_spectra", spy)
            with DistributedNavierStokesSolver(
                grid16, VirtualComm(2), u0, config, npencils=npencils,
                heights=heights,
            ) as dist:
                if gradient is not None:
                    dist.add_scalar(u0[1], mean_gradient=gradient)
                for _ in range(2):
                    dist.step(1e-3)
                return dist._state, bool(dist.fft._transposed)

        state, claimed = run(lend=True)
        assert calls == lent * 2
        assert claimed == (not all(lent))
        want, _ = run(lend=False)
        for a, b in zip(state, want):
            assert np.array_equal(a, b)


class TestCommunicationCounts:
    def test_alltoalls_per_rk2_step(self, grid24, rng):
        """The whole slab is one pencil: the 3 inverse + 6 forward
        transforms of a substage cross in one exchange per direction, 2
        substages: 4 exchanges per RK2 step."""
        u0 = random_isotropic_field(grid24, rng, energy=0.5)
        _, dist = pair(grid24, u0, ranks=4)
        before = dist.comm.stats.count("ialltoall")
        dist.step(0.005)
        assert dist.comm.stats.count("ialltoall") - before == 4

    def test_alltoalls_per_rk4_step(self, grid24, rng):
        u0 = random_isotropic_field(grid24, rng, energy=0.5)
        _, dist = pair(grid24, u0, ranks=2, scheme="rk4")
        before = dist.comm.stats.count("ialltoall")
        dist.step(0.005)
        assert dist.comm.stats.count("ialltoall") - before == 8

    @pytest.mark.parametrize("scalars", [0, 1])
    @pytest.mark.parametrize("scheme,substages", [("rk2", 2), ("rk4", 4)])
    def test_out_of_core_substage_is_three_pipelines_and_two_exchanges(
        self, grid24, rng, monkeypatch, scalars, scheme, substages
    ):
        """Out of core, a substage is three drained pipelines behind two
        exchanges whatever the field count — 6 and 4 per RK2 step where a
        transform at a time takes 36 and 18 — and the exchanges carry the
        bytes of every field's transform."""
        from repro.exec.pipeline import PencilPipeline

        runs = []
        run = PencilPipeline.run
        monkeypatch.setattr(PencilPipeline, "run",
                            lambda self, n: (runs.append(n), run(self, n)))
        u0 = random_isotropic_field(grid24, rng, energy=0.5)
        config = SolverConfig(nu=0.02, scheme=scheme, seed=11,
                              diagnostics_every=0)
        with DistributedNavierStokesSolver(
            grid24, VirtualComm(2), u0, config, npencils=4
        ) as dist:
            for _ in range(scalars):
                dist.add_scalar(u0[0], mean_gradient=0.5)
            dist.step(0.005)
            runs.clear()
            before = len(dist.comm.stats.records)
            dist.step(0.005)
            records = dist.comm.stats.records[before:]
        fields = 9 + 4 * scalars  # inverse + forward transforms per substage
        assert len(runs) == 3 * substages
        assert [r.kind for r in records] == ["ialltoall"] * 2 * substages * 4
        assert sum(r.total_bytes for r in records) == (
            substages * fields * 24 * 24 * 13 * 16)

    def test_exchange_volume_matches_costmodel(self, grid24, rng):
        """The functional layer's measured P2P bytes equal the analytic
        bookkeeping used by the performance model — the cross-check tying
        the two halves of the reproduction together."""
        from repro.mpi.costmodel import alltoall_p2p_bytes

        u0 = random_isotropic_field(grid24, rng, energy=0.5)
        _, dist = pair(grid24, u0, ranks=4)
        dist.step(0.005)
        rec = [r for r in dist.comm.stats.records if r.kind == "ialltoall"][-1]
        # The step's last exchange carries the six product spectra of one
        # pencil (the whole slab) in complex128; per peer and per variable
        # one transform moves (N/P) * (N/P) * (N/2+1) complex:
        n = 24
        expected = (n // 4) * (n // 4) * (n // 2 + 1) * 16  # (mz, my, nxh) c128
        assert rec.p2p_bytes == 6 * expected

    def test_validation_of_initial_condition(self, grid16):
        with pytest.raises(ValueError):
            DistributedNavierStokesSolver(
                grid16, VirtualComm(2), np.zeros((3, 8, 8, 5), dtype=complex)
            )

    def test_rejects_nonpositive_dt(self, grid16):
        _, dist = pair(grid16, taylor_green_field(grid16), ranks=2)
        with pytest.raises(ValueError):
            dist.step(-0.01)
