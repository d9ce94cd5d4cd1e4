"""Tests for the functional out-of-core (pencil-batched) slab FFT."""

import numpy as np
import pytest

from repro.cuda.copyengine import Batched2DEngine
from repro.dist.dist_solver import DistributedNavierStokesSolver
from repro.cuda.arena import DeviceMemoryExceeded
from repro.dist.outofcore import OutOfCoreSlabFFT
from repro.dist.virtual_mpi import EXCHANGE_ATTEMPTS, TransientCommFault, VirtualComm
from repro.obs import Observability
from repro.spectral import random_isotropic_field
from repro.spectral.grid import SpectralGrid
from repro.spectral.pointwise import PRODUCT_PAIRS
from repro.spectral.solver import SolverConfig
from repro.spectral.transforms import fft3d
from repro.spectral.workspace import NumpyFFT


class TestOutOfCoreFFT:
    def test_matches_in_core_forward(self, rng):
        grid = SpectralGrid(24)
        u = rng.standard_normal(grid.physical_shape)
        in_core = OutOfCoreSlabFFT(grid, VirtualComm(4), npencils=1)
        ooc = OutOfCoreSlabFFT(grid, VirtualComm(4), npencils=3)
        ref = in_core.decomp.gather_spectral(
            in_core.forward(in_core.decomp.scatter_physical(u))
        )
        got = ooc.decomp.gather_spectral(
            ooc.forward(ooc.decomp.scatter_physical(u))
        )
        assert np.allclose(got, ref, atol=1e-13)

    def test_matches_in_core_inverse(self, rng):
        grid = SpectralGrid(24)
        u_hat = fft3d(rng.standard_normal(grid.physical_shape), grid)
        in_core = OutOfCoreSlabFFT(grid, VirtualComm(2), npencils=1)
        ooc = OutOfCoreSlabFFT(grid, VirtualComm(2), npencils=4)
        ref = in_core.decomp.gather_physical(
            in_core.inverse(in_core.decomp.scatter_spectral(u_hat))
        )
        got = ooc.decomp.gather_physical(
            ooc.inverse(ooc.decomp.scatter_spectral(u_hat))
        )
        assert np.allclose(got, ref, atol=1e-12)

    def test_roundtrip(self, rng):
        grid = SpectralGrid(16)
        u = rng.standard_normal(grid.physical_shape)
        ooc = OutOfCoreSlabFFT(grid, VirtualComm(4), npencils=2)
        back = ooc.decomp.gather_physical(
            ooc.inverse(ooc.forward(ooc.decomp.scatter_physical(u)))
        )
        assert np.allclose(back, u, atol=1e-12)

    def test_working_set_is_pencil_sized(self, rng):
        """The whole point of the batching: the device high-water mark stays
        ~2 pencils no matter how big the slab is."""
        grid = SpectralGrid(24)
        u = rng.standard_normal(grid.physical_shape)
        ooc = OutOfCoreSlabFFT(grid, VirtualComm(2), npencils=3)
        ooc.forward(ooc.decomp.scatter_physical(u))
        slab_bytes = (
            ooc.decomp.mz * 24 * 13 * np.dtype(grid.cdtype).itemsize
        )
        # High-water <= 2 (uneven) pencils, strictly less than the slab.
        assert ooc.arena.high_water <= 2.5 * slab_bytes / 3
        assert ooc.arena.high_water < slab_bytes
        assert ooc.arena.in_use == ooc.rings.nbytes  # the ring stays claimed
        ooc.close()
        assert ooc.arena.in_use == 0

    def test_whole_slab_does_not_fit_without_batching(self, rng):
        """With np=1 the 'slab' pencil exceeds a pencil-sized arena: the
        paper's motivating failure, reproduced as a real exception."""
        grid = SpectralGrid(24)
        u = rng.standard_normal(grid.physical_shape)
        small = OutOfCoreSlabFFT(grid, VirtualComm(2), npencils=3)
        budget = small.arena.capacity
        whole = OutOfCoreSlabFFT(
            grid, VirtualComm(2), npencils=1, device_bytes=budget
        )
        with pytest.raises(DeviceMemoryExceeded):
            whole.forward(whole.decomp.scatter_physical(u))

    def test_more_pencils_lower_high_water(self, rng):
        grid = SpectralGrid(24)
        u = rng.standard_normal(grid.physical_shape)
        marks = {}
        for np_ in (2, 4):
            ooc = OutOfCoreSlabFFT(
                grid, VirtualComm(2), npencils=np_, device_bytes=1e9
            )
            ooc.forward(ooc.decomp.scatter_physical(u))
            marks[np_] = ooc.arena.high_water
        assert marks[4] < marks[2]

    def test_invalid_npencils_rejected(self):
        grid = SpectralGrid(16)
        with pytest.raises(ValueError):
            OutOfCoreSlabFFT(grid, VirtualComm(2), npencils=5)


def _counted(name):
    def method(self, a, *args, **kwargs):
        self.elements[name] += a.size
        return getattr(NumpyFFT, name)(self, a, *args, **kwargs)

    return method


class _CountingLines(NumpyFFT):
    """NumPy line transforms that tally the elements each method is fed
    (``out=`` / ``norm=`` ride along in ``kwargs``)."""

    def __init__(self):
        self.elements = {"fft": 0, "ifft": 0, "rfft": 0, "irfft": 0}

    fft, ifft = _counted("fft"), _counted("ifft")
    rfft, irfft = _counted("rfft"), _counted("irfft")


class TestFftBackendIsHonoured:
    """``SolverConfig.fft_backend`` reaches the out-of-core engine too."""

    def test_out_of_core_transforms_go_through_the_provider(self, rng):
        grid = SpectralGrid(16)
        u0 = random_isotropic_field(grid, rng, energy=1.0)
        fed = {}
        for engine, kwargs in (("slab", {}), ("ooc", {"npencils": 4})):
            lines = _CountingLines()
            with DistributedNavierStokesSolver(
                grid, VirtualComm(2), u0,
                SolverConfig(nu=0.02, fft_backend=lines), **kwargs,
            ) as solver:
                solver.step(1e-3)
            fed[engine] = lines.elements
        assert all(count > 0 for count in fed["slab"].values())
        assert fed["ooc"] == fed["slab"]

    @pytest.mark.parametrize("npencils", [None, 4])
    def test_unavailable_backend_is_rejected_at_construction(self, npencils, rng):
        grid = SpectralGrid(16)
        with pytest.raises(ValueError, match="unknown FFT backend 'fftw'"):
            DistributedNavierStokesSolver(
                grid, VirtualComm(2), random_isotropic_field(grid, rng),
                SolverConfig(fft_backend="fftw"), npencils=npencils,
            )


def _spectral_locals(fft, rng):
    d, P = fft.decomp, fft.comm.size
    return [
        (rng.standard_normal(d.local_spectral_shape(r))
         + 1j * rng.standard_normal(d.local_spectral_shape(r)))
        for r in range(P)
    ]


#: 24^3 decompositions: even and uneven, one with a zero-height rank.
DECOMPOSITIONS = [(2, None), (2, (17, 7)), (3, None), (3, (10, 0, 14))]


class TestThreePasses:
    """A byte crosses host memory three times per transpose: D2H into the
    send blocks, the all-to-all into the transposed slab, H2D out of it."""

    @pytest.mark.parametrize("P,heights", DECOMPOSITIONS)
    def test_bytes_and_collectives_per_transform(self, P, heights, rng):
        n, npencils, nxh = 24, 4, 13
        grid, comm, obs = SpectralGrid(n), VirtualComm(P), Observability.create()
        hs = heights or (n // P,) * P
        cpx, real = n * n * nxh * 16, n**3 * 8

        def cut(extent):
            edges = np.linspace(0, extent, npencils + 1).astype(int)
            return list(np.diff(edges))

        # Block r -> s of pencil ip: the inverse splits each source rank's
        # own kz extent, the forward its own y extent.
        expected = {
            "inverse": (2 * cpx, cpx + real, [
                [cut(hs[r])[ip] * hs[s] * nxh * 16
                 for r in range(P) for s in range(P)]
                for ip in range(npencils)]),
            "forward": (real + cpx, 2 * cpx, [
                [hs[s] * cut(hs[r])[ip] * nxh * 16
                 for r in range(P) for s in range(P)]
                for ip in range(npencils)]),
        }
        counter = lambda name: obs.metrics.counter(name).value  # noqa: E731
        with OutOfCoreSlabFFT(
            grid, comm, npencils, obs=obs, heights=heights
        ) as fft:
            data = _spectral_locals(fft, rng)
            for name in ("inverse", "forward"):
                names = ("arena.h2d_bytes", "arena.d2h_bytes",
                         "transpose.bytes_moved", "copy.memcpy2d.h2d_bytes",
                         "copy.memcpy2d.d2h_bytes")
                before = [counter(c) for c in names]
                nrec, nspan = len(comm.stats.records), len(obs.spans.activities)
                data = getattr(fft, name)(data)
                h2d, d2h, blocks = expected[name]
                moved = [counter(c) - b for c, b in zip(names, before)]
                assert moved == [h2d, d2h, cpx, h2d, d2h]
                assert [
                    (r.kind, r.total_bytes, r.p2p_bytes, r.ranks,
                     r.p2p_min_bytes, r.p2p_max_bytes, r.messages)
                    for r in comm.stats.records[nrec:]
                ] == [
                    ("ialltoall", sum(b), max(b), P, min(b), max(b), P * P)
                    for b in blocks
                ]
                spans = obs.spans.activities[nspan:]
                assert sum(a.meta["nbytes"] for a in spans
                           if a.name == "arena.h2d") == h2d
                assert sum(a.meta["nbytes"] for a in spans
                           if a.name == "arena.d2h") == d2h
                assert not [a for a in spans if a.category == "pack"]

    @pytest.mark.parametrize("heights", [None, (13, 11)],
                             ids=["even", "uneven"])
    def test_y_stage_pencils_copy_whole_runs(self, heights, rng, monkeypatch):
        """The y stages cut each rank's own kz extent: phases 1 and 3 of a
        substage load and store a pencil as one run per field, and the
        pack's runs are one peer's ``h_s * nxh`` y-planes."""
        from repro.cuda.copyengine import ChunkLayout, _drop_unit_lead

        n, P, npencils, nxh = 24, 2, 4, 13
        with OutOfCoreSlabFFT(SpectralGrid(n), VirtualComm(P), npencils,
                              heights=heights) as fft:
            hs, engine = fft.decomp.rank_heights, fft._copy_engine
            phases, copies = [], []

            def record(direction):
                copy = getattr(engine, direction)

                def recorded(dst, src, spans=None):
                    layout = ChunkLayout.of(*_drop_unit_lead(dst, src))
                    copies.append((len(phases), direction, layout))
                    copy(dst, src, spans=spans)
                return recorded

            def phase(*args, **kwargs):
                phases.append(args[0])
                run_phase(*args, **kwargs)

            for direction in ("h2d", "d2h"):
                monkeypatch.setattr(engine, direction, record(direction))
            run_phase = fft._phase
            monkeypatch.setattr(fft, "_phase", phase)
            coeffs = [np.stack([a] * 3) for a in _spectral_locals(fft, rng)]
            fft.product_spectra(coeffs, PRODUCT_PAIRS)
        assert phases == ["kz", "y", "kz"]
        for number, fields in ((1, 3), (3, len(PRODUCT_PAIRS))):
            loads = [c for p, d, c in copies if p == number and d == "h2d"]
            stores = [c for p, d, c in copies if p == number and d == "d2h"]
            assert len(loads) == npencils * P
            assert all(c.nchunks <= fields for c in loads)
            if number == 3:
                assert len(stores) == npencils * P
                assert all(c.nchunks <= fields for c in stores)
            else:  # the pack: one copy per (item, peer)
                assert len(stores) == npencils * P * P
                assert {c.chunk_elems for c in stores} == {h * nxh for h in hs}

    @pytest.mark.parametrize("heights,columns", [(None, 4), ((5, 3), 7)],
                             ids=["even", "uneven"])
    def test_a_pencil_empty_on_every_rank_posts_no_collective(
        self, heights, columns, rng
    ):
        """Eight pencils of 4-plane slabs: half the cuts are empty on every
        rank and are dropped, one collective per remaining pencil column.
        Heights (5, 3) keep the columns empty on one rank only (7 of 8)."""
        grid, comm = SpectralGrid(8), VirtualComm(2)
        u = rng.standard_normal(grid.physical_shape)
        with OutOfCoreSlabFFT(grid, comm, 8, heights=heights) as fft:
            d = fft.decomp
            back = d.gather_physical(
                fft.inverse(fft.forward(d.scatter_physical(u))))
        assert np.allclose(back, u, atol=1e-12)
        records = comm.stats.records
        assert len(records) == 2 * columns
        assert all(r.kind == "ialltoall" and r.total_bytes > 0
                   for r in records)

    def test_exhausted_retries_still_raise(self, rng):
        from repro.verify.faults import CommFaultPlan

        comm = VirtualComm(2)
        comm.fault_injector = CommFaultPlan(
            seed=0, drop_rate=1.0, max_consecutive=10
        )
        with OutOfCoreSlabFFT(SpectralGrid(16), comm, 4) as fft:
            with pytest.raises(TransientCommFault):
                fft.inverse(_spectral_locals(fft, rng))
            assert fft.arena.in_use == fft.rings.nbytes
        assert fft.arena.in_use == 0
        # The post and every re-post of the budget.
        assert comm.fault_injector.dropped == EXCHANGE_ATTEMPTS


class _CountingEngine(Batched2DEngine):
    priced = 0

    def price(self, layout):
        self.priced += 1
        return super().price(layout)


class TestCopiesArePricedOnlyForARecordedSpan:
    def test_disabled_obs_never_runs_the_cost_model(self, rng):
        with OutOfCoreSlabFFT(SpectralGrid(16), VirtualComm(2), 4) as fft:
            fft._copy_engine = _CountingEngine()
            fft.forward(fft.inverse(_spectral_locals(fft, rng)))
            assert fft._copy_engine.priced == 0

    def test_enabled_obs_prices_every_copy_span(self, rng):
        obs = Observability.create()
        with OutOfCoreSlabFFT(
            SpectralGrid(16), VirtualComm(2), 4, obs=obs
        ) as fft:
            fft._copy_engine = _CountingEngine(obs=obs)
            fft.forward(fft.inverse(_spectral_locals(fft, rng)))
            copies = [a for a in obs.spans.activities
                      if a.name in ("arena.h2d", "arena.d2h")]
            assert len(copies) == fft._copy_engine.priced > 0
            for a in copies:
                assert a.meta["engine"] == "memcpy2d"
                assert a.meta["nbytes"] > 0 and a.meta["model_cost"] > 0


class TestCallerOwnedResults:
    """``inverse(locals, out=)`` / ``forward(locals, out=)`` in pencils
    and on the whole slab (one pencil)."""

    @staticmethod
    def _engine(kind, P, heights):
        npencils = 4 if kind == "ooc" else 1
        return OutOfCoreSlabFFT(SpectralGrid(24), VirtualComm(P), npencils,
                                heights=heights)

    @pytest.mark.parametrize("kind", ["ooc", "slab"])
    @pytest.mark.parametrize("P,heights", DECOMPOSITIONS)
    def test_out_is_filled_and_equals_the_allocating_form(
        self, kind, P, heights, rng
    ):
        fft = self._engine(kind, P, heights)
        d = fft.decomp
        spec = _spectral_locals(fft, rng)
        phys = fft.inverse(spec)
        into = [np.full(d.local_physical_shape(r), np.nan) for r in range(P)]
        got = fft.inverse(spec, out=into)
        assert all(g is o for g, o in zip(got, into))
        assert all(np.array_equal(g, e) for g, e in zip(got, phys))
        back = fft.forward(phys)
        into = [np.full(d.local_spectral_shape(r), np.nan, dtype=complex)
                for r in range(P)]
        got = fft.forward(phys, out=into)
        assert all(g is o for g, o in zip(got, into))
        assert all(np.array_equal(g, e) for g, e in zip(got, back))

    @pytest.mark.parametrize("kind", ["ooc", "slab"])
    def test_bad_out_is_a_reasoned_error_naming_the_rank(self, kind, rng):
        fft = self._engine(kind, 2, None)
        spec = _spectral_locals(fft, rng)
        good = [np.empty((24, 12, 24)) for _ in range(2)]
        with pytest.raises(ValueError, match="rank 1: expected"):
            fft.inverse(spec, out=[good[0], np.empty((24, 11, 24))])
        with pytest.raises(ValueError, match="rank 1: expected dtype float64"):
            fft.inverse(spec, out=[good[0], np.empty((24, 12, 24), np.float32)])
        with pytest.raises(ValueError, match="expected 2 local pieces, got 1"):
            fft.inverse(spec, out=good[:1])
        with pytest.raises(ValueError, match="rank 0: expected dtype complex128"):
            fft.forward(good, out=[np.empty((12, 24, 13)) for _ in range(2)])

    @pytest.mark.parametrize("kind", ["ooc", "slab"])
    def test_without_out_results_are_independent_arrays(self, kind, rng):
        fft = self._engine(kind, 2, None)
        first = fft.inverse(_spectral_locals(fft, rng))
        kept = [a.copy() for a in first]
        second = fft.inverse(_spectral_locals(fft, rng))
        assert not any(np.shares_memory(a, b) for a in first for b in second)
        assert all(np.array_equal(a, k) for a, k in zip(first, kept))


def _fields(fft, nfields, rng):
    """Per rank, ``nfields`` random spectral slabs ``[field, kz, y, x]``."""
    per_field = [_spectral_locals(fft, rng) for _ in range(nfields)]
    return [np.stack(f) for f in zip(*per_field)]


#: The velocity products and one scalar's fluxes (field 3).
SCALAR_PAIRS = PRODUCT_PAIRS + ((0, 3), (1, 3), (2, 3))


class TestProductSpectra:
    """The paper's substage: field spectra in, product spectra out, in three
    pipelines and two exchanges whatever the field count."""

    @pytest.mark.parametrize("pipeline", ["sync", "threads"])
    @pytest.mark.parametrize("P,heights", DECOMPOSITIONS)
    def test_bit_equal_to_field_by_field_transforms(
        self, P, heights, pipeline, rng
    ):
        grid = SpectralGrid(24)
        # The whole slab, one pencil inline: the bit-exact reference.
        slab = OutOfCoreSlabFFT(grid, VirtualComm(P), 1, heights=heights)
        coeffs = _fields(slab, 4, rng)
        phys = [slab.inverse([c[f] for c in coeffs]) for f in range(4)]
        want = [
            np.stack(p) for p in zip(*(
                slab.forward([u * v for u, v in zip(phys[i], phys[j])])
                for i, j in SCALAR_PAIRS))
        ]
        got_slab = slab.product_spectra(coeffs, SCALAR_PAIRS)
        with OutOfCoreSlabFFT(grid, VirtualComm(P), 4, heights=heights,
                              pipeline=pipeline) as fft:
            # out shares memory with coeffs, as the solver's shifted fields do
            spectra = [np.empty((len(SCALAR_PAIRS), *c.shape[1:]), c.dtype)
                       for c in coeffs]
            for s, c in zip(spectra, coeffs):
                s[:4] = c
            got = fft.product_spectra([s[:4] for s in spectra], SCALAR_PAIRS,
                                      out=spectra)
            assert fft.arena.in_use == fft.rings.nbytes
        assert fft.arena.in_use == 0
        assert all(g is s for g, s in zip(got, spectra))
        for w, g, gs in zip(want, got, got_slab):
            assert np.array_equal(g, w) and np.array_equal(gs, w)

    @pytest.mark.parametrize("fields", [3, 4], ids=["S0", "S1"])
    @pytest.mark.parametrize("heights", [None, (17, 7)],
                             ids=["even", "uneven"])
    @pytest.mark.parametrize("npencils", [1, 4])
    @pytest.mark.parametrize("pipeline", ["sync", "threads"])
    def test_a_lent_landing_is_bit_equal_to_the_engines_slab(
        self, pipeline, npencils, heights, fields, rng
    ):
        """Phase 1's y-slabs land at the head of a caller's buffer shaped
        like the coefficients (a kz-slab holds as many elements as a
        y-slab): the same bits, and the engine claims no slab of its own."""
        grid = SpectralGrid(24)
        pairs = SCALAR_PAIRS[:3 * fields - 3]

        def engine():
            return OutOfCoreSlabFFT(grid, VirtualComm(2), npencils,
                                    heights=heights, pipeline=pipeline)

        with engine() as fft:
            coeffs = _fields(fft, fields, rng)
            want = fft.product_spectra(coeffs, pairs)
            assert fft._transposed
        land = [np.full_like(c, np.nan) for c in coeffs]
        with engine() as fft:
            got = fft.product_spectra(coeffs, pairs, land=land)
            assert fft._transposed == []
        assert all(map(np.array_equal, got, want))
        assert not any(np.isnan(a).any() for a in land)  # it landed there

    def test_a_landing_without_room_is_refused(self, rng):
        with OutOfCoreSlabFFT(SpectralGrid(16), VirtualComm(2), 4) as fft:
            coeffs = _fields(fft, 3, rng)
            for land, match in (
                ([c[:2] for c in coeffs], "cannot reshape"),  # two fields
                ([c[:, :, ::2] for c in _fields(fft, 6, rng)], "contiguous"),
                ([c.real.copy() for c in coeffs], "contiguous complex128")):
                with pytest.raises(ValueError, match=match):
                    fft.product_spectra(coeffs, PRODUCT_PAIRS, land=land)

    @pytest.mark.parametrize("P,heights", DECOMPOSITIONS)
    def test_three_pipelines_two_exchanges_and_the_bytes_they_move(
        self, P, heights, rng
    ):
        """Per substage of C fields into M products: C + M fields cross the
        exchanges (what C inverse and M forward transforms move), but the
        host sees (2C + M) complex fields in and (C + 2M) out, and no real
        field: the physical-space products never leave the device."""
        n, npencils, nxh, C = 24, 4, 13, 4
        M = len(SCALAR_PAIRS)
        grid, comm, obs = SpectralGrid(n), VirtualComm(P), Observability.create()
        cpx = n * n * nxh * 16
        counter = lambda name: obs.metrics.counter(name).value  # noqa: E731
        names = ("arena.h2d_bytes", "arena.d2h_bytes", "transpose.bytes_moved",
                 "transpose.count")
        with OutOfCoreSlabFFT(grid, comm, npencils, obs=obs,
                              heights=heights) as fft:
            coeffs = _fields(fft, C, rng)
            runs = []
            run = fft._run
            fft._run = lambda stages, nitems: (runs.append(nitems),
                                               run(stages, nitems))
            fft.product_spectra(coeffs, SCALAR_PAIRS)
        assert [counter(c) for c in names] == [
            (2 * C + M) * cpx, (C + 2 * M) * cpx, (C + M) * cpx, 2]
        assert len(runs) == 3
        records = comm.stats.records
        assert [r.kind for r in records] == ["ialltoall"] * 2 * npencils
        assert all(r.messages == P * P for r in records)
        assert sum(r.total_bytes for r in records) == (C + M) * cpx

    def test_the_send_ring_is_a_fraction_of_the_slab(self, rng):
        """Pencil ip's send blocks reuse those of ip - k once the window has
        retired that exchange: one pencil's worth per rank when sync, two
        of four when three items are in flight over two ranks."""
        grid = SpectralGrid(24)
        slab = 12 * 24 * 13 * 6  # one rank's six product fields, elements
        for pipeline, share in (("sync", 1 / 4), ("threads", 2 / 4)):
            with OutOfCoreSlabFFT(grid, VirtualComm(2), 4,
                                  pipeline=pipeline) as fft:
                fft.product_spectra(_fields(fft, 3, rng), PRODUCT_PAIRS)
                assert [r.shape[0] for r in fft._send] == [slab * share] * 2

    def test_a_sized_arena_grows_to_the_quote(self, rng):
        """Without a budget the arena fits the largest call served, which
        for the velocity substage is what admission control quotes."""
        from repro.plan.admission import job_device_bytes

        with OutOfCoreSlabFFT(SpectralGrid(16), VirtualComm(2), 4,
                              pipeline="threads", inflight=2) as fft:
            single = fft.arena.capacity
            fft.product_spectra(_fields(fft, 3, rng), PRODUCT_PAIRS)
            quote = job_device_bytes(16, ranks=2, npencils=4,
                                     pipeline="threads", inflight=2)
            assert single < fft.arena.capacity == pytest.approx(quote)
            assert fft.arena.high_water <= quote

    def test_a_quoted_budget_runs_the_step(self, rng):
        from repro.plan.admission import job_device_bytes

        grid = SpectralGrid(16)
        quote = job_device_bytes(16, ranks=2, npencils=4)
        with DistributedNavierStokesSolver(
            grid, VirtualComm(2), random_isotropic_field(grid, rng),
            SolverConfig(nu=0.02), npencils=4, device_bytes=quote,
        ) as solver:
            solver.step(1e-3)
            assert 0 < solver.fft.arena.high_water <= quote

    def test_the_whole_slab_is_priced_as_one_pencil(self, rng):
        """A distributed job without ``npencils`` runs one pencil in
        process, and its quote is that engine's arena, with the window
        capped at a phase's two items."""
        from repro.plan.admission import job_device_bytes

        grid = SpectralGrid(16)
        u0 = random_isotropic_field(grid, rng)
        for pipeline in ("sync", "threads"):
            quote = job_device_bytes(16, ranks=2, pipeline=pipeline, inflight=3)
            with DistributedNavierStokesSolver(
                grid, VirtualComm(2), u0, SolverConfig(nu=0.02),
                pipeline=pipeline, inflight=3,
            ) as solver:
                solver.step(1e-3)
                assert solver.fft.arena.capacity == pytest.approx(quote)
        assert job_device_bytes(16, 2, pipeline="threads", inflight=3) == (
            job_device_bytes(16, 2, npencils=1, pipeline="threads", inflight=2))

    def test_the_window_is_capped_at_a_phases_items(self, rng):
        """One pencil over two ranks is two items a phase, so a third ring
        slot would never be viewed: ``inflight=3`` claims the arena of
        ``inflight=2`` and gives the same bits."""
        grid = SpectralGrid(16)
        u0 = random_isotropic_field(grid, rng)
        cfg = SolverConfig(nu=0.02, seed=11)
        runs = {}
        for inflight in (2, 3):
            with DistributedNavierStokesSolver(
                grid, VirtualComm(2), u0, cfg, pipeline="threads",
                inflight=inflight,
            ) as solver:
                for _ in range(2):
                    solver.step(1e-3)
                fft = solver.fft
                runs[inflight] = (fft.inflight, fft.arena.capacity,
                                  solver.gather_state())
        assert runs[3][0] == runs[2][0] == 2
        assert runs[3][1] == runs[2][1]
        assert np.array_equal(runs[3][2], runs[2][2])
