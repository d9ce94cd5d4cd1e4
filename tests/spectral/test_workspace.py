"""Tests for the pre-allocated spectral workspace and transform backends.

Three layers of guarantees:

* **equivalence** — the in-place workspace + pointwise-kernel pipeline must
  reproduce, to round-off, the trajectory of the textbook RK2/RK4 written
  with the allocating reference operators (:class:`LegacySolver` below, the
  integrator the solver used to carry as its ``use_workspace=False`` path),
  with phase shifting and forcing on;
* **allocation** — after warmup, a solver step must not allocate any
  full-grid (>= N^3-element) array (tracemalloc);
* **unit behaviour** — buffer pool reuse, provider resolution, the
  provider contract (``out=`` / ``norm=`` as ``np.fft`` means them) and
  cross-provider transform agreement.
"""

import tracemalloc

import numpy as np
import pytest

from repro.spectral.dealias import (
    DealiasRule,
    phase_shift_factor,
    random_shift,
    sharp_truncation_mask,
)
from repro.spectral.forcing import BandForcing, NoForcing
from repro.spectral.grid import SpectralGrid
from repro.spectral.initial import random_isotropic_field, taylor_green_field
from repro.spectral.operators import (
    nonlinear_conservative,
    nonlinear_rotational,
    project,
)
from repro.spectral.pointwise import PointwiseKernel
from repro.spectral.solver import NavierStokesSolver, SolverConfig
from repro.spectral.transforms import fft3d, ifft3d
from repro.spectral.workspace import (
    BufferPool,
    NumpyFFT,
    ScipyFFT,
    SpectralWorkspace,
    available_backends,
    resolve_fft,
)


class LegacySolver:
    """The allocating integrator: every term one NumPy expression over the
    reference operators, drawing the same phase-shift stream as the solver.
    ``scalars`` holds ``(theta_hat, schmidt, mean_gradient)`` per passive
    scalar, marched after the velocity in one state."""

    def __init__(self, grid, u0, config, forcing=None, scalars=()):
        self.grid, self.config = grid, config
        self.forcing = forcing if forcing is not None else NoForcing()
        self.mask = sharp_truncation_mask(grid, config.dealias)
        self.rng = np.random.default_rng(config.seed)
        u_hat = project(np.array(u0, dtype=grid.cdtype) * self.mask, grid)
        thetas = [np.asarray(t * self.mask, dtype=grid.cdtype)[None]
                  for t, _, _ in scalars]
        self.state = np.concatenate([u_hat, *thetas])
        self.kappas = [config.nu] * 3 + [config.nu / sc for _, sc, _ in scalars]
        self.gradients = [g for _, _, g in scalars]

    @property
    def u_hat(self):
        return self.state[:3]

    def rhs(self, state):
        cfg, grid = self.config, self.grid
        u_hat = state[:3]
        shift = None
        if cfg.phase_shift:
            shift = phase_shift_factor(grid, random_shift(grid, self.rng))
        form = (nonlinear_conservative if cfg.convective_form == "conservative"
                else nonlinear_rotational)
        rhs = project(form(u_hat, grid, mask=self.mask, shift=shift), grid)
        f = self.forcing.rhs(u_hat, grid)
        parts = [rhs if f is None else rhs + f]
        s = 1.0 if shift is None else shift
        u = [ifft3d(u_hat[i] * s, grid) for i in range(3)] if self.gradients else []
        for theta_hat, gradient in zip(state[3:], self.gradients):
            theta = ifft3d(theta_hat * s, grid)
            div = sum(k * fft3d(ui * theta, grid)
                      for k, ui in zip(grid.k_vectors, u))
            parts.append((-1j * self.mask * np.conj(s) * div
                          - gradient * u_hat[1])[None])
        return np.concatenate(parts)

    def step(self, dt):
        u0, k2 = self.state, self.grid.k_squared
        e_half = np.stack([np.exp(-nu * k2 * 0.5 * dt) for nu in self.kappas])
        e_full = np.stack([np.exp(-nu * k2 * dt) for nu in self.kappas])
        if self.config.scheme == "rk2":
            r1 = self.rhs(u0)
            r2 = self.rhs(e_full * (u0 + dt * r1))
            self.state = e_full * (u0 + (0.5 * dt) * r1) + (0.5 * dt) * r2
        else:
            k1 = self.rhs(u0)
            k2_ = self.rhs(e_half * (u0 + (0.5 * dt) * k1))
            k3 = self.rhs(e_half * u0 + (0.5 * dt) * k2_)
            k4 = self.rhs(e_full * u0 + dt * (e_half * k3))
            self.state = e_full * u0 + (dt / 6.0) * (
                e_full * k1 + 2.0 * e_half * (k2_ + k3) + k4
            )
        self.forcing.post_step(self.u_hat, self.grid, dt)


def run_pair(grid, u0, steps=4, dt=5e-3, forcing_factory=None, scalars=(),
             **cfg_kw):
    """Advance identical initial conditions through the reference integrator
    and the solver; returns (legacy, solver)."""
    legacy = LegacySolver(grid, u0, SolverConfig(nu=0.02, **cfg_kw),
                          forcing=forcing_factory() if forcing_factory else None,
                          scalars=scalars)
    solver = NavierStokesSolver(grid, u0, SolverConfig(nu=0.02, **cfg_kw),
                                forcing=forcing_factory() if forcing_factory else None)
    for theta_hat, schmidt, gradient in scalars:
        solver.add_scalar(theta_hat, schmidt, gradient)
    for s in (legacy, solver):
        for _ in range(steps):
            s.step(dt)
    return legacy, solver


class TestWorkspaceEquivalence:
    """Solver vs. the allocating reference integrator, to round-off."""

    @pytest.mark.parametrize("scheme", ["rk2", "rk4"])
    def test_matches_legacy_no_phase_shift(self, grid24, rng, scheme):
        u0 = random_isotropic_field(grid24, rng, energy=0.5)
        legacy, ws = run_pair(grid24, u0, scheme=scheme, phase_shift=False)
        np.testing.assert_allclose(ws.u_hat, legacy.u_hat, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("scheme", ["rk2", "rk4"])
    def test_matches_legacy_phase_shift_on(self, grid24, rng, scheme):
        """Same dealias shifts (seeded RNG) -> same trajectory."""
        u0 = random_isotropic_field(grid24, rng, energy=0.5)
        legacy, ws = run_pair(
            grid24, u0, scheme=scheme, phase_shift=True, seed=3,
        )
        np.testing.assert_allclose(ws.u_hat, legacy.u_hat, rtol=0, atol=1e-14)

    def test_matches_legacy_with_forcing(self, grid24, rng):
        u0 = random_isotropic_field(grid24, rng, energy=0.5)
        legacy, ws = run_pair(
            grid24, u0, scheme="rk2", phase_shift=True, seed=5,
            forcing_factory=lambda: BandForcing(k_force=2.5, eps_inj=1.0),
        )
        np.testing.assert_allclose(ws.u_hat, legacy.u_hat, rtol=0, atol=1e-14)

    def test_matches_legacy_rotational_form(self, grid24, rng):
        u0 = random_isotropic_field(grid24, rng, energy=0.5)
        legacy, ws = run_pair(
            grid24, u0, scheme="rk2", phase_shift=False,
            convective_form="rotational",
        )
        np.testing.assert_allclose(ws.u_hat, legacy.u_hat, rtol=0, atol=1e-14)

    def test_shared_workspace_between_solvers(self, grid16):
        """Two solvers sharing one workspace run correctly in sequence."""
        shared = SpectralWorkspace(grid16, backend="numpy")
        u0 = taylor_green_field(grid16)
        a = NavierStokesSolver(grid16, u0, SolverConfig(nu=0.05),
                               workspace=shared)
        b = NavierStokesSolver(grid16, u0, SolverConfig(nu=0.05),
                               workspace=shared)
        ra = [a.step(0.01) for _ in range(3)]
        rb = [b.step(0.01) for _ in range(3)]
        np.testing.assert_array_equal(a.u_hat, b.u_hat)
        assert ra[-1].energy == rb[-1].energy


class TestLastStageOverwritesItsState:
    """The last RK stage writes its right-hand side over the stage state it
    is evaluated at (RK2's ``u*``, RK4's fourth stage), so every read of
    that state must come before the write: the forcing's, and a scalar's
    ``-G u_y``.  Reading either after would march the right-hand side."""

    @pytest.mark.parametrize("scheme", ["rk2", "rk4"])
    def test_band_forcing_reads_the_stage_velocity(self, grid24, rng, scheme):
        u0 = random_isotropic_field(grid24, rng, energy=0.5)
        legacy, ws = run_pair(
            grid24, u0, scheme=scheme, phase_shift=True, seed=5,
            forcing_factory=lambda: BandForcing(k_force=2.5, eps_inj=1.0),
        )
        np.testing.assert_allclose(ws.u_hat, legacy.u_hat, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("scheme", ["rk2", "rk4"])
    def test_scalar_gradient_reads_the_stage_velocity(self, grid24, rng, scheme):
        u0 = random_isotropic_field(grid24, rng, energy=0.5)
        theta0 = random_isotropic_field(grid24, rng, energy=0.5)[0]
        legacy, ws = run_pair(grid24, u0, scheme=scheme, phase_shift=True,
                              seed=5, scalars=[(theta0, 0.7, 0.8)])
        np.testing.assert_allclose(ws._state, legacy.state, rtol=0, atol=1e-14)


def retained_bytes(*owners):
    """Bytes of the distinct arrays the owners' attributes hold (looking
    one level into tuples, lists and dicts); a view counts as its base."""
    arrays = {}

    def visit(x):
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            arrays[id(x)] = x
        elif isinstance(x, (tuple, list)):
            for y in x:
                visit(y)
        elif isinstance(x, dict):
            for y in x.values():
                visit(y)

    for owner in owners:
        for value in vars(owner).values():
            visit(value)
    return sum(a.nbytes for a in arrays.values())


class TestFootprint:
    """What a warmed serial step keeps alive, in words (8 bytes per grid
    point).  The paper plans D ~ 25 four-byte words per point (Table 1),
    12.5 eight-byte ones.  Here the state, one RK2 stage buffer, three
    physical velocity fields, one product and the transform scratch come to
    about 11.6 (RK4: two more stage buffers, 17.7): product transforms
    stream into the right-hand side, every stage writes its sums over what
    it has read, and the dealias mask is one byte per mode."""

    @pytest.mark.parametrize("scheme,words", [("rk2", 12.0), ("rk4", 18.0)])
    def test_warmed_step_words_per_point(self, scheme, words):
        grid = SpectralGrid(96)
        u0 = taylor_green_field(grid)
        solver = NavierStokesSolver(grid, u0, SolverConfig(
            nu=0.02, scheme=scheme, fft_backend="numpy", diagnostics_every=0))
        solver.step(1e-3)
        held = retained_bytes(solver, solver.workspace, solver._pointwise)
        assert held / (grid.n**3 * 8) <= words

    @pytest.mark.parametrize("scheme,stages", [
        pytest.param("rk2", {"rk_r1"}, id="rk2"),
        pytest.param("rk4", {"rk_stage", "rk_k1", "rk_k2"}, id="rk4")])
    def test_stage_buffers_a_step_claims(self, grid16, scheme, stages):
        """RK2 claims no ``rk_stage`` and RK4 no ``rk_k3``: each stage
        writes its sums over what it has read."""
        solver = NavierStokesSolver(grid16, taylor_green_field(grid16),
                                    SolverConfig(nu=0.05, scheme=scheme))
        solver.step(0.01)
        claimed = {name for _, name, _ in solver.workspace._buffers}
        assert {name for name in claimed if name.startswith("rk_")} == stages

    def test_add_scalar_after_a_step_releases_stage_buffers(self, grid16):
        """A solver that steps, adds a scalar and steps again holds what one
        that added the scalar first holds: no stage buffers of the old
        component count."""
        u0 = taylor_green_field(grid16)
        theta0 = u0[0]
        late = NavierStokesSolver(grid16, u0, SolverConfig(nu=0.05))
        late.step(0.01)
        late.add_scalar(theta0, mean_gradient=1.0)
        late.step(0.01)
        early = NavierStokesSolver(grid16, u0, SolverConfig(nu=0.05))
        early.add_scalar(theta0, mean_gradient=1.0)
        early.step(0.01)
        assert late.workspace.nbytes == early.workspace.nbytes
        assert late.workspace.buffer_count == early.workspace.buffer_count


class TestZeroAllocation:
    """The headline invariant: steady-state steps allocate no full grids,
    and neither do the energy and dissipation of a diagnostics step."""

    @pytest.mark.parametrize("scheme,nscalars,dtype,every", [
        pytest.param(scheme, nscalars, dtype, every,
                     id=scheme + tag + suffix + ("-diagnostics" if every else ""))
        for dtype, suffix in ((np.float64, ""), (np.float32, "-float32"))
        for scheme in ("rk2", "rk4")
        for nscalars, tag in ((0, ""), (1, "-scalar"))
        for every in (0, 1)
    ])
    def test_steady_state_step_allocates_no_full_grid(
        self, rng, scheme, nscalars, dtype, every
    ):
        grid = SpectralGrid(32, dtype=dtype)
        solver = NavierStokesSolver(
            grid,
            random_isotropic_field(grid, rng, energy=1.0),
            SolverConfig(nu=0.02, scheme=scheme, phase_shift=True,
                         diagnostics_every=every),
        )
        for _ in range(nscalars):
            solver.add_scalar(random_isotropic_field(grid, rng)[0],
                              schmidt=4.0, mean_gradient=1.0)
        for _ in range(2):  # warmup: buffers created
            solver.step(1e-3)

        fullgrid_bytes = grid.n**3 * np.dtype(grid.dtype).itemsize
        tracemalloc.start()
        tracemalloc.reset_peak()
        for _ in range(2):
            solver.step(1e-3)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert peak < fullgrid_bytes, (
            f"steady-state {scheme} step allocated {peak} B >= one full "
            f"grid ({fullgrid_bytes} B)"
        )

    def test_legacy_step_does_allocate(self, rng):
        """Sanity check that the measurement can see full-grid allocations:
        the allocating reference integrator makes plenty."""
        grid = SpectralGrid(32)
        solver = LegacySolver(
            grid, random_isotropic_field(grid, rng, energy=1.0),
            SolverConfig(nu=0.02),
        )
        solver.step(1e-3)
        tracemalloc.start()
        tracemalloc.reset_peak()
        solver.step(1e-3)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak > grid.n**3 * np.dtype(grid.dtype).itemsize


class TestWorkspaceUnits:
    def test_buffers_are_cached_by_name(self, grid16):
        ws = SpectralWorkspace(grid16)
        a = ws.spectral("x")
        assert ws.spectral("x") is a
        assert ws.spectral("y") is not a
        v = ws.physical("u", ncomp=3)
        assert v.shape == (3, *grid16.physical_shape)
        assert ws.physical("u", ncomp=3) is v
        assert ws.buffer_count == 3
        assert ws.nbytes == a.nbytes + ws.spectral("y").nbytes + v.nbytes

    def test_phase_shift_matches_full_grid_exp(self, grid16, rng):
        """The shifted coefficients land in the inverse transform's own work
        buffer, which is then transformed in place."""
        ws = SpectralWorkspace(grid16)
        kernel = PointwiseKernel(grid16, DealiasRule.NONE)
        shift = rng.uniform(0, 2 * np.pi / grid16.n, size=3)
        u_hat = random_isotropic_field(grid16, rng, energy=1.0)[0]
        expected = u_hat * phase_shift_factor(grid16, shift)
        got = kernel.shifted(u_hat, kernel.shift_bases(shift), ws.ifft_work)
        assert got is ws.ifft_work
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            ws.ifft3d(got), ifft3d(expected, grid16), rtol=0, atol=1e-12
        )

    def test_phase_shift_rejects_bad_shape(self, grid16):
        kernel = PointwiseKernel(grid16, DealiasRule.NONE)
        with pytest.raises(ValueError):
            kernel.shift_bases(np.zeros(2))

    def test_workspace_transforms_round_trip(self, grid16, rng):
        ws = SpectralWorkspace(grid16)
        u = rng.standard_normal(grid16.physical_shape)
        u_hat = ws.fft3d(u)
        np.testing.assert_allclose(u_hat, fft3d(u, grid16), atol=1e-13)
        back = ws.ifft3d(u_hat)
        np.testing.assert_allclose(back, u, atol=1e-12)
        np.testing.assert_allclose(back, ifft3d(u_hat, grid16), atol=1e-12)

    def test_transform_shape_validation(self, grid16):
        ws = SpectralWorkspace(grid16)
        with pytest.raises(ValueError):
            ws.fft3d(np.zeros((4, 4, 4)))
        with pytest.raises(ValueError):
            ws.ifft3d(np.zeros((4, 4, 3), dtype=complex))


class TestBufferPool:
    def test_take_give_reuses_exact_key(self):
        pool = BufferPool()
        a = pool.take((4, 4), np.float64)
        pool.give(a)
        assert pool.take((4, 4), np.float64) is a
        assert pool.take((4, 4), np.float32) is not a
        assert pool.hits == 1 and pool.misses == 2

    def test_free_list_bounded(self):
        pool = BufferPool(max_per_key=2)
        bufs = [pool.take((8,), np.float64) for _ in range(4)]
        for b in bufs:
            pool.give(b)
        # Only two retained; two more takes hit, the next misses.
        pool.take((8,), np.float64)
        pool.take((8,), np.float64)
        misses_before = pool.misses
        pool.take((8,), np.float64)
        assert pool.misses == misses_before + 1

    def test_concurrent_take_give_from_two_threads(self):
        import threading

        pool = BufferPool(max_per_key=8)
        errors = []
        barrier = threading.Barrier(2)

        def worker(tag):
            try:
                barrier.wait()
                for _ in range(500):
                    buf = pool.take((16,), np.float64)
                    buf[:] = tag
                    # The pool must never hand one buffer to both threads:
                    # nobody else writes our value while we hold it.
                    if not np.all(buf == tag):
                        raise AssertionError("buffer shared between threads")
                    pool.give(buf)
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in (1.0, 2.0)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert pool.hits + pool.misses == 1000

    def test_concurrent_monitor_sees_no_double_insert(self):
        import threading

        from repro.verify import InvariantMonitor

        pool = BufferPool(max_per_key=4)
        mon = InvariantMonitor()
        pool.monitor = mon
        errors = []
        barrier = threading.Barrier(2)

        def worker():
            try:
                barrier.wait()
                for _ in range(400):
                    pool.give(pool.take((8,), np.float64))
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert mon.ok and mon.checks >= 1600


class TestBackends:
    def test_available_backends_has_numpy_and_scipy(self):
        names = available_backends()
        assert "numpy" in names
        assert "scipy" in names

    def test_resolve_by_name_and_passthrough(self):
        assert type(resolve_fft("numpy")) is NumpyFFT
        assert type(resolve_fft("scipy")) is ScipyFFT
        assert resolve_fft("numpy") is resolve_fft("numpy")  # cached
        provider = NumpyFFT()
        assert resolve_fft(provider) is provider

    def test_resolve_auto_consults_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_FFT_BACKEND", raising=False)
        assert type(resolve_fft("auto")) is NumpyFFT
        assert type(resolve_fft(None)) is NumpyFFT
        monkeypatch.setenv("REPRO_FFT_BACKEND", "scipy")
        assert type(resolve_fft("auto")) is ScipyFFT

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown FFT backend"):
            resolve_fft("cufft")

    def test_resolve_rejects_unavailable(self, monkeypatch):
        from repro.spectral import workspace as ws_mod

        monkeypatch.setattr(ws_mod.ScipyFFT, "available",
                            classmethod(lambda cls: False))
        monkeypatch.delitem(ws_mod._cache, "scipy", raising=False)
        with pytest.raises(ValueError, match="'scipy' is not available"):
            resolve_fft("scipy")

    def test_scipy_backend_matches_numpy(self, grid16, rng):
        u = rng.standard_normal(grid16.physical_shape)
        results = {}
        for name in ("numpy", "scipy"):
            ws = SpectralWorkspace(grid16, backend=name)
            u_hat = ws.fft3d(u).copy()
            results[name] = (u_hat, ws.ifft3d(u_hat).copy())
        np.testing.assert_allclose(results["scipy"][0], results["numpy"][0],
                                   atol=1e-13)
        np.testing.assert_allclose(results["scipy"][1], results["numpy"][1],
                                   atol=1e-12)

    def test_scipy_workers_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FFT_WORKERS", "3")
        assert ScipyFFT().workers == 3

    def test_solver_accepts_scipy_backend(self, grid16):
        s = NavierStokesSolver(
            grid16, taylor_green_field(grid16),
            SolverConfig(nu=0.05, fft_backend="scipy"),
        )
        ref = NavierStokesSolver(
            grid16, taylor_green_field(grid16),
            SolverConfig(nu=0.05, fft_backend="numpy"),
        )
        s.step(0.01)
        ref.step(0.01)
        np.testing.assert_allclose(s.u_hat, ref.u_hat, atol=1e-13)

    @pytest.mark.parametrize("name", ["numpy", "scipy"])
    def test_float32_grid_transforms_into_its_buffers(self, name, rng):
        """Single precision writes into the workspace's complex64/float32
        buffers and matches the float64 reference at its own precision."""
        grid = SpectralGrid(16, dtype=np.float32)
        ws = SpectralWorkspace(grid, backend=name)
        u = rng.standard_normal(grid.physical_shape).astype(np.float32)
        u_hat = ws.fft3d(u)
        assert u_hat is ws.spectral("fft_out") and u_hat.dtype == grid.cdtype
        np.testing.assert_allclose(u_hat, fft3d(u, SpectralGrid(16)),
                                   atol=1e-6)
        back = ws.ifft3d(u_hat)
        assert back is ws.physical("ifft_out") and back.dtype == grid.dtype
        np.testing.assert_allclose(back, u, atol=1e-5)


#: kind -> (input shape, positional arguments after the array).
_LINE_CALLS = {
    "fft": ((6, 5, 8), (1,)), "ifft": ((6, 5, 8), (1,)),
    "rfft": ((6, 5, 8), (2,)), "irfft": ((6, 5, 5), (8, 2)),
}


class TestProviderContract:
    """Every provider's line calls mean what ``np.fft``'s mean, in either
    precision, and land in ``out`` when one is given."""

    @pytest.mark.parametrize("norm", [None, "forward"])
    @pytest.mark.parametrize("cdtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("kind,where", [
        (kind, where) for kind in _LINE_CALLS
        for where in ("fresh", "out", "in-place")
        # only the complex-to-complex pair keeps shape and dtype
        if where != "in-place" or kind in ("fft", "ifft")
    ])
    @pytest.mark.parametrize("name", ["numpy", "scipy"])
    def test_line_call_matches_np_fft(self, name, kind, where, cdtype, norm, rng):
        real = np.finfo(cdtype).dtype
        shape, args = _LINE_CALLS[kind]
        a = rng.standard_normal(shape).astype(real)
        if kind != "rfft":
            a = (a + 1j * rng.standard_normal(shape)).astype(cdtype)
        ref = getattr(np.fft, kind)
        expected = (ref(a, n=args[0], axis=args[1], norm=norm) if kind == "irfft"
                    else ref(a, axis=args[0], norm=norm))
        assert expected.dtype == (real if kind == "irfft" else cdtype)
        out = {"fresh": None, "in-place": a,
               "out": np.empty(expected.shape, expected.dtype)}[where]
        got = getattr(resolve_fft(name), kind)(a, *args, out=out, norm=norm)
        if out is not None:
            assert got is out
        assert got.dtype == expected.dtype
        np.testing.assert_allclose(
            got, expected, rtol=0,
            atol=64 * np.finfo(real).eps * np.abs(expected).max(),
        )
