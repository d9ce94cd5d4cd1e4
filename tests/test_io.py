"""Tests for checkpoint save/load."""

import itertools
import json

import numpy as np
import pytest

from repro.io import CheckpointError, load_checkpoint, save_checkpoint
from repro.spectral.dealias import DealiasRule
from repro.spectral.grid import SpectralGrid
from repro.spectral.initial import random_isotropic_field
from repro.spectral.solver import NavierStokesSolver, SolverConfig


@pytest.fixture()
def solver(grid16, rng):
    s = NavierStokesSolver(
        grid16,
        random_isotropic_field(grid16, rng, energy=0.5),
        SolverConfig(nu=0.03, scheme="rk4", phase_shift=False,
                     dealias=DealiasRule.TWO_THIRDS),
    )
    s.run(3, 0.005)
    return s


class TestRoundTrip:
    def test_state_and_clock_restored(self, solver, tmp_path):
        path = save_checkpoint(tmp_path / "ck.npz", solver)
        restored = load_checkpoint(path)
        assert np.array_equal(restored.u_hat, solver.u_hat)
        assert restored.time == solver.time
        assert restored.step_count == solver.step_count
        assert restored.scalars == []

    def test_config_restored(self, solver, tmp_path):
        restored = load_checkpoint(save_checkpoint(tmp_path / "ck.npz", solver))
        assert restored.config.nu == 0.03
        assert restored.config.scheme == "rk4"
        assert restored.config.dealias is DealiasRule.TWO_THIRDS

    def test_restart_continues_identically(self, grid16, tmp_path):
        """A restarted run must follow the original trajectory exactly — the
        phase-shift stream and any scalar included.  One test, eight cases."""
        cases = itertools.product(("rk2", "rk4"), (False, True), (0, 1))
        for scheme, phase_shift, nscalars in cases:
            rng = np.random.default_rng(0)
            solver = NavierStokesSolver(
                grid16,
                random_isotropic_field(grid16, rng, energy=0.5),
                SolverConfig(nu=0.03, scheme=scheme, phase_shift=phase_shift),
            )
            for _ in range(nscalars):
                solver.add_scalar(random_isotropic_field(grid16, rng)[0],
                                  schmidt=4.0, mean_gradient=1.5)
            solver.run(3, 0.005)
            restored = load_checkpoint(save_checkpoint(tmp_path / "ck.npz", solver))
            solver.run(3, 0.005)
            restored.run(3, 0.005)
            case = (scheme, phase_shift, nscalars)
            assert np.array_equal(restored.u_hat, solver.u_hat), case
            for s in range(nscalars):
                assert np.array_equal(
                    restored.gather_scalar(s), solver.gather_scalar(s)), case

    def test_grid_passed_explicitly(self, solver, tmp_path, grid16):
        path = save_checkpoint(tmp_path / "ck.npz", solver)
        restored = load_checkpoint(path, grid=grid16)
        assert restored.grid is grid16


class TestScalars:
    def test_scalar_round_trip(self, grid16, rng, tmp_path):
        mix = NavierStokesSolver(
            grid16,
            random_isotropic_field(grid16, rng, energy=0.5),
            SolverConfig(nu=0.05, phase_shift=False),
        )
        mix.add_scalar(grid16.zeros_spectral(), schmidt=4.0, mean_gradient=1.5)
        mix.step(0.005)
        path = save_checkpoint(tmp_path / "mix.npz", mix)
        restored = load_checkpoint(path)
        assert len(restored.scalars) == 1
        assert restored.scalars[0].schmidt == 4.0
        assert restored.scalars[0].mean_gradient == 1.5
        assert np.array_equal(
            restored.scalars[0].theta_hat, mix.scalars[0].theta_hat
        )


class TestValidation:
    def test_grid_mismatch_rejected(self, solver, tmp_path):
        path = save_checkpoint(tmp_path / "ck.npz", solver)
        with pytest.raises(CheckpointError, match="grid mismatch"):
            load_checkpoint(path, grid=SpectralGrid(32))

    def test_not_a_checkpoint_rejected(self, tmp_path):
        bogus = tmp_path / "x.npz"
        np.savez(bogus, a=np.zeros(3))
        with pytest.raises(CheckpointError, match="missing header"):
            load_checkpoint(bogus)

    def test_corrupt_header_rejected(self, tmp_path):
        bogus = tmp_path / "x.npz"
        np.savez(bogus, header=np.frombuffer(b"\xff\xfe{", dtype=np.uint8))
        with pytest.raises(CheckpointError):
            load_checkpoint(bogus)

    def test_version_1_rejected(self, solver, tmp_path):
        """A v1 file has no RNG state, so it cannot be resumed exactly."""
        path = save_checkpoint(tmp_path / "ck.npz", solver)
        with np.load(path) as data:
            arrays = dict(data)
        header = json.loads(arrays["header"].tobytes())
        header["format_version"] = 1
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="version 1"):
            load_checkpoint(path)


def _rewrite(path, edit):
    """Re-save checkpoint ``path`` after ``edit(arrays, header)``."""
    with np.load(path) as data:
        arrays = dict(data)
    header = json.loads(arrays["header"].tobytes())
    edit(arrays, header)
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    return path


class TestCorruptFiles:
    """A damaged checkpoint is a :class:`CheckpointError` naming the
    problem, never the zip layer's, NumPy's or the solver's exception."""

    def test_truncated_file(self, solver, tmp_path):
        path = save_checkpoint(tmp_path / "ck.npz", solver)
        path.write_bytes(path.read_bytes()[:-64])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "ck.npz"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError, match="empty"):
            load_checkpoint(path)

    def test_garbage_is_not_unpickled(self, tmp_path):
        path = tmp_path / "ck.npz"
        path.write_bytes(b"not a checkpoint at all " * 8)
        with pytest.raises(CheckpointError, match="not a readable checkpoint"):
            load_checkpoint(path)

    def test_bare_array_file(self, tmp_path):
        path = tmp_path / "ck.npy"
        np.save(path, np.zeros(3))
        with pytest.raises(CheckpointError, match="bare array"):
            load_checkpoint(path)

    def test_missing_scalar_array(self, grid16, tmp_path):
        mix = NavierStokesSolver(grid16, random_isotropic_field(
            grid16, np.random.default_rng(1), energy=0.5))
        mix.add_scalar(grid16.zeros_spectral(), schmidt=2.0)
        path = _rewrite(save_checkpoint(tmp_path / "ck.npz", mix),
                        lambda arrays, header: arrays.pop("theta_hat_0"))
        with pytest.raises(CheckpointError, match="lacks array 'theta_hat_0'"):
            load_checkpoint(path)

    def test_missing_header_key(self, solver, tmp_path):
        path = _rewrite(save_checkpoint(tmp_path / "ck.npz", solver),
                        lambda arrays, header: header.pop("step_count"))
        with pytest.raises(CheckpointError, match="lacks \\['step_count'\\]"):
            load_checkpoint(path)

    def test_wrong_shape_velocity(self, solver, tmp_path):
        def shrink(arrays, header):
            arrays["u_hat"] = arrays["u_hat"][:, :8]

        path = _rewrite(save_checkpoint(tmp_path / "ck.npz", solver), shrink)
        with pytest.raises(CheckpointError, match="'u_hat' has shape"):
            load_checkpoint(path)
