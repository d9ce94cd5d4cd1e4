"""Checkpoint / restart: save and load spectral solver state.

Long-running DNS campaigns (the paper: "simulations ... typically
integrated over many thousands of time steps" inside a wall-clock-limited
batch allocation) live and die by restart files.  This module provides a
compact ``.npz``-based checkpoint containing the spectral velocity (and any
passive scalars), the solver clock, the phase-shift RNG state, and enough
metadata to validate that a restart matches the run that wrote it: a restored
solver continues bit-for-bit where the saved one would have.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.spectral.dealias import DealiasRule
from repro.spectral.grid import SpectralGrid
from repro.spectral.solver import NavierStokesSolver, SolverConfig

__all__ = ["CheckpointError", "load_checkpoint", "save_checkpoint"]

_FORMAT_VERSION = 2  # 1 lacked the RNG state, so could not resume exactly


class CheckpointError(RuntimeError):
    """Raised when a checkpoint is malformed or incompatible."""


def _config_metadata(config: SolverConfig) -> dict:
    meta = asdict(config)
    meta["dealias"] = config.dealias.value
    return meta


def save_checkpoint(path: Union[str, Path], solver: NavierStokesSolver) -> Path:
    """Write the solver state to ``path`` (``.npz``); returns the path.

    Scalars are stored alongside the velocity with their Schmidt numbers
    and mean gradients.
    """
    path = Path(path)
    arrays: dict[str, np.ndarray] = {"u_hat": solver.u_hat}
    for i, s in enumerate(solver.scalars):
        arrays[f"theta_hat_{i}"] = s.theta_hat
    header = {
        "format_version": _FORMAT_VERSION,
        "n": solver.grid.n,
        "length": solver.grid.length,
        "dtype": solver.grid.dtype.name,
        "time": solver.time,
        "step_count": solver.step_count,
        "config": _config_metadata(solver.config),
        "scalars": [
            {"schmidt": s.schmidt, "mean_gradient": s.mean_gradient}
            for s in solver.scalars
        ],
        "rng": solver._rng.bit_generator.state,
    }
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)
    return path


def _read_header(data) -> dict:
    if "header" not in data:
        raise CheckpointError("not a repro checkpoint (missing header)")
    try:
        return json.loads(bytes(data["header"].tobytes()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc


def load_checkpoint(
    path: Union[str, Path], grid: Optional[SpectralGrid] = None
) -> NavierStokesSolver:
    """Reconstruct a solver, with whatever scalars the checkpoint holds.

    Parameters
    ----------
    grid:
        Optional pre-built grid; must match the checkpoint's N / domain
        length / dtype (validated).  Built from the header if omitted.
    """
    path = Path(path)
    with np.load(path) as data:
        header = _read_header(data)
        if header.get("format_version") != _FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {header.get('format_version')}"
            )
        if grid is None:
            grid = SpectralGrid(
                header["n"], length=header["length"], dtype=np.dtype(header["dtype"])
            )
        else:
            if (
                grid.n != header["n"]
                or abs(grid.length - header["length"]) > 1e-12
                or grid.dtype.name != header["dtype"]
            ):
                raise CheckpointError(
                    f"grid mismatch: checkpoint is N={header['n']} "
                    f"L={header['length']:.6g} {header['dtype']}"
                )

        cfg_meta = dict(header["config"])
        cfg_meta["dealias"] = DealiasRule(cfg_meta["dealias"])
        solver = NavierStokesSolver(grid, data["u_hat"], SolverConfig(**cfg_meta))
        for i, meta in enumerate(header["scalars"]):
            solver.add_scalar(data[f"theta_hat_{i}"], **meta)
        # The constructor and add_scalar re-apply mask + projection, which
        # perturbs the state at round-off; restarts must be bit-exact, so
        # restore the stored coefficients verbatim (saved already projected).
        solver.u_hat = data["u_hat"]
        for i, scalar in enumerate(solver.scalars):
            scalar.theta_hat[...] = data[f"theta_hat_{i}"]
        solver.time = header["time"]
        solver.step_count = header["step_count"]
        solver._rng.bit_generator.state = header["rng"]
        return solver
