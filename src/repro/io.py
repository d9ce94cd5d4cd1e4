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
import zipfile
import zlib
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


#: What reading a damaged archive raises, from the zip layer down to NumPy's.
_READ_ERRORS = (EOFError, ValueError, zipfile.BadZipFile, zlib.error)
#: Header keys every version-2 checkpoint carries.
_HEADER_KEYS = ("n", "length", "dtype", "time", "step_count", "config",
                "scalars", "rng")


def _open(path: Path):
    """The checkpoint's archive; never unpickles."""
    try:
        data = np.load(path, allow_pickle=False)
    except _READ_ERRORS as exc:
        raise CheckpointError(
            f"{path} is not a readable checkpoint archive (empty, truncated "
            f"or not an .npz file): {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise CheckpointError(f"{path} holds one bare array, not a checkpoint")
    return data


def _array(data, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Array ``name`` of the archive, checked to have ``shape``."""
    if name not in data:
        raise CheckpointError(f"checkpoint lacks array {name!r}")
    try:
        array = data[name]
    except _READ_ERRORS as exc:
        raise CheckpointError(f"corrupt checkpoint array {name!r}: {exc}") from exc
    if array.shape != shape:
        raise CheckpointError(
            f"checkpoint array {name!r} has shape {array.shape}, expected "
            f"{shape} for its grid")
    return array


def _read_header(data) -> dict:
    if "header" not in data:
        raise CheckpointError("not a repro checkpoint (missing header)")
    try:
        header = json.loads(bytes(data["header"].tobytes()).decode("utf-8"))
    except _READ_ERRORS as exc:  # the decode errors are ValueErrors
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("corrupt checkpoint header: not a JSON object")
    return header


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
    with _open(path) as data:
        header = _read_header(data)
        if header.get("format_version") != _FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {header.get('format_version')}"
            )
        missing = [key for key in _HEADER_KEYS if key not in header]
        if missing:
            raise CheckpointError(f"checkpoint header lacks {missing}")
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

        try:
            cfg_meta = dict(header["config"])
            cfg_meta["dealias"] = DealiasRule(cfg_meta["dealias"])
            config = SolverConfig(**cfg_meta)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint header holds no valid solver config: {exc!r}"
            ) from exc
        u_hat = _array(data, "u_hat", (3, *grid.spectral_shape))
        thetas = [_array(data, f"theta_hat_{i}", grid.spectral_shape)
                  for i in range(len(header["scalars"]))]
        solver = NavierStokesSolver(grid, u_hat, config)
        for theta, meta in zip(thetas, header["scalars"]):
            solver.add_scalar(theta, **meta)
        # The constructor and add_scalar re-apply mask + projection, which
        # perturbs the state at round-off; restarts must be bit-exact, so
        # restore the stored coefficients verbatim (saved already projected).
        solver.u_hat = u_hat
        for theta, scalar in zip(thetas, solver.scalars):
            scalar.theta_hat[...] = theta
        solver.time = header["time"]
        solver.step_count = header["step_count"]
        solver._rng.bit_generator.state = header["rng"]
        return solver
