"""Golden Taylor-Green decay on uneven slabs.

That uneven heights change *where* planes live, never what is computed
(every partition gives the balanced run's bits, and the serial solver's up
to reassociation), is the engine-invariance property's
(``tests/verify/test_invariance.py``).  What stays here is the physics on
an uneven partition: the energy decays.
"""

import pytest

from repro.dist.dist_solver import DistributedNavierStokesSolver
from repro.dist.virtual_mpi import VirtualComm
from repro.spectral.grid import SpectralGrid
from repro.spectral.initial import taylor_green_field
from repro.spectral.solver import SolverConfig

HEIGHTS_24 = (10, 6, 8)
DT = 0.004


@pytest.fixture(scope="module")
def tg24():
    grid = SpectralGrid(24)
    return grid, taylor_green_field(grid)


class TestGoldenTaylorGreen24:
    def test_energy_decays_monotonically(self, tg24):
        grid, u0 = tg24
        cfg = SolverConfig(nu=0.02, scheme="rk2", phase_shift=False, seed=11)
        solver = DistributedNavierStokesSolver(
            grid, VirtualComm(3), u0, cfg, heights=HEIGHTS_24
        )
        energies = [solver.kinetic_energy()]
        for _ in range(3):
            energies.append(solver.step(DT).energy)
        solver.close()
        assert all(b < a for a, b in zip(energies, energies[1:]))

