#!/usr/bin/env python
"""Distributed DNS on virtual ranks: the paper's algorithm, functionally.

Runs the same decaying-turbulence problem twice — once with the serial
solver and once slab-decomposed over virtual MPI ranks exactly as the
production code distributes it (kz-slabs in Fourier space, y-slabs in
physical space, the whole slab as one pencil of the paper's batched
pipeline) — and shows:

* the two trajectories agree to round-off;
* the communication ledger: 4 all-to-alls per RK2 step (the 3 velocities
  in, the 6 products back, twice per step, every field of a direction in
  one exchange), with the per-peer message size matching the paper's
  Sec. 4.1 formula.

Run:  python examples/distributed_dns.py [N] [ranks]
"""

import sys

import numpy as np

from repro.dist import DistributedNavierStokesSolver, VirtualComm
from repro.mpi.costmodel import alltoall_p2p_bytes
from repro.spectral import (
    NavierStokesSolver,
    SolverConfig,
    SpectralGrid,
    random_isotropic_field,
)


def main(n: int = 32, ranks: int = 4) -> None:
    grid = SpectralGrid(n)
    rng = np.random.default_rng(7)
    u0 = random_isotropic_field(grid, rng, energy=1.0, k_peak=3.0)
    cfg = SolverConfig(nu=0.02, scheme="rk2", phase_shift=True, seed=99)

    serial = NavierStokesSolver(grid, u0, cfg)
    comm = VirtualComm(ranks)
    dist = DistributedNavierStokesSolver(grid, comm, u0, cfg)

    print(f"N={n}^3 over {ranks} virtual ranks "
          f"(slab thickness {dist.decomp.mz} planes)\n")
    print(f"{'step':>5} {'E serial':>12} {'E distributed':>14} {'max |diff|':>12}")
    dt = 0.004
    for step in range(1, 6):
        rs = serial.step(dt)
        rd = dist.step(dt)
        diff = float(np.abs(serial.u_hat - dist.gather_state()).max())
        print(f"{step:5d} {rs.energy:12.8f} {rd.energy:14.8f} {diff:12.3e}")

    stats = comm.stats
    a2a = stats.count("ialltoall")
    steps = 5
    print(f"\ncommunication ledger after {steps} RK2 steps:")
    print(f"  all-to-alls        : {a2a}  ({a2a // steps} per step: "
          "2 substages x (3 velocities in, 6 products back))")
    print(f"  total bytes moved  : {stats.total_bytes / 1e6:.1f} MB")

    # The first exchange carries the three velocity components.
    rec = next(r for r in stats.records if r.kind == "ialltoall")
    # Functional layer moves complex128 (16 B); the paper's formula counts
    # 4-byte words, so scale to compare shapes.
    formula = alltoall_p2p_bytes(n, ranks, npencils=1, nv=3, wordsize=16)
    # The functional exchange splits (N/2+1)/N of x, not the formula's N/2:
    formula *= (n // 2 + 1) / n
    print(f"  P2P message size   : {rec.p2p_bytes} B "
          f"(Sec. 4.1 formula: {formula:.0f} B)")

    print("\nthe distributed and serial trajectories agree to round-off —")
    print("the decomposition/transpose machinery is exact, so the paper's")
    print("scheduling layer can be studied on the performance model alone.")


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    ranks = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    main(n, ranks)
