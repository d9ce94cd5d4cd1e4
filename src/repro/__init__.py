"""repro: reproduction of "GPU acceleration of extreme scale pseudo-spectral
simulations of turbulence using asynchronism" (Ravikumar, Appelhans & Yeung,
SC '19).

Layers (see README.md / DESIGN.md):

* :mod:`repro.spectral` / :mod:`repro.dist` — the real numerics: the
  pseudo-spectral Navier-Stokes solver (velocity and passive scalars, one
  marched state), serial and distributed over virtual MPI ranks
  (correctness layer);
* :mod:`repro.sim` / :mod:`repro.machine` / :mod:`repro.cuda` /
  :mod:`repro.mpi` — the simulated Summit substrate (performance layer);
* :mod:`repro.core` — the paper's contribution: memory planning and the
  batched asynchronous GPU schedule, executed and timed on the substrate;
* :mod:`repro.benchkit` / :mod:`repro.experiments` — the paper's two
  standalone instruments (all-to-all kernel, strided-copy study) and one
  driver per table/figure; whole-code speed is the repo benchmark
  (``python3 -m bench.run``), outside the package;
* :mod:`repro.io` — checkpoint/restart; :mod:`repro.cli` — ``python -m
  repro``.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
