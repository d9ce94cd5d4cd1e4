"""Slab (1-D) domain decomposition: index maps and scatter/gather (paper Fig. 1).

Array layout is ``[z, y, x]`` with x contiguous, as everywhere in this
reproduction.  Conventions follow the paper's Fig. 2:

* **Slab decomposition** over P ranks:

  - *spectral* state is distributed in kz-slabs: rank r owns kz indices
    ``[off_r, off_r + h_r)``; local shape ``(h_r, N, N//2+1)``;
  - *physical* state is distributed in y-slabs: local shape ``(N, h_r, N)``.

  With the default balanced partition every ``h_r = N/P``; an explicit
  ``heights=[...]`` (or a ``skew=`` factor via :func:`skewed_heights`)
  produces *uneven* slabs — the load-imbalance regime of ROADMAP item 3,
  where the paper's asynchronous schedule actually earns its keep.  The
  same per-rank heights are used for both the kz- and y-slabs so the
  slab transpose stays symmetric.  Zero-height ranks are legal (an
  idle rank still participates in collectives).

  One all-to-all transposes between the two (z <-> y exchange).

The 2-D pencil decomposition of the paper's CPU baseline (Yeung et al. PNAS
2015) exists on the cost plane only (``StepSimulation._cpu_rank``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "SlabDecomposition",
    "normalize_heights",
    "skewed_heights",
]


def _check_divides(n: int, p: int, what: str) -> None:
    if p < 1:
        raise ValueError(f"{what} must be >= 1")
    if n % p != 0:
        raise ValueError(
            f"{what}={p} does not divide N={n}: a balanced partition needs "
            f"N % {what} == 0 — pass explicit per-rank heights summing to "
            f"N={n} for an uneven decomposition"
        )


def normalize_heights(n: int, ranks: int, heights: Sequence[int]) -> tuple[int, ...]:
    """Validate an explicit per-rank slab partition of ``n`` planes.

    Raises :class:`ValueError` with a reasoned message (not a bare
    assertion) for every way a partition can be infeasible, so the CLI
    can surface it cleanly.
    """
    hs = tuple(int(h) for h in heights)
    if len(hs) != ranks:
        raise ValueError(
            f"heights has {len(hs)} entries but the communicator has "
            f"{ranks} ranks — provide one slab height per rank"
        )
    bad = [h for h in hs if h < 0]
    if bad:
        raise ValueError(f"heights must be >= 0, got {hs}")
    total = sum(hs)
    if total != n:
        raise ValueError(
            f"heights {hs} sum to {total} but the grid has N={n} planes "
            f"per axis — the per-rank slab extents must partition N exactly"
        )
    return hs


def skewed_heights(n: int, ranks: int, skew: float) -> tuple[int, ...]:
    """Deterministic uneven partition: rank 0 gets ~``skew``x the fair share.

    ``skew=1.0`` reproduces the near-balanced linspace partition; larger
    skews grow rank 0's slab at the expense of the others (mirroring the
    ``cluster-dlb-benchmarks`` unbalanced sweeps, where one node per pair
    is deliberately overloaded).  Always sums to ``n`` and never leaves a
    negative height.
    """
    if ranks < 1:
        raise ValueError("ranks must be >= 1")
    if skew < 1.0:
        raise ValueError(f"skew must be >= 1.0, got {skew}")
    if ranks == 1:
        return (n,)
    h0 = int(round(n * skew / (skew + ranks - 1)))
    h0 = max(0, min(n, h0))
    # Rounding down can leave rank 0 below the largest of the rest (n=1 on
    # two ranks gave (0, 1)); rank 0 is the weakly largest slab by contract.
    while h0 * (ranks - 1) < n - h0:
        h0 += 1
    bounds = np.linspace(0, n - h0, ranks).astype(int)
    rest = tuple(int(b - a) for a, b in zip(bounds[:-1], bounds[1:]))
    return (h0,) + rest


@dataclass(frozen=True)
class SlabDecomposition:
    """1-D slab decomposition of an N^3 domain over ``ranks`` processes.

    ``heights`` (optional) gives each rank's slab thickness along kz (and,
    symmetrically, along y); when omitted the balanced ``N/P`` partition is
    used and ``N % P`` must be 0.
    """

    n: int
    ranks: int
    heights: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.heights is None:
            _check_divides(self.n, self.ranks, "ranks")
        else:
            if self.ranks < 1:
                raise ValueError("ranks must be >= 1")
            hs = normalize_heights(self.n, self.ranks, self.heights)
            object.__setattr__(self, "heights", hs)

    # -- per-rank geometry ----------------------------------------------------

    @property
    def uniform(self) -> bool:
        """True when every rank owns the same slab thickness."""
        return self.heights is None or len(set(self.heights)) <= 1

    @property
    def rank_heights(self) -> tuple[int, ...]:
        """Resolved per-rank slab thicknesses (balanced or explicit)."""
        if self.heights is None:
            m = self.n // self.ranks
            return (m,) * self.ranks
        return self.heights

    def height(self, rank: int) -> int:
        self._check_rank(rank)
        return self.rank_heights[rank]

    def offset(self, rank: int) -> int:
        self._check_rank(rank)
        return sum(self.rank_heights[:rank])

    @property
    def max_height(self) -> int:
        return max(self.rank_heights)

    @property
    def mz(self) -> int:
        """Thickness of each spectral kz-slab — balanced partitions only."""
        return self._uniform_height("mz")

    @property
    def my(self) -> int:
        """Thickness of each physical y-slab — balanced partitions only."""
        return self._uniform_height("my")

    def _uniform_height(self, what: str) -> int:
        if not self.uniform:
            raise ValueError(
                f"{what} is undefined for uneven heights {self.rank_heights} "
                f"— use height(rank) / max_height"
            )
        return self.rank_heights[0]

    @property
    def nx_half(self) -> int:
        return self.n // 2 + 1

    def spectral_slice(self, rank: int) -> slice:
        """kz index range owned by ``rank``."""
        off = self.offset(rank)
        return slice(off, off + self.rank_heights[rank])

    def physical_slice(self, rank: int) -> slice:
        """y index range owned by ``rank``."""
        off = self.offset(rank)
        return slice(off, off + self.rank_heights[rank])

    def local_spectral_shape(self, rank: Optional[int] = None) -> tuple[int, int, int]:
        h = self._uniform_height("local slab") if rank is None else self.height(rank)
        return (h, self.n, self.nx_half)

    def local_physical_shape(self, rank: Optional[int] = None) -> tuple[int, int, int]:
        h = self._uniform_height("local slab") if rank is None else self.height(rank)
        return (self.n, h, self.n)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.ranks})")

    # -- scatter / gather -----------------------------------------------------

    def scatter_spectral(self, global_hat: np.ndarray) -> list[np.ndarray]:
        """Split a global spectral array (N, N, N//2+1) into kz-slabs."""
        if global_hat.shape != (self.n, self.n, self.nx_half):
            raise ValueError(f"bad global spectral shape {global_hat.shape}")
        return [
            np.ascontiguousarray(global_hat[self.spectral_slice(r)])
            for r in range(self.ranks)
        ]

    def gather_spectral(self, locals_: list[np.ndarray]) -> np.ndarray:
        """Inverse of :meth:`scatter_spectral`."""
        self.check_locals(locals_, self.local_spectral_shape)
        return np.concatenate(locals_, axis=0)

    def scatter_physical(self, global_u: np.ndarray) -> list[np.ndarray]:
        """Split a global physical array (N, N, N) into y-slabs."""
        if global_u.shape != (self.n, self.n, self.n):
            raise ValueError(f"bad global physical shape {global_u.shape}")
        return [
            np.ascontiguousarray(global_u[:, self.physical_slice(r), :])
            for r in range(self.ranks)
        ]

    def gather_physical(self, locals_: list[np.ndarray]) -> np.ndarray:
        """Inverse of :meth:`scatter_physical`."""
        self.check_locals(locals_, self.local_physical_shape)
        return np.concatenate(locals_, axis=1)

    def check_locals(self, locals_, shape_of, dtype=None) -> None:
        """One piece per rank, each ``shape_of(rank)`` — and ``dtype``, when
        given (a transform's ``out=``) — else a ``ValueError`` naming the
        rank."""
        if len(locals_) != self.ranks:
            raise ValueError(f"expected {self.ranks} local pieces, got {len(locals_)}")
        for r, piece in enumerate(locals_):
            want = shape_of(r)
            if piece.shape != want:
                raise ValueError(f"rank {r}: expected {want}, got {piece.shape}")
            if dtype is not None and piece.dtype != dtype:
                raise ValueError(
                    f"rank {r}: expected dtype {np.dtype(dtype)}, got {piece.dtype}"
                )

