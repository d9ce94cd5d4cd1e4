"""Seeded per-rank slowdown plans: load imbalance as a first-class scenario.

Chatterjee et al.'s 196608-core pseudo-spectral scaling study (PAPERS.md)
shows load imbalance — not FLOPs — caps strong scaling, and the paper's
asynchronous Fig. 4 schedule only pays off when some rank *is* slower than
its peers.  :class:`ImbalancePlan` makes that regime reproducible: a frozen,
seeded description of which ranks are slow, by how much, and on which stage
categories, consumed by

* :class:`repro.verify.fuzz.FuzzBackend` — wall-time injection: an op in a
  slow rank's category sleeps ``(factor - 1) x`` its measured duration
  after running (multiplicative slowdown, thread and sync backends);
* the out-of-core engine's DLB pricing — ``plan.factor(r)`` feeds the
  :class:`repro.exec.DlbPolicy` lane cost weights, so the model-priced
  lend/reclaim assignment matches the injected wall-time skew;
* :mod:`repro.benchkit.imbalance` — cost injection: the same factors
  weight the :class:`repro.exec.DlbPolicy` lane clocks its model rows read.

Like every verify plan, the injection changes *when* work runs, never
*what* it computes — fuzzed runs must stay bit-identical to the unfuzzed
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["ImbalancePlan"]


@dataclass(frozen=True)
class ImbalancePlan:
    """Deterministic per-rank slowdown factors.

    ``slow_ranks=None`` resolves to one seeded victim rank (the common
    Summit failure mode: a single straggler node); pass an explicit tuple
    to slow several.  ``factor(rank)`` is ``skew`` for slow ranks and 1.0
    otherwise.  ``categories`` uses the pipeline's span categories
    (``fft``, ``h2d``, ``d2h``, ``mpi``); an ``mpi`` imbalance applies to
    every rank's collectives — a collective is as slow as its slowest
    participant.
    """

    ranks: int
    skew: float = 1.0
    categories: tuple[str, ...] = ("fft",)
    slow_ranks: Optional[tuple[int, ...]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ranks < 1:
            raise ValueError(f"ranks must be >= 1, got {self.ranks}")
        if self.skew < 1.0:
            raise ValueError(f"skew must be >= 1.0, got {self.skew}")
        if self.slow_ranks is None:
            rng = np.random.default_rng([self.seed, self.ranks, 0x51_0E])
            victim = int(rng.integers(0, self.ranks))
            object.__setattr__(self, "slow_ranks", (victim,))
        else:
            sr = tuple(sorted(int(r) for r in set(self.slow_ranks)))
            bad = [r for r in sr if not 0 <= r < self.ranks]
            if bad:
                raise ValueError(
                    f"slow ranks {bad} out of range [0, {self.ranks})"
                )
            object.__setattr__(self, "slow_ranks", sr)
        object.__setattr__(self, "categories", tuple(self.categories))

    def factor(self, rank: int) -> float:
        """Multiplicative slowdown of ``rank`` (1.0 = full speed)."""
        if not 0 <= rank < self.ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.ranks})")
        return self.skew if rank in self.slow_ranks else 1.0

    @property
    def factors(self) -> tuple[float, ...]:
        return tuple(self.factor(r) for r in range(self.ranks))

    @property
    def max_factor(self) -> float:
        return max(self.factors)

    def applies(self, category: str) -> bool:
        return self.skew > 1.0 and category in self.categories

    @classmethod
    def from_profile(cls, profile, ranks: int) -> "ImbalancePlan | None":
        """The plan a :class:`~repro.verify.fuzz.FuzzProfile` implies.

        Returns ``None`` when the profile injects no imbalance
        (``imbalance_skew`` missing or 1.0), so callers can treat legacy
        profiles uniformly.
        """
        skew = float(getattr(profile, "imbalance_skew", 1.0))
        if skew <= 1.0:
            return None
        slow = getattr(profile, "imbalance_ranks", None)
        return cls(
            ranks=ranks,
            skew=skew,
            categories=tuple(
                getattr(profile, "imbalance_categories", ("fft",))
            ),
            slow_ranks=tuple(slow) if slow is not None else None,
            seed=int(getattr(profile, "seed", 0)),
        )
