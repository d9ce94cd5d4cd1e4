"""DLB-style lend/reclaim of pencil work between rank compute lanes.

The paper's Fig. 4 schedule is *static*: pencil ``(ip, r)`` always runs on
rank ``r``'s compute stream.  When one rank is slower than its peers (the
Summit regime ROADMAP item 3 targets, and the scenario the
``cluster-dlb-benchmarks`` unbalanced sweeps measure), the static schedule
stalls the whole in-flight window on the slow rank while its peers idle.

:class:`DlbPolicy` is the dynamic alternative: a deterministic
longest-processing-time assignment over per-lane *virtual clocks*.  Each
compute lane carries a clock of model-priced work assigned so far; an item
whose owner lane is ahead of the least-loaded lane by more than
``lend_margin`` is *lent* to that lane, and the first item an owner runs on
its own lane again afterwards *reclaims* it.  Because the decision uses
priced costs — never wall-clock — the assignment is a pure function of
(costs, item order), so:

* the same inputs produce the same lane assignment on every backend
  (``sync``, ``threads``), making ``pencils_lent`` /
  ``pencils_reclaimed`` assertable in tests rather than flaky;
* results stay bit-identical to the static schedule: lending moves *where*
  a pencil's compute runs, never *what* it computes — the per-item event
  chain (H2D -> compute -> D2H) and the bounded window that protects ring
  slots are untouched.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["DlbPolicy"]


class DlbPolicy:
    """Deterministic lend/reclaim assignment of owned items to lanes.

    Parameters
    ----------
    lanes:
        Number of compute lanes (one per rank).
    mode:
        ``"pinned"`` — every item runs on its owner's lane (per-rank lanes
        but no migration; the counters stay 0); ``"lend"`` — items migrate
        to the least-loaded lane when the owner is behind.
    costs:
        Optional per-lane relative cost weights (e.g. the imbalance plan's
        slowdown factors): work assigned to lane ``l`` advances its clock
        by ``cost * costs[l]`` — a lent pencil is priced at the *helper's*
        speed, which is exactly why lending pays.
    lend_margin:
        Minimum clock lead (in priced seconds) the owner must have over the
        least-loaded lane before an item is lent; 0 lends eagerly.
    """

    def __init__(
        self,
        lanes: int,
        mode: str = "lend",
        costs: Optional[Sequence[float]] = None,
        lend_margin: float = 0.0,
    ):
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        if mode not in ("pinned", "lend"):
            raise ValueError(f"mode={mode!r} must be 'pinned' or 'lend'")
        if costs is not None and len(costs) != lanes:
            raise ValueError(
                f"expected {lanes} lane cost weights, got {len(costs)}"
            )
        self.lanes = int(lanes)
        self.mode = mode
        self.costs = (
            tuple(float(c) for c in costs)
            if costs is not None
            else (1.0,) * lanes
        )
        if any(c <= 0 for c in self.costs):
            raise ValueError(f"lane cost weights must be > 0, got {self.costs}")
        self.lend_margin = float(lend_margin)
        self.clock = [0.0] * self.lanes
        #: Items that ran on a lane other than their owner's.
        self.pencils_lent = 0
        #: Items an owner ran on its own lane again after having lent.
        self.pencils_reclaimed = 0
        self._lent_owners: set[int] = set()

    def assign(self, item: int, owner: int, cost: float = 1.0) -> int:
        """Pick the lane for ``item`` and advance that lane's clock."""
        if not 0 <= owner < self.lanes:
            raise ValueError(f"owner {owner} out of range [0, {self.lanes})")
        cost = float(cost)
        lane = owner
        if self.mode == "lend":
            fastest = min(range(self.lanes), key=lambda l: (self.clock[l], l))
            if (
                fastest != owner
                and self.clock[owner] - self.clock[fastest] > self.lend_margin
            ):
                lane = fastest
                self.pencils_lent += 1
                self._lent_owners.add(owner)
            elif owner in self._lent_owners:
                self._lent_owners.discard(owner)
                self.pencils_reclaimed += 1
        self.clock[lane] += cost * self.costs[lane]
        return lane

    @property
    def makespan(self) -> float:
        """Priced finish time of the most loaded lane (virtual seconds)."""
        return max(self.clock)
