"""Fat-tree interconnect topology built with networkx (optional extra
``topology``; imported when a tree is built, not with the package).

Summit's interconnect is a three-level non-blocking fat tree of dual-rail EDR
InfiniBand.  The all-to-all *timing* model in :mod:`repro.machine.network`
uses calibrated efficiency curves; this module provides the structural
counterpart: an explicit switch/node graph on which bisection bandwidth and
path diversity can be computed and sanity-checked against the published
figures (23 GB/s injection, 46 GB/s full-duplex bisection per node pair).

It is used by the tests to confirm that the congestion factor ``g(M)`` is a
property of *traffic*, not of structural oversubscription: the tree built
here is non-blocking (full bisection), matching Summit, so the measured
bandwidth loss at scale must come from routing/endpoint effects — which is
exactly how the paper frames it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

__all__ = ["FatTree", "bisection_bandwidth"]


@dataclass(frozen=True)
class FatTreeLevelSpec:
    """Link bandwidth (bytes/s per link) used when annotating edges."""

    node_to_leaf: float
    leaf_to_spine: float
    spine_to_core: float


class FatTree:
    """A three-level fat tree: nodes -> leaf -> spine -> core.

    Parameters
    ----------
    nodes:
        Number of compute nodes (leaves of the tree).
    leaf_radix_down:
        Compute nodes per leaf switch (18 on Summit's director groups).
    oversubscription:
        Up-link reduction factor per level; 1.0 builds a non-blocking tree.
    link_bw:
        Bandwidth of one node up-link (bytes/s); Summit: 23 GB/s effective
        (dual-rail EDR).
    """

    def __init__(
        self,
        nodes: int,
        leaf_radix_down: int = 18,
        oversubscription: float = 1.0,
        link_bw: float = 23e9,
    ):
        if nodes < 1:
            raise ValueError("fat tree needs at least one node")
        if leaf_radix_down < 1:
            raise ValueError("leaf radix must be positive")
        if oversubscription < 1.0:
            raise ValueError("oversubscription factor must be >= 1")
        self.nodes = nodes
        self.leaf_radix_down = leaf_radix_down
        self.oversubscription = oversubscription
        self.link_bw = link_bw
        self.graph = self._build()

    def _build(self) -> nx.Graph:
        import networkx as nx

        g = nx.Graph()
        n_leaf = math.ceil(self.nodes / self.leaf_radix_down)
        # Up-capacity per leaf switch (bytes/s), shrunk by oversubscription.
        nodes_on = [
            min(self.leaf_radix_down, self.nodes - i * self.leaf_radix_down)
            for i in range(n_leaf)
        ]
        n_spine = max(1, math.ceil(n_leaf / 2))
        n_core = max(1, math.ceil(n_spine / 2))

        for i in range(self.nodes):
            g.add_node(("node", i), kind="node")
        for i in range(n_leaf):
            g.add_node(("leaf", i), kind="leaf")
        for i in range(n_spine):
            g.add_node(("spine", i), kind="spine")
        for i in range(n_core):
            g.add_node(("core", i), kind="core")

        for i in range(self.nodes):
            leaf = i // self.leaf_radix_down
            g.add_edge(("node", i), ("leaf", leaf), capacity=self.link_bw)

        for i in range(n_leaf):
            # Total up-capacity of the leaf equals its down-capacity divided
            # by the oversubscription factor, spread over all spines.
            up_total = nodes_on[i] * self.link_bw / self.oversubscription
            for j in range(n_spine):
                g.add_edge(
                    ("leaf", i), ("spine", j), capacity=up_total / n_spine
                )
        for i in range(n_spine):
            spine_up = (
                sum(nodes_on) * self.link_bw / (self.oversubscription * n_spine)
            )
            for j in range(n_core):
                g.add_edge(
                    ("spine", i), ("core", j), capacity=spine_up / n_core
                )
        return g

    @property
    def leaf_count(self) -> int:
        return sum(1 for _, d in self.graph.nodes(data=True) if d["kind"] == "leaf")

    def compute_nodes(self) -> list[tuple[str, int]]:
        return [n for n, d in self.graph.nodes(data=True) if d["kind"] == "node"]

    def bisection_bandwidth(self) -> float:
        """Max-flow min-cut between the two halves of the compute nodes.

        Returns the aggregate one-direction bandwidth (bytes/s) crossing the
        narrowest cut separating the first half of nodes from the second.
        """
        return bisection_bandwidth(self.graph, self.compute_nodes())

    def per_node_bisection(self) -> float:
        """Bisection bandwidth normalized per node in the smaller half."""
        half = self.nodes // 2
        if half == 0:
            return float("inf")
        return self.bisection_bandwidth() / half


def bisection_bandwidth(
    graph: nx.Graph, compute_nodes: Iterable[tuple[str, int]]
) -> float:
    """Min-cut capacity between the first and second half of ``compute_nodes``.

    A super-source is attached to the first half and a super-sink to the
    second half with infinite-capacity edges, then a single max-flow yields
    the bisection.
    """
    import networkx as nx

    nodes = list(compute_nodes)
    if len(nodes) < 2:
        return float("inf")
    half = len(nodes) // 2
    g = graph.copy()
    source = ("super", "s")
    sink = ("super", "t")
    g.add_node(source)
    g.add_node(sink)
    big = float(sum(d.get("capacity", 0.0) for _, _, d in graph.edges(data=True))) + 1.0
    for n in nodes[:half]:
        g.add_edge(source, n, capacity=big)
    for n in nodes[half:]:
        g.add_edge(n, sink, capacity=big)
    value, _ = nx.maximum_flow(g, source, sink, capacity="capacity")
    return value
