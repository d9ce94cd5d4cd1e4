"""Tests for the fat-tree topology and bisection computation."""

import pytest

from repro.machine.topology import FatTree

pytest.importorskip("networkx")  # optional extra: pip install repro[topology]


class TestConstruction:
    def test_small_tree_has_all_levels(self):
        tree = FatTree(nodes=8, leaf_radix_down=4)
        kinds = {d["kind"] for _, d in tree.graph.nodes(data=True)}
        assert kinds == {"node", "leaf", "spine", "core"}

    def test_compute_node_count(self):
        tree = FatTree(nodes=36, leaf_radix_down=18)
        assert len(tree.compute_nodes()) == 36
        assert tree.leaf_count == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FatTree(nodes=0)
        with pytest.raises(ValueError):
            FatTree(nodes=4, leaf_radix_down=0)
        with pytest.raises(ValueError):
            FatTree(nodes=4, oversubscription=0.5)


class TestBisection:
    def test_nonblocking_tree_has_full_per_node_bisection(self):
        """Summit's fat tree is non-blocking: per-node bisection equals the
        injection bandwidth, so the measured bandwidth collapse at scale is
        a traffic effect, not structural oversubscription (paper Sec. 4.1).
        """
        tree = FatTree(nodes=36, leaf_radix_down=18, link_bw=23e9)
        per_node = tree.per_node_bisection()
        assert per_node == pytest.approx(23e9, rel=0.05)

    def test_oversubscribed_tree_loses_bisection(self):
        full = FatTree(nodes=36, leaf_radix_down=18, link_bw=23e9)
        thin = FatTree(
            nodes=36, leaf_radix_down=18, link_bw=23e9, oversubscription=2.0
        )
        assert thin.bisection_bandwidth() < full.bisection_bandwidth()
        assert thin.bisection_bandwidth() == pytest.approx(
            full.bisection_bandwidth() / 2.0, rel=0.05
        )

    def test_on_leaf_traffic_not_bisection_limited(self):
        """Two nodes under one leaf see the full node link, not the up-links."""
        tree = FatTree(nodes=2, leaf_radix_down=18, link_bw=10e9)
        assert tree.bisection_bandwidth() == pytest.approx(10e9)

    def test_bisection_scales_with_node_count(self):
        small = FatTree(nodes=18, leaf_radix_down=18)
        large = FatTree(nodes=72, leaf_radix_down=18)
        assert large.bisection_bandwidth() > small.bisection_bandwidth()
