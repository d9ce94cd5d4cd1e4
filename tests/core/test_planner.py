"""Tests for the memory planner (paper Sec. 3.5 / Table 1)."""

import pytest

from repro.core.planner import MemoryPlanner, PlannerAssumptions
from repro.machine.spec import GiB


@pytest.fixture()
def planner(machine):
    return MemoryPlanner(machine)


class TestTable1Exact:
    """Every number in Table 1 must reproduce exactly."""

    @pytest.mark.parametrize(
        "nodes,n,mem_gib,npencils,pencil_gib",
        [
            (16, 3072, 202.5, 3, 2.25),
            (128, 6144, 202.5, 3, 2.25),
            (1024, 12288, 202.5, 3, 2.25),
            (3072, 18432, 227.8, 4, 1.90),
        ],
    )
    def test_row(self, planner, nodes, n, mem_gib, npencils, pencil_gib):
        row = planner.plan(n, nodes)
        assert row.memory_per_node_gib == pytest.approx(mem_gib, rel=1e-3)
        assert row.npencils == npencils
        assert row.pencil_gib == pytest.approx(pencil_gib, rel=2e-3)

    def test_min_nodes_18432_is_1302(self, planner):
        assert planner.min_nodes(18432) == 1302

    def test_valid_node_counts_18432(self, planner):
        """Sec 3.5: 'the only 2 possible values of M are thus 1536 and 3072'."""
        assert planner.valid_node_counts(18432) == [1536, 3072]


class TestMechanics:
    def test_memory_scales_inversely_with_nodes(self, planner):
        m1 = planner.bytes_per_node(6144, 128)
        m2 = planner.bytes_per_node(6144, 256)
        assert m1 == pytest.approx(2 * m2)

    def test_min_pencils_monotone_in_problem_size(self, planner):
        np1 = planner.min_pencils(6144, 128)
        np2 = planner.min_pencils(12288, 512)  # 2x the per-node volume
        assert np2 > np1

    def test_gpu_requirement_fits_at_plan(self, planner, machine):
        """The planned np always fits; np-1 never does (minimality)."""
        for nodes, n in [(16, 3072), (3072, 18432)]:
            np_ = planner.min_pencils(n, nodes)
            assert planner.gpu_bytes_required(n, nodes, np_) <= (
                machine.node.gpu_memory_bytes
            )
            if np_ > 1:
                assert planner.gpu_bytes_required(n, nodes, np_ - 1) > (
                    machine.node.gpu_memory_bytes
                )

    def test_pencil_bytes_formula(self, planner):
        # 4 bytes * N^3 / (M * np), one variable.
        assert planner.pencil_bytes(3072, 16, 3) == pytest.approx(
            4 * 3072**3 / (16 * 3)
        )
        assert planner.pencil_bytes(3072, 16, 3, nvars=3) == pytest.approx(
            3 * 4 * 3072**3 / (16 * 3)
        )

    def test_problem_too_big_rejected(self, planner):
        with pytest.raises(ValueError):
            planner.plan(18432, 8)

    def test_invalid_inputs_rejected(self, planner):
        with pytest.raises(ValueError):
            planner.plan(0, 16)
        with pytest.raises(ValueError):
            planner.bytes_per_node(1024, 0)
        with pytest.raises(ValueError):
            planner.pencil_bytes(1024, 4, 0)

    def test_assumption_validation(self):
        with pytest.raises(ValueError):
            PlannerAssumptions(d_variables=30, d_table=25)
        with pytest.raises(ValueError):
            PlannerAssumptions(gpu_overhead=0.5)

    def test_valid_node_counts_respect_memory_floor(self, planner):
        counts = planner.valid_node_counts(12288)
        assert all(c >= planner.min_nodes(12288) for c in counts)
        # And divisibility for both rank layouts.
        assert all(12288 % (c * 6) == 0 for c in counts)

    @pytest.mark.parametrize("options", [(2, 6), (6,), (2,)])
    def test_valid_node_counts_equal_the_scan(self, options):
        """The divisors of N / lcm(options) in [min_nodes, total_nodes] are
        exactly the node counts a scan of every M accepts."""
        from repro.plan.capacity import MACHINES

        for name, build in MACHINES.items():
            planner = MemoryPlanner(build())
            for n in (3072, 6144, 12288, 18432, 1000):
                scan = [m for m in range(planner.min_nodes(n),
                                         planner.machine.total_nodes + 1)
                        if all(n % (m * t) == 0 for t in options)]
                assert planner.valid_node_counts(n, options) == scan, (name, n)

    def test_titan_has_no_balanced_count_at_12288(self):
        from repro.plan.capacity import CapacityPlanner

        with pytest.raises(ValueError, match="no load-balanced node count"):
            CapacityPlanner("titan").default_nodes(12288)

    def test_custom_assumptions_change_results(self, machine):
        tight = MemoryPlanner(
            machine, PlannerAssumptions(gpu_overhead=2.5)
        )
        loose = MemoryPlanner(
            machine, PlannerAssumptions(gpu_overhead=1.0)
        )
        assert tight.min_pencils(18432, 3072) > loose.min_pencils(18432, 3072)
