"""Capacity planner: Summit-scale quotes from the step simulator, the
memory planner and the copy engines' prices."""

import time

import pytest

from repro.core.config import Algorithm
from repro.experiments import fig9, table1, table2
from repro.machine.spec import GiB
from repro.mpi.costmodel import alltoall_p2p_bytes
from repro.plan import (
    COPY_STRATEGIES,
    MACHINES,
    CapacityPlanner,
    bench_payload,
    machine_by_name,
)


@pytest.fixture(scope="module")
def summit_planner():
    planner = CapacityPlanner("summit")
    yield planner
    planner.close()


class TestQuote:
    def test_production_configuration_prices_in_seconds(self, summit_planner):
        """The acceptance bar: 18432^3 on 3072 Summit nodes, priced fast."""
        t0 = time.perf_counter()
        quote = summit_planner.quote(18432, 3072, tasks_per_node=6, q=1)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        assert quote.feasible
        # Paper Table 3: the async GPU run takes ~25 s/step at this point.
        assert 10.0 < quote.seconds_per_step < 60.0
        # Table 1: 227.8 GiB/node host, np=4, 1.90 GiB pencils.
        assert quote.npencils == 4
        assert quote.mem_per_node_gib == pytest.approx(227.8, rel=0.01)
        assert quote.pencil_bytes / GiB == pytest.approx(1.90, rel=0.01)
        # The per-peer A2A message matches the analytic model exactly.
        assert quote.a2a_p2p_bytes == alltoall_p2p_bytes(
            18432, 3072 * 6, 4, nv=3, q=1
        )
        assert quote.breakdown  # busy-time categories present

    def test_quote_slab_granularity(self, summit_planner):
        c = summit_planner.quote(18432, 3072, tasks_per_node=2, q="slab")
        assert c.feasible and c.q == c.npencils

    def test_default_nodes_picks_smallest_valid(self, summit_planner):
        quote = summit_planner.quote(18432)
        assert quote.nodes == 1536  # paper: valid counts are {1536, 3072}

    def test_infeasible_when_memory_exceeded(self, summit_planner):
        quote = summit_planner.quote(18432, 16)
        assert not quote.feasible
        assert quote.reason
        assert quote.seconds_per_step == 0.0

    def test_infeasible_when_machine_too_small(self, summit_planner):
        quote = summit_planner.quote(18432, 100_000)
        assert not quote.feasible

    def test_copy_strategies_price_differently(self, summit_planner):
        prices = {
            s: summit_planner.quote(18432, 3072, copy_strategy=s)
            .copy_seconds_per_pencil
            for s in COPY_STRATEGIES
        }
        assert all(p > 0 for p in prices.values())
        # auto prices as the minimum of the fixed strategies (Fig. 7).
        assert prices["auto"] == min(
            prices["per_chunk"], prices["memcpy2d"], prices["zero_copy"]
        )

    def test_unknown_strategy_rejected(self, summit_planner):
        with pytest.raises(ValueError, match="copy strategy"):
            summit_planner.quote(3072, 16, copy_strategy="warp")

    def test_mpi_only_cheaper_than_async_gpu(self, summit_planner):
        """Fig. 9: the MPI-only skeleton lower-bounds the full DNS."""
        full = summit_planner.quote(18432, 3072, tasks_per_node=2, q="slab")
        bound = summit_planner.quote(
            18432, 3072, tasks_per_node=2, q="slab",
            algorithm=Algorithm.MPI_ONLY,
        )
        assert bound.seconds_per_step < full.seconds_per_step


class TestSweep:
    def test_sweep_covers_grid_ladder(self, summit_planner):
        quotes = summit_planner.sweep(
            grids=(3072, 18432), copy_strategies=("memcpy2d", "zero_copy")
        )
        assert len(quotes) == 4
        assert {q.n for q in quotes} == {3072, 18432}
        assert all(q.feasible for q in quotes)

    def test_sweep_drops_infeasible_by_default(self, summit_planner):
        quotes = summit_planner.sweep(grids=(18432,), node_counts=(16,))
        assert quotes == []
        kept = summit_planner.sweep(
            grids=(18432,), node_counts=(16,), include_infeasible=True
        )
        assert len(kept) == 1 and not kept[0].feasible

    def test_bench_payload_shape(self, summit_planner):
        quotes = summit_planner.sweep(grids=(3072,))
        doc = bench_payload(quotes, machine="summit")
        assert doc["suite"] == "capacity"
        assert doc["machine"] == "summit"
        assert len(doc["results"]) == len(quotes)
        rec = doc["results"][0]
        assert rec["machine"] == "summit"
        assert isinstance(rec["seconds_per_step"], float)

    def test_quotes_are_deterministic(self, summit_planner):
        a = summit_planner.quote(18432, 3072)
        b = summit_planner.quote(18432, 3072)
        assert a.to_record() == b.to_record()


class TestMachines:
    def test_registry_builds_all_machines(self):
        for name in MACHINES:
            spec = machine_by_name(name)
            spec.validate()

    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError, match="unknown machine"):
            machine_by_name("aurora")

    @pytest.mark.parametrize("name", ("titan", "sierra", "exascale"))
    def test_cross_machine_quotes(self, name):
        planner = CapacityPlanner(name)
        try:
            quote = planner.quote(3072, nodes=None, tasks_per_node=1
                                  if name == "titan" else 2)
            assert quote.machine == name
            if quote.feasible:
                assert quote.seconds_per_step > 0
            else:
                assert quote.reason
        finally:
            planner.close()


class TestExperimentBackends:
    """Satellite 2: experiments regenerate at planner-chosen scale."""

    def test_table1_custom_cases(self, summit_planner):
        result = table1.run(machine=summit_planner.machine,
                            cases=[(18432, 1536), (18432, 3072)])
        assert len(result.rows) == 2
        # Only the (18432, 3072) case is a published Table 1 row.
        assert len(result.comparisons) == 3

    def test_table1_default_matches_paper(self, summit_planner):
        result = table1.run(machine=summit_planner.machine)
        assert len(result.rows) == 4
        assert all(abs(c.error) < 0.05 for c in result.comparisons)

    def test_table2_planner_cells_at_scale(self, summit_planner):
        cells = table2.planner_cells(summit_planner.machine, n=18432)
        assert {c.nodes for c in cells} == {1536, 3072}
        result = table2.run(machine=summit_planner.machine, cells=cells)
        assert len(result.analytic_bw) == 6
        assert result.comparisons == []  # no published reference rows
        assert result.max_analytic_vs_simulated_gap() < 0.25

    def test_table2_planner_cells_match_paper_sizes(self, summit_planner):
        """The derived case-C cell at 3072 nodes reproduces the published
        per-peer message (1.90 MB) from pure geometry."""
        cells = table2.planner_cells(summit_planner.machine, n=18432,
                                     node_counts=(3072,))
        by_case = {c.case: c for c in cells}
        assert by_case["C"].p2p_mib == pytest.approx(1.90, rel=0.02)
        assert by_case["A"].p2p_mib == pytest.approx(0.053, rel=0.05)

    def test_fig9_custom_cases(self, summit_planner):
        result = fig9.run(machine=summit_planner.machine,
                          cases=[(3072, 16), (6144, 128)])
        assert result.node_counts == (16, 128)
        for series in result.times.values():
            assert set(series) == {16, 128}
            assert all(t > 0 for t in series.values())
