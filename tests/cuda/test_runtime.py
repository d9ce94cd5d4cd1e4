"""Tests for simulated CUDA streams and events."""

import pytest

from repro.cuda.runtime import CudaDevice
from repro.machine.summit import summit_gpu
from repro.sim.engine import Engine, Timeout
from repro.sim.resources import LinkSet
from repro.sim.trace import Tracer


@pytest.fixture()
def device():
    eng = Engine()
    links = LinkSet(eng)
    dram = links.link("dram", 135e9)
    dev = CudaDevice(eng, links, summit_gpu(), dram, name="gpu0", tracer=Tracer())
    return eng, dev


class TestStreams:
    def test_stream_is_fifo(self, device):
        eng, dev = device
        s = dev.stream("compute")
        done1 = s.delay("k1", "fft", 1.0)
        done2 = s.delay("k2", "fft", 2.0)
        eng.run()
        assert done1.fire_time == pytest.approx(1.0)
        assert done2.fire_time == pytest.approx(3.0)

    def test_streams_run_concurrently(self, device):
        eng, dev = device
        a = dev.stream("compute").delay("k", "fft", 2.0)
        b = dev.stream("transfer").delay("c", "h2d", 2.0)
        eng.run()
        assert a.fire_time == pytest.approx(2.0)
        assert b.fire_time == pytest.approx(2.0)

    def test_stream_identity(self, device):
        _, dev = device
        assert dev.stream("x") is dev.stream("x")
        assert dev.stream("x") is not dev.stream("y")

    def test_event_orders_across_streams(self, device):
        eng, dev = device
        compute = dev.stream("compute")
        transfer = dev.stream("transfer")
        transfer.delay("h2d", "h2d", 3.0)
        ev = transfer.record_event("h2d_done")
        compute.wait_event(ev)
        k = compute.delay("fft", "fft", 1.0)
        eng.run()
        assert ev.time == pytest.approx(3.0)
        assert k.fire_time == pytest.approx(4.0)

    def test_wait_on_fired_event_is_free(self, device):
        eng, dev = device
        transfer = dev.stream("transfer")
        compute = dev.stream("compute")
        ev = transfer.record_event("empty")
        eng.run()
        compute.wait_event(ev)
        k = compute.delay("fft", "fft", 1.0)
        eng.run()
        assert k.fire_time == pytest.approx(1.0)

    def test_synchronize_signal_covers_all_prior_work(self, device):
        eng, dev = device
        s = dev.stream("compute")
        s.delay("k1", "fft", 1.5)
        s.delay("k2", "fft", 1.5)
        sync = s.synchronize_signal()
        eng.run()
        assert sync.fire_time == pytest.approx(3.0)

    def test_synchronize_empty_stream_fires_immediately(self, device):
        _, dev = device
        sync = dev.stream("fresh").synchronize_signal()
        assert sync.fired

    def test_flow_op_moves_bytes_through_links(self, device):
        eng, dev = device
        s = dev.stream("transfer")
        done = s.flow_op("h2d", "h2d", 50e9, dev.h2d_links())
        eng.run()
        # 50 GB over a 50 GB/s NVLink (DRAM is wider): 1 second.
        assert done.fire_time == pytest.approx(1.0, rel=1e-6)

    def test_flow_op_with_setup_and_rate_cap(self, device):
        eng, dev = device
        s = dev.stream("transfer")
        done = s.flow_op(
            "d2h", "d2h", 10e9, dev.d2h_links(), setup=0.5, max_rate=10e9
        )
        eng.run()
        assert done.fire_time == pytest.approx(1.5, rel=1e-6)

    def test_trace_records_lane_and_category(self, device):
        eng, dev = device
        dev.stream("compute").delay("k", "fft", 1.0)
        eng.run()
        acts = dev.tracer.filter(category="fft")
        assert len(acts) == 1
        assert acts[0].lane == "gpu0.compute"

    def test_sync_ops_not_traced(self, device):
        eng, dev = device
        s = dev.stream("compute")
        s.record_event("e")
        eng.run()
        assert len(dev.tracer) == 0


class TestCrossStreamPipeline:
    def test_double_buffered_pipeline_overlaps(self, device):
        """The Fig.-4 pattern: transfer of pencil ip+1 overlaps compute of ip."""
        eng, dev = device
        transfer = dev.stream("transfer")
        compute = dev.stream("compute")
        n = 4
        copy_t, fft_t = 1.0, 1.0
        last = None
        for ip in range(n):
            transfer.delay(f"h2d[{ip}]", "h2d", copy_t)
            ev = transfer.record_event(f"h2d[{ip}]")
            compute.wait_event(ev)
            last = compute.delay(f"fft[{ip}]", "fft", fft_t)
        eng.run()
        # Perfect overlap: h2d[0] fill + n sequential ffts.
        assert last.fire_time == pytest.approx(copy_t + n * fft_t)
