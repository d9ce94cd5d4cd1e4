"""Simulated CUDA devices, streams and events on the discrete-event engine.

Semantics reproduced from the CUDA programming model as used by the paper:

* A *stream* is a FIFO: operations enqueued to the same stream execute
  in order, one at a time.
* Operations in *different* streams may overlap; ordering between streams is
  imposed only by *events* (``cudaEventRecord`` / ``cudaStreamWaitEvent``).
* ``cudaMemcpyAsync`` and friends return immediately on the host; the paper
  leans on this to batch pencils through the GPU while the CPU posts MPI.

Bandwidth-consuming operations are expressed as flows through
:class:`~repro.sim.resources.FairShareLink` objects, so a D2H copy occupies
both the GPU's NVLink and the socket's host-DRAM channel, contending with
MPI traffic exactly as on the real node.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Optional

from repro.machine.spec import GpuSpec
from repro.sim.engine import Engine, Signal, Timeout
from repro.sim.resources import FairShareLink, LinkSet
from repro.sim.trace import Tracer

__all__ = ["CudaDevice", "CudaEvent", "CudaStream"]

#: Host-side cost of issuing one asynchronous CUDA API call (seconds).
API_CALL_HOST_TIME = 1.5e-6

#: Relative arbitration weight of DMA-engine traffic on the host DRAM bus.
#: DMA reads hog the memory controller; concurrent NIC traffic is squeezed
#: to a small share (paper Sec. 5.2).
DMA_WEIGHT = 6.0


class CudaEvent:
    """A one-shot marker recorded into a stream."""

    __slots__ = ("signal", "name")

    def __init__(self, signal: Signal, name: str = "event"):
        self.signal = signal
        self.name = name

    @property
    def complete(self) -> bool:
        return self.signal.fired

    @property
    def time(self) -> Optional[float]:
        return self.signal.fire_time


class CudaStream:
    """An in-order execution queue on a device."""

    def __init__(self, device: "CudaDevice", name: str):
        self.device = device
        self.name = name
        self.lane = f"{device.name}.{name}"
        self._tail: Optional[Signal] = None

    # -- core enqueue --------------------------------------------------------

    def enqueue(
        self,
        name: str,
        category: str,
        factory: Callable[[], Generator],
        **meta: object,
    ) -> Signal:
        """Append an operation; returns its completion signal.

        ``factory`` produces a generator that performs the simulated work
        (yielding timeouts / flow completions).  The operation begins only
        when every previously enqueued operation on this stream is done.
        """
        engine = self.device.engine
        prev_tail = self._tail
        done = engine.signal(name=f"{self.lane}.{name}.done")

        def runner() -> Generator:
            if prev_tail is not None and not prev_tail.fired:
                yield prev_tail
            start = engine.now
            result = yield from factory()
            tracer = self.device.tracer
            if tracer is not None and category != "sync":
                tracer.record(category, self.lane, name, start, engine.now, **meta)
            done.fire(result)

        engine.process(runner(), name=f"{self.lane}.{name}")
        self._tail = done
        return done

    # -- convenience operations ----------------------------------------------

    def delay(self, name: str, category: str, duration: float, **meta: object) -> Signal:
        """A fixed-duration operation (e.g. a kernel priced by a cost model)."""

        def factory() -> Generator:
            yield Timeout(duration)

        return self.enqueue(name, category, factory, **meta)

    def flow_op(
        self,
        name: str,
        category: str,
        nbytes: float,
        links: Iterable[FairShareLink],
        setup: float = 0.0,
        max_rate: Optional[float] = None,
        weight: float = DMA_WEIGHT,
        **meta: object,
    ) -> Signal:
        """A bandwidth-consuming operation across ``links``."""
        links = tuple(links)

        def factory() -> Generator:
            if setup > 0:
                yield Timeout(setup)
            flow = self.device.links.transfer(
                nbytes, links, label=f"{self.lane}.{name}", max_rate=max_rate,
                weight=weight,
            )
            yield flow.done

        return self.enqueue(name, category, factory, nbytes=nbytes, **meta)

    def record_event(self, name: str = "event") -> CudaEvent:
        """cudaEventRecord: fires when all work enqueued so far completes."""
        sig = self.enqueue(name, "sync", _noop_factory)
        return CudaEvent(sig, name=name)

    def wait_event(self, event: CudaEvent) -> None:
        """cudaStreamWaitEvent: subsequent ops wait for ``event``."""

        def factory() -> Generator:
            if not event.signal.fired:
                yield event.signal

        self.enqueue(f"wait[{event.name}]", "sync", factory)

    def synchronize_signal(self) -> Signal:
        """A signal that fires when everything currently enqueued is done."""
        if self._tail is None:
            sig = self.device.engine.signal(name=f"{self.lane}.empty")
            sig.fire()
            return sig
        return self.record_event("synchronize").signal


def _noop_factory() -> Generator:
    return
    yield  # pragma: no cover - makes this a generator function


class CudaDevice:
    """One simulated GPU: NVLink links and streams.

    Parameters
    ----------
    dram_link:
        The socket's shared host-memory link; every host<->device copy also
        traverses it.
    """

    def __init__(
        self,
        engine: Engine,
        links: LinkSet,
        spec: GpuSpec,
        dram_link: FairShareLink,
        name: str = "gpu0",
        tracer: Optional[Tracer] = None,
    ):
        self.engine = engine
        self.links = links
        self.spec = spec
        self.name = name
        self.tracer = tracer
        self.dram_link = dram_link
        self.nvlink_h2d = links.link(f"{name}.nvlink.h2d", spec.nvlink_bw)
        self.nvlink_d2h = links.link(f"{name}.nvlink.d2h", spec.nvlink_bw)
        self._streams: dict[str, CudaStream] = {}

    # -- streams ----------------------------------------------------------------

    def stream(self, name: str) -> CudaStream:
        """Get or create a named stream (paper uses 'compute' + 'transfer')."""
        if name not in self._streams:
            self._streams[name] = CudaStream(self, name)
        return self._streams[name]

    # -- copies (priced, enqueued into a stream) -------------------------------

    def h2d_links(self) -> tuple[FairShareLink, FairShareLink]:
        return (self.dram_link, self.nvlink_h2d)

    def d2h_links(self) -> tuple[FairShareLink, FairShareLink]:
        return (self.dram_link, self.nvlink_d2h)
