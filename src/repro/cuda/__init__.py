"""Simulated CUDA runtime.

The paper drives its GPUs through CUDA Fortran: two CUDA streams (compute +
transfer), CUDA events for cross-stream ordering, ``cudaMemcpy2DAsync`` for
strided host<->device movement, custom zero-copy kernels for complex-stride
unpacks, and cuFFT for the 1-D transforms.  This package reproduces those
semantics and costs on the discrete-event engine:

* :mod:`repro.cuda.runtime` — devices, streams (FIFO, in-order), events
  (one-shot, cross-stream synchronization), API-call overhead accounting;
* :mod:`repro.cuda.memcpy` — cost models for the three strided-copy
  strategies compared in the paper's Fig. 7;
* :mod:`repro.cuda.kernels` — zero-copy kernel throughput vs thread blocks
  (Fig. 8), pack/unpack and pointwise kernels;
* :mod:`repro.cuda.cufft` — batched 1-D FFT cost model (c2c and r2c/c2r);
* :mod:`repro.cuda.copyengine` — *executable* versions of the three copy
  strategies plus the runtime autotuner that picks between them;
* :mod:`repro.cuda.arena` — the data plane's device: the byte-budgeted
  arena, the pencil rings claimed from it once, and their sizing rule, which
  the out-of-core engine runs on and admission control quotes.
"""

from repro.cuda.copyengine import (
    AutoEngine,
    Batched2DEngine,
    ChunkLayout,
    CopyAutotuner,
    CopyEngine,
    ENGINE_NAMES,
    PerChunkEngine,
    ProbeResult,
    ZeroCopyEngine,
    make_engine,
)
from repro.cuda.runtime import CudaDevice, CudaEvent, CudaStream
from repro.cuda.memcpy import (
    CopyStrategy,
    StridedCopySpec,
    time_memcpy_async_per_chunk,
    time_memcpy2d_async,
    time_zero_copy_kernel,
    strided_copy_time,
)
from repro.cuda.cufft import CufftPlan, fft_time
from repro.cuda.kernels import (
    pointwise_kernel_time,
    transpose_kernel_time,
    zero_copy_bandwidth,
)

__all__ = [
    "AutoEngine",
    "Batched2DEngine",
    "ChunkLayout",
    "CopyAutotuner",
    "CopyEngine",
    "CopyStrategy",
    "CudaDevice",
    "ENGINE_NAMES",
    "PerChunkEngine",
    "ProbeResult",
    "ZeroCopyEngine",
    "make_engine",
    "CudaEvent",
    "CudaStream",
    "CufftPlan",
    "StridedCopySpec",
    "fft_time",
    "pointwise_kernel_time",
    "strided_copy_time",
    "time_memcpy2d_async",
    "time_memcpy_async_per_chunk",
    "time_zero_copy_kernel",
    "transpose_kernel_time",
    "zero_copy_bandwidth",
]
