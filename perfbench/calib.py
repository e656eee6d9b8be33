"""Machine-speed calibration for op timings on a shared host.

On a small shared host the CPU's speed drifts by tens of percent within
seconds, and a fixed BLAS kernel's time swings with the library's. Each op
is therefore bracketed by a calibration kernel, a 256 x 256 complex matmul
whose median over a few repeats is taken just before and just after, and its
time is reported as

    normalized = wall * NOMINAL_S / min(kernel before, kernel after)

that is, in seconds on a machine running the kernel in NOMINAL_S. A change
to spinqfi moves the op but not the kernel, so it shows in full; a drift of
the whole machine moves both and cancels. Taking the faster of the two
kernel readings ignores a reading slowed by waking an idle BLAS thread.

For cold CLI ops, whose cost is interpreter start and imports, the kernel
tracks the drift less closely but still halves it. Set-up times stay in
wall-clock seconds.
"""
import statistics
import time

import numpy as np

NOMINAL_S = 1.6e-3     # the kernel's median on a shared 2-core x86 host, 2 BLAS threads
REPEATS = 7
_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(256, 256)) + 1j * _RNG.normal(size=(256, 256))


def kernel_s() -> float:
    """Median time of the calibration kernel."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _A @ _A
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor taking a wall time measured between two kernel timings to
    nominal-speed seconds."""
    return NOMINAL_S / min(before, after)
