"""Machine-speed probe: scales measured CPU seconds to a reference speed.

On a shared virtual machine the same single-threaded work takes from 1x to
almost 2x the CPU seconds, depending on what the neighbours of the virtual
CPU are doing; the phases come and go within seconds and last minutes, so
medians within one run do not remove them.  The probe measures that speed
while the workload runs.

:class:`SpeedProbe` arms a profiling timer; every ``interval_s`` of process
CPU time the handler runs a fixed kernel twice and records the thread CPU
time of the second run: the first refills the caches, so the sample
measures how fast the virtual CPU executes, which is what varies.
The probe's own time is kept out of the clocks the benchmark reads
(:meth:`SpeedProbe.clocks`), and each stretch of CPU time between two
samples is multiplied by ``ref_s / (median of the recent samples)``: the
sum is the CPU seconds the work would take on a machine where the kernel
takes ``ref_s``.

:class:`NumpyKernel` is shaped like the program's hot path (8-dimensional
Newton steps with a Cholesky solve, small-array numpy calls, sorts,
sparse products, a pass over memory and Python loops);
:func:`python_kernel` is pure Python, for sampling an import, before numpy
is loaded.  Neither uses forestdens, so a change to the program cannot
change them.

While a profiling timer is armed, ``time.process_time`` only advances at
scheduler ticks; ``time.thread_time`` stays exact, so the benchmark times
its single-threaded ops with it.
"""

from __future__ import annotations

import signal
import statistics
import time

# Typical sample times of the kernels on a 2-vCPU Intel Xeon virtual
# machine; they fix the unit of the scaled times, not their spread.
NUMPY_REF_S = 3.0e-3
PYTHON_REF_S = 0.11e-3


def python_kernel() -> int:
    return sum(i * i for i in range(2000))


class NumpyKernel:
    """Newton steps on a 64-node, 8-parameter series family, Cholesky solves,
    small-array ufuncs, sorts and cumulative sums, a sparse product with a
    masked mean, one pass over a 4.8 MB array and pure-Python loops, on fixed
    inputs; each kind takes a fifth to a third of the time."""

    def __init__(self):
        import numpy as np
        from scipy import sparse
        from scipy.linalg import cho_factor, cho_solve

        self.np, self.cho_factor, self.cho_solve = np, cho_factor, cho_solve
        rng = np.random.default_rng(20230923)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        self.phi = np.polynomial.legendre.legvander(nodes, 8)[:, 1:]
        self.w = 0.5 * weights
        self.target = rng.random(8) * 0.1
        self.x = rng.random((200, 4))
        self.rho = rng.random((200, 8))
        m = rng.random((30, 8))
        self.v = m.T @ m + np.eye(8)
        self.stream = rng.random(600_000)  # 4.8 MB, more than a core's own caches
        member = sparse.random(224, 1000, density=0.02, format="csr", random_state=1)
        groups = sparse.random(1000, 56, density=0.05, format="csr", random_state=2)
        self.member, self.groups = member, groups
        self.h = rng.random((224, 8))

    def __call__(self) -> float:
        np, cho_factor, cho_solve = self.np, self.cho_factor, self.cho_solve
        phi, w = self.phi, self.w
        theta = np.zeros(8)
        for _ in range(8):
            g = phi @ theta
            e = np.exp(g - g.max())
            wd = w * e / (w @ e)
            mu = phi.T @ wd
            v = (phi * wd[:, None]).T @ phi - np.outer(mu, mu)
            theta = theta + 0.01 * cho_solve(cho_factor(0.5 * (v + v.T) + np.eye(8)),
                                             self.target - mu)
        acc = float(theta[0])
        for _ in range(8):
            acc += float(cho_solve(cho_factor(self.v), self.target)[0])
        col = self.x[:, 0]
        for _ in range(80):
            a = col * 2.0 + 1.0
            acc += float(a.sum()) + float(np.maximum(a, 1.5)[0])
        for d in range(4):
            order = np.argsort(self.x[:, d], kind="stable")
            csum = np.cumsum(self.rho[order], axis=0)
            acc += float(csum[np.searchsorted(self.x[order, d], 0.5)] @ csum[-1])
        clean = (self.member @ self.groups).toarray().T == 0
        acc += float(((clean @ self.h) / clean.sum(axis=1)[:, None]).sum())
        acc += float(self.stream.sum())
        return acc + sum(python_kernel() for _ in range(5))


class SpeedProbe:
    """Samples machine speed while started; reads clocks net of its own time.

    :meth:`clocks` returns thread CPU, wall and reference seconds, all three
    without the time spent in the probe.  Reference seconds accumulate the
    CPU time between two samples times ``ref_s / median(WINDOW samples up to
    the first of the two)``, so they follow a speed change within an op, and
    a reading between two samples is exactly what the integration will
    count up to that point.  Unstarted, the probe takes no samples and
    reference seconds equal CPU seconds.
    """

    WINDOW = 5

    def __init__(self, kernel, ref_s: float, interval_s: float = 0.15):
        self.kernel, self.ref_s, self.interval_s = kernel, ref_s, interval_s
        self.samples: list[float] = []
        self.cpu = 0.0  # thread CPU seconds spent in the probe
        self.wall = 0.0  # wall seconds spent in the probe
        self._ref = self._at = 0.0  # reference and net CPU seconds at the last sample
        self._factor = 1.0
        self._previous = None

    def clocks(self) -> tuple[float, float, float]:
        """(thread CPU, wall, reference) seconds, without the probe's own time."""
        cpu = time.thread_time() - self.cpu
        return cpu, time.perf_counter() - self.wall, self._ref + (cpu - self._at) * self._factor

    def _sample(self, signum, frame) -> None:
        c0, w0 = time.thread_time(), time.perf_counter()
        self.kernel()  # refills the caches the workload took over; not timed
        c1 = time.thread_time()
        self.kernel()
        c2, w2 = time.thread_time(), time.perf_counter()
        at = c0 - self.cpu
        # the stretch since the last sample keeps the factor clocks() used for it
        self._ref += (at - self._at) * self._factor
        self._at = at
        self.samples.append(c2 - c1)
        self._factor = self.ref_s / statistics.median(self.samples[-self.WINDOW:])
        self.cpu += c2 - c0
        self.wall += w2 - w0

    def start(self) -> None:
        self._ref = self._at = self.clocks()[0]
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self._previous = None
