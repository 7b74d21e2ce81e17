"""Host-speed calibration for the timed repetitions.

The benchmark shares a few cores of a host whose speed drifts by up to ~1.8x
over seconds to minutes, so a plain wall time measures the host as much as
eil.  Every timed repetition therefore also runs a small fixed pure-Python
kernel, interleaved with its own work, and rescales its times by how slow
that kernel ran:

    adjusted = raw / speed,   speed = mean kernel CPU time / NOMINAL_KERNEL_S

The kernel mixes operations eil spends its time on: integer bit masks,
GF(2) elimination, set and dict traffic and tuple sorting.  It does not
track eil exactly: on a 2-vCPU Xeon VM, 20 s medians of a small suite's
time ranged over 68% while the same medians of suite time over kernel time
ranged over 7.5%.  NOMINAL_KERNEL_S only sets the scale; it is about the
kernel's CPU time on that VM, so adjusted times read close to raw ones.

During the suite a Sampler runs the kernel from a SIGPROF handler every
INTERVAL_S of the process's CPU time, so samples fall where the process
works; the handlers' time is subtracted from the wall.  Pool workers are
forked, and itimers do not survive a fork, so a fork hook starts a sampler
in every worker, which appends its samples to a file next to the report.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

NOMINAL_KERNEL_S = 0.004  # sets the scale of adjusted times (see above)
INTERVAL_S = 0.1  # CPU seconds between samples: about 4% of a process's time
SETUP_SAMPLES = 9  # kernel runs on each side of the set-up phase

_MASKS = [(0x9E3779B97F4A7C15 * (i + 1)) & ((1 << 48) - 1) for i in range(64)]


def kernel() -> int:
    """A few milliseconds of eil-like pure-Python work; deterministic."""
    return sum(_round(k) for k in range(12))


def _round(k: int) -> int:
    pivots: dict[int, int] = {}
    for m in _MASKS[k:] + _MASKS[:k]:
        while m:
            top = m.bit_length() - 1
            if top not in pivots:
                pivots[top] = m
                break
            m ^= pivots[top]
    closed = {0}
    for m in _MASKS[:10]:
        closed |= {r | (m & 0xFFF) for r in closed}
    rows = sorted((bin(m).count("1"), m & 0xFF, m >> 40) for m in _MASKS * 4)
    return len(pivots) + len(closed) + len(rows)


def timed_kernel() -> float:
    """CPU seconds of one kernel run.  CPU time, not wall time: a sample must
    not count the moments its process waited for a CPU, since the work it
    calibrates (a worker's CPU time) does not count them either."""
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


def speed_of(samples: list[float]) -> float:
    """Mean kernel time over NOMINAL_KERNEL_S, the outer tenths trimmed."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    core = ordered[cut:len(ordered) - cut] or ordered
    return statistics.fmean(core) / NOMINAL_KERNEL_S


class Sampler:
    """Runs the kernel every INTERVAL_S of process CPU time (SIGPROF)."""

    def __init__(self, sink: str | None = None):
        self.samples: list[float] = []
        self.overhead_s = 0.0
        self._fd = os.open(sink, os.O_WRONLY | os.O_CREAT | os.O_APPEND) if sink else None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        dt = timed_kernel()
        self.samples.append(dt)
        if self._fd is not None:
            os.write(self._fd, f"{dt!r} {time.process_time()!r} {t0!r}\n".encode())
        self.overhead_s += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def sample_forked_children(sink_dir: str):
    """Start a Sampler in every process forked from here on; each writes its
    samples to <sink_dir>/worker-<pid>.txt."""
    def child():
        Sampler(os.path.join(sink_dir, f"worker-{os.getpid()}.txt")).start()
    os.register_at_fork(after_in_child=child)


def read_worker_samples(sink_dir: str) -> list[tuple[list[float], float, float]]:
    """(kernel samples, CPU seconds at the last sample, perf_counter time of
    the last sample) of every worker sampled under sink_dir; removes the
    files."""
    found = []
    for name in sorted(os.listdir(sink_dir)):
        path = os.path.join(sink_dir, name)
        with open(path) as handle:
            rows = [line.split() for line in handle]
        os.unlink(path)
        if rows:
            found.append(([float(r[0]) for r in rows], float(rows[-1][1]), float(rows[-1][2])))
    return found
