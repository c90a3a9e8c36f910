"""Reference-speed timing: wall times scaled by the machine's speed at the time.

On a shared host the CPU speed a process sees drifts by up to 1.5x over
minutes, on both cores at once, and pure-Python code of every kind slows
and speeds up together.  So while a timed loop runs, a sampler process
runs a fixed reference kernel every ``EVERY_S`` seconds and reports the
kernel's CPU time, and each call's wall time is scaled by ``REFERENCE_MS``
over the mean kernel time within ``WINDOW_S`` of that call: a reported time
is what the call would have taken at the speed at which the kernel takes
``REFERENCE_MS``.  The kernel is the benchmark's own code (a color-change
closure over fixed masks on a fixed graph) and does not change when the
program does.  Its CPU time, unlike its wall time, does not count the time
it waits while survey workers hold both cores.

    python3 perfbench/speed.py --sample 0.1    # the sampler; stops at EOF on stdin
"""

from __future__ import annotations

import random
import select
import statistics
import subprocess
import sys
import time

# Kernel time at reference speed: about its median on the 2-core x86_64
# machine the benchmark was written on, so that scaled times there read
# close to wall times.
REFERENCE_MS = 5.0
# The sampler runs the kernel this often (about 5 % of one core) ...
EVERY_S = 0.1
# ... and a call is scaled by the samples within this distance of it.
WINDOW_S = 1.0

_rng = random.Random("perfbench reference kernel")
_N = 14
_ADJ = [0] * _N
for _i in range(_N):
    for _j in range(_i + 1, _N):
        if _rng.random() < 0.3:
            _ADJ[_i] |= 1 << _j
            _ADJ[_j] |= 1 << _i
_MASKS = [_rng.getrandbits(_N) & _rng.getrandbits(_N) for _ in range(2000)]


def _closure(adj: list[int], blue: int) -> int:
    changed = True
    while changed:
        changed = False
        for v in range(len(adj)):
            if blue >> v & 1:
                white = adj[v] & ~blue
                if white.bit_count() == 1:
                    blue |= white
                    changed = True
    return blue


def kernel() -> int:
    """The fixed reference work; returns a checksum so it cannot be skipped."""
    total = 0
    for m in _MASKS:
        total += _closure(_ADJ, m)
    return total


def sample_forever(every: float) -> None:
    """Print "<perf_counter midpoint> <kernel CPU seconds>" every ``every``
    seconds until stdin reaches end of file."""
    while True:
        t0, c0 = time.perf_counter(), time.thread_time()
        kernel()
        c1, t1 = time.thread_time(), time.perf_counter()
        print(f"{(t0 + t1) / 2:.6f} {c1 - c0:.9f}", flush=True)
        if select.select([sys.stdin], [], [], every)[0]:
            return


class Speed:
    """Kernel samples taken while a loop ran, and the scale they give a call.

    Used as a context manager, it runs the sampler process for the length of
    the ``with`` block and waits for it to end on every way out.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "Speed":
        self._proc = subprocess.Popen(
            [sys.executable, __file__, "--sample", str(EVERY_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._first = self._proc.stdout.readline()  # the sampler is running
        return self

    def __exit__(self, *exc) -> None:
        proc, self._proc = self._proc, None
        try:
            rest, _ = proc.communicate(timeout=60)  # closes stdin: the sampler stops
        except subprocess.TimeoutExpired:
            proc.kill()
            rest, _ = proc.communicate()
        for line in (self._first + rest).splitlines():
            t, k = line.split()
            self.samples.append((float(t), float(k)))
        if not self.samples and exc[0] is None:
            raise RuntimeError("the reference sampler reported no samples")

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second for a call from start to end."""
        near = [k for t, k in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: min(abs(s[0] - start),
                                                        abs(s[0] - end)))[1]]
        return REFERENCE_MS / 1e3 / statistics.fmean(near)

    def kernel_ms(self) -> float:
        """Median kernel CPU time over the loop, in milliseconds."""
        return statistics.median(k for _, k in self.samples) * 1e3


if __name__ == "__main__":
    if sys.argv[1:2] != ["--sample"] or len(sys.argv) != 3:
        sys.exit("usage: speed.py --sample SECONDS")
    sample_forever(float(sys.argv[2]))
