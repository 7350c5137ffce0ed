"""Gauge how fast the benchmark's CPU runs while a command runs.

On a shared host the same command can take 1.5x longer for seconds or
minutes at a time, when another tenant loads the physical core under this
virtual CPU.  The gauge is a second process at nice 19 on the same pinned
CPU as the commands.  It repeats a fixed pure-Python work unit and
publishes how many units it has finished and how much CPU time it has
used.  The scheduler gives it short slices all through a command (about
1.4% of the CPU), so its units per CPU second over the command's lifetime
say how fast that CPU ran meanwhile.  A command's wall time, less the
gauge's CPU time, times rate / REFERENCE_RATE is the time it would have
taken at the reference speed.  Over 1.5-8 s commands on a 2-core VM the
rate tracked the wall time with correlation 0.94-0.97, and rescaling cut
the spread of repeated commands about threefold.

The gauge never touches the darkhunt package, so a change to the package
moves rescaled times as it moves raw ones.  Its working set is small, but
a command that thrashes the caches harder slows the gauge's slices a
little too; the rescaled time then understates that command's cost.

    python perfbench/speed.py STATE_FILE    # the gauge process itself
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

# Work units per CPU second of a 2-core Intel Xeon VM (2.0 GHz, 105 MiB
# L3) with its neighbours quiet.  Rescaled times are seconds at that speed.
REFERENCE_RATE = 3000.0
# (units done, gauge CPU nanoseconds)
_LAYOUT = struct.Struct("QQ")


def _unit() -> int:
    # Interpreter-bound like the package: integer arithmetic, small
    # objects, str() and dict inserts.
    table = {}
    acc = 0
    for i in range(800):
        key = (i * 2654435761) & 0xFFF
        acc += key * key
        table[key] = (i, str(i))
    return acc + len(table)


def _gauge(path: str) -> None:
    os.nice(19)
    parent = os.getppid()
    with open(path, "r+b") as fh:
        state = mmap.mmap(fh.fileno(), _LAYOUT.size)
    done = 0
    while True:
        _unit()
        done += 1
        _LAYOUT.pack_into(state, 0, done, time.process_time_ns())
        if done % 256 == 0 and os.getppid() != parent:
            return  # the benchmark is gone


class Gauge:
    """The gauge process, from `with Gauge(path) as gauge:` to its end."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.proc = None
        self.rate = REFERENCE_RATE

    def __enter__(self) -> Gauge:
        self.path.write_bytes(bytes(_LAYOUT.size))
        with open(self.path, "r+b") as fh:
            self.state = mmap.mmap(fh.fileno(), _LAYOUT.size)
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.path)])
        try:
            while self.read()[0] == 0:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"speed gauge exited with code {self.proc.returncode}")
                time.sleep(0.01)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.proc.kill()
        self.proc.wait()
        self.state.close()

    def read(self) -> tuple[int, float]:
        """(units done, gauge CPU seconds), read until two reads agree."""
        while True:
            first = _LAYOUT.unpack_from(self.state, 0)
            if _LAYOUT.unpack_from(self.state, 0) == first:
                return first[0], first[1] / 1e9

    def rescale(self, wall: float, before: tuple[int, float], after: tuple[int, float]) -> float:
        """Rescale a wall time between two read()s to the reference speed.

        With no gauge time in between, the last measured rate applies.
        """
        units, cpu = after[0] - before[0], after[1] - before[1]
        if units > 0 and cpu > 0:
            self.rate = units / cpu
        return (wall - max(cpu, 0.0)) * self.rate / REFERENCE_RATE


if __name__ == "__main__":
    _gauge(sys.argv[1])
