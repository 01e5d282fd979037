"""Arithmetic and host probes shared by the benchmark's workloads.

Nothing here imports ``repro``: the statistics and the failure tally are
unit-tested on their own, and the probes only read this process (and
its own children) through ``resource`` and ``/proc``.
"""

from __future__ import annotations

import ctypes
import math
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100].

    The same rule as ``numpy.percentile``'s default; written out so the
    benchmark's reported numbers do not depend on the numpy version.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


@dataclass
class Tally:
    """Operations attempted and failed, with a reason per failure.

    An operation fails when it raised, was rejected, or its output
    failed the oracle check; ``failed_frac`` divides by attempts.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons.append(reason)

    @property
    def failed_frac(self) -> float:
        if self.attempted == 0:
            raise ValueError("failed_frac of zero attempts")
        return self.failed / self.attempted


class CpuClock:
    """CPU seconds of this process plus its children (reaped or live).

    Reaped children (a process pool shut down inside a call) come from
    ``RUSAGE_CHILDREN``; live ones (the service's worker subprocess)
    are read from ``/proc/<pid>/stat`` by pid.
    """

    _TICKS = os.sysconf("SC_CLK_TCK")

    def __init__(self, live_pids=()):
        self.live_pids = list(live_pids)

    def _live(self) -> float:
        total = 0.0
        for pid in self.live_pids:
            try:
                fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            # utime and stime are fields 14 and 15 of stat(5); index 11
            # and 12 once the pid and command name are split off
            total += (int(fields[11]) + int(fields[12])) / self._TICKS
        return total

    def now(self) -> float:
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (
            time.process_time()
            + children.ru_utime
            + children.ru_stime
            + self._live()
        )


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


def blas_threads() -> str:
    """Thread count of the OpenBLAS numpy loaded, or why it is unknown."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{os.environ[var]} ({var})"
    try:
        paths = {
            line.split()[-1]
            for line in Path("/proc/self/maps").read_text().splitlines()
            if "openblas" in line
        }
    except OSError:
        return "unknown"
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return "unknown"


def git_revision(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git.

    A source checkout that is not a git repository reports ``unknown``.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"

