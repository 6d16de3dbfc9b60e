"""CPU time and resident memory of one process tree, read from ``/proc``.

Guest-wide counters (``/proc/stat``) count every process of the VM, so the
benchmark measures only the processes the run started: the calling process
and its descendants.  Ray's raylet reaps the worker processes it kills
without adding their times to its own ``cutime``, so :class:`TreeMonitor`
samples every descendant periodically and keeps the last CPU time it saw of
each process that has since exited.
"""

from __future__ import annotations

import ctypes
import os
import resource
import threading
import time

# A process that lives less than one period is missed by the sampler.
SAMPLE_PERIOD_S = 0.2

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGESIZE")


def become_subreaper():
    """Makes orphaned descendants re-parent to this process (Linux)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _stat(pid: int):
    """``(ppid, start ticks, utime+stime+cutime+cstime seconds)`` or None
    if the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    fields = raw[raw.rfind(")") + 2:].split()
    return (int(fields[1]), int(fields[19]),
            sum(int(x) for x in fields[11:15]) / _TICK)


def _children_map() -> tuple:
    kids: dict = {}
    stats: dict = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                kids.setdefault(st[0], []).append(int(name))
                stats[int(name)] = st
    return kids, stats


def descendants(root: int) -> list:
    kids, _ = _children_map()
    out, todo = [], [root]
    while todo:
        for c in kids.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE / 1_048_576
    except (OSError, ValueError, IndexError):
        return 0.0


def _is_ray_worker(pid: int) -> bool:
    """Ray worker processes retitle themselves ``ray::<task or actor>``."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(b"ray::")
    except OSError:
        return False


class TreeMonitor:
    """Samples this process's descendants every ``SAMPLE_PERIOD_S`` in a
    thread.  ``cpu_sec()`` is the CPU time of this process (without the
    sampler thread) plus the last seen CPU time of every descendant, alive
    or exited; ``take_peak_rss_mb()`` is the peak summed RSS of the Ray
    worker processes since its previous call.  ``exclude(pid)`` drops a
    subtree, such as a load generator, from both."""

    def __init__(self):
        self._seen: dict = {}
        self._excluded: set = set()
        self._peak = 0.0
        self._thread_cpu = 0.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def exclude(self, pid: int):
        with self._lock:
            self._excluded.add(pid)
            for key in [k for k in self._seen if k[0] == pid]:
                del self._seen[key]

    def _sample(self):
        kids, stats = _children_map()
        rss = 0.0
        with self._lock:
            todo = [os.getpid()]
            while todo:
                for c in kids.get(todo.pop(), ()):
                    if c in self._excluded:
                        continue
                    _, start, cpu = stats[c]
                    self._seen[(c, start)] = cpu
                    todo.append(c)
                    if _is_ray_worker(c):
                        rss += rss_mb(c)
            self._peak = max(self._peak, rss)

    def _run(self):
        while not self._stop.wait(SAMPLE_PERIOD_S):
            self._sample()
            self._thread_cpu = time.thread_time()

    def cpu_sec(self) -> float:
        self._sample()
        ru = resource.getrusage(resource.RUSAGE_SELF)
        with self._lock:
            return ru.ru_utime + ru.ru_stime - self._thread_cpu \
                + sum(self._seen.values())

    def take_peak_rss_mb(self) -> float:
        with self._lock:
            peak, self._peak = self._peak, 0.0
        return peak
