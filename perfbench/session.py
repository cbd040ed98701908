"""One runtime session of a workload, and the resource check after it.

A session is ``init`` plus warm-up (timed as set-up), the measured loop,
a ``stats()`` snapshot and, when traced, the event log, then
``shutdown``.  Anything the session leaves behind, a ``/dev/shm``
segment or a process that outlived ``shutdown``, is named as a leak,
counted as a failed operation by the caller, and then cleaned up so the
benchmark itself leaves nothing running.
"""

from __future__ import annotations

import gc
import os
import signal
import time

import repro
from perfbench.workloads import Record, clock

SHM_DIR = "/dev/shm"
#: How long a process or segment may take to vanish after ``shutdown``.
GRACE_S = 3.0


def _shm_names() -> set:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def _proc_stat(pid):
    """(state, ppid) of a live process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def _is_resource_tracker(pid) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return b"resource_tracker" in f.read()
    except OSError:
        return False


def _descendants(root: int) -> set:
    """Every live process below ``root``, except ``root``'s own
    multiprocessing resource tracker, which lives as long as it does."""
    children = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            stat = _proc_stat(int(name))
            if stat is not None:
                children.setdefault(stat[1], []).append(int(name))
    found, todo = set(), [
        pid for pid in children.get(root, []) if not _is_resource_tracker(pid)
    ]
    while todo:
        pid = todo.pop()
        found.add(pid)
        todo.extend(children.get(pid, []))
    return found


def _running(pid) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


def _reap(pid) -> None:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass


class Session:
    """One ``init`` ... ``shutdown`` of a workload's runtime."""

    def __init__(self, workload, tracing: bool) -> None:
        self.workload = workload
        self.tracing = tracing
        self.setup_s = 0.0
        self.stats: dict = {}
        self.event_log = None
        self.workers = 0
        self.leaks: list = []

    def run(self, seconds: float, rng) -> Record:
        """Set up, measure for ``seconds``, tear down, check for leaks."""
        w = self.workload
        rec = Record(keep_spans=self.tracing)
        shm_before = _shm_names()
        pids = set()
        t0 = clock()
        runtime = repro.init(backend=w.backend, tracing=self.tracing,
                             **w.init_kwargs)
        try:
            state = w.warm(rec)
            self.setup_s = clock() - t0
            pids = _descendants(os.getpid())
            start = clock()
            w.run(state, seconds, rng, rec)
            rec.window = (start, clock())
            if state is not None:
                state.close()
            self.stats = runtime.stats()
            cluster = self.stats["cluster"]
            self.workers = cluster["num_nodes"] * cluster["workers_per_node"]
            if self.tracing:
                self.event_log = list(runtime.event_log)
            pids |= _descendants(os.getpid())
        finally:
            repro.shutdown()
            # Free this session's runtime now, so the next session in the
            # same driver process does not pay for collecting it.
            gc.collect()
            self._check(pids, shm_before)
        return rec

    def _check(self, pids, shm_before) -> None:
        deadline = time.monotonic() + GRACE_S
        while True:
            for pid in pids:
                _reap(pid)
            alive = sorted(pid for pid in pids if _running(pid))
            segments = sorted(_shm_names() - shm_before)
            if not (alive or segments) or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        for pid in alive:
            self.leaks.append(f"process {pid} outlived shutdown")
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
            deadline = time.monotonic() + GRACE_S
            while _running(pid) and time.monotonic() < deadline:
                _reap(pid)
                time.sleep(0.01)
            _reap(pid)
        for name in segments:
            self.leaks.append(f"shm segment {name} outlived shutdown")
            try:
                os.unlink(os.path.join(SHM_DIR, name))
            except OSError:
                pass
