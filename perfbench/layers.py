"""Layer probe: time calls into the program's public functions from outside.

The probe wraps public methods and functions of ``repro`` (fill policies,
permutations, stage kernels, buffer writes, run-handle snapshots, the
router's frame I/O) and accumulates, per layer, the number of calls,
their total time and their *self* time: a call's duration minus the
time spent in nested probed calls on the same thread, so that layers
never count the same interval twice.  Per process it also accumulates
the wall time *covered* by at least one probed call (the union of their
intervals over all threads), which can never exceed the wall time the
calls ran in; summed self times exceed it when threads overlap.

Counters live in an anonymous shared memory map created before any
worker is forked, so calls made in forked processes (process-executor
stage workers, fleet workers, the front end) land in the same totals.
A shared flag turns recording on and off in every process at once; a
wrapper whose flag is off costs one byte read.
"""

from __future__ import annotations

import json
import mmap
import multiprocessing
import os
import sys
import threading
import time
from typing import Any, Callable

import numpy as np

from common import process_hwm_mb

#: every probed layer; each gets a (calls, total_s, self_s) triple
LAYERS = (
    "anytime.fill", "anytime.permutation", "apps.kernel",
    "core.buffer.write", "core.shmplane.snapshot",
    "serve.fleet.send", "serve.fleet.recv",
    "serve.fleet.bytes", "core.shmplane.unraisable",
    "bench.covered", "core.procexec.worker_rss", "bench.lock_timeouts",
)

#: a process that holds the shared lock longer than this is taken to have
#: died holding it (a stage worker terminated at shutdown); updates then
#: go on without the lock, so that no process of the run hangs on it
LOCK_TIMEOUT_S = 2.0

#: layers whose self times add up to the busy part of a run's wall time
BUSY = ("anytime.fill", "anytime.permutation", "apps.kernel",
        "core.buffer.write")

#: DiffusiveStage methods that run the application's own arithmetic
KERNEL_METHODS = ("process_chunk", "apply_chunk", "batch_chunks",
                  "materialize")


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Probe:
    """Shared per-layer call counters with nested self-time accounting."""

    def __init__(self) -> None:
        self._index = {name: i for i, name in enumerate(LAYERS)}
        # one flag word, then a (calls, total, self) triple per layer
        self._map = mmap.mmap(-1, 8 * (1 + 3 * len(LAYERS)))
        self._cells = np.frombuffer(self._map, dtype=np.float64)
        # reentrant: an unraisable hook may fire inside a locked update
        self._lock = multiprocessing.get_context("fork").RLock()
        self._local = threading.local()
        self._installed = False
        self._lock_lost = False
        self.worker_rss_on = False
        self._reset_cover()
        os.register_at_fork(after_in_child=self._reset_cover)

    def _reset_cover(self) -> None:
        # process-local: how many probed calls are active, since when
        self._cover_lock = threading.Lock()
        self._active, self._since = 0, 0.0

    # -- recording -------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return bool(self._cells[0])

    @enabled.setter
    def enabled(self, on: bool) -> None:
        self._cells[0] = 1.0 if on else 0.0

    def add(self, layer: str, calls: float = 1.0, total_s: float = 0.0,
            self_s: float = 0.0) -> None:
        base = 1 + 3 * self._index[layer]
        locked = self._acquire()
        try:
            self._cells[base] += calls
            self._cells[base + 1] += total_s
            self._cells[base + 2] += self_s
        finally:
            if locked:
                self._lock.release()

    def _acquire(self) -> bool:
        """Take the shared lock; False once it is given up for lost."""
        if self._lock_lost:
            return False
        if self._lock.acquire(timeout=LOCK_TIMEOUT_S):
            return True
        self._lock_lost = True
        self._cells[1 + 3 * self._index["bench.lock_timeouts"]] += 1.0
        return False

    def read(self) -> dict[str, tuple[float, float, float]]:
        """``layer -> (calls, total_s, self_s)`` summed over processes."""
        locked = self._acquire()
        cells = self._cells.copy()
        if locked:
            self._lock.release()
        return {name: tuple(float(v) for v in cells[1 + 3 * i:4 + 3 * i])
                for name, i in self._index.items()}

    def _timed(self, layer: str, fn: Callable) -> Callable:
        cells, local = self._cells, self._local

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not cells[0]:
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            start = time.perf_counter()
            with self._cover_lock:
                if not self._active:
                    self._since = start
                self._active += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                elapsed = end - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.add(layer, 1.0, elapsed, elapsed - nested)
                with self._cover_lock:
                    self._active -= 1
                    covered = 0.0 if self._active else end - self._since
                if covered:
                    self.add("bench.covered", 0.0, covered)

        wrapper.__wrapped__ = fn
        return wrapper

    def _framed(self, layer: str, fn: Callable, sent: bool) -> Callable:
        """Count frames and their wire bytes (4-byte length + JSON)."""
        cells = self._cells

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            out = fn(*args, **kwargs)
            if cells[0]:
                msg = args[1] if sent else out
                if msg is not None:
                    size = 4 + len(json.dumps(
                        msg, separators=(",", ":")).encode())
                    self.add(layer)
                    self.add("serve.fleet.bytes", 0.0, float(size))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every probed public call, in this process and in every
        process forked from it afterwards."""
        if self._installed:
            return
        self._installed = True
        import repro.apps.registry  # noqa: F401 - defines app stages
        import repro.serve.router as router
        from repro.anytime.fill import FillPolicy
        from repro.anytime.permutations import Permutation
        from repro.core.buffer import VersionedBuffer
        from repro.core.diffusive import DiffusiveStage
        from repro.core.executor import RunHandle

        for cls in _subclasses(FillPolicy):
            if "fill" in vars(cls):
                cls.fill = self._timed("anytime.fill", cls.fill)
        for cls in _subclasses(Permutation):
            if "order" in vars(cls):
                cls.order = self._timed("anytime.permutation", cls.order)
        for cls in _subclasses(DiffusiveStage):
            for name in KERNEL_METHODS:
                if name in vars(cls):
                    setattr(cls, name, self._timed("apps.kernel",
                                                   vars(cls)[name]))
        VersionedBuffer.write = self._timed("core.buffer.write",
                                            VersionedBuffer.write)
        RunHandle.snapshot = self._timed("core.shmplane.snapshot",
                                         RunHandle.snapshot)
        router.send_msg = self._framed("serve.fleet.send", router.send_msg,
                                       sent=True)
        router.recv_msg = self._framed("serve.fleet.recv", router.recv_msg,
                                       sent=False)

    def count_worker_rss(self) -> None:
        """While :attr:`worker_rss_on` is set, add each process-executor
        stage worker's peak RSS, in MB, to ``core.procexec.worker_rss``
        when its stage ends, while its pipe is still open: the parent
        terminates workers whose pipes closed without waiting for them
        to exit.  Workers are forked per run and inherit the flag."""
        from repro.core.procexec import _Worker

        run_stage = _Worker._run_stage

        def wrapper(worker: Any) -> None:
            try:
                run_stage(worker)
            finally:
                if self.worker_rss_on:
                    self.add("core.procexec.worker_rss", 1.0,
                             process_hwm_mb(os.getpid()))

        _Worker._run_stage = wrapper

    def count_unraisable(self) -> None:
        """Count unraisable exceptions (e.g. ``SharedMemory.__del__``'s
        ``BufferError``) in every process instead of printing them."""
        def hook(unraisable: Any) -> None:
            self.add("core.shmplane.unraisable")

        sys.unraisablehook = hook


def put_probed(out: Any, layers: dict[str, tuple[float, float, float]],
               n: int) -> float:
    """Put the per-layer metrics read from the probe, per ``n`` units of
    work (rounds or requests); returns the busy seconds of :data:`BUSY`."""
    for name in ("anytime.fill", "anytime.permutation"):
        out.put(f"{name}.ms", 1e3 * layers[name][2] / n, "ms")
        out.put(f"{name}.calls", layers[name][0] / n, "count")
    out.put("apps.kernel.ms", 1e3 * layers["apps.kernel"][2] / n, "ms")
    out.put("core.buffer.writes", layers["core.buffer.write"][0] / n,
            "count")
    out.put("core.buffer.write_ms",
            1e3 * layers["core.buffer.write"][2] / n, "ms")
    out.put("core.shmplane.snapshot_ms",
            1e3 * layers["core.shmplane.snapshot"][1] / n, "ms")
    out.put("core.shmplane.unraisable",
            layers["core.shmplane.unraisable"][0], "count")
    return sum(layers[name][2] for name in BUSY)
