"""Fleet front end: shard anytime requests across worker processes.

:class:`FleetRouter` owns N :mod:`~repro.serve.fleet` workers — forked
locally over AF_UNIX socketpairs or reached over TCP
(:mod:`repro.serve.transport`) — and places each declarative request
``(app, size, seed, SLO)`` by its canonical work identity
(:func:`~repro.serve.fleet.spec_key`):

* **Sticky consistent-hash placement.**  A key hashes onto a virtual-
  node ring; identical work therefore lands on the same worker, where
  the server coalesces it onto one shared run (or answers from its
  sealed-results memo).  A short-TTL affinity table pins a key to the
  worker that actually took it, so fallback decisions stay sticky too.
* **Least-loaded fallback for cold keys.**  A key the fleet has never
  seen may be diverted from its ring home to the least-loaded worker
  when the home is clearly busier — cold keys have no run to join, so
  placement freedom is free capacity.
* **Backpressure surfaced to the router.**  Every admission is acked
  with the worker's queue depth; a shed request is retried once on the
  least-loaded other worker before the shed is accepted as final.
* **Worker-death failover, re-spawn, and checkpoint migration.**  A
  dead worker (socket EOF / reset) is replaced: a fresh worker is
  forked at the same index and rejoins the consistent-hash ring (the
  ring maps onto indices, so the replacement inherits the dead
  worker's key range with zero ring churn).  The dead worker's
  in-flight requests are re-dispatched — and when the fleet runs with
  a ``resume_dir``, a request whose run had been suspended to a
  checkpoint (:mod:`repro.ckpt`) *migrates*: the router ships the dead
  worker's last checkpoint to the new home **in-band** (chunked,
  sha256-verified ``ckpt_*`` frames — no shared filesystem between
  workers assumed) and the run continues from where it stopped instead
  of starting over.  Requests without a checkpoint, or whose transfer
  is refused, fall back to verbatim re-dispatch — requests are specs,
  not closures, so a re-run is safe and its sealed versions are
  equally valid answers.  Remote (TCP) workers are not respawned: the
  router does not own their processes, so survivors absorb the dead
  worker's key range instead.
* **Fleet-wide memo sharing.**  When any worker seals a *final* answer
  for a key, the router caches the result payload (metrics +
  ``value_digest``) in a bounded TTL store and answers later
  duplicates of that key itself — whichever worker the key would now
  land on, including after a death re-placed it — without dispatching
  a run.  Hits are counted (``memo_hits``), traced
  (``fleet.memo_hit``), and marked on the result (``memo_hit`` +
  ``fleet_memo``).

Fleet-wide metrics (:func:`summarize_fleet`, :meth:`aggregate_stats`)
sum the per-worker serving counters and reduce per-request outcomes to
p50/p99 latency, goodput, shed rate and SLO attainment.
"""

from __future__ import annotations

import base64
import bisect
import hashlib
import itertools
import os
import socket
import threading
import time as _time
from typing import Any, Callable

from ..core.tracing import TraceEvent, TraceSink
from .fleet import (CKPT_CHUNK_BYTES, FrameError, WORKER_DEFAULTS,
                    ckpt_filename, recv_msg, send_msg, spec_key)
from .transport import ForkTransport, TcpTransport
from .workload import percentile

__all__ = ["FleetRouter", "FleetRequest", "summarize_fleet"]

_VNODES = 64


def _ring_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8],
                          "big")


class FleetRequest:
    """The client's view of one fleet request (a declarative spec)."""

    def __init__(self, rid: int, app: str, size: int, seed: int,
                 slo: dict[str, Any], key: str) -> None:
        self.rid = rid
        self.app = app
        self.size = size
        self.seed = seed
        self.slo = slo
        self.key = key
        self.submitted_at = _time.monotonic()
        self.worker: int | None = None
        self.redispatches = 0
        self._result: dict[str, Any] | None = None
        self._done = threading.Event()
        self._finish_lock = threading.Lock()
        self._callbacks: list[Callable[["FleetRequest"], None]] = []

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def add_done_callback(
            self, fn: Callable[["FleetRequest"], None]) -> None:
        """Run ``fn(self)`` once the request is terminal (immediately
        if it already is).  Callbacks fire on the router's reader
        thread — keep them cheap and thread-safe (the asyncio front
        end bridges here with ``call_soon_threadsafe``)."""
        with self._finish_lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def result(self, timeout_s: float | None = None) -> dict[str, Any]:
        """Block for the terminal outcome dict; TimeoutError on timeout.

        The dict is the worker's ``done`` message plus router fields:
        ``worker`` (index that served it), ``fleet_latency_s``
        (submission-to-terminal as the router's client experienced it)
        and ``redispatches``.
        """
        if not self._done.wait(timeout=timeout_s):
            raise TimeoutError(f"fleet request {self.rid} not terminal "
                               f"after {timeout_s}s")
        assert self._result is not None
        return self._result

    def _finish(self, payload: dict[str, Any]) -> None:
        """First outcome wins: a late duplicate ``done`` (e.g. a
        re-dispatch racing the original worker's completion pump) is
        dropped, so the client never observes two terminal deliveries.
        """
        with self._finish_lock:
            if self._done.is_set():
                return
            payload.setdefault("state", "failed")
            payload["worker"] = self.worker
            payload["fleet_latency_s"] = (_time.monotonic()
                                          - self.submitted_at)
            payload["redispatches"] = self.redispatches
            self._result = payload
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class _WorkerLink:
    """Router-side state of one worker: socket, reader, in-flight set."""

    def __init__(self, index: int, process: Any,
                 sock: socket.socket) -> None:
        self.index = index
        self.process = process
        self.sock = sock
        self.send_lock = threading.Lock()
        self.alive = True
        self.inflight: dict[int, FleetRequest] = {}
        self.queue_depth = 0
        self.reader: threading.Thread | None = None

    @property
    def load(self) -> int:
        return len(self.inflight)


class FleetRouter:
    """Route requests across ``workers`` forked AnytimeServer workers.

    Worker behaviour (slots, queue bound, executor, coalescing, memo
    TTL) comes from ``worker_config`` merged over
    :data:`~repro.serve.fleet.WORKER_DEFAULTS`.  Use as a context
    manager; :meth:`submit` returns a :class:`FleetRequest` future.
    """

    def __init__(self, workers: int = 2,
                 worker_config: dict[str, Any] | None = None,
                 affinity_ttl_s: float = 30.0,
                 fallback_margin: int = 2,
                 respawn: bool = True,
                 resume_dir: str | None = None,
                 endpoints: list[str | tuple[str, int]] | None = None,
                 transport: Any = None,
                 fleet_memo_ttl_s: float = 30.0,
                 fleet_memo_max: int = 256,
                 trace: TraceSink | None = None) -> None:
        if transport is None:
            transport = (TcpTransport(endpoints) if endpoints
                         else ForkTransport())
        #: how worker sockets are obtained (fork+socketpair or TCP)
        self.transport = transport
        if endpoints is not None:
            workers = len(endpoints)
        if workers <= 0:
            raise ValueError(f"workers must be positive: {workers}")
        self.n_workers = workers
        self.worker_config = {**WORKER_DEFAULTS, **(worker_config or {})}
        self.affinity_ttl_s = affinity_ttl_s
        self.fallback_margin = fallback_margin
        #: fork a replacement worker (same ring index) when one dies —
        #: only meaningful on a respawnable (fork) transport
        self.respawn = bool(respawn)
        #: router-visible checkpoint root: worker ``i`` suspends runs
        #: under ``resume_dir/w<i>/``; after a death the router reads
        #: the dead worker's checkpoints there and ships them to the
        #: new home in-band (the *destination* needs no shared
        #: filesystem)
        self.resume_dir = resume_dir
        if resume_dir is not None:
            os.makedirs(resume_dir, exist_ok=True)
        #: fleet-wide sealed-final memo: key → result payload, answered
        #: by the router itself for ``fleet_memo_ttl_s`` seconds
        self.fleet_memo_ttl_s = float(fleet_memo_ttl_s)
        self.fleet_memo_max = int(fleet_memo_max)
        self._memo: dict[str, tuple[float, dict[str, Any]]] = {}
        self._trace_sink = trace
        self._links: list[_WorkerLink] = []
        self._lock = threading.RLock()
        #: every submitted request not yet terminal, by rid; only
        #: ``FleetRequest._finish`` (through its done callback) removes
        #: an entry, so a request between a dead worker and its new
        #: home still counts
        self._outstanding: dict[int, FleetRequest] = {}
        self._outstanding_lock = threading.Lock()
        self._rids = itertools.count(1)
        self._stats_rids = itertools.count(1)
        self._stats_waiters: dict[int, list[Any]] = {}
        self._xids = itertools.count(1)
        self._ckpt_lock = threading.Lock()
        self._ckpt_waiters: dict[int, list[Any]] = {}
        self.ckpt_ack_timeout_s = 15.0
        self._affinity: dict[str, tuple[int, float]] = {}
        self._ring: list[tuple[int, int]] = sorted(
            (_ring_hash(f"worker-{w}/vnode-{v}"), w)
            for w in range(workers) for v in range(_VNODES))
        self._started = False
        self._closing = False
        self.counters = {
            "dispatched": 0, "redispatched": 0, "shed_retries": 0,
            "worker_deaths": 0, "fallbacks": 0,
            "respawns": 0, "migrated": 0, "migrations_failed": 0,
            "memo_hits": 0, "late_dones": 0, "frame_errors": 0,
        }

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "FleetRouter":
        if self._started:
            raise RuntimeError("router already started")
        self._started = True
        for index in range(self.n_workers):
            self._links.append(self._spawn_link(index))
        for link in self._links:
            link.reader.start()
        return self

    def _spawn_link(self, index: int) -> _WorkerLink:
        """Attach one worker at ring index ``index`` through the
        transport — fork a process or connect to a remote listener
        (reader thread created but not started)."""
        config = dict(self.worker_config)
        if self.resume_dir is not None:
            config["resume_dir"] = os.path.join(self.resume_dir,
                                                f"w{index}")
        process, sock = self.transport.spawn(index, config)
        link = _WorkerLink(index, process, sock)
        link.reader = threading.Thread(
            target=self._read_loop, args=(link,),
            name=f"fleet-reader-{index}", daemon=True)
        return link

    def __enter__(self) -> "FleetRouter":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Stop every worker; fail any request still in flight."""
        with self._lock:
            self._closing = True   # EOFs from here on are not deaths
            links = list(self._links)
        for link in links:
            if link.alive:
                try:
                    send_msg(link.sock, {"op": "shutdown"},
                             link.send_lock)
                except OSError:
                    pass
        deadline = _time.monotonic() + timeout_s
        for link in links:
            if link.process is not None:
                link.process.join(
                    timeout=max(0.1, deadline - _time.monotonic()))
                if link.process.is_alive():
                    link.process.terminate()
                    link.process.join(timeout=2.0)
            link.alive = False
            try:
                link.sock.close()
            except OSError:
                pass
        with self._lock:
            for link in links:
                link.inflight.clear()
        with self._outstanding_lock:
            remaining = list(self._outstanding.values())
        for request in remaining:
            request._finish({"state": "cancelled",
                             "errors": ["fleet shutdown"]})

    @property
    def outstanding(self) -> int:
        """Submitted requests not yet terminal."""
        with self._outstanding_lock:
            return len(self._outstanding)

    def drain(self, timeout_s: float | None = None) -> bool:
        """Wait until every submitted request is terminal; True if so."""
        deadline = (None if timeout_s is None
                    else _time.monotonic() + timeout_s)
        while self.outstanding:
            if deadline is not None and _time.monotonic() >= deadline:
                return False
            _time.sleep(0.01)
        return True

    def _untrack(self, request: FleetRequest) -> None:
        with self._outstanding_lock:
            self._outstanding.pop(request.rid, None)

    # -- client API ------------------------------------------------------

    def submit(self, app: str, size: int = 32, seed: int = 0,
               slo: dict[str, Any] | None = None,
               wait_s: float = 0.0) -> FleetRequest:
        """Place and dispatch one declarative request."""
        key = spec_key(app, size, seed)
        request = FleetRequest(next(self._rids), app, size, seed,
                               slo or {}, key)
        with self._outstanding_lock:
            self._outstanding[request.rid] = request
        request.add_done_callback(self._untrack)
        with self._lock:
            memo = self._memo_lookup(key)
            if memo is not None:
                # fleet-wide memo: a worker sealed this key's final
                # recently; answer from the router without any dispatch
                self.counters["memo_hits"] += 1
                self._emit("fleet.memo_hit", key=key, rid=request.rid)
                payload = dict(memo)
                payload["memo_hit"] = True
                payload["fleet_memo"] = True
                request._finish(payload)
                return request
            link = self._place(key)
            if link is None:
                request._finish({"state": "failed",
                                 "errors": ["no live workers"]})
                return request
            self._dispatch(request, link, wait_s=wait_s)
        return request

    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for link in self._links if link.alive)

    def aggregate_stats(self, timeout_s: float = 5.0) -> dict[str, Any]:
        """Fleet-wide serving counters: per-worker stats plus sums."""
        per_worker: list[dict[str, Any] | None] = []
        for link in list(self._links):
            per_worker.append(self._worker_stats(link, timeout_s)
                              if link.alive else None)
        totals: dict[str, Any] = {}
        for stats in per_worker:
            if not stats:
                continue
            for name, value in stats.items():
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    totals[name] = totals.get(name, 0) + value
        with self._lock:
            memo = {"size": len(self._memo),
                    "ttl_s": self.fleet_memo_ttl_s,
                    "max": self.fleet_memo_max,
                    "hits": self.counters["memo_hits"]}
        return {"workers": len(self._links),
                "alive": self.alive_workers(),
                "router": dict(self.counters),
                "fleet_memo": memo,
                "per_worker": per_worker,
                "totals": totals}

    # -- placement -------------------------------------------------------

    def _place(self, key: str) -> _WorkerLink | None:
        alive = [link for link in self._links if link.alive]
        if not alive:
            return None
        now = _time.monotonic()
        pinned = self._affinity.get(key)
        if pinned is not None:
            index, expires_at = pinned
            link = self._links[index]
            if link.alive and now < expires_at:
                self._affinity[key] = (index, now + self.affinity_ttl_s)
                return link
            del self._affinity[key]
        home = self._ring_lookup(key)
        link = home
        least = min(alive, key=lambda cand: cand.load)
        if home.load > least.load + self.fallback_margin:
            # cold key, clearly uneven fleet: spill to the least-loaded
            # worker (duplicates will follow via the affinity pin)
            link = least
            self.counters["fallbacks"] += 1
        self._affinity[key] = (link.index, now + self.affinity_ttl_s)
        return link

    def _ring_lookup(self, key: str) -> _WorkerLink:
        point = _ring_hash(key)
        start = bisect.bisect(self._ring, (point, -1))
        for offset in range(len(self._ring)):
            _, index = self._ring[(start + offset) % len(self._ring)]
            if self._links[index].alive:
                return self._links[index]
        raise RuntimeError("no live workers on the ring")

    def _dispatch(self, request: FleetRequest, link: _WorkerLink,
                  wait_s: float = 0.0,
                  extra: dict[str, Any] | None = None) -> None:
        request.worker = link.index
        link.inflight[request.rid] = request
        self.counters["dispatched"] += 1
        self._emit("fleet.dispatch", key=request.key, rid=request.rid,
                   worker=link.index)
        message = {
            "op": "submit", "rid": request.rid, "app": request.app,
            "size": request.size, "seed": request.seed,
            "slo": request.slo, "wait_s": wait_s,
        }
        if self.worker_config.get("check"):
            message["check"] = True
        if extra:
            message.update(extra)
        try:
            send_msg(link.sock, message, link.send_lock)
        except OSError:
            # the send itself found the worker dead: this request never
            # reached it, so re-place it fresh; orphans that *were* on
            # the worker take the full migration path off-lock
            link.inflight.pop(request.rid, None)
            if link.alive:
                orphans = self._mark_dead(link)
                if orphans:
                    threading.Thread(
                        target=self._redispatch_orphans,
                        args=(link, orphans), daemon=True,
                        name=f"fleet-failover-{link.index}").start()
            survivor = self._place(request.key)
            if survivor is None or survivor is link:
                request._finish({"state": "failed",
                                 "errors": ["no live workers"]})
                return
            request.redispatches += 1
            self.counters["redispatched"] += 1
            self._dispatch(request, survivor, wait_s=wait_s,
                           extra=extra)

    # -- worker I/O ------------------------------------------------------

    def _read_loop(self, link: _WorkerLink) -> None:
        while True:
            try:
                msg = recv_msg(link.sock)
            except FrameError:
                # the worker spoke garbage: unusable connection —
                # treat exactly like a death (EOF path)
                self.counters["frame_errors"] += 1
                msg = None
            except OSError:
                msg = None
            if msg is None:
                orphans: list[FleetRequest] = []
                dead = False
                with self._lock:
                    if link.alive:
                        dead = True
                        orphans = self._mark_dead(link)
                if dead:
                    # re-dispatch off-lock: shipping a checkpoint to a
                    # survivor waits for its ckpt_ack, which arrives on
                    # that survivor's own reader thread
                    self._redispatch_orphans(link, orphans)
                return
            op = msg.get("op")
            if op == "done":
                with self._lock:
                    request = link.inflight.pop(msg.get("rid"), None)
                    if request is not None:
                        self._memo_store(request.key, msg)
                    else:
                        # a re-dispatched rid finishing on its old
                        # worker, or a duplicate: first outcome won
                        self.counters["late_dones"] += 1
                if request is not None:
                    request._finish(msg)
            elif op == "ack":
                self._on_ack(link, msg)
            elif op == "stats":
                with self._lock:
                    waiter = self._stats_waiters.pop(msg.get("rid"),
                                                     None)
                if waiter is not None:
                    waiter[1] = msg.get("stats")
                    waiter[0].set()
            elif op == "ckpt_ack":
                # deliberately NOT under self._lock: a migration in
                # progress holds no router lock but blocks on this ack
                with self._ckpt_lock:
                    waiter = self._ckpt_waiters.pop(msg.get("xid"),
                                                    None)
                if waiter is not None:
                    waiter[1] = msg
                    waiter[0].set()
            elif op == "error":
                # worker reported a protocol violation from our side;
                # nothing to retract — count it and carry on
                self.counters["frame_errors"] += 1
            elif op == "bye":
                with self._lock:
                    link.alive = False
                return

    def _on_ack(self, link: _WorkerLink, msg: dict[str, Any]) -> None:
        with self._lock:
            link.queue_depth = int(msg.get("queue_depth", 0))
            if msg.get("state") != "shed":
                return
            request = link.inflight.pop(msg.get("rid"), None)
            if request is None:
                return
            # admission backpressure surfaced: retry once elsewhere
            alive = [cand for cand in self._links
                     if cand.alive and cand is not link]
            if request.redispatches == 0 and alive:
                target = min(alive, key=lambda cand: cand.load)
                request.redispatches += 1
                self.counters["shed_retries"] += 1
                self._affinity[request.key] = (
                    target.index,
                    _time.monotonic() + self.affinity_ttl_s)
                self._dispatch(request, target)
            else:
                link.inflight[request.rid] = request
                # the worker's own `done` (state=shed) finalizes it

    def _mark_dead(self, link: _WorkerLink) -> list[FleetRequest]:
        """Record a worker's death and (on a fork transport) replace
        it at the same ring index, so the replacement takes over the
        dead worker's key range without remapping anyone else's.
        Returns the orphaned in-flight requests (caller re-dispatches
        them, off-lock).  Must be called with ``self._lock`` held."""
        link.alive = False
        self.counters["worker_deaths"] += 1
        self._emit("fleet.worker_death", worker=link.index,
                   orphans=len(link.inflight))
        for key, (index, _) in list(self._affinity.items()):
            if index == link.index:
                del self._affinity[key]
        orphans = list(link.inflight.values())
        link.inflight.clear()
        if (self.respawn and self.transport.respawnable
                and not self._closing):
            try:
                fresh = self._spawn_link(link.index)
            except Exception:
                fresh = None
            if fresh is not None:
                self._links[link.index] = fresh
                fresh.reader.start()
                self.counters["respawns"] += 1
                self._emit("fleet.respawn", worker=link.index)
        return orphans

    def _redispatch_orphans(self, link: _WorkerLink,
                            orphans: list[FleetRequest]) -> None:
        """Re-place a dead worker's in-flight requests.  A request
        whose run had been suspended to a checkpoint *migrates*: the
        checkpoint is shipped to the new home in-band and the run
        continues from where it stopped.  Runs without one (or whose
        transfer fails) re-dispatch fresh.  Must NOT hold
        ``self._lock``: shipping blocks on the survivor's ``ckpt_ack``,
        which its reader thread delivers."""
        for request in orphans:
            with self._lock:
                survivor = self._place(request.key)
                if survivor is None:
                    request._finish({
                        "state": "failed",
                        "errors": [f"worker {link.index} died"]})
                    continue
                request.redispatches += 1
                self.counters["redispatched"] += 1
                self._emit("fleet.redispatch", key=request.key,
                           rid=request.rid, worker=survivor.index)
            source = self._migration_source(link.index, request.key)
            extra = None
            if source is not None:
                extra = self._ship_checkpoint(survivor, request.key,
                                              source)
                with self._lock:
                    if extra is not None:
                        self.counters["migrated"] += 1
                        self._emit("fleet.migrate", key=request.key,
                                   rid=request.rid,
                                   worker=survivor.index)
                    else:
                        self.counters["migrations_failed"] += 1
            with self._lock:
                self._dispatch(request, survivor, extra=extra)

    def _migration_source(self, dead_index: int,
                          key: str) -> str | None:
        """The dead worker's last checkpoint of this key, if any."""
        if self.resume_dir is None:
            return None
        path = os.path.join(self.resume_dir, f"w{dead_index}",
                            ckpt_filename(key))
        return path if os.path.exists(path) else None

    def _ship_checkpoint(self, link: _WorkerLink, key: str,
                         path: str) -> dict[str, Any] | None:
        """Ship one ``.rck`` file to a worker in-band: chunked base64
        frames bracketed by ``ckpt_begin``/``ckpt_end``, acknowledged
        after the worker re-verifies the sha256 and the ``RPROCKP1``
        header.  Returns the ``{"resume_xfer": xid}`` submit extra on
        success, None on any failure (the caller falls back to a fresh
        re-dispatch — always safe, anytime re-runs are valid)."""
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        xid = next(self._xids)
        waiter: list[Any] = [threading.Event(), None]
        with self._ckpt_lock:
            self._ckpt_waiters[xid] = waiter
        try:
            send_msg(link.sock, {
                "op": "ckpt_begin", "xid": xid, "key": key,
                "size": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }, link.send_lock)
            for off in range(0, len(data), CKPT_CHUNK_BYTES):
                chunk = data[off:off + CKPT_CHUNK_BYTES]
                send_msg(link.sock, {
                    "op": "ckpt_chunk", "xid": xid,
                    "data": base64.b64encode(chunk).decode(),
                }, link.send_lock)
            send_msg(link.sock, {"op": "ckpt_end", "xid": xid},
                     link.send_lock)
        except OSError:
            with self._ckpt_lock:
                self._ckpt_waiters.pop(xid, None)
            return None
        if not waiter[0].wait(timeout=self.ckpt_ack_timeout_s):
            with self._ckpt_lock:
                self._ckpt_waiters.pop(xid, None)
            return None
        ack = waiter[1]
        if not (isinstance(ack, dict) and ack.get("ok")):
            return None
        try:
            # consumed: the receiver now owns the only live copy, and
            # a past must never be resumed twice
            os.unlink(path)
        except OSError:
            pass
        return {"resume_xfer": xid}

    # -- fleet-wide memo -------------------------------------------------

    def _memo_lookup(self, key: str) -> dict[str, Any] | None:
        """A fresh sealed-final payload for ``key``, or None (expired
        entries evicted on the way).  Lock held by the caller."""
        entry = self._memo.get(key)
        if entry is None:
            return None
        expires_at, payload = entry
        if _time.monotonic() >= expires_at:
            del self._memo[key]
            return None
        return payload

    def _memo_store(self, key: str, msg: dict[str, Any]) -> None:
        """Cache a worker's ``done`` if it is a sealed *final* answer.
        Bounded: expired entries purged, then earliest-expiry evicted
        over ``fleet_memo_max``.  Lock held by the caller."""
        if self.fleet_memo_ttl_s <= 0:
            return
        if not (msg.get("state") == "completed" and msg.get("final")
                and msg.get("value_digest")):
            return
        now = _time.monotonic()
        for stale in [k for k, (exp, _) in self._memo.items()
                      if now >= exp]:
            del self._memo[stale]
        if key not in self._memo \
                and len(self._memo) >= self.fleet_memo_max:
            oldest = min(self._memo, key=lambda k: self._memo[k][0])
            del self._memo[oldest]
        payload = {k: v for k, v in msg.items() if k != "rid"}
        self._memo[key] = (now + self.fleet_memo_ttl_s, payload)

    def _emit(self, kind: str, *, key: str | None = None,
              **args: Any) -> None:
        sink = self._trace_sink
        if sink is None:
            return
        try:
            sink.emit(TraceEvent(ts=_time.monotonic(), kind=kind,
                                 stage="router", target=key,
                                 args=args))
        except Exception:
            pass

    def _worker_stats(self, link: _WorkerLink,
                      timeout_s: float) -> dict[str, Any] | None:
        rid = next(self._stats_rids)
        waiter: list[Any] = [threading.Event(), None]
        with self._lock:
            self._stats_waiters[rid] = waiter
            try:
                send_msg(link.sock, {"op": "stats", "rid": rid},
                         link.send_lock)
            except OSError:
                self._stats_waiters.pop(rid, None)
                return None
        if not waiter[0].wait(timeout=timeout_s):
            with self._lock:
                self._stats_waiters.pop(rid, None)
            return None
        return waiter[1]


def summarize_fleet(requests: list[FleetRequest],
                    wall_s: float | None = None) -> dict[str, Any]:
    """Reduce terminal fleet requests to fleet-wide serving metrics."""
    import math

    if not requests:
        raise ValueError("no requests to summarize")
    results = []
    for request in requests:
        if not request.done:
            raise RuntimeError(f"fleet request {request.rid} is not "
                               f"terminal; drain the router first")
        results.append(request.result(timeout_s=0.0))
    by_state: dict[str, int] = {}
    for r in results:
        by_state[r["state"]] = by_state.get(r["state"], 0) + 1
    served = [r for r in results if r["state"] == "completed"]
    latencies = [r["fleet_latency_s"] for r in served]
    if wall_s is None:
        first = min(request.submitted_at for request in requests)
        last = max(request.submitted_at + r["fleet_latency_s"]
                   for request, r in zip(requests, results))
        wall_s = max(last - first, 1e-9)

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else math.nan

    return {
        "requests": len(results),
        "states": by_state,
        "completed": len(served),
        "shed": by_state.get("shed", 0),
        "failed": by_state.get("failed", 0),
        "wall_s": wall_s,
        "goodput_rps": len(served) / wall_s,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p99_s": percentile(latencies, 99),
        "latency_mean_s": mean(latencies),
        "coalesced": sum(1 for r in served if r.get("coalesced")),
        "memo_hits": sum(1 for r in served if r.get("memo_hit")),
        "redispatched": sum(1 for r in results
                            if r.get("redispatches", 0) > 0),
        "slo_attainment": (sum(1 for r in served if r.get("slo_met"))
                           / len(served)) if served else math.nan,
        "workers_used": sorted({r.get("worker") for r in served
                                if r.get("worker") is not None}),
    }
