"""Process-parallel execution with a shared-memory data plane.

One worker *process* per stage, driving its generator through the same
interpreter loop as the threaded executor
(:func:`repro.core.semantics.pump`) — but sidestepping the GIL, so
NumPy-light pipelines actually overlap on real cores (the paper's
POWER7+ machine ran its stages on 32 hardware threads; see Figure 11).

Architecture: the parent is a single-threaded **reactor** that owns the
authoritative :class:`VersionedBuffer` / :class:`UpdateChannel` objects,
the timeline, the stop condition, fault policies and the trace sink.
Each worker talks to it over a duplex pipe carrying *control* messages
only: ndarray payloads are written once into per-buffer
:class:`~repro.core.shmplane.SlabRing` slabs and cross the pipe as
:class:`~repro.core.shmplane.NDRef` descriptors (see
:mod:`repro.core.shmplane` for the pinning protocol that keeps
snapshots atomic).  The parent applies the shared stage rules of
:mod:`repro.core.semantics` to the real buffer/channel objects, so
Property-2/3 enforcement, seal/abort cascades and the tracing
vocabulary are those of every other executor — the trace-shape parity
test in ``tests/test_tracing.py`` holds across all three backends.

Design notes and tradeoffs:

- **fork only.**  Stage bodies are closures over lambdas and ndarrays;
  they cannot be pickled, so workers are forked (the graph is inherited
  copy-on-write).  :class:`ProcessExecutor` raises on platforms without
  the ``fork`` start method.
- **Channel emits travel inline.**  Synchronous-pipeline updates are
  usually small (per-chunk partials); they are pickled over the control
  pipe.  The slab plane covers buffer versions, which dominate traffic.
- **Command leases amortize round-trips.**  Replies to waits and
  synchronous writes carry *write credits* (capped by ``lease_k``): a
  worker holding credits streams its next non-final writes without
  waiting for per-write replies — one pipe round-trip per lease
  instead of per accuracy level.  Grants are *speculative* (doubled)
  when every input snapshot is already final or sealed, since no
  future reply can change the stage's command stream.  Credits are
  revoked (``("revoke",)``) on pause and halt so ``repro.serve``
  quantum preemption and shutdown stay prompt, and a lease-held slab
  slot is only reused after a later synchronous reply proves the
  parent consumed the streamed write (pipe FIFO ordering).
- **Worker death is a fault.**  A worker that dies without reporting
  (segfault, ``kill -9``) is handled through the stage's
  :class:`~repro.core.faults.FaultPolicy` like any raise: ``restart``
  re-forks the stage from the parent's pristine copy (a re-forked
  diffusive stage loses its dense state and injected-fault counters —
  accuracy may transiently regress, which in-process restarts avoid),
  ``degrade`` seals its output, ``fail`` halts the run.
- **Shutdown never leaks.**  On completion, stop, fault-halt or
  ``timeout_s`` expiry the parent answers every parked request with a
  halt, gives workers a grace period, terminates stragglers, joins
  them, and unlinks every shared-memory segment it ever heard of —
  verified by the leak test in ``tests/test_procexec.py``.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time as _time
from multiprocessing import connection as mp_connection
from typing import Any, Callable

from .buffer import Snapshot
from .channel import ChannelClosed
from .controller import StopCondition
from .executor import RunHandle, ThreadedResult, WallClockRules
from .faults import FaultInjector, FaultPolicy, StageReport
from .graph import AutomatonGraph
from .semantics import (DONE, EXHAUSTED, HALT, HALTED, compute_energy,
                        poll_inputs, pump, try_wait)
from .shmplane import SegmentRegistry, SlabWriter, decode_payload
from .stage import CHANNEL_END
from .tracing import TraceSink

__all__ = ["ProcessExecutor"]

#: reactor poll interval (halt/timeout/restart checks stay live)
_WAIT_S = 0.02


# ---------------------------------------------------------------------------
# Worker side


class _Worker:
    """Runs one stage's generator inside a forked process.

    The worker is the port through which
    :func:`~repro.core.semantics.pump` blocks: every blocking decision
    is delegated to the parent over the pipe — the worker sends a
    request and blocks on the reply, which may be a ``("halt",)`` at any
    point.  In-process restarts keep diffusive state and injector
    counters, exactly like threaded restarts.
    """

    def __init__(self, stage, conn, slots: int, lock,
                 injector: FaultInjector | None, tracing: bool,
                 lease_k: int) -> None:
        self.stage = stage
        self.conn = conn
        self.injector = injector
        self.lease_k = int(lease_k)
        #: the pump's command counter; what it gained since the last
        #: report rides to the parent on the stage's ending messages
        self.report = StageReport(stage=stage.name)
        self._reported = 0
        self.registry = SegmentRegistry()
        self.writer = SlabWriter(
            stage.output.name, slots, lock,
            on_segment=lambda names: conn.send(("segments", names)))
        # Resumed runs (repro.ckpt) fork with the output buffer already
        # holding its checkpointed ladder; version numbering continues
        # from there (zero on a fresh run).
        self._version = stage.output.version
        #: write credits from the parent's last wait / sync-write reply:
        #: how many upcoming non-final writes may skip their replies
        self._credits = 0
        if tracing and injector is not None:
            # raw worker clock; the parent delta-corrects against the
            # epoch handshake below, so merged traces are monotone even
            # across processes with skewed perf_counter epochs
            injector.tracer = (
                lambda s, c, k: conn.send(
                    ("trace", "fault.injected", _time.perf_counter(),
                     {"at": c, "fault": k})))

    def _commands(self) -> int:
        """Commands counted since the last report to the parent."""
        n, self._reported = (self.report.commands - self._reported,
                             self.report.commands)
        return n

    def _request(self, msg: tuple) -> tuple:
        self._credits = 0
        self.conn.send(msg)
        while True:
            reply = self.conn.recv()
            if reply[0] == "revoke":
                # lease revoked mid-request; credits already zero
                continue
            if reply[0] == "capture":
                # checkpoint quiesce (repro.ckpt): the parent asks for
                # this stage's resume cursor while our request stays
                # unanswered; reply[1]/reply[2] are the authoritative
                # write/emit counts it has applied so far
                self.conn.send(("state",
                                self.stage.capture_state(reply[1],
                                                         reply[2]),
                                self._commands()))
                continue
            # any reply proves the parent consumed every message sent
            # before this request (pipe FIFO) — streamed leased writes
            # included, so their slab slots are safe to reuse
            self.writer.release_held()
            return reply

    def _ask(self, msg: tuple) -> Any:
        """A blocking request: the reply, :data:`HALT`, or the raise
        the parent relayed."""
        reply = self._request(msg)
        if reply[0] == "halt":
            return HALT
        if reply[0] == "raise":
            if reply[1] == "closed":
                raise ChannelClosed(reply[2])
            raise RuntimeError(reply[2])
        return reply

    def _drain_revokes(self) -> None:
        """Consume asynchronous lease revocations before a leased write.

        Between requests the only unsolicited parent->worker messages
        are ``("revoke",)`` — replies are always consumed inside
        :meth:`_request` — so a non-blocking drain here is safe.
        """
        while self.conn.poll():
            if self.conn.recv()[0] == "revoke":
                self._credits = 0

    def run(self) -> None:
        try:
            # epoch handshake: the parent stamps its own receipt time
            # and delta-corrects every later raw worker timestamp
            self.conn.send(("epoch", _time.perf_counter()))
            self._run_stage()
        finally:
            # the stage's pass snapshots are zero-copy views into the
            # slabs: closing a mapping they still view would fail
            self.stage.drop_inputs()
            self.writer.close()
            self.registry.close_all()
            try:
                self.conn.close()
            except OSError:   # pragma: no cover - defensive
                pass

    def _run_stage(self) -> None:
        stage = self.stage
        while True:
            gen = stage.body()
            if self.injector is not None:
                gen = self.injector.wrap(stage.name, gen, realtime=True)
            try:
                outcome = pump(gen, self)
            except BaseException as exc:   # noqa: BLE001 - reported
                reply = self._request(("failed", repr(exc),
                                       self._commands()))
                action, delay = reply[1], reply[2]
                if action == "restart":
                    if delay > 0:
                        _time.sleep(delay)
                    continue
                return   # degrade / fail / stop: the parent seals
            self.conn.send((outcome, self._commands()))
            return

    # -- the port ----------------------------------------------------------

    def halted(self) -> bool:
        return False   # a halt arrives as the reply to a request

    def parked(self, kind: str | None, value: Any) -> bool:
        return False   # a pause holds the reply to the next request

    def compute(self, cmd) -> None:
        self.conn.send(("energy", compute_energy(cmd)))

    def write(self, cmd) -> Any:
        self._version += 1
        if self._credits > 0:
            self._drain_revokes()
        if self._credits > 0 and not cmd.final:
            # leased write: stream it, no reply round-trip; the slot
            # stays held until a later sync reply
            self._credits -= 1
            payload = self.writer.encode(cmd.value, self._version,
                                         hold=True)
            self.conn.send(("write", payload, False, True))
            return None
        payload = self.writer.encode(cmd.value, self._version)
        reply = self._ask(("write", payload, bool(cmd.final), False))
        if reply is not HALT and len(reply) > 2:
            self._credits = reply[2]
        return reply

    def wait(self, seen) -> Any:
        reply = self._ask(("wait", dict(seen)))
        if reply is HALT:
            return HALT
        if reply[0] == "exhausted":
            return EXHAUSTED
        if len(reply) > 2:
            self._credits = reply[2]
        return {name: Snapshot(name, decode_payload(p, self.registry),
                               version, final, sealed)
                for name, p, version, final, sealed in reply[1]}

    def poll(self, seen) -> Any:
        reply = self._ask(("poll", dict(seen)))
        return reply if reply is HALT else reply[1]

    def emit(self, update) -> Any:
        return self._ask(("emit", update))

    def close_channel(self) -> Any:
        return self._ask(("close_channel",))

    def recv(self) -> Any:
        reply = self._ask(("recv",))
        if reply is HALT:
            return HALT
        return CHANNEL_END if reply[0] == "end" else reply[1]


def _worker_main(stage, conn, inherited, slots, lock, injector,
                 tracing, lease_k) -> None:
    for other in inherited:
        # parent-end copies of earlier pipes, inherited through fork;
        # closing them keeps EOF detection per worker crisp
        try:
            other.close()
        except OSError:   # pragma: no cover - defensive
            pass
    _Worker(stage, conn, slots, lock, injector, tracing,
            lease_k).run()


# ---------------------------------------------------------------------------
# Parent side


class _Parked:
    """One blocked worker request awaiting a state change."""

    __slots__ = ("worker", "kind", "payload", "started")

    def __init__(self, worker, kind: str, payload: Any,
                 started: float) -> None:
        self.worker = worker
        self.kind = kind
        self.payload = payload
        self.started = started


class _WorkerHandle:
    __slots__ = ("stage", "proc", "conn", "terminal", "restart_at",
                 "epoch_raw", "epoch_rel", "pending_error")

    def __init__(self, stage) -> None:
        self.stage = stage
        self.proc = None
        self.conn = None
        self.terminal = False          # reported an outcome / was resolved
        self.restart_at: float | None = None   # pending re-fork deadline
        self.epoch_raw: float | None = None    # worker perf_counter epoch
        self.epoch_rel = 0.0           # parent-relative receipt time
        self.pending_error: tuple | None = None   # failed leased write


class ProcessExecutor(WallClockRules):
    """Runs an :class:`AutomatonGraph` on one process per stage.

    Parameters mirror :class:`~repro.core.executor.ThreadedExecutor`
    (the result type is shared); ``grace_s`` bounds how long shutdown
    waits for workers to exit voluntarily before terminating them.
    """

    label = "process"

    def __init__(self, graph: AutomatonGraph,
                 stop: StopCondition | None = None,
                 watch: set[str] | None = None,
                 faults: FaultPolicy | dict[str, FaultPolicy] | None = None,
                 injector: FaultInjector | None = None,
                 strict: bool = False,
                 trace: TraceSink | None = None,
                 trace_metric: Any = None,
                 trace_reference: Any = None,
                 grace_s: float = 5.0,
                 lease_k: int = 8,
                 resume: Any = None) -> None:
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "ProcessExecutor requires the 'fork' start method "
                "(stage bodies close over unpicklable state); this "
                "platform does not provide it — use run_threaded")
        super().__init__(graph, stop=stop, watch=watch, faults=faults,
                         injector=injector, strict=strict, trace=trace,
                         trace_metric=trace_metric,
                         trace_reference=trace_reference, lease_k=lease_k,
                         resume=resume)
        self.grace_s = float(grace_s)
        self._ctx = mp.get_context("fork")
        self._locks = {name: self._ctx.Lock() for name in graph.buffers}
        # latest + one pin per consumer + a spare, plus headroom for
        # lease-held slots of streamed writes awaiting a sync reply
        # (at most one speculative grant of 2 * lease_k in flight)
        self._slots = {name: max(3, len(graph.consumers_of(name)) + 2
                                 + 2 * self.lease_k)
                       for name in graph.buffers}
        self._registry = SegmentRegistry()
        self._payloads: dict[str, Any] = {}
        self._ext_writers: list[SlabWriter] = []
        self._pins: dict[tuple[str, str], list] = {}
        self._workers = {s.name: _WorkerHandle(s) for s in graph.stages}
        self._by_conn: dict[Any, _WorkerHandle] = {}
        self._parked: list[_Parked] = []
        self._halted = False
        self._stop_requested = False
        self._paused = False
        self._pause_revoked = False
        self._grace_deadline = 0.0
        self._timeout_s: float | None = None
        self._reactor: threading.Thread | None = None
        #: newest decoded value per watched buffer (the handle's peek
        #: path — decoding a slab from outside the reactor could race a
        #: writer reusing slots, so the reactor caches at write time)
        self._latest: dict[str, Snapshot] = {}
        #: debug hook ``tap(direction, stage, message)`` observing every
        #: control message ("recv" = worker->parent, "send" = reply);
        #: the zero-copy test uses it to prove descriptor-only traffic
        self._message_tap: Callable[[str, str, tuple], None] | None = None
        # Checkpoint support (repro.ckpt).  A checkpoint request is a
        # small reactor-side state machine: phase 1 quiesces (worker
        # requests are diverted unanswered into _qparked), phase 2
        # round-trips ("capture", ...) to every parked worker for its
        # cursor, phase 3 writes the file and replays the diverted
        # requests as if nothing happened.
        self._ckpt_request: str | None = None
        self._ckpt_phase = 0
        self._ckpt_expect: set[str] = set()
        self._captured: dict[str, dict] = {}
        self._qparked: list[tuple[_WorkerHandle, tuple]] = []
        self._ckpt_event: threading.Event | None = None
        self._ckpt_result: tuple | None = None
        self._ckpt_revoked = False

    def request_stop(self) -> None:
        """Interrupt the automaton (effective at the next reactor turn)."""
        self._stop_requested = True

    def _stopping(self) -> bool:
        return self._stop_requested

    # -- data plane ------------------------------------------------------

    def _encode_externals(self) -> None:
        """Move external input arrays into slabs once, before forking."""
        for name, buffer in self.graph.buffers.items():
            snap = buffer.snapshot()
            if snap.version == 0:
                continue
            writer = SlabWriter(name, self._slots[name],
                                self._locks[name],
                                on_segment=self._registry.register)
            self._payloads[name] = writer.encode(snap.value, snap.version)
            self._ext_writers.append(writer)

    def _hand_payload(self, stage_name: str, buffer_name: str) -> Any:
        """Pin the current payload's slots for one consumer stage.

        Pin-before-unpin under the buffer's slab lock: the writer can
        only reuse a slot that is unpinned *and* not its most recent
        write, so a slot handed out here stays intact until this stage
        is handed a newer version.
        """
        payload = self._payloads[buffer_name]
        refs = [r for r in (payload[2] if payload[0] == "tree" else ())]
        key = (stage_name, buffer_name)
        old = self._pins.get(key, [])
        with self._locks[buffer_name]:
            for r in refs:
                self._registry.ring_for(r).pin(r.slot)
            for r in old:
                self._registry.ring_for(r).unpin(r.slot)
        self._pins[key] = refs
        for r in refs:
            self._trace("shm.pin", stage=stage_name, target=buffer_name,
                        segment=r.segment, slot=r.slot)
        for r in old:
            self._trace("shm.unpin", stage=stage_name,
                        target=buffer_name, segment=r.segment,
                        slot=r.slot)
        return payload

    def _decode(self, buffer_name: str) -> Any:
        payload = self._payloads.get(buffer_name)
        if payload is None:
            return None
        return decode_payload(payload, self._registry, copy=True)

    # -- lifecycle -------------------------------------------------------

    def _launch(self, w: _WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        inherited = [h.conn for h in self._workers.values()
                     if h.conn is not None]
        injector = self.injector if self.injector is not None and any(
            spec.stage == w.stage.name
            for spec in self.injector.faults) else None
        proc = self._ctx.Process(
            target=_worker_main,
            args=(w.stage, child_conn, inherited,
                  self._slots[w.stage.output.name],
                  self._locks[w.stage.output.name],
                  injector, self._sink is not None, self.lease_k),
            name=f"stage-{w.stage.name}", daemon=True)
        proc.start()
        child_conn.close()
        w.proc, w.conn, w.restart_at = proc, parent_conn, None
        w.epoch_raw, w.pending_error = None, None
        self._by_conn[parent_conn] = w
        report = self._reports[w.stage.name]
        report.attempts += 1
        self._trace("stage.start", stage=w.stage.name,
                    attempt=report.attempts)

    def _retire_conn(self, w: _WorkerHandle) -> None:
        if w.conn is not None:
            self._by_conn.pop(w.conn, None)
            try:
                w.conn.close()
            except OSError:   # pragma: no cover - defensive
                pass
            w.conn = None
        self._parked = [p for p in self._parked if p.worker is not w]
        self._qparked = [(ww, m) for ww, m in self._qparked
                         if ww is not w]

    def _reply(self, w: _WorkerHandle, msg: tuple) -> None:
        if self._message_tap is not None:
            self._message_tap("send", w.stage.name, msg)
        if msg[0] != "revoke":
            # every non-revoke parent->worker message answers a blocked
            # worker request: one completed pipe round-trip
            self._reports[w.stage.name].round_trips += 1
        try:
            w.conn.send(msg)
        except (BrokenPipeError, OSError):
            pass   # the worker died; the EOF path will handle it

    # -- request servicing ----------------------------------------------

    def _try_wait(self, w: _WorkerHandle, seen: dict) -> tuple | None:
        snaps = try_wait(w.stage, seen)
        if snaps is None:
            return None
        if snaps is EXHAUSTED:
            return ("exhausted",)
        wire = [(n, self._hand_payload(w.stage.name, n), s.version,
                 s.final, s.sealed) for n, s in snaps.items()]
        return ("snaps", wire, self._wait_credits(snaps.values()))

    def _wait_credits(self, snaps) -> int:
        """Write credits granted alongside an input snapshot.

        Speculative (doubled) when every input is already final or
        sealed — and for source stages, which have no inputs at all —
        because then no future reply can change the stage's command
        stream, so a longer unacknowledged write run is safe.
        """
        if self.lease_k <= 1:
            return 0
        if all(s.final or s.sealed for s in snaps):
            return 2 * self.lease_k
        return self.lease_k

    def _write_credits(self) -> int:
        """Write credits refreshed by a synchronous write reply."""
        return 0 if self.lease_k <= 1 else self.lease_k

    def _try_emit(self, w: _WorkerHandle, update: Any) -> tuple | None:
        channel = w.stage.emit_to
        try:
            return ("ok",) if channel.try_emit(update) else None
        except ChannelClosed as exc:
            return ("raise", "closed", str(exc))

    def _try_recv(self, w: _WorkerHandle) -> tuple | None:
        try:
            got, update = w.stage.channel.try_recv()
        except ChannelClosed:
            return ("end",)
        return ("update", update) if got else None

    def _do_write(self, w: _WorkerHandle, payload: Any,
                  final: bool) -> tuple:
        try:
            if self._write(w.stage, payload, final):
                self._stop_requested = True
        except ValueError as exc:
            return ("raise", "error", str(exc))
        return ("ok", w.stage.output.version)

    def _publish(self, stage, payload: Any, version: int, final: bool,
                 watched: bool) -> Any:
        # the buffer holds the slab descriptor; the timeline record (and
        # the accuracy metric) see the decoded value
        name = stage.output.name
        self._payloads[name] = payload
        if not watched:
            return None
        value = self._decode(name)
        self._latest[name] = Snapshot(name, value, version, final)
        return value

    #: blocking request kinds -> stage.wait label
    _BLOCKING = {"wait": "inputs", "emit": "emit", "recv": "recv"}

    def _service(self, w: _WorkerHandle, kind: str,
                 payload: Any) -> tuple | None:
        """Answer one request, or None while it would block."""
        if kind == "wait":
            return self._try_wait(w, payload)
        if kind == "poll":
            return ("ok", poll_inputs(w.stage, payload))
        if kind == "emit":
            return self._try_emit(w, payload)
        return self._try_recv(w)

    def _service_parked(self) -> None:
        """Retry every parked request until a pass makes no progress."""
        progressed = True
        while progressed and self._parked:
            progressed = False
            for parked in list(self._parked):
                reply = self._service(parked.worker, parked.kind,
                                      parked.payload)
                if reply is None:
                    continue
                self._parked.remove(parked)
                progressed = True
                self._trace_wait(parked.worker.stage.name, parked.started,
                                 self._BLOCKING[parked.kind])
                self._reply(parked.worker, reply)

    # -- message handling -------------------------------------------------

    def _handle(self, w: _WorkerHandle, msg: tuple) -> None:
        if self._message_tap is not None:
            self._message_tap("recv", w.stage.name, msg)
        kind = msg[0]
        if self._ckpt_phase > 0 and not self._halted:
            # Quiescing for a checkpoint: divert every request that
            # needs a reply (blocking commands and synchronous writes)
            # unanswered — the worker stays parked at its command
            # boundary.  Leased writes stream on through: they are
            # effects already committed worker-side and must land
            # before capture (pipe FIFO guarantees they did, relative
            # to the blocking request that follows them).
            if kind in ("wait", "poll", "emit", "recv",
                        "close_channel"):
                self._qparked.append((w, msg))
                return
            if kind == "write" and not (len(msg) > 3 and msg[3]):
                self._qparked.append((w, msg))
                return
        report = self._reports[w.stage.name]
        if kind == "state":
            # a quiesced worker's resume cursor (checkpoint phase 2)
            self._captured[w.stage.name] = msg[1]
            report.commands += msg[2]
        elif kind == "energy":
            self._charge(msg[1])
        elif kind == "segments":
            self._registry.register(msg[1])
        elif kind == "epoch":
            w.epoch_raw = msg[1]
            w.epoch_rel = self._now()
        elif kind == "trace":
            ts = msg[2]
            if w.epoch_raw is not None:
                # delta-correct the worker's raw clock against the
                # epoch handshake: merged traces stay monotone even if
                # the two processes' perf_counter epochs are skewed.
                # The handshake overestimates the offset by the epoch
                # message's transit time, so clamp to the receipt
                # instant — an event cannot postdate the moment the
                # parent read it, and min() of two nondecreasing
                # per-worker sequences stays monotone.
                ts = min(w.epoch_rel + (ts - w.epoch_raw), self._now())
            self._trace(msg[1], stage=w.stage.name, ts=ts, **msg[3])
        elif kind == "write":
            leased = len(msg) > 3 and msg[3]
            if self._halted or self._stop_requested:
                # mirror the threaded halt check before each command: a
                # write racing shutdown must not hit a sealed buffer
                # (a leased write expects no reply — just drop it; the
                # worker halts at its next synchronous request).  A
                # stop *request* counts too: a leased worker may have
                # streamed writes past the one that satisfied the stop
                # condition before the reactor loop could halt — under
                # sync semantics those writes never happen, so they
                # must not be recorded here either
                if not leased:
                    self._reply(w, ("halt",))
                return
            if w.pending_error is not None:
                # an earlier leased write failed: under sync semantics
                # the stage would have raised there, so later streamed
                # writes never happen — drop them and deliver the
                # error at the worker's next synchronous request
                if not leased:
                    self._reply_pending_error(w)
                return
            result = self._do_write(w, msg[1], msg[2])
            if leased:
                if result[0] == "raise":
                    w.pending_error = result
                return
            if result[0] == "raise":
                self._reply(w, result)
            else:
                self._reply(w, result + (self._write_credits(),))
        elif kind in ("wait", "poll", "emit", "recv"):
            if self._halted:
                self._reply(w, ("halt",))
                return
            if w.pending_error is not None:
                self._reply_pending_error(w)
                return
            payload = msg[1] if len(msg) > 1 else None
            reply = self._service(w, kind, payload)
            if reply is None:
                self._parked.append(_Parked(w, kind, payload, self._now()))
            else:
                self._reply(w, reply)
        elif kind == "close_channel":
            if w.pending_error is not None and not self._halted:
                self._reply_pending_error(w)
                return
            w.stage.emit_to.close()
            self._reply(w, ("halt",) if self._halted else ("ok",))
        elif kind == "failed":
            w.pending_error = None
            report.commands += msg[2]
            self._on_failure(w, RuntimeError(msg[1]), in_process=True)
        elif kind in (DONE, EXHAUSTED, HALTED):
            report.commands += msg[1]
            w.terminal = True
            self._finish(w.stage, kind)
        else:   # pragma: no cover - protocol invariant
            raise RuntimeError(
                f"unknown worker message {msg!r} from {w.stage.name!r}")

    def _reply_pending_error(self, w: _WorkerHandle) -> None:
        error, w.pending_error = w.pending_error, None
        self._reply(w, error)

    def _on_failure(self, w: _WorkerHandle, exc: BaseException,
                    in_process: bool) -> None:
        """Shared fault path for reported raises and hard worker death.

        ``in_process=True`` means the worker is alive, blocked on the
        action reply (restart keeps its diffusive state and injector
        counters); ``False`` means the process died and restart means a
        re-fork from the parent's pristine stage copy.
        """
        stage = w.stage
        action, delay = self._dispose_failure(stage, exc,
                                              halted=self._halted)
        if action == "restart":
            if in_process:
                report = self._reports[stage.name]
                report.attempts += 1
                self._trace("stage.start", stage=stage.name,
                            attempt=report.attempts)
                self._reply(w, ("action", "restart", delay))
            else:
                w.restart_at = self._now() + delay
            return
        w.terminal = True
        if in_process:
            self._reply(w, ("action", action, 0.0))
        self._seal_outputs(stage)
        if action == "stop":
            self._stop_requested = True
        elif action == "fail":
            self._initiate_halt()

    # -- reactor loop ------------------------------------------------------

    def _drain(self, conn) -> None:
        w = self._by_conn.get(conn)
        if w is None:   # pragma: no cover - raced retire
            return
        try:
            while w.conn is conn and conn.poll():
                self._handle(w, conn.recv())
        except (EOFError, OSError):
            self._on_eof(w)

    def _on_eof(self, w: _WorkerHandle) -> None:
        self._retire_conn(w)
        if w.terminal:
            return
        if self._halted:
            # killed (or exiting) during shutdown: a stage cut short
            w.terminal = True
            self._finish(w.stage, HALTED)
            return
        self._on_failure(
            w, RuntimeError(
                f"worker process for stage {w.stage.name!r} died "
                f"(exitcode={w.proc.exitcode})"),
            in_process=False)

    def _revoke_leases(self) -> None:
        """Zero every live worker's write credits (reactor thread only).

        A worker mid-lease sees the revoke before its next leased write
        (:meth:`_Worker._drain_revokes`) or inside its blocked request
        loop, and falls back to synchronous operation immediately.
        """
        for w in self._workers.values():
            if w.conn is not None and not w.terminal:
                self._reply(w, ("revoke",))

    def _initiate_halt(self) -> None:
        if self._halted:
            return
        self._halted = True
        self._revoke_leases()
        self._grace_deadline = self._now() + self.grace_s
        for parked in self._parked:
            self._reply(parked.worker, ("halt",))
        self._parked.clear()
        # abort any in-flight checkpoint: its diverted workers get the
        # same halt, and the requester an error instead of a file
        for w, _msg in self._qparked:
            self._reply(w, ("halt",))
        self._qparked.clear()
        if self._ckpt_request is not None and self._stop_requested:
            # a stop raced the quiesce: shutdown seals every buffer, so
            # the capture is lost — the requester gets an error.  (A
            # *natural* wind-down is fine: the requester captures the
            # completed state directly once the reactor exits.)
            from ..ckpt.format import CheckpointError
            self._ckpt_result = ("error", CheckpointError(
                "run halted while a checkpoint was being taken"))
            self._ckpt_request = None
            self._ckpt_phase = 0
            self._ckpt_revoked = False
            if self._ckpt_event is not None:
                self._ckpt_event.set()
        for w in self._workers.values():
            w.restart_at = None   # no re-forks once halting

    def _live_conns(self) -> list:
        return [w.conn for w in self._workers.values()
                if w.conn is not None]

    def _spawn_due_restarts(self) -> None:
        now = self._now()
        for w in self._workers.values():
            if w.restart_at is not None and now >= w.restart_at:
                self._retire_conn(w)
                self._launch(w)

    def _terminate_stragglers(self) -> None:
        for w in self._workers.values():
            if w.proc is not None and w.proc.is_alive():
                w.proc.terminate()

    def _join_all(self) -> None:
        deadline = _time.perf_counter() + max(self.grace_s, 1.0)
        for w in self._workers.values():
            if w.proc is None:
                continue
            w.proc.join(timeout=max(deadline - _time.perf_counter(),
                                    0.05))
            if w.proc.is_alive():   # pragma: no cover - last resort
                w.proc.kill()
                w.proc.join(timeout=1.0)
            self._retire_conn(w)

    def _cleanup_plane(self) -> None:
        for writer in self._ext_writers:
            writer.close()
        self._ext_writers.clear()
        self._registry.unlink_all()

    # -- checkpoint (repro.ckpt) -----------------------------------------

    def _quiesced(self) -> bool:
        """Every live, non-terminal worker is blocked on an unanswered
        request (pre-quiesce parked or quiesce-diverted) or is waiting
        out a re-fork backoff.  Leased writes have then all drained:
        they were sent before the blocking request, and the pipe is
        FIFO."""
        blocked = {p.worker.stage.name for p in self._parked}
        blocked.update(w.stage.name for w, _m in self._qparked)
        for w in self._workers.values():
            if w.terminal or w.restart_at is not None:
                continue
            if w.conn is None:
                continue   # death being resolved; EOF path will run
            if w.stage.name not in blocked:
                return False
        return True

    def _ckpt_step(self) -> None:
        """One reactor turn of the checkpoint state machine."""
        if self._ckpt_phase == 1:
            if not self._ckpt_revoked:
                # not needed for convergence (credits are only granted
                # by replies, which are diverted) but collapses the
                # quiesce latency for deeply-leased streaming workers
                self._ckpt_revoked = True
                self._revoke_leases()
            if not self._quiesced():
                return
            # ask every blocked worker for its resume cursor, passing
            # the authoritative applied-write / applied-emit counts
            self._ckpt_expect = set()
            for w in self._workers.values():
                if w.terminal or w.conn is None \
                        or w.restart_at is not None:
                    continue
                written = w.stage.output.version
                emitted = (w.stage.emit_to.emitted
                           if w.stage.emit_to is not None else 0)
                try:
                    w.conn.send(("capture", written, emitted))
                    self._ckpt_expect.add(w.stage.name)
                except (BrokenPipeError, OSError):
                    pass   # dying worker: resumes fresh (cursor None)
            self._ckpt_phase = 2
            return
        if self._ckpt_phase == 2:
            # drop expectations for workers that died mid-capture
            self._ckpt_expect = {
                n for n in self._ckpt_expect
                if self._workers[n].conn is not None}
            if not self._ckpt_expect <= set(self._captured):
                return
            try:
                result = ("ok", self._ckpt_write(self._ckpt_request))
            except BaseException as exc:   # noqa: BLE001 - reported
                result = ("error", exc)
            self._ckpt_result = result
            self._ckpt_request = None
            self._ckpt_phase = 0
            self._ckpt_revoked = False
            self._captured = {}
            # replay the diverted requests: the run continues as if the
            # checkpoint never happened
            qparked, self._qparked = self._qparked, []
            for w, msg in qparked:
                if w.conn is not None:
                    self._handle(w, msg)
            self._service_parked()
            if self._ckpt_event is not None:
                self._ckpt_event.set()

    def _ckpt_write(self, path: str) -> str:
        """Assemble and write the checkpoint file (run is quiesced).

        A worker in re-fork backoff is live without a cursor: it
        resumes from a fresh generator, re-consuming current snapshots
        (same as a process-death restart would)."""
        if self._final_result is not None:
            from ..ckpt.format import CheckpointError
            raise CheckpointError("cannot checkpoint a collected run: its "
                                  "shared-memory plane has been released")
        stages = {name: self._stage_entry(name, not w.terminal,
                                          self._captured.get(name))
                  for name, w in self._workers.items()}
        # parent-side buffers hold slab descriptors, not arrays —
        # decode each into a real value for the checkpoint
        buffer_values = {name: self._decode(name)
                         for name in self._payloads}
        return self._save_checkpoint(path, stages, self._now(),
                                     buffer_values=buffer_values)

    def _checkpoint(self, path: str) -> str:
        """Request a checkpoint from the reactor and wait for it."""
        self._refuse_checkpoint(self._reactor is not None)
        if self._halted or not self._reactor.is_alive():
            # the run already wound down naturally: every stage is
            # terminal, so the capture is a plain read of parent-side
            # state once the reactor finishes its cleanup
            self._reactor.join(timeout=self.grace_s + 10.0)
            self._refuse_checkpoint(True)
            return self._ckpt_write(path)
        event = threading.Event()
        self._ckpt_event = event
        self._ckpt_result = None
        self._captured = {}
        self._ckpt_revoked = False
        self._ckpt_phase = 1
        self._ckpt_request = path    # the reactor picks this up
        while not event.wait(timeout=_WAIT_S):
            if not self._reactor.is_alive():
                break
        if self._ckpt_result is None:
            # reactor exited mid-request (run completed): capture the
            # final state directly — no concurrency left to manage
            self._ckpt_request = None
            self._ckpt_phase = 0
            return self._ckpt_write(path)
        status, value = self._ckpt_result
        self._ckpt_result = None
        if status == "error":
            raise value
        return value

    # -- RunHandle protocol ----------------------------------------------

    def _set_paused(self, paused: bool) -> None:
        """Pause = the reactor stops draining and answering workers.

        Workers block on their next blocking command's reply (writes,
        waits, emits, recvs); pure compute between yields still runs to
        its next command — preemption lands at the command boundary,
        exactly like the threaded gate.
        """
        self._paused = bool(paused)

    def _is_paused(self) -> bool:
        return self._paused

    def _is_active(self) -> bool:
        return self._reactor is not None and self._reactor.is_alive()

    def _wait_done(self, timeout_s: float | None) -> bool:
        if self._reactor is None:
            raise RuntimeError("executor was never launched")
        self._reactor.join(timeout=timeout_s)
        return not self._reactor.is_alive()

    def _peek(self) -> Snapshot:
        name = self._watch_name()
        flags = self.graph.buffers[name].snapshot()
        cached = self._latest.get(name)
        if cached is None:
            return Snapshot(name, None, flags.version, flags.final,
                            flags.sealed)
        if cached.version == flags.version:
            return Snapshot(name, cached.value, flags.version,
                            flags.final, flags.sealed)
        return cached   # a write raced the flag read; cached is valid

    # -- whole-run driver --------------------------------------------------

    def launch(self) -> RunHandle:
        """Fork the workers and start the reactor thread; returns a
        handle (see :class:`~repro.core.executor.RunHandle`).

        The caller's thread forks the workers (inheriting the graph
        copy-on-write); the reactor loop then runs in a daemon thread
        so the run is pause/resume/stop-able from outside.
        """
        if self._reactor is not None:
            raise RuntimeError("executor already launched")
        self._t0 = _time.perf_counter()
        self._install_hooks()
        try:
            # make sure the one resource tracker exists before forking,
            # so every worker registers segments with the same tracker
            # (and the parent's unlink below settles all of them)
            from multiprocessing import resource_tracker
            resource_tracker.ensure_running()
        except Exception:   # pragma: no cover - tracker is best-effort
            pass
        self._encode_externals()
        finished = (self._resume.finished
                    if self._resume is not None else {})
        try:
            for w in self._workers.values():
                if w.stage.name in finished:
                    # restored as already terminal: its output ladder
                    # was re-encoded by _encode_externals above
                    w.terminal = True
                    continue
                self._launch(w)
        except BaseException:
            self._initiate_halt()
            self._terminate_stragglers()
            self._join_all()
            self._cleanup_plane()
            raise
        self._reactor = threading.Thread(target=self._reactor_main,
                                         name="procexec-reactor",
                                         daemon=True)
        self._reactor.start()
        return RunHandle(self)

    def _reactor_main(self) -> None:
        deadline = (None if self._timeout_s is None
                    else self._t0 + self._timeout_s)
        try:
            while True:
                conns = self._live_conns()
                if not conns and not any(
                        w.restart_at is not None
                        for w in self._workers.values()):
                    break
                if not self._halted:
                    if deadline is not None \
                            and _time.perf_counter() > deadline:
                        self._stop_requested = True
                    if self._stop_requested:
                        self._initiate_halt()
                if self._halted and self._now() > self._grace_deadline:
                    self._terminate_stragglers()
                self._spawn_due_restarts()
                quiescing = (self._ckpt_request is not None
                             and not self._halted)
                if quiescing:
                    self._ckpt_step()
                    quiescing = self._ckpt_request is not None
                if self._paused and not self._halted and not quiescing:
                    # preempted: leave workers parked on their pipes;
                    # halt/stop checks above stay live.  Revoke leases
                    # once per pause episode so streaming workers stop
                    # spending credits and sync up promptly.  (A
                    # checkpoint of a paused run overrides this branch:
                    # the quiesce needs the pipes drained.)
                    if not self._pause_revoked:
                        self._pause_revoked = True
                        self._revoke_leases()
                    _time.sleep(_WAIT_S)
                    continue
                self._pause_revoked = False
                if conns:
                    for conn in mp_connection.wait(conns,
                                                   timeout=_WAIT_S):
                        self._drain(conn)
                else:
                    _time.sleep(_WAIT_S)
                if not quiescing:
                    # while quiescing, parked requests stay parked (a
                    # blocked worker is exactly what the capture wants)
                    self._service_parked()
        finally:
            self._initiate_halt()
            self._terminate_stragglers()
            self._join_all()
            self._ended_at = _time.perf_counter()

    def _final_values(self) -> dict[str, Any]:
        """Decode every buffer's last payload, then release the plane."""
        values = {name: self._decode(name) for name in self.graph.buffers}
        self._cleanup_plane()
        return values

    def run(self, timeout_s: float | None = None) -> ThreadedResult:
        """Execute until completion, stop condition, or ``timeout_s``."""
        self._timeout_s = timeout_s
        return self.launch().result(timeout_s=None)
