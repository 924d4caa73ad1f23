"""Real-machine threaded execution of anytime automata.

One thread per stage, each driving its generator through the shared
interpreter loop (:func:`repro.core.semantics.pump`) against wall-clock
time: :class:`Compute` is a no-op (the actual NumPy work happens inside
the stage generator between yields), waits block on buffer events, and
channels use their built-in blocking operations.

This executor exists for what simulation cannot give — genuine
interactive interruption on a live machine (stop the automaton the moment
the on-screen output looks right).  Its runtime-accuracy numbers carry the
usual wall-clock caveats (CPython's GIL serializes pure-Python sections;
NumPy kernels release it), which is why the benchmarks use the
deterministic simulator and the examples use this.

Fault tolerance: a stage exception no longer discards the run.  Each
stage is governed by a :class:`~repro.core.faults.FaultPolicy` — it is
restarted from a fresh generator (legal because buffers are monotone),
degraded (its output buffer is *sealed* at the last published version and
downstream stages finish on it), or, under the fail-fast default, halts
the automaton while still returning the partial timeline.  Outcomes are
reported per stage in :attr:`ThreadedResult.stage_reports`; pass
``strict=True`` to restore the historical raise-on-failure behavior.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass, field
from typing import Any

from .buffer import Snapshot
from .channel import ChannelClosed
from .controller import StopCondition
from .faults import FaultInjector, FaultPolicy, StageReport
from .graph import AutomatonGraph
from .recording import Timeline
from .semantics import (HALT, ResultView, StageRules, compute_energy,
                        poll_inputs, pump, try_wait)
from .stage import CHANNEL_END
from .tracing import TraceSink

__all__ = ["ThreadedExecutor", "ThreadedResult", "RunHandle"]

_POLL_S = 0.005

#: a blocking attempt that has to be retried
_AGAIN = object()


@dataclass
class ThreadedResult(ResultView):
    """Outcome of one wall-clock run (times are wall seconds from start).

    ``completed`` means every stage ran its generator to the natural
    end; ``stopped_early`` means a stop condition, user interrupt or
    timeout halted the run — a pure stage failure sets *neither*.
    ``stage_reports`` carries the per-stage fault record.
    """

    timeline: Timeline
    duration: float
    completed: bool
    stopped_early: bool
    final_values: dict[str, Any] = field(default_factory=dict)
    errors: list[tuple[str, BaseException]] = field(default_factory=list)
    stage_reports: dict[str, StageReport] = field(default_factory=dict)


class RunHandle:
    """Control surface over a *launched*, in-flight executor run.

    This is the inversion of control the serving layer is built on: an
    executor no longer owns its run loop from start to finish — it is
    launched, and the holder of the handle decides when the run is
    paused, resumed, stopped, or collected.  Works identically over the
    threaded and process executors (both implement the small private
    protocol the handle delegates to).

    The anytime guarantee makes every operation safe at any moment:
    pausing, stopping or abandoning the run leaves the output buffer
    holding a valid approximation (Property 3), so a scheduler can
    preempt a run between output versions with nothing to clean up.
    """

    def __init__(self, executor: Any) -> None:
        self.executor = executor

    # -- preemption ------------------------------------------------------

    def pause(self) -> None:
        """Suspend progress at the next inter-command boundary.

        Stages stop pumping their generators (the threaded executor
        gates every command dispatch; the process executor stops
        answering worker requests, so workers block on their next
        blocking command).  Idempotent; wall clocks keep running.
        """
        self.executor._set_paused(True)

    def resume(self) -> None:
        """Undo :meth:`pause`; progress restarts within one poll tick."""
        self.executor._set_paused(False)

    @property
    def paused(self) -> bool:
        return self.executor._is_paused()

    # -- interruption ----------------------------------------------------

    def request_stop(self) -> None:
        """Interrupt the run (thread-safe, idempotent); also resumes a
        paused run so its stages can observe the halt and wind down."""
        self.executor.request_stop()

    # -- checkpoint ------------------------------------------------------

    def checkpoint(self, path: str) -> str:
        """Quiesce the run and serialize it to ``path`` (repro.ckpt).

        Pauses the run at its inter-command boundary, waits until every
        live stage has parked, captures the authoritative state —
        buffer ladders, channel queues, per-stage cursors, reports,
        energy, stop progress — and writes a digest-stamped checkpoint
        file.  The run then continues (its pause state is restored), so
        a checkpoint is an observation, not an interruption: take one
        and keep running, or take one and :meth:`request_stop`.

        Returns the payload digest.  Must precede any stop request (a
        stopping run seals its buffers, which is unrecoverable);
        raises :class:`repro.ckpt.CheckpointError` otherwise.
        """
        return self.executor._checkpoint(path)

    # -- observation -----------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once every stage has wound down (result is ready)."""
        return not self.executor._is_active()

    def snapshot(self) -> Snapshot:
        """Atomic snapshot of the watched terminal buffer, right now.

        By Property 3 this is always a valid approximation (or empty
        before the first write) — the live ``peek`` a server streams
        intermediate refinements from.
        """
        return self.executor._peek()

    def wait(self, timeout_s: float | None = None) -> bool:
        """Block until the run finishes; False on timeout."""
        return self.executor._wait_done(timeout_s)

    # -- collection ------------------------------------------------------

    def result(self, timeout_s: float | None = None) -> ThreadedResult:
        """Collect the run's result, interrupting it at ``timeout_s``.

        Blocks until the run finishes; if ``timeout_s`` expires first
        the run is stopped and the partial result returned (the classic
        anytime contract).  Idempotent once finished.
        """
        if not self.executor._wait_done(timeout_s):
            self.executor.request_stop()
            self.executor._wait_done(None)
        return self.executor._finalize()


class WallClockRules(StageRules):
    """What the two wall-clock executors share beyond the stage rules:
    the run clock and collecting the result once every stage is down."""

    def __init__(self, graph: AutomatonGraph, **kwargs: Any) -> None:
        super().__init__(graph, **kwargs)
        self._t0 = 0.0
        self._ended_at: float | None = None
        self._final_lock = threading.Lock()
        self._final_result: ThreadedResult | None = None

    def _now(self) -> float:
        # resumed runs continue the interrupted run's clock, so the
        # combined timeline stays monotone across the checkpoint
        return _time.perf_counter() - self._t0 + self._t_offset

    def _stopping(self) -> bool:
        raise NotImplementedError

    def _refuse_checkpoint(self, launched: bool) -> None:
        """Raise unless the run is launched and not stopping (a
        stopping run seals every buffer, which is unrecoverable)."""
        from ..ckpt.format import CheckpointError

        if not launched:
            raise CheckpointError(
                "cannot checkpoint: the run was never launched")
        if self._stopping():
            raise CheckpointError(
                "cannot checkpoint a stopping run: shutdown seals "
                "every buffer (checkpoint before request_stop)")

    def _final_values(self) -> dict[str, Any]:
        return {b.name: b.snapshot().value
                for b in self.graph.buffers.values()}

    def _finalize(self) -> ThreadedResult:
        """Assemble the result after every stage has wound down."""
        with self._final_lock:
            if self._final_result is None:
                ended = (self._ended_at if self._ended_at is not None
                         else _time.perf_counter())
                stopped = self._stopping()
                if stopped:
                    self._shutdown_io()
                self._final_result = ThreadedResult(
                    timeline=self._whole_timeline(),
                    duration=ended - self._t0 + self._t_offset,
                    completed=self._completed(stopped),
                    stopped_early=stopped,
                    final_values=self._final_values(),
                    errors=list(self._errors),
                    stage_reports=dict(self._reports))
            self._raise_if_strict()
            return self._final_result


class ThreadedExecutor(WallClockRules):
    """Runs an :class:`AutomatonGraph` on real threads.

    Parameters mirror the simulated executor where meaningful; there is
    no core-share scheduling — the OS scheduler decides.

    Parameters
    ----------
    faults:
        A :class:`FaultPolicy` for every stage, or a ``{stage: policy}``
        mapping (key ``"*"`` is the default).  None = fail-fast.
    injector:
        Optional :class:`FaultInjector` test harness (single-use).
    strict:
        When True, a run that ends with an unrecovered stage failure
        raises ``RuntimeError`` (the historical behavior) instead of
        returning the partial result.
    trace:
        Optional :class:`~repro.core.tracing.TraceSink` receiving
        structured execution events; None (or a disabled sink such as
        ``NullSink``) short-circuits every hook (zero overhead when
        off).  Timestamps are wall seconds from run start.
    trace_metric / trace_reference:
        When both tracing and a metric are supplied, each watched write
        additionally emits an ``accuracy.sample`` event with
        ``metric(value, trace_reference)``.
    lease_k:
        Cap on :class:`~repro.core.stage.Lease` grants — how many
        accuracy levels a stage may batch into one vectorized kernel
        pass.  ``1`` disables batching (each level computed on its own,
        the historical behavior); the published versions are
        bit-identical at any setting.
    """

    label = "threaded"

    def __init__(self, graph: AutomatonGraph,
                 stop: StopCondition | None = None,
                 watch: set[str] | None = None,
                 faults: FaultPolicy | dict[str, FaultPolicy] | None = None,
                 injector: FaultInjector | None = None,
                 strict: bool = False,
                 trace: TraceSink | None = None,
                 trace_metric: Any = None,
                 trace_reference: Any = None,
                 lease_k: int = 8,
                 resume: Any = None) -> None:
        super().__init__(graph, stop=stop, watch=watch, faults=faults,
                         injector=injector, strict=strict, trace=trace,
                         trace_metric=trace_metric,
                         trace_reference=trace_reference, lease_k=lease_k,
                         resume=resume)
        self._halt = threading.Event()
        self._stop_requested = threading.Event()
        # The pause gate: cleared = stage threads park between commands
        # (preemption boundary for the serving scheduler).
        self._gate = threading.Event()
        self._gate.set()
        self._threads: list[threading.Thread] | None = None
        self._stage_threads: dict[str, threading.Thread] = {}
        # where each stage thread is parked or blocked (the checkpoint
        # quiesce detector)
        self._park_status: dict[str, tuple] = {}
        # One wake-up event per stage, subscribed to every input buffer:
        # a write to *any* input wakes the stage promptly (no rotation,
        # no busy-polling a single input).
        self._events = {s.name: threading.Event() for s in graph.stages}
        for s in graph.stages:
            for b in s.inputs:
                b.subscribe(self._events[s.name])

    def request_stop(self) -> None:
        """Interrupt the automaton (thread-safe, idempotent)."""
        self._stop_requested.set()
        self._halt.set()
        # release paused threads so they can observe the halt
        self._gate.set()

    def _stopping(self) -> bool:
        return self._stop_requested.is_set()

    # -- RunHandle protocol ----------------------------------------------

    def _set_paused(self, paused: bool) -> None:
        if paused:
            if not self._halt.is_set():
                self._gate.clear()
        else:
            self._gate.set()

    def _is_paused(self) -> bool:
        return not self._gate.is_set()

    def _is_active(self) -> bool:
        return self._threads is not None and any(
            t.is_alive() for t in self._threads)

    def _wait_done(self, timeout_s: float | None) -> bool:
        """Join all stage threads; False if ``timeout_s`` expired first."""
        if self._threads is None:
            raise RuntimeError("executor was never launched")
        deadline = (None if timeout_s is None
                    else _time.monotonic() + timeout_s)
        for t in self._threads:
            while t.is_alive():
                t.join(timeout=_POLL_S)
                if deadline is not None \
                        and _time.monotonic() >= deadline:
                    if self._is_active():
                        return False
        if self._ended_at is None:
            self._ended_at = _time.perf_counter()
        return True

    def _peek(self) -> Snapshot:
        return self.graph.buffers[self._watch_name()].snapshot()

    # -- per-stage thread ------------------------------------------------

    def _run_stage(self, stage) -> None:
        report = self._reports[stage.name]
        port = ThreadPort(self, stage)
        while not self._halt.is_set():
            report.attempts += 1
            self._trace("stage.start", stage=stage.name,
                        attempt=report.attempts)
            gen = stage.body()
            if self.injector is not None:
                gen = self.injector.wrap(stage.name, gen, realtime=True)
            try:
                outcome = pump(gen, port)
            except BaseException as exc:   # noqa: BLE001 - reported
                action, delay = self._dispose_failure(stage, exc)
                if action == "restart":
                    self._backoff(delay)
                    continue
                self._seal_outputs(stage)
                if action == "stop":
                    self.request_stop()
                elif action == "fail":
                    self._halt.set()
                return
            self._finish(stage, outcome)
            return

    def _backoff(self, delay: float) -> None:
        deadline = _time.monotonic() + delay
        while not self._halt.is_set():
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                return
            _time.sleep(min(remaining, _POLL_S))

    # -- checkpoint (repro.ckpt) -----------------------------------------

    def _effects(self) -> tuple:
        """A counter of externally visible progress; stable across two
        polls (with every live stage parked) means the run is quiesced."""
        versions = sum(b.version for b in self.graph.buffers.values())
        chans = sum(c.emitted + c.received
                    for c in self.graph.channels.values())
        with self._lock:
            return (versions, chans, len(self._timeline.records),
                    self.meter.total)

    def _settle(self, timeout_s: float = 30.0) -> None:
        """Wait (with the gate down) until every live stage thread is
        parked at the gate or blocked in a wait, and nothing moved
        between two consecutive polls."""
        from ..ckpt.format import CheckpointError

        deadline = _time.monotonic() + timeout_s
        prev: tuple | None = None
        while _time.monotonic() < deadline:
            live = {n for n, t in self._stage_threads.items()
                    if t.is_alive()}
            state = (dict(self._park_status), self._effects())
            if live <= set(state[0]) and state == prev:
                return
            prev = state
            _time.sleep(_POLL_S)
        stuck = sorted(
            n for n, t in self._stage_threads.items()
            if t.is_alive() and n not in self._park_status)
        raise CheckpointError(
            f"run failed to quiesce within {timeout_s}s "
            f"(unparked stages: {stuck})")

    def _capture_stages(self) -> tuple[dict[str, dict], dict[str, list]]:
        """Per-stage checkpoint entries + channel requeue map.

        Must run quiesced.  A stage parked with an undelivered channel
        update in its send slot (dequeued by a recv, never handed to
        the generator) gets that update put back at the head of the
        *checkpointed* queue — the live channel is untouched.
        """
        stages: dict[str, dict] = {}
        requeue: dict[str, list] = {}
        for s in self.graph.stages:
            thread = self._stage_threads.get(s.name)
            live = thread is not None and thread.is_alive()
            cursor = None
            if live:
                park = self._park_status.get(s.name)
                if park is not None and park[:2] == ("gate", "recv") \
                        and park[2] is not None \
                        and park[2] is not CHANNEL_END:
                    requeue.setdefault(s.channel.name, []).append(park[2])
                emitted = (s.emit_to.emitted
                           if s.emit_to is not None else 0)
                cursor = s.capture_state(s.output.version, emitted)
            stages[s.name] = self._stage_entry(s.name, live, cursor)
        return stages, requeue

    def _checkpoint(self, path: str) -> str:
        """Quiesce, capture, serialize; restores the pause state."""
        self._refuse_checkpoint(self._threads is not None)
        was_paused = self._is_paused()
        self._set_paused(True)
        try:
            self._settle()
            stages, requeue = self._capture_stages()
            return self._save_checkpoint(path, stages, self._now(),
                                         channel_requeue=requeue)
        finally:
            if not was_paused:
                self._set_paused(False)

    # -- whole-run driver ------------------------------------------------

    def launch(self) -> RunHandle:
        """Start the stage threads without blocking; returns a handle.

        The run proceeds in the background; the caller pauses, resumes,
        stops and collects it through the :class:`RunHandle` — the
        schedulable-resource form of this executor.
        """
        if self._threads is not None:
            raise RuntimeError("executor already launched")
        self._t0 = _time.perf_counter()
        self._install_hooks()
        finished = (self._resume.finished if self._resume is not None
                    else {})
        # Stages that were already terminal at checkpoint time are not
        # relaunched: their buffers are final or sealed (a relaunch
        # would be rejected by the frozen-buffer rule) and their reports
        # carry the checkpointed outcome.
        self._stage_threads = {
            s.name: threading.Thread(target=self._run_stage, args=(s,),
                                     name=f"stage-{s.name}", daemon=True)
            for s in self.graph.stages if s.name not in finished}
        self._threads = list(self._stage_threads.values())
        for t in self._threads:
            t.start()
        return RunHandle(self)

    def run(self, timeout_s: float | None = None) -> ThreadedResult:
        """Execute until completion, stop condition, or ``timeout_s``."""
        return self.launch().result(timeout_s=timeout_s)


class ThreadPort:
    """The threaded executor's blocking, for :func:`~repro.core.semantics.pump`.

    Every blocking command waits in short slices so the run's halt flag
    stays live, and records where its stage is parked for the
    checkpoint quiesce detector.
    """

    def __init__(self, executor: ThreadedExecutor, stage) -> None:
        self.ex = executor
        self.stage = stage
        self.report = executor._reports[stage.name]
        self.lease_k = executor.lease_k
        self.halted = executor._halt.is_set

    def parked(self, kind: str | None, value: Any) -> bool:
        ex, name = self.ex, self.stage.name
        if ex._gate.is_set():
            ex._park_status.pop(name, None)
            return False
        # paused: park between commands (the preemption point); the
        # short timeout keeps the halt flag live
        ex._park_status[name] = ("gate", kind, value)
        ex._gate.wait(timeout=_POLL_S)
        return True

    def compute(self, cmd) -> None:
        # the work already ran inside the stage; charge its declared
        # cost so the timeline's energy column fills
        self.ex._charge(compute_energy(cmd))

    def write(self, cmd) -> None:
        if self.ex._write(self.stage, cmd.value, cmd.final, cmd.transfer):
            self.ex.request_stop()

    def poll(self, seen) -> bool:
        return poll_inputs(self.stage, seen)

    def close_channel(self) -> None:
        self.stage.emit_to.close()

    def _block(self, kind: str, attempt, idle=None) -> Any:
        """Retry ``attempt`` (which returns ``_AGAIN`` while it would
        block, then ``idle()`` runs) until it answers or the run halts;
        records one wait."""
        ex, name = self.ex, self.stage.name
        started: float | None = None
        try:
            while not ex._halt.is_set():
                reply = attempt()
                if reply is not _AGAIN:
                    return reply
                if started is None:
                    started = ex._now()
                # a blocked wait is a quiesce point too: under pause the
                # producers are parked, so nothing can satisfy it
                ex._park_status[name] = ("wait", kind)
                if idle is not None:
                    idle()
            return HALT
        finally:
            ex._park_status.pop(name, None)
            if started is not None:
                ex._trace_wait(name, started, kind)

    def wait(self, seen) -> Any:
        event = self.ex._events[self.stage.name]

        def attempt():
            event.clear()
            reply = try_wait(self.stage, seen)
            return _AGAIN if reply is None else reply

        # the event is set by a write/seal to any input
        return self._block("inputs", attempt,
                           lambda: event.wait(timeout=_POLL_S))

    def emit(self, update) -> Any:
        def attempt():
            try:
                self.stage.emit_to.emit(update, timeout=_POLL_S)
            except TimeoutError:
                return _AGAIN
            return None

        # ChannelClosed propagates to the fault policy
        return self._block("emit", attempt)

    def recv(self) -> Any:
        def attempt():
            try:
                return self.stage.channel.recv(timeout=_POLL_S)
            except TimeoutError:
                return _AGAIN
            except ChannelClosed:
                return CHANNEL_END

        return self._block("recv", attempt)
