"""Deterministic discrete-event execution of anytime automata.

This is the evaluation substrate standing in for the paper's 32-thread
POWER7+ machine (see DESIGN.md).  Every stage runs as a coroutine of
commands; :class:`Compute` costs are divided by the stage's core share and
advance a virtual clock; writes, waits and channel operations are
zero-time synchronization events.  The event order is fully deterministic
(ties broken by submission sequence), so runtime-accuracy profiles are
bit-reproducible — something wall-clock threading cannot offer, and the
reason the benchmarks use this executor.

The execution semantics are exactly the model's: stages run concurrently,
consumers see atomic buffer snapshots, a consumer that finishes a pass
picks up whichever newer version exists (asynchronous pipeline), and
synchronous channels deliver every update in order with optional
backpressure.

Fault tolerance follows the shared rules of :mod:`repro.core.semantics`:
a stage exception is retried (fresh generator, virtual-time backoff), degraded (output sealed
at the last published version; downstream finishes on it), or — under
the fail-fast default — halts the run, which still *returns* the partial
timeline with per-stage :class:`~repro.core.faults.StageReport` records.
Because injected faults are scheduled by command count and the event
order is deterministic, a fault schedule replays bit-identically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from ..hw.energy import EnergyTable
from .buffer import Snapshot
from .channel import ChannelClosed
from .controller import StopCondition
from .faults import FaultInjector, FaultPolicy, StageReport
from .graph import AutomatonGraph
from .recording import Timeline
from .scheduling import SchedulingPolicy, proportional_shares
from .semantics import (DONE, EXHAUSTED, ResultView, StageRules,
                        compute_energy, grant_lease, poll_inputs, try_wait)
from .stage import (CHANNEL_END, CloseChannel, Compute, Emit, Lease,
                    PollInputs, Recv, Stage, WaitInputs, Write)
from .syncstage import SynchronousStage
from .tracing import TraceSink

__all__ = ["SimResult", "SimulatedExecutor", "ExecutionError"]


class ExecutionError(RuntimeError):
    """The execution wedged (deadlock) or a stage misbehaved."""


def _find_deadline(stop: StopCondition | None) -> float | None:
    """Extract the tightest virtual-time deadline from a stop tree."""
    from .controller import AnyOf, DeadlineStop

    if stop is None:
        return None
    if isinstance(stop, DeadlineStop):
        return stop.deadline
    if isinstance(stop, AnyOf):
        deadlines = [d for d in (_find_deadline(c)
                                 for c in stop.conditions)
                     if d is not None]
        return min(deadlines) if deadlines else None
    return None


#: payload marking a buffer-waiter wake-up (vs. a step completion)
_WAKE = object()

#: marks "no update pending" for a producer blocked on a full channel
_NO_PENDING = object()


@dataclass
class SimResult(ResultView):
    """Outcome of one simulated run.

    ``completed`` means every stage ran to its natural end without
    degradation; ``stopped_early`` means a stop condition fired — a pure
    stage failure sets *neither* (inspect ``stage_reports``/``errors``).
    """

    timeline: Timeline
    duration: float
    energy: float
    completed: bool            # all stages ran to completion
    stopped_early: bool        # a stop condition fired
    shares: dict[str, float]
    final_values: dict[str, Any] = field(default_factory=dict)
    errors: list[tuple[str, BaseException]] = field(default_factory=list)
    stage_reports: dict[str, StageReport] = field(default_factory=dict)


class _Process:
    """Bookkeeping for one stage's coroutine."""

    __slots__ = ("stage", "gen", "done", "waiting_inputs",
                 "waiting_recv", "waiting_emit", "wait_started",
                 "wait_kind", "span_open")

    def __init__(self, stage: Stage) -> None:
        self.stage = stage
        self.gen = stage.body()
        self.done = False
        self.waiting_inputs: dict[str, int] | None = None
        self.waiting_recv = False
        self.waiting_emit: Any = _NO_PENDING  # pending update when blocked
        self.wait_started: float | None = None  # block time, for tracing
        self.wait_kind = ""                     # "inputs"|"recv"|"emit"
        self.span_open = False                  # a stage.start lacks its E


class SimulatedExecutor(StageRules):
    """Runs an :class:`AutomatonGraph` under virtual time.

    Parameters
    ----------
    graph:
        The validated automaton.
    total_cores:
        Core budget divided among stages by ``schedule``.
    schedule:
        A :data:`~repro.core.scheduling.SchedulingPolicy` or an explicit
        ``{stage: share}`` dict.
    stop:
        Optional :class:`StopCondition`, consulted after each watched
        write.
    watch:
        Buffer names whose written values are retained in the timeline
        (defaults to the terminal buffer).  The stop condition only sees
        watched writes.
    energy_table:
        Cost table for the energy meter.
    faults:
        A :class:`FaultPolicy` for every stage, or a ``{stage: policy}``
        mapping (key ``"*"`` is the default).  None = fail-fast.
    injector:
        Optional :class:`FaultInjector` test harness (single-use).
    strict:
        When True, a run ending with an unrecovered stage failure
        raises :class:`ExecutionError` instead of returning the partial
        result.
    trace:
        Optional :class:`~repro.core.tracing.TraceSink` receiving
        structured execution events (stage spans, waits, buffer and
        channel operations, fault dispositions).  None — or a sink with
        ``enabled=False`` such as ``NullSink`` — disables every hook at
        a single ``is None`` check (zero overhead when off).
    trace_metric / trace_reference:
        When both tracing and a metric are supplied, each watched write
        additionally emits an ``accuracy.sample`` event with
        ``metric(value, trace_reference)`` — the accuracy-vs-time event
        stream.
    lease_k:
        Cap on :class:`~repro.core.stage.Lease` grants — how many
        accuracy levels a stage may batch into one vectorized kernel
        pass.  ``1`` disables batching; the published versions are
        bit-identical at any setting.
    resume:
        A :class:`~repro.ckpt.state.ResumeInfo` from a restored
        checkpoint: finished stages are not re-run, the virtual clock,
        energy meter, stage reports and stop-condition progress
        continue from the interrupted run, and the result's timeline
        is prefixed with the interrupted run's records.
    checkpoint_at_stop:
        Optional path: when the run ends (stop condition or natural
        completion), capture a checkpoint there.  Virtual time has no
        live threads to quiesce — the event loop's rest state *is* the
        quiesced state — so the capture is synchronous and exact.
    """

    label = "simulated"

    def __init__(self, graph: AutomatonGraph,
                 total_cores: float = 32.0,
                 schedule: SchedulingPolicy | dict[str, float]
                 = proportional_shares,
                 stop: StopCondition | None = None,
                 watch: set[str] | None = None,
                 energy_table: EnergyTable | None = None,
                 dynamic_shares: bool = False,
                 faults: FaultPolicy | dict[str, FaultPolicy] | None = None,
                 injector: FaultInjector | None = None,
                 strict: bool = False,
                 trace: TraceSink | None = None,
                 trace_metric: Any = None,
                 trace_reference: Any = None,
                 lease_k: int = 8,
                 resume: Any = None,
                 checkpoint_at_stop: str | None = None) -> None:
        super().__init__(graph, stop=stop, watch=watch, faults=faults,
                         injector=injector, strict=strict, trace=trace,
                         trace_metric=trace_metric,
                         trace_reference=trace_reference, lease_k=lease_k,
                         resume=resume)
        if total_cores <= 0:
            raise ValueError(f"total_cores must be positive: {total_cores}")
        #: when True, cores are reassigned dynamically: the policy's
        #: shares become *weights* and the machine is divided among the
        #: stages computing at each instant (generalized processor
        #: sharing; paper IV-C2's future-work scheduler)
        self.dynamic_shares = bool(dynamic_shares)
        self.total_cores = float(total_cores)
        if callable(schedule):
            self.shares = schedule(graph, self.total_cores)
        else:
            self.shares = dict(schedule)
        for stage in graph.stages:
            share = self.shares.get(stage.name)
            if share is None or share <= 0:
                raise ValueError(
                    f"stage {stage.name!r} has no positive core share")
        self.meter.table = energy_table or EnergyTable()
        self.checkpoint_at_stop = checkpoint_at_stop
        # reports in stage-name order; a fresh run's stages all start
        self._reports = dict(sorted(self._reports.items()))
        if resume is None:
            for report in self._reports.values():
                report.attempts = 1
        # -- event-loop state ------------------------------------------
        self._clock = self._t_offset   # virtual time (resumed: continued)
        self._heap: list[tuple[float, int, str, Any]] = []
        self._seq = 0
        self._procs: dict[str, _Process] = {}
        self._waiters: dict[str, list[_Process]] = {}
        self._consumer: dict[int, _Process] = {}
        self._producer: dict[int, _Process] = {}
        self._pool = None
        self._stopped = False
        self._failed = False

    # -- clock and blocking ------------------------------------------------

    def _now(self) -> float:
        return self._clock

    def _schedule(self, proc: _Process, at: float, payload: Any) -> None:
        heapq.heappush(self._heap, (at, self._seq, proc.stage.name,
                                    payload))
        self._seq += 1

    def _trace_start(self, proc: _Process, attempt: int) -> None:
        proc.span_open = True
        self._trace("stage.start", stage=proc.stage.name, attempt=attempt)

    def _trace_finish(self, proc: _Process, status: str) -> None:
        if proc.span_open:
            proc.span_open = False
            self._trace("stage.finish", stage=proc.stage.name,
                        status=status)

    def _begin_wait(self, proc: _Process, kind: str) -> None:
        proc.wait_started = self._clock
        proc.wait_kind = kind

    def _end_wait(self, proc: _Process) -> None:
        if proc.wait_started is not None:
            self._trace_wait(proc.stage.name, proc.wait_started,
                             proc.wait_kind)
            proc.wait_started = None

    def _wake_recv(self, channel) -> None:
        """Hand a closed, drained channel's end to its blocked consumer."""
        consumer = self._consumer[id(channel)]
        if consumer.waiting_recv and len(channel) == 0:
            consumer.waiting_recv = False
            self._end_wait(consumer)
            self._schedule(consumer, self._clock, CHANNEL_END)

    def _seal_outputs(self, stage: Stage) -> None:
        """Seal, then release anyone blocked on what the stage feeds, so
        degradation cascades instead of wedging."""
        super()._seal_outputs(stage)
        for waiter in self._waiters.pop(stage.output.name, []):
            if not waiter.done:
                self._schedule(waiter, self._clock, _WAKE)
        if stage.emit_to is not None:
            self._wake_recv(stage.emit_to)
        if isinstance(stage, SynchronousStage):
            producer = self._producer.get(id(stage.channel))
            if producer is not None \
                    and producer.waiting_emit is not _NO_PENDING:
                # The pending update is lost with the stream; resume the
                # producer so its next emit observes the abort.
                producer.waiting_emit = _NO_PENDING
                self._end_wait(producer)
                self._schedule(producer, self._clock, None)

    # -- stage endings ---------------------------------------------------------

    def _finish_degraded(self, proc: _Process) -> None:
        proc.done = True
        proc.waiting_inputs = None
        proc.waiting_recv = False
        self._end_wait(proc)
        self._reports[proc.stage.name].degraded = True
        self._trace_finish(proc, "degraded")
        proc.gen.close()
        self._seal_outputs(proc.stage)

    def _fail(self, proc: _Process, exc: BaseException) -> None:
        """Apply the stage's fault policy to a raised command."""
        name = proc.stage.name
        proc.span_open = False   # the disposition closes the span
        action, delay = self._dispose_failure(proc.stage, exc)
        try:
            proc.gen.close()
        except RuntimeError:   # pragma: no cover - defensive
            pass
        if action == "restart":
            report = self._reports[name]
            report.attempts += 1
            gen = proc.stage.body()
            if self.injector is not None:
                gen = self.injector.wrap(name, gen)
            proc.gen = gen
            proc.waiting_inputs = None
            proc.waiting_recv = False
            proc.waiting_emit = _NO_PENDING
            proc.wait_started = None
            self._trace_start(proc, report.attempts)
            self._schedule(proc, self._clock + delay, None)
        elif action == "fail":
            proc.done = True
            self._seal_outputs(proc.stage)
            self._failed = True
        else:
            self._finish_degraded(proc)
            if action == "stop":
                self._stopped = True

    # -- kernel ----------------------------------------------------------

    def run(self) -> SimResult:
        procs = self._procs = {s.name: _Process(s)
                               for s in self.graph.stages}
        if self._resume is not None:
            for fname in self._resume.finished:
                # restored terminal stage: its buffer ladder (and seal /
                # final flags) came back with the graph state; it never
                # enters the event loop
                procs[fname].done = True
        if self.injector is not None:
            for name, p in procs.items():
                p.gen = self.injector.wrap(name, p.gen)
        for p in procs.values():
            if isinstance(p.stage, SynchronousStage):
                self._consumer[id(p.stage.channel)] = p
            if p.stage.emit_to is not None:
                self._producer[id(p.stage.emit_to)] = p
        for name in sorted(procs):
            if not procs[name].done:
                self._schedule(procs[name], self._clock, None)
        if self.dynamic_shares:
            from .procsharing import ProcessorPool

            self._pool = ProcessorPool(self.total_cores, self.shares)
        pool = self._pool
        # Deadlines are enforced by the kernel itself: no event past the
        # deadline executes, so the timeline never contains an output
        # version the deadline would not actually have allowed.
        deadline = _find_deadline(self.stop)
        # Every trace hook is a single `is None` check when tracing is
        # off; the wait/span bookkeeping also feeds the StageReport
        # counters, which are maintained unconditionally (cheap).
        self._install_hooks()
        for name in sorted(procs):
            if not procs[name].done:
                self._trace_start(procs[name],
                                  max(1, self._reports[name].attempts))

        heap = self._heap
        while not self._stopped and not self._failed:
            # Pick the next event: the heap's head or, under dynamic
            # sharing, the processor pool's earliest compute completion.
            heap_time = heap[0][0] if heap else None
            completion = pool.next_completion() if pool else None
            if heap_time is None and completion is None:
                break
            use_pool = completion is not None and (
                heap_time is None or completion[0] < heap_time)
            next_time = completion[0] if use_pool else heap_time
            if deadline is not None and next_time > deadline:
                self._stopped = True
                break
            if use_pool:
                self._clock, name = completion
                pool.complete(name, self._clock)
                payload = None
            else:
                self._clock, _, name, payload = heapq.heappop(heap)
            proc = procs[name]
            if proc.done:
                continue
            if payload is _WAKE:
                # Wake-up from a buffer write or seal.  Stale wakes (the
                # process was already resumed via another input's write)
                # and unsatisfied wakes re-block without touching the
                # generator; a wake that can never be satisfied (all
                # producers frozen) finishes the stage degraded.
                if proc.waiting_inputs is None:
                    continue
                payload = try_wait(proc.stage, proc.waiting_inputs)
                if payload is None:
                    continue
                proc.waiting_inputs = None
                if payload is EXHAUSTED:
                    self._finish_degraded(proc)
                    continue
                self._end_wait(proc)
            self._step(proc, payload)

        undone = [n for n, p in procs.items() if not p.done]
        if undone and not self._stopped and not self._failed and not heap:
            raise ExecutionError(
                f"execution wedged; blocked stages: {undone}")
        # Close any span left open by a stop / halt so a Chrome trace
        # always carries matched B/E pairs.
        for proc in procs.values():
            self._trace_finish(proc,
                               "stopped" if self._stopped else "halted")
        if self.checkpoint_at_stop is not None:
            self._write_checkpoint(self.checkpoint_at_stop)
        completed = self._completed(self._stopped)
        self._raise_if_strict(ExecutionError)
        final_values = {b.name: b.snapshot().value
                        for b in self.graph.buffers.values()}
        return SimResult(timeline=self._whole_timeline(),
                         duration=self._clock, energy=self.meter.total,
                         completed=completed, stopped_early=self._stopped,
                         shares=dict(self.shares),
                         final_values=final_values, errors=self._errors,
                         stage_reports=self._reports)

    def _step(self, proc: _Process, send_value: Any) -> None:
        """Run one stage's coroutine from an event until it blocks."""
        name = proc.stage.name
        stage = proc.stage
        report = self._reports[name]
        now = self._clock
        while True:
            try:
                cmd = proc.gen.send(send_value)
            except StopIteration:
                proc.done = True
                proc.span_open = False   # _finish closes the span
                self._finish(stage, DONE)
                return
            except BaseException as exc:   # noqa: BLE001 - policy
                self._fail(proc, exc)
                return
            send_value = None
            report.commands += 1
            if isinstance(cmd, Compute):
                self._charge(compute_energy(cmd))
                if self._pool is not None:
                    self._pool.start(name, cmd.cost, now)
                else:
                    self._schedule(proc, now + cmd.cost / self.shares[name],
                                   None)
                return
            elif isinstance(cmd, Write):
                try:
                    stop = self._write(stage, cmd.value, cmd.final,
                                       cmd.transfer)
                except ValueError as exc:
                    self._fail(proc, exc)
                    return
                for waiter in self._waiters.pop(stage.output.name, []):
                    if not waiter.done:
                        self._schedule(waiter, now, _WAKE)
                if stop:
                    self._stopped = True
                    return
            elif isinstance(cmd, WaitInputs):
                send_value = try_wait(stage, cmd.seen)
                if send_value is EXHAUSTED:
                    self._finish_degraded(proc)
                    return
                if send_value is not None:
                    continue
                proc.waiting_inputs = dict(cmd.seen)
                self._begin_wait(proc, "inputs")
                for b in stage.inputs:
                    self._waiters.setdefault(b.name, []).append(proc)
                return
            elif isinstance(cmd, PollInputs):
                send_value = poll_inputs(stage, cmd.seen)
            elif isinstance(cmd, Lease):
                send_value = grant_lease(cmd, self.lease_k)
            elif isinstance(cmd, Emit):
                channel = stage.emit_to
                assert channel is not None
                if not channel.closed and channel.full:
                    proc.waiting_emit = cmd.update
                    self._begin_wait(proc, "emit")
                    return
                try:
                    channel.emit(cmd.update)
                except ChannelClosed as exc:
                    # The consumer died and aborted the stream.
                    self._fail(proc, exc)
                    return
                consumer = self._consumer[id(channel)]
                if consumer.waiting_recv:
                    consumer.waiting_recv = False
                    self._end_wait(consumer)
                    ok, update = channel.try_recv()
                    assert ok
                    self._schedule(consumer, now, update)
            elif isinstance(cmd, CloseChannel):
                assert stage.emit_to is not None
                stage.emit_to.close()
                self._wake_recv(stage.emit_to)
            elif isinstance(cmd, Recv):
                channel = stage.channel  # type: ignore[attr-defined]
                was_full = channel.full
                try:
                    ok, update = channel.try_recv()
                except ChannelClosed:
                    send_value = CHANNEL_END
                    continue
                if ok:
                    send_value = update
                    if was_full:
                        producer = self._producer[id(channel)]
                        pending = producer.waiting_emit
                        if pending is not _NO_PENDING:
                            producer.waiting_emit = _NO_PENDING
                            self._end_wait(producer)
                            channel.emit(pending)
                            self._schedule(producer, now, None)
                    continue
                proc.waiting_recv = True
                self._begin_wait(proc, "recv")
                return
            else:
                raise ExecutionError(
                    f"stage {name!r} yielded unknown command {cmd!r}")

    # -- checkpoint (repro.ckpt) -----------------------------------------

    def _write_checkpoint(self, path: str) -> str:
        """Capture the run at the event loop's rest point.

        Virtual time needs no quiesce: between events nothing is
        mid-flight except (a) generators parked at their last yielded
        command — covered by the stage cursor protocol — and (b) heap
        events carrying a channel update that was dequeued but never
        delivered to its synchronous consumer; those are requeued into
        the checkpointed channel state so no stream element is lost.
        """
        requeue: dict[str, list[Any]] = {}
        for _at, _sq, pname, payload in sorted(self._heap):
            p = self._procs[pname]
            if p.done or not isinstance(p.stage, SynchronousStage):
                continue
            if payload is None or payload is _WAKE \
                    or payload is CHANNEL_END \
                    or isinstance(payload, dict) and all(
                        isinstance(v, Snapshot) for v in payload.values()):
                continue
            requeue.setdefault(p.stage.channel.name, []).append(payload)
        stages: dict[str, dict[str, Any]] = {}
        for pname, p in self._procs.items():
            cursor = None
            if not p.done:
                emitted = (p.stage.emit_to.emitted
                           if p.stage.emit_to is not None else 0)
                cursor = p.stage.capture_state(p.stage.output.version,
                                               emitted)
            stages[pname] = self._stage_entry(pname, not p.done, cursor)
        return self._save_checkpoint(path, stages, self._clock,
                                     channel_requeue=requeue)
