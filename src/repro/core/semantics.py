"""The command semantics shared by every executor.

The model is defined once, here: what each command a stage yields
means, what a write publishes and records, when a wait can never be
satisfied, what a stage failure triggers, how a dead or finished stage
seals what it feeds, how a run is checkpointed and how its result is
assembled.  The three executors differ only in

* **how they block** — the threaded executor waits on events, a process
  worker sends a pipe request, the simulator parks a coroutine on its
  event heap;
* **how they keep time** — wall seconds or virtual work units
  (:meth:`StageRules._now`);
* **how they move bytes** — in-process references or shared-memory
  slab descriptors (:meth:`StageRules._publish`).

:class:`StageRules` holds the per-run state and the rules; each
executor subclasses it.  :func:`pump` drives one stage generator
against a *port* — the object that does the executor's blocking — and
is the single interpreter loop of the threaded executor and of a
process worker.  The simulator keeps its own event loop (a coroutine
cannot block inside a loop it does not own) but applies the same rules.
"""

from __future__ import annotations

import threading
from typing import Any

from ..hw.energy import EnergyMeter
from .buffer import Snapshot
from .controller import StopCondition
from .faults import FaultInjector, FaultPolicy, StageReport, resolve_policy
from .graph import AutomatonGraph
from .recording import Timeline, WriteRecord
from .stage import (CloseChannel, Compute, Emit, Lease, PollInputs, Recv,
                    WaitInputs, Write)
from .syncstage import SynchronousStage
from .tracing import TraceEvent, TraceSink, active_sink

__all__ = ["StageRules", "ResultView", "pump", "grant_lease",
           "compute_energy", "try_wait", "poll_inputs",
           "DONE", "HALTED", "EXHAUSTED", "HALT"]

#: pump outcomes: the generator ended, the run halted, or the stage's
#: inputs can never satisfy its wait (it finishes degraded)
DONE = "done"
HALTED = "halted"
EXHAUSTED = "exhausted"

#: what a port returns from a command the run's halt cut short
HALT = object()


def grant_lease(cmd: Lease, lease_k: int) -> int:
    """A :class:`Lease` grant: the request capped by ``lease_k``."""
    return max(1, min(cmd.want, lease_k))


def compute_energy(cmd: Compute) -> float:
    """The energy a :class:`Compute` charges (its cost by default)."""
    return cmd.energy if cmd.energy is not None else cmd.cost


# ---------------------------------------------------------------------------
# Input predicates


def _snapshots(stage) -> dict[str, Snapshot]:
    return {b.name: b.snapshot() for b in stage.inputs}


def _consumed(stage):
    """The update channel a synchronous stage consumes, else None."""
    return stage.channel if isinstance(stage, SynchronousStage) else None


def _ready(snaps: dict[str, Snapshot], seen: dict[str, int]) -> bool:
    """Every input is non-empty and one is newer than ``seen``."""
    return not any(s.empty for s in snaps.values()) and any(
        s.version > seen.get(n, 0) for n, s in snaps.items())


def _exhausted(snaps: dict[str, Snapshot]) -> bool:
    """The wait can never be satisfied: an input is empty and sealed
    (its producer died before publishing), or every input is frozen
    (final or sealed) so nothing newer will ever appear."""
    if any(s.empty and s.sealed for s in snaps.values()):
        return True
    return all(s.exhausted for s in snaps.values())


def try_wait(stage, seen: dict[str, int]):
    """One non-blocking attempt at :class:`WaitInputs`: the snapshots
    when satisfied (a stage without inputs always is), :data:`EXHAUSTED`
    when it never can be, None when the caller must block."""
    snaps = _snapshots(stage)
    if not snaps or _ready(snaps, seen):
        return snaps
    return EXHAUSTED if _exhausted(snaps) else None


def poll_inputs(stage, seen: dict[str, int]) -> bool:
    """:class:`PollInputs`: whether a newer input version exists."""
    snaps = _snapshots(stage)
    return bool(snaps) and _ready(snaps, seen)


# ---------------------------------------------------------------------------
# The interpreter loop


def pump(gen, port) -> str:
    """Drive one stage generator until it ends (:data:`DONE`), the run
    halts (:data:`HALTED`) or its inputs are exhausted (:data:`EXHAUSTED`).

    ``port`` does the blocking.  It carries ``report`` (whose
    ``commands`` counter the pump maintains) and ``lease_k``, and
    answers ``halted()``, ``parked(kind, value)`` (True after waiting
    out a pause at the command boundary), ``compute``, ``write``,
    ``wait``, ``poll``, ``emit``, ``close_channel`` and ``recv``; any of
    the last six may return :data:`HALT`.  Stage exceptions propagate
    to the caller, which applies :meth:`StageRules._dispose_failure`.
    """
    report, halted, parked = port.report, port.halted, port.parked
    send_value: Any = None
    # What the pending send_value answers: a checkpoint taken while
    # parked must know whether dropping it loses information (only a
    # dequeued channel update does).
    pending: str | None = None
    while not halted():
        if parked(pending, send_value):
            continue
        try:
            cmd = gen.send(send_value)
        except StopIteration:
            return DONE
        send_value = reply = None
        pending = None
        report.commands += 1
        if isinstance(cmd, Compute):
            port.compute(cmd)
        elif isinstance(cmd, Write):
            reply = port.write(cmd)
        elif isinstance(cmd, WaitInputs):
            send_value = reply = port.wait(cmd.seen)
            pending = "wait"
            if reply is EXHAUSTED:
                gen.close()
                return EXHAUSTED
        elif isinstance(cmd, PollInputs):
            send_value = reply = port.poll(cmd.seen)
            pending = "poll"
        elif isinstance(cmd, Emit):
            # a halt during a blocked emit stops the generator here: the
            # update was not delivered, so it must not run on
            reply = port.emit(cmd.update)
        elif isinstance(cmd, Lease):
            # answered in place, so a process worker spends no round
            # trip: the grant caps the kernel's vectorization width,
            # while reply elision is governed by the parent's credits
            send_value = grant_lease(cmd, port.lease_k)
            pending = "lease"
        elif isinstance(cmd, CloseChannel):
            reply = port.close_channel()
        elif isinstance(cmd, Recv):
            send_value = reply = port.recv()
            pending = "recv"
        else:
            raise TypeError(f"stage {port.stage.name!r} yielded unknown "
                            f"command {cmd!r}")
        if reply is HALT:
            return HALTED
    return HALTED


# ---------------------------------------------------------------------------
# Results


class ResultView:
    """Report-derived accessors shared by every executor's result."""

    timeline: Timeline
    stage_reports: dict[str, StageReport]

    def output_records(self, buffer: str) -> list[WriteRecord]:
        return self.timeline.for_buffer(buffer)

    @property
    def degraded_stages(self) -> list[str]:
        return sorted(n for n, r in self.stage_reports.items()
                      if r.degraded)

    @property
    def failed_stages(self) -> list[str]:
        return sorted(n for n, r in self.stage_reports.items() if r.failed)


# ---------------------------------------------------------------------------
# The rules


class StageRules:
    """Per-run state and the stage rules every executor applies.

    Subclasses supply :meth:`_now` (their clock) and may override
    :meth:`_publish` (what a write's timeline record carries) and
    :meth:`_seal_outputs` (to wake whatever they block on).
    """

    #: names the executor in checkpoints and strict-mode errors
    label: str

    def __init__(self, graph: AutomatonGraph, *,
                 stop: StopCondition | None,
                 watch: set[str] | None,
                 faults: FaultPolicy | dict[str, FaultPolicy] | None,
                 injector: FaultInjector | None,
                 strict: bool,
                 trace: TraceSink | None,
                 trace_metric: Any,
                 trace_reference: Any,
                 lease_k: int,
                 resume: Any) -> None:
        if lease_k < 1:
            raise ValueError(f"lease_k must be >= 1, got {lease_k}")
        self.graph = graph
        self.lease_k = int(lease_k)
        self.stop = stop
        if watch is None:
            watch = {t.output.name for t in graph.terminal_stages()}
        self.watch = set(watch)
        self.faults = faults
        self.injector = injector
        self.strict = strict
        self._sink = active_sink(trace)
        self.trace_metric = trace_metric
        self.trace_reference = trace_reference
        # Cumulative virtual energy, charged from the Compute costs the
        # stages declare — the same column on every executor.
        self.meter = EnergyMeter()
        # guards the meter, the timeline and the error list (stage
        # threads share them on the threaded executor)
        self._lock = threading.Lock()
        self._timeline = Timeline()
        self._errors: list[tuple[str, BaseException]] = []
        self._reports = {s.name: StageReport(stage=s.name)
                         for s in graph.stages}
        # Checkpoint support (repro.ckpt): the automaton name and app
        # spec stamped into checkpoint headers and, when this run
        # resumes a checkpoint, the ResumeInfo seeding energy, reports,
        # clock offset and the stages not relaunched.
        self.run_name = "automaton"
        self.app_spec: dict[str, Any] | None = None
        self._resume = resume
        self._t_offset = 0.0
        if resume is not None:
            self.meter.charge(float(resume.energy))
            self._t_offset = float(resume.duration)
            self._reports = resume.seed_reports(
                [s.name for s in graph.stages])
            from ..ckpt.state import restore_stop
            restore_stop(self.stop, resume.stop)

    # -- clock and tracing -------------------------------------------------

    def _now(self) -> float:
        raise NotImplementedError

    def _trace(self, kind: str, stage: str | None = None,
               target: str | None = None, ts: float | None = None,
               **args: Any) -> None:
        if self._sink is None:
            return
        self._sink.emit(TraceEvent(self._now() if ts is None else ts,
                                   kind, stage=stage, target=target,
                                   args=args))

    def _trace_wait(self, stage_name: str, started: float,
                    kind: str) -> None:
        """Record one completed blocking wait (counter + span event)."""
        elapsed = self._now() - started
        self._reports[stage_name].record_wait(elapsed)
        self._trace("stage.wait", stage=stage_name, ts=started,
                    dur=elapsed, wait=kind)

    def _install_hooks(self) -> None:
        """Point buffer, channel and injector tracers at the sink."""
        if self._sink is None:
            return
        # (channel, side) -> the stage acting on that side
        chan_stage: dict[tuple[str, str], str] = {}
        for s in self.graph.stages:
            for channel, side in ((s.emit_to, "out"),
                                  (_consumed(s), "in")):
                if channel is not None:
                    chan_stage[(channel.name, side)] = s.name

        def buffer_hook(kind: str, name: str, **args: Any) -> None:
            self._trace(kind, stage=args.pop("writer", None),
                        target=name, **args)

        def channel_hook(kind: str, name: str, **args: Any) -> None:
            side = "in" if kind == "channel.recv" else "out"
            self._trace(kind, stage=chan_stage.get((name, side)),
                        target=name, **args)

        for b in self.graph.buffers.values():
            b.tracer = buffer_hook
        for s in self.graph.stages:
            if s.emit_to is not None:
                s.emit_to.tracer = channel_hook
        if self.injector is not None:
            self.injector.tracer = (
                lambda s, c, k: self._trace("fault.injected", stage=s,
                                            at=c, fault=k))

    # -- energy ------------------------------------------------------------

    def _charge(self, amount: float) -> None:
        with self._lock:
            self.meter.charge(amount)

    def _energy_total(self) -> float:
        with self._lock:
            return self.meter.total

    # -- the write rule ------------------------------------------------------

    def _publish(self, stage, value: Any, version: int, final: bool,
                 watched: bool) -> Any:
        """Hook run once the buffer accepted a write; returns the value
        the timeline record carries (the written value by default)."""
        return value

    def _write(self, stage, value: Any, final: bool,
               transfer: bool = False) -> bool:
        """Apply one :class:`Write`; True when it satisfies the stop
        condition.  A rejected write raises ``ValueError``."""
        if final and _consumed(stage) is not None \
                and stage.channel.aborted:
            # The update stream was cut short: the aggregate is an
            # approximation, not the precise output.
            final = False
            self._reports[stage.name].degraded = True
        name = stage.output.name
        version = stage.output.write(value, final, writer=stage.name,
                                     transfer=transfer)
        watched = name in self.watch
        value = self._publish(stage, value, version, final, watched)
        now = self._now()
        record = WriteRecord(now, name, version, final,
                             self._energy_total(),
                             value if watched else None)
        with self._lock:
            self._timeline.add(record)
        if self._sink is not None and watched \
                and self.trace_metric is not None:
            self._trace("accuracy.sample", stage=stage.name, target=name,
                        ts=now, accuracy=float(self.trace_metric(
                            value, self.trace_reference)),
                        version=version)
        return (watched and self.stop is not None
                and self.stop.should_stop(record))

    # -- stage endings ---------------------------------------------------------

    def _dispose_failure(self, stage, exc: BaseException,
                         halted: bool = False) -> tuple[str, float]:
        """Apply the stage's fault policy to one raised attempt.

        Returns ``(action, delay)``.  ``"restart"`` carries the backoff
        before the fresh generator.  ``"stop"`` (the stop condition
        gave up on failures) and ``"degrade"`` have marked the stage
        degraded, ``"fail"`` has marked it failed.  The caller seals
        the stage's outputs on every action but a restart, requests the
        stop on ``"stop"`` and halts the run on ``"fail"``.
        """
        name = stage.name
        report = self._reports[name]
        failures = report.record_failure(exc)
        self._trace("stage.finish", stage=name, status="error",
                    error=repr(exc))
        with self._lock:
            self._errors.append((name, exc))
        if self.stop is not None and self.stop.on_failure(name, exc):
            report.degraded = True
            return "stop", 0.0
        policy = resolve_policy(self.faults, name)
        action = policy.decide(failures)
        if action == "restart" and (stage.emit_to is not None or halted):
            # A streaming parent cannot be restarted: its consumer
            # already folded updates that a fresh pass would re-emit
            # (double counting).  Nor can any stage of a halting run.
            # Degrade instead.
            action = "degrade"
        if action == "restart":
            delay = policy.restart_delay(failures)
            self._trace("stage.restart", stage=name, failures=failures,
                        delay=delay)
            return "restart", delay
        if action == "fail":
            report.failed = True
        else:
            report.degraded = True
        return action, 0.0

    def _finish(self, stage, outcome: str) -> None:
        """Close a stage that stopped raising: a completed generator
        seals its outputs (degraded if its final write was demoted), an
        exhausted one degrades, a halted one leaves them as they are."""
        report = self._reports[stage.name]
        if outcome == HALTED:
            status = "halted"
        elif outcome == EXHAUSTED or report.degraded:
            status = "degraded"
            report.degraded = True
        else:
            status = "completed"
            report.completed = True
        self._trace("stage.finish", stage=stage.name, status=status)
        if outcome != HALTED:
            self._seal_outputs(stage)

    def _seal_outputs(self, stage) -> None:
        """Freeze everything the stage feeds, so consumers stop waiting.

        Sealing an already-final buffer is a harmless flag; aborting the
        emit channel releases a consumer blocked mid-stream, and
        aborting the consumed channel releases a producer blocked on it
        (its next emit raises ChannelClosed and its own policy takes
        over)."""
        stage.output.seal()
        for channel in (stage.emit_to, _consumed(stage)):
            if channel is not None and not channel.closed:
                channel.abort()

    def _shutdown_io(self) -> None:
        """Freeze all buffers and channels after an interrupted run.

        A timeout or stop condition halts the stages, but anything
        *outside* the executor blocked on the graph — a UI thread in
        ``buffer.wait_newer``, a producer stuck emitting into a full,
        never-closed channel — would hang forever on objects no stage
        will touch again.  Sealing is idempotent and aborting is skipped
        for channels already closed, so a clean shutdown is unaffected.
        """
        for b in self.graph.buffers.values():
            b.seal()
        for c in self.graph.channels.values():
            if not c.closed:
                c.abort()

    # -- checkpoint (repro.ckpt) -----------------------------------------

    def _stage_entry(self, name: str, live: bool,
                     cursor: Any = None) -> dict[str, Any]:
        """One stage's checkpoint entry.  A live stage stays LIVE even
        when its degraded flag is already set (final-after-abort): the
        flag rides along in the restored report."""
        from ..ckpt.state import (STATUS_COMPLETED, STATUS_DEGRADED,
                                  STATUS_FAILED, STATUS_LIVE)

        report = self._reports[name]
        if live:
            return {"status": STATUS_LIVE, "cursor": cursor}
        status = STATUS_COMPLETED
        if report.failed:
            status = STATUS_FAILED
        elif report.degraded:
            status = STATUS_DEGRADED
        return {"status": status, "cursor": None}

    def _whole_timeline(self) -> Timeline:
        """The run's timeline; a resumed run's spans the whole logical
        run, checkpoint prefix included."""
        with self._lock:
            records = list(self._timeline.records)
        if self._resume is not None and self._resume.prefix.records:
            records = self._resume.prefix.records + records
        return Timeline(records)

    def _save_checkpoint(self, path: str, stages: dict[str, dict],
                         duration: float, **extra: Any) -> str:
        from ..ckpt.state import assemble_payload, save_checkpoint

        payload = assemble_payload(
            self.graph, name=self.run_name, executor=self.label,
            stages=stages, reports=self._reports,
            energy=self._energy_total(), timeline=self._whole_timeline(),
            duration=duration, stop=self.stop, **extra)
        return save_checkpoint(path, payload, app_spec=self.app_spec)

    # -- result assembly -----------------------------------------------------

    def _watch_name(self) -> str:
        if len(self.watch) == 1:
            return next(iter(self.watch))
        return self.graph.terminal_buffer().name

    def _completed(self, stopped: bool) -> bool:
        return not stopped and all(r.completed
                                   for r in self._reports.values())

    def _raise_if_strict(self, error: type = RuntimeError) -> None:
        """Under ``strict``, raise for the first unrecovered failure."""
        if not self.strict:
            return
        for name, r in self._reports.items():
            if r.last_error is not None and not r.completed:
                first = next(exc for sname, exc in self._errors
                             if sname == name)
                raise error(f"stage {name!r} failed during {self.label} "
                            f"execution: {first}") from first
