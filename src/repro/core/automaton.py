"""The user-facing Anytime Automaton.

Composes a stage graph with executors, the baseline reference, stop
conditions and profile generation — the one object an application builder
hands to a user.  Typical flow::

    automaton = build_conv2d_automaton(image)      # an AnytimeAutomaton
    result = automaton.run_simulated(total_cores=32)
    profile = automaton.profile(result)            # Figure-11-style curve

or interactively::

    stop = ManualStop()
    result = automaton.run_threaded(stop=stop)     # stop.stop() any time
"""

from __future__ import annotations

from typing import Any, Callable

from ..metrics.profiles import RuntimeAccuracyProfile
from ..metrics.snr import snr_db
from .controller import StopCondition
from .executor import RunHandle, ThreadedExecutor, ThreadedResult
from .faults import FaultInjector, FaultPolicy
from .graph import AutomatonGraph
from .scheduling import SchedulingPolicy, proportional_shares
from .simexec import SimResult, SimulatedExecutor
from .stage import Stage
from .tracing import TraceSink

__all__ = ["AnytimeAutomaton"]


class AnytimeAutomaton:
    """An approximate application organized as an anytime pipeline.

    Parameters
    ----------
    stages:
        The computation stages (each owning its output buffer).
    name:
        Application name, used in reports.
    external:
        Values for buffers no stage produces (the application input
        data); they are written to those buffers as final version 1.

    An automaton instance is **single-use**: buffers carry versions and
    stages carry generator state, so each execution needs a freshly built
    automaton (application modules expose ``build_*`` functions for
    exactly this reason).  Attempting a second run raises.
    """

    def __init__(self, stages: list[Stage], name: str = "automaton",
                 external: dict[str, Any] | None = None) -> None:
        self.name = name
        self.graph = AutomatonGraph(stages)
        self.external = dict(external or {})
        for bname, value in self.external.items():
            buffer = self.graph.buffers.get(bname)
            if buffer is None:
                raise ValueError(
                    f"external value for unknown buffer {bname!r}")
            if self.graph.producer_of(bname) is not None:
                raise ValueError(
                    f"buffer {bname!r} is produced by a stage; it cannot "
                    f"be external input")
            if buffer.version == 0:
                buffer.write(value, final=True)
        for bname, buffer in self.graph.buffers.items():
            if self.graph.producer_of(bname) is None \
                    and buffer.version == 0:
                raise ValueError(
                    f"buffer {bname!r} has no producer and no external "
                    f"value")
        self._precise_cache: dict[str, Any] | None = None
        self._ran = False
        #: optional ``{"app": ..., "size": ..., "seed": ...}`` record
        #: stamped into checkpoint headers so :meth:`restore` can
        #: rebuild the graph via the app registry without a builder
        self.app_spec: dict[str, Any] | None = None
        self._resume_info: Any = None

    # -- checkpoint / restore (repro.ckpt) -------------------------------

    @classmethod
    def restore(cls, path: str,
                builder: Callable[[], "AnytimeAutomaton"] | None = None,
                ) -> "AnytimeAutomaton":
        """Rebuild an automaton from a checkpoint file.

        The graph itself is not serialized (stages hold closures); it is
        rebuilt — by ``builder`` when given, else via the app registry
        from the ``app_spec`` stamped into the checkpoint header — and
        the checkpointed state is applied on top: buffer ladders,
        channel queues, per-stage resume cursors, energy, reports and
        stop-condition progress.  The returned automaton is ready to
        ``run_*``/``launch_*`` on **any** backend, regardless of which
        executor took the checkpoint; the continuation's published
        versions are bit-exact with the uninterrupted run.
        """
        from ..ckpt.format import CheckpointError, load_checkpoint
        from ..ckpt.state import apply_to_graph

        header, payload = load_checkpoint(path)
        if builder is not None:
            automaton = builder()
        else:
            spec_info = header.get("app_spec")
            if not spec_info:
                raise CheckpointError(
                    f"checkpoint {path!r} carries no app spec; pass "
                    f"builder= to rebuild its graph")
            from ..apps.registry import get_app

            app = get_app(str(spec_info["app"]))
            data = app.make_input(int(spec_info.get("size", 64)),
                                  int(spec_info.get("seed", 0)))
            automaton = app.build(data)
            automaton.app_spec = dict(spec_info)
        automaton.name = str(payload.get("name", automaton.name))
        automaton._resume_info = apply_to_graph(automaton.graph,
                                                payload)
        return automaton

    @property
    def resumed(self) -> bool:
        """True when this automaton was built by :meth:`restore`."""
        return self._resume_info is not None

    # -- references ------------------------------------------------------

    @property
    def terminal_buffer_name(self) -> str:
        return self.graph.terminal_buffer().name

    def precise_values(self) -> dict[str, Any]:
        """Precise value of every buffer (cached; the baseline result)."""
        if self._precise_cache is None:
            self._precise_cache = self.graph.run_precise(self.external)
        return self._precise_cache

    def precise_output(self) -> Any:
        """The application's precise output (the figures' reference)."""
        return self.precise_values()[self.terminal_buffer_name]

    def baseline_cost(self) -> float:
        """Work units of the baseline precise execution.

        The baseline runs the stages back to back (dependences serialize
        them), each using all cores, so its virtual duration at C cores
        is ``baseline_cost() / C``.
        """
        return self.graph.baseline_cost()

    def baseline_duration(self, total_cores: float = 32.0) -> float:
        if total_cores <= 0:
            raise ValueError("total_cores must be positive")
        return self.baseline_cost() / total_cores

    # -- execution ---------------------------------------------------------

    def run_simulated(self, total_cores: float = 32.0,
                      schedule: SchedulingPolicy | dict[str, float]
                      = proportional_shares,
                      stop: StopCondition | None = None,
                      watch: set[str] | None = None,
                      dynamic_shares: bool = False,
                      faults: FaultPolicy | dict[str, FaultPolicy]
                      | None = None,
                      injector: FaultInjector | None = None,
                      strict: bool = False,
                      trace: TraceSink | None = None,
                      trace_metric: Callable[[Any, Any], float]
                      | None = None,
                      trace_reference: Any = None,
                      lease_k: int = 8,
                      checkpoint_at_stop: str | None = None) -> SimResult:
        """Deterministic virtual-time execution (the evaluation path).

        ``dynamic_shares=True`` turns the policy's shares into weights
        for generalized processor sharing: idle stages donate their
        cores (paper IV-C2's dynamic thread reassignment).
        ``faults``/``injector``/``strict`` configure the fault-tolerance
        runtime (see :mod:`repro.core.faults`);
        ``trace``/``trace_metric``/``trace_reference`` the observability
        layer (see :mod:`repro.core.tracing`); ``lease_k`` caps batched
        command leases (``1`` disables batching — outputs are
        bit-identical either way, see :class:`~repro.core.stage.Lease`).
        """
        return self._executor(
            SimulatedExecutor, total_cores=total_cores, schedule=schedule,
            stop=stop, watch=watch, dynamic_shares=dynamic_shares,
            faults=faults, injector=injector, strict=strict, trace=trace,
            trace_metric=trace_metric, trace_reference=trace_reference,
            lease_k=lease_k, checkpoint_at_stop=checkpoint_at_stop).run()

    def run_threaded(self, stop: StopCondition | None = None,
                     watch: set[str] | None = None,
                     timeout_s: float | None = None,
                     faults: FaultPolicy | dict[str, FaultPolicy]
                     | None = None,
                     injector: FaultInjector | None = None,
                     strict: bool = False,
                     trace: TraceSink | None = None,
                     trace_metric: Callable[[Any, Any], float]
                     | None = None,
                     trace_reference: Any = None,
                     lease_k: int = 8) -> ThreadedResult:
        """Wall-clock execution on real threads (the interactive path).

        ``faults``/``injector``/``strict`` configure the fault-tolerance
        runtime (see :mod:`repro.core.faults`);
        ``trace``/``trace_metric``/``trace_reference`` the observability
        layer (see :mod:`repro.core.tracing`).
        """
        return self._executor(
            ThreadedExecutor, stop=stop, watch=watch, faults=faults,
            injector=injector, strict=strict, trace=trace,
            trace_metric=trace_metric, trace_reference=trace_reference,
            lease_k=lease_k).run(timeout_s=timeout_s)

    def run_processes(self, stop: StopCondition | None = None,
                      watch: set[str] | None = None,
                      timeout_s: float | None = None,
                      faults: FaultPolicy | dict[str, FaultPolicy]
                      | None = None,
                      injector: FaultInjector | None = None,
                      strict: bool = False,
                      trace: TraceSink | None = None,
                      trace_metric: Callable[[Any, Any], float]
                      | None = None,
                      trace_reference: Any = None,
                      grace_s: float = 5.0,
                      lease_k: int = 8) -> ThreadedResult:
        """Wall-clock execution on one process per stage (true
        parallelism).

        Same semantics and result type as :meth:`run_threaded`, but
        stages run in forked worker processes that exchange ndarray
        payloads through shared-memory slabs instead of the GIL-bound
        thread pool (see :mod:`repro.core.procexec`).  ``grace_s``
        bounds how long shutdown waits for workers before terminating
        them.  Requires the ``fork`` start method (POSIX).
        """
        from .procexec import ProcessExecutor

        return self._executor(
            ProcessExecutor, stop=stop, watch=watch, faults=faults,
            injector=injector, strict=strict, trace=trace,
            trace_metric=trace_metric, trace_reference=trace_reference,
            grace_s=grace_s, lease_k=lease_k).run(timeout_s=timeout_s)

    def launch_threaded(self, stop: StopCondition | None = None,
                        watch: set[str] | None = None,
                        faults: FaultPolicy | dict[str, FaultPolicy]
                        | None = None,
                        injector: FaultInjector | None = None,
                        strict: bool = False,
                        trace: TraceSink | None = None,
                        trace_metric: Callable[[Any, Any], float]
                        | None = None,
                        trace_reference: Any = None,
                        lease_k: int = 8) -> RunHandle:
        """Start a threaded run without blocking; returns a
        :class:`~repro.core.executor.RunHandle`.

        The preemptible form of :meth:`run_threaded`: the caller (e.g.
        the :mod:`repro.serve` scheduler) owns the run loop — it can
        pause, resume, stop and collect the run at any moment, and the
        output buffer always holds a valid approximation.
        """
        return self._executor(
            ThreadedExecutor, stop=stop, watch=watch, faults=faults,
            injector=injector, strict=strict, trace=trace,
            trace_metric=trace_metric, trace_reference=trace_reference,
            lease_k=lease_k).launch()

    def launch_processes(self, stop: StopCondition | None = None,
                         watch: set[str] | None = None,
                         faults: FaultPolicy | dict[str, FaultPolicy]
                         | None = None,
                         injector: FaultInjector | None = None,
                         strict: bool = False,
                         trace: TraceSink | None = None,
                         trace_metric: Callable[[Any, Any], float]
                         | None = None,
                         trace_reference: Any = None,
                         grace_s: float = 5.0,
                         lease_k: int = 8) -> RunHandle:
        """Start a process-parallel run without blocking; returns a
        :class:`~repro.core.executor.RunHandle` (see
        :meth:`launch_threaded` for the preemption semantics)."""
        from .procexec import ProcessExecutor

        return self._executor(
            ProcessExecutor, stop=stop, watch=watch, faults=faults,
            injector=injector, strict=strict, trace=trace,
            trace_metric=trace_metric, trace_reference=trace_reference,
            grace_s=grace_s, lease_k=lease_k).launch()

    def _executor(self, cls: type, **kwargs: Any) -> Any:
        """Build this automaton's one executor, stamped with the
        checkpoint identity (automata are single-use)."""
        if self._ran:
            raise RuntimeError(
                f"automaton {self.name!r} was already executed; build a "
                f"fresh one per run")
        self._ran = True
        executor = cls(self.graph, resume=self._resume_info, **kwargs)
        executor.run_name = self.name
        executor.app_spec = self.app_spec
        return executor

    # -- analysis -----------------------------------------------------------

    def profile(self, result: SimResult,
                total_cores: float = 32.0,
                metric: Callable[[Any, Any], float] | None = None,
                reference: Any = None,
                label: str | None = None) -> RuntimeAccuracyProfile:
        """Runtime-accuracy profile of a simulated run.

        Runtime is normalized to the baseline precise duration at the
        same core count; accuracy defaults to SNR dB against the precise
        output.
        """
        reference = (self.precise_output() if reference is None
                     else reference)
        metric = metric or snr_db
        return result.timeline.profile(
            self.terminal_buffer_name, reference,
            baseline_cost=self.baseline_duration(total_cores),
            label=label if label is not None else self.name,
            metric=metric)
