"""Served workloads: an open loop through the asyncio front end.

The stack is ``AioFrontend`` -> ``FleetRouter`` -> N localhost TCP
workers, each in its own forked process; the benchmark process is the
load generator, with one client connection and one event loop.  Arrival
times and request seeds come from ``--seed``; the rate and deadlines are
fixed in ``config.json``.  Each request's latency is timed from the
moment it was due, so a stalled generator or front end charges the
requests it delays.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import random
import signal
import time
from dataclasses import dataclass
from typing import Any

from common import (Outcome, median, process_hwm_mb, self_rss_mb, tail,
                    yardstick_s)
from layers import Probe, put_probed

from repro.apps.registry import get_app
from repro.serve.aiofront import AioFleetClient, serve_front
from repro.serve.fleet import value_digest
from repro.serve.router import FleetRouter
from repro.serve.session import TERMINAL_STATES
from repro.serve.transport import spawn_local_tcp_worker

_TERMINAL = {state.value for state in TERMINAL_STATES}
_START_TIMEOUT_S = 15.0
SPLIT_SLACK_S = 1e-4


def _front_main(endpoints: list[tuple[str, int]], ready: Any) -> None:
    with FleetRouter(endpoints=endpoints) as fleet:
        serve_front(fleet, "127.0.0.1", 0,
                    announce=lambda host, port: ready.send(port))


class Stack:
    """The served system: TCP workers plus the front-end process."""

    def __init__(self, serve: dict[str, Any]) -> None:
        self.workers = []
        self.front = None
        try:
            for _ in range(serve["workers"]):
                self.workers.append(spawn_local_tcp_worker(
                    {"executor": serve["worker_executor"]}))
            ctx = multiprocessing.get_context("fork")
            ready_r, ready_w = ctx.Pipe(duplex=False)
            self.front = ctx.Process(
                target=_front_main, name="bench-front", daemon=True,
                args=([ep for _, ep in self.workers], ready_w))
            self.front.start()
            ready_w.close()
            if not ready_r.poll(_START_TIMEOUT_S):
                raise RuntimeError("front end did not report its port")
            self.port = int(ready_r.recv())
            ready_r.close()
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> list[float]:
        """Peak RSS of the front end, then of each worker."""
        procs = [self.front] + [p for p, _ in self.workers]
        return [process_hwm_mb(p.pid) for p in procs]

    def stop(self) -> None:
        """Drain the front end (SIGTERM), which shuts the router and
        so the workers down; terminate whatever outlives the grace."""
        if self.front is not None and self.front.is_alive():
            os.kill(self.front.pid, signal.SIGTERM)
        procs = ([self.front] if self.front is not None else []) \
            + [p for p, _ in self.workers]
        for proc in procs:
            proc.join(timeout=15.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)


@dataclass
class Request:
    index: int
    kind: dict[str, Any]    # the "main" or "probe" entry of the config
    seed: int
    due: float              # offset from the loop start, seconds
    traced: bool = False
    sent: float = 0.0       # absolute perf_counter times
    delivered: float = 0.0
    payload: dict[str, Any] | None = None
    error: str = ""


def make_schedule(serve: dict[str, Any], seed: int,
                  seconds: float) -> list[Request]:
    """Poisson arrivals over ``seconds``, conditioned on their count:
    ``rate_rps`` x ``seconds`` arrival times drawn uniformly over the
    run and sorted.  Every seed thus sends the same number of requests,
    and the work and memory that grow with it do not vary by seed.

    Every ``probe_every``-th request is a probe: an input with a key of
    its own that is too large to reach precise by the deadline, so that
    the workload has answers interrupted at the deadline.  The other
    requests repeat each key for ``hot_burst`` consecutive requests."""
    rng = random.Random(seed)
    base = rng.randrange(1 << 20) << 24
    count = round(serve["rate_rps"] * seconds)
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    schedule, regular = [], 0
    for i, t in enumerate(dues):
        if i % serve["probe_every"] == serve["probe_every"] - 1:
            schedule.append(Request(i, serve["probe"], base + i, t))
        else:
            key = regular // serve["hot_burst"]
            schedule.append(Request(i, serve["main"], base + key, t))
            regular += 1
    return schedule


async def _one(client: AioFleetClient, deadline: bool,
               request: Request) -> None:
    request.sent = time.perf_counter()
    try:
        done = await client.submit(
            request.kind["app"], size=request.kind["size"],
            seed=request.seed,
            slo={"deadline_s": request.kind["deadline_s"]} if deadline
            else None)
        request.payload = await done
    except (ConnectionError, OSError, RuntimeError) as exc:
        request.error = f"{type(exc).__name__}: {exc}"
    request.delivered = time.perf_counter()


async def drive(port: int, serve: dict[str, Any], schedule: list[Request],
                deadline: bool, probe: Probe | None,
                windows: list[list[float]]) -> tuple[float, dict[str, Any]]:
    """Send ``schedule`` open-loop; returns (start, front-end stats).

    With a probe, recording is switched on for alternate windows of
    ``trace_window_s`` so that untraced windows give the baseline for
    the tracing overhead; ``windows`` gets the ``[on, off]`` times of
    each traced window, the last one ending when the load has drained."""
    client = await AioFleetClient.connect("127.0.0.1", port)
    tasks = []
    try:
        start = time.perf_counter() + 0.05
        for request in schedule:
            delay = start + request.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if probe is not None:
                window = int(request.due // serve["trace_window_s"])
                request.traced = window % 2 == 1
                if request.traced != probe.enabled:
                    if request.traced:
                        windows.append([time.perf_counter(), 0.0])
                    else:
                        windows[-1][1] = time.perf_counter()
                    probe.enabled = request.traced
            tasks.append(asyncio.ensure_future(_one(client, deadline,
                                                    request)))
        if tasks:
            await asyncio.wait(tasks, timeout=serve["drain_timeout_s"])
        if probe is not None and probe.enabled:
            windows[-1][1] = time.perf_counter()
            probe.enabled = False
        stats = await asyncio.wait_for(client.stats(), timeout=10.0)
    finally:
        for task in tasks:
            task.cancel()
        await client.close()
    return start, stats


def _warm_up(port: int, serve: dict[str, Any], seed: int) -> list[Request]:
    """Requests of both kinds without a deadline, so that first-run costs
    land in set-up and never fail a request."""
    rng = random.Random(~seed)
    warm = [Request(i, serve["probe" if i == 0 else "main"],
                    (1 << 50) + rng.randrange(1 << 30), 0.02 * i)
            for i in range(serve["warmup_requests"])]
    asyncio.run(drive(port, serve, warm, False, None, []))
    return warm


def set_up(cfg: dict[str, Any], seed: int, out: Outcome) -> Stack:
    """Spawn the stack and warm it up; the caller stops it."""
    serve = cfg["serve"]
    stack = Stack(serve)
    try:
        warm = _warm_up(stack.port, serve, seed)
    except BaseException:
        stack.stop()
        raise
    for request in warm:
        out.attempted += 1
        if request.payload is None \
                or request.payload.get("state") != "completed":
            out.fail(f"warm-up request failed: {request.error}"
                       f" {request.payload}")
    return stack


def run_served(stack: Stack, cfg: dict[str, Any], seed: int,
               seconds: float, trace: bool, probe: Probe,
               out: Outcome) -> None:
    serve = cfg["serve"]
    try:
        schedule = make_schedule(serve, seed, seconds)
        windows: list[list[float]] = []
        start, stats = asyncio.run(drive(
            stack.port, serve, schedule, True, probe if trace else None,
            windows))
        peak_rss = [self_rss_mb()] + stack.peak_rss_mb()
    finally:
        stack.stop()

    refs = check(serve, schedule, stats, out)
    lat = []
    for r in schedule:
        ok = r.payload is not None and r.payload.get("state") == "completed"
        lat.append(r.delivered - (start + r.due) if ok else float("inf"))
        if ok:
            check_split(r, lat[-1], out)
    if not trace:
        put_end_to_end(out, schedule, lat, 1e-3 * cfg["yardstick_ms"],
                       refs)
    else:
        put_layers(out, serve, schedule, lat, start, refs, probe, windows)
    _note_outcomes(out, schedule)
    _note_generator(out, serve, schedule, start)
    out.put("peak_rss_mb", sum(peak_rss), "MB")
    out.notes.append("peak RSS of the benchmark, the front end and each "
                     "worker: " + ", ".join(f"{mb:.1f}" for mb in peak_rss)
                     + " MB")


def check(serve: dict[str, Any], schedule: list[Request],
          stats: dict[str, Any], out: Outcome) -> list[tuple[float, float]]:
    """Every request answered exactly once with a terminal state; every
    final answer equal to the precise output of its input.  Returns, per
    served main input, the least of ``reference_repeats`` times of its
    precise reference and of the yardsticks timed beside them."""
    digests: dict[tuple[str, int, int], str] = {}
    refs, misses, mains = [], [], []
    for r in schedule:
        out.attempted += 1
        if r.payload is None:
            out.fail(f"request {r.index} not terminal {r.error}")
            continue
        state = r.payload.get("state")
        if state not in _TERMINAL:
            out.fail(f"request {r.index} ended in state {state!r}")
            continue
        if state != "completed":
            out.failed += 1           # refused or failed: a missed request
            if len(misses) < 5:
                misses.append(f"request {r.index} {state}: "
                              f"{r.payload.get('errors')}")
            continue
        key = (r.kind["app"], r.kind["size"], r.seed)
        if key not in digests:
            spec = get_app(r.kind["app"])
            data = spec.make_input(r.kind["size"], r.seed)
            precise_s, yard_s, precise = _time_reference(spec, data)
            if r.kind is serve["main"]:
                mains.append((spec, data))
                refs.append((precise_s, yard_s))
            digests[key] = value_digest(precise)
        if r.payload.get("final") \
                and r.payload.get("value_digest") != digests[key]:
            out.fail(f"request {r.index} (seed {r.seed}): final digest "
                       f"!= precise digest")
    # the fastest of the repeats is the least disturbed by the other
    # tenants of a shared host; repeating in passes over all the main
    # inputs spreads each input's repeats over the whole reference phase
    for _ in range(serve["reference_repeats"] - 1):
        for i, (spec, data) in enumerate(mains):
            precise_s, yard_s, _ = _time_reference(spec, data)
            refs[i] = (min(refs[i][0], precise_s), min(refs[i][1], yard_s))
    out.notes.extend(f"missed {text}" for text in misses)
    front = stats.get("frontend", {})
    if front.get("submits") != front.get("dones"):
        out.breach(f"front end answered {front.get('dones')} of "
                   f"{front.get('submits')} submits")
    return refs


def _time_reference(spec: Any, data: Any) -> tuple[float, float, Any]:
    """``(precise seconds, yardstick seconds beside it, precise output)``
    of one freshly built automaton."""
    automaton = spec.build(data)
    yard_s = yardstick_s()
    begin = time.perf_counter()
    precise = automaton.precise_output()
    return time.perf_counter() - begin, yard_s, precise


def _meets_target(request: Request) -> bool:
    db = request.payload.get("snr_db")
    return bool(request.payload.get("final")) or (
        db is not None and db >= request.kind["target_db"])


def split(request: Request, latency_s: float) -> dict[str, float]:
    """A delivered request's latency in parts that add up to it: the
    front end (client latency minus the router's ``fleet_latency_s``),
    the router (minus the worker's ``latency_s``), the worker queue and
    the run; memo answers from the router have no worker parts."""
    p = request.payload
    memo = bool(p.get("fleet_memo"))
    worker = 0.0 if memo else p.get("latency_s", 0.0)
    queue = 0.0 if memo else p.get("queue_s", 0.0)
    return {"front": latency_s - p["fleet_latency_s"],
            "router": p["fleet_latency_s"] - worker,
            "queue": queue, "run": worker - queue}


def check_split(request: Request, latency_s: float, out: Outcome) -> None:
    """Each part of :func:`split` is an interval nested in the one before
    it (client, front end, router, worker, queue), so none may be
    negative; ``SPLIT_SLACK_S`` allows for the rounding of times that
    crossed the wire."""
    parts = split(request, latency_s)
    if min(parts.values()) < -SPLIT_SLACK_S:
        out.breach(f"request {request.index}: latency split has a "
                   f"negative part {parts}")


def scaled(request: Request, latency_s: float, speed: float) -> float:
    """Latency with its CPU-bound parts scaled to the nominal yardstick
    speed: router, queue and the run of an answer that completed.  The
    front end's part, dominated by its 50 ms done-poll, and the run of an
    answer interrupted at its deadline are timer-bound and kept."""
    if latency_s == float("inf"):
        return latency_s
    parts = split(request, latency_s)
    cpu = parts["router"] + parts["queue"]
    timer = parts["front"]
    if request.payload.get("interrupted"):
        timer += parts["run"]
    else:
        cpu += parts["run"]
    return timer + cpu * speed


def put_end_to_end(out: Outcome, schedule: list[Request], lat: list[float],
                   nominal_s: float, refs: list[tuple[float, float]]) -> None:
    # CPU-bound times are scaled to the nominal yardstick speed by the
    # yardsticks timed beside the precise references, after the load
    # with the stack stopped: each reference by its own, the served
    # latencies by their median
    precise_ms = median([1e3 * p * nominal_s / y for p, y in refs])
    raw_p50 = median(lat)
    yard = median([y for _, y in refs])
    speed = nominal_s / yard
    lat = [scaled(r, x, speed) for r, x in zip(schedule, lat)]
    answered = [(r, 1e3 * x) for r, x in zip(schedule, lat)
                if x != float("inf")]
    precise = [ms for r, ms in answered if r.payload.get("final")]
    lat_ms = [1e3 * x for x in lat]
    tail_ms, tail_pct = tail(lat_ms)
    ttp = median(precise)
    out.put("ttfo_ms", median(lat_ms), "ms")
    out.put("t90_ms", median([ms for r, ms in answered
                              if _meets_target(r)]), "ms")
    out.put("ttp_ms", ttp, "ms")
    out.put("precise_ms", precise_ms, "ms")
    out.put("anytime_tax", ttp / precise_ms, "x")
    out.put("latency_p50_ms", median(lat_ms), "ms")
    out.put("latency_tail_ms", tail_ms, "ms")
    out.put("precise_share", len(precise) / max(1, len(schedule)), "share")
    out.put("db_at_delivery", median(
        [r.payload["snr_db"] for r, _ in answered
         if r.payload.get("interrupted") and not r.payload.get("final")
         and r.payload.get("snr_db") is not None]), "dB")
    out.notes.append(
        f"requests {len(schedule)}; latency tail is p{tail_pct:.1f}; "
        f"unscaled precise {1e3 * median([p for p, _ in refs]):.3f} ms, "
        f"yardstick {1e3 * yard:.3f} ms; unscaled latency "
        f"p50 {1e3 * raw_p50:.2f} ms")


def _outcome(payload: dict[str, Any] | None) -> str:
    if payload is None or payload.get("state") != "completed":
        return "failed"
    if payload.get("fleet_memo"):
        return "fleet_memo"
    if payload.get("memo_hit"):
        return "worker_memo"
    if payload.get("coalesced"):
        return "coalesced"
    return "computed"


def _note_outcomes(out: Outcome, schedule: list[Request]) -> None:
    counts: dict[str, int] = {}
    for r in schedule:
        kind = _outcome(r.payload)
        counts[kind] = counts.get(kind, 0) + 1
    n = max(1, len(schedule))
    out.notes.append("outcome shares: " + ", ".join(
        f"{k} {v / n:.3f}" for k, v in sorted(counts.items())))


def _lags_ms(schedule: list[Request], start: float) -> list[float]:
    return [1e3 * (r.sent - (start + r.due)) for r in schedule if r.sent]


def _note_generator(out: Outcome, serve: dict[str, Any],
                    schedule: list[Request], start: float) -> None:
    lags = _lags_ms(schedule, start)
    late = sum(lag > serve["late_send_ms"] for lag in lags)
    out.notes.append(
        f"generator lag median {median(lags):.2f} ms, max "
        f"{max(lags, default=0.0):.2f} ms; "
        + (f"BEHIND: {late} sends over {serve['late_send_ms']} ms late"
           if late else "kept to schedule"))


def put_layers(out: Outcome, serve: dict[str, Any],
               schedule: list[Request], lat: list[float], start: float,
               refs: list[tuple[float, float]], probe: Probe,
               windows: list[list[float]]) -> None:
    """Per-layer metrics, per request sent in a traced window; the
    front, router, queue and run parts add up to the client latency."""
    traced = [(r, x) for r, x in zip(schedule, lat)
              if r.traced and x != float("inf")]
    n = max(1, len(traced))
    parts = {"front": 0.0, "router": 0.0, "queue": 0.0, "run": 0.0,
             "client": 0.0}
    for r, x in traced:
        parts["client"] += x
        for name, value in split(r, x).items():
            parts[name] += value
    per_ms = lambda seconds: 1e3 * seconds / n  # noqa: E731
    layers = probe.read()
    busy = put_probed(out, layers, n)
    out.put("apps.kernel.work_ratio", layers["apps.kernel"][2] / n
            / median([p for p, _ in refs]), "x")
    out.put("serve.aiofront.ms", per_ms(parts["front"]), "ms")
    out.put("serve.router.ms", per_ms(parts["router"]), "ms")
    out.put("serve.fleet.frames", (layers["serve.fleet.send"][0]
                                   + layers["serve.fleet.recv"][0]) / n,
            "count")
    out.put("serve.fleet.bytes", layers["serve.fleet.bytes"][1] / n, "B")
    out.put("serve.server.queue_ms", per_ms(parts["queue"]), "ms")
    out.put("serve.server.run_ms", per_ms(parts["run"]), "ms")
    kinds = [_outcome(r.payload) for r, _ in traced]
    out.put("serve.router.memo_hit_share", kinds.count("fleet_memo") / n,
            "share")
    out.put("serve.server.coalesced_share", kinds.count("coalesced") / n,
            "share")
    out.put("serve.server.memo_hit_share", kinds.count("worker_memo") / n,
            "share")
    out.put("serve.server.preemptions", sum(
        r.payload.get("preemptions", 0) for r, _ in traced) / n, "count")
    # probed calls run in the workers; each covers at most the time from
    # the first traced window to the end of the drain
    traced_wall = sum(off - on for on, off in windows)
    span = windows[-1][1] - windows[0][0] if windows else 0.0
    covered = layers["bench.covered"][1]
    out.put("bench.layer_busy_share", busy / max(1e-12, traced_wall),
            "share")
    text = (f"probed busy time {busy:.3f} s, covering {covered:.3f} s, "
            f"in traced windows of {traced_wall:.3f} s")
    if covered > serve["workers"] * span:
        out.breach(f"layer check: {text}: probed calls ran outside the "
                   f"traced span of {span:.3f} s per worker")
    else:
        out.notes.append(f"layer check: {text}")
    untraced = [x for r, x in zip(schedule, lat) if not r.traced]
    out.put("bench.trace_overhead_ms", 1e3 * (
        median([x for _, x in traced]) - median(untraced)), "ms")
    out.put("bench.yardstick_ms", 1e3 * median([y for _, y in refs]), "ms")
    lags = _lags_ms(schedule, start)
    out.put("bench.generator_lag_ms", max(lags, default=0.0), "ms")
    out.put("bench.generator_behind", sum(
        lag > serve["late_send_ms"] for lag in lags), "count")
    out.notes.append(f"latency split per request: front "
                     f"{per_ms(parts['front']):.2f} + router "
                     f"{per_ms(parts['router']):.2f} + queue "
                     f"{per_ms(parts['queue']):.2f} + run "
                     f"{per_ms(parts['run']):.2f} = client "
                     f"{per_ms(parts['client']):.2f} ms")
