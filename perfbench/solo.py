"""Solo workloads: one closed-loop caller runs rounds of the five apps.

Each round runs every registry app once to its precise output on one
executor, with the app's precise reference (``precise_output()`` of a
freshly built automaton) timed beside it, so the anytime tax is taken
from interleaved measurements of the same round.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any

from common import Outcome, median, self_rss_mb, tail, yardstick_s
from layers import Probe, put_probed

from repro.apps.registry import get_app
from repro.serve.fleet import value_digest

#: a run that has not finished by then is interrupted and fails the check
RUN_TIMEOUT_S = 60.0


@dataclass
class Item:
    """One generated input with what the checks and the metric need."""

    app: str
    data: Any
    reference: Any          # what the app's dB metric compares against
    target_db: float


def make_items(cfg: dict[str, Any], seed: int) -> list[list[Item]]:
    """``pool`` inputs per app, drawn from ``seed``; round r uses the
    r-th input (mod pool) of every app."""
    solo = cfg["solo"]
    rng = random.Random(seed)
    pools = []
    for name in solo["apps"]:
        spec = get_app(name)
        pool = []
        for _ in range(solo["input_pool"]):
            data = spec.make_input(solo["size"], rng.randrange(1 << 30))
            reference = (data if spec.reference_kind == "input"
                         else spec.reference(data))
            pool.append(Item(name, data, reference,
                             float(solo["target_db"][name])))
        pools.append(pool)
    return pools


def one_run(item: Item, executor: str, probe: Probe,
            traced: bool) -> dict[str, Any]:
    """Time the yardstick, the precise reference, then the anytime run
    to precise."""
    spec = get_app(item.app)
    yard_s = yardstick_s()
    reference_run = spec.build(item.data)
    start = time.perf_counter()
    precise = reference_run.precise_output()
    precise_s = time.perf_counter() - start

    automaton = spec.build(item.data)
    probe.enabled = traced
    start = time.perf_counter()
    if executor == "process":
        handle = automaton.launch_processes()
    else:
        handle = automaton.launch_threaded()
    launched = time.perf_counter()
    result = handle.result(timeout_s=RUN_TIMEOUT_S)
    collected = time.perf_counter()
    snap = handle.snapshot()
    probe.enabled = False

    records = result.output_records(automaton.terminal_buffer_name)
    ttp_s = collected - start
    run = {"yard_s": yard_s, "precise_s": precise_s, "ttp_s": ttp_s,
           "launch_s": launched - start, "ok": True, "why": "",
           "ttfo_s": records[0].time if records else ttp_s,
           "t90_s": ttp_s, "dbs": []}
    reached = False
    for record in records:
        if record.final:
            break
        db = spec.metric(record.value, item.reference)
        run["dbs"].append(db)
        if not reached and db >= item.target_db:
            run["t90_s"], reached = record.time, True
    if not reached and records and records[-1].final:
        run["t90_s"] = records[-1].time
    final = records[-1] if records else None
    run["collect_s"] = ttp_s - final.time if final is not None else 0.0
    reports = result.stage_reports.values()
    run["commands"] = sum(r.commands for r in reports)
    run["wait_s"] = sum(r.wait_time for r in reports)
    run["round_trips"] = sum(r.round_trips for r in reports)
    run["versions"] = len(result.timeline.records)
    if not (result.completed and snap.final and final is not None
            and final.final):
        run["ok"], run["why"] = False, "run did not reach a final version"
    elif value_digest(snap.value) != value_digest(precise):
        run["ok"], run["why"] = False, "final digest != precise digest"
    return run


def set_up(executor: str, cfg: dict[str, Any], seed: int, probe: Probe,
           out: Outcome) -> list[list[Item]]:
    """Generate the inputs and run one warm-up round."""
    pools = make_items(cfg, seed)
    for pool in pools:
        warm = one_run(pool[0], executor, probe, traced=False)
        out.attempted += 1
        if not warm["ok"]:
            out.fail(f"warm-up {pool[0].app}: {warm['why']}")
    return pools


def run_solo(executor: str, pools: list[list[Item]], cfg: dict[str, Any],
             seconds: float, trace: bool, probe: Probe,
             out: Outcome) -> None:
    rounds: list[dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        # in a traced run, odd rounds are traced and even rounds give
        # the untraced baseline the tracing overhead is measured against
        traced = trace and index % 2 == 1
        runs = [one_run(pool[index % len(pool)], executor, probe, traced)
                for pool in pools]
        for item_pool, run in zip(pools, runs):
            out.attempted += 1
            if not run["ok"]:
                out.fail(f"{item_pool[0].app}: {run['why']}")
        rounds.append({"traced": traced, "runs": runs,
                       **{k: sum(r[k] for r in runs) for k in (
                           "yard_s", "ttfo_s", "t90_s", "ttp_s", "precise_s",
                           "launch_s", "collect_s", "commands", "wait_s",
                           "round_trips", "versions")}})
        index += 1

    base = [r for r in rounds if not r["traced"]]
    if not trace:
        # CPU-bound times are scaled to the nominal yardstick speed by
        # the yardstick timed in the same round (see common.yardstick_s)
        nominal_s = 1e-3 * cfg["yardstick_ms"] * len(pools)
        def ms(key: str) -> list[float]:
            return [1e3 * r[key] * nominal_s / r["yard_s"] for r in base]

        lat = ms("ttp_s")
        tail_ms, tail_pct = tail(lat)
        out.put("ttfo_ms", median(ms("ttfo_s")), "ms")
        out.put("t90_ms", median(ms("t90_s")), "ms")
        out.put("ttp_ms", median(lat), "ms")
        out.put("precise_ms", median(ms("precise_s")), "ms")
        out.put("anytime_tax", median(
            [r["ttp_s"] / r["precise_s"] for r in base]), "x")
        out.put("latency_p50_ms", median(lat), "ms")
        out.put("latency_tail_ms", tail_ms, "ms")
        runs = [run for r in base for run in r["runs"]]
        out.put("precise_share", sum(run["ok"] for run in runs)
                / max(1, len(runs)), "share")
        out.put("db_at_delivery", median(
            [db for r in base for run in r["runs"] for db in run["dbs"]]),
            "dB")
        raw_ttp = median([r["ttp_s"] for r in base])
        yard = median([r["yard_s"] for r in base]) / len(pools)
        out.notes.append(
            f"rounds {len(base)}; latency tail is p{tail_pct:.1f} of round "
            f"time to precise; unscaled ttp {1e3 * raw_ttp:.2f} ms, "
            f"yardstick {1e3 * yard:.3f} ms (nominal "
            f"{cfg['yardstick_ms']} ms)")
    else:
        put_layers(out, executor, rounds, probe)
    out.put("peak_rss_mb", self_rss_mb()
            + workers_peak_mb(executor, pools, probe, out), "MB")


def workers_peak_mb(executor: str, pools: list[list[Item]], probe: Probe,
                    out: Outcome) -> float:
    """The largest sum of one run's stage-worker peak RSS, from one more
    round after the timed ones: the workers of a run are alive together,
    so their peaks add."""
    if executor != "process":
        return 0.0
    peaks = []
    probe.worker_rss_on = True
    for pool in pools:
        before = probe.read()["core.procexec.worker_rss"][1]
        run = one_run(pool[0], executor, probe, traced=False)
        out.attempted += 1
        if not run["ok"]:
            out.fail(f"memory round {pool[0].app}: {run['why']}")
        peaks.append(probe.read()["core.procexec.worker_rss"][1] - before)
    probe.worker_rss_on = False
    return max(peaks)


def put_layers(out: Outcome, executor: str, rounds: list[dict[str, Any]],
               probe: Probe) -> None:
    """Per-layer metrics, per traced round."""
    traced = [r for r in rounds if r["traced"]]
    n = max(1, len(traced))
    layers = probe.read()
    total = lambda key: sum(r[key] for r in traced)  # noqa: E731
    per_round_ms = lambda seconds: 1e3 * seconds / n  # noqa: E731
    busy = put_probed(out, layers, n)
    wall = total("ttp_s")
    covered = layers["bench.covered"][1]
    out.put("apps.kernel.work_ratio",
            layers["apps.kernel"][2] / max(1e-12, total("precise_s")), "x")
    out.put("core.executor.commands", total("commands") / n, "count")
    out.put("core.executor.wait_ms", per_round_ms(total("wait_s")), "ms")
    out.put("core.executor.self_ms", per_round_ms(wall - covered), "ms")
    if executor == "process":
        out.put("core.procexec.launch_ms", per_round_ms(total("launch_s")),
                "ms")
        out.put("core.procexec.round_trips_per_version",
                total("round_trips") / max(1, total("versions")), "count")
        out.put("core.procexec.collect_ms",
                per_round_ms(total("collect_s")), "ms")
    base = [r["ttp_s"] for r in rounds if not r["traced"]]
    out.put("bench.trace_overhead_ms", 1e3 * (
        median([r["ttp_s"] for r in traced]) - median(base)), "ms")
    out.put("bench.layer_busy_share", busy / max(1e-12, wall), "share")
    out.put("bench.yardstick_ms", 1e3 * median(
        [run["yard_s"] for r in rounds for run in r["runs"]]), "ms")
    text = (f"probed busy time {busy:.3f} s, covering {covered:.3f} s "
            f"of the traced wall {wall:.3f} s")
    if executor == "process":
        out.notes.append(f"layer check: {text} (stage workers run in "
                         f"parallel processes, so both may exceed it)")
    elif covered > wall:
        out.breach(f"layer check: {text}: probed calls ran outside the "
                   f"traced runs")
    else:
        out.notes.append(f"layer check: {text}")

