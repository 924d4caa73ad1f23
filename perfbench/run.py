"""The repository's benchmark: anytime tax and served latency.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solo-threaded --seed 1 \\
        --seconds 35 --trace 0

Workloads (why each exists is recorded in ``BENCHMARK.json``):

``solo-threaded`` / ``solo-process``
    One closed-loop caller runs rounds of the five registry apps to
    their precise outputs on one executor, timing each app's precise
    reference beside it (:mod:`solo`).
``serve-hot``
    An open loop at a fixed Poisson rate over one client connection to
    ``AioFrontend`` -> ``FleetRouter`` -> two localhost TCP workers;
    keys repeat in bursts, so they are coalesced or answered from the
    fleet memo (:mod:`served`).

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run giving the per-layer metrics, timed at
the program's public calls by :mod:`layers`.  Fixed parameters (sizes,
dB targets, rate, deadlines), the definition of every metric, how
CPU-bound times are scaled by a yardstick, and the map from each layer
metric to the end-to-end metrics it should move are in
``perfbench/config.json``.

Every run checks the program's outputs; a digest mismatch or a request
without exactly one terminal answer counts in ``failed`` and makes the
command exit 1.  The last line of standard output is the JSON result.

``setup_s`` is the median of ``setup_repeats`` set-ups that each start
from a cold interpreter: the run's own, and more run as
``--setup-only`` child processes after the measurement.

On every way out, a run stops every process it started and waits for
each to end, multiprocessing's shared-memory resource tracker included
(:func:`reap_children`).
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("solo-threaded", "solo-process", "serve-hot")

#: a cold set-up that has not finished by then fails the run
SETUP_TIMEOUT_S = 60.0

#: how long the children get to end on their own when the run is over,
#: and then how long killed ones get to be reaped
CHILD_GRACE_S = 10.0
KILL_GRACE_S = 5.0

PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt the run's orphaned descendants (the resource tracker of a
    ``--setup-only`` child killed at its timeout, say), so that
    :func:`reap_children` waits for them too."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return                      # not Linux: orphans go to init
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                # after the parenthesised command: state, ppid, ...
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap_children() -> list[int]:
    """Stop multiprocessing's resource tracker, wait for every child to
    end and reap it; kill the children still alive after
    :data:`CHILD_GRACE_S`.  Returns the pids that had to be killed.

    The tracker is a child that multiprocessing only lets go when the
    interpreter exits, by closing its pipe, and then nobody waits for
    it: it would outlive the run.  Closing the pipe here ends it now."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    rt = getattr(tracker, "_resource_tracker", None)
    if rt is not None and getattr(rt, "_fd", None) is not None:
        with rt._lock:
            os.close(rt._fd)
            rt._fd, rt._pid = None, None
    killed: list[int] = []
    deadline = time.monotonic() + CHILD_GRACE_S
    while True:
        _reap()
        alive = _children()
        if not alive:
            return killed
        if time.monotonic() > deadline:
            if killed:
                return killed       # unkillable: nothing more to do
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = alive
            deadline = time.monotonic() + KILL_GRACE_S
        time.sleep(0.02)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up seconds as "
                             "JSON and exit (how a run times its cold "
                             "set-ups)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def cold_setups(args: argparse.Namespace, n: int, out: Any) -> list[float]:
    """Time ``n`` set-ups, each in a fresh interpreter, so that every one
    pays the imports and lazy first-run costs; each counts as an op."""
    times = []
    for _ in range(n):
        out.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 args.workload, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--setup-only"],
                cwd=ROOT, capture_output=True, text=True,
                timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out.fail(f"cold set-up took over {SETUP_TIMEOUT_S} s")
            continue
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            out.fail(f"cold set-up exited {proc.returncode}: "
                       f"{(lines or [proc.stderr.strip()])[-1][-300:]}")
            continue
        times.append(json.loads(lines[-1])["setup_s"])
    return times


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    become_subreaper()
    try:
        return run(args)
    finally:
        killed = reap_children()
        if killed:
            print(f"{args.workload}: killed child processes still alive "
                  f"{CHILD_GRACE_S:.0f} s after the run: {killed}",
                  file=sys.stderr)


def run(args: argparse.Namespace) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program sources at {src}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, src)

    from common import Outcome, load_config, median
    from layers import Probe

    cfg = load_config()
    probe = Probe()
    probe.count_unraisable()
    probe.count_worker_rss()
    if args.trace:
        probe.install()
    out = Outcome()
    if args.workload.startswith("solo-"):
        import solo

        executor = args.workload.split("-")[1]
        pools = solo.set_up(executor, cfg, args.seed, probe, out)
        setup_s = time.perf_counter() - STARTED
        if not args.setup_only:
            solo.run_solo(executor, pools, cfg, args.seconds,
                          bool(args.trace), probe, out)
    else:
        import served

        stack = served.set_up(cfg, args.seed, out)
        setup_s = time.perf_counter() - STARTED
        if args.setup_only:
            stack.stop()
        else:
            served.run_served(stack, cfg, args.seed, args.seconds,
                              bool(args.trace), probe, out)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "breaches": out.breaches}))
        return 0 if not out.breaches else 1
    if not args.trace:
        setups = [setup_s] + cold_setups(args, cfg["setup_repeats"] - 1,
                                         out)
        out.put("setup_s", median(setups), "s")

    counts = probe.read()
    unraisable = counts["core.shmplane.unraisable"][0]
    if unraisable:
        out.notes.append(f"{unraisable:.0f} unraisable exceptions counted "
                         f"(core.shmplane.unraisable)")
    if counts["bench.lock_timeouts"][0]:
        out.notes.append("a process died holding the probe's lock; the "
                         "layer counts after that were taken unlocked")
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        value, unit = out.metrics.get(spec["name"], (0.0, spec["unit"]))
        if args.trace == 0 and spec["name"] not in out.metrics:
            out.breach(f"end-to-end metric {spec['name']} not measured")
        if unit != spec["unit"]:
            out.breach(f"{spec['name']} measured in {unit}, "
                       f"declared {spec['unit']}")
        if not math.isfinite(value):
            out.breach(f"{spec['name']} is not finite ({value})")
            value = 0.0
        metrics[spec["name"]] = {"value": value, "unit": unit}
        print(f"{args.workload:<15} {spec['name']:<40} "
              f"{value:>14.4f} {unit}")
    for note in out.notes:
        print(f"{args.workload:<15} note: {note}")
    for text in out.breaches:
        print(f"{args.workload:<15} FAILED CHECK: {text}")
    print(f"{args.workload:<15} ops {out.attempted} ops_failed "
          f"{out.failed}")
    correct = not out.breaches
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
