"""Sharded serving fleet (``repro.serve.fleet`` / ``router``).

Workers are real forked processes behind stdlib sockets, so these tests
keep inputs tiny and assert protocol outcomes, not performance: sticky
placement sends duplicates to one worker (where they coalesce), a dead
worker's in-flight requests re-dispatch to survivors, sheds retry once
elsewhere, and every result carries a value digest so bit-identity can
be asserted across the wire.
"""

import os
import signal
import time

import pytest

from repro.serve.bench import compare_serve_baseline
from repro.serve.fleet import spec_key, value_digest
from repro.serve.router import FleetRouter, summarize_fleet

pytestmark = [pytest.mark.serve, pytest.mark.timeout(180)]

SLO_OK = {"deadline_s": 60.0}


def tiny_fleet(workers=2, respawn=True, **config):
    config.setdefault("slots", 2)
    config.setdefault("queue_limit", 32)
    return FleetRouter(workers=workers, worker_config=config,
                       respawn=respawn)


class TestFleetRoundTrip:
    def test_duplicates_coalesce_and_all_complete(self):
        with tiny_fleet(workers=2, memo_ttl_s=0.0) as fleet:
            requests = []
            for i in range(20):
                app = "2dconv" if i % 2 == 0 else "dwt53"
                requests.append(fleet.submit(app, size=16, seed=i % 2,
                                             slo=SLO_OK))
                time.sleep(0.002)
            assert fleet.drain(timeout_s=90.0)
            summary = summarize_fleet(requests)
        assert summary["completed"] == 20
        assert summary["failed"] == 0
        assert summary["coalesced"] + summary["memo_hits"] > 0

    def test_same_key_lands_on_same_worker(self):
        with tiny_fleet(workers=3) as fleet:
            requests = [fleet.submit("dwt53", size=16, seed=0,
                                     slo=SLO_OK) for _ in range(6)]
            assert fleet.drain(timeout_s=90.0)
        workers = {r.result(0.0)["worker"] for r in requests}
        assert len(workers) == 1

    def test_distinct_keys_spread_across_workers(self):
        with tiny_fleet(workers=2) as fleet:
            requests = [fleet.submit("dwt53", size=16, seed=i,
                                     slo=SLO_OK) for i in range(12)]
            assert fleet.drain(timeout_s=90.0)
            summary = summarize_fleet(requests)
        assert summary["completed"] == 12
        assert len(summary["workers_used"]) == 2

    def test_final_values_bit_identical_across_duplicates(self):
        """Acceptance: coalesced subscribers' outputs are bit-identical
        to uncoalesced runs of the same spec (digests must agree even
        across workers and coalesce on/off)."""
        digests = {}
        for coalesce in (True, False):
            with tiny_fleet(workers=2, coalesce=coalesce) as fleet:
                requests = [fleet.submit("dwt53", size=16, seed=0,
                                         slo=SLO_OK) for _ in range(4)]
                assert fleet.drain(timeout_s=90.0)
            finals = {r.result(0.0)["value_digest"] for r in requests
                      if r.result(0.0)["final"]}
            assert len(finals) == 1, finals
            digests[coalesce] = finals.pop()
        assert digests[True] == digests[False]

    def test_fleet_stats_aggregate(self):
        with tiny_fleet(workers=2) as fleet:
            requests = [fleet.submit("dwt53", size=16, seed=i % 3,
                                     slo=SLO_OK) for i in range(9)]
            assert fleet.drain(timeout_s=90.0)
            stats = fleet.aggregate_stats()
        assert stats["workers"] == 2 and stats["alive"] == 2
        assert len(stats["per_worker"]) == 2
        assert stats["totals"]["completed"] == 9
        assert stats["router"]["dispatched"] == 9
        for r in requests:
            r.result(timeout_s=0.0)


class TestFailover:
    """Pure failover mode (respawn=False): a dead worker is not
    replaced, its in-flight specs re-dispatch to survivors.  Re-spawn
    and checkpoint migration are covered in test_ckpt.py."""

    def test_dead_worker_requests_redispatch_to_survivors(self):
        with tiny_fleet(workers=3, respawn=False) as fleet:
            requests = [fleet.submit("2dconv", size=24, seed=i % 3,
                                     slo=SLO_OK) for i in range(9)]
            # Freeze a worker with SIGSTOP before reading its in-flight
            # set, so none of its requests can finish between the check
            # and the kill.
            victim = None
            deadline = time.monotonic() + 30.0
            while victim is None and time.monotonic() < deadline:
                with fleet._lock:
                    candidates = [l for l in fleet._links if l.inflight]
                for link in candidates:
                    os.kill(link.process.pid, signal.SIGSTOP)
                    if link.inflight:
                        victim = link
                        break
                    os.kill(link.process.pid, signal.SIGCONT)
                if victim is None:
                    time.sleep(0.01)
            assert victim is not None, "no worker held a request"
            os.kill(victim.process.pid, signal.SIGKILL)
            assert fleet.drain(timeout_s=90.0)
            summary = summarize_fleet(requests)
            survivors = fleet.alive_workers()
        assert summary["failed"] == 0
        assert summary["completed"] == 9
        assert fleet.counters["worker_deaths"] == 1
        assert survivors == 2

    def test_last_worker_death_fails_cleanly(self):
        with tiny_fleet(workers=1, respawn=False) as fleet:
            requests = [fleet.submit("2dconv", size=24, seed=i,
                                     slo=SLO_OK) for i in range(4)]
            time.sleep(0.05)
            fleet._links[0].process.terminate()
            assert fleet.drain(timeout_s=30.0)
        for r in requests:
            outcome = r.result(timeout_s=0.0)
            assert outcome["state"] in ("failed", "completed")
        assert any(r.result(0.0)["state"] == "failed"
                   for r in requests)

    def test_submit_after_total_death_fails_immediately(self):
        with tiny_fleet(workers=1, respawn=False) as fleet:
            fleet._links[0].process.terminate()
            time.sleep(0.2)
            request = fleet.submit("dwt53", size=16, slo=SLO_OK)
            outcome = request.result(timeout_s=10.0)
        assert outcome["state"] == "failed"


class TestBackpressure:
    def test_shed_requests_retry_once_then_resolve(self):
        config = {"slots": 1, "queue_limit": 1, "coalesce": False}
        with tiny_fleet(workers=2, **config) as fleet:
            requests = [fleet.submit("dwt53", size=16, seed=i,
                                     slo=SLO_OK) for i in range(12)]
            assert fleet.drain(timeout_s=90.0)
            summary = summarize_fleet(requests)
        assert summary["failed"] == 0
        assert summary["completed"] + summary["shed"] == 12
        # every terminal shed was first retried on the other worker
        if summary["shed"]:
            assert fleet.counters["shed_retries"] > 0


class TestSpecIdentity:
    def test_spec_key_is_stable_and_content_addressed(self):
        assert spec_key("dwt53", 16, 0) == spec_key("dwt53", 16, 0)
        assert spec_key("dwt53", 16, 0) != spec_key("dwt53", 16, 1)
        assert spec_key("dwt53", 16, 0) != spec_key("dwt53", 32, 0)
        assert spec_key("dwt53", 16, 0).startswith("dwt53:")

    def test_value_digest_discriminates(self):
        import numpy as np

        a = np.arange(16, dtype=np.int64)
        assert value_digest(a) == value_digest(a.copy())
        assert value_digest(a) != value_digest(a + 1)
        assert value_digest(a) != value_digest(a.astype(np.int32))
        assert value_digest({"x": a}) == value_digest({"x": a.copy()})
        assert value_digest({"x": a}) != value_digest({"y": a})


class TestServeBaselineGate:
    def payload(self, **overrides):
        point = {"completed": 20, "slo_attainment": 0.9,
                 "latency_p50_s": 0.1, "throughput_rps": 50.0}
        point.update(overrides)
        return {"bench": "serve", "cpu_count": 4, "sweep": [point]}

    def test_identical_payload_passes(self):
        base = self.payload()
        assert compare_serve_baseline(base, base) == []

    def test_completion_regression_fails_everywhere(self):
        fresh = self.payload(completed=10)
        fresh["cpu_count"] = 99   # different machine: still gated
        problems = compare_serve_baseline(fresh, self.payload())
        assert any("completions" in p for p in problems)

    def test_latency_gated_only_on_same_machine(self):
        fresh = self.payload(latency_p50_s=10.0)
        assert any("p50" in p for p in
                   compare_serve_baseline(fresh, self.payload()))
        fresh["cpu_count"] = 99
        assert not any("p50" in p for p in
                       compare_serve_baseline(fresh, self.payload()))

    def test_shrunken_sweep_fails(self):
        fresh = self.payload()
        fresh["sweep"] = []
        problems = compare_serve_baseline(fresh, self.payload())
        assert any("sweep shrank" in p for p in problems)

    def test_slo_attainment_regression_fails(self):
        fresh = self.payload(slo_attainment=0.2)
        problems = compare_serve_baseline(fresh, self.payload())
        assert any("SLO attainment" in p for p in problems)
