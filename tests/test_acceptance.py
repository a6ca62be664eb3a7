"""Acceptance checks: one test per promised behavior, independent oracles.

Every randomized check compares the implementation against a brute-force
oracle written from the documented rules, never against the implementation
itself. Counts and tolerances are pinned: oracle comparisons admit zero
divergences, fairness splits are exact, and the randomized suites must
finish in under five seconds each.
"""

from __future__ import annotations

import random
import time
from collections import Counter

import pytest

from ssaas_sim import cli
from ssaas_sim.chassis import CircuitBreaker, CircuitState, ConfigView, Endpoint, Resolver
from ssaas_sim.migration import (
    AUDIT_OK,
    audit_ownership,
    build_stage,
    compare_traces,
    parse_workload,
    run_workload,
)
from ssaas_sim.registry import LeaseConfig, RegistryStore
from ssaas_sim.simwire import FAILED, REQUEST, Envelope, parse_fault_script
from ssaas_sim.workloads import load_text


# -- 1. circuit breaker vs. brute-force state machine -------------------------

class BruteForceBreaker:
    """Literal transcription of the breaker rules, no shortcuts shared with
    the implementation under test."""

    def __init__(self, threshold: int, open_duration: int) -> None:
        self.threshold = threshold
        self.open_duration = open_duration
        self.state = "CLOSED"
        self.failures = 0
        self.opened_at: int | None = None
        self.probe = False

    def allow(self, now: int) -> bool:
        if self.state == "CLOSED":
            return True
        if self.state == "OPEN":
            if now - self.opened_at >= self.open_duration:
                self.state = "HALF_OPEN"
                self.probe = True
                return True
            return False
        if not self.probe:
            self.probe = True
            return True
        return False

    def record_result(self, ok: bool, now: int) -> None:
        if self.state == "CLOSED":
            if ok:
                self.failures = 0
            else:
                self.failures += 1
                if self.failures >= self.threshold:
                    self.state = "OPEN"
                    self.opened_at = now
        elif self.state == "HALF_OPEN":
            self.probe = False
            if ok:
                self.state = "CLOSED"
                self.failures = 0
                self.opened_at = None
            else:
                self.state = "OPEN"
                self.opened_at = now
                self.failures = 0
        # OPEN: a late result from before the trip changes nothing.


def breaker_config(threshold: int, open_duration: int) -> ConfigView:
    """A node's config view carrying the two breaker entries."""
    cfg = ConfigView()
    cfg.apply_refresh((1, 0), {"breaker.threshold": str(threshold),
                               "breaker.open_ticks": str(open_duration)})
    return cfg


def test_breaker_state_machine_matches_bruteforce_oracle():
    rng = random.Random(1001)
    started = time.monotonic()
    divergences = []
    for sequence in range(1000):
        threshold = rng.randint(1, 5)
        open_duration = rng.randint(1, 12)
        breaker = CircuitBreaker(breaker_config(threshold, open_duration))
        oracle = BruteForceBreaker(threshold, open_duration)
        now = 0
        for event in range(100):
            now += rng.choice((0, 0, 1, 1, 2, 3, 5, 8))
            ok = rng.random() < 0.5
            admitted = breaker.allow(now)
            if admitted != oracle.allow(now):
                divergences.append((sequence, event, "admission"))
                break
            breaker.record_result(ok, now)
            oracle.record_result(ok, now)
            got = (breaker.state, breaker.consecutive_failures, breaker.opened_at)
            want = (oracle.state, oracle.failures, oracle.opened_at)
            if got != want:
                divergences.append((sequence, event, got, want))
                break
    elapsed = time.monotonic() - started
    assert divergences == []
    assert elapsed < 5.0


# -- 2. registry leases vs. expiry-map oracle ----------------------------------

def test_registry_leases_match_expiry_oracle():
    rng = random.Random(2002)
    started = time.monotonic()
    services = ("Alpha", "Beta", "Gamma")
    instances = tuple(f"node-{i}" for i in range(6))
    for schedule in range(40):
        ttl = rng.randint(5, 40)
        store = RegistryStore(LeaseConfig(ttl_ticks=ttl))
        expiry: dict[tuple[str, str], int] = {}
        for now in range(500):
            if rng.random() < 0.15:
                svc, inst = rng.choice(services), rng.choice(instances)
                store.register(svc, inst, f"10.0.0.{rng.randint(1, 9)}", 80, now)
                expiry[(svc, inst)] = now + ttl
            if expiry and rng.random() < 0.25:
                svc, inst = rng.choice(sorted(expiry))
                store.renew(svc, inst, now)
                expiry[(svc, inst)] = now + ttl
            if now % 5 == 0:
                evicted = store.sweep(now)
                for inst_rec in evicted:
                    key = (inst_rec.service, inst_rec.instance_id)
                    assert expiry[key] <= now
                    del expiry[key]
            for svc in services:
                served = [i.instance_id for i in store.query(svc, now)]
                live = sorted(inst for (s, inst), exp in expiry.items()
                              if s == svc and exp > now)
                assert served == live
                for inst in served:
                    assert expiry[(svc, inst)] > now
    elapsed = time.monotonic() - started
    assert elapsed < 5.0


# -- 3. round-robin fairness ----------------------------------------------------

def test_round_robin_shares_calls_evenly():
    resolver = Resolver()
    endpoints = [Endpoint(f"svc-{i}", f"svc-{i}") for i in (1, 2, 3)]
    resolver.update("Svc", endpoints, now=0)
    breakers = {e.instance_id: CircuitBreaker(breaker_config(5, 10_000))
                for e in endpoints}

    def healthy(endpoint: Endpoint) -> bool:
        return breakers[endpoint.instance_id].can_attempt(0)

    picks = Counter(resolver.resolve("Svc", 0, allowed=healthy).instance_id
                    for _ in range(300))
    assert picks == {"svc-1": 100, "svc-2": 100, "svc-3": 100}

    for _ in range(5):
        breakers["svc-2"].record_result(False, now=0)
    assert breakers["svc-2"].state is CircuitState.OPEN

    picks = Counter(resolver.resolve("Svc", 0, allowed=healthy).instance_id
                    for _ in range(300))
    assert picks == {"svc-1": 150, "svc-3": 150}


# -- 4. end-user trace stability across the migration -------------------------

def test_end_user_trace_stable_across_stages(tmp_path):
    workload = parse_workload(load_text("basic.wl"))
    assert len(workload) >= 25
    traces = {}
    for stage in range(7):
        handle = build_stage(stage)
        entries = run_workload(handle, workload)
        traces[stage] = entries
        path = tmp_path / f"stage{stage}.trace"
        path.write_text("\n".join(e.text_line() for e in entries) + "\n")

    groups = ((3, 4, 5, 6), (0, 1, 2))
    for group in groups:
        for left in group:
            for right in group:
                if left >= right:
                    continue
                diff = compare_traces(traces[left], traces[right])
                assert diff.equal, (left, right, diff.summary())
                code = cli.main(["diff", str(tmp_path / f"stage{left}.trace"),
                                 str(tmp_path / f"stage{right}.trace")])
                assert code == 0, (left, right)


# -- 5. chat outage: fast failure without collateral damage --------------------

def test_chat_outage_fast_fails_without_touching_rdbms_flow():
    workload = parse_workload(load_text("chat_resilience.wl"))
    faults = parse_fault_script(load_text("faults_kill_chat.fs"))

    faulted = build_stage(6)
    with_fault = run_workload(faulted, workload, faults=faults)
    healthy = build_stage(6)
    without_fault = run_workload(healthy, workload)

    chat_rows = [e for e in with_fault if e.path.startswith("/api/chat")]
    assert [e.status for e in chat_rows] == ["200"] * 3 + ["503"] * 9
    for row in chat_rows[3:]:
        assert row.response_body == {"error": "UpstreamUnavailable"}

    # After the kill, exactly threshold-many deliveries fail on the wire and
    # trip the breaker; every later chat call is refused client-side, so no
    # further message addressed to a chat node may exist at all.
    kill_tick = faulted.settle_tick + 40
    chat_nodes = {n for n in faulted.nodes if n.startswith("chatservices")}
    post_kill = [r for r in faulted.sim.records
                 if r.kind == REQUEST and r.destination in chat_nodes
                 and r.tick > kill_tick]
    assert len(post_kill) == 5
    assert all(r.status == FAILED for r in post_kill)

    sub_faulted = [e for e in with_fault if not e.path.startswith("/api/chat")]
    sub_healthy = [e for e in without_fault if not e.path.startswith("/api/chat")]
    diff = compare_traces(sub_faulted, sub_healthy)
    assert diff.equal, diff.summary()


# -- 6. ownership audit: clean run, planted violation --------------------------

def test_ownership_audit_clean_then_catches_planted_write():
    handle = build_stage(6)
    run_workload(handle, parse_workload(load_text("basic.wl")))
    report = audit_ownership(handle.sim.records, 6, handle.node_services())
    assert report.status == AUDIT_OK
    assert report.writes_checked > 0
    assert report.violations == []

    rogue = Envelope.request("developerservices-1", "contentservices-1",
                             "/schema/projects/1/tables/posts/columns", "POST",
                             {"name": "smuggled", "type": "int"})
    handle.sim.send(rogue)
    handle.sim.run_until_idle(100)
    report = audit_ownership(handle.sim.records, 6, handle.node_services())
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.entity == "ProjectSchema"
    assert violation.expected == "DeveloperData"
    assert violation.actual == "ContentServices"
    assert violation.source == "developerservices-1"
    assert violation.destination == "contentservices-1"


# -- 7. live policy flip through configuration ---------------------------------

POLICY_WORKLOAD = """\
0|admin|POST|/api/developers|{"name":"ann","email":"ann@example.com"}
10|ops|POST|/api/projects|{"name":"p1","owner_developer_id":1}
20|ops|POST|/api/projects|{"name":"p2","owner_developer_id":1}
30|ops|POST|/api/projects|{"name":"p3","owner_developer_id":1}
45|admin|PUT|/config/ResourceManager/default|{"entries":{"breaker.threshold":"5","breaker.open_ticks":"30","rm.policy":"random"}}
60|ops|POST|/api/projects|{"name":"p4","owner_developer_id":1}
70|ops|POST|/api/projects|{"name":"p5","owner_developer_id":1}
80|ops|POST|/api/projects|{"name":"p6","owner_developer_id":1}
95|admin|PUT|/config/ResourceManager/default|{"entries":{"breaker.threshold":"5","breaker.open_ticks":"30","rm.policy":"least_used"}}
110|ops|POST|/api/projects|{"name":"p7","owner_developer_id":1}
120|ops|POST|/api/projects|{"name":"p8","owner_developer_id":1}
"""


def selection_oracle(seed: int, phases: list[str]) -> tuple[list[str], list[str]]:
    """Replay server selection by the published rules: least_used picks the
    minimum (reserved, id); random draws from the sorted eligible list using
    the seeded per-service stream, which least_used never advances. Returns
    the expected picks and the picks a never-flipped least_used would make."""
    rng = random.Random(f"{seed}:ResourceManager:policy")
    expected, counts = [], {"oracle-a": 0, "oracle-b": 0}
    for phase in phases:
        eligible = sorted(s for s in counts if counts[s] < 4)
        if phase == "random":
            pick = eligible[rng.randrange(len(eligible))]
        else:
            pick = min(eligible, key=lambda s: (counts[s], s))
        counts[pick] += 1
        expected.append(pick)

    unflipped, counts = [], {"oracle-a": 0, "oracle-b": 0}
    for _ in phases:
        eligible = sorted(s for s in counts if counts[s] < 4)
        pick = min(eligible, key=lambda s: (counts[s], s))
        counts[pick] += 1
        unflipped.append(pick)
    return expected, unflipped


def test_policy_flip_via_config_changes_selection_without_restart():
    handle = build_stage(6, seed=0)
    entries = run_workload(handle, parse_workload(POLICY_WORKLOAD))

    project_rows = [e for e in entries if e.path == "/api/projects"]
    assert [e.status for e in project_rows] == ["200"] * 8
    selections = [e.response_body["server_id"] for e in project_rows]

    phases = ["least_used"] * 3 + ["random"] * 3 + ["least_used"] * 2
    expected, unflipped = selection_oracle(0, phases)
    assert selections == expected
    assert selections[3:6] != unflipped[3:6]  # the flip is visible
    assert selections[6:] == unflipped[6:]    # and the revert restores it

    config_rows = [e for e in entries if e.path.startswith("/config/")]
    assert [e.response_body for e in config_rows] == [{"version": [2, 2]},
                                                      {"version": [3, 3]}]

    # No node restarted: registration is a POST to the registry, and every
    # one of those happened during initial build, before the workload began.
    late_registrations = [r for r in handle.sim.records
                          if r.kind == REQUEST and r.method == "POST"
                          and r.path.startswith("/registry/")
                          and r.tick > handle.settle_tick]
    assert late_registrations == []


# -- 8. determinism -------------------------------------------------------------

def test_identical_runs_produce_byte_identical_traces(tmp_path):
    specs = [
        ["run", "--stage", "6", "--seed", "7",
         "--workload", "chat_resilience.wl", "--faults", "faults_kill_chat.fs"],
        ["run", "--stage", "3", "--seed", "0",
         "--workload", "basic.wl", "--format", "ndjson"],
    ]
    for n, spec in enumerate(specs):
        first = tmp_path / f"{n}-first.trace"
        second = tmp_path / f"{n}-second.trace"
        for out in (first, second):
            wire = out.with_suffix(".wire")
            code = cli.main(spec + ["--out", str(out), "--wire-out", str(wire)])
            assert code == 0
        assert first.read_bytes() == second.read_bytes()
        assert (first.with_suffix(".wire").read_bytes()
                == second.with_suffix(".wire").read_bytes())


# -- 9. recovery once faults heal (ROADMAP item 2: both fail today) ------------

@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_chat_serves_again_after_its_node_is_revived():
    # A chat POST every 10 ticks; chatservices-1 is down from tick 40 to 100.
    text = '0|client|POST|/api/developers|{"name":"ann","email":"ann@example.dev"}\n' + "".join(
        f'{tick}|client|POST|/api/chat|{{"developer_id":1}}\n' for tick in range(10, 600, 10))
    lines = parse_workload(text)
    faults = parse_fault_script("40 kill chatservices-1\n100 revive chatservices-1\n")
    entries = run_workload(build_stage(6), lines, faults=faults)
    late = [entry.status for line, entry in zip(lines, entries) if line.tick >= 100 + 60]
    assert late == ["200"] * 44


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_no_reservation_outlives_its_flow():
    # The reservation is made, but its reply arrives after the caller's
    # deadline, so the provision fails and must not keep the server.
    handle = build_stage(5)
    entries = run_workload(handle, parse_workload(
        '0|client|POST|/api/developers|{"name":"ann","email":"ann@example.dev"}\n'
        '100|client|POST|/api/projects|{"name":"p","owner_developer_id":1}\n'),
        faults=parse_fault_script("15 delay resourcemanager-1 developerservices-1 8\n"))
    owners = [res.owner for res in handle.stores.pool.active_reservations()]
    assert owners == (["project:p"] if entries[1].status == "200" else [])
