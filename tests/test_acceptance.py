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
from ssaas_sim.migration.harness import WorkloadError
from ssaas_sim.registry import LeaseConfig, RegistryStore
from ssaas_sim.simwire import (DELIVERED, FAILED, REQUEST, Envelope, FaultEffect, FaultRule,
                               parse_fault_script)
from ssaas_sim.ssaas.stores import UnknownProject
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

    picks = Counter(resolver.resolve("Svc", 0, breakers).instance_id
                    for _ in range(300))
    assert picks == {"svc-1": 100, "svc-2": 100, "svc-3": 100}

    for _ in range(5):
        breakers["svc-2"].record_result(False, now=0)
    assert breakers["svc-2"].state is CircuitState.OPEN

    picks = Counter(resolver.resolve("Svc", 0, breakers).instance_id
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


def test_client_breaker_stands_in_for_the_gateway_breaker():
    # Before the gateway exists (stages 1-2), the external client's own
    # breaker guards developerservices-1; at stage 3 the gateway's does. A GET
    # every 4 ticks sees the node die at tick 10 and come back at tick 60.
    text = '0|client|POST|/api/developers|{"name":"ann","email":"ann@example.dev"}\n' + "".join(
        f"{tick}|client|GET|/api/developers/1|\n" for tick in range(1, 160, 4))
    lines = parse_workload(text)
    faults = parse_fault_script("10 kill developerservices-1\n60 revive developerservices-1\n")
    traces = {stage: run_workload(build_stage(stage), lines, faults=faults) for stage in (1, 2, 3)}
    statuses = [entry.status for entry in traces[1]]
    assert statuses[:3] == ["200"] * 3 and statuses[-10:] == ["200"] * 10
    assert statuses.count("503") >= 10
    for stage in (2, 3):
        diff = compare_traces(traces[1], traces[stage])
        assert diff.equal, (stage, diff.summary())


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


# -- 9. recovery once faults heal (ROADMAP item 2a's repro fails today) --------

@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_chat_serves_again_after_its_node_is_revived():
    # A chat POST every 10 ticks; chatservices-1 is down from tick 40 to 100.
    text = '0|client|POST|/api/developers|{"name":"ann","email":"ann@example.dev"}\n' + "".join(
        f'{tick}|client|POST|/api/chat|{{"developer_id":1}}\n' for tick in range(10, 600, 10))
    # Every chat reserves a MYSQL database and stage 6 has 8, so the late POSTs
    # are refused even without faults: once healed, the run must answer them
    # as the fault-free run does.
    lines = parse_workload(text)
    faults = parse_fault_script("40 kill chatservices-1\n100 revive chatservices-1\n")

    def late_statuses(faults=None) -> list[str]:
        entries = run_workload(build_stage(6), lines, faults=faults)
        return [entry.status for line, entry in zip(lines, entries) if line.tick >= 100 + 60]

    clean = late_statuses()
    assert len(clean) == 44
    assert late_statuses(faults) == clean


ANN = '0|client|POST|/api/developers|{"name":"ann","email":"ann@example.dev"}\n'


def read_ann(stage: int, ticks: range, faults: str) -> tuple:
    """Create ann at tick 0, then read her back at each of ``ticks``, on a
    seed-1 build of ``stage`` under ``faults``."""
    handle = build_stage(stage, seed=1)
    lines = parse_workload(ANN + "".join(f"{tick}|client|GET|/api/developers/1|\n"
                                         for tick in ticks))
    entries = run_workload(handle, lines, faults=parse_fault_script(faults))
    return handle, [(line.tick, entry.status) for line, entry in zip(lines, entries)]


def test_a_gateway_killed_with_its_probe_out_serves_again_once_revived():
    # developerservices-1 is down from tick 10, so the gateway's breaker for
    # it opens; the gateway dies at tick 57 with its half-open probe in
    # flight, and both come back at tick 117. The probe's answer is never
    # delivered, so only a revive that resets the client unsticks the
    # HALF_OPEN breaker.
    handle, statuses = read_ann(3, range(20, 400), "10 kill developerservices-1\n"
                                "57 kill gateway\n117 revive gateway\n"
                                "117 revive developerservices-1\n")
    late = [status for tick, status in statuses if tick >= 200]
    assert late == ["200"] * 200
    assert handle.gateway.client._pending == {}


def test_a_gateway_killed_mid_fetch_serves_again_once_revived():
    # The gateway dies at tick 22 with a registry fetch in flight. Without a
    # reset, every later call would queue behind that fetch forever.
    handle, statuses = read_ann(6, range(20, 397, 4), "22 kill gateway\n62 revive gateway\n")
    late = [status for tick, status in statuses if tick >= 62]
    assert late == ["200"] * 84
    assert handle.gateway.client._fetch_waiters == {}


def test_a_workload_client_revived_within_its_deadline_still_answers_every_line():
    # The reads sent from tick 10 to 18 are lost with the client, and each
    # times out once it is back: a revive resets only the system's clients.
    _, statuses = read_ann(6, range(10, 60, 2), "11 kill client\n20 revive client\n")
    assert [tick for tick, status in statuses if status != "200"] == [10, 12, 14, 16, 18]


def test_a_workload_client_killed_for_good_is_a_workload_error():
    # The read of tick 10 is in flight at the kill, and every later one is
    # dropped at the dead client; none is answered, and no deadline fires
    # on a dead node. Lines 2-26 are the reads; line 1 creates ann.
    with pytest.raises(WorkloadError, match=r"^lines left unanswered: 2, 3, .*, 25, 26$"):
        read_ann(6, range(10, 60, 2), "11 kill client\n")


def test_no_reservation_outlives_its_flow():
    # The reservation is made, but its reply arrives after the caller's
    # deadline, so the provision fails and must not keep the server.
    handle = build_stage(5)
    entries = run_workload(handle, parse_workload(
        ANN + '100|client|POST|/api/projects|{"name":"p","owner_developer_id":1}\n'),
        faults=parse_fault_script("15 delay resourcemanager-1 developerservices-1 8\n"))
    assert entries[1].status == "503"
    assert handle.stores.pool.active_reservations() == []


def test_a_release_that_overtakes_its_reserve_still_undoes_it():
    # The reserve is delayed past the caller's deadline, and the delay is
    # lifted before the release goes out, so the release lands first.
    handle = build_stage(5)
    sim = handle.sim
    delay = sim.schedule_fault(handle.settle_tick + 15, FaultRule(
        FaultEffect.DELAY, "developerservices-1", "resourcemanager-1", delay_ticks=8))
    sim.add_node("ops", lambda env: None)
    # Lift the delay after the reserve went out, before the reserve's deadline.
    sim.set_timer("ops", 112, lambda: sim.clear(delay))
    entries = run_workload(handle, parse_workload(
        ANN + '100|client|POST|/api/projects|{"name":"p","owner_developer_id":1}\n'))
    assert entries[1].status == "503"
    # The release reached ResourceManager before the reserve it undoes.
    assert [r.method for r in sim.records if r.destination == "resourcemanager-1"
            and r.kind == REQUEST and r.path.startswith("/resources/")] == ["DELETE", "POST"]
    [answer] = [r for r in sim.records if r.source == "resourcemanager-1"
                and r.path == "/resources/reservations"]
    assert answer.status == "409"  # ReleasedOwner
    assert handle.stores.pool.active_reservations() == []


PROVISION = ANN + '100|client|POST|/api/projects|{"name":"p","owner_developer_id":1}\n'


def schema_writes(sim) -> list[tuple[str, str, str]]:
    """(method, path, fate) of every request that reached for DeveloperData's
    project schemas."""
    return [(r.method, r.path, r.status) for r in sim.records
            if r.kind == REQUEST and r.path.startswith("/schema/projects")]


@pytest.mark.parametrize("faults", [
    # The persist's reply is delayed past the caller's deadline: its outcome
    # is unknown, and the project was made.
    "15 delay developerdata-1 developerservices-1 8\n",
    # The project was made, and the tag step after it finds its target down.
    "108 kill developerinfoservices-1\n",
], ids=["persist-unknown", "tag-failed"])
def test_a_failed_provision_leaves_no_project(faults):
    handle = build_stage(6)
    entries = run_workload(handle, parse_workload(PROVISION),
                           faults=parse_fault_script(faults))
    assert entries[1].status == "503"
    key = f"project:{next(r.message_id for r in handle.sim.records if r.path == '/projects')}"
    # Made, then deleted by the request's key before the release.
    assert schema_writes(handle.sim) == [
        ("POST", "/schema/projects", DELIVERED),
        ("DELETE", f"/schema/projects/keys/{key}", DELIVERED)]
    with pytest.raises(UnknownProject):
        handle.stores.schemas.get(1)
    assert handle.stores.pool.active_reservations() == []


def test_a_delete_that_overtakes_its_create_still_undoes_it():
    # The persist is delayed past the caller's deadline, and the delay is
    # lifted before the delete goes out, so the delete lands first and the
    # create after it is refused.
    handle = build_stage(6)
    sim = handle.sim
    delay = sim.schedule_fault(handle.settle_tick + 15, FaultRule(
        FaultEffect.DELAY, "developerservices-1", "developerdata-1", delay_ticks=8))
    sim.add_node("ops", lambda env: None)
    # Lift the delay after the persist went out, before its deadline.
    sim.set_timer("ops", 118, lambda: sim.clear(delay))
    entries = run_workload(handle, parse_workload(PROVISION))
    assert entries[1].status == "503"
    assert [(method, fate) for method, _, fate in schema_writes(sim)] == [
        ("DELETE", DELIVERED), ("POST", DELIVERED)]
    [answer] = [r for r in sim.records if r.source == "developerdata-1"
                and r.path == "/schema/projects"]
    assert answer.status == "409"  # ReleasedOwner: the key is tombstoned
    with pytest.raises(UnknownProject):
        handle.stores.schemas.get(1)
    assert handle.stores.pool.active_reservations() == []


def test_two_chats_of_one_developer_reserve_under_distinct_keys():
    # The second chat's reply is delayed past its deadline, so its release
    # goes out; it must free only the second chat's database.
    handle = build_stage(6)
    entries = run_workload(handle, parse_workload(
        ANN + '100|client|POST|/api/chat|{"developer_id":1}\n'
              '200|client|POST|/api/chat|{"developer_id":1}\n'),
        faults=parse_fault_script("150 delay resourcemanager-1 chatservices-1 8\n"))
    assert [entry.status for entry in entries] == ["200", "200", "503"]
    [kept] = handle.stores.pool.active_reservations()
    assert kept.reservation_id == entries[1].response_body["reservation_id"]
    releases = [r.path for r in handle.sim.records
                if r.method == "DELETE" and r.kind == REQUEST]
    assert len(releases) == 1 and not releases[0].endswith("/" + kept.owner)
