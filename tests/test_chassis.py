"""Breaker transitions, resolver rotation, tolerant decode, node routing,
the client call paths over a live wire, and lease renewal."""

from __future__ import annotations

import importlib
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssaas_sim import chassis
from ssaas_sim.chassis import (
    DEFAULT_BREAKER_OPEN_TICKS,
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_CACHE_TTL_TICKS,
    DEFAULT_CALL_DEADLINE_TICKS,
    RENEW_INTERVAL_TICKS,
    CircuitBreaker,
    CircuitState,
    ConfigView,
    DecodeError,
    Endpoint,
    NoInstances,
    Refusal,
    Request,
    Resolver,
    ServiceClient,
    ServiceNode,
    WiringMode,
    decode_tolerant,
)
from ssaas_sim.confsvc import ConfigServer
from ssaas_sim.migration import build_stage
from ssaas_sim.registry import RegistryService, UnknownInstance
from ssaas_sim.simwire import Envelope, FaultEffect, FaultRule, Simulator
from ssaas_sim.ssaas.stores import UnknownProject

STORES, REGISTRY = "ssaas_sim.ssaas.stores", "ssaas_sim.registry"
# Every refusal declared in one line by chassis.refusal:
# (name, status, code, base, module).
DECLARED_REFUSALS = [
    ("MalformedDeveloper", "400", "MalformedDeveloper", "DomainError", STORES),
    ("UnknownDeveloper", "404", "UnknownDeveloper", "DomainError", STORES),
    ("DuplicateServer", "409", "DuplicateServer", "DomainError", STORES),
    ("ResourceExhausted", "409", "ResourceExhausted", "DomainError", STORES),
    ("ReleasedOwner", "409", "ReleasedOwner", "DomainError", STORES),
    ("UnknownProject", "404", "UnknownProject", "DomainError", STORES),
    ("DuplicateTable", "409", "DuplicateTable", "DomainError", STORES),
    ("UnknownTable", "404", "UnknownTable", "DomainError", STORES),
    ("DuplicateColumn", "409", "DuplicateColumn", "DomainError", STORES),
    ("MalformedColumn", "400", "MalformedColumn", "DomainError", STORES),
    ("UnknownRecord", "404", "UnknownRecord", "DomainError", STORES),
    ("UnknownChat", "404", "UnknownChat", "DomainError", STORES),
    ("UnknownInstance", "404", "UnknownInstance", "RegistryError", REGISTRY),
    ("MalformedInstance", "400", "MalformedInstance", "RegistryError", REGISTRY),
]


class TestCircuitBreaker:
    def test_starts_closed_and_admits(self):
        brk = CircuitBreaker(ConfigView())
        assert brk.state is CircuitState.CLOSED
        assert brk.allow(0)

    def test_opens_after_five_consecutive_failures(self):
        brk = CircuitBreaker(ConfigView())
        for i in range(4):
            brk.record_result(False, now=i)
            assert brk.state is CircuitState.CLOSED
        brk.record_result(False, now=4)
        assert brk.state is CircuitState.OPEN
        assert not brk.allow(5)

    def test_success_resets_failure_count(self):
        brk = CircuitBreaker(ConfigView())
        for i in range(4):
            brk.record_result(False, now=i)
        brk.record_result(True, now=4)
        for i in range(4):
            brk.record_result(False, now=5 + i)
        assert brk.state is CircuitState.CLOSED

    def test_half_open_after_wait_admits_single_probe(self):
        brk = CircuitBreaker(ConfigView())
        for i in range(5):
            brk.record_result(False, now=10)
        assert not brk.allow(39)  # 29 elapsed
        assert brk.allow(40)      # 30 elapsed
        assert brk.state is CircuitState.HALF_OPEN
        assert not brk.allow(40)  # probe slot taken
        assert not brk.can_attempt(40)
        # still taken however long the probe's result takes
        assert not brk.allow(10_000)
        assert not brk.can_attempt(10_000)

    def test_probe_success_closes(self):
        brk = CircuitBreaker(ConfigView())
        for _ in range(5):
            brk.record_result(False, now=0)
        assert brk.allow(30)
        brk.record_result(True, now=32)
        assert brk.state is CircuitState.CLOSED
        assert brk.consecutive_failures == 0

    def test_probe_failure_reopens_with_fresh_timer(self):
        brk = CircuitBreaker(ConfigView())
        for _ in range(5):
            brk.record_result(False, now=0)
        assert brk.allow(30)
        brk.record_result(False, now=31)
        assert brk.state is CircuitState.OPEN
        assert not brk.allow(60)  # only 29 since reopen
        assert brk.allow(61)

    def test_late_results_while_open_ignored(self):
        brk = CircuitBreaker(ConfigView())
        for _ in range(5):
            brk.record_result(False, now=0)
        brk.record_result(True, now=3)
        assert brk.state is CircuitState.OPEN
        brk.record_result(False, now=4)
        assert brk.opened_at == 0

    def test_config_overrides_parameters(self):
        cfg = ConfigView()
        cfg.apply_refresh((1, 1), {"breaker.threshold": "2", "breaker.open_ticks": "7"})
        brk = CircuitBreaker(config=cfg)
        brk.record_result(False, now=0)
        brk.record_result(False, now=0)
        assert brk.state is CircuitState.OPEN
        assert not brk.allow(6)
        assert brk.allow(7)

    def test_can_attempt_never_mutates(self):
        brk = CircuitBreaker(ConfigView())
        for _ in range(5):
            brk.record_result(False, now=0)
        assert brk.can_attempt(30)
        assert brk.state is CircuitState.OPEN  # still OPEN until allow()


def open_breaker(now: int = 0) -> CircuitBreaker:
    """A breaker that opened at ``now``."""
    brk = CircuitBreaker(ConfigView())
    for _ in range(DEFAULT_BREAKER_THRESHOLD):
        brk.record_result(False, now)
    assert brk.state is CircuitState.OPEN
    return brk


class TestResolver:
    def _resolver_with(self, *ids: str, now: int = 0) -> Resolver:
        r = Resolver()
        r.update("svc", [Endpoint(i, i) for i in ids], now)
        return r

    def test_round_robin_cycles_in_order(self):
        r = self._resolver_with("a", "b", "c")
        picks = [r.resolve("svc", 0, {}).instance_id for _ in range(6)]
        assert picks == ["a", "b", "c", "a", "b", "c"]

    def test_filter_excludes_instances(self):
        r = self._resolver_with("a", "b", "c")
        breakers = {"a": CircuitBreaker(ConfigView()), "b": open_breaker()}
        picks = [r.resolve("svc", 0, breakers).instance_id for _ in range(4)]
        assert picks == ["a", "c", "a", "c"]

    def test_open_breaker_admits_once_its_wait_is_over(self):
        r = self._resolver_with("a", "b")
        breakers = {"b": open_breaker(now=0)}
        early = [r.resolve("svc", DEFAULT_BREAKER_OPEN_TICKS - 1, breakers).instance_id
                 for _ in range(2)]
        late = [r.resolve("svc", DEFAULT_BREAKER_OPEN_TICKS, breakers).instance_id
                for _ in range(2)]
        assert (early, late) == (["a", "a"], ["a", "b"])
        assert breakers["b"].state is CircuitState.OPEN  # resolving never mutates

    def test_no_eligible_raises(self):
        r = self._resolver_with("a")
        with pytest.raises(NoInstances):
            r.resolve("svc", 0, {"a": open_breaker()})
        with pytest.raises(NoInstances):
            r.resolve("other", 0, {})

    def test_rotation_survives_refresh_with_same_membership(self):
        r = self._resolver_with("a", "b", "c")
        assert r.resolve("svc", 0, {}).instance_id == "a"
        r.update("svc", [Endpoint(i, i) for i in ("a", "b", "c")], now=5)
        assert r.resolve("svc", 5, {}).instance_id == "b"

    def test_rotation_resets_on_membership_change(self):
        r = self._resolver_with("a", "b", "c")
        r.resolve("svc", 0, {})
        r.resolve("svc", 0, {})
        r.update("svc", [Endpoint(i, i) for i in ("a", "b")], now=5)
        assert r.resolve("svc", 5, {}).instance_id == "a"

    def test_cache_ttl_boundary(self):
        r = self._resolver_with("a", now=100)
        assert r.fresh("svc", 109)
        assert not r.fresh("svc", 110)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_fair_share_over_full_cycles(self, n, cycles):
        ids = [f"i{k}" for k in range(n)]
        r = Resolver()
        r.update("svc", [Endpoint(i, i) for i in ids], 0)
        counts = {i: 0 for i in ids}
        for _ in range(n * cycles):
            counts[r.resolve("svc", 0, {}).instance_id] += 1
        assert set(counts.values()) == {cycles}


class TestDecodeTolerant:
    def test_extracts_required_and_ignores_extras(self):
        out = decode_tolerant({"a": 1, "b": 2, "junk": "x"}, ["a", "b"])
        assert out == {"a": 1, "b": 2}

    def test_missing_field_named(self):
        with pytest.raises(DecodeError) as err:
            decode_tolerant({"a": 1}, ["a", "b"])
        assert err.value.field == "b"

    def test_non_mapping_rejected(self):
        with pytest.raises(DecodeError):
            decode_tolerant([1, 2], ["a"])


class TestConfigView:
    def test_versions_must_strictly_increase(self):
        cfg = ConfigView()
        assert cfg.apply_refresh((1, 0), {"k": "1"})
        assert not cfg.apply_refresh((1, 0), {"k": "2"})
        assert not cfg.apply_refresh((0, 9), {"k": "3"})
        assert cfg.apply_refresh((1, 1), {"k": "4"})
        assert cfg.get("k") == "4"

    def test_entries_replaced_wholesale(self):
        cfg = ConfigView()
        cfg.apply_refresh((1, 0), {"a": "1", "b": "2"})
        cfg.apply_refresh((2, 0), {"a": "9"})
        assert cfg.get("b") is None

    def test_get_int_falls_back_on_garbage(self):
        cfg = ConfigView()
        cfg.apply_refresh((1, 0), {"n": "notanumber"})
        assert cfg.get_int("n", 7) == 7
        assert cfg.get_int("missing", 3) == 3

    @pytest.mark.parametrize("version, entries, field", [
        ("x", {}, "version"),
        ([1], {}, "version"),
        (5, {}, "version"),
        (None, {}, "version"),
        ([1, "y"], {}, "version"),
        ("12", {}, "version"),
        ([2, 0, 7], {}, "version"),
        ([True, True], {}, "version"),
        (["1", "2"], {}, "version"),
        ([1, 0], [["k", "v"]], "entries"),
        ([1, 0], "k=v", "entries"),
        ([1, 0], {"k": 1}, "entries"),
        ([99, 99], {1: "x", "route.1": "/a|B|0"}, "entries"),
    ])
    def test_malformed_document_rejected_unchanged(self, version, entries, field):
        cfg = ConfigView()
        cfg.apply_refresh((1, 0), {"k": "1"})
        with pytest.raises(DecodeError) as err:
            cfg.apply_refresh(version, entries)
        assert err.value.field == field
        assert (cfg.version, cfg.entries) == ((1, 0), {"k": "1"})


class EchoNode(ServiceNode):
    """Replies 200 with the request body; /fail replies 500; /sluggish never replies."""

    def __init__(self, sim, node_id):
        super().__init__(sim, node_id, "Echo")
        self.route("POST", "/echo", lambda req: ("200", req.body))
        self.route("POST", "/fail", lambda req: ("500", {"error": "boom"}))
        self.route("POST", "/reject", lambda req: ("400", {"error": "Malformed"}))
        self.route("POST", "/sluggish", self._black_hole)

    def _black_hole(self, req):
        return None  # deliberately never replies


class FakeRegistry(ServiceNode):
    def __init__(self, sim, instances):
        super().__init__(sim, "registry", "ServiceRegistry")
        self.instances = instances
        self.queries = 0
        self.route("GET", "/registry/{service}", self._query)

    def _query(self, req):
        self.queries += 1
        return "200", list(self.instances.get(req.params["service"], []))


def build_caller(sim: Simulator, mode: WiringMode) -> ServiceNode:
    node = ServiceNode(sim, "caller", "Caller")
    node.bind()
    ServiceClient(node, mode)
    return node


def run_until_idle(sim: Simulator) -> None:
    assert sim.run_until_idle(budget=500)


# What a caller gets from an upstream it could not reach.
UNAVAILABLE = ("503", {"error": "UpstreamUnavailable"})


def answers() -> tuple[list[tuple[str, object]], Callable[[str, object], None]]:
    """A list, and an ``on_result`` that appends each (status, body) to it."""
    got: list[tuple[str, object]] = []
    return got, lambda status, body: got.append((status, body))


class TestClientDirectWire:
    def _setup(self):
        sim = Simulator()
        echo = EchoNode(sim, "echo-1").bind()
        caller = build_caller(sim, WiringMode.DIRECT_WIRE)
        caller.client.direct["Echo"] = "echo-1"
        return sim, caller

    def test_ok_round_trip(self):
        sim, caller = self._setup()
        results, on_result = answers()
        caller.client.call("Echo", "POST", "/echo", {"v": 1}, on_result)
        run_until_idle(sim)
        assert results == [("200", {"v": 1})]

    def test_unconfigured_service_fast_fails(self, monkeypatch):
        sim, caller = self._setup()
        armed = count_timers(sim, monkeypatch)
        results, on_result = answers()
        caller.client.call("Nowhere", "POST", "/x", None, on_result)
        # Answered at once, with nothing put on the wire and no deadline armed.
        assert results == [UNAVAILABLE]
        assert (len(sim.records), sim.sent, armed) == (0, 0, [])

    def test_a_tracked_call_arms_its_deadline_in_the_kernel(self, monkeypatch):
        sim, caller = self._setup()
        armed = count_timers(sim, monkeypatch)
        caller.client.call("Echo", "POST", "/echo", {"v": 1}, answers()[1], deadline=7)
        # One deadline of deadline + 1 ticks, kept by the kernel with the
        # request and the bucket its marker waits in; the pending entry
        # holds the breaker and the continuation.
        [(env, wait)] = armed
        assert (env.path, wait) == ("/echo", 8)
        assert sim._calls == {env.message_id: (env, [env.message_id])}
        assert sim._calls[env.message_id][1] is sim._buckets[8]
        assert list(caller.client._pending) == [env.message_id]
        assert len(caller.client._pending[env.message_id]) == 2

    def test_a_reply_to_a_revived_node_ends_its_old_call(self):
        # The reply is sent at tick 1 and lands at tick 5. The caller is
        # killed at tick 2 and revived, with a fresh client, at tick 3. The
        # reply ends the old call in the kernel, so nothing waits for its
        # deadline at tick 11.
        sim, caller = self._setup()
        sim.on_revive("caller", caller.client.reset)
        sim.inject(FaultRule(FaultEffect.DELAY, source="echo-1", destination="caller",
                             delay_ticks=3))
        results, on_result = answers()
        caller.client.call("Echo", "POST", "/echo", {"v": 1}, on_result, deadline=10)
        sim.advance_to(2)
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="caller"))
        sim.advance_to(3)
        sim.inject(FaultRule(FaultEffect.REVIVE, node="caller"))
        assert caller.client._pending == {} and sim.pending_external == 2
        run_until_idle(sim)
        assert sim.now == 5 and sim.records[-1][4:] == ("RESPONSE", "POST", "/echo", "200")
        assert sim._calls == {} and results == []
        # The reply took the deadline's marker with it: tick 11 has nothing left.
        assert sim._buckets == {11: []} and sim.queue_depth == 0

    def test_remote_4xx_is_relayed_and_not_a_breaker_failure(self):
        sim, caller = self._setup()
        results, on_result = answers()
        for _ in range(8):
            caller.client.call("Echo", "POST", "/reject", None, on_result)
            run_until_idle(sim)
        assert results == [("400", {"error": "Malformed"})] * 8
        assert caller.client.breaker_for("echo-1").state is CircuitState.CLOSED

    def test_remote_5xx_trips_breaker(self, monkeypatch):
        sim, caller = self._setup()
        results, on_result = answers()
        for _ in range(5):
            caller.client.call("Echo", "POST", "/fail", None, on_result)
            run_until_idle(sim)
        assert results == [("500", {"error": "boom"})] * 5
        assert caller.client.breaker_for("echo-1").state is CircuitState.OPEN
        # The breaker opened on the 5th failure, so the 6th call is answered
        # at once and never hits the wire.
        sent, armed = len(sim.records), count_timers(sim, monkeypatch)
        caller.client.call("Echo", "POST", "/fail", None, on_result)
        assert results[5:] == [UNAVAILABLE]
        assert (len(sim.records), armed) == (sent, [])

    def test_missing_response_times_out_at_deadline(self):
        sim, caller = self._setup()
        got = []
        caller.client.call("Echo", "POST", "/sluggish", None,
                           lambda status, body: got.append((status, body, sim.now)))
        start = sim.now
        run_until_idle(sim)
        # The request went out, and its deadline answered it.
        assert [(r.kind, r.destination, r.path) for r in sim.records] == \
            [("REQUEST", "echo-1", "/sluggish")]
        assert got == [UNAVAILABLE + (start + caller.client.deadline + 1,)]
        assert sim.now == start + caller.client.deadline + 1
        assert caller.client._pending == {}

    def test_killed_target_answers_unavailable(self):
        sim, caller = self._setup()
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="echo-1"))
        results, on_result = answers()
        caller.client.call("Echo", "POST", "/echo", {"v": 1}, on_result)
        run_until_idle(sim)
        # The kernel's network-error reply (body {"error": "NetworkError"})
        # reaches the caller as a plain 503.
        assert [(r.kind, r.status) for r in sim.records] == [
            ("REQUEST", "failed"), ("RESPONSE", "network-error")]
        assert results == [UNAVAILABLE]

    @pytest.mark.parametrize("path, kill, failures", [
        ("/echo", False, 0), ("/reject", False, 0), ("/fail", False, 1),
        ("/sluggish", False, 1), ("/echo", True, 1),
    ], ids=["2xx", "4xx", "5xx", "timeout", "network-error"])
    def test_what_counts_as_a_breaker_failure(self, path, kill, failures):
        sim, caller = self._setup()
        if kill:
            sim.inject(FaultRule(FaultEffect.KILL_NODE, node="echo-1"))
        caller.client.call("Echo", "POST", path, None, answers()[1])
        run_until_idle(sim)
        assert caller.client.breakers["echo-1"].consecutive_failures == failures

    @pytest.mark.parametrize("service, path, kill", [
        ("Nowhere", "/x", False), ("Echo", "/sluggish", False), ("Echo", "/echo", True),
    ], ids=["fast-fail", "timeout", "network-error"])
    def test_unreachable_answers_share_no_body(self, service, path, kill):
        sim, caller = self._setup()
        if kill:
            sim.inject(FaultRule(FaultEffect.KILL_NODE, node="echo-1"))
        results, on_result = answers()
        for _ in range(2):
            caller.client.call(service, "POST", path, None, on_result)
            run_until_idle(sim)
        assert results == [UNAVAILABLE] * 2
        assert results[0][1] is not results[1][1]

    def test_response_on_deadline_tick_still_counts(self):
        sim, caller = self._setup()
        sim.inject(FaultRule(FaultEffect.DELAY, source="echo-1", destination="caller",
                             delay_ticks=3))
        results, on_result = answers()
        caller.client.call("Echo", "POST", "/echo", {"v": 2}, on_result, deadline=5)
        run_until_idle(sim)
        assert results == [("200", {"v": 2})]

    @pytest.mark.parametrize("delay, answer, failures", [
        (3, ("200", {"v": 3}), 0),
        (4, UNAVAILABLE, 1),
    ], ids=["in-time", "late"])
    def test_deadline_fires_before_reply_on_same_tick(self, delay, answer, failures):
        # The deadline timer (deadline + 1 ticks) is queued at call time, the
        # reply one tick later, so on a shared tick the deadline runs first.
        sim, caller = self._setup()
        sim.inject(FaultRule(FaultEffect.DELAY, source="echo-1", destination="caller",
                             delay_ticks=delay))
        results, on_result = answers()
        start = sim.now
        caller.client.call("Echo", "POST", "/echo", {"v": 3}, on_result, deadline=5)
        run_until_idle(sim)
        assert results == [answer]
        assert caller.client.breakers["echo-1"].consecutive_failures == failures
        assert caller.client._pending == {}
        reply = sim.records[-1]
        assert (reply.kind, reply.status, reply.tick) == ("RESPONSE", "200",
                                                          start + 2 + delay)


class TestClientDiscovered:
    def _setup(self, instance_ids=("echo-1", "echo-2", "echo-3")):
        sim = Simulator()
        for iid in instance_ids:
            EchoNode(sim, iid).bind()
        registry = FakeRegistry(sim, {
            "Echo": [{"instance_id": i, "address": i, "port": 0, "status": "UP",
                      "lease_expiry": 999} for i in instance_ids]})
        registry.bind()
        caller = build_caller(sim, WiringMode.DISCOVERED)
        return sim, caller, registry

    def _call(self, sim, caller, path="/echo", body=None):
        results, on_result = answers()
        caller.client.call("Echo", "POST", path, body, on_result)
        run_until_idle(sim)
        [answer] = results
        return answer

    def test_discovers_then_round_robins(self):
        sim, caller, registry = self._setup()
        for i in range(6):
            assert self._call(sim, caller, body={"n": i}) == ("200", {"n": i})
        sends = [rec.destination for rec in sim.records
                 if rec.kind == "REQUEST" and rec.path == "/echo"]
        assert sends == ["echo-1", "echo-2", "echo-3"] * 2

    def test_cache_bounds_registry_queries(self):
        sim, caller, registry = self._setup()
        for i in range(5):
            self._call(sim, caller, body={"n": i})
        # round trips are fast enough that one fetch covers several calls
        assert registry.queries < 5

    def test_empty_registry_fast_fails(self):
        sim, caller, registry = self._setup()
        assert self._call(sim, caller) == ("200", None)
        registry.instances["Echo"] = []
        sim.advance_to(sim.now + DEFAULT_CACHE_TTL_TICKS)
        sent = sim.sent
        assert self._call(sim, caller) == UNAVAILABLE
        assert sim.sent == sent + 2  # the registry query and its answer only

    def test_open_breaker_instance_skipped(self):
        sim, caller, registry = self._setup()
        self._call(sim, caller)  # warm cache
        brk = caller.client.breaker_for("echo-2")
        for _ in range(5):
            brk.record_result(False, sim.now)
        hit = []
        for i in range(4):
            self._call(sim, caller, body={"n": i})
        sends = [rec.destination for rec in sim.records
                 if rec.kind == "REQUEST" and rec.path == "/echo"]
        assert "echo-2" not in sends[1:]

    def test_registry_down_fast_fails(self):
        sim, caller, registry = self._setup()
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="registry"))
        assert self._call(sim, caller) == UNAVAILABLE
        assert not any(r.path == "/echo" for r in sim.records)
        # With no endpoint stored, only the failed registry query went out.
        assert [(r.kind, r.destination, r.path) for r in sim.records] == [
            ("REQUEST", "registry", "/registry/Echo"), ("RESPONSE", "caller", "/registry/Echo")]

    def test_registry_down_sends_to_the_endpoints_stored_last(self):
        sim, caller, registry = self._setup()
        assert self._call(sim, caller, body={"n": 0}) == ("200", {"n": 0})
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="registry"))
        sim.advance_to(sim.now + DEFAULT_CACHE_TTL_TICKS)
        mark = len(sim.records)
        for i in range(1, 8):
            assert self._call(sim, caller, body={"n": i}) == ("200", {"n": i})
        # A failed fetch marks the stored list fresh, so the next fetch waits
        # one ttl from the failure, and the list rotates on meanwhile.
        sends = [(r.tick, r.destination) for r in sim.records[mark:] if r.kind == "REQUEST"]
        assert [node for _, node in sends] == ["registry", "echo-2", "echo-3", "echo-1",
                                               "echo-2", "echo-3", "registry", "echo-1", "echo-2"]
        first, second = [tick for tick, node in sends if node == "registry"]
        assert second == first + 1 + DEFAULT_CACHE_TTL_TICKS  # the failure came a tick later
        assert caller.client.resolver.fresh("Echo", sim.now)

    def test_stale_endpoint_with_an_open_breaker_is_skipped(self):
        sim, caller, registry = self._setup(instance_ids=("echo-1", "echo-2"))
        self._call(sim, caller)  # warm cache
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="registry"))
        brk = caller.client.breaker_for("echo-2")
        for _ in range(DEFAULT_BREAKER_THRESHOLD):
            brk.record_result(False, sim.now)
        sim.advance_to(sim.now + DEFAULT_CACHE_TTL_TICKS)
        mark = len(sim.records)
        for i in range(6):
            assert self._call(sim, caller, body={"n": i}) == ("200", {"n": i})
        sends = [r.destination for r in sim.records[mark:] if r.kind == "REQUEST"]
        assert sends == ["registry"] + ["echo-1"] * 5 + ["registry", "echo-1"]

    def test_malformed_registry_list_keeps_the_endpoints_stored_last(self):
        sim, caller, registry = self._setup()
        self._call(sim, caller)  # warm cache, rotation now at echo-2
        registry.instances["Echo"] = [{"instance_id": "echo-9"}]  # no address
        sim.advance_to(sim.now + DEFAULT_CACHE_TTL_TICKS)
        mark = len(sim.records)
        for i in range(1, 3):
            assert self._call(sim, caller, body={"n": i}) == ("200", {"n": i})
        # The malformed list backs off as a failed fetch does: one fetch per ttl.
        sends = [r.destination for r in sim.records[mark:] if r.kind == "REQUEST"]
        assert sends == ["registry", "echo-2", "echo-3"]
        assert caller.client.resolver.fresh("Echo", sim.now)


class ScriptNode(ServiceNode):
    """Answers by path: 200, 400, 500, a network error, or 200 after
    ``/after/{ticks}`` ticks, counted on the timers of ``timer_node``."""

    def __init__(self, sim, node_id, timer_node):
        super().__init__(sim, node_id, "Script")
        self.timer_node = timer_node
        self.route("POST", "/ok", lambda req: ("200", req.body))
        self.route("POST", "/reject", lambda req: ("400", {"error": "Malformed"}))
        self.route("POST", "/fail", lambda req: ("500", {"error": "boom"}))
        self.route("POST", "/neterr", lambda req: ("network-error", {"error": "NetworkError"}))
        self.route("POST", "/after/{ticks}", self._after)

    def _after(self, req):
        self.sim.set_timer(self.timer_node, int(req.params["ticks"]),
                           lambda: req.reply("200", req.body))


class TestCallPathsAgree:
    """One answer script through every wiring mode. The wire modes keep
    separate send paths (a configured node, or a resolved instance), so they
    must agree on every answer and every breaker state. A library call
    hands its callback the same (status, body) wherever it gets the same
    status."""

    DEADLINE = 5
    # (path, the status the wire modes get); /after/3 lands on the deadline
    # tick, /after/4 one tick past it, /after/12 long after the deadline fired.
    SCRIPT = [("/ok", "200"), ("/reject", "400"), ("/fail", "500"), ("/neterr", "503"),
              ("/after/3", "200"), ("/after/4", "503"), ("/after/12", "503")] + \
        [("/fail", "500")] * 3 + [("/ok", "503")]
    # What a library call gets instead. It has no deadline, so late answers
    # arrive; it has no breaker, so the last /ok is served; and it never
    # crosses the kernel, so a network-error status is passed on as it is.
    LIBRARY = ["200", "400", "500", "network-error", "200", "200", "200"] + ["500"] * 3 + ["200"]

    def _run(self, mode: WiringMode):
        sim = Simulator()
        caller = build_caller(sim, mode)
        script = ScriptNode(sim, "script-1", "caller")
        if mode is WiringMode.LIBRARY_CALL:
            caller.host(script)
        else:
            script.bind()
            caller.client.direct["Script"] = "script-1"
            FakeRegistry(sim, {"Script": [{"instance_id": "script-1",
                                           "address": "script-1"}]}).bind()
        steps = []
        for i, (path, _) in enumerate(self.SCRIPT + [("/ok", None)]):
            if i == len(self.SCRIPT):
                sim.advance_to(sim.now + DEFAULT_BREAKER_OPEN_TICKS)  # probe
            results, on_result = answers()
            caller.client.call("Script", "POST", path, {"n": i}, on_result,
                               deadline=self.DEADLINE)
            run_until_idle(sim)
            brk = caller.client.breakers.get("script-1")
            steps.append((results, brk and (brk.state, brk.consecutive_failures)))
        return steps

    def test_modes_agree(self):
        direct = self._run(WiringMode.DIRECT_WIRE)
        discovered = self._run(WiringMode.DISCOVERED)
        library = self._run(WiringMode.LIBRARY_CALL)
        assert direct == discovered
        assert [r[0][0] for r, _ in direct] == [want for _, want in self.SCRIPT] + ["200"]
        assert direct[3][0] == [UNAVAILABLE]
        assert direct[-2][1] == (CircuitState.OPEN, 5)
        assert direct[-1][1] == (CircuitState.CLOSED, 0)
        assert [r[0][0] for r, _ in library] == self.LIBRARY + ["200"]
        same = 0
        for (wire, _), (lib, brk) in zip(direct, library):
            assert brk is None
            if lib[0][0] == wire[0][0]:
                assert lib == wire
                same += 1
        assert same == 8


def subscribed_node(sim: Simulator) -> ServiceNode:
    """A node ``n`` of service ``Svc``, subscribed to a configuration server."""
    node = ServiceNode(sim, "n", "Svc")
    ConfigServer(sim).subscribe(node)
    return node


class TestServiceNodeRouting:
    def test_params_bound_from_pattern(self):
        sim = Simulator()
        node = ServiceNode(sim, "n", "N")
        seen = {}
        node.route("GET", "/things/{tid}/parts/{pid}",
                   lambda req: seen.update(req.params) or ("200", None))
        node.bind()
        caller = ServiceNode(sim, "c", "C").bind()
        sim.send(Envelope.request("c", "n", "/things/7/parts/9"))
        sim.step()
        assert seen == {"tid": "7", "pid": "9"}

    def test_literal_beats_param_segment(self):
        sim = Simulator()
        node = ServiceNode(sim, "n", "N")
        node.route("GET", "/things/{tid}", lambda req: ("200", {"which": "param"}))
        node.route("GET", "/things/special", lambda req: ("200", {"which": "literal"}))
        got = []
        req = Request(method="GET", path="/things/special", body=None,
                      _reply=lambda s, b: got.append(b))
        node.dispatch(req)
        assert got == [{"which": "literal"}]

    def test_later_route_with_more_literals_takes_over_a_resolved_path(self):
        node = ServiceNode(Simulator(), "n", "N")
        node.route("GET", "/things/{tid}", lambda req: ("200", {"which": "param"}))
        got = []

        def get(path: str) -> None:
            node.dispatch(Request(method="GET", path=path, body=None,
                                  _reply=lambda s, b: got.append(b)))

        get("/things/special")
        node.route("GET", "/things/special", lambda req: ("200", {"which": "literal"}))
        get("/things/special")
        get("/things/7")
        assert got == [{"which": "param"}, {"which": "literal"}, {"which": "param"}]

    def test_nodes_sharing_a_pattern_keep_their_own_handlers(self):
        sim = Simulator()
        got = []
        for name in ("n1", "n2"):
            node = ServiceNode(sim, name, "N")
            node.route("GET", "/things/{tid}",
                       lambda req, name=name: ("200", (name, req.params["tid"])))
            node.dispatch(Request(method="GET", path=f"/things/{name}", body=None,
                                  _reply=lambda s, b: got.append(b)))
        assert got == [("n1", "n1"), ("n2", "n2")]

    def test_nodes_with_the_same_patterns_share_one_table(self):
        sim = Simulator()
        nodes = [ServiceNode(sim, name, "N") for name in ("shared-1", "shared-2")]
        for node in nodes:
            node.route("GET", "/shared/{sid}",
                       lambda req, name=node.node_id: ("200", (name, req.params["sid"])))
            node.route("POST", "/shared", lambda req: ("200", None))
        assert nodes[0]._table is nodes[1]._table
        got = []
        for node in nodes:
            node.dispatch(Request("GET", "/shared/7", None, _reply=lambda s, b: got.append(b)))
        # One memo entry serves both nodes, and each answers with its own handler.
        assert got == [("shared-1", "7"), ("shared-2", "7")]
        assert nodes[0]._table[1][("GET", "/shared/7")] == (0, {"sid": "7"})

    def test_a_route_added_after_a_dispatch_moves_only_its_node(self):
        sim = Simulator()
        nodes = [ServiceNode(sim, name, "N") for name in ("moved", "kept")]
        for node in nodes:
            node.route("GET", "/moves/{mid}", lambda req: ("200", {"which": "param"}))
        got = []

        def get(node: ServiceNode, path: str) -> None:
            node.dispatch(Request("GET", path, None, _reply=lambda s, b: got.append(b)))

        get(nodes[0], "/moves/special")
        nodes[0].route("GET", "/moves/special", lambda req: ("200", {"which": "literal"}))
        get(nodes[0], "/moves/special")
        get(nodes[1], "/moves/special")
        assert got == [{"which": "param"}, {"which": "literal"}, {"which": "param"}]
        # The moved node compiled a table of its own at its next dispatch; the
        # kept one dispatches on the table its one route shares.
        assert nodes[0]._table is not nodes[1]._table
        assert nodes[1]._table is chassis._route_table((("GET", "/moves/{mid}"),))
        assert nodes[0]._patterns == (("GET", "/moves/{mid}"), ("GET", "/moves/special"))
        assert nodes[1]._patterns == (("GET", "/moves/{mid}"),)

    def test_unmatched_path_is_404(self):
        sim = Simulator()
        node = ServiceNode(sim, "n", "N")
        got = []
        req = Request(method="GET", path="/nope", body=None,
                      _reply=lambda s, b: got.append((s, b)))
        node.dispatch(req)
        assert got == [("404", {"error": "NoRoute"})]

    def test_double_reply_ignored(self):
        got = []
        req = Request(method="GET", path="/x", body=None,
                      _reply=lambda s, b: got.append(s))
        req.reply("200")
        req.reply("500")
        assert got == ["200"]

    def test_refresh_route_applies_matching_doc(self):
        sim = Simulator()
        node = subscribed_node(sim)
        got = []
        req = Request(method="POST", path="/refresh",
                      body={"service": "Svc", "profile": "default",
                            "version": [1, 0], "entries": {"k": "v"}},
                      _reply=lambda s, b: got.append((s, b)))
        node.dispatch(req)
        assert node.config.get("k") == "v"
        assert got[0][1] == {"applied": True}

    def test_refresh_for_other_service_not_applied(self):
        sim = Simulator()
        node = subscribed_node(sim)
        got = []
        req = Request(method="POST", path="/refresh",
                      body={"service": "Other", "profile": "default",
                            "version": [1, 0], "entries": {"k": "v"}},
                      _reply=lambda s, b: got.append((s, b)))
        node.dispatch(req)
        assert node.config.get("k") is None
        assert got == [("200", {"applied": False})]

    @pytest.mark.parametrize("version, entries, field", [
        ("x", {}, "version"),
        ([1], {}, "version"),
        ([1, 0], 7, "entries"),
    ])
    def test_malformed_refresh_is_400(self, version, entries, field):
        sim = Simulator()
        node = subscribed_node(sim)
        got = []
        req = Request(method="POST", path="/refresh",
                      body={"service": "Svc", "profile": "default",
                            "version": version, "entries": entries},
                      _reply=lambda s, b: got.append((s, b)))
        node.dispatch(req)
        assert got == [("400", {"error": "Malformed", "field": field})]
        assert node.config.version == (0, 0)

    @pytest.mark.parametrize("make, status, body", [
        (lambda: DecodeError("name"), "400", {"error": "Malformed", "field": "name"}),
        (lambda: UnknownProject("7"), "404", {"error": "UnknownProject"}),
        (lambda: UnknownInstance("Svc/svc-9"), "404", {"error": "UnknownInstance"}),
        (lambda: ValueError("a bug, not a refusal"), None, None),
    ], ids=["decode", "domain", "registry", "other"])
    def test_dispatch_answers_a_raised_refusal(self, make, status, body):
        sim = Simulator()
        node = ServiceNode(sim, "svc-1", "Svc")

        def refuse(req: Request) -> None:
            raise make()

        node.route("POST", "/refuse", refuse)
        node.route("POST", "/ok", lambda req: ("200", None))
        node.bind()
        wire = build_caller(sim, WiringMode.DIRECT_WIRE).client
        wire.direct["Svc"] = "svc-1"
        host = ServiceNode(sim, "host", "Host")
        library = ServiceClient(host, WiringMode.LIBRARY_CALL)
        host.host(node)
        results, on_result = answers()
        if status is None:
            with pytest.raises(ValueError):
                library.call("Svc", "POST", "/refuse", None, on_result)
            wire.call("Svc", "POST", "/refuse", None, on_result)
            wire.call("Svc", "POST", "/ok", None, on_result)
            with pytest.raises(ValueError):
                sim.step()
            # The rest of the tick, the /ok request, is still queued there.
            assert sim.next_event_tick() == 1
            run_until_idle(sim)
            # The /ok answer, then the /refuse request's deadline.
            assert results == [("200", None), UNAVAILABLE]
            return
        library.call("Svc", "POST", "/refuse", None, on_result)
        wire.call("Svc", "POST", "/refuse", None, on_result)
        run_until_idle(sim)
        assert results == [(status, body)] * 2

    @pytest.mark.parametrize("name, status, code, base, module", DECLARED_REFUSALS,
                             ids=[row[0] for row in DECLARED_REFUSALS])
    def test_a_declared_refusal_is_a_class_answered_by_dispatch(self, name, status, code,
                                                                base, module):
        mod = importlib.import_module(module)
        cls = getattr(mod, name)
        assert isinstance(cls, type)
        assert (cls.__name__, cls.__qualname__, cls.__module__) == (name, name, module)
        assert cls.__bases__ == (getattr(mod, base),)
        assert issubclass(cls, Refusal)
        node = ServiceNode(Simulator(), "svc-1", "Svc")

        def refuse(req: Request) -> None:
            raise cls("detail")

        node.route("POST", "/refuse", refuse)
        got = []
        node.dispatch(Request("POST", "/refuse", None, _reply=lambda s, b: got.append((s, b))))
        assert got == [(status, {"error": code})]

    @pytest.mark.parametrize("module, written", [
        (STORES, {"DomainError", "SchemaViolation"}),
        (REGISTRY, {"RegistryError"}),
    ])
    def test_the_table_lists_every_declared_refusal(self, module, written):
        mod = importlib.import_module(module)
        refusals = {name for name, value in vars(mod).items()
                    if isinstance(value, type) and issubclass(value, Refusal)
                    and value.__module__ == module}
        assert refusals - written == {row[0] for row in DECLARED_REFUSALS if row[4] == module}


class TestLibraryMode:
    def test_in_process_call_completes_synchronously(self):
        sim = Simulator()
        host = ServiceNode(sim, "host", "Host")
        host.bind()
        client = ServiceClient(host, WiringMode.LIBRARY_CALL)
        host.host(EchoNode(sim, "virtual-echo"))  # never bound to the wire
        results, on_result = answers()
        client.call("Echo", "POST", "/echo", {"x": 1}, on_result)
        assert results == [("200", {"x": 1})]
        # The host's route table decides; the service name plays no part.
        client.call("Elsewhere", "POST", "/echo", {"x": 2}, on_result)
        assert results == [("200", {"x": 1}), ("200", {"x": 2})]
        assert sim.records == []  # nothing touched the wire

    def test_a_path_its_node_does_not_serve_is_404_in_process(self):
        sim = Simulator()
        host = ServiceNode(sim, "host", "Host").bind()
        client = ServiceClient(host, WiringMode.LIBRARY_CALL)
        results, on_result = answers()
        client.call("Echo", "POST", "/echo", None, on_result)
        assert results == [("404", {"error": "NoRoute"})]
        assert sim.records == []

    def test_host_serves_the_hosted_routes_and_lends_its_client(self):
        sim = Simulator()
        host = ServiceNode(sim, "host", "Host")
        client = ServiceClient(host, WiringMode.LIBRARY_CALL)
        echo = EchoNode(sim, "virtual-echo")
        host.host(echo)
        assert echo.client is client and host.client is client
        got = []
        host.dispatch(Request("POST", "/fail", None, _reply=lambda s, b: got.append((s, b))))
        assert got == [("500", {"error": "boom"})]
        # Neither node is subscribed to a configuration server, so neither
        # routes POST /refresh: the host answers 404 and applies nothing.
        doc = {"service": "Host", "profile": "default", "version": [1, 0],
               "entries": {"k": "v"}}
        host.dispatch(Request("POST", "/refresh", doc, _reply=lambda s, b: got.append((s, b))))
        assert got[-1] == ("404", {"error": "NoRoute"})
        assert (host.config.version, echo.config.version) == ((0, 0), (0, 0))

    def test_stage_0_is_one_node_with_one_client(self, monkeypatch):
        modes = []
        init = ServiceClient.__init__

        def counted(self, node, mode, *args, **kwargs):
            modes.append((node.node_id, mode))
            init(self, node, mode, *args, **kwargs)

        monkeypatch.setattr(ServiceClient, "__init__", counted)
        hosted: list[ServiceNode] = []
        host = ServiceNode.host
        monkeypatch.setattr(ServiceNode, "host",
                            lambda self, node: hosted.append(node) or host(self, node))
        handle = build_stage(0)
        mono = handle.nodes["monolith"]
        assert modes == [("monolith", WiringMode.LIBRARY_CALL),
                         ("client", WiringMode.DIRECT_WIRE)]
        assert mono.client is not None and mono.client.mode == WiringMode.LIBRARY_CALL
        # Every route of each hosted node is in the monolith's table.
        served = list(zip(mono._patterns, mono._handlers))
        assert all(route in served for node in hosted
                   for route in zip(node._patterns, node._handlers))
        assert sorted(node.service for node in hosted) == [
            "ContentServices", "DeveloperData", "DeveloperServices"]
        assert all(node.client is mono.client for node in hosted)


    def test_the_monolith_serves_each_hosted_route_with_its_node_s_handler(self, monkeypatch):
        hosted: list[ServiceNode] = []
        host = ServiceNode.host
        monkeypatch.setattr(ServiceNode, "host",
                            lambda self, node: hosted.append(node) or host(self, node))
        mono = build_stage(0).nodes["monolith"]
        handlers = list(mono._handlers)
        # Answer with the position dispatch picked, instead of running the handler.
        mono._handlers[:] = [lambda req, i=i: ("200", i) for i in range(len(handlers))]
        routes = [(method, pattern, handler) for node in hosted
                  for (method, pattern), handler in zip(node._patterns, node._handlers)]
        assert len(routes) == len(mono._patterns) == 22
        for method, pattern, handler in routes:
            path = "/".join("1" if seg.startswith("{") else seg for seg in pattern.split("/"))
            got = []
            mono.dispatch(Request(method, path, None, _reply=lambda s, b: got.append((s, b))))
            assert got[0][0] == "200", (method, pattern)
            assert handlers[got[0][1]] == handler, (method, pattern)


def live_node(deadline: int = DEFAULT_CALL_DEADLINE_TICKS
              ) -> tuple[Simulator, RegistryService, ServiceNode]:
    """A registry and one app node, ``chat-1``, both gone live at tick 0:
    the node registers at tick 1 and renews every 10 ticks from tick 10."""
    sim = Simulator()
    registry = RegistryService(sim).bind()
    node = ServiceNode(sim, "chat-1", "Chat").bind()
    ServiceClient(node, WiringMode.DISCOVERED, deadline=deadline)
    registry.go_live()
    node.go_live()
    return sim, registry, node


def registrations(sim: Simulator) -> list[int]:
    """The ticks at which a registration reached the registry."""
    return [r.tick for r in sim.records
            if r.kind == "REQUEST" and r.method == "POST" and r.status == "delivered"]


def renewal_ids(sim: Simulator) -> list[int]:
    """The message ids of chat-1's renewals so far, in send order."""
    return [r.message_id for r in sim.records
            if r.kind == "REQUEST" and r.source == "chat-1" and r.method == "PUT"]


def evict(sim: Simulator, registry: RegistryService) -> None:
    """Drop the node's renewals from tick 25 until its lease (renewed last at
    tick 21, so expiring at 51) is swept, then heal the link at tick 65. The
    next renewal goes out at tick 70."""
    sim.advance_to(25)
    sim.inject(FaultRule(FaultEffect.DROP, source="chat-1", destination="registry"))
    sim.advance_to(65)
    assert registry.store.all_instances() == []
    sim.inject(FaultRule(FaultEffect.HEAL, source="chat-1", destination="registry"))


def count_timers(sim: Simulator, monkeypatch) -> list[tuple]:
    """Record the arguments of every one-shot timer and every call deadline
    ``sim`` arms from now on."""
    armed: list[tuple] = []
    for name in ("set_timer", "call"):
        arm = getattr(sim, name)
        monkeypatch.setattr(sim, name, lambda *args, arm=arm: armed.append(args) or arm(*args))
    return armed


def delay_replies(sim: Simulator, ticks: int) -> None:
    sim.inject(FaultRule(FaultEffect.DELAY, source="registry", destination="chat-1",
                         delay_ticks=ticks))


class TestLeaseRenewal:
    def test_evicted_lease_reregisters_on_the_next_404(self):
        sim, registry, _ = live_node()
        evict(sim, registry)
        sim.advance_to(75)
        # The renewal of tick 70 is answered 404 at tick 72, and the node
        # registers again at once.
        assert registrations(sim) == [1, 73]
        assert [i.instance_id for i in registry.store.all_instances()] == ["chat-1"]

    @pytest.mark.parametrize("delay", [4, 7])
    def test_404_at_or_after_the_deadline_is_ignored(self, delay):
        # A renewal sent at tick t has deadline tick t + 6; delayed by 4 or
        # more, its 404 lands there or later.
        sim, registry, _ = live_node()
        evict(sim, registry)
        delay_replies(sim, delay)
        sim.advance_to(105)
        assert registrations(sim) == [1]
        sim.inject(FaultRule(FaultEffect.HEAL, source="registry", destination="chat-1"))
        sim.advance_to(115)
        assert registrations(sim) == [1, 113]

    def test_dropped_renewals_leave_at_most_one_pending_entry(self):
        # A renewal is never a pending call: the client keeps only the last
        # one sent, in its renewal slot, which each beat overwrites.
        sim, _, node = live_node()
        sim.advance_to(25)
        sim.inject(FaultRule(FaultEffect.DROP, source="chat-1", destination="registry"))
        while sim.now < 250:  # 22 renewal intervals
            sim.step()
            assert node.client._pending == {}
            assert node.client._renewal[0] == renewal_ids(sim)[-1]
        dropped = [r.message_id for r in sim.records if r.status == "dropped"]
        assert dropped == renewal_ids(sim)[2:] and len(dropped) == 23  # ticks 30 to 250

    def test_deadline_longer_than_the_interval_still_acts_on_a_404(self):
        # The renewal of tick 70 has deadline tick 96; delayed by 5, its
        # 404 lands at tick 77, before the renewal of tick 80 goes out.
        sim, registry, _ = live_node(deadline=25)
        evict(sim, registry)
        delay_replies(sim, 5)
        sim.advance_to(80)
        assert registrations(sim) == [1, 78]

    def test_network_errors_from_a_dead_registry_are_ignored(self):
        # Each renewal from tick 30 on is sent to a dead registry, so the
        # kernel answers it with a network error that lands a tick later.
        sim, registry, node = live_node()
        sim.advance_to(25)
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="registry"))
        sim.advance_to(95)
        errors = [r.tick for r in sim.records
                  if r.destination == "chat-1" and r.status == "network-error"]
        assert errors == [31, 41, 51, 61, 71, 81, 91]
        # No re-registration went out, not even one that failed.
        assert [r.tick for r in sim.records if r.kind == "REQUEST" and r.method == "POST"] == [1]
        assert node.client._pending == {}

    # The tests below pin what a renewal does without a deadline timer.

    def test_an_idle_stage_six_system_arms_no_timer(self, monkeypatch):
        sim = build_stage(6).sim
        armed = count_timers(sim, monkeypatch)
        cancelled = []
        cancel_timer = sim.cancel_timer
        monkeypatch.setattr(sim, "cancel_timer",
                            lambda *args: cancelled.append(args) or cancel_timer(*args))
        sent = sim.sent
        sim.advance_to(sim.now + 100)
        assert sim.sent - sent == 6 * 10 * 2  # six app nodes renew, 10 round trips each
        assert armed == []
        assert cancelled == []  # a renewal reply is settled on the renewal slot

    @pytest.mark.parametrize("deadline", [1, 2, 3, 5, 9, 10, 11, 25])
    def test_the_deadline_tick_is_exact(self, deadline, monkeypatch):
        # The renewal of tick 10 reaches the registry at tick 11, and with
        # its reply delayed by ``delay`` the 404 lands at tick 12 + delay.
        # A timer of deadline + 1 ticks, queued at tick 10 ahead of that
        # reply, would accept it only before tick 11 + deadline. The renewal
        # of tick 20, queued ahead of it too, takes over the slot, so for a
        # deadline of at least the interval the 404 must also land before
        # that next beat.
        for delay in range(deadline + 3):
            sim, registry, _ = live_node(deadline)
            sim.advance_to(5)
            registry.store.deregister("Chat", "chat-1")
            if delay:
                delay_replies(sim, delay)
            armed = count_timers(sim, monkeypatch)
            sim.advance_to(12 + delay)
            assert armed == []
            sim.advance_to(14 + delay)
            accepted = 12 + delay < min(11 + deadline, 10 + RENEW_INTERVAL_TICKS)
            assert registrations(sim) == ([1, 13 + delay] if accepted else [1]), delay

    @pytest.mark.parametrize("delay", [8, 9])
    def test_a_node_down_at_the_deadline_ignores_the_late_reply(self, delay):
        # The renewal of tick 70 has deadline tick 76, and its 404 lands at
        # tick 72 + delay. The node is down from tick 73 to 78. A deadline
        # timer would have been skipped at tick 76, so the node would still
        # have acted on that reply; without one the reply is ignored like any
        # other that lands after its deadline. No bundled workload gets here.
        # The node is built by hand, with no revive hook, so the revive
        # leaves its client as it was.
        sim, registry, node = live_node()
        evict(sim, registry)
        delay_replies(sim, delay)
        sim.advance_to(73)
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="chat-1"))
        sim.advance_to(78)
        sim.inject(FaultRule(FaultEffect.REVIVE, node="chat-1"))
        sim.advance_to(95)
        assert registrations(sim) == [1]
        assert node.client._pending == {}
        assert node.client._renewal[0] == renewal_ids(sim)[-1]  # the renewal of tick 90
