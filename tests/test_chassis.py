"""Breaker transitions, resolver rotation, tolerant decode, node routing,
and the client call paths over a live wire."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssaas_sim.chassis import (
    DEFAULT_BREAKER_OPEN_TICKS,
    CallResult,
    CallStatus,
    CircuitBreaker,
    CircuitState,
    ConfigView,
    DecodeError,
    Endpoint,
    NoInstances,
    Request,
    Resolver,
    ServiceClient,
    ServiceNode,
    WiringMode,
    decode_tolerant,
    result_reply,
)
from ssaas_sim.registry import UnknownInstance
from ssaas_sim.simwire import Envelope, FaultEffect, FaultRule, Simulator
from ssaas_sim.ssaas.stores import UnknownProject


class TestCircuitBreaker:
    def test_starts_closed_and_admits(self):
        brk = CircuitBreaker()
        assert brk.state is CircuitState.CLOSED
        assert brk.allow(0)

    def test_opens_after_five_consecutive_failures(self):
        brk = CircuitBreaker()
        for i in range(4):
            brk.record_result(False, now=i)
            assert brk.state is CircuitState.CLOSED
        brk.record_result(False, now=4)
        assert brk.state is CircuitState.OPEN
        assert not brk.allow(5)

    def test_success_resets_failure_count(self):
        brk = CircuitBreaker()
        for i in range(4):
            brk.record_result(False, now=i)
        brk.record_result(True, now=4)
        for i in range(4):
            brk.record_result(False, now=5 + i)
        assert brk.state is CircuitState.CLOSED

    def test_half_open_after_wait_admits_single_probe(self):
        brk = CircuitBreaker()
        for i in range(5):
            brk.record_result(False, now=10)
        assert not brk.allow(39)  # 29 elapsed
        assert brk.allow(40)      # 30 elapsed
        assert brk.state is CircuitState.HALF_OPEN
        assert not brk.allow(40)  # probe slot taken
        assert not brk.can_attempt(40)

    def test_probe_success_closes(self):
        brk = CircuitBreaker()
        for _ in range(5):
            brk.record_result(False, now=0)
        assert brk.allow(30)
        brk.record_result(True, now=32)
        assert brk.state is CircuitState.CLOSED
        assert brk.consecutive_failures == 0

    def test_probe_failure_reopens_with_fresh_timer(self):
        brk = CircuitBreaker()
        for _ in range(5):
            brk.record_result(False, now=0)
        assert brk.allow(30)
        brk.record_result(False, now=31)
        assert brk.state is CircuitState.OPEN
        assert not brk.allow(60)  # only 29 since reopen
        assert brk.allow(61)

    def test_late_results_while_open_ignored(self):
        brk = CircuitBreaker()
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
        brk = CircuitBreaker()
        for _ in range(5):
            brk.record_result(False, now=0)
        assert brk.can_attempt(30)
        assert brk.state is CircuitState.OPEN  # still OPEN until allow()


class TestResolver:
    def _resolver_with(self, *ids: str, now: int = 0) -> Resolver:
        r = Resolver()
        r.update("svc", [Endpoint(i, i) for i in ids], now)
        return r

    def test_round_robin_cycles_in_order(self):
        r = self._resolver_with("a", "b", "c")
        picks = [r.resolve("svc", 0).instance_id for _ in range(6)]
        assert picks == ["a", "b", "c", "a", "b", "c"]

    def test_filter_excludes_instances(self):
        r = self._resolver_with("a", "b", "c")
        picks = [r.resolve("svc", 0, allowed=lambda e: e.instance_id != "b").instance_id
                 for _ in range(4)]
        assert picks == ["a", "c", "a", "c"]

    def test_no_eligible_raises(self):
        r = self._resolver_with("a")
        with pytest.raises(NoInstances):
            r.resolve("svc", 0, allowed=lambda e: False)
        with pytest.raises(NoInstances):
            r.resolve("other", 0)

    def test_rotation_survives_refresh_with_same_membership(self):
        r = self._resolver_with("a", "b", "c")
        assert r.resolve("svc", 0).instance_id == "a"
        r.update("svc", [Endpoint(i, i) for i in ("a", "b", "c")], now=5)
        assert r.resolve("svc", 5).instance_id == "b"

    def test_rotation_resets_on_membership_change(self):
        r = self._resolver_with("a", "b", "c")
        r.resolve("svc", 0)
        r.resolve("svc", 0)
        r.update("svc", [Endpoint(i, i) for i in ("a", "b")], now=5)
        assert r.resolve("svc", 5).instance_id == "a"

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
            counts[r.resolve("svc", 0).instance_id] += 1
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
        ([1, 0], [["k", "v"]], "entries"),
        ([1, 0], "k=v", "entries"),
        ([1, 0], {"k": 1}, "entries"),
    ])
    def test_malformed_document_rejected_unchanged(self, version, entries, field):
        cfg = ConfigView()
        cfg.apply_refresh((1, 0), {"k": "1"})
        with pytest.raises(DecodeError) as err:
            cfg.apply_refresh(version, entries)
        assert err.value.field == field
        assert (cfg.version, cfg.entries) == ((1, 0), {"k": "1"})


class TestResultReply:
    @pytest.mark.parametrize("status", [CallStatus.FAST_FAIL, CallStatus.TIMEOUT])
    def test_unreachable_is_a_fresh_503(self, status):
        first, second = result_reply(CallResult(status)), result_reply(CallResult(status))
        assert first == second == ("503", {"error": "UpstreamUnavailable"})
        assert first[1] is not second[1]

    def test_answers_pass_through(self):
        body = {"error": "Nope"}
        assert result_reply(CallResult(CallStatus.REMOTE_ERROR, body, "404")) == ("404", body)
        assert result_reply(CallResult(CallStatus.OK, [1], "201")) == ("201", [1])


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


class TestClientDirectWire:
    def _setup(self):
        sim = Simulator()
        echo = EchoNode(sim, "echo-1").bind()
        caller = build_caller(sim, WiringMode.DIRECT_WIRE)
        caller.client.direct["Echo"] = "echo-1"
        return sim, caller

    def test_ok_round_trip(self):
        sim, caller = self._setup()
        results: list[CallResult] = []
        caller.client.call("Echo", "POST", "/echo", {"v": 1}, results.append)
        run_until_idle(sim)
        assert results[0].status is CallStatus.OK
        assert results[0].body == {"v": 1}

    def test_unconfigured_service_fast_fails(self):
        sim, caller = self._setup()
        results: list[CallResult] = []
        caller.client.call("Nowhere", "POST", "/x", None, results.append)
        assert results[0].status is CallStatus.FAST_FAIL

    def test_remote_4xx_is_remote_error_not_breaker_failure(self):
        sim, caller = self._setup()
        results: list[CallResult] = []
        for _ in range(8):
            caller.client.call("Echo", "POST", "/reject", None, results.append)
            run_until_idle(sim)
        assert all(r.status is CallStatus.REMOTE_ERROR and r.remote_status == "400"
                   for r in results)
        assert caller.client.breaker_for("echo-1").state is CircuitState.CLOSED

    def test_remote_5xx_trips_breaker(self):
        sim, caller = self._setup()
        results: list[CallResult] = []
        for _ in range(6):
            caller.client.call("Echo", "POST", "/fail", None, results.append)
            run_until_idle(sim)
        assert results[4].status is CallStatus.REMOTE_ERROR
        # breaker opened on the 5th failure; the 6th call never hit the wire
        assert results[5].status is CallStatus.FAST_FAIL
        assert caller.client.breaker_for("echo-1").state is CircuitState.OPEN

    def test_missing_response_times_out_at_deadline(self):
        sim, caller = self._setup()
        results: list[CallResult] = []
        caller.client.call("Echo", "POST", "/sluggish", None, results.append)
        start = sim.now
        run_until_idle(sim)
        assert results[0].status is CallStatus.TIMEOUT
        assert results[0].remote_status is None
        assert sim.now == start + caller.client.deadline + 1

    def test_killed_target_maps_to_timeout(self):
        sim, caller = self._setup()
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="echo-1"))
        results: list[CallResult] = []
        caller.client.call("Echo", "POST", "/echo", {"v": 1}, results.append)
        run_until_idle(sim)
        assert results[0].status is CallStatus.TIMEOUT

    def test_response_on_deadline_tick_still_counts(self):
        sim, caller = self._setup()
        sim.inject(FaultRule(FaultEffect.DELAY, source="echo-1", destination="caller",
                             delay_ticks=3))
        results: list[CallResult] = []
        caller.client.call("Echo", "POST", "/echo", {"v": 2}, results.append,
                           deadline=5)
        run_until_idle(sim)
        assert results[0].status is CallStatus.OK

    @pytest.mark.parametrize("delay, status, failures", [
        (3, CallStatus.OK, 0),
        (4, CallStatus.TIMEOUT, 1),
    ])
    def test_deadline_fires_before_reply_on_same_tick(self, delay, status, failures):
        # The deadline timer (deadline + 1 ticks) is queued at call time, the
        # reply one tick later, so on a shared tick the deadline runs first.
        sim, caller = self._setup()
        sim.inject(FaultRule(FaultEffect.DELAY, source="echo-1", destination="caller",
                             delay_ticks=delay))
        results: list[CallResult] = []
        start = sim.now
        caller.client.call("Echo", "POST", "/echo", {"v": 3}, results.append,
                           deadline=5)
        run_until_idle(sim)
        assert [r.status for r in results] == [status]
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
        results: list[CallResult] = []
        caller.client.call("Echo", "POST", path, body, results.append)
        run_until_idle(sim)
        return results[0]

    def test_discovers_then_round_robins(self):
        sim, caller, registry = self._setup()
        hit: list[str] = []
        for i in range(6):
            r = self._call(sim, caller, body={"n": i})
            assert r.ok
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
        assert self._call(sim, caller).ok
        registry.instances["Echo"] = []
        sim.advance_to(sim.now + caller.client.resolver.cache_ttl)
        r = self._call(sim, caller)
        assert r.status is CallStatus.FAST_FAIL

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
        r = self._call(sim, caller)
        assert r.status is CallStatus.FAST_FAIL


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
    must agree on every result and every breaker state. A library call has
    no deadline: answers that come late over the wire come back as OK."""

    DEADLINE = 5
    # (path, what the wire modes get); /after/3 lands on the deadline tick,
    # /after/4 one tick past it, /after/12 long after the deadline fired.
    SCRIPT = [("/ok", CallStatus.OK), ("/reject", CallStatus.REMOTE_ERROR),
              ("/fail", CallStatus.REMOTE_ERROR), ("/neterr", CallStatus.TIMEOUT),
              ("/after/3", CallStatus.OK), ("/after/4", CallStatus.TIMEOUT),
              ("/after/12", CallStatus.TIMEOUT)] + \
        [("/fail", CallStatus.REMOTE_ERROR)] * 3 + [("/ok", CallStatus.FAST_FAIL)]
    LATE = ("/after/4", "/after/12")

    def _run(self, mode: WiringMode):
        sim = Simulator()
        caller = build_caller(sim, mode)
        script = ScriptNode(sim, "script-1", "caller")
        if mode is WiringMode.LIBRARY_CALL:
            caller.client.add_peer("Script", script)
        else:
            script.bind()
            caller.client.direct["Script"] = "script-1"
            FakeRegistry(sim, {"Script": [{"instance_id": "script-1",
                                           "address": "script-1"}]}).bind()
        steps = []
        for i, (path, _) in enumerate(self.SCRIPT + [("/ok", None)]):
            if i == len(self.SCRIPT):
                sim.advance_to(sim.now + DEFAULT_BREAKER_OPEN_TICKS)  # probe
            results: list[CallResult] = []
            caller.client.call("Script", "POST", path, {"n": i}, results.append,
                               deadline=self.DEADLINE)
            run_until_idle(sim)
            brk = caller.client.breakers.get("script-1")
            steps.append((results, brk and (brk.state, brk.consecutive_failures,
                                            brk.probe_inflight)))
        return steps

    def test_modes_agree(self):
        direct = self._run(WiringMode.DIRECT_WIRE)
        discovered = self._run(WiringMode.DISCOVERED)
        library = self._run(WiringMode.LIBRARY_CALL)
        assert direct == discovered
        assert [r[0].status for r, _ in direct] == \
            [want for _, want in self.SCRIPT] + [CallStatus.OK]
        assert direct[3][0][0] == CallResult(CallStatus.TIMEOUT, {"error": "NetworkError"},
                                             "network-error")
        assert direct[-2][1] == (CircuitState.OPEN, 5, 0)
        assert direct[-1][1] == (CircuitState.CLOSED, 0, 0)
        for (path, _), (wire, _), (lib, brk) in zip(self.SCRIPT, direct, library):
            assert brk is None
            if path in self.LATE:
                assert lib[0].status is CallStatus.OK
            elif wire[0].status is not CallStatus.FAST_FAIL:
                assert lib == wire


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
        node = ServiceNode(sim, "n", "Svc")
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
        node = ServiceNode(sim, "n", "Svc")
        req = Request(method="POST", path="/refresh",
                      body={"service": "Other", "profile": "default",
                            "version": [1, 0], "entries": {"k": "v"}},
                      _reply=lambda s, b: None)
        node.dispatch(req)
        assert node.config.get("k") is None

    @pytest.mark.parametrize("version, entries, field", [
        ("x", {}, "version"),
        ([1], {}, "version"),
        ([1, 0], 7, "entries"),
    ])
    def test_malformed_refresh_is_400(self, version, entries, field):
        sim = Simulator()
        node = ServiceNode(sim, "n", "Svc")
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
        library = ServiceClient(ServiceNode(sim, "host", "Host"), WiringMode.LIBRARY_CALL)
        library.add_peer("Svc", node)
        results: list[CallResult] = []
        if status is None:
            with pytest.raises(ValueError):
                library.call("Svc", "POST", "/refuse", None, results.append)
            wire.call("Svc", "POST", "/refuse", None, results.append)
            wire.call("Svc", "POST", "/ok", None, results.append)
            with pytest.raises(ValueError):
                sim.step()
            # The rest of the tick, the /ok request, is still queued there.
            assert sim.next_event_tick() == 1
            run_until_idle(sim)
            assert [r.status for r in results] == [CallStatus.OK, CallStatus.TIMEOUT]
            return
        library.call("Svc", "POST", "/refuse", None, results.append)
        wire.call("Svc", "POST", "/refuse", None, results.append)
        run_until_idle(sim)
        assert results == [CallResult(CallStatus.REMOTE_ERROR, body, status)] * 2


class TestLibraryMode:
    def test_in_process_call_completes_synchronously(self):
        sim = Simulator()
        host = ServiceNode(sim, "host", "Host")
        host.bind()
        client = ServiceClient(host, WiringMode.LIBRARY_CALL)
        peer = EchoNode(sim, "virtual-echo")  # never bound to the wire
        client.add_peer("Echo", peer)
        results = []
        client.call("Echo", "POST", "/echo", {"x": 1}, results.append)
        assert results and results[0].ok and results[0].body == {"x": 1}
        assert sim.records == []  # nothing touched the wire

    def test_unknown_peer_fast_fails(self):
        sim = Simulator()
        host = ServiceNode(sim, "host", "Host").bind()
        client = ServiceClient(host, WiringMode.LIBRARY_CALL)
        results = []
        client.call("Echo", "POST", "/echo", None, results.append)
        assert results[0].status is CallStatus.FAST_FAIL
