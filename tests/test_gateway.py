"""Prefix routing, strip rewriting, and edge behavior on upstream failure."""

from __future__ import annotations

import pytest

from ssaas_sim.chassis import CallResult, ServiceClient, ServiceNode, WiringMode, split_path
from ssaas_sim.gateway import (
    DuplicatePrefix,
    Gateway,
    InvalidRoute,
    RouteRule,
    RouteTable,
)
from ssaas_sim.simwire import Envelope, FaultEffect, FaultRule, Simulator


def table_with(*rules: tuple[str, str, bool]) -> RouteTable:
    table = RouteTable()
    for prefix, service, strip in rules:
        table.add_route(RouteRule(prefix, service, strip))
    return table


def match(table: RouteTable, path: str) -> RouteRule | None:
    return table.match(split_path(path))


def rewrite(table: RouteTable, path: str, rule: RouteRule) -> str:
    return table.rewrite(path, rule, split_path(path))


class TestRouteTable:
    def test_longest_prefix_wins(self):
        table = table_with(("/api", "Fallback", False),
                           ("/api/developers", "DevInfo", True))
        assert match(table, "/api/developers/42").service == "DevInfo"
        assert match(table, "/api/other").service == "Fallback"

    def test_matches_on_segment_boundaries_only(self):
        table = table_with(("/api/developers", "DevInfo", True))
        assert match(table, "/api/developersX/42") is None
        assert match(table, "/api/developers") is not None
        assert match(table, "/api") is None

    def test_strip_removes_parent_directory(self):
        table = table_with(("/api/developers", "DevInfo", True))
        rule = match(table, "/api/developers/42")
        assert rewrite(table, "/api/developers/42", rule) == "/developers/42"
        assert rewrite(table, "/api/developers", rule) == "/developers"

    def test_no_strip_forwards_verbatim(self):
        table = table_with(("/api/chat", "Chat", False))
        rule = match(table, "/api/chat/7")
        assert rewrite(table, "/api/chat/7", rule) == "/api/chat/7"

    def test_single_segment_prefix_strip_keeps_path(self):
        table = table_with(("/api", "Mono", True))
        rule = match(table, "/api/x/y")
        assert rewrite(table, "/api/x/y", rule) == "/api/x/y"

    def test_route_added_after_resolve_takes_over(self):
        t = table_with(("/api", "Api", True))
        assert t.resolve("/api/dev/1")[0].service == "Api"
        t.add_route(RouteRule("/api/dev", "Dev", True))
        rule, inner = t.resolve("/api/dev/1")
        assert (rule.service, inner) == ("Dev", "/dev/1")
        assert t.resolve("/other") is None

    def test_duplicate_prefix_rejected(self):
        table = table_with(("/api/chat", "Chat", False))
        with pytest.raises(DuplicatePrefix):
            table.add_route(RouteRule("/api/chat", "Other", True))

    def test_prefix_validation(self):
        with pytest.raises(InvalidRoute):
            RouteRule("no-slash", "S", False)
        with pytest.raises(InvalidRoute):
            RouteRule("/trailing/", "S", False)
        with pytest.raises(InvalidRoute):
            RouteRule("/ok", "", False)

    def test_from_config_entries_ordered_by_number(self):
        table = RouteTable.from_config_entries({
            "route.2": "/api/projects|DevSvc|1",
            "route.1": "/api/developers|DevSvc|1",
            "unrelated": "x",
        })
        assert [table.resolve(p)[0] for p in ("/api/developers/1", "/api/projects/1")] == \
            [RouteRule("/api/developers", "DevSvc", True), RouteRule("/api/projects", "DevSvc", True)]

    def test_from_config_entries_rejects_garbage(self):
        with pytest.raises(InvalidRoute):
            RouteTable.from_config_entries({"route.1": "/a|Svc"})
        with pytest.raises(InvalidRoute):
            RouteTable.from_config_entries({"route.1": "/a|Svc|yes"})
        with pytest.raises(InvalidRoute):
            RouteTable.from_config_entries({"route.x": "/a|Svc|1"})


class UpstreamNode(ServiceNode):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id, "Upstream")
        self.route("GET", "/developers/{did}",
                   lambda req: ("200", {"developer_id": int(req.params["did"])}))
        self.route("GET", "/missing", lambda req: ("404", {"error": "UnknownThing"}))


def build_edge():
    sim = Simulator()
    upstream = UpstreamNode(sim, "upstream-1").bind()
    gw = Gateway(sim)
    gw.bind()
    client = ServiceClient(gw, WiringMode.DIRECT_WIRE)
    client.direct["DevInfo"] = "upstream-1"
    gw.table = RouteTable()
    gw.table.add_route(RouteRule("/api/developers", "DevInfo", True))
    caller = ServiceNode(sim, "ext", "External").bind()
    ServiceClient(caller, WiringMode.DIRECT_WIRE)
    return sim, gw, caller


def through_gateway(sim, caller, method, path, body=None) -> CallResult:
    results: list[CallResult] = []
    caller.client.call_node("gateway", method, path, body, results.append,
                            deadline=60)
    assert sim.run_until_idle(budget=200)
    return results[0]


class TestGatewayNode:
    def test_routes_and_strips(self):
        sim, gw, caller = build_edge()
        r = through_gateway(sim, caller, "GET", "/api/developers/42")
        assert r.ok and r.body == {"developer_id": 42}
        inner = [rec for rec in sim.records
                 if rec.source == "gateway" and rec.kind == "REQUEST"]
        assert inner[0].path == "/developers/42"

    def test_upstream_error_relayed_with_status(self):
        sim, gw, caller = build_edge()
        gw.table.add_route(RouteRule("/edge/missing", "DevInfo", True))
        r = through_gateway(sim, caller, "GET", "/edge/missing")
        assert r.remote_status == "404"
        assert r.body == {"error": "UnknownThing"}

    def test_unrouted_path_is_404(self):
        sim, gw, caller = build_edge()
        r = through_gateway(sim, caller, "GET", "/elsewhere/1")
        assert r.remote_status == "404"
        assert r.body == {"error": "NoRoute"}

    def test_dead_upstream_becomes_503(self):
        sim, gw, caller = build_edge()
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="upstream-1"))
        r = through_gateway(sim, caller, "GET", "/api/developers/42")
        assert r.remote_status == "503"
        assert r.body == {"error": "UpstreamUnavailable"}

    def test_unconfigured_service_becomes_503(self):
        sim, gw, caller = build_edge()
        gw.table.add_route(RouteRule("/api/ghost", "GhostSvc", True))
        r = through_gateway(sim, caller, "GET", "/api/ghost/1")
        assert r.remote_status == "503"
        assert r.body == {"error": "UpstreamUnavailable"}

    def test_refresh_rebuilds_route_table(self):
        sim, gw, caller = build_edge()
        req_body = {"service": "Gateway", "profile": "default", "version": [1, 1],
                    "entries": {"route.1": "/api/people|DevInfo|1"}}
        r = through_gateway(sim, caller, "POST", "/refresh", req_body)
        assert r.ok
        assert gw.table.resolve("/api/people/1") == \
            (RouteRule("/api/people", "DevInfo", True), "/people/1")
        # old prefix is gone, new one forwards with its last segment kept
        assert through_gateway(sim, caller, "GET", "/api/developers/42").remote_status == "404"

    def test_refresh_sends_an_already_resolved_path_to_the_new_service(self):
        sim, gw, caller = build_edge()
        UpstreamNode(sim, "upstream-2").bind()
        gw.client.direct["People"] = "upstream-2"
        assert through_gateway(sim, caller, "GET", "/api/developers/42").ok
        req_body = {"service": "Gateway", "profile": "default", "version": [1, 1],
                    "entries": {"route.1": "/api/developers|People|0"}}
        assert through_gateway(sim, caller, "POST", "/refresh", req_body).ok
        mark = len(sim.records)
        # the new rule forwards the path unstripped, which upstream-2 has no route for
        assert through_gateway(sim, caller, "GET", "/api/developers/42").remote_status == "404"
        inner = [(rec.destination, rec.path) for rec in sim.records[mark:]
                 if rec.source == "gateway" and rec.kind == "REQUEST"]
        assert inner == [("upstream-2", "/api/developers/42")]

    def test_bad_route_config_keeps_last_good_table(self):
        sim, gw, caller = build_edge()
        req_body = {"service": "Gateway", "profile": "default", "version": [1, 1],
                    "entries": {"route.1": "broken"}}
        through_gateway(sim, caller, "POST", "/refresh", req_body)
        r = through_gateway(sim, caller, "GET", "/api/developers/7")
        assert r.ok and r.body == {"developer_id": 7}
