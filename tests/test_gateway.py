"""Prefix routing, strip rewriting, and edge behavior on upstream failure."""

from __future__ import annotations

import pytest

from ssaas_sim.chassis import CONFSVC_NODE, ServiceClient, ServiceNode, WiringMode, split_path
from ssaas_sim.gateway import (
    DuplicatePrefix,
    Gateway,
    InvalidRoute,
    RouteRule,
    RouteTable,
)
from ssaas_sim.migration import build_stage, parse_workload, run_workload
from ssaas_sim.simwire import Body, Envelope, FaultEffect, FaultRule, Simulator, canonical_json


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


def through_gateway(sim, caller, method, path, body=None) -> tuple[str, Body]:
    """The (status, body) an external caller gets through the gateway."""
    results: list[tuple[str, Body]] = []
    caller.client.call_node("gateway", method, path, body,
                            lambda status, reply: results.append((status, reply)),
                            deadline=60)
    assert sim.run_until_idle(budget=200)
    [answer] = results
    return answer


def push_config(sim, body) -> tuple[str, Body]:
    """The (status, body) the gateway answers a config push with, sent from a
    node named as the configuration server is."""
    pusher = ServiceNode(sim, CONFSVC_NODE, "ConfigServer").bind()
    ServiceClient(pusher, WiringMode.DIRECT_WIRE)
    return through_gateway(sim, pusher, "POST", "/refresh", body)


class TestGatewayNode:
    def test_routes_and_strips(self):
        sim, gw, caller = build_edge()
        status, reply = through_gateway(sim, caller, "GET", "/api/developers/42")
        assert (status, reply) == ("200", {"developer_id": 42})
        inner = [rec for rec in sim.records
                 if rec.source == "gateway" and rec.kind == "REQUEST"]
        assert inner[0].path == "/developers/42"

    def test_upstream_error_relayed_with_status(self):
        sim, gw, caller = build_edge()
        gw.table.add_route(RouteRule("/edge/missing", "DevInfo", True))
        status, reply = through_gateway(sim, caller, "GET", "/edge/missing")
        assert status == "404"
        assert reply == {"error": "UnknownThing"}

    def test_unrouted_path_is_404(self):
        sim, gw, caller = build_edge()
        status, reply = through_gateway(sim, caller, "GET", "/elsewhere/1")
        assert status == "404"
        assert reply == {"error": "NoRoute"}

    def test_dead_upstream_becomes_503(self):
        sim, gw, caller = build_edge()
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="upstream-1"))
        status, reply = through_gateway(sim, caller, "GET", "/api/developers/42")
        assert status == "503"
        assert reply == {"error": "UpstreamUnavailable"}

    def test_unconfigured_service_becomes_503(self):
        sim, gw, caller = build_edge()
        gw.table.add_route(RouteRule("/api/ghost", "GhostSvc", True))
        status, reply = through_gateway(sim, caller, "GET", "/api/ghost/1")
        assert status == "503"
        assert reply == {"error": "UpstreamUnavailable"}

    def test_refresh_rebuilds_route_table(self):
        sim, gw, caller = build_edge()
        req_body = {"service": "Gateway", "profile": "default", "version": [1, 1],
                    "entries": {"route.1": "/api/people|DevInfo|1"}}
        status, reply = push_config(sim, req_body)
        assert status == "200"
        assert gw.table.resolve("/api/people/1") == \
            (RouteRule("/api/people", "DevInfo", True), "/people/1")
        # old prefix is gone, new one forwards with its last segment kept
        assert through_gateway(sim, caller, "GET", "/api/developers/42")[0] == "404"

    def test_refresh_sends_an_already_resolved_path_to_the_new_service(self):
        sim, gw, caller = build_edge()
        UpstreamNode(sim, "upstream-2").bind()
        gw.client.direct["People"] = "upstream-2"
        assert through_gateway(sim, caller, "GET", "/api/developers/42")[0] == "200"
        req_body = {"service": "Gateway", "profile": "default", "version": [1, 1],
                    "entries": {"route.1": "/api/developers|People|0"}}
        assert push_config(sim, req_body)[0] == "200"
        mark = len(sim.records)
        # the new rule forwards the path unstripped, which upstream-2 has no route for
        assert through_gateway(sim, caller, "GET", "/api/developers/42")[0] == "404"
        inner = [(rec.destination, rec.path) for rec in sim.records[mark:]
                 if rec.source == "gateway" and rec.kind == "REQUEST"]
        assert inner == [("upstream-2", "/api/developers/42")]

    def test_bad_route_config_keeps_last_good_table(self):
        sim, gw, caller = build_edge()
        req_body = {"service": "Gateway", "profile": "default", "version": [1, 1],
                    "entries": {"route.1": "broken"}}
        assert push_config(sim, req_body) == ("200", {"applied": True})
        status, reply = through_gateway(sim, caller, "GET", "/api/developers/7")
        assert (status, reply) == ("200", {"developer_id": 7})

    @pytest.mark.parametrize("req_body, answer", [
        ({"service": "Gateway", "profile": "default", "version": "x", "entries": {}},
         ["400", '{"error":"Malformed","field":"version"}']),
        ({"service": "Gateway", "profile": "default", "version": [9, 9],
          "entries": {"route.1": 5}},
         ["400", '{"error":"Malformed","field":"entries"}']),
    ], ids=["refresh-version", "refresh-entry-value"])
    def test_malformed_push_is_answered_not_fatal(self, req_body, answer):
        handle = build_stage(6)
        status, reply = through_gateway(handle.sim, handle.confsvc, "POST", "/refresh", req_body)
        assert [status, canonical_json(reply)] == answer
        assert handle.gateway.config.version == (1, 1)

    def test_a_client_refresh_is_proxied_not_applied(self):
        sim, gw, caller = build_edge()
        table = gw.table
        req_body = {"service": "Gateway", "profile": "default", "version": [99, 99],
                    "entries": {"route.1": "/api/developers|Elsewhere|1"}}
        assert through_gateway(sim, caller, "POST", "/refresh", req_body) == \
            ("404", {"error": "NoRoute"})
        assert (gw.config.version, gw.table) == ((0, 0), table)
        assert through_gateway(sim, caller, "GET", "/api/developers/7") == \
            ("200", {"developer_id": 7})


# A client's attempt to take over the gateway's routing, at the stages that run one.
HIJACK = ('0|client|POST|/api/developers|{"name":"ann","email":"ann@example.dev"}\n'
          '5|client|POST|/refresh|{"service":"Gateway","profile":"default","version":[99,99],'
          '"entries":{"route.1":"/api/developers|ContentServices|1"}}\n'
          '10|client|GET|/api/developers/1|\n')


@pytest.mark.parametrize("stage", [3, 6])
def test_a_client_cannot_reconfigure_the_staged_gateway(stage):
    handle = build_stage(stage)
    gw = handle.gateway
    version, table = gw.config.version, gw.table
    entries = run_workload(handle, parse_workload(HIJACK))
    assert [(e.status, e.response_body) for e in entries[1:]] == [
        ("404", {"error": "NoRoute"}), ("200", entries[0].response_body)]
    assert (version, gw.config.version, gw.table) == ((1, 1), (1, 1), table)
