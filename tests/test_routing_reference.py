"""Indexed, memoized route and prefix lookup against the linear scans they
replaced.

``ServiceNode.dispatch`` finds routes through an index keyed by method and
segment count, and ``RouteTable`` probes pre-split prefixes longest first.
Both remember each path they have resolved; a node's index and memo live in
a route table shared by every node that registers the same patterns. The
reference implementations below are the plain scans: every route scored by
its literal segments, every prefix split and compared on each lookup. Both
sides must pick the same route, bind the same params and rewrite to the same
path, whether the memo is cold or warm, and whether the node built its table
or found it built.
"""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssaas_sim import chassis
from ssaas_sim.chassis import ROUTE_MEMO_LIMIT, Request, ServiceNode, split_path
from ssaas_sim.gateway import DuplicatePrefix, Gateway, InvalidRoute, RouteRule, RouteTable
from ssaas_sim.simwire import Simulator


def ref_split(path: str) -> list[str]:
    return [p for p in path.split("/") if p]


class RefRoute:
    def __init__(self, method: str, pattern: str, name: int) -> None:
        self.method = method
        self.segments = ref_split(pattern)
        self.name = name

    def match(self, method: str, parts: list[str]) -> Optional[tuple[int, dict[str, str]]]:
        if method != self.method or len(parts) != len(self.segments):
            return None
        params: dict[str, str] = {}
        score = 0
        for seg, part in zip(self.segments, parts):
            if seg.startswith("{") and seg.endswith("}"):
                params[seg[1:-1]] = part
            elif seg == part:
                score += 1
            else:
                return None
        return score, params


def ref_dispatch(routes: list[RefRoute], method: str, path: str):
    """(route name, params) of the best match, or None: most literal
    segments wins, ties go to the first registered."""
    parts = ref_split(path)
    best = None
    for route in routes:
        hit = route.match(method, parts)
        if hit is not None and (best is None or hit[0] > best[0]):
            best = (hit[0], route, hit[1])
    return None if best is None else (best[1].name, best[2])


def ref_match(rules: list[RouteRule], path: str) -> Optional[RouteRule]:
    parts = ref_split(path)
    best, best_len = None, -1
    for rule in rules:
        pre = ref_split(rule.prefix)
        if len(pre) <= len(parts) and parts[:len(pre)] == pre and len(pre) > best_len:
            best, best_len = rule, len(pre)
    return best


def ref_rewrite(path: str, rule: RouteRule) -> str:
    if not rule.strip:
        return path
    pre = ref_split(rule.prefix)
    parts = ref_split(path)
    return "/" + "/".join(pre[-1:] + parts[len(pre):])


def routed_node(routes: list[tuple[str, str]]) -> ServiceNode:
    """A node answering (route name, params) on each route. The handler then
    scribbles on ``req.params``, which must not reach a later request."""
    def answer(req: Request, name: int):
        out = ("200", (name, dict(req.params)))
        req.params["scribbled"] = "x"
        return out

    node = ServiceNode(Simulator(), "n", "N")
    for name, (route_method, pattern) in enumerate(routes):
        node.route(route_method, pattern, lambda req, name=name: answer(req, name))
    return node


def node_dispatch(node: ServiceNode, method: str, path: str):
    got = []
    node.dispatch(Request(method, path, None, _reply=lambda s, b: got.append((s, b))))
    assert len(got) == 1
    status, body = got[0]
    return None if status == "404" else body


def table_resolve(table: RouteTable, path: str):
    hit = table.resolve(path)
    return None if hit is None else (hit[0].prefix, hit[1])


def ref_resolve(rules: list[RouteRule], path: str):
    rule = ref_match(rules, path)
    return None if rule is None else (rule.prefix, ref_rewrite(path, rule))


def build_table(prefixes: list[tuple[str, bool]]):
    """The table and the reference's rule list after the same adds; invalid
    and duplicate prefixes are skipped on both sides."""
    table, rules = RouteTable(), []
    for i, (prefix, strip) in enumerate(prefixes):
        try:
            rule = RouteRule(prefix, f"svc{i}", strip)
            table.add_route(rule)
        except (InvalidRoute, DuplicatePrefix):
            continue
        rules.append(rule)
    return table, rules


def config_of(prefixes: list[tuple[str, bool]]):
    """The ``route.N`` entries of the prefixes that :func:`build_table` keeps,
    the private table it builds route by route, and its rules."""
    table, rules = build_table(prefixes)
    entries = {f"route.{n}": f"{rule.prefix}|{rule.service}|{int(rule.strip)}"
               for n, rule in enumerate(rules, start=1)}
    return entries, table, rules


def push(gateway: Gateway, version: int, entries: dict[str, str]) -> None:
    """Apply a config document to ``gateway`` as a push from confsvc does.
    Like any gateway's, it holds more than its routes."""
    assert gateway._apply_config({"service": "Gateway", "profile": "default",
                                  "version": [version, 0],
                                  "entries": {"breaker.threshold": "5", **entries}})


METHODS = st.sampled_from(["GET", "POST"])
ROUTE_SEGMENT = st.sampled_from(["a", "b", "c", "{x}", "{y}"])
PATH_SEGMENT = st.sampled_from(["a", "b", "c", "d", ""])
PREFIX_SEGMENT = st.sampled_from(["api", "dev", "x", ""])


def joined(segment: st.SearchStrategy[str], max_size: int) -> st.SearchStrategy[str]:
    return st.lists(segment, max_size=max_size).map(lambda segs: "/" + "/".join(segs))


class TestServiceNodeIndex:
    @given(st.lists(st.tuples(METHODS, joined(ROUTE_SEGMENT, 3)), max_size=10),
           st.lists(st.tuples(METHODS, joined(PATH_SEGMENT, 4)), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_same_route_and_params_as_linear_scan(self, routes, requests):
        ref_routes = [RefRoute(m, p, name) for name, (m, p) in enumerate(routes)]
        chassis._route_table.cache_clear()
        # Two builds: the first compiles the table cold, the second finds it
        # compiled, with the memo the first filled.
        for node in (routed_node(routes), routed_node(routes)):
            for method, path in requests:
                want = ref_dispatch(ref_routes, method, path)
                # a path's first dispatch fills the memo, the second reads it
                assert node_dispatch(node, method, path) == want
                assert node_dispatch(node, method, path) == want
                assert len(node._table[1]) <= ROUTE_MEMO_LIMIT
        # One compile for the one pattern list, at the first build's first
        # dispatch: a node looks its table up once its routes are in.
        assert chassis._route_table.cache_info().misses == 1

    @pytest.mark.parametrize("routes, path, want", [
        # a literal beats a param, in either registration order
        ([("GET", "/t/{id}"), ("GET", "/t/special")], "/t/special", 1),
        ([("GET", "/t/special"), ("GET", "/t/{id}")], "/t/special", 0),
        # ties go to the first route registered
        ([("GET", "/t/{a}"), ("GET", "/t/{b}")], "/t/1", 0),
        ([("GET", "/{a}/x"), ("GET", "/t/{b}")], "/t/x", 0),
        # segment count and method both select
        ([("GET", "/t/{a}"), ("GET", "/t/{a}/{b}")], "//t/1/2/", 1),
        ([("POST", "/t"), ("GET", "/t")], "/t", 1),
        ([("GET", "/")], "/", 0),
    ])
    def test_cases(self, routes, path, want):
        got = node_dispatch(routed_node(routes), "GET", path)
        ref = ref_dispatch([RefRoute(m, p, n) for n, (m, p) in enumerate(routes)], "GET", path)
        assert got == ref
        assert got is not None and got[0] == want


class TestRouteTableIndex:
    @given(st.lists(st.tuples(joined(PREFIX_SEGMENT, 3), st.booleans()), max_size=8),
           st.lists(joined(st.sampled_from(["api", "dev", "x", "y", ""]), 4),
                    min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_same_rule_and_rewrite_as_prefix_scan(self, prefixes, paths):
        table, rules = build_table(prefixes)
        for path in paths:
            want = ref_match(rules, path)
            got = table.match(split_path(path))
            assert got is want
            if got is not None:
                assert table.rewrite(path, got, split_path(path)) == ref_rewrite(path, want)
            assert table_resolve(table, path) == ref_resolve(rules, path)
            assert table_resolve(table, path) == ref_resolve(rules, path)

    @pytest.mark.parametrize("prefixes, path, want", [
        # the / prefix covers everything, and loses to any longer prefix
        ([("/", False), ("/api", True)], "/other/1", "/"),
        ([("/", False), ("/api", True)], "/api/1", "/api"),
        ([("/", False)], "/", "/"),
        # prefixes that split alike: the first added wins
        ([("/api", True), ("//api", False)], "/api/x", "/api"),
        ([("//api", False), ("/api", True)], "/api/x", "//api"),
        # whole segments only
        ([("/api/dev", True)], "/api/developers/1", None),
    ])
    def test_cases(self, prefixes, path, want):
        table, rules = build_table(prefixes)
        got = table.match(split_path(path))
        assert got is ref_match(rules, path)
        assert (got.prefix if got else None) == want
        if got is not None:
            assert table.rewrite(path, got, split_path(path)) == ref_rewrite(path, got)


class TestMemoLimit:
    """More distinct paths than a memo holds: the answers stay the
    reference's, and no memo grows past the limit."""

    def test_node_memo_stays_bounded(self):
        routes = [("GET", "/t/{a}"), ("GET", "/t/{a}/x")]
        node = routed_node(routes)
        ref_routes = [RefRoute(m, p, name) for name, (m, p) in enumerate(routes)]
        for i in range(ROUTE_MEMO_LIMIT + 300):
            path = f"/t/{i}" if i % 2 else f"/t/{i}/x"
            assert node_dispatch(node, "GET", path) == ref_dispatch(ref_routes, "GET", path)
            assert len(node._table[1]) <= ROUTE_MEMO_LIMIT
        # paths seen before the memo was emptied still resolve
        assert node_dispatch(node, "GET", "/t/1") == (0, {"a": "1"})

    def test_compiled_patterns_stay_bounded(self):
        # Nodes of ten routes each, so that no route list grows long.
        for start in range(0, ROUTE_MEMO_LIMIT + 300, 10):
            routes = [("GET", f"/p{i}/{{x}}") for i in range(start, start + 10)]
            node = routed_node(routes)
            for name, (_, pattern) in enumerate(routes):
                path = pattern.replace("{x}", "7")
                assert node_dispatch(node, "GET", path) == (name, {"x": "7"})
            assert chassis._route_table.cache_info().currsize <= ROUTE_MEMO_LIMIT

    def test_table_memo_stays_bounded(self):
        table, rules = build_table([("/api", True), ("/api/dev", False)])
        for i in range(ROUTE_MEMO_LIMIT + 300):
            path = f"/api/{i}" if i % 2 else f"/api/dev/{i}"
            assert table_resolve(table, path) == ref_resolve(rules, path)
            assert len(table._resolved) <= ROUTE_MEMO_LIMIT
        assert table_resolve(table, "/api/1") == ("/api", "/api/1")


PREFIX_RULE = st.tuples(joined(PREFIX_SEGMENT, 3), st.booleans())
TABLE_PATHS = st.lists(joined(st.sampled_from(["api", "dev", "x", "y", ""]), 4),
                       min_size=1, max_size=8)


class TestSharedPrefixTables:
    """Every table built from one set of route entries (a client router, and
    a gateway in each of two builds) shares one compiled table and resolve
    memo. Each still answers as a private table built route by route, and an
    add_route or a config push on one leaves the others' answers alone."""

    @given(st.lists(PREFIX_RULE, max_size=6), PREFIX_RULE, st.lists(PREFIX_RULE, max_size=6),
           TABLE_PATHS)
    @settings(max_examples=200, deadline=None)
    def test_shared_tables_answer_as_private_ones(self, prefixes, extra, pushed, paths):
        entries, private, rules = config_of(prefixes)
        want = [table_resolve(private, path) for path in paths]
        assert want == [ref_resolve(rules, path) for path in paths]

        def answers(table: RouteTable) -> list:
            got = [table_resolve(table, path) for path in paths]
            assert len(table._resolved) <= ROUTE_MEMO_LIMIT
            return got

        router = RouteTable.from_config_entries(entries)
        gateways = [Gateway(Simulator()), Gateway(Simulator())]
        for gateway in gateways:
            push(gateway, 1, entries)
        assert router._resolved is gateways[0].table._resolved is gateways[1].table._resolved
        assert answers(router) == answers(gateways[0].table) == answers(gateways[1].table) == want

        # An add_route on the router: it alone answers as a private table grown alike.
        grown = config_of(prefixes)[1]
        try:
            rule = RouteRule(extra[0], "extra", extra[1])
            grown.add_route(rule)
        except (InvalidRoute, DuplicatePrefix):
            rule = None
        if rule is not None:
            router.add_route(rule)
        grown_answers = answers(grown)
        assert answers(router) == grown_answers
        assert answers(gateways[0].table) == answers(gateways[1].table) == want
        assert answers(RouteTable.from_config_entries(entries)) == want

        # A config push that rebuilds the first gateway's table moves only it.
        pushed_entries, pushed_private, _ = config_of(pushed)
        push(gateways[0], 2, pushed_entries)
        assert answers(gateways[0].table) == answers(pushed_private)
        assert answers(gateways[1].table) == want
        assert answers(router) == grown_answers

    def test_a_shared_memo_stays_bounded(self):
        entries, _, rules = config_of([("/api", True), ("/api/dev", False)])
        tables = [RouteTable.from_config_entries(entries) for _ in range(2)]
        for i in range(ROUTE_MEMO_LIMIT + 300):
            path = f"/api/{i}" if i % 2 else f"/api/dev/{i}"
            table = tables[i % 2]
            assert table_resolve(table, path) == ref_resolve(rules, path)
            assert len(table._resolved) <= ROUTE_MEMO_LIMIT
        assert tables[0]._resolved is tables[1]._resolved
        assert table_resolve(tables[1], "/api/1") == ("/api", "/api/1")
