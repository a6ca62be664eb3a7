"""Edge routing: one public entry point in front of the internal services.

The gateway owns a prefix-matched route table (longest match wins, always
on whole path segments) and forwards requests to the owning service via
its client, relaying the upstream status and body back to the caller.
Unreachable upstreams surface as 503 so external callers never see
internal failure detail.
"""

from __future__ import annotations

from typing import NamedTuple

from .chassis import (CONFSVC_NODE, GATEWAY_NODE, ROUTE_MEMO_LIMIT, Request, ServiceNode,
                      relay_result, split_path)
from .simwire import Body, Simulator, read_int

SERVICE_NAME = "Gateway"

UPSTREAM_DEADLINE_TICKS = 40

ROUTE_KEY_PREFIX = "route."


class DuplicatePrefix(Exception):
    pass


class InvalidRoute(Exception):
    pass


class _RouteFields(NamedTuple):
    prefix: str
    service: str
    strip: bool


class RouteRule(_RouteFields):
    __slots__ = ()

    def __new__(cls, prefix: str, service: str, strip: bool) -> "RouteRule":
        if not prefix.startswith("/") or (prefix != "/" and prefix.endswith("/")):
            raise InvalidRoute(f"bad prefix: {prefix!r}")
        if not service:
            raise InvalidRoute("empty service")
        return super().__new__(cls, prefix, service, strip)


class RouteTable:
    """Ordered prefix rules with longest-match lookup and strip rewriting.

    Each prefix is split once, when it is added. Lookup probes a dict keyed
    by segment tuples, longest prefix length first; of two prefixes that
    split alike (``/api`` and ``//api``) the first added wins.
    :meth:`resolve` remembers each path it has matched until the table
    changes; a config refresh builds a new table, with nothing remembered.
    """

    def __init__(self) -> None:
        self._rules: dict[str, RouteRule] = {}
        self._by_segments: dict[tuple[str, ...], RouteRule] = {}
        self._lengths: list[int] = []  # distinct prefix lengths, longest first
        self._resolved: dict[str, tuple[RouteRule, str]] = {}

    def add_route(self, rule: RouteRule) -> None:
        if rule.prefix in self._rules:
            raise DuplicatePrefix(rule.prefix)
        self._rules[rule.prefix] = rule
        self._by_segments.setdefault(split_path(rule.prefix), rule)
        self._lengths = sorted({len(pre) for pre in self._by_segments}, reverse=True)
        self._resolved.clear()

    def match(self, parts: tuple[str, ...]) -> RouteRule | None:
        """Longest rule whose prefix covers whole leading segments of a path
        split into ``parts``; /api/dev never matches a /api/developers
        request."""
        for n in self._lengths:
            if n <= len(parts):
                rule = self._by_segments.get(parts[:n])
                if rule is not None:
                    return rule
        return None

    def rewrite(self, path: str, rule: RouteRule, parts: tuple[str, ...]) -> str:
        """With strip on, drop the prefix's parent directories so the last
        prefix segment becomes the path root: /api/developers/42 forwarded
        as /developers/42. ``parts`` is ``path`` split."""
        if not rule.strip:
            return path
        pre = split_path(rule.prefix)
        return "/" + "/".join(pre[-1:] + parts[len(pre):])

    def resolve(self, path: str) -> tuple[RouteRule, str] | None:
        """The rule for ``path`` and the path to forward upstream, or None
        when no rule matches."""
        hit = self._resolved.get(path)
        if hit is None:
            parts = split_path(path)
            rule = self.match(parts)
            if rule is None:
                return None
            if len(self._resolved) >= ROUTE_MEMO_LIMIT:
                self._resolved.clear()
            hit = self._resolved[path] = (rule, self.rewrite(path, rule, parts))
        return hit

    @classmethod
    def from_config_entries(cls, entries: dict[str, str]) -> "RouteTable":
        """Build a table from ``route.N`` config keys, lowest N first.
        Each value is ``prefix|service|strip`` with strip as 0 or 1."""
        table = cls()
        keyed: list[tuple[int, str]] = []
        for key, value in entries.items():
            if not key.startswith(ROUTE_KEY_PREFIX):
                continue
            try:
                keyed.append((read_int(key[len(ROUTE_KEY_PREFIX):]), value))
            except ValueError as exc:
                raise InvalidRoute(f"bad route key: {key}") from exc
        for _, value in sorted(keyed):
            parts = value.split("|")
            if len(parts) != 3 or parts[2] not in ("0", "1"):
                raise InvalidRoute(f"bad route value: {value!r}")
            table.add_route(RouteRule(parts[0], parts[1], parts[2] == "1"))
        return table


class Gateway(ServiceNode):
    """Edge node: confsvc's pushes reach its own /refresh; all else is proxied by prefix."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim, GATEWAY_NODE, SERVICE_NAME)
        self.table = RouteTable()

    def on_config_applied(self) -> None:
        try:
            self.table = RouteTable.from_config_entries(self.config.entries)
        except (InvalidRoute, DuplicatePrefix):
            pass  # keep serving with the last good table

    def dispatch(self, req: Request) -> None:
        if req.env is not None and req.env.source == CONFSVC_NODE:
            super().dispatch(req)  # a config push, to the gateway's own /refresh
            return
        hit = self.table.resolve(req.path)
        if hit is None:
            req.reply("404", {"error": "NoRoute"})
            return
        assert self.client is not None, "gateway needs a client"
        rule, inner_path = hit

        def relay(status: str, body: Body) -> None:
            relay_result(req, status, body)

        self.client.call(rule.service, req.method, inner_path, req.body,
                         on_result=relay, deadline=UPSTREAM_DEADLINE_TICKS)
