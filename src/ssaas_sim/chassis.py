"""Shared service-side building blocks.

Everything a node needs besides the transport lives here: path routing,
request/reply plumbing with the :class:`Refusal` a handler raises to
refuse a request, the circuit breaker, client-side discovery with a
cached round-robin resolver, versioned config handling, and the tolerant
decoder used at every service boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .simwire import NETWORK_ERROR_STATUS, REQUEST, RESPONSE, Body, Envelope, Simulator

DEFAULT_BREAKER_THRESHOLD = 5
DEFAULT_BREAKER_OPEN_TICKS = 30
DEFAULT_CACHE_TTL_TICKS = 10
DEFAULT_CALL_DEADLINE_TICKS = 5
RENEW_INTERVAL_TICKS = 10

# The infrastructure nodes every node reaches by name.
CONFSVC_NODE = "confsvc"
REGISTRY_NODE = "registry"

# A route memo (a node's dispatch memo, a gateway table's resolve memo, the
# compiled route patterns) is emptied when it holds this many paths, which
# bounds its memory.
ROUTE_MEMO_LIMIT = 4096


class NoInstances(Exception):
    """Resolution found no instance eligible for a call."""


class Refusal(Exception):
    """A request a handler refuses: :meth:`ServiceNode.dispatch` answers a
    raised refusal with ``status`` and :meth:`body`."""

    status = "400"
    code = "Malformed"
    field: Optional[str] = None  # the request field at fault, if one is

    def body(self) -> dict:
        if self.field is None:
            return {"error": self.code}
        return {"error": self.code, "field": self.field}


class DecodeError(Refusal):
    def __init__(self, fieldname: str) -> None:
        super().__init__(f"missing or malformed field: {fieldname}")
        self.field = fieldname


def decode_tolerant(body: Body, required: Sequence[str]) -> dict[str, Any]:
    """Extract ``required`` fields from a structured body, ignoring any
    extras. Raises :class:`DecodeError` naming the first missing field."""
    if not isinstance(body, dict):
        raise DecodeError(required[0] if required else "<body>")
    out = {}
    for key in required:
        if key not in body:
            raise DecodeError(key)
        out[key] = body[key]
    return out


# -- circuit breaker ---------------------------------------------------------

class CircuitState:
    CLOSED = "CLOSED"
    OPEN = "OPEN"
    HALF_OPEN = "HALF_OPEN"


class CircuitBreaker:
    """Consecutive-failure breaker guarding one downstream instance.

    CLOSED counts consecutive failures and trips at the threshold. OPEN
    rejects everything until ``open_duration`` ticks have passed, then the
    next admission becomes the single HALF_OPEN probe: success closes the
    circuit, failure reopens it with a fresh timer. Results that arrive
    while OPEN (late responses from before the trip) change nothing.
    """

    def __init__(self, threshold: int = DEFAULT_BREAKER_THRESHOLD,
                 open_duration: int = DEFAULT_BREAKER_OPEN_TICKS,
                 config: Optional["ConfigView"] = None) -> None:
        self._threshold = threshold
        self._open_duration = open_duration
        self._config = config
        self.state = CircuitState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[int] = None
        self.probe_inflight = 0

    @property
    def threshold(self) -> int:
        if self._config is not None:
            return self._config.get_int("breaker.threshold", self._threshold)
        return self._threshold

    @property
    def open_duration(self) -> int:
        if self._config is not None:
            return self._config.get_int("breaker.open_ticks", self._open_duration)
        return self._open_duration

    def can_attempt(self, now: int) -> bool:
        """Would :meth:`allow` admit a call right now? Never mutates."""
        if self.state == CircuitState.CLOSED:
            return True
        if self.state == CircuitState.OPEN:
            assert self.opened_at is not None
            return now - self.opened_at >= self.open_duration
        return self.probe_inflight < 1

    def allow(self, now: int) -> bool:
        """Admit a call, moving OPEN to HALF_OPEN when the wait is over."""
        if self.state == CircuitState.CLOSED:
            return True
        if not self.can_attempt(now):
            return False
        self.state = CircuitState.HALF_OPEN
        self.probe_inflight = 1
        return True

    def record_result(self, success: bool, now: int) -> None:
        if self.state == CircuitState.CLOSED:
            if success:
                self.consecutive_failures = 0
            else:
                self.consecutive_failures += 1
                if self.consecutive_failures >= self.threshold:
                    self.state = CircuitState.OPEN
                    self.opened_at = now
        elif self.state == CircuitState.HALF_OPEN:
            self.probe_inflight = 0
            if success:
                self.state = CircuitState.CLOSED
                self.consecutive_failures = 0
                self.opened_at = None
            else:
                self.state = CircuitState.OPEN
                self.opened_at = now
                self.consecutive_failures = 0
        # OPEN: late result, ignored.


# -- discovery cache + round robin -------------------------------------------

@dataclass(frozen=True)
class Endpoint:
    instance_id: str
    node: str


@dataclass
class _ServiceCache:
    endpoints: list[Endpoint] = field(default_factory=list)
    fetched_at: Optional[int] = None
    rotation: int = 0


class Resolver:
    """Client-side instance cache with per-service round-robin rotation.

    The rotation index survives cache refreshes as long as the instance
    membership (the set of ids) is unchanged, and resets when instances
    appear or disappear so the cycle stays well defined.
    """

    def __init__(self, cache_ttl: int = DEFAULT_CACHE_TTL_TICKS) -> None:
        self.cache_ttl = cache_ttl
        self._services: dict[str, _ServiceCache] = {}

    def fresh(self, service: str, now: int) -> bool:
        entry = self._services.get(service)
        return entry is not None and entry.fetched_at is not None \
            and now - entry.fetched_at < self.cache_ttl

    def update(self, service: str, endpoints: list[Endpoint], now: int) -> None:
        entry = self._services.setdefault(service, _ServiceCache())
        if {e.instance_id for e in entry.endpoints} != {e.instance_id for e in endpoints}:
            entry.rotation = 0
        entry.endpoints = list(endpoints)
        entry.fetched_at = now

    def resolve(self, service: str, now: int,
                allowed: Optional[Callable[[Endpoint], bool]] = None) -> Endpoint:
        entry = self._services.get(service)
        if entry is None or not entry.endpoints:
            raise NoInstances(service)
        eligible = entry.endpoints
        if allowed is not None:
            # Ask about every endpoint; copy only once one is refused.
            kept: Optional[list[Endpoint]] = None
            for i, endpoint in enumerate(eligible):
                if allowed(endpoint):
                    if kept is not None:
                        kept.append(endpoint)
                elif kept is None:
                    kept = eligible[:i]
            if kept is not None:
                eligible = kept
        if not eligible:
            raise NoInstances(service)
        pick = eligible[entry.rotation % len(eligible)]
        entry.rotation += 1
        return pick


# -- config view --------------------------------------------------------------

class ConfigView:
    """A node's current configuration document.

    Versions are (default_version, profile_version) pairs; refreshes apply
    only when strictly newer, so reordered notifications cannot roll a node
    back. Entries are replaced wholesale on apply.
    """

    def __init__(self) -> None:
        self.version: tuple[int, int] = (0, 0)
        self.entries: dict[str, str] = {}

    def apply_refresh(self, version: Any, entries: Any) -> bool:
        """Apply a document that is newer than the current one. Raises
        :class:`DecodeError` naming a malformed ``version`` or ``entries``."""
        try:
            version = tuple(version)
            version = (int(version[0]), int(version[1]))
        except (TypeError, ValueError, IndexError):
            raise DecodeError("version") from None
        if not isinstance(entries, dict) or \
                not all(isinstance(value, str) for value in entries.values()):
            raise DecodeError("entries")
        if version <= self.version:
            return False
        self.version = version
        self.entries = dict(entries)
        return True

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.entries.get(key, default)

    def get_int(self, key: str, default: int) -> int:
        raw = self.entries.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            return default


# -- requests and routing ------------------------------------------------------

def split_path(path: str) -> tuple[str, ...]:
    """The non-empty segments of ``path``: ``//a/b/`` gives ``("a", "b")``."""
    parts = path.strip("/").split("/")
    # Only repeated inner slashes leave empty segments after the strip.
    return tuple(filter(None, parts)) if "" in parts else tuple(parts)


@dataclass(slots=True)
class Request:
    """One inbound request. A request that arrived on the wire (``env``)
    answers with a RESPONSE on ``wire``; an in-process one calls ``_reply``.
    ``params`` are the values the matched route bound: only
    :meth:`ServiceNode.dispatch` sets them, before it calls the handler."""

    method: str
    path: str
    body: Body
    params: Optional[dict[str, str]] = None
    env: Optional[Envelope] = None
    wire: Optional[Simulator] = None
    replied: bool = False
    _reply: Optional[Callable[[str, Body], None]] = None

    def reply(self, status: str, body: Body = None) -> None:
        if self.replied:
            return
        self.replied = True
        if self._reply is not None:
            self._reply(str(status), body)
        elif self.wire is not None and (env := self.env) is not None:
            # Envelope.response, inlined: every wire request is answered here.
            self.wire.send(Envelope(env.destination, env.source, RESPONSE, env.path,
                                    env.method, str(status), body, env.message_id))


Handler = Callable[[Request], Optional[tuple[str, Body]]]


class _Route(NamedTuple):
    """A compiled route pattern: the literal segments a path must repeat
    and the positions bound to ``{param}`` names."""

    literals: tuple[tuple[int, str], ...]
    params: tuple[tuple[int, str], ...]
    handler: Handler


# pattern -> (segment count, literals, params). Every node of every stage
# registers the same few dozen patterns, so each is compiled once per process.
_compiled_patterns: dict[str, tuple[int, tuple, tuple]] = {}


def _compile_pattern(pattern: str) -> tuple[int, tuple, tuple]:
    hit = _compiled_patterns.get(pattern)
    if hit is None:
        segments = split_path(pattern)
        literals, params = [], []
        for i, seg in enumerate(segments):
            if seg.startswith("{") and seg.endswith("}"):
                params.append((i, seg[1:-1]))
            else:
                literals.append((i, seg))
        if len(_compiled_patterns) >= ROUTE_MEMO_LIMIT:
            _compiled_patterns.clear()
        hit = _compiled_patterns[pattern] = (len(segments), tuple(literals), tuple(params))
    return hit


class ServiceNode:
    """Base class for every service: route table, reply plumbing, a config
    view, and an optional outbound client.

    A node is either bound to the wire (one simulator node per instance) or
    hosted in-process by another node that serves its routes, while its
    peers call its :meth:`dispatch` directly.
    """

    def __init__(self, sim: Simulator, node_id: str, service: str,
                 profile: str = "default") -> None:
        self.sim = sim
        self.node_id = node_id
        self.service = service
        self.profile = profile
        self.config = ConfigView()
        self.client: Optional[ServiceClient] = None
        # (method, segment count) -> routes, most literal segments first and
        # in registration order among equals: the first match is the best.
        self._routes: dict[tuple[str, int], list[_Route]] = {}
        # (method, path) -> (handler, bound params) of every path matched so
        # far; route() empties it, and paths that match no route stay out.
        # A request gets a copy of the params, so the memo's own never leaks.
        self._resolved: dict[tuple[str, str], tuple[Handler, dict[str, str]]] = {}
        self.route("POST", "/refresh", self._handle_refresh)

    def bind(self) -> "ServiceNode":
        self.sim.add_node(self.node_id, self._on_envelope)
        return self

    def route(self, method: str, pattern: str, handler: Handler) -> None:
        count, literals, params = _compile_pattern(pattern)
        self._add_routes((method, count), [_Route(literals, params, handler)])

    def _add_routes(self, key: tuple[str, int], added: list[_Route]) -> None:
        routes = self._routes.setdefault(key, [])
        routes += added
        routes.sort(key=lambda r: -len(r.literals))
        self._resolved.clear()

    # -- inbound ---------------------------------------------------------

    def _on_envelope(self, env: Envelope) -> None:
        if env.kind == RESPONSE:
            if self.client is not None:
                self.client.handle_response(env)
            return
        self.dispatch(Request(env.method, env.path, env.body, None, env, self.sim))

    def dispatch(self, req: Request) -> None:
        key = (req.method, req.path)
        hit = self._resolved.get(key)
        if hit is None:
            parts = split_path(req.path)
            for literals, params, handler in self._routes.get((req.method, len(parts)), ()):
                for i, seg in literals:
                    if parts[i] != seg:
                        break
                else:
                    hit = (handler, {name: parts[i] for i, name in params})
                    break
            else:
                req.reply("404", {"error": "NoRoute"})
                return
            if len(self._resolved) >= ROUTE_MEMO_LIMIT:
                self._resolved.clear()
            self._resolved[key] = hit
        req.params = hit[1].copy()
        try:
            out = hit[0](req)
        except Refusal as exc:
            out = exc.status, exc.body()
        if out is not None:
            req.reply(out[0], out[1])

    # -- config ----------------------------------------------------------

    def _handle_refresh(self, req: Request) -> Optional[tuple[str, Body]]:
        doc = decode_tolerant(req.body, ["service", "profile", "version", "entries"])
        if doc["service"] != self.service or doc["profile"] != self.profile:
            return "200", {"applied": False}
        applied = self.config.apply_refresh(doc["version"], doc["entries"])
        if applied:
            self.on_config_applied()
        return "200", {"applied": applied}

    def on_config_applied(self) -> None:
        """Hook for nodes that derive state from config entries."""

    # -- startup ---------------------------------------------------------

    def pull_config(self) -> None:
        """Pull the node's config document once; later changes arrive as
        pushed refresh notifications."""
        assert self.client is not None, "node needs a client before config pull"

        def on_pull(result: CallResult) -> None:
            if not result.ok:
                return
            try:
                doc = decode_tolerant(result.body, ["version", "entries"])
                applied = self.config.apply_refresh(doc["version"], doc["entries"])
            except DecodeError:
                return
            if applied:
                self.on_config_applied()

        self.client.call_node(CONFSVC_NODE, "GET", f"/config/{self.service}/{self.profile}",
                              on_result=on_pull)

    def go_live(self) -> None:
        """Register with the registry and arm the node's own loop, which
        renews the lease as maintenance traffic. A renew rejected with 404
        (lease already evicted) triggers one re-registration."""
        assert self.client is not None, "node needs a client before discovery"
        client, service, node_id = self.client, self.service, self.node_id
        reg_body = {"service": service, "instance_id": node_id,
                    "address": node_id, "port": 0, "status": "UP"}

        def register() -> None:
            client.call_node(REGISTRY_NODE, "POST", f"/registry/{service}", dict(reg_body))

        def on_renew(result: CallResult) -> None:
            if result.status == CallStatus.REMOTE_ERROR and result.remote_status == "404":
                register()

        def beat() -> None:
            client.call_node(REGISTRY_NODE, "PUT", f"/registry/{service}/{node_id}/renew",
                             on_result=on_renew)

        register()
        self.sim.every(node_id, RENEW_INTERVAL_TICKS, beat)


# -- outbound client ------------------------------------------------------------

class WiringMode:
    LIBRARY_CALL = "LIBRARY_CALL"
    DIRECT_WIRE = "DIRECT_WIRE"
    DISCOVERED = "DISCOVERED"


class CallStatus:
    OK = "OK"
    FAST_FAIL = "FAST_FAIL"
    REMOTE_ERROR = "REMOTE_ERROR"
    TIMEOUT = "TIMEOUT"


class CallResult(NamedTuple):
    status: str
    body: Body = None
    remote_status: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == CallStatus.OK


_new_tuple = tuple.__new__  # builds a CallResult without its __new__ frame


class ServiceClient:
    """Outbound call port for a node, in one of three wiring modes.

    LIBRARY_CALL dispatches to co-resident peer nodes synchronously, in
    process. DIRECT_WIRE sends to a statically configured node per service.
    DISCOVERED resolves instances through the registry with a ttl cache,
    round-robin rotation, and one circuit breaker per instance.

    There are no automatic retries: one call, one attempt, one result.
    """

    def __init__(self, node: ServiceNode, mode: str,
                 deadline: int = DEFAULT_CALL_DEADLINE_TICKS) -> None:
        self.node = node
        self.sim = node.sim
        self.mode = mode
        self.deadline = deadline
        self.peers: dict[str, ServiceNode] = {}
        self.direct: dict[str, str] = {}
        self.resolver = Resolver()
        self.breakers: dict[str, CircuitBreaker] = {}
        # message id -> (breaker or None, on_result, deadline timer id)
        self._pending: dict[int, tuple] = {}
        self._fetch_waiters: dict[str, list[Callable[[bool], None]]] = {}
        node.client = self

    # -- wiring setup ------------------------------------------------------

    def add_peer(self, service: str, peer: ServiceNode) -> None:
        self.peers[service] = peer

    def breaker_for(self, instance_id: str) -> CircuitBreaker:
        brk = self.breakers.get(instance_id)
        if brk is None:
            brk = CircuitBreaker(config=self.node.config)
            self.breakers[instance_id] = brk
        return brk

    # -- calls -------------------------------------------------------------

    def call(self, service: str, method: str, path: str, body: Body = None,
             on_result: Optional[Callable[[CallResult], None]] = None,
             deadline: Optional[int] = None) -> None:
        if self.mode == WiringMode.LIBRARY_CALL:
            self._call_library(service, method, path, body, on_result)
        elif self.mode == WiringMode.DIRECT_WIRE:
            target = self.direct.get(service)
            if target is None:
                self._finish_fast(on_result)
                return
            breaker = self.breaker_for(target)
            if breaker.state != CircuitState.CLOSED and not breaker.allow(self.sim.now):
                self._finish_fast(on_result)
                return
            self._send_tracked(target, method, path, body, on_result, deadline, breaker)
        elif self.resolver.fresh(service, self.sim.now):
            self._attempt(service, method, path, body, on_result, deadline)
        else:
            def after_fetch(fetched: bool) -> None:
                if not fetched:
                    self._finish_fast(on_result)
                    return
                self._attempt(service, method, path, body, on_result, deadline)
            self._fetch_instances(service, after_fetch)

    def call_node(self, target_node: str, method: str, path: str, body: Body = None,
                  on_result: Optional[Callable[[CallResult], None]] = None,
                  deadline: Optional[int] = None, track_breaker: bool = False) -> None:
        """Send straight to a named node, bypassing resolution."""
        breaker = self.breaker_for(target_node) if track_breaker else None
        self._send_tracked(target_node, method, path, body, on_result, deadline, breaker)

    def _call_library(self, service: str, method: str, path: str, body: Body,
                      on_result: Optional[Callable[[CallResult], None]]) -> None:
        peer = self.peers.get(service)
        if peer is None:
            self._finish_fast(on_result)
            return
        def reply(status: str, rbody: Body) -> None:
            if on_result is not None:
                on_result(_classify(status, rbody))
        peer.dispatch(Request(method, path, body, _reply=reply))

    def _fetch_instances(self, service: str, waiter: Callable[[bool], None]) -> None:
        waiters = self._fetch_waiters.get(service)
        if waiters is not None:
            waiters.append(waiter)
            return
        self._fetch_waiters[service] = [waiter]
        def on_fetch(result: CallResult) -> None:
            ok = False
            if result.ok and isinstance(result.body, list):
                endpoints = []
                try:
                    for item in result.body:
                        rec = decode_tolerant(item, ["instance_id", "address"])
                        endpoints.append(Endpoint(str(rec["instance_id"]), str(rec["address"])))
                except DecodeError:
                    endpoints = []
                else:
                    self.resolver.update(service, endpoints, self.sim.now)
                    ok = True
            pending = self._fetch_waiters.pop(service, [])
            for fn in pending:
                fn(ok)
        self.call_node(REGISTRY_NODE, "GET", f"/registry/{service}",
                       on_result=on_fetch)

    def _attempt(self, service: str, method: str, path: str, body: Body,
                 on_result: Optional[Callable[[CallResult], None]],
                 deadline: Optional[int]) -> None:
        now = self.sim.now
        try:
            endpoint = self.resolver.resolve(service, now, allowed=self._can_attempt)
        except NoInstances:
            self._finish_fast(on_result)
            return
        breaker = self.breaker_for(endpoint.instance_id)
        if breaker.state != CircuitState.CLOSED and not breaker.allow(now):
            self._finish_fast(on_result)
            return
        self._send_tracked(endpoint.node, method, path, body, on_result, deadline, breaker)

    def _can_attempt(self, endpoint: Endpoint) -> bool:
        # A missing breaker would be created CLOSED, and CLOSED admits.
        brk = self.breakers.get(endpoint.instance_id)
        return brk is None or brk.state == CircuitState.CLOSED or brk.can_attempt(self.sim.now)

    def _send_tracked(self, target_node: str, method: str, path: str, body: Body,
                      on_result: Optional[Callable[[CallResult], None]],
                      deadline: Optional[int], breaker: Optional[CircuitBreaker]) -> None:
        node_id, sim = self.node.node_id, self.sim
        # Envelope.request, inlined: every tracked call sends one.
        mid = sim.send(Envelope(node_id, target_node, REQUEST, path, method, None, body))
        wait = (deadline if deadline is not None else self.deadline) + 1
        timer = sim.set_timer(node_id, wait, lambda: self._on_deadline(mid))
        self._pending[mid] = (breaker, on_result, timer)

    def handle_response(self, env: Envelope) -> None:
        pending = self._pending.pop(env.correlation_id, None)
        if pending is None:
            return  # late response: the deadline already decided this call
        breaker, on_result, timer = pending
        self.sim.cancel_timer(timer)
        result = _classify(env.status or "", env.body)
        if breaker is not None:
            failure = result.status == CallStatus.TIMEOUT or (
                result.remote_status is not None and result.remote_status.startswith("5"))
            breaker.record_result(not failure, self.sim.now)
        if on_result is not None:
            on_result(result)

    def _on_deadline(self, message_id: int) -> None:
        pending = self._pending.pop(message_id, None)
        if pending is None:
            return
        breaker, on_result, _ = pending
        if breaker is not None:
            breaker.record_result(False, self.sim.now)
        if on_result is not None:
            on_result(CallResult(CallStatus.TIMEOUT))

    def _finish_fast(self, on_result: Optional[Callable[[CallResult], None]]) -> None:
        if on_result is not None:
            on_result(CallResult(CallStatus.FAST_FAIL))


def result_reply(result: CallResult) -> tuple[str, Body]:
    """The answer that passes an upstream call's outcome on: an unreachable
    upstream becomes a plain 503, anything it answered goes out as-is."""
    if result.status == CallStatus.FAST_FAIL or result.status == CallStatus.TIMEOUT:
        return "503", {"error": "UpstreamUnavailable"}
    return result.remote_status, result.body


def relay_result(req: Request, result: CallResult) -> None:
    """Answer ``req`` with the outcome of an upstream call."""
    req.reply(*result_reply(result))


def _classify(status: str, body: Body) -> CallResult:
    if status == NETWORK_ERROR_STATUS:
        return _new_tuple(CallResult, (CallStatus.TIMEOUT, body, status))
    if status.startswith("2"):
        return _new_tuple(CallResult, (CallStatus.OK, body, status))
    return _new_tuple(CallResult, (CallStatus.REMOTE_ERROR, body, status))
