"""Shared service-side building blocks.

Everything a node needs besides the transport lives here: path routing,
request/reply plumbing with the :class:`Refusal` a handler raises to
refuse a request, the outbound client, the circuit breaker, client-side
discovery with a cached round-robin resolver, versioned config handling,
and the tolerant decoder used at every service boundary. Every answer is a
status and a body, whether a handler returns it or a call hands it on.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .simwire import NETWORK_ERROR_STATUS, REQUEST, RESPONSE, Body, Envelope, Simulator, read_int

DEFAULT_BREAKER_THRESHOLD = 5
DEFAULT_BREAKER_OPEN_TICKS = 30
DEFAULT_CACHE_TTL_TICKS = 10
DEFAULT_CALL_DEADLINE_TICKS = 5
RENEW_INTERVAL_TICKS = 10
DEFAULT_PROFILE = "default"  # the config profile every node runs

# Fixed node names: the infrastructure nodes, and stage 0's single deployable.
CONFSVC_NODE = "confsvc"
REGISTRY_NODE = "registry"
GATEWAY_NODE = "gateway"
MONOLITH_NODE = "monolith"

# A route memo (a route table's dispatch memo, a gateway table's resolve memo)
# is emptied when it holds this many paths, and the compiled patterns and route
# tables keep the most recently used this many, which bounds their memory.
ROUTE_MEMO_LIMIT = 4096


class NoInstances(Exception):
    """Resolution found no instance eligible for a call."""


class Refusal(Exception):
    """A request a handler refuses: :meth:`ServiceNode.dispatch` answers a
    raised refusal with ``status`` and :meth:`body`, which names ``field``,
    the request field at fault, if there is one."""

    status = "400"
    code = "Malformed"

    def __init__(self, message: str = "", field: Optional[str] = None) -> None:
        super().__init__(message)
        self.field = field

    def body(self) -> dict:
        if self.field is None:
            return {"error": self.code}
        return {"error": self.code, "field": self.field}


def refusal(code: str, status: str = "400", base: type[Refusal] = Refusal) -> type[Refusal]:
    """A subclass of ``base``, named ``code`` and living in ``base``'s module,
    that only sets ``status`` and ``code``."""
    return type(code, (base,), {"status": status, "code": code, "__module__": base.__module__})


class DecodeError(Refusal):
    def __init__(self, fieldname: str) -> None:
        super().__init__(f"missing or malformed field: {fieldname}", fieldname)


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
    rejects everything until ``open_duration`` ticks have passed; then the
    next admission is the one HALF_OPEN probe, and HALF_OPEN admits nothing
    until its result: success closes the circuit, failure reopens it with a
    fresh timer. Late results that arrive while OPEN change nothing.
    """

    def __init__(self, config: "ConfigView") -> None:
        self._config = config
        self.state = CircuitState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[int] = None

    @property
    def threshold(self) -> int:
        return self._config.get_int("breaker.threshold", DEFAULT_BREAKER_THRESHOLD)

    @property
    def open_duration(self) -> int:
        return self._config.get_int("breaker.open_ticks", DEFAULT_BREAKER_OPEN_TICKS)

    def can_attempt(self, now: int) -> bool:
        """Would :meth:`allow` admit a call right now? Never mutates."""
        if self.state == CircuitState.OPEN:
            assert self.opened_at is not None
            return now - self.opened_at >= self.open_duration
        return self.state == CircuitState.CLOSED  # HALF_OPEN: a probe is out

    def allow(self, now: int) -> bool:
        """Admit a call, moving OPEN to HALF_OPEN when the wait is over."""
        if self.state == CircuitState.CLOSED:
            return True
        if not self.can_attempt(now):
            return False
        self.state = CircuitState.HALF_OPEN
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
            self.consecutive_failures = 0
            if success:
                self.state = CircuitState.CLOSED
                self.opened_at = None
            else:
                self.state = CircuitState.OPEN
                self.opened_at = now
        # OPEN: late result, ignored.


# -- discovery cache + round robin -------------------------------------------

class Endpoint(NamedTuple):
    instance_id: str
    node: str


_new_tuple = tuple.__new__  # builds a fetched Endpoint without its __new__ frame
_instance_id = itemgetter(0)  # an Endpoint's instance_id, read with no Python frame


class _ServiceCache:
    def __init__(self) -> None:
        self.endpoints: list[Endpoint] = []
        self.fresh_until = 0  # set by the update that makes the entry
        self.rotation = 0


class Resolver:
    """Client-side instance cache with per-service round-robin rotation.

    The rotation index survives cache refreshes as long as the instance
    membership (the set of ids) is unchanged, and resets when instances
    appear or disappear so the cycle stays well defined.
    """

    def __init__(self) -> None:
        self._services: dict[str, _ServiceCache] = {}

    def fresh(self, service: str, now: int) -> bool:
        entry = self._services.get(service)
        return entry is not None and now < entry.fresh_until

    def update(self, service: str, endpoints: Optional[list[Endpoint]], now: int) -> None:
        """Store a fetched list as fresh from ``now``. ``None``, for a failed
        fetch, keeps the stored list (or none) and marks it fresh all the
        same, so the next fetch waits one ttl, as a Eureka client backs off."""
        entry = self._services.setdefault(service, _ServiceCache())
        if endpoints is not None:
            if set(map(_instance_id, entry.endpoints)) != set(map(_instance_id, endpoints)):
                entry.rotation = 0
            entry.endpoints = list(endpoints)
        entry.fresh_until = now + DEFAULT_CACHE_TTL_TICKS

    def resolve(self, service: str, now: int, breakers: dict[str, CircuitBreaker]) -> Endpoint:
        entry = self._services.get(service)
        if entry is None or not entry.endpoints:
            raise NoInstances(service)
        eligible = entry.endpoints
        # Admit an endpoint with no breaker, a CLOSED one, or one whose open
        # wait is over, as allow() would; copy only once one is refused.
        kept: Optional[list[Endpoint]] = None
        for i, endpoint in enumerate(eligible):
            brk = breakers.get(endpoint.instance_id)
            if brk is None or brk.state == CircuitState.CLOSED or brk.can_attempt(now):
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
        :class:`DecodeError`, changing nothing, naming malformed ``entries`` or
        a ``version`` other than a list or tuple of two ints (bools excluded)."""
        if not isinstance(version, (list, tuple)) or len(version) != 2 \
                or type(version[0]) is not int or type(version[1]) is not int:
            raise DecodeError("version")
        if not isinstance(entries, dict) or not all(
                isinstance(key, str) and isinstance(value, str) for key, value in entries.items()):
            raise DecodeError("entries")
        version = (version[0], version[1])
        if version <= self.version:
            return False
        self.version = version
        self.entries = dict(entries)
        return True

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.entries.get(key, default)

    def get_int(self, key: str, default: int) -> int:
        try:
            return read_int(self.entries.get(key, default))
        except ValueError:
            return default


# -- requests and routing ------------------------------------------------------

def split_path(path: str) -> tuple[str, ...]:
    """The non-empty segments of ``path``: ``//a/b/`` gives ``("a", "b")``."""
    parts = path.strip("/").split("/")
    # Only repeated inner slashes leave empty segments after the strip.
    return tuple(filter(None, parts)) if "" in parts else tuple(parts)


class Request:
    """One inbound request. A request that arrived on the wire (``env``)
    answers with a RESPONSE on ``wire``; an in-process one calls ``_reply``.
    ``params`` are the values the matched route bound: only
    :meth:`ServiceNode.dispatch` sets them, before it calls the handler."""

    __slots__ = ("method", "path", "body", "params", "env", "wire", "replied", "_reply")

    def __init__(self, method: str, path: str, body: Body,
                 params: Optional[dict[str, str]] = None, env: Optional[Envelope] = None,
                 wire: Optional[Simulator] = None,
                 _reply: Optional[Reply] = None) -> None:
        self.method = method
        self.path = path
        self.body = body
        self.params = params
        self.env = env
        self.wire = wire
        self.replied = False
        self._reply = _reply

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


Reply = Callable[[str, Body], None]  # an in-process reply, and every call's on_result
Handler = Callable[[Request], Optional[tuple[str, Body]]]


# Every node of every stage registers the same few dozen patterns, so each
# is compiled once per process.
@lru_cache(maxsize=ROUTE_MEMO_LIMIT)
def _compile_pattern(pattern: str) -> tuple[int, tuple, tuple]:
    """(segment count, literals, params) of a route pattern."""
    segments = split_path(pattern)
    literals, params = [], []
    for i, seg in enumerate(segments):
        if seg.startswith("{") and seg.endswith("}"):
            params.append((i, seg[1:-1]))
        else:
            literals.append((i, seg))
    return len(segments), tuple(literals), tuple(params)


@lru_cache(maxsize=ROUTE_MEMO_LIMIT)
def _route_table(patterns: tuple[tuple[str, str], ...]) -> tuple[dict, dict]:
    """(index, memo) of a node's ordered (method, pattern) pairs, shared by
    every node, instance and build that registers the same pairs. The index
    maps (method, segment count) to (literals, params, position) rows, most
    literals first, else in order: the first match is the best. The memo maps
    (method, path) to the (position, params) of each path matched so far."""
    index: dict[tuple[str, int], list] = {}
    for position, (method, pattern) in enumerate(patterns):
        count, literals, params = _compile_pattern(pattern)
        index.setdefault((method, count), []).append((literals, params, position))
    for rows in index.values():
        rows.sort(key=lambda row: -len(row[0]))
    return index, {}


class ServiceNode:
    """Base class for every service: route table, reply plumbing, a config
    view, and an optional outbound client.

    A node is either bound to the wire (one simulator node per instance) or
    hosted in-process by another node (:meth:`host`), which serves its
    routes as its own and lends it its client.
    """

    def __init__(self, sim: Simulator, node_id: str, service: str) -> None:
        self.sim = sim
        self.node_id = node_id
        self.service = service
        self.config = ConfigView()
        self.client: Optional[ServiceClient] = None
        # The (method, pattern) of each route in registration order, its
        # handler at the same position, and the shared table they compile to.
        # A request gets a copy of the memo's params, so they never leak.
        self._patterns: tuple[tuple[str, str], ...] = ()
        self._handlers: list[Handler] = []
        self._table = _route_table(())

    def bind(self) -> "ServiceNode":
        self.sim.add_node(self.node_id, self._on_envelope, self._on_timeout)
        return self

    def route(self, method: str, pattern: str, handler: Handler) -> None:
        self._patterns += ((method, pattern),)
        self._handlers.append(handler)
        self._table = _route_table(self._patterns)

    def host(self, node: "ServiceNode") -> None:
        """Serve ``node``'s routes after this node's own, and lend it this node's client."""
        self._patterns += node._patterns
        self._handlers += node._handlers
        self._table = _route_table(self._patterns)
        node.client = self.client

    # -- inbound ---------------------------------------------------------

    def _on_envelope(self, env: Envelope) -> None:
        if env.kind == RESPONSE:
            if self.client is not None:
                self.client.handle_response(env)
            return
        self.dispatch(Request(env.method, env.path, env.body, None, env, self.sim))

    def _on_timeout(self, message_id: int) -> None:
        """A call of this node reached its deadline. The client's method is
        looked up at each timeout, so a patch of the class is seen."""
        self.client._on_deadline(message_id)  # type: ignore[union-attr]

    def dispatch(self, req: Request) -> None:
        key = (req.method, req.path)
        index, memo = self._table
        hit = memo.get(key)
        if hit is None:
            parts = split_path(req.path)
            for literals, params, position in index.get((req.method, len(parts)), ()):
                for i, seg in literals:
                    if parts[i] != seg:
                        break
                else:
                    hit = (position, {name: parts[i] for i, name in params})
                    break
            else:
                req.reply("404", {"error": "NoRoute"})
                return
            if len(memo) >= ROUTE_MEMO_LIMIT:
                memo.clear()
            memo[key] = hit
        req.params = hit[1].copy()
        try:
            out = self._handlers[hit[0]](req)
        except Refusal as exc:
            out = exc.status, exc.body()
        if out is not None:
            req.reply(out[0], out[1])

    # -- config ----------------------------------------------------------

    def _apply_config(self, body: Body) -> bool:
        """Apply a ``default`` config document of this node's service that is
        newer than its own. Raises :class:`DecodeError` on a bad field."""
        doc = decode_tolerant(body, ["service", "profile", "version", "entries"])
        if doc["service"] != self.service or doc["profile"] != DEFAULT_PROFILE:
            return False
        applied = self.config.apply_refresh(doc["version"], doc["entries"])
        if applied:
            self.on_config_applied()
        return applied

    def handle_refresh(self, req: Request) -> Optional[tuple[str, Body]]:
        """``POST /refresh``, routed on a node that ``ConfigServer.subscribe`` subscribes."""
        return "200", {"applied": self._apply_config(req.body)}

    def on_config_applied(self) -> None:
        """Hook for nodes that derive state from config entries."""

    # -- startup ---------------------------------------------------------

    def pull_config(self) -> None:
        """Pull the node's config document once and apply it as a pushed one is
        applied, ignoring a failed or malformed reply. Later changes are pushed."""
        assert self.client is not None, "node needs a client before config pull"

        def on_pull(status: str, body: Body) -> None:
            try:
                if status.startswith("2"):
                    self._apply_config(body)
            except DecodeError:
                pass  # a malformed reply is ignored, as a failed one is

        self.client.call_node(CONFSVC_NODE, "GET", f"/config/{self.service}/{DEFAULT_PROFILE}",
                              on_result=on_pull)

    def go_live(self) -> None:
        """Register with the registry and arm the node's own loop, which
        renews the lease as maintenance traffic. A renewal is a plain send,
        not a call: each beat overwrites the client's renewal slot, and a 404
        (lease evicted) to the slot's renewal, delivered before its deadline
        tick, re-registers. So once a newer renewal is sent, an older one's
        404 no longer counts, whatever the deadline."""
        assert self.client is not None, "node needs a client before discovery"
        client, service, node_id, sim = self.client, self.service, self.node_id, self.sim
        reg_body = {"service": service, "instance_id": node_id,
                    "address": node_id, "port": 0, "status": "UP"}
        path = f"/registry/{service}/{node_id}/renew"

        def register() -> None:
            client.call_node(REGISTRY_NODE, "POST", f"/registry/{service}", dict(reg_body))

        def beat() -> None:
            mid = sim.send(Envelope(node_id, REGISTRY_NODE, REQUEST, path, "PUT"))
            client._renewal = (mid, sim.now + client.deadline + 1, register)

        register()
        sim.every(node_id, RENEW_INTERVAL_TICKS, beat)


# -- outbound client ------------------------------------------------------------

class WiringMode:
    LIBRARY_CALL = "LIBRARY_CALL"
    DIRECT_WIRE = "DIRECT_WIRE"
    DISCOVERED = "DISCOVERED"


class ServiceClient:
    """Outbound call port for a node, in one of three wiring modes.

    LIBRARY_CALL dispatches synchronously on its own node's route table, in
    process. DIRECT_WIRE sends to a statically configured node per service.
    DISCOVERED resolves instances through the registry with a ttl cache,
    round-robin rotation, and one circuit breaker per instance.

    Every call ends in one ``on_result(status, body)``: the upstream's
    answer, or 503 with a fresh ``UpstreamUnavailable`` body when it could
    not be reached. There are no automatic retries: one call, one attempt.
    """

    def __init__(self, node: ServiceNode, mode: str,
                 deadline: int = DEFAULT_CALL_DEADLINE_TICKS) -> None:
        self.node = node
        self.sim = node.sim
        self.mode = mode
        self.deadline = deadline
        self.direct: dict[str, str] = {}
        self.reset()
        node.client = self

    def reset(self) -> None:
        """Start the volatile state afresh, as a restarted process does: a
        revive runs this, so nothing in flight at the kill stays pending."""
        self.resolver = Resolver()
        self.breakers: dict[str, CircuitBreaker] = {}
        # message id -> (breaker or None, on_result); the kernel keeps the deadline
        self._pending: dict[int, tuple] = {}
        self._fetch_waiters: dict[str, list[Callable[[], None]]] = {}
        # (message id, deadline tick, re-registration) of the last lease renewal
        self._renewal: tuple = (None, 0, None)

    def breaker_for(self, instance_id: str) -> CircuitBreaker:
        brk = self.breakers.get(instance_id)
        if brk is None:
            brk = CircuitBreaker(self.node.config)
            self.breakers[instance_id] = brk
        return brk

    # -- calls -------------------------------------------------------------

    def call(self, service: str, method: str, path: str, body: Body = None,
             on_result: Optional[Reply] = None,
             deadline: Optional[int] = None) -> None:
        mode = self.mode
        if mode == WiringMode.DISCOVERED:
            if self.resolver.fresh(service, self.sim.now):
                self._attempt(service, method, path, body, on_result, deadline)
            else:
                self._fetch_instances(service, lambda: self._attempt(service, method, path,
                                                                     body, on_result, deadline))
        elif mode == WiringMode.DIRECT_WIRE:
            target = self.direct.get(service)
            if target is None:
                self._finish_fast(on_result)
                return
            breaker = self.breakers.get(target) or self.breaker_for(target)
            if breaker.state != CircuitState.CLOSED and not breaker.allow(self.sim.now):
                self._finish_fast(on_result)
                return
            self._send_tracked(target, method, path, body, on_result, deadline, breaker)
        else:  # LIBRARY_CALL; not Monolith.dispatch, which bench/tracer.py times as wire requests
            request = Request(method, path, body, None, None, None, on_result)
            ServiceNode.dispatch(self.node, request)

    def call_node(self, target_node: str, method: str, path: str, body: Body = None,
                  on_result: Optional[Reply] = None,
                  deadline: Optional[int] = None, track_breaker: bool = False) -> None:
        """Send straight to a named node, bypassing resolution."""
        breaker = self.breaker_for(target_node) if track_breaker else None
        self._send_tracked(target_node, method, path, body, on_result, deadline, breaker)

    def _fetch_instances(self, service: str, waiter: Callable[[], None]) -> None:
        """Fetch ``service``'s endpoints, then run the waiters on what the resolver
        holds. A failed or malformed fetch keeps what it holds, fresh for a ttl."""
        waiters = self._fetch_waiters.get(service)
        if waiters is not None:
            waiters.append(waiter)
            return
        self._fetch_waiters[service] = [waiter]
        def on_fetch(status: str, body: Body) -> None:
            endpoints: Optional[list[Endpoint]] = None
            try:
                if status.startswith("2") and isinstance(body, list):
                    endpoints = []
                    for item in body:
                        rec = decode_tolerant(item, ["instance_id", "address"])
                        endpoints.append(_new_tuple(Endpoint, (str(rec["instance_id"]),
                                                               str(rec["address"]))))
            except DecodeError:  # stale-if-error: a malformed list, as a failed fetch,
                endpoints = None  # keeps the last one
            self.resolver.update(service, endpoints, self.sim.now)
            for fn in self._fetch_waiters.pop(service, []):
                fn()
        self.call_node(REGISTRY_NODE, "GET", f"/registry/{service}",
                       on_result=on_fetch)

    def _attempt(self, service: str, method: str, path: str, body: Body,
                 on_result: Optional[Reply],
                 deadline: Optional[int]) -> None:
        now = self.sim.now
        try:
            endpoint = self.resolver.resolve(service, now, self.breakers)
        except NoInstances:
            self._finish_fast(on_result)
            return
        breaker = self.breakers.get(endpoint.instance_id) or self.breaker_for(endpoint.instance_id)
        if breaker.state != CircuitState.CLOSED:  # moves OPEN to HALF_OPEN; never refuses,
            breaker.allow(now)  # as the resolver admitted this endpoint at this tick
        self._send_tracked(endpoint.node, method, path, body, on_result, deadline, breaker)

    def _send_tracked(self, target_node: str, method: str, path: str, body: Body,
                      on_result: Optional[Reply],
                      deadline: Optional[int], breaker: Optional[CircuitBreaker]) -> None:
        # Envelope.request, inlined: every tracked call sends one.
        mid = self.sim.call(Envelope(self.node.node_id, target_node, REQUEST, path, method,
                                     None, body),
                            (deadline if deadline is not None else self.deadline) + 1)
        self._pending[mid] = (breaker, on_result)

    def handle_response(self, env: Envelope) -> None:
        pending = self._pending.pop(env.correlation_id, None)
        if pending is None:  # a renewal's, or late: the deadline decided the call
            mid, due, register = self._renewal
            if env.correlation_id == mid and env.status == "404" and self.sim.now < due:
                register()
            return
        breaker, on_result = pending
        status, body = env.status, env.body
        if status == NETWORK_ERROR_STATUS:  # the kernel's: the target is down
            status, body = "503", {"error": "UpstreamUnavailable"}
        if breaker is not None:
            breaker.record_result(not status.startswith("5"), self.sim.now)
        if on_result is not None:
            on_result(status, body)

    def _on_deadline(self, message_id: int) -> None:
        pending = self._pending.pop(message_id, None)
        if pending is None:
            return
        breaker, on_result = pending
        if breaker is not None:
            breaker.record_result(False, self.sim.now)
        if on_result is not None:
            on_result("503", {"error": "UpstreamUnavailable"})

    def _finish_fast(self, on_result: Optional[Reply]) -> None:
        if on_result is not None:
            on_result("503", {"error": "UpstreamUnavailable"})


def relay_result(req: Request, status: str, body: Body) -> None:
    """Answer ``req`` with the outcome of an upstream call. ``gateway`` and
    ``ssaas.services`` call it by this module-level name, so that
    bench/tracer.py can wrap it there to time the relaying of answers."""
    req.reply(status, body)
