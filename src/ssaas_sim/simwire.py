"""Deterministic in-process message transport.

All inter-service traffic in every topology flows through a single
:class:`Simulator`: a logical integer clock, a time-ordered event queue
(FIFO within a tick), a seed that services derive their random choices
from, and injectable fault rules.
Determinism is the contract: identical seed + identical operation
sequence produces an identical delivery trace, byte for byte.

Every request gets exactly one reply: from its destination's handler, or
from the kernel as a network error when the destination is gone. A second
RESPONSE to the same request is rejected.
"""

from __future__ import annotations

import heapq
import json
from collections.abc import Sequence
from dataclasses import dataclass
from fnmatch import fnmatchcase
from itertools import repeat
from types import MappingProxyType
from typing import Any, Callable, Iterator, NamedTuple, Optional

Body = Any  # maps, lists, strings, ints, booleans, None

BASE_LATENCY_TICKS = 1

# Synthesized response status for sends that never reached a live handler.
NETWORK_ERROR_STATUS = "network-error"


class SimwireError(Exception):
    """Base class for transport errors."""


class UnknownNode(SimwireError):
    pass


class UnknownRule(SimwireError):
    pass


class InvalidEnvelope(SimwireError):
    pass


class InvalidFaultRule(SimwireError):
    pass


class FaultScriptError(SimwireError):
    pass


class MessageKind:
    REQUEST = "REQUEST"
    RESPONSE = "RESPONSE"


REQUEST = MessageKind.REQUEST
RESPONSE = MessageKind.RESPONSE


class FaultEffect:
    DROP = "DROP"
    PARTITION = "PARTITION"
    DELAY = "DELAY"
    KILL_NODE = "KILL_NODE"


@dataclass(slots=True)
class Envelope:
    """One message on the wire.

    ``message_id`` is assigned by the simulator at send time and strictly
    increases in send order. A RESPONSE echoes its request's id in
    ``correlation_id`` and carries its status code in ``status``. The send
    also sets ``maintenance``, the flag its receiving handler runs under.
    The chassis builds its envelopes positionally, in this field order.
    """

    source: str
    destination: str
    kind: str
    path: str
    method: str = "GET"
    status: Optional[str] = None
    body: Body = None
    correlation_id: Optional[int] = None
    message_id: Optional[int] = None
    maintenance: bool = False

    @staticmethod
    def request(source: str, destination: str, path: str, method: str = "GET",
                body: Body = None) -> "Envelope":
        return Envelope(source, destination, REQUEST, path, method, None, body)

    @staticmethod
    def response(to: "Envelope", status: str, body: Body = None) -> "Envelope":
        return Envelope(to.destination, to.source, RESPONSE, to.path, to.method,
                        status, body, to.message_id)


@dataclass
class FaultRule:
    """A fault selector: DROP and DELAY match (source, destination),
    PARTITION matches either direction, KILL_NODE matches node names only."""

    effect: str
    source: str = "*"
    destination: str = "*"
    node: str = "*"
    delay_ticks: int = 0
    active: bool = True
    rule_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.delay_ticks < 0:
            raise InvalidFaultRule("delay_ticks must be >= 0")
        if self.effect == FaultEffect.DELAY and self.delay_ticks <= 0:
            raise InvalidFaultRule("DELAY requires delay_ticks > 0")

    def matches_pair(self, source: str, destination: str) -> bool:
        if self.effect == FaultEffect.PARTITION:
            return (fnmatchcase(source, self.source) and fnmatchcase(destination, self.destination)) or \
                   (fnmatchcase(destination, self.source) and fnmatchcase(source, self.destination))
        return fnmatchcase(source, self.source) and fnmatchcase(destination, self.destination)

    def matches_node(self, node: str) -> bool:
        return fnmatchcase(node, self.node)


class MessageRecord(NamedTuple):
    """One line of the delivery trace.

    ``status`` is the delivery fate for requests (delivered/dropped/failed)
    and the carried status code for delivered responses.
    """

    tick: int
    message_id: int
    source: str
    destination: str
    kind: str
    method: str
    path: str
    status: str

    def line(self) -> str:
        tick, message_id, source, destination, kind, _, path, status = self
        return f"{tick}|{message_id}|{source}|{destination}|{kind}|{path}|{status}"

    def to_json(self) -> str:
        return _CANONICAL.encode(self._asdict())


# json.dumps with options builds a new encoder per call; this one is shared.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

_new_tuple = tuple.__new__  # builds a MessageRecord without _make's overhead
_GONE = object()  # step's marker for a destination missing from _live

DELIVERED = "delivered"
DROPPED = "dropped"
FAILED = "failed"

_WIDTH = len(MessageRecord._fields)


class WireTrace(Sequence[MessageRecord]):
    """The delivery trace, read as a sequence of :class:`MessageRecord`.

    The kernel keeps the trace as one flat list of fields, eight per record
    in field order, so writing a record leaves no object behind for the
    cyclic garbage collector to track (it never untracks a named tuple).
    Reading builds each record when it is read, and nothing caches it:
    :meth:`rows` yields plain tuples instead and builds no record.
    """

    __slots__ = ("_fields",)

    def __init__(self, fields: list) -> None:
        self._fields = fields

    def __len__(self) -> int:
        return len(self._fields) // _WIDTH

    def __getitem__(self, i: int | slice):  # type: ignore[override]
        """One record, or a list of the records a slice selects."""
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("wire trace index out of range")
        start = i * _WIDTH
        return _new_tuple(MessageRecord, self._fields[start:start + _WIDTH])

    def __iter__(self) -> Iterator[MessageRecord]:
        return map(_new_tuple, repeat(MessageRecord), self.rows())

    def rows(self) -> Iterator[tuple]:
        """Each record's fields as a plain tuple, in field order. Builds no
        :class:`MessageRecord`."""
        return zip(*[iter(self._fields)] * _WIDTH)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WireTrace):
            return self._fields == other._fields
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"WireTrace({list(self)!r})"

    def clear(self) -> None:
        self._fields.clear()


class Simulator:
    """Single-threaded event loop over logical ticks.

    All node and simulator state is mutated only inside :meth:`step`.
    Sends made from within a handler are enqueued and delivered on later
    ticks; base latency is one tick unless a DELAY rule matches.

    Every event lands at least one tick ahead, so the queue is a FIFO bucket
    per tick under a heap of the distinct ticks: send order within a tick
    is bucket order. Every event enters the queue through :meth:`_enqueue`.

    A bucket holds three kinds of event: an :class:`Envelope` to deliver,
    the id of a one-shot timer (:meth:`set_timer`), or a periodic loop's
    ``(fn, node, interval)`` entry (:meth:`every`), which :meth:`step`
    re-arms as soon as ``fn`` returns.

    ``nodes`` is a read-only view of every registered node's handler:
    :meth:`add_node` is the only way in. ``_live`` maps each node no kill
    rule has taken down to its handler, so a send or a delivery checks
    liveness with one lookup. A node added while an active kill rule
    matches it starts down. Kills and revives edit it in place: a handler
    may change it for a later event of the tick.

    ``records`` is the delivery trace, a read-only :class:`WireTrace` over
    the flat list of fields that :meth:`step` and :meth:`_record` extend.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.now = 0
        self._nodes: dict[str, Optional[Callable[[Envelope], None]]] = {}
        self.nodes = MappingProxyType(self._nodes)
        self._live: dict[str, Optional[Callable[[Envelope], None]]] = {}
        # The trace, flat: see WireTrace. Only step and _record extend it.
        self._trace: list = []
        self.records = WireTrace(self._trace)
        self.delivered = 0
        self.dropped = 0
        self.failed = 0
        self._buckets: dict[int, list] = {}  # one entry per event, see above
        self._ticks: list[int] = []  # heap of the keys of _buckets
        self._fault_schedule: list[tuple[int, int, FaultRule]] = []
        self._rules: dict[int, FaultRule] = {}
        # The DROP, PARTITION and DELAY rules of _rules, in registration
        # order: the only rules a send consults. Kill rules act via _live.
        self._link_rules: list[FaultRule] = []
        self._awaiting_reply: set[int] = set()
        # Pending timers by id; cancelling one removes it here and leaves
        # its queue entry behind as a tombstone.
        self._timers: dict[int, tuple[Callable[[], None], bool, str]] = {}
        self._next_message_id = 1
        self._next_rule_id = 1
        self._next_timer_id = 1
        self._seq = 0
        self._ctx_maintenance = False

    # -- nodes ------------------------------------------------------------

    def add_node(self, name: str, handler: Optional[Callable[[Envelope], None]] = None) -> None:
        if name in self._nodes:
            raise SimwireError(f"node already registered: {name}")
        self._nodes[name] = handler
        if not self._killed(name):
            self._live[name] = handler

    def node_alive(self, name: str) -> bool:
        return name in self._live

    # -- sending ----------------------------------------------------------

    def send(self, env: Envelope, maintenance: Optional[bool] = None) -> int:
        """Schedule ``env`` for delivery; returns the assigned message id.

        The envelope's fate is decided here for drop/partition rules and for
        dead or unknown destinations; DELAY rules stretch the latency. A
        RESPONSE must answer a REQUEST that has had no reply yet.
        """
        source, destination = env.source, env.destination
        live = self._live
        source_alive = source in live
        if not source_alive and source not in self._nodes:
            raise UnknownNode(f"unknown source node: {source}")
        kind = env.kind
        if kind == RESPONSE:
            if env.correlation_id not in self._awaiting_reply:
                raise InvalidEnvelope("RESPONSE must answer a REQUEST still awaiting its reply")
            self._awaiting_reply.remove(env.correlation_id)
        mid = self._next_message_id
        self._next_message_id = mid + 1
        env.message_id = mid
        if maintenance is None:
            maintenance = self._ctx_maintenance
        env.maintenance = maintenance

        if not source_alive:
            # Dead nodes cannot put traffic on the wire.
            self._record(env, DROPPED)
            self.dropped += 1
            return mid
        if destination not in live:
            self._fail_with_network_error(env)
            return mid
        tick = self.now + BASE_LATENCY_TICKS
        if self._link_rules:
            for rule in self._link_rules:
                if rule.active and rule.matches_pair(source, destination):
                    if rule.effect != FaultEffect.DELAY:
                        self._record(env, DROPPED)
                        self.dropped += 1
                        return mid
                    tick += rule.delay_ticks
        if kind == REQUEST:
            self._awaiting_reply.add(mid)
        self._enqueue(tick, env)
        return mid

    def set_timer(self, node: str, delay: int, fn: Callable[[], None],
                  maintenance: Optional[bool] = None) -> int:
        """Schedule ``fn`` to run on ``node`` after ``delay`` ticks.

        Timers are scheduler internals, not wire traffic: they never appear
        in the trace and are skipped if the node has been killed.
        """
        if node not in self._nodes:
            raise UnknownNode(f"unknown node: {node}")
        if delay < 1:
            raise SimwireError("timer delay must be >= 1 tick")
        if maintenance is None:
            maintenance = self._ctx_maintenance
        tid = self._next_timer_id
        self._next_timer_id += 1
        self._timers[tid] = (fn, maintenance, node)
        self._enqueue(self.now + delay, tid)
        return tid

    def every(self, node: str, interval: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` on ``node`` every ``interval`` ticks, from ``interval``
        ticks from now, as maintenance work.

        The loop never counts as pending work. It ends at the first firing
        that finds ``node`` killed; a later revive does not restart it.
        """
        if node not in self._nodes:
            raise UnknownNode(f"unknown node: {node}")
        if interval < 1:
            raise SimwireError("timer interval must be >= 1 tick")
        self._enqueue(self.now + interval, (fn, node, interval))

    def cancel_timer(self, timer_id: int) -> None:
        self._timers.pop(timer_id, None)

    # -- faults -----------------------------------------------------------

    def inject(self, rule: FaultRule) -> int:
        """Activate a fault rule now; already-enqueued deliveries keep the
        latency and drop decisions made when they were scheduled."""
        rid = self._register_rule(rule)
        self._apply_rule(rule)
        return rid

    def clear(self, rule_id: int) -> None:
        rule = self._rules.pop(rule_id, None)
        if rule is None:
            raise UnknownRule(f"no such rule: {rule_id}")
        if rule.effect == FaultEffect.KILL_NODE:
            self._recompute_dead()
        else:
            self._link_rules.remove(rule)

    def schedule_fault(self, tick: int, rule: FaultRule) -> int:
        """Register a rule that activates when the clock reaches ``tick``."""
        rid = self._register_rule(rule)
        rule.active = False
        self._seq += 1
        heapq.heappush(self._fault_schedule, (tick, self._seq, ("activate", rule)))
        return rid

    def schedule_revive(self, tick: int, node_pattern: str) -> None:
        """Lift any kill rules matching ``node_pattern`` at ``tick``."""
        self._seq += 1
        heapq.heappush(self._fault_schedule, (tick, self._seq, ("revive", node_pattern)))

    def _register_rule(self, rule: FaultRule) -> int:
        if rule.rule_id is None:
            rule.rule_id = self._next_rule_id
            self._next_rule_id += 1
        if rule.rule_id in self._rules:
            raise InvalidFaultRule(f"duplicate rule id: {rule.rule_id}")
        self._rules[rule.rule_id] = rule
        if rule.effect != FaultEffect.KILL_NODE:
            self._link_rules.append(rule)
        return rule.rule_id

    def _apply_rule(self, rule: FaultRule) -> None:
        rule.active = True
        if rule.effect == FaultEffect.KILL_NODE:
            for name in self._nodes:
                if rule.matches_node(name):
                    self._live.pop(name, None)

    def _killed(self, name: str) -> bool:
        """Does an active kill rule match ``name``? A node is live iff not."""
        return any(rule.active and rule.effect == FaultEffect.KILL_NODE
                   and rule.matches_node(name) for rule in self._rules.values())

    def _recompute_dead(self) -> None:
        """Refill ``_live`` in place: every node no active kill rule matches."""
        live = self._live
        live.clear()
        for name, handler in self._nodes.items():
            if not self._killed(name):
                live[name] = handler

    def _activate_due_faults(self, up_to_tick: int) -> None:
        while self._fault_schedule and self._fault_schedule[0][0] <= up_to_tick:
            _, _, (action, arg) = heapq.heappop(self._fault_schedule)
            if action == "activate":
                if self._rules.get(arg.rule_id) is arg:  # not cleared meanwhile
                    self._apply_rule(arg)
            else:  # revive
                for rule in self._rules.values():
                    if rule.effect == FaultEffect.KILL_NODE and rule.node == arg:
                        rule.active = False
                self._recompute_dead()

    # -- stepping ---------------------------------------------------------

    def step(self) -> list[Envelope]:
        """Advance to the next event tick and deliver everything due there.

        With an empty queue the clock advances one tick. Node handlers run
        synchronously; their sends land on later ticks. If a handler raises,
        the exception propagates and the tick's undelivered events stay
        queued at this tick, for the next step to deliver.
        """
        if not self._ticks:
            self.now += 1
            self._activate_due_faults(self.now)
            return []
        tick = heapq.heappop(self._ticks)
        if self._fault_schedule:
            self._activate_due_faults(tick)
        self.now = tick
        live, timers, buckets = self._live, self._timers, self._buckets
        trace_extend = self._trace.extend
        outer = self._ctx_maintenance
        delivered: list[Envelope] = []
        events = iter(buckets.pop(tick))
        # Handlers run under their event's flag; the caller's is restored after.
        try:
            for event in events:
                if type(event) is Envelope:
                    destination = event.destination
                    handler = live.get(destination, _GONE)
                    if handler is _GONE:
                        self._fail_with_network_error(event)
                        continue
                    kind = event.kind
                    trace_extend((
                        tick, event.message_id or 0, event.source, destination,
                        kind, event.method, event.path,
                        (event.status or DELIVERED) if kind == RESPONSE else DELIVERED))
                    delivered.append(event)
                    if handler is not None:
                        self._ctx_maintenance = event.maintenance
                        handler(event)
                elif type(event) is int:
                    entry = timers.pop(event, None)
                    if entry is None:
                        continue  # cancelled
                    fn, maintenance, node = entry
                    if node in live:
                        self._ctx_maintenance = maintenance
                        fn()
                else:  # a periodic loop: (fn, node, interval)
                    fn, node, interval = event
                    if node in live:
                        self._ctx_maintenance = True
                        fn()
                        self._enqueue(tick + interval, event)
        except BaseException:
            # The rest of the tick goes back on the queue, undelivered: every
            # other event lands at least one tick ahead, so nothing else can
            # have landed on this tick, and the next step delivers it here.
            for event in events:
                self._enqueue(tick, event)
            raise
        finally:
            self._ctx_maintenance = outer
            # Counted once per tick, so a handler reads the count at the tick's start.
            self.delivered += len(delivered)
        return delivered

    def advance_to(self, tick: int) -> None:
        """Run any earlier events, then move the clock to ``tick``."""
        while self._ticks and self._ticks[0] < tick:
            self.step()
        if tick > self.now:
            self.now = tick
        if self._fault_schedule:
            self._activate_due_faults(self.now)

    def run_until_idle(self, budget: int = 10_000) -> bool:
        """Step until no non-maintenance work is pending. Returns False if
        the tick budget ran out first."""
        deadline = self.now + budget
        while any(self._pending_work()):
            if self.now >= deadline:
                return False
            self.step()
        return True

    @property
    def pending_external(self) -> int:
        """Queued work that is not maintenance, counted from the queue itself.

        While a tick is being delivered, the messages of the rest of that
        tick are no longer counted: :meth:`step` has taken its bucket off the
        queue.
        """
        return sum(self._pending_work())

    def _pending_work(self) -> Iterator[int]:
        """Yield 1 per queued message and per pending one-shot timer that is
        not flagged maintenance. A cancelled or fired timer has left
        ``_timers``; a periodic loop is always maintenance."""
        for _, maintenance, _ in self._timers.values():
            if not maintenance:
                yield 1
        for bucket in self._buckets.values():
            for event in bucket:
                if type(event) is Envelope and not event.maintenance:
                    yield 1

    @property
    def sent(self) -> int:
        """Messages sent so far, dropped and failed ones included. Every send,
        and every network-error reply the kernel makes, takes exactly one
        message id."""
        return self._next_message_id - 1

    @property
    def queue_depth(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def next_event_tick(self) -> Optional[int]:
        return self._ticks[0] if self._ticks else None

    # -- internals --------------------------------------------------------

    def _fail_with_network_error(self, env: Envelope) -> None:
        self._record(env, FAILED)
        self.failed += 1
        if env.kind != REQUEST:
            return
        self._awaiting_reply.discard(env.message_id)
        if env.source not in self._live:
            return
        reply = Envelope.response(env, NETWORK_ERROR_STATUS, body={"error": "NetworkError"})
        reply.message_id = self._next_message_id
        self._next_message_id += 1
        reply.maintenance = env.maintenance
        self._enqueue(self.now + BASE_LATENCY_TICKS, reply)

    def _enqueue(self, tick: int, event: object) -> None:
        """Append ``event`` to the bucket of ``tick``."""
        bucket = self._buckets.get(tick)
        if bucket is None:
            bucket = self._buckets[tick] = []
            heapq.heappush(self._ticks, tick)
        bucket.append(event)

    def _record(self, env: Envelope, status: str) -> None:
        self._trace.extend((
            self.now, env.message_id or 0, env.source, env.destination,
            env.kind, env.method, env.path, status))

    # -- trace export -----------------------------------------------------

    def write_trace(self, path: str, fmt: str = "text") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(record.to_json() if fmt == "ndjson" else record.line())
                fh.write("\n")


# -- fault scripts ---------------------------------------------------------

def parse_fault_script(text: str) -> list[tuple[int, str, FaultRule | str]]:
    """Parse a line-based fault script: ``tick action args``.

    Actions: ``kill <node>``, ``revive <node>``, ``drop <src> <dst>``,
    ``partition <a> <b>``, ``delay <src> <dst> <ticks>``. ``revive`` undoes
    the kill rules whose node pattern matches exactly.
    """
    out: list[tuple[int, str, FaultRule | str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            tick = int(parts[0])
            action = parts[1]
            if action == "kill":
                entry: FaultRule | str = FaultRule(FaultEffect.KILL_NODE, node=parts[2])
            elif action == "revive":
                entry = parts[2]
            elif action == "drop":
                entry = FaultRule(FaultEffect.DROP, source=parts[2], destination=parts[3])
            elif action == "partition":
                entry = FaultRule(FaultEffect.PARTITION, source=parts[2], destination=parts[3])
            elif action == "delay":
                entry = FaultRule(FaultEffect.DELAY, source=parts[2], destination=parts[3],
                                  delay_ticks=int(parts[4]))
            else:
                raise ValueError(f"unknown action {action!r}")
            if len(parts) > (5 if action == "delay" else 4 if action in ("drop", "partition") else 3):
                raise ValueError("trailing arguments")
        except (IndexError, ValueError, InvalidFaultRule) as exc:
            raise FaultScriptError(f"line {lineno}: {exc}") from exc
        out.append((tick, action, entry))
    return out


def apply_fault_schedule(sim: Simulator, schedule: list[tuple[int, str, FaultRule | str]]) -> None:
    """Install a parsed fault script onto the simulator's clock."""
    for tick, action, entry in schedule:
        if action == "revive":
            sim.schedule_revive(tick, entry)  # type: ignore[arg-type]
        else:
            sim.schedule_fault(tick, entry)  # type: ignore[arg-type]


def canonical_json(body: Body) -> str:
    """Stable serialization for bodies: sorted keys, no whitespace."""
    return _CANONICAL.encode(body)
