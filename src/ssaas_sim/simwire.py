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

import json
from collections.abc import Sequence
from fnmatch import fnmatchcase
from heapq import heappop, heappush
from itertools import count, repeat
from typing import Any, Callable, Iterator, NamedTuple, Optional

Body = Any  # maps, lists, strings, ints, booleans, None

BASE_LATENCY_TICKS = 1

# Synthesized response status for sends that never reached a live handler.
NETWORK_ERROR_STATUS = "network-error"


class SimwireError(Exception):
    """Base class for transport errors."""


class UnknownNode(SimwireError):
    pass


class InvalidEnvelope(SimwireError):
    pass


class InvalidFaultRule(SimwireError):
    pass


class FaultScriptError(SimwireError):
    pass


REQUEST = "REQUEST"
RESPONSE = "RESPONSE"


class FaultEffect:
    DROP = "DROP"
    PARTITION = "PARTITION"
    DELAY = "DELAY"
    KILL_NODE = "KILL_NODE"
    REVIVE = "REVIVE"
    HEAL = "HEAL"


class Envelope:
    """One message on the wire.

    ``message_id`` is assigned by the simulator at send time and strictly
    increases in send order. A RESPONSE echoes its request's id in
    ``correlation_id`` and carries its status code in ``status``. The send
    also sets ``maintenance``, the flag its receiving handler runs under.
    The chassis builds its envelopes positionally, in ``__init__``'s order.
    """

    __slots__ = ("source", "destination", "kind", "path", "method", "status", "body",
                 "correlation_id", "message_id", "maintenance")

    def __init__(self, source: str, destination: str, kind: str, path: str,
                 method: str = "GET", status: Optional[str] = None, body: Body = None,
                 correlation_id: Optional[int] = None) -> None:
        self.source = source
        self.destination = destination
        self.kind = kind
        self.path = path
        self.method = method
        self.status = status
        self.body = body
        self.correlation_id = correlation_id
        self.message_id: Optional[int] = None
        self.maintenance = False

    @staticmethod
    def request(source: str, destination: str, path: str, method: str = "GET",
                body: Body = None) -> "Envelope":
        return Envelope(source, destination, REQUEST, path, method, None, body)

    @staticmethod
    def response(to: "Envelope", status: str, body: Body = None) -> "Envelope":
        return Envelope(to.destination, to.source, RESPONSE, to.path, to.method,
                        status, body, to.message_id)


class FaultRule:
    """A fault selector: DROP and DELAY match (source, destination),
    PARTITION matches either direction, KILL_NODE and REVIVE match node
    names only. A REVIVE lifts the kill rules in force with its node
    pattern, a HEAL the link rules in force with its pair of patterns (a
    PARTITION's in either order). A rule is a value no simulator writes to,
    so one parsed script runs on any number of simulators."""

    def __init__(self, effect: str, source: str = "*", destination: str = "*",
                 node: str = "*", delay_ticks: int = 0) -> None:
        if getattr(FaultEffect, effect, None) != effect:  # each effect's value is its name
            raise InvalidFaultRule(f"unknown effect: {effect!r}")
        if delay_ticks < 0:
            raise InvalidFaultRule("delay_ticks must be >= 0")
        if effect == FaultEffect.DELAY and delay_ticks <= 0:
            raise InvalidFaultRule("DELAY requires delay_ticks > 0")
        self.effect = effect
        self.source = source
        self.destination = destination
        self.node = node
        self.delay_ticks = delay_ticks

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
        return canonical_json(self._asdict())


_new_tuple = tuple.__new__  # builds a MessageRecord without _make's overhead

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


class Simulator:
    """Single-threaded event loop over logical ticks.

    All node and simulator state is mutated only inside :meth:`step`.
    Sends made from within a handler are enqueued and delivered on later
    ticks; base latency is one tick unless a DELAY rule matches.

    Every event lands at least one tick ahead, so the queue is a FIFO bucket
    per tick under a heap of the distinct ticks: send order within a tick
    is bucket order. A new tick's first event makes its bucket and pushes
    the tick on the heap. The three hot paths, :meth:`send`, :meth:`call`
    for a deadline and :meth:`step` when it re-arms a loop, do so inline;
    the rest enter through :meth:`_enqueue`.

    A bucket holds four kinds of event: an :class:`Envelope` to deliver,
    a call's deadline marker (:meth:`call`; its request's message id, a
    positive int), the id of a one-shot timer (:meth:`set_timer`; a
    negative int), or a periodic loop's ``(fn, node, interval)`` entry
    (:meth:`every`), which :meth:`step` re-arms as soon as ``fn`` returns.
    The delivered reply that ends a call takes the call's marker out of its
    bucket, so only the markers of calls still pending are stepped; a
    bucket emptied so is still stepped at its tick.

    ``_nodes`` maps every registered node to its handler: :meth:`add_node`
    is the only way in. ``_live`` maps each node no kill rule in force
    matches to its handler, so a send or a delivery checks liveness with
    one lookup. A node added while a kill rule in force matches it starts
    down. Kills and lifts edit it in place: a handler may change it for a
    later event of the tick.

    ``records`` is the delivery trace, a read-only :class:`WireTrace` over
    the flat list of fields that :meth:`step` and :meth:`_record` extend.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.now = 0
        self._nodes: dict[str, Callable[[Envelope], None]] = {}
        self._live: dict[str, Callable[[Envelope], None]] = {}
        self._revive_hooks: dict[str, Callable[[], None]] = {}
        # The trace, flat: see WireTrace. Only step and _record extend it.
        self._trace: list = []
        self.records = WireTrace(self._trace)
        self.dropped = 0
        self.failed = 0
        self._buckets: dict[int, list] = {}  # one entry per event, see above
        self._ticks: list[int] = []  # heap of the keys of _buckets
        self._fault_schedule: list[tuple[int, int, FaultRule]] = []  # heap of (tick, seq, rule)
        self._fault_seq = count()
        # The rules in force, in the order they came into force. A send
        # consults only _link_rules, whose order never changes its fate.
        self._kills: list[FaultRule] = []
        self._link_rules: list[FaultRule] = []
        self._awaiting_reply: set[int] = set()
        # Pending timers by id; cancelling one removes it here and leaves
        # its queue entry behind as a tombstone.
        self._timers: dict[int, tuple[Callable[[], None], bool, str]] = {}
        # Pending calls by message id: the request, and the bucket holding its deadline
        self._calls: dict[int, tuple[Envelope, list]] = {}
        self._timeouts: dict[str, Callable[[int], None]] = {}  # by node
        self._next_message_id = 1
        self._next_timer_id = -1  # timer ids count down, so none is a message id
        self._ctx_maintenance = False

    # -- nodes ------------------------------------------------------------

    def add_node(self, name: str, handler: Callable[[Envelope], None],
                 on_timeout: Optional[Callable[[int], None]] = None) -> None:
        """Register ``name``. ``on_timeout``, if given, runs with a call's
        message id when one of the node's calls reaches its deadline."""
        if name in self._nodes:
            raise SimwireError(f"node already registered: {name}")
        self._nodes[name] = handler
        if on_timeout is not None:
            self._timeouts[name] = on_timeout
        if not self._killed(name):
            self._live[name] = handler

    def node_alive(self, name: str) -> bool:
        return name in self._live

    def on_revive(self, name: str, fn: Callable[[], None]) -> None:
        """Run ``fn`` each time ``name`` goes from down to live."""
        if name not in self._nodes:
            raise UnknownNode(f"unknown node: {name}")
        self._revive_hooks[name] = fn

    # -- sending ----------------------------------------------------------

    def send(self, env: Envelope, maintenance: Optional[bool] = None) -> int:
        """Schedule ``env`` for delivery; returns the assigned message id.

        One path, in this order: an unknown source raises, and so does a
        RESPONSE that answers no REQUEST awaiting its reply; the numbered
        message is then dropped at a dead source, failed at a dead
        destination, and dropped or delayed by any link rule in force.
        """
        source, destination = env.source, env.destination
        live = self._live
        if source not in live and source not in self._nodes:
            raise UnknownNode(f"unknown source node: {source}")
        kind = env.kind
        if kind == RESPONSE:
            try:
                self._awaiting_reply.remove(env.correlation_id)
            except KeyError:
                raise InvalidEnvelope(
                    "RESPONSE must answer a REQUEST still awaiting its reply") from None
        mid = self._next_message_id
        self._next_message_id = mid + 1
        env.message_id = mid
        env.maintenance = self._ctx_maintenance if maintenance is None else maintenance
        if source not in live:
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
                if rule.matches_pair(source, destination):
                    if rule.effect != FaultEffect.DELAY:
                        self._record(env, DROPPED)
                        self.dropped += 1
                        return mid
                    tick += rule.delay_ticks
        if kind == REQUEST:
            self._awaiting_reply.add(mid)
        bucket = self._buckets.get(tick)
        if bucket is None:  # a new tick: its bucket, and its key on the heap
            self._buckets[tick] = [env]
            heappush(self._ticks, tick)
        else:
            bucket.append(env)
        return mid

    def call(self, env: Envelope, wait: int) -> int:
        """Send the request ``env`` with a deadline ``wait`` ticks ahead and
        return its message id. A reply delivered to the live source ends the
        call and takes its deadline's marker out of the queue. At the
        deadline a call still pending ends, and the source's timeout handler
        (:meth:`add_node`) runs with the id under the request's flag, unless
        the source is down. The deadline's marker is the id itself, appended
        to its tick's bucket in the slot a timer set after the send would
        take; the call's record keeps that bucket."""
        if env.kind != REQUEST:
            raise InvalidEnvelope("a call sends a REQUEST")
        if wait < 1:
            raise SimwireError("call wait must be >= 1 tick")
        if env.source not in self._timeouts:
            raise UnknownNode(f"no timeout handler for node: {env.source}")
        mid = self.send(env)
        tick = self.now + wait
        bucket = self._buckets.get(tick)
        if bucket is None:
            bucket = self._buckets[tick] = []
            heappush(self._ticks, tick)
        bucket.append(mid)
        self._calls[mid] = (env, bucket)
        return mid

    def set_timer(self, node: str, delay: int, fn: Callable[[], None],
                  maintenance: Optional[bool] = None) -> int:
        """Schedule ``fn`` to run on ``node`` after ``delay`` ticks.

        Timers are scheduler internals, not wire traffic: they never appear
        in the trace and are skipped if the node has been killed. The
        chassis sets none: a call's deadline is kept by :meth:`call`.
        """
        if node not in self._nodes:
            raise UnknownNode(f"unknown node: {node}")
        if delay < 1:
            raise SimwireError("timer delay must be >= 1 tick")
        if maintenance is None:
            maintenance = self._ctx_maintenance
        tid = self._next_timer_id
        self._next_timer_id -= 1
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

    def inject(self, rule: FaultRule) -> None:
        """Apply a fault rule now; already-enqueued deliveries keep the
        latency and drop decisions made when they were scheduled."""
        self._apply_rule(rule)

    def schedule_fault(self, tick: int, rule: FaultRule) -> None:
        """Apply ``rule`` when the clock reaches ``tick``. Rules due on one
        tick apply in the order they were scheduled."""
        heappush(self._fault_schedule, (tick, next(self._fault_seq), rule))

    def _apply_rule(self, rule: FaultRule) -> None:
        """Put ``rule`` in force; a REVIVE or a HEAL lifts instead."""
        effect = rule.effect
        if effect == FaultEffect.KILL_NODE:
            self._kills.append(rule)
            for name in self._nodes:
                if rule.matches_node(name):
                    self._live.pop(name, None)
        elif effect == FaultEffect.REVIVE:
            self._kills = [kill for kill in self._kills if kill.node != rule.node]
            self._lift()
        elif effect == FaultEffect.HEAL:
            pair, back = (rule.source, rule.destination), (rule.destination, rule.source)
            self._link_rules = [link for link in self._link_rules
                                if (ends := (link.source, link.destination)) != pair
                                and (ends != back or link.effect != FaultEffect.PARTITION)]
        else:
            self._link_rules.append(rule)

    def _killed(self, name: str) -> bool:
        """Does a kill rule in force match ``name``? A node is live iff not."""
        return any(rule.matches_node(name) for rule in self._kills)

    def _lift(self) -> None:
        """Refill ``_live`` in place from the kill rules in force; no other
        code recomputes ``_live``. Then run the revive hook of each node that
        came back, in registration order."""
        live = self._live
        was_live = live.copy()
        live.clear()
        for name, handler in self._nodes.items():
            if not self._killed(name):
                live[name] = handler
        for name in [n for n in live if n not in was_live and n in self._revive_hooks]:
            self._revive_hooks[name]()

    def _activate_due_faults(self, up_to_tick: int) -> None:
        schedule = self._fault_schedule
        while schedule and schedule[0][0] <= up_to_tick:
            self._apply_rule(heappop(schedule)[2])

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
        # The clock moves first, so a revive hook's sends carry this tick.
        tick = self.now = heappop(self._ticks)
        if self._fault_schedule:
            self._activate_due_faults(tick)
        # Most ticks only run loops: bind what every event reads, no more.
        live, buckets = self._live, self._buckets
        outer = self._ctx_maintenance
        delivered: list[Envelope] = []
        events = iter(buckets.pop(tick))
        # Handlers run under their event's flag; the caller's is restored after.
        try:
            for event in events:
                if type(event) is Envelope:
                    destination = event.destination
                    handler = live.get(destination)
                    if handler is None:
                        self._fail_with_network_error(event)
                        continue
                    kind = event.kind
                    if kind == RESPONSE:
                        status = event.status or DELIVERED
                        call = self._calls.pop(event.correlation_id, None)
                        if call is not None:  # the reply ends its call, deadline and all
                            call[1].remove(event.correlation_id)
                    else:
                        status = DELIVERED
                    self._trace.extend((tick, event.message_id, event.source, destination,
                                        kind, event.method, event.path, status))
                    delivered.append(event)
                    self._ctx_maintenance = event.maintenance
                    handler(event)
                elif type(event) is int:
                    if event > 0:  # a call's deadline, if the call is still pending
                        call = self._calls.pop(event, None)
                        if call is not None and (request := call[0]).source in live:
                            self._ctx_maintenance = request.maintenance
                            self._timeouts[request.source](event)
                        continue
                    entry = self._timers.pop(event, None)
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
                        bucket = buckets.get(tick + interval)
                        if bucket is None:
                            buckets[tick + interval] = [event]
                            heappush(self._ticks, tick + interval)
                        else:
                            bucket.append(event)
        except BaseException:
            # The rest of the tick goes back on the queue, undelivered: every
            # other event lands at least one tick ahead, so nothing else can
            # have landed on this tick, and the next step delivers it here.
            for event in events:
                self._enqueue(tick, event)
            raise
        finally:
            self._ctx_maintenance = outer
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
        if budget < 0:
            raise SimwireError(f"budget must be >= 0 ticks, got {budget}")
        deadline = self.now + budget
        while any(self._pending_work()):
            if self.now >= deadline:
                return False
            self.step()
        return True

    @property
    def pending_external(self) -> int:
        """Work that is not maintenance: queued messages, pending calls and
        pending one-shot timers, counted from the kernel's own records.

        While a tick is being delivered, the messages of the rest of that
        tick are no longer counted: :meth:`step` has taken its bucket off the
        queue.
        """
        return sum(self._pending_work())

    def _pending_work(self) -> Iterator[int]:
        """Yield 1 per queued message, per pending call and per pending
        one-shot timer that is not flagged maintenance. An answered or
        timed-out call has left ``_calls``, a cancelled or fired timer has
        left ``_timers``; a periodic loop is always maintenance."""
        for request, _ in self._calls.values():
            if not request.maintenance:
                yield 1
        for _, maintenance, _ in self._timers.values():
            if not maintenance:
                yield 1
        for bucket in self._buckets.values():
            for event in bucket:
                if type(event) is Envelope and not event.maintenance:
                    yield 1

    @property
    def delivered(self) -> int:
        """Messages delivered so far: every trace record not dropped or failed."""
        return len(self.records) - self.dropped - self.failed

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
            heappush(self._ticks, tick)
        bucket.append(event)

    def _record(self, env: Envelope, status: str) -> None:
        self._trace.extend((
            self.now, env.message_id, env.source, env.destination,
            env.kind, env.method, env.path, status))

    # -- trace export -----------------------------------------------------

    def write_trace(self, path: str, fmt: str = "text") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(record.to_json() if fmt == "ndjson" else record.line())
                fh.write("\n")


# -- fault scripts ---------------------------------------------------------

# Each script action: the effect of its rule, and the rule fields its
# arguments fill, in order.
_ACTIONS = {"kill": (FaultEffect.KILL_NODE, ("node",)),
            "revive": (FaultEffect.REVIVE, ("node",)),
            "heal": (FaultEffect.HEAL, ("source", "destination")),
            "drop": (FaultEffect.DROP, ("source", "destination")),
            "partition": (FaultEffect.PARTITION, ("source", "destination")),
            "delay": (FaultEffect.DELAY, ("source", "destination", "delay_ticks"))}


def parse_fault_script(text: str) -> list[tuple[int, FaultRule]]:
    """Parse a line-based fault script, ``tick action args`` per line, into
    ``(tick, rule)`` pairs.

    Actions: ``kill <node>``, ``revive <node>``, ``heal <src> <dst>``,
    ``drop <src> <dst>``, ``partition <a> <b>``, ``delay <src> <dst>
    <ticks>``. ``revive`` lifts the kill rules whose node pattern equals its
    own, and ``heal`` the link rules whose pair of patterns equals its own
    (a partition's in either order). Ticks and delays are read by
    :func:`read_int`, so each has one spelling: ``5``, not ``05``.
    """
    out: list[tuple[int, FaultRule]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            tick = read_int(parts[0])
            if tick < 0:
                raise ValueError("negative tick")
            action, args = parts[1], parts[2:]
            if action not in _ACTIONS:
                raise ValueError(f"unknown action {action!r}")
            effect, fields = _ACTIONS[action]
            if len(args) != len(fields):
                raise ValueError(f"{action} takes {len(fields)} argument(s), got {len(args)}")
            rule = FaultRule(effect, **{field: read_int(arg) if field == "delay_ticks"
                                        else arg for field, arg in zip(fields, args)})
        except (IndexError, ValueError, InvalidFaultRule) as exc:
            raise FaultScriptError(f"line {lineno}: {exc}") from exc
        out.append((tick, rule))
    return out


# The canonical text of a body is json.dumps(body, sort_keys=True,
# separators=(",", ":")). JSONEncoder.encode builds a new C encoder for every
# call, so canonical_json uses one built here from the same settings, as
# JSONEncoder.iterencode builds it, with the circular-reference check off
# (check_circular=False): a body is a tree.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

if json.encoder.c_make_encoder is None:  # no _json accelerator
    canonical_json = _CANONICAL.encode
else:
    _encode = json.encoder.c_make_encoder(
        None, _CANONICAL.default, json.encoder.encode_basestring_ascii, None,
        _CANONICAL.key_separator, _CANONICAL.item_separator, _CANONICAL.sort_keys,
        _CANONICAL.skipkeys, _CANONICAL.allow_nan)

    def canonical_json(body: Body) -> str:
        """Stable serialization for bodies: sorted keys, no whitespace."""
        return "".join(_encode(body, 0))


def read_int(value: object) -> int:
    """The one integer rule for input: an ``int`` that is not a ``bool``, or
    a ``str`` that is ``str()`` of its value, so no sign but ``-``, no leading
    zero, space, ``_`` or non-ASCII digit, and no ``-0``. Else ``ValueError``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and str(number := int(value)) == value:
        return number
    raise ValueError(f"not an integer: {value!r}")


# The one JSON reader for input: every integer it reads goes through read_int,
# so -0 is refused. A bad text raises ValueError (JSONDecodeError included).
read_json = json.JSONDecoder(parse_int=read_int).decode
