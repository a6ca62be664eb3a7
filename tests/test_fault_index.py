"""Send fates and node liveness against references built from the rules.

``send`` only looks at the DROP, PARTITION and DELAY rules in force;
KILL_NODE rules act through the kernel's live-node map. The references
below read neither. The script keeps its own list of the rules in force, in
the order they came into force. A rule comes into force when it is applied:
injected, or reached at its scheduled tick. A REVIVE is in force for no
time: applied, it lifts the kill rules in force whose node pattern equals
its own. So is a HEAL: it lifts the link rules in force whose pair of
patterns equals its own, a PARTITION's in either order. A node is up when
it is registered and no kill rule in force matches it. A send's fate is the
decision ``send`` used to make: two scans over the link rules in force, the
first for a drop or partition, the second summing delays. After any
sequence of injects, revives, heals and scheduled faults, nodes added late,
timers and calls (also on killed nodes), and kills, revives, heals and sends
made by handlers, timers and call timeouts in the middle of a tick, every
send must meet the fate the reference predicts (dropped, failed, or
delivered on a given tick), ``node_alive`` must agree with the reference,
the kernel's rules in force must be the script's, in the same order, and
``step()`` must deliver exactly the events whose node was up when their
turn came. A call's deadline is such an event, on its source, unless a
reply delivered before it ended the call.
"""

from __future__ import annotations

import heapq
from typing import Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssaas_sim.simwire import (
    BASE_LATENCY_TICKS,
    DROPPED,
    FAILED,
    REQUEST,
    RESPONSE,
    Envelope,
    FaultEffect,
    FaultRule,
    Simulator,
)

NODES = ("a-1", "a-2", "b-1", "reg")
LATE = ("a-3", "b-2")  # added by an "add" op, if at all
DESTINATIONS = NODES + LATE + ("ghost",)
PATTERNS = ("*", "a-*", "b-1", "?-1", "reg", "c*")
LINK_EFFECTS = (FaultEffect.DROP, FaultEffect.PARTITION, FaultEffect.DELAY)


def reference_fate(now: int, alive: frozenset[str], links: list[FaultRule], source: str,
                   destination: str) -> tuple[str, Optional[int]]:
    """("dropped" | "failed" | "queued", delivery tick) by the old double scan
    over the link rules in force."""
    if source not in alive:
        return DROPPED, None
    if destination not in alive:
        return FAILED, None
    latency = BASE_LATENCY_TICKS
    for rule in links:
        if rule.effect in (FaultEffect.DROP, FaultEffect.PARTITION) and \
                rule.matches_pair(source, destination):
            return DROPPED, None
    for rule in links:
        if rule.effect is FaultEffect.DELAY and rule.matches_pair(source, destination):
            latency += rule.delay_ticks
    return "queued", now + latency


def observed_fate(sim: Simulator, env: Envelope, mid: int) -> tuple[str, Optional[int]]:
    last = sim.records[-1] if sim.records else None
    if last is not None and last.message_id == mid:
        return last.status, None
    ticks = [tick for tick, bucket in sim._buckets.items()
             if any(item is env for item in bucket)]
    assert len(ticks) == 1
    return "queued", ticks[0]


rules = st.one_of(
    st.builds(lambda effect, src, dst, delay: FaultRule(
        effect, source=src, destination=dst,
        delay_ticks=delay if effect is FaultEffect.DELAY else 0),
        st.sampled_from(LINK_EFFECTS), st.sampled_from(PATTERNS),
        st.sampled_from(PATTERNS), st.integers(1, 4)),
    st.builds(lambda effect, node: FaultRule(effect, node=node),
              st.sampled_from((FaultEffect.KILL_NODE, FaultEffect.REVIVE)),
              st.sampled_from(PATTERNS)),
    st.builds(lambda src, dst: FaultRule(FaultEffect.HEAL, source=src, destination=dst),
              st.sampled_from(PATTERNS), st.sampled_from(PATTERNS)),
)

# What a handler or a timer does when it runs.
actions = st.one_of(
    st.none(),
    st.tuples(st.just("kill"), st.sampled_from(PATTERNS)),
    st.tuples(st.just("revive"), st.integers(0, 20)),
    st.tuples(st.just("lift"), st.sampled_from(PATTERNS)),
    st.tuples(st.just("heal"), st.integers(0, 20)),
    st.tuples(st.just("send"), st.sampled_from(DESTINATIONS)),
)

ops = st.one_of(
    st.tuples(st.just("inject"), rules),
    st.tuples(st.just("revive"), st.integers(0, 20)),
    st.tuples(st.just("heal"), st.integers(0, 20), st.booleans()),
    st.tuples(st.just("schedule"), st.integers(0, 6), rules),
    st.tuples(st.just("later"), st.integers(0, 6), st.sampled_from(PATTERNS)),
    st.tuples(st.just("advance"), st.integers(0, 4)),
    st.tuples(st.just("step")),
    st.tuples(st.just("add"), st.sampled_from(LATE)),
    st.tuples(st.just("timer"), st.sampled_from(NODES), st.integers(1, 4), actions),
    st.tuples(st.just("call"), st.sampled_from(NODES), st.sampled_from(DESTINATIONS),
              st.integers(1, 4), actions),
    st.tuples(st.just("send"), st.sampled_from(NODES), st.sampled_from(DESTINATIONS),
              actions),
)


def heals(heal: FaultRule, link: FaultRule) -> bool:
    """Does ``heal`` lift ``link``? Its pair of patterns is one of the
    link's: (source, destination), and for a PARTITION also the reverse."""
    pairs = [(link.source, link.destination)]
    if link.effect is FaultEffect.PARTITION:
        pairs.append((link.destination, link.source))
    return (heal.source, heal.destination) in pairs


class Script:
    """A simulator whose handlers and timers run drawn actions and log, for
    every event they run, the reference's live set before and after. Every
    fault goes through the script, which keeps the rules in force and its
    own copy of the fault schedule."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.log: list[tuple[object, frozenset[str], frozenset[str]]] = []
        self.timers: list[tuple[list, str]] = []  # (handle, node) per timer armed
        self.calls: dict[int, tuple[str, object]] = {}  # message id -> (source, action)
        self.names: set[str] = set()  # the nodes registered
        self.kills: list[FaultRule] = []  # kill rules in force, in that order
        self.links: list[FaultRule] = []  # link rules in force, in that order
        self.schedule: list[tuple[int, int, FaultRule]] = []  # (tick, seq, rule)
        self.seq = 0
        for name in NODES:
            self.add_node(name)

    def alive(self) -> frozenset[str]:
        """Registered, and matched by no kill rule in force."""
        return frozenset(name for name in self.names if not any(
            rule.matches_node(name) for rule in self.kills))

    def _apply(self, rule: FaultRule) -> None:
        if rule.effect is FaultEffect.KILL_NODE:
            self.kills.append(rule)
        elif rule.effect is FaultEffect.REVIVE:
            self.kills = [kill for kill in self.kills if kill.node != rule.node]
        elif rule.effect is FaultEffect.HEAL:
            self.links = [link for link in self.links if not heals(rule, link)]
        else:
            self.links.append(rule)

    def inject(self, rule: FaultRule) -> None:
        self.sim.inject(rule)
        self._apply(rule)

    def revive(self, k: int) -> None:
        """Revive the node pattern of the ``k``-th kill rule in force."""
        if self.kills:
            self.inject(FaultRule(FaultEffect.REVIVE, node=self.kills[k % len(self.kills)].node))

    def heal(self, k: int, flip: bool = False) -> None:
        """Heal the pair of the ``k``-th link rule in force, or its reverse."""
        if self.links:
            link = self.links[k % len(self.links)]
            ends = (link.destination, link.source) if flip else (link.source, link.destination)
            self.inject(FaultRule(FaultEffect.HEAL, *ends))

    def add_node(self, name: str) -> None:
        """Add ``name``, unless it is there already."""
        if name not in self.names:
            self.sim.add_node(name, self._handler(name),
                              lambda mid: self._run(mid, name, self.calls[mid][1]))
            self.names.add(name)

    def schedule_fault(self, tick: int, rule: FaultRule) -> None:
        self.sim.schedule_fault(tick, rule)
        self.seq += 1
        heapq.heappush(self.schedule, (tick, self.seq, rule))

    def fire_due(self, tick: int) -> None:
        """Apply the scheduled rules due by ``tick``; called just before the
        kernel fires them."""
        while self.schedule and self.schedule[0][0] <= tick:
            self._apply(heapq.heappop(self.schedule)[2])

    def advance(self, ticks: int) -> None:
        """``advance_to``, one checked step at a time."""
        sim = self.sim
        target = sim.now + ticks
        while (tick := sim.next_event_tick()) is not None and tick < target:
            self.step()
        self.fire_due(max(sim.now, target))
        sim.advance_to(target)

    def _handler(self, name: str):
        def handler(env: Envelope) -> None:
            self._run(env, name, env.body if env.kind is REQUEST else None)
        return handler

    def _run(self, event: object, node: str, action) -> None:
        before = self.alive()
        if action is not None:
            kind, arg = action
            if kind == "kill":
                self.inject(FaultRule(FaultEffect.KILL_NODE, node=arg))
            elif kind == "lift":
                self.inject(FaultRule(FaultEffect.REVIVE, node=arg))
            elif kind == "revive":
                self.revive(arg)
            elif kind == "heal":
                self.heal(arg)
            else:
                self.send(node, arg, None)
        self.log.append((event, before, self.alive()))

    def send(self, source: str, destination: str, action) -> None:
        sim = self.sim
        want = reference_fate(sim.now, self.alive(), self.links, source, destination)
        env = Envelope.request(source, destination, "/x", body=action)
        mid = sim.send(env)
        assert observed_fate(sim, env, mid) == want

    def call(self, source: str, destination: str, wait: int, action) -> None:
        """A call whose timeout runs ``action``; its request carries none."""
        sim = self.sim
        want = reference_fate(sim.now, self.alive(), self.links, source, destination)
        env = Envelope.request(source, destination, "/call")
        mid = sim.call(env, wait)
        self.calls[mid] = (source, action)
        assert observed_fate(sim, env, mid) == want

    def set_timer(self, node: str, delay: int, action) -> None:
        box: list[list] = []
        handle = self.sim.set_timer(node, delay, lambda: self._run(box[0], node, action))
        box.append(handle)
        self.timers.append((handle, node))

    def step(self) -> None:
        """Step once; what was delivered or fired must be exactly the events
        whose node the reference had up at their turn."""
        sim = self.sim
        tick = sim.next_event_tick()
        bucket = list(sim._buckets[tick]) if tick is not None else []
        pending_calls = set(sim._calls)
        self.log.clear()
        self.fire_due(tick if tick is not None else sim.now + 1)
        delivered = sim.step()
        after = self.alive()
        expected: list[Envelope] = []
        state: Optional[frozenset[str]] = None  # live set between two runs
        ran = 0
        for event in bucket:
            if type(event) is int:  # a call's deadline
                if event not in pending_calls:
                    continue  # a reply ended the call
                node = self.calls[event][0]
            elif type(event) is list:  # a timer's entry; the script cancels none
                node = next(node for handle, node in self.timers if handle is event)
            else:
                node = event.destination
            if ran < len(self.log) and self.log[ran][0] == event:
                _, before, state_after = self.log[ran]
                ran += 1
                assert state is None or before == state
                assert node in before
                state = state_after
                if type(event) is Envelope:
                    expected.append(event)
                    if event.kind is RESPONSE:
                        pending_calls.discard(event.correlation_id)
            else:
                now = state if state is not None else \
                    self.log[ran][1] if ran < len(self.log) else after
                assert node not in now
        assert ran == len(self.log)
        assert [id(e) for e in delivered] == [id(e) for e in expected]


# In flight to b-1 at tick 1: a request and a timer; a handler earlier in
# that tick revives (first) or kills (second) b-1.
MID_TICK_REVIVE = [("send", "a-1", "reg", ("revive", 0)), ("send", "a-1", "b-1", None),
                   ("timer", "b-1", 1, None),
                   ("inject", FaultRule(FaultEffect.KILL_NODE, node="b-1")), ("step",)]
MID_TICK_KILL = [("send", "a-1", "reg", ("kill", "b-1")), ("send", "a-1", "b-1", None),
                 ("timer", "b-1", 1, None), ("step",)]
# a-3 joins under a kill of a-*; an unrelated kill and revive must leave it down.
LATE_NODE_UNDER_KILL = [("inject", FaultRule(FaultEffect.KILL_NODE, node="a-*")),
                        ("add", "a-3"),
                        ("inject", FaultRule(FaultEffect.KILL_NODE, node="b-1")),
                        ("revive", 1), ("send", "reg", "a-3", None)]
# Calls to a dead a-3 and to b-1, which a handler kills first thing at tick
# 1. There a-2's call is ended by its network-error reply before its
# deadline, the reply to b-1's call fails, b-1's deadlines (ticks 1 and 2)
# are skipped, and a-1's call to b-1 times out.
CALLS_MID_TICK_KILL = [("send", "a-1", "reg", ("kill", "b-1")), ("add", "a-3"),
                       ("inject", FaultRule(FaultEffect.KILL_NODE, node="a-3")),
                       ("call", "a-2", "a-3", 1, ("kill", "reg")),
                       ("call", "b-1", "a-3", 2, ("kill", "reg")),
                       ("call", "b-1", "a-2", 1, ("kill", "reg")),
                       ("call", "a-1", "b-1", 1, None), ("step",), ("step",)]
# A handler at tick 1 heals a-* -> b-1, the pair of the first link rule: the
# delay on it and the partition declared b-1 -> a-* go, the drop of
# b-1 -> a-* stays.
HEAL_MID_TICK = [("inject", FaultRule(FaultEffect.DELAY, source="a-*", destination="b-1",
                                      delay_ticks=2)),
                 ("inject", FaultRule(FaultEffect.PARTITION, source="b-1", destination="a-*")),
                 ("inject", FaultRule(FaultEffect.DROP, source="b-1", destination="a-*")),
                 ("send", "reg", "reg", ("heal", 0)), ("step",),
                 ("send", "a-1", "b-1", None), ("send", "b-1", "a-2", None)]

# Under a DROP of every pair, a-1 and b-1 killed: a-2's send to b-1 fails at
# its dead destination before any link rule drops it, and a-1's send is
# dropped at its dead source before its dead destination fails it.
DEAD_ENDS_UNDER_A_DROP = [("inject", FaultRule(FaultEffect.DROP)),
                          ("inject", FaultRule(FaultEffect.KILL_NODE, node="?-1")),
                          ("send", "a-2", "b-1", None), ("send", "a-1", "b-1", None)]


@settings(max_examples=300, deadline=None)
@given(st.lists(ops, max_size=40))
@example(MID_TICK_REVIVE)
@example(MID_TICK_KILL)
@example(LATE_NODE_UNDER_KILL)
@example(HEAL_MID_TICK)
@example(CALLS_MID_TICK_KILL)
@example(DEAD_ENDS_UNDER_A_DROP)
def test_send_fate_matches_full_rule_scan(script):
    run = Script()
    sim = run.sim
    for op in script:
        kind = op[0]
        if kind == "inject":
            run.inject(op[1])
        elif kind == "revive":
            run.revive(op[1])
        elif kind == "heal":
            run.heal(*op[1:])
        elif kind == "schedule":
            run.schedule_fault(sim.now + op[1], op[2])
        elif kind == "later":
            run.schedule_fault(sim.now + op[1], FaultRule(FaultEffect.REVIVE, node=op[2]))
        elif kind == "advance":
            run.advance(op[1])
        elif kind == "step":
            run.step()
        elif kind == "add":
            run.add_node(op[1])
        elif kind == "timer":
            run.set_timer(*op[1:])
        elif kind == "call":
            run.call(*op[1:])
        else:
            run.send(*op[1:])
        assert sim._kills == run.kills
        assert sim._link_rules == run.links
        alive = run.alive()
        for name in DESTINATIONS:
            assert sim.node_alive(name) == (name in alive)


def test_no_link_rule_means_nothing_scanned():
    sim = Simulator()
    for name in NODES:
        sim.add_node(name, lambda env: None)
    sim.schedule_fault(1, FaultRule(FaultEffect.KILL_NODE, node="b-1"))
    sim.inject(FaultRule(FaultEffect.KILL_NODE, node="reg"))
    assert sim._link_rules == []
    delay = FaultRule(FaultEffect.DELAY, source="a-*", destination="*", delay_ticks=2)
    sim.inject(delay)
    assert sim._link_rules == [delay]
    sim.inject(FaultRule(FaultEffect.HEAL, source="a-*", destination="*"))
    assert sim._link_rules == []
