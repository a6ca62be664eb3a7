"""Send fates and node liveness against references built from the rules.

``send`` only looks at the DROP, PARTITION and DELAY rules, kept in
registration order; KILL_NODE rules act through the kernel's live-node map.
The references below read neither index. A node is up when it is registered
and no kill rule in force matches it. A kill rule comes into force when it
is applied (injected, or activated at its scheduled tick); clearing a kill
rule or a scheduled revive puts exactly the active kill rules in force. So
a kill rule's ``active`` flag flipped by hand counts only from the next
clear or revive on. A node added later is up iff no active kill rule
matches it; the script adds one only while no flipped flag makes the
active kill rules differ from those in force. A send's fate is the
decision ``send`` used to make: two scans over every registered rule, the
first for an active drop or partition, the second summing active delays.
After any sequence of injects, clears, scheduled faults and revives,
``active`` flags flipped by hand, nodes added late, timers (also on killed
nodes), and kills, revives and sends made by handlers and timers in the
middle of a tick, every send must meet the fate the reference predicts
(dropped, failed, or delivered on a given tick), ``node_alive`` must agree
with the reference, and ``step()`` must deliver exactly the events whose
node was up when their turn came.
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


def reference_fate(sim: Simulator, alive: frozenset[str], source: str,
                   destination: str) -> tuple[str, Optional[int]]:
    """("dropped" | "failed" | "queued", delivery tick) by the old double scan."""
    if source not in alive:
        return DROPPED, None
    if destination not in alive:
        return FAILED, None
    latency = BASE_LATENCY_TICKS
    for rule in sim._rules.values():
        if not rule.active:
            continue
        if rule.effect in (FaultEffect.DROP, FaultEffect.PARTITION) and \
                rule.matches_pair(source, destination):
            return DROPPED, None
    for rule in sim._rules.values():
        if rule.active and rule.effect is FaultEffect.DELAY and \
                rule.matches_pair(source, destination):
            latency += rule.delay_ticks
    return "queued", sim.now + latency


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
    st.builds(lambda node: FaultRule(FaultEffect.KILL_NODE, node=node),
              st.sampled_from(PATTERNS)),
)

# What a handler or a timer does when it runs.
actions = st.one_of(
    st.none(),
    st.tuples(st.just("kill"), st.sampled_from(PATTERNS)),
    st.tuples(st.just("revive"), st.integers(0, 20)),
    st.tuples(st.just("send"), st.sampled_from(DESTINATIONS)),
)

ops = st.one_of(
    st.tuples(st.just("inject"), rules),
    st.tuples(st.just("clear"), st.integers(0, 20)),
    st.tuples(st.just("schedule"), st.integers(0, 6), rules),
    st.tuples(st.just("revive"), st.integers(0, 6), st.sampled_from(PATTERNS)),
    st.tuples(st.just("advance"), st.integers(0, 4)),
    st.tuples(st.just("step")),
    st.tuples(st.just("toggle"), st.integers(0, 20)),
    st.tuples(st.just("add"), st.sampled_from(LATE)),
    st.tuples(st.just("timer"), st.sampled_from(NODES), st.integers(1, 4), actions),
    st.tuples(st.just("send"), st.sampled_from(NODES), st.sampled_from(DESTINATIONS),
              actions),
)


class Script:
    """A simulator whose handlers and timers run drawn actions and log, for
    every event they run, the reference's live set before and after. Every
    fault goes through the script, which keeps the kill rules in force and
    its own copy of the fault schedule."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.ids: list[int] = []
        self.log: list[tuple[object, frozenset[str], frozenset[str]]] = []
        self.timer_nodes: dict[int, str] = {}
        self.in_force: set[int] = set()  # ids of the kill rules in force
        self.schedule: list[tuple[int, int, str, object]] = []
        self.seq = 0
        for name in NODES:
            self.sim.add_node(name, self._handler(name))

    def alive(self) -> frozenset[str]:
        """Registered, and matched by no kill rule in force."""
        rules = self.sim._rules
        return frozenset(name for name in DESTINATIONS if name in self.sim.nodes and not any(
            rules[rid].matches_node(name) for rid in self.in_force))

    def _enforce_active_kills(self) -> None:
        self.in_force = {rid for rid, rule in self.sim._rules.items()
                         if rule.active and rule.effect is FaultEffect.KILL_NODE}

    def inject(self, rule: FaultRule) -> None:
        rid = self.sim.inject(rule)
        self.ids.append(rid)
        if rule.effect is FaultEffect.KILL_NODE:
            self.in_force.add(rid)

    def clear(self, rid: int) -> None:
        kill = self.sim._rules[rid].effect is FaultEffect.KILL_NODE
        self.sim.clear(rid)
        if kill:
            self._enforce_active_kills()

    def add_node(self, name: str) -> None:
        """Add ``name``, unless it is there already or a flipped flag makes
        the active kill rules differ from those in force."""
        active = {rid for rid, rule in self.sim._rules.items()
                  if rule.active and rule.effect is FaultEffect.KILL_NODE}
        if name not in self.sim.nodes and active == self.in_force:
            self.sim.add_node(name, self._handler(name))

    def schedule_fault(self, tick: int, rule: FaultRule) -> None:
        self.ids.append(self.sim.schedule_fault(tick, rule))
        self.seq += 1
        heapq.heappush(self.schedule, (tick, self.seq, "activate", rule))

    def schedule_revive(self, tick: int, pattern: str) -> None:
        self.sim.schedule_revive(tick, pattern)
        self.seq += 1
        heapq.heappush(self.schedule, (tick, self.seq, "revive", pattern))

    def fire_due(self, tick: int) -> None:
        """Bring the kill rules in force to where the scheduled faults due by
        ``tick`` put them; called just before the kernel fires them."""
        # The kill rules' active flags as the scheduled actions leave them.
        active = {rid: rule.active for rid, rule in self.sim._rules.items()
                  if rule.effect is FaultEffect.KILL_NODE}
        while self.schedule and self.schedule[0][0] <= tick:
            _, _, action, arg = heapq.heappop(self.schedule)
            if action == "activate":
                if arg.rule_id in active and self.sim._rules[arg.rule_id] is arg:
                    active[arg.rule_id] = True
                    self.in_force.add(arg.rule_id)
            else:  # a revive lifts the kill rules naming exactly that pattern
                for rid in active:
                    if self.sim._rules[rid].node == arg:
                        active[rid] = False
                self.in_force = {rid for rid, on in active.items() if on}

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
            elif kind == "revive":
                kills = [rid for rid in self.ids if rid in self.sim._rules
                         and self.sim._rules[rid].effect is FaultEffect.KILL_NODE]
                if kills:
                    self.clear(kills[arg % len(kills)])
            else:
                self.send(node, arg, None)
        self.log.append((event, before, self.alive()))

    def send(self, source: str, destination: str, action) -> None:
        sim = self.sim
        want = reference_fate(sim, self.alive(), source, destination)
        env = Envelope.request(source, destination, "/x", body=action)
        mid = sim.send(env)
        assert observed_fate(sim, env, mid) == want

    def set_timer(self, node: str, delay: int, action) -> None:
        box: list[int] = []
        tid = self.sim.set_timer(node, delay, lambda: self._run(box[0], node, action))
        box.append(tid)
        self.timer_nodes[tid] = node

    def step(self) -> None:
        """Step once; what was delivered or fired must be exactly the events
        whose node the reference had up at their turn."""
        sim = self.sim
        tick = sim.next_event_tick()
        bucket = list(sim._buckets[tick]) if tick is not None else []
        pending_timers = set(sim._timers)
        self.log.clear()
        self.fire_due(tick if tick is not None else sim.now + 1)
        delivered = sim.step()
        after = self.alive()
        expected: list[Envelope] = []
        state: Optional[frozenset[str]] = None  # live set between two runs
        ran = 0
        for event in bucket:
            if type(event) is int:
                if event not in pending_timers:
                    continue  # cancelled
                node = self.timer_nodes[event]
            else:
                node = event.destination
            if ran < len(self.log) and self.log[ran][0] == event:
                _, before, state_after = self.log[ran]
                ran += 1
                assert state is None or before == state
                assert node in before
                state = state_after
                if type(event) is not int:
                    expected.append(event)
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
# a-3 joins under a kill of a-*; an unrelated kill and clear must leave it down.
LATE_NODE_UNDER_KILL = [("inject", FaultRule(FaultEffect.KILL_NODE, node="a-*")),
                        ("add", "a-3"),
                        ("inject", FaultRule(FaultEffect.KILL_NODE, node="b-1")),
                        ("clear", 1), ("send", "reg", "a-3", None)]


@settings(max_examples=300, deadline=None)
@given(st.lists(ops, max_size=40))
@example(MID_TICK_REVIVE)
@example(MID_TICK_KILL)
@example(LATE_NODE_UNDER_KILL)
def test_send_fate_matches_full_rule_scan(script):
    run = Script()
    sim, ids = run.sim, run.ids
    for op in script:
        kind = op[0]
        if kind == "inject":
            run.inject(op[1])
        elif kind == "clear":
            live = [rid for rid in ids if rid in sim._rules]
            if live:
                run.clear(live[op[1] % len(live)])
        elif kind == "schedule":
            run.schedule_fault(sim.now + op[1], op[2])
        elif kind == "revive":
            run.schedule_revive(sim.now + op[1], op[2])
        elif kind == "advance":
            run.advance(op[1])
        elif kind == "step":
            run.step()
        elif kind == "toggle":
            live = [sim._rules[rid] for rid in ids if rid in sim._rules]
            if live:
                rule = live[op[1] % len(live)]
                rule.active = not rule.active
        elif kind == "add":
            run.add_node(op[1])
        elif kind == "timer":
            run.set_timer(*op[1:])
        else:
            run.send(*op[1:])
        assert sim._link_rules == [rule for rule in sim._rules.values()
                                   if rule.effect is not FaultEffect.KILL_NODE]
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
    rid = sim.inject(FaultRule(FaultEffect.DELAY, source="a-*", destination="*",
                               delay_ticks=2))
    assert [rule.rule_id for rule in sim._link_rules] == [rid]
    sim.clear(rid)
    assert sim._link_rules == []
