"""The link-rule index that ``Simulator.send`` consults, against a full scan.

``send`` only looks at the DROP, PARTITION and DELAY rules, kept in
registration order; KILL_NODE rules act through the dead-node set. The
reference below is the decision ``send`` used to make: two scans over every
registered rule, the first for an active drop or partition, the second
summing active delays. After any sequence of injects, clears, scheduled
faults and revives, and ``active`` flags flipped by hand, every send must
meet the fate the reference predicts: dropped, failed, or delivered on a
given tick.
"""

from __future__ import annotations

from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from ssaas_sim.simwire import (
    BASE_LATENCY_TICKS,
    DROPPED,
    FAILED,
    Envelope,
    FaultEffect,
    FaultRule,
    Simulator,
)

NODES = ("a-1", "a-2", "b-1", "reg")
DESTINATIONS = NODES + ("ghost",)
PATTERNS = ("*", "a-*", "b-1", "?-1", "reg", "c*")
LINK_EFFECTS = (FaultEffect.DROP, FaultEffect.PARTITION, FaultEffect.DELAY)


def reference_fate(sim: Simulator, source: str, destination: str) -> tuple[str, Optional[int]]:
    """("dropped" | "failed" | "queued", delivery tick) by the old double scan."""
    if source in sim._dead:
        return DROPPED, None
    if destination not in sim.nodes or destination in sim._dead:
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

ops = st.one_of(
    st.tuples(st.just("inject"), rules),
    st.tuples(st.just("clear"), st.integers(0, 20)),
    st.tuples(st.just("schedule"), st.integers(0, 6), rules),
    st.tuples(st.just("revive"), st.integers(0, 6), st.sampled_from(PATTERNS)),
    st.tuples(st.just("advance"), st.integers(0, 4)),
    st.tuples(st.just("toggle"), st.integers(0, 20)),
    st.tuples(st.just("send"), st.sampled_from(NODES), st.sampled_from(DESTINATIONS)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ops, max_size=40))
def test_send_fate_matches_full_rule_scan(script):
    sim = Simulator()
    for name in NODES:
        sim.add_node(name)
    ids: list[int] = []
    for op in script:
        kind = op[0]
        if kind == "inject":
            ids.append(sim.inject(op[1]))
        elif kind == "clear":
            live = [rid for rid in ids if rid in sim._rules]
            if live:
                sim.clear(live[op[1] % len(live)])
        elif kind == "schedule":
            ids.append(sim.schedule_fault(sim.now + op[1], op[2]))
        elif kind == "revive":
            sim.schedule_revive(sim.now + op[1], op[2])
        elif kind == "advance":
            sim.advance_to(sim.now + op[1])
        elif kind == "toggle":
            live = [sim._rules[rid] for rid in ids if rid in sim._rules]
            if live:
                rule = live[op[1] % len(live)]
                rule.active = not rule.active
        else:
            _, source, destination = op
            want = reference_fate(sim, source, destination)
            env = Envelope.request(source, destination, "/x")
            mid = sim.send(env)
            assert observed_fate(sim, env, mid) == want
        assert sim._link_rules == [rule for rule in sim._rules.values()
                                   if rule.effect is not FaultEffect.KILL_NODE]


def test_no_link_rule_means_nothing_scanned():
    sim = Simulator()
    for name in NODES:
        sim.add_node(name)
    sim.schedule_fault(1, FaultRule(FaultEffect.KILL_NODE, node="b-1"))
    sim.inject(FaultRule(FaultEffect.KILL_NODE, node="reg"))
    assert sim._link_rules == []
    rid = sim.inject(FaultRule(FaultEffect.DELAY, source="a-*", destination="*",
                               delay_ticks=2))
    assert [rule.rule_id for rule in sim._link_rules] == [rid]
    sim.clear(rid)
    assert sim._link_rules == []
