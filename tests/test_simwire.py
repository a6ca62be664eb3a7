"""Transport behavior: latency, ordering, faults, conservation, determinism."""

from __future__ import annotations

import gc
import importlib.util
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssaas_sim.simwire import (
    DELIVERED,
    DROPPED,
    FAILED,
    NETWORK_ERROR_STATUS,
    REQUEST,
    RESPONSE,
    Envelope,
    FaultEffect,
    FaultRule,
    FaultScriptError,
    InvalidEnvelope,
    InvalidFaultRule,
    MessageRecord,
    Simulator,
    SimwireError,
    UnknownNode,
    _ACTIONS,
    canonical_json,
    parse_fault_script,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def make_sim(*nodes: str, seed: int = 0) -> Simulator:
    sim = Simulator(seed=seed)
    for n in nodes:
        sim.add_node(n, lambda env: None)
    return sim


def revive(sim: Simulator, node: str) -> None:
    sim.inject(FaultRule(FaultEffect.REVIVE, node=node))


def heal(sim: Simulator, source: str, destination: str) -> None:
    sim.inject(FaultRule(FaultEffect.HEAL, source=source, destination=destination))


def drain(sim: Simulator, max_steps: int = 50) -> list[Envelope]:
    got: list[Envelope] = []
    for _ in range(max_steps):
        if sim.queue_depth == 0:
            break
        got.extend(sim.step())
    return got


class TestSendAndStep:
    def test_base_latency_is_one_tick(self):
        sim = make_sim("a", "b")
        sim.advance_to(5)
        sim.send(Envelope.request("a", "b", "/x"))
        delivered = sim.step()
        assert sim.now == 6
        assert [e.path for e in delivered] == ["/x"]

    def test_fifo_within_tick(self):
        sim = make_sim("a", "b")
        for i in range(4):
            sim.send(Envelope.request("a", "b", f"/m{i}"))
        delivered = sim.step()
        assert [e.path for e in delivered] == ["/m0", "/m1", "/m2", "/m3"]

    def test_message_ids_strictly_increase(self):
        sim = make_sim("a", "b")
        ids = [sim.send(Envelope.request("a", "b", "/x")) for _ in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_empty_step_advances_clock(self):
        sim = make_sim("a")
        assert sim.step() == []
        assert sim.now == 1

    def test_unknown_source_rejected(self):
        sim = make_sim("a")
        with pytest.raises(UnknownNode):
            sim.send(Envelope.request("ghost", "a", "/x"))

    def test_a_node_name_is_registered_once(self):
        sim = make_sim("a")
        with pytest.raises(SimwireError):
            sim.add_node("a", lambda env: None)

    @pytest.mark.parametrize("rule", [
        pytest.param(None, id="both-live"),
        pytest.param(FaultRule(FaultEffect.DELAY, source="a", destination="b", delay_ticks=3),
                     id="delay-rule"),
        pytest.param(FaultRule(FaultEffect.KILL_NODE, node="a"), id="dead-source"),
        pytest.param(FaultRule(FaultEffect.KILL_NODE, node="b"), id="dead-destination"),
    ])
    def test_response_requires_known_correlation(self, rule):
        # Every branch a send can take refuses an unawaited RESPONSE before
        # it numbers or records the message.
        sim = make_sim("a", "b")
        if rule is not None:
            sim.inject(rule)
        sent, records = sim.sent, len(sim.records)
        bogus = Envelope(source="a", destination="b", kind=RESPONSE,
                         path="/x", correlation_id=999)
        with pytest.raises(InvalidEnvelope):
            sim.send(bogus)
        assert sim.sent == sent
        assert len(sim.records) == records

    def test_handler_send_lands_next_tick(self):
        sim = Simulator()
        order: list[tuple[int, str]] = []

        def b_handler(env: Envelope) -> None:
            order.append((sim.now, "b got " + env.path))
            sim.send(Envelope.response(env, "200"))

        sim.add_node("a", lambda env: order.append((sim.now, "a got " + (env.status or ""))))
        sim.add_node("b", b_handler)
        sim.send(Envelope.request("a", "b", "/ping"))
        drain(sim)
        assert order == [(1, "b got /ping"), (2, "a got 200")]


    def test_run_until_idle_refuses_a_negative_budget(self):
        sim = make_sim("a", "b")
        with pytest.raises(SimwireError, match=r"^budget must be >= 0 ticks, got -5$"):
            sim.run_until_idle(budget=-5)
        assert sim.run_until_idle(budget=0)


class TestFaults:
    def test_drop_rule_drops_matching(self):
        sim = make_sim("a", "b")
        sim.inject(FaultRule(FaultEffect.DROP, source="a", destination="b"))
        sim.send(Envelope.request("a", "b", "/x"))
        assert drain(sim) == []
        assert sim.dropped == 1
        assert sim.records[-1].status == DROPPED

    def test_drop_is_directional(self):
        sim = make_sim("a", "b")
        sim.inject(FaultRule(FaultEffect.DROP, source="a", destination="b"))
        sim.send(Envelope.request("b", "a", "/back"))
        assert [e.path for e in drain(sim)] == ["/back"]

    def test_partition_is_bidirectional(self):
        sim = make_sim("a", "b")
        sim.inject(FaultRule(FaultEffect.PARTITION, source="a", destination="b"))
        sim.send(Envelope.request("a", "b", "/x"))
        sim.send(Envelope.request("b", "a", "/y"))
        assert drain(sim) == []
        assert sim.dropped == 2

    def test_delay_adds_to_base_latency(self):
        # DELAY of 10 injected at t=0, send at t=0: delivery at t=11.
        sim = make_sim("a", "b")
        sim.inject(FaultRule(FaultEffect.DELAY, source="a", destination="b", delay_ticks=10))
        sim.send(Envelope.request("a", "b", "/slow"))
        delivered = sim.step()
        assert sim.now == 11
        assert [e.path for e in delivered] == ["/slow"]

    def test_overlapping_delays_sum(self):
        sim = make_sim("a", "b")
        sim.inject(FaultRule(FaultEffect.DELAY, source="a", destination="*", delay_ticks=3))
        sim.inject(FaultRule(FaultEffect.DELAY, source="*", destination="b", delay_ticks=4))
        sim.send(Envelope.request("a", "b", "/x"))
        sim.step()
        assert sim.now == 8  # 1 + 3 + 4

    def test_delay_requires_positive_ticks(self):
        with pytest.raises(InvalidFaultRule):
            FaultRule(FaultEffect.DELAY, delay_ticks=0)

    @pytest.mark.parametrize("args, kwargs", [
        (("PARTITON", "a", "b"), {}),  # a misspelt PARTITION
        (("KILL",), {"node": "b"}),  # KILL_NODE's script action, not its effect
        (("drop", "a", "b"), {}),
        (("",), {}),
    ], ids=["misspelt", "action-name", "lower-case", "empty"])
    def test_an_effect_fault_effect_does_not_name_is_refused(self, args, kwargs):
        with pytest.raises(InvalidFaultRule, match="unknown effect"):
            FaultRule(*args, **kwargs)

    def test_every_fault_effect_makes_a_rule(self):
        effects = [value for name, value in vars(FaultEffect).items() if name.isupper()]
        assert len(effects) == 6
        assert [FaultRule(effect, delay_ticks=1).effect for effect in effects] == effects

    def test_heal_restores_traffic(self):
        sim = make_sim("a", "b")
        sim.inject(FaultRule(FaultEffect.DROP, source="a", destination="b"))
        sim.send(Envelope.request("a", "b", "/1"))
        heal(sim, "a", "b")
        sim.send(Envelope.request("a", "b", "/2"))
        assert [e.path for e in drain(sim)] == ["/2"]

    def test_already_enqueued_delivery_unaffected_by_new_drop(self):
        sim = make_sim("a", "b")
        sim.send(Envelope.request("a", "b", "/x"))
        sim.inject(FaultRule(FaultEffect.DROP, source="a", destination="b"))
        assert [e.path for e in drain(sim)] == ["/x"]

    def test_kill_node_fails_sends_with_network_error(self):
        # Send to a killed node: sender gets a network-error response one
        # tick later, the request counts as failed.
        sim = Simulator()
        got: list[str] = []
        sim.add_node("a", lambda env: got.append(env.status or ""))
        sim.add_node("b", lambda env: None)
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="b"))
        sim.send(Envelope.request("a", "b", "/x"))
        sim.step()
        assert got == [NETWORK_ERROR_STATUS]
        assert sim.failed == 1

    def test_kill_mid_flight_fails_at_delivery(self):
        sim = Simulator()
        got: list[str] = []
        sim.add_node("a", lambda env: got.append(env.status or ""))
        sim.add_node("b", lambda env: got.append("b saw " + env.path))
        sim.send(Envelope.request("a", "b", "/x"))
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="b"))
        drain(sim)
        assert got == [NETWORK_ERROR_STATUS]
        assert sim.failed == 1

    def test_killed_node_sends_are_dropped(self):
        sim = make_sim("a", "b")
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="a"))
        sim.send(Envelope.request("a", "b", "/x"))
        assert drain(sim) == []
        assert sim.dropped == 1

    def test_revive_lifts_a_kill(self):
        sim = make_sim("a", "b")
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="b"))
        assert not sim.node_alive("b")
        revive(sim, "b")
        assert sim.node_alive("b")
        sim.send(Envelope.request("a", "b", "/x"))
        assert [e.path for e in drain(sim)] == ["/x"]

    def test_node_added_under_a_kill_rule_starts_down(self):
        sim = make_sim("a-1", "b-1")
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="a-*"))
        sim.add_node("a-2", lambda env: None)
        assert not sim.node_alive("a-2")
        # An unrelated kill and revive leaves it down, and sends to it fail.
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="b-1"))
        revive(sim, "b-1")
        assert not sim.node_alive("a-2") and sim.node_alive("b-1")
        sim.send(Envelope.request("b-1", "a-2", "/x"))
        drain(sim)
        assert sim.failed == 1
        revive(sim, "a-*")
        assert sim.node_alive("a-2")

    def test_scheduled_fault_activates_on_time(self):
        sim = make_sim("a", "b")
        sim.schedule_fault(10, FaultRule(FaultEffect.KILL_NODE, node="b"))
        sim.advance_to(5)
        assert sim.node_alive("b")
        sim.advance_to(10)
        assert not sim.node_alive("b")

    def test_a_fault_due_now_or_earlier_waits_for_the_next_step(self):
        # Its tick is not ahead of the clock, so it gets no bucket: the
        # clock never moves back, and the next step applies it.
        sim = make_sim("a")
        sim.advance_to(5)
        sim.schedule_fault(3, FaultRule(FaultEffect.KILL_NODE, node="a"))
        sim.schedule_fault(5, FaultRule(FaultEffect.KILL_NODE, node="a"))
        assert sim.next_event_tick() is None and sim.node_alive("a")
        sim.step()
        assert sim.now == 6 and not sim.node_alive("a")
        assert len(sim._kills) == 2

    def test_timer_fires_and_is_not_traced(self):
        sim = make_sim("a")
        fired: list[int] = []
        sim.set_timer("a", 3, lambda: fired.append(sim.now))
        drain(sim)
        assert fired == [3]
        assert sim.records == []

    def test_timer_arming_is_checked(self):
        sim = make_sim("a")
        with pytest.raises(UnknownNode):
            sim.set_timer("ghost", 1, lambda: None)
        with pytest.raises(SimwireError):
            sim.set_timer("a", 0, lambda: None)
        assert sim.queue_depth == 0

    def test_timer_skipped_on_dead_node(self):
        sim = make_sim("a")
        fired: list[int] = []
        sim.set_timer("a", 3, lambda: fired.append(sim.now))
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="a"))
        drain(sim)
        assert fired == []


def revive_log(sim: Simulator, *nodes: str) -> list[str]:
    """Register a revive hook on each of ``nodes`` that logs the node's name."""
    log: list[str] = []
    for node in nodes:
        sim.on_revive(node, lambda node=node: log.append(node))
    return log


class TestReviveHook:
    def test_runs_once_on_a_scripted_revive(self):
        sim = make_sim("a", "b")
        log = revive_log(sim, "a", "b")
        sim.schedule_fault(5, FaultRule(FaultEffect.KILL_NODE, node="b"))
        sim.schedule_fault(10, FaultRule(FaultEffect.REVIVE, node="b"))
        sim.advance_to(9)
        assert log == []
        sim.advance_to(10)
        assert log == ["b"] and sim.node_alive("b")
        sim.advance_to(20)
        assert log == ["b"]

    def test_runs_on_an_injected_revive(self):
        sim = make_sim("a", "b")
        log = revive_log(sim, "a", "b")
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="b"))
        assert log == []
        revive(sim, "b")
        assert log == ["b"]

    def test_overlapping_kills_run_it_when_the_last_is_lifted(self):
        sim = make_sim("a-1", "b-1")
        log = revive_log(sim, "a-1", "b-1")
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="*"))
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="a-1"))
        revive(sim, "*")
        assert log == ["b-1"]  # a-1 is still down under the narrow kill
        revive(sim, "a-1")
        assert log == ["b-1", "a-1"]

    def test_never_runs_for_a_node_that_stayed_live(self):
        sim = make_sim("a", "b")
        log = revive_log(sim, "a", "b")
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="b"))
        revive(sim, "b")
        sim.inject(FaultRule(FaultEffect.DROP, source="a", destination="b"))
        heal(sim, "a", "b")
        revive(sim, "a")
        assert log == ["b"]

    def test_runs_in_node_registration_order(self):
        sim = make_sim("c", "a", "b")
        log = revive_log(sim, "b", "a", "c")
        sim.schedule_fault(1, FaultRule(FaultEffect.KILL_NODE, node="*"))
        sim.schedule_fault(2, FaultRule(FaultEffect.REVIVE, node="*"))
        sim.advance_to(2)
        assert log == ["c", "a", "b"]

    def test_registering_is_checked(self):
        with pytest.raises(UnknownNode):
            make_sim("a").on_revive("ghost", lambda: None)

    def test_a_hook_that_sends_stamps_the_tick_it_runs_at(self):
        # The kill and the revive each stop the clock at their own tick,
        # before the loop's tick 12: the hook runs at 10, its send lands at 11.
        sim = make_sim("a", "b")
        sim.every("b", 12, lambda: None)
        sim.on_revive("a", lambda: sim.send(Envelope.request("a", "b", "/hello")))
        sim.schedule_fault(1, FaultRule(FaultEffect.KILL_NODE, node="a"))
        sim.schedule_fault(10, FaultRule(FaultEffect.REVIVE, node="a"))
        clock = []
        for _ in range(4):
            sim.step()
            clock.append(sim.now)
        assert clock == [1, 10, 11, 12]
        assert [(r.tick, r.path, r.status) for r in sim.records] == [(11, "/hello", DELIVERED)]


class TestHeal:
    """A HEAL lifts the link rules in force with its pair of patterns, as a
    REVIVE lifts the kill rules with its node pattern."""

    def test_a_scripted_heal_ends_a_delay(self):
        sim = make_sim("a", "b")
        for tick, rule in parse_fault_script("10 delay a b 5\n20 heal a b\n"):
            sim.schedule_fault(tick, rule)
        for tick in range(5, 30):
            sim.advance_to(tick)
            sim.send(Envelope.request("a", "b", f"/{tick}"))
        assert sim.run_until_idle()
        latency = {int(r.path[1:]): r.tick - int(r.path[1:]) for r in sim.records}
        assert latency == {sent: 6 if 10 <= sent < 20 else 1 for sent in range(5, 30)}

    @pytest.mark.parametrize("declared", [("a", "b"), ("b", "a")], ids=["a-b", "b-a"])
    def test_it_lifts_a_partition_declared_either_way(self, declared):
        sim = make_sim("a", "b")
        sim.inject(FaultRule(FaultEffect.PARTITION, *declared))
        heal(sim, "a", "b")
        assert sim._link_rules == []
        sim.send(Envelope.request("a", "b", "/there"))
        sim.send(Envelope.request("b", "a", "/back"))
        assert [e.path for e in drain(sim)] == ["/there", "/back"]

    def test_it_lifts_only_its_own_pair_and_no_kill(self):
        sim = make_sim("a", "b", "c")
        kill = FaultRule(FaultEffect.KILL_NODE, node="c")
        drop = FaultRule(FaultEffect.DROP, "a", "b")
        delay = FaultRule(FaultEffect.DELAY, "a", "b", delay_ticks=3)
        kept = [FaultRule(FaultEffect.DROP, "b", "a"),  # a DROP is one way
                FaultRule(FaultEffect.DELAY, "a", "*", delay_ticks=2),
                FaultRule(FaultEffect.PARTITION, "a", "c"),
                FaultRule(FaultEffect.DROP, "a", "b*")]
        for rule in [drop, kept[0], delay, kill, *kept[1:]]:
            sim.inject(rule)
        heal(sim, "a", "b")
        assert sim._link_rules == kept
        assert sim._kills == [kill] and not sim.node_alive("c")

    def test_with_nothing_to_lift_it_does_nothing(self):
        sim = make_sim("a", "b")
        log = revive_log(sim, "a", "b")
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="b"))
        sim.inject(FaultRule(FaultEffect.DROP, "b", "a"))
        kills, links, live = list(sim._kills), list(sim._link_rules), dict(sim._live)
        heal(sim, "a", "b")
        heal(sim, "b", "*")
        assert (sim._kills, sim._link_rules, sim._live, log) == (kills, links, live, [])


def call_sim(reply_delay: int | None = None) -> tuple[Simulator, list]:
    """Nodes ``a`` and ``b``: ``a`` logs its log as ``(tick, message
    id)`` and its replies as ``(tick, status)``; ``b`` answers 200,
    ``reply_delay`` ticks late, or never if None."""
    sim = Simulator()
    log: list[tuple] = []
    sim.add_node("a", lambda env: log.append((sim.now, env.status)),
                 lambda mid: log.append((sim.now, mid)))
    if reply_delay is None:
        sim.add_node("b", lambda env: None)
    else:
        sim.add_node("b", lambda env: sim.send(Envelope.response(env, "200")))
        if reply_delay:
            sim.inject(FaultRule(FaultEffect.DELAY, source="b", destination="a",
                                 delay_ticks=reply_delay))
    return sim, log


class TestCall:
    """``Simulator.call``: a request whose deadline the kernel keeps."""

    def test_a_deadline_fires_in_the_slot_of_a_timer_armed_with_it(self):
        # On tick 3: a timer armed before the call, the call's deadline, a
        # loop armed after it, then a timer armed last; the request itself
        # landed on tick 1.
        sim, log = call_sim()
        order: list = []
        sim.add_node("c", lambda env: None, lambda mid: order.append(("deadline", mid)))
        sim.set_timer("c", 3, lambda: order.append("timer-before"))
        mid = sim.call(Envelope.request("c", "b", "/x"), 3)
        sim.every("c", 3, lambda: order.append("loop"))
        sim.set_timer("c", 3, lambda: order.append("timer-after"))
        sim.advance_to(4)
        assert order == ["timer-before", ("deadline", mid), "loop", "timer-after"]
        assert log == [] and sim._calls == {}

    def test_a_deadline_and_a_timer_keep_apart(self):
        # Cancelling the timer armed right before the call, on the same
        # tick, leaves the call's deadline armed.
        sim, log = call_sim()
        fired: list[int] = []
        timer = sim.set_timer("a", 2, lambda: fired.append(sim.now))
        mid = sim.call(Envelope.request("a", "b", "/x"), 2)
        sim.cancel_timer(timer)
        sim.advance_to(5)
        assert (fired, log) == ([], [(2, mid)])

    def test_a_reply_delivered_first_ends_the_call(self):
        sim, log = call_sim(reply_delay=0)
        env = Envelope.request("a", "b", "/x")
        mid = sim.call(env, 5)
        # The call's record: its request, and the bucket its marker waits in.
        assert sim._calls == {mid: (env, [mid])} and sim.pending_external == 2
        assert sim._calls[mid][1] is sim._buckets[5]
        sim.step()
        sim.step()
        assert sim.records[-1][4:] == ("RESPONSE", "GET", "/x", "200")
        assert sim._calls == {} and sim.pending_external == 0
        # The reply took the marker out; its tick is still stepped, empty.
        assert sim._buckets == {5: []} and sim.queue_depth == 0
        assert sim.next_event_tick() == 5
        assert sim.run_until_idle() and sim.now == 2
        sim.advance_to(10)
        assert log == [(2, "200")]

    def test_a_late_reply_is_traced_and_ignored(self):
        sim, log = call_sim(reply_delay=5)
        mid = sim.call(Envelope.request("a", "b", "/x"), 3)
        assert sim.run_until_idle() and sim.now == 7
        # The reply is traced and handed to a's handler, after the timeout.
        assert log == [(3, mid), (7, "200")]
        assert [(r.tick, r.kind, r.status) for r in sim.records] == [
            (1, "REQUEST", DELIVERED), (7, "RESPONSE", "200")]
        assert sim._calls == {}

    def test_a_dead_sources_deadline_is_skipped(self):
        sim, log = call_sim()
        sim.call(Envelope.request("a", "b", "/x"), 3)
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="a"))
        sim.advance_to(4)
        assert log == [] and sim._calls == {}
        revive(sim, "a")
        sim.advance_to(10)
        assert log == [] and sim.pending_external == 0

    def test_a_pending_call_keeps_run_until_idle_busy(self):
        sim, log = call_sim()
        mid = sim.call(Envelope.request("a", "b", "/x"), 4)
        sim.step()
        assert (sim.pending_external, sim.queue_depth) == (1, 1)  # only the deadline is left
        assert sim.run_until_idle() and sim.now == 4
        assert log == [(4, mid)] and sim.pending_external == 0

    def test_a_maintenance_call_is_not_pending_work(self):
        sim, log = call_sim()
        sim.every("a", 1, lambda: sim.call(Envelope.request("a", "b", "/beat"), 4)
                  if sim.now == 1 else None)
        sim.step()
        assert len(sim._calls) == 1 and sim.pending_external == 0
        sim.advance_to(6)
        assert log == [(5, 1)]

    def test_a_network_error_reply_ends_the_call(self):
        # The reply and the deadline share tick 1, the reply first: it takes
        # the marker out of the bucket being stepped.
        sim, log = call_sim()
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="b"))
        mid = sim.call(Envelope.request("a", "b", "/x"), 1)
        [reply, marker] = sim._buckets[1]
        assert (reply.correlation_id, marker) == (mid, mid)
        sim.advance_to(5)
        assert [(r.tick, r.kind, r.status) for r in sim.records] == [
            (0, "REQUEST", FAILED), (1, "RESPONSE", NETWORK_ERROR_STATUS)]
        assert log == [(1, NETWORK_ERROR_STATUS)] and sim._calls == {}

    def test_a_reply_requeued_by_a_raise_still_ends_its_call(self):
        # A timer raises ahead of the reply and the marker of tick 1, so both
        # go back on the queue in a new bucket; the reply still ends the call
        # and the marker it leaves behind finds no call.
        sim, log = call_sim()
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="b"))

        def boom() -> None:
            raise RuntimeError("boom")

        sim.set_timer("a", 1, boom)
        mid = sim.call(Envelope.request("a", "b", "/x"), 1)
        with pytest.raises(RuntimeError):
            sim.step()
        [reply, marker] = sim._buckets[1]
        assert (reply.correlation_id, marker) == (mid, mid)
        sim.step()
        assert log == [(1, NETWORK_ERROR_STATUS)] and sim._calls == {}
        assert sim.run_until_idle() and sim.now == 1

    def test_calling_is_checked(self):
        sim, _ = call_sim(reply_delay=0)
        with pytest.raises(UnknownNode):  # b registered no timeout handler
            sim.call(Envelope.request("b", "a", "/x"), 3)
        with pytest.raises(UnknownNode):
            sim.call(Envelope.request("ghost", "a", "/x"), 3)
        with pytest.raises(SimwireError):
            sim.call(Envelope.request("a", "b", "/x"), 0)
        reply = Envelope(source="a", destination="b", kind=RESPONSE, path="/x",
                         correlation_id=1)
        with pytest.raises(InvalidEnvelope):
            sim.call(reply, 3)
        assert (sim.sent, sim.queue_depth, sim._calls) == (0, 0, {})


class TestConservation:
    """Every sent message reaches exactly one fate."""

    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                              st.sampled_from(["a", "b", "c"]),
                              st.integers(min_value=0, max_value=3)),
                    max_size=60),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_fates_partition_sends(self, sends, seed):
        sim = make_sim("a", "b", "c", seed=seed)
        rng = random.Random(seed)
        for src, dst, gap in sends:
            sim.advance_to(sim.now + gap)
            if rng.random() < 0.15:
                effect = rng.choice([FaultEffect.DROP, FaultEffect.KILL_NODE])
                if effect is FaultEffect.KILL_NODE:
                    sim.inject(FaultRule(effect, node=rng.choice(["a", "b", "c"])))
                else:
                    sim.inject(FaultRule(effect, source=src, destination=dst))
            if not sim.node_alive(src):
                continue
            sim.send(Envelope.request(src, dst, "/p"))
        drain(sim, max_steps=500)
        assert sim.delivered + sim.dropped + sim.failed == sim.sent

    def test_counts_match_record_statuses(self):
        sim = make_sim("a", "b")
        sim.inject(FaultRule(FaultEffect.DROP, source="a", destination="b"))
        sim.send(Envelope.request("a", "b", "/dropped"))
        sim.send(Envelope.request("b", "a", "/ok"))
        drain(sim)
        by_status = {}
        for r in sim.records:
            by_status[r.status] = by_status.get(r.status, 0) + 1
        assert by_status.get(DROPPED, 0) == sim.dropped
        assert by_status.get(DELIVERED, 0) == sim.delivered


class TestDeterminism:
    def _run(self, seed: int) -> list[str]:
        sim = make_sim("a", "c", seed=seed)
        sim.add_node("b", lambda env: sim.send(Envelope.response(env, "200"))
                     if env.kind is REQUEST else None)
        for i in range(10):
            sim.send(Envelope.request("a", "b", f"/r{i}"))
            if i == 4:
                sim.inject(FaultRule(FaultEffect.DELAY, source="b", destination="a",
                                     delay_ticks=2))
            sim.step()
        drain(sim)
        return [r.line() for r in sim.records]

    def test_same_seed_same_trace(self):
        assert self._run(7) == self._run(7)

    def test_trace_line_format(self):
        sim = make_sim("a", "b")
        sim.send(Envelope.request("a", "b", "/x", method="POST"))
        drain(sim)
        line = sim.records[0].line()
        fields = line.split("|")
        assert len(fields) == 7
        assert fields[4] == "REQUEST"
        assert fields[5] == "/x"
        assert fields[6] == DELIVERED


class TestCausality:
    def test_response_never_precedes_request_delivery(self):
        sim = Simulator()
        events: list[tuple[int, str, str]] = []

        def server(env: Envelope) -> None:
            events.append((sim.now, "req", env.path))
            sim.send(Envelope.response(env, "200"))

        sim.add_node("client", lambda env: events.append((sim.now, "resp", env.path)))
        sim.add_node("server", server)
        for i in range(5):
            sim.send(Envelope.request("client", "server", f"/c{i}"))
            sim.step()
        drain(sim)
        seen_req = {}
        for tick, kind, path in events:
            if kind == "req":
                seen_req[path] = tick
            else:
                assert path in seen_req and tick > seen_req[path]


class TestFaultScript:
    def test_parse_and_apply(self):
        text = """
        # resilience scenario
        40 kill chat-1
        55 revive chat-1
        10 drop a b
        12 partition a c
        20 delay a b 5
        30 heal a b
        """
        schedule = parse_fault_script(text)
        assert [(t, r.effect, r.source, r.destination, r.node, r.delay_ticks)
                for t, r in schedule] == [
            (40, FaultEffect.KILL_NODE, "*", "*", "chat-1", 0),
            (55, FaultEffect.REVIVE, "*", "*", "chat-1", 0),
            (10, FaultEffect.DROP, "a", "b", "*", 0),
            (12, FaultEffect.PARTITION, "a", "c", "*", 0),
            (20, FaultEffect.DELAY, "a", "b", "*", 5),
            (30, FaultEffect.HEAL, "a", "b", "*", 0)]
        sim = make_sim("a", "b", "c", "chat-1")
        for tick, rule in schedule:
            sim.schedule_fault(tick, rule)
        sim.advance_to(41)
        assert not sim.node_alive("chat-1")
        sim.advance_to(56)
        assert sim.node_alive("chat-1")

    def test_parse_rejects_garbage(self):
        with pytest.raises(FaultScriptError):
            parse_fault_script("40 explode chat-1")
        with pytest.raises(FaultScriptError):
            parse_fault_script("nan kill chat-1")
        with pytest.raises(FaultScriptError):
            parse_fault_script("5 delay a b 0")
        with pytest.raises(FaultScriptError):
            parse_fault_script("-5 kill chatservices-1")

    @pytest.mark.parametrize("line", [
        "5 kill", "5 kill a b",
        "5 revive", "5 revive a b",
        "5 drop a", "5 drop a b c",
        "5 partition a", "5 partition a b c",
        "5 delay a b", "5 delay a b 3 4",
        "5 heal a", "5 heal a b c",
    ])
    def test_parse_refuses_one_argument_too_few_or_too_many(self, line):
        with pytest.raises(FaultScriptError, match="^line 2: "):
            parse_fault_script("# arity\n" + line)

    def test_readme_lists_exactly_the_actions_with_their_arguments(self):
        # Each bullet of README's action list opens with `action <arg> ...`.
        text = README.read_text(encoding="utf-8")
        section = text.split("## Workloads and faults\n", 1)[1].split("\n## ", 1)[0]
        listed = re.findall(r"^- `([a-z]+)((?: <[a-z]+>)*)`", section, re.MULTILINE)
        assert sorted(action for action, _ in listed) == sorted(_ACTIONS)
        for action, args in listed:
            assert args.count("<") == len(_ACTIONS[action][1]), action

    def test_one_parsed_script_runs_on_two_simulators(self):
        from ssaas_sim.migration import build_stage, parse_workload, run_workload
        from ssaas_sim.workloads import load_text

        lines = parse_workload(load_text("chat_resilience.wl"))
        schedule = parse_fault_script(load_text("faults_kill_chat.fs"))
        for _ in range(2):
            handle = build_stage(6, 1)
            run_workload(handle, lines, faults=schedule)
        sim = handle.sim
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="gateway"))
        assert not sim.node_alive("gateway")

    def test_one_rule_scheduled_twice_is_two_rules(self):
        sim = make_sim("a", "b")
        rule = FaultRule(FaultEffect.DROP, source="a", destination="b")
        sim.schedule_fault(5, rule)
        sim.schedule_fault(5, rule)
        sim.advance_to(5)
        assert sim._link_rules == [rule, rule]
        sim.send(Envelope.request("a", "b", "/x"))
        assert sim.dropped == 1
        heal(sim, "a", "b")  # lifts both
        sim.send(Envelope.request("a", "b", "/y"))
        assert [e.path for e in drain(sim)] == ["/y"]


class TestReferenceQueueOracle:
    """Replay random scenarios against a plain sorted-list scheduler."""

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                              st.sampled_from(["a", "b"]),
                              st.sampled_from(["a", "b"])),
                    min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_delivery_order_matches_sorted_replay(self, plan):
        sim = make_sim("a", "b")
        expected: list[tuple[int, int, str]] = []  # (deliver_tick, send_index, path)
        for idx, (gap, src, dst) in enumerate(plan):
            sim.advance_to(sim.now + gap)
            path = f"/m{idx}"
            sim.send(Envelope.request(src, dst, path))
            expected.append((sim.now + 1, idx, path))
        drain(sim, max_steps=200)
        got = [(r.tick, r.path) for r in sim.records]
        expected.sort()
        assert [(t, p) for t, _, p in expected] == got


class TestExactlyOneReply:
    def test_second_response_rejected(self):
        sim = make_sim("a", "b")
        sim.send(Envelope.request("a", "b", "/x"))
        (req,) = sim.step()
        sim.send(Envelope.response(req, "200"))
        with pytest.raises(InvalidEnvelope):
            sim.send(Envelope.response(req, "500"))
        assert sim._awaiting_reply == set()

    def test_network_error_is_the_reply(self):
        sim = make_sim("a", "b")
        sim.send(Envelope.request("a", "b", "/x"))
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="b"))
        sim.step()  # delivery fails; the kernel answers for b
        assert sim._awaiting_reply == set()
        late = Envelope(source="b", destination="a", kind=RESPONSE,
                        path="/x", correlation_id=1)
        with pytest.raises(InvalidEnvelope):
            sim.send(late)

    @pytest.mark.parametrize("script, faults, stages", [
        ("basic.wl", None, range(7)),
        ("chat_resilience.wl", "faults_kill_chat.fs", range(7)),
    ])
    def test_nothing_awaits_a_reply_once_idle(self, script, faults, stages):
        from ssaas_sim.migration import build_stage, parse_workload, run_workload
        from ssaas_sim.workloads import load_text

        lines = parse_workload(load_text(script))
        schedule = parse_fault_script(load_text(faults)) if faults else None
        for stage in stages:
            handle = build_stage(stage, 1)
            run_workload(handle, lines, faults=schedule)  # ends in run_until_idle
            assert handle.sim._awaiting_reply == set(), stage


class TestMaintenanceFlag:
    """The kernel's network-error reply keeps the maintenance flag of the
    request it answers, so a maintenance loop that reaches a dead node never
    holds up quiescence, and its handler's next send is maintenance too."""

    @pytest.mark.parametrize("kill_before_send, expected", [
        (True, [(1, "/beat", FAILED), (2, "/beat", NETWORK_ERROR_STATUS),
                (3, "/next", DELIVERED)]),
        (False, [(2, "/beat", FAILED), (3, "/beat", NETWORK_ERROR_STATUS),
                 (4, "/next", DELIVERED)]),
    ], ids=["killed-before-send", "killed-in-flight"])
    def test_network_error_reply_stays_maintenance(self, kill_before_send, expected):
        sim = Simulator()
        replies: list[Envelope] = []

        def on_reply(env: Envelope) -> None:
            replies.append(env)
            sim.send(Envelope.request("a", "c", "/next"))

        def beat() -> None:
            sim.send(Envelope.request("a", "b", "/beat"))
            if not kill_before_send:
                sim.inject(FaultRule(FaultEffect.KILL_NODE, node="b"))

        sim.add_node("a", on_reply)
        sim.add_node("b", lambda env: None)
        sim.add_node("c", lambda env: None)
        if kill_before_send:
            sim.inject(FaultRule(FaultEffect.KILL_NODE, node="b"))
        sim.set_timer("a", 1, beat, maintenance=True)
        while sim.next_event_tick() is not None:
            now = sim.now
            assert sim.pending_external == 0
            assert sim.run_until_idle()
            assert sim.now == now
            sim.step()
        assert [r.status for r in replies] == [NETWORK_ERROR_STATUS]
        assert [(r.tick, r.path, r.status) for r in sim.records] == expected


class TestTickBuckets:
    def test_same_tick_events_run_in_send_order(self):
        # A DELAY-stretched send from tick 0 and later sends and timers from
        # tick 3 all land on tick 4; cancelled timers leave tombstones.
        sim = Simulator()
        order: list[str] = []
        sim.add_node("a", lambda env: None)
        sim.add_node("b", lambda env: order.append(env.path))
        sim.inject(FaultRule(FaultEffect.DELAY, source="a", destination="b", delay_ticks=3))
        sim.send(Envelope.request("a", "b", "/early"))
        heal(sim, "a", "b")
        sim.set_timer("b", 4, lambda: order.append("timer-0"))
        sim.cancel_timer(sim.set_timer("b", 4, lambda: order.append("cancelled-0")))
        sim.advance_to(3)
        sim.send(Envelope.request("a", "b", "/late-1"))
        sim.set_timer("b", 1, lambda: order.append("timer-3"))
        sim.cancel_timer(sim.set_timer("b", 1, lambda: order.append("cancelled-3")))
        sim.send(Envelope.request("a", "b", "/late-2"))
        sim.set_timer("b", 2, lambda: order.append("timer-5"))

        assert sim.queue_depth == 8  # tombstones included
        assert sim.next_event_tick() == 4
        assert sim.pending_external == 6
        assert [e.path for e in sim.step()] == ["/early", "/late-1", "/late-2"]
        assert sim.now == 4
        assert order == ["/early", "timer-0", "/late-1", "timer-3", "/late-2"]
        assert sim.queue_depth == 1
        assert sim.next_event_tick() == 5
        assert sim.pending_external == 1
        sim.step()
        assert order[-1] == "timer-5"
        assert (sim.queue_depth, sim.next_event_tick(), sim.pending_external) == (0, None, 0)

    def test_revive_by_an_earlier_handler_applies_within_the_tick(self):
        sim = make_sim("a", "c")
        sim.add_node("b", lambda env: revive(sim, "c"))
        sim.send(Envelope.request("a", "b", "/revive-c"))
        sim.send(Envelope.request("a", "c", "/to-c"))
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="c"))
        assert [e.path for e in sim.step()] == ["/revive-c", "/to-c"]
        assert sim.failed == 0


def closure_every(sim: Simulator, node: str, interval: int, fn) -> None:
    """The periodic loop as nodes ran it before the kernel owned it: a
    maintenance timer that re-arms itself once ``fn`` returns."""
    def tick() -> None:
        fn()
        sim.set_timer(node, interval, tick, maintenance=True)
    sim.set_timer(node, interval, tick, maintenance=True)


class TestEvery:
    """``Simulator.every``: a periodic loop the kernel re-arms in place."""

    @staticmethod
    def _run(every) -> tuple[list, list]:
        # Loops, one-shot timers and messages armed in the same ticks, some
        # of them by the loops themselves, all landing in shared buckets.
        sim = Simulator()
        log: list = []
        sim.add_node("a", lambda env: log.append((sim.now, "deliver", env.path)))
        sim.add_node("b", lambda env: log.append((sim.now, "deliver", env.path)))

        def slow() -> None:
            log.append((sim.now, "slow"))
            sim.set_timer("a", 2, lambda: log.append((sim.now, "armed-by-slow")))
            sim.send(Envelope.request("a", "b", f"/slow-{sim.now}"))

        def once() -> None:
            log.append((sim.now, "once"))
            sim.set_timer("b", 2, lambda: log.append((sim.now, "armed-by-once")))

        sim.send(Envelope.request("b", "a", "/m0"))
        every(sim, "a", 2, slow)
        sim.set_timer("b", 2, once)
        every(sim, "b", 1, lambda: log.append((sim.now, "fast")))
        sim.inject(FaultRule(FaultEffect.DELAY, source="a", destination="b", delay_ticks=1))
        pending = []
        while sim.now < 12:
            sim.step()
            pending.append((sim.now, sim.pending_external, sim.queue_depth))
        return log + [("records", [r.line() for r in sim.records])], pending

    def test_fires_in_the_closure_loops_order(self):
        kernel = self._run(lambda sim, node, interval, fn: sim.every(node, interval, fn))
        assert kernel == self._run(closure_every)
        log = kernel[0]
        assert log[:4] == [(1, "deliver", "/m0"), (1, "fast"), (2, "slow"), (2, "once")]
        # At tick 4: what "slow" armed and sent at 2, then "slow" again (it
        # re-arms once it returns), then what a later event of tick 2 armed.
        assert [e for e in log if e[0] == 4][:4] == [
            (4, "armed-by-slow"), (4, "deliver", "/slow-2"), (4, "slow"),
            (4, "armed-by-once")]

    def test_runs_as_maintenance_and_is_never_pending(self):
        sim = make_sim("b")
        sent: list[Envelope] = []

        def beat() -> None:
            env = Envelope.request("a", "b", "/beat")
            sim.send(env)
            sent.append(env)

        # Armed from an external message's handler, the loop still runs
        # under the maintenance flag.
        sim.add_node("a", lambda env: sim.every("a", 3, beat))
        sim.send(Envelope.request("b", "a", "/start"))
        assert sim.pending_external == 1
        assert sim.run_until_idle()
        assert sim.now == 1 and sim.pending_external == 0
        sim.advance_to(11)
        assert sim.now == 11
        assert [env.maintenance for env in sent] == [True, True, True]  # ticks 4, 7, 10
        assert sim.pending_external == 0
        assert sim.run_until_idle() and sim.now == 11

    def test_loop_on_a_killed_node_ends_and_revive_does_not_restart_it(self):
        sim = make_sim("a")
        fired: list[int] = []
        sim.every("a", 2, lambda: fired.append(sim.now))
        sim.advance_to(3)
        assert fired == [2]
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="a"))
        sim.advance_to(5)
        revive(sim, "a")
        assert sim.node_alive("a")
        sim.advance_to(20)
        assert fired == [2]
        assert sim.next_event_tick() is None

    def test_arming_is_checked(self):
        sim = make_sim("a")
        with pytest.raises(UnknownNode):
            sim.every("ghost", 1, lambda: None)
        with pytest.raises(SimwireError):
            sim.every("a", 0, lambda: None)


class TestTimerEntry:
    """A one-shot timer is the queue entry a loop is, with interval 0; its
    handle is that entry, and cancelling it clears the entry's ``fn``."""

    def test_cancelling_a_fired_timer_does_nothing(self):
        sim = make_sim("a")
        fired: list[str] = []
        first = sim.set_timer("a", 1, lambda: fired.append("first"))
        sim.set_timer("a", 2, lambda: fired.append("second"))
        sim.step()
        sim.cancel_timer(first)
        assert (sim.queue_depth, sim.pending_external) == (1, 1)
        assert sim.run_until_idle() and sim.now == 2
        assert fired == ["first", "second"]

    def test_a_cancelled_one_shot_is_queued_but_not_pending(self):
        sim = make_sim("a")
        fired: list[int] = []
        timer = sim.set_timer("a", 3, lambda: fired.append(sim.now))
        assert (sim.queue_depth, sim.pending_external) == (1, 1)
        sim.cancel_timer(timer)
        assert (sim.queue_depth, sim.pending_external) == (1, 0)
        assert sim.run_until_idle() and sim.now == 0
        assert sim.next_event_tick() == 3
        sim.step()
        assert fired == [] and sim.now == 3 and sim.queue_depth == 0

    def test_a_one_shot_armed_as_maintenance_is_never_pending(self):
        sim = make_sim("a")
        fired: list[int] = []
        sim.set_timer("a", 2, lambda: fired.append(sim.now), maintenance=True)
        # Armed while a maintenance event runs, a timer takes its flag.
        sim.every("a", 1, lambda: sim.set_timer("a", 1, lambda: fired.append(-sim.now))
                  if sim.now == 1 else None)
        for _ in range(3):
            assert sim.pending_external == 0
            assert sim.run_until_idle() and sim.queue_depth > 0
            sim.step()
        assert fired == [2, -2]


class _TrackedCounters:
    """A kernel driven by test ops, next to the pending and sent counts kept
    by the rule the kernel once tracked them by: +1 per queued message or
    timer not flagged maintenance, -1 per cancel of a live one, -1 per one
    popped by ``step``; one id per send and per network-error reply.

    The model keeps its own queue of what it expects the kernel to hold. It
    uses no DELAY rules, so every message lands one tick after its send, and
    no callback kills or revives a node, so liveness holds for a whole tick.
    """

    NODES = ("a", "b", "c")

    def __init__(self, sim: Simulator | None = None) -> None:
        self.sim = Simulator() if sim is None else sim
        for name in self.NODES:
            self.sim.add_node(name, lambda env: None)
        self.pending = 0
        self.ids = 0
        # due tick -> ("msg", maintenance, source, destination, is_request)
        # or ("timer", its record)
        self.queue: dict[int, list[tuple]] = {}
        # One [handle, maintenance, armed] record per timer set, in order
        self.timers: list[list] = []
        self.drops: list[tuple[str, str]] = []  # DROP rules in force
        self.ctx = False  # the flag the kernel runs the current callback under

    def _other(self, node: str) -> str:
        return self.NODES[(self.NODES.index(node) + 1) % len(self.NODES)]

    def _enqueue(self, due: int, item: tuple) -> None:
        self.queue.setdefault(due, []).append(item)

    def _running(self, flag: bool, fn) -> None:
        outer, self.ctx = self.ctx, flag
        try:
            fn()
        finally:
            self.ctx = outer

    def send(self, source: str, destination: str, maintenance=None) -> None:
        sim = self.sim
        flag = self.ctx if maintenance is None else maintenance
        depth = sim.queue_depth
        env = Envelope.request(source, destination, "/x")
        sim.send(env, maintenance)
        assert env.maintenance is flag
        self.ids += 1
        if not sim.node_alive(source):
            item = None  # dropped at the source
        elif not sim.node_alive(destination):
            self.ids += 1  # the kernel's network-error reply
            item = ("msg", flag, destination, source, False)
        elif (source, destination) in self.drops:
            item = None
        else:
            item = ("msg", flag, source, destination, True)
        assert sim.queue_depth == depth + (item is not None)
        if item is not None:
            self._enqueue(sim.now + 1, item)
            if not flag:
                self.pending += 1

    def set_timer(self, node: str, delay: int, maintenance, then: str) -> None:
        flag = self.ctx if maintenance is None else maintenance

        def fire() -> None:
            if then == "send":
                self._running(flag, lambda: self.send(node, self._other(node)))
            elif then == "timer":
                self._running(flag, lambda: self.set_timer(node, 1, None, "none"))

        record = [self.sim.set_timer(node, delay, fire, maintenance), flag, True]
        self.timers.append(record)
        self._enqueue(self.sim.now + delay, ("timer", record))
        if not flag:
            self.pending += 1

    def cancel(self, k: int) -> None:
        if not self.timers:
            return
        record = self.timers[k % len(self.timers)]
        self.sim.cancel_timer(record[0])
        self._disarm(record)

    def _disarm(self, record: list) -> None:
        """A timer leaves the pending count once, by a cancel or a firing."""
        _, flag, armed = record
        if armed and not flag:
            self.pending -= 1
        record[2] = False

    def every(self, node: str, interval: int) -> None:
        self.sim.every(node, interval, lambda: self._running(
            True, lambda: self.send(node, self._other(node))))

    def kill(self, node: str) -> None:
        self.sim.inject(FaultRule(FaultEffect.KILL_NODE, node=node))

    def revive(self, node: str) -> None:
        revive(self.sim, node)

    def drop(self, source: str, destination: str) -> None:
        self.sim.inject(FaultRule(FaultEffect.DROP, source=source, destination=destination))
        self.drops.append((source, destination))

    def undrop(self, k: int) -> None:
        """Heal the pair of the ``k``-th drop, which lifts every drop of it."""
        if self.drops:
            pair = self.drops[k % len(self.drops)]
            heal(self.sim, *pair)
            self.drops = [drop for drop in self.drops if drop != pair]

    def step(self) -> None:
        self.sim.step()
        self._pop(through=self.sim.now)

    def advance(self, ticks: int) -> None:
        target = self.sim.now + ticks
        self.sim.advance_to(target)
        self._pop(through=target - 1)

    def _pop(self, through: int) -> None:
        """Take every expected event due by ``through`` off the model queue."""
        alive = self.sim.node_alive
        while self.queue and min(self.queue) <= through:
            tick = min(self.queue)
            for item in self.queue.pop(tick):
                if item[0] == "timer":
                    self._disarm(item[1])
                    continue
                _, flag, source, destination, is_request = item
                if not flag:
                    self.pending -= 1
                if not alive(destination) and is_request and alive(source):
                    self.ids += 1
                    self._enqueue(tick + 1, ("msg", flag, destination, source, False))
                    if not flag:
                        self.pending += 1


_node = st.sampled_from(_TrackedCounters.NODES)
_flag = st.sampled_from([None, True, False])
_kernel_op = st.one_of(
    st.tuples(st.just("send"), _node, _node, _flag),
    st.tuples(st.just("set_timer"), _node, st.integers(1, 4), _flag,
              st.sampled_from(["none", "send", "timer"])),
    st.tuples(st.just("cancel"), st.integers(0, 20)),
    st.tuples(st.just("every"), _node, st.integers(1, 4)),
    st.tuples(st.just("kill"), _node),
    st.tuples(st.just("revive"), _node),
    st.tuples(st.just("drop"), _node, _node),
    st.tuples(st.just("undrop"), st.integers(0, 5)),
    st.tuples(st.just("step")),
    st.tuples(st.just("advance"), st.integers(0, 5)),
)


class TestDerivedCounts:
    """``pending_external`` and ``sent`` are derived from the queue and the
    id counter; they must read what per-event tracking would have read."""

    @given(ops=st.lists(_kernel_op, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_counts_equal_the_tracked_ones_after_every_op(self, ops):
        model = _TrackedCounters()
        sim = model.sim
        for name, *args in ops:
            getattr(model, name)(*args)
            assert (sim.pending_external, sim.sent) == (model.pending, model.ids), name
        # With no pending work the kernel takes no step, and an event due at
        # ``now`` itself (left by ``advance``) stays queued. Otherwise its
        # last step delivered tick ``now`` and everything before it.
        stepped = model.pending > 0
        assert sim.run_until_idle(budget=100)
        if stepped:
            model._pop(through=sim.now)
        assert sim.pending_external == model.pending == 0
        assert sim.sent == model.ids

    def test_a_raising_handler_leaves_no_phantom_pending_work(self):
        # The handler raises on the tick's first message. The rest of the
        # tick stays queued at that tick, counts as pending, and the next
        # step delivers it without moving the clock.
        sim = make_sim("a")

        def on_b(env: Envelope) -> None:
            if env.path == "/boom":
                raise RuntimeError("boom")

        sim.add_node("b", on_b)
        sim.send(Envelope.request("a", "b", "/boom"))
        after = sim.send(Envelope.request("a", "b", "/after"))
        with pytest.raises(RuntimeError):
            sim.step()
        assert (sim.queue_depth, sim.pending_external) == (1, 1)
        assert [r.path for r in sim.records] == ["/boom"]
        assert [e.path for e in sim.step()] == ["/after"]
        assert (sim.records[-1].tick, sim.records[-1].message_id,
                sim.records[-1].status) == (1, after, DELIVERED)
        assert sim.run_until_idle(budget=50)
        assert sim.now == 1
        assert sim.delivered == 2


class _ReferenceTrace(Simulator):
    """A kernel that also keeps its trace the way it once stored it: a list
    of :class:`MessageRecord`, each built when its record is written.

    Every node gets a handler, so each delivery reaches the wrapper right
    after the kernel writes its record; ``_record`` writes all the others.
    """

    def __init__(self) -> None:
        super().__init__()
        self.reference: list[MessageRecord] = []

    def add_node(self, name, handler=None) -> None:
        def record_then_handle(env: Envelope) -> None:
            kind = env.kind
            status = (env.status or DELIVERED) if kind is RESPONSE else DELIVERED
            self.reference.append(MessageRecord(
                self.now, env.message_id, env.source, env.destination, kind,
                env.method, env.path, status))
            if handler is not None:
                handler(env)
        super().add_node(name, record_then_handle)

    def _record(self, env: Envelope, status: str) -> None:
        self.reference.append(MessageRecord(
            self.now, env.message_id, env.source, env.destination, env.kind,
            env.method, env.path, status))
        super()._record(env, status)


class TestWireTrace:
    """``Simulator.records`` reads like the list of records it replaced."""

    @given(ops=st.lists(_kernel_op, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_reads_like_a_list_of_records(self, ops):
        sim = _ReferenceTrace()
        model = _TrackedCounters(sim)
        for name, *args in ops:
            getattr(model, name)(*args)
        assert sim.run_until_idle(budget=100)
        reference, records = sim.reference, sim.records
        n = len(reference)
        assert len(records) == n
        assert bool(records) is (n > 0)
        assert list(records) == reference
        assert all(type(r) is MessageRecord for r in records)
        assert list(records) == reference  # a second pass reads the same
        for i in range(n):
            assert records[i] == reference[i]
            assert records[-(i + 1)] == reference[-(i + 1)]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                records[i]
        for cut in (slice(3), slice(-2, None), slice(1, n - 1), slice(None, None, 2),
                    slice(None, None, -1), slice(n, None)):
            got = records[cut]
            assert type(got) is list and got == reference[cut]
            assert all(type(r) is MessageRecord for r in got)
        assert records == reference
        assert list(records.rows()) == [tuple(r) for r in reference]

    def test_covers_every_fate_and_the_network_error_reply(self):
        # The example the property must cover: a delivered request, a drop
        # at a dead source, a failure at a dead destination and the kernel's
        # delivered network-error reply.
        sim = _ReferenceTrace()
        model = _TrackedCounters(sim)
        model.send("a", "b", None)
        model.kill("c")
        model.send("c", "a", None)
        model.send("a", "c", None)
        assert sim.run_until_idle(budget=10)
        assert [(r.kind, r.status) for r in sim.records] == [
            ("REQUEST", DROPPED), ("REQUEST", FAILED), ("REQUEST", DELIVERED),
            ("RESPONSE", NETWORK_ERROR_STATUS)]
        assert sim.records == sim.reference

    def test_two_traces_compare_by_their_records(self):
        def run(paths):
            sim = make_sim("a", "b")
            for path in paths:
                sim.send(Envelope.request("a", "b", path))
            sim.run_until_idle()
            return sim.records

        assert run(["/x", "/y"]) == run(["/x", "/y"])
        assert run(["/x", "/y"]) != run(["/x", "/z"])
        assert run(["/x"]) != run(["/x", "/y"])

    def test_writing_records_leaves_nothing_for_the_collector(self):
        # The trace is kept as plain fields: 1,000 request/response pairs
        # leave no per-record object tracked by the cyclic collector.
        sim = make_sim("a")
        sim.add_node("b", lambda env: sim.send(Envelope.response(env, "200"))
                     if env.kind is REQUEST else None)
        gc.disable()
        try:
            before = len(gc.get_objects())
            for _ in range(1000):
                sim.send(Envelope.request("a", "b", "/ping"))
                sim.step()
                sim.step()
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(sim.records) == 2000
        assert added < 100


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


class TestCanonicalJson:
    @given(_json_values)
    @settings(max_examples=300, deadline=None)
    def test_is_json_dumps_with_sorted_keys_and_no_whitespace(self, value):
        assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))

    def test_without_the_json_accelerator_it_is_the_shared_encoder(self, monkeypatch):
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        spec = importlib.util.find_spec("ssaas_sim.simwire")
        fallback = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fallback)
        assert fallback.canonical_json == fallback._CANONICAL.encode
        body = {"b": [1, 2.5, float("nan"), None, True], "a": "\u00e9\t",
                "c": {"z": -0.0, "y": float("-inf")}}
        assert fallback.canonical_json(body) == canonical_json(body)
        assert canonical_json(body) == (
            '{"a":"\\u00e9\\t","b":[1,2.5,NaN,null,true],"c":{"y":-Infinity,"z":-0.0}}')
