"""Lease lifecycle rules, checked directly and against a brute-force oracle."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssaas_sim.chassis import ServiceClient, ServiceNode, WiringMode
from ssaas_sim.registry import (
    LeaseConfig,
    MalformedInstance,
    RegistryService,
    RegistryStore,
    UnknownInstance,
)
from ssaas_sim.simwire import Simulator


class TestStoreBasics:
    def test_register_sets_lease_from_ttl(self):
        store = RegistryStore()
        inst = store.register("Chat", "chat-1", "chat-1", 0, now=7)
        assert inst.lease_expiry == 37

    def test_register_replaces_existing_record(self):
        store = RegistryStore()
        store.register("Chat", "chat-1", "old-addr", 1, now=0)
        inst = store.register("Chat", "chat-1", "new-addr", 2, now=5)
        assert inst.address == "new-addr"
        assert len(store.all_instances()) == 1
        assert inst.lease_expiry == 35

    def test_register_validates_fields(self):
        store = RegistryStore()
        with pytest.raises(MalformedInstance):
            store.register("", "i", "a", 0, now=0)
        with pytest.raises(MalformedInstance):
            store.register("S", "", "a", 0, now=0)
        with pytest.raises(MalformedInstance):
            store.register("S", "i", "", 0, now=0)

    def test_renew_extends_from_now(self):
        store = RegistryStore()
        store.register("Chat", "chat-1", "chat-1", 0, now=0)
        inst = store.renew("Chat", "chat-1", now=25)
        assert inst.lease_expiry == 55

    def test_renew_replaces_the_immutable_record(self):
        store = RegistryStore()
        first = store.register("Chat", "chat-1", "chat-1", 0, now=0)
        renewed = store.renew("Chat", "chat-1", now=25)
        assert renewed is not first
        assert (first.lease_expiry, renewed.lease_expiry) == (30, 55)
        assert store.all_instances() == [renewed]
        with pytest.raises(AttributeError):
            renewed.lease_expiry = 99

    def test_renew_unknown_raises(self):
        store = RegistryStore()
        with pytest.raises(UnknownInstance):
            store.renew("Chat", "ghost", now=0)

    def test_deregister_is_idempotent(self):
        store = RegistryStore()
        store.register("Chat", "chat-1", "chat-1", 0, now=0)
        assert store.deregister("Chat", "chat-1") is True
        assert store.deregister("Chat", "chat-1") is False


class TestQueryAndSweep:
    def test_query_sorted_and_filtered_by_service(self):
        store = RegistryStore()
        store.register("Chat", "chat-2", "chat-2", 0, now=0)
        store.register("Chat", "chat-1", "chat-1", 0, now=0)
        store.register("Other", "o-1", "o-1", 0, now=0)
        assert [i.instance_id for i in store.query("Chat", now=0)] == ["chat-1", "chat-2"]

    def test_expiry_boundary_is_exclusive_for_query(self):
        # lease_expiry == now means gone from queries, even before a sweep
        store = RegistryStore()
        store.register("Chat", "chat-1", "chat-1", 0, now=0)  # expiry 30
        assert [i.instance_id for i in store.query("Chat", now=29)] == ["chat-1"]
        assert store.query("Chat", now=30) == []

    def test_down_instances_not_returned(self):
        store = RegistryStore()
        store.register("Chat", "chat-1", "chat-1", 0, now=0, status="DOWN")
        assert store.query("Chat", now=0) == []

    def test_sweep_boundary_is_inclusive(self):
        store = RegistryStore()
        store.register("Chat", "chat-1", "chat-1", 0, now=0)  # expiry 30
        assert store.sweep(now=29) == []
        evicted = store.sweep(now=30)
        assert [i.instance_id for i in evicted] == ["chat-1"]
        assert store.all_instances() == []

    def test_renewal_keeps_instance_alive_past_original_ttl(self):
        store = RegistryStore()
        store.register("Chat", "chat-1", "chat-1", 0, now=0)
        store.renew("Chat", "chat-1", now=10)
        store.sweep(now=30)
        assert [i.instance_id for i in store.query("Chat", now=35)] == ["chat-1"]

    def test_snapshot_line_format(self):
        store = RegistryStore()
        store.register("Chat", "chat-1", "chat-1", 5222, now=0)
        assert store.snapshot_lines() == ["Chat|chat-1|chat-1|5222|30"]


class LeaseOracle:
    """Naive model: a dict of expiries, recomputed exhaustively."""

    def __init__(self, ttl: int) -> None:
        self.ttl = ttl
        self.expiry: dict[str, int] = {}

    def register(self, iid: str, now: int) -> None:
        self.expiry[iid] = now + self.ttl

    def renew(self, iid: str, now: int) -> bool:
        if iid not in self.expiry:
            return False
        self.expiry[iid] = now + self.ttl
        return True

    def deregister(self, iid: str) -> None:
        self.expiry.pop(iid, None)

    def sweep(self, now: int) -> None:
        self.expiry = {i: e for i, e in self.expiry.items() if e > now}

    def live(self, now: int) -> list[str]:
        return sorted(i for i, e in self.expiry.items() if e > now)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                          st.sampled_from(["register", "renew", "deregister", "sweep"]),
                          st.sampled_from(["i1", "i2", "i3"])),
                max_size=80))
@settings(max_examples=80, deadline=None)
def test_store_matches_lease_oracle(ops):
    store = RegistryStore()
    oracle = LeaseOracle(ttl=store.lease.ttl_ticks)
    now = 0
    for gap, op, iid in ops:
        now += gap
        if op == "register":
            store.register("S", iid, iid, 0, now=now)
            oracle.register(iid, now)
        elif op == "renew":
            try:
                store.renew("S", iid, now=now)
                renewed = True
            except UnknownInstance:
                renewed = False
            assert renewed == oracle.renew(iid, now)
        elif op == "deregister":
            store.deregister("S", iid)
            oracle.deregister(iid)
        else:
            store.sweep(now=now)
            oracle.sweep(now)
        assert [i.instance_id for i in store.query("S", now=now)] == oracle.live(now)
        assert sorted(i.instance_id for i in store.all_instances()) == sorted(oracle.expiry)


@given(st.integers(min_value=1, max_value=12),
       st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                          st.sampled_from(["register", "renew", "deregister", "sweep"]),
                          st.sampled_from(["S", "T"]), st.sampled_from(["i1", "i2", "i3"])),
                max_size=60))
# A register, then a renew, at a tick before the bound: each must lower it.
@example(1, [(30, "register", "S", "i1"), (0, "sweep", "S", "i1"),
             (5, "register", "S", "i2"), (10, "sweep", "S", "i2")])
@example(1, [(30, "register", "S", "i1"), (40, "register", "S", "i2"),
             (35, "sweep", "S", "i1"), (2, "renew", "S", "i2"), (5, "sweep", "S", "i2")])
@settings(max_examples=300, deadline=None)
def test_bounded_sweep_evicts_what_a_full_scan_evicts(ttl, ops):
    """Each operation runs at its own tick, so ticks also go backwards. A
    sweep may return before it scans, but it evicts exactly the records a
    full scan of every lease evicts, in the same order."""
    store = RegistryStore(LeaseConfig(ttl_ticks=ttl))
    expiry: dict[tuple[str, str], int] = {}
    for now, op, service, iid in ops:
        key = (service, iid)
        if op == "register":
            store.register(service, iid, iid, 0, now=now)
            expiry[key] = now + ttl
        elif op == "renew":
            if key in expiry:
                store.renew(service, iid, now=now)
                expiry[key] = now + ttl
            else:
                with pytest.raises(UnknownInstance):
                    store.renew(service, iid, now=now)
        elif op == "deregister":
            store.deregister(service, iid)
            expiry.pop(key, None)
        else:
            scanned = sorted(key + (due,) for key, due in expiry.items() if due <= now)
            evicted = store.sweep(now=now)
            assert [(i.service, i.instance_id, i.lease_expiry) for i in evicted] == scanned
            expiry = {key: due for key, due in expiry.items() if due > now}
        assert sorted(store.all_instances()) == sorted(
            (service, iid, iid, 0, "UP", due) for (service, iid), due in expiry.items())


class TestWireApi:
    def _setup(self):
        sim = Simulator()
        registry = RegistryService(sim)
        registry.bind()
        caller = ServiceNode(sim, "caller", "Caller").bind()
        ServiceClient(caller, WiringMode.DIRECT_WIRE)
        return sim, registry, caller

    def _call(self, sim, caller, method, path, body=None):
        results = []
        caller.client.call_node("registry", method, path, body,
                                lambda status, reply: results.append((status, reply)))
        assert sim.run_until_idle(budget=100)
        [answer] = results
        return answer

    def test_register_renew_query_deregister_flow(self):
        sim, registry, caller = self._setup()
        status, reply = self._call(sim, caller, "POST", "/registry/Chat",
                                   {"instance_id": "chat-1", "address": "chat-1", "port": 0,
                                    "status": "UP"})
        assert status == "200" and reply["lease_expiry"] == sim.now - 1 + 30

        status, reply = self._call(sim, caller, "GET", "/registry/Chat")
        assert [i["instance_id"] for i in reply] == ["chat-1"]
        assert set(reply[0]) >= {"service", "instance_id", "address", "port",
                                 "status", "lease_expiry"}

        status, reply = self._call(sim, caller, "PUT", "/registry/Chat/chat-1/renew")
        assert status == "200"

        status, reply = self._call(sim, caller, "DELETE", "/registry/Chat/chat-1")
        assert (status, reply) == ("200", {"removed": True})

        status, reply = self._call(sim, caller, "GET", "/registry/Chat")
        assert reply == []

    def test_renew_unknown_is_404(self):
        sim, registry, caller = self._setup()
        status, reply = self._call(sim, caller, "PUT", "/registry/Chat/ghost/renew")
        assert status == "404"
        assert reply == {"error": "UnknownInstance"}

    def test_register_missing_fields_is_400(self):
        sim, registry, caller = self._setup()
        status, reply = self._call(sim, caller, "POST", "/registry/Chat", {"port": 1})
        assert status == "400"
        assert reply == {"error": "MalformedInstance"}

    @pytest.mark.parametrize("port", [[1], {"p": 1}])
    def test_register_non_scalar_port_is_400(self, port):
        sim, registry, caller = self._setup()
        status, reply = self._call(sim, caller, "POST", "/registry/X",
                                   {"instance_id": "x-1", "address": "x-1", "port": port})
        assert status == "400"
        assert reply == {"error": "MalformedInstance"}
        assert registry.store.all_instances() == []

    @pytest.mark.parametrize("body", [
        {"instance_id": None, "address": None, "port": 1},
        {"instance_id": "x-1", "address": ["x-1"], "port": 1},
        {"instance_id": "x-1", "address": "x-1", "port": 1, "status": None},
        {"instance_id": "x-1", "address": "x-1", "port": True},
        {"instance_id": "x-1", "address": "x-1", "port": "1"},
    ], ids=["null-id", "list-address", "null-status", "bool-port", "string-port"])
    def test_register_wrong_field_types_are_400(self, body):
        sim, registry, caller = self._setup()
        status, reply = self._call(sim, caller, "POST", "/registry/X", body)
        assert status == "400"
        assert reply == {"error": "MalformedInstance"}
        assert registry.store.all_instances() == []

    def test_sweeper_evicts_unrenewed_instance(self):
        sim, registry, caller = self._setup()
        registry.go_live()
        self._call(sim, caller, "POST", "/registry/Chat",
                   {"instance_id": "chat-1", "address": "chat-1", "port": 0})
        sim.advance_to(sim.now + 40)
        while sim.queue_depth and (sim.next_event_tick() or 0) <= sim.now:
            sim.step()
        assert registry.store.all_instances() == []

    def test_sweep_timer_is_maintenance_traffic(self):
        sim, registry, caller = self._setup()
        registry.go_live()
        assert sim.pending_external == 0
