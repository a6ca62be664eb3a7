"""Service registry with leased instance records.

Instances register with a fixed-ttl lease and renew it periodically; a
sweeper evicts expired records. Queries only ever return live, UP
instances, so clients never see an endpoint the registry already knows is
gone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .chassis import REGISTRY_NODE, Refusal, Request, ServiceNode
from .simwire import Body, Simulator

SERVICE_NAME = "ServiceRegistry"

STATUS_UP = "UP"


class RegistryError(Refusal):
    pass


class UnknownInstance(RegistryError):
    status = "404"
    code = "UnknownInstance"


class MalformedInstance(RegistryError):
    code = "MalformedInstance"


@dataclass(frozen=True)
class LeaseConfig:
    ttl_ticks: int = 30
    eviction_sweep_ticks: int = 5


class Instance(NamedTuple):
    """One leased record. Immutable: a renewal replaces it."""

    service: str
    instance_id: str
    address: str
    port: int
    status: str
    lease_expiry: int

    def to_body(self) -> dict:
        return {"service": self.service, "instance_id": self.instance_id,
                "address": self.address, "port": self.port,
                "status": self.status, "lease_expiry": self.lease_expiry}


_new_tuple = tuple.__new__  # builds a renewed Instance without its __new__ frame


class RegistryStore:
    """Pure lease bookkeeping; every operation takes the current tick."""

    def __init__(self, lease: LeaseConfig = LeaseConfig()) -> None:
        self.lease = lease
        self._instances: dict[tuple[str, str], Instance] = {}

    def register(self, service: str, instance_id: str, address: str, port: int,
                 now: int, status: str = STATUS_UP) -> Instance:
        """Create or replace an instance record with a fresh lease."""
        if not service or not instance_id or not address:
            raise MalformedInstance("service, instance_id and address are required")
        inst = Instance(service=service, instance_id=instance_id, address=address,
                        port=int(port), status=status,
                        lease_expiry=now + self.lease.ttl_ticks)
        self._instances[(service, instance_id)] = inst
        return inst

    def renew(self, service: str, instance_id: str, now: int) -> Instance:
        key = (service, instance_id)
        inst = self._instances.get(key)
        if inst is None:
            raise UnknownInstance(f"{service}/{instance_id}")
        inst = _new_tuple(Instance, (inst.service, inst.instance_id, inst.address,
                                     inst.port, inst.status, now + self.lease.ttl_ticks))
        self._instances[key] = inst
        return inst

    def deregister(self, service: str, instance_id: str) -> bool:
        return self._instances.pop((service, instance_id), None) is not None

    def query(self, service: str, now: int) -> list[Instance]:
        """Live UP instances of a service, ordered by instance id.
        A lease expiring exactly now no longer counts as live."""
        return sorted(
            (inst for inst in self._instances.values()
             if inst.service == service and inst.status == STATUS_UP
             and inst.lease_expiry > now),
            key=lambda inst: inst.instance_id)

    def sweep(self, now: int) -> list[Instance]:
        """Evict every record whose lease has expired (expiry <= now)."""
        evicted = [inst for inst in self._instances.values() if inst.lease_expiry <= now]
        if not evicted:
            return evicted
        for inst in evicted:
            del self._instances[(inst.service, inst.instance_id)]
        return sorted(evicted, key=lambda i: (i.service, i.instance_id))

    def all_instances(self) -> list[Instance]:
        return sorted(self._instances.values(), key=lambda i: (i.service, i.instance_id))

    def snapshot_lines(self) -> list[str]:
        return [f"{i.service}|{i.instance_id}|{i.address}|{i.port}|{i.lease_expiry}"
                for i in self.all_instances()]


class RegistryService(ServiceNode):
    """Wire front end for a :class:`RegistryStore` plus the sweep timer."""

    def __init__(self, sim: Simulator, node_id: str = REGISTRY_NODE,
                 lease: LeaseConfig = LeaseConfig()) -> None:
        super().__init__(sim, node_id, SERVICE_NAME)
        self.store = RegistryStore(lease)
        self.route("POST", "/registry/{service}", self._register)
        self.route("PUT", "/registry/{service}/{instance_id}/renew", self._renew)
        self.route("DELETE", "/registry/{service}/{instance_id}", self._deregister)
        self.route("GET", "/registry/{service}", self._query)

    def go_live(self) -> None:
        """Arm the registry's own loop, the eviction sweep. The registry
        registers with nobody."""
        self.sim.every(self.node_id, self.store.lease.eviction_sweep_ticks,
                       lambda: self.store.sweep(self.sim.now))

    def _register(self, req: Request) -> tuple[str, Body]:
        body = req.body if isinstance(req.body, dict) else {}
        instance_id, address = body.get("instance_id", ""), body.get("address", "")
        port, status = body.get("port", 0), body.get("status", STATUS_UP)
        if not all(isinstance(v, str) for v in (instance_id, address, status)) \
                or isinstance(port, bool) or not isinstance(port, int):
            raise MalformedInstance("instance_id, address and status are strings, port an int")
        inst = self.store.register(req.params["service"], instance_id, address, port,
                                   self.sim.now, status)
        return "200", {"lease_expiry": inst.lease_expiry}

    def _renew(self, req: Request) -> tuple[str, Body]:
        inst = self.store.renew(req.params["service"], req.params["instance_id"], self.sim.now)
        return "200", {"lease_expiry": inst.lease_expiry}

    def _deregister(self, req: Request) -> tuple[str, Body]:
        removed = self.store.deregister(req.params["service"], req.params["instance_id"])
        return "200", {"removed": removed}

    def _query(self, req: Request) -> tuple[str, Body]:
        return "200", [inst.to_body()
                       for inst in self.store.query(req.params["service"], self.sim.now)]
