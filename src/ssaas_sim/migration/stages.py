"""Executable topologies for each step of the migration.

Every stage is a complete, runnable system over one simulator. The stages
differ only in which nodes exist and how calls are wired; the service
implementations and the external request surface stay fixed, which is what
makes the step-to-step trace comparisons meaningful.

The ladder is the :data:`STAGES` table. Each row is the one before it plus
one migration step: a service split out, or an infrastructure node added.
Whatever else differs by stage follows from the services a row runs
(:func:`holders`). Building a stage, scaling it out and adding a client all
go through one start path, :meth:`SystemHandle.start`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from ..chassis import (DEFAULT_BREAKER_OPEN_TICKS, DEFAULT_BREAKER_THRESHOLD, DEFAULT_PROFILE,
                       MONOLITH_NODE, ServiceClient, ServiceNode, WiringMode)
from ..confsvc import ConfigServer
from ..gateway import SERVICE_NAME as GATEWAY_SERVICE
from ..gateway import Gateway, RouteTable
from ..registry import RegistryService
from ..simwire import Simulator
from ..ssaas.services import (DEV_ENTITY_EMBEDDED, DEV_ENTITY_SERVICE, ChatServices,
                              ContentServices, DeveloperData, DeveloperInfoServices,
                              DeveloperServices, Monolith, ResourceManager)
from ..ssaas.stores import (ChatStore, ContentStore, DeveloperStore, SchemaStore, ServerFlavor,
                            ServerPool)

FIRST_STAGE = 0
LAST_STAGE = 6

SETTLE_BUDGET_TICKS = 200
CLIENT_DEADLINE_TICKS = 60
CLIENT_SERVICE = "Client"  # the service of every node a workload line sends from

_BREAKER_DOC = {"breaker.threshold": str(DEFAULT_BREAKER_THRESHOLD),
                "breaker.open_ticks": str(DEFAULT_BREAKER_OPEN_TICKS)}

_SERVER_SPECS = (("oracle-a", ServerFlavor.ORACLE, 4),
                 ("oracle-b", ServerFlavor.ORACLE, 4),
                 ("mysql-a", ServerFlavor.MYSQL, 4),
                 ("mysql-b", ServerFlavor.MYSQL, 4))


class UnknownStage(Exception):
    pass


class StageTopology(NamedTuple):
    """One rung of the ladder: the app services the stage runs, in start
    order, and its infrastructure nodes, also in start order."""

    title: str
    wiring: str
    services: tuple[str, ...]
    infrastructure: tuple[str, ...] = ()


_SPLIT = ("DeveloperData", "DeveloperServices", "ContentServices")
_INFRASTRUCTURE = {"confsvc": ConfigServer, "gateway": Gateway, "registry": RegistryService}
_INFRA = tuple(_INFRASTRUCTURE)

STAGES: dict[int, StageTopology] = {
    0: StageTopology("single deployable", WiringMode.LIBRARY_CALL, _SPLIT),
    1: StageTopology("data service split out", WiringMode.DIRECT_WIRE, _SPLIT),
    2: StageTopology("central configuration", WiringMode.DIRECT_WIRE, _SPLIT, _INFRA[:1]),
    3: StageTopology("edge gateway", WiringMode.DIRECT_WIRE, _SPLIT, _INFRA[:2]),
    4: StageTopology("discovery, balancing, breakers", WiringMode.DISCOVERED,
                     _SPLIT, _INFRA),
    5: StageTopology("resource manager split out", WiringMode.DISCOVERED,
                     _SPLIT + ("ResourceManager",), _INFRA),
    6: StageTopology("target topology", WiringMode.DISCOVERED,
                     _SPLIT + ("ResourceManager", "ChatServices", "DeveloperInfoServices"),
                     _INFRA),
}

# Services that keep one instance when a stage scales out.
_UNSCALED = ("DeveloperData", "ResourceManager")


class Stores:
    def __init__(self) -> None:
        self.schemas = SchemaStore()
        self.developers = DeveloperStore()
        self.pool = ServerPool()
        self.content = ContentStore()
        self.chats = ChatStore()


@lru_cache(maxsize=None)
def holders(stage: int) -> tuple[tuple[str, str], str]:
    """Where ``stage`` holds the developer entity (service, path prefix) and
    the server pool: each in its own service once the row runs it, else in
    DeveloperData. Cached by stage number: a number names one row per process."""
    runs = STAGES[stage].services
    return (DEV_ENTITY_SERVICE if DEV_ENTITY_SERVICE[0] in runs else DEV_ENTITY_EMBEDDED,
            "ResourceManager" if "ResourceManager" in runs else "DeveloperData")


def route_entries(stage: int) -> dict[str, str]:
    """Gateway route table for a stage, as config entries."""
    dev_holder = holders(stage)[0][0]  # DeveloperServices relays while DeveloperData holds it
    dev_target = "DeveloperServices" if dev_holder == "DeveloperData" else dev_holder
    return {"route.1": f"/api/developers|{dev_target}|1",
            "route.2": "/api/projects|DeveloperServices|1",
            "route.3": "/api/content|ContentServices|1",
            "route.4": "/api/chat|ChatServices|1"}


class SystemHandle:
    """A built topology: the simulator plus everything tests and the
    harness need to drive and inspect it. Fixed once built, except that
    :meth:`start` adds to ``nodes`` and ``settle_tick`` is set on settling."""

    def __init__(self, sim: Simulator, stage: int, stores: Stores, client_router: RouteTable,
                 confsvc: ConfigServer | None = None, registry: RegistryService | None = None,
                 gateway: Gateway | None = None) -> None:
        self.sim = sim
        self.stage = stage
        self.stores = stores
        self.nodes: dict[str, ServiceNode] = {}
        self.client_router = client_router
        self.confsvc = confsvc
        self.registry = registry
        self.gateway = gateway
        self.settle_tick = 0

    def node_services(self) -> dict[str, str]:
        return {node_id: node.service for node_id, node in self.nodes.items()}

    def manifest_lines(self) -> list[str]:
        lines = []
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            wiring = node.client.mode if node.client is not None else "-"
            lines.append(f"{self.stage}|{node_id}|{node.service}|{wiring}")
        return lines

    def direct_map(self) -> dict[str, str]:
        """Where a statically wired call to each service goes: the service's
        first instance. The single deployable stands in for every service."""
        if STAGES[self.stage].wiring == WiringMode.LIBRARY_CALL:
            return dict.fromkeys(STAGES[LAST_STAGE].services, MONOLITH_NODE)
        return {service: _node_id(service, 1) for service in STAGES[self.stage].services}

    def start(self, nodes: list[ServiceNode]) -> None:
        """Start built nodes in three phases, each over every node before the
        next: (1) subscribe app nodes and the gateway to the configuration
        server, which adds their last route, and bind every node, which
        compiles its routes; wire the clients of those, and have a revive
        reset the client of every node but a workload client, whose calls
        must each end in an answer; (2) pull their config; (3) register the
        app nodes and arm each node's own loops. Settle traffic shows the
        order: every config pull in node order, then every registration."""
        topo = STAGES[self.stage]
        callers = (*topo.services, GATEWAY_SERVICE)
        direct = self.direct_map() if topo.wiring == WiringMode.DIRECT_WIRE else {}
        confsvc, registry = self.confsvc, self.registry
        for node in nodes:
            if confsvc is not None and node.service in callers:
                confsvc.subscribe(node)
            node.bind()
            self.nodes[node.node_id] = node
            if node.service in callers:
                ServiceClient(node, topo.wiring).direct.update(direct)
            if node.client is not None and node.service != CLIENT_SERVICE:
                self.sim.on_revive(node.node_id, node.client.reset)
        for node in nodes:
            if confsvc is not None and node.service in callers:
                node.pull_config()
        for node in nodes:
            if registry is not None and (node.service in topo.services or node is registry):
                node.go_live()

    def add_instance(self, service: str) -> str:
        """Scale out one more instance of an app service the stage runs
        (stage 4 and up), sharing the service's store. Returns the new node
        id."""
        if self.registry is None:
            raise UnknownStage("scale-out needs the discovery stage")
        if service not in STAGES[self.stage].services or service in _UNSCALED:
            raise UnknownStage(f"cannot scale {service} at stage {self.stage}")
        count = sum(1 for n in self.nodes.values() if n.service == service)
        node = _app_node(self, service, _node_id(service, count + 1))
        self.start([node])
        return node.node_id


def build_stage(stage: int, seed: int = 0) -> SystemHandle:
    """Construct a settled, idle system for one migration stage."""
    if stage not in STAGES:
        raise UnknownStage(str(stage))
    topo = STAGES[stage]
    sim = Simulator(seed=seed)
    stores = Stores()
    for server_id, flavor, capacity in _SERVER_SPECS:
        stores.pool.register_server(server_id, flavor, capacity)
    infra = {name: _INFRASTRUCTURE[name](sim) for name in topo.infrastructure}
    handle = SystemHandle(sim=sim, stage=stage, stores=stores,
                          client_router=RouteTable.from_config_entries(route_entries(stage)),
                          **infra)  # type: ignore[arg-type]

    if topo.wiring == WiringMode.LIBRARY_CALL:
        _build_monolith(handle)
    else:
        if handle.confsvc is not None:
            gateway = (GATEWAY_SERVICE,) if handle.gateway is not None else ()
            for service in topo.services + gateway:
                handle.confsvc.store.set_config(service, DEFAULT_PROFILE,
                                                _service_doc(service, stage))
        nodes = [_app_node(handle, service, _node_id(service, 1)) for service in topo.services]
        handle.start(nodes + list(infra.values()))

    wire_client(handle, "client")

    settled = sim.run_until_idle(budget=SETTLE_BUDGET_TICKS)
    assert settled, "topology did not settle"
    handle.settle_tick = sim.now
    return handle


def wire_client(handle: SystemHandle, name: str) -> ServiceNode:
    """Get or create an external client node wired for the handle's stage.

    Before the gateway exists a client reaches services by the static map."""
    node = handle.nodes.get(name)
    if node is None:
        node = ServiceNode(handle.sim, name, CLIENT_SERVICE)
        client = ServiceClient(node, WiringMode.DIRECT_WIRE, deadline=CLIENT_DEADLINE_TICKS)
        client.direct.update(handle.direct_map())
        handle.start([node])
    return node


def _node_id(service: str, instance: int) -> str:
    return f"{service.lower()}-{instance}"


def _app_node(handle: SystemHandle, service: str, node_id: str) -> ServiceNode:
    """One instance of an app service, holding or calling the developer
    entity and the server pool where :func:`holders` puts them."""
    sim, stores = handle.sim, handle.stores
    dev_entity, pool_holder = holders(handle.stage)
    if service == "DeveloperData":
        return DeveloperData(sim, node_id, stores.schemas,
                             stores.developers if dev_entity == DEV_ENTITY_EMBEDDED else None,
                             stores.pool if pool_holder == "DeveloperData" else None)
    if service == "DeveloperServices":
        return DeveloperServices(sim, node_id, dev_entity, pool_holder)
    if service == "ContentServices":
        return ContentServices(sim, node_id, stores.content)
    if service == "ResourceManager":
        return ResourceManager(sim, node_id, stores.pool)
    if service == "ChatServices":
        return ChatServices(sim, node_id, stores.chats, dev_entity, pool_holder)
    return DeveloperInfoServices(sim, node_id, stores.developers)


def _build_monolith(handle: SystemHandle) -> None:
    """Stage 0: one node, hosting every service, with one in-process client."""
    mono = Monolith(handle.sim)
    ServiceClient(mono, WiringMode.LIBRARY_CALL)
    for service in STAGES[0].services:
        mono.host(_app_node(handle, service, mono.node_id))
    handle.start([mono])


def _service_doc(service: str, stage: int) -> dict[str, str]:
    doc = dict(_BREAKER_DOC)
    if service == "ResourceManager":
        doc["rm.policy"] = "least_used"
    if service == GATEWAY_SERVICE:
        doc.update(route_entries(stage))
    return doc
