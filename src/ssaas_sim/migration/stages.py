"""Executable topologies for each step of the migration.

Every stage is a complete, runnable system over one simulator. The stages
differ only in which nodes exist and how calls are wired; the service
implementations and the external request surface stay fixed, which is what
makes the step-to-step trace comparisons meaningful.

Stage ladder:

* 0: the original single deployable; services are in-process libraries.
* 1: the data layer runs as its own service over the wire, statically wired.
* 2: adds the configuration server; nodes pull their documents at startup.
* 3: adds the edge gateway; external traffic enters through /api prefixes.
* 4: adds the registry; inter-service calls are discovered, balanced, and
     guarded by circuit breakers.
* 5: reservations move from the data service to a resource manager.
* 6: the target: chat and the developer entity become services of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chassis import (
    ServiceClient,
    ServiceNode,
    WiringMode,
    enable_config,
    enable_discovery,
)
from ..confsvc import ConfigServer
from ..gateway import Gateway, RouteTable
from ..registry import RegistryService
from ..simwire import Simulator
from ..ssaas import (
    ChatServices,
    ChatStore,
    ContentServices,
    ContentStore,
    DEV_ENTITY_EMBEDDED,
    DEV_ENTITY_SERVICE,
    DeveloperData,
    DeveloperInfoServices,
    DeveloperServices,
    DeveloperStore,
    Monolith,
    ResourceManager,
    SchemaStore,
    ServerFlavor,
    ServerPool,
)

FIRST_STAGE = 0
LAST_STAGE = 6

SETTLE_BUDGET_TICKS = 200
CLIENT_DEADLINE_TICKS = 60

_BREAKER_DOC = {"breaker.threshold": "5", "breaker.open_ticks": "30"}

_SERVER_SPECS = (("oracle-a", ServerFlavor.ORACLE, 4),
                 ("oracle-b", ServerFlavor.ORACLE, 4),
                 ("mysql-a", ServerFlavor.MYSQL, 4),
                 ("mysql-b", ServerFlavor.MYSQL, 4))


class UnknownStage(Exception):
    pass


@dataclass(frozen=True)
class StageTopology:
    stage: int
    title: str
    wiring: WiringMode


STAGES: dict[int, StageTopology] = {
    0: StageTopology(0, "single deployable", WiringMode.LIBRARY_CALL),
    1: StageTopology(1, "data service split out", WiringMode.DIRECT_WIRE),
    2: StageTopology(2, "central configuration", WiringMode.DIRECT_WIRE),
    3: StageTopology(3, "edge gateway", WiringMode.DIRECT_WIRE),
    4: StageTopology(4, "discovery, balancing, breakers", WiringMode.DISCOVERED),
    5: StageTopology(5, "resource manager split out", WiringMode.DISCOVERED),
    6: StageTopology(6, "target topology", WiringMode.DISCOVERED),
}


@dataclass
class Stores:
    schemas: SchemaStore = field(default_factory=SchemaStore)
    developers: DeveloperStore = field(default_factory=DeveloperStore)
    pool: ServerPool = field(default_factory=ServerPool)
    content: ContentStore = field(default_factory=ContentStore)
    chats: ChatStore = field(default_factory=ChatStore)


def route_entries(stage: int) -> dict[str, str]:
    """Gateway route table for a stage, as config entries."""
    dev_target = "DeveloperInfoServices" if stage >= 6 else "DeveloperServices"
    return {"route.1": f"/api/developers|{dev_target}|1",
            "route.2": "/api/projects|DeveloperServices|1",
            "route.3": "/api/content|ContentServices|1",
            "route.4": "/api/chat|ChatServices|1"}


@dataclass
class SystemHandle:
    """A built topology: the simulator plus everything tests and the
    harness need to drive and inspect it."""

    sim: Simulator
    stage: int
    stores: Stores
    nodes: dict[str, ServiceNode]
    client_router: RouteTable
    confsvc: ConfigServer | None = None
    registry: RegistryService | None = None
    gateway: Gateway | None = None
    settle_tick: int = 0

    def node_services(self) -> dict[str, str]:
        return {node_id: node.service for node_id, node in self.nodes.items()}

    def manifest_lines(self) -> list[str]:
        lines = []
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            wiring = node.client.mode.value if node.client is not None else "-"
            lines.append(f"{self.stage}|{node_id}|{node.service}|{wiring}")
        return lines

    def add_instance(self, service: str) -> str:
        """Scale out one more instance of an app service (stage 4 and up),
        sharing the service's store. Returns the new node id."""
        if self.stage < 4:
            raise UnknownStage("scale-out needs the discovery stage")
        factories = {
            "ContentServices": lambda nid: ContentServices(self.sim, nid, self.stores.content),
            "DeveloperServices": lambda nid: _developer_services(self.sim, nid, self.stage),
            "ChatServices": lambda nid: ChatServices(self.sim, nid, self.stores.chats),
            "DeveloperInfoServices": lambda nid: DeveloperInfoServices(
                self.sim, nid, self.stores.developers),
        }
        if service not in factories:
            raise UnknownStage(f"cannot scale {service}")
        prefix = service.lower()
        count = sum(1 for n in self.nodes.values() if n.service == service)
        node_id = f"{prefix}-{count + 1}"
        node = factories[service](node_id)
        node.bind()
        ServiceClient(node, WiringMode.DISCOVERED)
        self.nodes[node_id] = node
        if self.confsvc is not None:
            self.confsvc.subscribe(node_id, service)
            enable_config(node)
        enable_discovery(node)
        return node_id


def build_stage(stage: int, seed: int = 0) -> SystemHandle:
    """Construct a settled, idle system for one migration stage."""
    if stage not in STAGES:
        raise UnknownStage(str(stage))
    sim = Simulator(seed=seed)
    stores = Stores()
    for server_id, flavor, capacity in _SERVER_SPECS:
        stores.pool.register_server(server_id, flavor, capacity)

    nodes: dict[str, ServiceNode] = {}
    handle = SystemHandle(sim=sim, stage=stage, stores=stores, nodes=nodes,
                          client_router=RouteTable.from_config_entries(route_entries(stage)))

    if stage == 0:
        _build_monolith(handle)
    else:
        _build_split(handle)

    wire_client(handle, "client")

    settled = sim.run_until_idle(budget=SETTLE_BUDGET_TICKS)
    assert settled, "topology did not settle"
    handle.settle_tick = sim.now
    return handle


def wire_client(handle: SystemHandle, name: str) -> ServiceNode:
    """Get or create an external client node wired for the handle's stage.

    Before the gateway exists a client reaches services by static map; the
    monolith stage points every service at the one node."""
    node = handle.nodes.get(name)
    if node is not None:
        return node
    node = ServiceNode(handle.sim, name, "Client").bind()
    client = ServiceClient(node, WiringMode.DIRECT_WIRE, deadline=CLIENT_DEADLINE_TICKS)
    if handle.stage == 0:
        for service in ("DeveloperServices", "ContentServices", "ChatServices",
                        "DeveloperInfoServices"):
            client.set_direct(service, "monolith")
    elif handle.stage < 3:
        client.set_direct("DeveloperServices", "developerservices-1")
        client.set_direct("ContentServices", "contentservices-1")
    handle.nodes[name] = node
    return node


def _build_monolith(handle: SystemHandle) -> None:
    sim, stores = handle.sim, handle.stores
    mono = Monolith(sim)
    mono.bind()
    dd = DeveloperData(sim, "monolith", stores.schemas,
                       developers=stores.developers, pool=stores.pool)
    ds = DeveloperServices(sim, "monolith")
    cs = ContentServices(sim, "monolith", stores.content)
    for virtual in (dd, ds, cs):
        client = ServiceClient(virtual, WiringMode.LIBRARY_CALL)
        client.add_peer("DeveloperData", dd)
        client.add_peer("DeveloperServices", ds)
        client.add_peer("ContentServices", cs)
    mono.host(ds, ["developers", "projects"])
    mono.host(cs, ["content"])
    mono.host(dd, ["schema", "resources"])
    handle.nodes["monolith"] = mono


def _build_split(handle: SystemHandle) -> None:
    sim, stores, stage = handle.sim, handle.stores, handle.stage
    discovered = stage >= 4
    mode = WiringMode.DISCOVERED if discovered else WiringMode.DIRECT_WIRE

    app_nodes: list[ServiceNode] = []
    dd = DeveloperData(
        sim, "developerdata-1", stores.schemas,
        developers=None if stage >= 6 else stores.developers,
        pool=None if stage >= 5 else stores.pool)
    app_nodes.append(dd)
    app_nodes.append(_developer_services(sim, "developerservices-1", stage))
    app_nodes.append(ContentServices(sim, "contentservices-1", stores.content))
    if stage >= 5:
        app_nodes.append(ResourceManager(sim, "resourcemanager-1", stores.pool))
    if stage >= 6:
        app_nodes.append(ChatServices(sim, "chatservices-1", stores.chats))
        app_nodes.append(DeveloperInfoServices(sim, "developerinfoservices-1",
                                               stores.developers))

    direct_map = {node.service: node.node_id for node in app_nodes}
    for node in app_nodes:
        node.bind()
        client = ServiceClient(node, mode)
        if not discovered:
            for service, node_id in direct_map.items():
                client.set_direct(service, node_id)
        handle.nodes[node.node_id] = node

    if stage >= 2:
        confsvc = ConfigServer(sim)
        confsvc.bind()
        handle.confsvc = confsvc
        handle.nodes["confsvc"] = confsvc
        for node in app_nodes:
            confsvc.store.set_config(node.service, "default", _service_doc(node.service))

    if stage >= 3:
        gateway = Gateway(sim)
        gateway.bind()
        handle.gateway = gateway
        handle.nodes["gateway"] = gateway
        gw_client = ServiceClient(gateway, mode)
        if not discovered:
            for service, node_id in direct_map.items():
                gw_client.set_direct(service, node_id)
        assert handle.confsvc is not None
        handle.confsvc.store.set_config("Gateway", "default",
                                        {**_BREAKER_DOC, **route_entries(stage)})

    if stage >= 4:
        registry = RegistryService(sim)
        registry.bind()
        registry.start_sweeping()
        handle.registry = registry
        handle.nodes["registry"] = registry

    # Startup order per node: subscribe + pull config, then register for
    # discovery. Pulls and registrations drain during the settle phase.
    for node in app_nodes + ([handle.gateway] if handle.gateway else []):
        if handle.confsvc is not None:
            handle.confsvc.subscribe(node.node_id, node.service)
            enable_config(node)
    if stage >= 4:
        for node in app_nodes:
            enable_discovery(node)


def _developer_services(sim: Simulator, node_id: str, stage: int) -> DeveloperServices:
    """DeveloperServices calling its stage's upstreams: the developer entity
    is a service of its own from stage 6, reservations from stage 5."""
    return DeveloperServices(
        sim, node_id,
        dev_entity=DEV_ENTITY_SERVICE if stage >= 6 else DEV_ENTITY_EMBEDDED,
        resources_service="ResourceManager" if stage >= 5 else "DeveloperData")


def _service_doc(service: str) -> dict[str, str]:
    doc = dict(_BREAKER_DOC)
    if service == "ResourceManager":
        doc["rm.policy"] = "least_used"
    return doc
