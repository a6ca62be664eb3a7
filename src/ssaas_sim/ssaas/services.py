"""Service nodes for the reference application.

Each class is one deployable service; which ones exist, how their clients
are wired, and who hosts which entity surface is decided by the topology
builder, not here. Constructor parameters carry the only stage-dependent
facts: the service name owning the developer entity (and its path prefix)
and the service name owning resource reservations.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from ..chassis import (
    CallResult,
    CallStatus,
    DecodeError,
    Request,
    ServiceNode,
    decode_tolerant,
    relay_result,
    split_path,
)
from ..simwire import Body, Simulator
from .stores import (
    ChatStore,
    ContentStore,
    DeveloperStore,
    DomainError,
    POLICY_LEAST_USED,
    SchemaStore,
    ServerFlavor,
    ServerPool,
    validate_values,
)

SCHEMA_CACHE_TTL_TICKS = 10

KIND_RDBMS = "RDBMS"
KIND_CHAT = "CHAT"

# (service, path prefix) of the developer entity before and after it gets
# its own service.
DEV_ENTITY_EMBEDDED = ("DeveloperData", "/schema/developers")
DEV_ENTITY_SERVICE = ("DeveloperInfoServices", "/developers")


class Malformed(DomainError):
    code = "Malformed"


def _int_arg(raw: object) -> int:
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise Malformed(str(raw))
    try:
        return int(raw)
    except ValueError as exc:
        raise Malformed(str(raw)) from exc


def domain_route(fn: Callable[..., Optional[tuple[str, Body]]]):
    """Translate domain and decode failures into error replies. Works on
    plain handlers and on methods alike."""
    def wrapped(*args) -> Optional[tuple[str, Body]]:
        try:
            return fn(*args)
        except DecodeError as exc:
            return "400", {"error": "Malformed", "field": exc.field}
        except DomainError as exc:
            return exc.status, exc.body()
    return wrapped


def mount_developer_entity(node: ServiceNode, store: DeveloperStore, prefix: str) -> None:
    """Expose a developer store under ``prefix`` (create, read, add kind)."""

    @domain_route
    def create(req: Request):
        doc = decode_tolerant(req.body, ["name", "email"])
        dev = store.register_developer(str(doc["name"]), str(doc["email"]))
        return "200", dev.to_body()

    @domain_route
    def read(req: Request):
        return "200", store.get(_int_arg(req.params["did"])).to_body()

    @domain_route
    def add_kind(req: Request):
        doc = decode_tolerant(req.body, ["kind"])
        dev = store.add_service_kind(_int_arg(req.params["did"]), str(doc["kind"]))
        return "200", dev.to_body()

    node.route("POST", prefix, create)
    node.route("GET", prefix + "/{did}", read)
    node.route("POST", prefix + "/{did}/kinds", add_kind)


def mount_resources(node: ServiceNode, pool: ServerPool, rng: random.Random) -> None:
    """Expose reservation operations over ``pool``.

    The selection policy is read from config at every reservation, so a
    pushed ``rm.policy`` change takes effect on the next request without a
    restart.
    """

    @domain_route
    def reserve(req: Request):
        doc = decode_tolerant(req.body, ["flavor", "owner"])
        policy = node.config.get("rm.policy", POLICY_LEAST_USED) or POLICY_LEAST_USED
        try:
            flavor = ServerFlavor(str(doc["flavor"]))
        except ValueError as exc:
            raise Malformed(str(doc["flavor"])) from exc
        res = pool.reserve(flavor, str(doc["owner"]), policy=policy, rng=rng)
        return "200", res.to_body()

    @domain_route
    def release(req: Request):
        res = pool.release(_int_arg(req.params["rid"]))
        return "200", {"reservation_id": res.reservation_id, "released": True}

    @domain_route
    def servers(req: Request):
        return "200", [s.to_body() for s in pool.servers()]

    node.route("POST", "/resources/reservations", reserve)
    node.route("DELETE", "/resources/reservations/{rid}", release)
    node.route("GET", "/resources/servers", servers)


def policy_rng(seed: int, service: str) -> random.Random:
    # String seeds hash stably (sha512), so every process replays the same
    # selection stream for a given run seed.
    return random.Random(f"{seed}:{service}:policy")


class DeveloperData(ServiceNode):
    """Persistence service: project schemas always; the developer entity
    and the server pool too, until they move to services of their own."""

    def __init__(self, sim: Simulator, node_id: str, schemas: SchemaStore,
                 developers: Optional[DeveloperStore] = None,
                 pool: Optional[ServerPool] = None,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(sim, node_id, "DeveloperData")
        self.schemas = schemas
        if developers is not None:
            mount_developer_entity(self, developers, "/schema/developers")
        if pool is not None:
            mount_resources(self, pool, rng or policy_rng(sim.seed, "DeveloperData"))

        @domain_route
        def create_project(req: Request):
            doc = decode_tolerant(req.body, ["name", "owner_developer_id"])
            proj = schemas.create_project(str(doc["name"]), _int_arg(doc["owner_developer_id"]))
            return "200", proj.to_body()

        @domain_route
        def get_project(req: Request):
            return "200", schemas.get(_int_arg(req.params["pid"])).to_body()

        @domain_route
        def add_table(req: Request):
            doc = decode_tolerant(req.body, ["table"])
            proj = schemas.add_table(_int_arg(req.params["pid"]), str(doc["table"]))
            return "200", proj.to_body()

        @domain_route
        def add_column(req: Request):
            doc = decode_tolerant(req.body, ["column", "type"])
            proj = schemas.add_column(_int_arg(req.params["pid"]), req.params["table"],
                                      str(doc["column"]), str(doc["type"]))
            return "200", proj.to_body()

        self.route("POST", "/schema/projects", create_project)
        self.route("GET", "/schema/projects/{pid}", get_project)
        self.route("POST", "/schema/projects/{pid}/tables", add_table)
        self.route("POST", "/schema/projects/{pid}/tables/{table}/columns", add_column)


class ResourceManager(ServiceNode):
    """Owns the server pool once reservations move out of DeveloperData."""

    def __init__(self, sim: Simulator, node_id: str, pool: ServerPool,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(sim, node_id, "ResourceManager")
        self.pool = pool
        mount_resources(self, pool, rng or policy_rng(sim.seed, "ResourceManager"))


class DeveloperInfoServices(ServiceNode):
    """Developer entity as a standalone service (final topology)."""

    def __init__(self, sim: Simulator, node_id: str, developers: DeveloperStore) -> None:
        super().__init__(sim, node_id, "DeveloperInfoServices")
        self.developers = developers
        mount_developer_entity(self, developers, "/developers")


class DeveloperServices(ServiceNode):
    """Use-case service for developer accounts and project provisioning.

    Provisioning a project is the long flow: validate the developer,
    reserve an ORACLE database, persist the schema, tag the developer with
    the RDBMS kind. A failure after the reservation releases it before the
    error goes back out.
    """

    def __init__(self, sim: Simulator, node_id: str,
                 dev_entity: tuple[str, str] = DEV_ENTITY_EMBEDDED,
                 resources_service: str = "DeveloperData") -> None:
        super().__init__(sim, node_id, "DeveloperServices")
        self.dev_entity = dev_entity
        self.resources_service = resources_service

        self.route("POST", "/developers", self._create_developer)
        self.route("GET", "/developers/{did}", self._get_developer)
        self.route("POST", "/developers/{did}/kinds", self._add_kind)
        self.route("POST", "/projects", self._provision)
        self.route("GET", "/projects/{pid}", self._forward_to_schema("GET", ""))
        self.route("POST", "/projects/{pid}/tables", self._forward_to_schema("POST", "/tables"))
        self.route("POST", "/projects/{pid}/tables/{table}/columns",
                   self._forward_to_schema("POST", "/tables/{table}/columns"))

    # -- thin passthroughs -------------------------------------------------

    def _create_developer(self, req: Request) -> None:
        svc, prefix = self.dev_entity
        self.client.call(svc, "POST", prefix, req.body,
                         on_result=lambda r: relay_result(req, r))

    def _get_developer(self, req: Request) -> None:
        svc, prefix = self.dev_entity
        self.client.call(svc, "GET", f"{prefix}/{req.params['did']}",
                         on_result=lambda r: relay_result(req, r))

    def _add_kind(self, req: Request) -> None:
        svc, prefix = self.dev_entity
        self.client.call(svc, "POST", f"{prefix}/{req.params['did']}/kinds", req.body,
                         on_result=lambda r: relay_result(req, r))

    def _forward_to_schema(self, method: str, suffix: str):
        def handler(req: Request) -> None:
            path = f"/schema/projects/{req.params['pid']}" + suffix.replace(
                "{table}", req.params.get("table", ""))
            self.client.call("DeveloperData", method, path, req.body,
                             on_result=lambda r: relay_result(req, r))
        return handler

    # -- provisioning ---------------------------------------------------------

    def _provision(self, req: Request) -> Optional[tuple[str, Body]]:
        try:
            doc = decode_tolerant(req.body, ["name", "owner_developer_id"])
            owner = _int_arg(doc["owner_developer_id"])
        except DecodeError as exc:
            return "400", {"error": "Malformed", "field": exc.field}
        except DomainError as exc:
            return exc.status, exc.body()
        name = str(doc["name"])
        dev_svc, dev_prefix = self.dev_entity

        def have_developer(result: CallResult) -> None:
            if not result.ok:
                relay_result(req, result)
                return
            self.client.call(self.resources_service, "POST", "/resources/reservations",
                             {"flavor": ServerFlavor.ORACLE.value, "owner": f"project:{name}"},
                             on_result=have_reservation)

        def have_reservation(result: CallResult) -> None:
            if not result.ok:
                relay_result(req, result)
                return
            try:
                res = decode_tolerant(result.body,
                                      ["reservation_id", "server_id", "database_name"])
            except DecodeError:
                req.reply("503", {"error": "UpstreamUnavailable"})
                return
            self.client.call("DeveloperData", "POST", "/schema/projects",
                             {"name": name, "owner_developer_id": owner},
                             on_result=lambda r: have_schema(r, res))

        def have_schema(result: CallResult, res: dict) -> None:
            if not result.ok:
                self._release(res["reservation_id"])
                relay_result(req, result)
                return
            try:
                proj = decode_tolerant(result.body, ["project_id"])
            except DecodeError:
                self._release(res["reservation_id"])
                req.reply("503", {"error": "UpstreamUnavailable"})
                return
            self.client.call(dev_svc, "POST", f"{dev_prefix}/{owner}/kinds",
                             {"kind": KIND_RDBMS},
                             on_result=lambda r: have_kind(r, res, proj))

        def have_kind(result: CallResult, res: dict, proj: dict) -> None:
            if not result.ok:
                self._release(res["reservation_id"])
                relay_result(req, result)
                return
            req.reply("200", {"project_id": proj["project_id"],
                              "reservation_id": res["reservation_id"],
                              "database_name": res["database_name"],
                              "server_id": res["server_id"]})

        self.client.call(dev_svc, "GET", f"{dev_prefix}/{owner}",
                         on_result=have_developer)
        return None

    def _release(self, reservation_id: object) -> None:
        self.client.call(self.resources_service, "DELETE",
                         f"/resources/reservations/{reservation_id}")


class ContentServices(ServiceNode):
    """Content records behind schema validation.

    Writes validate against the owning project's schema, fetched from
    DeveloperData and cached for a few ticks; reads go straight to the
    store. The cache means a very fresh column can be rejected for up to
    the ttl, which is the documented trade.
    """

    def __init__(self, sim: Simulator, node_id: str, content: ContentStore) -> None:
        super().__init__(sim, node_id, "ContentServices")
        self.content = content
        self._schema_cache: dict[int, tuple[int, dict]] = {}

        self.route("POST", "/content/{pid}/{table}", self._insert)
        self.route("GET", "/content/{pid}/{table}", self._list)
        self.route("GET", "/content/{pid}/{table}/{rid}", self._get)
        self.route("PUT", "/content/{pid}/{table}/{rid}", self._update)
        self.route("DELETE", "/content/{pid}/{table}/{rid}", self._delete)

    def _with_schema(self, req: Request, pid: int, fn: Callable[[dict], None]) -> None:
        cached = self._schema_cache.get(pid)
        if cached is not None and self.sim.now - cached[0] < SCHEMA_CACHE_TTL_TICKS:
            fn(cached[1])
            return

        def got(result: CallResult) -> None:
            if not result.ok:
                relay_result(req, result)
                return
            self._schema_cache[pid] = (self.sim.now, result.body)
            fn(result.body)

        self.client.call("DeveloperData", "GET", f"/schema/projects/{pid}", on_result=got)

    def _checked_write(self, req: Request, apply: Callable[[int, str, dict], tuple[str, Body]]) -> None:
        try:
            pid = _int_arg(req.params["pid"])
            doc = decode_tolerant(req.body, ["values"])
        except (DomainError, DecodeError):
            req.reply("400", {"error": "Malformed", "field": "values"})
            return
        table = req.params["table"]
        values = doc["values"]

        def validated(schema_body: dict) -> None:
            tables = schema_body.get("tables", {}) if isinstance(schema_body, dict) else {}
            if table not in tables:
                req.reply("404", {"error": "UnknownTable"})
                return
            try:
                validate_values(tables[table], values)
                status, body = apply(pid, table, values)
            except DomainError as exc:
                req.reply(exc.status, exc.body())
                return
            req.reply(status, body)

        self._with_schema(req, pid, validated)

    def _insert(self, req: Request) -> None:
        def apply(pid: int, table: str, values: dict):
            rid = self.content.insert(pid, table, values)
            return "200", {"record_id": rid}
        self._checked_write(req, apply)

    def _update(self, req: Request) -> None:
        def apply(pid: int, table: str, values: dict):
            rid = _int_arg(req.params["rid"])
            self.content.update(pid, table, rid, values)
            return "200", {"record_id": rid, "values": dict(values)}
        self._checked_write(req, apply)

    @domain_route
    def _get(self, req: Request):
        pid = _int_arg(req.params["pid"])
        rid = _int_arg(req.params["rid"])
        values = self.content.get(pid, req.params["table"], rid)
        return "200", {"record_id": rid, "values": values}

    @domain_route
    def _delete(self, req: Request):
        pid = _int_arg(req.params["pid"])
        rid = _int_arg(req.params["rid"])
        self.content.delete(pid, req.params["table"], rid)
        return "200", {"removed": True}

    @domain_route
    def _list(self, req: Request):
        pid = _int_arg(req.params["pid"])
        return "200", self.content.list(pid, req.params["table"])


class ChatServices(ServiceNode):
    """Chat instance provisioning over MYSQL reservations."""

    def __init__(self, sim: Simulator, node_id: str, chats: ChatStore,
                 dev_entity: tuple[str, str] = DEV_ENTITY_SERVICE,
                 resources_service: str = "ResourceManager") -> None:
        super().__init__(sim, node_id, "ChatServices")
        self.chats = chats
        self.dev_entity = dev_entity
        self.resources_service = resources_service
        self.route("POST", "/chat", self._create)
        self.route("GET", "/chat/{cid}", self._get)

    def _create(self, req: Request) -> Optional[tuple[str, Body]]:
        try:
            doc = decode_tolerant(req.body, ["developer_id"])
            developer_id = _int_arg(doc["developer_id"])
        except DecodeError as exc:
            return "400", {"error": "Malformed", "field": exc.field}
        except DomainError as exc:
            return exc.status, exc.body()
        dev_svc, dev_prefix = self.dev_entity

        def have_developer(result: CallResult) -> None:
            if not result.ok:
                relay_result(req, result)
                return
            self.client.call(self.resources_service, "POST", "/resources/reservations",
                             {"flavor": ServerFlavor.MYSQL.value,
                              "owner": f"chat:{developer_id}"},
                             on_result=have_reservation)

        def have_reservation(result: CallResult) -> None:
            if not result.ok:
                relay_result(req, result)
                return
            try:
                res = decode_tolerant(result.body, ["reservation_id"])
            except DecodeError:
                req.reply("503", {"error": "UpstreamUnavailable"})
                return
            inst = self.chats.create(developer_id, res["reservation_id"])
            self.client.call(dev_svc, "POST", f"{dev_prefix}/{developer_id}/kinds",
                             {"kind": KIND_CHAT},
                             on_result=lambda r: have_kind(r, inst, res))

        def have_kind(result: CallResult, inst, res: dict) -> None:
            if not result.ok:
                self.chats.remove(inst.chat_id)
                self.client.call(self.resources_service, "DELETE",
                                 f"/resources/reservations/{res['reservation_id']}")
                relay_result(req, result)
                return
            req.reply("200", inst.to_body())

        self.client.call(dev_svc, "GET", f"{dev_prefix}/{developer_id}",
                         on_result=have_developer)
        return None

    @domain_route
    def _get(self, req: Request):
        return "200", self.chats.get(_int_arg(req.params["cid"])).to_body()


class Monolith(ServiceNode):
    """Single deployable hosting the in-process services of the original
    system; requests are fanned to the hosted service by path root."""

    def __init__(self, sim: Simulator, node_id: str = "monolith") -> None:
        super().__init__(sim, node_id, "Monolith")
        self._by_root: dict[str, ServiceNode] = {}

    def host(self, virtual: ServiceNode, roots: list[str]) -> None:
        for root in roots:
            self._by_root[root] = virtual

    def dispatch(self, req: Request) -> None:
        if req.method == "POST" and req.path == "/refresh":
            super().dispatch(req)
            return
        parts = split_path(req.path)
        target = self._by_root.get(parts[0]) if parts else None
        if target is None:
            req.reply("404", {"error": "NoRoute"})
            return
        target.dispatch(req)
