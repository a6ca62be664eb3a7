"""Service nodes for the reference application.

Each class is one deployable service; which ones exist, how their clients
are wired, and who hosts which entity surface is decided by the topology
builder, not here. Constructor parameters carry the only stage-dependent
facts: the service name owning the developer entity (and its path prefix)
and the service name owning resource reservations.

A handler refuses a request by raising a chassis :class:`Refusal`: a
store's domain error, a :class:`DecodeError`, or a plain 400 ``Malformed``
for a bad argument. :meth:`ServiceNode.dispatch` answers it with the
refusal's status and body, and so does :func:`saga` for one raised after an
upstream call. :func:`forward` relays one upstream call's (status, body) as
it is. :func:`saga` runs a long flow, a table of steps, and holds the one
rule for what a failure undoes.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Optional

from ..chassis import (
    MONOLITH_NODE,
    DecodeError,
    Refusal,
    Request,
    ServiceNode,
    decode_tolerant,
    relay_result,
)
from ..simwire import Body, Simulator, read_int
from .stores import (
    ChatStore,
    ContentStore,
    DeveloperStore,
    FLAVORS,
    POLICY_LEAST_USED,
    SchemaStore,
    ServerFlavor,
    ServerPool,
    UnknownTable,
    validate_values,
)

SCHEMA_CACHE_TTL_TICKS = 10

KIND_RDBMS = "RDBMS"
KIND_CHAT = "CHAT"

# (service, path prefix) of the developer entity before and after it gets
# its own service.
DEV_ENTITY_EMBEDDED = ("DeveloperData", "/schema/developers")
DEV_ENTITY_SERVICE = ("DeveloperInfoServices", "/developers")


def _int_arg(raw: object) -> int:
    try:
        return read_int(raw)
    except ValueError as exc:
        raise Refusal(str(raw)) from exc


def _str_arg(raw: object) -> str:
    if not isinstance(raw, str):
        raise Refusal(str(raw))
    return raw


def forward(node: ServiceNode, req: Request, service: str, method: str, path: str,
            body: Body) -> None:
    """Answer ``req`` with the outcome of one upstream call, as it is."""
    node.client.call(service, method, path, body,
                     on_result=lambda status, rbody: relay_result(req, status, rbody))


def saga(node: ServiceNode, req: Request, steps: tuple[tuple, ...],
         finish: Callable[..., Body]) -> None:
    """Answer ``req`` by running ``steps`` in order: one saga.

    A step is ``(service, method, path, body, fields, undo)``: an upstream
    call, its success decoded to ``fields`` when given, and ``undo`` the
    call ``(service, method, path)`` that compensates it. A step with no
    service runs locally: its result is ``method(*results so far)``, and
    its ``undo`` a function of that result. The first step is a call; after
    the last, ``req`` is answered 200 with ``finish(*results)``.

    A failed call or a success lacking its fields fails the saga, and so
    does a :class:`Refusal` that a local step or ``finish`` raises, which is
    answered with its own status and body. The undo of every completed step
    runs, last first, and only then is the failure answered, so every
    compensating call goes out before the reply does. A 5xx (the deadline's
    too) leaves the failed call's outcome unknown, and a success lacking its
    fields had an effect, so either runs its own undo first; a refusal (4xx)
    made nothing, so it does not.
    """
    results: list = []

    def done(status: str, body: Body) -> None:
        nonlocal done  # None once the saga ends: no cycle outlives it
        answer = relay_result  # a failed call's outcome is relayed as it is
        if status.startswith("2"):
            fields = steps[len(results)][4]
            try:
                results.append(decode_tolerant(body, fields) if fields else body)
            except DecodeError:
                status, body = "503", {"error": "UpstreamUnavailable"}
            else:
                try:
                    while len(results) < len(steps):
                        step = steps[len(results)]
                        if step[0] is not None:
                            node.client.call(*step[:4], on_result=done)
                            return
                        results.append(step[1](*results))
                    req.reply("200", finish(*results))
                    done = None
                    return
                except Refusal as exc:  # answered as dispatch answers a handler's
                    status, body, answer = exc.status, exc.body(), Request.reply
        if not status.startswith("4") and steps[len(results)][5] is not None:
            node.client.call(*steps[len(results)][5])  # its outcome is unknown
        for (service, _, _, _, _, undo), out in reversed(list(zip(steps, results))):
            if service is None and undo is not None:
                undo(out)
            elif undo is not None:
                node.client.call(*undo)
        done = None
        answer(req, status, body)

    node.client.call(*steps[0][:4], on_result=done)


def mount_developer_entity(node: ServiceNode, store: DeveloperStore, prefix: str) -> None:
    """Expose a developer store under ``prefix`` (create, read, add kind)."""

    def create(req: Request):
        doc = decode_tolerant(req.body, ["name", "email"])
        dev = store.register_developer(_str_arg(doc["name"]), _str_arg(doc["email"]))
        return "200", dev.to_body()

    def read(req: Request):
        return "200", store.get(_int_arg(req.params["did"])).to_body()

    def add_kind(req: Request):
        doc = decode_tolerant(req.body, ["kind"])
        dev = store.add_service_kind(_int_arg(req.params["did"]), _str_arg(doc["kind"]))
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

    def reserve(req: Request):
        doc = decode_tolerant(req.body, ["flavor", "owner"])
        policy = node.config.get("rm.policy", POLICY_LEAST_USED) or POLICY_LEAST_USED
        flavor = doc["flavor"]
        if flavor not in FLAVORS:
            raise Refusal(str(flavor))
        res = pool.reserve(flavor, _str_arg(doc["owner"]), policy=policy, rng=rng)
        return "200", res.to_body()

    def release(req: Request):
        owner = req.params["owner"]
        return "200", {"owner": owner,
                       "released": [res.reservation_id for res in pool.release(owner)]}

    node.route("POST", "/resources/reservations", reserve)
    node.route("DELETE", "/resources/reservations/{owner}", release)


def policy_rng(seed: int, service: str) -> random.Random:
    # String seeds hash stably (sha512), so every process replays the same
    # selection stream for a given run seed.
    return random.Random(f"{seed}:{service}:policy")


class DeveloperData(ServiceNode):
    """Persistence service: project schemas always; the developer entity
    and the server pool too, until they move to services of their own."""

    def __init__(self, sim: Simulator, node_id: str, schemas: SchemaStore,
                 developers: Optional[DeveloperStore] = None,
                 pool: Optional[ServerPool] = None) -> None:
        super().__init__(sim, node_id, "DeveloperData")
        if developers is not None:
            mount_developer_entity(self, developers, DEV_ENTITY_EMBEDDED[1])
        if pool is not None:
            mount_resources(self, pool, policy_rng(sim.seed, "DeveloperData"))

        def create_project(req: Request):
            doc = decode_tolerant(req.body, ["name", "owner_developer_id"])
            key = req.body.get("key")  # optional: the creating request's key
            proj = schemas.create_project(_str_arg(doc["name"]),
                                          _int_arg(doc["owner_developer_id"]),
                                          None if key is None else _str_arg(key))
            return "200", proj.to_body()

        def delete_keyed(req: Request):
            key = req.params["key"]
            return "200", {"key": key, "deleted": [proj.project_id
                                                   for proj in schemas.delete_keyed(key)]}

        def get_project(req: Request):
            return "200", schemas.get(_int_arg(req.params["pid"])).to_body()

        def add_table(req: Request):
            doc = decode_tolerant(req.body, ["table"])
            proj = schemas.add_table(_int_arg(req.params["pid"]), _str_arg(doc["table"]))
            return "200", proj.to_body()

        def add_column(req: Request):
            doc = decode_tolerant(req.body, ["column", "type"])
            proj = schemas.add_column(_int_arg(req.params["pid"]), req.params["table"],
                                      _str_arg(doc["column"]), _str_arg(doc["type"]))
            return "200", proj.to_body()

        self.route("POST", "/schema/projects", create_project)
        self.route("DELETE", "/schema/projects/keys/{key}", delete_keyed)
        self.route("GET", "/schema/projects/{pid}", get_project)
        self.route("POST", "/schema/projects/{pid}/tables", add_table)
        self.route("POST", "/schema/projects/{pid}/tables/{table}/columns", add_column)


class ResourceManager(ServiceNode):
    """Owns the server pool once reservations move out of DeveloperData."""

    def __init__(self, sim: Simulator, node_id: str, pool: ServerPool) -> None:
        super().__init__(sim, node_id, "ResourceManager")
        mount_resources(self, pool, policy_rng(sim.seed, "ResourceManager"))


class DeveloperInfoServices(ServiceNode):
    """Developer entity as a standalone service (final topology)."""

    def __init__(self, sim: Simulator, node_id: str, developers: DeveloperStore) -> None:
        super().__init__(sim, node_id, "DeveloperInfoServices")
        mount_developer_entity(self, developers, DEV_ENTITY_SERVICE[1])


class DeveloperServices(ServiceNode):
    """Use-case service for developer accounts and project provisioning.

    Provisioning a project is a :func:`saga`: refuse an empty name, then
    validate the developer, reserve an ORACLE database, persist the schema,
    and tag the developer with the RDBMS kind. The reservation and the
    project are made under one key unique to the request, its message id,
    and a failure undoes each by that key: the project by a delete, then
    the reservation by a release.
    """

    def __init__(self, sim: Simulator, node_id: str,
                 dev_entity: tuple[str, str] = DEV_ENTITY_EMBEDDED,
                 resources_service: str = "DeveloperData") -> None:
        super().__init__(sim, node_id, "DeveloperServices")
        self.dev_entity = dev_entity
        self.resources_service = resources_service

        dev_svc, dev = dev_entity
        self._relay("POST", "/developers", dev_svc, lambda p: dev)
        self._relay("GET", "/developers/{did}", dev_svc, lambda p: f"{dev}/{p['did']}")
        self._relay("POST", "/developers/{did}/kinds", dev_svc, lambda p: f"{dev}/{p['did']}/kinds")
        self.route("POST", "/projects", self._provision)
        self._relay("GET", "/projects/{pid}", "DeveloperData",
                    lambda p: f"/schema/projects/{p['pid']}")
        self._relay("POST", "/projects/{pid}/tables", "DeveloperData",
                    lambda p: f"/schema/projects/{p['pid']}/tables")
        self._relay("POST", "/projects/{pid}/tables/{table}/columns", "DeveloperData",
                    lambda p: f"/schema/projects/{p['pid']}/tables/{p['table']}/columns")

    def _relay(self, method: str, pattern: str, service: str,
               target: Callable[[dict[str, str]], str]) -> None:
        """Serve ``pattern`` by forwarding the request, body and all, to
        ``service`` at the path ``target`` builds from the route's params."""
        self.route(method, pattern, lambda req: forward(
            self, req, service, method, target(req.params), req.body))

    # -- provisioning ---------------------------------------------------------

    def _provision(self, req: Request) -> None:
        doc = decode_tolerant(req.body, ["name", "owner_developer_id"])
        owner = _int_arg(doc["owner_developer_id"])
        name = _str_arg(doc["name"])
        if not name:  # the schema store would refuse it, after the reservation
            raise Refusal("project name required")
        dev_svc, dev_prefix = self.dev_entity
        rm, key = self.resources_service, f"project:{req.env.message_id}"
        saga(self, req, (
            (dev_svc, "GET", f"{dev_prefix}/{owner}", None, (), None),
            (rm, "POST", "/resources/reservations", {"flavor": ServerFlavor.ORACLE, "owner": key},
             ("reservation_id", "server_id", "database_name"),
             (rm, "DELETE", f"/resources/reservations/{key}")),
            ("DeveloperData", "POST", "/schema/projects",
             {"name": name, "owner_developer_id": owner, "key": key}, ("project_id",),
             ("DeveloperData", "DELETE", f"/schema/projects/keys/{key}")),
            (dev_svc, "POST", f"{dev_prefix}/{owner}/kinds", {"kind": KIND_RDBMS}, (), None),
        ), lambda dev, res, proj, tagged: {
            "project_id": proj["project_id"], "reservation_id": res["reservation_id"],
            "database_name": res["database_name"], "server_id": res["server_id"]})


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

    def _with_schema(self, req: Request, pid: int, fn: Callable[[dict], Body]) -> None:
        """Answer ``req`` 200 with ``fn`` of project ``pid``'s schema."""
        cached = self._schema_cache.get(pid)
        if cached is not None and self.sim.now - cached[0] < SCHEMA_CACHE_TTL_TICKS:
            req.reply("200", fn(cached[1]))
            return
        saga(self, req, (("DeveloperData", "GET", f"/schema/projects/{pid}", None, (), None),),
             partial(self._fetched, pid, fn))

    def _fetched(self, pid: int, fn: Callable[[dict], Body], schema: Body) -> Body:
        self._schema_cache[pid] = (self.sim.now, schema)
        return fn(schema)

    def _checked_write(self, req: Request, apply: Callable[[int, str, dict], Body]) -> None:
        pid = _int_arg(req.params["pid"])
        values = decode_tolerant(req.body, ["values"])["values"]
        table = req.params["table"]

        def validated(schema_body: dict) -> Body:
            tables = schema_body.get("tables", {}) if isinstance(schema_body, dict) else {}
            if table not in tables:
                raise UnknownTable(table)
            validate_values(tables[table], values)
            return apply(pid, table, values)

        self._with_schema(req, pid, validated)

    def _insert(self, req: Request) -> None:
        def apply(pid: int, table: str, values: dict):
            rid = self.content.insert(pid, table, values)
            return {"record_id": rid}
        self._checked_write(req, apply)

    def _update(self, req: Request) -> None:
        def apply(pid: int, table: str, values: dict):
            rid = _int_arg(req.params["rid"])
            self.content.update(pid, table, rid, values)
            return {"record_id": rid, "values": dict(values)}
        self._checked_write(req, apply)

    def _get(self, req: Request):
        pid = _int_arg(req.params["pid"])
        rid = _int_arg(req.params["rid"])
        values = self.content.get(pid, req.params["table"], rid)
        return "200", {"record_id": rid, "values": values}

    def _delete(self, req: Request):
        pid = _int_arg(req.params["pid"])
        rid = _int_arg(req.params["rid"])
        self.content.delete(pid, req.params["table"], rid)
        return "200", {"removed": True}

    def _list(self, req: Request):
        pid = _int_arg(req.params["pid"])
        return "200", self.content.list(pid, req.params["table"])


class ChatServices(ServiceNode):
    """Chat instance provisioning over MYSQL reservations."""

    def __init__(self, sim: Simulator, node_id: str, chats: ChatStore) -> None:
        super().__init__(sim, node_id, "ChatServices")
        self.chats = chats
        self.route("POST", "/chat", self._create)
        self.route("GET", "/chat/{cid}", self._get)

    def _create(self, req: Request) -> None:
        doc = decode_tolerant(req.body, ["developer_id"])
        developer_id = _int_arg(doc["developer_id"])
        dev_svc, dev_prefix = DEV_ENTITY_SERVICE
        key = f"chat:{req.env.message_id}"  # the owner key, as in provisioning
        saga(self, req, (
            (dev_svc, "GET", f"{dev_prefix}/{developer_id}", None, (), None),
            ("ResourceManager", "POST", "/resources/reservations",
             {"flavor": ServerFlavor.MYSQL, "owner": key}, ("reservation_id",),
             ("ResourceManager", "DELETE", f"/resources/reservations/{key}")),
            (None, lambda dev, res: self.chats.create(developer_id, res["reservation_id"]),
             None, None, (), lambda inst: self.chats.remove(inst.chat_id)),
            (dev_svc, "POST", f"{dev_prefix}/{developer_id}/kinds", {"kind": KIND_CHAT}, (), None),
        ), lambda dev, res, inst, tagged: inst.to_body())

    def _get(self, req: Request):
        return "200", self.chats.get(_int_arg(req.params["cid"])).to_body()


class Monolith(ServiceNode):
    """Single deployable hosting the services of the original system in
    process (:meth:`ServiceNode.host`), with one LIBRARY_CALL client for all."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim, MONOLITH_NODE, "Monolith")

    def dispatch(self, req: Request) -> None:
        # bench/tracer.py wraps this name to time the monolith's requests
        # apart from other nodes' dispatch.
        ServiceNode.dispatch(self, req)
