"""Domain state for the reference application, no wire concerns.

Five stores cover the system's entities: developer accounts, the database
server pool with its reservations, project schemas, per-project content
records, and chat instances. Service nodes own store instances; nothing
here knows about nodes, stages, or topology. A store refuses an operation
by raising a :class:`DomainError`, a chassis :class:`Refusal` that carries
the status and body a node answers it with. Each domain error that only
sets a status and a code is declared in one line by the chassis
:func:`refusal` factory, and is still a class of its own.
"""

from __future__ import annotations

import random
from typing import Any, NamedTuple, Optional

from ..chassis import Refusal, refusal


class DomainError(Refusal):
    """A store's refusal: 400 ``Malformed`` unless a subclass says otherwise."""


MalformedDeveloper = refusal("MalformedDeveloper", base=DomainError)
UnknownDeveloper = refusal("UnknownDeveloper", "404", DomainError)
DuplicateServer = refusal("DuplicateServer", "409", DomainError)
ResourceExhausted = refusal("ResourceExhausted", "409", DomainError)
ReleasedOwner = refusal("ReleasedOwner", "409", DomainError)
UnknownProject = refusal("UnknownProject", "404", DomainError)
DuplicateTable = refusal("DuplicateTable", "409", DomainError)
UnknownTable = refusal("UnknownTable", "404", DomainError)
DuplicateColumn = refusal("DuplicateColumn", "409", DomainError)
MalformedColumn = refusal("MalformedColumn", base=DomainError)
UnknownRecord = refusal("UnknownRecord", "404", DomainError)
UnknownChat = refusal("UnknownChat", "404", DomainError)


class SchemaViolation(DomainError):
    code = "SchemaViolation"

    def __init__(self, fieldname: str) -> None:
        super().__init__(f"schema violation on field: {fieldname}", fieldname)


# -- developers ---------------------------------------------------------------

class Developer(NamedTuple):
    """A developer account. Its service kinds grow in place."""

    developer_id: int
    name: str
    email: str
    service_kinds: list[str]

    def to_body(self) -> dict:
        return {"developer_id": self.developer_id, "name": self.name,
                "email": self.email, "service_kinds": list(self.service_kinds)}


class DeveloperStore:
    def __init__(self) -> None:
        self._developers: dict[int, Developer] = {}
        self._next_id = 1

    def register_developer(self, name: str, email: str) -> Developer:
        if not name or not email:
            raise MalformedDeveloper("name and email are required")
        dev = Developer(self._next_id, name, email, [])
        self._next_id += 1
        self._developers[dev.developer_id] = dev
        return dev

    def get(self, developer_id: int) -> Developer:
        dev = self._developers.get(developer_id)
        if dev is None:
            raise UnknownDeveloper(str(developer_id))
        return dev

    def add_service_kind(self, developer_id: int, kind: str) -> Developer:
        dev = self.get(developer_id)
        if kind not in dev.service_kinds:
            dev.service_kinds.append(kind)
        return dev


# -- server pool and reservations -----------------------------------------------

class ServerFlavor:
    ORACLE = "ORACLE"
    MYSQL = "MYSQL"


FLAVORS = (ServerFlavor.ORACLE, ServerFlavor.MYSQL)


class ServerRecord:
    def __init__(self, server_id: str, flavor: str, capacity: int) -> None:
        self.server_id = server_id
        self.flavor = flavor
        self.capacity = capacity
        self.reserved = 0


class Reservation(NamedTuple):
    reservation_id: int
    server_id: str
    flavor: str
    owner: str

    @property
    def database_name(self) -> str:
        return f"db_{self.reservation_id}"

    def to_body(self) -> dict:
        return {"reservation_id": self.reservation_id, "server_id": self.server_id,
                "flavor": self.flavor, "owner": self.owner,
                "database_name": self.database_name}


POLICY_LEAST_USED = "least_used"
POLICY_RANDOM = "random"


class ServerPool:
    """Database servers and the reservations carving databases out of them.

    ``least_used`` picks the eligible server with the fewest active
    reservations, breaking ties toward the lexicographically smallest id;
    ``random`` picks uniformly from the eligible servers (sorted by id)
    using the supplied generator, so a seeded generator replays exactly.

    Reservations are released by owner. A release leaves a tombstone for its
    owner, and a reserve under a tombstoned owner is refused, so a release
    that overtakes its reserve still undoes it.
    """

    def __init__(self) -> None:
        self._servers: dict[str, ServerRecord] = {}
        self._reservations: dict[int, Reservation] = {}
        self._released: set[str] = set()  # the tombstones, one per owner released
        self._next_id = 1

    def register_server(self, server_id: str, flavor: str, capacity: int) -> ServerRecord:
        if server_id in self._servers:
            raise DuplicateServer(server_id)
        if not server_id or capacity < 1 or flavor not in FLAVORS:
            raise DomainError("bad server record")
        rec = ServerRecord(server_id, flavor, capacity)
        self._servers[server_id] = rec
        return rec

    def reserve(self, flavor: str, owner: str,
                policy: str = POLICY_LEAST_USED,
                rng: Optional[random.Random] = None) -> Reservation:
        if owner in self._released:
            raise ReleasedOwner(owner)
        eligible = sorted(
            (s for s in self._servers.values()
             if s.flavor == flavor and s.reserved < s.capacity),
            key=lambda s: s.server_id)
        if not eligible:
            raise ResourceExhausted(flavor)
        if policy == POLICY_RANDOM and rng is not None:
            server = eligible[rng.randrange(len(eligible))]
        else:
            server = min(eligible, key=lambda s: (s.reserved, s.server_id))
        server.reserved += 1
        res = Reservation(self._next_id, server.server_id, flavor, owner)
        self._next_id += 1
        self._reservations[res.reservation_id] = res
        return res

    def release(self, owner: str) -> list[Reservation]:
        """Release the reservations ``owner`` holds, none or more, and
        tombstone ``owner``."""
        self._released.add(owner)
        held = [res for res in self._reservations.values() if res.owner == owner]
        for res in held:
            del self._reservations[res.reservation_id]
            self._servers[res.server_id].reserved -= 1
        return held

    def servers(self) -> list[ServerRecord]:
        return sorted(self._servers.values(), key=lambda s: s.server_id)

    def active_reservations(self) -> list[Reservation]:
        return sorted(self._reservations.values(), key=lambda r: r.reservation_id)


# -- project schemas --------------------------------------------------------------

COLUMN_TYPES = ("int", "text", "bool")


class ProjectSchema:
    def __init__(self, project_id: int, name: str, owner_developer_id: int,
                 key: Optional[str] = None) -> None:
        self.project_id = project_id
        self.name = name
        self.owner_developer_id = owner_developer_id
        self.key = key  # the key of the request that made it, if any; not in the body
        self.version = 1
        self.tables: dict[str, dict[str, str]] = {}  # table -> column -> type

    def to_body(self) -> dict:
        return {"project_id": self.project_id, "name": self.name,
                "owner_developer_id": self.owner_developer_id,
                "version": self.version,
                "tables": {t: dict(cols) for t, cols in self.tables.items()}}


class SchemaStore:
    """Project schemas. A delete by key leaves a tombstone, as
    :meth:`ServerPool.release` does: a create under a tombstoned key is
    refused, so a delete that overtakes its create still undoes it."""

    def __init__(self) -> None:
        self._projects: dict[int, ProjectSchema] = {}
        self._deleted: set[str] = set()  # the tombstones, one per key deleted
        self._next_id = 1

    def create_project(self, name: str, owner_developer_id: int,
                       key: Optional[str] = None) -> ProjectSchema:
        """Refuses an empty name. DeveloperData, a deployable of its own,
        checks its own input here; DeveloperServices' provisioning refuses
        the empty name too, first, so that it makes no reservation."""
        if key in self._deleted:
            raise ReleasedOwner(key)
        if not name:
            raise DomainError("project name required")
        proj = ProjectSchema(self._next_id, name, owner_developer_id, key)
        self._next_id += 1
        self._projects[proj.project_id] = proj
        return proj

    def delete_keyed(self, key: str) -> list[ProjectSchema]:
        """Delete the projects made under ``key``, none or more, and
        tombstone ``key``."""
        self._deleted.add(key)
        held = [proj for proj in self._projects.values() if proj.key == key]
        for proj in held:
            del self._projects[proj.project_id]
        return held

    def get(self, project_id: int) -> ProjectSchema:
        proj = self._projects.get(project_id)
        if proj is None:
            raise UnknownProject(str(project_id))
        return proj

    def add_table(self, project_id: int, table: str) -> ProjectSchema:
        proj = self.get(project_id)
        if not table:
            raise DomainError("table name required")
        if table in proj.tables:
            raise DuplicateTable(table)
        proj.tables[table] = {}
        proj.version += 1
        return proj

    def add_column(self, project_id: int, table: str, column: str, ctype: str) -> ProjectSchema:
        proj = self.get(project_id)
        if table not in proj.tables:
            raise UnknownTable(table)
        if ctype not in COLUMN_TYPES or not column:
            raise MalformedColumn(f"{column}:{ctype}")
        if column in proj.tables[table]:
            raise DuplicateColumn(column)
        proj.tables[table][column] = ctype
        proj.version += 1
        return proj


def validate_values(columns: dict[str, str], values: dict[str, Any]) -> None:
    """Check a record against declared columns: no undeclared keys, and
    each value matches its column type. Partial records are allowed."""
    if not isinstance(values, dict):
        raise SchemaViolation("<values>")
    for key, value in values.items():
        ctype = columns.get(key)
        if ctype is None:
            raise SchemaViolation(key)
        if ctype == "bool":
            ok = isinstance(value, bool)
        elif ctype == "int":
            # bools pass isinstance(int); they are not ints here
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, str)
        if not ok:
            raise SchemaViolation(key)


# -- content records ----------------------------------------------------------------

class ContentStore:
    """Records per (project, table); ids are monotonic across the store."""

    def __init__(self) -> None:
        self._records: dict[tuple[int, str], dict[int, dict]] = {}
        self._next_id = 1

    def insert(self, project_id: int, table: str, values: dict) -> int:
        bucket = self._records.setdefault((project_id, table), {})
        rid = self._next_id
        self._next_id += 1
        bucket[rid] = dict(values)
        return rid

    def _holding(self, project_id: int, table: str, record_id: int) -> dict[int, dict]:
        """The bucket holding ``record_id``; raises :class:`UnknownRecord` if none."""
        bucket = self._records.get((project_id, table), {})
        if record_id not in bucket:
            raise UnknownRecord(str(record_id))
        return bucket

    def get(self, project_id: int, table: str, record_id: int) -> dict:
        return dict(self._holding(project_id, table, record_id)[record_id])

    def update(self, project_id: int, table: str, record_id: int, values: dict) -> None:
        self._holding(project_id, table, record_id)[record_id] = dict(values)

    def delete(self, project_id: int, table: str, record_id: int) -> None:
        del self._holding(project_id, table, record_id)[record_id]

    def list(self, project_id: int, table: str) -> list[dict]:
        bucket = self._records.get((project_id, table), {})
        return [{"record_id": rid, "values": dict(bucket[rid])}
                for rid in sorted(bucket)]


# -- chat instances -----------------------------------------------------------------

CHAT_ACTIVE = "ACTIVE"


class ChatInstance(NamedTuple):
    chat_id: int
    developer_id: int
    reservation_id: int
    status: str = CHAT_ACTIVE

    def to_body(self) -> dict:
        return {"chat_id": self.chat_id, "developer_id": self.developer_id,
                "reservation_id": self.reservation_id, "status": self.status}


class ChatStore:
    def __init__(self) -> None:
        self._instances: dict[int, ChatInstance] = {}
        self._next_id = 1

    def create(self, developer_id: int, reservation_id: int) -> ChatInstance:
        inst = ChatInstance(self._next_id, developer_id, reservation_id)
        self._next_id += 1
        self._instances[inst.chat_id] = inst
        return inst

    def get(self, chat_id: int) -> ChatInstance:
        inst = self._instances.get(chat_id)
        if inst is None:
            raise UnknownChat(str(chat_id))
        return inst

    def remove(self, chat_id: int) -> None:
        self._instances.pop(chat_id, None)
