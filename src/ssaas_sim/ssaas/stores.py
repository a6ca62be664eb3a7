"""Domain state for the reference application, no wire concerns.

Five stores cover the system's entities: developer accounts, the database
server pool with its reservations, project schemas, per-project content
records, and chat instances. Service nodes own store instances; nothing
here knows about nodes, stages, or topology. A store refuses an operation
by raising a :class:`DomainError`, a chassis :class:`Refusal` that carries
the status and body a node answers it with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Optional

from ..chassis import Refusal


class DomainError(Refusal):
    """A store's refusal: 400 ``Malformed`` unless a subclass says otherwise."""


class MalformedDeveloper(DomainError):
    code = "MalformedDeveloper"


class UnknownDeveloper(DomainError):
    status = "404"
    code = "UnknownDeveloper"


class DuplicateServer(DomainError):
    status = "409"
    code = "DuplicateServer"


class ResourceExhausted(DomainError):
    status = "409"
    code = "ResourceExhausted"


class UnknownReservation(DomainError):
    status = "404"
    code = "UnknownReservation"


class UnknownProject(DomainError):
    status = "404"
    code = "UnknownProject"


class DuplicateTable(DomainError):
    status = "409"
    code = "DuplicateTable"


class UnknownTable(DomainError):
    status = "404"
    code = "UnknownTable"


class DuplicateColumn(DomainError):
    status = "409"
    code = "DuplicateColumn"


class MalformedColumn(DomainError):
    code = "MalformedColumn"


class UnknownRecord(DomainError):
    status = "404"
    code = "UnknownRecord"


class UnknownChat(DomainError):
    status = "404"
    code = "UnknownChat"


class SchemaViolation(DomainError):
    code = "SchemaViolation"

    def __init__(self, fieldname: str) -> None:
        super().__init__(f"schema violation on field: {fieldname}")
        self.field = fieldname


# -- developers ---------------------------------------------------------------

@dataclass
class Developer:
    developer_id: int
    name: str
    email: str
    service_kinds: list[str] = field(default_factory=list)

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
        dev = Developer(self._next_id, name, email)
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


@dataclass
class ServerRecord:
    server_id: str
    flavor: str
    capacity: int
    reserved: int = 0

    def to_body(self) -> dict:
        return {"server_id": self.server_id, "flavor": self.flavor,
                "capacity": self.capacity, "reserved": self.reserved}


@dataclass
class Reservation:
    reservation_id: int
    server_id: str
    flavor: str
    owner: str
    released: bool = False

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
    """

    def __init__(self) -> None:
        self._servers: dict[str, ServerRecord] = {}
        self._reservations: dict[int, Reservation] = {}
        self._next_id = 1

    def register_server(self, server_id: str, flavor: str, capacity: int) -> ServerRecord:
        if server_id in self._servers:
            raise DuplicateServer(server_id)
        if not server_id or capacity < 1 or flavor not in FLAVORS:
            raise DomainError("bad server record")
        rec = ServerRecord(server_id, flavor, int(capacity))
        self._servers[server_id] = rec
        return rec

    def reserve(self, flavor: str, owner: str,
                policy: str = POLICY_LEAST_USED,
                rng: Optional[random.Random] = None) -> Reservation:
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

    def release(self, reservation_id: int) -> Reservation:
        res = self._reservations.get(reservation_id)
        if res is None or res.released:
            raise UnknownReservation(str(reservation_id))
        res.released = True
        self._servers[res.server_id].reserved -= 1
        return res

    def servers(self) -> list[ServerRecord]:
        return sorted(self._servers.values(), key=lambda s: s.server_id)

    def active_reservations(self) -> list[Reservation]:
        return sorted((r for r in self._reservations.values() if not r.released),
                      key=lambda r: r.reservation_id)


# -- project schemas --------------------------------------------------------------

COLUMN_TYPES = ("int", "text", "bool")


@dataclass
class ProjectSchema:
    project_id: int
    name: str
    owner_developer_id: int
    version: int = 1
    tables: dict[str, dict[str, str]] = field(default_factory=dict)  # table -> column -> type

    def to_body(self) -> dict:
        return {"project_id": self.project_id, "name": self.name,
                "owner_developer_id": self.owner_developer_id,
                "version": self.version,
                "tables": {t: dict(cols) for t, cols in self.tables.items()}}


class SchemaStore:
    def __init__(self) -> None:
        self._projects: dict[int, ProjectSchema] = {}
        self._next_id = 1

    def create_project(self, name: str, owner_developer_id: int) -> ProjectSchema:
        if not name:
            raise DomainError("project name required")
        proj = ProjectSchema(self._next_id, name, int(owner_developer_id))
        self._next_id += 1
        self._projects[proj.project_id] = proj
        return proj

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

    def get(self, project_id: int, table: str, record_id: int) -> dict:
        bucket = self._records.get((project_id, table), {})
        if record_id not in bucket:
            raise UnknownRecord(str(record_id))
        return dict(bucket[record_id])

    def update(self, project_id: int, table: str, record_id: int, values: dict) -> None:
        bucket = self._records.get((project_id, table), {})
        if record_id not in bucket:
            raise UnknownRecord(str(record_id))
        bucket[record_id] = dict(values)

    def delete(self, project_id: int, table: str, record_id: int) -> None:
        bucket = self._records.get((project_id, table), {})
        if record_id not in bucket:
            raise UnknownRecord(str(record_id))
        del bucket[record_id]

    def list(self, project_id: int, table: str) -> list[dict]:
        bucket = self._records.get((project_id, table), {})
        return [{"record_id": rid, "values": dict(bucket[rid])}
                for rid in sorted(bucket)]


# -- chat instances -----------------------------------------------------------------

CHAT_ACTIVE = "ACTIVE"


@dataclass
class ChatInstance:
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
        inst = ChatInstance(self._next_id, int(developer_id), int(reservation_id))
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
