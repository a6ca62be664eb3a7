"""Data-ownership audit over wire traffic.

Each persistent entity has exactly one owning service per stage; every
delivered write (POST, PUT, DELETE) whose path names an entity must land on
that owner. The audit scans a run's message records and reports any write
that reached some other service, which is how split-phase regressions (two
services quietly writing the same data) get caught.

Stage 0 is a single deployable: there is no wire between components, so the
audit is not applicable there.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from ..chassis import split_path
from ..simwire import DELIVERED, REQUEST, MessageRecord, WireTrace
from .stages import STAGES

WRITE_METHODS = ("POST", "PUT", "DELETE")
_UNSEEN = object()

ENTITY_DEVELOPER = "Developer"
ENTITY_PROJECT_SCHEMA = "ProjectSchema"
ENTITY_SERVER = "ServerResource"
ENTITY_CHAT = "ChatInstance"
ENTITY_CONTENT = "ContentRecord"

AUDIT_OK = "OK"
AUDIT_VIOLATIONS = "VIOLATIONS"
AUDIT_NOT_APPLICABLE = "NOT_APPLICABLE"


# The entity a write path names by its first segment; a /schema path names
# it by its second.
_ROOT_ENTITIES = {"resources": ENTITY_SERVER, "chat": ENTITY_CHAT, "content": ENTITY_CONTENT}
_SCHEMA_ENTITIES = {"developers": ENTITY_DEVELOPER, "projects": ENTITY_PROJECT_SCHEMA}


def classify_write(path: str, stage: int) -> Optional[str]:
    """Name the entity a write path touches, or None for paths that carry
    no entity data (use-case surfaces, infrastructure traffic)."""
    parts = split_path(path)
    if not parts:
        return None
    root = parts[0]
    if root == "schema":
        return _SCHEMA_ENTITIES.get(parts[1]) if len(parts) > 1 else None
    if root == "developers":
        # Until the stage runs DeveloperInfoServices the developer entity
        # lives behind /schema, and /developers is only the use-case surface.
        return ENTITY_DEVELOPER if "DeveloperInfoServices" in STAGES[stage].services else None
    return _ROOT_ENTITIES.get(root)


def expected_owner(entity: str, stage: int) -> str:
    """The service that owns ``entity`` at ``stage``. An entity that leaves
    DeveloperData moves at the first stage that runs its own service."""
    runs = STAGES[stage].services
    if entity == ENTITY_DEVELOPER:
        return "DeveloperInfoServices" if "DeveloperInfoServices" in runs else "DeveloperData"
    if entity == ENTITY_PROJECT_SCHEMA:
        return "DeveloperData"
    if entity == ENTITY_SERVER:
        return "ResourceManager" if "ResourceManager" in runs else "DeveloperData"
    if entity == ENTITY_CHAT:
        return "ChatServices"
    if entity == ENTITY_CONTENT:
        return "ContentServices"
    raise ValueError(f"unknown entity: {entity}")


class Violation(NamedTuple):
    tick: int
    message_id: int
    source: str
    destination: str
    method: str
    path: str
    entity: str
    expected: str
    actual: str

    def line(self) -> str:
        return (f"violation|{self.tick}|{self.method}|{self.path}"
                f"|{self.source}->{self.destination}|{self.entity}"
                f"|expected={self.expected}|actual={self.actual}")


class AuditReport(NamedTuple):
    """Immutable: :func:`audit_ownership` builds it once, after the scan."""

    stage: int
    status: str
    writes_checked: int
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return self.status != AUDIT_VIOLATIONS

    def lines(self) -> list[str]:
        head = (f"audit|stage={self.stage}|status={self.status}"
                f"|writes={self.writes_checked}|violations={len(self.violations)}")
        return [head] + [v.line() for v in self.violations]


def audit_ownership(records: Iterable[MessageRecord], stage: int,
                    node_services: dict[str, str]) -> AuditReport:
    """Check every delivered entity write against the stage's owner map.

    ``node_services`` maps node ids to the service each node runs, normally
    ``SystemHandle.node_services()``. A :class:`WireTrace` is read through
    its plain rows, so the audit builds no records.
    """
    if stage == 0:
        return AuditReport(stage, AUDIT_NOT_APPLICABLE, 0, [])
    writes = 0
    violations: list[Violation] = []
    # path -> (entity, owner), or None for a path that carries no entity.
    owners: dict[str, Optional[tuple[str, str]]] = {}
    rows = records.rows() if isinstance(records, WireTrace) else records
    for tick, message_id, source, destination, kind, method, path, status in rows:
        if kind != REQUEST or status != DELIVERED:
            continue
        if method not in WRITE_METHODS:
            continue
        hit = owners.get(path, _UNSEEN)
        if hit is _UNSEEN:
            entity = classify_write(path, stage)
            hit = owners[path] = \
                None if entity is None else (entity, expected_owner(entity, stage))
        if hit is None:
            continue
        writes += 1
        entity, owner = hit
        actual = node_services.get(destination, destination)
        if actual != owner:
            violations.append(Violation(
                tick=tick, message_id=message_id, source=source,
                destination=destination, method=method, path=path,
                entity=entity, expected=owner, actual=actual))
    return AuditReport(stage, AUDIT_VIOLATIONS if violations else AUDIT_OK, writes, violations)
