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

from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

from ..chassis import ROUTE_MEMO_LIMIT, split_path
from ..simwire import DELIVERED, REQUEST, MessageRecord, WireTrace
from .stages import holders

WRITE_METHODS = ("POST", "PUT", "DELETE")

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
    root, second = (*split_path(path), "", "")[:2]  # "" for a missing segment
    if root == "schema":
        return _SCHEMA_ENTITIES.get(second)
    if root == "developers":
        # /developers names the developer entity only where the entity's own
        # service holds it; until then it is the use-case surface.
        return ENTITY_DEVELOPER if holders(stage)[0][1] == "/developers" else None
    return _ROOT_ENTITIES.get(root)


def expected_owner(entity: str, stage: int) -> str:
    """The service that owns ``entity`` at ``stage``, as :func:`holders` says."""
    (dev_owner, _), pool_owner = holders(stage)
    owners = {ENTITY_DEVELOPER: dev_owner, ENTITY_PROJECT_SCHEMA: "DeveloperData",
              ENTITY_SERVER: pool_owner, ENTITY_CHAT: "ChatServices",
              ENTITY_CONTENT: "ContentServices"}
    return owners[entity]


@lru_cache(maxsize=ROUTE_MEMO_LIMIT)
def _write_class(path: str, stage: int) -> Optional[tuple[str, str]]:
    """(entity, owner) of a write to ``path`` at ``stage``, fixed by STAGES, or None."""
    entity = classify_write(path, stage)
    return None if entity is None else (entity, expected_owner(entity, stage))


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
    rows = records.rows() if isinstance(records, WireTrace) else records
    for tick, message_id, source, destination, kind, method, path, status in rows:
        if kind != REQUEST or status != DELIVERED or method not in WRITE_METHODS:
            continue
        hit = _write_class(path, stage)
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
