"""Versioned configuration service.

Documents are keyed by (service, profile). Reads return the profile
document overlaid on the service's ``default`` profile, with a two-part
version (default version, profile version) so stale refreshes are
detectable no matter which half changed. Writes replace a document
wholesale; a ``default`` write pushes it to the service's subscribed nodes.
"""

from __future__ import annotations

from typing import NamedTuple

from .chassis import (CONFSVC_NODE, DEFAULT_PROFILE, Refusal, Request, ServiceClient, ServiceNode,
                      WiringMode, decode_tolerant)
from .simwire import Body, Simulator, read_int

SERVICE_NAME = "ConfigServer"

# A checkpoint line ends at "\n" or "\r" and holds "|"-separated names and
# ","-separated "key=value" entries. The parsers split once, from the left,
# so values may hold "|" and "=".
_NAME_FORBIDDEN = set("|\n\r")
_KEY_FORBIDDEN = set("|,=\n\r")
_VALUE_FORBIDDEN = set(",\n\r")


class MalformedConfig(Refusal):
    """A bad service or profile name, or (``field`` set) bad entries."""


class CheckpointError(Exception):
    pass


class _Doc(NamedTuple):
    version: int
    entries: dict[str, str]


_NO_DOC = _Doc(0, {})  # what a missing document reads as; nothing writes to it


class MergedConfig(NamedTuple):
    service: str
    profile: str
    version: tuple[int, int]
    entries: dict[str, str]

    def to_body(self) -> dict:
        return {"service": self.service, "profile": self.profile,
                "version": [self.version[0], self.version[1]],
                "entries": dict(self.entries)}


def _check_names(service: str, profile: str) -> None:
    if not service or not profile or _NAME_FORBIDDEN & set(service + profile):
        raise MalformedConfig("bad service or profile name")


def _check_entries(entries: dict[str, str]) -> None:
    if not isinstance(entries, dict):
        raise MalformedConfig("entries must be a map", "entries")
    for key, value in entries.items():
        if not isinstance(key, str) or not key or _KEY_FORBIDDEN & set(key) \
                or not isinstance(value, str) or _VALUE_FORBIDDEN & set(value):
            raise MalformedConfig(f"bad entry: {key!r}", "entries")


class ConfigStore:
    """Document storage and overlay merging; no wire concerns."""

    def __init__(self) -> None:
        self._docs: dict[tuple[str, str], _Doc] = {}

    def set_config(self, service: str, profile: str, entries: dict[str, str]) -> tuple[int, int]:
        _check_names(service, profile)
        _check_entries(entries)
        doc = self._docs.get((service, profile), _NO_DOC)
        self._docs[(service, profile)] = _Doc(doc.version + 1, dict(entries))
        return self._docs.get((service, DEFAULT_PROFILE), _NO_DOC).version, doc.version + 1

    def get_config(self, service: str, profile: str) -> MergedConfig:
        """Profile entries overlaid on the default profile (``default`` on
        itself); unknown documents read as version 0 with nothing in them."""
        base = self._docs.get((service, DEFAULT_PROFILE), _NO_DOC)
        over = self._docs.get((service, profile), _NO_DOC)
        merged = dict(base.entries)
        merged.update(over.entries)
        return MergedConfig(service, profile, (base.version, over.version), merged)

    def services(self) -> list[tuple[str, str]]:
        return sorted(self._docs.keys())

    # -- checkpoint file -------------------------------------------------

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for (service, profile) in self.services():
                doc = self._docs[(service, profile)]
                body = ",".join(f"{k}={doc.entries[k]}" for k in sorted(doc.entries))
                fh.write(f"{service}|{profile}|{doc.version}|{body}\n")

    @classmethod
    def load(cls, path: str) -> "ConfigStore":
        store = cls()
        with open(path, "r", encoding="utf-8") as fh:
            try:  # decode it all here, so that a bad byte is refused like a bad line
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"not UTF-8: {exc}") from exc
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line:
                continue
            parts = line.split("|", 3)
            if len(parts) != 4:
                raise CheckpointError(f"line {lineno}: expected 4 fields")
            service, profile, version, body = parts
            try:
                _check_names(service, profile)
                entries = {}
                if body:
                    for pair in body.split(","):
                        key, _, value = pair.partition("=")
                        entries[key] = value
                _check_entries(entries)
                doc = _Doc(read_int(version), entries)
            except (ValueError, MalformedConfig) as exc:
                raise CheckpointError(f"line {lineno}: {exc}") from exc
            if (service, profile) in store._docs:  # save writes each document once
                raise CheckpointError(f"line {lineno}: duplicate document {service}|{profile}")
            store._docs[(service, profile)] = doc
        return store


class ConfigServer(ServiceNode):
    """Wire front end plus push notifications to subscribed nodes.

    Every node runs its service's ``default`` profile, so writing that
    document pushes it to every subscriber of the service. A named profile
    is only read (by the CLI, or a GET), so writing one pushes nothing.
    """

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim, CONFSVC_NODE, SERVICE_NAME)
        self.store = ConfigStore()
        self.subscribers: list[tuple[str, str]] = []  # (node, service)
        ServiceClient(self, WiringMode.DIRECT_WIRE)
        self.route("GET", "/config/{service}/{profile}", self._get)
        self.route("PUT", "/config/{service}/{profile}", self._set)

    def subscribe(self, node: ServiceNode) -> None:
        """Push ``node`` its service's ``default`` document on every write, to
        the ``POST /refresh`` route this gives it: no other node has one."""
        entry = (node.node_id, node.service)
        if entry not in self.subscribers:
            node.route("POST", "/refresh", node.handle_refresh)
            self.subscribers.append(entry)

    def _get(self, req: Request) -> tuple[str, Body]:
        merged = self.store.get_config(req.params["service"], req.params["profile"])
        return "200", merged.to_body()

    def _set(self, req: Request) -> tuple[str, Body]:
        entries = decode_tolerant(req.body, ["entries"])["entries"]
        service, profile = req.params["service"], req.params["profile"]
        version = self.store.set_config(service, profile, entries)
        if profile == DEFAULT_PROFILE:
            self._notify(service)
        return "200", {"version": [version[0], version[1]]}

    def _notify(self, service: str) -> None:
        assert self.client is not None
        merged = self.store.get_config(service, DEFAULT_PROFILE)
        for node_id, sub_service in self.subscribers:
            if sub_service == service:
                self.client.call_node(node_id, "POST", "/refresh", merged.to_body())
