"""Versioned configuration service.

Documents are keyed by (service, profile). Reads return the profile
document overlaid on the service's ``default`` profile, with a two-part
version (default version, profile version) so stale refreshes are
detectable no matter which half changed. Writes replace a document
wholesale and push refresh notifications to subscribed nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chassis import (CONFSVC_NODE, DecodeError, Request, ServiceClient, ServiceNode,
                      WiringMode, decode_tolerant)
from .simwire import Body, Simulator

SERVICE_NAME = "ConfigServer"
DEFAULT_PROFILE = "default"

# Keys sit between "," and "=" in a checkpoint line, so they can hold
# neither; values are only ever bounded by "," so pipes and equals signs
# are fine there (the parsers split once, from the left).
_KEY_FORBIDDEN = set("|,=\n")
_VALUE_FORBIDDEN = set(",\n")


class ConfigError(Exception):
    pass


class MalformedConfig(ConfigError):
    pass


class CheckpointError(ConfigError):
    pass


@dataclass
class _Doc:
    version: int = 0
    entries: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class MergedConfig:
    service: str
    profile: str
    version: tuple[int, int]
    entries: dict[str, str]

    def to_body(self) -> dict:
        return {"service": self.service, "profile": self.profile,
                "version": [self.version[0], self.version[1]],
                "entries": dict(self.entries)}


def _check_entries(entries: dict[str, str]) -> None:
    for key, value in entries.items():
        if not isinstance(key, str) or not key or _KEY_FORBIDDEN & set(key) \
                or not isinstance(value, str) or _VALUE_FORBIDDEN & set(value):
            raise MalformedConfig(f"bad entry: {key!r}")


class ConfigStore:
    """Document storage and overlay merging; no wire concerns."""

    def __init__(self) -> None:
        self._docs: dict[tuple[str, str], _Doc] = {}

    def set_config(self, service: str, profile: str, entries: dict[str, str]) -> tuple[int, int]:
        if not service or "|" in service or not profile or "|" in profile:
            raise MalformedConfig("bad service or profile name")
        _check_entries(entries)
        doc = self._docs.setdefault((service, profile), _Doc())
        doc.version += 1
        doc.entries = dict(entries)
        return self.get_config(service, profile).version

    def get_config(self, service: str, profile: str) -> MergedConfig:
        """Profile entries overlaid on the default profile; unknown
        documents read as version 0 with nothing in them."""
        base = self._docs.get((service, DEFAULT_PROFILE), _Doc())
        if profile == DEFAULT_PROFILE:
            return MergedConfig(service, profile, (base.version, base.version),
                                dict(base.entries))
        over = self._docs.get((service, profile), _Doc())
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
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if not line:
                    continue
                parts = line.split("|", 3)
                if len(parts) != 4:
                    raise CheckpointError(f"line {lineno}: expected 4 fields")
                service, profile, version, body = parts
                try:
                    entries = {}
                    if body:
                        for pair in body.split(","):
                            key, _, value = pair.partition("=")
                            if not key:
                                raise ValueError(pair)
                            entries[key] = value
                    doc = _Doc(version=int(version), entries=entries)
                except ValueError as exc:
                    raise CheckpointError(f"line {lineno}: {exc}") from exc
                store._docs[(service, profile)] = doc
        return store


class ConfigServer(ServiceNode):
    """Wire front end plus push notifications to subscribed nodes.

    Writing a service's ``default`` profile notifies every subscriber of
    that service (each gets its own profile's merged view); writing a named
    profile notifies only the nodes running that profile.
    """

    def __init__(self, sim: Simulator, node_id: str = CONFSVC_NODE) -> None:
        super().__init__(sim, node_id, SERVICE_NAME)
        self.store = ConfigStore()
        self.subscribers: list[tuple[str, str, str]] = []  # (node, service, profile)
        ServiceClient(self, WiringMode.DIRECT_WIRE)
        self.route("GET", "/config/{service}/{profile}", self._get)
        self.route("PUT", "/config/{service}/{profile}", self._set)

    def subscribe(self, node_id: str, service: str, profile: str = DEFAULT_PROFILE) -> None:
        entry = (node_id, service, profile)
        if entry not in self.subscribers:
            self.subscribers.append(entry)

    def _get(self, req: Request) -> tuple[str, Body]:
        merged = self.store.get_config(req.params["service"], req.params["profile"])
        return "200", merged.to_body()

    def _set(self, req: Request) -> tuple[str, Body]:
        entries = decode_tolerant(req.body, ["entries"])["entries"]
        if not isinstance(entries, dict):
            raise DecodeError("entries")
        service, profile = req.params["service"], req.params["profile"]
        try:
            version = self.store.set_config(service, profile, entries)
        except MalformedConfig:
            raise DecodeError("entries") from None
        self._notify(service, profile)
        return "200", {"version": [version[0], version[1]]}

    def _notify(self, service: str, written_profile: str) -> None:
        assert self.client is not None
        for node_id, sub_service, sub_profile in self.subscribers:
            if sub_service != service:
                continue
            if written_profile != DEFAULT_PROFILE and sub_profile != written_profile:
                continue
            merged = self.store.get_config(service, sub_profile)
            self.client.call_node(node_id, "POST", "/refresh", merged.to_body())
