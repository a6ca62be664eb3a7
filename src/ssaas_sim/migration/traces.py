"""External request traces: what the workload client saw, step to step.

A trace records one entry per workload line: the request as sent and the
response as observed, with send and completion ticks. A trace file holds
one entry per line, as tab-separated text or as JSON. Two topologies are
behaviorally equivalent for a workload when their traces match after
normalization, which replaces generated identifiers with placeholders
(numbering is an implementation artifact) and drops tick columns (latency
profiles legitimately differ between topologies).
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Any, Iterable, NamedTuple, Optional

from ..simwire import Body, canonical_json, read_int, read_json

TEXT_FORMAT = "text"
NDJSON_FORMAT = "ndjson"
FORMATS = (TEXT_FORMAT, NDJSON_FORMAT)

# Body keys whose integer values are generated identifiers. Values under
# these keys are normalized to first-appearance placeholders, one counter
# per family.
ID_FAMILIES = ("developer_id", "project_id", "reservation_id", "record_id", "chat_id")

_DB_NAME_RE = re.compile(r"db_\d+")

_TEXT_COLUMNS = 9


class TraceFormatError(Exception):
    """A trace file could not be parsed."""


class TraceEntry(NamedTuple):
    seq: int
    client: str
    method: str
    path: str
    request_body: Body
    sent_tick: int
    status: str
    response_body: Body
    done_tick: int

    def text_line(self) -> str:
        # json.dumps escapes tabs and newlines, so the columns are safe.
        return "\t".join([
            str(self.seq), self.client, self.method, self.path,
            str(self.sent_tick), str(self.done_tick), self.status,
            canonical_json(self.request_body), canonical_json(self.response_body),
        ])

    def to_json(self) -> str:
        return canonical_json({
            "seq": self.seq, "client": self.client, "method": self.method,
            "path": self.path, "sent_tick": self.sent_tick,
            "done_tick": self.done_tick, "status": self.status,
            "request": self.request_body, "response": self.response_body,
        })


def serialize_trace(entries: Iterable[TraceEntry], fmt: str = TEXT_FORMAT) -> str:
    if fmt == TEXT_FORMAT:
        lines = [e.text_line() for e in entries]
    elif fmt == NDJSON_FORMAT:
        lines = [e.to_json() for e in entries]
    else:
        raise TraceFormatError(f"unknown format: {fmt}")
    return "".join(line + "\n" for line in lines)


def parse_trace(text: str) -> list[TraceEntry]:
    """Parse a trace in the format its first non-blank character shows, skipping
    blank lines. A bad line raises :class:`TraceFormatError` naming its number."""
    read = _ndjson_entry if text.lstrip().startswith("{") else _text_entry
    entries = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        try:
            if line.strip():
                entries.append(read(line))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"line {line_no}: {exc}") from exc
    return entries


def _text_entry(line: str) -> TraceEntry:
    cols = line.split("\t")
    if len(cols) != _TEXT_COLUMNS:
        raise ValueError(f"expected {_TEXT_COLUMNS} columns, got {len(cols)}")
    return TraceEntry(
        seq=read_int(cols[0]), client=cols[1], method=cols[2], path=cols[3],
        sent_tick=read_int(cols[4]), done_tick=read_int(cols[5]), status=cols[6],
        request_body=read_json(cols[7]), response_body=read_json(cols[8]))


def _ndjson_entry(line: str) -> TraceEntry:
    doc = read_json(line)
    # An integer field's JSON text is its one spelling, so true, 1.9 and "3" are refused.
    return TraceEntry(
        seq=read_int(canonical_json(doc["seq"])), client=doc["client"],
        method=doc["method"], path=doc["path"],
        sent_tick=read_int(canonical_json(doc["sent_tick"])),
        done_tick=read_int(canonical_json(doc["done_tick"])), status=doc["status"],
        request_body=doc["request"], response_body=doc["response"])


def _normalize_value(value: Any, key: Optional[str], ids: dict[str, dict[Any, str]]) -> Any:
    if isinstance(value, dict):
        return {k: _normalize_value(value[k], k, ids) for k in sorted(value)}
    if isinstance(value, list):
        return [_normalize_value(v, key, ids) for v in value]
    if (key in ID_FAMILIES and isinstance(value, int) and not isinstance(value, bool)) or \
            (key == "database_name" and isinstance(value, str) and _DB_NAME_RE.fullmatch(value)):
        seen = ids.setdefault(key, {})
        if value not in seen:
            seen[value] = f"<{key}#{len(seen) + 1}>"
        return seen[value]
    return value


def normalize_trace(entries: Iterable[TraceEntry]) -> list[dict]:
    """Project entries onto the comparable surface: ticks dropped, generated
    ids replaced with per-family placeholders in order of first appearance."""
    ids: dict[str, dict[Any, str]] = {}
    out = []
    for entry in entries:
        out.append({
            "client": entry.client,
            "method": entry.method,
            "path": entry.path,
            "status": entry.status,
            "request": _normalize_value(entry.request_body, None, ids),
            "response": _normalize_value(entry.response_body, None, ids),
        })
    return out


class TraceDiff(NamedTuple):
    equal: bool
    index: int = -1
    field: str = ""
    left: Any = None
    right: Any = None

    def summary(self) -> str:
        if self.equal:
            return "EQUAL"
        return (f"DIVERGED at entry {self.index}, field {self.field}: "
                f"{self.left!r} != {self.right!r}")


def _first_diff(a: Any, b: Any, path: str) -> Optional[tuple[str, Any, Any]]:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            if key not in a:
                return sub, "<absent>", b[key]
            if key not in b:
                return sub, a[key], "<absent>"
            found = _first_diff(a[key], b[key], sub)
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (av, bv) in enumerate(zip(a, b)):
            found = _first_diff(av, bv, f"{path}[{i}]")
            if found:
                return found
        if len(a) != len(b):
            return f"{path}.<length>", len(a), len(b)
        return None
    if a != b or type(a) is not type(b):
        return path, a, b
    return None


# The fields normalize_trace keeps, read in C.
_COMPARABLE = attrgetter("client", "method", "path", "status", "request_body", "response_body")


def compare_traces(left: Iterable[TraceEntry], right: Iterable[TraceEntry]) -> TraceDiff:
    """Diff two traces after normalization.

    Normalization is a pure function of the entry sequence, so when the
    comparable fields of the two traces have equal repr text entry by entry,
    and that text holds no ``nan``, the traces are equal without normalizing
    either. The check stops at the first entry that fails it; only then are
    both traces normalized and walked.
    """
    left, right = list(left), list(right)
    if len(left) == len(right):
        for x, y in zip(left, right):
            text = repr(_COMPARABLE(x))
            if text != repr(_COMPARABLE(y)) or "nan" in text:
                break
        else:
            return TraceDiff(True)
    a, b = normalize_trace(left), normalize_trace(right)
    for i in range(min(len(a), len(b))):
        # For the JSON types of a body, equal repr text means an equal entry:
        # the text tells 1, 1.0 and True apart and lists from tuples. NaN is
        # the exception, its text equals itself while its value does not.
        text = repr(a[i])
        if text == repr(b[i]) and "nan" not in text:
            continue
        found = _first_diff(a[i], b[i], "")
        if found:
            field, lv, rv = found
            return TraceDiff(False, index=i, field=field, left=lv, right=rv)
    if len(a) != len(b):
        return TraceDiff(False, index=min(len(a), len(b)), field="<length>",
                         left=len(a), right=len(b))
    return TraceDiff(True)
