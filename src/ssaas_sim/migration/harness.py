"""Workload driver: replays a scripted request stream against a topology.

Workload files are line based, one request per line::

    tick|client|METHOD|path|body

* ``tick`` is relative to the settled topology (tick 0 is the first instant
  after startup traffic has drained) and must be non-decreasing. It has one
  spelling, the one :func:`~ssaas_sim.simwire.read_int` takes: ``5``, not
  ``05``, ``+5`` or ``5 ``.
* ``client`` names the sending node; ``client`` is created with every
  topology, other names (by convention ``admin``) are created on first use.
  A name of one of the topology's own nodes is refused.
* ``body`` is a JSON document, or empty for no body. Its integers have the
  same one spelling: :func:`~ssaas_sim.simwire.read_json` reads it, so
  ``-0`` is refused.

Blank lines and ``#`` comments are skipped. Fault scripts ride the same
relative clock: a fault at tick 40 activates before any workload line at
tick 40 is sent.

The admin client talks to the infrastructure nodes directly: paths under
``/config`` go to the configuration server, paths under ``/registry`` to the
registry. Everything else enters the system the way ordinary client traffic
does for the topology's stage: through the gateway once it runs, else
routed locally against the same prefix table the gateway would use.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..chassis import CONFSVC_NODE, GATEWAY_NODE, REGISTRY_NODE, ServiceNode
from ..simwire import Body, FaultRule, SimwireError, read_int, read_json
from .stages import CLIENT_SERVICE, SystemHandle, wire_client
from .traces import TraceEntry

WORKLOAD_METHODS = ("GET", "POST", "PUT", "DELETE")
DEFAULT_BUDGET_TICKS = 10_000

_ADMIN_TARGETS = {"config": CONFSVC_NODE, "registry": REGISTRY_NODE}


class WorkloadError(Exception):
    """A workload could not be parsed, or a line of it was left unanswered."""


class BudgetExceeded(Exception):
    """The system did not go quiescent within the tick budget."""


class WorkloadLine(NamedTuple):
    tick: int
    client: str
    method: str
    path: str
    body: Body
    line_no: int = 0


_new_tuple = tuple.__new__  # builds a WorkloadLine or TraceEntry without its __new__ frame


def parse_workload(text: str) -> list[WorkloadLine]:
    """Parse workload text in the format above; a bad line raises :class:`WorkloadError`."""
    lines: list[WorkloadLine] = []
    last_tick = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split("|", 4)
        if len(parts) != 5:
            raise WorkloadError(f"line {line_no}: expected 5 |-separated fields")
        tick_s, client, method, path, body_s = parts
        try:
            tick = read_int(tick_s)
        except ValueError:
            raise WorkloadError(f"line {line_no}: bad tick {tick_s!r}") from None
        if tick < 0:
            raise WorkloadError(f"line {line_no}: negative tick")
        if tick < last_tick:
            raise WorkloadError(f"line {line_no}: ticks must be non-decreasing")
        last_tick = tick
        if not client:
            raise WorkloadError(f"line {line_no}: empty client")
        if method not in WORKLOAD_METHODS:
            raise WorkloadError(f"line {line_no}: unknown method {method!r}")
        if not path.startswith("/"):
            raise WorkloadError(f"line {line_no}: path must start with /")
        if body_s:
            try:
                body = read_json(body_s)
            except ValueError as exc:
                raise WorkloadError(f"line {line_no}: bad body: {exc}") from None
        else:
            body = None
        lines.append(_new_tuple(WorkloadLine, (tick, client, method, path, body, line_no)))
    return lines


def run_workload(handle: SystemHandle, lines: list[WorkloadLine],
                 faults: Optional[list[tuple[int, FaultRule]]] = None,
                 budget: int = DEFAULT_BUDGET_TICKS) -> list[TraceEntry]:
    """Replay a workload, returning one trace entry per line, in line order.

    Raises BudgetExceeded if the system is still busy ``budget`` ticks after
    the last line was sent. Before anything is sent, it raises SimwireError
    if ``budget`` is negative, and WorkloadError if a line's client names a
    node of the topology other than a client. It also raises WorkloadError,
    naming the lines, if the system goes quiet with lines unanswered: a
    client killed and not revived within its deadline never hears back.
    """
    if budget < 0:
        raise SimwireError(f"budget must be >= 0 ticks, got {budget}")
    for line in lines:
        node = handle.nodes.get(line.client)
        if node is not None and node.service != CLIENT_SERVICE:
            raise WorkloadError(f"line {line.line_no}: client {line.client!r} is a "
                                f"{node.service} node")
    sim = handle.sim
    base = handle.settle_tick
    for tick, rule in faults or ():
        sim.schedule_fault(base + tick, rule)
    entries: list[Optional[TraceEntry]] = [None] * len(lines)
    nodes = handle.nodes
    for i, line in enumerate(lines):
        sim.advance_to(base + line.tick)
        # A client is created when its first line is sent. Like any node, it
        # starts down if an active kill rule matches its name.
        node = nodes.get(line.client)
        if node is None:
            node = wire_client(handle, line.client)
        _send(handle, node, line, i, entries)
    if not sim.run_until_idle(budget=budget):
        raise BudgetExceeded(f"still busy after {budget} ticks")
    unanswered = [line.line_no for line, e in zip(lines, entries) if e is None]
    if unanswered:
        raise WorkloadError(f"lines left unanswered: {', '.join(map(str, unanswered))}")
    return entries  # type: ignore[return-value]


def _send(handle: SystemHandle, node: ServiceNode, line: WorkloadLine,
          seq: int, entries: list[Optional[TraceEntry]]) -> None:
    sim = handle.sim
    sent_tick = sim.now

    def finish(status: str, body: Body) -> None:
        entries[seq] = _new_tuple(TraceEntry, (seq, line.client, line.method, line.path,
                                               line.body, sent_tick, status, body, sim.now))

    client = node.client
    assert client is not None
    target = _ADMIN_TARGETS.get(line.path.split("/", 2)[1]) if line.path[:1] == "/" else None
    if target is None and handle.gateway is not None:
        target = GATEWAY_NODE
    if target is not None:
        client.call_node(target, line.method, line.path, line.body, finish)
    else:
        hit = handle.client_router.resolve(line.path)
        if hit is None:
            finish("404", {"error": "NoRoute"})
            return
        rule, inner_path = hit
        client.call(rule.service, line.method, inner_path, line.body, finish)

