"""The migration lattice: every topology the stage table could hold.

A topology is three choices: the optional services (a subset of
ResourceManager, ChatServices and DeveloperInfoServices, run after the
three split services); the infrastructure (a subset of confsvc, gateway and
registry); and the wiring, DIRECT_WIRE or, when a registry runs,
DISCOVERED. That makes 8 × 12 = 96 topologies. Each is registered in
``STAGES`` as a row of its own, under a stage number never used before in
the process, since per-process caches key on the stage number.

A topology is legal when its gateway has a configuration server to get its
routes from (gateway ⇒ confsvc; DISCOVERED ⇒ registry holds by
construction). Every legal topology answers ``basic.wl`` as stage 0 does,
and every illegal one does not, which pins the rule. Every legal topology
that runs ChatServices answers ``chat_resilience.wl`` as stage 6 does,
wherever the developer entity and the server pool live. Every run audits
clean.
"""

from __future__ import annotations

import itertools

import pytest

from ssaas_sim.chassis import WiringMode
from ssaas_sim.migration.audit import audit_ownership
from ssaas_sim.migration.harness import parse_workload, run_workload
from ssaas_sim.migration.stages import LAST_STAGE, STAGES, build_stage
from ssaas_sim.migration.traces import TraceDiff, compare_traces
from ssaas_sim.workloads import load_text

OPTIONAL = ("ResourceManager", "ChatServices", "DeveloperInfoServices")
INFRASTRUCTURE = ("confsvc", "gateway", "registry")
SPLIT = STAGES[1].services

# Stage numbers for lattice rows: far above the ladder, and never reused.
_KEYS = itertools.count(1000)


def subsets(names: tuple[str, ...]) -> list[tuple[str, ...]]:
    return [tuple(n for n, keep in zip(names, mask) if keep)
            for mask in itertools.product((False, True), repeat=len(names))]


def topologies() -> list[tuple[tuple[str, ...], tuple[str, ...], str]]:
    """Every (optional services, infrastructure, wiring) triple."""
    return [(optional, infra, wiring)
            for optional in subsets(OPTIONAL) for infra in subsets(INFRASTRUCTURE)
            for wiring in (WiringMode.DIRECT_WIRE, WiringMode.DISCOVERED)
            if wiring == WiringMode.DIRECT_WIRE or "registry" in infra]


def legal(infra: tuple[str, ...]) -> bool:
    return "gateway" not in infra or "confsvc" in infra


def run(stage: int, lines, reference) -> tuple[TraceDiff, list[str]]:
    """Run ``lines`` at ``stage``: the diff from ``reference``, and the
    audit's report lines if any write reached a service that does not own it."""
    handle = build_stage(stage, 1)
    entries = run_workload(handle, lines)
    report = audit_ownership(handle.sim.records, stage, handle.node_services())
    return compare_traces(reference, entries), [] if report.ok else report.lines()


@pytest.fixture(scope="module")
def lattice() -> dict[tuple, dict[str, tuple[TraceDiff, list[str]]]]:
    """Each topology's outcome per workload: ``basic.wl`` against stage 0
    always, ``chat_resilience.wl`` against stage 6 when the topology is
    legal and runs ChatServices."""
    basic = parse_workload(load_text("basic.wl"))
    chat = parse_workload(load_text("chat_resilience.wl"))
    references = {"basic": run_workload(build_stage(0, 1), basic),
                  "chat": run_workload(build_stage(LAST_STAGE, 1), chat)}
    outcomes: dict[tuple, dict[str, tuple[TraceDiff, list[str]]]] = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for optional, infra, wiring in topologies():
            key = next(_KEYS)
            monkeypatch.setitem(STAGES, key, STAGES[LAST_STAGE]._replace(
                wiring=wiring, services=SPLIT + optional, infrastructure=infra))
            outcome = outcomes[(optional, infra, wiring)] = {
                "basic": run(key, basic, references["basic"])}
            if legal(infra) and "ChatServices" in optional:
                outcome["chat"] = run(key, chat, references["chat"])
    return outcomes


def diverged(outcomes, workload: str) -> dict[tuple, str]:
    return {topo: outcome[workload][0].summary() for topo, outcome in outcomes.items()
            if not outcome[workload][0].equal}


def test_the_lattice_has_96_topologies_72_of_them_legal(lattice):
    assert len(lattice) == 96
    assert sum(legal(infra) for _, infra, _ in lattice) == 72
    assert sum("chat" in outcome for outcome in lattice.values()) == 36


def test_every_legal_topology_answers_basic_as_stage_zero(lattice):
    assert diverged({t: o for t, o in lattice.items() if legal(t[1])}, "basic") == {}


def test_a_gateway_without_confsvc_answers_otherwise(lattice):
    # Such a gateway never receives its route entries.
    illegal = {t: o for t, o in lattice.items() if not legal(t[1])}
    assert len(illegal) == 24
    assert len(diverged(illegal, "basic")) == 24


def test_every_topology_audits_clean(lattice):
    astray = {(topo, workload): lines for topo, outcome in lattice.items()
              for workload, (_, lines) in outcome.items() if lines}
    assert astray == {}


def test_every_legal_chat_topology_answers_chat_resilience_as_stage_six(lattice):
    # ChatServices reaches the developer entity and the server pool wherever
    # the row puts them, as DeveloperServices does.
    assert diverged({t: o for t, o in lattice.items() if "chat" in o}, "chat") == {}
