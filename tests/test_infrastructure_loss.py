"""Losing an infrastructure node mid-run at stage 6 changes no later answer.

The workload is the benchmark generator's seed-1 mix with chat, 1500 lines,
one per tick, loaded read-only from ``bench/`` as in
``test_bench_workloads.py``. One node is killed at tick 750 and never
revived. Each run's answers to the 740 lines sent from tick 760 on are
compared with the fault-free run's.

- ``registry``: a client whose discovery fetch fails sends to the endpoints
  it stored last (stale-if-error), so the registry's loss costs nothing
  while the instances it listed stay up.
- ``confsvc``: config is pulled once at startup and pushed after, so its
  loss costs nothing either.
"""

from __future__ import annotations

import pytest

from ssaas_sim.migration import build_stage, parse_workload, run_workload
from ssaas_sim.simwire import parse_fault_script

from test_bench_workloads import load

SEED = 1
REQUESTS = 1500
KILL_TICK = 750
FROM_TICK = KILL_TICK + 10


def late_answers(lines, faults=None) -> list[tuple]:
    entries = run_workload(build_stage(6, SEED), lines, faults=faults)
    return [(entry.status, entry.response_body)
            for line, entry in zip(lines, entries) if line.tick >= FROM_TICK]


@pytest.mark.parametrize("node", ["registry", "confsvc"])
def test_losing_an_infrastructure_node_changes_no_later_answer(monkeypatch, node):
    mix = load(monkeypatch, "gen").generate(SEED, REQUESTS, chat=True)
    lines = parse_workload(mix.workload_text())
    clean = late_answers(lines)
    assert len(clean) == 740
    killed = late_answers(lines, parse_fault_script(f"{KILL_TICK} kill {node}\n"))
    changed = sum(a != b for a, b in zip(clean, killed))
    assert changed == 0
