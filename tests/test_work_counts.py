"""The host work a run costs, as an exact count: a ratchet.

Wall time on a shared host is noisy, but the number of Python-level calls
the program makes while it replays a workload is exact: it repeats in any
process under any hash seed. Each test here counts the calls into
``src/ssaas_sim`` that ``run_workload`` makes, with a profile hook set and
restored inside the test, and holds the count at or under its bound. A
change that makes the program do more per message fails here; one that
must add calls raises the bound and says why in CHANGES.md.

The seed-1 mix-s6 inputs come from the benchmark's generator, loaded
read-only from ``bench/`` as ``tests/test_bench_workloads.py`` loads it.
"""

from __future__ import annotations

import os
import sys

import pytest

import ssaas_sim
from ssaas_sim import migration, workloads

from test_bench_workloads import load

# Code objects carry the path their module was imported from.
PROGRAM = os.path.dirname(ssaas_sim.__file__) + os.sep

# (workload, stage) -> the most calls its run may make. Measured with
# CPython 3.11; an interpreter that inlines comprehensions counts fewer.
BOUNDS = {
    ("basic.wl", 0): 1420,
    ("basic.wl", 6): 10378,
    ("mix-s6", 6): 105482,
}


def calls_into_program(handle, lines) -> int:
    """Python-level calls into the program while ``lines`` run on ``handle``."""
    count = 0

    def profile(frame, event, arg) -> None:
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(PROGRAM):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        migration.run_workload(handle, lines)
    finally:
        sys.setprofile(previous)
    return count


def counted(stage: int, lines) -> int:
    # A first run fills the process-wide caches (compiled route patterns),
    # so the counted run does not depend on what ran before it.
    migration.run_workload(migration.build_stage(stage, 1), lines)
    return calls_into_program(migration.build_stage(stage, 1), lines)


@pytest.mark.parametrize("stage", [0, 6])
def test_basic_run_stays_within_its_call_count(stage):
    lines = migration.parse_workload(workloads.load_text("basic.wl"))
    assert counted(stage, lines) <= BOUNDS[("basic.wl", stage)]


def test_generated_mix_stays_within_its_call_count(monkeypatch):
    gen = load(monkeypatch, "gen")
    lines = migration.parse_workload(gen.generate(1, 1500).workload_text())
    assert counted(6, lines) <= BOUNDS[("mix-s6", 6)]
