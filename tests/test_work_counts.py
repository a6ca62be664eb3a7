"""The host work a run costs, as an exact count: a ratchet.

Wall time on a shared host is noisy, but the number of Python-level calls
the program makes while it replays a workload is exact: it repeats in any
process under any hash seed. Each test here counts the calls into
``src/ssaas_sim`` that ``run_workload`` makes, or that a warm or cold
``build_stage`` or an idle stretch of a settled system makes, with a profile
hook set and restored inside the test, and holds the count at or under its
bound. One more counts the route and prefix tables a run compiles: none,
since a build compiles them all. A change that makes the program do more
per message, per build or per idle tick fails here; one that must add calls
raises the bound and says why in CHANGES.md.

The seed-1 mix-s6 inputs come from the benchmark's generator, loaded
read-only from ``bench/`` as ``tests/test_bench_workloads.py`` loads it.
"""

from __future__ import annotations

import os
import sys

import pytest

import ssaas_sim
from ssaas_sim import chassis, gateway, migration, workloads
from ssaas_sim.migration import audit

from test_bench_workloads import load

# Code objects carry the path their module was imported from.
PROGRAM = os.path.dirname(ssaas_sim.__file__) + os.sep

# (workload, stage) -> the most calls its run may make. Measured with
# CPython 3.11; an interpreter that inlines comprehensions counts fewer.
BOUNDS = {
    ("basic.wl", 0): 1296,
    ("basic.wl", 6): 9581,
    # The only counted run that creates chats: basic.wl and the mix have none.
    ("chat_resilience.wl", 6): 3542,
    ("mix-s6", 6): 102404,
    # A warm build_stage(6), and 700 idle ticks of a settled stage 6 system.
    ("build", 6): 566,
    ("idle-700", 6): 6044,
    # A build_stage(6) with every process-wide cache empty, then a
    # build_stage(0) after it: each compiles only the tables it adds.
    ("cold-build", 6): 657,
    ("cold-build", 0): 136,
}


def calls_into_program(fn, *args) -> int:
    """Python-level calls into the program while ``fn(*args)`` runs."""
    return calls_of(lambda code: code.co_filename.startswith(PROGRAM), fn, *args)


def tables_compiled(fn, *args) -> int:
    """Node route tables and gateway prefix tables compiled while
    ``fn(*args)`` runs: each is a miss of its process-wide cache."""
    compilers = {chassis._route_table.__wrapped__.__code__,
                 gateway._prefix_table.__wrapped__.__code__}
    return calls_of(compilers.__contains__, fn, *args)


def calls_of(counts, fn, *args) -> int:
    """Python-level calls, of code objects that ``counts``, while ``fn(*args)`` runs."""
    count = 0

    def profile(frame, event, arg) -> None:
        nonlocal count
        if event == "call" and counts(frame.f_code):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return count


# Every per-process cache of compiled routing: node route tables, gateway
# prefix tables (with their resolve memos) and audit write classes.
PROCESS_CACHES = (chassis._route_table, gateway._prefix_table, audit._write_class)


def emptied_caches() -> None:
    """Start every process-wide cache empty, so a count does not depend on
    which tests ran earlier in the process."""
    for cache in PROCESS_CACHES:
        cache.cache_clear()


def warmed_up(stage: int, lines=()) -> None:
    """Start the process-wide caches empty and fill them with one run."""
    emptied_caches()
    migration.run_workload(migration.build_stage(stage, 1), lines)


def counted(stage: int, lines) -> int:
    warmed_up(stage, lines)
    return calls_into_program(migration.run_workload, migration.build_stage(stage, 1), lines)


@pytest.mark.parametrize("stage", [0, 6])
def test_basic_run_stays_within_its_call_count(stage):
    lines = migration.parse_workload(workloads.load_text("basic.wl"))
    assert counted(stage, lines) <= BOUNDS[("basic.wl", stage)]


def test_a_chat_run_stays_within_its_call_count():
    lines = migration.parse_workload(workloads.load_text("chat_resilience.wl"))
    assert counted(6, lines) <= BOUNDS[("chat_resilience.wl", 6)]


def test_generated_mix_stays_within_its_call_count(monkeypatch):
    gen = load(monkeypatch, "gen")
    lines = migration.parse_workload(gen.generate(1, 1500).workload_text())
    assert counted(6, lines) <= BOUNDS[("mix-s6", 6)]


def test_a_warm_build_stays_within_its_call_count():
    warmed_up(6)
    assert calls_into_program(migration.build_stage, 6, 1) <= BOUNDS[("build", 6)]


def test_a_cold_build_stays_within_its_call_count():
    emptied_caches()
    assert calls_into_program(migration.build_stage, 6, 1) <= BOUNDS[("cold-build", 6)]
    assert calls_into_program(migration.build_stage, 0, 1) <= BOUNDS[("cold-build", 0)]


@pytest.mark.parametrize("stage", [0, 6])
def test_a_generated_mix_compiles_no_table_after_a_cold_build(monkeypatch, stage):
    # Every table is compiled while the system is built, so none is
    # compiled inside the run, where the benchmark times it.
    gen = load(monkeypatch, "gen")
    lines = migration.parse_workload(gen.generate(1, 1500).workload_text())
    emptied_caches()
    handle = migration.build_stage(stage, 1)
    assert tables_compiled(migration.run_workload, handle, lines) == 0


def test_an_idle_stretch_stays_within_its_call_count():
    warmed_up(6)
    sim = migration.build_stage(6, 1).sim
    assert calls_into_program(sim.advance_to, sim.now + 700) <= BOUNDS[("idle-700", 6)]
