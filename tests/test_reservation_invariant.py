"""After quiescence, every active reservation has exactly one holder.

This is the first half of ROADMAP item 20's invariant. A provision reserves
a database under its owner key, ``project:<message id>``, and persists its
project under the same key. A chat reserves under ``chat:<message id>`` and
keeps the reservation id. Whatever faults a run met, once it is quiet:

- the owners of the ``project:*`` reservations are exactly the keys of the
  projects, one reservation per project;
- the ids of the ``chat:*`` reservations are exactly the ones the chats hold;
- no other reservation is active.

:func:`assert_reservations_held` is a test helper that reads the stores of a
built system, private fields included. It runs here over every bundled
script at every stage, with and without the bundled kill script, over the
orphan-project repro, and over the benchmark's seed-1 generated mixes,
loaded read-only from ``bench/``. ``tests/test_acceptance.py`` runs it after
its reservation repros.
"""

from __future__ import annotations

from collections import Counter

import pytest

from ssaas_sim import migration, workloads
from ssaas_sim.migration.stages import FIRST_STAGE, LAST_STAGE, SETTLE_BUDGET_TICKS, Stores
from ssaas_sim.simwire import parse_fault_script
from ssaas_sim.ssaas.stores import ServerFlavor

from test_bench_workloads import GOLDEN, load

STAGES = range(FIRST_STAGE, LAST_STAGE + 1)
SCRIPTS = ("basic.wl", "chat_resilience.wl")
KILL_SCRIPT = "faults_kill_chat.fs"


def assert_reservations_held(stores: Stores) -> None:
    active = stores.pool.active_reservations()
    projects = Counter(r.owner for r in active if r.owner.startswith("project:"))
    chats = Counter(r.reservation_id for r in active if r.owner.startswith("chat:"))
    others = [r for r in active if not r.owner.startswith(("project:", "chat:"))]
    assert projects == Counter(p.key for p in stores.schemas._projects.values())
    assert chats == Counter(c.reservation_id for c in stores.chats._instances.values())
    assert others == []


def run(stage: int, text: str, faults: str | None = None) -> migration.SystemHandle:
    handle = migration.build_stage(stage, 1)
    migration.run_workload(handle, migration.parse_workload(text),
                           faults=parse_fault_script(faults) if faults else None)
    return handle


def test_the_check_refuses_a_stray_or_a_missing_reservation():
    handle = run(6, workloads.load_text("basic.wl"))
    assert_reservations_held(handle.stores)
    pool = handle.stores.pool
    for owner in ("project:999999", "chat:999999", "other"):
        pool.reserve(ServerFlavor.MYSQL, owner)
        with pytest.raises(AssertionError):
            assert_reservations_held(handle.stores)
        pool.release(owner)
    assert_reservations_held(handle.stores)
    pool.release(pool.active_reservations()[0].owner)  # a project's
    with pytest.raises(AssertionError):
        assert_reservations_held(handle.stores)


@pytest.mark.parametrize("faults", [None, KILL_SCRIPT])
@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("script", SCRIPTS)
def test_every_reservation_is_held_after_a_bundled_script(script, stage, faults):
    handle = run(stage, workloads.load_text(script),
                 workloads.load_text(faults) if faults else None)
    assert_reservations_held(handle.stores)


@pytest.mark.parametrize("stage", [5, 6])
def test_every_reservation_is_held_after_a_persist_of_unknown_outcome(stage):
    # The orphan-project repro: the persist's reply is delayed past the
    # caller's deadline, so the provision is answered 503 and undone.
    handle = run(stage, '0|client|POST|/api/developers|{"name":"ann","email":"a@x.dev"}\n'
                        '100|client|POST|/api/projects|{"name":"p","owner_developer_id":1}\n',
                 "15 delay developerdata-1 developerservices-1 8\n")
    assert_reservations_held(handle.stores)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_reservation_is_held_after_a_generated_mix(monkeypatch, name):
    gen, child = load(monkeypatch, "gen"), load(monkeypatch, "child")
    wl, pinned = child.WORKLOADS[name], GOLDEN[name]
    mix = gen.generate(pinned["seed"], pinned["requests"], chat=wl.chat, faults=wl.faults)
    handle = migration.build_stage(wl.stage, pinned["seed"])
    for service in wl.scale:
        handle.add_instance(service)
    assert handle.sim.run_until_idle(budget=SETTLE_BUDGET_TICKS)
    handle.settle_tick = handle.sim.now
    migration.run_workload(handle, migration.parse_workload(mix.workload_text()),
                           faults=parse_fault_script(mix.faults_text()) if wl.faults else None)
    assert handle.stores.pool.active_reservations()
    assert_reservations_held(handle.stores)
