"""The benchmark's span tracer still fits the program.

``bench/tracer.py`` patches class and module attributes of ``ssaas_sim`` by
name to time each layer. A refactor that renames or removes one of them
breaks the benchmark's per-layer run; this test makes it fail here too. It
loads the tracer read-only from ``bench/``, runs two bundled scenarios under
it, and checks that tracing changes no trace and that uninstalling restores
every original attribute.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from ssaas_sim import migration, workloads
from ssaas_sim.simwire import parse_fault_script

from test_golden import GOLDEN, SEED, sha256

BENCH = Path(__file__).resolve().parents[1] / "bench"
# (script, fault script, stage): stage 0 covers the monolith's dispatch.
SCENARIOS = (("basic.wl", None, 6), ("chat_resilience.wl", "faults_kill_chat.fs", 6),
             ("basic.wl", None, 0))
# Every count the tracer keeps over SCENARIOS. The tracer matches wiring
# modes and breaker states by identity, so a tag that stops being the
# constant it compares against would zero a count silently.
COUNTS = {
    "chassis.breaker_opens": 1,
    "chassis.discovered_calls": 91,
    "chassis.fast_fails": 4,
    "chassis.resolver_hits": 16,
    "confsvc.pulls": 14,
    "registry.evictions": 1,
    "simwire.maint_msgs": 938,
    "ssaas.schema_cache_hits": 1,
    "ssaas.schema_lookups": 15,
}
# Every span name's call count over SCENARIOS, in the order install() and
# the run first name them.
CALLS = {
    "simwire.send": 1469,
    "simwire.step": 687,
    "simwire.set_timer": 0,
    "simwire.cancel_timer": 0,
    "simwire.advance_to": 81,
    "simwire.run_until_idle": 6,
    "simwire.envelope": 5,
    "chassis.inbound": 1463,
    "chassis.dispatch": 710,
    "chassis.call": 150,
    "chassis.call_node": 152,
    "chassis.handle_response": 731,
    "chassis.reply": 762,
    "chassis.relay": 81,
    "chassis.resolve": 91,
    "chassis.resolver": 256,
    "chassis.breaker": 117,
    "gateway.dispatch": 52,
    "gateway.config": 2,
    "gateway.match": 38,
    "gateway.rewrite": 38,
    "registry.register": 12,
    "registry.deregister": 0,
    "registry.all_instances": 0,
    "registry.query": 74,
    "registry.renew": 469,
    "registry.sweep": 159,
    "confsvc.store": 28,
    "ssaas.store": 142,
    "ssaas.validate": 13,
    "ssaas.schema_cache": 15,
    "ssaas.dispatch": 29,
    "migration.build": 3,
    "migration.scale": 0,
    "migration.harness": 3,
    "migration.parse": 3,
    "migration.send": 81,
    "migration.diff": 0,
    "migration.serialize": 3,
    "migration.audit": 0,
    "chassis.handler": 0,
    "confsvc.handler": 14,
    "registry.handler": 555,
    "ssaas.handler": 141,
    "chassis.callback": 88,
    "migration.callback": 81,
    "gateway.callback": 52,
    "ssaas.callback": 69,
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def run_traced(script: str, faults: str | None, stage: int) -> dict:
    # Module attributes are looked up at call time, so the patched ones run.
    handle = migration.build_stage(stage, SEED)
    entries = migration.run_workload(
        handle, migration.parse_workload(workloads.load_text(script)),
        faults=parse_fault_script(workloads.load_text(faults)) if faults else None)
    wire = "".join(record.line() + "\n" for record in handle.sim.records)
    return {"external": sha256(migration.serialize_trace(entries)), "wire": sha256(wire)}


def test_tracer_patches_traces_identically_and_restores():
    # Imported here: test_work_counts imports this module, through test_bench_workloads.
    from test_work_counts import emptied_caches

    bench_tracer = load_tracer()
    tracer = bench_tracer.Tracer()
    # The counts of gateway.match and gateway.rewrite are misses of resolve
    # memos shared process-wide, so they start from empty caches.
    emptied_caches()
    try:
        # install() reads every attribute it patches from its owner and
        # raises KeyError or AttributeError on one that is gone.
        bench_tracer.install(tracer)
        assert tracer._patches
        assert all(current(owner, attr) is not raw for owner, attr, raw in tracer._patches)
        for script, faults, stage in SCENARIOS:
            key = f"{script}+{faults}@{stage}" if faults else f"{script}@{stage}"
            assert run_traced(script, faults, stage) == GOLDEN[key], key
    finally:
        patched = list(tracer._patches)
        tracer.uninstall()
    assert all(current(owner, attr) is raw for owner, attr, raw in patched)
    assert all(spent > 0 for spent in tracer.layer_self().values())
    assert dict(tracer.counts) == COUNTS
    assert dict(zip(tracer.names, tracer.calls)) == CALLS
