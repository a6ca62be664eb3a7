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
SCENARIOS = (("basic.wl", None), ("chat_resilience.wl", "faults_kill_chat.fs"))
STAGE = 6
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
    "ssaas.schema_lookups": 9,
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def run_traced(script: str, faults: str | None) -> dict:
    # Module attributes are looked up at call time, so the patched ones run.
    handle = migration.build_stage(STAGE, SEED)
    entries = migration.run_workload(
        handle, migration.parse_workload(workloads.load_text(script)),
        faults=parse_fault_script(workloads.load_text(faults)) if faults else None)
    wire = "".join(record.line() + "\n" for record in handle.sim.records)
    return {"external": sha256(migration.serialize_trace(entries)), "wire": sha256(wire)}


def test_tracer_patches_traces_identically_and_restores():
    bench_tracer = load_tracer()
    tracer = bench_tracer.Tracer()
    try:
        # install() reads every attribute it patches from its owner and
        # raises KeyError or AttributeError on one that is gone.
        bench_tracer.install(tracer)
        assert tracer._patches
        assert all(current(owner, attr) is not raw for owner, attr, raw in tracer._patches)
        for script, faults in SCENARIOS:
            key = f"{script}+{faults}@{STAGE}" if faults else f"{script}@{STAGE}"
            assert run_traced(script, faults) == GOLDEN[key], key
    finally:
        patched = list(tracer._patches)
        tracer.uninstall()
    assert all(current(owner, attr) is raw for owner, attr, raw in patched)
    assert all(spent > 0 for spent in tracer.layer_self().values())
    assert dict(tracer.counts) == COUNTS
